"""The two exhaustive searches against the scans they replace, and the law deciders against their formulas."""

import collections
import contextlib
import functools
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import formulas
import scan_oracle
import subjects

from ehresmann import (
    Biaction,
    InternalInconsistency,
    OrderedSemigroup,
    PartialOrder,
    StructureError,
    automorphisms,
    category_of,
    derive_biaction,
    derive_orders,
    enumerate_ehresmann_orders,
    projections,
    verify_biaction,
    zoo,
)
from ehresmann import category, core, orders
from ehresmann.category import FiniteCategory, FiniteOrderedCategory, check_ehresmann_category_two_orders
from ehresmann.core import LAWS, Evaluation, FiniteBiunarySemigroup
from ehresmann.orders import _OrderSearch, _os3_total_witness


def rescan_tables(n):
    """Every associative n x n table, each cell checked by rescanning all n**3 triples."""
    table = [[-1] * n for _ in range(n)]

    def consistent():
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    bc = table[b][c]
                    left = table[ab][c] if ab >= 0 else -1
                    right = table[a][bc] if bc >= 0 else -1
                    if left >= 0 and right >= 0 and left != right:
                        return False
        return True

    def fill(idx):
        if idx == n * n:
            yield tuple(tuple(row) for row in table)
            return
        i, j = divmod(idx, n)
        for v in range(n):
            table[i][j] = v
            if consistent():
                yield from fill(idx + 1)
        table[i][j] = -1

    return fill(0)


@functools.cache
def rescanned(n):
    return list(rescan_tables(n))


@pytest.mark.parametrize("n, count", [(1, 1), (2, 8), (3, 113), (4, 3492)])
def test_labelled_stream_matches_the_full_rescan(n, count):
    # counts are OEIS A023814, associative tables on n labelled elements; the
    # oracle runs the (D, R) search on every one of them, the stream relabels
    # what it finds on the orbit leaders
    tables = rescanned(n)
    assert len(tables) == count
    expected = [s for t in tables for s in zoo._structures_for_table(n, t)]
    assert list(zoo.enumerate_ehresmann_semigroups(n, allow_large=True)) == expected


@pytest.mark.parametrize("up_to_iso", [False, True], ids=["labelled", "up-to-iso"])
def test_dr_search_runs_once_per_orbit_leader(monkeypatch, up_to_iso):
    # an empty memo, as in a process that has not enumerated size 4 yet
    monkeypatch.setattr(zoo, "_LEADERS", {})
    searched, table_searches = [], []
    search, table_search = zoo._structures_for_table, zoo._tables_with_automorphisms

    def counted(n, mul):
        searched.append(mul)
        return search(n, mul)

    def counted_tables(n):
        table_searches.append(n)
        return table_search(n)

    monkeypatch.setattr(zoo, "_structures_for_table", counted)
    monkeypatch.setattr(zoo, "_tables_with_automorphisms", counted_tables)
    first = list(zoo.enumerate_ehresmann_semigroups(4, up_to_iso, allow_large=True))
    assert len(searched) == 188
    assert searched == [t for t, _ in table_search(4)]
    # later enumerations in the process, in either mode, search no table
    assert list(zoo.enumerate_ehresmann_semigroups(4, up_to_iso, allow_large=True)) == first
    list(zoo.enumerate_ehresmann_semigroups(4, not up_to_iso, allow_large=True))
    list(zoo._orbits(4))
    assert table_searches == [4]
    assert len(searched) == 188


@pytest.mark.parametrize("n, count", [(1, 1), (2, 5), (3, 24), (4, 188)])
def test_lex_least_tables_are_the_rescan_orbit_leaders(n, count):
    # counts are OEIS A027851, semigroups of order n up to isomorphism
    perms = list(itertools.permutations(range(n)))
    leaders = [t for t in rescanned(n) if all(subjects.relabelled(p, t)[0] >= t for p in perms)]
    assert len(leaders) == count
    assert list(zoo._lex_least_tables(n)) == leaders


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_leaders_carry_their_automorphisms(n):
    # the relabellings still tied at a leaf are its automorphisms, the identity left out
    perms = list(itertools.permutations(range(n)))
    for t, automorphisms in zoo._tables_with_automorphisms(n):
        assert automorphisms == [p for p in perms[1:] if subjects.relabelled(p, t)[0] == t]


def recursive_orders(s):
    """Ehresmann orders by the recursive bool-matrix search over extensions of the e-order."""
    n, mul, D, R = s.n, s.mul, s.dmap, s.rmap
    proj = set(projections(s).members)

    def close(mat, queue, excluded):
        while queue:
            a, b = queue.pop()
            derived = [(D[a], D[b]), (R[a], R[b])]
            for c in range(n):
                for d in range(n):
                    if mat[c][d]:
                        derived.append((mul[a][c], mul[b][d]))
                        derived.append((mul[c][a], mul[d][b]))
            for x in range(n):
                if mat[b][x]:
                    derived.append((a, x))
                if mat[x][a]:
                    derived.append((x, b))
            for p, q in derived:
                if p == q or mat[p][q]:
                    continue
                if mat[q][p] or (q in proj and p not in proj) or (p, q) in excluded:
                    return False
                mat[p][q] = True
                queue.append((p, q))
        return True

    def solve(mat, excluded, idx):
        while idx < len(cands) and (mat[cands[idx][0]][cands[idx][1]] or cands[idx] in excluded):
            idx += 1
        if idx == len(cands):
            out.add(tuple(tuple(row) for row in mat))
            return
        a, b = cands[idx]
        if not mat[b][a]:
            inc = [list(row) for row in mat]
            inc[a][b] = True
            if close(inc, [(a, b)], frozenset(excluded)):
                solve(inc, excluded, idx + 1)
        excluded.add((a, b))
        solve(mat, excluded, idx + 1)
        excluded.remove((a, b))

    mat = [list(row) for row in derive_orders(s).leq_e.rel]
    out = set()
    if not close(mat, [(a, b) for a in range(n) for b in range(n) if mat[a][b]], frozenset()):
        return []
    cands = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and not mat[a][b] and not mat[b][a] and not (b in proj and a not in proj)
    ]
    solve(mat, set(), 0)
    return sorted(out)


def pairs_outside_the_root(s, mats):
    """How many strict pairs of the orders ``mats`` the order search's root
    closure lacks; each must have its D and R images ordered in the root, as
    the search assumes when it branches only on such pairs."""
    up = _OrderSearch(s, Evaluation()).root[0]
    D, R = s.dmap, s.rmap
    outside = 0
    for mat in mats:
        for a, b in itertools.product(range(s.n), repeat=2):
            if mat[a][b] and not up[a] >> b & 1:
                assert up[D[a]] >> D[b] & 1 and up[R[a]] >> R[b] & 1, (a, b)
                outside += 1
    return outside


def test_order_search_matches_the_recursive_search():
    total = outside = 0
    for s in subjects.structures(4, 16):
        found = [order.rel for order in enumerate_ehresmann_orders(s)]
        assert found == recursive_orders(s)
        outside += pairs_outside_the_root(s, found)
        total += len(found)
    assert total == 10160  # 9,952 of them on the 1,708 structures of size 4
    assert outside


def test_order_search_branches_only_on_pairs_with_ordered_images():
    s = zoo.get("pt-3").structure
    search = _OrderSearch(s, Evaluation())
    up, proj, D, R = search.root[0], search.proj, s.dmap, s.rmap
    unordered = [
        (a, b)
        for a, b in itertools.product(range(s.n), repeat=2)
        if a != b and not up[a] >> b & 1 and not up[b] >> a & 1 and not (proj >> b & 1 and not proj >> a & 1)
    ]
    assert search.candidates == [(a, b) for a, b in unordered if up[D[a]] >> D[b] & 1 and up[R[a]] >> R[b] & 1]
    assert (len(unordered), len(search.candidates)) == (3124, 697)
    # the one Ehresmann order of pt-3 is its e-order
    found = [order.rel for order in enumerate_ehresmann_orders(s)]
    assert found == [derive_orders(s).leq_e.rel]
    assert pairs_outside_the_root(s, found) == 0


def orders_up_to_automorphism(s):
    """Each automorphism image of each Ehresmann order built as a PartialOrder;
    the first order of each orbit is kept."""
    n = s.n
    auts = automorphisms(s)
    seen, kept = set(), []
    for order in enumerate_ehresmann_orders(s):
        images = set()
        for p in auts:
            mat = [[False] * n for _ in range(n)]
            for a, b in order.pairs():
                mat[p[a]][p[b]] = True
            images.add(PartialOrder(n, tuple(map(tuple, mat))).key())
        if min(images) not in seen:
            seen.add(min(images))
            kept.append(order)
    return kept


def test_orders_up_to_iso_match_the_image_orders():
    reduced = 0
    for s in subjects.structures(3, 16):
        found = enumerate_ehresmann_orders(s, up_to_iso=True)
        assert found == orders_up_to_automorphism(s)
        reduced += len(found) < len(enumerate_ehresmann_orders(s))
    assert reduced  # some subject has an automorphism that merges orders


def random_order(rng, n):
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
    try:
        return PartialOrder.from_pairs(n, pairs)
    except StructureError:
        return None


def os3_witness(mul, order):
    """The least witness of OS3 on the table ``mul`` under ``order``, by its formula."""
    return formulas.least(formulas.OS3, formulas.View(order.n, mul, (), (), order.rel, (), str))


def assert_os3_agrees(mul, order, sides):
    w = os3_witness(mul, order)
    assert _os3_total_witness(order.n, mul, order.rel) == w
    sides.add(w is None)


def test_os3_fast_path_matches_the_formula_on_random_orders():
    rng = random.Random(6)
    sides = set()
    for s in subjects.structures(4):
        for _ in range(3):
            order = random_order(rng, s.n)
            if order is not None:
                assert_os3_agrees(s.mul, order, sides)
    assert sides == {True, False}


def assert_masks_match_rel(order):
    """``up``, ``down`` and ``covers`` of ``order`` against their definitions on ``rel``."""
    n, rel = order.n, order.rel
    assert order.up == tuple(sum(1 << b for b in range(n) if rel[a][b]) for a in range(n))
    assert order.down == tuple(sum(1 << a for a in range(n) if rel[a][b]) for b in range(n))
    below = [[c for c in range(n) if c != a and rel[c][a]] for a in range(n)]
    assert order.covers == tuple(tuple(c for c in below[a] if not any(rel[c][d] for d in below[a] if d != c))
                                 for a in range(n))


def test_order_masks_match_rel_on_every_small_poset_and_zoo_order():
    """Every labelled poset on at most 4 points (1, 3, 19, 219) and every zoo order
    through pt-3, the derived orders included."""
    posets = [order for n in range(1, 5) for order in subjects.posets(n)]
    assert len(posets) == 242
    posets += [order for _, orders_of_s in subjects.zoo_orders(64) for order in orders_of_s]
    for order in posets:
        assert_masks_match_rel(order)
    assert any(len(row) > 1 for order in posets for row in order.covers)


def test_reading_the_lazy_masks_keeps_equal_orders_equal():
    for order in subjects.posets(3):
        twin = PartialOrder(order.n, order.rel)
        assert twin == order and hash(twin) == hash(order)
        twin.down, twin.covers
        assert twin == order and hash(twin) == hash(order)
        assert order == twin and {order, twin} == {order}


def test_os3_fast_path_matches_the_formula_on_the_zoo():
    sides = set()
    for s, orders in subjects.zoo_orders(64):
        for order in orders:
            assert_os3_agrees(s.mul, order, sides)
    assert sides == {True, False}  # orderless-band is not de Barros: its e-order fails OS3


def test_os3_fast_path_matches_the_formula_on_single_entry_mutations():
    rng = random.Random(7)
    sides = set()
    for s, orders in subjects.zoo_orders(16):
        for _ in range(200):
            mul = [list(row) for row in s.mul]
            a, b = rng.randrange(s.n), rng.randrange(s.n)
            mul[a][b] = rng.randrange(s.n)
            assert_os3_agrees(mul, rng.choice(orders), sides)
    assert sides == {True, False}


def assert_order_check_agrees(n, rel, kinds):
    """``PartialOrder`` accepts ``rel`` when the scan does, else raises the scan's message."""
    want = scan_oracle.partial_order_failure(n, rel)
    if want is None:
        assert PartialOrder(n, rel).rel == tuple(map(tuple, rel))
    else:
        with pytest.raises(StructureError) as err:
            PartialOrder(n, rel)
        assert str(err.value) == want
    kinds.add(want and want.split()[3])


def test_partial_order_check_matches_the_scan_on_every_small_matrix():
    kinds = set()
    for n in range(1, 4):
        for bits in range(1 << n * n):
            rel = tuple(tuple(bool(bits >> (a * n + b) & 1) for b in range(n)) for a in range(n))
            assert_order_check_agrees(n, rel, kinds)
    assert kinds == {None, "reflexive", "antisymmetric", "transitive"}


def test_partial_order_check_matches_the_scan_on_single_entry_flips():
    rng = random.Random(8)
    kinds = set()
    orders = [order for _, orders_of_s in subjects.zoo_orders(64) for order in orders_of_s]
    orders += filter(None, (random_order(rng, n) for n in range(4, 9) for _ in range(20)))
    for order in orders:
        n = order.n
        assert_order_check_agrees(n, order.rel, kinds)
        for _ in range(10):
            rel = [list(row) for row in order.rel]
            a, b = rng.randrange(n), rng.randrange(n)
            rel[a][b] = not rel[a][b]
            assert_order_check_agrees(n, rel, kinds)
    assert kinds == {None, "reflexive", "antisymmetric", "transitive"}


def assert_closure_agrees(n, pairs, sides):
    """``from_pairs`` closes ``pairs`` to the scan's matrix, or raises its message."""
    try:
        want = scan_oracle.order_closure(n, pairs)
    except StructureError as exc:
        with pytest.raises(StructureError) as err:
            PartialOrder.from_pairs(n, pairs)
        assert str(err.value) == str(exc)
        sides.add(False)
    else:
        assert PartialOrder.from_pairs(n, pairs).rel == want
        sides.add(True)


def test_order_closure_matches_the_scan_on_every_small_relation():
    sides = set()
    for n in range(1, 4):
        cells = list(itertools.product(range(n), repeat=2))
        for bits in range(1 << n * n):
            assert_closure_agrees(n, [cell for i, cell in enumerate(cells) if bits >> i & 1], sides)
    assert sides == {True, False}


def test_order_closure_matches_the_scan_on_the_zoo():
    """Each zoo order from its strict pairs and from its covers, and its covers
    with one reversed, which closes to a cycle."""
    sides = set()
    orders = [order for _, orders_of_s in subjects.zoo_orders(64) for order in orders_of_s]
    orders += [order for _, order in zoo.get("rel-3").orders]
    for order in orders:
        n, rel = order.n, order.rel
        up = [sum(1 << b for b in range(n) if rel[a][b]) for a in range(n)]
        down = [sum(1 << a for a in range(n) if rel[a][b]) for b in range(n)]
        strict = order.pairs(strict=True)
        # b covers a when nothing but a and b lies between them
        covers = [(a, b) for a, b in strict if up[a] & down[b] == 1 << a | 1 << b]
        assert_closure_agrees(n, strict, sides)
        assert_closure_agrees(n, covers, sides)
        if covers:
            a, b = covers[len(covers) // 2]
            assert_closure_agrees(n, covers + [(b, a)], sides)
    assert sides == {True, False}


# every formula law against its registered decider (formulas.compare), and the
# fast paths that small subjects skip on their own


def greedy_set(mul):
    """``core._generating_set`` of the table ``mul`` at any size, the cutoff below
    which the package builds none lifted."""
    n = len(mul)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_PRODUCT_SCAN_MAX_N", 1)
        return core._generating_set(FiniteBiunarySemigroup(n, mul, (0,) * n, (0,) * n), Evaluation())


def assert_semigroup_laws_agree(s, sides):
    """The semigroup laws on ``s``, and Light's test on its own: small tables are scanned without it."""
    formulas.compare_all(s, "semigroup", sides)
    if s.n > 1:
        light = core._generators_associate(s.mul, greedy_set(s.mul))
        assert light == formulas.report("associativity", s).holds
        sides["Light's test", light] += 1


def category_or_none(s, sides=None):
    """The composition table of ``s`` as a category, None when it is not one.

    An associativity failure must be the one the n³ scan finds first."""
    comp = tuple(tuple(v if s.rmap[x] == s.dmap[y] else None for y, v in enumerate(row))
                 for x, row in enumerate(s.mul))
    try:
        c = FiniteCategory(s.n, s.dmap, s.rmap, comp)
    except StructureError as exc:
        if not str(exc).startswith("composition not associative"):
            return None
        c, message = None, str(exc)
    else:
        message = None
    assert message == scan_oracle.category_associativity_failure(s.n, s.dmap, s.rmap, comp)
    if sides is not None:
        sides["category associativity", message is None] += 1
    return c


def assert_maxima_agree(c):
    """Both sides' tables of maxima on ``c``, and ``_max_below`` on every (x, e),
    entry by entry against the greatest y <= x with D(y) <= e (R(y) on the dual)."""
    for builder, idmap, v in ((category._restrictions, c.dmap, formulas.view(c)),
                              (category._corestrictions, c.rmap, formulas.view(c).dual)):
        expected = [[formulas.greatest_below(v, x, e) if e in v.id_set and v.le[e][v.D[x]] else None
                     for e in range(c.n)] for x in range(c.n)]
        assert builder(c, Evaluation()) == expected
        assert all(category._max_below(c, idmap, x, e) == formulas.greatest_below(v, x, e)
                   for x in range(c.n) for e in v.ids)


def assert_category_laws_agree(c0, order, sides, right=None):
    """The category laws on ``c0`` under ``order``, and the two-order law under
    ``order`` and ``right`` (by default ``order`` again)."""
    c = FiniteOrderedCategory(c0, order)
    assert_maxima_agree(c)
    formulas.compare_all(c, "category", sides)
    # the OC3 bitmask test on its own: small categories are scanned without it
    w = formulas.least(formulas.OS3, formulas.view(c))
    assert category._oc3_witness(c.comp, order) == w
    stays_above = category._products_stay_above(c.comp, order)
    assert stays_above == (w is None)
    sides["OC3 bitmask test", stays_above] += 1
    left, right = order, right or order
    rep = check_ehresmann_category_two_orders(c0, left, right)
    assert rep == formulas.two_orders(c, right)
    sides["two-orders", rep.holds] += 1
    # the monotone clauses on the unique-below table, also where the two-order
    # law never reaches them; both read the meet of the left order
    ids = c0.identities()
    meet = category._derive_meet(c0.n, ids, left)
    if meet is not None:
        v = formulas.two_order_view(c, right)
        for idmap, rel_unique, rel, spec in ((c0.dmap, left.rel, right.rel, formulas.RESTRICTION_MONOTONE),
                                             (c0.rmap, right.rel, left.rel, formulas.CORESTRICTION_MONOTONE)):
            w = category._monotone_witness(ids, idmap, category._unique_below(c0.n, idmap, rel_unique), rel, meet)
            assert w == formulas.least(spec, v)
            sides["monotone", w is None] += 1


def one_sided(sides):
    """The names seen with one verdict only, or never compared."""
    return {name for name, _ in sides if not (sides[name, True] and sides[name, False])}


def assert_laws_agree_under_orders(pairs):
    """Every formula law on each (structure, orders) of ``pairs``: the ordered
    and category laws under each distinct order, among them both derived orders
    <=_l and <=_r, and the two-order law under <=_l and <=_r and under each
    other order on both sides."""
    sides = collections.Counter()
    for s, orders_of_s in pairs:
        assert_semigroup_laws_agree(s, sides)
        c0 = category_or_none(s)
        derived = derive_orders(s)
        for order in dict.fromkeys(orders_of_s):
            formulas.compare_all(OrderedSemigroup(s, order), "ordered", sides)
            assert_category_laws_agree(c0, order, sides, derived.leq_r if order == derived.leq_l else None)
    return sides


def test_formulas_match_the_deciders_on_every_class_of_size_at_most_4():
    """Every Ehresmann semigroup of size at most 3, every 17th of size 4 and each
    class leader of size 4, under each Ehresmann order and each derived order."""
    small = (*subjects.structures(3), *subjects.labelled(4)[::17], *subjects.leaders(4))
    sides = assert_laws_agree_under_orders((s, subjects.with_derived(s, enumerate_ehresmann_orders(s)))
                                           for s in {s.key(): s for s in small}.values())
    # these tables are associative, de Barros and Ehresmann, and every order
    # gives an omega-structured category; random orders, mutations and the zoo
    # reach the failing sides
    assert one_sided(sides) == {
        "associativity", "Light's test", "localisable", "ehresmann", "de-barros-equational",
        "leq-e-partial-laws", "de-barros", "ehresmann-category-two-orders", "semilattice-order-agreement",
        "omega-structured", "OC3 bitmask test", "oc7'", "oci"}


def test_formulas_match_the_deciders_on_the_zoo():
    """Each zoo entry below rel-3 under each of its orders and each derived order."""
    sides = assert_laws_agree_under_orders(subjects.zoo_orders(64))
    assert "OC3 bitmask test" not in one_sided(sides)


def test_formulas_match_the_deciders_on_random_orders():
    """Every Ehresmann semigroup of size at most 3, each zoo entry of at most 16
    elements and each class leader of size 4 under four pairs of random orders."""
    rng = random.Random(11)
    sides = collections.Counter()
    for s in (*subjects.structures(3, 16), *(s for s in subjects.leaders(4) if s.n == 4)):
        c0 = category_or_none(s)
        for order, other in [(random_order(rng, s.n), random_order(rng, s.n)) for _ in range(4)]:
            if order is not None and other is not None:
                formulas.compare_all(OrderedSemigroup(s, order), "ordered", sides)
                assert_category_laws_agree(c0, order, sides, other)
    assert one_sided(sides) == set()


def test_formulas_match_the_deciders_on_single_entry_mutations():
    """Seeded single-entry mutations of the tables of size 2 and 3 and of the zoo
    below pt-3, each (structure, order) drawn again compared once: 927 of 1,468."""
    rng = random.Random(12)
    sides, drawn = collections.Counter(), set()
    pairs = [(s, [derive_orders(s).leq_e]) for s in subjects.structures(3) if s.n > 1]
    for s, orders_of_s in pairs + subjects.zoo_orders(16):
        for _ in range(12 if s.n <= 3 else 100):
            mul = [list(row) for row in s.mul]
            a, b = rng.randrange(s.n), rng.randrange(s.n)
            mul[a][b] = rng.randrange(s.n)
            mutated = FiniteBiunarySemigroup(s.n, mul, s.dmap, s.rmap)
            order = rng.choice(orders_of_s)
            if (mutated.key(), order.key()) in drawn:
                continue
            drawn.add((mutated.key(), order.key()))
            assert_semigroup_laws_agree(mutated, sides)
            formulas.compare_all(OrderedSemigroup(mutated, order), "ordered", sides)
            c0 = category_or_none(mutated, sides)
            if c0 is not None:
                assert_category_laws_agree(c0, order, sides)
    assert len(drawn) == 927
    for name in ("associativity", "functional", "os7", "Light's test", "category associativity"):
        assert sides[name, True] and sides[name, False], name


def test_all_epi_witness_matches_the_triple_scan():
    # every structure of size at most 4 under each Ehresmann order, then the
    # zoo below rel-3 under each of its orders
    sides = set()
    searched = [osg for e in subjects.zoo_entries(16) for osg in orders._ehresmann_orders(e.structure, Evaluation())]
    for osg in (*subjects.ordered(4, 64), *searched):
        c = category_of(osg)
        w = category._all_epi_witness(c)
        assert w == scan_oracle.all_epi_witness(c)
        sides.add(w is None)
    assert sides == {True, False}


def test_oc_laws_match_the_formulas_on_every_small_category():
    sides, verdicts = collections.Counter(), collections.Counter()
    assert [(len(subjects.categories(n)), len(subjects.posets(n))) for n in (1, 2, 3)] == [(1, 1), (5, 3), (52, 19)]
    for c in subjects.ordered_categories(3):
        assert_maxima_agree(c)
        formulas.compare_all(c, "category", sides)
        # OC7 and OC7' read their witnesses from one pass built in the evaluation
        ev = Evaluation()
        oc7, oc7p = LAWS["oc7"].decide(c, ev), LAWS["oc7'"].decide(c, ev)
        assert (oc7, oc7p) == (formulas.report("oc7", c), formulas.report("oc7'", c))
        verdicts[oc7.holds, oc7p.holds] += 1
    assert one_sided(sides) == set()
    # OC7 implies OC7'; the other three verdict pairs all occur
    assert verdicts == {(True, True): 645, (False, True): 269, (False, False): 90}


def test_labelled_categories_number_1_5_52_973():
    assert [len(set(subjects.categories(n))) for n in (1, 2, 3, 4)] == [1, 5, 52, 973]


# One of the 96 triples (C, <=_l, <=_r) on 4 arrows where restriction-monotone
# is the first clause of the two-order law to fail. Both monotone clauses fail
# there, and the restriction clause read under <=_l holds, so that reading gives
# another report. C is two groups of order 2, on the identities 0 and 2 with 1
# and 3 their other arrows: commutative with D = R, it is its own dual, and the
# dual triple swaps the orders.
Z2_PAIR = FiniteCategory(4, (0, 0, 2, 2), (0, 0, 2, 2),
                         ((0, 1, None, None), (1, 0, None, None), (None, None, 2, 3), (None, None, 3, 2)))


@pytest.mark.parametrize("left, right, witness", [
    (((2, 0), (3, 1)), ((2, 0), (2, 1)), (2, 1, 2)),
    (((2, 0), (2, 1)), ((2, 0), (3, 1)), (3, 1, 2)),
], ids=["triple", "dual"])
def test_two_order_law_fails_at_the_monotone_clauses_on_4_arrows(left, right, witness):
    assert FiniteCategory(4, Z2_PAIR.rmap, Z2_PAIR.dmap, tuple(zip(*Z2_PAIR.comp))) == Z2_PAIR
    leq_l, leq_r = (PartialOrder.from_pairs(4, pairs) for pairs in (left, right))
    rep = check_ehresmann_category_two_orders(Z2_PAIR, leq_l, leq_r)
    assert rep == formulas.two_orders(FiniteOrderedCategory(Z2_PAIR, leq_l), leq_r)
    assert (rep.detail, rep.witness) == ("first failing clause: restriction-monotone", witness)
    assert [name for name, ok in rep.parts if not ok] == ["restriction-monotone", "corestriction-monotone"]


# Light's test and the de Barros rows on their own (small subjects skip them),
# OS7 and the product sets it reads, and the composite of two orders on up-set
# bitmasks


def every_magma(n):
    """Every n x n table on 0..n-1."""
    for cells in itertools.product(range(n), repeat=n * n):
        yield tuple(cells[a * n:(a + 1) * n] for a in range(n))


def test_lights_test_matches_the_formula_on_every_magma_on_two_and_three_points():
    verdicts = collections.Counter()
    for n in (2, 3):
        for mul in every_magma(n):
            light = core._generators_associate(mul, greedy_set(mul))
            assert light == (formulas.least(formulas.ASSOCIATIVITY, formulas.View(n, mul, (), (), None, (), str)) is None)
            verdicts[n, light] += 1
    # A023814: 8 of the 16 tables on 2 points associate, 113 of the 19,683 on 3
    assert verdicts == {(2, True): 8, (2, False): 8, (3, True): 113, (3, False): 19570}


def test_lights_test_matches_the_scan_on_the_zoo_and_its_mutations():
    """Every zoo table, rel-3 included, and seeded single-entry mutations of each;
    the n³ scan runs a row comparison per (a, b)."""
    rng = random.Random(21)
    sides = set()
    for name in zoo.names():
        mul = zoo.get(name).structure.mul
        n = len(mul)
        if n == 1:
            continue
        tables = [mul]
        for _ in range(3 if n <= 64 else 1):
            rows = [list(row) for row in mul]
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            tables.append(tuple(map(tuple, rows)))
        for table in tables:
            light = core._generators_associate(table, greedy_set(table))
            assert light == scan_oracle.associates_by_rows(table), name
            sides.add(light)
    assert sides == {True, False}


# the generating set above the cutoff, and the three readers that multiply
# only by its generators: the order search's closure, OS3 and L3


def product_closure(mul, gens):
    """The elements made from ``gens`` by products on either side, closed."""
    members, queue = set(gens), list(gens)
    while queue:
        x = queue.pop()
        for y in list(members):
            for z in (mul[x][y], mul[y][x]):
                if z not in members:
                    members.add(z)
                    queue.append(z)
    return members


def test_generating_set_generates_every_zoo_table_above_the_cutoff():
    sizes = {}
    for name in zoo.names():
        s = zoo.get(name).structure
        gens = core._generating_set(s, Evaluation())
        if s.n <= core._PRODUCT_SCAN_MAX_N:
            assert gens is None, name
            continue
        assert product_closure(s.mul, gens) == set(range(s.n)), name
        sizes[name] = len(gens)
    assert sizes["pt-3"] == 5 and sizes["rel-3"] == 5
    assert {"inj-2", "pt-2", "rel-2"} <= set(sizes)


GENERATED = ("inj-2", "pt-2", "rel-2", "pt-3")


def generated_searches(monkeypatch):
    """(the search on generator rows, the search multiplying by every element) on
    every Ehresmann semigroup of size at most 4, given its greedy set with the
    cutoff lifted, and on the zoo entries above the cutoff."""
    monkeypatch.setattr(core, "_PRODUCT_SCAN_MAX_N", 1)
    for s in (*subjects.structures(4), *(zoo.get(name).structure for name in GENERATED)):
        yield s, _OrderSearch(s, Evaluation()), scan_oracle.AllProductsSearch(s, Evaluation())


def test_order_search_on_generators_matches_the_closure_by_every_product(monkeypatch):
    fewer = 0
    for s, fast, scan in generated_searches(monkeypatch):
        assert (fast.root_ok, fast.root) == (scan.root_ok, scan.root)
        assert fast.candidates == scan.candidates == scan_oracle.order_candidates(scan)
        assert fast.solve() == scan.solve()
        fewer += s.n > 1 and len(fast.right[0]) < s.n
    assert fewer > 1000  # most tables need fewer generators than elements


def closed_under(s, pairs, gens):
    """The least order holding ``pairs`` with ag <= bg and ga <= gb for each
    a < b in it and g in ``gens``; StructureError when there is none."""
    mul = s.mul
    while True:
        order = PartialOrder.from_pairs(s.n, pairs)
        strict = order.pairs(strict=True)
        more = {(mul[a][g], mul[b][g]) for a, b in strict for g in gens}
        more |= {(mul[g][a], mul[g][b]) for a, b in strict for g in gens}
        more = sorted((p, q) for p, q in more if not order.rel[p][q])
        if not more:
            return order
        pairs = strict + more


def test_os3_on_generators_matches_the_formula_above_the_cutoff():
    """Each zoo order; the e-order with random pairs added; and the e-order with
    a random pair added, closed under products with all generators but one, so
    that OS3 fails there, if at all, only through the one left out."""
    rng = random.Random(23)
    sides, left_out = set(), collections.Counter()
    for name in GENERATED:
        s = zoo.get(name).structure
        gens = core._generating_set(s, Evaluation())
        leq_e = derive_orders(s).leq_e.pairs()
        drawn = [(order, None) for _, order in zoo.get(name).orders]
        for _ in range(12):
            with contextlib.suppress(StructureError):
                extra = [(rng.randrange(s.n), rng.randrange(s.n)) for _ in range(rng.randrange(1, 4))]
                drawn.append((PartialOrder.from_pairs(s.n, leq_e + extra), None))
        for i, g in enumerate(gens):
            for _ in range(20):
                with contextlib.suppress(StructureError):
                    pair = (rng.randrange(s.n), rng.randrange(s.n))
                    drawn.append((closed_under(s, leq_e + [pair], gens[:i] + gens[i + 1:]), g))
        for order, g in drawn:
            w = os3_witness(s.mul, order)
            assert _os3_total_witness(s.n, s.mul, order.rel, gens) == w, name
            sides.add(w is None)
            left_out[name, g] += w is not None and g is not None
    assert sides == {True, False}
    # every subject has some order that fails OS3 only through one generator
    assert {name for (name, g), fails in left_out.items() if fails} == set(GENERATED)


def test_localisable_on_generators_matches_the_formula_above_the_cutoff():
    """L3 on generators and L4 on pairs of projections, on each table and on
    single-entry D and R mutations of it, which keep it associative."""
    rng = random.Random(24)
    sides = collections.defaultdict(set)
    for name in GENERATED:
        s = zoo.get(name).structure
        tables = [s]
        for _ in range(60):
            maps = [list(s.dmap), list(s.rmap)]
            maps[rng.randrange(2)][rng.randrange(s.n)] = rng.randrange(s.n)
            tables.append(FiniteBiunarySemigroup(s.n, s.mul, *maps))
        for t in tables:
            rep = core._localisable(t, Evaluation())
            assert rep == formulas.report("localisable", t), name
            for part, holds in rep.parts:
                sides[part].add(holds)
    assert all(sides[part] == {True, False} for part in ("L3", "L4")), dict(sides)


def test_os7_matches_the_formula_on_every_order_of_size_at_most_4():
    verdicts = collections.Counter()
    for osg in subjects.ordered(4):
        verdicts[formulas.compare("os7", osg).holds] += 1
    assert sum(verdicts.values()) == 10147 and set(verdicts) == {True, False}


def test_os7_matches_the_formula_on_n5_0213_and_pins_rel3(n5_0213):
    """The two Ehresmann orders and the three derived orders of n5-0213 (the
    zoo orders are compared in the zoo test), and rel-3 against its known
    least witness, where the formula is slow."""
    five = subjects.with_derived(n5_0213, enumerate_ehresmann_orders(n5_0213))
    # OS7 holds under all five
    assert all(formulas.compare("os7", OrderedSemigroup(n5_0213, order)).holds for order in five)
    rel3 = OrderedSemigroup(zoo.get("rel-3").structure, zoo.get("rel-3").orders[0][1])
    assert orders._os7(rel3, Evaluation()).witness == (9, 3, 10)


def brute_product_sets(table, order):
    """``[a][b]``: the bitmask of the defined products x*y with x <= a and y <= b, from ``rel``."""
    below = [[x for x in range(order.n) if order.rel[x][a]] for a in range(order.n)]
    return [[sum({1 << v for x in below[a] for y in below[b] for v in [table[x][y]] if v is not None})
             for b in range(order.n)] for a in range(order.n)]


def test_product_sets_match_the_brute_force_on_small_orders_and_the_zoo():
    """Every Ehresmann semigroup of size at most 4 under each of its Ehresmann
    orders, then the zoo entries below rel-3 under theirs and the derived
    orders; each on its total table and its C(S) composition, under the
    order and under its dual."""
    pairs = [(osg.base, osg.order) for osg in subjects.ordered(4)]
    assert len(pairs) == 10147
    pairs += [(s, order) for s, orders_of_s in subjects.zoo_orders(64) for order in orders_of_s]
    partial = 0
    for s, order in pairs:
        comp = tuple(tuple(v if s.rmap[x] == s.dmap[y] else None for y, v in enumerate(row))
                     for x, row in enumerate(s.mul))
        dual = PartialOrder(order.n, tuple(zip(*order.rel)))
        for table in (s.mul, comp):
            for o in (order, dual):
                assert orders._product_sets(table, o) == brute_product_sets(table, o)
        partial += comp != s.mul
    assert partial > 0


def test_de_barros_rows_match_the_formula(n5_0213):
    verdicts = collections.Counter()
    for s in (n5_0213, *subjects.structures(4, 512)):
        rows = core._de_barros_rows_hold(s, projections(s).sorted_members)
        assert rows == formulas.compare("de-barros-equational", s).holds
        verdicts[s.n, rows] += 1
    # every Ehresmann semigroup of size at most 4 is de Barros; n5-0213,
    # orderless-band (6) and rel-3 (512) are not
    assert [key for key, count in verdicts.items() if not key[1]] == [(5, False), (6, False), (512, False)]
    assert verdicts[4, True] == 1708


def test_de_barros_rows_fail_wherever_the_failing_rows_are(n5_0213):
    """n5-0213 under each of its 120 relabellings, so that its failing rows
    come before, at and after each point where the rows test its cells."""
    n = n5_0213.n
    for perm in itertools.permutations(range(n)):
        s = FiniteBiunarySemigroup(n, *subjects.relabelled(perm, n5_0213.mul, n5_0213.dmap, n5_0213.rmap))
        assert not core._de_barros_rows_hold(s, projections(s).sorted_members)
        assert not formulas.compare("de-barros-equational", s).holds


def test_mask_composites_match_the_matrix_composites(n5_0213):
    """Each of the nine composites of two derived orders on every subject of the
    de Barros test, as bitmasks against the matrix; both sides of "equals the
    e-order" occur."""
    sides = set()
    for s in (n5_0213, *subjects.structures(4, 512)):
        derived = derive_orders(s)
        three = (derived.leq_l, derived.leq_r, derived.leq_e)
        for p, q in itertools.product(three, repeat=2):
            masks = orders._composite_up_sets(p, q)
            matrix = scan_oracle.compose_relations(p, q)
            assert tuple(orders._bool_row(u, s.n) for u in masks) == matrix
            sides.add(matrix == derived.leq_e.rel)
    assert sides == {True, False}


def test_derived_orders_match_the_cell_by_cell_build():
    """``derive_orders`` against the matrix build on every Ehresmann semigroup of
    size at most 3, the zoo up to pt-3, and seeded single-entry mutations of
    them, where it must raise the same error."""
    rng = random.Random(22)
    outcomes = collections.Counter()
    for s in subjects.structures(3, 64):
        for trial in range(1 + (40 if s.n <= 16 else 2)):
            mul = [list(row) for row in s.mul]
            if trial:
                mul[rng.randrange(s.n)][rng.randrange(s.n)] = rng.randrange(s.n)
            t = FiniteBiunarySemigroup(s.n, mul, s.dmap, s.rmap)
            try:
                want = scan_oracle.derive_orders(t)
            except InternalInconsistency as exc:
                with pytest.raises(InternalInconsistency) as err:
                    derive_orders(t)
                assert str(err.value) == str(exc)
                outcomes[str(exc).split(":")[0]] += 1
            else:
                assert derive_orders(t) == want
                outcomes["orders"] += 1
    assert set(outcomes) == {"orders", "derived relation is not a partial order",
                             "left and right orders do not compose to the e-order"}


def biaction_mutations(c, b):
    """Every biaction one action entry away from ``b``: each e.x and x.e with
    e an identity set to every other element and to None."""
    for side, table in (("left", b.left), ("right", b.right)):
        for e in c.identities():
            for x in range(c.n):
                i, j = (e, x) if side == "left" else (x, e)
                for v in (*range(c.n), None):
                    if v != table[i][j]:
                        rows = [list(row) for row in table]
                        rows[i][j] = v
                        yield Biaction(rows, b.right) if side == "left" else Biaction(b.left, rows)


def test_biaction_verifier_matches_the_full_scan_on_single_entry_mutations():
    """The derived biaction of each sweep category and its single-entry
    mutations, 3,180 in all; every axiom group fails on some of them."""
    reports, failed = 0, collections.Counter()
    for name in zoo.SWEEP_NAMES:
        c = category_of(zoo.get(name).ordered())
        b = derive_biaction(c)
        for bad in (b, *biaction_mutations(c, b)):
            rep = verify_biaction(c, bad)
            assert rep == scan_oracle.verify_biaction(c, bad)
            reports += 1
            failed.update(axiom for axiom, ok in rep.parts if not ok)
    assert reports == 8 + 3180
    assert failed.keys() == {"E2", "E3", "E4", "E5", "E6"}


@functools.cache
def pt3_biaction():
    c = category_of(zoo.get("pt-3").ordered())
    return c, derive_biaction(c)


@given(st.data())
def test_biaction_verifier_matches_the_full_scan_on_drawn_entries_of_pt3(data):
    """C(pt-3)'s biaction with one to three drawn action entries replaced."""
    c, b = pt3_biaction()
    tables = {"left": [list(row) for row in b.left], "right": [list(row) for row in b.right]}
    for _ in range(data.draw(st.integers(1, 3))):
        side = data.draw(st.sampled_from(("left", "right")))
        e, x = data.draw(st.sampled_from(c.identities())), data.draw(st.integers(0, c.n - 1))
        i, j = (e, x) if side == "left" else (x, e)
        tables[side][i][j] = data.draw(st.none() | st.integers(0, c.n - 1))
    bad = Biaction(tables["left"], tables["right"])
    assert verify_biaction(c, bad) == scan_oracle.verify_biaction(c, bad)


def test_biaction_verifier_matches_the_full_scan_without_a_meet_table():
    """Two identities with no lower bound have no meet table (E1 fails), under
    total and non-total action tables alike."""
    c0 = FiniteCategory(2, (0, 1), (0, 1), ((0, None), (None, 1)))
    c = FiniteOrderedCategory(c0, PartialOrder.equality(2))
    assert c.meet is None
    for cells in itertools.product((None, 0, 1), repeat=8):
        bad = Biaction((cells[0:2], cells[2:4]), (cells[4:6], cells[6:8]))
        assert verify_biaction(c, bad) == scan_oracle.verify_biaction(c, bad)
