"""The plain least-witness scans, kept as the oracle of the fast law deciders.

The package closes pairs into a partial order and validates one on
up-set bitmasks, validates a category's associativity on composable
triples only, finds the least pair of equal composites in a row by
grouping it by value, decides a semigroup's associativity by Light's test, L3
and the order search's product closure on a generating set, L4 on pairs
of projections, the functional law row by row, the de Barros identity once per distinct pair
of rows, OS7 by recursion over lower covers, OC7/OC7' from one product
set per pair of factors, OC3 on a partial composition and the composites
of two orders by up-set bitmasks, tabulates the unique part below an
element and the maximum below an element with its domain (range) under
an identity once per category and side, and verifies a biaction with one
witness scan per axiom group that stops at its first failure.  The
functions below are the scans those replace, loop by loop; the tests
compare the reports of both on every small structure, the zoo, random
orders and mutated tables.
"""

from __future__ import annotations

from operator import itemgetter

from ehresmann.category import Biaction, FiniteCategory, FiniteOrderedCategory, _derive_meet, _max_below
from ehresmann.core import (
    Evaluation,
    FiniteBiunarySemigroup,
    InternalInconsistency,
    LawReport,
    StructureError,
    _first_failure,
    _fmt,
    _leaf,
    projections,
)
from ehresmann.orders import (
    DerivedOrders,
    OrderedSemigroup,
    PartialOrder,
    _bits,
    _OrderSearch,
    _os2_witness,
    _os3_witness,
)


def compose_relations(p: PartialOrder, q: PartialOrder) -> tuple[tuple[bool, ...], ...]:
    """Left-to-right relational composite of two orders, as a raw matrix."""
    n = p.n
    out = []
    for a in range(n):
        row = [False] * n
        for u in range(n):
            if p.rel[a][u]:
                qrow = q.rel[u]
                for b in range(n):
                    if qrow[b]:
                        row[b] = True
        out.append(tuple(row))
    return tuple(out)


def derive_orders(s: FiniteBiunarySemigroup) -> DerivedOrders:
    """The three derived orders built cell by cell, with the composite identity
    checked on matrices; raises what ``orders.derive_orders`` raises."""
    n, mul, D, R = s.n, s.mul, s.dmap, s.rmap
    try:
        leq_l = PartialOrder(n, tuple(tuple(a == mul[D[a]][b] for b in range(n)) for a in range(n)))
        leq_r = PartialOrder(n, tuple(tuple(a == mul[b][R[a]] for b in range(n)) for a in range(n)))
        leq_e = PartialOrder(n, tuple(tuple(a == mul[mul[D[a]][b]][R[a]] for b in range(n)) for a in range(n)))
    except StructureError as exc:
        raise InternalInconsistency(f"derived relation is not a partial order: {exc}") from exc
    if compose_relations(leq_l, leq_r) != leq_e.rel or compose_relations(leq_r, leq_l) != leq_e.rel:
        raise InternalInconsistency("left and right orders do not compose to the e-order")
    return DerivedOrders(leq_l, leq_r, leq_e)


def partial_order_failure(n: int, rel) -> str | None:
    """The message ``PartialOrder`` raises for the least violation of an n x n
    boolean matrix, scanning reflexivity, then antisymmetry and transitivity
    pair by pair; None when it is a partial order."""
    for a in range(n):
        if not rel[a][a]:
            return f"order is not reflexive at {a}"
    for a in range(n):
        for b in range(n):
            if a != b and rel[a][b] and rel[b][a]:
                return f"order is not antisymmetric at ({a}, {b})"
            if rel[a][b]:
                for c in range(n):
                    if rel[b][c] and not rel[a][c]:
                        return f"order is not transitive at ({a}, {b}, {c})"
    return None


def order_closure(n: int, pairs) -> tuple[tuple[bool, ...], ...]:
    """The reflexive-transitive closure ``PartialOrder.from_pairs`` builds from
    in-range ``pairs``, by Warshall's loop entry by entry; raises its
    ``StructureError`` for the least pair the closure makes antisymmetric."""
    mat = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        mat[a][b] = True
    for k in range(n):
        for a in range(n):
            if mat[a][k]:
                row_a, row_k = mat[a], mat[k]
                for b in range(n):
                    if row_k[b]:
                        row_a[b] = True
    for a in range(n):
        for b in range(a + 1, n):
            if mat[a][b] and mat[b][a]:
                raise StructureError(f"order closure breaks antisymmetry between {a} and {b}")
    return tuple(tuple(row) for row in mat)


def category_associativity_failure(n: int, dmap, rmap, comp) -> str | None:
    """The message ``FiniteCategory`` raises for the least non-associative
    composable triple, scanning all n³ triples; None when there is none."""
    for x in range(n):
        for y in range(n):
            if rmap[x] != dmap[y]:
                continue
            xy = comp[x][y]
            for z in range(n):
                if rmap[y] == dmap[z] and comp[xy][z] != comp[x][comp[y][z]]:
                    return f"composition not associative at ({x}, {y}, {z})"
    return None


def _associativity(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    mul, n = s.mul, s.n
    w = next(((a, b, c)
              for a in range(n) for row_a in [mul[a]]
              for b in range(n) for row_ab, row_b in [(mul[row_a[b]], mul[b])]
              for c in range(n) if row_ab[c] != row_a[row_b[c]]), None)
    return _leaf("associativity", w, lambda a, b, c: (
        f"({_fmt(s, a)}*{_fmt(s, b)})*{_fmt(s, c)} = {_fmt(s, mul[mul[a][b]][c])}"
        f" but {_fmt(s, a)}*({_fmt(s, b)}*{_fmt(s, c)}) = {_fmt(s, mul[a][mul[b][c]])}"))


def _localisable(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    mul, D, R, n = s.mul, s.dmap, s.rmap, s.n
    pairs = [(x, y) for x in range(n) for y in range(n)]
    checks = (
        ("L1", next(((x,) for x in range(n) if mul[D[x]][x] != x or mul[x][R[x]] != x), None)),
        ("L2", next(((x,) for x in range(n) if D[R[x]] != R[x] or R[D[x]] != D[x]), None)),
        ("L3", next(((x, y) for x, y in pairs
                     if D[mul[x][y]] != D[mul[x][D[y]]] or R[mul[x][y]] != R[mul[R[x]][y]]), None)),
        ("L4", next(((x, y) for x, y in pairs if D[mul[D[x]][D[y]]] != mul[D[x]][D[y]]), None)),
    )
    return _first_failure("localisable", s, checks)


class AllProductsSearch(_OrderSearch):
    """The order search with the closure that multiplies by every element."""

    def _close(self, up, down, queue, ex) -> bool:
        """From a popped a <= b derive D(a) <= D(b), R(a) <= R(b), ac <= bc and
        ca <= cb for every c, and x <= y for every x <= a and b <= y."""
        mul, D, R, proj = self.s.mul, self.s.dmap, self.s.rmap, self.proj
        cols = tuple(zip(*mul))
        while queue:
            a, b = queue.pop()
            derived = [(D[a], D[b]), (R[a], R[b])]
            derived += zip(mul[a], mul[b])
            derived += zip(cols[a], cols[b])
            for p, q in derived:
                if p == q or up[p] >> q & 1:
                    continue
                if up[q] >> p & 1 or ex[p] >> q & 1 or (proj >> q & 1 and not proj >> p & 1):
                    return False
                up[p] |= 1 << q
                down[q] |= 1 << p
                queue.append((p, q))
            above = up[b]
            for x in _bits(down[a]):
                new = above & ~up[x]
                if not new:
                    continue
                if new & (down[x] | ex[x]) or (new & proj and not proj >> x & 1):
                    return False
                up[x] |= new
                for y in _bits(new):
                    down[y] |= 1 << x
                    queue.append((x, y))
        return True


def order_candidates(search: _OrderSearch) -> list[tuple[int, int]]:
    """The pairs (a, b) the order search branches on, tested pair by pair on its root:
    unordered, no projection over a non-projection, and D and R images ordered."""
    n, (up, _), proj, D, R = search.n, search.root, search.proj, search.s.dmap, search.s.rmap
    if not search.root_ok:
        return []
    return [(a, b) for a in range(n) for b in range(n)
            if a != b and not up[a] >> b & 1 and not up[b] >> a & 1
            and not (proj >> b & 1 and not proj >> a & 1)
            and up[D[a]] >> D[b] & 1 and up[R[a]] >> R[b] & 1]


def associates_by_rows(mul) -> bool:
    """Whether the table ``mul`` (n > 1) is associative, by the n³ scan with
    its innermost loop over c done as one row comparison per (a, b): row ab
    against row a read through row b."""
    through = [itemgetter(*row) for row in mul]
    return all(mul[row_a[b]] == through[b](row_a) for row_a in mul for b in range(len(mul)))


def _functional(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    mul, R, n = s.mul, s.rmap, s.n
    w = next(((x, y, z) for x in range(n) for row, rrow in [(mul[x], mul[R[x]])]
              for y in range(n) for z in range(n) if row[y] == row[z] and rrow[y] != rrow[z]), None)
    return _leaf("functional", w, lambda x, y, z: (
        f"{_fmt(s, x)}*{_fmt(s, y)} = {_fmt(s, x)}*{_fmt(s, z)}"
        f" = {_fmt(s, mul[x][y])} but R({_fmt(s, x)})*{_fmt(s, y)} ="
        f" {_fmt(s, mul[R[x]][y])} and R({_fmt(s, x)})*{_fmt(s, z)} = {_fmt(s, mul[R[x]][z])}"))


def _os7(os: OrderedSemigroup, ev: Evaluation) -> LawReport:
    s, rel = os.base, os.order.rel
    below = [[y for y in range(s.n) if rel[y][x]] for x in range(s.n)]
    w = next(((a, b, u) for a in range(s.n) for b in range(s.n) for u in below[s.mul[a][b]]
              if not any(s.mul[x][y] == u for x in below[a] for y in below[b])), None)
    return _leaf("OS7", w, lambda a, b, u: (
        f"{s.name_of(u)} <= {s.name_of(a)}*{s.name_of(b)} has no factorisation below the factors"))


def _de_barros_equational(s: FiniteBiunarySemigroup, ev: Evaluation) -> LawReport:
    mul, D, R, n = s.mul, s.dmap, s.rmap, s.n

    def sides(x: int, e: int, y: int) -> tuple[int, int]:
        lhs = mul[mul[x][e]][y]
        return lhs, mul[mul[D[lhs]][mul[x][y]]][R[lhs]]

    def detail(x: int, e: int, y: int) -> str:
        lhs, rhs = sides(x, e, y)
        return (f"{_fmt(s, x)}*{_fmt(s, e)}*{_fmt(s, y)} = {_fmt(s, lhs)} but "
                f"D(..)*{_fmt(s, x)}*{_fmt(s, y)}*R(..) = {_fmt(s, rhs)}")

    proj = projections(s).sorted_members
    w = next(((x, e, y) for x in range(n) for e in proj for y in range(n)
              for lhs, rhs in [sides(x, e, y)] if lhs != rhs), None)
    return _leaf("de-barros-equational", w, detail)


def _oc7_witness(c: FiniteOrderedCategory, prime: bool):
    rel = c.order.rel
    n = c.n
    below = [[y for y in range(n) if rel[y][x]] for x in range(n)]
    for a in range(n):
        for b in range(n):
            for d in range(n):
                bc = c.comp[b][d]
                if bc is None or not rel[a][bc]:
                    continue
                if prime:
                    found = any(
                        c.dmap[bp] == c.dmap[a]
                        and c.rmap[cp] == c.rmap[a]
                        and c.comp[bp][cp] is not None
                        and rel[a][c.comp[bp][cp]]
                        for bp in below[b]
                        for cp in below[d]
                    )
                else:
                    found = any(
                        c.comp[bp][cp] == a for bp in below[b] for cp in below[d]
                    )
                if not found:
                    return (a, b, d)
    return None


def oc7_report(c: FiniteOrderedCategory, prime: bool) -> LawReport:
    """The OC7 or OC7' report from the scan, worded as the package's ``_oc_law`` words it."""
    name = "OC7'" if prime else "OC7"
    return _leaf(name, _oc7_witness(c, prime), lambda *w: f"fails at ({_fmt(c, *w)})")


def _omega_structured(c: FiniteOrderedCategory, ev: Evaluation) -> LawReport:
    rel = c.order.rel
    checks = (("OC2", _os2_witness(c.n, c.dmap, c.rmap, rel)), ("OC3", _os3_witness(c.n, c.comp, rel)))
    return _first_failure("omega-structured", c, checks, lead=(("OC1", True),))


def _oc6_witness(c: FiniteOrderedCategory, idmap) -> tuple[int, ...] | None:
    """Least (x, e) with e <= idmap(x) whose maximum below x with idmap under e
    is missing or off e: OC6a with D, OC6b with R."""
    rel = c.order.rel
    for x in range(c.n):
        for e in c.identities():
            if not rel[e][idmap[x]]:
                continue
            m = _max_below(c, idmap, x, e)
            if m is None or idmap[m] != e:
                return (x, e)
    return None


def oc6_report(c: FiniteOrderedCategory, name: str, idmap) -> LawReport:
    """The OC6A (``idmap`` D) or OC6B (R) report from the scan, worded as ``_oc_law`` words it."""
    return _leaf(name, _oc6_witness(c, idmap), lambda *w: f"fails at ({_fmt(c, *w)})")


def oc6_pair_report(c: FiniteOrderedCategory) -> LawReport:
    """The OC6 report from the scans on an omega-structured category: both
    halves as parts, the first failing one as the witness."""
    return _first_failure("OC6", c, (("oc6a", _oc6_witness(c, c.dmap)), ("oc6b", _oc6_witness(c, c.rmap))))


def _unique_below(n: int, idmap, rel, x: int, e: int) -> int | None:
    ys = [y for y in range(n) if rel[y][x] and idmap[y] == e]
    return ys[0] if len(ys) == 1 else None


def _oc8_witness(n: int, ids, idmap, rel) -> tuple[int, ...] | None:
    """Least (x, e) with e <= idmap(x) but not exactly one y <= x with idmap(y) = e."""
    for x in range(n):
        for e in ids:
            if rel[e][idmap[x]] and _unique_below(n, idmap, rel, x, e) is None:
                return (x, e)
    return None


def oc8_report(c: FiniteOrderedCategory, name: str, idmap) -> LawReport:
    """The OC8A (``idmap`` D) or OC8B (R) report from the scan, worded as ``_oc_law`` words it."""
    w = _oc8_witness(c.n, c.identities(), idmap, c.order.rel)
    return _leaf(name, w, lambda *w: f"fails at ({_fmt(c, *w)})")


def _monotone_witness(n: int, ids, idmap, rel_unique, rel, meet) -> tuple[int, ...] | None:
    """Least x <= y under ``rel`` and identity e whose unique parts below, taken
    under ``rel_unique`` with ``idmap`` at (``idmap``(x) meet e), are missing or unrelated.
    """
    for x in range(n):
        for y in range(n):
            if not rel[x][y]:
                continue
            for e in ids:
                u = _unique_below(n, idmap, rel_unique, x, meet[idmap[x]][e])
                v = _unique_below(n, idmap, rel_unique, y, meet[idmap[y]][e])
                if u is None or v is None or not rel[u][v]:
                    return (x, y, e)
    return None


def all_epi_witness(c: FiniteOrderedCategory) -> tuple[int, ...] | None:
    """Least (x, t, u), t != u, with x o t = x o u defined, by the triple scan."""
    for x in range(c.n):
        row = c.comp[x]
        for t in range(c.n):
            if row[t] is None:
                continue
            for u in range(c.n):
                if t != u and row[u] is not None and row[t] == row[u]:
                    return (x, t, u)
    return None


def check_ehresmann_category_two_orders(
    c0: FiniteCategory, leq_l: PartialOrder, leq_r: PartialOrder
) -> LawReport:
    """Decide the seven clauses of the two-order Ehresmann category laws.

    The left order must be Omega-structured with unique restrictions, the
    right order Omega-structured with unique corestrictions, the orders
    must agree on the identities and form a meet-semilattice there, the
    two orders must permute, and restriction/corestriction must be
    monotone in the stated mixed sense.  Later clauses that need earlier
    ones are only evaluated when those hold.
    """
    n = c0.n
    if leq_l.n != n or leq_r.n != n:
        raise StructureError("order and carrier sizes differ")
    ids = c0.identities()
    rel_l, rel_r = leq_l.rel, leq_r.rel

    def omega_ok(rel) -> bool:
        return (
            _os2_witness(n, c0.dmap, c0.rmap, rel) is None
            and _os3_witness(n, c0.comp, rel) is None
        )

    b1 = omega_ok(rel_l) and _oc8_witness(n, ids, c0.dmap, rel_l) is None
    b2 = omega_ok(rel_r) and _oc8_witness(n, ids, c0.rmap, rel_r) is None
    b3 = all(rel_l[e][f] == rel_r[e][f] for e in ids for f in ids)
    meet = _derive_meet(n, ids, leq_l) if b3 else None
    b4 = meet is not None
    lr = compose_relations(leq_l, leq_r)
    rl = compose_relations(leq_r, leq_l)
    b5 = lr == rl
    b6 = b7 = False
    witness67: tuple[int, ...] | None = None
    if b1 and b2 and b3 and b4:
        w6 = _monotone_witness(n, ids, c0.dmap, rel_l, rel_r, meet)
        w7 = _monotone_witness(n, ids, c0.rmap, rel_r, rel_l, meet)
        b6, b7 = w6 is None, w7 is None
        witness67 = w6 or w7
    parts = (
        ("left-order-oc8a", b1),
        ("right-order-oc8b", b2),
        ("orders-agree-on-identities", b3),
        ("meet-semilattice", b4),
        ("orders-permute", b5),
        ("restriction-monotone", b6),
        ("corestriction-monotone", b7),
    )
    holds = all(ok for _, ok in parts)
    detail = "" if holds else "first failing clause: " + next(
        name for name, ok in parts if not ok
    )
    return LawReport(
        "ehresmann-category-two-orders",
        holds,
        witness=witness67,
        detail=detail,
        parts=parts,
    )


def verify_biaction(c: FiniteOrderedCategory, b: Biaction) -> LawReport:
    """Check the six biaction axiom groups over all applicable tuples.

    ``parts`` marks the groups verified to hold; groups that could not be
    evaluated (no meet table, or action tables not total) count as failed.
    """
    ids = c.identities()
    meet = c.meet
    n = c.n
    for label, table in (("left", b.left), ("right", b.right)):
        if len(table) != n or any(
            len(row) != n or any(v is not None and not 0 <= v < n for v in row) for row in table
        ):
            raise StructureError(f"{label} action table must be {n} x {n} over 0..{n - 1} and None")
    failures: list[tuple[str, tuple[int, ...], str]] = []
    evaluated = {"E1"}

    def fail(axiom: str, tup: tuple[int, ...], msg: str) -> None:
        if not any(f[0] == axiom for f in failures):
            failures.append((axiom, tup, msg))

    # E1: identities form a commutative idempotent semigroup under meet, which
    # a table of greatest lower bounds is whenever it exists
    if meet is None:
        fail("E1", (), "no meet table on the identities")

    def lt(e: int, f: int) -> bool:
        return meet is not None and meet[e][f] == e

    la, ra = b.left, b.right
    total = all(
        la[e][x] is not None and ra[x][e] is not None for e in ids for x in range(n)
    )
    if not total:
        fail("E2", (), "action tables are not total on identity/element pairs")
    if meet is not None and total and not failures:
        evaluated.update(("E2", "E3", "E4", "E5", "E6"))
        # (right?, action table by [e][x], near and far identity maps,
        # composition): the right action x.e is the left one with products
        # reversed, so its table and the composition are read transposed and
        # its witnesses backwards.  Each check runs left, then right, at each
        # index tuple, which fixes the first failure reported per axiom.
        sides = (
            (False, la, c.dmap, c.rmap, c.comp),
            (True, tuple(zip(*ra)), c.rmap, c.dmap, tuple(zip(*c.comp))),
        )

        def at(right: bool, *tup: int) -> tuple[int, ...]:
            return tup[::-1] if right else tup

        for x in range(n):
            for right, act, near, far, comp in sides:
                if act[near[x]][x] != x:
                    fail("E2", (x,), ("D(x).x != x", "x.R(x) != x")[right])
        for e in ids:
            for x in range(n):
                for right, act, near, far, comp in sides:
                    if near[act[e][x]] != meet[e][near[x]]:
                        fail("E2", at(right, e, x),
                             ("D(e.x) != e meet D(x)", "R(x.e) != R(x) meet e")[right])
                for f in ids:
                    for right, act, near, far, comp in sides:
                        # e.(f.x) applies f first, (x.e).f applies e first
                        g, h = (f, e) if right else (e, f)
                        if act[meet[g][h]][x] != act[g][act[h][x]]:
                            fail("E2", at(right, g, h, x),
                                 ("(e meet f).x != e.(f.x)", "x.(e meet f) != (x.e).f")[right])
        for e in ids:
            for x in range(n):
                for f in ids:
                    if ra[la[e][x]][f] != la[e][ra[x][f]]:
                        fail("E3", (e, x, f), "(e.x).f != e.(x.f)")
        for e in ids:
            for a in ids:
                for right, act, near, far, comp in sides:
                    if act[e][a] != meet[e][a]:
                        fail("E4", at(right, e, a),
                             ("e.a != e meet a on identities", "a.e != a meet e on identities")[right])
        for e in ids:
            for x in range(n):
                for right, act, near, far, comp in sides:
                    if not lt(far[act[e][x]], far[x]):
                        fail("E5", at(right, e, x),
                             ("R(e.x) not below R(x)", "D(x.e) not below D(x)")[right])
        for x in range(n):
            for y in range(n):
                xy = c.comp[x][y]
                if xy is None:
                    continue
                for e in ids:
                    for right, act, near, far, comp in sides:
                        p, q = (y, x) if right else (x, y)
                        u = act[e][p]
                        v = act[far[u]][q]
                        if comp[u][v] is None or act[e][xy] != comp[u][v]:
                            fail("E6", at(right, e, p, q),
                                 ("e.(x o y) != (e.x) o (R(e.x).y)", "(x o y).e != (x.D(y.e)) o (y.e)")[right])

    axiom_names = ("E1", "E2", "E3", "E4", "E5", "E6")
    failed = {f[0] for f in failures}
    parts = tuple(
        (name, name in evaluated and name not in failed) for name in axiom_names
    )
    if not failures:
        return LawReport("biaction", True, parts=parts)
    axiom, tup, msg = failures[0]
    return LawReport(
        "biaction",
        False,
        witness=tup or None,
        detail=f"{axiom} fails at {tup}: {msg}",
        parts=parts,
    )
