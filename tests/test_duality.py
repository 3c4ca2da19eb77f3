"""Left/right mirror: each right-handed law on S is its left-handed twin on dual(S).

The dual reverses products and swaps D with R, keeping the order (and, for
categories, the meet of identities).  The right-handed laws are written
once, with the side as a parameter, so these tests hold the two sides to
the same verdicts and the same witnesses.
"""

import itertools

import formulas
import pytest

from ehresmann import (
    Biaction,
    FiniteBiunarySemigroup,
    FiniteCategory,
    FiniteOrderedCategory,
    OrderedSemigroup,
    PartialOrder,
    StructureError,
    WorkbenchError,
    category_of,
    check_OC_property,
    check_OS_property,
    check_left_restriction_with_range,
    check_omega_structured,
    check_right_restriction_with_domain,
    corestriction,
    derive_biaction,
    enumerate_ehresmann_orders,
    partial_product_category,
    restriction,
    verify_biaction,
    zoo,
)


def dual_semigroup(s: FiniteBiunarySemigroup) -> FiniteBiunarySemigroup:
    """Transpose the product and swap D with R."""
    return FiniteBiunarySemigroup(s.n, tuple(zip(*s.mul)), s.rmap, s.dmap, s.names)


def dual_category(c: FiniteOrderedCategory) -> FiniteOrderedCategory:
    """Transpose the composition and swap D with R; same order and meet."""
    dual = FiniteCategory(c.n, c.rmap, c.dmap, tuple(zip(*c.comp)), c.names)
    return FiniteOrderedCategory(dual, c.order, c.meet)


def dual_biaction(b: Biaction) -> Biaction:
    """On the dual category e.x is the original x.e: the two tables swap, transposed."""
    return Biaction(tuple(zip(*b.right)), tuple(zip(*b.left)))


def labelled_posets(n: int) -> list[PartialOrder]:
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    posets = []
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        rel = [[a == b for b in range(n)] for a in range(n)]
        for (a, b), on in zip(pairs, chosen):
            rel[a][b] = on
        try:
            posets.append(PartialOrder(n, rel))
        except StructureError:
            pass
    return posets


def ordered_subjects() -> list[OrderedSemigroup]:
    """Every n <= 3 Ehresmann semigroup under each Ehresmann order, then the zoo's orders."""
    subjects = [
        OrderedSemigroup(s, order)
        for n in (1, 2, 3)
        for s in zoo.enumerate_ehresmann_semigroups(n)
        for order in enumerate_ehresmann_orders(s)
    ]
    for name in zoo.SWEEP_NAMES:
        entry = zoo.get(name)
        subjects += [entry.ordered(oname) for oname in entry.order_names()]
    return subjects


def omega_structured_categories() -> list[FiniteOrderedCategory]:
    """Each n <= 3 partial-product category under every labelled poset passing OC2/OC3."""
    cats = []
    for n in (1, 2, 3):
        posets = labelled_posets(n)
        for s in zoo.enumerate_ehresmann_semigroups(n):
            c0 = partial_product_category(s)
            for order in posets:
                c = FiniteOrderedCategory(c0, order)
                if check_omega_structured(c).holds:
                    cats.append(c)
    return cats


SUBJECTS = ordered_subjects()
CATEGORIES = omega_structured_categories()


def verdict(rep):
    return rep.holds, rep.witness, rep.applicable


def test_subject_counts():
    assert (len(SUBJECTS), len(CATEGORIES)) == (204, 723)


@pytest.mark.parametrize(
    "right,left",
    [
        (
            lambda os: check_right_restriction_with_domain(os.base),
            lambda os: check_left_restriction_with_range(os.base),
        ),
        (lambda os: check_OS_property(os, "OS4B"), lambda os: check_OS_property(os, "OS4A")),
    ],
    ids=["restriction-with-domain", "OS4B"],
)
def test_semigroup_right_law_is_left_law_on_dual(right, left):
    seen = set()
    for os in SUBJECTS:
        dual = OrderedSemigroup(dual_semigroup(os.base), os.order)
        on_s = right(os)
        assert verdict(on_s) == verdict(left(dual))
        seen.add(on_s.holds)
    assert seen == {True, False}


def test_every_right_handed_formula_is_the_dual_of_its_left_twin():
    twins = [("right-restriction-with-domain", "left-restriction-with-range"), ("os4b", "os4a"),
             ("oc4b", "oc4a"), ("oc6b", "oc6a"), ("oc8b", "oc8a")]
    specs = [(formulas.FORMULAS[right], formulas.FORMULAS[left]) for right, left in twins]
    specs.append((formulas.CORESTRICTION_MONOTONE, formulas.RESTRICTION_MONOTONE))
    for right, left in specs:
        assert right.flipped and not left.flipped and (right.sorts, right.body) == (left.sorts, left.body)


def test_category_of_dual_is_dual_category():
    for os in SUBJECTS:
        dual = OrderedSemigroup(dual_semigroup(os.base), os.order)
        assert category_of(dual) == dual_category(category_of(os))


@pytest.mark.parametrize("half", ["OC4", "OC6", "OC8"])
def test_category_b_half_is_a_half_on_dual(half):
    seen = set()
    for c in CATEGORIES:
        on_c = check_OC_property(c, half + "B")
        on_dual = check_OC_property(dual_category(c), half + "A")
        assert verdict(on_c) == verdict(on_dual)
        seen.add(on_c.holds)
    assert seen == {True, False}


def outcome(fn, *args):
    try:
        return fn(*args)
    except WorkbenchError as exc:
        return type(exc)


def test_corestriction_is_restriction_on_dual():
    seen = set()
    for c in CATEGORIES:
        dual = dual_category(c)
        for x, e in itertools.product(range(c.n), repeat=2):
            got = outcome(corestriction, c, x, e)
            assert got == outcome(restriction, dual, e, x)
            seen.add(got if isinstance(got, type) else int)
    assert len(seen) == 3  # values, PreconditionError and OC6Violation


def test_biaction_on_dual_is_the_mirrored_biaction():
    for os in SUBJECTS:
        c = category_of(os)
        b = derive_biaction(c)
        dual = dual_category(c)
        assert derive_biaction(dual) == dual_biaction(b)
        on_c = verify_biaction(c, b)
        on_dual = verify_biaction(dual, dual_biaction(b))
        assert (on_c.holds, on_c.parts) == (on_dual.holds, on_dual.parts)


@pytest.mark.parametrize(
    "name,side,at,value,on_c,on_dual",
    [
        # D(0).0 must be 0
        ("two-element-monoid", "left", (1, 0), 1,
         "E2 fails at (0,): D(x).x != x", "E2 fails at (0,): x.R(x) != x"),
        ("inj-2", "right", (1, 4), 0,
         "E2 fails at (1, 3, 4): x.(e meet f) != (x.e).f",
         "E2 fails at (3, 4, 1): (e meet f).x != e.(f.x)"),
    ],
)
def test_wrong_action_entry_fails_on_dual_through_the_other_action(name, side, at, value, on_c, on_dual):
    c = category_of(zoo.get(name).ordered())
    b = derive_biaction(c)
    tables = {"left": [list(row) for row in b.left], "right": [list(row) for row in b.right]}
    row, col = at
    assert tables[side][row][col] != value
    tables[side][row][col] = value
    wrong = Biaction(tables["left"], tables["right"])
    got = verify_biaction(c, wrong)
    got_dual = verify_biaction(dual_category(c), dual_biaction(wrong))
    assert (got.detail, got_dual.detail) == (on_c, on_dual)
    assert not got.holds and got.parts == got_dual.parts
