"""The package's unchecked builds against the public constructors.

Builders that have validated their inputs or decided the laws a
constructor would check build through ``core._trusted`` instead.  Each
such object must equal, field by field and type by type, the one the
public constructor makes from the same data, and the public constructors
must still reject malformed data with the messages they always gave.
"""

import dataclasses

import formulas
import pytest
import subjects

from ehresmann import category
from ehresmann.category import (
    Biaction,
    FiniteCategory,
    FiniteOrderedCategory,
    _category_of,
    _derive_biaction,
    _semigroup_of,
    check_ehresmann_category_two_orders,
)
from ehresmann.core import Evaluation, FiniteBiunarySemigroup, InternalInconsistency, StructureError
from ehresmann.orders import OrderedSemigroup, PartialOrder, _derived_orders, derive_orders

# the fields compared on each kind; ``base`` and ``order`` are compared in turn
FIELDS = {
    FiniteBiunarySemigroup: ("n", "mul", "dmap", "rmap", "names"),
    FiniteCategory: ("n", "comp", "dmap", "rmap", "names"),
    FiniteOrderedCategory: ("n", "comp", "dmap", "rmap", "names", "meet"),
    PartialOrder: ("n", "rel", "up", "down", "covers"),
    Biaction: ("left", "right"),
    OrderedSemigroup: (),
}


def assert_same(built, public):
    """``built`` and ``public`` are of one kind, set every dataclass field and
    agree on every field of ``FIELDS``, on their base and order, and on
    equality, hashing and the identities."""
    kind = type(public)
    assert type(built) is kind
    assert {f.name for f in dataclasses.fields(kind)} <= vars(built).keys()
    # the reprs differ where equal values have other types: a list and a tuple, 1 and True
    for name in FIELDS[kind]:
        assert repr(getattr(built, name)) == repr(getattr(public, name)), name
    for name in ("base", "order"):
        if name in vars(public):
            assert_same(getattr(built, name), getattr(public, name))
    if hasattr(public, "identities"):
        assert built.identities() == public.identities()
    assert built == public and hash(built) == hash(public)


def public_semigroup(s):
    return FiniteBiunarySemigroup(s.n, [list(row) for row in s.mul], list(s.dmap), list(s.rmap), s.names)


def public_order(order):
    return PartialOrder(order.n, [list(row) for row in order.rel])


def public_category(s):
    """The composition category of ``s`` through ``FiniteCategory``, from lists."""
    comp = [[s.mul[x][y] if s.rmap[x] == s.dmap[y] else None for y in range(s.n)] for x in range(s.n)]
    return FiniteCategory(s.n, list(s.dmap), list(s.rmap), comp, s.names)


def test_labelled_structures_are_the_constructors():
    for s in subjects.structures(4):
        assert_same(s, public_semigroup(s))


def test_closed_pairs_are_the_constructors():
    # every poset on at most 4 points and every zoo order, from its covers,
    # so that the closure adds the rest
    orders = [order for n in range(5) for order in subjects.posets(n)]
    orders += [order for entry in subjects.zoo_entries(64) for _, order in entry.orders]
    assert len(orders) == 243 + 10
    for order in orders:
        covers = [(c, a) for a in range(order.n) for c in order.covers[a]]
        assert_same(PartialOrder.from_pairs(order.n, covers), public_order(order))


def test_derived_orders_are_the_validated_orders():
    # once ehresmann holds the evaluation's orders skip the checks derive_orders makes
    for s in subjects.structures(4, 64):
        built, public = _derived_orders(s, Evaluation()), derive_orders(s)
        assert repr(built) == repr(public)
        for name in ("leq_l", "leq_r", "leq_e"):
            assert_same(getattr(built, name), getattr(public, name))
    assert len(subjects.structures(4, 64)) == 1 + 6 + 78 + 1708 + 10


# two tables that are not Ehresmann, each with the message derive_orders gives it
NOT_EHRESMANN = [
    ((((0, 0), (0, 0)), (0, 1), (0, 1)), "derived relation is not a partial order: order is not reflexive at 1"),
    ((((0, 0, 0), (0, 1, 0), (0, 1, 2)), (0, 1, 2), (0, 1, 2)),
     "left and right orders do not compose to the e-order"),
]


@pytest.mark.parametrize("table, message", NOT_EHRESMANN)
def test_derived_orders_of_a_non_ehresmann_table_raise_as_derive_orders(table, message):
    s = FiniteBiunarySemigroup(len(table[0]), *table)
    ev = Evaluation()
    assert not ev("ehresmann", s).holds
    for derive in (derive_orders, lambda s: _derived_orders(s, ev)):
        with pytest.raises(InternalInconsistency) as exc:
            derive(s)
        assert str(exc.value) == message


def test_orders_categories_biactions_and_pseudoproducts_are_the_constructors():
    # the searched orders come first, each on a labelled structure
    for osg in subjects.ordered(4, 64):
        ev = Evaluation()
        s = osg.base
        order = public_order(osg.order)
        assert_same(osg, OrderedSemigroup(public_semigroup(s), order))
        c = _category_of(osg, ev)
        # the meet is left to the constructor to derive from the order
        public = FiniteOrderedCategory(public_category(s), order)
        assert_same(c, public)
        b = _derive_biaction(c, ev)
        assert_same(b, Biaction([list(row) for row in b.left], [list(row) for row in b.right]))
        back = _semigroup_of(c, ev)
        assert_same(back, OrderedSemigroup(public_semigroup(back.base), public.order))
        assert back == osg
    assert len(subjects.ordered(4, 64)) > 1708


def test_seeded_omega_structured_is_the_decided_report():
    # C(S) records omega-structured as holding once ehresmann-order holds; a
    # fresh evaluation decides it as the OC2 and OC3 formulas do
    for osg in subjects.ordered(4, 64):
        ev = Evaluation()
        c = _category_of(osg, ev)
        subject, seeded = ev.verdicts[("omega-structured", id(c))]
        assert subject is c and ev("omega-structured", c) is seeded
        assert seeded == formulas.report("omega-structured", c)
    assert len(subjects.ordered(4, 64)) > 1708


def test_two_order_categories_are_the_constructors(monkeypatch):
    seen = []
    two_orders = category._two_orders

    def recorded(c_l, c_r, ev):
        seen.append((c_l, c_r))
        return two_orders(c_l, c_r, ev)

    monkeypatch.setattr(category, "_two_orders", recorded)
    for s in subjects.structures(4, 64):
        rep = Evaluation()("ehresmann-category-two-orders", s)
        c0, d = public_category(s), derive_orders(s)
        assert rep == check_ehresmann_category_two_orders(c0, d.leq_l, d.leq_r)
        (c_l, c_r), public = seen
        seen.clear()
        assert public == (FiniteOrderedCategory(c0, d.leq_l), FiniteOrderedCategory(c0, d.leq_r))
        assert_same(c_l, public[0])
        assert_same(c_r, public[1])
        assert c_l.base is c_r.base


VALID_CATEGORY = (2, (0, 1), (0, 1), ((0, None), (None, 1)))

# (constructor, arguments, the message it raises)
MALFORMED = [
    (FiniteBiunarySemigroup, (0, (), (), ()), "carrier must have at least one element"),
    (FiniteBiunarySemigroup, (2, 5, (0, 0), (0, 0)), "multiplication table must be n x n"),
    (FiniteBiunarySemigroup, (2, ((0,), (0, 0)), (0, 0), (0, 0)), "multiplication table must be n x n"),
    (FiniteBiunarySemigroup, (2, ((0, 2), (0, 0)), (0, 0), (0, 0)), "table entry 2 out of range 0..1"),
    (FiniteBiunarySemigroup, (2, ((0, 0), (0, 0)), (0,), (0, 0)), "D must assign all 2 elements"),
    (FiniteBiunarySemigroup, (2, ((0, 0), (0, 0)), (0, 0), (0, 5)), "R entry 5 out of range 0..1"),
    (FiniteBiunarySemigroup, (2, ((0, 0), (0, 0)), (0, 0), (0, 0), ("a", "a")), "element names must be distinct"),
    (FiniteBiunarySemigroup, (2, ((0, 0), (0, 0)), (0, 0), (0, 0), ("a",)), "names must cover the whole carrier"),
    (FiniteCategory, (0, (), (), ()), "category must have at least one element"),
    (FiniteCategory, (2, (0, 2), (0, 1), VALID_CATEGORY[3]), "D must be an n-vector of element indices"),
    (FiniteCategory, (2, (0, 1), 7, VALID_CATEGORY[3]), "R must be an n-vector of element indices"),
    (FiniteCategory, (2, (0, 1), (0, 1), ((0, None),)), "composition table must be n x n"),
    (FiniteCategory, (2, (0, 1), (0, 1), ((0, "x"), (None, 1))),
     "table entry 'x' is neither None nor an element index"),
    (FiniteCategory, (2, (0, 1), (0, 1), ((0, 0), (None, 1))), "composition at (0, 1) is defined but R(0) != D(1)"),
    (FiniteCategory, (2, (0, 1), (0, 1), ((None, None), (None, 1))),
     "composition at (0, 0) is undefined but R(0) = D(0)"),
    (FiniteCategory, (2, (0, 1), (0, 1), ((5, None), (None, 1))), "composition entry 5 out of range"),
    (FiniteCategory, (2, (0, 0), (0, 0), ((0, 0), (1, 1))), "D(1) o 1 != 1"),
    (FiniteCategory, (2, (0, 0), (0, 0), ((0, 1), (0, 1))), "1 o R(1) != 1"),
    (FiniteCategory, (3, (0, 0, 0), (0, 0, 0), ((0, 1, 2), (1, 2, 0), (2, 1, 0))),
     "composition not associative at (1, 1, 1)"),
    (FiniteCategory, VALID_CATEGORY + (("a", "a"),), "element names must be distinct"),
    (PartialOrder, (2, 5), "order relation must be an n x n matrix"),
    (PartialOrder, (2, ((True, False),)), "order relation must be an n x n matrix"),
    (PartialOrder, (2, ((True, False), (False, False))), "order is not reflexive at 1"),
    (PartialOrder, (2, ((True, True), (True, True))), "order is not antisymmetric at (0, 1)"),
    (PartialOrder, (3, ((True, True, False), (False, True, True), (False, False, True))),
     "order is not transitive at (0, 1, 2)"),
    (PartialOrder.from_pairs, (-1, ()), "order size -1 is not a non-negative integer"),
    (PartialOrder.from_pairs, (2, 5), "order pairs must be an iterable of pairs"),
    (PartialOrder.from_pairs, (2, ((0, 1, 1),)), "order pair (0, 1, 1) is not a pair"),
    (PartialOrder.from_pairs, (2, ((0, 2),)), "order pair (0, 2) out of range"),
    (PartialOrder.from_pairs, (3, ((0, 1), (1, 2), (2, 0))), "order closure breaks antisymmetry between 0 and 1"),
    (OrderedSemigroup, ("S", PartialOrder.equality(1)), "base must be a FiniteBiunarySemigroup"),
    (OrderedSemigroup, (FiniteBiunarySemigroup(1, ((0,),), (0,), (0,)), "<="), "order must be a PartialOrder"),
    (OrderedSemigroup, (FiniteBiunarySemigroup(1, ((0,),), (0,), (0,)), PartialOrder.equality(2)),
     "order and carrier sizes differ"),
    (FiniteOrderedCategory, ("C", PartialOrder.equality(2)), "base must be a FiniteCategory"),
    (FiniteOrderedCategory, (FiniteCategory(*VALID_CATEGORY), "<="), "order must be a PartialOrder"),
    (FiniteOrderedCategory, (FiniteCategory(*VALID_CATEGORY), PartialOrder.equality(3)),
     "order and carrier sizes differ"),
    (FiniteOrderedCategory, (FiniteCategory(*VALID_CATEGORY), PartialOrder.equality(2), ((0, 0), (0, 1))),
     "meet table given, but the identities do not form a meet-semilattice"),
    (FiniteOrderedCategory, (FiniteCategory(*VALID_CATEGORY), PartialOrder.from_pairs(2, ((0, 1),)), 5),
     "meet table must be n x n"),
    (FiniteOrderedCategory, (FiniteCategory(*VALID_CATEGORY), PartialOrder.from_pairs(2, ((0, 1),)),
                             ((0, 0), (0, 0))), "meet table differs from the order at (1, 1): given 0, derived 1"),
    (Biaction, (5, ()), "table must be n x n"),
    (Biaction, (((0, "x"),), ()), "table entry 'x' is neither None nor an element index"),
]


@pytest.mark.parametrize("make, args, message", MALFORMED, ids=lambda v: getattr(v, "__qualname__", None))
def test_public_constructors_reject_malformed_input(make, args, message):
    with pytest.raises(StructureError) as exc:
        make(*args)
    assert str(exc.value) == message
