"""Ordered categories, OC laws, biaction, and the round trip."""

import itertools

import pytest

from ehresmann import (
    Biaction,
    FiniteBiunarySemigroup,
    FiniteCategory,
    FiniteOrderedCategory,
    FunctorCandidate,
    HomCandidate,
    LawReport,
    NotOrderedEhresmann,
    OC6Violation,
    OrderedSemigroup,
    PartialOrder,
    PreconditionError,
    StructureError,
    category_of,
    check_OC_property,
    check_ehresmann_category_two_orders,
    check_ehresmann_ordered_category,
    check_omega_structured,
    check_prop_oc_equivalences,
    check_special_correspondences,
    corestriction,
    derive_biaction,
    derive_orders,
    esn_round_trip,
    esn_round_trip_category,
    is_ehresmann_hom,
    is_eoc_morphism,
    is_ordered_hom,
    morphism_correspondence,
    partial_product_category,
    restriction,
    semigroup_of,
    verify_biaction,
)
from ehresmann import category, zoo
from ehresmann.core import Evaluation, evaluate

import formulas
import morphism_oracle
import scan_oracle
import subjects


ONE = FiniteBiunarySemigroup(1, ((0,),), (0,), (0,))


def monoid_cat(order_name="leq1"):
    return category_of(zoo.example_two_element_monoid().ordered(order_name))


def nabla_cat():
    return category_of(zoo.example_zero_one_nabla().ordered())


def nabla_cat_below_02():
    """zero-one-nabla's category ordered only by 0 <= nabla: OC2 fails at (0, 2)."""
    c = nabla_cat()
    order = PartialOrder.from_pairs(c.n, [(0, 2)])
    return FiniteOrderedCategory(c.base, order)


def rel2_cat():
    return category_of(zoo.gen_rel(2).ordered())


def without_order_pair(c: FiniteOrderedCategory, a: int, b: int) -> FiniteOrderedCategory:
    """Copy of c with one strict order pair removed and the meet rederived."""
    rel = [list(row) for row in c.order.rel]
    assert rel[a][b] and a != b
    rel[a][b] = False
    return FiniteOrderedCategory(c.base, PartialOrder(c.n, rel))


def two_identity_arrow_category() -> FiniteOrderedCategory:
    """Identities e1 <= e2 plus a single arrow a from e1 to e2."""
    comp = ((0, None, 2), (None, 1, None), (None, 2, None))
    order = PartialOrder.from_pairs(3, [(0, 1)])
    c0 = FiniteCategory(3, (0, 1, 0), (0, 1, 1), comp, ("e1", "e2", "a"))
    return FiniteOrderedCategory(c0, order)


class TestConstruction:
    def test_comp_defined_iff_matching(self):
        c = rel2_cat()
        s = zoo.gen_rel(2).structure
        for x in range(c.n):
            for y in range(c.n):
                assert (c.comp[x][y] is not None) == (s.rmap[x] == s.dmap[y])

    def test_monoid_category_is_one_object_and_total(self):
        c = monoid_cat()
        s = zoo.example_two_element_monoid().structure
        assert c.identities() == (1,)
        assert all(v is not None for row in c.comp for v in row)
        assert c.comp == s.mul

    def test_terminal_category(self):
        c = category_of(OrderedSemigroup(ONE, PartialOrder.equality(1)))
        assert c.n == 1 and c.identities() == (0,)

    def test_bad_comp_pattern_rejected(self):
        with pytest.raises(StructureError):
            FiniteCategory(2, (0, 1), (0, 1), ((0, 0), (None, 1)))  # entry defined where R != D

    def test_category_of_requires_ehresmann_order(self):
        band = zoo.example_orderless_band().structure
        with pytest.raises(NotOrderedEhresmann):
            category_of(OrderedSemigroup(band, PartialOrder.equality(6)))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda c, s: OrderedSemigroup(s, ((1, 0), (0, 1))), "order must be a PartialOrder"),
            (lambda c, s: OrderedSemigroup(partial_product_category(s), c.order),
             "base must be a FiniteBiunarySemigroup"),
            (lambda c, s: FiniteOrderedCategory(partial_product_category(s), c.order.rel),
             "order must be a PartialOrder"),
            (lambda c, s: FiniteOrderedCategory(c, c.order), "base must be a FiniteCategory"),
            (lambda c, s: FiniteOrderedCategory(s, c.order), "base must be a FiniteCategory"),
        ],
        ids=["semigroup-matrix", "semigroup-on-category", "category-matrix",
             "category-on-ordered-category", "category-on-semigroup"],
    )
    def test_base_and_order_of_the_wrong_kind_are_rejected(self, make, message):
        c = monoid_cat()
        with pytest.raises(StructureError, match=f"^{message}$"):
            make(c, zoo.example_two_element_monoid().structure)

    def test_supplied_meet_equal_to_the_derived_one_is_accepted(self):
        c = nabla_cat()
        again = FiniteOrderedCategory(c.base, c.order, c.meet)
        assert again == c
        as_lists = [list(row) for row in c.meet]
        assert FiniteOrderedCategory(c.base, c.order, as_lists) == c

    @pytest.mark.parametrize(
        "x, y, v, message",
        [
            (0, 1, 1, "meet table differs from the order at (0, 1): given 1, derived 0"),
            # off the identities the meet is undefined
            (0, 2, 0, "meet table differs from the order at (0, nabla): given 0, derived None"),
            # int() would read 0.9 as the derived 0
            (0, 1, 0.9, "meet table differs from the order at (0, 1): given 0.9, derived 0"),
        ],
    )
    def test_supplied_meet_must_equal_the_derived_one(self, x, y, v, message):
        c = nabla_cat()
        bad_meet = [list(row) for row in c.meet]
        bad_meet[x][y] = v
        with pytest.raises(StructureError) as exc:
            FiniteOrderedCategory(c.base, c.order, bad_meet)
        assert str(exc.value) == message

    def test_supplied_meet_that_is_no_table_is_rejected(self):
        c = nabla_cat()
        with pytest.raises(StructureError, match="^meet table must be n x n$"):
            FiniteOrderedCategory(c.base, c.order, 5)

    def test_supplied_meet_needs_a_meet_semilattice(self):
        # two identities under the equality order have no meet
        comp = meet = ((0, None), (None, 1))
        with pytest.raises(StructureError, match="do not form a meet-semilattice"):
            FiniteOrderedCategory(FiniteCategory(2, (0, 1), (0, 1), comp), PartialOrder.equality(2), meet)

    @pytest.mark.parametrize("dmap, rmap", [((None, 1), (0, 1)), ((0.0, 1), (0, 1)), ((0, 1), (0, "1"))])
    def test_non_integer_domain_and_range_entries_are_rejected(self, dmap, rmap):
        # an ordered category is ordered on a FiniteCategory, which makes this check
        with pytest.raises(StructureError, match="must be an n-vector of element indices"):
            FiniteCategory(2, dmap, rmap, ((0, None), (None, 1)))

    @pytest.mark.parametrize("v", [1.7, "1"])
    def test_non_integer_composition_entries_are_rejected(self, v):
        with pytest.raises(StructureError, match="neither None nor an element index"):
            FiniteCategory(2, (1, 1), (1, 1), ((0, 0), (0, v)))


class TestOmegaStructured:
    def test_monoid_category(self):
        assert check_omega_structured(monoid_cat()).holds

    def test_rel2_category(self):
        assert check_omega_structured(rel2_cat()).holds

    def test_deleting_oc2_required_pair_fails(self):
        c = rel2_cat()
        # drop the identity pair {(1,1)} <= 1 while keeping {(1,1)} <= full
        # relation pairs whose D-images needed it
        rep = check_omega_structured(without_order_pair(c, 1, 9))
        assert not rep.holds
        assert "OC2" in rep.detail
        a, b = rep.witness
        assert c.order.rel[a][b]


class TestRestrictionCorestriction:
    def test_dx_restrict_x_is_x(self):
        for c in (monoid_cat(), nabla_cat(), rel2_cat()):
            for x in range(c.n):
                assert restriction(c, c.dmap[x], x) == x
                assert corestriction(c, x, c.rmap[x]) == x

    def test_nabla_restriction(self):
        c = nabla_cat()
        assert restriction(c, 0, 2) == 0  # 0|nabla = 0

    def test_monoid_corestriction(self):
        # both elements lie below 0 in leq1 and have range 1; maximum is 0
        assert corestriction(monoid_cat("leq1"), 0, 1) == 0

    def test_rel2_restriction_values(self):
        c = rel2_cat()
        s = zoo.gen_rel(2).structure
        names = {s.name_of(i): i for i in range(16)}
        full = names["{(1,1),(1,2),(2,1),(2,2)}"]
        e11 = names["{(1,1)}"]
        assert s.name_of(restriction(c, e11, full)) == "{(1,1),(1,2)}"
        assert s.name_of(corestriction(c, full, e11)) == "{(1,1),(2,1)}"

    def test_restriction_agrees_with_left_multiplication(self):
        # in the category of an ordered Ehresmann semigroup, e|a = ea
        for entry_name in ("two-element-monoid", "zero-one-nabla", "pt-2", "inj-2"):
            entry = zoo.get(entry_name)
            osg = entry.ordered()
            c = category_of(osg)
            s = osg.base
            for e in c.identities():
                for a in range(c.n):
                    if c.order.rel[e][c.dmap[a]]:
                        assert restriction(c, e, a) == s.mul[e][a]
                    if c.order.rel[e][c.rmap[a]]:
                        assert corestriction(c, a, e) == s.mul[a][e]

    def test_precondition_errors(self):
        c = nabla_cat()
        with pytest.raises(Exception):
            restriction(c, 2, 2)  # nabla is not an identity
        with pytest.raises(Exception):
            restriction(c, 1, 0)  # 1 is not below D(0) = 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: restriction(c, 1, 7),
            lambda c: corestriction(c, 7, 1),
            # the element named in the message is out of range too
            lambda c: restriction(c, 9, 0),
        ],
        ids=["restriction-x", "corestriction-x", "restriction-e"],
    )
    def test_out_of_range_elements_raise_structure_error(self, call):
        with pytest.raises(StructureError, match="out of range 0..2"):
            call(nabla_cat())

    @pytest.mark.parametrize(
        "call, v",
        [
            (lambda c: restriction(c, 1.0, 0), "1.0"),
            (lambda c: restriction(c, "1", 0), "'1'"),
            (lambda c: corestriction(c, 0, 1.0), "1.0"),
        ],
        ids=["restriction-float", "restriction-str", "corestriction-float"],
    )
    def test_non_integer_elements_raise_structure_error(self, call, v):
        with pytest.raises(StructureError, match=f"element {v} out of range 0..2"):
            call(nabla_cat())

    def test_oc6_violation_raised_when_maximum_missing(self):
        c = rel2_cat()
        # removing {(1,1)} <= {(1,1),(1,2)} leaves the candidates below
        # {(1,1),(1,2),(2,1)} with domain under {(1,1)} without a greatest
        # element: masks 1 and 2 stay incomparable to 3
        mutated = without_order_pair(c, 1, 3)
        with pytest.raises(OC6Violation):
            restriction(mutated, 1, 7)


class TestOCProperties:
    def test_monoid_oc7_holds_oc4_fails(self):
        c = monoid_cat("leq1")
        assert check_OC_property(c, "OC7").holds
        rep = check_OC_property(c, "OC4")
        assert not rep.holds
        assert rep.witness == (1, 0)

    def test_unknown_property_rejected_before_the_prerequisite(self):
        c = nabla_cat_below_02()
        assert check_omega_structured(c).witness == (0, 2)
        for prop in ("nonsense", "os4", "oc-equivalences"):
            with pytest.raises(ValueError):
                check_OC_property(c, prop)

    def test_reports_carry_the_canonical_name(self):
        for spelling in ("OC7'", "oc7'", "oc7p", "OC7P"):
            rep = check_OC_property(nabla_cat_below_02(), spelling)
            assert (rep.law, rep.applicable, rep.witness) == ("OC7'", False, (0, 2))
            assert check_OC_property(nabla_cat(), spelling).law == "OC7'"
        for spelling in ("OC6A", "oc6a"):
            assert check_OC_property(nabla_cat_below_02(), spelling).law == "OC6A"

    def test_nabla_oc8_fails(self):
        rep = check_OC_property(nabla_cat(), "OC8")
        assert not rep.holds
        assert rep.witness == (2, 1)  # both 1 and nabla sit below nabla with domain 1

    def test_inj2_category_is_inductive(self):
        c = category_of(zoo.gen_partial_injections(2).ordered())
        assert check_OC_property(c, "OC8").holds
        assert c.meet is not None

    def test_oc6_holds_on_all_built_categories(self):
        for name in ("two-element-monoid", "zero-one-nabla", "rel-2", "pt-2"):
            c = category_of(zoo.get(name).ordered())
            assert check_OC_property(c, "OC6").holds

    def test_oc4_with_oc7prime_implies_oc7(self):
        for osg in subjects.ordered(3):
            c = category_of(osg)
            if check_OC_property(c, "OC4").holds and check_OC_property(c, "OC7'").holds:
                assert check_OC_property(c, "OC7").holds


class TestPropOCEquivalences:
    def test_nabla_holds_with_both_sides_false(self):
        rep = check_prop_oc_equivalences(nabla_cat())
        assert rep.holds
        parts = dict(rep.parts)
        assert parts["oc8a"] is False and parts["oc4a-and-oc6"] is False

    def test_terminal_holds(self):
        c = category_of(OrderedSemigroup(ONE, PartialOrder.equality(1)))
        assert check_prop_oc_equivalences(c).holds

    def test_exotic_category_evaluated_honestly(self):
        # restrictions are unique here (OC8a) yet the corestriction maximum
        # at (a, e1) is missing, so the sides of the first biconditional
        # genuinely differ on this category; the checker must say so
        c = two_identity_arrow_category()
        rep = check_prop_oc_equivalences(c)
        parts = dict(rep.parts)
        assert parts["oc8a"] is True and parts["oc4a-and-oc6"] is False
        assert not rep.holds

    def test_holds_on_all_categories_of_ordered_structures(self):
        for osg in subjects.ordered(3):
            assert check_prop_oc_equivalences(category_of(osg)).holds


class TestEhresmannOrderedCategory:
    def test_monoid_both_orders(self):
        assert check_ehresmann_ordered_category(monoid_cat("leq1")).holds
        assert check_ehresmann_ordered_category(monoid_cat("leq2")).holds

    def test_mutated_rel2_fails(self):
        c = rel2_cat()
        assert not check_ehresmann_ordered_category(without_order_pair(c, 1, 3)).holds

    def test_missing_corestriction_maximum_fails_oc6b(self):
        # two identities with e1 <= e2 and one arrow a: e1 -> e2; the set
        # below a with range under e1 is empty, so OC6b fails at (a, e1)
        c = two_identity_arrow_category()
        assert check_omega_structured(c).holds
        rep = check_OC_property(c, "OC6")
        assert not rep.holds
        assert rep.witness == (2, 0)
        assert dict(rep.parts) == {"oc6a": True, "oc6b": False}
        eoc = check_ehresmann_ordered_category(c)
        assert not eoc.holds
        assert dict(eoc.parts)["OC6b"] is False


class TestTwoOrderCategories:
    def test_band_two_orders_hold(self):
        band = zoo.example_orderless_band().structure
        d = derive_orders(band)
        c0 = partial_product_category(band)
        rep = check_ehresmann_category_two_orders(c0, d.leq_l, d.leq_r)
        assert rep.holds

    def test_terminal_trivial_orders(self):
        c0 = partial_product_category(ONE)
        eq = PartialOrder.equality(1)
        assert check_ehresmann_category_two_orders(c0, eq, eq).holds

    def test_band_swapped_orders_fail(self):
        band = zoo.example_orderless_band().structure
        d = derive_orders(band)
        c0 = partial_product_category(band)
        rep = check_ehresmann_category_two_orders(c0, d.leq_r, d.leq_l)
        assert not rep.holds

    def test_holds_for_every_small_ehresmann_semigroup(self):
        for s in subjects.structures(3):
            d = derive_orders(s)
            c0 = partial_product_category(s)
            rep = check_ehresmann_category_two_orders(c0, d.leq_l, d.leq_r)
            assert rep.holds
            # the registered law derives the orders and C₀ itself
            assert evaluate("ehresmann-category-two-orders", s) == rep

    def test_orders_of_the_wrong_size_are_rejected(self):
        c0 = partial_product_category(ONE)
        one, two = PartialOrder.equality(1), PartialOrder.equality(2)
        for left, right in ((two, one), (one, two)):
            with pytest.raises(StructureError, match="^order and carrier sizes differ$"):
                check_ehresmann_category_two_orders(c0, left, right)


def e1_failure(ids, meet) -> tuple[str, tuple[int, ...]] | None:
    """The first failure of idempotence, commutativity or associativity of ``meet`` on ``ids``."""
    for e in ids:
        if meet[e][e] != e:
            return "meet not idempotent", (e,)
        for f in ids:
            if meet[e][f] != meet[f][e]:
                return "meet not commutative", (e, f)
            for g in ids:
                if meet[meet[e][f]][g] != meet[e][meet[f][g]]:
                    return "meet not associative", (e, f, g)
    return None


class TestBiaction:
    def test_left_action_by_domain_is_identity(self):
        for c in (monoid_cat(), nabla_cat()):
            b = derive_biaction(c)
            for x in range(c.n):
                assert b.left[c.dmap[x]][x] == x

    def test_action_agrees_with_multiplication(self):
        for name in ("two-element-monoid", "zero-one-nabla", "pt-2", "inj-2"):
            osg = zoo.get(name).ordered()
            c = category_of(osg)
            b = derive_biaction(c)
            for e in c.identities():
                for x in range(c.n):
                    assert b.left[e][x] == osg.base.mul[e][x]
                    assert b.right[x][e] == osg.base.mul[x][e]

    def test_nabla_left_action(self):
        b = derive_biaction(nabla_cat())
        assert b.left[0][2] == 0  # 0 . nabla = 0

    def test_derived_biaction_verifies(self):
        for name in ("two-element-monoid", "zero-one-nabla", "rel-2", "pt-2"):
            c = category_of(zoo.get(name).ordered())
            assert verify_biaction(c, derive_biaction(c)).holds

    def test_derived_meets_are_semilattices(self):
        # verify_biaction's E1 fails only when there is no meet table: every
        # table of greatest lower bounds is idempotent, commutative and associative
        tables = 0
        for s in subjects.structures(3):
            ids = partial_product_category(s).identities()
            for order in subjects.posets(s.n):
                meet = category._derive_meet(s.n, ids, order)
                if meet is not None:
                    assert e1_failure(ids, meet) is None
                    tables += 1
        for _, name, oname in SWEEP_ORDERED:
            c = category_of(zoo.get(name).ordered(oname))
            assert e1_failure(c.identities(), c.meet) is None
            tables += 1
        assert tables == 1166
        assert e1_failure((0, 1), ((0, 0), (1, 1))) == ("meet not commutative", (0, 1))

    def test_e1_fails_without_a_meet_table(self):
        c0 = FiniteCategory(2, (0, 1), (0, 1), ((0, None), (None, 1)))
        c = FiniteOrderedCategory(c0, PartialOrder.equality(2))
        rep = verify_biaction(c, Biaction(((0, None), (None, 1)), ((0, None), (None, 1))))
        assert (rep.holds, rep.witness) == (False, None)
        assert rep.detail == "E1 fails at (): no meet table on the identities"
        assert dict(rep.parts)["E1"] is False

    @pytest.mark.parametrize("v", [1.9, "a"])
    def test_non_integer_action_entries_are_rejected(self, v):
        with pytest.raises(StructureError, match="neither None nor an element index"):
            Biaction(((0, v), (None, None)), ((0, None), (1, None)))

    @pytest.mark.parametrize(
        "left",
        [
            ((None,),),  # 1 x 1 on a 2-element category
            ((None, None), (0, 2)),  # out of range
            ((None, None), (0, -1)),  # negative: would read the last row
        ],
    )
    def test_malformed_action_tables_are_rejected(self, left):
        c = monoid_cat()
        right = derive_biaction(c).right
        with pytest.raises(StructureError, match="left action table must be 2 x 2 over 0..1 and None"):
            verify_biaction(c, Biaction(left, right))

    def test_corrupted_entry_fails(self):
        c = rel2_cat()
        b = derive_biaction(c)
        left = [list(row) for row in b.left]
        # identity {(1,1)} acting on itself must give itself; corrupt it
        left[1][1] = 15
        rep = verify_biaction(c, Biaction(tuple(tuple(r) for r in left), b.right))
        assert not rep.holds
        assert not all(ok for _, ok in rep.parts)


def reference_pseudoproduct(c: FiniteOrderedCategory) -> OrderedSemigroup:
    """x (x) y = x|e o e|y with e = R(x) meet D(y), through restriction and corestriction."""
    mul = [[0] * c.n for _ in range(c.n)]
    for x in range(c.n):
        for y in range(c.n):
            e = c.meet[c.rmap[x]][c.dmap[y]]
            mul[x][y] = c.comp[corestriction(c, x, e)][restriction(c, e, y)]
    base = FiniteBiunarySemigroup(c.n, tuple(map(tuple, mul)), c.dmap, c.rmap, c.names)
    return OrderedSemigroup(base, c.order)


class TestSemigroupOf:
    def test_matches_the_restriction_reference(self):
        assert len(subjects.ordered(3, 64)) == 205
        for os in subjects.ordered(3, 64):
            c = category_of(os)
            assert semigroup_of(c) == reference_pseudoproduct(c)

    def test_identities_without_a_meet_are_not_applicable(self):
        # two identities under the equality order have no meet
        c0 = FiniteCategory(2, (0, 1), (0, 1), ((0, None), (None, 1)))
        c = FiniteOrderedCategory(c0, PartialOrder.equality(2))
        assert c.meet is None
        text = "not an Ehresmann-ordered category: identities do not form a meet-semilattice under the order"
        with pytest.raises(PreconditionError) as exc:
            semigroup_of(c)
        assert str(exc.value) == text
        assert esn_round_trip_category(c) == LawReport("esn-round-trip", False, detail=text, applicable=False)

    def test_terminal(self):
        c = category_of(OrderedSemigroup(ONE, PartialOrder.equality(1)))
        back = semigroup_of(c)
        assert back.base.n == 1

    def test_rel2_pseudoproduct_equals_relation_composition(self):
        entry = zoo.gen_rel(2)
        c = category_of(entry.ordered())
        back = semigroup_of(c)
        assert back.base.mul == entry.structure.mul
        # oracle: recompute both through explicit pair sets
        def pairs_of(mask):
            return {(i, j) for i in range(2) for j in range(2) if mask & (1 << (i * 2 + j))}

        def mask_of(pairs):
            m = 0
            for i, j in pairs:
                m |= 1 << (i * 2 + j)
            return m

        for a in range(16):
            for b in range(16):
                composed = {
                    (i, k)
                    for i, j in pairs_of(a)
                    for j2, k in pairs_of(b)
                    if j == j2
                }
                assert back.base.mul[a][b] == mask_of(composed)


class TestEsnRoundTrip:
    def test_monoid_leq1(self):
        assert esn_round_trip(zoo.example_two_element_monoid().ordered("leq1")).holds

    def test_rel2(self):
        assert esn_round_trip(zoo.gen_rel(2).ordered()).holds

    def test_category_direction(self):
        for name in ("two-element-monoid", "zero-one-nabla", "pt-2"):
            c = category_of(zoo.get(name).ordered())
            assert esn_round_trip_category(c).holds

    def test_small_sweep(self):
        for osg in subjects.ordered(3):
            assert esn_round_trip(osg).holds


class TestMalformedMaps:
    @pytest.mark.parametrize(
        "fm", [(0.0, 1), (0, 1.5), ("0", 1), (None, 1), (0,), (0, 1, 1), (0, 2), (-1, 1)]
    )
    def test_every_decider_raises_structure_error(self, fm):
        osg = zoo.example_two_element_monoid().ordered("leq1")
        c = category_of(osg)
        text = "candidate map must send every source index into the target"
        with pytest.raises(StructureError, match=text):
            is_ehresmann_hom(HomCandidate("S", "S", fm), osg.base, osg.base)
        with pytest.raises(StructureError, match=text):
            is_ordered_hom(HomCandidate("S", "S", fm), osg, osg)
        with pytest.raises(StructureError, match=text):
            is_eoc_morphism(FunctorCandidate("C", "C", fm), c, c)


class TestEocMorphism:
    def test_collapse_map_fails_restriction_clause(self):
        c = nabla_cat()
        rep = is_eoc_morphism(FunctorCandidate("C", "C", (1, 1, 2)), c, c)
        assert not rep.holds
        assert dict(rep.parts) == {
            "functor": True,
            "order": True,
            "meet": True,
            "restriction": False,
        }

    def test_identity_functor_holds(self):
        c = nabla_cat()
        assert is_eoc_morphism(FunctorCandidate("C", "C", (0, 1, 2)), c, c).holds

    def test_corestriction_failure_is_witnessed_element_first(self):
        # the restriction part's witness is (e, s) for a restriction, (s, e) for a corestriction
        c1 = nabla_cat()
        c2 = category_of(zoo.get("rel-2").ordered())
        for fm, witness in (((1, 9, 11), (0, 2)), ((1, 9, 13), (2, 0))):
            rep = is_eoc_morphism(FunctorCandidate("C", "D", fm), c1, c2)
            assert rep == morphism_oracle._is_eoc_morphism_unchecked(fm, c1, c2)
            assert (rep.witness, rep.detail) == (witness, f"restriction clause fails at {witness}")

    def test_identity_between_orders_fails_order_clause(self):
        rep = is_eoc_morphism(
            FunctorCandidate("C", "C", (0, 1)), monoid_cat("leq1"), monoid_cat("leq2")
        )
        assert not rep.holds
        assert dict(rep.parts) == {
            "functor": True,
            "order": False,
            "meet": True,
            "restriction": True,
        }


def reference_correspondence(s_os: OrderedSemigroup, t_os: OrderedSemigroup) -> LawReport:
    """Brute force over all |T|^|S| maps in lexicographic order, both oracle deciders per map.

    Prerequisites go through the ``category`` module so that a monkeypatch
    there reaches this reference and ``morphism_correspondence`` alike.
    """
    c1 = category.category_of(s_os)
    c2 = category.category_of(t_os)
    b1 = category.derive_biaction(c1)
    b2 = category.derive_biaction(c2)
    ids1 = c1.identities()
    passing = 0
    for fm in itertools.product(range(t_os.base.n), repeat=s_os.base.n):
        sem = morphism_oracle.is_ordered_hom(HomCandidate("S", "T", fm), s_os, t_os).holds
        cat = morphism_oracle._is_eoc_morphism_unchecked(fm, c1, c2).holds
        if sem != cat:
            return LawReport(
                "morphism-correspondence",
                False,
                witness=fm,
                detail=f"verdicts disagree on {fm}: semigroup={sem}, category={cat}",
            )
        if sem:
            passing += 1
            for e in ids1:
                for x in range(s_os.base.n):
                    if fm[b1.left[e][x]] != b2.left[fm[e]][fm[x]] or (
                        fm[b1.right[x][e]] != b2.right[fm[x]][fm[e]]
                    ):
                        return LawReport(
                            "morphism-correspondence",
                            False,
                            witness=fm,
                            detail=f"passing map {fm} does not preserve the biaction at ({e}, {x})",
                        )
    total = t_os.base.n**s_os.base.n
    return LawReport(
        "morphism-correspondence",
        True,
        detail=f"{total} maps checked, {passing} are morphisms on both sides",
    )


SWEEP_ORDERED = [(f"{e.name}#{oname}", e.name, oname) for e in subjects.zoo_entries(16) for oname in e.order_names()]
ORACLE_PAIRS = [
    pytest.param(s[1:], t[1:], id=f"{s[0]}->{t[0]}")
    for s in SWEEP_ORDERED
    for t in SWEEP_ORDERED
    if zoo.get(t[1]).structure.n ** zoo.get(s[1]).structure.n <= 10**4
]


PER_MAP_PAIRS = [
    pytest.param(s[1:], t[1:], id=f"{s[0]}->{t[0]}")
    for s in SWEEP_ORDERED
    for t in SWEEP_ORDERED
    if zoo.get(t[1]).structure.n ** zoo.get(s[1]).structure.n <= 10**3
]


class TestPerMapDeciders:
    """The clause-list deciders against the hand-written ones in ``morphism_oracle``."""

    def test_pair_count(self):
        assert len(PER_MAP_PAIRS) == 63

    def test_the_public_decider_matches_the_oracle_on_every_map(self):
        # is_eoc_morphism, a fresh evaluation per map, on two pairs whose maps
        # hold or fail first at each of the four clauses
        firsts = set()
        for src, tgt in (("zero-one-nabla", "zero-one-nabla"), ("inj-2", "rel-1")):
            c1, c2 = category_of(zoo.get(src).ordered()), category_of(zoo.get(tgt).ordered())
            for fm in itertools.product(range(c2.n), repeat=c1.n):
                rep = is_eoc_morphism(FunctorCandidate("C", "D", fm), c1, c2)
                assert rep == morphism_oracle._is_eoc_morphism_unchecked(fm, c1, c2)
                firsts.add(next((part for part, ok in rep.parts if not ok), None))
        assert firsts == {None, "functor", "order", "meet", "restriction"}

    @pytest.mark.parametrize("src,tgt", PER_MAP_PAIRS)
    def test_reports_match_the_oracle_on_every_map(self, src, tgt):
        s_os = zoo.get(src[0]).ordered(src[1])
        t_os = zoo.get(tgt[0]).ordered(tgt[1])
        c1, c2 = category_of(s_os), category_of(t_os)
        # one evaluation per pair decides both categories once
        ev = Evaluation()
        for fm in itertools.product(range(t_os.base.n), repeat=s_os.base.n):
            f = HomCandidate("S", "T", fm)
            assert is_ehresmann_hom(f, s_os.base, t_os.base) == morphism_oracle.is_ehresmann_hom(
                f, s_os.base, t_os.base)
            assert is_ordered_hom(f, s_os, t_os) == morphism_oracle.is_ordered_hom(f, s_os, t_os)
            assert category._is_eoc_morphism(FunctorCandidate("C", "D", fm), c1, c2, ev) == (
                morphism_oracle._is_eoc_morphism_unchecked(fm, c1, c2))


class TestMorphismCorrespondence:
    def test_oracle_pair_count(self):
        assert len(ORACLE_PAIRS) == 65

    @pytest.mark.parametrize("src,tgt", ORACLE_PAIRS)
    def test_matches_brute_force(self, src, tgt):
        s_os = zoo.get(src[0]).ordered(src[1])
        t_os = zoo.get(tgt[0]).ordered(tgt[1])
        got = morphism_correspondence(s_os, t_os).to_dict()
        assert got == reference_correspondence(s_os, t_os).to_dict()

    def test_biaction_failure_witness_matches_brute_force(self, monkeypatch):
        s_os = zoo.get("pt-1").ordered()
        t_os = zoo.get("inj-2").ordered()
        target = category_of(t_os)
        derive = category._derive_biaction
        good = derive_biaction(target)
        witnesses = set()
        for side in ("left", "right"):
            table = getattr(good, side)
            for i, j in itertools.product(range(target.n), repeat=2):
                if table[i][j] is None:
                    continue
                rows = [list(row) for row in table]
                rows[i][j] = (rows[i][j] + 1) % target.n
                bad = Biaction(rows, good.right) if side == "left" else Biaction(good.left, rows)
                monkeypatch.setattr(
                    category,
                    "_derive_biaction",
                    lambda c, ev, bad=bad: bad if c == target else derive(c, ev),
                )
                got = morphism_correspondence(s_os, t_os).to_dict()
                assert got == reference_correspondence(s_os, t_os).to_dict()
                if not got["holds"]:
                    assert "does not preserve the biaction" in got["detail"]
                    witnesses.add(tuple(got["witness"]))
        assert len(witnesses) > 1

    def test_disagreement_witness_matches_brute_force(self, monkeypatch):
        # one wrong restriction of the target, in the table the package reads
        # and in formulas.greatest_below, which the oracle reads; the registered
        # OC6a law holds the table builder itself, so it decides on the true
        # table while the biaction and the clauses look the builder up by name
        s_os = zoo.get("pt-1").ordered()
        t_os = zoo.get("inj-2").ordered()
        target = category_of(t_os)
        below, target_view = formulas.greatest_below, formulas.view(target)
        build = category._restrictions
        true_table = build(target, Evaluation())
        witnesses = set()
        for e in target.identities():
            for x in range(target.n):
                if not target.order.rel[e][target.dmap[x]]:
                    continue
                wrong = (below(target_view, x, e) + 1) % target.n
                table = [list(row) for row in true_table]
                table[x][e] = wrong
                monkeypatch.setattr(
                    category,
                    "_restrictions",
                    lambda c, ev, table=table: table if c == target else build(c, ev),
                )
                monkeypatch.setattr(
                    formulas,
                    "greatest_below",
                    lambda v, y, f, e=e, x=x, wrong=wrong: (
                        wrong if v is target_view and (y, f) == (x, e) else below(v, y, f)
                    ),
                )
                got = morphism_correspondence(s_os, t_os).to_dict()
                assert got == reference_correspondence(s_os, t_os).to_dict()
                if not got["holds"]:
                    assert "verdicts disagree" in got["detail"]
                    witnesses.add(tuple(got["witness"]))
        assert len(witnesses) > 1

    def test_monoid_self_maps(self):
        osg = zoo.example_two_element_monoid().ordered("leq1")
        rep = morphism_correspondence(osg, osg)
        assert rep.holds
        assert "4 maps" in rep.detail

    def test_one_element_to_zoo_member(self):
        one = OrderedSemigroup(ONE, PartialOrder.equality(1))
        target = zoo.example_zero_one_nabla().ordered()
        assert morphism_correspondence(one, target).holds
        # only maps onto projections are morphisms
        passing = [
            v
            for v in range(3)
            if is_ordered_hom(HomCandidate("S", "T", (v,)), one, target).holds
        ]
        assert passing == [0, 1]

    def test_nabla_all_27_maps(self):
        osg = zoo.example_zero_one_nabla().ordered()
        rep = morphism_correspondence(osg, osg)
        assert rep.holds
        assert "27 maps" in rep.detail

    def test_ceiling(self):
        from ehresmann import TooLargeError

        big = zoo.gen_rel(2).ordered()
        with pytest.raises(TooLargeError, match="exceed the ceiling of 10000000"):
            morphism_correspondence(big, big)


class TestOrderRecovery:
    def test_order_recovered_from_biaction(self):
        # s <= t iff D(s) <= D(t), R(s) <= R(t), and s <= D(s).t.R(s)
        for name in ("two-element-monoid", "zero-one-nabla", "pt-2", "inj-2"):
            c = category_of(zoo.get(name).ordered())
            b = derive_biaction(c)
            rel = c.order.rel
            for s in range(c.n):
                for t in range(c.n):
                    squeezed = b.right[b.left[c.dmap[s]][t]][c.rmap[s]]
                    recovered = (
                        rel[c.dmap[s]][c.dmap[t]]
                        and rel[c.rmap[s]][c.rmap[t]]
                        and rel[s][squeezed]
                    )
                    assert rel[s][t] == recovered

    def test_oc4_categories_decompose_their_order(self):
        # under OC4 the order splits as the composite of s = D(s)|t and
        # s = t|R(s)
        checked = 0
        for osg in subjects.ordered(3):
            c = category_of(osg)
            if not check_OC_property(c, "OC4").holds:
                continue
            checked += 1
            rel, n = c.order.rel, c.n
            leq_l = [[rel[c.dmap[a]][c.dmap[b]] and restriction(c, c.dmap[a], b) == a for b in range(n)]
                     for a in range(n)]
            leq_r = [[rel[c.rmap[a]][c.rmap[b]] and corestriction(c, b, c.rmap[a]) == a for b in range(n)]
                     for a in range(n)]
            assert tuple(tuple(any(leq_l[a][u] and leq_r[u][b] for u in range(n)) for b in range(n))
                         for a in range(n)) == rel
        assert checked > 0


class TestSpecialCorrespondences:
    def test_monoid_leq1(self):
        rep = check_special_correspondences(zoo.example_two_element_monoid().ordered("leq1"))
        assert rep.holds

    def test_partial_injections_inductive_branch(self):
        osg = zoo.gen_partial_injections(2).ordered()
        # the attached inclusion order is the natural order of this
        # restriction semigroup
        assert osg.order.rel == derive_orders(osg.base).leq_e.rel
        rep = check_special_correspondences(osg)
        assert rep.holds
        assert "inductive1=True" in rep.detail

    def test_pt2_epimorphism_branch(self):
        osg = zoo.gen_pt(2).ordered()
        rep = check_special_correspondences(osg)
        assert rep.holds
        assert "OC4A&epi=True" in rep.detail
        # oracle: cancellation checked by the triple scan
        assert scan_oracle.all_epi_witness(category_of(osg)) is None
