"""Derived orders, OS laws, and the Ehresmann order enumerator."""

import itertools

import formulas
import pytest
import scan_oracle

from ehresmann import (
    FiniteBiunarySemigroup,
    HomCandidate,
    OrderedSemigroup,
    PartialOrder,
    PreconditionError,
    StructureError,
    automorphisms,
    check_OS_property,
    check_ehresmann,
    check_ehresmann_order,
    check_leq_e_partial_laws,
    derive_orders,
    enumerate_ehresmann_orders,
    is_de_barros,
    is_ordered_hom,
    leq_e_containment,
    projections,
    semilattice_order_agreement,
    smallest_order_check,
)
from ehresmann import zoo
from ehresmann.core import check_de_barros_equational


ONE = FiniteBiunarySemigroup(1, ((0,),), (0,), (0,))


def monoid_entry():
    return zoo.example_two_element_monoid()


def oracle_ehresmann_orders(s):
    """All Ehresmann orders by filtering every relation on the carrier.

    Independent of the search code: posets are recognised by the order
    validation scan and the OS laws evaluated by their formulas.
    """
    n = s.n
    offdiag = [(a, b) for a in range(n) for b in range(n) if a != b]
    proj = projections(s).sorted_members
    out = []
    for bits in itertools.product((False, True), repeat=len(offdiag)):
        rel = [[a == b for b in range(n)] for a in range(n)]
        for (a, b), v in zip(offdiag, bits):
            rel[a][b] = v
        view = formulas.View(n, s.mul, s.dmap, s.rmap, rel, proj, str)
        if scan_oracle.partial_order_failure(n, rel) is None and formulas.least(formulas.EHRESMANN_ORDER, view) is None:
            out.append(tuple(tuple(r) for r in rel))
    return sorted(out)


class TestPartialOrder:
    def test_rejects_missing_reflexivity(self):
        with pytest.raises(StructureError):
            PartialOrder(2, ((False, False), (False, True)))

    def test_rejects_antisymmetry_violation(self):
        with pytest.raises(StructureError):
            PartialOrder(2, ((True, True), (True, True)))

    def test_rejects_transitivity_violation(self):
        with pytest.raises(StructureError):
            PartialOrder(
                3, ((True, True, False), (False, True, True), (False, False, True))
            )

    def test_from_pairs_closes_transitively(self):
        p = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        assert p.leq(0, 2)

    def test_from_pairs_detects_cycles(self):
        with pytest.raises(StructureError):
            PartialOrder.from_pairs(2, [(0, 1), (1, 0)])

    def test_glb_within_subset(self):
        chain = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        assert chain.glb(1, 2) == 1
        assert chain.glb(1, 2, within=(0, 2)) == 0

    def test_glb_rejects_out_of_range_elements(self):
        with pytest.raises(StructureError, match="out of range 0..1"):
            PartialOrder.equality(2).glb(0, 5)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: PartialOrder(2, None), "order relation must be an n x n matrix"),
            (lambda: PartialOrder.from_pairs(2, [("a", 1)]), r"order pair \(a, 1\) out of range"),
            (lambda: PartialOrder.from_pairs(2, [(0.0, 1)]), r"order pair \(0.0, 1\) out of range"),
            (lambda: PartialOrder.from_pairs(2, [(0,)]), r"order pair \(0,\) is not a pair"),
            (lambda: PartialOrder.from_pairs(2, 5), "order pairs must be an iterable of pairs"),
            (lambda: PartialOrder.from_pairs(-1, []), "order size -1 is not a non-negative integer"),
            (lambda: PartialOrder.from_pairs(2.5, []), "order size 2.5 is not a non-negative integer"),
            (lambda: PartialOrder.from_pairs("2", []), "order size '2' is not a non-negative integer"),
            (lambda: PartialOrder.equality("a"), "order size 'a' is not a non-negative integer"),
            (lambda: PartialOrder.equality(2).glb(0, 1, within=5), "glb pool must be an iterable of elements"),
        ],
        ids=["no-matrix", "str-pair", "float-pair", "short-pair", "no-pairs",
             "negative-size", "float-size", "str-size", "str-equality-size", "scalar-glb-pool"],
    )
    def test_malformed_relation_raises_structure_error(self, make, message):
        with pytest.raises(StructureError, match=message):
            make()

    @pytest.mark.parametrize("a, b, v", [("a", 0, "'a'"), (0, 1.0, "1.0")])
    def test_glb_rejects_non_integer_elements(self, a, b, v):
        with pytest.raises(StructureError, match=f"glb element {v} out of range 0..1"):
            PartialOrder.equality(2).glb(a, b)

    @pytest.mark.parametrize("v", [5, -1])
    def test_glb_rejects_out_of_range_pool_elements(self, v):
        with pytest.raises(StructureError, match=f"glb element {v} out of range 0..1"):
            PartialOrder.equality(2).glb(0, 1, within=[v])


class TestDeriveOrders:
    def test_monoid_e_order_is_equality(self):
        s = monoid_entry().structure
        d = derive_orders(s)
        assert d.leq_e.rel == PartialOrder.equality(2).rel

    def test_one_element_trivial(self):
        d = derive_orders(ONE)
        assert d.leq_l.rel == d.leq_r.rel == d.leq_e.rel

    def test_pt2_left_order_equals_e_order(self):
        d = derive_orders(zoo.gen_pt(2).structure)
        assert d.leq_l.rel == d.leq_e.rel

    def test_e_order_matches_two_sided_projection_oracle(self):
        # independent form: a <=_e b iff a = g b h for some projections g, h
        for name in ("two-element-monoid", "zero-one-nabla", "pt-2", "inj-2"):
            s = zoo.get(name).structure
            proj = projections(s).sorted_members
            leq_e = derive_orders(s).leq_e
            for a in range(s.n):
                for b in range(s.n):
                    oracle = any(
                        s.mul[s.mul[g][b]][h] == a for g in proj for h in proj
                    )
                    assert leq_e.rel[a][b] == oracle

    def test_left_order_matches_one_sided_oracle(self):
        for name in ("two-element-monoid", "pt-2"):
            s = zoo.get(name).structure
            proj = projections(s).sorted_members
            leq_l = derive_orders(s).leq_l
            for a in range(s.n):
                for b in range(s.n):
                    assert leq_l.rel[a][b] == any(s.mul[g][b] == a for g in proj)


class TestEhresmannOrderCheck:
    def test_monoid_both_orders_hold(self):
        entry = monoid_entry()
        for name in ("leq1", "leq2"):
            assert check_ehresmann_order(entry.ordered(name)).holds

    def test_band_with_equality_fails_os6(self):
        s = zoo.example_orderless_band().structure
        rep = check_ehresmann_order(OrderedSemigroup(s, PartialOrder.equality(6)))
        assert not rep.holds
        assert rep.witness == (0, 4)  # c and Pz: c*Pz = Pz is not below c
        assert "OS6" in rep.detail


class TestOSProperties:
    def test_monoid_leq1_os7_holds_os4_fails(self):
        osg = monoid_entry().ordered("leq1")
        assert check_OS_property(osg, "OS7").holds
        rep = check_OS_property(osg, "OS4")
        assert not rep.holds
        assert rep.witness == (1, 0)

    def test_monoid_equality_os4a_holds(self):
        osg = monoid_entry().ordered("leq2")
        assert check_OS_property(osg, "OS4A").holds

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError):
            check_OS_property(monoid_entry().ordered("leq1"), "OS99")

    @pytest.mark.parametrize("prop", [4, None, ("OS4",)])
    def test_property_that_is_not_a_string_rejected(self, prop):
        with pytest.raises(ValueError, match="^unknown OS property "):
            check_OS_property(monoid_entry().ordered("leq1"), prop)

    def test_unknown_property_rejected_before_the_prerequisite(self):
        band = zoo.example_orderless_band().structure
        osg = OrderedSemigroup(band, PartialOrder.equality(band.n))
        assert not check_ehresmann_order(osg).holds
        for prop in ("bogus", "oc4", "ehresmann-order"):
            with pytest.raises(ValueError):
                check_OS_property(osg, prop)

    def test_reports_carry_the_canonical_name(self):
        band = zoo.example_orderless_band().structure
        not_ordered = OrderedSemigroup(band, PartialOrder.equality(band.n))
        for spelling in ("OS4", "os4", "Os4"):
            rep = check_OS_property(not_ordered, spelling)
            assert (rep.law, rep.applicable) == ("OS4", False)
            assert rep.detail.startswith("prerequisite ehresmann-order fails: ")
            assert check_OS_property(monoid_entry().ordered("leq1"), spelling).law == "OS4"

    def test_witnesses_self_certify_across_the_sweep(self):
        for n in (1, 2, 3):
            for s in zoo.enumerate_ehresmann_semigroups(n):
                for order in enumerate_ehresmann_orders(s):
                    osg = OrderedSemigroup(s, order)
                    for prop in ("OS4", "OS7"):
                        formulas.replay(check_OS_property(osg, prop), osg)


class TestSemilatticeAgreement:
    def test_monoid_leq1(self):
        assert semilattice_order_agreement(monoid_entry().ordered("leq1")).holds

    def test_rel2_four_projections(self):
        entry = zoo.gen_rel(2)
        assert len(projections(entry.structure)) == 4
        assert semilattice_order_agreement(entry.ordered()).holds

    def test_small_sweep(self):
        for n in (1, 2, 3):
            for s in zoo.enumerate_ehresmann_semigroups(n):
                for order in enumerate_ehresmann_orders(s):
                    assert semilattice_order_agreement(OrderedSemigroup(s, order)).holds


class TestLeqEContainment:
    def test_monoid_both_orders(self):
        entry = monoid_entry()
        for name in ("leq1", "leq2"):
            assert leq_e_containment(entry.ordered(name)).holds

    def test_rel2_all_pairs(self):
        entry = zoo.gen_rel(2)
        assert leq_e_containment(entry.ordered()).holds
        leq_e = derive_orders(entry.structure).leq_e
        incl = entry.get_order()
        for a in range(16):
            for b in range(16):
                if leq_e.rel[a][b]:
                    assert incl.rel[a][b]


class TestLeqEPartialLaws:
    def test_band_os3_fails_rest_hold(self):
        rep = check_leq_e_partial_laws(zoo.example_orderless_band().structure)
        assert not rep.holds
        assert dict(rep.parts) == {
            "OS1": True,
            "OS2": True,
            "OS6": True,
            "OSI": True,
            "OS3": False,
        }

    def test_monoid_all_hold(self):
        rep = check_leq_e_partial_laws(monoid_entry().structure)
        assert rep.holds

    def test_pt2_all_hold(self):
        assert check_leq_e_partial_laws(zoo.gen_pt(2).structure).holds


class TestDeBarros:
    def test_band_is_not(self):
        assert not is_de_barros(zoo.example_orderless_band().structure).holds

    def test_monoid_is(self):
        assert is_de_barros(monoid_entry().structure).holds

    def test_pt2_is(self):
        assert is_de_barros(zoo.gen_pt(2).structure).holds

    def test_verdict_always_agrees_with_equation_on_sweep(self):
        for n in (1, 2, 3):
            for s in zoo.enumerate_ehresmann_semigroups(n):
                assert is_de_barros(s).holds == check_de_barros_equational(s).holds


class TestN5_0213:
    """The smallest structure where the de Barros identity fails: every Ehresmann
    semigroup of size at most 4 is de Barros, yet n5-0213 has Ehresmann orders,
    and none of them is OS4 (the fixture is in conftest.py)."""

    def test_is_ehresmann(self, n5_0213):
        assert check_ehresmann(n5_0213).holds

    def test_de_barros_fails_at_1_2_4(self, n5_0213):
        rep = check_de_barros_equational(n5_0213)
        assert not rep.holds
        assert rep.witness == (1, 2, 4)
        assert rep.detail == "1*2*4 = 0 but D(..)*1*4*R(..) = 4"
        assert not is_de_barros(n5_0213).holds

    def test_two_orders_each_os7_and_not_os4(self, n5_0213):
        found = enumerate_ehresmann_orders(n5_0213)
        assert len(found) == 2
        for order in found:
            os = OrderedSemigroup(n5_0213, order)
            assert check_OS_property(os, "OS7").holds
            os4 = check_OS_property(os, "OS4")
            assert not os4.holds
            assert os4.witness == (0, 4)


class TestEnumerateOrders:
    def test_monoid_has_exactly_two(self):
        entry = monoid_entry()
        found = enumerate_ehresmann_orders(entry.structure)
        assert len(found) == 2
        keys = {o.key() for o in found}
        assert entry.get_order("leq1").key() in keys
        assert entry.get_order("leq2").key() in keys
        assert len(enumerate_ehresmann_orders(entry.structure, up_to_iso=True)) == 2

    def test_band_has_none(self):
        assert enumerate_ehresmann_orders(zoo.example_orderless_band().structure) == []

    def test_one_element_trivial_order(self):
        found = enumerate_ehresmann_orders(ONE)
        assert len(found) == 1
        assert found[0].rel == PartialOrder.equality(1).rel

    def test_matches_oracle_on_full_small_sweep(self):
        for n in (1, 2, 3):
            for s in zoo.enumerate_ehresmann_semigroups(n):
                mine = sorted(o.rel for o in enumerate_ehresmann_orders(s))
                assert mine == oracle_ehresmann_orders(s)

    def test_every_enumerated_order_contains_leq_e(self):
        for n in (1, 2, 3):
            for s in zoo.enumerate_ehresmann_semigroups(n):
                leq_e = derive_orders(s).leq_e
                for order in enumerate_ehresmann_orders(s):
                    assert order.contains(leq_e)

    def test_precondition_enforced(self):
        left_zero = FiniteBiunarySemigroup(2, ((0, 0), (1, 1)), (0, 1), (0, 1))
        with pytest.raises(PreconditionError):
            enumerate_ehresmann_orders(left_zero)


class TestSmallestOrder:
    def test_monoid(self):
        assert smallest_order_check(monoid_entry().structure).holds

    def test_one_element(self):
        assert smallest_order_check(ONE).holds

    def test_all_de_barros_in_sweep(self):
        for n in (1, 2, 3):
            for s in zoo.enumerate_ehresmann_semigroups(n):
                if is_de_barros(s).holds:
                    assert smallest_order_check(s).holds

    def test_not_applicable_outside_de_barros(self):
        rep = smallest_order_check(zoo.example_orderless_band().structure)
        assert not rep.holds and not rep.applicable


class TestAutomorphisms:
    def test_monoid_is_rigid(self):
        assert automorphisms(monoid_entry().structure) == [(0, 1)]

    def test_left_zero_band_has_swap(self):
        left_zero = FiniteBiunarySemigroup(2, ((0, 0), (1, 1)), (0, 1), (0, 1))
        assert sorted(automorphisms(left_zero)) == [(0, 1), (1, 0)]

    def test_automorphisms_fix_laws(self):
        s = zoo.example_orderless_band().structure
        for p in automorphisms(s):
            for a in range(s.n):
                assert p[s.dmap[a]] == s.dmap[p[a]]
                for b in range(s.n):
                    assert p[s.mul[a][b]] == s.mul[p[a]][p[b]]


class TestOrderedHom:
    def test_identity_on_leq1_holds(self):
        osg = monoid_entry().ordered("leq1")
        assert is_ordered_hom(HomCandidate("S", "S", (0, 1)), osg, osg).holds

    def test_identity_leq1_to_leq2_fails_order(self):
        entry = monoid_entry()
        rep = is_ordered_hom(
            HomCandidate("S", "S", (0, 1)), entry.ordered("leq1"), entry.ordered("leq2")
        )
        assert not rep.holds
        assert rep.witness == (1, 0)
        assert dict(rep.parts)["order"] is False

    def test_constant_to_zero_fails_d_preservation(self):
        osg = monoid_entry().ordered("leq1")
        rep = is_ordered_hom(HomCandidate("S", "S", (0, 0)), osg, osg)
        assert not rep.holds
        assert dict(rep.parts)["D"] is False

    def test_de_barros_homs_preserve_e_order(self):
        # every plain homomorphism between de Barros structures is ordered
        # for the derived e-orders
        from ehresmann.core import is_ehresmann_hom

        pairs = [
            (monoid_entry().structure, monoid_entry().structure),
            (monoid_entry().structure, zoo.gen_pt(1).structure),
            (zoo.gen_pt(1).structure, zoo.gen_pt(2).structure),
        ]
        small_db = [
            s
            for n in (1, 2)
            for s in zoo.enumerate_ehresmann_semigroups(n)
            if is_de_barros(s).holds
        ]
        pairs += [(a, b) for a in small_db for b in small_db]
        for src, tgt in pairs:
            src_o = OrderedSemigroup(src, derive_orders(src).leq_e)
            tgt_o = OrderedSemigroup(tgt, derive_orders(tgt).leq_e)
            for fm in itertools.product(range(tgt.n), repeat=src.n):
                f = HomCandidate("S", "T", fm)
                if is_ehresmann_hom(f, src, tgt).holds:
                    assert is_ordered_hom(f, src_o, tgt_o).holds
