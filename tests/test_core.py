"""Core law deciders, checked against hand evaluations and brute-force oracles."""


import dataclasses

import formulas
import pytest
import subjects

from ehresmann import (
    FiniteBiunarySemigroup,
    FiniteCategory,
    HomCandidate,
    InconsistentProjections,
    StructureError,
    check_associativity,
    check_de_barros_equational,
    check_ehresmann,
    check_functional,
    check_left_restriction_with_range,
    check_localisable,
    check_restriction,
    check_right_restriction_with_domain,
    category_of,
    is_ehresmann_hom,
    projections,
)
from ehresmann import zoo
from ehresmann.core import LAWS, Evaluation, LawReport


ONE = FiniteBiunarySemigroup(1, ((0,),), (0,), (0,))
LEFT_ZERO = FiniteBiunarySemigroup(2, ((0, 0), (1, 1)), (0, 1), (0, 1))


def band():
    return zoo.example_orderless_band().structure


def monoid():
    return zoo.example_two_element_monoid().structure


def transformation_band_oracle():
    """Rebuild the six-element band from actual maps on {x, y, z}.

    Composition is applied left to right: (f;g)(t) = g(f(t)).
    """
    x, y, z = 0, 1, 2
    maps = {
        "c": {x: x, y: y, z: x},
        "d": {x: x, y: y, z: y},
        "Px": {x: x, y: x, z: x},
        "Py": {x: y, y: y, z: y},
        "Pz": {x: z, y: z, z: z},
        "1": {x: x, y: y, z: z},
    }
    names = ["c", "d", "Px", "Py", "Pz", "1"]
    by_graph = {tuple(sorted(m.items())): n for n, m in maps.items()}
    table = []
    for a in names:
        row = []
        for b in names:
            comp = {t: maps[b][maps[a][t]] for t in (x, y, z)}
            row.append(names.index(by_graph[tuple(sorted(comp.items()))]))
        table.append(tuple(row))
    return tuple(table)


class TestStructureValidation:
    def test_rejects_out_of_range_entries(self):
        with pytest.raises(StructureError):
            FiniteBiunarySemigroup(2, ((0, 2), (0, 1)), (1, 1), (1, 1))
        with pytest.raises(StructureError):
            FiniteBiunarySemigroup(2, ((0, 0), (0, 1)), (1, 2), (1, 1))

    def test_rejects_non_square_table(self):
        with pytest.raises(StructureError):
            FiniteBiunarySemigroup(2, ((0, 0, 1), (0, 1, 1)), (1, 1), (1, 1))

    def test_rejects_duplicate_names(self):
        with pytest.raises(StructureError):
            FiniteBiunarySemigroup(2, ((0, 0), (0, 1)), (1, 1), (1, 1), names=("a", "a"))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FiniteBiunarySemigroup("1", ((0,),), (0,), (0,)),
            lambda: FiniteCategory("1", (0,), (0,), ((0,),)),
        ],
        ids=["semigroup", "category"],
    )
    def test_non_integer_size_raises_structure_error(self, make):
        with pytest.raises(StructureError, match="must have at least one element"):
            make()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: FiniteBiunarySemigroup(2, None, (0, 0), (0, 0)), "multiplication table must be n x n"),
            (lambda: FiniteBiunarySemigroup(2, ((0, 0), (0, 0)), None, (0, 0)),
             "D must be an n-vector of element indices"),
            (lambda: FiniteCategory(2, None, (0, 1), ((0, None), (None, 1))),
             "D must be an n-vector of element indices"),
        ],
        ids=["semigroup-mul", "semigroup-dmap", "category-dmap"],
    )
    def test_missing_table_or_map_raises_structure_error(self, make, message):
        with pytest.raises(StructureError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("names", [5, 2.5, True])
    @pytest.mark.parametrize(
        "make",
        [
            lambda names: FiniteBiunarySemigroup(1, ((0,),), (0,), (0,), names=names),
            lambda names: FiniteCategory(1, (0,), (0,), ((0,),), names=names),
        ],
        ids=["semigroup", "category"],
    )
    def test_names_not_a_sequence_raise_structure_error(self, make, names):
        with pytest.raises(StructureError, match="^names must be a sequence of element names$"):
            make(names)

    @pytest.mark.parametrize(
        "names, message",
        [
            (("a",), "names must cover the whole carrier"),
            (("a", "b", "c"), "names must cover the whole carrier"),
            (("a", "a"), "element names must be distinct"),
        ],
        ids=["short", "long", "duplicate"],
    )
    @pytest.mark.parametrize(
        "make",
        [
            lambda names: FiniteBiunarySemigroup(2, ((0, 0), (0, 1)), (1, 1), (1, 1), names=names),
            lambda names: FiniteCategory(2, (0, 1), (0, 1), ((0, None), (None, 1)), names=names),
        ],
        ids=["semigroup", "category"],
    )
    def test_names_must_be_one_distinct_name_per_element(self, make, names, message):
        with pytest.raises(StructureError, match=f"^{message}$"):
            make(names)


class TestAssociativity:
    def test_one_element_holds(self):
        assert check_associativity(ONE).holds

    def test_band_table_holds(self):
        assert check_associativity(band()).holds

    def test_band_table_matches_transformation_composition(self):
        assert band().mul == transformation_band_oracle()

    def test_failing_table_least_witness(self):
        # mul(0,0)=1, mul(0,1)=0, mul(1,*)=0.  By hand: (0,0,0) associates
        # since (00)0 = 1*0 = 0 = 0*1 = 0(00); the least failure is (0,0,1)
        # where (00)1 = 1*1 = 0 but 0(01) = 0*0 = 1.
        s = FiniteBiunarySemigroup(2, ((1, 0), (0, 0)), (0, 0), (0, 0))
        rep = check_associativity(s)
        assert not rep.holds
        assert rep.witness == (0, 0, 1)

    def test_witness_replays(self):
        s = FiniteBiunarySemigroup(2, ((1, 0), (0, 0)), (0, 0), (0, 0))
        formulas.replay(check_associativity(s), s)


class TestLocalisable:
    def test_band_holds(self):
        rep = check_localisable(band())
        assert rep.holds
        assert dict(rep.parts) == {"L1": True, "L2": True, "L3": True, "L4": True}

    def test_left_zero_band_holds(self):
        # oracle: with D = R = id every law collapses to band identities
        s = LEFT_ZERO
        for a in range(2):
            assert s.mul[a][a] == a
        assert check_localisable(s).holds

    def test_band_with_corrupted_dmap_fails_l1(self):
        s = band()
        dmap = list(s.dmap)
        dmap[0] = 4  # send c to Pz; then D(c)c = Pz*c = Px != c
        bad = FiniteBiunarySemigroup(s.n, s.mul, dmap, s.rmap, s.names)
        rep = check_localisable(bad)
        assert not rep.holds
        assert rep.witness == (0,)
        assert "L1" in rep.detail

    def test_non_associative_input_not_applicable(self):
        s = FiniteBiunarySemigroup(2, ((1, 0), (0, 0)), (0, 0), (0, 0))
        rep = check_localisable(s)
        assert not rep.holds and not rep.applicable


class TestEhresmann:
    def test_band_holds(self):
        assert check_ehresmann(band()).holds

    def test_one_element_holds(self):
        assert check_ehresmann(ONE).holds

    def test_left_zero_band_fails_commutation(self):
        rep = check_ehresmann(LEFT_ZERO)
        assert not rep.holds
        assert rep.witness == (0, 1)
        formulas.replay(rep, LEFT_ZERO)


class TestProjections:
    def test_band_projections(self):
        s = band()
        assert projections(s).sorted_members == (4, 5)  # Pz and 1

    def test_monoid_projections(self):
        assert projections(monoid()).sorted_members == (1,)

    def test_one_element_whole_carrier(self):
        assert projections(ONE).sorted_members == (0,)

    def test_image_mismatch_raises(self):
        s = FiniteBiunarySemigroup(2, ((0, 0), (0, 1)), (1, 1), (0, 0))
        with pytest.raises(InconsistentProjections):
            projections(s)


class TestOneSidedRestriction:
    def test_pt2_is_left_restriction_with_range(self):
        assert check_left_restriction_with_range(zoo.gen_pt(2).structure).holds

    def test_monoid_is_left_restriction_with_range(self):
        # both sides reduce to s because D is constantly 1
        assert check_left_restriction_with_range(monoid()).holds

    def test_rel2_fails_left_restriction(self):
        s = zoo.gen_rel(2).structure
        rep = check_left_restriction_with_range(s)
        assert not rep.holds
        formulas.replay(rep, s)
        assert rep == formulas.compare("left-restriction-with-range", s)

    def test_monoid_is_right_restriction_with_domain(self):
        assert check_right_restriction_with_domain(monoid()).holds

    def test_pt2_fails_right_restriction(self):
        s = zoo.gen_pt(2).structure
        rep = check_right_restriction_with_domain(s)
        assert not rep.holds
        formulas.replay(rep, s)

    def test_one_element_right_restriction(self):
        assert check_right_restriction_with_domain(ONE).holds


class TestRestriction:
    def test_monoid_is_restriction(self):
        assert check_restriction(monoid()).holds

    def test_pt2_is_not_restriction(self):
        rep = check_restriction(zoo.gen_pt(2).structure)
        assert not rep.holds
        assert dict(rep.parts) == {"left": True, "right": False}

    def test_partial_injections_are_restriction(self):
        s = zoo.gen_partial_injections(2).structure
        rep = check_restriction(s)
        assert rep.holds
        assert rep == formulas.compare("restriction", s)


class TestFunctional:
    def test_pt2_is_functional(self):
        assert check_functional(zoo.gen_pt(2).structure).holds

    def test_monoid_fails_with_exact_witness(self):
        # 0*0 = 0*1 = 0 but R(0)*0 = 0 != 1 = R(0)*1
        rep = check_functional(monoid())
        assert not rep.holds
        assert rep.witness == (0, 0, 1)
        assert rep.applicable

    def test_one_element_holds(self):
        assert check_functional(ONE).holds

    def test_flagged_not_applicable_outside_left_restriction(self):
        s = zoo.gen_rel(2).structure  # not left restriction with range
        rep = check_functional(s)
        assert not rep.applicable

    def test_flag_note_names_a_prerequisite_that_holds_but_is_not_applicable(self):
        # not localisable (L1 fails at 1), yet xD(y) = D(xy)x holds: the
        # prerequisite of functional holds and is only flagged
        s = FiniteBiunarySemigroup(2, ((0, 0), (0, 1)), (0, 0), (0, 0))
        left = check_left_restriction_with_range(s)
        assert (left.holds, left.applicable) == (True, False)
        assert left.detail == "not applicable: prerequisite ehresmann fails"
        rep = check_functional(s)
        assert (rep.holds, rep.applicable) == (True, False)
        assert rep.detail == (
            "not applicable: prerequisite left-restriction-with-range is not applicable"
            " (the functional law is defined within left restriction semigroups with range)"
        )


class TestDeBarrosEquational:
    def test_band_fails(self):
        # the witness is the least failing triple under (x, e, y) with e a projection
        s = band()
        rep = check_de_barros_equational(s)
        assert not rep.holds
        assert rep == formulas.compare("de-barros-equational", s)

    def test_monoid_holds(self):
        assert check_de_barros_equational(monoid()).holds

    def test_pt2_holds_by_brute_force(self):
        s = zoo.gen_pt(2).structure
        assert check_de_barros_equational(s) == formulas.compare("de-barros-equational", s)
        assert check_de_barros_equational(s).holds


class TestEhresmannHom:
    def test_constant_to_identity_is_a_hom(self):
        # the constant map onto the identity respects mul, D, and R
        s = monoid()
        rep = is_ehresmann_hom(HomCandidate("S", "S", (1, 1)), s, s)
        assert rep.holds

    def test_constant_to_zero_fails_d_preservation(self):
        s = monoid()
        rep = is_ehresmann_hom(HomCandidate("S", "S", (0, 0)), s, s)
        assert not rep.holds
        assert dict(rep.parts)["mul"] is True
        assert dict(rep.parts)["D"] is False

    def test_total_map_validation(self):
        s = monoid()
        with pytest.raises(StructureError):
            is_ehresmann_hom(HomCandidate("S", "S", (0, 5)), s, s)

    def test_map_that_is_not_a_sequence_raises_structure_error(self):
        with pytest.raises(StructureError, match="^candidate map must be a sequence of element indices$"):
            HomCandidate("a", "b", None)


def test_restriction_implies_de_barros_on_small_sweep():
    # quasi-variety containment, exhaustively at sizes 1..3
    for s in subjects.structures(3):
        if check_restriction(s).holds:
            assert check_de_barros_equational(s).holds
        if check_left_restriction_with_range(s).holds:
            assert check_de_barros_equational(s).holds


def test_projection_band_properties_on_small_sweep():
    for s in subjects.structures(3):
        proj = projections(s)
        for e in proj:
            assert s.mul[e][e] == e
            for f in proj:
                assert s.mul[e][f] in proj.members
                assert s.mul[e][f] == s.mul[f][e]


def test_an_alias_reads_the_one_decision_of_its_law(monkeypatch):
    """``oc7p`` names the law ``oc7'``: either key reads the one report the law
    was decided or seeded to, and the decider in ``LAWS`` is the one called."""
    c = category_of(zoo.get("two-element-monoid").ordered("leq1"))
    law, decided = LAWS["oc7'"], []

    def decide(x, ev):
        decided.append(x)
        return law.decide(x, ev)

    counted = dataclasses.replace(law, decide=decide)
    monkeypatch.setitem(LAWS, "oc7'", counted)
    monkeypatch.setitem(LAWS, "oc7p", counted)
    for first, then in (("oc7p", "oc7'"), ("oc7'", "oc7p")):
        ev = Evaluation()
        rep = ev(first, c)
        assert ev(then, c) is rep and ev(first, c) is rep
    assert decided == [c, c]
    for key, alias in (("oc7p", "oc7'"), ("oc7'", "oc7p")):
        seeded = LawReport("OC7'", False, detail="seeded")
        ev = Evaluation()
        assert ev.seed(key, c, seeded) is c
        assert ev(alias, c) is seeded and ev(key, c) is seeded
    assert decided == [c, c]
    patched = LawReport("OC7'", False, detail="patched")
    monkeypatch.setitem(LAWS, "oc7p", dataclasses.replace(law, decide=lambda x, ev: patched))
    assert Evaluation()("oc7p", c) is patched
