"""Acceptance criteria, one test per criterion.

Everything here is discrete, so every assertion is exact equality; the
only tolerances are the stated wall-clock budgets.  Each criterion prints
one PASS/FAIL line (run pytest with -s to see them all).
"""

import time
from contextlib import contextmanager

import subjects

from ehresmann import (
    FunctorCandidate,
    OrderedSemigroup,
    category_of,
    check_OC_property,
    check_OS_property,
    check_de_barros_equational,
    check_ehresmann,
    check_functional,
    check_left_restriction_with_range,
    check_leq_e_partial_laws,
    check_localisable,
    check_prop_oc_equivalences,
    check_restriction,
    check_right_restriction_with_domain,
    derive_biaction,
    derive_orders,
    enumerate_ehresmann_orders,
    esn_round_trip,
    esn_round_trip_category,
    is_de_barros,
    is_eoc_morphism,
    morphism_correspondence,
    verify_biaction,
)
from ehresmann import zoo
from ehresmann.category import _all_epi_witness
from ehresmann.cli import run_command
from ehresmann.sweep import run_sweep


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_criterion_1_example_fidelity():
    with criterion(1, "example fidelity"):
        t0 = time.time()
        raw = run_command(["orders", "example://two-element-monoid", "--count-only"])
        iso = run_command(
            ["orders", "example://two-element-monoid", "--count-only", "--up-to-iso"]
        )
        assert raw.exit_code == 0 and raw.artifacts["count"] == 2
        assert iso.exit_code == 0 and iso.artifacts["count"] == 2
        assert time.time() - t0 < 1.0
        t0 = time.time()
        band = run_command(["orders", "example://orderless-band", "--count-only"])
        assert band.exit_code == 0 and band.artifacts["count"] == 0
        assert time.time() - t0 < 1.0


def test_criterion_2_orderless_band_structure():
    with criterion(2, "orderless band structure"):
        t0 = time.time()
        s = zoo.example_orderless_band().structure
        loc = check_localisable(s)
        assert loc.holds
        assert dict(loc.parts) == {"L1": True, "L2": True, "L3": True, "L4": True}
        assert check_ehresmann(s).holds
        via_order = is_de_barros(s)
        via_equation = check_de_barros_equational(s)
        assert not via_order.holds and not via_equation.holds
        assert via_order.holds == via_equation.holds
        assert time.time() - t0 < 1.0


def test_criterion_3_lemma_sweep():
    with criterion(3, "lemma sweep: every order contains leq_e"):
        for osg in subjects.ordered(3):
            assert osg.order.contains(derive_orders(osg.base).leq_e)
        assert subjects.ordered(3)


def test_criterion_4_leq_e_partial_laws_sweep():
    with criterion(4, "leq_e partial laws sweep"):
        for s in subjects.structures(3):
            rep = check_leq_e_partial_laws(s)
            parts = dict(rep.parts)
            assert parts["OS1"] and parts["OS2"] and parts["OS6"] and parts["OSI"]
            assert parts["OS3"] == check_de_barros_equational(s).holds
            assert rep.holds == is_de_barros(s).holds


def test_criterion_5_os4_de_barros_biconditional():
    with criterion(5, "OS4/de Barros biconditional"):
        for s in subjects.structures(3):
            leq_e = derive_orders(s).leq_e
            orders = enumerate_ehresmann_orders(s)
            os4_orders = [o for o in orders if check_OS_property(OrderedSemigroup(s, o), "OS4").holds]
            assert bool(os4_orders) == is_de_barros(s).holds
            for o in os4_orders:
                assert o.rel == leq_e.rel
            for o in orders:
                osg = OrderedSemigroup(s, o)
                if check_OS_property(osg, "OS4").holds:
                    assert check_OS_property(osg, "OS7").holds
        # the certifying instance: OS7 holds while OS4 fails
        witness = zoo.example_two_element_monoid().ordered("leq1")
        assert check_OS_property(witness, "OS7").holds
        assert not check_OS_property(witness, "OS4").holds


def test_criterion_6_restriction_biconditionals():
    with criterion(6, "restriction biconditionals"):
        for osg in subjects.ordered(3):
            s = osg.base
            natural = osg.order.rel == derive_orders(s).leq_e.rel
            os4a = check_OS_property(osg, "OS4A").holds
            os4b = check_OS_property(osg, "OS4B").holds
            assert os4a == (check_left_restriction_with_range(s).holds and natural)
            assert os4b == (check_right_restriction_with_domain(s).holds and natural)
            assert (os4a and os4b) == (check_restriction(s).holds and natural)


def test_criterion_7_esn_round_trip():
    with criterion(7, "ESN round trip"):
        t0 = time.time()
        assert esn_round_trip(zoo.gen_rel(2).ordered()).holds
        assert time.time() - t0 < 5.0
        for osg in subjects.ordered(3, 16):
            assert esn_round_trip(osg).holds
            assert esn_round_trip_category(category_of(osg)).holds


def test_criterion_8_biaction_theorem():
    with criterion(8, "biaction axioms E1..E6"):
        for osg in subjects.ordered(3, 16):
            c = category_of(osg)
            assert verify_biaction(c, derive_biaction(c)).holds


def test_criterion_9_oc_equivalence_sweep():
    with criterion(9, "OC equivalences and OS/OC transfer"):
        for osg in subjects.ordered(3, 16):
            c = category_of(osg)
            assert check_prop_oc_equivalences(c).holds
            assert check_OS_property(osg, "OS4").holds == check_OC_property(c, "OC4").holds
            assert check_OS_property(osg, "OS7").holds == check_OC_property(c, "OC7").holds


def test_criterion_10_morphism_counterexamples():
    with criterion(10, "morphism counterexamples and correspondence"):
        t0 = time.time()
        nabla = category_of(zoo.example_zero_one_nabla().ordered())
        collapse = is_eoc_morphism(FunctorCandidate("C", "C", (1, 1, 2)), nabla, nabla)
        assert not collapse.holds
        assert dict(collapse.parts) == {
            "functor": True,
            "order": True,
            "meet": True,
            "restriction": False,
        }
        entry = zoo.example_two_element_monoid()
        ident = is_eoc_morphism(
            FunctorCandidate("C", "C", (0, 1)),
            category_of(entry.ordered("leq1")),
            category_of(entry.ordered("leq2")),
        )
        assert not ident.holds
        assert dict(ident.parts) == {
            "functor": True,
            "order": False,
            "meet": True,
            "restriction": True,
        }
        # every ordered pair whose map space fits the default ceiling
        ordered = [
            (f"{name}#{oname}", zoo.get(name).ordered(oname))
            for name in zoo.SWEEP_NAMES
            for oname, _ in zoo.get(name).orders
        ]
        details = {}
        for sname, src in ordered:
            for tname, tgt in ordered:
                if tgt.base.n**src.base.n > 10_000_000:
                    continue
                rep = morphism_correspondence(src, tgt)
                assert rep.holds, (sname, tname, rep.detail)
                details[sname, tname] = rep.detail
        assert len(details) == 73
        assert details["inj-2#inclusion", "pt-2#inclusion"] == (
            "4782969 maps checked, 12 are morphisms on both sides"
        )
        assert time.time() - t0 < 60.0


def test_criterion_11_special_case_corollaries():
    with criterion(11, "special case corollaries"):
        pt = zoo.gen_pt(2)
        assert check_functional(pt.structure).holds
        assert check_left_restriction_with_range(pt.structure).holds
        pt_ordered = pt.ordered()
        assert pt_ordered.order.rel == derive_orders(pt.structure).leq_e.rel
        c = category_of(pt_ordered)
        assert check_OC_property(c, "OC4A").holds
        assert _all_epi_witness(c) is None
        inj = zoo.gen_partial_injections(2)
        ci = category_of(inj.ordered())
        assert check_OC_property(ci, "OC8").holds
        assert ci.meet is not None


def test_criterion_12_determinism():
    with criterion(12, "deterministic reports across worker counts"):
        cli_single = run_command(["--json", "sweep", "--max-size", "2", "--jobs", "1"])
        cli_multi = run_command(["--json", "sweep", "--max-size", "2", "--jobs", "4"])
        assert cli_single.raw_json == cli_multi.raw_json
        assert run_sweep(max_size=3)["all_pass"] is True
