"""Sweep records: each prerequisite decided and each construction built once per
record, one record per isomorphism class relabelled to every member, and no
criterion passing vacuously."""

import dataclasses

import subjects

from ehresmann import category, orders, sweep, zoo
from ehresmann.category import (
    FiniteOrderedCategory,
    check_ehresmann_category_two_orders,
    partial_product_category,
)
from ehresmann.core import LAWS, Evaluation, FiniteBiunarySemigroup
from ehresmann.orders import DerivedOrders, _ehresmann_orders, _OrderSearch, automorphisms, derive_orders
from ehresmann.sweep import _criteria, _enumerated_record, _ordered_instance_record, _record, run_sweep

# n4-0013 of the size-4 enumeration, which has five Ehresmann orders
S = FiniteBiunarySemigroup(
    4,
    ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 2), (0, 1, 2, 3)),
    (2, 2, 2, 3),
    (2, 2, 2, 3),
)


def count_decisions(monkeypatch, key: str) -> list:
    """The subjects the law ``key`` is decided on from now on, in order."""
    law = LAWS[key]
    subjects = []

    def decide(x, ev):
        subjects.append(x)
        return law.decide(x, ev)

    monkeypatch.setitem(LAWS, key, dataclasses.replace(law, decide=decide))
    return subjects


def count_constructions(monkeypatch, cls, module=None) -> list:
    """Each instance of ``cls`` made from now on, in order: through its
    constructor, and when ``module`` is given, through that module's
    unchecked builder ``_trusted`` too."""
    made = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(cls, "__init__", counted)
    if module is not None:
        trusted = module._trusted

        def counted_trusted(kind, **fields):
            obj = trusted(kind, **fields)
            if kind is cls:
                made.append(obj)
            return obj

        monkeypatch.setattr(module, "_trusted", counted_trusted)
    return made


def count_calls(monkeypatch, module, name: str) -> list:
    """The arguments of each call of ``module.name`` from now on."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_record_builds_and_decides_each_thing_once(monkeypatch):
    derived = count_constructions(monkeypatch, DerivedOrders)
    searches = count_constructions(monkeypatch, _OrderSearch)
    associativity = count_decisions(monkeypatch, "associativity")
    ehresmann_order = count_decisions(monkeypatch, "ehresmann-order")
    eoc = count_decisions(monkeypatch, "ehresmann-ordered-category")
    categories = count_constructions(monkeypatch, FiniteOrderedCategory, category)
    validations = count_calls(monkeypatch, category, "_validate_category")
    meets = count_calls(monkeypatch, category, "_derive_meet")
    os3_scans = count_calls(monkeypatch, orders, "_os3_total_witness")
    _, rec = _enumerated_record(("n4-0013", S))
    assert rec["order_count"] == 5 and rec["smallest_order"]
    assert len(derived) == 1
    assert len(searches) == 1
    # the e-order is one of the five Ehresmann orders: leq-e-partial-laws,
    # de-barros and the enumeration share its one subject and its OS3 scan
    assert len(ehresmann_order) == 5 and len({id(osg) for osg in ehresmann_order}) == 5
    assert any(osg.order.rel == derive_orders(S).leq_e.rel for osg in ehresmann_order)
    assert len(os3_scans) == 5
    # the ESN round trip reuses C(S) when the rebuilt semigroup equals S
    assert len(associativity) == 1 and associativity[0] is S
    # five C(S), one per Ehresmann order, and C₀ under ≤_l and under ≤_r for
    # the two-order law, which the record decides first: all seven share one
    # composition table, built once.  S is Ehresmann and each order agrees
    # with the semilattice of projections, so neither the table nor a meet
    # is checked again
    d = derive_orders(S)
    assert len(categories) == 7
    assert [c.order for c in categories[:2]] == [d.leq_l, d.leq_r]
    assert [c.order for c in categories[2:]] == [osg.order for osg in ehresmann_order]
    assert len({id(c.base) for c in categories}) == 1
    assert validations == [] and meets == []
    assert len(eoc) == 5
    assert len({id(c) for c in eoc}) == 5


def test_record_decides_each_oc_law_once_per_category(monkeypatch):
    keys = ("oc4", "oc4a", "oc4b", "oc6a", "oc6b", "oc7", "oc7'", "oc8a", "oc8b", "oci")
    decided = {key: count_decisions(monkeypatch, key) for key in keys}
    scans = count_calls(monkeypatch, category, "_max_below")
    maxima = count_calls(monkeypatch, category, "_maxima_below")
    unique = count_calls(monkeypatch, category, "_unique_below")
    _enumerated_record(("n4-0013", S))
    # the two-order law adds OC8a on C₀ under ≤_l and OC8b under ≤_r
    d = derive_orders(S)
    for key, subjects in decided.items():
        count = 6 if key in ("oc8a", "oc8b") else 5
        assert len(subjects) == count and len({id(c) for c in subjects}) == count, key
    assert decided["oc8a"][0].order == d.leq_l and decided["oc8b"][0].order == d.leq_r
    # one table of maxima per C(S) and side, read by OC6a/OC6b and the
    # biaction; the pseudoproduct reads its factors from the biaction
    assert len(maxima) == 10 and len({id(c) for c, idmap in maxima}) == 5
    assert scans == []
    # one unique-below table per category and side that OC8a or OC8b is
    # decided on; the two-order law's monotonicity clauses read those of C₀
    assert len(unique) == 12


def test_record_makes_one_oc7_pass_per_category(monkeypatch):
    decided = {key: count_decisions(monkeypatch, key) for key in ("oc7", "oc7'")}
    passes = count_calls(monkeypatch, category, "_oc7_witnesses")
    _enumerated_record(("n4-0013", S))
    # OC7 and OC7' are each decided on the five C(S), and read their
    # witnesses from the one pass made on each
    built = {id(c) for c, ev in passes}
    assert len(passes) == len(built) == 5
    assert all(len(subjects) == 5 and {id(c) for c in subjects} == built for subjects in decided.values())


def test_two_order_law_validates_only_its_category(monkeypatch):
    c0 = partial_product_category(S)
    d = derive_orders(S)
    validations = count_calls(monkeypatch, category, "_validate_category")
    assert check_ehresmann_category_two_orders(c0, d.leq_l, d.leq_r).holds
    assert validations == []


def test_size_3_records_are_the_labelled_records(monkeypatch):
    decided = count_calls(monkeypatch, sweep, "_record")
    report = run_sweep(3)
    # one record decided per isomorphism class, on its least structure
    assert [s for s, _ in decided] == list(subjects.leaders(3)) and len(subjects.leaders(3)) == 19
    labelled = [(f"n{n}-{i:04d}", s) for n in range(1, 4) for i, s in enumerate(subjects.labelled(n))]
    assert report["structure_count"] == len(labelled) == 85
    for item in labelled:
        sid, rec = _enumerated_record(item)
        assert report["structures"][sid] == rec, sid
    # a class's records are copies: changing one leaves its class-mates alone
    records = report["structures"].values()
    nested = [id(d) for rec in records for d in (rec, rec["leq_e_partial_laws"], *rec["orders"])]
    assert len(nested) == len(set(nested))


def test_size_4_class_members_get_their_labelled_records():
    report = run_sweep(4, allow_large=True)["structures"]
    labelled = subjects.labelled(4)
    sid_of = {s.key(): f"n4-{i:04d}" for i, s in enumerate(labelled)}
    assert [sid for sid in report if sid.startswith("n4-")] == list(sid_of.values())
    classes = [set(relabellings) for _, relabellings in zoo._orbits(4)]
    reordered = 0
    # n4-0013 and some of the sids tests/test_pinned.py samples, each with its whole class
    for sid in ("n4-0013", "n4-0000", "n4-0017", "n4-0850", "n4-1700"):
        s = labelled[int(sid[3:])]
        members = next(keys for keys in classes if s.key() in keys)
        for member in labelled:
            if member.key() in members:
                msid = sid_of[member.key()]
                _, rec = _enumerated_record((msid, member))
                assert report[msid] == rec, msid
                reordered += rec["orders"] != report[sid_of[min(members)]]["orders"]
    assert reordered  # some member lists its orders in another sequence than its leader


def test_orbit_copies_are_the_directly_decided_records(monkeypatch):
    """Every labelled structure of size at most 4 with an automorphism other than
    the identity: each order's record, copied from its Aut(S)-orbit or not, is
    the record decided on that order in a fresh evaluation, and so is each
    containment verdict seeded on a copy."""
    decided = count_calls(monkeypatch, sweep, "_ordered_instance_record")
    contained = count_decisions(monkeypatch, "leq-e-containment")
    structures = [s for s in subjects.structures(4) if len(automorphisms(s)) > 1]
    orders_seen = 0
    for s in structures:
        ev = Evaluation()
        rec = _record(s, ev)
        # the function imported above, which the count does not see
        direct = [_ordered_instance_record(osg, Evaluation()) for osg in _ehresmann_orders(s, Evaluation())]
        assert rec["orders"] == direct
        for osg in ev.build(_ehresmann_orders, s):
            assert ev("leq-e-containment", osg) == Evaluation()("leq-e-containment", osg)
        nested = [id(d) for d in (rec, rec["leq_e_partial_laws"], *rec["orders"])]
        assert len(nested) == len(set(nested))
        orders_seen += len(direct)
    # 12 structures of size 3 and 316 of the 1,708 of size 4 have one; 12 of
    # their 36 orders and 960 of their 2,344 are copies
    assert len(structures) == 12 + 316
    assert (orders_seen, orders_seen - len(decided)) == (36 + 2344, 12 + 960)
    # once in the record of each orbit's first order, once in each direct record
    # and once more on each order in a fresh evaluation: the copies are seeded
    assert len(contained) == len(decided) + 2 * orders_seen


def test_a_criterion_no_record_exercises_fails():
    _, rec = _enumerated_record(("n4-0013", S))
    assert all(_criteria([rec]).values())
    assert not any(_criteria([]).values())
    keyless = {"leq_e_partial_laws": rec["leq_e_partial_laws"], "orders": []}
    assert not any(_criteria([keyless]).values())
    # a base key no record carries fails its criterion alone
    without = {k: v for k, v in rec.items() if k != "smallest_order"}
    assert [k for k, ok in _criteria([without]).items() if not ok] == ["smallest-order"]
