"""Exhaustive theorem sweeps over enumerated structures and the zoo.

The sweep replays every law-transfer statement on every Ehresmann
semigroup up to a given size and on the catalogued examples, and reduces
the outcomes to named criteria.  Records are keyed canonically so the
JSON report is byte-identical regardless of worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from . import zoo
from .category import _category_of, _derive_biaction, _esn_round_trip, verify_biaction
from .core import Evaluation, TooLargeError
from .orders import OrderedSemigroup, _ehresmann_orders, _is_natural

SCHEMA = "ehresmann-sweep/1"


def _ordered_instance_record(osg: OrderedSemigroup, ev: Evaluation) -> dict:
    s = osg.base
    natural = _is_natural(osg, ev)
    os4 = ev("os4", osg).holds
    os7 = ev("os7", osg).holds
    os4a = ev("os4a", osg).holds
    os4b = ev("os4b", osg).holds
    lrr = ev("left-restriction-with-range", s).holds
    rrd = ev("right-restriction-with-domain", s).holds
    restr = ev("restriction", s).holds
    c = ev.build(_category_of, osg)
    bia = verify_biaction(c, ev.build(_derive_biaction, c))
    return {
        "os4": os4,
        "os7": os7,
        "os4_implies_os7": (not os4) or os7,
        "os4_order_is_natural": (not os4) or natural,
        "os4a_bicond": os4a == (lrr and natural),
        "os4b_bicond": os4b == (rrd and natural),
        "restriction_bicond": (os4a and os4b) == (restr and natural),
        "lemma_containment": ev("leq-e-containment", osg).holds,
        "semilattice_agreement": ev("semilattice-order-agreement", osg).holds,
        "esn_round_trip": _esn_round_trip(osg, ev).holds,
        "biaction": bia.holds,
        "oc_equivalences": ev("oc-equivalences", c).holds,
        "special_correspondences": ev("special-correspondences", osg).holds,
    }


def _base_record(s, ev: Evaluation) -> dict:
    partial = ev("leq-e-partial-laws", s)
    db = ev("de-barros", s)
    eq = ev("de-barros-equational", s)
    rec = {
        "n": s.n,
        "leq_e_partial_laws": dict((k, v) for k, v in partial.parts),
        "de_barros": db.holds,
        "de_barros_equational": eq.holds,
        "de_barros_agreement": db.holds == eq.holds,
        "os3_matches_de_barros": partial.holds == db.holds,
    }
    rec["two_order_category"] = ev("ehresmann-category-two-orders", s).holds
    return rec


def _enumerated_record(item: tuple[str, object]) -> tuple[str, dict]:
    sid, s = item
    ev = Evaluation()
    rec = _base_record(s, ev)
    ordered = ev.build(_ehresmann_orders, s)
    rec["order_count"] = len(ordered)
    per_order = []
    os4_seen = False
    for osg in ordered:
        inst = _ordered_instance_record(osg, ev)
        os4_seen = os4_seen or inst["os4"]
        per_order.append(inst)
    rec["orders"] = per_order
    rec["os4_exists_iff_de_barros"] = os4_seen == rec["de_barros"]
    if rec["de_barros"]:
        rec["smallest_order"] = ev("smallest-ehresmann-order", s).holds
    return sid, rec


def _zoo_record(name: str) -> tuple[str, dict]:
    entry = zoo.get(name)
    ev = Evaluation()
    rec = _base_record(entry.structure, ev)
    rec["orders"] = []
    for oname, order in entry.orders:
        inst = _ordered_instance_record(OrderedSemigroup(entry.structure, order), ev)
        inst["order_name"] = oname
        rec["orders"].append(inst)
    return name, rec


def _criteria(records: list[dict]) -> dict:
    def every(key: str) -> bool:
        ok = True
        for rec in records:
            for inst in rec.get("orders", []):
                ok = ok and inst[key]
        return ok

    def every_base(key: str) -> bool:
        return all(rec[key] for rec in records if key in rec)

    return {
        "lemma-containment": every("lemma_containment"),
        "leq-e-partial-laws": every_base("os3_matches_de_barros")
        and every_base("de_barros_agreement")
        and all(
            all(rec["leq_e_partial_laws"][k] for k in ("OS1", "OS2", "OS6", "OSI"))
            for rec in records
        ),
        "os4-de-barros": every_base("os4_exists_iff_de_barros")
        and every("os4_implies_os7")
        and every("os4_order_is_natural"),
        "restriction-biconditionals": every("os4a_bicond")
        and every("os4b_bicond")
        and every("restriction_bicond"),
        "esn-round-trip": every("esn_round_trip"),
        "biaction": every("biaction"),
        "oc-equivalences": every("oc_equivalences"),
        "special-correspondences": every("special_correspondences"),
        "semilattice-agreement": every("semilattice_agreement"),
        "two-order-categories": every_base("two_order_category"),
        "smallest-order": every_base("smallest_order"),
    }


def _map(fn, items: list, jobs: int) -> list:
    """``fn`` over ``items`` in order, on ``jobs`` threads when more than one."""
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


def run_sweep(max_size: int = 3, jobs: int = 1, allow_large: bool = False) -> dict:
    """Run the full theorem sweep and return a JSON-ready report.

    Size 4 is long-running and is swept only with ``allow_large``.
    """
    if max_size < 1:
        raise TooLargeError("exhaustive enumeration supports sizes 1..4")
    items: list[tuple[str, object]] = []
    for n in range(1, max_size + 1):
        for i, s in enumerate(zoo.enumerate_ehresmann_semigroups(n, allow_large=allow_large)):
            items.append((f"n{n}-{i:04d}", s))
    enumerated = _map(_enumerated_record, items, jobs)
    zoo_records = _map(_zoo_record, list(zoo.SWEEP_NAMES) + ["orderless-band"], jobs)
    all_records = [rec for _, rec in enumerated] + [rec for _, rec in zoo_records]
    criteria = _criteria(all_records)
    return {
        "schema": SCHEMA,
        "max_size": max_size,
        "structure_count": len(items),
        "structures": {sid: rec for sid, rec in enumerated},
        "zoo": {name: rec for name, rec in zoo_records},
        "criteria": criteria,
        "all_pass": all(criteria.values()),
    }
