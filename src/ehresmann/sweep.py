"""Exhaustive theorem sweeps over enumerated structures and the zoo.

The sweep replays every law-transfer statement on every Ehresmann
semigroup up to a given size and on the catalogued examples, and reduces
the outcomes to named criteria.  Records are keyed canonically, so the
JSON report is byte-identical from run to run.
"""

from __future__ import annotations

from . import zoo
from .category import _category_of, _derive_biaction, _esn_round_trip, _verify_biaction
from .core import Evaluation, _holding
from .orders import (
    OrderedSemigroup,
    PartialOrder,
    _ehresmann_orders,
    _is_natural,
    _permuted_order_key,
    automorphisms,
)

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
    bia = _verify_biaction(c, ev.build(_derive_biaction, c))
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


def _record(s, ev: Evaluation) -> dict:
    """The record of ``s``, its orders' records decided once per Aut(s)-orbit.

    An automorphism of ``s`` is an isomorphism from ``s`` under an order
    onto ``s`` under the order's image, and every field of an order's
    record is an isomorphism invariant, so all orders of an orbit have one
    record.  It is decided on the first order of the orbit, which is known
    by its least image key, and each other order gets a copy.  Aut(s)
    preserves <=_e too, so a copy contains <=_e when the first order of its
    orbit does; a holding report names no subject, so each such copy is
    seeded with it, and ``smallest-ehresmann-order`` decides containment
    once per orbit.
    """
    rec = _base_record(s, ev)
    ordered = ev.build(_ehresmann_orders, s)
    auts = automorphisms(s)
    rec["order_count"] = len(ordered)
    decided: dict[tuple[int, ...], dict] = {}
    per_order = []
    for osg in ordered:
        orbit = min(_permuted_order_key(osg.order, perm) for perm in auts)
        first = decided.get(orbit)
        if first is None:
            per_order.append(decided.setdefault(orbit, _ordered_instance_record(osg, ev)))
        else:
            per_order.append(dict(first))
            if first["lemma_containment"]:
                ev.seed("leq-e-containment", osg, _holding("leq-e-containment"))
    rec["orders"] = per_order
    rec["os4_exists_iff_de_barros"] = any(inst["os4"] for inst in per_order) == rec["de_barros"]
    if rec["de_barros"]:
        rec["smallest_order"] = ev("smallest-ehresmann-order", s).holds
    return rec


def _enumerated_record(item: tuple[str, object]) -> tuple[str, dict]:
    """``(sid, record)`` of one labelled structure, decided on that structure."""
    sid, s = item
    return sid, _record(s, Evaluation())


def _class_record(s) -> tuple[dict, list[PartialOrder]]:
    """The record of ``s`` and its Ehresmann orders, in the record's order."""
    ev = Evaluation()
    rec = _record(s, ev)
    return rec, [osg.order for osg in ev.build(_ehresmann_orders, s)]


def _relabelled(rec: dict, orders: list[PartialOrder], perm: tuple[int, ...]) -> dict:
    """The record of the structure that renames x of the recorded one perm[x].

    Every field is an isomorphism invariant, so only the orders move: the
    renamed structure's orders are the images of ``orders``, sorted by
    matrix as :func:`~ehresmann.orders._ehresmann_orders` sorts them.
    The nested dicts are copied, so no two records share one.
    """
    moved = sorted(range(len(orders)), key=lambda i: _permuted_order_key(orders[i], perm))
    return {
        **rec,
        "leq_e_partial_laws": dict(rec["leq_e_partial_laws"]),
        "orders": [dict(rec["orders"][i]) for i in moved],
    }


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
    # a criterion no record or order instance exercises fails
    def every(key: str) -> bool:
        values = [inst[key] for rec in records for inst in rec.get("orders", [])]
        return bool(values) and all(values)

    def every_base(key: str) -> bool:
        values = [rec[key] for rec in records if key in rec]
        return bool(values) and all(values)

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


def run_sweep(max_size: int = 3, allow_large: bool = False) -> dict:
    """Run the full theorem sweep and return a JSON-ready report.

    Every criterion is invariant under isomorphism, so each class is
    decided once, on its least structure, and each labelled structure's
    record is that record relabelled.  Classes and zoo entries are
    decided in order, in the calling thread.  Size 4 is swept only with
    ``allow_large``.
    """
    zoo._check_size(max_size, allow_large)
    structures: dict[str, dict] = {}
    for n in range(1, max_size + 1):
        classes = list(zoo._orbits(n))
        records = [_class_record(s) for s, _ in classes]
        members = {
            key: (record, perm)
            for (_, relabellings), record in zip(classes, records)
            for key, perm in relabellings.items()
        }
        for i, key in enumerate(sorted(members)):
            (rec, orders), perm = members[key]
            structures[f"n{n}-{i:04d}"] = _relabelled(rec, orders, perm)
    zoo_records = [_zoo_record(name) for name in (*zoo.SWEEP_NAMES, "orderless-band")]
    all_records = [*structures.values(), *(rec for _, rec in zoo_records)]
    criteria = _criteria(all_records)
    return {
        "schema": SCHEMA,
        "max_size": max_size,
        "structure_count": len(structures),
        "structures": structures,
        "zoo": {name: rec for name, rec in zoo_records},
        "criteria": criteria,
        "all_pass": all(criteria.values()),
    }
