"""Command surface: classification ladders, order tools, category tools, sweeps.

Exit codes: 0 when every requested check holds, 1 when some law fails
(witnesses are in the report), 2 for structural or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

from . import zoo
from .category import (
    FiniteOrderedCategory,
    _category_of,
    _derive_biaction,
    _esn_round_trip,
    _verify_biaction,
    esn_round_trip_category,
)
from .core import (
    LAWS,
    Evaluation,
    FiniteBiunarySemigroup,
    Law,
    LawReport,
    StructureError,
    WorkbenchError,
    evaluate,
    ladder,
)
from .fileformat import StructureFile, emit_structure, resolve, semigroup_file
from .orders import OrderedSemigroup, derive_orders, enumerate_ehresmann_orders
from .sweep import run_sweep

SCHEMA = "ehresmann-report/1"

_quote = json.encoder.encode_basestring_ascii
_STR = frozenset((str,))
_SCALARS = frozenset((str, int, bool, type(None)))
# scalars whose JSON holds no bracket, and the containers a row may be
_BARE = frozenset((int, bool, type(None)))
_ROWS = frozenset((list, tuple))


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """A compact encoder whose item separator is the newline and indent that
    ``json.dumps(..., indent=2)`` writes inside a container at ``depth``."""
    sep = ",\n" + "  " * (depth + 1)
    return json.JSONEncoder(sort_keys=True, check_circular=False, separators=(sep, ": "))


def _to_json(value, depth: int = 0) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a value at ``depth``.

    The bytes are the same, but ``indent`` makes ``json`` run its pure-Python
    encoder, so only the nesting is written here: a container whose items are
    all strings, ints, bools or None goes to a compact C encoder whose item
    separator carries the indent, and so does a list of non-empty rows of
    ints, bools and None, in one call.  Anything else (floats, keys that are not
    strings, other types) goes to ``json.dumps`` and is re-indented, which is
    safe as a JSON string holds no raw newline.
    """
    t = type(value)
    if t is str:
        return _quote(value)
    if t is int:
        return int.__repr__(value)
    if t is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    is_dict = t is dict and _STR.issuperset(map(type, value))
    if is_dict or t is list or t is tuple:
        if not value:
            return "{}" if is_dict else "[]"
        inner = "\n" + "  " * (depth + 1)
        if _SCALARS.issuperset(map(type, value.values() if is_dict else value)):
            text = _flat_encoder(depth).encode(value)
            return text[0] + inner + text[1:-1] + inner[:-2] + text[-1]
        if not is_dict and all(type(row) in _ROWS and row and _BARE.issuperset(map(type, row)) for row in value):
            # a matrix: one encode with the rows' item separator; no string
            # holds a bracket, so only the joins between rows and the ends change
            text, sep = _flat_encoder(depth + 1).encode(value), inner + "  "
            rows = text[2:-2].replace("]," + sep + "[", inner + "]," + inner + "[" + sep)
            return "[" + inner + "[" + sep + rows + inner + "]" + inner[:-2] + "]"
        if is_dict:
            items = (f"{_quote(k)}: {_to_json(value[k], depth + 1)}" for k in sorted(value))
            return "{" + inner + ("," + inner).join(items) + inner[:-2] + "}"
        items = (_to_json(v, depth + 1) for v in value)
        return "[" + inner + ("," + inner).join(items) + inner[:-2] + "]"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


@dataclass
class RunReport:
    command: list[str]
    kind: str = ""
    summary: dict = field(default_factory=dict)
    reports: list[LawReport] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    exit_code: int = 0
    text_lines: list[str] = field(default_factory=list)
    json_requested: bool = False
    # when set, --json emits this document instead of the wrapped report;
    # used by sweep, whose bytes are the sweep report alone, not the command line
    raw_json: str | None = None

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "command": self.command,
            "kind": self.kind,
            "summary": self.summary,
            "reports": [r.to_dict() for r in self.reports],
            "artifacts": self.artifacts,
            "exit_code": self.exit_code,
        }
        return _to_json(payload) + "\n"

    def to_text(self) -> str:
        lines = list(self.text_lines)
        for r in self.reports:
            status = "PASS" if r.holds else "FAIL"
            extra = ""
            if not r.applicable:
                extra = " (not applicable)"
            if r.witness is not None:
                extra += f" witness={list(r.witness)}"
            if r.detail:
                extra += f" :: {r.detail}"
            lines.append(f"{r.law}: {status}{extra}")
        return "\n".join(lines) + ("\n" if lines else "")


def _summary_of(sf: StructureFile) -> dict:
    if sf.kind == "semigroup":
        s = sf.semigroup
        return {
            "n": s.n,
            "names": [s.name_of(i) for i in range(s.n)],
            "has_order": sf.order is not None,
        }
    c = sf.category
    return {
        "n": c.n,
        "names": [c.name_of(i) for i in range(c.n)],
        "identities": [c.name_of(i) for i in c.identities()],
    }


def _subjects(sf: StructureFile) -> dict:
    """What each law subject kind is decided on for this file; None when absent."""
    if sf.kind == "category":
        return {"category": sf.category}
    ordered = None if sf.order is None else OrderedSemigroup(sf.semigroup, sf.order)
    return {"semigroup": sf.semigroup, "ordered": ordered}


def _laws_named(names: list[str], subjects: dict, what: str) -> list[Law]:
    """The registered laws called ``names`` that apply to ``subjects``."""
    wanted = [w.lower() for w in names]
    unknown = [w for w in wanted if w not in LAWS or LAWS[w].subject not in subjects]
    if unknown:
        raise StructureError(f"unknown {what}(s): {', '.join(unknown)}")
    return [LAWS[w] for w in wanted]


def _decide(laws: list[Law], subjects: dict, ev: Evaluation) -> list[LawReport]:
    """Each law's verdict on its subject, through one evaluation."""
    return [
        LawReport(law.name, False, detail="the file carries no order section", applicable=False)
        if subjects[law.subject] is None else ev(law.key, subjects[law.subject])
        for law in laws
    ]


def _order_pairs_named(s, order) -> list[str]:
    return [f"{s.name_of(a)} <= {s.name_of(b)}" for a, b in order.pairs(strict=True)]


def _cmd_check(args, report: RunReport) -> None:
    sf = resolve(args.file)
    report.kind = sf.kind
    report.summary = _summary_of(sf)
    subjects = _subjects(sf)
    if args.law:
        laws = _laws_named(args.law, subjects, "law name")
    else:
        laws = [law for kind, x in subjects.items() if x is not None for law in ladder(kind)]
    report.reports.extend(_decide(laws, subjects, Evaluation()))
    report.exit_code = 0 if all(r.holds for r in report.reports) else 1


def _cmd_orders(args, report: RunReport) -> None:
    sf = resolve(args.file)
    if sf.kind != "semigroup":
        raise StructureError("orders applies to semigroup files")
    s = sf.semigroup
    report.kind = sf.kind
    report.summary = _summary_of(sf)
    found = enumerate_ehresmann_orders(s, up_to_iso=args.up_to_iso)
    report.artifacts["count"] = len(found)
    report.artifacts["up_to_iso"] = bool(args.up_to_iso)
    report.text_lines.append(f"ehresmann orders: {len(found)}")
    if not args.count_only:
        report.artifacts["orders"] = [
            _order_pairs_named(s, order) for order in found
        ]
        for i, order in enumerate(found):
            pairs = ", ".join(_order_pairs_named(s, order)) or "(equality)"
            report.text_lines.append(f"  order {i}: {pairs}")


def _cmd_derive(args, report: RunReport) -> None:
    sf = resolve(args.file)
    if sf.kind != "semigroup":
        raise StructureError("derive applies to semigroup files")
    s = sf.semigroup
    report.kind = sf.kind
    report.summary = _summary_of(sf)
    ders = derive_orders(s)
    order = {"l": ders.leq_l, "r": ders.leq_r, "e": ders.leq_e}[args.order]
    report.artifacts["order"] = args.order
    report.artifacts["pairs"] = _order_pairs_named(s, order)
    report.artifacts["matrix"] = [[int(v) for v in row] for row in order.rel]
    report.text_lines.append(f"derived order {args.order}:")
    for line in report.artifacts["pairs"]:
        report.text_lines.append(f"  {line}")
    if not report.artifacts["pairs"]:
        report.text_lines.append("  (equality)")


def _load_category(sf: StructureFile, ev: Evaluation) -> FiniteOrderedCategory:
    if sf.kind == "category":
        return sf.category
    return _category_of(sf.ordered(), ev)


def _cmd_cat(args, report: RunReport) -> None:
    sf = resolve(args.file)
    report.kind = sf.kind
    report.summary = _summary_of(sf)
    if args.two_orders:
        if sf.kind != "semigroup":
            raise StructureError("--two-orders applies to semigroup files")
        report.reports.append(evaluate("ehresmann-category-two-orders", sf.semigroup))
        report.exit_code = 0 if all(r.holds for r in report.reports) else 1
        return
    ev = Evaluation()
    c = _load_category(sf, ev)
    subjects = {"category": c}
    laws = _laws_named(args.check, subjects, "OC law name") if args.check else ladder("category")
    report.reports.extend(_decide(laws, subjects, ev))
    if args.biaction:
        # the tables _derive_biaction built are n x n over 0..n-1 and None,
        # the shape the public verify_biaction would scan them for
        b = ev.build(_derive_biaction, c)
        report.reports.append(_verify_biaction(c, b))
        report.artifacts["biaction"] = {
            "left": [
                [None if v is None else c.name_of(v) for v in row] for row in b.left
            ],
            "right": [
                [None if v is None else c.name_of(v) for v in row] for row in b.right
            ],
        }
    report.exit_code = 0 if all(r.holds for r in report.reports) else 1


def _cmd_esn(args, report: RunReport) -> None:
    sf = resolve(args.file)
    report.kind = sf.kind
    report.summary = _summary_of(sf)
    if sf.kind == "semigroup":
        osg = sf.ordered()
        ev = Evaluation()
        report.reports.append(_esn_round_trip(osg, ev))
        report.reports.append(ev("special-correspondences", osg))
    else:
        report.reports.append(esn_round_trip_category(sf.category))
    report.exit_code = 0 if all(r.holds for r in report.reports) else 1


def _structure_as_dict(s: FiniteBiunarySemigroup) -> dict:
    return {
        "n": s.n,
        "mul": [list(row) for row in s.mul],
        "D": list(s.dmap),
        "R": list(s.rmap),
    }


def _cmd_enumerate(args, report: RunReport) -> None:
    report.kind = "enumeration"
    stream = zoo.enumerate_ehresmann_semigroups(
        args.size, up_to_iso=args.up_to_iso, allow_large=args.allow_large
    )
    law = None
    if args.filter:
        law = LAWS.get(args.filter.lower())
        # enumerated structures carry no order, so only semigroup laws apply
        if law is None or law.subject != "semigroup":
            raise StructureError(f"unknown law name {args.filter!r}")
    structures = []
    for s in stream:
        if law is None or evaluate(law.key, s).holds:
            structures.append(s)
    report.summary = {"size": args.size, "count": len(structures)}
    report.artifacts["count"] = len(structures)
    report.artifacts["structures"] = [_structure_as_dict(s) for s in structures]
    report.text_lines.append(f"structures: {len(structures)}")
    for s in structures:
        flat_mul = " ".join("".join(str(v) for v in row) for row in s.mul)
        d = "".join(str(v) for v in s.dmap)
        r = "".join(str(v) for v in s.rmap)
        report.text_lines.append(f"  mul={flat_mul} D={d} R={r}")


def _cmd_example(args, report: RunReport) -> None:
    entry = zoo.get(args.name)
    report.kind = "example"
    report.summary = {
        "name": entry.name,
        "n": entry.structure.n,
        "provenance": entry.provenance,
        "orders": list(entry.order_names()),
    }
    report.text_lines.append(
        f"{entry.name}: {entry.structure.n} elements, orders: "
        + (", ".join(entry.order_names()) or "none")
    )
    if args.emit:
        order = entry.orders[0][1] if entry.orders else None
        text = emit_structure(semigroup_file(entry.structure, order))
        report.artifacts["file"] = text
        report.text_lines = [text.rstrip("\n")]


def _cmd_sweep(args, report: RunReport) -> None:
    result = run_sweep(max_size=args.max_size, allow_large=args.allow_large)
    report.kind = "sweep"
    report.summary = {
        "max_size": result["max_size"],
        "structure_count": result["structure_count"],
    }
    report.artifacts = result
    if getattr(args, "json", False):
        report.raw_json = _to_json(result) + "\n"
    for name, ok in sorted(result["criteria"].items()):
        report.text_lines.append(f"{name}: {'PASS' if ok else 'FAIL'}")
    report.exit_code = 0 if result["all_pass"] else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused for the rest of
    the process: ``parse_args`` fills a fresh namespace each call, so no state
    carries from one call to the next."""
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand's default from clobbering a --json given
    # before the subcommand name
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="emit a JSON report"
    )
    parser = argparse.ArgumentParser(
        prog="ehresmann",
        description="Workbench for finite biunary semigroups, Ehresmann orders, and ordered categories",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", parents=[common], help="run the classification ladder")
    p.add_argument("file", help="structure file path or example://NAME")
    p.add_argument("--law", action="append", help="check only the named law (repeatable)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("orders", parents=[common], help="enumerate Ehresmann orders")
    p.add_argument("file")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--up-to-iso", action="store_true")
    p.set_defaults(fn=_cmd_orders)

    p = sub.add_parser("derive", parents=[common], help="derive an algebraic order")
    p.add_argument("file")
    p.add_argument("--order", choices=("l", "r", "e"), required=True)
    p.set_defaults(fn=_cmd_derive)

    p = sub.add_parser("cat", parents=[common], help="build and check the category")
    p.add_argument("file")
    p.add_argument("--check", action="append", help="check the named OC law (repeatable)")
    p.add_argument("--biaction", action="store_true", help="derive and verify the biaction")
    p.add_argument(
        "--two-orders",
        action="store_true",
        help="check the two-order category laws with the derived left/right orders",
    )
    p.set_defaults(fn=_cmd_cat)

    p = sub.add_parser("esn", parents=[common], help="round trip and special correspondences")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_esn)

    p = sub.add_parser("enumerate", parents=[common], help="enumerate Ehresmann semigroups")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--filter", help="keep only structures satisfying the named law")
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--allow-large", action="store_true", help="permit the long-running size 4")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("example", parents=[common], help="show a catalogued example")
    p.add_argument("name")
    p.add_argument("--emit", action="store_true", help="print it in the file format")
    p.set_defaults(fn=_cmd_example)

    p = sub.add_parser("sweep", parents=[common], help="run the exhaustive theorem sweep")
    p.add_argument("--max-size", type=int, default=3)
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored; the sweep runs in one thread")
    p.add_argument("--allow-large", action="store_true", help="permit the long-running size 4")
    p.set_defaults(fn=_cmd_sweep)
    return parser


def run_command(argv: list[str]) -> RunReport:
    """Execute one CLI invocation and return its report."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        report = RunReport(command=list(argv), exit_code=2 if exc.code else 0)
        return report
    report = RunReport(command=list(argv))
    try:
        args.fn(args, report)
    except WorkbenchError as exc:
        report.exit_code = 2
        report.text_lines = [f"error: {exc}"]
        report.artifacts = {"error": str(exc)}
    report.json_requested = bool(getattr(args, "json", False))
    return report


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    report = run_command(argv)
    if report.json_requested:
        sys.stdout.write(report.raw_json if report.raw_json is not None else report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
