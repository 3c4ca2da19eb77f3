"""The three workloads: seeded inputs, the timed op, and its known answer.

Each workload has the same shape:

* ``setup(pkg)`` does the program's set-up and builds the inputs, setting
  ``count`` (timed as ``setup_s``, never inside an op);
* ``precompute()`` computes the known answers (part of set-up);
* ``cycle(rng)`` returns one pass over the inputs, in seeded order;
* ``run(pkg, op)`` is the op a user waits for, the only timed call;
* ``verify(op, result)`` compares a result with its known answer, outside
  the timed region, and returns ``None`` when it matches.

``whole_cycles`` workloads end a run on a cycle boundary, so every run
holds the same multiset of ops; ``tail_percentile`` is fixed per workload
as the highest percentile with at least ten samples beyond it at the
commit that defined the benchmark, so a faster program does not move the
tail to another percentile.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import re

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


class Workload:
    setup_error: str | None = None
    count = 0  # inputs; an op is an index into them

    def cycle(self, rng) -> list[int]:
        order = list(range(self.count))
        rng.shuffle(order)
        return order

    def check_exception(self, op, exc: BaseException) -> str | None:
        """None when ``exc`` is a known failure of ``op``; else why it is wrong."""
        return f"op {op}: raised {type(exc).__name__}: {exc}"


class SweepN4(Workload):
    name = "sweep-n4"
    why = (
        "size-4 theorem-sweep records: core/orders/category law deciding on tiny "
        "structures, prerequisites re-decided many times per structure"
    )
    whole_cycles = False
    tail_percentile = 99.0
    # labelled Ehresmann semigroups on 4 points, and their Ehresmann orders
    STRUCTURES = 1708

    def setup(self, pkg) -> None:
        # the per-structure function run_sweep maps over; run_sweep itself
        # refuses size 4, so there is no public path yet and no fallback copy
        if not callable(getattr(pkg.sweep, "_enumerated_record", None)):
            raise SystemExit("ehresmann.sweep._enumerated_record is gone; sweep-n4 cannot run")
        self.structures = list(pkg.zoo.enumerate_ehresmann_semigroups(4, allow_large=True))
        self.count = len(self.structures)

    def precompute(self) -> None:
        posets = oracle.labelled_posets(4)
        if len(posets) != 219:
            raise SystemExit(f"poset oracle found {len(posets)} posets on 4 points, not 219")
        keys = {s.key() for s in self.structures}
        if len(self.structures) != self.STRUCTURES or len(keys) != self.STRUCTURES:
            self.setup_error = (
                f"enumeration gave {len(self.structures)} structures"
                f" ({len(keys)} distinct), expected {self.STRUCTURES}"
            )
        self.order_counts = []
        for s in self.structures:
            if not oracle.is_ehresmann(s.n, s.mul, s.dmap, s.rmap):
                self.setup_error = f"enumerated structure {s.key()} is not Ehresmann"
            self.order_counts.append(
                oracle.count_ehresmann_orders(s.n, s.mul, s.dmap, s.rmap, posets)
            )

    def run(self, pkg, i: int):
        return pkg.sweep._enumerated_record((f"n4-{i:04d}", self.structures[i]))

    # theorem statements: true on every ordered Ehresmann semigroup
    RECORD_THEOREMS = (
        "de_barros_agreement",
        "os3_matches_de_barros",
        "two_order_category",
        "os4_exists_iff_de_barros",
    )
    ORDER_THEOREMS = (
        "os4_implies_os7",
        "os4_order_is_natural",
        "os4a_bicond",
        "os4b_bicond",
        "restriction_bicond",
        "lemma_containment",
        "semilattice_agreement",
        "esn_round_trip",
        "biaction",
        "oc_equivalences",
        "special_correspondences",
    )

    def verify(self, i: int, result) -> str | None:
        sid, rec = result
        if sid != f"n4-{i:04d}":
            return f"record id {sid!r}"
        false = [k for k in self.RECORD_THEOREMS if rec.get(k) is not True]
        partial = rec.get("leq_e_partial_laws", {})
        false += [
            f"leq_e_partial_laws.{k}" for k in ("OS1", "OS2", "OS6", "OSI") if partial.get(k) is not True
        ]
        if rec.get("de_barros") and rec.get("smallest_order") is not True:
            false.append("smallest_order")
        orders = rec.get("orders", [])
        for j, inst in enumerate(orders):
            false += [f"orders[{j}].{k}" for k in self.ORDER_THEOREMS if inst.get(k) is not True]
        if false:
            return f"structure {i}: theorem booleans not true: {', '.join(false[:5])}"
        want = self.order_counts[i]
        if rec.get("order_count") != want or len(orders) != want:
            return f"structure {i}: {rec.get('order_count')} orders, brute force finds {want}"
        return None


class Morphisms(Workload):
    name = "morphisms"
    why = (
        "morphism_correspondence over all maps between small zoo entries: category "
        "restriction/corestriction rescans and is_ordered_hom, prerequisites decided once"
    )
    whole_cycles = True
    tail_percentile = 99.0
    # zoo.SWEEP_NAMES when the benchmark was defined; fixed so the workload
    # does not change with the catalogue
    NAMES = (
        "two-element-monoid",
        "zero-one-nabla",
        "rel-1",
        "rel-2",
        "pt-1",
        "pt-2",
        "inj-1",
        "inj-2",
    )
    # pairs with more maps are left out; this cap keeps 65 of the 81 ordered
    # pairs, 12,697 maps, and drops pt-2 -> zero-one-nabla (19,683 maps),
    # which alone would take about 60% of a cycle
    MAP_BUDGET = 5000

    def setup(self, pkg) -> None:
        items = []
        for name in self.NAMES:
            entry = pkg.zoo.get(name)
            for oname in entry.order_names():
                items.append((f"{name}#{oname}", entry.ordered(oname)))
        self.pairs = [
            (a, b)
            for a, b in itertools.product(items, items)
            if b[1].base.n ** a[1].base.n <= self.MAP_BUDGET
        ]
        self.count = len(self.pairs)

    def precompute(self) -> None:
        def tables(os_):
            s = os_.base
            return (s.n, s.mul, s.dmap, s.rmap, os_.order.rel)

        self.expected = [
            (b[1].base.n ** a[1].base.n, oracle.count_ordered_homs(tables(a[1]), tables(b[1])))
            for a, b in self.pairs
        ]

    def run(self, pkg, i: int):
        (_, s_os), (_, t_os) = self.pairs[i]
        return pkg.category.morphism_correspondence(s_os, t_os)

    def verify(self, i: int, report) -> str | None:
        pair = f"{self.pairs[i][0][0]} -> {self.pairs[i][1][0]}"
        if not report.holds:
            return f"{pair}: report fails: {report.detail}"
        got = maps_and_morphisms(report)
        if got != self.expected[i]:
            return f"{pair}: (maps, morphisms) {got}, brute force {self.expected[i]}"
        return None


class Desk(Workload):
    name = "desk"
    why = (
        "in-process CLI calls on few, larger subjects (up to 64 elements): each law "
        "decided once, with cli, fileformat, zoo.get and enumeration on the path"
    )
    whole_cycles = True
    tail_percentile = 95.0
    # rel-3 is left out: check --law localisable alone takes about 11 s there
    SUBJECTS = (
        "two-element-monoid",
        "zero-one-nabla",
        "orderless-band",
        "rel-2",
        "pt-2",
        "inj-2",
        "pt-3",
    )
    COMMANDS = (
        ("check",),
        ("orders", "--count-only"),
        ("cat", "--biaction"),
        ("cat", "--two-orders"),
        ("esn",),
        ("derive", "--order", "e"),
    )
    EXTRA = (
        ("enumerate", "--size", "3", "--filter", "restriction"),
        ("enumerate", "--size", "4", "--allow-large", "--up-to-iso"),
        ("sweep", "--max-size", "3", "--jobs", "2"),
    )
    EXPECTED = os.path.join(HERE, "desk_expected.json")
    files_dir = os.path.join(HERE, "out", "desk-files")

    def ops(self) -> list[tuple[str, tuple[str, ...]]]:
        """(key, argv) per op; a key names the command and subject, not the source.

        Half the subject commands read a structure file written at set-up and
        half an ``example://`` URI, alternating so each subject gets both.
        """
        out = []
        for si, subject in enumerate(self.SUBJECTS):
            for ci, cmd in enumerate(self.COMMANDS):
                if (si + ci) % 2:
                    source = f"example://{subject}"
                else:
                    source = os.path.join(self.files_dir, f"{subject}.txt")
                out.append((f"{' '.join(cmd)} {subject}", (cmd[0], source) + cmd[1:] + ("--json",)))
        for cmd in self.EXTRA:
            out.append((" ".join(cmd), cmd + ("--json",)))
        return out

    def setup(self, pkg) -> None:
        os.makedirs(self.files_dir, exist_ok=True)
        ff = pkg.fileformat
        for subject in self.SUBJECTS:
            entry = pkg.zoo.get(subject)
            order = entry.orders[0][1] if entry.orders else None
            text = ff.emit_structure(ff.semigroup_file(entry.structure, order))
            with open(os.path.join(self.files_dir, f"{subject}.txt"), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.op_list = self.ops()
        self.count = len(self.op_list)

    def precompute(self) -> None:
        with open(self.EXPECTED, encoding="utf-8") as fh:
            self.expected = json.load(fh)
        missing = [key for key, _ in self.op_list if key not in self.expected]
        if missing:
            self.setup_error = f"no expected answer for {missing}"

    def run(self, pkg, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pkg.cli.main(list(self.op_list[i][1]))
        return code, buf.getvalue()

    def check_exception(self, i: int, exc: BaseException) -> str | None:
        """None when ``exc`` is the known failure recorded for this op."""
        key = self.op_list[i][0]
        if self.expected.get(key, {}).get("known_failure") == type(exc).__name__:
            return None
        return f"{key}: raised {type(exc).__name__}: {exc}"

    def verify(self, i: int, result) -> str | None:
        key = self.op_list[i][0]
        want = {k: v for k, v in self.expected[key].items() if k != "known_failure"}
        got = answer(*result)
        if got != want:
            return f"{key}: got {json.dumps(got)[:200]}, expected {json.dumps(want)[:200]}"
        return None


_MAPS = re.compile(r"(\d+) maps checked, (\d+) are morphisms")


def maps_and_morphisms(report) -> tuple[int, int] | None:
    """(maps checked, morphisms found), read from a morphism_correspondence report."""
    m = _MAPS.search(report.detail)
    return (int(m.group(1)), int(m.group(2))) if m else None


def answer(exit_code: int, stdout: str) -> dict:
    """The parts of a ``--json`` CLI report that the expected table pins.

    Exit code; per law (name, holds, witness); and the verdict-bearing
    artifacts: order and structure counts, a digest of a derived order's
    matrix, and the sweep's structure count and criteria.  Detail strings
    are left out.
    """
    doc = json.loads(stdout)
    out: dict = {"exit_code": exit_code}
    if doc.get("schema") == "ehresmann-sweep/1":
        out["structure_count"] = doc["structure_count"]
        out["criteria"] = doc["criteria"]
        out["all_pass"] = doc["all_pass"]
        return out
    out["reports"] = [[r["law"], r["holds"], r["witness"]] for r in doc["reports"]]
    arts = doc.get("artifacts", {})
    if "count" in arts:
        out["count"] = arts["count"]
    if "matrix" in arts:
        digest = hashlib.sha256(json.dumps(arts["matrix"]).encode()).hexdigest()
        out["matrix_sha256"] = digest[:16]
    return out


WORKLOADS = {w.name: w for w in (SweepN4, Morphisms, Desk)}
