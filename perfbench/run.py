"""Benchmark of the ehresmann workbench: time to a verdict, checked against known answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {sweep-n4,morphisms,desk,all} --seed N --seconds S --trace {0,1}

The benchmark imports ``ehresmann`` from the checkout's ``src/`` and runs
one seeded workload as a closed loop: a single caller starts each op only
after the previous one has returned.  Every op's result is checked against
a known answer outside the timed region.  It prints the metrics by name
and unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``,
with op and set-up times scaled to a reference interpreter speed (see
``speed.py``).  ``--trace 1`` first runs untraced for half the time, then
replays the same ops, up to a cap on the spans held, with spans around
every public function of each module (see ``spans.py``); it reports the
per-layer metrics, including the tracing overhead, and writes the spans
and the full per-function table under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS, maps_and_morphisms  # noqa: E402

LAYERS = ("core", "orders", "category", "zoo", "fileformat", "cli", "sweep")
SETUP_REPEATS = 5
# the traced pass stops replaying once this many spans are held in memory
SPAN_CAP = 250_000


def require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "ehresmann", "__init__.py")):
        raise SystemExit(f"no ehresmann package under {SRC}")


def load_package():
    """Import ``ehresmann`` and its modules afresh from this checkout's ``src/``."""
    require_source()
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "ehresmann" or m.startswith("ehresmann.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ehresmann")
    for layer in LAYERS:
        importlib.import_module(f"ehresmann.{layer}")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported ehresmann from {pkg.__file__}, not from {SRC}")
    return pkg


def environment() -> dict:
    """nproc, Python version, commit (when the checkout is a git tree) and a digest of src/."""
    commit = "unknown: not a git checkout"
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            commit = fh.read().strip()
        if commit.startswith("ref: "):
            with open(os.path.join(git, commit[5:]), encoding="utf-8") as fh:
                commit = fh.read().strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg_dir = os.path.join(SRC, "ehresmann")
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def set_up(workload_cls, repeats: int, probe: SpeedProbe | None = None):
    """Set up ``repeats`` times, each from a fresh import.

    Returns the last package and workload and the median set-up time,
    scaled by ``probe`` when one is given.
    """
    times: list[float] = []
    for _ in range(repeats):
        gc.collect()  # earlier imports of the package are garbage now
        if probe is not None:
            for _ in range(3):
                probe.sample()
        start = perf_counter()
        pkg = load_package()
        wl = workload_cls()
        wl.setup(pkg)
        wl.precompute()
        end = perf_counter()
        if probe is not None:
            for _ in range(3):
                probe.sample()
        times.append((end - start) * (probe.scale(start, end) if probe is not None else 1.0))
    return pkg, wl, statistics.median(times)


class Tally:
    """Per-op times and verdicts of one pass."""

    def __init__(self) -> None:
        self.ops: list = []
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.failed = 0
        self.wrong: list[str] = []

    def add(self, wl, op, start: float, seconds: float, result, exc) -> None:
        self.ops.append(op)
        self.starts.append(start)
        self.durations.append(seconds)
        if exc is not None:
            self.failed += 1
            reason = wl.check_exception(op, exc)
        else:
            try:
                reason = wl.verify(op, result)
            except (ValueError, KeyError, TypeError, AttributeError) as e:
                reason = f"op {op}: unreadable result: {e!r}"
            self.failed += reason is not None
        if reason is not None:
            self.wrong.append(reason)


def run_ops(
    wl, pkg, tally: Tally, ops, tracer: Tracer | None = None, probe: SpeedProbe | None = None
) -> None:
    for op in ops:
        if probe is not None:
            probe.maybe_sample()
        if tracer is not None:
            tracer.op = len(tally.ops)
        start = perf_counter()
        try:
            result, exc = wl.run(pkg, op), None
        except Exception as e:  # every raise is counted; check_exception says if it is known
            result, exc = None, e
        seconds = perf_counter() - start
        tally.add(wl, op, start, seconds, result, exc)


def measure(wl, pkg, seconds: float, rng, probe: SpeedProbe | None = None) -> Tally:
    """Run seeded cycles of ops for ``seconds``.

    A whole-cycle workload stops at the cycle boundary nearest the budget
    (after at least one cycle); the others stop at the first op that starts
    past it.
    """
    tally = Tally()
    begin = perf_counter()
    while True:
        cycle_start = perf_counter()
        cycle = wl.cycle(rng)
        if wl.whole_cycles:
            run_ops(wl, pkg, tally, cycle, probe=probe)
        else:
            for op in cycle:
                if perf_counter() - begin >= seconds:
                    break
                run_ops(wl, pkg, tally, (op,), probe=probe)
        now = perf_counter()
        if wl.whole_cycles:
            done = now - begin + (now - cycle_start) / 2 >= seconds
        else:
            done = now - begin >= seconds
        if done:
            if probe is not None:
                probe.sample()
            return tally


def tail(durations: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank value at ``percentile`` and the number of samples beyond it."""
    ordered = sorted(durations)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def op_stats(durations: list[float], percentile: float) -> tuple[float, float, float, int]:
    """ops per second, median and tail op time in ms, and the samples beyond the tail."""
    tail_s, beyond = tail(durations, percentile)
    return len(durations) / sum(durations), statistics.median(durations) * 1e3, tail_s * 1e3, beyond


def end_to_end(wl, tally: Tally, probe: SpeedProbe, setup_s: float) -> tuple[dict, list[str]]:
    raw = tally.durations
    scaled = [d * probe.scale(t, t + d) for t, d in zip(tally.starts, raw)]
    rate, p50, tail_ms, beyond = op_stats(scaled, wl.tail_percentile)
    values = {
        "setup_s": setup_s,
        "ops_per_s": rate,
        "verdict_p50_ms": p50,
        "verdict_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_rate, raw_p50, raw_tail, _ = op_stats(raw, wl.tail_percentile)
    n = len(raw)
    notes = [
        f"op and set-up times are scaled to a {REFERENCE_S * 1e3:g} ms speed-probe kernel; it took"
        f" {statistics.median(probe.seconds) * 1e3:.4g} ms (median of {len(probe.seconds)})",
        f"unscaled: ops_per_s {raw_rate:.6g} 1/s, verdict_p50_ms {raw_p50:.6g} ms,"
        f" verdict_tail_ms {raw_tail:.6g} ms",
        f"verdict_tail_ms is p{wl.tail_percentile:g} of {n} ops, {beyond} beyond it",
        f"failed_ratio {tally.failed}/{n} = {tally.failed / n:.6f}",
    ]
    return values, notes


def trace_hooks(tracer: Tracer) -> dict:
    """Counters read at the layer boundary, for the useful-to-attempted ratios.

    A subject is a distinct structure, keyed by ``key()``; an ordered
    semigroup counts as its base structure.
    """

    def subject(name, get):
        return lambda args, result: tracer.subjects[name].add(get(args).key())

    def orders_found(args, result):
        tracer.count("orders.enumerate_ehresmann_orders.orders", len(result))

    def maps_checked(args, report):
        got = maps_and_morphisms(report)
        if got is not None:
            tracer.count("category.morphism_correspondence.maps", got[0])
            tracer.count("category.morphism_correspondence.morphisms", got[1])

    return {
        "core.check_localisable": subject("core.check_localisable", lambda a: a[0]),
        "orders.check_ehresmann_order": subject(
            "orders.check_ehresmann_order", lambda a: a[0].base
        ),
        "orders.derive_orders": subject("orders.derive_orders", lambda a: a[0]),
        "orders.enumerate_ehresmann_orders": orders_found,
        "category.morphism_correspondence": maps_checked,
    }


def per_layer(tracer: Tracer, summary: dict, untraced_s: float, traced_s: float) -> dict:
    fns, c = summary["functions"], tracer.counters
    values: dict[str, float] = {}
    for layer, agg in summary["layers"].items():
        for key, v in agg.items():
            values[f"{layer}.{key}"] = v
    for name, agg in fns.items():
        values[f"{name}.calls"] = agg["calls"]
        values[f"{name}.cum_s"] = agg["cum_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    for name in ("core.check_localisable", "orders.check_ehresmann_order", "orders.derive_orders"):
        values[f"{name}.calls_per_subject"] = ratio(fns[name]["calls"], len(tracer.subjects[name]))
    enum_orders = fns["orders.enumerate_ehresmann_orders"]
    values["orders.enumerate_ehresmann_orders.orders_per_call"] = ratio(
        c["orders.enumerate_ehresmann_orders.orders"], enum_orders["calls"]
    )
    mc = fns["category.morphism_correspondence"]
    maps = c["category.morphism_correspondence.maps"]
    values["category.morphism_correspondence.maps_per_s"] = ratio(maps, mc["cum_s"])
    values["category.morphism_correspondence.yield"] = ratio(
        c["category.morphism_correspondence.morphisms"], maps
    )
    ez = fns["zoo.enumerate_ehresmann_semigroups"]
    values["zoo.enumerate_ehresmann_semigroups.structures_per_s"] = ratio(
        c["zoo.enumerate_ehresmann_semigroups.items"], ez["cum_s"]
    )
    values["tracing.overhead_s"] = traced_s - untraced_s
    values["tracing.overhead_ratio"] = ratio(traced_s - untraced_s, untraced_s)
    return values


def write_trace(
    tracer: Tracer, summary: dict, workload: str, values: dict, env: dict, seed: int
) -> list[str]:
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}.json.gz")
    tracer.write(spans)
    table = os.path.join(OUT, f"trace-{workload}.json")
    doc = {"workload": workload, "seed": seed, "env": env, "metrics": values, **summary}
    with open(table, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return [
        f"{tracer.span_count()} spans in {os.path.relpath(spans, ROOT)}",
        f"per-function table in {os.path.relpath(table, ROOT)}",
    ]


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so each reports its own peak memory
        codes = [
            subprocess.run(
                [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                    "--trace", str(args.trace),
                ],
                check=False,
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    require_source()
    manifest = load_manifest()
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    workload_cls = WORKLOADS[args.workload]
    env = environment()
    rng = random.Random(args.seed)
    print(f"workload {args.workload}: {workload_cls.why}")
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}, env {json.dumps(env)}")

    if not args.trace:
        probe = SpeedProbe()
        pkg, wl, setup_s = set_up(workload_cls, SETUP_REPEATS, probe)
        tally = measure(wl, pkg, args.seconds, rng, probe)
        values, notes = end_to_end(wl, tally, probe, setup_s)
        notes.insert(0, f"setup_s is the median of {SETUP_REPEATS} set-ups from a fresh import")
    else:
        pkg, wl, _ = set_up(workload_cls, 1)
        untraced = measure(wl, pkg, args.seconds / 2, rng)
        tracer = Tracer()
        tracer.install(pkg, LAYERS, trace_hooks(tracer), extra=("sweep._enumerated_record",))
        tally = Tally()
        for op in untraced.ops:
            run_ops(wl, pkg, tally, (op,), tracer)
            if tracer.span_count() >= SPAN_CAP:
                break
        tally.wrong += untraced.wrong
        replayed = len(tally.ops)
        summary = tracer.summary()
        untraced_s = sum(untraced.durations[:replayed])
        values = per_layer(tracer, summary, untraced_s, sum(tally.durations))
        notes = write_trace(tracer, summary, args.workload, values, env, args.seed)
        notes.append(
            f"the traced pass replays the first {replayed} of the {len(untraced.ops)} ops"
            " of the untraced pass"
        )

    for note in notes:
        print(f"# {note}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    wrong = list(tally.wrong)
    if wl.setup_error:
        wrong.insert(0, f"set-up: {wl.setup_error}")
    for reason in wrong[:10]:
        print(f"incorrect: {reason}", file=sys.stderr)
    correct = not wrong
    print(json.dumps({
        "correct": correct,
        "attempted": len(tally.durations),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
