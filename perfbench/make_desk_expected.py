"""Regenerate ``desk_expected.json``, the desk workload's table of known answers.

    python3 perfbench/make_desk_expected.py

Runs every desk op once against the package in the checkout's ``src/`` and
records its answer (see ``workloads.answer``).  An op that raises
``RecursionError`` is run again on a thread with a large stack and a raised
recursion limit, to find the answer it gives once the recursion is gone;
its entry records that answer and names the exception as its known
failure.  Review the diff before committing it: a changed verdict or
witness is a behaviour change that needs a reason.
"""

from __future__ import annotations

import json
import sys
import threading

from run import load_package
from workloads import Desk, answer


def answer_with_deep_stack(desk: Desk, pkg, i: int):
    result = {}

    def work():
        result["value"] = desk.run(pkg, i)

    limit, stack = sys.getrecursionlimit(), threading.stack_size(512 * 1024 * 1024)
    sys.setrecursionlimit(100_000)
    try:
        worker = threading.Thread(target=work)
        worker.start()
        worker.join()
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(stack)
    return result["value"]


def main() -> None:
    pkg = load_package()
    desk = Desk()
    desk.setup(pkg)
    table = {}
    for i, (key, _argv) in enumerate(desk.op_list):
        if key in table:
            continue
        try:
            table[key] = answer(*desk.run(pkg, i))
        except RecursionError:
            table[key] = answer(*answer_with_deep_stack(desk, pkg, i))
            table[key]["known_failure"] = "RecursionError"
        print(key, json.dumps(table[key])[:120])
    lines = [
        f" {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}" for key in sorted(table)
    ]
    with open(Desk.EXPECTED, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
