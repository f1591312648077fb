"""Replay one recorded benchmark failure in this process.

    python3 perfbench/replay.py perfbench/out/twist-sweep.failures.json [INDEX]

A failure record carries workload, seed, seconds and query index (plus
the datum key and twist for reading).  The inputs are regenerated from
the seed, the one query is run again, and every check that fails is
printed with the traceback of the call that raised, if any.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import llclab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TracebackChecks(workloads.Checks):
    def error(self, exc, count, qid, key, what, twist=None):
        traceback.print_exception(exc)
        super().error(exc, count, qid, key, what, twist)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    records = json.loads(Path(argv[0]).read_text())
    if not records:
        print(f"no failures recorded in {argv[0]}")
        return 0
    rec = records[int(argv[1]) if len(argv) > 1 else 0]
    queries = workloads.generate(rec["workload"], rec["seed"], rec["seconds"])
    query = queries[rec["query"]]
    chk = TracebackChecks(rec["workload"], rec["seed"], rec["seconds"])
    run = workloads.make_runner(rec["workload"], tracing.make_ops(llclab), chk)
    run(rec["query"], query)
    print(json.dumps(rec, sort_keys=True))
    print(f"replayed: {chk.attempted} checks, {chk.wrong} wrong, {chk.raised} raised")
    for r in chk.records:
        print(json.dumps(r, sort_keys=True))
    return 0 if chk.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
