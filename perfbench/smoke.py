"""Smoke run at tiny size: every workload once with --seconds 1 --trace 1,
checking that the command exits 0 and prints every end-to-end metric
(fail_ratio included) by name and unit and every per-layer metric that
BENCHMARK.json lists.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRINTED_ONLY = {"fail_ratio": "ratio"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]} | PRINTED_ONLY
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    bad = 0
    for w in (x["name"] for x in spec["workloads"]):
        cmd = [*spec["command"], "--workload", w, "--seed", "1", "--seconds", "1", "--trace", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), timeout=180)
        lines = proc.stdout.strip().splitlines()
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        printed = {}
        for line in lines:
            parts = line.split()
            if len(parts) >= 3:
                printed.setdefault(parts[0], parts[2])
        for name, unit in e2e.items():
            if printed.get(name) != unit:
                problems.append(f"end-to-end metric {name} [{unit}] not printed")
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append("last line is not the result object")
        got = result.get("metrics", {})
        for name, unit in layer.items():
            if got.get(name, {}).get("unit") != unit or printed.get(name) != unit:
                problems.append(f"per-layer metric {name} [{unit}] missing")
        extra = set(got) - set(layer)
        if extra:
            problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
        print(f"{w}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
