"""Smoke check for the benchmark: every workload, both modes, a few checks each.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Each workload runs for one second with ``--trace 0`` and ``--trace 1``.  The
check passes when every run exits 0, its last stdout line is a result with
``correct`` true, and its metrics are exactly the ``end_to_end`` (untraced)
or ``per_layer`` (traced) metrics of BENCHMARK.json, each with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            argv = bench["command"] + [
                "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            if printed != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(printed.items()))
                extra = sorted(set(printed.items()) - set(expected[trace].items()))
                problems.append(f"{label}: missing {missing}, unexpected {extra}")
            print(f"{label}: {len(printed)} metrics, {result['attempted']} checks", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
