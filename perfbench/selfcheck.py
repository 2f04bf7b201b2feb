"""Exact-count self-check: two traced runs at one seed must count the same.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py [--workload verify|lift|contact ...] [--seed N]

Runs `run.py --trace 1` twice per workload, one after the other, and
compares every count the trace reports (calls, failures, coefficient and
term products, units tried, nash steps per sequence, the fallback, lift
success and reuse ratios, the largest coefficient).  Timings are not
compared.  It also checks the layers that a workload must not reach outside
set-up: no nash call on `lift` or `contact`, no Newton-Puiseux call on
`contact`.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
NOT_REACHED = {
    "lift": ("nash.",),
    "contact": ("nash.", "generic._newton_puiseux_root."),
}


def traced(workload: str, seed: int) -> dict:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} failed ops\n{done.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def exact(metrics: dict) -> dict:
    return {
        k: v for k, v in metrics.items()
        if not k.endswith("_s") and k not in ("fail_ratio",)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", default=["verify", "lift", "contact"])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        first, second = exact(traced(workload, args.seed)), exact(traced(workload, args.seed))
        differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        reached = sorted(
            k for k, v in first.items()
            if k.endswith(".calls") and v and k.startswith(NOT_REACHED.get(workload, ()))
        )
        for k in differ:
            print(f"{workload}: {k} differs: {first.get(k)} vs {second.get(k)}")
        for k in reached:
            print(f"{workload}: {k} = {first[k]}, expected 0 outside set-up")
        ok = ok and not differ and not reached
        print(f"{workload}: {len(first)} counts, {len(differ)} differ, {len(reached)} unexpected")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
