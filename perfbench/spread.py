"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cocycle-check --seeds 1 2 3 4 5

Runs the benchmark once per seed and prints, per metric, the median and
the distance between the first and third quartile as a share of the
median, next to a third of the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        spread = stats.relative_spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{name:<16} median {statistics.median(vals):<12.6g} spread {spread:.4f}"
              f"  (a third of the bound: {bounds[name] / 3:.4f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
