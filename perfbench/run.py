"""The gradedcover benchmark: CLI operations end to end, and layer by layer.

    python3 perfbench/run.py --workload atlas-lift --seed 1 --seconds 14 --trace 0

Drives ``gradedcover.cli.main(argv)`` in-process as a closed loop with one
caller.  Each run starts fresh worker processes one after another (see
``worker.py``): with ``--trace 0`` three plain workers sharing
``--seconds`` of timed passes, so set-up is timed three times and memory
is read from fresh processes; with ``--trace 1`` one plain and one traced
worker of half each, whose throughput ratio is the tracing overhead.  Times
are scaled to a nominal host speed (``REF_NOMINAL_S``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402

DEADLINE_S = 170.0
PLAIN_WORKERS = 3
# Seconds one pass took at the commit that defined the benchmark (2-core VM).
# They turn --seconds into a number of passes once, so every commit runs
# the same work and the tail percentile is taken over the same sample count.
PASS_SECONDS = {"atlas-lift": 2.6, "cocycle-check": 4.9, "decompose-stream": 3.7}


# ``worker.reference_s()`` on that VM in a quiet spell.  Every time is scaled
# by this over the reference timing taken next to it, which cancels the
# host's drift in speed (20-60% over minutes on a shared machine).
REF_NOMINAL_S = 0.0025


def normalised(report) -> list[list[float]]:
    """Each timed pass's latencies at the host speed of REF_NOMINAL_S."""
    return [[t * REF_NOMINAL_S / ref for t, ref in zip(lat, refs)]
            for lat, refs in zip(report["latencies_s"], report["refs_s"])]


def split_passes(workload: str, seconds: float, workers: int) -> list[int]:
    """Timed passes for each worker: --seconds worth in all, at least one each."""
    total = max(workers, round(seconds / PASS_SECONDS[workload]))
    return [total // workers + (i < total % workers) for i in range(workers)]


def spawn(workload, seed, passes, work, deadline, traced=False, oracle=False, spans=None):
    """Run one worker for ``passes`` timed passes; returns its report."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--passes", str(passes), "--work", str(work)]
    if traced:
        argv.append("--traced")
    if spans:
        argv += ["--spans", str(spans)]
    if oracle:
        argv.append("--oracle")
    left = deadline - time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=max(left, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(reports) -> tuple[dict, list[str]]:
    passes = [p for r in reports for p in normalised(r)]
    lat = stats.latency(passes)
    failed = sum(r["failed"] for r in reports)
    setups = [r["setup_s"] * REF_NOMINAL_S / r["setup_ref_s"] for r in reports]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (stats.throughput(passes), "1/s"),
        "latency_p50_ms": (1000 * lat["p50"], "ms"),
        "latency_tail_ms": (1000 * lat["tail"], "ms"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in reports) / 1024, "MB"),
    }
    lines = [f"{name:<16} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines[0] += f"  (set-ups: {', '.join(f'{s:.3f}' for s in setups)} s)"
    lines[3] += f"  (p{lat['tail_pct']:g} of {lat['samples']} ops, {lat['beyond']} beyond it)"
    lines.append(f"{'failed_frac':<16} = {failed / lat['samples']:.6g}  "
                 f"({failed} of {lat['samples']} ops)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def run_workload(workload, seed, seconds, trace, work, deadline):
    """Returns (result dict, human-readable lines)."""
    if trace:
        passes = split_passes(workload, seconds / 2, 1)[0]
        plain = spawn(workload, seed, passes, work, deadline, oracle=True)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        traced = spawn(workload, seed, passes, work, deadline, traced=True, spans=spans)
        reports = [plain, traced]
        ops = sum(map(len, traced["latencies_s"]))
        metrics = layers.metrics([traced["layers"]], ops)
        speed = [stats.throughput(normalised(r)) for r in reports]
        name, unit = layers.OVERHEAD
        metrics[name] = {"value": 1 - speed[1] / speed[0], "unit": unit}
        lines = [f"{k:<36} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        lines.append(f"spans: {traced['spans']} written to {spans.relative_to(ROOT)}")
    else:
        reports = [spawn(workload, seed, passes, work, deadline, oracle=(i == 0))
                   for i, passes in enumerate(split_passes(workload, seconds, PLAIN_WORKERS))]
        metrics, lines = end_to_end(reports)
    refs = [x for r in reports for p in r["refs_s"] for x in p]
    attempted = sum(len(p) for r in reports for p in r["latencies_s"])
    failed = sum(r["failed"] for r in reports)
    problems = [p for r in reports for p in r["problems"]]
    passes = "+".join(str(len(r["latencies_s"])) for r in reports)
    head = [f"workload {workload}  seed {seed}  {attempted} ops in {passes} passes  "
            f"src_lines {src_lines()}",
            f"host: reference loop median {1000 * statistics.median(refs):.3f} ms, "
            f"times scaled to {1000 * REF_NOMINAL_S:g} ms"]
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, head + lines + [f"problem: {p}" for p in problems]


def src_lines() -> int:
    """Informational size of the package, not a gated metric."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=14.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gradedcover" / "cli.py").is_file():
        print(f"error: no gradedcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            deadline = time.monotonic() + DEADLINE_S
            results[workload], lines = run_workload(workload, args.seed, args.seconds,
                                                    args.trace, work, deadline)
            print("\n".join(lines), flush=True)
        if args.workload != "all":
            print(json.dumps(results[args.workload]), flush=True)
            return 0
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }), flush=True)
        return 0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
