"""One fresh benchmark process: set up a workload, run it, print a JSON report.

    python3 perfbench/worker.py --workload W --seed N --passes P --work DIR
        [--traced --spans PATH] [--oracle]

``run.py`` starts these one at a time and aggregates their reports.  The
package under test is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import inputs  # noqa: E402

REF_EVERY_S = 0.25


def reference_s() -> float:
    """Best of three timings of a fixed stdlib loop of ``Fraction`` arithmetic
    and dict stores, the package's inner-loop mix.  It tracks the host's
    current speed, which drifts on a shared machine."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 600):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
            table[i % 17, i % 5] = acc
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """The reference timing, refreshed between ops at most every REF_EVERY_S."""

    def __init__(self):
        self.at, self.ref = time.perf_counter(), reference_s()

    def current(self) -> float:
        if time.perf_counter() - self.at > REF_EVERY_S:
            self.at, self.ref = time.perf_counter(), reference_s()
        return self.ref


class Op(NamedTuple):
    label: str
    argv: list[str]
    rc: int  # expected exit code
    sha: str  # expected SHA-256 of stdout
    spec: dict | None = None  # the decompose input, for the oracle check


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call(cli, argv):
    """One CLI operation in-process: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # a traceback breaks the CLI contract; count it
            rc = f"exception {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def build_ops(workload, seed, work, goldens, cli, problems) -> list[Op]:
    """Generate the inputs of one pass; cocycle-check also lifts them here."""
    pick = inputs.selection(workload, seed)
    if workload == "decompose-stream":
        specs = [(i, inputs.decompose_spec(i)) for i in pick["decompose"]]
        return [Op(f"decompose #{i}", inputs.decompose_argv(spec), 0, goldens["decompose"][i], spec)
                for i, spec in specs]

    def lift(family, index, group, parity):
        source = _write(work, f"{family}{index}.json", inputs.atlas_text(family, index))
        return ["lift-atlas", source, "--group", group, "--parity", parity, "--json"]

    if workload == "atlas-lift":
        return [Op(f"lift-atlas {inputs.atlas_key(*atlas)}", lift(*atlas), 0,
                   goldens["lift"][inputs.atlas_key(*atlas)])
                for atlas in inputs.lift_sweep(pick["shear"])]

    lifted = {}
    for atlas in inputs.cocycle_sweep(pick["shear"]) + [inputs.BROKEN_BASE]:
        key = inputs.atlas_key(*atlas)
        rc, _, lifted[key], err = call(cli, lift(*atlas))
        if rc != 0 or sha256(lifted[key]) != goldens["lift"][key]:
            problems.append(f"lifted input {key} differs from its recorded digest "
                            f"(exit {rc!r}) {err[:200]}")
    ops = []
    for atlas in inputs.cocycle_sweep(pick["shear"]):
        key = inputs.atlas_key(*atlas)
        path = _write(work, "lifted-" + key.replace("/", "_") + ".json", lifted[key])
        ops.append(Op(f"check-cocycle {key}", ["check-cocycle", path, "--json"], 0,
                      goldens["cocycle"][key]))
    broken = inputs.break_lifted(lifted[inputs.atlas_key(*inputs.BROKEN_BASE)])
    path = _write(work, "broken.json", broken)
    ops.append(Op("check-cocycle broken", ["check-cocycle", path, "--json"], 1,
                  goldens["cocycle"]["broken"]))
    return ops


def run_pass(cli, ops, record, speed=None, tracer=None):
    """Run every op once; returns the number of ops that failed their check."""
    failed = 0
    for op in ops:
        before = speed.current() if speed is not None else None
        if tracer is not None:
            tracer.op += 1
        rc, elapsed, out, err = call(cli, op.argv)
        # the mean of the reference timings around the op, which for a long
        # op are taken right before and right after it
        ref = (before + speed.current()) / 2 if speed is not None else None
        ok = rc == op.rc and sha256(out) == op.sha
        record(op, elapsed, ref, out, ok, rc, err)
        failed += not ok
    return failed


def semantic_checks(workload, ops, outputs, seed, cli, problems):
    """Checks by meaning rather than digest, made once, outside set-up and timing."""
    if workload == "cocycle-check":
        for op in ops:
            report = json.loads(outputs[op.label])
            if op.rc == 0 and not report["ok"]:
                problems.append(f"{op.label}: lifted valid atlas fails check-cocycle")
            if op.rc == 1 and not any(
                f["kind"] == "pair" and f["charts"] == ["0", "1"] for f in report["failures"]
            ):
                problems.append(f"{op.label}: broken atlas does not name its pair (0, 1)")
    if workload == "decompose-stream":
        from gradedcover import decompose_oracle, parse_expression
        from gradedcover.groups import parse_group_spec, parse_parity_spec

        rng = random.Random(f"oracle:{seed}")
        for op in rng.sample(ops, min(12, len(ops))):
            spec = op.spec
            group = parse_group_spec(spec["group"])
            sig = cli.parse_graded_signature(
                group, parse_parity_spec(group, spec["parity"]), spec["even"], spec["odd"])
            f = parse_expression(spec["expr"], sig)
            fast, slow = f.decompose(), decompose_oracle(f)
            printed = json.loads(outputs[op.label])["components"]
            if (set(map(str, fast)) != set(map(str, slow))
                    or any(fast[chi] != slow[chi] for chi in fast)
                    or set(printed) != set(map(str, fast))
                    or any(parse_expression(printed[str(chi)], sig) != fast[chi] for chi in fast)):
                problems.append(f"{op.label}: decompose disagrees with decompose_oracle")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True, help="timed passes to run")
    ap.add_argument("--work", required=True, help="scratch directory for input files")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--oracle", action="store_true", help="also run the semantic checks")
    args = ap.parse_args(argv)
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    work = Path(args.work)
    problems: list[str] = []

    setup_ref = reference_s()
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import gradedcover.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"imported gradedcover from {cli.__file__}, not from {ROOT / 'src'}")
    ops = build_ops(args.workload, args.seed, work, goldens, cli, problems)
    outputs = {}

    def keep(op, elapsed, ref, out, ok, rc, err):
        outputs[op.label] = out
        if not ok:
            problems.append(f"warm-up {op.label}: exit {rc!r}, stdout digest "
                            f"{'ok' if sha256(out) == op.sha else 'differs'}; {err[:200]}")

    run_pass(cli, ops, keep)
    setup_s = time.perf_counter() - start
    speed = HostSpeed()
    setup_ref = (setup_ref + speed.ref) / 2

    if args.oracle:
        semantic_checks(args.workload, ops, outputs, args.seed, cli, problems)
    outputs.clear()

    tracer = None
    if args.traced:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(sys.modules["gradedcover"], layers.targets())

    latencies: list[list[float]] = []
    refs: list[list[float]] = []
    failures: list[str] = []

    def timed(op, elapsed, ref, out, ok, rc, err):
        latencies[-1].append(elapsed)
        refs[-1].append(ref)
        if not ok and len(failures) < 5:
            failures.append(f"{op.label}: exit {rc!r}; {err[:200]}")

    failed = 0
    for _ in range(args.passes):
        latencies.append([])
        refs.append([])
        failed += run_pass(cli, ops, timed, speed, tracer)

    report = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref,
        "latencies_s": latencies,
        "refs_s": refs,
        "failed": failed,
        "problems": problems + failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = layers.raw(tracer)
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
