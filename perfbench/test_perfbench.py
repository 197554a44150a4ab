"""Self-checks of the benchmark: input determinism and its arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_inputs_match_the_recorded_universe():
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    assert inputs.universe_digest() == goldens["inputs"]
    assert len(goldens["decompose"]) == inputs.DECOMPOSE_UNIVERSE


def test_same_seed_same_inputs_in_a_fresh_process():
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import inputs; "
            "print(json.dumps([inputs.selection(w, 7) for w in inputs.WORKLOADS]))")
    runs = [subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True,
                           text=True, check=True, env={"PYTHONHASHSEED": str(h)}).stdout
            for h in (1, 2)]
    assert runs[0] == runs[1]
    assert json.loads(runs[0]) == [inputs.selection(w, 7) for w in inputs.WORKLOADS]
    assert inputs.selection("decompose-stream", 7) != inputs.selection("decompose-stream", 8)


def test_decompose_inputs_have_nonzero_distinct_denominators():
    for i in range(200):
        spec = inputs.decompose_spec(i)
        den = spec["expr"].rsplit(")/(", 1)[1].rstrip(")")
        monomials = [t.split("*", 1)[1] if "*" in t else "" for t in
                     den.replace(" - ", " + ").lstrip("-").split(" + ")]
        assert len(monomials) == 2 and len(set(monomials)) == 2


def test_tail_percentile_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert stats.tail(values) == (90.0, 90.0, 10)
    assert stats.tail(values[:20]) == (50.0, 10.0, 10)
    assert stats.tail(values[:40]) == (75.0, 30.0, 10)
    assert stats.tail(values[:90]) == (88.0, 80.0, 10)
    assert stats.tail([float(v) for v in range(1000)]) == (99.0, 989.0, 10)
    assert stats.tail([float(v) for v in range(10000)]) == (99.9, 9989.0, 10)
    assert stats.tail([1.0, 2.0, 3.0]) == (50.0, 2.0, 1)


def test_latency_uses_each_op_median():
    passes = [[1.0, 12.0, 100.0], [1.0, 10.0, 100.0], [9.0, 10.0, 130.0]]
    assert stats.op_medians(passes) == [1.0, 10.0, 100.0]
    lat = stats.latency(passes)
    assert lat["p50"] == 10.0 and lat["samples"] == 9
    assert (lat["tail_pct"], lat["tail"], lat["beyond"]) == (50.0, 10.0, 4)
    assert stats.throughput(passes) == pytest.approx(3 / 111)


def test_relative_spread():
    assert stats.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert stats.relative_spread([10.0] * 5) == 0.0


def test_benchmark_json_lists_every_reported_metric():
    import layers

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in bench["per_layer"]] == [m[0] for m in layers.METRICS] + [
        layers.OVERHEAD[0]]
    import run

    ref = run.REF_NOMINAL_S
    report = {"latencies_s": [[0.1, 0.2]], "refs_s": [[ref, 2 * ref]], "setup_s": 1.0,
              "setup_ref_s": ref / 2, "maxrss_kb": 2048, "failed": 0}
    metrics, lines = run.end_to_end([report] * 3)
    assert list(metrics) == [m["name"] for m in bench["end_to_end"]]
    assert metrics["peak_rss_mb"] == {"value": 2.0, "unit": "MB"}
    # times are scaled to the nominal host speed: a reference twice as slow halves them
    assert metrics["setup_s"]["value"] == pytest.approx(2.0)
    assert metrics["ops_per_s"]["value"] == pytest.approx(2 / 0.2)
    assert any(line.startswith("failed_frac") for line in lines)


def test_passes_are_split_over_workers():
    import run

    assert run.split_passes("cocycle-check", 18, 3) == [2, 1, 1]
    assert run.split_passes("atlas-lift", 18, 3) == [3, 2, 2]
    assert run.split_passes("decompose-stream", 1, 3) == [1, 1, 1]
    assert run.split_passes("atlas-lift", 9, 1) == [3]


@pytest.mark.parametrize("workload, rcs", [
    ("atlas-lift", [0] * 15),
    ("cocycle-check", [0] * 7 + [1]),
    ("decompose-stream", [0] * inputs.DECOMPOSE_POOL),
])
def test_one_pass_holds_the_stated_mix(workload, rcs, tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    import gradedcover.cli as cli

    import worker

    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    problems = []
    ops = worker.build_ops(workload, 3, tmp_path, goldens, cli, problems)
    assert problems == []
    assert [op.rc for op in ops] == rcs
    assert len({op.label for op in ops}) == len(ops)


class FakeClock:
    """Advances one unit per reading; calls to ``work`` add more."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now

    def work(self, units):
        self.now += units


def test_self_time_arithmetic():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.work(5), hot=True)
    hot = tracer.wrap("hot", lambda: (clock.work(2), leaf()), hot=True)
    child = tracer.wrap("child", lambda: (clock.work(7), hot()))
    top = tracer.wrap("top", lambda: (clock.work(3), child(), hot()))
    top()
    # each wrapped call reads the clock twice: start (+1) and end (+1)
    assert tracer.calls == {"leaf": 2, "hot": 2, "child": 1, "top": 1}
    assert tracer.self_s["leaf"] == 2 * 6
    # two units of work, the leaf's start reading and its own end reading
    assert tracer.self_s["hot"] == 2 * 4
    # spans keep the hot calls beneath them as self time
    spans = {s["name"]: s for s in tracer.spans}
    assert spans["child"]["self_s"] == spans["child"]["end"] - spans["child"]["start"]
    assert spans["top"]["self_s"] == (spans["top"]["end"] - spans["top"]["start"]
                                      - (spans["child"]["end"] - spans["child"]["start"]))
    assert spans["child"]["parent"] == spans["top"]["id"]
    assert spans["top"]["agg"] == {"hot": [1, 4.0], "leaf": [1, 6.0]}


def test_hook_time_is_charged_to_no_one():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: None, hook=lambda *a: clock.work(50), hot=True)
    top = tracer.wrap("top", lambda: leaf())
    top()
    span = tracer.spans[0]
    assert span["end"] - span["start"] > 50
    assert span["self_s"] < 10


def test_install_patches_every_binding_and_uninstall_restores():
    sys.path.insert(0, str(HERE.parent / "src"))
    import gradedcover
    from gradedcover import cli, covering, cyclotomic, expressions, morphisms

    import layers

    originals = (cli.parse_expression, covering.compose, cyclotomic.Cyclotomic.__rmul__)
    tracer = Tracer()
    tracer.install(gradedcover, layers.targets())
    try:
        assert cli.parse_expression is expressions.parse_expression is gradedcover.parse_expression
        assert cli.parse_expression is not originals[0]
        assert covering.compose is morphisms.compose is not originals[1]
        assert cyclotomic.Cyclotomic.__rmul__ is cyclotomic.Cyclotomic.__mul__
        two = cyclotomic.root_of_unity(4, 1)
        assert 3 * two == two * 3
        assert tracer.calls["cyclotomic.mul"] == 2
    finally:
        tracer.uninstall()
    assert (cli.parse_expression, covering.compose, cyclotomic.Cyclotomic.__rmul__) == originals
