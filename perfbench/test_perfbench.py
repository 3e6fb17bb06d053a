"""The benchmark's own test: traced counts repeat exactly between two runs of
the same work, span self times account for the traced wall time, and a traced
run reports exactly the per-layer metrics BENCHMARK.json declares.

    python3 -m pytest perfbench -q
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from metrics import END_TO_END, layer_metrics, per_layer_spec, span_times  # noqa: E402
from run import OUT, traced_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = [name for name, _, _ in per_layer_spec()
          if name.endswith(".calls") or name.endswith("_n") or name in ("fft.calls", "fft.points", "trace.spans")]


def traced_run(name: str, units: int):
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as outdir:
        ctx = workload.setup(1, outdir)
        run_one = ctx.fh.cli.run_one
        tracer, _, traced, checks, _ = traced_units(workload, ctx, units)
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]
        assert ctx.fh.cli.run_one is run_one
    return tracer, traced


@pytest.mark.parametrize("name, units", [("trajectories", 1), ("diagnostics", 2)])
def test_traced_counts_repeat_and_self_times_sum_to_wall(name, units):
    runs = [traced_run(name, units) for _ in range(2)]
    metrics = []
    for tracer, walls in runs:
        metrics.append(layer_metrics(tracer, walls, walls, 1.0))
        _, own = span_times(tracer.arrays())
        assert 0.9 * sum(walls) <= own.sum() <= sum(walls)

    assert {k: metrics[0][k] for k in COUNTS} == {k: metrics[1][k] for k in COUNTS}
    assert metrics[0]["fft.calls"] > 0 and metrics[0]["propagate.evolve.calls"] > 0

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(metrics[0])
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [(n, u) for n, u, _ in per_layer_spec()]
    assert [m["name"] for m in declared["end_to_end"]] == [n for n, _, _, _ in END_TO_END]
