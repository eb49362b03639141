"""Smoke test of the benchmark harness: every workload once, at a tiny size, traced.

It asserts only that the work counters are present, the outputs are finite and
the output checks pass; it never asserts a time.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jcentropy.cli as cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_tiny(benchmark, tmp_path, name):
    plan = workloads.WORKLOADS[name](3, str(tmp_path), tiny=True)
    runner = Runner(plan, cli)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        benchmark.pedantic(runner.iteration, args=(tracer,), rounds=1, iterations=1)
    finally:
        tracer.uninstall()

    layers = tracer.layer_metrics()
    assert set(tracing.COUNTERS) <= set(layers)
    assert all(math.isfinite(value) for value in layers.values())
    assert all(runner.outcomes[0]), runner.errors
    checks, _sizes = plan.run_checks()
    assert [c.name for c in checks if not c.ok] == []
    assert any(c.name.endswith("finite") for c in checks)
