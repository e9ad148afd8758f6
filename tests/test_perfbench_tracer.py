"""Smoke test of the benchmark's tracer on a small sweep.

A traced benchmark run fails when a layer it wraps records nothing, or when
a binding it wraps no longer exists; this catches both in the suite, for
each solver.
"""

import importlib.util
import time
from pathlib import Path

import pytest

from stmfem.harness import ExperimentConfig, run_convergence

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("solver", ["direct", "schur"])
def test_every_layer_fires(tracing, solver):
    config = ExperimentConfig(p=1, r=2, level_min=0, level_max=1,
                              n_steps_base=2, distortion=0.1, seed=1,
                              solver=solver)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        start = time.perf_counter()
        run_convergence(config)
        seconds = time.perf_counter() - start
    finally:
        undo()
    metrics, _, _ = tracing.layer_metrics(tracer, seconds)
    assert tracing.silent_layers(metrics, solver) == []
    if solver == "schur":
        calls = metrics["timeloop.gmres_calls"]
        assert metrics["timeloop.gmres_iters"] == calls > 0
