"""Every name a module exports exists, so ``from fisher_hydro.<module> import *`` works, the
entry points that perfbench calls keep the parameters it binds, and the functions it times by
name exist."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

MODULES = ("fisher_hydro", "fisher_hydro.grid", "fisher_hydro.fields", "fisher_hydro.states",
           "fisher_hydro.propagate", "fisher_hydro.residuals", "fisher_hydro.functionals",
           "fisher_hydro.brackets", "fisher_hydro.stresstests")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


# perfbench's tracer binds run_one, superposition_residual and evolve by
# parameter name, and its workloads call run_one, evolve, the step_*
# functions and the states they evolve positionally, and EvolutionSpec by
# keyword: each keeps these parameters, in this order.
BENCHMARKED = [
    ("fisher_hydro.cli", "run_one", ["test", "config_path", "outdir", "overrides"]),
    ("fisher_hydro.stresstests", "superposition_residual", ["config", "beta", "refined"]),
    ("fisher_hydro.propagate", "evolve", ["psi0", "V", "spec", "constants"]),
    ("fisher_hydro.propagate", "step_linear", ["psi", "V", "dt", "constants"]),
    ("fisher_hydro.propagate", "step_dg", ["psi", "V", "dt", "D", "constants"]),
    ("fisher_hydro.propagate", "step_beta", ["psi", "V", "dt", "beta", "eps_reg", "constants"]),
    ("fisher_hydro.propagate", "EvolutionSpec", ["kind", "dt", "t_final", "record_stride", "D", "beta", "eps_reg"]),
    ("fisher_hydro.states", "gaussian_packet", ["grid", "x0", "sigma0", "k0", "constants"]),
    ("fisher_hydro.states", "harmonic_potential", ["grid", "omega", "constants"]),
    ("fisher_hydro.states", "vortex_state", ["grid", "winding", "sigma", "center"]),
]


@pytest.mark.parametrize("module, name, parameters", BENCHMARKED, ids=[name for _, name, _ in BENCHMARKED])
def test_benchmarked_signatures(module, name, parameters):
    signature = inspect.signature(getattr(importlib.import_module(module), name))
    assert list(signature.parameters) == parameters
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature.parameters.values())


# perfbench/metrics.py rows that time a function the package no longer has:
# benchmark debt that a change to the benchmark removes, and until then their
# rows read 0
UNTRACEABLE = {"grid.fd_gradient4", "grid.fd_laplacian4", "residuals.momentum_balance_residual"}


def _traced(span):
    """Whether perfbench's tracer wraps the span "module.function": a public
    function defined in that package module."""
    module_name, _, function = span.rpartition(".")
    module = importlib.import_module(f"fisher_hydro.{module_name}")
    obj = getattr(module, function, None)
    return inspect.isfunction(obj) and obj.__module__ == module.__name__ and not function.startswith("_")


def test_per_layer_spans_name_package_functions():
    # a renamed or deleted function would zero its per-layer rows without notice
    path = Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"
    spec = importlib.util.spec_from_file_location("perfbench_metrics", path)
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    spans = {span for span, _ in metrics.SPAN_STATS.values()}
    assert {span for span in spans if not _traced(span)} == UNTRACEABLE
