"""Every name a module exports exists, so ``from fisher_hydro.<module> import *`` works, and the
entry points that perfbench calls keep the parameters it binds."""
import importlib
import inspect

import pytest

MODULES = ("fisher_hydro", "fisher_hydro.grid", "fisher_hydro.fields", "fisher_hydro.states",
           "fisher_hydro.propagate", "fisher_hydro.residuals", "fisher_hydro.functionals",
           "fisher_hydro.brackets", "fisher_hydro.stresstests")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


# perfbench's tracer binds run_one, superposition_residual and evolve by
# parameter name, and its workloads call run_one, evolve and the step_*
# functions positionally: each keeps these parameters, in this order.
BENCHMARKED = [
    ("fisher_hydro.cli", "run_one", ["test", "config_path", "outdir", "overrides"]),
    ("fisher_hydro.stresstests", "superposition_residual", ["config", "beta", "refined"]),
    ("fisher_hydro.propagate", "evolve", ["psi0", "V", "spec", "constants"]),
    ("fisher_hydro.propagate", "step_linear", ["psi", "V", "dt", "constants"]),
    ("fisher_hydro.propagate", "step_dg", ["psi", "V", "dt", "D", "constants"]),
    ("fisher_hydro.propagate", "step_beta", ["psi", "V", "dt", "beta", "eps_reg", "constants"]),
]


@pytest.mark.parametrize("module, name, parameters", BENCHMARKED, ids=[name for _, name, _ in BENCHMARKED])
def test_benchmarked_signatures(module, name, parameters):
    signature = inspect.signature(getattr(importlib.import_module(module), name))
    assert list(signature.parameters) == parameters
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature.parameters.values())
