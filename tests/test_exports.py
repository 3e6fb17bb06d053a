"""Every name a module exports exists, so ``from fisher_hydro.<module> import *`` works."""
import importlib

import pytest

MODULES = ("fisher_hydro", "fisher_hydro.grid", "fisher_hydro.fields", "fisher_hydro.states",
           "fisher_hydro.propagate", "fisher_hydro.residuals", "fisher_hydro.functionals",
           "fisher_hydro.brackets", "fisher_hydro.stresstests")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
