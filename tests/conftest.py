import time
from types import SimpleNamespace

import numpy as np
import pytest

from fisher_hydro import PhysicalConstants, cli, make_grid, stresstests


@pytest.fixture
def constants():
    return PhysicalConstants()


@pytest.fixture
def grid1d():
    return make_grid(1, 512, 40.0)


@pytest.fixture
def grid1d_fine():
    return make_grid(1, 2048, 40.0)


@pytest.fixture
def grid2d():
    return make_grid(2, 128, 20.0)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


@pytest.fixture(scope="session")
def superposition_run(tmp_path_factory):
    """The session's one default superposition run, through cli.run_one, which
    criterion 4 and the golden test share, so the curve runs once: its
    exit code, verdict and output folder, and the config, rows and wall time
    of the one superposition_curve call it made."""
    outdir = str(tmp_path_factory.mktemp("superposition"))
    calls = []

    def timed(config):
        t0 = time.perf_counter()
        rows = stresstests.superposition_curve(config)
        calls.append(SimpleNamespace(config=config, rows=rows, runtime_s=time.perf_counter() - t0))
        return rows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "superposition_curve", timed)
        code, verdict = cli.run_one("superposition", None, outdir, {})
    (call,) = calls
    return SimpleNamespace(code=code, verdict=verdict, outdir=outdir, **vars(call))
