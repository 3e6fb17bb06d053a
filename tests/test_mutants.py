"""Kernel mutants: each breaks the Strang kernel on purpose, and the check rows
that notice are pinned, so a gate that stops catching its mutant fails here.

A mutant replaces propagate._strang and the name that stresstests binds, so
every evolution runs it, symmetric_pair's centred steps included.  The six
suites that evolve cheaply run at their defaults through run_one.

Two mutants escape all six suites, and so are no cases here:
- the potential factor at 1.01 V: time-reversal's K U K U = I holds for any
  real V, and complexifier's and the continuity and HJ rows' rates come from
  the model at the config's V (scan-alpha, continuity and galilei evolve at
  V = 0);
- a beta = 1e-7 kick hidden in every linear flow: no cheap suite's bound is
  that tight.  Superposition's linear floors catch it (1.36e-8), at the cost
  of a run of its own.
"""
import numpy as np
import pytest

from fisher_hydro import PhysicalConstants, propagate, stresstests
from fisher_hydro.cli import EXIT_FALSIFIED, EXIT_PASS, run_one

REAL = propagate._strang
CHEAP = ("scan-alpha", "continuity", "dg-entropy", "time-reversal", "galilei", "complexifier")


def heavier_kinetic(V, grid, dt, constants, spec):
    """The kinetic factor at mass 1.01 m, the only factor of the kernel that reads m."""
    return REAL(V, grid, dt, PhysicalConstants(constants.hbar, 1.01 * constants.m), spec)


def lie_linear(V, grid, dt, constants, spec):
    """The linear flow by first-order (Lie) splitting: a whole kinetic step,
    then exp(-iV dt/h); every other kind runs the real kernel."""
    if spec.kind != "linear":
        return REAL(V, grid, dt, constants, spec)
    kinetic = REAL(np.zeros(grid.shape), grid, dt, constants, spec)
    potential = np.exp(-1j * V * dt / constants.hbar)

    def advance(values, n_steps, t0=0.0):
        for _ in range(n_steps):
            values = potential * kinetic(values, 1)
        return np.array(values, dtype=complex)

    return advance


@pytest.mark.parametrize("mutant, failed", [
    (REAL, set()),
    (heavier_kinetic, {("scan-alpha", "mean_r_cont"), ("continuity", "mean_r_cont")}),
    (lie_linear, {("time-reversal", "defect_d0"), ("time-reversal", "floor_ratio")}),
], ids=["unpatched", "kinetic-1.01m", "lie-linear"])
def test_kernel_mutant_fails_exactly_its_rows(tmp_path, monkeypatch, mutant, failed):
    monkeypatch.setattr(propagate, "_strang", mutant)
    monkeypatch.setattr(stresstests, "_strang", mutant)
    seen = set()
    for test in CHEAP:
        code, verdict = run_one(test, None, str(tmp_path / test), {})
        assert code in (EXIT_PASS, EXIT_FALSIFIED)
        seen |= {(test, row) for row, check in verdict.thresholds.items() if not check["pass"]}
    assert seen == failed
