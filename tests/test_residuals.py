"""Continuity and HJ residual diagnostics, alpha scans, momentum balance."""
import math

import numpy as np
import pytest

from fisher_hydro import EvolutionSpec, PhysicalConstants, evolve, make_grid, polar_compose
from fisher_hydro.fields import WaveField
from fisher_hydro.propagate import step_linear, symmetric_pair
from fisher_hydro.residuals import (
    alpha_scan,
    continuity_residual,
    default_alpha_grid,
    hj_residual,
    momentum_balance_residual,
    multi_mass_scan,
    subtract_masked_mean,
)
from fisher_hydro.states import (
    boost,
    gaussian_packet,
    harmonic_potential,
    oscillator_state,
)

C = PhysicalConstants()


def eigen_triple(grid, level, omega):
    """Analytic stationary snapshot triple (rho is exactly time independent)."""
    psi = oscillator_state(grid, level, omega, C)
    e = C.hbar * omega * (level + 0.5)
    dt = 0.01
    out = []
    for t in (-dt, 0.0, dt):
        out.append(WaveField(grid, psi.values * np.exp(-1j * e * t / C.hbar), t))
    return tuple(out)


def table1_trajectory(n=2048, dt=0.02, t_final=2.0, boost_v=0.0, length=122.88):
    grid = make_grid(1, n, length)
    psi = gaussian_packet(grid, length / 2, 1.0, 0.0, C)
    if boost_v:
        psi = boost(psi, boost_v, C)
    spec = EvolutionSpec(kind="linear", dt=dt, t_final=t_final, record_stride=int(round(0.2 / dt)))
    V = np.zeros(grid.shape)
    return evolve(psi, V, spec, C), V, grid


def test_continuity_stationary_state_at_floor(grid1d):
    triple = eigen_triple(grid1d, 0, 1.0)
    assert continuity_residual(triple, C) <= 1e-12


def test_continuity_free_packet_floor():
    traj, V, grid = table1_trajectory()
    _, wf = traj.snapshots[len(traj.snapshots) // 2]
    minus, plus = symmetric_pair(wf, V, traj.spec.dt, C)
    rc = continuity_residual((minus, wf, plus), C)
    assert rc <= 1e-6


def test_continuity_rises_under_diffusion():
    grid = make_grid(1, 1024, 60.0)
    psi = gaussian_packet(grid, 30.0, 1.0, 0.0, C)
    V = np.zeros(grid.shape)
    spec = EvolutionSpec(kind="dg_diffusion", dt=0.005, t_final=0.5, record_stride=50, D=0.05)
    traj = evolve(psi, V, spec, C)
    _, wf = traj.snapshots[-1]
    minus, plus = symmetric_pair(wf, V, spec.dt, C, kind="dg_diffusion", D=0.05)
    rc = continuity_residual((minus, wf, plus), C)
    assert rc > 1e-3


def test_hj_residual_eigenstate_floor(grid1d_fine):
    psi = oscillator_state(grid1d_fine, 0, 1.0, C)
    V = harmonic_potential(grid1d_fine, 1.0, C)
    assert hj_residual(psi, V, C.alpha_star, C) <= 1e-8


def test_hj_residual_alpha_zero_positive(grid1d_fine):
    psi = oscillator_state(grid1d_fine, 0, 1.0, C)
    V = harmonic_potential(grid1d_fine, 1.0, C)
    assert hj_residual(psi, V, 0.0, C) >= 1e-2


def test_hj_residual_linear_in_delta(grid1d_fine):
    psi = oscillator_state(grid1d_fine, 0, 1.0, C)
    V = harmonic_potential(grid1d_fine, 1.0, C)
    values = [hj_residual(psi, V, (1 + d) * C.alpha_star, C) for d in (0.05, 0.1, 0.2)]
    assert 1.6 <= values[1] / values[0] <= 2.4
    assert 1.6 <= values[2] / values[1] <= 2.4


def test_mean_subtraction_idempotent(grid1d):
    r = np.random.default_rng(2)
    f = r.standard_normal(grid1d.shape)
    mask = r.random(grid1d.shape) > 0.3
    once = subtract_masked_mean(f, mask)
    twice = subtract_masked_mean(once, mask)
    assert np.max(np.abs(once - twice)) <= 1e-15


def test_alpha_scan_finds_fisher_scale():
    traj, V, grid = table1_trajectory()
    result = alpha_scan(traj, V, default_alpha_grid(), C)
    assert abs(result.argmin - 1.0) <= 0.0125
    assert not result.boundary
    # single minimum: the curve decreases then increases exactly once
    diffs = np.sign(np.diff(result.residuals))
    switches = np.count_nonzero(np.diff(diffs))
    assert switches == 1


def test_alpha_scan_r_cont_independent_of_alpha():
    # r_cont does not depend on alpha: scans over two different alpha grids
    # of the same trajectory report the same finite r_cont_mean, bit for bit
    traj, V, grid = table1_trajectory(n=1024, t_final=1.0)
    base = alpha_scan(traj, V, default_alpha_grid(), C)
    other = alpha_scan(traj, V, np.linspace(0.3, 2.0, 35), C)
    assert np.isfinite(base.r_cont_mean)
    assert other.r_cont_mean == base.r_cont_mean


def test_alpha_scan_boost_invariance():
    _, c0, g = table1_trajectory(n=2048, dt=0.02, t_final=1.2)
    traj0, V, _ = table1_trajectory(n=2048, dt=0.02, t_final=1.2, boost_v=0.0)
    traj1, _, _ = table1_trajectory(n=2048, dt=0.02, t_final=1.2, boost_v=1.5)
    grid_ratio = default_alpha_grid()
    r0 = alpha_scan(traj0, V, grid_ratio, C)
    r1 = alpha_scan(traj1, V, grid_ratio, C)
    assert np.max(np.abs(r0.residuals - r1.residuals)) <= 1e-10
    assert r0.argmin_grid == r1.argmin_grid
    assert abs(r0.r_cont_mean - r1.r_cont_mean) <= 1e-10


def test_alpha_scan_rescaled_constants():
    # alpha_star transforms covariantly under (hbar, m) -> (2 hbar, 2 m)
    consts2 = PhysicalConstants(hbar=2.0, m=2.0)
    grid = make_grid(1, 2048, 122.88)
    psi = gaussian_packet(grid, grid.length / 2, 1.0, 0.0, consts2)
    spec = EvolutionSpec(kind="linear", dt=0.02, t_final=1.2, record_stride=10)
    traj = evolve(psi, np.zeros(grid.shape), spec, consts2)
    result = alpha_scan(traj, np.zeros(grid.shape), default_alpha_grid(), consts2)
    assert abs(result.argmin - 1.0) <= 0.0125


def test_alpha_scan_rejects_small_grid():
    traj, V, grid = table1_trajectory(n=1024, t_final=0.6)
    with pytest.raises(ValueError):
        alpha_scan(traj, V, np.linspace(0.5, 1.5, 11), C)


def test_multi_mass_common_minimum(grid1d_fine):
    c_grid = np.linspace(0.5, 1.5, 41)
    results = multi_mass_scan(c_grid, [0.5, 1.0, 3.0], 1.0, 1.0, grid1d_fine)
    for m, res in results.items():
        assert abs(res.argmin - 1.0) <= 0.01, f"mass {m}"
        assert not res.boundary


def test_multi_mass_miscalibrated_base(grid1d_fine):
    c_grid = np.linspace(0.5, 1.5, 101)
    base = {1.0: 1.2 * C.alpha_star}
    results = multi_mass_scan(c_grid, [1.0], 1.0, 1.0, grid1d_fine, alpha_base=base)
    assert abs(results[1.0].argmin - 1.0 / 1.2) <= 0.01


def momentum_triple(n=2048, dt_diag=2e-3):
    grid = make_grid(1, n, 61.44)
    psi = gaussian_packet(grid, grid.length / 2, 1.0, 0.0, C)
    V = np.zeros(grid.shape)
    spec = EvolutionSpec(kind="linear", dt=0.01, t_final=0.5, record_stride=50)
    wf = evolve(psi, V, spec, C).snapshots[-1][1]
    minus, plus = symmetric_pair(wf, V, dt_diag, C)
    return (minus, wf, plus), grid


def test_momentum_balance_floor_and_refinement():
    triple, _ = momentum_triple(n=2048, dt_diag=2e-3)
    r_base = momentum_balance_residual(triple, C.alpha_star, C)
    assert r_base <= 1e-5
    triple2, _ = momentum_triple(n=4096, dt_diag=5e-4)
    r_fine = momentum_balance_residual(triple2, C.alpha_star, C)
    assert r_base / r_fine >= 4.0


def test_momentum_balance_uniform_state(grid1d):
    rho = np.full(grid1d.shape, 1.0 / grid1d.length)
    wf = polar_compose(rho, np.zeros(grid1d.shape), C.hbar, grid1d)
    triple = (WaveField(grid1d, wf.values, -0.01), wf, WaveField(grid1d, wf.values, 0.01))
    assert momentum_balance_residual(triple, C.alpha_star, C) == 0.0


def test_momentum_balance_detects_wrong_alpha():
    triple, _ = momentum_triple()
    r_star = momentum_balance_residual(triple, C.alpha_star, C)
    r_off = momentum_balance_residual(triple, 1.2 * C.alpha_star, C)
    assert r_off >= 10.0 * r_star


def test_alpha_scan_boundary_flagged():
    traj, V, grid = table1_trajectory(n=1024, t_final=0.6)
    shifted = np.linspace(1.2, 2.2, 21)  # true minimum sits below the window
    result = alpha_scan(traj, V, shifted, C)
    assert result.boundary


def test_multi_mass_boundary_flagged(grid1d_fine):
    # the true minimum sits below the window: the scan reports its edge, flagged
    [result] = multi_mass_scan(np.linspace(1.2, 2.2, 21), [1.0], 1.0, 1.0, grid1d_fine).values()
    assert result.boundary
    assert result.argmin == result.argmin_grid == 1.2
