"""Continuity and HJ residual diagnostics, alpha scans, multi-mass scans."""
import math

import numpy as np
import pytest

from fisher_hydro import EvolutionSpec, PhysicalConstants, evolve, make_grid
from fisher_hydro.fields import (
    WaveField,
    laplacian_quotient,
    masked_mean,
    phase_time_derivative,
    polar_decompose,
)
from fisher_hydro.grid import integrate
from fisher_hydro.propagate import step_linear, symmetric_pair
from fisher_hydro.residuals import (
    ScanResult,
    _hj_from_parts,
    _hj_parts,
    alpha_scan,
    continuity_curve,
    continuity_residual,
    default_alpha_grid,
    eigen_coefficient_curve,
    hj_residual,
    multi_mass_scan,
    subtract_masked_mean,
)
from fisher_hydro.states import (
    boost,
    gaussian_packet,
    harmonic_potential,
    oscillator_energy,
    oscillator_state,
    vortex_state,
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
    minus, plus = symmetric_pair(wf, V, traj.spec, C)
    rc = continuity_residual((minus, wf, plus), C)
    assert rc <= 1e-6


def test_continuity_rises_under_diffusion():
    grid = make_grid(1, 1024, 60.0)
    psi = gaussian_packet(grid, 30.0, 1.0, 0.0, C)
    V = np.zeros(grid.shape)
    spec = EvolutionSpec(kind="dg_diffusion", dt=0.005, t_final=0.5, record_stride=50, D=0.05)
    traj = evolve(psi, V, spec, C)
    _, wf = traj.snapshots[-1]
    minus, plus = symmetric_pair(wf, V, spec, C)
    rc = continuity_residual((minus, wf, plus), C)
    assert rc > 1e-3


def boosted_2d_state(v):
    """A 2D Gaussian of width 1.5 at the centre of a 128^2 box of side 40,
    boosted to velocity v and evolved freely to t = 0.5.  The boosts move it
    by whole cells, so both frames sample it on the same lattice points."""
    grid = make_grid(2, 128, 40.0)
    x, y = grid.coords() - 20.0
    phase = C.m * (v[0] * x + v[1] * y) / C.hbar
    psi = WaveField(grid, np.exp(-(x**2 + y**2) / (2 * 1.5**2) + 1j * phase)).normalized()
    V = np.zeros(grid.shape)
    spec = EvolutionSpec(kind="linear", dt=0.01, t_final=0.5, record_stride=50)
    return evolve(psi, V, spec, C).snapshots[-1][1], V, spec


def test_2d_residuals_floor_and_boost_invariance():
    # continuity and HJ on a two-axis state, at rest and moved by (2, -1)
    # cells: at the floor in both frames, and the same in both
    rest, moving = [], []
    for v, out in (((0.0, 0.0), rest), ((1.25, -0.625), moving)):
        wf, V, spec = boosted_2d_state(v)
        minus, plus = symmetric_pair(wf, V, spec, C)
        out.append(continuity_residual((minus, wf, plus), C))
        out.extend(hj_residual(wf, V, r * C.alpha_star, C) for r in (0.9, 1.0, 1.1))
    for r_cont, _, r_hj_star, _ in (rest, moving):
        assert r_cont <= 1e-8
        assert r_hj_star <= 1e-10
    assert moving[0] == pytest.approx(rest[0], rel=1e-8)
    assert moving[1] == pytest.approx(rest[1], rel=1e-10)
    assert moving[3] == pytest.approx(rest[3], rel=1e-10)


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


def test_alpha_scan_r_cont_steps_the_trajectory_own_flow():
    # on a DG trajectory the centred pairs are DG steps: alpha_scan reports
    # the mean of continuity_curve, which diffusion lifts off the floor
    grid = make_grid(1, 1024, 60.0)
    V = np.zeros(grid.shape)
    spec = EvolutionSpec(kind="dg_diffusion", dt=0.005, t_final=0.5, record_stride=25, D=0.05)
    traj = evolve(gaussian_packet(grid, 30.0, 1.0, 0.0, C), V, spec, C)
    curve = continuity_curve(traj, V, C)
    assert len(curve) == len(traj.snapshots) - 2
    assert alpha_scan(traj, V, default_alpha_grid(), C).r_cont_mean == math.fsum(curve) / len(curve)
    assert min(curve) > 1e-3


def test_alpha_scan_decomposes_each_snapshot_once(monkeypatch):
    # continuity and the HJ parts share one decomposition per interior snapshot
    traj, V, grid = table1_trajectory(n=1024, t_final=1.0)
    calls = []
    monkeypatch.setattr("fisher_hydro.residuals.polar_decompose",
                        lambda *a, **k: calls.append(1) or polar_decompose(*a, **k))
    alpha_scan(traj, V, default_alpha_grid(), C)
    assert len(calls) == len(traj.snapshots) - 2


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


def test_eigen_coefficient_curve_miscalibrated_base(grid1d_fine):
    # a base coefficient 1.2 alpha* shifts the argmin to the reciprocal factor
    c_grid = np.linspace(0.5, 1.5, 101)
    psi = oscillator_state(grid1d_fine, 0, 1.0, C)
    rho = psi.density()
    curve = eigen_coefficient_curve(rho, psi.values.real, harmonic_potential(grid1d_fine, 1.0, C),
                                    oscillator_energy(0, 1.0, C), c_grid, 1.2 * C.alpha_star, grid1d_fine,
                                    rho > 1e-6 * rho.max())
    assert abs(ScanResult.from_curve(c_grid, curve).argmin - 1.0 / 1.2) <= 0.01


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


def _hj_curve_per_alpha(wf, V, ratios, eps_mask=1e-6):
    """The HJ residual curve as it was computed before its alpha-independent
    denominator sum was hoisted: s_t_com^2 + kin_v_com^2 formed anew per alpha."""
    grid = wf.grid
    hydro = polar_decompose(wf, eps_mask, C)
    s_t = phase_time_derivative(wf, V, C)
    grad_s = hydro.grad_s
    kin = np.sum(grad_s**2, axis=0) / (2.0 * C.m)
    qtilde = laplacian_quotient(hydro.rho, grid, hydro.mask)
    vbar = np.array([integrate(hydro.j[a], grid) for a in range(grid.dim)])
    vb = vbar.reshape((-1,) + (1,) * grid.dim)
    s_t_com = s_t + np.sum(vb * grad_s, axis=0) - 0.5 * C.m * float(np.sum(vbar**2))
    kin_v_com = np.sum((grad_s - C.m * vb) ** 2, axis=0) / (2.0 * C.m) + V
    invariant_sum, mask = s_t + kin + V, hydro.mask
    curve = []
    for alpha in ratios * C.alpha_star:
        num = masked_mean(subtract_masked_mean(invariant_sum - alpha * qtilde, mask) ** 2, mask)
        den = masked_mean(s_t_com**2 + kin_v_com**2 + (alpha * qtilde) ** 2, mask)
        curve.append(0.0 if den < 1e-280 else float(math.sqrt(num / den)))
    return curve


@pytest.mark.parametrize("boost_v", [0.0, 0.7])
def test_hj_parts_keep_the_bits_of_the_per_alpha_sum(boost_v):
    # the scan-alpha default trajectory's middle snapshot (and a boosted
    # one, whose co-moving terms are not zero), over the 40 default alphas
    traj, V, _ = table1_trajectory(n=4096, t_final=3.6, boost_v=boost_v)
    _, wf = traj.snapshots[len(traj.snapshots) // 2]
    ratios = default_alpha_grid()
    parts = _hj_parts(wf, V, C, 1e-6)
    hoisted = [_hj_from_parts(parts, r * C.alpha_star) for r in ratios]
    assert len(ratios) == 40
    assert [x.hex() for x in hoisted] == [x.hex() for x in _hj_curve_per_alpha(wf, V, ratios)]


def _mask_runs(mask):
    """The number of runs of masked-in sites along the flattened mask."""
    flat = mask.ravel().astype(np.int8)
    return int(np.count_nonzero(np.diff(flat) == 1) + flat[0])


def _nodal_trajectory(n):
    """A boosted third oscillator level in its trap, two steps on a box whose
    node mask (four runs, off both ends of the grid) spans more sites than
    numpy's 8192-element buffer at n = 16384."""
    grid = make_grid(1, n, 12.0)
    V = harmonic_potential(grid, 1.0, C)
    psi = boost(oscillator_state(grid, 3, 1.0, C), 0.3, C)
    return evolve(psi, V, EvolutionSpec(dt=0.01, t_final=0.02), C), V


def _vortex_trajectory():
    """An off-centre winding-one vortex on 64^2, whose mask is a disc with a
    hole at the node, two free steps."""
    grid = make_grid(2, 64, 20.0)
    psi = vortex_state(grid, 1, 2.0, (9.3, 11.1))
    return evolve(psi, np.zeros(grid.shape), EvolutionSpec(dt=0.01, t_final=0.02), C), np.zeros(grid.shape)


@pytest.mark.parametrize("case, eps_mask", [("single-run", 1e-6), ("nodal-4096", 1e-3), ("nodal-16384", 1e-3),
                                            ("vortex-2d", 1e-2)])
def test_alpha_cells_on_the_mask_extent_keep_the_full_grid_bits(case, eps_mask):
    # each alpha cell sums over the mask's leading-axis extent; hj_residual
    # and the alpha_scan curve keep the bits of the full-grid sums.  The
    # nodal cases' mask_eps cuts the grid sites beside each node.
    if case == "single-run":
        traj, V, _ = table1_trajectory(n=4096, t_final=0.6)
    elif case == "vortex-2d":
        traj, V = _vortex_trajectory()
    else:
        traj, V = _nodal_trajectory(int(case.split("-")[1]))
    interior = [wf for _, wf in traj.snapshots[1:-1]]
    mask = polar_decompose(interior[0], eps_mask, C).mask
    assert not mask.flat[0] and not mask.flat[-1]
    assert (_mask_runs(mask) == 1) == (case == "single-run")
    if case == "nodal-16384":
        assert np.count_nonzero(mask) > 8192

    ratios = default_alpha_grid()
    reference = [_hj_curve_per_alpha(wf, V, ratios, eps_mask) for wf in interior]
    for wf, curve in zip(interior, reference):
        assert [hj_residual(wf, V, r * C.alpha_star, C, eps_mask).hex() for r in ratios] == [x.hex() for x in curve]
    mean_curve = [math.fsum(col) / len(reference) for col in zip(*reference)]
    scanned = alpha_scan(traj, V, ratios, C, eps_mask).residuals
    assert [float(x).hex() for x in scanned] == [x.hex() for x in mean_curve]
