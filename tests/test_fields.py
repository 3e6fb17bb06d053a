"""Madelung decomposition, quantum potential, and phase rate diagnostics."""
import math

import numpy as np
import pytest

from fisher_hydro import EvolutionSpec, PhysicalConstants, evolve, make_grid, polar_compose, polar_decompose
from fisher_hydro.brackets import bargmann_check
from fisher_hydro.fields import (
    ROUNDOFF_FLOOR,
    laplacian_quotient,
    masked_mean,
    node_mask,
    phase_time_derivative,
    quantum_potential,
    root_laplacian_quotient,
    unwrapped_phase,
)
from fisher_hydro.functionals import RegulariserSpec, el_derivative, el_residual
from fisher_hydro.grid import integrate, spectral_laplacian
from fisher_hydro.propagate import step_linear
from fisher_hydro.residuals import alpha_scan, continuity_curve, default_alpha_grid, eigen_coefficient_curve
from fisher_hydro.states import (
    bump_density,
    gaussian_packet,
    harmonic_potential,
    oscillator_energy,
    oscillator_state,
    vortex_state,
)
from fisher_hydro.stresstests import complexifier_scan


def gaussian_rho(grid, sigma=1.5, center=None):
    c = grid.length / 2 if center is None else center
    x = grid.axes[0] - c
    rho = np.exp(-(x**2) / sigma**2)
    return rho / integrate(rho, grid)


def test_polar_compose_uniform(grid1d, constants):
    rho = np.full(grid1d.shape, 1.0 / grid1d.length)
    wf = polar_compose(rho, np.zeros(grid1d.shape), constants.hbar, grid1d)
    assert np.allclose(wf.values, 1.0 / np.sqrt(grid1d.length))
    assert abs(wf.norm() - 1.0) <= 1e-12


def test_polar_compose_preserves_mass(grid1d, constants):
    rho = gaussian_rho(grid1d)
    S = 0.3 * (grid1d.axes[0] - 20.0)
    wf = polar_compose(rho, S, constants.hbar, grid1d)
    assert abs(integrate(wf.density(), grid1d) - integrate(rho, grid1d)) <= 1e-12


def test_polar_compose_rejects_negative_rho(grid1d, constants):
    rho = gaussian_rho(grid1d)
    rho[3] = -1e-9
    with pytest.raises(ValueError):
        polar_compose(rho, np.zeros(grid1d.shape), constants.hbar, grid1d)


def test_polar_roundtrip_on_mask(grid1d_fine, constants):
    rho = gaussian_rho(grid1d_fine, sigma=2.0)
    v0 = 0.8
    S = constants.m * v0 * (grid1d_fine.axes[0] - 20.0)
    wf = polar_compose(rho, S, constants.hbar, grid1d_fine)
    hydro = polar_decompose(wf, 1e-6, constants)
    m = hydro.mask
    assert np.max(np.abs(hydro.rho - rho)[m]) <= 1e-10
    # S recovered up to a constant
    ds = (unwrapped_phase(wf, constants.hbar) - S)[m]
    assert np.max(np.abs(ds - ds.mean())) <= 1e-8


def test_polar_decompose_plane_wave(grid1d, constants):
    k0 = grid1d.wavenumbers[6]
    x = grid1d.axes[0]
    wf = polar_compose(np.full(grid1d.shape, 1.0 / grid1d.length), constants.hbar * k0 * x, constants.hbar, grid1d)
    hydro = polar_decompose(wf, 1e-6, constants)
    assert np.allclose(hydro.rho, 1.0 / grid1d.length)
    m = hydro.mask
    assert np.max(np.abs(hydro.j[0][m] / hydro.rho[m] - constants.hbar * k0 / constants.m)) <= 1e-10


def test_grad_s_is_m_j_over_rho_bitwise(grid1d_fine, grid2d):
    # grad S is the guarded divide m j / rho, bit for bit, with the
    # decomposition's own m (2 here, so a dropped m shows)
    constants = PhysicalConstants(m=2.0)
    for wf in (gaussian_packet(grid1d_fine, 21.0, 1.0, 0.7, constants), vortex_state(grid2d, 1, 2.0)):
        hydro = polar_decompose(wf, 1e-6, constants)
        rho = hydro.rho
        expected = np.zeros_like(hydro.j)
        np.divide(constants.m * hydro.j, rho[None], out=expected, where=(rho > ROUNDOFF_FLOOR * rho.max())[None])
        assert np.array_equal(hydro.grad_s, expected)


def test_unwrapped_phase_refuses_2d(grid2d, constants):
    with pytest.raises(ValueError):
        unwrapped_phase(vortex_state(grid2d, 1, 2.0), constants.hbar)


def test_only_the_complexifier_unwraps(constants, monkeypatch):
    # the continuity, HJ and bracket diagnostics read rho, j and grad S only;
    # the complexifier unwraps each snapshot once, as two outward chains
    grid = make_grid(1, 256, 40.0)
    V = np.zeros(grid.shape)
    traj = evolve(gaussian_packet(grid, 20.0, 1.0, 0.5, constants), V, EvolutionSpec(dt=0.01, t_final=0.04),
                  constants)
    calls = []
    unwrap = np.unwrap
    monkeypatch.setattr(np, "unwrap", lambda *a, **k: calls.append(1) or unwrap(*a, **k))
    continuity_curve(traj, V, constants)
    alpha_scan(traj, V, default_alpha_grid(), constants)
    bargmann_check(polar_decompose(traj.snapshots[2][1], 1e-6, constants), V, constants.alpha_star, constants)
    assert calls == []
    snapshots = [wf for _, wf in traj.snapshots]
    complexifier_scan(np.array([0.5]), np.array([1.0]), snapshots, V, constants)
    assert len(calls) == 2 * len(snapshots)


def test_polar_decompose_excited_state_node_masked(grid1d_fine, constants):
    psi1 = oscillator_state(grid1d_fine, 1, 1.0, constants)
    hydro = polar_decompose(psi1, 1e-6, constants)
    node = np.argmin(np.abs(grid1d_fine.axes[0] - 20.0))
    assert not hydro.mask[node]


def test_gauge_covariance(grid1d_fine, constants):
    wf = gaussian_packet(grid1d_fine, 20.0, 0.7, 1.0, constants)
    theta = 1.234
    from fisher_hydro.fields import WaveField

    wf2 = WaveField(grid1d_fine, wf.values * np.exp(1j * theta), wf.time)
    h1 = polar_decompose(wf, 1e-6, constants)
    h2 = polar_decompose(wf2, 1e-6, constants)
    assert np.max(np.abs(h1.rho - h2.rho)) <= 1e-12
    assert np.max(np.abs(h1.j - h2.j)) <= 1e-12
    ds = (unwrapped_phase(wf2, constants.hbar) - unwrapped_phase(wf, constants.hbar))[h1.mask] / constants.hbar
    # constant offset theta mod 2 pi
    offset = np.mod(ds - theta + np.pi, 2 * np.pi) - np.pi
    assert np.max(np.abs(offset)) <= 1e-12


def test_quantum_potential_uniform_is_zero(grid1d, constants):
    rho = np.full(grid1d.shape, 1.0 / grid1d.length)
    mask = np.ones(grid1d.shape, dtype=bool)
    q = quantum_potential(rho, constants.alpha_star, grid1d, mask)
    assert np.max(np.abs(q)) <= 1e-10


@pytest.mark.parametrize("tol", [1e-8], ids=["spectral-1e-08"])
def test_quantum_potential_gaussian_closed_form(grid1d_fine, constants, tol):
    sigma = 1.5
    rho = gaussian_rho(grid1d_fine, sigma=sigma)
    mask = rho > 1e-6 * rho.max()
    alpha = 0.37
    q = quantum_potential(rho, alpha, grid1d_fine, mask)
    x = grid1d_fine.axes[0] - 20.0
    expected = alpha * (1.0 / sigma**2 - x**2 / sigma**4)
    assert np.max(np.abs(q - expected)[mask]) <= tol


def test_quantum_potential_homogeneity(grid1d_fine, constants):
    rho = gaussian_rho(grid1d_fine)
    mask = rho > 1e-6 * rho.max()
    q1 = quantum_potential(rho, 0.5, grid1d_fine, mask)
    q2 = quantum_potential(4.2 * rho, 0.5, grid1d_fine, mask)
    assert np.max(np.abs(q1 - q2)[mask]) <= 1e-8 * np.max(np.abs(q1))


def test_mask_monotonicity(grid1d_fine, constants):
    rho = gaussian_rho(grid1d_fine)
    loose = rho > 1e-8 * rho.max()
    tight = rho > 1e-4 * rho.max()
    q_loose = quantum_potential(rho, 0.5, grid1d_fine, loose)
    q_tight = quantum_potential(rho, 0.5, grid1d_fine, tight)
    # a site kept by the tighter mask reports the same value under the looser one
    assert np.array_equal(q_loose[tight], q_tight[tight])


def test_harmonic_ground_state_potential_balance(grid1d_fine, constants):
    # V + Q - E0 = 0 on the mask at the Fisher coefficient
    omega = 1.0
    psi0 = oscillator_state(grid1d_fine, 0, omega, constants)
    rho = psi0.density()
    mask = rho > 1e-6 * rho.max()
    V = harmonic_potential(grid1d_fine, omega, constants)
    q = quantum_potential(rho, constants.alpha_star, grid1d_fine, mask)
    e0 = oscillator_energy(0, omega, constants)
    assert np.max(np.abs(V + q - e0)[mask]) <= 1e-8


def test_phase_rate_stationary_state(grid1d_fine, constants):
    omega = 1.0
    psi0 = oscillator_state(grid1d_fine, 0, omega, constants)
    V = harmonic_potential(grid1d_fine, omega, constants)
    st = phase_time_derivative(psi0, V, constants)
    mask = psi0.density() > 1e-6 * psi0.density().max()
    assert np.max(np.abs(st + oscillator_energy(0, omega, constants))[mask]) <= 1e-8


def test_phase_rate_plane_wave(grid1d, constants):
    k0 = grid1d.wavenumbers[4]
    x = grid1d.axes[0]
    wf = polar_compose(np.full(grid1d.shape, 1.0 / grid1d.length), constants.hbar * k0 * x, constants.hbar, grid1d)
    st = phase_time_derivative(wf, np.zeros(grid1d.shape), constants)
    expected = -constants.hbar**2 * k0**2 / (2 * constants.m)
    assert np.max(np.abs(st - expected)) <= 1e-10


def test_phase_rate_matches_time_stencil(grid1d_fine, constants):
    # centered finite-difference oracle from propagated snapshots
    wf = gaussian_packet(grid1d_fine, 20.0, 1.0, 0.0, constants)
    V = np.zeros(grid1d_fine.shape)
    st = phase_time_derivative(wf, V, constants)
    delta = 2e-4
    plus, minus = step_linear(wf, V, delta, constants), step_linear(wf, V, -delta, constants)
    mask = polar_decompose(plus, 1e-6, constants).mask & polar_decompose(minus, 1e-6, constants).mask
    fd = (unwrapped_phase(plus, constants.hbar) - unwrapped_phase(minus, constants.hbar)) / (2 * delta)
    assert np.max(np.abs(st - fd)[mask]) <= 1e-6


def test_masked_mean_empty_mask():
    assert masked_mean(np.ones(8), np.zeros(8, dtype=bool)) == 0.0


def test_node_mask_is_the_inline_cut(grid1d_fine, constants):
    rho = oscillator_state(grid1d_fine, 1, 1.0, constants).density()
    for eps in (ROUNDOFF_FLOOR, 1e-6, 1e-5, 0.5, 0.999):
        assert np.array_equal(node_mask(rho, eps), rho > eps * rho.max())


@pytest.mark.parametrize("eps", [0.0, -1.0, 1e-20, 1.0, 2.0])
def test_node_mask_refuses_eps_outside_its_range(eps):
    # below ROUNDOFF_FLOOR a quotient by rho reads round-off; at 1 or above no site is kept
    with pytest.raises(ValueError, match=f"^mask_eps must satisfy 1e-13 <= mask_eps < 1, got {eps:g}$"):
        node_mask(np.ones(8), eps)


def test_node_mask_refuses_a_density_zero_everywhere():
    with pytest.raises(ValueError, match="^node mask holds no site: max\\(rho\\) is 0$"):
        node_mask(np.zeros(8), 1e-6)


def _fisher_el_states(constants):
    """fisher-el's Gaussian, bump and node-masked first excited state at the
    suite's defaults: (rho, signed root, mask, grid) each."""
    grid = make_grid(1, 1024, 40.0)
    x = grid.axes[0] - 20.0
    rho_g = np.exp(-(x**2) / 1.5**2)
    rho_g /= float(np.sum(rho_g) * grid.cell_volume)
    grid_b = make_grid(1, 4096, 40.0)
    rho_b = bump_density(grid_b, 20.0, 8.0)
    psi1 = oscillator_state(grid, 1, 1.0, constants)
    rho_e, root_e = psi1.density(), psi1.values.real
    return [
        (rho_g, np.sqrt(rho_g), rho_g > 1e-5 * rho_g.max(), grid),
        (rho_b, np.sqrt(rho_b), rho_b > 1e-5 * rho_b.max(), grid_b),
        (rho_e, root_e, (rho_e > 1e-5 * rho_e.max()) & (np.abs(x) >= 0.05), grid),
    ]


def test_laplacian_quotients_keep_the_bits_of_the_inline_formulas(constants):
    # quantum_potential, el_residual and eigen_coefficient_curve share
    # root_laplacian_quotient; each equals, bit for bit, the formula it once
    # computed inline
    c_grid = np.linspace(0.5, 1.5, 41)
    for rho, root, mask, grid in _fisher_el_states(constants):
        lap = spectral_laplacian(root, grid)
        where = mask & (np.abs(root) > 0)
        quot = np.zeros(grid.shape)
        np.divide(lap, root, out=quot, where=where)
        assert np.array_equal(root_laplacian_quotient(root, grid, where), quot)

        # el_residual scales the quotient by -4C directly; its residual keeps
        # the bits of the quotient scaled in place and zeroed off the mask
        old_fisher = quot.copy()
        old_fisher *= -4.0 * 0.25
        old_fisher[~mask] = 0.0
        for spec in (RegulariserSpec("fisher", 0.25), RegulariserSpec("constant", 0.25)):
            diff = el_derivative(spec, rho, grid, mask) - old_fisher
            num = math.sqrt(max(float(np.sum(np.where(mask, diff**2, 0.0))), 0.0))
            den = math.sqrt(max(float(np.sum(np.where(mask, old_fisher**2, 0.0))), 1e-300))
            assert el_residual(spec, rho, root, grid, mask) == num / den

        V = harmonic_potential(grid, 1.0, constants)
        old_curve = np.empty(len(c_grid))
        for idx, cc in enumerate(c_grid):
            f = V - cc * 0.5 * quot - 1.5
            old_curve[idx] = math.sqrt(max(float(np.sum(np.where(mask, f**2 * rho, 0.0)) * grid.cell_volume), 0.0))
        assert np.array_equal(eigen_coefficient_curve(rho, root, V, 1.5, c_grid, 0.5, grid, mask), old_curve)

        sqrt_rho = np.sqrt(np.clip(rho, 0.0, None))
        old_lq = np.zeros_like(rho)
        np.divide(spectral_laplacian(sqrt_rho, grid), sqrt_rho, out=old_lq, where=mask & (rho > 1e-300))
        assert np.array_equal(laplacian_quotient(rho, grid, mask), old_lq)

        old_q = old_lq.copy()
        old_q *= -0.5
        old_q[~mask] = 0.0
        assert np.array_equal(quantum_potential(rho, 0.5, grid, mask), old_q)


def _mesh_centered(grid, center):
    """The signed periodic distances from center on the grid.coords() meshes."""
    xy = grid.coords()
    return [(xy[a] - center[a] + 0.5 * grid.length) % grid.length - 0.5 * grid.length for a in range(2)]


@pytest.mark.parametrize("n", [128, 256])
def test_2d_states_from_per_axis_coordinates_keep_the_mesh_bits(n, constants):
    # vortex_state and harmonic_potential broadcast each axis's coordinate;
    # their bytes are those of the formulas on the grid.coords() meshes
    grid = make_grid(2, n, 20.0)
    for winding in range(-2, 4):
        for center in (None, (7.3, 12.9), (0.4, 19.7)):
            x, y = _mesh_centered(grid, (10.0, 10.0) if center is None else center)
            zpow = (x + 1j * y) ** abs(winding) if winding != 0 else np.ones(grid.shape, dtype=complex)
            if winding < 0:
                zpow = np.conj(zpow)
            values = zpow * np.exp(-(x**2 + y**2) / (2.0 * 1.5**2))
            values = values / np.sqrt(np.sum(np.abs(values) ** 2).real * grid.cell_volume)
            assert vortex_state(grid, winding, 1.5, center).values.tobytes() == values.tobytes()
    for hbar, m, omega in ((1.0, 1.0, 1.0), (0.7, 2.0, 0.3)):
        x, y = _mesh_centered(grid, (10.0, 10.0))
        V = 0.5 * m * omega**2 * (x**2 + y**2)
        assert harmonic_potential(grid, omega, PhysicalConstants(hbar, m)).tobytes() == V.tobytes()
