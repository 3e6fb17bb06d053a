"""Energy generator, entropy rates, regulariser EL derivatives, Gateaux oracles."""
import numpy as np
import pytest

from fisher_hydro import EvolutionSpec, PhysicalConstants, evolve, make_grid
from fisher_hydro.brackets import generator_value
from fisher_hydro.fields import polar_decompose
from fisher_hydro.functionals import (
    RegulariserSpec,
    el_derivative,
    el_residual,
    entropy_production_identity,
    fisher_information,
    fisher_laplacian_quotient,
    regulariser_value,
    shannon_entropy,
    shannon_entropy_rate,
)
from fisher_hydro.grid import integrate, spectral_gradient
from fisher_hydro.propagate import evolve_density_diffusion
from fisher_hydro.states import (
    gaussian_packet,
    harmonic_potential,
    oscillator_energy,
    oscillator_state,
)

C = PhysicalConstants()


def gaussian_rho(grid, sigma=1.5):
    x = grid.axes[0] - grid.length / 2
    rho = np.exp(-(x**2) / sigma**2)
    return rho / integrate(rho, grid)


def test_energy_uniform_is_zero(grid1d):
    from fisher_hydro.fields import polar_compose

    rho = np.full(grid1d.shape, 1.0 / grid1d.length)
    wf = polar_compose(rho, np.zeros(grid1d.shape), C.hbar, grid1d)
    hydro = polar_decompose(wf, 1e-6, C)
    assert abs(generator_value("H", hydro, np.zeros(grid1d.shape), C.alpha_star, C)) <= 1e-12


def test_energy_ground_state(grid1d_fine):
    psi = oscillator_state(grid1d_fine, 0, 1.0, C)
    hydro = polar_decompose(psi, 1e-6, C)
    V = harmonic_potential(grid1d_fine, 1.0, C)
    total = generator_value("H", hydro, V, C.alpha_star, C)
    assert abs(total - oscillator_energy(0, 1.0, C)) <= 1e-8
    assert fisher_information(hydro.rho, grid1d_fine) >= 0


def test_energy_conserved_on_linear_trajectory():
    grid = make_grid(1, 2048, 120.0)
    psi = gaussian_packet(grid, 60.0, 1.0, 0.5, C)
    spec = EvolutionSpec(kind="linear", dt=0.02, t_final=3.0, record_stride=30)
    V = np.zeros(grid.shape)
    traj = evolve(psi, V, spec, C)
    totals = [generator_value("H", polar_decompose(w, 1e-6, C), V, C.alpha_star, C) for _, w in traj.snapshots]
    drift = (max(totals) - min(totals)) / abs(totals[0])
    assert drift <= 1e-9


def test_fisher_info_identity(grid1d_fine):
    # I_F = 4 int |grad sqrt(rho)|^2
    rho = gaussian_rho(grid1d_fine)
    root = np.sqrt(rho)
    lhs = fisher_information(rho, grid1d_fine)
    rhs = 4.0 * integrate(spectral_gradient(root, grid1d_fine)[0] ** 2, grid1d_fine)
    assert abs(lhs - rhs) / rhs <= 1e-10


def test_shannon_rate_zero_diffusion(grid1d):
    rho0 = gaussian_rho(grid1d)
    spec = EvolutionSpec(kind="density_diffusion", dt=0.01, t_final=0.5, record_stride=10)
    traj = evolve_density_diffusion(rho0, spec, grid1d)
    _, measured, _ = shannon_entropy_rate(traj, 0.0)
    assert np.max(np.abs(measured)) <= 1e-10


def test_shannon_rate_matches_fisher_prediction(grid1d):
    rho0 = gaussian_rho(grid1d, sigma=np.sqrt(2.0))
    D = 0.05
    spec = EvolutionSpec(kind="density_diffusion", dt=0.005, t_final=2.0, record_stride=20, D=D)
    traj = evolve_density_diffusion(rho0, spec, grid1d)
    _, measured, predicted = shannon_entropy_rate(traj, D)
    assert np.max(np.abs(measured - predicted) / np.abs(predicted)) <= 1e-4


def test_shannon_rate_uniform(grid1d):
    rho0 = np.full(grid1d.shape, 1.0 / grid1d.length)
    spec = EvolutionSpec(kind="density_diffusion", dt=0.01, t_final=0.3, record_stride=5, D=0.05)
    traj = evolve_density_diffusion(rho0, spec, grid1d)
    _, measured, predicted = shannon_entropy_rate(traj, 0.05)
    assert np.max(np.abs(measured)) <= 1e-12
    assert np.max(np.abs(predicted)) <= 1e-12


def test_shannon_rate_needs_three_snapshots(grid1d):
    rho0 = gaussian_rho(grid1d)
    spec = EvolutionSpec(kind="density_diffusion", dt=0.01, t_final=0.01, record_stride=1, D=0.0)
    traj = evolve_density_diffusion(rho0, spec, grid1d)
    with pytest.raises(ValueError):
        shannon_entropy_rate(traj, 0.0)


def test_entropy_production_identity_quadrature(grid1d_fine):
    rho = gaussian_rho(grid1d_fine)
    production, predicted = entropy_production_identity(rho, 0.05, grid1d_fine)
    assert abs(production - predicted) / abs(predicted) <= 1e-10


def test_el_fisher_matches_laplacian_quotient(grid1d):
    # default-grid floor; the 1/rho amplification at the mask edge sets it
    rho = gaussian_rho(grid1d)
    mask = rho > 1e-4 * rho.max()
    spec = RegulariserSpec("fisher", 0.7)
    lhs = el_derivative(spec, rho, grid1d, mask)
    rhs = fisher_laplacian_quotient(np.sqrt(rho), 0.7, grid1d, mask)
    num = np.sqrt(np.sum((lhs - rhs)[mask] ** 2))
    den = np.sqrt(np.sum(rhs[mask] ** 2))
    assert num / den <= 1e-10


def test_el_constant_family_far_from_quotient(grid1d_fine):
    rho = gaussian_rho(grid1d_fine)
    mask = rho > 1e-5 * rho.max()
    res = el_residual(RegulariserSpec("constant", 0.7), rho, np.sqrt(rho), grid1d_fine, mask)
    assert res >= 1e-2


def test_power_minus_one_equals_fisher(grid1d_fine):
    rho = gaussian_rho(grid1d_fine)
    mask = rho > 1e-6 * rho.max()
    a = el_derivative(RegulariserSpec("fisher", 0.7), rho, grid1d_fine, mask)
    b = el_derivative(RegulariserSpec("power", 0.7, power=-1.0), rho, grid1d_fine, mask)
    scale = np.max(np.abs(a))
    assert np.max(np.abs(a - b)) <= 1e-13 * scale


def test_el_one_homogeneous(grid1d_fine):
    rho = gaussian_rho(grid1d_fine)
    mask = rho > 1e-6 * rho.max()
    a = el_derivative(RegulariserSpec("fisher", 0.5), rho, grid1d_fine, mask)
    b = el_derivative(RegulariserSpec("fisher", 1.0), rho, grid1d_fine, mask)
    assert np.array_equal(2.0 * a, b)


def _masked_perturbation(grid, mask, seed):
    # smooth, zero-mean, and confined well inside the mask so the masked
    # functional's integration-by-parts boundary terms stay negligible
    r = np.random.default_rng(seed)
    x = grid.axes[0] - grid.length / 2
    window = np.exp(-((x / 1.0) ** 2))
    eta = r.standard_normal(grid.shape)
    k = grid.wavenumbers
    eta = np.fft.ifft(np.fft.fft(eta) * np.exp(-((k / 2.0) ** 2))).real * window
    eta -= window * integrate(eta, grid) / integrate(window, grid)
    return eta


@pytest.mark.parametrize("family,kw", [("fisher", {}), ("power", {"power": 0.5})])
def test_gateaux_directional_derivative(grid1d_fine, family, kw):
    rho = gaussian_rho(grid1d_fine)
    mask = rho > 1e-4 * rho.max()
    spec = RegulariserSpec(family, 0.4, **kw)
    eta = _masked_perturbation(grid1d_fine, mask, 9)
    dfield = el_derivative(spec, rho, grid1d_fine, mask)
    analytic = integrate(dfield * eta, grid1d_fine)

    def fd(eps):
        fp = regulariser_value(spec, rho + eps * eta, grid1d_fine, mask)
        fm = regulariser_value(spec, rho - eps * eta, grid1d_fine, mask)
        return (fp - fm) / (2 * eps)

    err1 = abs(fd(0.1) - analytic)
    err2 = abs(fd(0.05) - analytic)
    assert 3.5 <= err1 / err2 <= 4.5


def test_gateaux_constant_family_exact(grid1d_fine):
    # F is exactly quadratic in rho for constant f, so the centered difference
    # has no epsilon^2 term at all: it must match the EL pairing to round-off
    rho = gaussian_rho(grid1d_fine)
    mask = rho > 1e-4 * rho.max()
    spec = RegulariserSpec("constant", 0.4)
    eta = _masked_perturbation(grid1d_fine, mask, 9)
    analytic = integrate(el_derivative(spec, rho, grid1d_fine, mask) * eta, grid1d_fine)
    fd = (regulariser_value(spec, rho + 0.01 * eta, grid1d_fine, mask)
          - regulariser_value(spec, rho - 0.01 * eta, grid1d_fine, mask)) / 0.02
    assert abs(fd - analytic) <= 1e-10 * max(abs(analytic), 1.0)


def test_regulariser_spec_validation():
    with pytest.raises(ValueError):
        RegulariserSpec("nope", 1.0)
    with pytest.raises(ValueError):
        RegulariserSpec("fisher", -1.0)
