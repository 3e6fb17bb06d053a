"""Functional Poisson brackets and the Bargmann algebra verification."""
import numpy as np
import pytest

from fisher_hydro import EvolutionSpec, PhysicalConstants, brackets, evolve, make_grid, polar_compose, polar_decompose
from fisher_hydro.brackets import (
    FunctionalDerivs,
    bargmann_check,
    galilean_generators,
    hamiltonian,
    poisson_bracket,
)
from fisher_hydro.fields import unwrapped_phase
from fisher_hydro.grid import integrate
from fisher_hydro.states import boost, gaussian_packet, harmonic_potential

C = PhysicalConstants()

# criterion 6's bounds on each closure's |value - expected| / scale
BOUNDS = {"hp": 1e-10, "hk_plus_p": 1e-8, "pk_plus_m": 1e-10}


def closes(entries, bounds=BOUNDS):
    """Every entry within its closure's bound (the entry's name less its axis digits), relative to its scale."""
    return all(abs(e["value"] - e["expected"]) <= bounds[name.rstrip("0123456789")] * e["scale"]
               for name, e in entries.items())


def packet_hydro(grid, k0=1.5, sigma=1.0, x0=None):
    psi = gaussian_packet(grid, grid.length / 2 if x0 is None else x0, sigma, 0.0, C)
    if k0:
        psi = boost(psi, k0, C)
    return polar_decompose(psi, 1e-6, C)


def test_bracket_antisymmetry(grid1d):
    r = np.random.default_rng(1)
    f = FunctionalDerivs(r.standard_normal(grid1d.shape), r.standard_normal(grid1d.shape), 0.0)
    g = FunctionalDerivs(r.standard_normal(grid1d.shape), r.standard_normal(grid1d.shape), 0.0)
    fg = poisson_bracket(f, g, grid1d)
    gf = poisson_bracket(g, f, grid1d)
    assert abs(fg + gf) <= 1e-15 * max(abs(fg), 1.0)


def test_bracket_self_is_zero(grid1d):
    r = np.random.default_rng(2)
    f = FunctionalDerivs(r.standard_normal(grid1d.shape), r.standard_normal(grid1d.shape), 0.0)
    assert poisson_bracket(f, f, grid1d) == 0.0


def test_phase_generator_pairing(grid1d):
    # C = int rho has d_rho = 1, d_S = 0; against a smeared S-shift generator
    # the bracket reproduces {S, C} = -1 smeared: {C, G} = +int smear
    x = grid1d.axes[0]
    smear = np.exp(-((x - 20.0) ** 2))
    c_gen = FunctionalDerivs(np.ones(grid1d.shape), np.zeros(grid1d.shape), 1.0)
    g_gen = FunctionalDerivs(np.zeros(grid1d.shape), smear, 0.0)
    out = poisson_bracket(c_gen, g_gen, grid1d)
    assert abs(out - integrate(smear, grid1d)) <= 1e-12
    assert abs(poisson_bracket(g_gen, c_gen, grid1d) + integrate(smear, grid1d)) <= 1e-12


def test_h_derivative_on_uniform_state(grid1d):
    rho = np.full(grid1d.shape, 1.0 / grid1d.length)
    wf = polar_compose(rho, np.zeros(grid1d.shape), C.hbar, grid1d)
    hydro = polar_decompose(wf, 1e-6, C)
    h = hamiltonian(hydro, np.zeros(grid1d.shape), C.alpha_star, C)
    assert np.max(np.abs(h.d_S)) <= 1e-12


def test_p_derivatives(grid1d_fine):
    hydro = packet_hydro(grid1d_fine)
    p = galilean_generators(hydro, C)["P0"]
    from fisher_hydro.grid import spectral_gradient

    assert np.array_equal(p.d_S, -spectral_gradient(hydro.rho, grid1d_fine)[0])
    # d_rho = dS = m j/rho on the bulk
    bulk = hydro.rho > 1e-3 * hydro.rho.max()
    assert np.max(np.abs(p.d_rho[bulk] - C.m * hydro.j[0][bulk] / hydro.rho[bulk])) <= 1e-12


def test_generator_gateaux(grid1d_fine):
    # directional derivative of the generator value matches the deriv fields
    grid = grid1d_fine
    psi = gaussian_packet(grid, grid.length / 2, 1.0, 0.0, C)
    hydro = polar_decompose(psi, 1e-6, C)
    phase = unwrapped_phase(psi, C.hbar)
    x = grid.axes[0] - 20.0
    r = np.random.default_rng(5)
    window = np.exp(-(x**2) / 2.0)
    k = grid.wavenumbers

    def smooth_noise(seed):
        e = np.random.default_rng(seed).standard_normal(grid.shape)
        return np.fft.ifft(np.fft.fft(e) * np.exp(-((k / 2.0) ** 2))).real * window

    # both the noise and the mean-removal shape scale with rho, so
    # rho + eps*eta stays positive for small eps
    shape = window * hydro.rho / hydro.rho.max()
    eta_rho = smooth_noise(5) * hydro.rho / hydro.rho.max()
    eta_rho -= shape * integrate(eta_rho, grid) / integrate(shape, grid)
    eta_s = smooth_noise(6)
    V = harmonic_potential(grid, 0.5, C)

    def generator(name, h):
        return hamiltonian(h, V, C.alpha_star, C) if name == "H" else galilean_generators(h, C, t=0.3)[name]

    for name in ("H", "P0", "K0"):
        derivs = generator(name, hydro)
        analytic = integrate(derivs.d_rho * eta_rho + derivs.d_S * eta_s, grid)

        def value(eps):
            wf = polar_compose(hydro.rho + eps * eta_rho, phase + eps * eta_s, C.hbar, grid)
            h = polar_decompose(wf, 1e-6, C)
            return generator(name, h).value

        err1 = abs((value(0.02) - value(-0.02)) / 0.04 - analytic)
        err2 = abs((value(0.01) - value(-0.01)) / 0.02 - analytic)
        scale = max(abs(analytic), 1.0)
        assert err1 <= 1e-3 * scale, name
        # second-order stencil: quartic term shrinks ~4x (allow slack for floors)
        assert err1 / max(err2, 1e-14) >= 2.0 or err1 <= 1e-9 * scale, name


def test_bargmann_closure_free_packet(grid1d_fine):
    hydro = packet_hydro(grid1d_fine, k0=1.5)
    entries = bargmann_check(hydro, np.zeros(grid1d_fine.shape), C.alpha_star, C, t=0.0)
    assert closes(entries)
    assert abs(entries["hp0"]["value"]) <= 1e-10
    assert abs(entries["pk_plus_m00"]["value"]) <= 1e-10
    p_val = galilean_generators(hydro, C)["P0"].value
    assert abs(entries["hk_plus_p0"]["value"]) <= 1e-8 * abs(p_val)
    # the check measures and leaves the verdict to its caller's bounds
    assert all(set(e) == {"value", "expected", "scale", "closure"} for e in entries.values())
    assert entries["hk_plus_p0"]["scale"] == max(abs(p_val), 1.0)
    assert entries["pk_plus_m00"]["scale"] == max(C.m, 1.0)


def test_bargmann_closure_boost_independent(grid1d_fine):
    rep0 = bargmann_check(packet_hydro(grid1d_fine, k0=0.0), np.zeros(grid1d_fine.shape), C.alpha_star, C)
    rep1 = bargmann_check(packet_hydro(grid1d_fine, k0=1.5), np.zeros(grid1d_fine.shape), C.alpha_star, C)
    assert closes(rep0) and closes(rep1)


def test_bargmann_harmonic_potential_expected_nonclosure(grid1d_fine):
    hydro = packet_hydro(grid1d_fine, k0=0.0, x0=22.0)
    V = harmonic_potential(grid1d_fine, 1.0, C)
    entries = bargmann_check(hydro, V, C.alpha_star, C)
    entry = entries["hp0"]
    assert not entry["closure"]
    assert abs(entry["value"] - entry["expected"]) <= 1e-8
    assert abs(entry["expected"]) > 1e-3  # displaced packet feels the trap
    # an entry is measured by |value - expected|, not by |value|: the trap's
    # hp holds to 1e-8 of its scale, every other closure to criterion 6's bound
    assert closes(entries, dict(BOUNDS, hp=1e-8))


def test_boost_generator_conserved():
    grid = make_grid(1, 2048, 120.0)
    psi = boost(gaussian_packet(grid, 40.0, 1.0, 0.0, C), 1.2, C)
    spec = EvolutionSpec(kind="linear", dt=0.01, t_final=2.0, record_stride=100)
    traj = evolve(psi, np.zeros(grid.shape), spec, C)
    values = []
    for t, wf in traj.snapshots:
        hydro = polar_decompose(wf, 1e-6, C)
        values.append(galilean_generators(hydro, C, t=t)["K0"].value)
    scale = max(abs(v) for v in values)
    assert (max(values) - min(values)) <= 1e-8 * max(scale, 1.0)


def test_central_charge_scales_with_mass_integral(grid1d_fine):
    hydro = packet_hydro(grid1d_fine, k0=0.8)
    gens = galilean_generators(hydro, C)
    base = poisson_bracket(gens["P0"], gens["K0"], grid1d_fine)
    hydro2 = packet_hydro(grid1d_fine, k0=0.8)
    hydro2.rho = 2.0 * hydro2.rho
    hydro2.j = 2.0 * hydro2.j
    gens2 = galilean_generators(hydro2, C)
    doubled = poisson_bracket(gens2["P0"], gens2["K0"], grid1d_fine)
    assert abs(doubled - 2.0 * base) <= 1e-10 * abs(base)


def test_edge_proximity_refused(grid1d):
    # a packet wide enough that the recentered seam carries its mass: the
    # moments (P and K share one frame) and the check that reads them refuse it
    psi = gaussian_packet(grid1d, 20.0, 6.5, 0.0, C)
    hydro = polar_decompose(psi, 1e-6, C)
    seam = "^packet mass within 5 cells of the coordinate seam; moment integrals would be corrupted by periodic images$"
    with pytest.raises(ValueError, match=seam):
        galilean_generators(hydro, C)
    with pytest.raises(ValueError, match=seam):
        bargmann_check(hydro, np.zeros(grid1d.shape), C.alpha_star, C)


def boosted_2d_hydro(grid):
    xy = grid.coords()
    x = xy[0] - 10.0
    y = xy[1] - 10.0
    rho = np.exp(-(x**2 + y**2) / 2.0)
    rho /= integrate(rho, grid)
    S = C.m * (0.7 * x - 0.4 * y)  # boosted along both axes
    return polar_decompose(polar_compose(rho, S, C.hbar, grid), 1e-6, C)


def test_bargmann_closure_2d(grid2d):
    # two-axis closure: {H,P_i} = 0, {H,K_i} = -P_i, {P_i,K_j} = -m delta_ij
    hydro = boosted_2d_hydro(grid2d)
    entries = bargmann_check(hydro, np.zeros(grid2d.shape), C.alpha_star, C)
    assert closes(entries)
    assert set(entries) >= {"hp0", "hp1", "hk_plus_p0", "hk_plus_p1",
                            "pk_plus_m00", "pk_plus_m01", "pk_plus_m10", "pk_plus_m11"}


def test_bargmann_check_takes_two_gradients_of_rho(grid2d, monkeypatch):
    # one spectral gradient of rho for H's energy and one that every P_i and
    # K_i share: a 2D check takes 2, not one per generator (5)
    hydro = boosted_2d_hydro(grid2d)
    rho_gradients = []
    gradient = brackets.spectral_gradient
    monkeypatch.setattr(brackets, "spectral_gradient",
                        lambda f, grid: rho_gradients.append(f is hydro.rho) or gradient(f, grid))
    entries = bargmann_check(hydro, np.zeros(grid2d.shape), C.alpha_star, C, t=0.3)
    assert closes(entries)
    assert rho_gradients == [True, True]
