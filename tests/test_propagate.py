"""Split-step propagators: unitarity, accuracy order, reversibility, DG and
beta variants, and the density-level diffusion solver."""
import numpy as np
import pytest

from fisher_hydro import EvolutionSpec, PhysicalConstants, evolve, make_grid
from fisher_hydro.fields import WaveField, polar_decompose
from fisher_hydro.grid import integrate, norm_l2, spectral_gradient, spectral_laplacian
from fisher_hydro.propagate import (
    NumericalAbort,
    _strang,
    evolve_density_diffusion,
    step_beta,
    step_dg,
    step_linear,
    symmetric_pair,
)
from fisher_hydro.states import gaussian_packet, harmonic_potential, oscillator_state, vortex_state


def coherent_state(grid, x0, omega, constants):
    return gaussian_packet(grid, grid.length / 2 + x0, np.sqrt(constants.hbar / (constants.m * omega)) / np.sqrt(2) * np.sqrt(2), 0.0, constants)


def moving_packet(grid, constants):
    """An off-centre packet with momentum: a Gaussian in 1D, a winding-1 vortex in 2D."""
    if grid.dim == 1:
        return gaussian_packet(grid, 21.0, 1.0, 0.3, constants)
    vortex = vortex_state(grid, 1, 1.5, (9.0, 10.5))
    return WaveField(grid, vortex.values * np.exp(0.3j * grid.coords()[0] / constants.hbar))


def test_ground_state_one_period_fidelity(grid1d, constants):
    omega = 1.0
    psi0 = oscillator_state(grid1d, 0, omega, constants)
    V = harmonic_potential(grid1d, omega, constants)
    spec = EvolutionSpec(kind="linear", dt=0.01, t_final=2 * np.pi / omega, record_stride=1000)
    traj = evolve(psi0, V, spec, constants)
    final = traj.snapshots[-1][1]
    fidelity = abs(np.sum(np.conj(psi0.values) * final.values) * grid1d.cell_volume)
    assert fidelity >= 1 - 1e-8


def test_free_packet_spreading_oracle(constants):
    grid = make_grid(1, 2048, 120.0)
    sigma0 = 1.0
    psi0 = gaussian_packet(grid, 60.0, sigma0, 0.0, constants)
    spec = EvolutionSpec(kind="linear", dt=0.02, t_final=3.0, record_stride=50)
    traj = evolve(psi0, np.zeros(grid.shape), spec, constants)
    t, wf = traj.snapshots[-1]
    rho = wf.density()
    x = grid.axes[0]
    mean = integrate(rho * x, grid)
    var = integrate(rho * (x - mean) ** 2, grid)
    width_sq = 2 * var  # rho ~ exp(-x^2 / sigma(t)^2)
    expected = sigma0**2 * (1 + (constants.hbar * t / (constants.m * sigma0**2)) ** 2)
    assert abs(width_sq - expected) / expected <= 1e-6


def test_boosted_packet_center_motion(constants):
    grid = make_grid(1, 2048, 120.0)
    k0 = 1.5
    psi0 = gaussian_packet(grid, 40.0, 1.0, k0, constants)
    spec = EvolutionSpec(kind="linear", dt=0.02, t_final=4.0, record_stride=50)
    traj = evolve(psi0, np.zeros(grid.shape), spec, constants)
    t, wf = traj.snapshots[-1]
    x = grid.axes[0]
    center = integrate(wf.density() * x, grid)
    assert abs(center - (40.0 + constants.hbar * k0 / constants.m * t)) <= 1e-6


def test_norm_preserved_per_step(grid1d, constants):
    V = harmonic_potential(grid1d, 1.0, constants)
    psi = gaussian_packet(grid1d, 22.0, 1.0, 0.5, constants)
    out = step_linear(psi, V, 0.02, constants)
    assert abs(out.norm() - psi.norm()) <= 1e-13


def test_unitarity_along_trajectory(grid1d, constants):
    V = harmonic_potential(grid1d, 1.0, constants)
    psi = gaussian_packet(grid1d, 22.0, 1.0, 0.5, constants)
    spec = EvolutionSpec(kind="linear", dt=0.02, t_final=2.0, record_stride=10)
    traj = evolve(psi, V, spec, constants)
    for _, wf in traj.snapshots:
        assert abs(wf.norm() - 1.0) <= 1e-12


def test_strang_second_order(grid1d, constants):
    V = harmonic_potential(grid1d, 1.0, constants)
    psi = gaussian_packet(grid1d, 22.5, 1.0, 0.0, constants)
    T = 1.0

    def final_state(dt):
        spec = EvolutionSpec(kind="linear", dt=dt, t_final=T, record_stride=int(T / dt))
        return evolve(psi, V, spec, constants).snapshots[-1][1].values

    ref = final_state(0.0025)
    err1 = norm_l2(final_state(0.02) - ref, grid1d)
    err2 = norm_l2(final_state(0.01) - ref, grid1d)
    assert 3.6 <= err1 / err2 <= 4.4


def test_reversibility(grid1d, constants):
    V = harmonic_potential(grid1d, 1.0, constants)
    psi0 = gaussian_packet(grid1d, 22.0, 1.0, 0.0, constants)
    wf = psi0
    n = 100
    for _ in range(n):
        wf = step_linear(wf, V, 0.02, constants)
    for _ in range(n):
        wf = step_linear(wf, V, -0.02, constants)
    assert norm_l2(wf.values - psi0.values, grid1d) <= 1e-9


@pytest.mark.parametrize("grid_name", ["grid1d", "grid2d"])
def test_dg_zero_diffusion_bitwise(grid_name, request, constants):
    grid = request.getfixturevalue(grid_name)
    V = harmonic_potential(grid, 1.0, constants)
    psi = moving_packet(grid, constants)
    a = step_dg(psi, V, 0.01, 0.0, constants)
    b = step_linear(psi, V, 0.01, constants)
    assert np.array_equal(a.values, b.values)


def test_dg_uniform_density_no_diffusion_effect(grid1d, constants):
    rho = np.full(grid1d.shape, 1.0 / grid1d.length)
    psi = WaveField(grid1d, np.sqrt(rho).astype(complex), 0.0)
    V = np.zeros(grid1d.shape)
    a = step_dg(psi, V, 0.01, 0.05, constants)
    b = step_linear(psi, V, 0.01, constants)
    assert np.max(np.abs(a.values - b.values)) <= 1e-14


def test_dg_matches_pde_under_refinement(constants):
    # masked relative residual of the DG continuity law halves by 4x with dt
    grid = make_grid(1, 1024, 60.0)
    V = np.zeros(grid.shape)
    D = 0.05
    psi = gaussian_packet(grid, 30.0, 1.2, 0.0, constants)
    spec = EvolutionSpec(kind="dg_diffusion", dt=0.005, t_final=0.5, record_stride=100, D=D)
    wf = evolve(psi, V, spec, constants).snapshots[-1][1]

    def pde_residual(dt_diag):
        minus, plus = symmetric_pair(wf, V, dt_diag, constants, kind="dg_diffusion", D=D)
        rho_t = (plus.density() - minus.density()) / (2 * dt_diag)
        hydro = polar_decompose(wf, 1e-6, constants)
        div_j = spectral_gradient(hydro.j[0], grid)[0]
        rhs = -div_j + D * spectral_laplacian(hydro.rho, grid)
        m = hydro.mask
        return norm_l2(np.where(m, rho_t - rhs, 0.0), grid) / norm_l2(np.where(m, rhs, 0.0), grid)

    assert pde_residual(1e-3) <= 1e-6
    assert pde_residual(2e-3) / pde_residual(1e-3) == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("grid_name", ["grid1d", "grid2d"])
def test_beta_zero_bitwise(grid_name, request, constants):
    grid = request.getfixturevalue(grid_name)
    V = harmonic_potential(grid, 1.0, constants)
    psi = moving_packet(grid, constants)
    a = step_beta(psi, V, 0.01, 0.0, 1e-6, constants)
    b = step_linear(psi, V, 0.01, constants)
    assert np.array_equal(a.values, b.values)


def test_beta_uniform_density_identical_to_linear(grid1d, constants):
    rho = np.full(grid1d.shape, 1.0 / grid1d.length)
    psi = WaveField(grid1d, np.sqrt(rho).astype(complex), 0.0)
    V = np.zeros(grid1d.shape)
    a = step_beta(psi, V, 0.01, 0.02, 1e-6, constants)
    b = step_linear(psi, V, 0.01, constants)
    assert np.max(np.abs(a.values - b.values)) <= 1e-13


def test_beta_step_preserves_norm(grid1d, constants):
    V = harmonic_potential(grid1d, 0.3, constants)
    psi = gaussian_packet(grid1d, 21.0, 1.0, 0.0, constants)
    out = step_beta(psi, V, 0.01, 0.02, 1e-6, constants)
    assert abs(out.norm() - 1.0) <= 1e-13


def test_evolve_zero_steps(grid1d, constants):
    psi = gaussian_packet(grid1d, 20.0, 1.0, 0.0, constants)
    spec = EvolutionSpec(kind="linear", dt=0.01, t_final=0.0, record_stride=1)
    traj = evolve(psi, np.zeros(grid1d.shape), spec, constants)
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0][0] == 0.0


def test_evolve_nan_aborts(grid1d, constants):
    psi = gaussian_packet(grid1d, 20.0, 1.0, 0.0, constants)
    bad_v = np.full(grid1d.shape, np.nan)
    spec = EvolutionSpec(kind="linear", dt=0.01, t_final=0.1, record_stride=1)
    with pytest.raises(NumericalAbort):
        evolve(psi, bad_v, spec, constants)


@pytest.mark.parametrize("record_stride", [1, 5, 10])
def test_dg_abort_states_diffusion_number(constants, record_stride):
    # a DG run far past the explicit kick's limit aborts at its first step
    # whose |psi|^2 overflows, whatever the stride: at t = 0.03 every entry is
    # still finite (max|psi| = 2.6e227), so an entry scan would wait for
    # t = 0.04.  The message names the cause:
    # dt*D/h^2 = 0.01 * 0.05 / (40/16384)^2 = 83.9
    grid = make_grid(1, 16384, 40.0)
    psi = gaussian_packet(grid, 20.0, 1.0, 0.3, constants)
    # A run that ends at t = 0.03 must abort too, not return that state.
    for t_final in (0.1, 0.03):
        spec = EvolutionSpec(kind="dg_diffusion", dt=0.01, t_final=t_final, record_stride=record_stride, D=0.05)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalAbort, match=r"^non-finite state at t=0\.03 \(dt\*D/h\^2 = 83\.9\)$"):
            evolve(psi, harmonic_potential(grid, 1.0, constants), spec, constants)


def test_spec_validation():
    with pytest.raises(ValueError):
        EvolutionSpec(kind="nope")
    with pytest.raises(ValueError):
        EvolutionSpec(dt=-0.1)
    with pytest.raises(ValueError):
        EvolutionSpec(D=-1.0)
    with pytest.raises(ValueError):
        EvolutionSpec(eps_reg=0.0)


def test_density_diffusion_static_when_off(grid1d):
    x = grid1d.axes[0]
    rho0 = np.exp(-((x - 20.0) ** 2)) / integrate(np.exp(-((x - 20.0) ** 2)), grid1d)
    spec = EvolutionSpec(kind="density_diffusion", dt=0.01, t_final=0.5, record_stride=10)
    traj = evolve_density_diffusion(rho0, spec, grid1d)
    assert np.max(np.abs(traj.snapshots[-1][1] - rho0)) <= 1e-14


def test_density_diffusion_heat_kernel_variance(grid1d):
    x = grid1d.axes[0]
    sigma0_sq = 1.0
    rho0 = np.exp(-((x - 20.0) ** 2) / (2 * sigma0_sq))
    rho0 /= integrate(rho0, grid1d)
    D = 0.05
    spec = EvolutionSpec(kind="density_diffusion", dt=0.005, t_final=2.0, record_stride=40, D=D)
    traj = evolve_density_diffusion(rho0, spec, grid1d)
    t, rho = traj.snapshots[-1]
    mean = integrate(rho * x, grid1d)
    var = integrate(rho * (x - mean) ** 2, grid1d)
    expected = sigma0_sq + 2 * D * t
    assert abs(var - expected) / expected <= 1e-6
    assert abs(integrate(rho, grid1d) - 1.0) <= 1e-10


def test_density_diffusion_entropy_monotone(grid1d):
    from fisher_hydro.functionals import shannon_entropy

    x = grid1d.axes[0]
    rho0 = np.exp(-((x - 20.0) ** 2) / 2.0)
    rho0 /= integrate(rho0, grid1d)
    spec = EvolutionSpec(kind="density_diffusion", dt=0.005, t_final=1.0, record_stride=20, D=0.05)
    traj = evolve_density_diffusion(rho0, spec, grid1d)
    entropies = [shannon_entropy(r, grid1d) for _, r in traj.snapshots]
    assert all(b > a for a, b in zip(entropies, entropies[1:]))


def test_density_diffusion_cfl_warning():
    grid = make_grid(1, 64, 4.0)
    rho0 = np.full(grid.shape, 1.0 / grid.length)
    spec = EvolutionSpec(kind="density_diffusion", dt=0.05, t_final=0.1, record_stride=1, D=0.05)
    with pytest.warns(RuntimeWarning):
        evolve_density_diffusion(rho0, spec, grid)


def test_trajectory_times_strictly_increasing(grid1d, constants):
    psi = gaussian_packet(grid1d, 20.0, 1.0, 0.0, constants)
    spec = EvolutionSpec(kind="linear", dt=0.01, t_final=0.3, record_stride=7)
    traj = evolve(psi, np.zeros(grid1d.shape), spec, constants)
    times = traj.times()
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert abs(times[-1] - spec.t_final) <= spec.dt / 2


@pytest.mark.parametrize("kind", ["linear", "dg_diffusion", "beta_nonlinear"])
def test_trajectory_times_are_step_multiples(grid1d, constants, kind):
    psi = gaussian_packet(grid1d, 20.0, 1.0, 0.3, constants)
    V = harmonic_potential(grid1d, 1.0, constants)
    spec = EvolutionSpec(kind=kind, dt=0.01, t_final=0.4, record_stride=7, D=0.05, beta=0.01)
    traj = evolve(psi, V, spec, constants)
    expected = [k * spec.dt for k in (0, 7, 14, 21, 28, 35, 40)]
    assert traj.times() == expected
    assert [wf.time for _, wf in traj.snapshots] == expected


@pytest.mark.parametrize("kind,dim,n", [
    ("beta_nonlinear", 1, 512),
    ("beta_nonlinear", 2, 128),
    ("dg_diffusion", 2, 128),
    ("beta_nonlinear", 1, 8192),
])
def test_batch_rows_match_solo_evolution(kind, dim, n, constants):
    """Each row of a (3, *shape) batch, two packets of different norm and
    their superposition, evolves bit for bit as that state alone: the
    state-dependent kick takes max rho per state, not over the batch."""
    if dim == 1:
        grid = make_grid(1, n, 40.0)
        p1 = gaussian_packet(grid, 15.0, 1.0, 0.2, constants).values
        p2 = 0.5 * gaussian_packet(grid, 25.0, 1.5, -0.2, constants).values
    else:
        grid = make_grid(2, n, 20.0)
        p1 = vortex_state(grid, 0, 1.0, (7.0, 10.0)).values
        p2 = 0.5 * vortex_state(grid, 0, 1.5, (13.0, 10.0)).values
    V = harmonic_potential(grid, 0.5, constants)
    spec = EvolutionSpec(kind=kind, dt=0.01, t_final=0.2, record_stride=20, D=0.05, beta=0.02)
    batch = np.stack([p1, p2, (p1 + p2) / np.sqrt(2.0)])
    advance = _strang(V, grid, spec.dt, constants, kind, D=spec.D, beta=spec.beta, eps_reg=spec.eps_reg)
    kept = batch.copy()
    rows = advance(batch, spec.n_steps)
    assert np.array_equal(batch, kept)
    for row, state in zip(rows, batch):
        solo = evolve(WaveField(grid, state), V, spec, constants).snapshots[-1][1]
        assert np.array_equal(row, solo.values)


@pytest.mark.parametrize("kind", ["linear", "dg_diffusion", "beta_nonlinear"])
@pytest.mark.parametrize("grid_name", ["grid1d", "grid2d"])
@pytest.mark.parametrize("stride", [1, 7])
def test_in_place_kernel_never_aliases(kind, grid_name, stride, request, constants):
    """The kernel steps in place: evolve must leave psi0 alone and give each
    snapshot its own memory, equal bit for bit to a fresh evolve to its time,
    and a single step must leave its input alone."""
    grid = request.getfixturevalue(grid_name)
    if grid.dim == 1:
        psi0 = gaussian_packet(grid, 20.0, 1.0, 0.3, constants)
    else:
        psi0 = WaveField(grid, vortex_state(grid, 0, 1.5, (9.0, 10.5)).values * np.exp(0.3j * grid.coords()[0]))
    kept = psi0.values.copy()
    V = harmonic_potential(grid, 1.0, constants)
    spec = EvolutionSpec(kind=kind, dt=0.01, t_final=0.1, record_stride=stride, D=0.05, beta=0.02)
    snapshots = evolve(psi0, V, spec, constants).snapshots
    assert np.array_equal(psi0.values, kept)
    arrays = [psi0.values] + [wf.values for _, wf in snapshots]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
    for t, wf in snapshots[1:]:
        steps = int(round(t / spec.dt))
        fresh = EvolutionSpec(kind=kind, dt=spec.dt, t_final=t, record_stride=steps, D=spec.D, beta=spec.beta)
        assert np.array_equal(evolve(psi0, V, fresh, constants).snapshots[-1][1].values, wf.values)
    for step in (lambda: step_linear(psi0, V, 0.01, constants),
                 lambda: step_dg(psi0, V, 0.01, 0.05, constants),
                 lambda: step_beta(psi0, V, 0.01, 0.02, 1e-6, constants),
                 lambda: symmetric_pair(psi0, V, 0.01, constants, "dg_diffusion", D=0.05)):
        step()
        assert np.array_equal(psi0.values, kept)
