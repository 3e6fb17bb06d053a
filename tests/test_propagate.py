"""Split-step propagators: unitarity, accuracy order, reversibility, DG and
beta variants, and the density-level diffusion solver."""
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from fisher_hydro import EvolutionSpec, PhysicalConstants, evolve, make_grid, propagate
from fisher_hydro.fields import WaveField, polar_decompose
from fisher_hydro.grid import integrate, norm_l2, spectral_divergence, spectral_gradient, spectral_laplacian
from fisher_hydro.propagate import (
    NumericalAbort,
    _dg_exponent,
    _phase_factor,
    _strang,
    _Work,
    beta_potential,
    evolve_density_diffusion,
    step_beta,
    step_dg,
    step_linear,
    symmetric_pair,
)
from fisher_hydro.states import gaussian_packet, harmonic_potential, oscillator_state, vortex_state


def own_coupling(kind, D=0.05, beta=0.02):
    """The coupling that kind reads, as EvolutionSpec keywords."""
    return {"dg_diffusion": {"D": D}, "beta_nonlinear": {"beta": beta}}.get(kind, {})


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
    period = 2 * np.pi / omega
    spec = EvolutionSpec(kind="linear", dt=period / 628, t_final=period, record_stride=628)
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
    # each stride is one exact kinetic factor, so the closed form holds to round-off
    assert abs(width_sq - expected) / expected <= 1e-12


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


def convergence_ratio(grid, constants, kind, **couplings):
    """err(0.02) / err(0.01) of kind's flow to t = 1 in a trap, against dt = 0.0025."""
    V = harmonic_potential(grid, 1.0, constants)
    psi = gaussian_packet(grid, 22.5, 1.0, 0.0, constants)
    T = 1.0

    def final_state(dt):
        spec = EvolutionSpec(kind=kind, dt=dt, t_final=T, record_stride=int(round(T / dt)), **couplings)
        return evolve(psi, V, spec, constants).snapshots[-1][1].values

    ref = final_state(0.0025)
    err1 = norm_l2(final_state(0.02) - ref, grid)
    err2 = norm_l2(final_state(0.01) - ref, grid)
    return err1 / err2


def test_strang_second_order(grid1d, constants):
    assert 3.6 <= convergence_ratio(grid1d, constants, "linear") <= 4.4


def test_beta_step_second_order(grid1d, constants):
    # the beta step, kinetic halves around V and the beta phase, is a Strang
    # splitting too; at eps_reg = 1e-4 the flow is smooth enough to show it
    # (the ratio reads 4.20)
    assert 3.6 <= convergence_ratio(grid1d, constants, "beta_nonlinear", beta=0.02, eps_reg=1e-4) <= 4.4


def test_beta_step_evaluates_its_kick_once(grid1d, constants, monkeypatch):
    """An n-step beta advance calls beta_potential n times: one kick per
    step, between the kinetic halves."""
    calls = []
    potential = propagate.beta_potential
    monkeypatch.setattr(propagate, "beta_potential", lambda *a, **k: calls.append(1) or potential(*a, **k))
    psi = moving_packet(grid1d, constants)
    spec = EvolutionSpec("beta_nonlinear", beta=0.02)
    _strang(harmonic_potential(grid1d, 1.0, constants), grid1d, 0.01, constants, spec)(psi.values, 7)
    assert len(calls) == 7


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
    # V = 0 is the free flow's single kinetic factor
    free = np.zeros(grid.shape)
    assert np.array_equal(step_dg(psi, free, 0.01, 0.0, constants).values,
                          step_linear(psi, free, 0.01, constants).values)


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
        minus, plus = symmetric_pair(wf, V, replace(spec, dt=dt_diag, record_stride=1), constants)
        rho_t = (plus.density() - minus.density()) / (2 * dt_diag)
        hydro = polar_decompose(wf, 1e-6, constants)
        div_j = spectral_divergence(hydro.j, grid)
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
    # V = 0 is the free flow's single kinetic factor
    free = np.zeros(grid.shape)
    assert np.array_equal(step_beta(psi, free, 0.01, 0.0, 1e-6, constants).values,
                          step_linear(psi, free, 0.01, constants).values)


def _free_grid(dim):
    return make_grid(1, 512, 40.0) if dim == 1 else make_grid(2, 64, 20.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_free_chunk_matches_repeated_steps(dim, constants):
    """With no kick and V = 0, n steps taken as one kinetic factor agree with
    n single steps to round-off, and zero steps leave the values alone."""
    grid = _free_grid(dim)
    psi = moving_packet(grid, constants)
    V = np.zeros(grid.shape)
    advance = _strang(V, grid, 0.01, constants, EvolutionSpec())
    wf = psi
    for _ in range(10):
        wf = step_linear(wf, V, 0.01, constants)
    assert norm_l2(advance(psi.values, 10) - wf.values, grid) <= 1e-13
    assert np.array_equal(advance(psi.values, 0), psi.values)


@pytest.mark.parametrize("dim", [1, 2])
def test_free_snapshot_matches_fresh_evolve(dim, constants):
    grid = _free_grid(dim)
    psi0 = moving_packet(grid, constants)
    V = np.zeros(grid.shape)
    spec = EvolutionSpec(dt=0.01, t_final=0.3, record_stride=6)
    for t, wf in evolve(psi0, V, spec, constants).snapshots[1:]:
        fresh = replace(spec, t_final=t, record_stride=int(round(t / spec.dt)))
        assert norm_l2(evolve(psi0, V, fresh, constants).snapshots[-1][1].values - wf.values, grid) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2])
def test_free_evolve_builds_one_chunk_factor_with_the_bits_of_each(dim, constants, monkeypatch):
    """A free evolve of 18 equal chunks builds its kinetic factor once, and
    each snapshot is F^-1 exp(-i h k^2 s dt/2m) F of the last, bit for bit."""
    grid = _free_grid(dim)
    psi = moving_packet(grid, constants)
    spec = EvolutionSpec(dt=0.01, t_final=0.36, record_stride=2)
    calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda *a, **k: calls.append(1) or exp(*a, **k))
    snapshots = evolve(psi, np.zeros(grid.shape), spec, constants).snapshots
    monkeypatch.undo()
    assert len(snapshots) == 19 and len(calls) == 1
    factor = np.exp(-1j * constants.hbar * grid._k2 * (spec.record_stride * spec.dt) / (2.0 * constants.m))
    values = psi.values
    for _, wf in snapshots[1:]:
        values = np.fft.ifftn(np.multiply(factor, np.fft.fftn(values)))
        assert np.array_equal(wf.values, values)


def test_one_nonzero_potential_cell_keeps_the_step_loop(grid1d, constants, monkeypatch):
    """A V that is zero but for one cell is not free: advance takes one
    transform pair per step, with the bits of single steps."""
    V = np.zeros(grid1d.shape)
    V[7] = 1e-3
    psi = moving_packet(grid1d, constants)
    wf = psi
    for _ in range(5):
        wf = step_linear(wf, V, 0.01, constants)
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: calls.append(1) or fft(*a, **k))
    assert np.array_equal(_strang(V, grid1d, 0.01, constants, EvolutionSpec())(psi.values, 5), wf.values)
    assert len(calls) == 5
    calls.clear()
    _strang(np.zeros(grid1d.shape), grid1d, 0.01, constants, EvolutionSpec())(psi.values, 5)
    assert len(calls) == 1


def test_free_kernel_builds_no_step_factor(grid1d, constants, monkeypatch):
    """A free flow (V = 0, no kick) never steps, so _strang builds neither
    the potential nor the kinetic factor; a harmonic V builds both."""
    calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda *a, **k: calls.append(1) or exp(*a, **k))
    _strang(np.zeros(grid1d.shape), grid1d, 0.01, constants, EvolutionSpec())
    assert len(calls) == 0
    _strang(harmonic_potential(grid1d, 1.0, constants), grid1d, 0.01, constants, EvolutionSpec())
    assert len(calls) == 2


def test_beta_uniform_density_identical_to_linear(grid1d, constants):
    rho = np.full(grid1d.shape, 1.0 / grid1d.length)
    psi = WaveField(grid1d, np.sqrt(rho).astype(complex), 0.0)
    V = np.zeros(grid1d.shape)
    a = step_beta(psi, V, 0.01, 0.02, 1e-6, constants)
    b = step_linear(psi, V, 0.01, constants)
    assert np.max(np.abs(a.values - b.values)) <= 1e-13


@pytest.mark.parametrize("dim,n", [(1, 512), (2, 64)])
def test_half_spectrum_kicks_match_full_spectrum_operators(dim, n):
    """beta_potential and the DG exponent, which transform rho on its half
    spectrum, against beta |grad rho|^2 / (rho + eps max rho)^2 and
    Lap rho / (rho + 1e-8 max rho) built with the full-spectrum fftn of
    spectral_gradient and spectral_laplacian, per state of a batch of two.
    White-noise rho has Nyquist content on every axis."""
    grid = make_grid(dim, n, 20.0)
    rho = np.random.default_rng(5).uniform(0.1, 1.0, (2,) + grid.shape)
    values = np.sqrt(rho).astype(complex)
    beta, eps_reg = 0.01, 1e-6
    U = beta_potential(values, grid, beta, eps_reg, _Work(values.shape, grid, beta=True))
    exponent = _dg_exponent(values, grid, _Work(values.shape, grid, beta=False))
    for state, u, e in zip(rho, U, exponent):
        grad_sq = np.sum(spectral_gradient(state, grid) ** 2, axis=0)
        u_ref = beta * grad_sq / (state + eps_reg * state.max()) ** 2
        e_ref = spectral_laplacian(state, grid) / (state + 1e-8 * state.max())
        assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
        assert np.max(np.abs(e - e_ref)) <= 1e-12 * np.max(np.abs(e_ref))


@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_beta_phase_factor_is_the_complex_exp_bit_for_bit(hbar):
    """The beta kick's cos/sin factor has the bits of the complex exp it
    replaced, (-1j*U*dt)/(2 hbar) then np.exp, on a random potential; a zero
    potential gives the factor 1 (its sine is -0 where exp gave +0)."""
    rng = np.random.default_rng(11)
    U = np.concatenate([rng.uniform(0.0, 1.0, 256), rng.uniform(0.0, 2e3, 256)]).reshape(2, 256)
    dt = 0.005
    old = np.exp((-1j * U * dt) / (2.0 * hbar))
    new = _phase_factor(U.copy(), dt, hbar, np.empty(U.shape, complex))
    assert new.tobytes() == old.tobytes()
    assert _phase_factor(np.zeros(4), dt, hbar, np.empty(4, complex)).tolist() == [1.0] * 4


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


# ids name the stride, and the horizon where it is not 0.1
@pytest.mark.parametrize("t_final, record_stride", [
    pytest.param(0.1, 1, id="1"), pytest.param(0.1, 5, id="5"), pytest.param(0.1, 10, id="10"),
    pytest.param(0.03, 1, id="0.03-1"), pytest.param(0.03, 3, id="0.03-3"),
])
def test_dg_abort_states_diffusion_number(constants, t_final, record_stride):
    # a DG run far past the explicit kick's limit aborts at its first step
    # whose |psi|^2 overflows, whatever the stride: at t = 0.03 every entry is
    # still finite (max|psi| = 2.6e227), so an entry scan would wait for
    # t = 0.04.  dt*D/h^2 = 0.01 * 0.05 / (40/16384)^2 = 83.9 here, but that
    # number does not decide a DG blow-up, and the message does not name it.
    grid = make_grid(1, 16384, 40.0)
    psi = gaussian_packet(grid, 20.0, 1.0, 0.3, constants)
    # A run that ends at t = 0.03 must abort too, not return that state.
    spec = EvolutionSpec(kind="dg_diffusion", dt=0.01, t_final=t_final, record_stride=record_stride, D=0.05)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalAbort, match=r"^non-finite state at t=0\.03$"):
        evolve(psi, harmonic_potential(grid, 1.0, constants), spec, constants)


def test_non_finite_abort_survives_pickling(constants):
    # a worker process hands its exception back pickled: the round trip must
    # keep the class and the message, which names the time of the state
    grid = make_grid(1, 16384, 40.0)
    psi = gaussian_packet(grid, 20.0, 1.0, 0.3, constants)
    spec = EvolutionSpec("dg_diffusion", D=0.05)
    advance = _strang(harmonic_potential(grid, 1.0, constants), grid, 0.01, constants, spec)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalAbort) as raised:
        advance(psi.values, 10)
    back = pickle.loads(pickle.dumps(raised.value))
    assert type(back) is NumericalAbort
    assert str(back) == str(raised.value) == "non-finite state at t=0.03"


def test_spec_validation():
    with pytest.raises(ValueError):
        EvolutionSpec(kind="nope")
    with pytest.raises(ValueError):
        EvolutionSpec(dt=-0.1)
    with pytest.raises(ValueError):
        EvolutionSpec(D=-1.0)
    with pytest.raises(ValueError):
        EvolutionSpec(eps_reg=0.0)


@pytest.mark.parametrize("kind, coupling", [
    ("linear", {"D": 0.05}),
    ("linear", {"beta": 0.02}),
    ("dg_diffusion", {"beta": 0.02}),
    ("density_diffusion", {"beta": 0.02}),
    ("beta_nonlinear", {"D": 0.05}),
])
def test_spec_refuses_a_coupling_its_kind_never_reads(kind, coupling):
    # the flow would run without it, so the spec would report a coupling
    # that no step applied
    with pytest.raises(ValueError, match="never reads"):
        EvolutionSpec(kind=kind, **coupling)
    EvolutionSpec(kind=kind, **{name: 0.0 for name in coupling})


@pytest.mark.parametrize("dt, t_final", [(0.01, 0.405), (0.02, 3.63), (0.01, 2 * np.pi), (0.01, 0.005)])
def test_spec_refuses_a_horizon_that_is_not_whole_steps(dt, t_final):
    # n_steps would round it, so the last state would sit at a time the spec
    # does not state (0.005 at dt 0.01 would evolve nothing)
    with pytest.raises(ValueError, match=f"horizon {t_final:g} is not a whole number of steps dt {dt:g}"):
        EvolutionSpec(dt=dt, t_final=t_final)


def test_sampled_records_every_whole_interval():
    # the interval is rounded to the stride of the horizon's own test, 1e-9
    # relative: 0.35 / 0.005 is 69.99999999999999
    spec = EvolutionSpec.sampled("dg_diffusion", 0.005, 0.7, 0.35, D=0.05)
    assert spec == EvolutionSpec("dg_diffusion", 0.005, 0.7, record_stride=70, D=0.05)
    assert EvolutionSpec.sampled("linear", 0.01, 0.0, 0.3).record_stride == 30


@pytest.mark.parametrize("dt, t_final, interval, error", [
    (0.02, 3.6, 0.25, "snapshot interval 0.25 is not a whole number of steps dt 0.02"),
    (0.02, 3.6, 0.0, "snapshot interval must be positive, got 0"),
    (0.02, 3.6, -0.2, "snapshot interval must be positive, got -0.2"),
    (0.02, 3.6, 1e-12, "snapshot interval 1e-12 is shorter than one step dt 0.02"),
    (0.01, 2.0, 0.3, "horizon 2 is not a whole number of snapshot intervals 0.3"),
    (0.02, 3.63, 0.2, "horizon 3.63 is not a whole number of steps dt 0.02"),
], ids=["split", "zero", "negative", "below-a-step", "ragged", "horizon-split"])
def test_sampled_refuses_an_interval_it_cannot_record(dt, t_final, interval, error):
    # a rounded interval would record at times the config does not state (0.24
    # for 0.25 at dt 0.02), one below a step is no stride at all, and one that
    # does not divide the horizon would leave a shorter last interval, which a
    # centred difference misreads
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        EvolutionSpec.sampled("linear", dt, t_final, interval)


@pytest.mark.parametrize("kind", ["linear", "dg_diffusion", "beta_nonlinear"])
def test_density_diffusion_refuses_a_wavefunction_kind(grid1d, kind):
    # the DG flow also moves its density by the current: a dg_diffusion spec
    # must not run the heat flow under its name; _strang refuses the other way
    spec = EvolutionSpec(kind=kind, dt=0.01, t_final=0.1, **own_coupling(kind))
    with pytest.raises(ValueError, match=f"kind {kind!r} is not a density evolution"):
        evolve_density_diffusion(np.ones(grid1d.shape), spec, grid1d)
    with pytest.raises(ValueError, match="'density_diffusion' is not a wavefunction evolution"):
        _strang(np.zeros(grid1d.shape), grid1d, 0.01, PhysicalConstants(), EvolutionSpec("density_diffusion", D=0.05))


@pytest.mark.parametrize("time", [0.0, 0.25])
def test_step_abort_names_the_state_time(grid1d, constants, time):
    # a kick that meets a non-finite state names that state's time, which a
    # backward step reads as it does a forward one (never "t=-0")
    psi = WaveField(grid1d, np.full(grid1d.shape, np.nan, complex), time)
    V = harmonic_potential(grid1d, 1.0, constants)
    spec = EvolutionSpec(kind="beta_nonlinear", dt=0.01, beta=0.02)
    message = rf"^non-finite state at t={time:g}$"
    with pytest.raises(NumericalAbort, match=message):
        symmetric_pair(psi, V, spec, constants)
    for dt in (-spec.dt, spec.dt):
        with pytest.raises(NumericalAbort, match=message):
            step_beta(psi, V, dt, spec.beta, spec.eps_reg, constants)


def test_single_step_that_blows_up_aborts(constants):
    # at D = 40 the DG step's closing kick overflows |psi|^2 (max|psi| =
    # 1.8e228, norm inf); no later kick reads that state, so the kernel's
    # check of the state it returns names the step's end time.  The -dt
    # member of the pair stays finite, so the pair aborts at +dt.
    grid = make_grid(1, 512, 40.0)
    psi = gaussian_packet(grid, 20.0, 1.0)
    V = np.zeros(grid.shape)
    message = r"^non-finite state at t=0\.01$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbort, match=message):
            step_dg(psi, V, 0.01, 40.0, constants)
        with pytest.raises(NumericalAbort, match=message):
            symmetric_pair(psi, V, EvolutionSpec("dg_diffusion", dt=0.01, D=40.0), constants)


def test_closing_dg_kick_checks_its_density(constants):
    # at D = 1e4 the opening kick's factor overflows, so the kinetic step
    # fills the state with nan: the closing kick reads that density and the
    # abort names the step's start time, as an opening kick's would, not the
    # end time of the returned state's norm check
    grid = make_grid(1, 512, 40.0)
    psi = gaussian_packet(grid, 20.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbort, match=r"^non-finite state at t=0$"):
            step_dg(psi, np.zeros(grid.shape), 0.01, 1e4, constants)


def test_only_the_kernel_raises_numerical_abort():
    # every evolution aborts in the Strang kernel, so no module but
    # propagate.py raises NumericalAbort.  Strings and comments are not code.
    import io
    import pathlib
    import re
    import tokenize

    import fisher_hydro

    raises = re.compile(r"\braise\s+(\w+\s*\.\s*)?NumericalAbort\b")
    found = set()
    for path in pathlib.Path(fisher_hydro.__file__).parent.glob("*.py"):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if raises.search(" ".join(t.string for t in tokens if t.type not in (tokenize.STRING, tokenize.COMMENT))):
            found.add(path.name)
    assert found == {"propagate.py"}


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


def test_density_diffusion_is_exact_far_past_the_explicit_limit(grid1d):
    # dt*D/h^2 = 8.2, 33 times an explicit stepper's 0.25: the exact flow stays
    # finite, keeps its mass and spreads as the heat kernel, sigma0^2 + 2 D t;
    # at t = 2 the packet's width is 2.2, clear of the seam 20 away
    x = grid1d.axes[0]
    rho0 = np.exp(-((x - 20.0) ** 2) / 2.0)
    rho0 /= integrate(rho0, grid1d)
    D = 1.0
    spec = EvolutionSpec(kind="density_diffusion", dt=0.05, t_final=2.0, record_stride=8, D=D)
    assert spec.dt * D / grid1d.spacing**2 > 8.0
    traj = evolve_density_diffusion(rho0, spec, grid1d)
    assert [t for t, _ in traj.snapshots] == [k * spec.dt for k in (0, 8, 16, 24, 32, 40)]
    for t, rho in traj.snapshots:
        assert np.all(np.isfinite(rho))
        mass = integrate(rho, grid1d)
        assert abs(mass - 1.0) <= 1e-12
        mean = integrate(rho * x, grid1d) / mass
        var = integrate(rho * (x - mean) ** 2, grid1d) / mass
        assert abs(var - (1.0 + 2.0 * D * t)) <= 1e-12 * (1.0 + 2.0 * D * t)


def test_symmetric_pair_steps_the_beta_flow(grid1d, constants):
    # a beta trajectory's centred pair is step_beta at -dt and +dt, bit for bit
    psi = gaussian_packet(grid1d, 20.0, 1.0, 0.3, constants)
    V = harmonic_potential(grid1d, 1.0, constants)
    spec = EvolutionSpec(kind="beta_nonlinear", dt=0.01, beta=0.02, eps_reg=1e-4)
    minus, plus = symmetric_pair(psi, V, spec, constants)
    for wf, dt in ((minus, -spec.dt), (plus, spec.dt)):
        assert np.array_equal(wf.values, step_beta(psi, V, dt, spec.beta, spec.eps_reg, constants).values)
    assert not np.array_equal(plus.values, step_linear(psi, V, spec.dt, constants).values)


def test_trajectory_times_strictly_increasing(grid1d, constants):
    psi = gaussian_packet(grid1d, 20.0, 1.0, 0.0, constants)
    spec = EvolutionSpec(kind="linear", dt=0.01, t_final=0.3, record_stride=6)
    traj = evolve(psi, np.zeros(grid1d.shape), spec, constants)
    times = [t for t, _ in traj.snapshots]
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert abs(times[-1] - spec.t_final) <= spec.dt / 2


@pytest.mark.parametrize("kind", ["linear", "dg_diffusion", "beta_nonlinear"])
def test_trajectory_times_are_step_multiples(grid1d, constants, kind):
    psi = gaussian_packet(grid1d, 20.0, 1.0, 0.3, constants)
    V = harmonic_potential(grid1d, 1.0, constants)
    spec = EvolutionSpec(kind=kind, dt=0.01, t_final=0.4, record_stride=8, **own_coupling(kind, beta=0.01))
    traj = evolve(psi, V, spec, constants)
    expected = [k * spec.dt for k in (0, 8, 16, 24, 32, 40)]
    assert [t for t, _ in traj.snapshots] == expected
    assert [wf.time for _, wf in traj.snapshots] == expected
    # a stride that does not divide the horizon would leave a ragged last chunk
    with pytest.raises(ValueError, match=r"^horizon 0\.4 is not a whole number of snapshot intervals 0\.07$"):
        replace(spec, record_stride=7)


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
    spec = EvolutionSpec(kind=kind, dt=0.01, t_final=0.2, record_stride=20, **own_coupling(kind))
    batch = np.stack([p1, p2, (p1 + p2) / np.sqrt(2.0)])
    advance = _strang(V, grid, spec.dt, constants, spec)
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
    spec = EvolutionSpec(kind=kind, dt=0.01, t_final=0.14, record_stride=stride, **own_coupling(kind))
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
                 lambda: symmetric_pair(psi0, V, spec, constants)):
        step()
        assert np.array_equal(psi0.values, kept)
