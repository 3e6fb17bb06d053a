"""Superposition, complexifier rigidity, time reversal, circulation."""
import dataclasses
import math
import multiprocessing
import os

import numpy as np
import pytest

from fisher_hydro import EvolutionSpec, PhysicalConstants, evolve, make_grid
from fisher_hydro.fields import WaveField
from fisher_hydro.states import gaussian_packet, harmonic_potential, vortex_state
from fisher_hydro.stresstests import (
    SuperpositionConfig,
    beta_drops,
    circulation,
    complexifier_scan,
    projective_residual,
    superposition_curve,
    superposition_residual,
    time_reversal_defect,
)

C = PhysicalConstants()


def small_config(**kw):
    # packets at -+3 sigma, sigma = sqrt(1/0.2), as at the library defaults
    defaults = dict(omega=0.2, separation_sigmas=6.0, t_final=0.5, dt=0.01, n=512, length=68.0)
    defaults.update(kw)
    return SuperpositionConfig(**defaults)


def test_superposition_linear_floor_small():
    cfg = small_config()
    assert superposition_residual(cfg, 0.0) <= 1e-10
    assert superposition_residual(cfg, 0.0, refined=True) <= 1e-10


def test_superposition_beta_turns_on_residual():
    cfg = small_config(t_final=1.0, n=1024)
    r0 = superposition_residual(cfg, 0.0)
    r1 = superposition_residual(cfg, 0.02)
    assert r1 > 1e-3 > r0


def test_non_finite_beta_zero_superposition_row_aborts(monkeypatch):
    # a beta = 0 row has no kick to see a non-finite state, so the kernel's
    # check of the batch it returns aborts, naming its final time, as a
    # beta > 0 row aborts at its first kick
    # (test_superposition_kernel_abort_names_its_time)
    from fisher_hydro import stresstests
    from fisher_hydro.propagate import NumericalAbort

    monkeypatch.setattr(stresstests, "_packet", lambda grid, center, sigma: np.full(grid.shape, np.nan, complex))
    with np.errstate(invalid="ignore"), pytest.raises(NumericalAbort, match="^non-finite state at t=0.5$"):
        superposition_residual(small_config(), 0.0)


def test_superposition_curve_independent_of_cpu_count(monkeypatch):
    # superposition_curve runs its (beta, grid) calls on min(calls, usable
    # CPUs) forked processes, and each call steps its three states in one
    # advance of the whole batch, so every pool gives the rows of serial
    # superposition_residual calls bit for bit.
    import concurrent.futures

    from fisher_hydro import propagate

    strang = propagate._strang
    advances, pools = [], []

    def spy(*args, **kwargs):
        advance = strang(*args, **kwargs)

        def recorded(values, n_steps):
            advances.append(values.shape[0])
            return advance(values, n_steps)
        return recorded

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context)

    monkeypatch.setattr(propagate, "_strang", spy)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    cfg = small_config(n=512, t_final=0.2, beta_list=(0.02, 0.0))
    expected = [(beta, superposition_residual(cfg, beta).hex(), superposition_residual(cfg, beta, refined=True).hex())
                for beta in (0.0, 0.02)]
    assert advances == [3, 3, 3, 3]

    def check(cpus):
        pools.clear()
        rows = superposition_curve(cfg)
        assert [(r["beta"], r["base"].hex(), r["refined"].hex()) for r in rows] == expected
        assert pools == [(min(4, cpus), "fork")]
        assert multiprocessing.active_children() == []

    for cpus in (1, 2, 3, 5):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        check(cpus)
    # without sched_getaffinity (off Linux) os.cpu_count() counts, or 1 where it is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus in (2, None):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        check(cpus or 1)


def test_superposition_degenerate_inputs_zero_residual(grid1d):
    # identical joint and summed states have zero projective distance
    psi = gaussian_packet(grid1d, 20.0, 1.0, 0.4, C)
    r, _ = projective_residual(psi.values, psi.values.copy(), grid1d)
    assert r <= 1e-13


def test_projective_phase_optimality(grid1d):
    rng = np.random.default_rng(12)
    a = gaussian_packet(grid1d, 20.0, 1.0, 0.3, C).values
    b = gaussian_packet(grid1d, 20.5, 1.1, 0.1, C).values
    best, theta = projective_residual(a, b, grid1d)
    from fisher_hydro.grid import norm_l2

    an = a / norm_l2(a, grid1d)
    bn = b / norm_l2(b, grid1d)
    for theta_p in rng.uniform(0, 2 * np.pi, size=64):
        assert best <= norm_l2(an - np.exp(1j * theta_p) * bn, grid1d) + 1e-14


def test_beta_drops_split_at_the_plateau():
    def table(base, refined):
        return [{"beta": i, "base": b, "refined": r} for i, (b, r) in enumerate(zip(base, refined))]

    # growth everywhere: the smallest rise, negated; below 1.30 nothing is plateau
    assert beta_drops(table([0.0, 0.1, 0.3], [0.0, 0.2, 0.25])) == (pytest.approx(-0.05), None)
    # a fall between two plateau residuals counts only towards plateau
    assert beta_drops(table([0.0, 1.35, 1.32], [0.0, 1.35, 1.4])) == (pytest.approx(-1.35), pytest.approx(0.03))
    # a NaN residual makes its class NaN, which fails any bound
    monotone, plateau = beta_drops(table([0.0, float("nan"), 1.4], [0.0, 0.1, 1.4]))
    assert np.isnan(monotone) and plateau is None


def test_superposition_disjointness_enforced():
    # packets 2 sigma apart overlap; 6 sigma is the smallest separation allowed.
    # The box cuts off a packet whose density at the periodic seam exceeds
    # ROUNDOFF_FLOOR times its peak: a centre closer than sqrt(-ln 1e-13) =
    # 5.47 sigma to x = +-L/2 (sigma = sqrt(5) here).
    for kw in [{"separation_sigmas": 2.0}, {"separation_sigmas": 5.999}]:
        with pytest.raises(ValueError, match="disjoint"):
            small_config(**kw)
    for kw in [{"separation_sigmas": 30.0}, {"separation_sigmas": 19.47}, {"length": 37.8}, {"omega": 0.02}]:
        with pytest.raises(ValueError, match="periodic seam"):
            small_config(**kw)
    for kw in [{"separation_sigmas": 6.0}, {"separation_sigmas": 19.46}, {"length": 38.0}]:
        small_config(**kw)
    SuperpositionConfig()  # 12.2 sigma from the seam


@pytest.mark.parametrize("kw, error", [
    ({"t_final": 0.0}, "superposition needs t_final > 0, got 0"),
    ({"t_final": 0.505}, "horizon 0.505 is not a whole number of steps dt 0.01"),
    ({"dt": 0.0}, "dt must be positive"),
    ({"beta_list": (0.0, -0.01)}, "require D >= 0, beta >= 0, eps_reg > 0"),
    ({"eps_reg": 0.0}, "require D >= 0, beta >= 0, eps_reg > 0"),
])
def test_superposition_config_refuses_what_its_specs_refuse(kw, error):
    # the config states t_final > 0 itself; the rest is EvolutionSpec's, read
    # from the base-grid spec of each coupling
    with pytest.raises(ValueError) as raised:
        small_config(**kw)
    assert str(raised.value) == error


def test_superposition_residual_evolves_the_config_spec(monkeypatch):
    # both grids stop at t_final: 10 base steps of dt, 20 refined ones of dt/2
    from fisher_hydro import propagate

    cfg = small_config(t_final=0.1)
    seen = []
    monkeypatch.setattr(propagate, "_strang", lambda V, grid, dt, c, spec:
                        seen.append((dt, spec)) or (lambda values, n_steps: values))
    for refined in (False, True):
        superposition_residual(cfg, 0.02, refined)
    assert seen == [(cfg.timestep(refined), cfg.spec(0.02, refined)) for refined in (False, True)]
    assert [spec.n_steps for _, spec in seen] == [10, 20]


def _old_superposition_residual(config, beta, refined):
    """superposition_residual as it was when the suite's CLI translated its
    config into packet centres x1, x2 and width sigma, and each packet's
    exponent carried a momentum term 1j * p * (x - c) / hbar with p = 0."""
    from fisher_hydro import propagate

    grid, dt = config.grid(refined), config.timestep(refined)
    x = grid.axes[0] - 0.5 * grid.length
    sigma = math.sqrt(config.hbar / (config.mass * config.omega))
    x1 = -0.5 * config.separation_sigmas * sigma
    x2 = 0.5 * config.separation_sigmas * sigma

    def packet(center, momentum=0.0):
        return (np.pi * sigma**2) ** -0.25 * np.exp(
            -((x - center) ** 2) / (2.0 * sigma**2) + 1j * momentum * (x - center) / config.hbar)

    c = PhysicalConstants(config.hbar, config.mass)
    p1, p2 = packet(x1), packet(x2)
    batch = np.stack([p1, p2, (p1 + p2) / np.sqrt(2.0)])
    batch /= np.sqrt(np.sum(np.abs(batch) ** 2, axis=-1, keepdims=True) * grid.cell_volume)
    spec = EvolutionSpec("beta_nonlinear", dt, config.t_final, beta=beta, eps_reg=config.eps_reg)
    advance = propagate._strang(harmonic_potential(grid, config.omega, c), grid, dt, c, spec)
    out = advance(batch, int(round(config.t_final / dt)))
    return projective_residual(out[2], out[0] + out[1], grid)[0]


def test_superposition_residual_keeps_the_bits_of_the_old_packets():
    # the packet centres and width derived from the config, and the complex
    # exponent without its zero momentum term, give the old residuals bit for bit
    cfg = small_config(n=512, t_final=0.5)
    for beta in (0.0, 0.02):
        for refined in (False, True):
            new = superposition_residual(cfg, beta, refined=refined)
            assert new.hex() == float(_old_superposition_residual(cfg, beta, refined)).hex()


def test_superposition_config_is_the_cli_default():
    from fisher_hydro.cli import DEFAULTS

    # one set of keys and values; beta_list is a list, as a JSON config gives it
    fields = dataclasses.asdict(SuperpositionConfig())
    assert DEFAULTS["superposition"] == dict(fields, beta_list=list(fields["beta_list"]))


def coherent_snapshots(n=512, length=40.0, omega=1.0, x0=1.5, n_snaps=2):
    grid = make_grid(1, n, length)
    V = harmonic_potential(grid, omega, C)
    psi = gaussian_packet(grid, length / 2 + x0, np.sqrt(C.hbar / (C.m * omega)), 0.0, C)
    spec = EvolutionSpec(kind="linear", dt=0.005, t_final=0.7, record_stride=int(0.7 / 0.005 / n_snaps))
    traj = evolve(psi, V, spec, C)
    return [wf for _, wf in traj.snapshots[1:]], V, grid


def test_complexifier_polar_cell_at_floor():
    snaps, V, grid = coherent_snapshots()
    p_grid = np.array([0.3, 0.5, 0.7])
    s_grid = np.array([0.8, 1.0, 1.25])
    defect, _ = complexifier_scan(p_grid, s_grid, snaps, V, C)
    assert np.unravel_index(int(np.argmin(defect)), defect.shape) == (1, 1)
    assert defect[1, 1] <= 1e-6
    kappa = 1.0 / s_grid[1]
    assert kappa == pytest.approx(C.hbar)
    assert kappa**2 / (2.0 * C.m) == pytest.approx(C.alpha_star)


def test_complexifier_amplitude_exponent_wall():
    snaps, V, grid = coherent_snapshots()
    defect, _ = complexifier_scan(np.array([0.5, 1.0]), np.array([1.0]), snaps, V, C)
    assert defect[1, 0] >= 1e-2


def test_complexifier_uniform_state_uninformative(grid1d):
    rho = np.full(grid1d.shape, 1.0 / grid1d.length)
    wf = WaveField(grid1d, np.sqrt(rho).astype(complex), 0.0)
    _, max_density_rate = complexifier_scan(np.array([0.4, 0.5]), np.array([1.0]), [wf], np.zeros(grid1d.shape), C)
    assert max_density_rate < 1e-14


def test_time_reversal_zero_horizon(grid1d):
    psi = gaussian_packet(grid1d, 20.0, 1.0, 0.0, C)
    defect, floor = time_reversal_defect(psi, np.zeros(grid1d.shape), 0.0, 0.0, C, dt=0.01)
    assert defect == floor == 0.0


def test_time_reversal_linear_floor(grid1d):
    V = harmonic_potential(grid1d, 1.0, C)
    psi = gaussian_packet(grid1d, 21.0, 1.0, 0.0, C)
    defect, _ = time_reversal_defect(psi, V, 1.0, 0.0, C, dt=0.01)
    assert defect <= 1e-10


def test_time_reversal_diffusion_breaks_involution(grid1d):
    V = harmonic_potential(grid1d, 1.0, C)
    psi = gaussian_packet(grid1d, 21.0, 1.0, 0.0, C)
    defect, floor = time_reversal_defect(psi, V, 1.0, 0.05, C, dt=0.01)
    assert defect / floor >= 1e3
    assert defect > 1e-4
    assert floor == time_reversal_defect(psi, V, 1.0, 0.0, C, dt=0.01)[0]


def test_time_reversal_error_accumulation_bound(grid1d):
    V = harmonic_potential(grid1d, 1.0, C)
    psi = gaussian_packet(grid1d, 21.0, 1.0, 0.0, C)
    d1, _ = time_reversal_defect(psi, V, 1.0, 0.0, C, dt=0.01)
    d2, _ = time_reversal_defect(psi, V, 2.0, 0.0, C, dt=0.01)
    assert d2 <= 4.0 * max(d1, 1e-14)


def test_time_reversal_requires_commensurate_horizon(grid1d):
    # T = 0.005 rounds to zero steps: it is refused, not read as a zero horizon
    psi = gaussian_packet(grid1d, 20.0, 1.0, 0.0, C)
    for T in (0.105, 0.005):
        with pytest.raises(ValueError, match=f"horizon {T:g} is not a whole number of steps dt 0.01"):
            time_reversal_defect(psi, np.zeros(grid1d.shape), T, 0.0, C, dt=0.01)


@pytest.mark.parametrize("winding", [0, 1, 2])
def test_circulation_integer(grid2d, winding):
    center = (10.0 + grid2d.spacing / 2, 10.0 + grid2d.spacing / 2)
    psi = vortex_state(grid2d, winding, 2.0, center)
    line, area, n_est = circulation(psi, 2.0, center, C)
    assert abs(n_est - winding) <= 1e-8
    if winding:
        assert abs(line - area) / abs(line) <= 1e-6
    assert abs(line - 2 * np.pi * winding * C.hbar) <= 1e-8


def test_circulation_loop_deformation_invariance(grid2d):
    center = (10.0 + grid2d.spacing / 2, 10.0 + grid2d.spacing / 2)
    psi = vortex_state(grid2d, 1, 2.0, center)
    _, _, n1 = circulation(psi, 1.5, center, C)
    _, _, n2 = circulation(psi, 3.5, center, C)
    assert n1 == pytest.approx(n2, abs=1e-12)


def test_circulation_rejects_tight_loop(grid2d):
    center = (10.0, 10.0)
    psi = vortex_state(grid2d, 1, 2.0, center)
    with pytest.raises(ValueError):
        circulation(psi, grid2d.spacing, center, C)


def test_circulation_rejects_loop_through_masked_region(grid2d):
    center = (10.0 + grid2d.spacing / 2, 10.0 + grid2d.spacing / 2)
    psi = vortex_state(grid2d, 1, 1.0, center)
    with pytest.raises(ValueError, match="^loop intersects the masked nodal region$"):
        circulation(psi, 8.0, center, C)  # loop deep in the exponential tail


def _area_by_plaquette_loop(values, center, loop_radius, grid):
    """The area value as a loop over the plaquettes computed it, one np.sum
    of four edge increments per plaquette, added in row-major order."""
    n, h = grid.n, grid.spacing
    i0, j0 = int(round(center[0] / h)) % n, int(round(center[1] / h)) % n
    r = int(round(loop_radius / h))
    area_sum = 0.0
    for di in range(-r, r):
        for dj in range(-r, r):
            i, j = (i0 + di) % n, (j0 + dj) % n
            ip, jp = (i + 1) % n, (j + 1) % n
            corners = np.array([values[i, j], values[ip, j], values[ip, jp], values[i, jp], values[i, j]])
            area_sum += float(np.sum(np.angle(corners[1:] * np.conj(corners[:-1]))))
    return C.hbar * area_sum


def _white_noise(grid, seed):
    r = np.random.default_rng(seed)
    return WaveField(grid, r.standard_normal(grid.shape) + 1j * r.standard_normal(grid.shape), 0.0)


def _circulation_cases():
    # the circulation suite's grid, vortices and loop; white noise on it; and
    # loops centred within their radius of the box edge, across the seam
    grid = make_grid(2, 256, 20.0)
    center = (10.0 + grid.spacing / 2, 10.0 + grid.spacing / 2)
    cases = [pytest.param(vortex_state(grid, w, 2.0, center), center, 2.0, id=f"vortex-{w}") for w in (0, 1, 2)]
    noise = _white_noise(grid, 3)
    cases.append(pytest.param(noise, center, 2.0, id="noise"))
    cases.append(pytest.param(noise, (grid.spacing, grid.length - 3 * grid.spacing), 2.0, id="noise-seam"))
    cases.append(pytest.param(vortex_state(grid, 1, 2.0, (0.3, 0.3)), (0.3, 0.3), 1.5, id="vortex-seam"))
    return cases


@pytest.mark.parametrize("psi, center, radius", _circulation_cases())
def test_circulation_area_keeps_the_bits_of_the_plaquette_loop(psi, center, radius):
    _, area, _ = circulation(psi, radius, center, C, 1e-300)
    assert area.hex() == _area_by_plaquette_loop(psi.values, center, radius, psi.grid).hex()


def _line_by_cell_walk(values, center, loop_radius, grid):
    """The line value as the per-cell walk computed it: the counterclockwise
    loop's cells one by one from (i0 + r, j0 - r), closed on the first."""
    n, h = grid.n, grid.spacing
    i0, j0 = int(round(center[0] / h)) % n, int(round(center[1] / h)) % n
    r = int(round(loop_radius / h))
    cells = [((i0 + r) % n, (j0 + dj) % n) for dj in range(-r, r)]
    cells += [((i0 + di) % n, (j0 + r) % n) for di in range(r, -r, -1)]
    cells += [((i0 - r) % n, (j0 + dj) % n) for dj in range(r, -r, -1)]
    cells += [((i0 + di) % n, (j0 - r) % n) for di in range(-r, r)]
    path = np.array([values[c] for c in cells] + [values[cells[0]]])
    return C.hbar * float(np.sum(np.angle(path[1:] * np.conj(path[:-1]))))


def _line_cases():
    # the area's cases, winding -1 and a radius of 5 (64 cells), and noise
    # on a 5.0 loop across both periodic seams
    grid = make_grid(2, 256, 20.0)
    center = (10.0 + grid.spacing / 2, 10.0 + grid.spacing / 2)
    cases = [pytest.param(vortex_state(grid, w, 2.0, center), center, radius, id=f"vortex-{w}-r{radius:g}")
             for w, radius in [(-1, 2.0), (-1, 5.0), (0, 5.0), (1, 5.0), (2, 5.0)]]
    seam = (grid.spacing, grid.length - 3 * grid.spacing)
    return _circulation_cases() + cases + [pytest.param(_white_noise(grid, 4), seam, 5.0, id="noise-seam-r5")]


@pytest.mark.parametrize("psi, center, radius", _line_cases())
def test_circulation_line_keeps_the_bits_of_the_cell_walk(psi, center, radius):
    line, _, _ = circulation(psi, radius, center, C, 1e-300)
    assert line.hex() == _line_by_cell_walk(psi.values, center, radius, psi.grid).hex()


def test_circulation_line_area_and_integer_are_identities():
    # on complex white noise, which is full of vortices, line and area agree
    # and n is an integer to round-off: both hold for any field, so only
    # |n - winding| in max_integer_gap measures physics
    grid = make_grid(2, 256, 20.0)
    center = (10.0 + grid.spacing / 2, 10.0 + grid.spacing / 2)
    windings = []
    for seed in range(6):
        line, area, n_est = circulation(_white_noise(grid, seed), 2.0, center, C, 1e-300)
        assert abs(n_est - round(n_est)) <= 1e-13
        assert abs(line - area) <= 1e-13 * 2 * np.pi * C.hbar
        windings.append(round(n_est))
    assert len(set(windings)) > 1 and 0 not in windings


@pytest.mark.parametrize("radius", [10.0, 12.0])
def test_circulation_rejects_loop_that_wraps_the_box(radius):
    # 2 r_cells >= n: the loop's sides meet across the periodic seam, and at
    # radius 10 (r_cells = n / 2) winding 1 read n = 7e-17, at 12 winding 2 read -6
    grid = make_grid(2, 256, 20.0)
    center = (10.0 + grid.spacing / 2, 10.0 + grid.spacing / 2)
    psi = vortex_state(grid, 1, 2.0, center)
    with pytest.raises(ValueError, match=r"loop of \d+ cells a side .* periodic box of 256 cells"):
        circulation(psi, radius, center, C, 1e-300)
    # the largest loop that fits, 254 cells a side, still measures
    _, _, n_est = circulation(psi, 127 * grid.spacing, center, C, 1e-300)
    assert abs(n_est - 1.0) <= 1e-8


def test_eps_reg_sensitivity_documented():
    """The regulariser scale check: saturated rows and the linear floor are
    stable across eps_reg in {1e-5, 1e-7}; the knife-edge beta = 0.005 row is
    chaotic under refinement and is reported, not asserted (ROADMAP item 3
    measures its round-off growth against eps_reg)."""
    cfg = SuperpositionConfig()
    base = superposition_residual(cfg, 0.05)
    lo = superposition_residual(dataclasses.replace(cfg, eps_reg=1e-5), 0.05)
    hi = superposition_residual(dataclasses.replace(cfg, eps_reg=1e-7), 0.05)
    assert abs(lo - base) / base <= 0.1
    assert abs(hi - base) / base <= 0.1
    assert superposition_residual(dataclasses.replace(cfg, eps_reg=1e-5), 0.0) <= 1e-10


def test_well_posed_beta_row_is_independent_of_the_splitting():
    # at eps_reg = 1e-4 the base beta = 0.005 row measures the flow, not
    # amplified round-off (its mirror-image control sits at 1e-13), so the
    # order of the kick and the kinetic halves in the Strang step moves it by
    # the splittings' O(dt^2) difference only: kicks outside the kinetic
    # step read 3.938530624e-4, kinetic halves outside 3.938531648e-4
    cfg = dataclasses.replace(SuperpositionConfig(), eps_reg=1e-4)
    assert abs(superposition_residual(cfg, 0.005) / 3.938530624e-4 - 1.0) <= 1e-5


def test_batched_beta_evolution_matches_scalar_stepper():
    # the batched kernel that superposition_residual runs and the scalar
    # step_beta must agree to round-off.  Both run the same kernel, so this is
    # an identity; test_batch_rows_match_solo_evolution is its partner.
    from fisher_hydro.propagate import _strang, step_beta
    from fisher_hydro.states import harmonic_potential

    grid = make_grid(1, 512, 40.0)
    V = harmonic_potential(grid, 0.3, C)
    psi0 = gaussian_packet(grid, 22.0, 1.2, 0.0, C)
    beta, eps_reg, dt, n = 0.01, 1e-6, 0.01, 40

    advance = _strang(V, grid, dt, C, EvolutionSpec("beta_nonlinear", beta=beta, eps_reg=eps_reg))
    batch = advance(psi0.values[None, :].copy(), n)
    wf = psi0
    for _ in range(n):
        wf = step_beta(wf, V, dt, beta, eps_reg, C)
    from fisher_hydro.grid import norm_l2

    assert norm_l2(batch[0] - wf.values, grid) <= 1e-12
