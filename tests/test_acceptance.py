"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The oracle suite runs first; the headline suites follow.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from fisher_hydro import EvolutionSpec, PhysicalConstants, evolve, make_grid
from fisher_hydro.brackets import bargmann_check, galilean_generators
from fisher_hydro.fields import WaveField, polar_decompose, quantum_potential
from fisher_hydro.functionals import (
    RegulariserSpec,
    el_derivative,
    entropy_production_identity,
    regulariser_value,
    shannon_entropy_rate,
)
from fisher_hydro.grid import integrate
from fisher_hydro.propagate import evolve_density_diffusion, symmetric_pair
from fisher_hydro.residuals import (
    alpha_scan,
    continuity_residual,
    default_alpha_grid,
    eigen_coefficient_curve,
    hj_residual,
)
from fisher_hydro.states import (
    boost,
    bump_density,
    gaussian_packet,
    harmonic_potential,
    oscillator_energy,
    oscillator_state,
    vortex_state,
)
from fisher_hydro.stresstests import (
    SuperpositionConfig,
    beta_drops,
    circulation,
    complexifier_scan,
    time_reversal_defect,
)

C = PhysicalConstants()

TABLE1 = dict(length=122.88, sigma0=1.0, t_final=3.6, snap_dt=0.2)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def table1_scan(n: int, dt: float, v0: float = 0.0):
    grid = make_grid(1, n, TABLE1["length"])
    psi = gaussian_packet(grid, grid.length / 2, TABLE1["sigma0"], 0.0, C)
    if v0:
        psi = boost(psi, v0, C)
    spec = EvolutionSpec(kind="linear", dt=dt, t_final=TABLE1["t_final"],
                         record_stride=int(round(TABLE1["snap_dt"] / dt)))
    traj = evolve(psi, np.zeros(grid.shape), spec, C)
    return alpha_scan(traj, np.zeros(grid.shape), default_alpha_grid(), C)


def test_criterion_11_oracle_suite():
    """Brute-force oracles for the [DERIVED] examples run before the headline suites."""
    # free-packet spreading: sigma(t)^2 = sigma0^2 (1 + (hbar t / m sigma0^2)^2)
    grid = make_grid(1, 2048, 120.0)
    psi = gaussian_packet(grid, 60.0, 1.0, 0.0, C)
    spec = EvolutionSpec(kind="linear", dt=0.02, t_final=3.0, record_stride=50)
    t, wf = evolve(psi, np.zeros(grid.shape), spec, C).snapshots[-1]
    x = grid.axes[0]
    var = integrate(wf.density() * (x - integrate(wf.density() * x, grid)) ** 2, grid)
    spread_ok = abs(2 * var - (1 + t**2)) / (1 + t**2) <= 1e-6

    # heat kernel: variance grows as sigma^2 + 2 D t
    rho0 = np.exp(-((x - 60.0) ** 2) / 2.0)
    rho0 /= integrate(rho0, grid)
    dspec = EvolutionSpec(kind="density_diffusion", dt=0.005, t_final=2.0, record_stride=100, D=0.05)
    td, rho = evolve_density_diffusion(rho0, dspec, grid).snapshots[-1]
    vard = integrate(rho * (x - integrate(rho * x, grid)) ** 2, grid)
    heat_ok = abs(vard - (1.0 + 2 * 0.05 * td)) / (1.0 + 0.1 * td) <= 1e-6

    # closed-form Gaussian Bohm potential
    sigma = 1.5
    rho_g = np.exp(-((x - 60.0) ** 2) / sigma**2)
    rho_g /= integrate(rho_g, grid)
    mask = rho_g > 1e-6 * rho_g.max()
    q = quantum_potential(rho_g, 0.37, grid, mask)
    q_exact = 0.37 * (1 / sigma**2 - (x - 60.0) ** 2 / sigma**4)
    q_ok = np.max(np.abs(q - q_exact)[mask]) <= 1e-8

    # Gateaux ratio bracket for the regulariser EL derivative
    g2 = make_grid(1, 2048, 40.0)
    x2 = g2.axes[0] - 20.0
    rho2 = np.exp(-(x2**2) / 1.5**2)
    rho2 /= integrate(rho2, g2)
    mask2 = rho2 > 1e-4 * rho2.max()
    window = np.exp(-(x2**2))
    k = g2.wavenumbers
    eta = np.fft.ifft(np.fft.fft(np.random.default_rng(3).standard_normal(g2.shape))
                      * np.exp(-((k / 2.0) ** 2))).real * window
    eta -= window * integrate(eta, g2) / integrate(window, g2)
    spec_f = RegulariserSpec("fisher", 0.4)
    analytic = integrate(el_derivative(spec_f, rho2, g2, mask2) * eta, g2)

    def fd(eps):
        return (regulariser_value(spec_f, rho2 + eps * eta, g2, mask2)
                - regulariser_value(spec_f, rho2 - eps * eta, g2, mask2)) / (2 * eps)

    ratio = abs(fd(0.1) - analytic) / abs(fd(0.05) - analytic)
    gateaux_ok = 3.5 <= ratio <= 4.5

    report("criterion 11", spread_ok and heat_ok and q_ok and gateaux_ok,
           f"oracles: spreading={spread_ok}, heat kernel={heat_ok}, "
           f"gaussian Q={q_ok}, gateaux ratio {ratio:.2f} in [3.5, 4.5]={gateaux_ok}")


def test_criterion_1_alpha_scan_resolution_table():
    t0 = time.perf_counter()
    res = table1_scan(4096, 0.020)
    runtime = time.perf_counter() - t0
    ok = (
        abs(res.argmin - 1.0) <= 0.025
        and 1e-4 <= res.min_value <= 1e-2
        and res.r_cont_mean <= 1e-6
        and runtime <= 60.0
    )
    res_hi = table1_scan(16384, 0.005)
    ok = ok and res_hi.argmin_grid == res.argmin_grid and abs(res_hi.argmin - 1.0) <= 0.025
    # the exact fixed point sits far below the scan curve (deep minimum)
    grid = make_grid(1, 4096, TABLE1["length"])
    psi = gaussian_packet(grid, grid.length / 2, 1.0, 0.0, C)
    spec = EvolutionSpec(kind="linear", dt=0.02, t_final=1.0, record_stride=10)
    wf = evolve(psi, np.zeros(grid.shape), spec, C).snapshots[-1][1]
    floor = hj_residual(wf, np.zeros(grid.shape), C.alpha_star, C)
    ok = ok and floor <= 1e-5
    report("criterion 1", ok,
           f"argmin={res.argmin:.4f} min={res.min_value:.3e} in [1e-4,1e-2], "
           f"mean R_cont={res.r_cont_mean:.3e} <= 1e-6, runtime {runtime:.1f}s <= 60s, "
           f"N=16384 argmin cell unchanged={res_hi.argmin_grid == res.argmin_grid}, "
           f"floor at alpha*={floor:.2e}")


def test_criterion_2_boost_invariance():
    res0 = table1_scan(4096, 0.020, v0=0.0)
    res1 = table1_scan(4096, 0.020, v0=1.5)
    gap = float(np.max(np.abs(res0.residuals - res1.residuals)))
    ok = res0.argmin_grid == res1.argmin_grid and gap <= 1e-9
    report("criterion 2", ok,
           f"boosted argmin identical ({res1.argmin_grid}), max curve gap {gap:.2e} <= 1e-9")


def test_criterion_3_eigenstate_floor_and_perturbation():
    grid = make_grid(1, 2048, 40.0)
    psi = oscillator_state(grid, 0, 1.0, C)
    V = harmonic_potential(grid, 1.0, C)
    r_star = hj_residual(psi, V, C.alpha_star, C)

    e0 = oscillator_energy(0, 1.0, C)
    dt = 0.01
    triple = tuple(
        WaveField(grid, psi.values * np.exp(-1j * e0 * t / C.hbar), t) for t in (-dt, 0.0, dt)
    )
    r_cont = continuity_residual(triple, C)

    deltas = (0.05, 0.1, 0.2)
    values = [hj_residual(psi, V, (1 + d) * C.alpha_star, C) for d in deltas]
    increasing = values[0] > r_star and values[0] < values[1] < values[2]
    ratio1 = values[1] / values[0]
    ratio2 = values[2] / values[1]
    # R_cont does not depend on the candidate alpha at all
    ok = (
        r_star <= 1e-8
        and r_cont <= 1e-10
        and increasing
        and 1.6 <= ratio1 <= 2.4
        and 1.6 <= ratio2 <= 2.4
    )
    report("criterion 3", ok,
           f"R_HJ(alpha*)={r_star:.2e} <= 1e-8, R_cont={r_cont:.2e} <= 1e-10, "
           f"perturbation ratios {ratio1:.2f}, {ratio2:.2f} in [1.6, 2.4], "
           f"R_cont alpha-independent by construction (delta = 0)")


def test_criterion_4_superposition_table(superposition_run):
    # the default run of the superposition suite, which the golden test shares
    assert superposition_run.config == SuperpositionConfig()
    rows, runtime = superposition_run.rows, superposition_run.runtime_s
    by_beta = {r["beta"]: r for r in rows}
    ratios = [r["refined"] / r["base"] for r in rows if r["beta"] > 0]
    monotone, plateau = beta_drops(rows)
    ok = (
        by_beta[0.0]["base"] <= 1e-10
        and by_beta[0.0]["refined"] <= 1e-10
        and 0.08 <= by_beta[0.005]["base"] <= 0.35
        and 1.2 <= by_beta[0.02]["base"] <= 1.45
        and 1.2 <= by_beta[0.05]["base"] <= 1.45
        and min(ratios) >= 0.9
        and monotone <= 1e-12
        and plateau <= 0.05
        and runtime <= 180.0
    )
    report("criterion 4", ok,
           f"beta=0: {by_beta[0.0]['base']:.1e}/{by_beta[0.0]['refined']:.1e} <= 1e-10, "
           f"beta=.005: {by_beta[0.005]['base']:.3f} in [0.08,0.35], "
           f"beta=.02/.05: {by_beta[0.02]['base']:.3f}/{by_beta[0.05]['base']:.3f} in [1.2,1.45], "
           f"min refinement ratio {min(ratios):.2f} >= 0.9, "
           f"largest drop in beta {monotone:.1e} <= 1e-12 (plateau {plateau:.1e} <= 0.05), "
           f"runtime {runtime:.0f}s <= 180s")


def test_criterion_5_entropy_barrier():
    grid = make_grid(1, 512, 40.0)
    x = grid.axes[0]
    rho0 = np.exp(-((x - 20.0) ** 2) / 2.0)
    rho0 /= integrate(rho0, grid)
    D = 0.05
    spec = EvolutionSpec(kind="density_diffusion", dt=0.01, t_final=2.0, record_stride=10, D=D)
    traj = evolve_density_diffusion(rho0, spec, grid)
    _, measured, predicted = shannon_entropy_rate(traj)
    worst = float(np.max(np.abs(measured - predicted) / np.abs(predicted)))

    traj0 = evolve_density_diffusion(rho0, dataclasses.replace(spec, D=0.0), grid)
    _, measured0, _ = shannon_entropy_rate(traj0)
    zero_rate = float(np.max(np.abs(measured0)))

    psi = gaussian_packet(grid, 20.0, 1.0, 0.0, C)
    wspec = EvolutionSpec(kind="dg_diffusion", dt=0.01, t_final=1.0, record_stride=25, D=D)
    wtraj = evolve(psi, np.zeros(grid.shape), wspec, C)
    identity_worst = 0.0
    for _, wf in wtraj.snapshots[1:]:
        hydro = polar_decompose(wf, 1e-6, C)
        production, fisher_pred = entropy_production_identity(hydro.rho, D, grid)
        identity_worst = max(identity_worst, abs(production - fisher_pred) / abs(fisher_pred))

    ok = worst <= 1e-4 and zero_rate <= 1e-10 and identity_worst <= 1e-6
    report("criterion 5", ok,
           f"measured dS/dt = D I_F to {worst:.2e} <= 1e-4 at every interior snapshot, "
           f"D=0 rate {zero_rate:.2e} <= 1e-10, DG identity to {identity_worst:.2e} <= 1e-6")


def test_criterion_6_bargmann_closure():
    grid = make_grid(1, 2048, 80.0)
    psi = boost(gaussian_packet(grid, 40.0, 1.0, 0.0, C), 1.5, C)
    hydro = polar_decompose(psi, 1e-6, C)
    V = np.zeros(grid.shape)
    entries = bargmann_check(hydro, V, C.alpha_star, C)
    p_val = galilean_generators(hydro, C)["P0"].value
    hp = abs(entries["hp0"]["value"])
    hk = abs(entries["hk_plus_p0"]["value"])
    pk = abs(entries["pk_plus_m00"]["value"])
    ok = hp <= 1e-10 and hk <= 1e-8 * abs(p_val) and pk <= 1e-10
    report("criterion 6", ok,
           f"|{{H,P}}|={hp:.2e} <= 1e-10, |{{H,K}}+P|={hk:.2e} <= 1e-8|P|={1e-8 * abs(p_val):.2e}, "
           f"|{{P,K}}+m|={pk:.2e} <= 1e-10")


def test_criterion_7_fisher_el_necessity(tmp_path):
    from fisher_hydro.cli import DEFAULTS, run_fisher_el

    verdict = run_fisher_el(dict(DEFAULTS["fisher-el"]), str(tmp_path))
    m = verdict.measured
    ok = (
        m["fisher_worst_residual"] <= 1e-9
        and m["non_fisher_best_residual"] >= 1e-3
        and abs(m["excited_scan_argmin"] - 1.0) <= 0.01
        and DEFAULTS["fisher-el"]["node_mask_halfwidth"] >= 0.05
    )
    report("criterion 7", ok,
           f"fisher residuals <= {m['fisher_worst_residual']:.2e} (<= 1e-9) on gaussian/bump/"
           f"node-masked excited, non-fisher >= {m['non_fisher_best_residual']:.2e} (>= 1e-3), "
           f"coefficient scan argmin {m['excited_scan_argmin']:.4f} = 1.00 +- 0.01")


def test_criterion_8_complexifier_rigidity():
    grid = make_grid(1, 1024, 40.0)
    V = harmonic_potential(grid, 1.0, C)
    psi = gaussian_packet(grid, 21.5, 1.0, 0.0, C)
    spec = EvolutionSpec(kind="linear", dt=0.005, t_final=0.7, record_stride=70)
    snaps = [wf for _, wf in evolve(psi, V, spec, C).snapshots[1:]]
    p_grid = np.array([0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7])
    s_grid = np.array([0.8, 0.9, 1.0, 1.1, 1.25]) / C.hbar
    defect, _ = complexifier_scan(p_grid, s_grid, snaps, V, C)
    cell = np.unravel_index(int(np.argmin(defect)), defect.shape)
    floor = float(defect[cell])
    wall_cells = defect[np.abs(p_grid - 0.5) >= 0.1 - 1e-12, :]  # p = 0.4 and 0.6 included
    unique = np.sum(defect <= floor * (1 + 1e-12)) == 1
    ok = (
        cell == (3, 2)
        and unique
        and floor <= 1e-6
        and float(np.min(wall_cells)) > 1e-2
    )
    report("criterion 8", ok,
           f"unique minimum at (p, s hbar) = ({p_grid[cell[0]]}, "
           f"{s_grid[cell[1]] * C.hbar}), floor {floor:.2e} <= 1e-6, "
           f"all |p - 1/2| >= 0.1 cells >= {float(np.min(wall_cells)):.2e} > 1e-2")


def test_criterion_9_time_reversal():
    grid = make_grid(1, 1024, 40.0)
    V = harmonic_potential(grid, 1.0, C)
    psi = gaussian_packet(grid, 21.5, 1.0, 0.0, C)
    defect, defect0 = time_reversal_defect(psi, V, 2.0, 0.05, C, dt=0.01)
    ratio = defect / max(defect0, 1e-300)
    ok = defect0 <= 1e-10 and ratio >= 1e3
    report("criterion 9", ok,
           f"D=0 defect {defect0:.2e} <= 1e-10, D=0.05 floor ratio {ratio:.1e} >= 1e3")


def test_criterion_10_circulation():
    grid = make_grid(2, 256, 20.0)
    center = (10.0 + grid.spacing / 2, 10.0 + grid.spacing / 2)
    worst_int = 0.0
    worst_rel = 0.0
    for n_wind in (0, 1, 2):
        psi = vortex_state(grid, n_wind, 2.0, center)
        line, area, n_est = circulation(psi, 2.0, center, C)
        worst_int = max(worst_int, abs(n_est - n_wind))
        if n_wind:
            worst_rel = max(worst_rel, abs(line - area) / abs(line))
    ok = worst_int <= 1e-6 and worst_rel <= 1e-6
    report("criterion 10", ok,
           f"n in {{0,1,2}} recovered to {worst_int:.1e} <= 1e-6, "
           f"line/area agreement {worst_rel:.1e} <= 1e-6")
