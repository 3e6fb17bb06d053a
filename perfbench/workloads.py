"""The three benchmark workloads: set-up, one unit of fixed work, and the
checks on every output of that unit.

A workload is three things: ``setup(seed, outdir)`` builds everything the
first timed call needs and returns a context; ``unit(ctx, index)`` does the
workload's fixed work once, through the package's public entry points, and
returns its checks; ``traced_units`` is how many units the traced run records;
``interleave`` names a (module, function) of the package before whose every
call an untraced run reads the reference kernel, or is None.
Set-up imports ``fisher_hydro`` afresh each time, so every repetition pays the
import.  A unit's inputs depend only on the seed and the unit's index.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

MODULES = ("grid", "fields", "states", "propagate", "residuals", "functionals", "brackets", "stresstests", "cli")
DIAGNOSTIC_SUITES = ("scan-alpha", "continuity", "dg-entropy", "circulation", "fisher-el",
                     "time-reversal", "galilei", "complexifier")

# Criterion 4 exactly as tests/test_acceptance.py states it.
CRITERION_4 = {
    "linear_floor": 1e-10,
    "beta_0.005": (0.08, 0.35),
    "beta_0.02_0.05": (1.2, 1.45),
    "refinement_ratio": 0.9,
    "runtime_s": 180.0,
}
VARIANCE_RTOL = 1e-6
NORM_RTOL = 1e-10


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def import_package() -> SimpleNamespace:
    """Import fisher_hydro afresh and return its modules by short name."""
    for name in [k for k in sys.modules if k == "fisher_hydro" or k.startswith("fisher_hydro.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"fisher_hydro.{m}") for m in MODULES})


def warm_fft(shapes) -> None:
    """Run each transform shape once so plan caches are built before timing."""
    for shape in shapes:
        a = np.ones(shape, dtype=complex)
        np.fft.ifft(np.fft.fft(a, axis=-1), axis=-1)
        np.fft.ifftn(np.fft.fftn(a))


def _verdict_checks(fh, suite: str, outdir: str) -> tuple[list[Check], object]:
    code, verdict = fh.cli.run_one(suite, None, outdir, {})
    checks = [Check(f"{suite}.exit_code", code == 0, f"exit code {code}")]
    if verdict is None:
        return checks + [Check(f"{suite}.verdict", False, "no verdict returned")], None
    checks.append(Check(f"{suite}.pass", bool(verdict.passed), f"verdict pass = {verdict.passed}"))
    path = os.path.join(outdir, f"{suite}.verdict.json")
    with open(path) as handle:
        on_disk = json.load(handle)
    checks.append(Check(f"{suite}.artefact_pass", on_disk.get("pass") is True,
                        f"{os.path.basename(path)} pass = {on_disk.get('pass')}"))
    return checks, verdict


# --------------------------------------------------------------- superposition

def superposition_setup(seed: int, outdir: str):
    # The criterion-4 config is the published table, so the seed changes nothing.
    # run_one builds its own grids and states, so set-up is import, config
    # and the batched transform plans of the base and refined grids.
    fh = import_package()
    cfg = fh.cli.load_config("superposition", None, {})
    warm_fft([(3, cfg["n"]), (3, 2 * cfg["n"])])
    return SimpleNamespace(fh=fh, outdir=outdir)


def superposition_unit(ctx, index: int) -> list[Check]:
    t0 = time.perf_counter()
    checks, verdict = _verdict_checks(ctx.fh, "superposition", ctx.outdir)
    runtime = time.perf_counter() - t0
    if verdict is None:
        return checks
    m = verdict.measured
    floor = CRITERION_4["linear_floor"]
    lo, hi = CRITERION_4["beta_0.005"]
    slo, shi = CRITERION_4["beta_0.02_0.05"]
    betas = sorted(float(k[len("base_"):]) for k in m if k.startswith("base_"))
    ratio = min(m[f"refined_{b:g}"] / m[f"base_{b:g}"] for b in betas if b > 0)
    checks += [
        Check("criterion4.beta0_base", m["base_0"] <= floor, f"{m['base_0']:.3e} <= {floor:g}"),
        Check("criterion4.beta0_refined", m["refined_0"] <= floor, f"{m['refined_0']:.3e} <= {floor:g}"),
        Check("criterion4.beta0.005_base", lo <= m["base_0.005"] <= hi, f"{m['base_0.005']:.4f} in [{lo}, {hi}]"),
        Check("criterion4.beta0.02_base", slo <= m["base_0.02"] <= shi, f"{m['base_0.02']:.4f} in [{slo}, {shi}]"),
        Check("criterion4.beta0.05_base", slo <= m["base_0.05"] <= shi, f"{m['base_0.05']:.4f} in [{slo}, {shi}]"),
        Check("criterion4.refinement_ratio", ratio >= CRITERION_4["refinement_ratio"],
              f"{ratio:.3f} >= {CRITERION_4['refinement_ratio']}"),
        Check("criterion4.runtime", runtime <= CRITERION_4["runtime_s"], f"{runtime:.1f}s <= 180s"),
    ]
    return checks


# ----------------------------------------------------------------- diagnostics

def diagnostics_setup(seed: int, outdir: str):
    fh = import_package()
    shapes = set()
    for suite in DIAGNOSTIC_SUITES:
        cfg = fh.cli.load_config(suite, None, {})
        dim = 2 if suite == "circulation" else 1
        shapes |= {(n,) * dim for n in (cfg["n"], cfg.get("n_bump", cfg["n"]))}
    warm_fft(sorted(shapes))
    return SimpleNamespace(fh=fh, outdir=outdir, seed=seed)


def diagnostics_unit(ctx, index: int) -> list[Check]:
    checks = []
    for i in np.random.default_rng([ctx.seed, index]).permutation(len(DIAGNOSTIC_SUITES)):
        checks += _verdict_checks(ctx.fh, DIAGNOSTIC_SUITES[i], ctx.outdir)[0]
    return checks


# ---------------------------------------------------------------- trajectories

def _spread(sigma0: float, t: float) -> float:
    """2 Var(x) of a free packet of initial width sigma0 (hbar = m = 1)."""
    return sigma0**2 * (1.0 + (t / sigma0**2) ** 2)


def trajectories_setup(seed: int, outdir: str):
    fh = import_package()
    rng = np.random.default_rng(seed)
    c = fh.fields.PhysicalConstants()
    EvolutionSpec = fh.propagate.EvolutionSpec
    make_grid, packet = fh.grid.make_grid, fh.states.gaussian_packet
    runs = {}

    # Centre and momentum ranges keep every packet many widths from the seam.
    g = make_grid(1, 16384, 122.88)
    runs["linear-1d"] = (packet(g, g.length / 2 + rng.uniform(-10, 10), 1.0, rng.uniform(-2, 2), c),
                         np.zeros(g.shape), EvolutionSpec(kind="linear", dt=0.005, t_final=3.6, record_stride=720))
    g = make_grid(1, 1024, 40.0)
    runs["dg"] = (packet(g, g.length / 2 + rng.uniform(-2, 2), 1.0, rng.uniform(-1, 1), c),
                  fh.states.harmonic_potential(g, 1.0, c),
                  EvolutionSpec(kind="dg_diffusion", dt=0.01, t_final=2.0, record_stride=200, D=0.05))
    g = make_grid(1, 4096, 68.0)
    runs["beta"] = (packet(g, g.length / 2 + rng.uniform(-5, 5), math.sqrt(5.0), rng.uniform(-0.5, 0.5), c),
                    fh.states.harmonic_potential(g, 0.2, c),
                    EvolutionSpec(kind="beta_nonlinear", dt=0.005, t_final=2.1, record_stride=420,
                                  beta=0.005, eps_reg=1e-6))
    g = make_grid(2, 256, 20.0)
    centre = g.length / 2 + rng.uniform(-2, 2, size=2)
    k = rng.uniform(-1, 1, size=2)
    vortex = fh.states.vortex_state(g, 0, 1.0, tuple(centre))
    xy = (g.coords() - centre[:, None, None] + g.length / 2) % g.length - g.length / 2
    plane = np.exp(1j * (k[0] * xy[0] + k[1] * xy[1]))
    runs["linear-2d"] = (fh.fields.WaveField(g, vortex.values * plane).normalized(), np.zeros(g.shape),
                         EvolutionSpec(kind="linear", dt=0.01, t_final=0.5, record_stride=50))
    warm_fft(sorted({psi.values.shape for psi, _, _ in runs.values()}))
    return SimpleNamespace(fh=fh, constants=c, runs=runs)


def _variance(wf, axis: int) -> float:
    """Variance of |psi|^2 along one axis (the packet stays clear of the seam)."""
    rho = wf.density()
    w = rho.sum(axis=1 - axis) if rho.ndim == 2 else rho
    x = wf.grid.axes[0]
    mean = float(np.sum(w * x) / np.sum(w))
    return float(np.sum(w * (x - mean) ** 2) / np.sum(w))


def trajectories_unit(ctx, index: int) -> list[Check]:
    prop, c = ctx.fh.propagate, ctx.constants
    checks = []
    finals = {}
    for name, (psi, V, spec) in ctx.runs.items():
        t, wf = prop.evolve(psi, V, spec, c).snapshots[-1]
        finals[name] = (t, wf)
        checks.append(Check(f"{name}.finite", bool(np.all(np.isfinite(wf.values))), f"t = {t:g}"))
    for name in ("linear-1d", "linear-2d", "beta"):
        norm = finals[name][1].norm()
        checks.append(Check(f"{name}.norm", abs(norm - 1.0) <= NORM_RTOL, f"|{norm:.15f} - 1| <= {NORM_RTOL:g}"))
    for name, sigma0, axes in (("linear-1d", 1.0, (0,)), ("linear-2d", 1.0, (0, 1))):
        t, wf = finals[name]
        expected = _spread(sigma0, t)
        for axis in axes:
            got = 2.0 * _variance(wf, axis)
            rel = abs(got - expected) / expected
            checks.append(Check(f"{name}.variance_axis{axis}", rel <= VARIANCE_RTOL,
                                f"2 Var = {got:.12f} vs {expected:.12f}, rel {rel:.1e} <= {VARIANCE_RTOL:g}"))
    for name in ("beta", "linear-2d"):
        psi, V, spec = ctx.runs[name]
        ref = prop.step_linear(psi, V, spec.dt, c).values
        dg = prop.step_dg(psi, V, spec.dt, 0.0, c).values
        beta = prop.step_beta(psi, V, spec.dt, 0.0, spec.eps_reg, c).values
        checks.append(Check(f"{name}.step_dg_D0_bitwise", bool(np.array_equal(dg, ref)), "step_dg(D=0) == step_linear"))
        checks.append(Check(f"{name}.step_beta_0_bitwise", bool(np.array_equal(beta, ref)),
                            "step_beta(beta=0) == step_linear"))
    return checks


# A superposition verdict lasts 20-35 s, so its untraced runs read the
# reference kernel before each of its ten superposition_residual calls too.
WORKLOADS = {
    "superposition": SimpleNamespace(setup=superposition_setup, unit=superposition_unit, traced_units=1,
                                     interleave=("stresstests", "superposition_residual")),
    "diagnostics": SimpleNamespace(setup=diagnostics_setup, unit=diagnostics_unit, traced_units=40,
                                   interleave=None),
    "trajectories": SimpleNamespace(setup=trajectories_setup, unit=trajectories_unit, traced_units=4,
                                    interleave=None),
}
