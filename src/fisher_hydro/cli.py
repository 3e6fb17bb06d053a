"""Command-line front end: one subcommand per archive test, JSON configs,
CSV/JSON artefacts, deterministic outputs, and pass/fail exit codes.

Exit codes: 0 pass; 1 falsifier fired (test ran, a check row failed);
2 config or usage error; 3 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import operator
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .brackets import bargmann_check
from .fields import DEFAULT_EPS_MASK, PhysicalConstants, node_mask, polar_decompose
from .functionals import (
    RegulariserSpec,
    entropy_production_identity,
    fisher_el_necessity_report,
    shannon_entropy_rate,
)
from .grid import make_grid
from .propagate import EvolutionSpec, NumericalAbort, evolve, evolve_density_diffusion
from .residuals import (
    ScanResult,
    alpha_scan,
    continuity_curve,
    default_alpha_grid,
    eigen_coefficient_curve,
    multi_mass_scan,
)
from .states import (
    _positive,
    boost,
    bump_density,
    gaussian_packet,
    harmonic_potential,
    oscillator_energy,
    oscillator_state,
    vortex_state,
)
from .stresstests import (
    SuperpositionConfig,
    _usable_cpus,
    beta_drops,
    circulation,
    complexifier_scan,
    superposition_curve,
    time_reversal_defect,
)

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# The resolution table's free packet and its diagnostics, which scan-alpha and
# continuity both evolve (_table1_trajectory).
_TABLE1 = {
    "n": 4096,
    "dt": 0.020,
    "length": 122.88,
    "sigma0": 1.0,
    "t_final": 3.6,
    "snapshot_interval": 0.2,
    "boost": 0.0,
    "mask_eps": 1e-6,
    "hbar": 1.0,
    "mass": 1.0,
}

# Defaults follow the published configurations where one exists; every entry
# is overrideable from a JSON config file or a CLI flag.
DEFAULTS: dict[str, dict] = {
    "scan-alpha": dict(_TABLE1, alpha_min=0.5, alpha_max=1.5, alpha_steps=40, refine=False),
    "continuity": dict(_TABLE1, diffusion=0.0),
    "dg-entropy": {
        "n": 512,
        "length": 40.0,
        "dt": 0.01,
        "t_final": 2.0,
        "snapshot_interval": 0.1,
        "diffusion": 0.05,
        "sigma0": 1.0,
        "hbar": 1.0,
        "mass": 1.0,
    },
    "circulation": {
        "n": 256,
        "length": 20.0,
        "sigma0": 2.0,
        "loop_radius": 2.0,
        "windings": [0, 1, 2],
        "mask_eps": 1e-6,
        "hbar": 1.0,
    },
    "fisher-el": {
        "n": 1024,
        "n_bump": 4096,
        "length": 40.0,
        "coefficient": 0.25,
        "bump_width": 8.0,
        "node_mask_halfwidth": 0.05,
        "mask_eps": 1e-5,
        "hbar": 1.0,
        "mass": 1.0,
        "omega": 1.0,
        "masses": [0.5, 1.0, 3.0],
    },
    "time-reversal": {
        "n": 1024,
        "length": 40.0,
        "dt": 0.01,
        "t_final": 2.0,
        "omega": 1.0,
        "sigma0": 1.0,
        "x0_offset": 1.5,
        "diffusion": 0.05,
        "hbar": 1.0,
        "mass": 1.0,
    },
    "galilei": {
        "n": 2048,
        "length": 80.0,
        "sigma0": 1.0,
        "boost": 1.5,
        "t": 0.4,
        "dt": 0.01,
        "hbar": 1.0,
        "mass": 1.0,
    },
    "complexifier": {
        "n": 1024,
        "length": 40.0,
        "omega": 1.0,
        "x0_offset": 1.5,
        "dt": 0.005,
        "t_final": 0.7,
        "snapshot_interval": 0.35,
        "p_grid": [0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7],
        "s_grid": [0.8, 0.9, 1.0, 1.1, 1.25],
        "mask_eps": 1e-6,
        "hbar": 1.0,
        "mass": 1.0,
    },
    # the fields of SuperpositionConfig, beta_list as a JSON list
    "superposition": dict(asdict(SuperpositionConfig()), beta_list=list(SuperpositionConfig.beta_list)),
}


# Every CLI flag and its help text.  A subcommand has the flag when its
# DEFAULTS hold the key (--beta: beta_list, to which it appends one coupling),
# and the flag's type is that of the default.
_FLAGS = {
    "refine": "repeat on the refined grid",
    "n": "grid points per axis (power of two)",
    "dt": "time step",
    "alpha_min": "lower end of the alpha/alpha_star scan",
    "alpha_max": "upper end of the alpha/alpha_star scan",
    "alpha_steps": "number of alpha scan cells",
    "boost": "initial packet momentum",
    "diffusion": "Doebner-Goldin diffusion coefficient D",
    "beta": "single nonlinear coupling to append to the beta list",
    "mask_eps": "node mask threshold relative to max rho",
}


# Every gate of every suite: (name, op, bound, source).  A verdict passes when
# all rows its runner applies pass; a bracket lo <= x <= hi is two rows.
# Rows that take S_t or rho_t from the linear model at the config's hbar and m
# say so: they passed on 19 chirped, modulated packets and on two unrelated
# fields that no evolution made.
_MODEL_DERIVED = "; model-derived: rates from the linear model, not the data; passes on fields no dynamics produced"
# Rows that hold for any input at adequate resolution say "an identity", and why.
_BARGMANN = "; an identity on any node-free state whose mass stays off the coordinate seam"
CHECKS: dict[str, list[tuple[str, str, object, str]]] = {
    "scan-alpha": [
        ("argmin_tol", "<=", 0.025,
         "|argmin - 1|: alpha-scan minimum within one grid step of the Fisher scale" + _MODEL_DERIVED),
        ("min_r_hj_low", ">=", 1e-4, "resolution-table floor, order of magnitude" + _MODEL_DERIVED),
        ("min_r_hj_high", "<=", 1e-2, "resolution-table floor, order of magnitude" + _MODEL_DERIVED),
        ("mean_r_cont", "<=", 1e-6, "continuity residual at numerical floor" + _MODEL_DERIVED),
        ("boundary", "==", False, "scan minimum is interior (an edge minimum is inconclusive)" + _MODEL_DERIVED),
        ("argmin_refined_tol", "<=", 0.025, "|argmin - 1| on the refined grid (--refine only)" + _MODEL_DERIVED),
    ],
    "continuity": [
        ("mean_r_cont", "<=", 1e-6, "drift-form continuity holds at floor for D = 0" + _MODEL_DERIVED),
        ("mean_r_cont_broken", ">", 1e-3, "diffusion must break the drift-only form (D > 0)"),
    ],
    "dg-entropy": [
        ("max_rel_rate_error", "<=", 1e-4,
         "measured entropy rate equals D I_F: an identity (de Bruijn's, for the exact heat flow) read through a "
         "centred difference, which fails only by the stencil's O(dt^2)"),
        ("zero_diffusion_rate", "<=", 1e-10,
         "reversible corner produces no entropy: an identity, exactly 0.0 for any rho, since the exact flow "
         "at D = 0 adds expm1(0) = 0 to rho0 and leaves it bit for bit unchanged"),
        ("dg_identity_rel_error", "<=", 1e-6,
         "production identity along DG trajectories: an identity, integration by parts on any rho"),
        ("min_entropy_rate", ">", 0.0,
         "entropy grows at every snapshot (entropy_monotone): an identity, since the rate is D I_F and I_F > 0"),
    ],
    "circulation": [
        ("max_integer_gap", "<=", 1e-6,
         "max(|n - round(n)|, |n - winding|): only |n - winding| tests physics; n is an integer for any "
         "field, an identity (within ~2e-15 on seeded complex white noise, n = 256)"),
        ("max_line_area_rel_gap", "<=", 1e-6,
         "line and area circulation agree: an identity for any field, since the plaquette increments "
         "telescope to the loop's (~2e-15 relative on seeded complex white noise, n = 256)"),
    ],
    "fisher-el": [
        ("fisher_worst_residual", "<=", 1e-9, "Fisher EL identity at machine floor"),
        ("non_fisher_best_residual", ">=", 1e-3, "non-Fisher families leave a finite remainder"),
        ("excited_scan_argmin", "<=", 0.01, "|argmin - 1|: node-masked coefficient scan pins c = 1"),
        ("multi_mass_argmins", "<=", 0.01, "max |argmin - 1| over masses: one action scale for all components"),
    ],
    "time-reversal": [
        ("defect_d0", "<=", 1e-10,
         "reversible involution closes at zero diffusion: an identity, K U K U = I for any real V under a "
         "symmetric splitting"),
        ("floor_ratio", ">=", 1e3, "diffusion breaks the involution by orders of magnitude"),
    ],
    "galilei": [
        ("hp", "<=", 1e-10, "{H, P_i} = 0 in a flat potential" + _BARGMANN),
        ("hk_plus_p", "<=", 1e-8, "{H, K_i} = -P_i, relative to max(|P_i|, 1)" + _BARGMANN),
        ("pk_plus_m", "<=", 1e-10, "{P_i, K_j} = -m delta_ij int rho, relative to max(m, 1)" + _BARGMANN),
    ],
    "complexifier": [
        ("argmin_polar_cell", "==", True,
         "scan minimum sits on the polar cell (p, s hbar) = (1/2, 1)" + _MODEL_DERIVED),
        ("minimum_cells", "==", 1, "the minimum is unique" + _MODEL_DERIVED),
        ("floor", "<=", 1e-6, "polar-map cell sits at the numerical floor" + _MODEL_DERIVED),
        ("off_cell_wall", ">", 1e-2, "non-polar amplitude exponents fail by a finite margin" + _MODEL_DERIVED),
        ("max_density_rate", ">=", 1e-14, "the flow moves the density (max |rho_t|), so the scan can discriminate"),
    ],
    "superposition": [
        ("linear_floor", "<=", 1e-10,
         "linear case converges to numerical zero (base grid): an identity for any linear kernel"),
        ("linear_floor_refined", "<=", 1e-10,
         "linear case converges to numerical zero (refined grid): an identity for any linear kernel"),
        ("beta_0.005_low", ">=", 0.08, "small-coupling residual bracket [0.08, 0.35]"),
        ("beta_0.005", "<=", 0.35, "small-coupling residual bracket [0.08, 0.35]"),
        ("beta_0.02_0.05_low", ">=", 1.2, "saturated residual bracket [1.2, 1.45], smaller of beta = 0.02, 0.05"),
        ("beta_0.02_0.05", "<=", 1.45, "saturated residual bracket [1.2, 1.45], larger of beta = 0.02, 0.05"),
        ("refinement_ratio", ">=", 0.9, "residual does not vanish under grid refinement"),
        ("monotone_in_beta", "<=", 1e-12, "residual grows with beta on both grids: largest drop off the plateau at round-off"),
        ("plateau_jitter", "<=", 0.05, "largest drop between residuals both on the sqrt(2) plateau (>= 1.30)"),
    ],
}

_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt, "==": operator.eq}


class ConfigError(ValueError):
    pass


def evaluate_checks(test: str, values: dict) -> dict:
    """The thresholds of one verdict: each row of CHECKS[test] with its measured
    value and pass flag.  values maps every row name to its measured value, or
    to None where the row does not apply to this run; such rows are left out."""
    rows = CHECKS[test]
    names = {row[0] for row in rows}
    if set(values) != names:
        raise RuntimeError(f"{test}: values {sorted(values)} do not match the check rows {sorted(names)}")
    return {
        name: {"value": bound, "source": source, "op": op, "measured": values[name],
               "pass": bool(_OPS[op](values[name], bound))}
        for name, op, bound, source in rows
        if values[name] is not None
    }


def _environment() -> dict:
    """What a verdict ran on: Python, numpy, the FFT behind np.fft (numpy's
    own is pocketfft; a build that swaps in another names its module) and the
    usable CPUs, which size superposition_curve's process pool."""
    module = np.fft.fft.__module__
    return {"python": platform.python_version(), "numpy": np.__version__,
            "fft_backend": "numpy.fft (pocketfft)" if module == "numpy.fft" else module,
            "cpus": _usable_cpus()}


@dataclass
class Verdict:
    """The one record of every run: what it measured against its CHECKS rows,
    or, for a run that raised, nothing measured and its message in error."""

    test: str
    measured: dict
    thresholds: dict
    passed: bool
    runtime_s: float
    config: dict
    exit_code: int
    error: str | None = None

    def to_json(self) -> str:
        return json.dumps({"test": self.test, "pass": self.passed, "exit_code": self.exit_code, "error": self.error,
                           "measured": self.measured, "thresholds": self.thresholds, "runtime_s": self.runtime_s,
                           "config": self.config, "version": __version__,
                           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "environment": _environment()},
                          indent=2, sort_keys=True)


# suite name -> runner(cfg, outdir) -> Verdict, filled by @_suite
RUNNERS: dict = {}


def _suite(test: str):
    """Register body(cfg, outdir) -> (measured, check values) as the suite's
    runner(cfg, outdir) -> Verdict, timed, with pass read from CHECKS.  A body's
    ValueError (a ConfigError too) or ArithmeticError is a config it cannot
    measure (exit 2: no interior snapshot, a zero divisor), a NumericalAbort exit 3."""

    def wrap(body):
        @functools.wraps(body)
        def runner(cfg: dict, outdir: str) -> Verdict:
            t0 = time.perf_counter()
            try:
                measured, values = body(cfg, outdir)
            except (ValueError, ArithmeticError, NumericalAbort) as exc:
                code = EXIT_NUMERICAL if isinstance(exc, NumericalAbort) else EXIT_CONFIG
                print(f"{'numerical abort' if code == EXIT_NUMERICAL else 'config error'}: {exc}", file=sys.stderr)
                return Verdict(test, {}, {}, False, time.perf_counter() - t0, cfg, code, str(exc))
            thresholds = evaluate_checks(test, values)
            passed = all(check["pass"] for check in thresholds.values())
            return Verdict(test, measured, thresholds, passed, time.perf_counter() - t0, cfg,
                           EXIT_PASS if passed else EXIT_FALSIFIED)

        RUNNERS[test] = runner
        return runner

    return wrap


def _same_type(value, default) -> bool:
    """value has the default's type: an int may stand for a float, a bool only
    for a bool, and each element of a list must match the default's elements."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_type(v, default[0]) for v in value)
    kind = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kind) and isinstance(value, bool) == isinstance(default, bool)


def load_config(test: str, path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULTS[test])
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(user) - set(cfg))
        if unknown:
            raise ConfigError(f"unknown config keys for {test}: {', '.join(unknown)}")
        for key, value in user.items():
            if not _same_type(value, cfg[key]):
                raise ConfigError(f"config key {key!r} has wrong type: {value!r}")
            if value == []:
                raise ConfigError(f"config key {key!r} is an empty list")
            if isinstance(value, list) and len(set(value)) < len(value):  # 0 and 0.0 are one value
                raise ConfigError(f"config key {key!r} repeats a value: {value!r}")
        cfg.update(user)
    for key, value in overrides.items():
        if value is None:
            continue
        if key == "beta" and "beta_list" in cfg:
            key, value = "beta_list", sorted(set(cfg["beta_list"]) | {value})
        if key not in cfg:
            raise ConfigError(f"flag --{key.replace('_', '-')} not applicable to {test}")
        cfg[key] = value
    return cfg


def _write(outdir: str, name: str, body: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "w") as fh:
        fh.write(body)


def _csv_body(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _table1_trajectory(cfg: dict, constants: PhysicalConstants, refined: bool = False, D: float = 0.0):
    """The resolution table's free packet, evolved linearly at D = 0, else by the DG flow."""
    factor = 4 if refined else 1
    grid = make_grid(1, cfg["n"] * factor, cfg["length"])
    dt = cfg["dt"] / factor
    psi = gaussian_packet(grid, grid.length / 2, cfg["sigma0"], 0.0, constants)
    if cfg.get("boost", 0.0):
        psi = boost(psi, cfg["boost"], constants)
    kind = "linear" if D == 0.0 else "dg_diffusion"
    spec = EvolutionSpec.sampled(kind, dt, cfg["t_final"], cfg["snapshot_interval"], D=D)
    V = np.zeros(grid.shape)
    return evolve(psi, V, spec, constants), V, grid


@_suite("scan-alpha")
def run_scan_alpha(cfg: dict, outdir: str) -> tuple[dict, dict]:
    """Test 1: HJ alpha-scan pinning the Fisher scale."""
    constants = PhysicalConstants(hbar=cfg["hbar"], m=cfg["mass"])
    traj, V, grid = _table1_trajectory(cfg, constants)
    ratios = default_alpha_grid(cfg["alpha_min"], cfg["alpha_max"], cfg["alpha_steps"])
    result = alpha_scan(traj, V, ratios, constants, cfg["mask_eps"])

    measured = {
        "argmin": result.argmin,
        "argmin_grid": result.argmin_grid,
        "min_r_hj": result.min_value,
        "mean_r_cont": result.r_cont_mean,
        "boundary": result.boundary,
    }
    refined_gap = None
    if cfg.get("refine"):
        traj2, V2, _ = _table1_trajectory(cfg, constants, refined=True)
        result2 = alpha_scan(traj2, V2, ratios, constants, cfg["mask_eps"])
        measured["argmin_refined_grid_run"] = result2.argmin
        measured["min_r_hj_refined_run"] = result2.min_value
        refined_gap = abs(result2.argmin - 1.0)

    rows = [[a, r, result.r_cont_mean] for a, r in zip(result.alphas, result.residuals)]
    _write(outdir, "scan_alpha.csv", _csv_body(["alpha_ratio", "r_hj_mean", "r_cont_mean"], rows))
    return measured, {
        "argmin_tol": abs(result.argmin - 1.0),
        "min_r_hj_low": result.min_value,
        "min_r_hj_high": result.min_value,
        "mean_r_cont": result.r_cont_mean,
        "boundary": result.boundary,
        "argmin_refined_tol": refined_gap,
    }


@_suite("continuity")
def run_continuity(cfg: dict, outdir: str) -> tuple[dict, dict]:
    """Test 2: continuity identity at floor for all alpha (and broken by diffusion)."""
    constants = PhysicalConstants(hbar=cfg["hbar"], m=cfg["mass"])
    D = cfg["diffusion"]
    traj, V, _ = _table1_trajectory(cfg, constants, D=D)
    values = continuity_curve(traj, V, constants, cfg["mask_eps"])
    rows = [[t, rc] for (t, _), rc in zip(traj.snapshots[1:-1], values)]
    mean_rc = math.fsum(values) / len(values)

    measured = {"mean_r_cont": mean_rc, "max_r_cont": max(values), "diffusion": D}
    _write(outdir, "continuity.csv", _csv_body(["time", "r_cont"], rows))
    drift_only = D == 0.0
    return measured, {"mean_r_cont": mean_rc if drift_only else None,
                      "mean_r_cont_broken": None if drift_only else mean_rc}


@_suite("dg-entropy")
def run_dg_entropy(cfg: dict, outdir: str) -> tuple[dict, dict]:
    """Test 3: entropy production dS/dt = D I_F, reversible corner at D = 0."""
    constants = PhysicalConstants(hbar=cfg["hbar"], m=cfg["mass"])
    grid = make_grid(1, cfg["n"], cfg["length"])
    _positive("sigma0", cfg["sigma0"])  # the width of rho0 and of the DG packet
    x = grid.axes[0]
    rho0 = np.exp(-((x - grid.length / 2) ** 2) / (2 * cfg["sigma0"] ** 2))
    rho0 /= float(np.sum(rho0) * grid.cell_volume)
    D = cfg["diffusion"]
    if D <= 0.0:  # the rate errors are relative to D I_F; the D = 0 run is built below
        raise ConfigError(f"dg-entropy needs diffusion > 0, got {D:g}")
    spec = EvolutionSpec.sampled("density_diffusion", cfg["dt"], cfg["t_final"], cfg["snapshot_interval"], D=D)
    wf_spec = EvolutionSpec.sampled("dg_diffusion", cfg["dt"], 1.0, 0.25, D=D)

    traj = evolve_density_diffusion(rho0, spec, grid)
    times, measured_rate, predicted_rate = shannon_entropy_rate(traj)
    rel = np.abs(measured_rate - predicted_rate) / np.abs(predicted_rate)
    worst_rel = float(np.max(rel))

    traj0 = evolve_density_diffusion(rho0, replace(spec, D=0.0), grid)
    _, measured0, _ = shannon_entropy_rate(traj0)
    zero_rate = float(np.max(np.abs(measured0)))

    # entropy-production identity along a DG wavefunction trajectory
    psi = gaussian_packet(grid, grid.length / 2, cfg["sigma0"], 0.0, constants)
    wtraj = evolve(psi, np.zeros(grid.shape), wf_spec, constants)
    identity_rel = 0.0
    for _, wf in wtraj.snapshots[1:]:
        production, fisher_pred = entropy_production_identity(wf.density(), D, grid)
        identity_rel = max(identity_rel, abs(production - fisher_pred) / abs(fisher_pred))

    rows = [[float(t), float(m), float(p)] for t, m, p in zip(times, measured_rate, predicted_rate)]
    _write(outdir, "dg_entropy.csv", _csv_body(["time", "measured_rate", "predicted_rate"], rows))
    errors = {"max_rel_rate_error": worst_rel, "zero_diffusion_rate": zero_rate, "dg_identity_rel_error": identity_rel}
    return (dict(errors, entropy_monotone=bool(np.all(measured_rate > 0))),
            dict(errors, min_entropy_rate=float(np.min(measured_rate))))


@_suite("circulation")
def run_circulation(cfg: dict, outdir: str) -> tuple[dict, dict]:
    """Test 4: quantised circulation via line and area integrals."""
    constants = PhysicalConstants(hbar=cfg["hbar"])
    grid = make_grid(2, cfg["n"], cfg["length"])
    # half-cell offset keeps the vortex node off the lattice
    center = (grid.length / 2 + grid.spacing / 2, grid.length / 2 + grid.spacing / 2)
    rows = []
    worst_int = 0.0
    worst_agree = 0.0
    for n_wind in cfg["windings"]:
        psi = vortex_state(grid, n_wind, cfg["sigma0"], center)
        line, area, n_est = circulation(psi, cfg["loop_radius"], center, constants, cfg["mask_eps"])
        rows.append([n_wind, line, area, n_est])
        worst_int = max(worst_int, abs(n_est - round(n_est)), abs(n_est - n_wind))
        if n_wind != 0:
            worst_agree = max(worst_agree, abs(line - area) / abs(line))
    measured = {"max_integer_gap": worst_int, "max_line_area_rel_gap": worst_agree}
    _write(outdir, "circulation.csv", _csv_body(["winding", "line_value", "area_value", "n_estimate"], rows))
    return measured, dict(measured)


@_suite("fisher-el")
def run_fisher_el(cfg: dict, outdir: str) -> tuple[dict, dict]:
    """Test 5: only f = C/rho satisfies the pure-Laplacian-quotient EL form."""
    constants = PhysicalConstants(hbar=cfg["hbar"], m=cfg["mass"])
    grid = make_grid(1, cfg["n"], cfg["length"])
    x = grid.axes[0] - cfg["length"] / 2
    eps = cfg["mask_eps"]

    sigma = 1.5
    rho_g = np.exp(-(x**2) / sigma**2)
    rho_g /= float(np.sum(rho_g) * grid.cell_volume)
    root_g = np.sqrt(rho_g)
    mask_g = node_mask(rho_g, eps)

    # the compact bump needs spectral headroom its own grid provides
    grid_b = make_grid(1, cfg["n_bump"], cfg["length"])
    rho_b = bump_density(grid_b, cfg["length"] / 2, cfg["bump_width"])
    root_b = np.sqrt(rho_b)
    mask_b = node_mask(rho_b, eps)

    psi1 = oscillator_state(grid, 1, cfg["omega"], constants)
    rho_e = psi1.density()
    root_e = psi1.values.real
    mask_e = node_mask(rho_e, eps) & (np.abs(x) >= cfg["node_mask_halfwidth"])

    library = {"gaussian": (rho_g, root_g, mask_g, grid), "bump": (rho_b, root_b, mask_b, grid_b),
               "excited_masked": (rho_e, root_e, mask_e, grid)}
    C = cfg["coefficient"]
    specs = [
        RegulariserSpec("fisher", C),
        RegulariserSpec("power", C, power=-1.0),
        RegulariserSpec("constant", C),
        RegulariserSpec("power", C, power=1.0),
        RegulariserSpec("power", C, power=-0.5),
    ]
    rows = fisher_el_necessity_report(library, specs)
    fisher_worst = max(r["residual"] for r in rows if r["is_fisher"])
    other_best = min(r["residual"] for r in rows if not r["is_fisher"])

    c_grid = np.linspace(0.5, 1.5, 41)
    curve = eigen_coefficient_curve(
        rho_e, root_e, harmonic_potential(grid, cfg["omega"], constants),
        oscillator_energy(1, cfg["omega"], constants), c_grid, constants.alpha_star, grid, mask_e,
    )
    c_min = ScanResult.from_curve(c_grid, curve).argmin

    multi = multi_mass_scan(c_grid, cfg["masses"], cfg["hbar"], cfg["omega"], grid, eps_mask=eps)
    multi_argmins = {f"{m:g}": r.argmin for m, r in multi.items()}
    mass_gaps = [abs(v - 1.0) for v in multi_argmins.values()]

    el_rows = [[r["rho_id"], r["family"], r["coefficient"], r["residual"]] for r in rows]
    _write(outdir, "fisher_el.csv", _csv_body(["rho_id", "family", "coefficient", "residual"], el_rows))
    _write(outdir, "fisher_el_scan.csv", _csv_body(["c", "residual"], [[float(c), float(r)] for c, r in zip(c_grid, curve)]))
    residuals = {"fisher_worst_residual": fisher_worst, "non_fisher_best_residual": other_best}
    measured = dict(residuals, excited_scan_argmin=c_min, multi_mass_argmins=multi_argmins)
    return measured, dict(residuals, excited_scan_argmin=abs(c_min - 1.0), multi_mass_argmins=float(np.max(mass_gaps)))


@_suite("time-reversal")
def run_time_reversal(cfg: dict, outdir: str) -> tuple[dict, dict]:
    """Test 6: K U(T) K U(T) = I at D = 0; diffusion breaks the involution."""
    constants = PhysicalConstants(hbar=cfg["hbar"], m=cfg["mass"])
    grid = make_grid(1, cfg["n"], cfg["length"])
    V = harmonic_potential(grid, cfg["omega"], constants)
    psi = gaussian_packet(grid, grid.length / 2 + cfg["x0_offset"], cfg["sigma0"], 0.0, constants)

    D = cfg["diffusion"]
    if D <= 0.0:  # floor_ratio compares the diffusive defect with the D = 0 one
        raise ConfigError(f"time-reversal needs diffusion > 0, got {D:g}")
    if cfg["t_final"] <= 0.0:  # at T = 0 both defects are 0 and floor_ratio reads 0
        raise ConfigError(f"time-reversal needs t_final > 0, got {cfg['t_final']:g}")
    defect_d, defect0 = time_reversal_defect(psi, V, cfg["t_final"], D, constants, cfg["dt"])
    ratio = defect_d / max(defect0, 1e-300)

    measured = {"defect_d0": defect0, "defect_diffusive": defect_d, "floor_ratio": ratio}
    _write(outdir, "time_reversal.csv", _csv_body(
        ["diffusion", "defect"], [[0.0, defect0], [D, defect_d]]))
    return measured, {"defect_d0": defect0, "floor_ratio": ratio}


@_suite("galilei")
def run_galilei(cfg: dict, outdir: str) -> tuple[dict, dict]:
    """Test 7: Bargmann closure {H,P}=0, {H,K}=-P, {P,K}=-m."""
    # one chunk of EvolutionSpec.n_steps: the free flow is one exact kinetic factor
    stride = max(1, round(cfg["t"] / cfg["dt"]))
    spec = EvolutionSpec(kind="linear", dt=cfg["dt"], t_final=cfg["t"], record_stride=stride)
    constants = PhysicalConstants(hbar=cfg["hbar"], m=cfg["mass"])
    grid = make_grid(1, cfg["n"], cfg["length"])
    psi = gaussian_packet(grid, grid.length / 2, cfg["sigma0"], 0.0, constants)
    psi = boost(psi, cfg["boost"], constants)
    V = np.zeros(grid.shape)
    t, wf = evolve(psi, V, spec, constants).snapshots[-1]
    hydro = polar_decompose(wf, DEFAULT_EPS_MASK, constants)
    report = bargmann_check(hydro, V, constants.alpha_star, constants, t=t)

    _write(outdir, "galilei.json", report.to_json())
    gaps: dict[str, list[float]] = {}  # closure (entry name less its axis digits) -> each entry's gap
    for name, e in report.entries.items():
        gaps.setdefault(name.rstrip("0123456789"), []).append(abs(e["value"] - e["expected"]) / e["scale"])
    return {k: v["value"] for k, v in report.entries.items()}, {k: float(np.max(g)) for k, g in gaps.items()}


@_suite("complexifier")
def run_complexifier(cfg: dict, outdir: str) -> tuple[dict, dict]:
    """Test 8: only the polar map (p, s) = (1/2, 1/hbar) linearises the flow."""
    # the polar cell must be on the grid, not judged by its nearest cell, and the
    # wall needs a cell off it: at least 0.1 from 1/2 to 1e-12, since in floating
    # point |0.4 - 0.5| and |0.6 - 0.5| fall just short of 0.1
    p_grid = np.array(cfg["p_grid"], dtype=float)
    off_cell = np.abs(p_grid - 0.5) >= 0.1 - 1e-12
    if 0.5 not in cfg["p_grid"]:
        raise ConfigError("complexifier p_grid must hold the polar cell p = 0.5")
    if 1.0 not in cfg["s_grid"]:
        raise ConfigError("complexifier s_grid must hold the polar cell s hbar = 1")
    if not off_cell.any():
        raise ConfigError("complexifier p_grid must hold a cell at least 0.1 from p = 0.5 for off_cell_wall")
    constants = PhysicalConstants(hbar=cfg["hbar"], m=cfg["mass"])
    grid = make_grid(1, cfg["n"], cfg["length"])
    _positive("omega", cfg["omega"])  # the packet's width is sqrt(hbar / (m omega))
    V = harmonic_potential(grid, cfg["omega"], constants)
    psi = gaussian_packet(
        grid, grid.length / 2 + cfg["x0_offset"],
        np.sqrt(constants.hbar / (constants.m * cfg["omega"])), 0.0, constants,
    )
    spec = EvolutionSpec.sampled("linear", cfg["dt"], cfg["t_final"], cfg["snapshot_interval"])
    traj = evolve(psi, V, spec, constants)
    snapshots = [wf for _, wf in traj.snapshots[1:]]

    s_grid = np.array(cfg["s_grid"], dtype=float) / constants.hbar
    result = complexifier_scan(p_grid, s_grid, snapshots, V, constants, cfg["mask_eps"])

    wall = float(np.min(result.defect[off_cell, :]))
    shared = {"floor": result.floor, "off_cell_wall": wall, "max_density_rate": result.max_density_rate}
    measured = dict(
        shared,
        argmin_p=float(p_grid[result.argmin[0]]),
        argmin_s_hbar=float(s_grid[result.argmin[1]] * constants.hbar),
        kappa_recovered=result.kappa_recovered,
        alpha_recovered=result.alpha_recovered,
    )
    rows = []
    for ip, p in enumerate(p_grid):
        for i_s, s in enumerate(s_grid):
            rows.append([float(p), float(s * constants.hbar), float(result.defect[ip, i_s])])
    _write(outdir, "complexifier.csv", _csv_body(["p", "s_hbar", "defect"], rows))
    return measured, dict(
        shared,
        argmin_polar_cell=result.argmin == (cfg["p_grid"].index(0.5), cfg["s_grid"].index(1.0)),
        minimum_cells=int(np.sum(result.defect <= result.floor * (1 + 1e-12))),
    )


@_suite("superposition")
def run_superposition(cfg: dict, outdir: str) -> tuple[dict, dict]:
    """Test 9: projective superposition residual vanishes only in the linear case."""
    required = {0.0, 0.005, 0.02, 0.05}
    if not required.issubset(set(cfg["beta_list"])):
        raise ConfigError("superposition beta_list must keep the canonical couplings 0, 0.005, 0.02, 0.05")
    rows = superposition_curve(SuperpositionConfig(**dict(cfg, beta_list=tuple(cfg["beta_list"]))))

    by_beta = {r["beta"]: r for r in rows}
    measured = {f"base_{r['beta']:g}": r["base"] for r in rows}
    measured.update({f"refined_{r['beta']:g}": r["refined"] for r in rows})
    min_refinement_ratio = min(r["refined"] / r["base"] for r in rows if r["beta"] > 0 and r["base"] > 0)
    measured["min_refinement_ratio"] = min_refinement_ratio
    drops = dict(zip(("monotone_in_beta", "plateau_jitter"), beta_drops(rows)))
    measured.update(drops)

    _write(outdir, "superposition.csv", _csv_body(
        ["beta", "base_residual", "refined_residual"],
        [[r["beta"], r["base"], r["refined"]] for r in rows]))
    saturated = [by_beta[0.02]["base"], by_beta[0.05]["base"]]
    return measured, {
        "linear_floor": by_beta[0.0]["base"],
        "linear_floor_refined": by_beta[0.0]["refined"],
        "beta_0.005_low": by_beta[0.005]["base"],
        "beta_0.005": by_beta[0.005]["base"],
        "beta_0.02_0.05_low": float(np.min(saturated)),
        "beta_0.02_0.05": float(np.max(saturated)),
        "refinement_ratio": min_refinement_ratio,
        **drops,
    }


def run_one(test: str, config_path: str | None, outdir: str, overrides: dict) -> tuple[int, Verdict | None]:
    """(exit code, verdict) of one suite; the verdict is None on exits 2 and 3."""
    verdict = _run(test, config_path, outdir, overrides)
    if verdict is None:
        return EXIT_CONFIG, None
    return verdict.exit_code, verdict if verdict.error is None else None


def _run(test: str, config_path: str | None, outdir: str, overrides: dict) -> Verdict | None:
    """The suite's verdict, written to outdir; None on a config error found
    before the suite runs, which writes no verdict."""
    try:
        cfg = load_config(test, config_path, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None
    verdict = RUNNERS[test](cfg, outdir)
    _write(outdir, f"{test}.verdict.json", verdict.to_json())
    return verdict


def run_all(config_dir: str, outdir: str) -> int:
    if not os.path.isdir(config_dir):
        print(f"config error: {config_dir} is not a directory", file=sys.stderr)
        return EXIT_CONFIG

    summary = []
    print(f"{'test':<14} {'status':<8} runtime")
    for test in sorted(RUNNERS):
        path = os.path.join(config_dir, f"{test}.json")
        verdict = _run(test, path if os.path.exists(path) else None,
                       os.path.join(outdir, test.replace("-", "_")), {})
        code, runtime_s = (EXIT_CONFIG, None) if verdict is None else (verdict.exit_code, verdict.runtime_s)
        status = {EXIT_PASS: "pass", EXIT_FALSIFIED: "FAIL", EXIT_CONFIG: "config", EXIT_NUMERICAL: "abort"}[code]
        runtime = "-" if runtime_s is None else f"{runtime_s:.1f}s"
        print(f"{test:<14} {status:<8} {runtime}")
        summary.append({"test": test, "exit_code": code, "pass": code == EXIT_PASS, "runtime_s": runtime_s})
    _write(outdir, "summary.json", json.dumps(summary, indent=2))
    return EXIT_PASS if all(r["pass"] for r in summary) else EXIT_FALSIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisher-hydro",
        description="Residual diagnostics and stress tests for Fisher-regularised "
        "information hydrodynamics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="test", required=True)
    for name in sorted(RUNNERS):
        p = sub.add_parser(name, help=RUNNERS[name].__doc__)
        p.add_argument("--config", help="JSON config file (schema-checked)")
        p.add_argument("--out", default="out", help="artefact output directory")
        for flag, text in _FLAGS.items():
            key = "beta_list" if flag == "beta" else flag
            if key not in DEFAULTS[name]:
                continue
            default = DEFAULTS[name][key]
            option = "--" + flag.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(option, action="store_true", default=None, help=text)
            else:  # --beta takes one element of the list
                p.add_argument(option, type=type(default[0] if key == "beta_list" else default), help=text)
    runall = sub.add_parser("run-all", help="run all nine suites from a config directory")
    runall.add_argument("config_dir", nargs="?", default="configs")
    runall.add_argument("--out", default="out")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.test == "run-all":
        return run_all(args.config_dir, args.out)
    overrides = {flag: getattr(args, flag, None) for flag in _FLAGS}
    code, verdict = run_one(args.test, args.config, args.out, overrides)
    if verdict is not None:
        print(f"{args.test}: {'pass' if verdict.passed else 'FAIL'} ({verdict.runtime_s:.1f}s)")
    return code


if __name__ == "__main__":
    sys.exit(main())
