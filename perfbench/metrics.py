"""End-to-end and per-layer metric definitions, and the per-layer values
derived from a traced run's spans.

Per-layer values are per unit of the workload's fixed work (one verdict, one
round of eight suites, one set of four evolutions): span totals are divided
by the number of traced units.  ``calls`` are exact counts; ``self_s`` is a
span's time minus its child spans; ``total_s`` is inclusive time.  A layer a
workload never enters reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

SUITES = ("scan-alpha", "continuity", "dg-entropy", "circulation", "fisher-el",
          "time-reversal", "galilei", "complexifier", "superposition")
STEP_ROWS = (("base", "linear"), ("base", "beta"), ("refined", "linear"), ("refined", "beta"))
EVOLVE_FAMILIES = ("linear-1d", "linear-2d", "dg", "beta")

# (name, unit, better, bound) of the end-to-end metrics, read with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_over_ref", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_ratio", "ratio", "higher", 0.01),
)

# per-layer metric -> (span name, statistic) for the plain span statistics
SPAN_STATS = {
    "stresstests.superposition_residual.calls": ("stresstests.superposition_residual", "calls"),
    "stresstests.superposition_residual.total_s": ("stresstests.superposition_residual", "total_s"),
    "stresstests.projective_residual.total_s": ("stresstests.projective_residual", "total_s"),
    "stresstests.complexifier_scan.self_s": ("stresstests.complexifier_scan", "self_s"),
    "stresstests.circulation.self_s": ("stresstests.circulation", "self_s"),
    "stresstests.time_reversal_defect.total_s": ("stresstests.time_reversal_defect", "total_s"),
    **{f"propagate.{f}.{s}": (f"propagate.{f}", s)
       for f in ("evolve", "step_linear", "step_dg", "step_beta", "beta_potential") for s in ("calls", "self_s")},
    "propagate.symmetric_pair.total_s": ("propagate.symmetric_pair", "total_s"),
    "propagate.evolve_density_diffusion.self_s": ("propagate.evolve_density_diffusion", "self_s"),
    **{f"fields.{f}.{s}": (f"fields.{f}", s)
       for f in ("polar_decompose", "phase_time_derivative", "laplacian_quotient") for s in ("calls", "self_s")},
    "residuals.alpha_scan.self_s": ("residuals.alpha_scan", "self_s"),
    "residuals.alpha_scan.total_s": ("residuals.alpha_scan", "total_s"),
    "residuals.continuity_residual.calls": ("residuals.continuity_residual", "calls"),
    "residuals.continuity_residual.self_s": ("residuals.continuity_residual", "self_s"),
    "residuals.momentum_balance_residual.total_s": ("residuals.momentum_balance_residual", "total_s"),
    "residuals.eigen_coefficient_curve.self_s": ("residuals.eigen_coefficient_curve", "self_s"),
    "residuals.multi_mass_scan.total_s": ("residuals.multi_mass_scan", "total_s"),
    "functionals.shannon_entropy_rate.total_s": ("functionals.shannon_entropy_rate", "total_s"),
    "functionals.entropy_production_identity.calls": ("functionals.entropy_production_identity", "calls"),
    "functionals.entropy_production_identity.self_s": ("functionals.entropy_production_identity", "self_s"),
    "functionals.fisher_el_necessity_report.total_s": ("functionals.fisher_el_necessity_report", "total_s"),
    "brackets.bargmann_check.self_s": ("brackets.bargmann_check", "self_s"),
    "brackets.bargmann_check.total_s": ("brackets.bargmann_check", "total_s"),
    **{f"grid.{f}.{s}": (f"grid.{f}", s)
       for f in ("spectral_gradient", "spectral_laplacian", "fd_gradient4", "fd_laplacian4") for s in ("calls", "self_s")},
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for suite in SUITES:
        spec += [(f"cli.{suite}.verdict_p50_s", "s", "lower"), (f"cli.{suite}.verdict_pmax_s", "s", "lower"),
                 (f"cli.{suite}.verdict_n", "count", "higher")]
    spec += [(f"stresstests.step_us.{g}-{k}", "us", "lower") for g, k in STEP_ROWS]
    spec += [(f"propagate.ns_per_point_step.{f}", "ns", "lower") for f in EVOLVE_FAMILIES]
    spec += [(name, "count" if stat == "calls" else "s", "lower") for name, (_, stat) in SPAN_STATS.items()]
    spec += [("states.self_s", "s", "lower"), ("fft.calls", "count", "lower"), ("fft.points", "count", "lower"),
             ("fft.self_s", "s", "lower"), ("fft.share", "ratio", "lower"), ("fft.gflop_computed", "GFLOP", "lower"),
             ("run.cpu_s", "s", "lower"), ("run.cpu_util", "ratio", "higher"), ("trace.spans", "count", "lower"),
             ("trace.overhead_s", "s", "lower")]
    return spec


def pmax(samples: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it: the sample with
    ten larger ones.  With ten samples or fewer there is none, and the largest
    sample is reported instead."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1]


def p10(samples: list[float]) -> float:
    """The unit time a run beats nine times in ten: its 10th-percentile
    sample, or the fastest one when there are fewer than ten.  Contention from
    other tenants of a shared host only ever slows a unit, so the fast end of
    a run tracks the program's own cost far more steadily than its median."""
    return sorted(samples)[len(samples) // 10]


def span_times(spans: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(inclusive, self) seconds of every span."""
    total = spans["end"] - spans["start"]
    children = np.zeros_like(total)
    has_parent = spans["parent"] >= 0
    np.add.at(children, spans["parent"][has_parent], total[has_parent])
    return total, total - children


def layer_metrics(tracer, traced_walls: list[float], untraced_walls: list[float],
                  cpu_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    traced_walls and untraced_walls are the unit times with tracing on and
    off; cpu_s is process CPU seconds per untraced unit.
    """
    units = len(traced_walls)
    spans = tracer.arrays()
    total, own = span_times(spans)
    names = spans["names"][spans["name"]] if len(total) else np.array([], dtype=str)
    stats = defaultdict(lambda: {"calls": 0.0, "self_s": 0.0, "total_s": 0.0})
    for name, t, s in zip(names.tolist(), total.tolist(), own.tolist()):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += s
        entry["total_s"] += t

    out = {}
    run_one = defaultdict(list)
    steps = defaultdict(lambda: [0.0, 0])
    points = defaultdict(lambda: [0.0, 0])
    fft_points = fft_flops = 0.0
    for name, t, tag in zip(names.tolist(), total.tolist(), tracer.tag):
        if name == "cli.run_one":
            run_one[tag].append(t)
        elif name == "stresstests.superposition_residual":
            steps[tag[:2]][0] += t
            steps[tag[:2]][1] += tag[2]
        elif name == "propagate.evolve" and tag[0] is not None:
            points[tag[0]][0] += t
            points[tag[0]][1] += tag[1]
        elif name.startswith("fft."):
            fft_points += tag[0]
            fft_flops += tag[1]

    for suite in SUITES:
        samples = run_one.get(suite, [])
        out[f"cli.{suite}.verdict_p50_s"] = statistics.median(samples) if samples else 0.0
        out[f"cli.{suite}.verdict_pmax_s"] = pmax(samples)
        out[f"cli.{suite}.verdict_n"] = len(samples)
    for row in STEP_ROWS:
        seconds, count = steps[row]
        out[f"stresstests.step_us.{row[0]}-{row[1]}"] = 1e6 * seconds / count if count else 0.0
    for family in EVOLVE_FAMILIES:
        seconds, count = points[family]
        out[f"propagate.ns_per_point_step.{family}"] = 1e9 * seconds / count if count else 0.0
    for metric, (span, stat) in SPAN_STATS.items():
        out[metric] = stats[span][stat] / units if span in stats else 0.0

    fft = [v for k, v in stats.items() if k.startswith("fft.")]
    fft_self = sum(v["self_s"] for v in fft) / units
    out.update({
        "states.self_s": sum(v["self_s"] for k, v in stats.items() if k.startswith("states.")) / units,
        "fft.calls": sum(v["calls"] for v in fft) / units,
        "fft.points": fft_points / units,
        "fft.self_s": fft_self,
        "fft.share": fft_self * units / sum(traced_walls),
        "fft.gflop_computed": fft_flops / units / 1e9,
        "run.cpu_s": cpu_s,
        "run.cpu_util": cpu_s * len(untraced_walls) / sum(untraced_walls),
        "trace.spans": len(total) / units,
        "trace.overhead_s": p10(traced_walls) - p10(untraced_walls),
    })
    return out
