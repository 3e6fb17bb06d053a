"""Entropy, Fisher information, convex regularisers and their Euler-Lagrange
derivatives, with the entropy-production and EL-necessity checks.

The directional (Gateaux) derivative test is the module's ground truth for the
EL formulas: every analytic variational derivative here is checked against
symmetric finite differences of the functional value in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ROUNDOFF_FLOOR, density_quotient, node_mask, root_laplacian_quotient
from .grid import Grid, integrate, spectral_gradient, spectral_laplacian
from .propagate import DensityTrajectory

__all__ = [
    "RegulariserSpec",
    "fisher_information",
    "shannon_entropy",
    "shannon_entropy_rate",
    "entropy_production_identity",
    "el_derivative",
    "regulariser_value",
    "fisher_el_necessity_report",
]

@dataclass(frozen=True)
class RegulariserSpec:
    """Convex local regulariser family f(rho) entering F[rho] = int f |grad rho|^2.

    Families: fisher(C) with f = C/rho, power(p, C) with f = C rho^p, or
    constant(C).
    """

    family: str
    coefficient: float = 1.0
    power: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("fisher", "power", "constant"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.coefficient <= 0:
            raise ValueError("coefficient must be positive")

    def f(self, rho: np.ndarray) -> np.ndarray:
        if self.family == "fisher":
            return self.coefficient / rho
        if self.family == "power":
            return self.coefficient * rho**self.power
        return self.coefficient * np.ones_like(rho)

    def fprime(self, rho: np.ndarray) -> np.ndarray:
        if self.family == "fisher":
            return -self.coefficient / rho**2
        if self.family == "power":
            return self.coefficient * self.power * rho ** (self.power - 1.0)
        return np.zeros_like(rho)

    @property
    def is_fisher(self) -> bool:
        return self.family == "fisher" or (self.family == "power" and self.power == -1.0)


def fisher_information(rho: np.ndarray, grid: Grid) -> float:
    """I_F = int |grad rho|^2 / rho dx, guarded where rho underflows.

    Finite even through nodes of a smooth density (the integrand tends to
    4 |grad u|^2 for rho = u^2).  The tail below the round-off floor would add
    O(1e-11) relative.
    """
    grad_sq = np.sum(spectral_gradient(rho, grid) ** 2, axis=0)
    return float(integrate(density_quotient(grad_sq, rho), grid))


def shannon_entropy(rho: np.ndarray, grid: Grid) -> float:
    """S_Sh = -int rho ln rho dx with the integrand set to 0 where rho = 0."""
    out = np.zeros_like(rho)
    positive = rho > 0
    out[positive] = -rho[positive] * np.log(rho[positive])
    return float(integrate(out, grid))


def shannon_entropy_rate(trajectory: DensityTrajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, measured, predicted) at interior snapshots of a diffusion run.

    measured: centered difference of S_Sh across neighbouring snapshots;
    predicted: D * I_F evaluated at the midpoint snapshot, with the D the run
    was made with, trajectory.spec.D.
    """
    snaps = trajectory.snapshots
    if len(snaps) < 3:
        raise ValueError("need at least 3 snapshots")
    grid = trajectory.grid
    times, measured, predicted = [], [], []
    entropies = [shannon_entropy(rho, grid) for _, rho in snaps]
    for i in range(1, len(snaps) - 1):
        t_prev, t_next = snaps[i - 1][0], snaps[i + 1][0]
        times.append(snaps[i][0])
        measured.append((entropies[i + 1] - entropies[i - 1]) / (t_next - t_prev))
        predicted.append(trajectory.spec.D * fisher_information(snaps[i][1], grid))
    return np.array(times), np.array(measured), np.array(predicted)


def entropy_production_identity(rho: np.ndarray, D: float, grid: Grid) -> tuple[float, float]:
    """(production, fisher_prediction) for the H-functional.

    Along the diffusive part of the DG continuity law, rho_t = D Lap rho, the
    rate of S_Sh is the irreversible production -D int (1 + ln rho) Lap rho dx,
    which equals D * I_F up to quadrature; the pair is the discrete form of the
    entropy identity checked along dg trajectories.
    """
    positive = node_mask(rho, ROUNDOFF_FLOOR)
    log_term = np.zeros_like(rho)
    log_term[positive] = 1.0 + np.log(rho[positive])
    production = -D * float(integrate(log_term * spectral_laplacian(rho, grid), grid))
    return production, D * fisher_information(rho, grid)


def regulariser_value(spec: RegulariserSpec, rho: np.ndarray, grid: Grid, mask: np.ndarray) -> float:
    """F[rho] = int f(rho) |grad rho|^2 dx over the mask."""
    grad = spectral_gradient(rho, grid)
    grad_sq = np.sum(grad**2, axis=0)
    dens = np.where(mask, spec.f(np.where(mask, rho, 1.0)) * grad_sq, 0.0)
    return float(integrate(dens, grid))


def el_derivative(spec: RegulariserSpec, rho: np.ndarray, grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Euler-Lagrange field delta F / delta rho = -2 f Lap rho - f' |grad rho|^2, masked.

    For the Fisher family this equals -4C Lap sqrt(rho)/sqrt(rho) identically;
    the necessity report exercises that identity against an independently
    computed Laplacian quotient (via the signed root for node-bearing states).
    """
    lap = spectral_laplacian(rho, grid)
    grad = spectral_gradient(rho, grid)
    grad_sq = np.sum(grad**2, axis=0)
    rho_safe = np.where(mask, rho, 1.0)
    out = -2.0 * spec.f(rho_safe) * lap - spec.fprime(rho_safe) * grad_sq
    out[~mask] = 0.0
    return out


def el_residual(spec: RegulariserSpec, rho: np.ndarray, root: np.ndarray, grid: Grid, mask: np.ndarray) -> float:
    """Masked relative L2 distance of delta F/delta rho from the pure Laplacian
    quotient -4C Lap(u)/u of a signed root u with rho = u^2 (independent route).

    At floor only for f = C/rho: any other family leaves a |grad rho|^2
    remainder that no coefficient can cancel.
    """
    if not mask.any():
        raise ValueError("el residual: empty mask")
    lhs = el_derivative(spec, rho, grid, mask)
    rhs = -4.0 * spec.coefficient * root_laplacian_quotient(root, grid, mask)
    num = math.sqrt(max(float(np.sum(np.where(mask, (lhs - rhs) ** 2, 0.0))), 0.0))
    den = math.sqrt(max(float(np.sum(np.where(mask, rhs**2, 0.0))), 1e-300))
    return num / den


def fisher_el_necessity_report(
    rho_library: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, Grid]],
    spec_list: list[RegulariserSpec],
) -> list[dict]:
    """Residual table over (density, family) pairs.

    rho_library maps a label to (rho, signed_root, mask, grid); each density
    carries its own grid because the states have opposite resolution needs
    (the compact bump wants spectral headroom, the smooth states want a low
    noise ceiling).  The rows are measured, not judged: the bounds on the
    Fisher and non-Fisher residuals are the caller's (cli.CHECKS for the
    fisher-el suite).
    """
    rows = []
    for rho_id, (rho, root, mask, grid) in rho_library.items():
        for spec in spec_list:
            res = el_residual(spec, rho, root, grid, mask)
            rows.append(
                {
                    "rho_id": rho_id,
                    "family": spec.family if spec.family != "power" else f"power({spec.power:g})",
                    "coefficient": spec.coefficient,
                    "residual": res,
                    "is_fisher": spec.is_fisher,
                }
            )
    return rows
