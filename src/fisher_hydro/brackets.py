"""Discrete functional Poisson brackets on (rho, S) and the Bargmann algebra checks.

Generator derivative fields are assembled from the density and the probability
current: grad S enters only as HydroFields.grad_s, m j / rho under a deep
density guard, which polar_decompose builds once for every generator.  Moment
integrals use packet-centered coordinates (the standard periodic surrogate for
decay on R^d) and refuse states whose mass reaches the coordinate branch seam.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fields import ROUNDOFF_FLOOR, HydroFields, PhysicalConstants, quantum_potential
from .grid import Grid, integrate, spectral_divergence, spectral_gradient

__all__ = [
    "FunctionalDerivs",
    "AlgebraReport",
    "poisson_bracket",
    "generator_derivs",
    "generator_value",
    "bargmann_check",
    "EdgeProximityError",
]

# _centered_coords refuses a state with more than _SEAM_MASS of its mass
# within _SEAM_CELLS cells of the coordinate branch seam
_SEAM_CELLS = 5
_SEAM_MASS = 1e-9


class EdgeProximityError(ValueError):
    """Packet mass too close to the coordinate branch seam for moment integrals."""


@dataclass
class FunctionalDerivs:
    d_rho: np.ndarray
    d_S: np.ndarray
    label: str


def poisson_bracket(f: FunctionalDerivs, g: FunctionalDerivs, grid: Grid) -> float:
    """{F, G} = int (dF/drho dG/dS - dF/dS dG/drho) dx by trapezoid quadrature."""
    if f.d_rho.shape != grid.shape or g.d_rho.shape != grid.shape:
        raise ValueError("functional derivatives do not match grid")
    return float(integrate(f.d_rho * g.d_S - f.d_S * g.d_rho, grid))


def _centered_coords(hydro: HydroFields) -> np.ndarray:
    """Packet-centered coordinates, shape (dim, *shape); refuses seam-touching mass."""
    grid = hydro.grid
    rho = hydro.rho
    anchor = np.unravel_index(int(np.argmax(rho)), rho.shape)
    coords = grid.coords()
    out = np.empty_like(coords)
    for axis in range(grid.dim):
        center = coords[axis][anchor]
        out[axis] = (coords[axis] - center + 0.5 * grid.length) % grid.length - 0.5 * grid.length
        seam = np.abs(np.abs(out[axis]) - 0.5 * grid.length) < _SEAM_CELLS * grid.spacing
        if float(np.sum(rho[seam]) * grid.cell_volume) > _SEAM_MASS:
            raise EdgeProximityError(
                f"packet mass within {_SEAM_CELLS} cells of the coordinate seam; moment integrals would "
                "be corrupted by periodic images"
            )
    return out


def generator_derivs(
    name: str,
    hydro: HydroFields,
    V: np.ndarray,
    alpha: float,
    constants: PhysicalConstants,
    t: float = 0.0,
) -> FunctionalDerivs:
    """Analytic functional derivatives of H, P_i or K_i on the grid.

    Names: "H", "P0", "P1", "K0", "K1" (axis suffix by dimension).
    """
    grid = hydro.grid
    rho = hydro.rho
    grad_s = hydro.grad_s

    if name == "H":
        div_j = spectral_divergence(hydro.j, grid)
        deep = rho > ROUNDOFF_FLOOR * rho.max()
        q = quantum_potential(rho, alpha, grid, deep)
        d_rho = np.sum(grad_s**2, axis=0) / (2.0 * constants.m) + V + q
        return FunctionalDerivs(d_rho=d_rho, d_S=-div_j, label="H")

    if name[:1] not in ("P", "K"):
        raise ValueError(f"unknown generator {name!r}")
    axis = int(name[1:]) if len(name) > 1 else 0
    grad_rho = spectral_gradient(rho, grid)[axis]
    if name[0] == "P":
        return FunctionalDerivs(d_rho=grad_s[axis], d_S=-grad_rho, label=name)
    x = _centered_coords(hydro)
    return FunctionalDerivs(d_rho=-t * grad_s[axis] + constants.m * x[axis], d_S=t * grad_rho, label=name)


def generator_value(
    name: str,
    hydro: HydroFields,
    V: np.ndarray,
    alpha: float,
    constants: PhysicalConstants,
    t: float = 0.0,
) -> float:
    """Value of the generator on the state; moments use the absolute-branch coordinate."""
    grid = hydro.grid
    rho = hydro.rho
    if name == "H":
        rho_max = rho.max()
        safe = rho > ROUNDOFF_FLOOR * rho_max
        j_sq = np.sum(hydro.j**2, axis=0)
        kin = np.zeros_like(rho)
        np.divide(constants.m * j_sq, 2.0 * rho, out=kin, where=safe)
        grad_rho = spectral_gradient(rho, grid)
        curv = np.zeros_like(rho)
        np.divide(np.sum(grad_rho**2, axis=0), 4.0 * rho, out=curv, where=safe)
        return float(integrate(kin + V * rho + alpha * curv, grid))
    if name.startswith("P"):
        axis = int(name[1:]) if len(name) > 1 else 0
        return constants.m * float(integrate(hydro.j[axis], grid))
    if name.startswith("K"):
        axis = int(name[1:]) if len(name) > 1 else 0
        x = _centered_coords(hydro)
        anchor = np.unravel_index(int(np.argmax(rho)), rho.shape)
        absolute = x[axis] + grid.coords()[axis][anchor]
        p = constants.m * float(integrate(hydro.j[axis], grid))
        return constants.m * float(integrate(rho * absolute, grid)) - t * p
    raise ValueError(f"unknown generator {name!r}")


@dataclass
class AlgebraReport:
    """Bargmann closure entries, each measured against its scale; the bounds
    are the caller's (cli.CHECKS for the galilei suite).

    hp is {H, P_i}; for a non-flat potential its expected value +int rho dV
    is reported alongside, with closure false (expected non-closure rather
    than failure).
    """

    entries: dict = field(default_factory=dict)
    t: float = 0.0

    def to_json(self) -> str:
        return json.dumps({"t": self.t, "entries": self.entries}, indent=2, sort_keys=True)


def _entry(value: float, expected: float, scale: float, closure: bool = True) -> dict:
    """One galilei.json entry; its gap is |value - expected| / scale."""
    return {"value": value, "expected": expected, "scale": scale, "closure": closure}


def bargmann_check(
    hydro: HydroFields,
    V: np.ndarray,
    alpha: float,
    constants: PhysicalConstants,
    t: float = 0.0,
) -> AlgebraReport:
    """Measure {H,P_i} (or its +int rho dV value), {H,K_i} = -P_i, {P_i,K_j} = -m delta_ij int rho."""
    grid = hydro.grid
    c = constants
    h = generator_derivs("H", hydro, V, alpha, c, t)
    p = [generator_derivs(f"P{i}", hydro, V, alpha, c, t) for i in range(grid.dim)]
    k = [generator_derivs(f"K{i}", hydro, V, alpha, c, t) for i in range(grid.dim)]
    mass_integral = float(integrate(hydro.rho, grid))
    report = AlgebraReport(t=t)

    flat_v = bool(np.max(V) - np.min(V) < 1e-300)
    grad_v = None if flat_v else spectral_gradient(V, grid)
    scale_h = max(abs(generator_value("H", hydro, V, alpha, c, t)), 1.0)
    scale_m = max(c.m, 1.0)

    for i in range(grid.dim):
        p_val = generator_value(f"P{i}", hydro, V, alpha, c, t)
        # dP/dt = {P,H} = -int rho dV (Ehrenfest), so {H,P} = +int rho dV
        expected_hp = 0.0 if flat_v else float(integrate(hydro.rho * grad_v[i], grid))
        report.entries[f"hp{i}"] = _entry(poisson_bracket(h, p[i], grid), expected_hp, scale_h, closure=flat_v)
        report.entries[f"hk_plus_p{i}"] = _entry(poisson_bracket(h, k[i], grid) + p_val, 0.0, max(abs(p_val), 1.0))
        for jx in range(grid.dim):
            central = -c.m * mass_integral if i == jx else 0.0
            report.entries[f"pk_plus_m{i}{jx}"] = _entry(poisson_bracket(p[i], k[jx], grid) - central, 0.0, scale_m)
    return report
