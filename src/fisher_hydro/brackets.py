"""Discrete functional Poisson brackets on (rho, S) and the Bargmann algebra checks.

Generator derivative fields are assembled from the density and the probability
current: grad S enters only as HydroFields.grad_s, m j / rho under a deep
density guard, which polar_decompose builds once for every generator.  The
Galilean generators share one spectral gradient of rho and one packet-centered
frame (the standard periodic surrogate for decay on R^d), which refuses states
whose mass reaches the coordinate branch seam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ROUNDOFF_FLOOR, HydroFields, PhysicalConstants, density_quotient, node_mask, quantum_potential
from .grid import Grid, integrate, spectral_divergence, spectral_gradient
from .states import _centered

__all__ = [
    "FunctionalDerivs",
    "poisson_bracket",
    "hamiltonian",
    "galilean_generators",
    "bargmann_check",
]

# _centered_coords refuses a state with more than _SEAM_MASS of its mass
# within _SEAM_CELLS cells of the coordinate branch seam
_SEAM_CELLS = 5
_SEAM_MASS = 1e-9


@dataclass
class FunctionalDerivs:
    """A generator F on the state: its derivative fields dF/drho, dF/dS and its value."""

    d_rho: np.ndarray
    d_S: np.ndarray
    value: float


def poisson_bracket(f: FunctionalDerivs, g: FunctionalDerivs, grid: Grid) -> float:
    """{F, G} = int (dF/drho dG/dS - dF/dS dG/drho) dx by trapezoid quadrature."""
    if f.d_rho.shape != grid.shape or g.d_rho.shape != grid.shape:
        raise ValueError("functional derivatives do not match grid")
    return float(integrate(f.d_rho * g.d_S - f.d_S * g.d_rho, grid))


def _centered_coords(hydro: HydroFields) -> tuple[np.ndarray, np.ndarray]:
    """Packet-centered coordinates, shape (dim, *shape), and the absolute
    coordinates of their origin, the density maximum, shape (dim,); refuses
    seam-touching mass."""
    grid = hydro.grid
    rho = hydro.rho
    coords = grid.coords()
    origin = coords[(slice(None), *np.unravel_index(int(np.argmax(rho)), rho.shape))]
    out = _centered(coords, origin.reshape((grid.dim,) + (1,) * grid.dim), grid.length)
    for axis in range(grid.dim):
        seam = np.abs(np.abs(out[axis]) - 0.5 * grid.length) < _SEAM_CELLS * grid.spacing
        if float(np.sum(rho[seam]) * grid.cell_volume) > _SEAM_MASS:
            raise ValueError(
                f"packet mass within {_SEAM_CELLS} cells of the coordinate seam; moment integrals would "
                "be corrupted by periodic images"
            )
    return out, origin


def hamiltonian(hydro: HydroFields, V: np.ndarray, alpha: float, constants: PhysicalConstants) -> FunctionalDerivs:
    """H = int (m |j|^2 / 2 rho + V rho + alpha |grad rho|^2 / 4 rho): its
    derivative fields and its energy, every quotient on the deep density."""
    grid = hydro.grid
    rho = hydro.rho
    deep = node_mask(rho, ROUNDOFF_FLOOR)
    d_rho = np.sum(hydro.grad_s**2, axis=0) / (2.0 * constants.m) + V + quantum_potential(rho, alpha, grid, deep)
    kin = density_quotient(constants.m * np.sum(hydro.j**2, axis=0), 2.0 * rho)
    curv = density_quotient(np.sum(spectral_gradient(rho, grid) ** 2, axis=0), 4.0 * rho)
    energy = float(integrate(kin + V * rho + alpha * curv, grid))
    return FunctionalDerivs(d_rho=d_rho, d_S=-spectral_divergence(hydro.j, grid), value=energy)


def galilean_generators(
    hydro: HydroFields, constants: PhysicalConstants, t: float = 0.0
) -> dict[str, FunctionalDerivs]:
    """P_i = m int j_i and K_i = m int rho x_i - t P_i under the keys "P0",
    "K0", "P1", "K1" (one pair per axis).

    K's derivative takes the packet-centered coordinate and its value the
    absolute one.  Refuses seam-touching mass (ValueError).
    """
    grid = hydro.grid
    m = constants.m
    grad_rho = spectral_gradient(hydro.rho, grid)
    x, origin = _centered_coords(hydro)
    out = {}
    for i in range(grid.dim):
        p = m * float(integrate(hydro.j[i], grid))
        k = m * float(integrate(hydro.rho * (x[i] + origin[i]), grid)) - t * p
        out[f"P{i}"] = FunctionalDerivs(d_rho=hydro.grad_s[i], d_S=-grad_rho[i], value=p)
        out[f"K{i}"] = FunctionalDerivs(d_rho=-t * hydro.grad_s[i] + m * x[i], d_S=t * grad_rho[i], value=k)
    return out


def _entry(value: float, expected: float, scale: float, closure: bool = True) -> dict:
    """One galilei.json entry; its gap is |value - expected| / scale."""
    return {"value": value, "expected": expected, "scale": scale, "closure": closure}


def bargmann_check(
    hydro: HydroFields,
    V: np.ndarray,
    alpha: float,
    constants: PhysicalConstants,
    t: float = 0.0,
) -> dict[str, dict]:
    """The Bargmann closure entries by name, each measured against its scale for
    the caller's bounds (cli.CHECKS): {H,P_i} as hp<i>, in a non-flat potential
    with its expected +int rho dV and closure false; {H,K_i} = -P_i as
    hk_plus_p<i>; {P_i,K_j} = -m delta_ij int rho as pk_plus_m<ij>."""
    grid = hydro.grid
    c = constants
    h = hamiltonian(hydro, V, alpha, c)
    gens = galilean_generators(hydro, c, t)
    mass_integral = float(integrate(hydro.rho, grid))
    entries = {}

    flat_v = bool(np.max(V) - np.min(V) < 1e-300)
    grad_v = None if flat_v else spectral_gradient(V, grid)
    scale_h = max(abs(h.value), 1.0)
    scale_m = max(c.m, 1.0)

    for i in range(grid.dim):
        p, k = gens[f"P{i}"], gens[f"K{i}"]
        # dP/dt = {P,H} = -int rho dV (Ehrenfest), so {H,P} = +int rho dV
        expected_hp = 0.0 if flat_v else float(integrate(hydro.rho * grad_v[i], grid))
        entries[f"hp{i}"] = _entry(poisson_bracket(h, p, grid), expected_hp, scale_h, closure=flat_v)
        entries[f"hk_plus_p{i}"] = _entry(poisson_bracket(h, k, grid) + p.value, 0.0, max(abs(p.value), 1.0))
        for j in range(grid.dim):
            central = -c.m * mass_integral if i == j else 0.0
            entries[f"pk_plus_m{i}{j}"] = _entry(poisson_bracket(p, gens[f"K{j}"], grid) - central, 0.0, scale_m)
    return entries
