"""Headline falsifiers: projective superposition residual, complexifier-rigidity
scan, time-reversal involution defect, and 2D circulation quantisation.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    DEFAULT_EPS_MASK,
    PhysicalConstants,
    WaveField,
    phase_time_derivative,
    polar_decompose,
)
from .grid import Grid, make_grid, norm_l2, spectral_gradient, spectral_laplacian
from .propagate import EvolutionSpec, _strang, evolve
from .states import harmonic_potential

__all__ = [
    "SuperpositionConfig",
    "superposition_residual",
    "superposition_curve",
    "projective_residual",
    "complexifier_scan",
    "ComplexifierScanResult",
    "time_reversal_defect",
    "circulation",
    "beta_drops",
    "LoopThroughNodeError",
]


class LoopThroughNodeError(ValueError):
    pass


@dataclass(frozen=True)
class SuperpositionConfig:
    """Two displaced Gaussian packets in a harmonic trap, base and refined grids.

    Packet centers are offsets from the box center; the initial disjointness
    invariant requires |x1 - x2| >= 6 sigma.  The refined grid is always
    (2N, dt/2).
    """

    # coherent width for the default trap (omega = 0.2) at +-3 sigma
    x1: float = -3.0 * 5.0**0.5
    x2: float = 3.0 * 5.0**0.5
    p1: float = 0.0
    p2: float = 0.0
    sigma: float = 5.0**0.5
    beta_list: tuple[float, ...] = (0.0, 0.005, 0.01, 0.02, 0.05)
    eps_reg: float = 1e-6
    omega: float = 0.2
    t_final: float = 2.1
    dt: float = 0.005
    n_base: int = 4096
    length: float = 68.0

    def __post_init__(self) -> None:
        if abs(self.x1 - self.x2) < 6.0 * self.sigma:
            raise ValueError("packets must start disjoint: |x1 - x2| >= 6 sigma")

    def grid(self, refined: bool = False) -> Grid:
        n = 2 * self.n_base if refined else self.n_base
        return make_grid(1, n, self.length)

    def timestep(self, refined: bool = False) -> float:
        return self.dt / 2 if refined else self.dt


def _packet(grid: Grid, center: float, momentum: float, sigma: float, hbar: float) -> np.ndarray:
    x = grid.axes[0] - 0.5 * grid.length
    return (np.pi * sigma**2) ** -0.25 * np.exp(
        -((x - center) ** 2) / (2.0 * sigma**2) + 1j * momentum * (x - center) / hbar
    )


def projective_residual(a: np.ndarray, b: np.ndarray, grid: Grid) -> tuple[float, float]:
    """(residual, theta): min over global phase of || a/|a| - e^{i theta} b/|b| ||_2.

    theta comes in closed form from the argument of the inner product; no grid
    search is involved.
    """
    a = a / norm_l2(a, grid)
    b = b / norm_l2(b, grid)
    inner = complex(np.sum(np.conj(a) * b) * grid.cell_volume)
    theta = -np.angle(inner)
    diff = a - np.exp(1j * theta) * b
    return norm_l2(diff, grid), float(theta)


def superposition_residual(
    config: SuperpositionConfig,
    beta: float,
    refined: bool = False,
    constants: PhysicalConstants | None = None,
) -> float:
    """Evolve psi1, psi2 separately and (psi1+psi2)/sqrt(2) jointly; return the
    phase-optimised L2 distance between the joint state and the summed state.

    The three states step on up to min(3, usable CPUs) threads, one
    contiguous chunk of the batch each, with no setting.  Each state's kick
    reads only its own max rho, so a chunk steps bit for bit as in the whole
    batch and the residual does not depend on the CPU count.  The calls nest
    inside run-all's FISHER_HYDRO_WORKERS pool."""
    c = constants or PhysicalConstants()
    grid = config.grid(refined)
    dt = config.timestep(refined)
    V = harmonic_potential(grid, config.omega, c)
    p1 = _packet(grid, config.x1, config.p1, config.sigma, c.hbar)
    p2 = _packet(grid, config.x2, config.p2, config.sigma, c.hbar)
    batch = np.stack([p1, p2, (p1 + p2) / np.sqrt(2.0)])
    batch /= np.sqrt(np.sum(np.abs(batch) ** 2, axis=-1, keepdims=True) * grid.cell_volume)
    n_steps = int(round(config.t_final / dt))
    advance = _strang(V, grid, dt, c, "beta_nonlinear", beta=beta, eps_reg=config.eps_reg)
    chunks = np.array_split(batch, min(len(batch), len(os.sched_getaffinity(0))))
    with concurrent.futures.ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        out = np.concatenate(list(pool.map(lambda chunk: advance(chunk, n_steps), chunks)))
    residual, _ = projective_residual(out[2], out[0] + out[1], grid)
    return residual


def superposition_curve(config: SuperpositionConfig, constants: PhysicalConstants | None = None) -> list[dict]:
    """Residuals on base and refined grids, one row per coupling in ascending beta."""
    return [
        {
            "beta": beta,
            "base": superposition_residual(config, beta, refined=False, constants=constants),
            "refined": superposition_residual(config, beta, refined=True, constants=constants),
        }
        for beta in sorted(config.beta_list)
    ]


# Two states are orthogonal to within the residual-overlap noise once the
# projective distance reaches this plateau; the order of two such measurements
# carries no information about the beta dependence.
_SATURATION_BAND = 1.30


def beta_drops(rows: list[dict]) -> tuple[float | None, float | None]:
    """(monotone, plateau): the largest fall of the residual from one coupling
    to the next, over both grids of a superposition_curve table.  A pair whose
    residuals both reach the saturation plateau counts towards plateau, any
    other towards monotone.  A negative value means the residual grows at every
    step; None, that no pair is in that class; a NaN residual makes it NaN."""
    monotone, plateau = [], []
    for col in ("base", "refined"):
        vals = [r[col] for r in rows]
        for lo, hi in zip(vals, vals[1:]):
            saturated = lo >= _SATURATION_BAND and hi >= _SATURATION_BAND
            (plateau if saturated else monotone).append(lo - hi)
    return tuple(float(np.max(d)) if d else None for d in (monotone, plateau))


@dataclass
class ComplexifierScanResult:
    p_grid: np.ndarray
    s_grid: np.ndarray
    defect: np.ndarray
    argmin: tuple[int, int]
    floor: float
    kappa_recovered: float
    alpha_recovered: float
    uninformative: bool = False


def complexifier_scan(
    p_grid: np.ndarray,
    s_grid: np.ndarray,
    snapshots: list[WaveField],
    V: np.ndarray,
    constants: PhysicalConstants,
    eps_mask: float = DEFAULT_EPS_MASK,
) -> ComplexifierScanResult:
    """Defect of the candidate complexifier phi = rho^p e^{i s S} against a linear
    Schrodinger step with kappa = 1/s.

    The true hydrodynamic flow supplies the instantaneous rates rho_t = -div j
    and S_t = -Re(H psi/psi); the defect is the masked, normalised residual of
    i kappa d_t phi - (-(kappa^2/2m) Lap + V) phi.  Only the polar cell
    (p, s) = (1/2, 1/hbar) linearises the flow.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    total = np.zeros((len(p_grid), len(s_grid)))
    den_floor = 0.0

    for wf in snapshots:
        grid = wf.grid
        hydro = polar_decompose(wf, eps_mask, constants)
        mask = hydro.mask
        rho = hydro.rho
        s_field = hydro.S
        rho_t = np.zeros(grid.shape)
        for axis in range(grid.dim):
            rho_t += spectral_gradient(hydro.j[axis], grid)[axis]
        rho_t = -rho_t
        s_t = phase_time_derivative(wf, V, constants)
        rate_log_rho = np.zeros(grid.shape)
        np.divide(rho_t, rho, out=rate_log_rho, where=rho > 1e-13 * rho.max())
        den_floor = max(den_floor, float(np.max(np.abs(rho_t))))

        for ip, p in enumerate(p_grid):
            amp = rho**p
            for i_s, s in enumerate(s_grid):
                kappa = 1.0 / s
                phi = amp * np.exp(1j * s * s_field)
                phi_t = phi * (p * rate_log_rho + 1j * s * s_t)
                h_phi = -(kappa**2 / (2.0 * constants.m)) * spectral_laplacian(phi, grid) + V * phi
                res = 1j * kappa * phi_t - h_phi
                num = float(np.sum(np.abs(res[mask]) ** 2))
                den = float(np.sum((np.abs(kappa * phi_t[mask]) ** 2 + np.abs(h_phi[mask]) ** 2)))
                total[ip, i_s] += math.sqrt(num / den) if den > 1e-280 else 0.0

    defect = total / len(snapshots)
    argmin = np.unravel_index(int(np.argmin(defect)), defect.shape)
    kappa = 1.0 / s_grid[argmin[1]]
    return ComplexifierScanResult(
        p_grid=p_grid,
        s_grid=s_grid,
        defect=defect,
        argmin=(int(argmin[0]), int(argmin[1])),
        floor=float(defect[argmin]),
        kappa_recovered=float(kappa),
        alpha_recovered=float(kappa**2 / (2.0 * constants.m)),
        uninformative=bool(den_floor < 1e-14),
    )


def time_reversal_defect(
    psi0: WaveField,
    V: np.ndarray,
    T: float,
    D: float,
    constants: PhysicalConstants,
    dt: float = 0.01,
) -> tuple[float, float]:
    """(defect, floor) for the involution K U(T) K U(T) = I.

    K is complex conjugation (with t -> -t).  defect is the L2 distance from
    the reconstructed state to psi0 at diffusion D; floor is that defect at
    D = 0 on the same grid, which at D = 0 is defect itself.
    """
    n_steps = int(round(T / dt))
    if n_steps and abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("T must be a multiple of dt")

    def run(diffusion: float) -> float:
        if n_steps == 0:
            return 0.0
        kind = "linear" if diffusion == 0.0 else "dg_diffusion"
        spec = EvolutionSpec(kind=kind, dt=dt, t_final=T, record_stride=max(n_steps, 1), D=diffusion)
        state = psi0
        for _ in range(2):
            traj = evolve(state, V, spec, constants)
            state = traj.snapshots[-1][1]
            state = WaveField(state.grid, np.conj(state.values), 0.0)
        return norm_l2(state.values - psi0.values, psi0.grid)

    defect = run(D)
    return defect, defect if D == 0.0 else run(0.0)


def _loop_cells(i0: int, j0: int, radius_cells: int, n: int) -> list[tuple[int, int]]:
    """Counterclockwise square lattice loop centered on (i0, j0)."""
    r = radius_cells
    cells = []
    for dj in range(-r, r):
        cells.append(((i0 + r) % n, (j0 + dj) % n))
    for di in range(r, -r, -1):
        cells.append(((i0 + di) % n, (j0 + r) % n))
    for dj in range(r, -r, -1):
        cells.append(((i0 - r) % n, (j0 + dj) % n))
    for di in range(-r, r):
        cells.append(((i0 + di) % n, (j0 - r) % n))
    return cells


def circulation(
    psi2d: WaveField,
    loop_radius: float,
    center: tuple[float, float],
    constants: PhysicalConstants,
    eps_mask: float = DEFAULT_EPS_MASK,
) -> tuple[float, float, float]:
    """(line_value, area_value, n_estimate) around a closed lattice loop.

    line_value sums local phase increments arg(psi_{k+1}/psi_k) * hbar along
    the loop (no global unwrap, so multivalued phase is handled exactly);
    area_value accumulates plaquette windings over the enclosed region; both
    equal 2 pi n hbar for an isolated enclosed vortex of winding n.
    """
    grid = psi2d.grid
    if grid.dim != 2:
        raise ValueError("circulation requires a 2D field")
    h = grid.spacing
    i0 = int(round(center[0] / h)) % grid.n
    j0 = int(round(center[1] / h)) % grid.n
    r_cells = int(round(loop_radius / h))
    if r_cells < 3:
        raise ValueError("loop must avoid the node by at least 3 cells")

    values = psi2d.values
    rho = psi2d.density()
    rho_floor = eps_mask * float(rho.max())
    cells = _loop_cells(i0, j0, r_cells, grid.n)
    path = np.array([values[c] for c in cells] + [values[cells[0]]])
    if np.any(np.abs(path) ** 2 <= rho_floor):
        raise LoopThroughNodeError("loop intersects the masked nodal region")
    increments = np.angle(path[1:] * np.conj(path[:-1]))
    line_value = constants.hbar * float(np.sum(increments))

    def plaquette(i: int, j: int) -> float:
        ip, jp = (i + 1) % grid.n, (j + 1) % grid.n
        corners = [values[i, j], values[ip, j], values[ip, jp], values[i, jp], values[i, j]]
        corners = np.array(corners)
        return float(np.sum(np.angle(corners[1:] * np.conj(corners[:-1]))))

    area_sum = 0.0
    for di in range(-r_cells, r_cells):
        for dj in range(-r_cells, r_cells):
            area_sum += plaquette((i0 + di) % grid.n, (j0 + dj) % grid.n)
    area_value = constants.hbar * area_sum

    n_estimate = line_value / (2.0 * np.pi * constants.hbar)
    return line_value, area_value, float(n_estimate)
