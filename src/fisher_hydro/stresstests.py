"""Headline falsifiers: projective superposition residual, complexifier-rigidity
scan, time-reversal involution defect, and 2D circulation quantisation.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass

import numpy as np

from . import propagate
from .fields import (
    DEFAULT_EPS_MASK,
    ROUNDOFF_FLOOR,
    PhysicalConstants,
    WaveField,
    node_mask,
    phase_time_derivative,
    polar_decompose,
    unwrapped_phase,
)
from .grid import Grid, make_grid, norm_l2, spectral_divergence, spectral_laplacian
from .propagate import EvolutionSpec
from .states import _positive, harmonic_potential

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
    """The superposition suite's config: two coherent packets of width
    sigma = sqrt(hbar/(m omega)) in a harmonic trap, separation_sigmas >= 6
    sigma apart about the box center, on a base grid and the refined (2n, dt/2).
    Each packet's density at the periodic seam x = +-L/2 must stay below
    ROUNDOFF_FLOOR times its peak, so the box cuts off no packet, and
    t_final > 0.  The rules on couplings and time steps are EvolutionSpec's:
    the config builds each coupling's base-grid spec, which refuses a beta < 0,
    an eps_reg <= 0, a dt <= 0 and a t_final that is not a whole number of
    steps dt, so the base grid and the refined one, at dt/2, both stop at it.
    """

    n: int = 4096
    length: float = 68.0
    dt: float = 0.005
    t_final: float = 2.1
    omega: float = 0.2
    separation_sigmas: float = 6.0
    beta_list: tuple[float, ...] = (0.0, 0.005, 0.01, 0.02, 0.05)
    eps_reg: float = 1e-6
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        if self.separation_sigmas < 6.0:
            raise ValueError("packets must start disjoint: separation_sigmas >= 6")
        if self.t_final <= 0:  # at t = 0 every residual is 0
            raise ValueError(f"superposition needs t_final > 0, got {self.t_final:g}")
        for beta in self.beta_list:
            self.spec(beta)
        c = PhysicalConstants(self.hbar, self.mass)  # refuses hbar or mass <= 0 before they divide
        _positive("omega", self.omega)
        sigma = math.sqrt(c.hbar / (c.m * self.omega))
        seam = 0.5 * self.length / sigma - 0.5 * self.separation_sigmas  # from a centre to x = +-L/2
        needed = math.sqrt(-math.log(ROUNDOFF_FLOOR))  # the density falls to ROUNDOFF_FLOOR of its peak
        if seam < needed:
            raise ValueError(f"packet centres sit {seam:.4g} sigma from the periodic seam, which cuts them off: "
                             f"their density there exceeds ROUNDOFF_FLOOR times the peak within {needed:.4g} sigma")

    def grid(self, refined: bool = False) -> Grid:
        return make_grid(1, 2 * self.n if refined else self.n, self.length)

    def timestep(self, refined: bool = False) -> float:
        return self.dt / 2 if refined else self.dt

    def spec(self, beta: float, refined: bool = False) -> EvolutionSpec:
        """The beta flow at coupling beta on the base or refined time grid."""
        return EvolutionSpec("beta_nonlinear", self.timestep(refined), self.t_final, beta=beta, eps_reg=self.eps_reg)


def _packet(grid: Grid, center: float, sigma: float) -> np.ndarray:
    x = grid.axes[0] - 0.5 * grid.length
    # complex exp: a real one differs in last bits, which the beta > 0 rows amplify
    return (np.pi * sigma**2) ** -0.25 * np.exp((-((x - center) ** 2) / (2.0 * sigma**2)).astype(complex))


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


def _usable_cpus() -> int:
    """The size of the process's CPU affinity set, else os.cpu_count(), else 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def superposition_residual(config: SuperpositionConfig, beta: float, refined: bool = False) -> float:
    """Evolve psi1, psi2 separately and (psi1+psi2)/sqrt(2) jointly, as one batch
    of the Strang kernel, which aborts at the first non-finite state; return the
    phase-optimised L2 distance between the joint state and the summed state."""
    c = PhysicalConstants(config.hbar, config.mass)
    grid = config.grid(refined)
    V = harmonic_potential(grid, config.omega, c)
    sigma = math.sqrt(c.hbar / (c.m * config.omega))
    half_sep = 0.5 * config.separation_sigmas * sigma
    p1 = _packet(grid, -half_sep, sigma)
    p2 = _packet(grid, half_sep, sigma)
    batch = np.stack([p1, p2, (p1 + p2) / np.sqrt(2.0)])
    batch /= np.sqrt(np.sum(np.abs(batch) ** 2, axis=-1, keepdims=True) * grid.cell_volume)
    spec = config.spec(beta, refined)
    out = propagate._strang(V, grid, spec.dt, c, spec)(batch, spec.n_steps)
    residual, _ = projective_residual(out[2], out[0] + out[1], grid)
    return residual


def _row(config: SuperpositionConfig, beta: float, refined: bool) -> float:
    """superposition_residual by its global name, so that a forked worker runs what the parent had bound there."""
    return superposition_residual(config, beta, refined)


def superposition_curve(config: SuperpositionConfig) -> list[dict]:
    """Residuals on base and refined grids, one row per coupling in ascending beta.

    The (beta, grid) calls run on min(calls, usable CPUs) forked processes, longest
    first (refined grid, larger beta); each is one evolution in one process."""
    import multiprocessing
    calls = sorted(((refined, beta) for beta in config.beta_list for refined in (True, False)), reverse=True)
    pool = concurrent.futures.ProcessPoolExecutor(min(len(calls), _usable_cpus()), multiprocessing.get_context("fork"))
    try:
        futures = {(beta, refined): pool.submit(_row, config, beta, refined) for refined, beta in calls}
        residual = {key: future.result() for key, future in futures.items()}
    finally:
        pool.shutdown(cancel_futures=True)  # after an abort, no queued call runs
    return [{"beta": beta, "base": residual[beta, False], "refined": residual[beta, True]}
            for beta in sorted(config.beta_list)]


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
    defect: np.ndarray
    argmin: tuple[int, int]
    floor: float
    kappa_recovered: float
    alpha_recovered: float
    max_density_rate: float  # the largest |rho_t| the scan saw: 0 where the flow leaves rho still


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
    (p, s) = (1/2, 1/hbar) linearises the flow among s > 0; every s must be
    positive, and there must be a snapshot to scan.
    """
    if not snapshots:
        raise ValueError("complexifier_scan needs a snapshot, got none: an evolution to t_final = 0 records none")
    p_grid = np.asarray(p_grid, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    if np.any(s_grid <= 0):
        raise ValueError("s must be positive: kappa = 1/s, and s < 0 maps to the conjugate psi*, "
                         "which linearises the time-reversed flow too")
    total = np.zeros((len(p_grid), len(s_grid)))
    max_density_rate = 0.0

    for wf in snapshots:
        grid = wf.grid
        hydro = polar_decompose(wf, eps_mask, constants)
        mask = hydro.mask
        rho = hydro.rho
        s_field = unwrapped_phase(wf, constants.hbar)
        rho_t = -spectral_divergence(hydro.j, grid)
        s_t = phase_time_derivative(wf, V, constants)
        rate_log_rho = np.zeros(grid.shape)
        np.divide(rho_t, rho, out=rate_log_rho, where=node_mask(rho, ROUNDOFF_FLOOR))
        max_density_rate = max(max_density_rate, float(np.max(np.abs(rho_t))))

        phases = [np.exp(1j * s * s_field) for s in s_grid]
        for ip, p in enumerate(p_grid):
            amp = rho**p
            for i_s, s in enumerate(s_grid):
                kappa = 1.0 / s
                phi = amp * phases[i_s]
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
        defect=defect,
        argmin=(int(argmin[0]), int(argmin[1])),
        floor=float(defect[argmin]),
        kappa_recovered=float(kappa),
        alpha_recovered=float(kappa**2 / (2.0 * constants.m)),
        max_density_rate=max_density_rate,
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
    D = 0 on the same grid, which at D = 0 is defect itself.  Each diffusion
    advances one Strang kernel twice, and an abort names its time in that leg.
    """
    psi0.check_finite()

    def run(diffusion: float) -> float:
        spec = EvolutionSpec("linear" if diffusion == 0.0 else "dg_diffusion", dt, T, D=diffusion)
        advance = propagate._strang(V, psi0.grid, dt, constants, spec)
        values = psi0.values
        for _ in range(2):
            values = np.conj(advance(values, spec.n_steps))
        return norm_l2(values - psi0.values, psi0.grid)

    defect = run(D)
    return defect, defect if D == 0.0 else run(0.0)


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
    equal 2 pi n hbar for an isolated enclosed vortex of winding n.  The
    field must be finite, and the loop, 2 round(loop_radius / spacing) cells
    a side, shorter than the periodic box: a longer one wraps onto itself.
    """
    psi2d.check_finite()
    grid = psi2d.grid
    if grid.dim != 2:
        raise ValueError("circulation requires a 2D field")
    h = grid.spacing
    i0 = int(round(center[0] / h)) % grid.n
    j0 = int(round(center[1] / h)) % grid.n
    r_cells = int(round(loop_radius / h))
    if r_cells < 3:
        raise ValueError("loop must avoid the node by at least 3 cells")
    if 2 * r_cells >= grid.n:
        raise ValueError(f"loop of {2 * r_cells} cells a side (loop_radius {loop_radius:g}) does not fit "
                         f"inside the periodic box of {grid.n} cells")

    # One gather: the block's boundary, counterclockwise from (i0 + r, j0 - r)
    # and closed on that cell, is the loop.  np.multiply keeps the operand
    # order, which `*` on a large temporary may swap: a complex product is
    # not bitwise commutative.
    span = (np.arange(-r_cells, r_cells + 1) + np.array([[i0], [j0]])) % grid.n
    block = psi2d.values[np.ix_(span[0], span[1])]
    path = np.concatenate([block[-1, :-1], block[:0:-1, -1], block[0, :0:-1], block[:-1, 0], block[-1:, 0]])
    if np.any(np.abs(path) ** 2 <= eps_mask * float(psi2d.density().max())):
        raise LoopThroughNodeError("loop intersects the masked nodal region")
    line_value = constants.hbar * float(np.sum(np.angle(np.multiply(path[1:], np.conj(path[:-1])))))

    # Each enclosed plaquette's winding sums its four edge increments,
    # counterclockwise from its lower-left corner; the windings are added one
    # by one in row-major order (np.sum or math.fsum over all of them would
    # reorder that sum).
    corners = np.stack([block[:-1, :-1], block[1:, :-1], block[1:, 1:], block[:-1, 1:], block[:-1, :-1]])
    windings = np.sum(np.angle(np.multiply(corners[1:], np.conj(corners[:-1]))), axis=0)
    area_sum = 0.0
    for winding in windings.ravel().tolist():
        area_sum += winding
    area_value = constants.hbar * area_sum

    n_estimate = line_value / (2.0 * np.pi * constants.hbar)
    return line_value, area_value, float(n_estimate)
