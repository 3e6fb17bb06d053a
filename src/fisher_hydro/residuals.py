"""Operational falsifiers: continuity and Hamilton-Jacobi residuals, alpha scans,
multi-mass scans, and the momentum-balance closure check.

Both residuals are dimensionless masked quotients.  Numerators are exactly
Galilean-invariant; the normalising denominators are evaluated in the frame
co-moving with the state's mean velocity (P/m), which preserves their
term-by-term structure, reduces to the lab-frame formula for a state at rest,
and makes every reported value boost-invariant pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    DEFAULT_EPS_MASK,
    HydroFields,
    PhysicalConstants,
    WaveField,
    laplacian_quotient,
    masked_mean,
    phase_time_derivative,
    polar_decompose,
)
from .grid import Grid, fd_divergence4, fd_gradient4, fd_laplacian4, integrate, spectral_laplacian
from .states import harmonic_potential, oscillator_energy, oscillator_state

__all__ = [
    "ScanResult",
    "continuity_residual",
    "hj_residual",
    "alpha_scan",
    "multi_mass_scan",
    "momentum_balance_residual",
]


class EmptyMaskError(ValueError):
    pass


@dataclass
class ScanResult:
    """Alpha scan curve in units of alpha/alpha_star.

    argmin is the parabola-refined location of the minimum; argmin_grid the raw
    grid cell.  boundary is flagged when the raw minimum sits on the scan edge
    (inconclusive scan).
    """

    alphas: np.ndarray
    residuals: np.ndarray
    argmin: float
    argmin_grid: float
    min_value: float
    r_cont_mean: float
    boundary: bool = False


def _spectral_shift(f: np.ndarray, grid: Grid, displacement: float, axis: int = 0) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at x + displacement."""
    if displacement == 0.0:
        return f
    k = grid.wavenumbers
    shape = [1] * grid.dim
    shape[axis] = grid.n
    phase = np.exp(1j * k * displacement).reshape(shape)
    out = np.fft.ifftn(phase * np.fft.fftn(f))
    return out.real if not np.iscomplexobj(f) else out


def _mean_velocity(hydro: HydroFields) -> np.ndarray:
    """Mean velocity per axis, integral of the probability current (unit mass)."""
    return np.array([integrate(hydro.j[a], hydro.grid) for a in range(hydro.grid.dim)])


def subtract_masked_mean(f: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Remove the masked mean; idempotent by construction."""
    return f - masked_mean(f, mask)


def continuity_residual(
    snapshot_triple: tuple[WaveField, WaveField, WaveField],
    constants: PhysicalConstants,
    eps_mask: float = DEFAULT_EPS_MASK,
) -> float:
    """Dimensionless continuity defect <|rho_t + div(rho grad S/m)|^2> / <|.|^2 + |.|^2>.

    rho_t comes from the centered snapshot pair with the stencil applied along
    the co-moving characteristic (a spectral shift by vbar*dt), so the split of
    the defect into its two members is frame-independent; spatial terms use the
    fourth-order diagnostic stencils.  Independent of alpha.  When both members
    sit at the stencil's measurement floor (a stationary state), the defect is
    reported as zero rather than noise over noise.
    """
    wf_minus, wf_center, wf_plus = snapshot_triple
    grid = wf_center.grid
    dt = 0.5 * (wf_plus.time - wf_minus.time)
    hydro = polar_decompose(wf_center, eps_mask, constants)
    if not hydro.mask.any():
        raise EmptyMaskError("continuity residual: empty mask")

    vbar = _mean_velocity(hydro)
    rho_plus = wf_plus.density()
    rho_minus = wf_minus.density()
    for axis in range(grid.dim):
        if vbar[axis] != 0.0:
            rho_plus = _spectral_shift(rho_plus, grid, vbar[axis] * dt, axis)
            rho_minus = _spectral_shift(rho_minus, grid, -vbar[axis] * dt, axis)
    rho_t_conv = (rho_plus - rho_minus) / (2.0 * dt)

    grad_s = fd_gradient4(hydro.S, grid)
    flux_com = hydro.rho[None] * (grad_s / constants.m - vbar.reshape((-1,) + (1,) * grid.dim))
    div_com = fd_divergence4(flux_com, grid)

    mask = hydro.mask
    num = masked_mean((rho_t_conv + div_com) ** 2, mask)
    den = masked_mean(rho_t_conv**2 + div_com**2, mask)
    floor = (1e-12 * float(hydro.rho.max()) / dt) ** 2
    if den <= floor:
        return 0.0
    return float(num / den)


def _hj_parts(
    wavefield: WaveField,
    V: np.ndarray,
    constants: PhysicalConstants,
    eps_mask: float,
):
    """alpha-independent pieces of the HJ residual for one snapshot."""
    grid = wavefield.grid
    hydro = polar_decompose(wavefield, eps_mask, constants)
    if not hydro.mask.any():
        raise EmptyMaskError("hj residual: empty mask")
    s_t = phase_time_derivative(wavefield, V, constants)
    grad_s = fd_gradient4(hydro.S, grid)
    kin = np.sum(grad_s**2, axis=0) / (2.0 * constants.m)
    # the Laplacian quotient uses the spectral square-root route: the fd4
    # square-root-free form is truncation-limited near the mask edge, well
    # above the eigenstate floor this residual must resolve
    qtilde = laplacian_quotient(hydro.rho, grid, hydro.mask, scheme="spectral")

    vbar = _mean_velocity(hydro)
    vb = vbar.reshape((-1,) + (1,) * grid.dim)
    s_t_com = s_t + np.sum(vb * grad_s, axis=0) - 0.5 * constants.m * float(np.sum(vbar**2))
    kin_com = np.sum((grad_s - constants.m * vb) ** 2, axis=0) / (2.0 * constants.m)

    invariant_sum = s_t + kin + V
    return invariant_sum, s_t_com, kin_com + V, qtilde, hydro.mask


def _hj_from_parts(parts, alpha: float) -> float:
    invariant_sum, s_t_com, kin_v_com, qtilde, mask = parts
    num_field = subtract_masked_mean(invariant_sum - alpha * qtilde, mask)
    num = masked_mean(num_field**2, mask)
    den = masked_mean(s_t_com**2 + kin_v_com**2 + (alpha * qtilde) ** 2, mask)
    if den < 1e-280:
        return 0.0
    return float(math.sqrt(num / den))


def hj_residual(
    wavefield: WaveField,
    V: np.ndarray,
    alpha: float,
    constants: PhysicalConstants,
    eps_mask: float = DEFAULT_EPS_MASK,
) -> float:
    """Dimensionless Hamilton-Jacobi defect for a candidate coefficient alpha.

    Square root of the masked mean-square quotient of
    S_t + |grad S|^2/2m + V + Q_alpha over its term-wise normalisation, with
    the numerator mean-subtracted (a global constant in S is unphysical).  The
    square root makes the response near the minimum linear in the coefficient
    perturbation, matching the eigenstate perturbation law.
    """
    return _hj_from_parts(_hj_parts(wavefield, V, constants, eps_mask), alpha)


def _refine_argmin(x: np.ndarray, y: np.ndarray, i: int) -> float:
    """Parabolic vertex through (x[i-1..i+1], y[i-1..i+1]); falls back to x[i]."""
    if i == 0 or i == len(x) - 1:
        return float(x[i])
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom <= 0:
        return float(x[i])
    return float(x[i] + 0.5 * (y[i - 1] - y[i + 1]) / denom * (x[i + 1] - x[i]))


def default_alpha_grid(lo: float = 0.5, hi: float = 1.5, cells: int = 40) -> np.ndarray:
    """Cell midpoints of a uniform partition of [lo, hi] in alpha/alpha_star.

    Midpoints deliberately exclude the exact fixed point, so the scan minimum
    measures the curve rather than the machine floor at alpha_star; the refined
    argmin is recovered by the parabolic fit in alpha_scan.
    """
    edges = np.linspace(lo, hi, cells + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def alpha_scan(
    trajectory,
    V: np.ndarray,
    alpha_grid: np.ndarray,
    constants: PhysicalConstants,
    eps_mask: float = DEFAULT_EPS_MASK,
) -> ScanResult:
    """Time-averaged HJ residual per alpha over interior snapshots.

    alpha_grid is in units of alpha/alpha_star, strictly increasing, covering
    at least [0.5, 1.5].  r_cont is alpha-independent and averaged once; its
    centered pair is single linear steps at the trajectory's own dt.
    """
    from .propagate import symmetric_pair

    ratios = np.asarray(alpha_grid, dtype=float)
    if len(ratios) < 21:
        raise ValueError("alpha grid must have at least 21 points")
    if np.any(np.diff(ratios) <= 0):
        raise ValueError("alpha grid must be strictly increasing")

    interior = trajectory.snapshots[1:-1]
    if not interior:
        raise ValueError("trajectory has no interior snapshots")
    dt = trajectory.spec.dt

    curves = []
    r_conts = []
    alpha_star = constants.alpha_star
    for _, wf in interior:
        parts = _hj_parts(wf, V, constants, eps_mask)
        curves.append([_hj_from_parts(parts, r * alpha_star) for r in ratios])
        minus, plus = symmetric_pair(wf, V, dt, constants)
        r_conts.append(continuity_residual((minus, wf, plus), constants, eps_mask))

    curve = np.array([math.fsum(col) / len(curves) for col in zip(*curves)])
    r_cont_mean = math.fsum(r_conts) / len(r_conts)

    i = int(np.argmin(curve))
    boundary = i in (0, len(ratios) - 1)
    return ScanResult(
        alphas=ratios,
        residuals=curve,
        argmin=_refine_argmin(ratios, curve, i),
        argmin_grid=float(ratios[i]),
        min_value=float(curve[i]),
        r_cont_mean=float(r_cont_mean),
        boundary=boundary,
    )


def eigen_coefficient_curve(
    rho: np.ndarray,
    signed_root: np.ndarray,
    V: np.ndarray,
    energy: float,
    c_grid: np.ndarray,
    alpha_base: float,
    grid: Grid,
    mask: np.ndarray,
) -> np.ndarray:
    """R(c) = ||V + Q_{c alpha_base} - E||_{L2(rho)} on the mask.

    signed_root is the real eigenfunction u with rho = u^2; the Laplacian
    quotient Delta sqrt(rho)/sqrt(rho) equals Delta u / u off nodes, which
    avoids the kink in sqrt(rho) at sign changes.
    """
    lap_u = spectral_laplacian(signed_root, grid)
    quot = np.zeros(grid.shape)
    np.divide(lap_u, signed_root, out=quot, where=mask & (np.abs(signed_root) > 0))
    out = np.empty(len(c_grid))
    for idx, cc in enumerate(c_grid):
        f = V - cc * alpha_base * quot - energy
        out[idx] = math.sqrt(max(float(np.sum(np.where(mask, f**2 * rho, 0.0)) * grid.cell_volume), 0.0))
    return out


def multi_mass_scan(
    c_grid: np.ndarray,
    masses: list[float],
    hbar: float,
    omega: float,
    grid: Grid,
    alpha_base: dict[float, float] | None = None,
    eps_mask: float = DEFAULT_EPS_MASK,
) -> dict[float, ScanResult]:
    """Componentwise coefficient scan R_i(c) with alpha_i = c * hbar^2/(2 m_i).

    Each mass gets an independent harmonic ground state; a common minimum at
    c = 1 witnesses a single action scale across components.  boundary flags
    a minimum on the scan edge, where the argmin is that edge.  alpha_base can
    override the per-mass reference coefficient (a deliberately mis-calibrated
    base shifts that component's argmin to the reciprocal factor).
    """
    c_grid = np.asarray(c_grid, dtype=float)
    results: dict[float, ScanResult] = {}
    for m_i in masses:
        consts = PhysicalConstants(hbar=hbar, m=m_i)
        base = consts.alpha_star if alpha_base is None else alpha_base.get(m_i, consts.alpha_star)
        psi = oscillator_state(grid, 0, omega, consts)
        rho = psi.density()
        mask = rho > eps_mask * rho.max()
        V = harmonic_potential(grid, omega, consts)
        curve = eigen_coefficient_curve(
            rho, psi.values.real, V, oscillator_energy(0, omega, consts), c_grid, base, grid, mask
        )
        i = int(np.argmin(curve))
        results[m_i] = ScanResult(
            alphas=c_grid,
            residuals=curve,
            argmin=_refine_argmin(c_grid, curve, i),
            argmin_grid=float(c_grid[i]),
            min_value=float(curve[i]),
            r_cont_mean=0.0,
            boundary=i in (0, len(c_grid) - 1),
        )
    return results


def momentum_balance_residual(
    snapshot_triple: tuple[WaveField, WaveField, WaveField],
    alpha: float,
    constants: PhysicalConstants,
    eps_mask: float = DEFAULT_EPS_MASK,
    V: np.ndarray | None = None,
) -> float:
    """Masked defect of d_t(rho v) + d_x Pi + (rho/m) d_x V - (rho/m)(alpha - alpha*) d_x(Lap sqrt rho / sqrt rho).

    1D only.  Pi is the classical flux rho v^2 plus the standard quantum Cauchy
    stress -(hbar^2/4m^2) rho d^2(ln rho)/dx^2, which carries the physical hbar;
    the candidate alpha enters only the closure term, which vanishes identically
    at alpha = alpha_star.
    """
    wf_minus, wf_center, wf_plus = snapshot_triple
    grid = wf_center.grid
    if grid.dim != 1:
        raise ValueError("momentum balance check is 1D")
    dt = 0.5 * (wf_plus.time - wf_minus.time)
    c = constants
    hydro = polar_decompose(wf_center, eps_mask, c)
    mask = hydro.mask
    if not mask.any():
        raise EmptyMaskError("momentum balance: empty mask")

    h_minus = polar_decompose(wf_minus, eps_mask, c)
    h_plus = polar_decompose(wf_plus, eps_mask, c)
    dj_dt = (h_plus.j[0] - h_minus.j[0]) / (2.0 * dt)

    rho = hydro.rho
    rho_x = fd_gradient4(rho, grid)[0]
    rho_xx = fd_laplacian4(rho, grid)
    v2rho = np.zeros_like(rho)
    np.divide(hydro.j[0] ** 2, rho, out=v2rho, where=rho > 0)
    grad_sq_over_rho = np.zeros_like(rho)
    np.divide(rho_x**2, rho, out=grad_sq_over_rho, where=rho > 0)
    quantum = (c.hbar**2 / (4.0 * c.m**2)) * (grad_sq_over_rho - rho_xx)
    pi = v2rho + quantum
    dpi = fd_gradient4(pi, grid)[0]

    if V is None:
        force = np.zeros_like(rho)
    else:
        force = (rho / c.m) * fd_gradient4(V, grid)[0]

    qtilde = laplacian_quotient(rho, grid, mask, scheme="fd4")
    closure = (rho / c.m) * (alpha - c.alpha_star) * fd_gradient4(qtilde, grid)[0]

    resid = dj_dt + dpi + force - closure
    num = masked_mean(resid**2, mask)
    den = masked_mean(dj_dt**2 + dpi**2 + force**2 + closure**2, mask)
    floor = (1e-12 * float(rho.max()) / dt) ** 2
    if den <= floor:
        return 0.0
    return float(math.sqrt(num / den))
