"""Operational falsifiers: continuity and Hamilton-Jacobi residuals, alpha scans
and multi-mass scans.

Both residuals are dimensionless masked quotients.  Numerators are exactly
Galilean-invariant; the normalising denominators are evaluated in the frame
co-moving with the state's mean velocity (P/m), which preserves their
term-by-term structure, reduces to the lab-frame formula for a state at rest,
and makes every reported value boost-invariant pointwise.

Both take their spatial terms from polar_decompose: the spectral current j
and grad S = m j / rho (HydroFields.grad_s); every divergence is spectral.
Neither reads the unwrapped phase.
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
    node_mask,
    phase_time_derivative,
    polar_decompose,
    root_laplacian_quotient,
)
from .grid import Grid, _over_grid, integrate, spectral_divergence
from .propagate import symmetric_pairs
from .states import harmonic_potential, oscillator_energy, oscillator_state

__all__ = [
    "ScanResult",
    "continuity_residual",
    "continuity_curve",
    "hj_residual",
    "alpha_scan",
    "multi_mass_scan",
]


@dataclass
class ScanResult:
    """A residual curve over a scan grid (alpha/alpha_star, or a coefficient c).

    argmin is the vertex of the parabola through the raw minimum argmin_grid
    and its two neighbours; it is argmin_grid itself on the scan edge or where
    that parabola does not open upwards.  boundary is flagged when the raw
    minimum sits on the scan edge (inconclusive scan).
    """

    alphas: np.ndarray
    residuals: np.ndarray
    argmin: float
    argmin_grid: float
    min_value: float
    r_cont_mean: float
    boundary: bool = False

    @classmethod
    def from_curve(cls, x: np.ndarray, y: np.ndarray, r_cont_mean: float = 0.0) -> "ScanResult":
        """The scan of curve y over the increasing grid x."""
        i = int(np.argmin(y))
        boundary = i in (0, len(x) - 1)
        denom = 0.0 if boundary else y[i - 1] - 2.0 * y[i] + y[i + 1]
        if denom <= 0:
            argmin = float(x[i])
        else:
            argmin = float(x[i] + 0.5 * (y[i - 1] - y[i + 1]) / denom * (x[i + 1] - x[i]))
        return cls(alphas=x, residuals=y, argmin=argmin, argmin_grid=float(x[i]), min_value=float(y[i]),
                   r_cont_mean=float(r_cont_mean), boundary=boundary)


def _mean_velocity(hydro: HydroFields) -> np.ndarray:
    """Mean velocity per axis, integral of the probability current (unit mass)."""
    return np.array([integrate(hydro.j[a], hydro.grid) for a in range(hydro.grid.dim)])


def subtract_masked_mean(f: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Remove the masked mean; idempotent by construction."""
    return f - masked_mean(f, mask)


def continuity_residual(snapshot_triple: tuple[WaveField, WaveField, WaveField], constants: PhysicalConstants,
                        eps_mask: float = DEFAULT_EPS_MASK) -> float:
    """Dimensionless continuity defect <|rho_t + div j|^2> / <|.|^2 + |.|^2>.

    rho_t comes from the centered snapshot pair with the stencil applied along
    the co-moving characteristic (a spectral shift by vbar*dt), and div j is
    the spectral divergence of the co-moving flux j - rho vbar, so the split
    of the defect into its two members is frame-independent.  Independent of
    alpha.  When both members sit at the measurement floor (a stationary
    state), the defect is reported as zero rather than noise over noise.
    """
    wf_minus, wf_center, wf_plus = snapshot_triple
    return _continuity(polar_decompose(wf_center, eps_mask, constants), wf_minus, wf_plus)


def _continuity(hydro: HydroFields, wf_minus: WaveField, wf_plus: WaveField) -> float:
    """continuity_residual of the centre's decomposition hydro and its pair."""
    grid = hydro.grid
    dt = 0.5 * (wf_plus.time - wf_minus.time)

    vbar = _mean_velocity(hydro)
    rho = _comoving_densities(wf_plus, wf_minus, vbar * dt)
    rho_t_conv = (rho[0] - rho[1]) / (2.0 * dt)

    div_com = spectral_divergence(hydro.j - hydro.rho[None] * vbar.reshape((-1,) + (1,) * grid.dim), grid)

    mask = hydro.mask
    num = masked_mean((rho_t_conv + div_com) ** 2, mask)
    den = masked_mean(rho_t_conv**2 + div_com**2, mask)
    floor = (1e-12 * float(hydro.rho.max()) / dt) ** 2
    if den <= floor:
        return 0.0
    return float(num / den)


def _comoving_densities(wf_plus: WaveField, wf_minus: WaveField, shift: np.ndarray) -> np.ndarray:
    """The densities of wf_plus and wf_minus stacked, each the trigonometric
    interpolant at x + shift and x - shift, one axis at a time: one phase
    exp(i k shift) per shifted axis, which wf_minus takes conjugated, one
    transform of the stack each way over the grid axes, and the real part
    kept after each axis.

    The conjugate has the bits of exp(-i k shift) but at k = 0, where its
    imaginary part is -0 and not +0.  A zero's sign changes a product or a
    sum only where that is zero too, so wf_minus's shifted density can
    differ from exp(-i k shift)'s only in the sign of a zero, which the
    residual's squares do not see.

    Each density gets the bits of numpy's phase * F rho on its own spectrum:
    numpy evaluates that product in place, operands swapped, on a 1D spectrum
    of 256 KiB or more (never on a broadcast 2D phase), and a complex product
    is not bitwise commutative (FMA)."""
    grid = wf_plus.grid
    rho = np.stack([wf_plus.density(), wf_minus.density()])
    for axis in range(grid.dim):
        if shift[axis] == 0.0:
            continue
        shape = [1] * grid.dim
        shape[axis] = grid.n
        phase = np.exp(1j * grid.wavenumbers * shift[axis]).reshape(shape)
        spectrum = _over_grid(np.fft.fft, np.array(rho, dtype=complex), grid)
        swapped = grid.dim == 1 and spectrum[0].nbytes >= 256 * 1024
        for factor, density in zip((phase, np.conj(phase)), spectrum):
            np.multiply(*((density, factor) if swapped else (factor, density)), out=density)
        rho = _over_grid(np.fft.ifft, spectrum, grid).real
    return rho


def continuity_curve(trajectory, V: np.ndarray, constants: PhysicalConstants,
                     eps_mask: float = DEFAULT_EPS_MASK) -> list[float]:
    """continuity_residual at each interior snapshot, its centered pair one
    step back and forward of the trajectory's own flow (symmetric_pairs)."""
    interior = _interior(trajectory)
    pairs = symmetric_pairs(interior, V, trajectory.spec, constants)
    return [continuity_residual((minus, wf, plus), constants, eps_mask) for wf, (minus, plus) in zip(interior, pairs)]


def _interior(trajectory) -> list[WaveField]:
    """The interior snapshots of trajectory, of which there must be one."""
    interior = [wf for _, wf in trajectory.snapshots[1:-1]]
    if not interior:
        raise ValueError("trajectory has no interior snapshots")
    return interior


def _hj_parts(wavefield: WaveField, V: np.ndarray, constants: PhysicalConstants, eps_mask: float,
              hydro: HydroFields | None = None):
    """alpha-independent pieces of the HJ residual for one snapshot, whose
    decomposition hydro is taken here unless given: its fields and mask on
    the mask's extent along the leading grid axis, and the mask's count.

    The cut is a contiguous view that starts at the first masked-in site, so
    a where=mask sum meets the same runs of sites as on the full grid, with
    its bits; a box around the mask in 2D would split those runs."""
    grid = wavefield.grid
    hydro = polar_decompose(wavefield, eps_mask, constants) if hydro is None else hydro
    lead = np.flatnonzero(hydro.mask.reshape(grid.n, -1).any(axis=1))
    cut = slice(lead[0], lead[-1] + 1)
    s_t = phase_time_derivative(wavefield, V, constants)[cut]
    grad_s = hydro.grad_s[:, cut]
    kin = np.sum(grad_s**2, axis=0) / (2.0 * constants.m)
    qtilde = laplacian_quotient(hydro.rho, grid, hydro.mask)[cut]

    vbar = _mean_velocity(hydro)
    vb = vbar.reshape((-1,) + (1,) * grid.dim)
    s_t_com = s_t + np.sum(vb * grad_s, axis=0) - 0.5 * constants.m * float(np.sum(vbar**2))
    kin_com = np.sum((grad_s - constants.m * vb) ** 2, axis=0) / (2.0 * constants.m)

    invariant_sum = s_t + kin + V[cut]
    # the alpha-independent sum that opens every denominator, added in the
    # order of s_t_com^2 + (kin_com + V)^2 + (alpha qtilde)^2
    com_sq = s_t_com**2 + (kin_com + V[cut]) ** 2
    return invariant_sum, com_sq, qtilde, hydro.mask[cut], int(np.count_nonzero(hydro.mask))


def _hj_from_parts(parts, alpha: float) -> float:
    """The HJ residual at alpha from _hj_parts: the masked means of
    subtract_masked_mean and masked_mean, with their bits (np.add.reduce is
    np.sum without its argument handling), alpha qtilde formed once."""
    invariant_sum, com_sq, qtilde, mask, count = parts
    q_alpha = alpha * qtilde
    num_field = invariant_sum - q_alpha
    num_field -= np.add.reduce(num_field, axis=None, where=mask) / count
    num = np.add.reduce(np.square(num_field, out=num_field), axis=None, where=mask) / count
    den = np.add.reduce(np.add(com_sq, np.square(q_alpha, out=q_alpha), out=q_alpha), axis=None, where=mask) / count
    if den < 1e-280:
        return 0.0
    return float(math.sqrt(num / den))


def hj_residual(wavefield: WaveField, V: np.ndarray, alpha: float, constants: PhysicalConstants,
                eps_mask: float = DEFAULT_EPS_MASK) -> float:
    """Dimensionless Hamilton-Jacobi defect for a candidate coefficient alpha.

    Square root of the masked mean-square quotient of
    S_t + |grad S|^2/2m + V + Q_alpha over its term-wise normalisation, with
    the numerator mean-subtracted (a global constant in S is unphysical).  The
    square root makes the response near the minimum linear in the coefficient
    perturbation, matching the eigenstate perturbation law.
    """
    return _hj_from_parts(_hj_parts(wavefield, V, constants, eps_mask), alpha)


def default_alpha_grid(lo: float = 0.5, hi: float = 1.5, cells: int = 40) -> np.ndarray:
    """Cell midpoints of a uniform partition of [lo, hi] in alpha/alpha_star.

    Midpoints deliberately exclude the exact fixed point, so the scan minimum
    measures the curve rather than the machine floor at alpha_star; the refined
    argmin is recovered by the parabolic fit in alpha_scan.
    """
    edges = np.linspace(lo, hi, cells + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def alpha_scan(trajectory, V: np.ndarray, alpha_grid: np.ndarray, constants: PhysicalConstants,
               eps_mask: float = DEFAULT_EPS_MASK) -> ScanResult:
    """Time-averaged HJ residual per alpha over interior snapshots.

    alpha_grid is in units of alpha/alpha_star: at least 21 strictly
    increasing points, whatever range they span; a minimum on the grid's edge
    is reported as the result's boundary flag.  r_cont is alpha-independent:
    the mean of continuity_curve, whose centered pairs step the trajectory's
    own flow.
    """
    ratios = np.asarray(alpha_grid, dtype=float)
    if len(ratios) < 21:
        raise ValueError("alpha grid must have at least 21 points")
    if np.any(np.diff(ratios) <= 0):
        raise ValueError("alpha grid must be strictly increasing")

    r_conts, curves = [], []
    alpha_star = constants.alpha_star
    interior = _interior(trajectory)
    for wf, pair in zip(interior, symmetric_pairs(interior, V, trajectory.spec, constants)):
        hydro = polar_decompose(wf, eps_mask, constants)
        r_conts.append(_continuity(hydro, *pair))
        parts = _hj_parts(wf, V, constants, eps_mask, hydro)
        curves.append([_hj_from_parts(parts, r * alpha_star) for r in ratios])
    curve = np.array([math.fsum(col) / len(curves) for col in zip(*curves)])
    return ScanResult.from_curve(ratios, curve, math.fsum(r_conts) / len(r_conts))


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
    if not mask.any():
        raise ValueError("eigen coefficient curve: empty mask")
    quot = root_laplacian_quotient(signed_root, grid, mask & (np.abs(signed_root) > 0))
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
    eps_mask: float = DEFAULT_EPS_MASK,
) -> dict[float, ScanResult]:
    """Componentwise coefficient scan R_i(c) with alpha_i = c * hbar^2/(2 m_i).

    Each mass gets an independent harmonic ground state; a common minimum at
    c = 1 witnesses a single action scale across components.  boundary flags
    a minimum on the scan edge, where the argmin is that edge.
    """
    c_grid = np.asarray(c_grid, dtype=float)
    results: dict[float, ScanResult] = {}
    for m_i in masses:
        consts = PhysicalConstants(hbar=hbar, m=m_i)
        psi = oscillator_state(grid, 0, omega, consts)
        rho = psi.density()
        mask = node_mask(rho, eps_mask)
        V = harmonic_potential(grid, omega, consts)
        curve = eigen_coefficient_curve(
            rho, psi.values.real, V, oscillator_energy(0, omega, consts), c_grid, consts.alpha_star, grid, mask
        )
        results[m_i] = ScanResult.from_curve(c_grid, curve)
    return results
