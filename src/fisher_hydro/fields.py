"""Wavefunction storage, Madelung polar decomposition, and derived hydrodynamic fields.

All hydrodynamic quotients are evaluated on a node mask {rho > eps * max(rho)};
off-mask entries are zeroed and excluded from every norm downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, fd_gradient4, fd_laplacian4, spectral_gradient, spectral_laplacian

__all__ = [
    "PhysicalConstants",
    "WaveField",
    "HydroFields",
    "polar_compose",
    "polar_decompose",
    "quantum_potential",
    "laplacian_quotient",
    "phase_time_derivative",
    "masked_mean",
    "DEFAULT_EPS_MASK",
]

DEFAULT_EPS_MASK = 1e-6

# Division guard relative to max(rho): below this the quotient fields
# Delta sqrt(rho)/sqrt(rho) and H psi/psi are round-off noise rather than data.
_RHO_GUARD = 1e-300


@dataclass(frozen=True)
class PhysicalConstants:
    """Action scale hbar and mass m.

    The Fisher scale alpha_star = hbar^2/(2m) is always derived; a candidate
    regulariser coefficient alpha is passed explicitly wherever it is used.
    """

    hbar: float = 1.0
    m: float = 1.0

    def __post_init__(self) -> None:
        if self.hbar <= 0 or self.m <= 0:
            raise ValueError("hbar and m must be positive")

    @property
    def alpha_star(self) -> float:
        return self.hbar**2 / (2.0 * self.m)


@dataclass
class WaveField:
    """Complex amplitude on a grid with unit L2 normalisation."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2).real * self.grid.cell_volume))

    def normalized(self) -> "WaveField":
        return WaveField(self.grid, self.values / self.norm(), self.time)

    def density(self) -> np.ndarray:
        return (self.values.real**2 + self.values.imag**2)

    def check_finite(self) -> None:
        if not np.all(np.isfinite(self.values.view(float))):
            raise FloatingPointError("wavefield contains non-finite values")


@dataclass
class HydroFields:
    """Madelung fields rho, S, j with node mask.

    S is unwrapped phase times hbar, defined up to a global constant;
    consumers must use only grad S or S differences.
    """

    grid: Grid
    rho: np.ndarray
    S: np.ndarray
    j: np.ndarray
    mask: np.ndarray


def masked_mean(f: np.ndarray, mask: np.ndarray) -> float:
    """Plain (unweighted) mean over masked-in sites; 0 for an empty mask."""
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0.0
    return float(np.sum(f, where=mask) / count)


def polar_compose(rho: np.ndarray, S: np.ndarray, hbar: float, grid: Grid) -> WaveField:
    """psi = sqrt(rho) exp(i S / hbar); preserves the integral of rho exactly."""
    rho = np.asarray(rho, dtype=float)
    if np.min(rho) < -1e-14:
        raise ValueError(f"rho has negative entries down to {np.min(rho):.3e}")
    amp = np.sqrt(np.clip(rho, 0.0, None))
    return WaveField(grid, amp * np.exp(1j * np.asarray(S) / hbar))


def _unwrap_bidirectional(arr: np.ndarray, start: int, axis: int = 0) -> np.ndarray:
    """Unwrap outward from index ``start`` along ``axis`` in both directions.

    A single forward chain would travel through the far (typically
    zero-amplitude) side of the box and re-enter with an arbitrary 2pi offset;
    two outward chains keep any phase noise confined to the far tails.
    """
    a = np.moveaxis(arr, axis, 0)
    out = np.empty_like(a)
    out[start:] = np.unwrap(a[start:], axis=0)
    out[: start + 1] = np.unwrap(a[: start + 1][::-1], axis=0)[::-1]
    return np.moveaxis(out, 0, axis)


def _unwrap_from_anchor(phase: np.ndarray, anchor: tuple[int, ...]) -> np.ndarray:
    """Cumulative 2pi-jump correction along each axis, anchored at the anchor site."""
    if phase.ndim == 1:
        return _unwrap_bidirectional(phase, anchor[0])
    # Unwrap the anchor row along axis 1, then every column along axis 0,
    # re-anchoring each column to the corrected anchor row.
    row_ref = _unwrap_bidirectional(phase[anchor[0]], anchor[1])
    cols = _unwrap_bidirectional(phase, anchor[0], axis=0)
    return cols + (row_ref - phase[anchor[0]])[None, :]


def polar_decompose(
    psi: WaveField,
    eps_mask: float = DEFAULT_EPS_MASK,
    constants: PhysicalConstants | None = None,
) -> HydroFields:
    """Extract (rho, S, j, mask) from a wavefield.

    j uses the spectral gradient of psi, so it stays smooth through regions
    where the unwrapped phase is meaningless.  The unwrap is anchored at the
    density maximum; on multiply-connected phase (vortices) S is intentionally
    not globally consistent and circulation must use arg increments directly.
    """
    c = constants or PhysicalConstants()
    grid = psi.grid
    rho = psi.density()
    rho_max = float(rho.max())
    mask = rho > eps_mask * rho_max

    grad_psi = spectral_gradient(psi.values, grid)
    j = (c.hbar / c.m) * (np.conj(psi.values)[None] * grad_psi).imag

    anchor = np.unravel_index(int(np.argmax(rho)), rho.shape)
    S = c.hbar * _unwrap_from_anchor(np.angle(psi.values), anchor)
    return HydroFields(grid=grid, rho=rho, S=S, j=j, mask=mask)


def quantum_potential(
    rho: np.ndarray,
    coeff: float,
    grid: Grid,
    mask: np.ndarray,
    scheme: str = "spectral",
) -> np.ndarray:
    """Masked Bohm potential -coeff * Delta sqrt(rho) / sqrt(rho); 0 off-mask.

    The spectral scheme differentiates sqrt(rho) directly (half the dynamic
    range of rho, so round-off at the mask edge stays small); it assumes a
    node-free density.  The fd4 diagnostics scheme uses the square-root-free
    form Delta rho/(2 rho) - |grad rho|^2/(4 rho^2), pointwise identical on
    {rho > 0} and clean through nodes where sqrt(rho) has a kink.
    """
    rho = np.asarray(rho, dtype=float)
    safe = mask & (rho > _RHO_GUARD)
    out = np.zeros_like(rho)
    if scheme == "spectral":
        root = np.sqrt(np.clip(rho, 0.0, None))
        lap_root = spectral_laplacian(root, grid)
        np.divide(lap_root, root, out=out, where=safe)
        out *= -coeff
    elif scheme == "fd4":
        lap = fd_laplacian4(rho, grid)
        grad = fd_gradient4(rho, grid)
        grad_sq = np.sum(grad**2, axis=0)
        np.divide(lap, 2.0 * rho, out=out, where=safe)
        tmp = np.zeros_like(rho)
        np.divide(grad_sq, 4.0 * rho**2, out=tmp, where=safe)
        out -= tmp
        out *= -coeff
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    out[~mask] = 0.0
    return out


def laplacian_quotient(rho: np.ndarray, grid: Grid, mask: np.ndarray, scheme: str = "spectral") -> np.ndarray:
    """Delta sqrt(rho)/sqrt(rho) in the square-root-free form, masked."""
    return quantum_potential(rho, -1.0, grid, mask, scheme=scheme)


def phase_time_derivative(psi: WaveField, V: np.ndarray, constants: PhysicalConstants) -> np.ndarray:
    """S_t = -Re(H psi / psi) with the spectral Schrodinger operator.

    Returned on the full grid; only masked sites are meaningful.  The sign
    convention makes a stationary state of energy E report S_t = -E.
    """
    grid = psi.grid
    hpsi = -(constants.hbar**2 / (2.0 * constants.m)) * spectral_laplacian(psi.values, grid) + V * psi.values
    rho = psi.density()
    out = np.zeros(grid.shape)
    np.divide(-(hpsi * np.conj(psi.values)).real, rho, out=out, where=rho > _RHO_GUARD)
    return out
