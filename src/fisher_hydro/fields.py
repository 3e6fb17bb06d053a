"""Wavefunction storage, Madelung polar decomposition, and derived hydrodynamic fields.

polar_decompose gives rho, j and grad S = m j / rho; unwrapped_phase gives S.
All hydrodynamic quotients are evaluated on a node mask {rho > eps * max(rho)}
(node_mask); off-mask entries are zeroed and excluded from every norm downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, spectral_gradient, spectral_laplacian

__all__ = [
    "PhysicalConstants",
    "WaveField",
    "HydroFields",
    "polar_compose",
    "polar_decompose",
    "unwrapped_phase",
    "quantum_potential",
    "laplacian_quotient",
    "root_laplacian_quotient",
    "phase_time_derivative",
    "masked_mean",
    "node_mask",
    "DEFAULT_EPS_MASK",
    "ROUNDOFF_FLOOR",
]

DEFAULT_EPS_MASK = 1e-6

# rho below this fraction of max(rho) is round-off for a propagated field: psi's tail noise
# ~1e-16 makes a quotient by rho (j/rho, |grad rho|^2/rho) order-one garbage; node_mask's least eps.
ROUNDOFF_FLOOR = 1e-13

# Absolute division guard, not relative to max(rho): it keeps Delta sqrt(rho)/sqrt(rho)
# and H psi/psi finite (0 where rho <= 1e-300); the node mask makes the physical cut.
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
    """Madelung fields rho, j and grad S with node mask.

    grad S is m j / rho, shape (dim, *shape), 0 where rho <= ROUNDOFF_FLOOR *
    max(rho); the phase S itself is not held (see unwrapped_phase).
    """

    grid: Grid
    rho: np.ndarray
    j: np.ndarray
    grad_s: np.ndarray
    mask: np.ndarray


def node_mask(rho: np.ndarray, eps: float) -> np.ndarray:
    """The sites rho > eps * max(rho) a quotient by rho may read; ValueError for eps outside [ROUNDOFF_FLOOR, 1)."""
    if not ROUNDOFF_FLOOR <= eps < 1.0:
        raise ValueError(f"mask_eps must satisfy {ROUNDOFF_FLOOR:g} <= mask_eps < 1, got {eps:g}")
    mask = rho > eps * rho.max()
    if not mask.any():
        raise ValueError(f"node mask holds no site: max(rho) is {rho.max():g}")
    return mask


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


def unwrapped_phase(psi: WaveField, hbar: float) -> np.ndarray:
    """S = hbar arg(psi) of a 1D wavefield, unwrapped outward both ways from
    the density maximum, so defined up to a global constant.

    A single forward chain would travel through the far (typically
    zero-amplitude) side of the box and re-enter with an arbitrary 2pi offset;
    two outward chains keep any phase noise confined to the far tails.
    """
    if psi.grid.dim != 1:
        raise ValueError("unwrapped_phase takes a 1D wavefield; use arg increments in 2D")
    phase = np.angle(psi.values)
    start = int(np.argmax(psi.density()))
    out = np.empty_like(phase)
    out[start:] = np.unwrap(phase[start:])
    out[: start + 1] = np.unwrap(phase[: start + 1][::-1])[::-1]
    return hbar * out


def polar_decompose(psi: WaveField, eps_mask: float, constants: PhysicalConstants) -> HydroFields:
    """Extract (rho, j, grad S, mask) from a wavefield.

    j uses the spectral gradient of psi, and grad S is m j / rho, so neither
    differentiates the phase, whose branch seam and vortices would ring.
    """
    grid = psi.grid
    rho = psi.density()
    mask = node_mask(rho, eps_mask)

    grad_psi = spectral_gradient(psi.values, grid)
    j = (constants.hbar / constants.m) * (np.conj(psi.values)[None] * grad_psi).imag
    grad_s = np.zeros_like(j)
    np.divide(constants.m * j, rho[None], out=grad_s, where=node_mask(rho, ROUNDOFF_FLOOR)[None])
    return HydroFields(grid=grid, rho=rho, j=j, grad_s=grad_s, mask=mask)


def quantum_potential(rho: np.ndarray, coeff: float, grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Masked Bohm potential -coeff * Delta sqrt(rho) / sqrt(rho); 0 off-mask.

    Differentiates sqrt(rho) spectrally (half the dynamic range of rho, so
    round-off at the mask edge stays small); it assumes a node-free density.
    """
    out = laplacian_quotient(rho, grid, mask)
    out *= -coeff
    out[~mask] = 0.0
    return out


def root_laplacian_quotient(root: np.ndarray, grid: Grid, where: np.ndarray) -> np.ndarray:
    """Spectral Delta u / u where `where` holds, 0 elsewhere, for a root u of
    rho = u^2: sqrt(rho), or a signed eigenfunction, which stays smooth through
    nodes where sqrt(rho) has a kink."""
    out = np.zeros(grid.shape)
    np.divide(spectral_laplacian(root, grid), root, out=out, where=where)
    return out


def laplacian_quotient(rho: np.ndarray, grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Spectral Delta sqrt(rho)/sqrt(rho) on the mask, 0 elsewhere."""
    rho = np.asarray(rho, dtype=float)
    return root_laplacian_quotient(np.sqrt(np.clip(rho, 0.0, None)), grid, mask & (rho > _RHO_GUARD))


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
