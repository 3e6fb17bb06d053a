"""Periodic uniform grids with spectral operators.

Every Fourier transform of the package runs through the helpers here, on
fields or on stacks of fields shaped (*batch, *grid.shape): _over_grid for a
complex field's full spectrum, _half_spectrum and _real_inverse for a real
field's half spectrum, each in the axis order of np.fft.fftn, rfftn or
irfftn, so with their bits.  The grid holds the multipliers on both spectra.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "make_grid",
    "spectral_gradient",
    "spectral_laplacian",
    "spectral_divergence",
    "integrate",
    "norm_l2",
]


@dataclass(frozen=True)
class Grid:
    """Periodic uniform lattice in 1 or 2 dimensions.

    Wavenumbers follow the discrete Fourier ordering of ``np.fft.fftfreq`` and
    are antisymmetric about zero up to the Nyquist entry.  ``spacing * n``
    reproduces ``length`` exactly as stored.
    """

    dim: int
    n: int
    length: float
    spacing: float = field(init=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "spacing", self.length / self.n)
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        object.__setattr__(self, "wavenumbers", k1)
        x1 = self.spacing * np.arange(self.n)
        object.__setattr__(self, "_x1", x1)
        if self.dim == 1:
            kmesh = [k1]
            object.__setattr__(self, "_k2", k1**2)
        else:
            kmesh = [k1[:, None], k1[None, :]]
            object.__setattr__(self, "_k2", k1[:, None] ** 2 + k1[None, :] ** 2)
        object.__setattr__(self, "_kmesh", kmesh)

    # The multipliers of spectral_laplacian, spectral_gradient and
    # spectral_divergence, with the bits of the -k^2 and 1j * k that each call
    # used to build, and those of the propagators' kicks, each built on its
    # first use: a grid holds only the ones its callers read.
    @functools.cached_property
    def _neg_k2(self) -> np.ndarray:
        return -self._k2

    @functools.cached_property
    def _ikmesh(self) -> list[np.ndarray]:
        return [1j * k for k in self._kmesh]

    # -k^2 and i k on the half spectrum of a real field (np.fft.rfft over the
    # last axis keeps its first n//2 + 1 entries).  i k has every Nyquist
    # entry zeroed: that mode's first derivative is imaginary, and the real
    # part of the full-spectrum transform drops it.
    @functools.cached_property
    def _neg_k2_half(self) -> np.ndarray:
        return -self._k2[..., : self.n // 2 + 1]

    @functools.cached_property
    def _ik_half(self) -> list[np.ndarray]:
        ik = 1j * np.where(np.arange(self.n) == self.n // 2, 0.0, self.wavenumbers)
        half = ik[: self.n // 2 + 1]
        return [half] if self.dim == 1 else [ik[:, None], half[None, :]]

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis physical coordinates in [0, length)."""
        return (self._x1,) * self.dim

    def coords(self) -> np.ndarray:
        """Coordinate meshes stacked along a leading axis, shape (dim, *shape)."""
        if self.dim == 1:
            return self._x1[None, :]
        x, y = np.meshgrid(self._x1, self._x1, indexing="ij")
        return np.stack([x, y])

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim


def make_grid(dim: int, n: int, length: float) -> Grid:
    """Build a periodic grid; n must be a power of two >= 16 (FFT sizing)."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= 16, got {n}")
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    return Grid(dim=dim, n=n, length=float(length))


def _check_shape(f: np.ndarray, grid: Grid) -> None:
    if f.shape != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid shape {grid.shape}")


def _grid_axes(grid: Grid) -> tuple[int, ...]:
    """The trailing axes of a (*batch, *grid.shape) stack of fields."""
    return tuple(range(-grid.dim, 0))


def _over_grid(transform, values: np.ndarray, grid: Grid) -> np.ndarray:
    """np.fft.fft or ifft of a complex stack over its grid axes, in place, in
    the order of np.fft.fftn (same bits) without its per-call argument
    handling, which costs several percent of a 1D step.  The caller passes
    np.fft.fft or ifft as it finds it, so a wrapper installed on np.fft sees
    every transform."""
    for axis in reversed(_grid_axes(grid)):
        transform(values, axis=axis, out=values)
    return values


def _half_spectrum(rho: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """The half spectrum of a real field, in out if given, transformed in the
    order of np.fft.rfftn: rfft over the last grid axis, then fft over the
    first in 2D."""
    out = np.fft.rfft(rho, axis=-1, out=out)
    for axis in _grid_axes(grid)[-2::-1]:
        np.fft.fft(out, axis=axis, out=out)
    return out


def _real_inverse(spectrum: np.ndarray, grid: Grid, out: np.ndarray) -> np.ndarray:
    """The real field of a half spectrum in out, in the order of
    np.fft.irfftn: ifft over the first grid axis in 2D, in place, then irfft
    over the last.  irfft drops the imaginary part of the last axis's zero
    and Nyquist entries, as the real part of a full inverse does."""
    for axis in _grid_axes(grid)[:-1]:
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
    return np.fft.irfft(spectrum, n=grid.n, axis=-1, out=out)


def spectral_gradient(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Exact derivative of the trigonometric interpolant, stacked per axis.

    Returns an array of shape (dim, *grid.shape).  Real input yields real
    output; complex input stays complex.
    """
    _check_shape(f, grid)
    fh = _over_grid(np.fft.fft, np.array(f, dtype=complex), grid)
    out = np.empty((grid.dim,) + grid.shape, dtype=complex)
    for axis, ik in enumerate(grid._ikmesh):
        _over_grid(np.fft.ifft, np.multiply(ik, fh, out=out[axis]), grid)
    if not np.iscomplexobj(f):
        return out.real.copy()
    return out


def spectral_laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral Laplacian (multiplier -|k|^2)."""
    _check_shape(f, grid)
    fh = _over_grid(np.fft.fft, np.array(f, dtype=complex), grid)
    out = _over_grid(np.fft.ifft, np.multiply(grid._neg_k2, fh, out=fh), grid)
    if not np.iscomplexobj(f):
        return out.real.copy()
    return out


def spectral_divergence(vec: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral divergence of a real vector field stacked per axis, shape
    (dim, *grid.shape): the sum over axes of spectral_gradient(vec[axis],
    grid)[axis], with its bits, without the other components' gradients."""
    if vec.shape != (grid.dim,) + grid.shape:
        raise ValueError(f"vector field shape {vec.shape} does not match grid")
    out = np.zeros(grid.shape)
    for axis, ik in enumerate(grid._ikmesh):
        fh = _over_grid(np.fft.fft, np.array(vec[axis], dtype=complex), grid)
        out += _over_grid(np.fft.ifft, np.multiply(ik, fh, out=fh), grid).real
    return out


def integrate(f: np.ndarray, grid: Grid) -> float | complex:
    """Trapezoid quadrature; on a periodic uniform grid this is the lattice sum."""
    _check_shape(np.asarray(f), grid)
    return np.sum(f) * grid.cell_volume


def norm_l2(f: np.ndarray, grid: Grid) -> float:
    """L2 norm with the grid measure."""
    return float(np.sqrt(np.sum(np.abs(f) ** 2).real * grid.cell_volume))
