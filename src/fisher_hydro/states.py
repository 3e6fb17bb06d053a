"""Analytic reference states: Gaussian packets, Hermite eigenstates, bumps, vortices.

Eigenstates come from imaginary-free closed forms (Hermite recurrence) so the
eigenstate diagnostics carry no solver dependency.
"""

from __future__ import annotations

import numpy as np

from .fields import PhysicalConstants, WaveField
from .grid import Grid

__all__ = [
    "gaussian_packet",
    "boost",
    "harmonic_potential",
    "oscillator_state",
    "oscillator_energy",
    "bump_density",
    "vortex_state",
]


def _centered(x: np.ndarray, center: float, length: float) -> np.ndarray:
    """Signed periodic distance from center, in (-L/2, L/2]."""
    return (x - center + 0.5 * length) % length - 0.5 * length


def _positive(name: str, value: float) -> None:
    """Refuse a width or frequency that is not positive, with its name and value."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value:g}")


def gaussian_packet(
    grid: Grid,
    x0: float,
    sigma0: float,
    k0: float = 0.0,
    constants: PhysicalConstants | None = None,
) -> WaveField:
    """1D packet (pi sigma0^2)^(-1/4) exp[-(x-x0)^2/(2 sigma0^2) + i k0 (x-x0)].

    Renormalised on the grid so the discrete norm is exactly one.  constants
    is never read: it is kept for the callers that pass it positionally.
    """
    if grid.dim != 1:
        raise ValueError("gaussian_packet is 1D")
    _positive("sigma0", sigma0)
    x = _centered(grid.axes[0], x0, grid.length)
    psi = (np.pi * sigma0**2) ** -0.25 * np.exp(-(x**2) / (2.0 * sigma0**2) + 1j * k0 * x)
    return WaveField(grid, psi, 0.0).normalized()


def boost(psi: WaveField, v0: float, constants: PhysicalConstants) -> WaveField:
    """Galilean boost at t=0: psi -> exp(i m v0 x / hbar) psi."""
    x = psi.grid.axes[0]
    return WaveField(psi.grid, psi.values * np.exp(1j * constants.m * v0 * x / constants.hbar), psi.time)


def harmonic_potential(grid: Grid, omega: float, constants: PhysicalConstants) -> np.ndarray:
    """V = (1/2) m omega^2 |x - c|^2 about the box center c, with periodic
    re-centering, from each axis's coordinate in 2D (as vortex_state)."""
    c = 0.5 * grid.length
    if grid.dim == 1:
        r2 = _centered(grid.axes[0], c, grid.length) ** 2
    else:
        xc = _centered(grid.axes[0], c, grid.length)[:, None]
        yc = _centered(grid.axes[1], c, grid.length)[None, :]
        r2 = xc**2 + yc**2
    return 0.5 * constants.m * omega**2 * r2


def oscillator_state(grid: Grid, level: int, omega: float, constants: PhysicalConstants) -> WaveField:
    """Harmonic-oscillator eigenstate psi_n about the box center via the
    normalised Hermite recurrence."""
    if grid.dim != 1:
        raise ValueError("oscillator_state is 1D")
    _positive("omega", omega)
    xi = _centered(grid.axes[0], 0.5 * grid.length, grid.length) * np.sqrt(constants.m * omega / constants.hbar)
    h_prev = np.pi**-0.25 * np.exp(-(xi**2) / 2.0)
    if level == 0:
        values = h_prev
    else:
        h_cur = np.sqrt(2.0) * xi * h_prev
        for n in range(1, level):
            h_next = np.sqrt(2.0 / (n + 1)) * xi * h_cur - np.sqrt(n / (n + 1)) * h_prev
            h_prev, h_cur = h_cur, h_next
        values = h_cur
    wf = WaveField(grid, values.astype(complex), 0.0)
    return wf.normalized()


def oscillator_energy(level: int, omega: float, constants: PhysicalConstants) -> float:
    return constants.hbar * omega * (level + 0.5)


def bump_density(grid: Grid, center: float, width: float) -> np.ndarray:
    """Compactly supported C-infinity bump density, normalised to unit mass."""
    if grid.dim != 1:
        raise ValueError("bump_density is 1D")
    _positive("width", width)
    u = _centered(grid.axes[0], center, grid.length) / width
    rho = np.zeros(grid.shape)
    inside = np.abs(u) < 1.0
    rho[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    rho /= np.sum(rho) * grid.cell_volume
    return rho


def vortex_state(grid: Grid, winding: int, sigma: float, center: tuple[float, float] | None = None) -> WaveField:
    """2D vortex psi ~ (x + i y)^n exp(-r^2 / (2 sigma^2)) with integer winding n.

    x and y are each axis's coordinate, broadcast, so no n^2 coordinate mesh
    is built; the values have the bits of the formula on grid.coords()."""
    if grid.dim != 2:
        raise ValueError("vortex_state is 2D")
    _positive("sigma", sigma)
    c = (0.5 * grid.length, 0.5 * grid.length) if center is None else center
    x = _centered(grid.axes[0], c[0], grid.length)[:, None]
    y = _centered(grid.axes[1], c[1], grid.length)[None, :]
    r2 = x**2 + y**2
    zpow = (x + 1j * y) ** abs(winding) if winding != 0 else np.ones(grid.shape, dtype=complex)
    if winding < 0:
        zpow = np.conj(zpow)
    wf = WaveField(grid, zpow * np.exp(-r2 / (2.0 * sigma**2)), 0.0)
    return wf.normalized()
