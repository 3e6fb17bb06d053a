"""Time evolution: unitary split-step, Doebner-Goldin diffusion, non-Fisher
nonlinear perturbation, and density-level diffusion.

Every wavefunction stepper, evolve and the batched superposition evolution
run one Strang kernel, _strang, on states stacked as (*batch, *grid.shape).
The DG and beta variants add a state-dependent half-step kick that is absent
at D = 0 and beta = 0, so there they are the linear step bit for bit.  The
kernel steps a copy of its input in place: transforms and products write
into the state, and the kicks into work arrays built once per call, so a
step allocates no array of the stack's size: with glibc's allocator, fresh
temporaries of that size cost a page fault per page on every step.  The
kicks transform the real density rho = |psi|^2 on its half spectrum
(np.fft.rfft over the last grid axis).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import PhysicalConstants, WaveField
from .grid import Grid, spectral_laplacian

__all__ = [
    "EvolutionSpec",
    "Trajectory",
    "DensityTrajectory",
    "NumericalAbort",
    "step_linear",
    "step_dg",
    "step_beta",
    "evolve",
    "symmetric_pair",
    "evolve_density_diffusion",
]

_WAVE_KINDS = ("linear", "dg_diffusion", "beta_nonlinear")
_KINDS = _WAVE_KINDS + ("density_diffusion",)

# DG regularisation scale relative to max rho (see _dg_exponent)
_DG_EPS_MASK = 1e-8


class NumericalAbort(RuntimeError):
    """Raised when an evolution produces non-finite values (unstable parameters)."""


class _NonFinite(NumericalAbort):
    """A kick met a non-finite state after `steps` steps of its advance call."""

    def __init__(self, steps: int) -> None:
        super().__init__(f"non-finite state after {steps} steps")
        self.steps = steps


@dataclass(frozen=True)
class EvolutionSpec:
    kind: str = "linear"
    dt: float = 0.01
    t_final: float = 1.0
    record_stride: int = 1
    D: float = 0.0
    beta: float = 0.0
    eps_reg: float = 1e-6

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final < 0:
            raise ValueError("t_final must be non-negative")
        if self.D < 0 or self.beta < 0 or self.eps_reg <= 0:
            raise ValueError("require D >= 0, beta >= 0, eps_reg > 0")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class Trajectory:
    snapshots: list[tuple[float, WaveField]]
    spec: EvolutionSpec

    def times(self) -> list[float]:
        return [t for t, _ in self.snapshots]


@dataclass
class DensityTrajectory:
    snapshots: list[tuple[float, np.ndarray]]
    spec: EvolutionSpec
    grid: Grid


def _kinetic_factor(grid: Grid, dt: float, c: PhysicalConstants) -> np.ndarray:
    return np.exp(-1j * c.hbar * grid._k2 * dt / (2.0 * c.m))


def _grid_axes(grid: Grid) -> tuple[int, ...]:
    """The trailing axes of a (*batch, *grid.shape) stack of states."""
    return tuple(range(-grid.dim, 0))


def _over_grid(transform, values: np.ndarray, grid: Grid) -> np.ndarray:
    """np.fft.fft or ifft of a complex stack over its grid axes, in place, in
    the order of np.fft.fftn (same bits) without its per-call argument
    handling, which costs several percent of a 1D step."""
    for axis in reversed(_grid_axes(grid)):
        transform(values, axis=axis, out=values)
    return values


class _Work:
    """Arrays which the kicks of one advance call reuse across its steps:
    real rho and scratch shaped like the stack of states, and its complex
    half spectrum.  The beta kick adds a half-spectrum gradient, a real
    second gradient component in 2D and its complex factor.  peak holds the
    per-state max rho that the last kick read.  Each call builds its own, so
    threads never share one."""

    def __init__(self, shape: tuple[int, ...], grid: Grid, beta: bool) -> None:
        half = shape[:-1] + (grid.n // 2 + 1,)
        self.rho, self.real = np.empty(shape), np.empty(shape)
        self.spectrum = np.empty(half, complex)
        self.gradient = np.empty(half, complex) if beta else None
        self.component = np.empty(shape) if beta and grid.dim > 1 else None
        self.factor = np.empty(shape, complex) if beta else None
        self.peak = None


def _density_spectrum(values: np.ndarray, grid: Grid, work: _Work) -> tuple[np.ndarray, np.ndarray]:
    """rho = |values|^2 in work.rho and its half spectrum in work.spectrum,
    transformed in the order of np.fft.rfftn: rfft over the last grid axis,
    then fft over the first in 2D."""
    rho = np.add(np.square(values.real, out=work.rho), np.square(values.imag, out=work.real), out=work.rho)
    np.fft.rfft(rho, axis=-1, out=work.spectrum)
    for axis in _grid_axes(grid)[-2::-1]:
        np.fft.fft(work.spectrum, axis=axis, out=work.spectrum)
    return rho, work.spectrum


def _real_inverse(spectrum: np.ndarray, grid: Grid, out: np.ndarray) -> np.ndarray:
    """The real field of a half spectrum in out, in the order of
    np.fft.irfftn: ifft over the first grid axis in 2D, in place, then irfft
    over the last.  irfft drops the imaginary part of the last axis's zero
    and Nyquist entries, as the real part of a full inverse does."""
    for axis in _grid_axes(grid)[:-1]:
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
    return np.fft.irfft(spectrum, n=grid.n, axis=-1, out=out)


def _strang(V: np.ndarray, grid: Grid, dt: float, constants: PhysicalConstants, kind: str = "linear",
            D: float = 0.0, beta: float = 0.0, eps_reg: float = 1e-6):
    """The Strang step of every wavefunction kind, as advance(values, n_steps).

    values stacks states as (*batch, *grid.shape).  One step is kick,
    exp(-iV dt/2h), F^-1 exp(-i h k^2 dt/2m) F over the grid axes,
    exp(-iV dt/2h), kick; the potential and kinetic factors are built once.
    The kick is the half-step factor of the state-dependent term, evaluated
    per state: exp((D/4) dt Lap rho/rho) for DG, exp(-i U_beta dt/2h) for
    beta, returned in a work array.  The linear kind, D = 0 and beta = 0
    have no kick, so they are the linear step bit for bit.

    advance copies values once and then steps the copy in place, with the
    kicks in work arrays built once per call: it never writes into its
    argument, so a caller may pass back an array it keeps.  With a kick, it
    raises NumericalAbort at the first state it steps whose |psi|^2 is not
    finite.
    """
    if kind not in _WAVE_KINDS:
        raise ValueError(f"kind {kind!r} is not a wavefunction evolution")
    kick = None
    if kind == "dg_diffusion" and D != 0.0:
        neg_k2 = -grid._k2[..., : grid.n // 2 + 1]

        def kick(values, work):
            factor = np.multiply((D / 4.0) * dt, _dg_exponent(values, grid, neg_k2, work), out=work.rho)
            return np.exp(factor, out=factor)
    elif kind == "beta_nonlinear" and beta != 0.0:
        def kick(values, work):
            return _phase_factor(beta_potential(values, grid, beta, eps_reg, work), dt, constants.hbar,
                                 work.factor)
    half_v = np.exp(-1j * V * dt / (2.0 * constants.hbar))
    kin = _kinetic_factor(grid, dt, constants)

    def advance(values: np.ndarray, n_steps: int) -> np.ndarray:
        values = np.array(values, dtype=complex)
        work = None if kick is None else _Work(values.shape, grid, beta=kind == "beta_nonlinear")
        # Every product is np.multiply with a fixed operand order: numpy may
        # evaluate `*` on a large temporary in place with swapped operands,
        # and a complex product is not bitwise commutative (FMA), so `*`
        # would make a state's step depend on its batch.
        for done in range(n_steps):
            if kick is not None:
                factor = kick(values, work)
                # The linear part is unitary, so only a kick blows a state
                # up; the per-state max rho that the next kick reads then
                # sums to a non-finite value.  That also catches a state whose
                # entries are finite but whose |psi|^2 overflows.
                if not math.isfinite(work.peak.sum()):
                    raise _NonFinite(done)
                np.multiply(values, factor, out=values)
            np.multiply(half_v, values, out=values)
            np.multiply(kin, _over_grid(np.fft.fft, values, grid), out=values)
            _over_grid(np.fft.ifft, values, grid)
            np.multiply(half_v, values, out=values)
            if kick is not None:
                np.multiply(values, kick(values, work), out=values)
        return values

    return advance


def _step(psi: WaveField, V: np.ndarray, dt: float, constants: PhysicalConstants, kind: str = "linear",
          **coupling) -> WaveField:
    values = _strang(V, psi.grid, dt, constants, kind, **coupling)(psi.values, 1)
    return WaveField(psi.grid, values, psi.time + dt)


def step_linear(psi: WaveField, V: np.ndarray, dt: float, constants: PhysicalConstants) -> WaveField:
    """One Strang step exp(-iV dt/2h) F^-1 exp(-i h k^2 dt/2m) F exp(-iV dt/2h)."""
    return _step(psi, V, dt, constants)


def _dg_exponent(values: np.ndarray, grid: Grid, neg_k2: np.ndarray, work: _Work) -> np.ndarray:
    """Smoothly regularised Delta rho / rho for the DG amplitude factor, in
    work.rho; neg_k2 is -grid._k2 on the half spectrum.

    A hard mask cutoff would imprint a kink at the mask edge every step and
    ring under the spectral diagnostics; Delta rho / (rho + eps max rho),
    eps = _DG_EPS_MASK, matches Delta rho / rho in the bulk and rolls off
    smoothly in the tails.  values may stack states along leading axes; max
    rho is taken per state.
    """
    rho, rho_hat = _density_spectrum(values, grid, work)
    lap = _real_inverse(np.multiply(neg_k2, rho_hat, out=rho_hat), grid, work.real)
    work.peak = rho.max(axis=_grid_axes(grid), keepdims=True)
    np.add(rho, _DG_EPS_MASK * work.peak, out=rho)
    return np.divide(lap, rho, out=rho)


def step_dg(psi: WaveField, V: np.ndarray, dt: float, D: float, constants: PhysicalConstants) -> WaveField:
    """Strang composition of the linear step with the DG factor exp((D/2)(Lap rho/rho) dt).

    The DG term is the imaginary i(hbar D/2)(Lap rho/rho) psi addition to the
    Schrodinger equation; it acts multiplicatively on the amplitude and drives
    the density by D Lap rho.  Exactly step_linear at D = 0.  The
    regularisation scale _DG_EPS_MASK sits below the diagnostic mask so its
    bias stays under the PDE-residual tolerance.
    """
    return _step(psi, V, dt, constants, "dg_diffusion", D=D)


def beta_potential(values: np.ndarray, grid: Grid, beta: float, eps_reg: float,
                   work: _Work | None = None) -> np.ndarray:
    """Non-Fisher perturbation U_beta = beta |grad rho|^2 / (rho + eps)^2.

    eps is eps_reg relative to the instantaneous max of rho.  values may
    stack states along leading axes; each state gets its own eps.  The Strang
    kernel passes its work arrays: the result is then work.real.  By default
    the work arrays are fresh.
    """
    if work is None:
        work = _Work(values.shape, grid, beta=True)
    rho, rho_hat = _density_spectrum(values, grid, work)
    grad_sq = work.real
    for axis, ik in enumerate(grid._ik):
        component = _real_inverse(np.multiply(ik, rho_hat, out=work.gradient), grid,
                                  work.component if axis else grad_sq)
        if axis:
            np.add(grad_sq, np.square(component, out=component), out=grad_sq)
        else:
            np.square(component, out=grad_sq)
    work.peak = rho.max(axis=_grid_axes(grid), keepdims=True)
    np.add(rho, eps_reg * work.peak, out=rho)
    np.square(rho, out=rho)
    return np.divide(np.multiply(beta, grad_sq, out=grad_sq), rho, out=grad_sq)


def _phase_factor(potential: np.ndarray, dt: float, hbar: float, factor: np.ndarray) -> np.ndarray:
    """The half-step factor exp(-i potential dt / 2 hbar) of a real potential,
    written into the complex array factor as cos and sin of its real phase,
    which overwrites potential.  It has the bits of np.exp of the complex
    phase (-i potential) dt / 2 hbar, without that phase's complex products,
    but for the sign of the zero sine at a zero potential: numpy divides a
    complex array by a real scalar as a product with its reciprocal."""
    theta = np.multiply(np.multiply(potential, -dt, out=potential), 1.0 / (2.0 * hbar), out=potential)
    np.cos(theta, out=factor.real)
    np.sin(theta, out=factor.imag)
    return factor


def step_beta(
    psi: WaveField,
    V: np.ndarray,
    dt: float,
    beta: float,
    eps_reg: float,
    constants: PhysicalConstants,
) -> WaveField:
    """Strang composition with the extra real phase factor exp(-i U_beta dt / hbar).

    U_beta is real and state-dependent, so the step stays norm-preserving but
    nonlinear.  Exactly step_linear at beta = 0.
    """
    return _step(psi, V, dt, constants, "beta_nonlinear", beta=beta, eps_reg=eps_reg)


def evolve(psi0: WaveField, V: np.ndarray, spec: EvolutionSpec, constants: PhysicalConstants) -> Trajectory:
    """Repeated stepping with snapshot recording every record_stride steps.

    Every kind runs the Strang kernel of step_linear, step_dg and step_beta,
    with its factors built once, one record_stride chunk at a time.  The
    snapshot k steps in is stamped k * dt.  Aborts with NumericalAbort at the
    first state whose |psi|^2 is not finite, which the kicks of DG and beta
    see at once and the norm at the end of each chunk sees for the rest; for
    DG the message gives dt*D/h^2, since the explicit DG kick blows up once
    that number is large.
    """
    psi0.check_finite()
    grid = psi0.grid
    advance = _strang(V, grid, spec.dt, constants, spec.kind, spec.D, spec.beta, spec.eps_reg)
    values = psi0.values.copy()
    snapshots: list[tuple[float, WaveField]] = [(0.0, WaveField(grid, values, 0.0))]
    step = 0
    while step < spec.n_steps:
        chunk = min(spec.record_stride, spec.n_steps - step)
        try:
            values = advance(values, chunk)
            step += chunk
            finite = math.isfinite(np.vdot(values, values).real)
        except _NonFinite as exc:
            step += exc.steps
            finite = False
        t = step * spec.dt
        if not finite:
            cause = f" (dt*D/h^2 = {spec.dt * spec.D / grid.spacing**2:.3g})" if spec.kind == "dg_diffusion" else ""
            raise NumericalAbort(f"non-finite state at t={t:g}{cause}")
        snapshots.append((t, WaveField(grid, values, t)))
    return Trajectory(snapshots, spec)


def symmetric_pair(
    psi: WaveField,
    V: np.ndarray,
    dt: float,
    constants: PhysicalConstants,
    kind: str = "linear",
    D: float = 0.0,
) -> tuple[WaveField, WaveField]:
    """Single backward/forward steps (t-dt, t+dt) for centered time stencils.

    Produced fresh at diagnostic time rather than from stored history, so the
    stencil spacing is independent of the snapshot stride.
    """
    if kind not in ("linear", "dg_diffusion"):
        raise ValueError(f"no symmetric pair for kind {kind!r}")
    return _step(psi, V, -dt, constants, kind, D=D), _step(psi, V, dt, constants, kind, D=D)


def evolve_density_diffusion(rho0: np.ndarray, spec: EvolutionSpec, grid: Grid) -> DensityTrajectory:
    """Explicit RK4 for rho_t = D Lap rho with spectral derivatives, D = spec.D.

    Warns when dt * D / h^2 exceeds 0.25.  Aborts with NumericalAbort at the
    first step whose density sums to a non-finite value, naming dt*D/h^2.
    """
    D = spec.D
    diffusion_number = spec.dt * D / grid.spacing**2
    if diffusion_number > 0.25:
        warnings.warn(f"dt*D/h^2 = {diffusion_number:.3f} > 0.25: explicit step may be unstable", RuntimeWarning)
    rho = np.array(rho0, dtype=float)
    snapshots = [(0.0, rho.copy())]
    dt = spec.dt
    for step in range(1, spec.n_steps + 1):
        k1 = D * spectral_laplacian(rho, grid)
        k2 = D * spectral_laplacian(rho + 0.5 * dt * k1, grid)
        k3 = D * spectral_laplacian(rho + 0.5 * dt * k2, grid)
        k4 = D * spectral_laplacian(rho + dt * k3, grid)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # a NaN or infinite entry makes the sum non-finite, with no array of the grid's size
        if not math.isfinite(rho.sum()):
            raise NumericalAbort(f"non-finite density at t={step * dt:g} (dt*D/h^2 = {diffusion_number:.3g})")
        if step % spec.record_stride == 0 or step == spec.n_steps:
            snapshots.append((step * dt, rho.copy()))
    return DensityTrajectory(snapshots, spec, grid)
