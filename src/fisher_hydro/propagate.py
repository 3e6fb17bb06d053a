"""Time evolution: unitary split-step, Doebner-Goldin diffusion, non-Fisher
nonlinear perturbation, and density-level diffusion.

Every wavefunction stepper, evolve and the batched superposition evolution
run one Strang kernel, _strang, on states stacked as (*batch, *grid.shape).
The kernel takes its flow, the kind and its couplings, from one
EvolutionSpec, so a new kick is one spec field and one branch of _strang.
The DG and beta variants add a state-dependent half-step kick that is absent
at D = 0 and beta = 0, so there they are the linear step bit for bit.  A
kick-free flow with V = 0 is diagonal in k, so the kernel advances a chunk of
n steps as one exact kinetic factor; a snapshot then equals a fresh evolve to
its time to round-off, not to the bit.  The kernel steps a copy of its input
in place, and the kicks write into work arrays built once per call, so a step
allocates no array of the stack's size: with glibc's allocator, fresh
temporaries of that size cost a page fault per page on every step.  The
transforms come from grid; the kicks transform the real density |psi|^2 on
its half spectrum, where density-level diffusion is solved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import PhysicalConstants, WaveField
from .grid import Grid, _grid_axes, _half_spectrum, _over_grid, _real_inverse

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
    "symmetric_pairs",
    "evolve_density_diffusion",
]

_WAVE_KINDS = ("linear", "dg_diffusion", "beta_nonlinear")
_KINDS = _WAVE_KINDS + ("density_diffusion",)

# DG regularisation scale relative to max rho (see _dg_exponent)
_DG_EPS_MASK = 1e-8


def _whole_steps(span: float, dt: float, name: str) -> int:
    """span as a whole number of steps dt, to 1e-9 relative, else a ValueError naming span."""
    steps = round(span / dt)
    if abs(steps * dt - span) > 1e-9 * max(span, 1.0):
        raise ValueError(f"{name} {span:g} is not a whole number of steps dt {dt:g}")
    return steps


class NumericalAbort(RuntimeError):
    """Raised when an evolution produces non-finite values (unstable parameters)."""


@dataclass(frozen=True)
class EvolutionSpec:
    """A flow, its kind and couplings, and the time steps that sample it.

    D is read by dg_diffusion and density_diffusion only, beta by
    beta_nonlinear only; a nonzero coupling that the kind never reads is
    refused rather than dropped.  t_final is a whole number of steps dt, to
    1e-9 relative, so the last state sits at the horizon the spec states;
    record_stride s divides n_steps, so snapshots sit at steps 0, s, ...,
    n_steps, one interval s * dt apart, which sampled turns into s."""

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
        _whole_steps(self.t_final, self.dt, "horizon")
        if self.D < 0 or self.beta < 0 or self.eps_reg <= 0:
            raise ValueError("require D >= 0, beta >= 0, eps_reg > 0")
        if self.D and self.kind not in ("dg_diffusion", "density_diffusion"):
            raise ValueError(f"kind {self.kind!r} never reads D, got D={self.D:g}")
        if self.beta and self.kind != "beta_nonlinear":
            raise ValueError(f"kind {self.kind!r} never reads beta, got beta={self.beta:g}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.n_steps % self.record_stride:
            raise ValueError(f"horizon {self.t_final:g} is not a whole number of snapshot intervals "
                             f"{self.record_stride * self.dt:g}")

    @classmethod
    def sampled(cls, kind: str, dt: float, t_final: float, interval: float, **couplings) -> EvolutionSpec:
        """The spec of kind that records a snapshot every interval, which must
        be a whole number, one or more, of steps dt that divides the horizon
        t_final."""
        if not interval > 0:
            raise ValueError(f"snapshot interval must be positive, got {interval:g}")
        spec = cls(kind, dt, t_final, **couplings)
        stride = _whole_steps(interval, dt, "snapshot interval")
        if stride == 0:  # within 1e-9 of 0 steps
            raise ValueError(f"snapshot interval {interval:g} is shorter than one step dt {dt:g}")
        return replace(spec, record_stride=stride)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class Trajectory:
    snapshots: list[tuple[float, WaveField]]
    spec: EvolutionSpec


@dataclass
class DensityTrajectory:
    snapshots: list[tuple[float, np.ndarray]]
    spec: EvolutionSpec
    grid: Grid


class _Work:
    """Arrays which the kicks of one advance call reuse across its steps:
    real rho and scratch shaped like the stack of states, and its complex
    half spectrum.  The beta kick adds a half-spectrum gradient, a real
    second gradient component in 2D and its complex factor.  peak holds the
    per-state max rho that the last kick read.  Each call builds its own."""

    def __init__(self, shape: tuple[int, ...], grid: Grid, beta: bool) -> None:
        half = shape[:-1] + (grid.n // 2 + 1,)
        self.rho, self.real = np.empty(shape), np.empty(shape)
        self.spectrum = np.empty(half, complex)
        self.gradient = np.empty(half, complex) if beta else None
        self.component = np.empty(shape) if beta and grid.dim > 1 else None
        self.factor = np.empty(shape, complex) if beta else None
        self.peak = None


def _density_spectrum(values: np.ndarray, grid: Grid, work: _Work) -> tuple[np.ndarray, np.ndarray]:
    """rho = |values|^2 in work.rho and its half spectrum in work.spectrum."""
    rho = np.add(np.square(values.real, out=work.rho), np.square(values.imag, out=work.real), out=work.rho)
    return rho, _half_spectrum(rho, grid, work.spectrum)


def _strang(V: np.ndarray, grid: Grid, dt: float, constants: PhysicalConstants, spec: EvolutionSpec):
    """The Strang step of spec's flow, its kind and couplings, by dt, as
    advance(values, n_steps, t0=0.0).  spec's own dt and horizon are not
    read: a backward step passes -dt.

    values stacks states as (*batch, *grid.shape).  One step is kick,
    exp(-iV dt/2h), F^-1 exp(-i h k^2 dt/2m) F over the grid axes,
    exp(-iV dt/2h), kick; the potential and kinetic factors are built once.
    The kick is the half-step factor of the state-dependent term, evaluated
    per state: exp((D/4) dt Lap rho/rho) for DG, exp(-i U_beta dt/2h) for
    beta, returned in a work array.  The linear kind, D = 0 and beta = 0
    have no kick, so they are the linear step bit for bit.  With no kick and
    V = 0 every factor is diagonal in k, and advance takes n steps as one,
    F^-1 exp(-i h k^2 n dt/2m) F from kin's own kinetic(t), and builds no step factor;
    it keeps each chunk factor it builds, so evolve's equal chunks share one.

    advance copies values once and then steps the copy in place, with the
    kicks in work arrays built once per call: it never writes into its
    argument, so a caller may pass back an array it keeps.  Every evolution
    aborts here: NumericalAbort names the time t0 + done * dt of the first
    state whose |psi|^2 a kick finds not finite (t0 the time of values), else
    t0 + n_steps * dt if the state advance returns has a non-finite norm.
    """
    if spec.kind not in _WAVE_KINDS:
        raise ValueError(f"kind {spec.kind!r} is not a wavefunction evolution")
    kick = None
    if spec.kind == "dg_diffusion" and spec.D != 0.0:
        def kick(values, work):
            factor = np.multiply((spec.D / 4.0) * dt, _dg_exponent(values, grid, work), out=work.rho)
            return np.exp(factor, out=factor)
    elif spec.kind == "beta_nonlinear" and spec.beta != 0.0:
        def kick(values, work):
            return _phase_factor(beta_potential(values, grid, spec.beta, spec.eps_reg, work), dt, constants.hbar,
                                 work.factor)
    free = kick is None and not np.any(V)
    def kinetic(t: float) -> np.ndarray:
        return np.exp(-1j * constants.hbar * grid._k2 * t / (2.0 * constants.m))
    half_v = None if free else np.exp(-1j * V * dt / (2.0 * constants.hbar))
    kin = None if free else kinetic(dt)
    chunk_factors: dict[int, np.ndarray] = {}  # a free flow's kinetic(n_steps * dt) by n_steps

    def advance(values: np.ndarray, n_steps: int, t0: float = 0.0) -> np.ndarray:
        values = np.array(values, dtype=complex)
        if free and n_steps > 0:
            if n_steps not in chunk_factors:
                chunk_factors[n_steps] = kinetic(n_steps * dt)
            np.multiply(chunk_factors[n_steps], _over_grid(np.fft.fft, values, grid), out=values)
            _over_grid(np.fft.ifft, values, grid)
        work = None if kick is None else _Work(values.shape, grid, beta=spec.kind == "beta_nonlinear")
        # Every product is np.multiply with a fixed operand order: numpy may
        # evaluate `*` on a large temporary in place with swapped operands,
        # and a complex product is not bitwise commutative (FMA), so `*`
        # would make a state's step depend on its batch.
        for done in range(0 if free else n_steps):
            if kick is not None:
                factor = kick(values, work)
                # The per-state max rho that a kick reads sums to a
                # non-finite value at the first state that a kick blew up,
                # even one whose entries are finite but whose |psi|^2
                # overflows, so the abort names that step.
                if not math.isfinite(work.peak.sum()):
                    raise NumericalAbort(f"non-finite state at t={t0 + done * dt:g}")
                np.multiply(values, factor, out=values)
            np.multiply(half_v, values, out=values)
            np.multiply(kin, _over_grid(np.fft.fft, values, grid), out=values)
            _over_grid(np.fft.ifft, values, grid)
            np.multiply(half_v, values, out=values)
            if kick is not None:
                np.multiply(values, kick(values, work), out=values)
        if not math.isfinite(np.vdot(values, values).real):
            raise NumericalAbort(f"non-finite state at t={t0 + n_steps * dt:g}")
        return values

    return advance


def _step(psi: WaveField, V: np.ndarray, dt: float, constants: PhysicalConstants, spec: EvolutionSpec) -> WaveField:
    values = _strang(V, psi.grid, dt, constants, spec)(psi.values, 1, psi.time)
    return WaveField(psi.grid, values, psi.time + dt)


def step_linear(psi: WaveField, V: np.ndarray, dt: float, constants: PhysicalConstants) -> WaveField:
    """One Strang step exp(-iV dt/2h) F^-1 exp(-i h k^2 dt/2m) F exp(-iV dt/2h)."""
    return _step(psi, V, dt, constants, EvolutionSpec())


def _dg_exponent(values: np.ndarray, grid: Grid, work: _Work) -> np.ndarray:
    """Smoothly regularised Delta rho / rho for the DG amplitude factor, in
    work.rho.

    A hard mask cutoff would imprint a kink at the mask edge every step and
    ring under the spectral diagnostics; Delta rho / (rho + eps max rho),
    eps = _DG_EPS_MASK, matches Delta rho / rho in the bulk and rolls off
    smoothly in the tails.  values may stack states along leading axes; max
    rho is taken per state.
    """
    rho, rho_hat = _density_spectrum(values, grid, work)
    lap = _real_inverse(np.multiply(grid._neg_k2_half, rho_hat, out=rho_hat), grid, work.real)
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
    return _step(psi, V, dt, constants, EvolutionSpec("dg_diffusion", D=D))


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
    for axis, ik in enumerate(grid._ik_half):
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
    return _step(psi, V, dt, constants, EvolutionSpec("beta_nonlinear", beta=beta, eps_reg=eps_reg))


def evolve(psi0: WaveField, V: np.ndarray, spec: EvolutionSpec, constants: PhysicalConstants) -> Trajectory:
    """Repeated stepping with a snapshot at steps 0, s, 2s, ..., n_steps,
    s = record_stride, which divides n_steps.

    Every kind runs the Strang kernel of step_linear, step_dg and step_beta,
    with its factors built once, one record_stride chunk at a time; a
    kick-free flow with V = 0 takes a chunk as one exact kinetic factor, so
    its snapshot equals a fresh evolve to its time to round-off, not to the
    bit.  The snapshot k steps in is stamped k * dt.  The kernel raises
    NumericalAbort at the first non-finite state it sees: a kick's density or
    a chunk's end state.
    """
    psi0.check_finite()
    grid = psi0.grid
    advance = _strang(V, grid, spec.dt, constants, spec)
    values = psi0.values.copy()
    snapshots: list[tuple[float, WaveField]] = [(0.0, WaveField(grid, values, 0.0))]
    for step in range(spec.record_stride, spec.n_steps + 1, spec.record_stride):
        values = advance(values, spec.record_stride, (step - spec.record_stride) * spec.dt)
        t = step * spec.dt
        snapshots.append((t, WaveField(grid, values, t)))
    return Trajectory(snapshots, spec)


def symmetric_pairs(states: list[WaveField], V: np.ndarray, spec: EvolutionSpec,
                    constants: PhysicalConstants) -> list[tuple[WaveField, WaveField]]:
    """Single steps of spec's flow, its kind and couplings, back and forward
    by spec.dt (t - dt, t + dt) from each of states, on one grid, for
    centered time stencils.

    One kernel per direction serves every state.  Each state is stepped at
    its own time, minus then plus, so the first step that blows up aborts
    with the message that state's own kernels would give.  Produced fresh at
    diagnostic time rather than from stored history, so the stencil spacing
    is independent of the snapshot stride.
    """
    steps = [(dt, _strang(V, states[0].grid, dt, constants, spec)) for dt in (-spec.dt, spec.dt)]
    return [tuple(WaveField(psi.grid, advance(psi.values, 1, psi.time), psi.time + dt) for dt, advance in steps)
            for psi in states]


def symmetric_pair(psi: WaveField, V: np.ndarray, spec: EvolutionSpec,
                   constants: PhysicalConstants) -> tuple[WaveField, WaveField]:
    """symmetric_pairs of the one state psi."""
    return symmetric_pairs([psi], V, spec, constants)[0]


def evolve_density_diffusion(rho0: np.ndarray, spec: EvolutionSpec, grid: Grid) -> DensityTrajectory:
    """The exact flow of rho_t = D Lap rho with the spectral Laplacian, D = spec.D.

    The flow is diagonal on the half spectrum: rho(t) = rho0 +
    F^-1[expm1(-D k^2 t) F rho0], finite and of rho0's mass for any
    dt * D / h^2, and rho0 bit for bit at D = 0, since expm1(0) = 0.
    Snapshots sit at steps 0, s, 2s, ..., n_steps of spec.dt, s =
    record_stride, stamped step * dt.  spec's kind is density_diffusion: the
    DG flow also moves its density by the current, which rho alone does not
    give.
    """
    if spec.kind != "density_diffusion":
        raise ValueError(f"kind {spec.kind!r} is not a density evolution")
    rho0 = np.array(rho0, dtype=float)
    rho_hat = _half_spectrum(rho0, grid)
    snapshots = []
    for step in range(0, spec.n_steps + 1, spec.record_stride):
        t = step * spec.dt
        change = np.multiply(np.expm1(np.multiply(spec.D * t, grid._neg_k2_half)), rho_hat)
        snapshots.append((t, rho0 + _real_inverse(change, grid, np.empty_like(rho0))))
    return DensityTrajectory(snapshots, spec, grid)
