"""The reference kernel: fixed numpy work that does not touch fisher_hydro,
timed during a run to read how fast the shared host runs at that moment.

Other tenants of a shared host slow everything on it, in phases of seconds to
minutes, with user and system time both inflated.  A unit's time divided by
the reference time read around it cancels most of that, while any change to
fisher_hydro still moves the numerator alone.  The kernel is a split-step
evolution of a 3-state batch on 8192 points, with a nonlinear kick, so it
uses the same transforms, the same array sizes and the same allocator traffic
as the package's own propagators.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import numpy as np

SHAPE = (3, 8192)
STEPS = 40
RUNS = 5

_rng = np.random.default_rng(0)
_STATE = (_rng.standard_normal(SHAPE) + 1j * _rng.standard_normal(SHAPE)) * 1e-2
_KINETIC = np.exp(-1j * np.linspace(0.0, 3.0, SHAPE[1]))


def _kernel() -> complex:
    batch = _STATE
    for _ in range(STEPS):
        rho = batch.real**2 + batch.imag**2
        grad = np.fft.ifft(np.fft.fft(rho, axis=-1), axis=-1).real
        batch = batch * np.exp(-0.5j * 1e-9 * grad**2 / (rho + 1e-3) ** 2)
        batch = np.fft.ifft(_KINETIC * np.fft.fft(batch, axis=-1), axis=-1)
    return complex(batch[0, 0])


class Reference:
    """Readings of the kernel: each is the median time of ``RUNS`` runs.
    ``spent`` is the wall time all readings took, so a unit that had readings
    taken inside it can have them subtracted."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0

    def read(self) -> None:
        start, times = time.perf_counter(), []
        for _ in range(RUNS):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
        self.readings.append(statistics.median(times))
        self.spent += time.perf_counter() - start

    def interleave(self, module, name: str) -> None:
        """Take a reading before every call of ``module.name`` made from this
        process.  A unit that lasts tens of seconds then has the host's speed
        read all through it, not only at its two ends.  Calls made in a child
        process take no reading."""
        original = getattr(module, name)
        pid = os.getpid()

        @functools.wraps(original)
        def reading_first(*args, **kwargs):
            if os.getpid() == pid:
                self.read()
            return original(*args, **kwargs)

        setattr(module, name, reading_first)
