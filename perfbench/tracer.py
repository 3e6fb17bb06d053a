"""In-memory span recorder for the traced benchmark run.

``Tracer`` wraps every public function of the ``fisher_hydro`` modules and the
``numpy.fft`` transforms.  A name bound in several module namespaces (``cli``
and ``stresstests`` import ``evolve`` by name, for example) is patched in each
of them, so every call path goes through the same wrapper.  Each call records
one span: name, start, end, parent span and an optional tag that the metric
code reads (the suite of a verdict, the work of a transform).  Leaving the
``with`` block restores every original.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "fisher_hydro"
FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def fft_work(name, args, kwargs):
    """(points, flops) of one numpy.fft call: transforms x N and the nominal
    5 N log2 N per transform, N being the transform length (output length for
    the inverse real transforms)."""
    shape = np.shape(args[0])
    if name.endswith("n"):
        s, axes = _arg(args, kwargs, 1, "s"), _arg(args, kwargs, 2, "axes")
        if axes is None:
            axes = range(len(shape)) if s is None else range(len(shape) - len(s), len(shape))
        axes = [a % len(shape) for a in axes]
        lengths = [shape[a] for a in axes] if s is None else list(s)
        if name == "irfftn" and s is None:
            lengths[-1] = 2 * (lengths[-1] - 1)
        n_in = math.prod(shape[a] for a in axes)
    else:
        axis = _arg(args, kwargs, 2, "axis", -1) % len(shape)
        n = _arg(args, kwargs, 1, "n")
        lengths = [shape[axis] if n is None else n]
        if name == "irfft" and n is None:
            lengths[0] = 2 * (lengths[0] - 1)
        n_in = shape[axis]
    transforms = math.prod(shape) // max(n_in, 1)
    length = math.prod(lengths)
    return transforms * length, transforms * 5.0 * length * math.log2(max(length, 2))


def _bound_tagger(fn, tag):
    signature = inspect.signature(fn)

    def tagger(args, kwargs):
        return tag(signature.bind(*args, **kwargs).arguments)

    return tagger


def _superposition_tag(a):
    config, refined = a["config"], a.get("refined", False)
    steps = int(round(config.t_final / config.timestep(refined)))
    return ("refined" if refined else "base", "beta" if a["beta"] else "linear", steps)


def _evolve_tag(a):
    psi, spec = a["psi0"], a["spec"]
    family = {"linear": f"linear-{psi.grid.dim}d", "dg_diffusion": "dg", "beta_nonlinear": "beta"}.get(spec.kind)
    return (family, spec.n_steps * psi.values.size)


# span name -> function of the bound arguments giving the span's tag
TAGS = {
    "cli.run_one": lambda a: a["test"],
    "stresstests.superposition_residual": _superposition_tag,
    "propagate.evolve": _evolve_tag,
}


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.table: list[str] = []  # span names, indexed by name id
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.tag: list = []
        self._stack = [-1]
        self._wrappers = None
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, tagger=None):
        names, start, end, parent, tag, stack = (
            self.name, self.start, self.end, self.parent, self.tag, self._stack)
        name_id = len(self.table)
        self.table.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = tagger(args, kwargs) if tagger else None
            i = len(names)
            names.append(name_id)
            parent.append(stack[-1])
            tag.append(label)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def _modules(self):
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def _build(self) -> dict:
        wrappers = {}
        for module in self._modules():
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    tag = TAGS.get(name)
                    wrappers[obj] = self.wrap(name, obj, _bound_tagger(obj, tag) if tag else None)
        for attr in FFT_FUNCTIONS:
            fn = getattr(np.fft, attr)
            wrappers[fn] = self.wrap(f"fft.{attr}", fn, functools.partial(fft_work, attr))
        return wrappers

    def __enter__(self) -> "Tracer":
        """Install the wrappers, built on first entry; the tracer can be
        entered again to record more spans into the same tables."""
        if self._wrappers is None:
            self._wrappers = self._build()
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patch(module, attr, self._wrappers[obj])
        for attr in FFT_FUNCTIONS:
            self._patch(np.fft, attr, self._wrappers[getattr(np.fft, attr)])
        return self

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays: name index into ``names``, start, end, parent (-1 for a root)."""
        return {
            "names": np.array(self.table),
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())
