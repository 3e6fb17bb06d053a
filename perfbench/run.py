"""fisher-hydro benchmark runner.

    python3 perfbench/run.py --workload superposition --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

One process, one caller, closed loop: each unit of the workload's fixed work
starts when the previous one returns.  With ``--trace 0`` it repeats the
unit until ``--seconds`` would be exceeded (at least once), sets up afresh
several times spread over the same window, times the reference kernel
(``reference.py``) between units, and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of units, each once untraced and once
with every public function wrapped, and reports the per-layer metrics.  The last line of stdout is the JSON result; samples,
checks and the environment go to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json`` and spans to a ``.npz``
beside it.  The exit code is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
REFERENCE_EVERY_S = 3.0

sys.path.insert(0, str(HERE))

from metrics import END_TO_END, layer_metrics, per_layer_spec  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fisher_hydro").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "numpy.fft (pocketfft)",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def cpu_seconds() -> float:
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def measure(workload, seed: int, artefacts: str, seconds: float):
    """Untraced loop: units back to back until the next one would overrun
    ``seconds`` (at least one unit).  Set-ups are spread evenly over the same
    window, so set-up and unit times see the same machine; the unit after a
    set-up runs on what it built.

    The reference kernel is read before the first unit, after the last, and
    between units once ``REFERENCE_EVERY_S`` of unit time has passed since
    the last reading.  A workload that names an ``interleave`` function also
    has a reading taken before each call of it inside a unit; that time is
    taken out of the unit's time.  Each unit's time is divided by the mean of
    the readings from the one before it to the one after it.  Returns
    (setups, walls, readings, ratios, checks)."""
    setups, walls, ratios, checks = [], [], [], []
    ref = Reference()

    def set_up():
        ctx, t = timed(workload.setup, seed, artefacts)
        setups.append(t)
        if workload.interleave:
            module, name = workload.interleave
            ref.interleave(getattr(ctx.fh, module), name)
        return ctx

    start = time.perf_counter()
    ctx = set_up()
    ref.read()
    first, pending = 0, []
    while True:
        if time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            ctx = set_up()
        spent = ref.spent
        unit_checks, t = timed(workload.unit, ctx, len(walls))
        checks += unit_checks
        walls.append(t - (ref.spent - spent))
        pending.append(walls[-1])
        stop = any(not c.ok for c in checks) or (
            time.perf_counter() - start + statistics.median(walls) > seconds)
        if stop or sum(pending) >= REFERENCE_EVERY_S or len(ref.readings) > first + 1:
            ref.read()
            scale = statistics.mean(ref.readings[first:])
            ratios += [w / scale for w in pending]
            first, pending = len(ref.readings) - 1, []
        if stop:
            break
    while len(setups) < SETUP_REPEATS:
        set_up()
    return setups, walls, ref.readings, ratios, checks


def traced_units(workload, ctx, count: int):
    """Run each of ``count`` units once untraced and once traced, swapping
    which goes first on every unit, so that a drift of the machine's speed and
    the warm-up a repeat gets hit both sides alike.  Returns (tracer, untraced
    walls, traced walls, checks, CPU seconds per untraced unit)."""
    tracer = Tracer()
    walls, traced, checks, cpu = [], [], [], 0.0
    for index in range(count):
        for traced_pass in (index % 2 == 1, index % 2 == 0):
            cpu0 = cpu_seconds()
            if traced_pass:
                with tracer:
                    unit_checks, t = timed(workload.unit, ctx, index)
                traced.append(t)
            else:
                unit_checks, t = timed(workload.unit, ctx, index)
                walls.append(t)
                cpu += cpu_seconds() - cpu0
            checks += unit_checks
    return tracer, walls, traced, checks, cpu / count


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    with tempfile.TemporaryDirectory(dir=OUT) as artefacts:
        if trace:
            ctx, setup = timed(workload.setup, seed, artefacts)
            samples = {"setup_s": [setup]}
            tracer, walls, traced, checks, cpu = traced_units(workload, ctx, workload.traced_units)
            samples["untraced_wall_s"] = walls
            samples["traced_wall_s"] = traced
            tracer.save(str(stem) + ".spans.npz")
            metrics = layer_metrics(tracer, traced, walls, cpu)
            units = {n: u for n, u, _ in per_layer_spec()}
        else:
            setup, walls, refs, ratios, checks = measure(workload, seed, artefacts, seconds)
            samples = {"setup_s": setup, "wall_s": walls, "reference_s": refs, "wall_over_ref": ratios}
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_over_ref": statistics.median(ratios),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pass_ratio": sum(c.ok for c in checks) / len(checks),
            }
            units = {n: u for n, u, _, _ in END_TO_END}

    failed = [c for c in checks if not c.ok]
    env = environment(seed)
    record = {
        "workload": name, "trace": int(trace), "seconds": seconds, "environment": env, "samples": samples,
        "checks": [vars(c) for c in checks], "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))

    print(f"workload {name}  seed {seed}  trace {int(trace)}  env {json.dumps(env)}")
    for c in failed:
        print(f"FAILED CHECK {c.name}: {c.detail}")
    if not trace:
        print(f"  {'setup_s':<12} {metrics['setup_s']:.6g} s  (median of {len(setup)})")
        print(f"  {'wall_over_ref':<12} {metrics['wall_over_ref']:.6g}  (median of {len(ratios)})")
        print(f"  {'wall_s':<12} {statistics.median(walls):.6g} s  (median unit time, not divided; reference "
              f"kernel {statistics.median(refs):.6g} s, median of {len(refs)} readings)")
        print(f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']:.6g} MB")
        print(f"  {'fail_ratio':<12} {len(failed) / len(checks):.6g}  ({len(failed)}/{len(checks)} checks failed)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failed else 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, each in its own process, as one table."""
    code = 0
    print(f"{'workload':<14} {'setup_s':>12} {'wall_over_ref':>14} {'wall_s':>12} {'peak_rss_mb':>14} "
          f"{'fail_ratio':>11}")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            sys.stdout.write(proc.stdout + proc.stderr)
            code = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        m = result["metrics"]
        record = json.loads((OUT / f"{name}-seed{seed}-trace0.json").read_text())
        wall = statistics.median(record["samples"]["wall_s"])
        print(f"{name:<14} {m['setup_s']['value']:>10.4g} s {m['wall_over_ref']['value']:>14.5g} {wall:>10.4g} s "
              f"{m['peak_rss_mb']['value']:>11.4g} MB {result['failed'] / result['attempted']:>11.3g}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fisher_hydro" / "__init__.py").is_file():
        print(f"no fisher_hydro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fisher_hydro

    origin = Path(fisher_hydro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"fisher_hydro imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
