"""Write the golden artefacts of every suite from the current tree, and print
each value that moved.

Run by hand from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

Each suite runs at its defaults through ``cli.run_one``. Its folder here
holds the bytes of every artefact it wrote but its verdict; verdicts.json
holds each verdict's exit code, measured values and check values, every
float as ``float.hex``; environment.json holds what the bits depend on.
tests/test_golden.py reruns the eight cheap suites and compares them with
these files bit for bit; it compares superposition (an 8 s run) from the one
run that criterion 4 reads too.
"""

from __future__ import annotations

import difflib
import json
import tempfile
from pathlib import Path

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from fisher_hydro import cli

GOLDEN = Path(__file__).resolve().parent
SUITES = sorted(set(cli.RUNNERS) - {"superposition"})  # the cheap ones


def environment() -> dict:
    """Python, numpy, the FFT backend and the CPU dispatch targets numpy
    enabled: the round-off of the same code can differ when one changes."""
    env = cli._environment()
    del env["cpus"]  # sizes superposition's process pool only
    return dict(env, cpu_dispatch=[target for target in __cpu_dispatch__ if __cpu_features__[target]])


def _hex(value):
    """value with every float as float.hex, in nested dicts too."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {key: _hex(v) for key, v in value.items()}
    return value


def record(suite: str, outdir: str) -> tuple[dict[str, bytes], dict]:
    """One default run of suite into outdir, as summarise gives it."""
    return summarise(suite, *cli.run_one(suite, None, outdir, {}), outdir)


def summarise(suite: str, code: int, verdict, outdir: str) -> tuple[dict[str, bytes], dict]:
    """(the bytes of each artefact but the verdict that a run of suite wrote
    to outdir, by file name; its verdict's exit code, measured values and
    check values, floats as hex), from the run's exit code and verdict."""
    if verdict is None:
        raise RuntimeError(f"{suite} exits {code} at its defaults and measures nothing")
    files = {path.name: path.read_bytes() for path in sorted(Path(outdir).iterdir())
             if not path.name.endswith(".verdict.json")}
    checks = {name: row["measured"] for name, row in verdict.thresholds.items()}
    return files, {"exit_code": code, "measured": _hex(verdict.measured), "checks": _hex(checks)}


def _dump(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _moved(label: str, old: str, new: str) -> None:
    """Print each line of new that differs from old."""
    for line in difflib.unified_diff(old.splitlines(), new.splitlines(), label, label, n=0, lineterm=""):
        print(line)


def main() -> None:
    env_path, verdicts_path = GOLDEN / "environment.json", GOLDEN / "verdicts.json"
    old_verdicts = json.loads(verdicts_path.read_text()) if verdicts_path.exists() else {}
    _moved("environment.json", env_path.read_text() if env_path.exists() else "", _dump(environment()))
    verdicts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for suite in SUITES + ["superposition"]:
            files, verdicts[suite] = record(suite, str(Path(tmp, suite)))
            _moved(f"verdicts.json[{suite}]", _dump(old_verdicts.get(suite, {})), _dump(verdicts[suite]))
            folder = GOLDEN / suite
            folder.mkdir(exist_ok=True)
            for stale in sorted(set(p.name for p in folder.iterdir()) - set(files)):
                print(f"{suite}/{stale}: no longer written, removed")
                (folder / stale).unlink()
            for name, body in files.items():
                path = folder / name
                _moved(f"{suite}/{name}", path.read_text() if path.exists() else "", body.decode())
                path.write_bytes(body)
    verdicts_path.write_text(_dump(verdicts))
    env_path.write_text(_dump(environment()))


if __name__ == "__main__":
    main()
