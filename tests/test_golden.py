"""Every suite at its defaults reproduces tests/golden bit for bit: every
artefact but the verdict byte for byte, and each verdict's exit code,
measured values and check values with floats compared as float.hex.  The
eight cheap suites run here; superposition is compared from the session's
one run of it, which criterion 4 reads too.

The files are written by tests/golden/make_golden.py. Round-off may differ
under another Python, numpy, FFT backend or set of CPU dispatch targets, so
there the test skips and names both environments; it never passes without
comparing.
"""
import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.fixture(scope="module")
def recording_environment():
    recorded = json.loads((GOLDEN / "environment.json").read_text())
    current = make_golden.environment()
    if current != recorded:
        pytest.skip(f"golden files were recorded on {recorded}, this environment is {current}")


def assert_golden(suite, files, verdict):
    golden = {path.name: path.read_bytes() for path in sorted((GOLDEN / suite).iterdir())}
    assert sorted(files) == sorted(golden)
    for name, body in golden.items():
        assert files[name] == body, f"{suite}/{name} moved"
    assert verdict == json.loads((GOLDEN / "verdicts.json").read_text())[suite]


@pytest.mark.parametrize("suite", make_golden.SUITES)
def test_suite_reproduces_golden_bits(suite, tmp_path, recording_environment):
    assert_golden(suite, *make_golden.record(suite, str(tmp_path)))


def test_superposition_reproduces_golden_bits(recording_environment, superposition_run):
    run = superposition_run
    assert_golden("superposition", *make_golden.summarise("superposition", run.code, run.verdict, run.outdir))
