"""Exact changes of units: a suite run in other units reproduces every
measured value of its run at the defaults bit for bit, floats compared as
float.hex, and both exit 0.

Every published config sits at hbar = m = 1, where a wrong power of hbar or m
moves no bit of any verdict.  A unit change moves those powers and leaves the
physics where it was: scan-alpha and continuity evolve a free packet, whose
flow reads hbar t / m only, so hbar -> c hbar with every time over c, or
m -> c m with every time times c, is the same flow at the same snapshots.
"""
import pytest

from fisher_hydro.cli import DEFAULTS, EXIT_PASS, run_one

# name -> (the changed constant, the factor on dt, t_final and snapshot_interval)
UNIT_CHANGES = {
    "2hbar": ({"hbar": 2.0}, 0.5),
    "half-hbar": ({"hbar": 0.5}, 2.0),
    "2mass": ({"mass": 2.0}, 2.0),
}
_TIMES = ("dt", "t_final", "snapshot_interval")


def measured_hex(test, tmp_path, change=None):
    """(exit code, measured values with floats as float.hex) of test at its
    defaults, or under the unit change named change."""
    overrides = {}
    if change is not None:
        constant, factor = UNIT_CHANGES[change]
        overrides = dict(constant, **{key: factor * DEFAULTS[test][key] for key in _TIMES})
    code, verdict = run_one(test, None, str(tmp_path / (change or "defaults")), overrides)
    return code, {key: value.hex() if isinstance(value, float) else value for key, value in verdict.measured.items()}


@pytest.mark.parametrize("change", UNIT_CHANGES)
@pytest.mark.parametrize("test", ["scan-alpha", "continuity"])
def test_unit_change_keeps_every_measured_bit(tmp_path, test, change):
    code, measured = measured_hex(test, tmp_path, change)
    assert code == EXIT_PASS
    assert measured_hex(test, tmp_path) == (EXIT_PASS, measured)
