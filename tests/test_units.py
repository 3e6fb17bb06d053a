"""Exact changes of units: a suite run in other units reproduces every
measured value of its run in the first units bit for bit, floats compared as
float.hex, or a fixed power of 2 times it where the value carries units.

Every published config sits at hbar = m = 1, where a wrong power of hbar or m
moves no bit of any verdict.  A unit change moves those powers and leaves the
physics where it was: scan-alpha and continuity evolve a free packet, whose
flow reads hbar t / m only, so hbar -> c hbar with every time over c, or
m -> c m with every time times c, is the same flow at the same snapshots.
A boost is a velocity (L/T), so boost 1 at m = 1 is boost 1/2 at m = 2 with
every time doubled.  time-reversal and complexifier evolve in a harmonic trap:
hbar -> 2 hbar with every time halved takes omega (1/T) and the diffusion D
(L^2/T) to twice theirs.  complexifier's rate max |rho_t| and its recovered
kappa (an action) then double, and alpha = kappa^2 / 2m quadruples.
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


def _scaled(test, factor, keys):
    return {key: factor * DEFAULTS[test][key] for key in keys}


# name -> (suite, overrides of the first run, overrides of the run in other
# units, the exact factor on each measured value that carries units); every
# value not named keeps its bits
RELATIONS = {
    "boost-scan-alpha": (
        "scan-alpha", {"boost": 1.0}, {"boost": 0.5, "mass": 2.0, **_scaled("scan-alpha", 2.0, _TIMES)}, {},
    ),
    "boost-continuity": (
        "continuity", {"boost": 1.0}, {"boost": 0.5, "mass": 2.0, **_scaled("continuity", 2.0, _TIMES)}, {},
    ),
    "2hbar-time-reversal": (
        "time-reversal",
        {},
        {"hbar": 2.0, **_scaled("time-reversal", 2.0, ("omega", "diffusion")),
         **_scaled("time-reversal", 0.5, ("dt", "t_final"))},
        {},
    ),
    "2hbar-complexifier": (
        "complexifier",
        {},
        {"hbar": 2.0, **_scaled("complexifier", 2.0, ("omega",)), **_scaled("complexifier", 0.5, _TIMES)},
        {"max_density_rate": 2.0, "kappa_recovered": 2.0, "alpha_recovered": 4.0},
    ),
}


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def measured_hex(test, tmp_path, change=None):
    """(exit code, measured values with floats as float.hex) of test at its
    defaults, or under the unit change named change."""
    overrides = {}
    if change is not None:
        constant, factor = UNIT_CHANGES[change]
        overrides = dict(constant, **_scaled(test, factor, _TIMES))
    code, verdict = run_one(test, None, str(tmp_path / (change or "defaults")), overrides)
    return code, {key: _hex(value) for key, value in verdict.measured.items()}


def broken_values(tmp_path, relation):
    """(exit codes of both runs, the measured values of the run in other units
    that break relation)."""
    test, first, other, factors = RELATIONS[relation]
    first_code, first_verdict = run_one(test, None, str(tmp_path / "first"), first)
    code, verdict = run_one(test, None, str(tmp_path / "other"), other)
    expected = {key: factors[key] * value if key in factors else value for key, value in first_verdict.measured.items()}
    broken = {key for key, value in verdict.measured.items() if _hex(value) != _hex(expected[key])}
    return (first_code, code), broken


@pytest.mark.parametrize("change", UNIT_CHANGES)
@pytest.mark.parametrize("test", ["scan-alpha", "continuity"])
def test_unit_change_keeps_every_measured_bit(tmp_path, test, change):
    code, measured = measured_hex(test, tmp_path, change)
    assert code == EXIT_PASS
    assert measured_hex(test, tmp_path) == (EXIT_PASS, measured)


@pytest.mark.parametrize("relation", RELATIONS)
def test_unit_change_relation_holds_bit_for_bit(tmp_path, relation):
    assert broken_values(tmp_path, relation) == ((EXIT_PASS, EXIT_PASS), set())
