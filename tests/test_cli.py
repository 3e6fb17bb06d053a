"""CLI surface: configs, exit codes, artefact determinism, verdict round-trip."""
import argparse
import json
import multiprocessing
import os
import platform

import numpy as np
import pytest

from fisher_hydro import cli, stresstests
from fisher_hydro.cli import (
    CHECKS,
    EXIT_CONFIG,
    EXIT_FALSIFIED,
    EXIT_NUMERICAL,
    EXIT_PASS,
    RUNNERS,
    ConfigError,
    DEFAULTS,
    _FLAGS,
    build_parser,
    evaluate_checks,
    load_config,
    main,
    run_all,
    run_one,
)
from fisher_hydro.fields import WaveField
from fisher_hydro.functionals import shannon_entropy_rate
from fisher_hydro.grid import make_grid
from fisher_hydro.propagate import (
    EvolutionSpec,
    NumericalAbort,
    Trajectory,
    evolve_density_diffusion,
)


def test_load_config_defaults():
    cfg = load_config("scan-alpha", None, {})
    assert cfg == DEFAULTS["scan-alpha"]


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"unknown_knob": 1}))
    with pytest.raises(ConfigError):
        load_config("scan-alpha", str(path), {})


def test_load_config_rejects_bad_types(tmp_path):
    path = tmp_path / "bad.json"
    for test, user in [
        ("scan-alpha", {"n": "four thousand"}),
        ("galilei", {"boost": True}),  # a JSON bool is not a number
        ("scan-alpha", {"n": False}),
        ("fisher-el", {"masses": [True]}),
        ("superposition", {"beta_list": [0.0, 0.005, 0.02, 0.05, "x"]}),
        ("circulation", {"windings": ["1"]}),
        ("circulation", {"windings": [1.0]}),  # a float does not stand for an int
        ("complexifier", {"p_grid": 0.5}),
    ]:
        path.write_text(json.dumps(user))
        with pytest.raises(ConfigError):
            load_config(test, str(path), {})
        assert main([test, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()


def test_load_config_accepts_ints_for_floats(tmp_path):
    # an int stands for a float, as a list element too, and a bool for a bool
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"masses": [1, 2.5], "omega": 2}))
    assert load_config("fisher-el", str(path), {})["masses"] == [1, 2.5]
    path.write_text(json.dumps({"boost": 2, "refine": True}))
    cfg = load_config("scan-alpha", str(path), {})
    assert (cfg["boost"], cfg["refine"]) == (2, True)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigError):
        load_config("scan-alpha", str(path), {})


def test_load_config_rejects_empty_lists(tmp_path):
    # an empty list would check nothing: no winding, or no multi-mass row
    assert all(value for defaults in DEFAULTS.values() for value in defaults.values() if isinstance(value, list))
    path = tmp_path / "empty.json"
    for test, key in [("circulation", "windings"), ("fisher-el", "masses")]:
        path.write_text(json.dumps({key: []}))
        with pytest.raises(ConfigError, match="empty list"):
            load_config(test, str(path), {})
        assert main([test, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()


_LIST_KEYS = [(test, key) for test, defaults in DEFAULTS.items() for key, value in defaults.items()
              if isinstance(value, list)]


@pytest.mark.parametrize("test, key", _LIST_KEYS)
def test_load_config_rejects_repeated_list_values(tmp_path, test, key):
    # a repeated entry would run a row twice or, for the complexifier's p_grid
    # with 0.5 twice, read as two minimum cells (exit 1); 0 and 0.0 are one value
    default = DEFAULTS[test][key]
    middle = len(default) // 2
    repeats = [default[:middle + 1] + default[middle:]]
    repeats += [default + [int(v)] for v in default if isinstance(v, float) and v.is_integer()][:1]
    path = tmp_path / "repeat.json"
    for value in repeats:
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=f"config key '{key}' repeats a value"):
            load_config(test, str(path), {})
        assert main([test, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("test, key", [("dg-entropy", "mask_eps"), ("time-reversal", "mask_eps"),
                                       ("galilei", "mask_eps"), ("circulation", "mass"),
                                       ("scan-alpha", "forced_alpha_ratio")])
def test_config_keys_that_moved_nothing_are_unknown(tmp_path, test, key):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({key: 1e-6 if key == "mask_eps" else 1.0}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(test, str(path), {})
    assert main([test, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_empty_config_file_exit_2(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    code = main(["scan-alpha", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


def test_flag_overrides_apply(tmp_path):
    cfg = load_config("scan-alpha", None, {"boost": 1.5, "n": 1024})
    assert cfg["boost"] == 1.5
    assert cfg["n"] == 1024


def test_run_all_missing_directory(tmp_path):
    code = run_all(str(tmp_path / "nope"), str(tmp_path / "out"))
    assert code == EXIT_CONFIG


def test_scan_alpha_deterministic_artifacts(tmp_path):
    cfg = {"n": 1024, "t_final": 1.0}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1, v1 = run_one("scan-alpha", str(p), str(out1), {})
    code2, v2 = run_one("scan-alpha", str(p), str(out2), {})
    body1 = (out1 / "scan_alpha.csv").read_bytes()
    body2 = (out2 / "scan_alpha.csv").read_bytes()
    assert body1 == body2
    assert v1.measured == v2.measured
    assert "momentum_audit_at_alpha_star" not in v1.measured
    # r_cont is alpha-independent: one value down the column, the verdict's mean
    col = [line.split(",")[2] for line in body1.decode().splitlines()[1:]]
    assert set(col) == {f"{v1.measured['mean_r_cont']:.17g}"}


def test_verdict_config_roundtrip(tmp_path):
    # the effective config echoed in the verdict re-runs to the same verdict
    out1 = tmp_path / "r1"
    code1, v1 = run_one("circulation", None, str(out1), {})
    echoed = json.loads((out1 / "circulation.verdict.json").read_text())["config"]
    p = tmp_path / "echo.json"
    p.write_text(json.dumps(echoed))
    out2 = tmp_path / "r2"
    code2, v2 = run_one("circulation", str(p), str(out2), {})
    assert code1 == code2 == EXIT_PASS
    assert v1.measured == v2.measured


def test_circulation_runner_passes(tmp_path):
    code, verdict = run_one("circulation", None, str(tmp_path / "out"), {})
    assert code == EXIT_PASS
    assert verdict.passed
    assert (tmp_path / "out" / "circulation.csv").exists()
    assert (tmp_path / "out" / "circulation.verdict.json").exists()


# the keys of every verdict, whether its run passed, failed a check row or raised
VERDICT_KEYS = {"test", "pass", "exit_code", "error", "measured", "thresholds", "runtime_s", "config",
                "version", "timestamp", "environment"}


def test_verdict_json_schema(tmp_path):
    _, verdict = run_one("circulation", None, str(tmp_path / "out"), {})
    payload = json.loads((tmp_path / "out" / "circulation.verdict.json").read_text())
    assert payload["test"] == "circulation"
    assert set(payload) == VERDICT_KEYS
    for entry in payload["thresholds"].values():
        assert set(entry) == {"value", "source", "op", "measured", "pass"}
    assert (payload["exit_code"], payload["error"]) == (EXIT_PASS, None)
    assert payload["config"] == DEFAULTS["circulation"]
    _assert_environment(payload)


def _assert_environment(payload):
    env = payload["environment"]
    assert set(env) == {"python", "numpy", "fft_backend", "cpus"}
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert env["fft_backend"] == "numpy.fft (pocketfft)"
    assert isinstance(env["cpus"], int) and env["cpus"] >= 1


def test_beta_flag_only_for_superposition(tmp_path, capsys):
    # scan-alpha has no --beta: argparse refuses it with the usage status
    with pytest.raises(SystemExit) as exc:
        main(["scan-alpha", "--beta", "0.01", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    # callers other than argparse still get the config error
    with pytest.raises(ConfigError, match="not applicable"):
        load_config("scan-alpha", None, {"beta": 0.01})


def _subparser_options(suite):
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {opt for action in sub.choices[suite]._actions for opt in action.option_strings} - {"-h", "--help"}


@pytest.mark.parametrize("suite", sorted(RUNNERS))
def test_subcommand_has_only_its_own_flags(suite):
    own = {"--" + flag.replace("_", "-") for flag in _FLAGS
           if ("beta_list" if flag == "beta" else flag) in DEFAULTS[suite]}
    assert _subparser_options(suite) == {"--config", "--out"} | own


def test_flags_reach_effective_config(tmp_path, monkeypatch):
    # 32 of the 10 x 9 subcommand x flag slots apply
    assert sum(len(_subparser_options(suite)) - 2 for suite in RUNNERS) == 32
    assert main(["galilei", "--boost", "2.0", "--n", "1024", "--out", str(tmp_path)]) == EXIT_PASS
    config = json.loads((tmp_path / "galilei.verdict.json").read_text())["config"]
    assert (config["boost"], config["n"]) == (2.0, 1024) and isinstance(config["n"], int)

    monkeypatch.setattr(cli, "superposition_curve",
                        lambda config: [{"beta": b, "base": 1.3, "refined": 1.3} for b in config.beta_list])
    main(["superposition", "--beta", "0.003", "--out", str(tmp_path)])
    config = json.loads((tmp_path / "superposition.verdict.json").read_text())["config"]
    assert config["beta_list"] == [0.0, 0.003, 0.005, 0.01, 0.02, 0.05]


def _outputs(test, tmp_path, name, user):
    """(exit code, measured values, CSV bytes) of one run of test with user's config."""
    path, out = tmp_path / f"{name}.json", tmp_path / name
    path.write_text(json.dumps(user))
    code, verdict = run_one(test, str(path), str(out), {})
    csvs = {f: (out / f).read_bytes() for f in sorted(os.listdir(out)) if f.endswith(".csv")}
    return code, None if verdict is None else verdict.measured, csvs


# time-reversal at mass 2 blows up its DG kick (exit 3), and numpy warns on the way
_DG_BLOW_UP = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                         "ignore:invalid value encountered:RuntimeWarning")


@pytest.mark.parametrize("test, key", [
    pytest.param(test, key, marks=[_DG_BLOW_UP] if (test, key) == ("time-reversal", "mass") else [])
    for test in sorted(DEFAULTS) for key in ("mask_eps", "hbar", "mass") if key in DEFAULTS[test]
])
def test_every_physical_setting_moves_an_output(tmp_path, test, key):
    # a second value changes the exit code, a measured value or a CSV byte.
    # circulation's mask only guards its loop, which 0.5 puts through the
    # masked region (exit 2).  superposition runs on a shrunken grid and horizon.
    base = {"n": 256, "t_final": 0.05} if test == "superposition" else {}
    if key == "mask_eps":
        second = 0.5 if test == "circulation" else 1e-3
    else:
        second = 2.0 * DEFAULTS[test][key]
    assert _outputs(test, tmp_path, "a", base) != _outputs(test, tmp_path, "b", dict(base, **{key: second}))


def test_diffusive_continuity_breaks_drift_form(tmp_path):
    cfg = {"n": 1024, "t_final": 1.0, "diffusion": 0.05, "dt": 0.01}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, verdict = run_one("continuity", str(p), str(tmp_path / "out"), {})
    assert code == EXIT_PASS
    assert verdict.measured["mean_r_cont"] > 1e-3


def test_run_all_summary(tmp_path):
    # shrunken configs: checks dispatch, summary shape, and exit-code plumbing
    confdir = tmp_path / "configs"
    confdir.mkdir()
    small = {
        "scan-alpha": {"n": 1024, "t_final": 1.0},
        "continuity": {"n": 1024, "t_final": 1.0},
        "dg-entropy": {"n": 256, "t_final": 1.0},
        "circulation": {"n": 128},
        "fisher-el": {"n": 512, "n_bump": 1024},
        "time-reversal": {"n": 512, "t_final": 0.5},
        "galilei": {"n": 1024, "length": 60.0},
        "complexifier": {"n": 512, "t_final": 0.35, "snapshot_interval": 0.35},
        "superposition": {"n": 512, "t_final": 0.2},
    }
    for name, cfg in small.items():
        (confdir / f"{name}.json").write_text(json.dumps(cfg))
    code = run_all(str(confdir), str(tmp_path / "out"))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [row["test"] for row in summary] == sorted(small)
    assert code in (EXIT_PASS, EXIT_FALSIFIED)
    # per-test artefacts landed in per-test directories
    assert os.path.exists(tmp_path / "out" / "scan_alpha" / "scan-alpha.verdict.json")
    # every verdict's pass is read from its checks, and only table rows appear
    for name in small:
        payload = json.loads((tmp_path / "out" / name.replace("-", "_") / f"{name}.verdict.json").read_text())
        checks = payload["thresholds"]
        assert set(checks) <= {row[0] for row in CHECKS[name]}
        assert payload["pass"] == all(check["pass"] for check in checks.values())
    galilei = json.loads((tmp_path / "out" / "galilei" / "galilei.json").read_text())
    verdict = json.loads((tmp_path / "out" / "galilei" / "galilei.verdict.json").read_text())
    # each galilei row measures the largest |value - expected| / scale over
    # its closure's entries (an entry's name less its axis digits)
    gaps = {}
    for name, entry in galilei["entries"].items():
        gaps.setdefault(name.rstrip("0123456789"), []).append(abs(entry["value"] - entry["expected"]) / entry["scale"])
    assert {name: check["measured"] for name, check in verdict["thresholds"].items()} == {
        closure: max(values) for closure, values in gaps.items()}
    # run-all leaves superposition's residuals as a run of that suite alone
    # writes them
    run_one("superposition", str(confdir / "superposition.json"), str(tmp_path / "serial"), {})
    serial = (tmp_path / "serial" / "superposition.csv").read_bytes()
    assert (tmp_path / "out" / "superposition" / "superposition.csv").read_bytes() == serial


def test_beta_flag_appends_to_superposition_list(tmp_path):
    cfg = {"n": 512, "t_final": 0.2}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = main(["superposition", "--beta", "0.003", "--config", str(p),
                 "--out", str(tmp_path / "out")])
    body = (tmp_path / "out" / "superposition.csv").read_text()
    assert "0.003" in body.splitlines()[2]  # appended beta row present
    assert code in (EXIT_PASS, EXIT_FALSIFIED)


def test_superposition_requires_canonical_betas(tmp_path):
    cfg = {"n": 512, "t_final": 0.2, "beta_list": [0.0, 0.5]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = main(["superposition", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    # the rule is the runner's, so the run leaves a partial verdict
    assert _partial_verdict(tmp_path / "out", "superposition")["error"] == (
        "superposition beta_list must keep the canonical couplings 0, 0.005, 0.02, 0.05")


def test_beta_flag_appends_to_config_beta_list(tmp_path, monkeypatch):
    # --beta extends the effective list (config file included), not the defaults
    seen = []

    def fake_curve(config):
        seen.append(config.beta_list)
        return [{"beta": b, "base": 1.3, "refined": 1.3} for b in config.beta_list]

    monkeypatch.setattr(cli, "superposition_curve", fake_curve)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"beta_list": [0, 0.005, 0.02, 0.05, 0.1]}))
    main(["superposition", "--beta", "0.003", "--config", str(p), "--out", str(tmp_path / "out")])
    assert seen == [(0, 0.003, 0.005, 0.02, 0.05, 0.1)]
    body = (tmp_path / "out" / "superposition.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in body[1:]] == [0, 0.003, 0.005, 0.02, 0.05, 0.1]


def _partial_verdict(outdir, test):
    payload = json.loads((outdir / f"{test}.verdict.json").read_text())
    assert set(payload) == VERDICT_KEYS
    assert payload["pass"] is False
    assert payload["measured"] == payload["thresholds"] == {}
    _assert_environment(payload)
    return payload


def test_superposition_falling_residual_fails_its_row(tmp_path, monkeypatch):
    # the residual falls from beta = 0.005 to 0.01: a full verdict whose only
    # failed row is monotone_in_beta, with exit 1 and the table on disk
    table = {0.0: 0.0, 0.005: 0.2, 0.01: 0.15, 0.02: 1.35, 0.05: 1.36}
    monkeypatch.setattr(stresstests, "superposition_residual",
                        lambda config, beta, refined=False: table[beta])
    code, verdict = run_one("superposition", None, str(tmp_path), {})
    assert code == EXIT_FALSIFIED and not verdict.passed
    payload = json.loads((tmp_path / "superposition.verdict.json").read_text())
    assert {name for name, check in payload["thresholds"].items() if not check["pass"]} == {"monotone_in_beta"}
    assert payload["measured"]["monotone_in_beta"] == pytest.approx(0.05)
    assert payload["measured"]["plateau_jitter"] == pytest.approx(-0.01)
    body = (tmp_path / "superposition.csv").read_text().splitlines()
    assert [float(row.split(",")[1]) for row in body[1:]] == list(table.values())


def test_superposition_abort_in_a_pooled_row(tmp_path, monkeypatch):
    # the residual calls run in forked worker processes, which run what the
    # parent bound to superposition_residual; a worker's abort reaches the
    # partial verdict with its message, and no run leaves a worker behind
    table = {0.0: 0.0, 0.005: 0.2, 0.01: 0.5, 0.02: 1.35, 0.05: 1.36}
    monkeypatch.setattr(stresstests, "superposition_residual", lambda config, beta, refined=False: table[beta])
    assert run_one("superposition", None, str(tmp_path / "pass"), {})[0] == EXIT_PASS
    assert multiprocessing.active_children() == []

    def abort(config, beta, refined=False):
        if beta == 0.02:
            raise NumericalAbort(f"aborted in process {os.getpid()}")
        return table[beta]

    monkeypatch.setattr(stresstests, "superposition_residual", abort)
    assert run_one("superposition", None, str(tmp_path / "abort"), {}) == (EXIT_NUMERICAL, None)
    error = _partial_verdict(tmp_path / "abort", "superposition")["error"]
    assert error.startswith("aborted in process ") and int(error.split()[-1]) != os.getpid()
    assert multiprocessing.active_children() == []

    def blow_up(config, beta, refined=False):
        raise NumericalAbort("non-finite state at t=0.05")

    # the stepper's own abort keeps its message through the pickle
    monkeypatch.setattr(stresstests, "superposition_residual", blow_up)
    assert run_one("superposition", None, str(tmp_path / "blow_up"), {}) == (EXIT_NUMERICAL, None)
    assert _partial_verdict(tmp_path / "blow_up", "superposition")["error"] == "non-finite state at t=0.05"
    assert multiprocessing.active_children() == []


def test_superposition_kernel_abort_names_its_time(tmp_path, monkeypatch):
    # non-finite packets blow up every beta > 0 row at its first kick; the
    # worker's abort reaches exit 3 naming the time of that state.  The
    # forked workers inherit the errstate that silences NaN arithmetic.
    monkeypatch.setattr(stresstests, "_packet", lambda grid, center, sigma: np.full(grid.n, np.nan, complex))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n": 256, "t_final": 0.05}))
    with np.errstate(invalid="ignore"):
        code = main(["superposition", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert _partial_verdict(tmp_path / "out", "superposition")["error"] == "non-finite state at t=0"
    assert multiprocessing.active_children() == []


def test_superposition_beta_list_order_is_free(tmp_path):
    # a config lists its couplings in any order; the table and the drops
    # between neighbours follow ascending beta
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n": 1024, "beta_list": [0.05, 0.0, 0.005, 0.02]}))
    run_one("superposition", str(p), str(tmp_path), {})
    checks = json.loads((tmp_path / "superposition.verdict.json").read_text())["thresholds"]
    assert checks["monotone_in_beta"]["pass"] and checks["plateau_jitter"]["pass"]
    body = (tmp_path / "superposition.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in body[1:]] == [0.0, 0.005, 0.02, 0.05]


def test_runner_value_error_writes_partial_verdict(tmp_path):
    # t_final 0.2 leaves the alpha scan and the continuity curve no interior
    # snapshot: continuity_curve raises ValueError
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n": 1024, "t_final": 0.2}))
    for test in ("scan-alpha", "continuity"):
        code, verdict = run_one(test, str(p), str(tmp_path), {})
        assert (code, verdict) == (EXIT_CONFIG, None)
        payload = _partial_verdict(tmp_path, test)
        assert payload["exit_code"] == EXIT_CONFIG
        assert payload["error"] == "trajectory has no interior snapshots"
        assert payload["config"]["t_final"] == 0.2
        assert main([test, "--config", str(p), "--out", str(tmp_path / "main")]) == EXIT_CONFIG


def test_numerical_abort_writes_partial_verdict(tmp_path, monkeypatch, capsys):
    def abort(*args, **kwargs):
        raise NumericalAbort("non-finite state at t=0.1")

    monkeypatch.setattr(cli, "evolve", abort)
    code, verdict = run_one("continuity", None, str(tmp_path), {"n": 1024})
    assert (code, verdict) == (EXIT_NUMERICAL, None)
    payload = _partial_verdict(tmp_path, "continuity")
    assert payload["exit_code"] == EXIT_NUMERICAL
    assert payload["error"] == "non-finite state at t=0.1"
    assert payload["config"] == dict(DEFAULTS["continuity"], n=1024)
    # run-all's summary and table carry the runtime that the partial verdict records
    monkeypatch.setattr(cli, "RUNNERS", {"continuity": cli.RUNNERS["continuity"]})
    capsys.readouterr()
    assert run_all(str(tmp_path), str(tmp_path / "all")) == EXIT_FALSIFIED
    [row] = json.loads((tmp_path / "all" / "summary.json").read_text())
    payload = _partial_verdict(tmp_path / "all" / "continuity", "continuity")
    assert row["exit_code"] == EXIT_NUMERICAL
    assert row["runtime_s"] == payload["runtime_s"] > 0
    table_row = capsys.readouterr().out.splitlines()[1]
    assert table_row.split() == ["continuity", "abort", f"{payload['runtime_s']:.1f}s"]


def test_time_reversal_verdict_makes_four_evolutions(tmp_path, monkeypatch):
    # two at D, two at D = 0: the D = 0 involution is run once and is both
    # defect_d0 and the floor of floor_ratio
    diffusions = []
    strang = stresstests._strang

    def counted(V, grid, dt, constants, spec):
        advance = strang(V, grid, dt, constants, spec)

        def counted_advance(values, n_steps, t0=0.0):
            diffusions.append(spec.D)
            return advance(values, n_steps, t0)
        return counted_advance

    monkeypatch.setattr(stresstests, "_strang", counted)
    code, verdict = run_one("time-reversal", None, str(tmp_path), {})
    assert code == EXIT_PASS and sorted(diffusions) == [0.0, 0.0, 0.05, 0.05]
    assert verdict.measured["floor_ratio"] == verdict.measured["defect_diffusive"] / verdict.measured["defect_d0"]


def test_density_diffusion_aborts_at_first_non_finite_step(tmp_path):
    # at D = 40 (dt*D/h^2 = 65.5) the exact density flow stays finite, and
    # dg-entropy aborts in its DG wavefunction run, at that run's first step
    with np.errstate(over="ignore", invalid="ignore"):
        code, verdict = run_one("dg-entropy", None, str(tmp_path), {"diffusion": 40.0})
    assert (code, verdict) == (EXIT_NUMERICAL, None)
    assert _partial_verdict(tmp_path, "dg-entropy")["error"] == "non-finite state at t=0.01"


def test_dg_entropy_at_zero_diffusion_is_a_config_error(tmp_path):
    # the rate errors are relative to D I_F, which is 0 at D = 0: the run exits 2
    # before any evolution, with a partial verdict that names the setting
    code, verdict = run_one("dg-entropy", None, str(tmp_path), {"diffusion": 0.0})
    assert (code, verdict) == (EXIT_CONFIG, None)
    assert _partial_verdict(tmp_path, "dg-entropy")["error"] == "dg-entropy needs diffusion > 0, got 0"
    assert not (tmp_path / "dg_entropy.csv").exists()


def _unrelated_packet(grid, k, center, chirp):
    """A chirped, modulated packet that no evolution made."""
    x = grid.axes[0] - center
    amp = (1.0 + 0.3 * np.cos(0.7 * x + k)) * np.exp(-(x**2) / (2.0 * (1.0 + 0.1 * k) ** 2))
    return WaveField(grid, amp * np.exp(1j * (0.4 * k * x + chirp * x**2))).normalized()


def test_model_derived_rows_pass_on_fields_no_dynamics_produced(tmp_path, monkeypatch):
    # scan-alpha, continuity and complexifier take S_t and rho_t from the linear
    # model at the config's hbar and m, not from the data: fed packets that no
    # evolution made, every one of their rows still passes, and the rows say so
    grid = make_grid(1, DEFAULTS["scan-alpha"]["n"], DEFAULTS["scan-alpha"]["length"])
    snaps = [(0.2 * i, _unrelated_packet(grid, 0.1 * i, grid.length / 2 + 0.3 * i, 0.02 * (i - 9) + 0.01))
             for i in range(19)]
    traj = Trajectory(snaps, EvolutionSpec(dt=DEFAULTS["scan-alpha"]["dt"]))
    monkeypatch.setattr(cli, "_table1_trajectory", lambda cfg, constants, D=0.0: (traj, np.zeros(grid.shape), grid))

    def two_unrelated_fields(psi0, V, spec, constants):
        return Trajectory([(0.0, psi0)] + [(t, _unrelated_packet(psi0.grid, k, 21.0, chirp))
                                           for t, k, chirp in [(0.35, 1.0, 0.05), (0.7, 2.5, -0.03)]], spec)

    monkeypatch.setattr(cli, "evolve", two_unrelated_fields)
    model_rows = {"scan-alpha": {"argmin_tol", "min_r_hj_low", "min_r_hj_high", "mean_r_cont", "boundary"},
                  "continuity": {"mean_r_cont"},
                  "complexifier": {"argmin_polar_cell", "minimum_cells", "floor", "off_cell_wall"}}
    for test, names in model_rows.items():
        code, verdict = run_one(test, None, str(tmp_path), {})
        assert code == EXIT_PASS and set(verdict.thresholds) >= names
        assert all("model-derived" in verdict.thresholds[name]["source"] for name in names)
    assert "model-derived" in dict((row[0], row[3]) for row in CHECKS["scan-alpha"])["argmin_refined_tol"]

    # the D = 0 flow adds expm1(0) = 0: any density stays bit for bit, at entropy rate 0.0
    rho = _unrelated_packet(make_grid(1, 512, 40.0), 1.0, 20.0, 0.05).density()
    spec = EvolutionSpec(kind="density_diffusion", dt=0.01, t_final=0.3, record_stride=10, D=0.0)
    rho_traj = evolve_density_diffusion(rho, spec, make_grid(1, 512, 40.0))
    assert all(np.array_equal(r, rho) for _, r in rho_traj.snapshots)
    assert np.all(shannon_entropy_rate(rho_traj)[1] == 0.0)
    assert "an identity" in dict((row[0], row[3]) for row in CHECKS["dg-entropy"])["zero_diffusion_rate"]


def test_time_reversal_at_zero_diffusion_is_a_config_error(tmp_path, monkeypatch):
    # floor_ratio divides the diffusive defect by the D = 0 one, the same
    # involution at D = 0: the run exits 2 before any evolution, with a partial
    # verdict that names the setting, not 1 as if falsified
    diffusions = []
    monkeypatch.setattr(stresstests, "_strang", lambda V, grid, dt, constants, spec:
                        lambda values, n_steps, t0=0.0: diffusions.append(spec.D))
    code, verdict = run_one("time-reversal", None, str(tmp_path), {"diffusion": 0.0})
    assert (code, verdict) == (EXIT_CONFIG, None)
    assert _partial_verdict(tmp_path, "time-reversal")["error"] == "time-reversal needs diffusion > 0, got 0"
    assert not (tmp_path / "time_reversal.csv").exists()
    assert diffusions == []


@pytest.mark.parametrize("test, user, error", [
    ("time-reversal", {"t_final": 0.0}, "time-reversal needs t_final > 0, got 0"),
    ("complexifier", {"t_final": 0.0},
     "complexifier_scan needs a snapshot, got none: an evolution to t_final = 0 records none"),
    ("superposition", {"t_final": 0.0}, "superposition needs t_final > 0, got 0"),
    ("superposition", {"t_final": 2.1025}, "horizon 2.1025 is not a whole number of steps dt 0.005"),
    ("galilei", {"t": 0.405}, "horizon 0.405 is not a whole number of steps dt 0.01"),
    ("scan-alpha", {"t_final": 3.63}, "horizon 3.63 is not a whole number of steps dt 0.02"),
    ("continuity", {"t_final": 3.63}, "horizon 3.63 is not a whole number of steps dt 0.02"),
    ("dg-entropy", {"t_final": 2.005}, "horizon 2.005 is not a whole number of steps dt 0.01"),
    ("time-reversal", {"t_final": 2.005}, "horizon 2.005 is not a whole number of steps dt 0.01"),
    ("complexifier", {"t_final": 0.7025}, "horizon 0.7025 is not a whole number of steps dt 0.005"),
    ("scan-alpha", {"snapshot_interval": 0.25}, "snapshot interval 0.25 is not a whole number of steps dt 0.02"),
    ("continuity", {"snapshot_interval": 0.25}, "snapshot interval 0.25 is not a whole number of steps dt 0.02"),
    ("continuity", {"snapshot_interval": 0}, "snapshot interval must be positive, got 0"),
    ("continuity", {"snapshot_interval": 1e-12}, "snapshot interval 1e-12 is shorter than one step dt 0.02"),
    ("dg-entropy", {"snapshot_interval": 0.3}, "horizon 2 is not a whole number of snapshot intervals 0.3"),
    ("complexifier", {"snapshot_interval": 0.3}, "horizon 0.7 is not a whole number of snapshot intervals 0.3"),
    # dg-entropy's DG wavefunction run samples every 0.25
    ("dg-entropy", {"dt": 0.02}, "snapshot interval 0.25 is not a whole number of steps dt 0.02"),
], ids=["time-reversal-zero", "complexifier-zero", "superposition-zero", "superposition-split", "galilei-split",
        "scan-alpha-split", "continuity-split", "dg-entropy-split", "time-reversal-split", "complexifier-split",
        "scan-alpha-interval-split", "continuity-interval-split", "continuity-interval-zero",
        "continuity-interval-below-a-step",
        "dg-entropy-interval-ragged", "complexifier-interval-ragged", "dg-entropy-dt"])
def test_horizon_the_suite_cannot_measure_is_a_config_error(tmp_path, test, user, error):
    # a horizon of zero steps evolves nothing, so a verdict would read its
    # start state, not the physics.  A horizon that is not a whole number of
    # steps would be rounded to one the verdict's config does not state (3.64
    # for 3.63 at dt 0.02), or stop superposition's base grid (t = 2.1 here)
    # before its refined one (t = 2.1025), or build galilei's K at a time the
    # state never reaches; EvolutionSpec refuses it in every time-stepping
    # suite.  So it refuses a snapshot interval that is not a whole number of
    # steps (0.25 at dt 0.02 once recorded every 0.24), one of zero (once
    # every step) or of less than a step (1e-12, once refused only as a
    # stride below 1), and one that does not divide the horizon, whose shorter last
    # interval dg-entropy's centred rate misread (4.4e-3 against <= 1e-4 at
    # 0.3).  Each exits 2 with a partial verdict that names the setting, not 0
    # or 1, and writes no CSV.
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(user))
    code, verdict = run_one(test, str(p), str(tmp_path), {})
    assert (code, verdict) == (EXIT_CONFIG, None)
    assert _partial_verdict(tmp_path, test)["error"] == error
    assert not (tmp_path / f"{test.replace('-', '_')}.csv").exists()


def test_every_default_horizon_is_whole_steps():
    # each time-stepping suite's default horizons, on each time grid it runs
    # (scan-alpha's refined dt/4, superposition's dt/2), are ones
    # EvolutionSpec accepts, and each default snapshot interval is a whole
    # number of steps that divides its horizon (dg-entropy's DG wavefunction
    # run samples every 0.25 to 1.0): an edit to a default cannot make a
    # suite refuse its own defaults
    grids = {"scan-alpha": (1, 4), "superposition": (1, 2)}
    runs = {test: [(cfg.get("t_final", cfg.get("t")), cfg.get("snapshot_interval"))]
            for test, cfg in DEFAULTS.items() if "dt" in cfg}
    runs["dg-entropy"].append((1.0, 0.25))
    assert set(runs) == {"scan-alpha", "continuity", "dg-entropy", "time-reversal", "galilei",
                         "complexifier", "superposition"}
    assert {test for test, horizons in runs.items() if horizons[0][1] is not None} == {
        "scan-alpha", "continuity", "dg-entropy", "complexifier"}
    for test, horizons in runs.items():
        for factor in grids.get(test, (1,)):
            dt = DEFAULTS[test]["dt"] / factor
            for t_final, interval in horizons:
                if interval is None:
                    EvolutionSpec(dt=dt, t_final=t_final)
                else:
                    EvolutionSpec.sampled("linear", dt, t_final, interval)


@pytest.mark.parametrize("t, n_steps", [(0.29, 29), (0.57, 57)])
def test_galilei_evolves_its_horizon_in_one_chunk(tmp_path, monkeypatch, t, n_steps):
    # t / dt falls just under a whole number here (0.29 / 0.01 is
    # 28.999999999999996): the free flow still runs as one chunk, one exact
    # kinetic factor, not as 28 + 1 steps
    specs = []
    evolve = cli.evolve
    monkeypatch.setattr(cli, "evolve", lambda psi, V, spec, c: specs.append(spec) or evolve(psi, V, spec, c))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"t": t}))
    code, _ = run_one("galilei", str(p), str(tmp_path), {})
    assert code == EXIT_PASS
    assert [(spec.record_stride, spec.n_steps) for spec in specs] == [(n_steps, n_steps)]


@pytest.mark.parametrize("user, error", [
    ({"p_grid": [0.3, 0.4, 0.45, 0.55, 0.6, 0.7]}, "complexifier p_grid must hold the polar cell p = 0.5"),
    ({"s_grid": [0.8, 0.9, 1.1, 1.25]}, "complexifier s_grid must hold the polar cell s hbar = 1"),
    ({"p_grid": [0.45, 0.5, 0.55]},
     "complexifier p_grid must hold a cell at least 0.1 from p = 0.5 for off_cell_wall"),
], ids=["no-polar-p", "no-polar-s", "no-wall-cell"])
def test_complexifier_grid_without_its_cells_is_a_config_error(tmp_path, user, error):
    # without the polar cell argmin_polar_cell was judged against the nearest
    # cell (exit 1, floor 1.7e-2 with no s hbar = 1), and without a cell 0.1
    # from p = 1/2 off_cell_wall took the minimum of no cell: each exits 2
    # with a partial verdict that names the missing cell, and writes no CSV
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(user))
    assert run_one("complexifier", str(p), str(tmp_path), {}) == (EXIT_CONFIG, None)
    assert _partial_verdict(tmp_path, "complexifier")["error"] == error
    assert not (tmp_path / "complexifier.csv").exists()


def test_complexifier_wall_holds_the_cells_a_tenth_from_the_polar_cell(tmp_path):
    # |0.4 - 0.5| and |0.6 - 0.5| are 0.09999999999999998 in floating point:
    # both are wall cells, at least 0.1 from p = 1/2 as the rule reads
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"p_grid": [0.4, 0.5, 0.6]}))
    code, verdict = run_one("complexifier", str(p), str(tmp_path), {})
    assert code == EXIT_PASS
    rows = np.loadtxt(tmp_path / "complexifier.csv", delimiter=",", skiprows=1)
    assert verdict.measured["off_cell_wall"] == rows[rows[:, 0] != 0.5, 2].min()


@pytest.mark.parametrize("test, user, error", [
    ("scan-alpha", {"n": 1024, "mask_eps": 2.0}, "continuity residual: empty mask"),
    ("continuity", {"n": 1024, "mask_eps": 2.0}, "continuity residual: empty mask"),
    ("fisher-el", {"mask_eps": 2.0}, "el residual: empty mask"),
    ("fisher-el", {"node_mask_halfwidth": 100.0}, "el residual: empty mask"),
    ("complexifier", {"mask_eps": 2.0}, "complexifier scan: empty mask"),
], ids=["scan-alpha", "continuity", "fisher-el", "fisher-el-node-cut", "complexifier"])
def test_empty_mask_is_a_config_error(tmp_path, test, user, error):
    # no site has rho > 2 max(rho), and no site of a box of half-width 20 lies
    # 100 from its centre: a quotient over an empty mask reads 0 whatever the
    # field (fisher-el's Fisher rows and complexifier's floor once passed so).
    # Each exits 2 with a partial verdict that names the empty mask.
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(user))
    assert run_one(test, str(p), str(tmp_path), {}) == (EXIT_CONFIG, None)
    assert _partial_verdict(tmp_path, test)["error"] == error
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".csv")]


def test_every_outcome_writes_one_key_set(tmp_path, monkeypatch):
    # a pass, a failed check row, a config the runner refuses and a numerical
    # abort each write the same keys, the exit code that run_one returns, and
    # an error exactly when the run measured nothing
    def abort(*args, **kwargs):
        raise NumericalAbort("non-finite state at t=0.1")

    runs = {"pass": run_one("circulation", None, str(tmp_path / "pass"), {"n": 128}),
            "config": run_one("dg-entropy", None, str(tmp_path / "config"), {"diffusion": 0.0})}
    monkeypatch.setattr(cli, "evolve", abort)
    runs["abort"] = run_one("continuity", None, str(tmp_path / "abort"), {"n": 1024})
    monkeypatch.setitem(CHECKS, "circulation", [(name, op, -1.0 if name == "max_integer_gap" else bound, source)
                                                for name, op, bound, source in CHECKS["circulation"]])
    runs["falsified"] = run_one("circulation", None, str(tmp_path / "falsified"), {"n": 128})
    assert {name: code for name, (code, _) in runs.items()} == {
        "pass": EXIT_PASS, "config": EXIT_CONFIG, "abort": EXIT_NUMERICAL, "falsified": EXIT_FALSIFIED}
    for name, (code, verdict) in runs.items():
        [path] = (tmp_path / name).glob("*.verdict.json")
        payload = json.loads(path.read_text())
        assert set(payload) == VERDICT_KEYS
        assert payload["exit_code"] == code and payload["pass"] == (code == EXIT_PASS)
        measured = code in (EXIT_PASS, EXIT_FALSIFIED)
        assert (payload["error"] is None) == (verdict is not None) == measured
        assert bool(payload["thresholds"]) == measured


@pytest.mark.parametrize("radius, side", [(10.0, 256), (12.0, 308)])
def test_circulation_loop_wider_than_box_is_a_config_error(tmp_path, radius, side):
    # a loop of 2 r_cells >= n cells a side wraps the periodic box: the run
    # exits 2 with a partial verdict that names the loop, not 1 as if falsified
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"loop_radius": radius, "mask_eps": 1e-300}))
    code, verdict = run_one("circulation", str(p), str(tmp_path), {})
    assert (code, verdict) == (EXIT_CONFIG, None)
    payload = _partial_verdict(tmp_path, "circulation")
    assert payload["error"] == (f"loop of {side} cells a side (loop_radius {radius:g}) does not fit "
                                "inside the periodic box of 256 cells")
    assert not (tmp_path / "circulation.csv").exists()


@pytest.mark.parametrize("test, user, failed, measured", [
    # a mass too heavy for the grid puts its scan minimum on the edge c = 1.5
    ("fisher-el", {"masses": [1.0, 1e4]}, "multi_mass_argmins", 0.5),
    # diffusion too weak to break the drift-only continuity law (> 1e-3)
    ("continuity", {"diffusion": 0.015}, "mean_r_cont_broken", 9.3293e-4),
    # diffusion too weak to break the involution by orders of magnitude (>= 1e3)
    ("time-reversal", {"diffusion": 1e-12}, "floor_ratio", 103.61),
], ids=["fisher-el-heavy-mass", "continuity-weak-diffusion", "time-reversal-weak-diffusion"])
def test_physics_failing_input_fails_its_row(tmp_path, test, user, failed, measured):
    # an input whose physics fails one check row: a full verdict whose only
    # failed row on disk is that one, with exit 1, not an exit 2
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(user))
    code, verdict = run_one(test, str(p), str(tmp_path), {})
    assert code == EXIT_FALSIFIED and verdict is not None
    payload = json.loads((tmp_path / f"{test}.verdict.json").read_text())
    assert {name for name, check in payload["thresholds"].items() if not check["pass"]} == {failed}
    assert payload["thresholds"][failed]["measured"] == pytest.approx(measured, rel=1e-4)


@pytest.mark.parametrize("test, user", [
    ("continuity", {"sigma0": 0.0}),
    ("time-reversal", {"sigma0": 0.0}),
    ("complexifier", {"omega": 0.0}),
    ("superposition", {"omega": 0.0}),
    ("galilei", {"dt": 0.0}),
    ("superposition", {"eps_reg": 0.0}),
    ("superposition", {"beta_list": [-0.01, 0.0, 0.005, 0.01, 0.02, 0.05]}),
    ("complexifier", {"s_grid": [0.0, 0.8, 0.9, 1.0, 1.1, 1.25]}),
    ("complexifier", {"s_grid": [-1.0, 0.8, 0.9, 1.0, 1.1, 1.25]}),
])
def test_zero_divisor_is_a_config_error(tmp_path, test, user):
    # a config whose zero a runner divides by cannot be measured: exit 2 with
    # a partial verdict, not a traceback
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(user))
    code, verdict = run_one(test, str(p), str(tmp_path), {})
    assert (code, verdict) == (EXIT_CONFIG, None)
    payload = _partial_verdict(tmp_path, test)
    assert payload["exit_code"] == EXIT_CONFIG
    assert payload["config"] == dict(DEFAULTS[test], **user)


@pytest.mark.parametrize("test, overrides, row", [
    ("continuity", {"n": 1024}, "mean_r_cont"),
    ("circulation", {"n": 128}, "max_line_area_rel_gap"),
    ("galilei", {}, "hk_plus_p"),
    ("complexifier", {}, "max_density_rate"),
])
def test_failed_check_is_named_on_disk(tmp_path, monkeypatch, test, overrides, row):
    # a bound moved past its measured value fails that check alone, with exit 1
    past = -1.0 if dict((name, op) for name, op, _, _ in CHECKS[test])[row] == "<=" else 1e300
    rows = [(name, op, past if name == row else bound, source) for name, op, bound, source in CHECKS[test]]
    monkeypatch.setitem(CHECKS, test, rows)
    code, verdict = run_one(test, None, str(tmp_path), overrides)
    assert code == EXIT_FALSIFIED and not verdict.passed
    payload = json.loads((tmp_path / f"{test}.verdict.json").read_text())
    assert payload["pass"] is False
    assert {name for name, check in payload["thresholds"].items() if not check["pass"]} == {row}
    assert payload["thresholds"][row]["value"] == past


# Every row of the check table.  Rows marked with a criterion repeat the
# literal bound of that criterion in tests/test_acceptance.py.
EXPECTED_CHECKS = {
    ("scan-alpha", "argmin_tol"): ("<=", 0.025),  # criterion 1
    ("scan-alpha", "min_r_hj_low"): (">=", 1e-4),  # criterion 1
    ("scan-alpha", "min_r_hj_high"): ("<=", 1e-2),  # criterion 1
    ("scan-alpha", "mean_r_cont"): ("<=", 1e-6),  # criterion 1
    ("scan-alpha", "boundary"): ("==", False),
    ("scan-alpha", "argmin_refined_tol"): ("<=", 0.025),  # criterion 1
    ("continuity", "mean_r_cont"): ("<=", 1e-6),  # criterion 1
    ("continuity", "mean_r_cont_broken"): (">", 1e-3),
    ("dg-entropy", "max_rel_rate_error"): ("<=", 1e-4),  # criterion 5
    ("dg-entropy", "zero_diffusion_rate"): ("<=", 1e-10),  # criterion 5
    ("dg-entropy", "dg_identity_rel_error"): ("<=", 1e-6),  # criterion 5
    ("dg-entropy", "min_entropy_rate"): (">", 0.0),
    ("circulation", "max_integer_gap"): ("<=", 1e-6),  # criterion 10
    ("circulation", "max_line_area_rel_gap"): ("<=", 1e-6),  # criterion 10
    ("fisher-el", "fisher_worst_residual"): ("<=", 1e-9),  # criterion 7
    ("fisher-el", "non_fisher_best_residual"): (">=", 1e-3),  # criterion 7
    ("fisher-el", "excited_scan_argmin"): ("<=", 0.01),  # criterion 7
    ("fisher-el", "multi_mass_argmins"): ("<=", 0.01),
    ("time-reversal", "defect_d0"): ("<=", 1e-10),  # criterion 9
    ("time-reversal", "floor_ratio"): (">=", 1e3),  # criterion 9
    ("galilei", "hp"): ("<=", 1e-10),  # criterion 6
    ("galilei", "hk_plus_p"): ("<=", 1e-8),  # criterion 6
    ("galilei", "pk_plus_m"): ("<=", 1e-10),  # criterion 6
    ("complexifier", "argmin_polar_cell"): ("==", True),  # criterion 8
    ("complexifier", "minimum_cells"): ("==", 1),  # criterion 8
    ("complexifier", "floor"): ("<=", 1e-6),  # criterion 8
    ("complexifier", "off_cell_wall"): (">", 1e-2),  # criterion 8
    ("complexifier", "max_density_rate"): (">=", 1e-14),
    ("superposition", "linear_floor"): ("<=", 1e-10),  # criterion 4
    ("superposition", "linear_floor_refined"): ("<=", 1e-10),  # criterion 4
    ("superposition", "beta_0.005_low"): (">=", 0.08),  # criterion 4
    ("superposition", "beta_0.005"): ("<=", 0.35),  # criterion 4
    ("superposition", "beta_0.02_0.05_low"): (">=", 1.2),  # criterion 4
    ("superposition", "beta_0.02_0.05"): ("<=", 1.45),  # criterion 4
    ("superposition", "refinement_ratio"): (">=", 0.9),  # criterion 4
    ("superposition", "monotone_in_beta"): ("<=", 1e-12),  # criterion 4
    ("superposition", "plateau_jitter"): ("<=", 0.05),  # criterion 4
}


def test_check_table_matches_acceptance_bounds():
    table = {(test, name): (op, bound) for test, rows in CHECKS.items() for name, op, bound, _ in rows}
    assert table == EXPECTED_CHECKS
    assert set(CHECKS) == set(DEFAULTS)
    # rows that hold for any input at adequate resolution say so
    identities = {(test, name) for test, rows in CHECKS.items() for name, _, _, source in rows
                  if "an identity" in source}
    assert identities == {
        ("dg-entropy", "max_rel_rate_error"), ("dg-entropy", "zero_diffusion_rate"),
        ("dg-entropy", "dg_identity_rel_error"), ("dg-entropy", "min_entropy_rate"),
        ("circulation", "max_integer_gap"), ("circulation", "max_line_area_rel_gap"),
        ("time-reversal", "defect_d0"), ("superposition", "linear_floor"), ("superposition", "linear_floor_refined"),
        ("galilei", "hp"), ("galilei", "hk_plus_p"), ("galilei", "pk_plus_m"),
    }


@pytest.mark.parametrize("op, bound, inside, outside", [
    ("<=", 1.0, 1.0, 1.5),
    (">=", 1.0, 1.0, 0.5),
    ("<", 1.0, 0.5, 1.0),
    (">", 1.0, 1.5, 1.0),
    ("==", 1, 1, 2),
])
def test_each_op_fails_on_wrong_side(monkeypatch, op, bound, inside, outside):
    monkeypatch.setitem(CHECKS, "probe", [("x", op, bound, "probe row")])
    assert evaluate_checks("probe", {"x": inside})["x"]["pass"] is True
    assert evaluate_checks("probe", {"x": outside})["x"]["pass"] is False
    assert evaluate_checks("probe", {"x": float("nan")})["x"]["pass"] is False


def test_check_values_must_match_rows():
    # a drift between a runner and its rows is a fault of the program, not a
    # config error: it must not be a ValueError, which run_one reports as exit 2
    with pytest.raises(RuntimeError):
        evaluate_checks("circulation", {"max_integer_gap": 0.0})
    with pytest.raises(RuntimeError):
        evaluate_checks("circulation", {"max_integer_gap": 0.0, "max_line_area_rel_gap": 0.0, "extra": 0.0})
    # a row whose value is None does not apply to this run and is left out
    checks = evaluate_checks("continuity", {"mean_r_cont": 0.5, "mean_r_cont_broken": None})
    assert list(checks) == ["mean_r_cont"] and checks["mean_r_cont"]["pass"] is False
