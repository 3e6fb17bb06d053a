"""CLI surface: configs, exit codes, artefact determinism, verdict round-trip."""
import argparse
import json
import os

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
from fisher_hydro.propagate import NumericalAbort, evolve


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


@pytest.mark.parametrize("test, key", [("dg-entropy", "mask_eps"), ("time-reversal", "mask_eps"),
                                       ("galilei", "mask_eps"), ("circulation", "mass")])
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


def test_verdict_json_schema(tmp_path):
    _, verdict = run_one("circulation", None, str(tmp_path / "out"), {})
    payload = json.loads((tmp_path / "out" / "circulation.verdict.json").read_text())
    assert payload["test"] == "circulation"
    assert set(payload) >= {"measured", "thresholds", "pass", "runtime_s", "grid", "config"}
    for entry in payload["thresholds"].values():
        assert set(entry) == {"value", "source", "op", "measured", "pass"}
    assert payload["grid"]["n"] == DEFAULTS["circulation"]["n"]


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
                        lambda config, constants: [{"beta": b, "base": 1.3, "refined": 1.3} for b in config.beta_list])
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


def test_run_all_malformed_worker_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FISHER_HYDRO_WORKERS", "two")
    assert main(["run-all", str(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error: FISHER_HYDRO_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_diffusive_continuity_breaks_drift_form(tmp_path):
    cfg = {"n": 1024, "t_final": 1.0, "diffusion": 0.05, "dt": 0.01}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, verdict = run_one("continuity", str(p), str(tmp_path / "out"), {})
    assert code == EXIT_PASS
    assert verdict.measured["mean_r_cont"] > 1e-3


def test_run_all_summary(tmp_path, monkeypatch):
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
    monkeypatch.setenv("FISHER_HYDRO_WORKERS", "2")
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
    assert list(verdict["thresholds"]) == ["bracket_gap_over_tolerance"]
    assert verdict["pass"] == galilei["pass"]
    # superposition's own state threads nest inside the suite pool and leave
    # its residuals as a serial run writes them
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


def test_beta_flag_appends_to_config_beta_list(tmp_path, monkeypatch):
    # --beta extends the effective list (config file included), not the defaults
    seen = []

    def fake_curve(config, constants):
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
    assert set(payload) == {"test", "pass", "exit_code", "error", "runtime_s", "grid", "config",
                            "version", "timestamp"}
    assert payload["pass"] is False
    return payload


def test_superposition_falling_residual_fails_its_row(tmp_path, monkeypatch):
    # the residual falls from beta = 0.005 to 0.01: a full verdict whose only
    # failed row is monotone_in_beta, with exit 1 and the table on disk
    table = {0.0: 0.0, 0.005: 0.2, 0.01: 0.15, 0.02: 1.35, 0.05: 1.36}
    monkeypatch.setattr(stresstests, "superposition_residual",
                        lambda config, beta, refined=False, constants=None: table[beta])
    code, verdict = run_one("superposition", None, str(tmp_path), {})
    assert code == EXIT_FALSIFIED and not verdict.passed
    payload = json.loads((tmp_path / "superposition.verdict.json").read_text())
    assert {name for name, check in payload["thresholds"].items() if not check["pass"]} == {"monotone_in_beta"}
    assert payload["measured"]["monotone_in_beta"] == pytest.approx(0.05)
    assert payload["measured"]["plateau_jitter"] == pytest.approx(-0.01)
    body = (tmp_path / "superposition.csv").read_text().splitlines()
    assert [float(row.split(",")[1]) for row in body[1:]] == list(table.values())


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
    # t_final 0.2 leaves the alpha scan no interior snapshot: alpha_scan raises ValueError
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n": 1024, "t_final": 0.2}))
    code, verdict = run_one("scan-alpha", str(p), str(tmp_path), {})
    assert (code, verdict) == (EXIT_CONFIG, None)
    payload = _partial_verdict(tmp_path, "scan-alpha")
    assert payload["exit_code"] == EXIT_CONFIG
    assert payload["error"] == "trajectory has no interior snapshots"
    assert payload["config"]["t_final"] == 0.2
    assert main(["scan-alpha", "--config", str(p), "--out", str(tmp_path / "main")]) == EXIT_CONFIG


def test_numerical_abort_writes_partial_verdict(tmp_path, monkeypatch, capsys):
    def abort(*args, **kwargs):
        raise NumericalAbort("non-finite state at t=0.1")

    monkeypatch.setattr(cli, "evolve", abort)
    code, verdict = run_one("continuity", None, str(tmp_path), {"n": 1024})
    assert (code, verdict) == (EXIT_NUMERICAL, None)
    payload = _partial_verdict(tmp_path, "continuity")
    assert payload["exit_code"] == EXIT_NUMERICAL
    assert payload["error"] == "non-finite state at t=0.1"
    assert payload["grid"] == {"n": 1024, "dt": 0.02, "length": 122.88}
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

    def counted(psi0, V, spec, constants):
        diffusions.append(spec.D)
        return evolve(psi0, V, spec, constants)

    monkeypatch.setattr(stresstests, "evolve", counted)
    code, verdict = run_one("time-reversal", None, str(tmp_path), {})
    assert code == EXIT_PASS and sorted(diffusions) == [0.0, 0.0, 0.05, 0.05]
    assert verdict.measured["floor_ratio"] == verdict.measured["defect_diffusive"] / verdict.measured["defect_d0"]


def test_density_diffusion_aborts_at_first_non_finite_step(tmp_path):
    # the first non-finite step is at t = 0.33, not the next snapshot at t = 0.4
    with pytest.warns(RuntimeWarning) as caught:
        code, verdict = run_one("dg-entropy", None, str(tmp_path), {"diffusion": 40.0})
    assert "dt*D/h^2 = 65.536 > 0.25: explicit step may be unstable" in [str(w.message) for w in caught]
    assert (code, verdict) == (EXIT_NUMERICAL, None)
    assert _partial_verdict(tmp_path, "dg-entropy")["error"] == "non-finite density at t=0.33 (dt*D/h^2 = 65.5)"


def test_multi_mass_edge_minimum_fails_its_row(tmp_path):
    # a mass too heavy for the grid puts its scan minimum on the edge c = 1.5:
    # a full verdict whose failed row is multi_mass_argmins, not an exit 2
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"masses": [1.0, 1e4]}))
    code, verdict = run_one("fisher-el", str(p), str(tmp_path), {})
    assert code == EXIT_FALSIFIED and verdict.measured["multi_mass_argmins"]["10000"] == 1.5
    payload = json.loads((tmp_path / "fisher-el.verdict.json").read_text())
    assert {name for name, check in payload["thresholds"].items() if not check["pass"]} == {"multi_mass_argmins"}


@pytest.mark.parametrize("test, user", [
    ("continuity", {"sigma0": 0.0}),
    ("time-reversal", {"sigma0": 0.0}),
    ("complexifier", {"omega": 0.0}),
    ("superposition", {"omega": 0.0}),
    ("galilei", {"dt": 0.0}),
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
])
def test_failed_check_is_named_on_disk(tmp_path, monkeypatch, test, overrides, row):
    # a bound moved past its measured value fails that check alone, with exit 1
    rows = [(name, op, -1.0 if name == row else bound, source) for name, op, bound, source in CHECKS[test]]
    monkeypatch.setitem(CHECKS, test, rows)
    code, verdict = run_one(test, None, str(tmp_path), overrides)
    assert code == EXIT_FALSIFIED and not verdict.passed
    payload = json.loads((tmp_path / f"{test}.verdict.json").read_text())
    assert payload["pass"] is False
    assert {name for name, check in payload["thresholds"].items() if not check["pass"]} == {row}
    assert payload["thresholds"][row]["value"] == -1.0


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
    ("galilei", "bracket_gap_over_tolerance"): ("<=", 1.0),  # criterion 6, per-entry tolerances
    ("complexifier", "argmin_polar_cell"): ("==", True),  # criterion 8
    ("complexifier", "minimum_cells"): ("==", 1),  # criterion 8
    ("complexifier", "floor"): ("<=", 1e-6),  # criterion 8
    ("complexifier", "off_cell_wall"): (">", 1e-2),  # criterion 8
    ("complexifier", "uninformative"): ("==", False),
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
