import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kbmlab import acceptance
from kbmlab.cli import KEYS, build_parser, load_config, main, run, validate


def run_cli(argv):
    return main(argv)


def small_run_args(outdir, extra=()):
    return [
        "run",
        "--surface", "sphere",
        "--curvature", "1.0",
        "--l-max", "1",
        "--gamma-explicit", "5,10,100",
        "--out", str(outdir),
        *extra,
    ]


def test_run_writes_expected_artifacts(tmp_path):
    # exactly the documented set: per eta a json table, then the summary
    out = tmp_path / "out"
    manifest = run({"surface": {"l_max": 1}, "gamma_grid": {"explicit": [5.0, 10.0, 100.0]},
                    "outputs": {"directory": str(out)}})
    names = {p.name for p in out.iterdir()}
    tables = {f"table_{tag}.json" for tag in ("00_eta_0", "01_eta_2")}
    assert names == tables | {"summary.json"}
    assert sorted(manifest) == ["summary", "tables"]
    assert {Path(p).name for p in manifest["tables"]} == tables


def _lists(value):
    """Every list in a JSON value, nested ones included."""
    if isinstance(value, dict):
        return [found for v in value.values() for found in _lists(v)]
    if isinstance(value, list):
        return [value] + [found for v in value for found in _lists(v)]
    return []


def test_the_summary_holds_no_per_gamma_column(tmp_path):
    # each per-gamma value is written once, in the tables: no list of the
    # summary is as long as the grid; the grid reaches gamma < 4, where the
    # eta = 2 rows are collided and complex
    out = tmp_path / "out"
    assert run_cli(small_run_args(out, extra=("--gamma-explicit=1,2,3,5,10,100",))) == 0
    rows = json.loads((out / "table_01_eta_2.json").read_text())["rows"]
    assert any(row["collided"] for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert all(len(found) != len(rows) for found in _lists(summary))


# The keys of summary.json: its top level, each per_eta entry and mixing.
SUMMARY_KEYS = ["curvature", "mixing", "per_eta", "surface"]
PER_ETA_KEYS = ["converged", "eta", "fitted_rate", "max_tail_error", "tail_gamma_from",
                "tail_monotone"]
MIXING_KEYS = ["approaches_from_above", "eta1", "tail_fitted_rate", "tail_gap_to_eta1"]


def test_the_summary_holds_the_verdicts_only(tmp_path):
    # every value the tables hold is written there once: the curvature, a
    # table's multiplicity, collision radius, cutoff and last error, and
    # the eta_1 table's last Re lambda are read from the tables and the
    # top level, not repeated per eta or in the mixing report
    out = tmp_path / "out"
    assert run_cli(small_run_args(out, extra=("--gamma-explicit=1,2,3,5,10,100",))) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary) == SUMMARY_KEYS
    assert [sorted(entry) for entry in summary["per_eta"]] == 2 * [PER_ETA_KEYS]
    assert sorted(summary["mixing"]) == MIXING_KEYS
    tables = [json.loads(p.read_text()) for p in sorted(out.glob("table_*.json"))]
    assert [t["eta"] for t in tables] == [entry["eta"] for entry in summary["per_eta"]]
    assert all(t["curvature"] == summary["curvature"] == 1.0 for t in tables)
    eta2 = tables[1]
    assert (eta2["multiplicity"], {row["k_max"] for row in eta2["rows"]}) == (3, {1})
    assert eta2["empirical_r"] == pytest.approx(4.0, abs=0.05)
    assert eta2["rows"][-1]["abs_error"] == pytest.approx(8e-4, rel=1e-2)
    tail = eta2["rows"][-1]["re_lambda"]
    assert summary["mixing"]["tail_gap_to_eta1"] == tail - summary["mixing"]["eta1"]
    # eta = 4 (1 + sqrt(eta)) starts the tail
    assert summary["per_eta"][1]["tail_gamma_from"] == 4.0 * (1.0 + 2.0**0.5)


def test_table_schema_and_roundtrip(tmp_path):
    out = tmp_path / "out"
    run_cli(small_run_args(out))
    tables = [json.loads(p.read_text()) for p in sorted(out.glob("table_*.json"))]
    assert [sorted(t) for t in tables] == 2 * [
        ["curvature", "empirical_r", "eta", "label", "multiplicity", "rows"]
    ]
    assert all(sorted(row) == ["abs_error", "certificate", "collided", "curvature", "eta",
                               "gamma", "im_lambda", "k_max", "re_lambda", "residual", "simple"]
               for t in tables for row in t["rows"])
    # eta=2 table at gamma=5: closed-form lambda = 2.5; gamma is written as
    # its shortest repr and reads back exactly
    text = (out / "table_01_eta_2.json").read_text()
    assert '"gamma": 5.0,' in text
    first = json.loads(text)["rows"][0]
    assert first["gamma"] == 5.0
    assert first["re_lambda"] == pytest.approx(2.5, abs=1e-10)
    assert isinstance(first["simple"], bool)


def test_summary_contains_verdicts_and_mixing(tmp_path):
    out = tmp_path / "out"
    run_cli(small_run_args(out))
    summary = json.loads((out / "summary.json").read_text())
    etas = [row["eta"] for row in summary["per_eta"]]
    assert etas == [0.0, 2.0]
    assert summary["mixing"]["eta1"] == 2.0


def test_default_grid_sphere_run(tmp_path):
    # default log grid, three tables for eta = 0, 2, 6, verdicts in summary
    out = tmp_path / "out"
    code = run_cli(
        ["run", "--surface", "sphere", "--curvature", "1.0", "--l-max", "2",
         "--out", str(out)]
    )
    assert code == 0
    assert len(list(out.glob("table_*.json"))) == 3
    summary = json.loads((out / "summary.json").read_text())
    rows = {row["eta"]: row for row in summary["per_eta"]}
    assert set(rows) == {0.0, 2.0, 6.0}
    # closed form gives |lambda - eta| = 8/gamma^2 + O(gamma^-4) at eta = 2,
    # the last row of its table
    last = json.loads((out / "table_01_eta_2.json").read_text())["rows"][-1]
    assert last["abs_error"] == pytest.approx(8e-8, rel=1e-4)
    assert rows[2.0]["converged"] and rows[6.0]["converged"]
    first = json.loads((out / "table_00_eta_0.json").read_text())["rows"][0]
    assert first["gamma"] == 1.0  # default grid starts at gamma = 1


def test_run_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(small_run_args(out1))
    run_cli(small_run_args(out2))
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = {
        "surface": {"kind": "sphere", "K": 1.0, "l_max": 1},
        "gamma_grid": {"explicit": [10.0, 100.0]},
        "outputs": {"directory": str(tmp_path / "cfg_out")},
        "workers": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "flag_out"
    assert run_cli(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.exists()
    assert not (tmp_path / "cfg_out").exists()
    # the file's keys the flags leave alone still hold: l_max = 1, two gammas
    tables = sorted(p.name for p in out.glob("table_*"))
    assert tables == ["table_00_eta_0.json", "table_01_eta_2.json"]
    rows = json.loads((out / tables[1]).read_text())["rows"]
    assert [row["gamma"] for row in rows] == [10.0, 100.0]


def test_custom_surface_run(tmp_path):
    etas = {"entries": [[0.0, 1], [2.0, 1], [5.0, 1]]}
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps(etas))
    out = tmp_path / "out"
    code = run_cli(
        [
            "run",
            "--surface", "custom",
            "--curvature", "-1.0",
            "--custom-path", str(eta_path),
            "--gamma-explicit", "20,50",
            "--k-max", "24",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [row["eta"] for row in summary["per_eta"]] == [0.0, 2.0, 5.0]


def test_custom_surface_missing_zero_mode_fails(tmp_path, capsys):
    # SurfaceSpectrum rejects the list while the run builds its inputs
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[2.0, 1]]}))
    out = tmp_path / "out"
    code = run_cli(
        [
            "run",
            "--surface", "custom",
            "--curvature", "-1.0",
            "--custom-path", str(eta_path),
            "--out", str(out),
        ]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert "zero mode" in record["message"]
    assert json.loads((out / "errors.json").read_text()) == record


def test_invalid_config_is_rejected(tmp_path, capsys):
    code = run_cli(
        ["run", "--surface", "sphere", "--curvature", "-2.0", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"


def test_parser_help_lists_defaults():
    parser = build_parser()
    assert parser.format_help()  # smoke: --help content builds


@pytest.mark.parametrize("key", list(KEYS))
def test_each_flag_sets_its_own_key_and_shows_its_default(monkeypatch, capsys, key):
    # KEYS declares every config key once: its flag sets that key alone and
    # records where it was given, and run --help shows its default
    from kbmlab.cli import _apply_flags

    row = KEYS[key]
    text = row.check.choices[-1] if row.check.choices else "3"
    config = load_config(None)
    where = _apply_flags(config, build_parser().parse_args(["run", row.flag, text]))
    section, name = key.split(".")
    assert config == {**load_config(None), section: {name: row.check.parse(text)}}
    assert where == {key: f"by {row.flag}"}
    monkeypatch.setenv("COLUMNS", "200")  # one line per help text
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = capsys.readouterr().out
    entry = re.search(rf"\n  {re.escape(row.flag)} .*?(?=\n  -|\Z)", help_text, re.S).group()
    if row.default is None:
        assert "(default:" not in entry
    else:
        assert f"(default: {row.default})" in entry


def test_a_config_of_every_key_a_sphere_reads_at_its_default_writes_the_same_bytes(
    tmp_path, monkeypatch
):
    defaults = {key: row.default for key, row in KEYS.items()}
    config = {}
    for key, row in KEYS.items():
        if row.rule is None or row.rule.reads(defaults):
            section, name = key.split(".")
            config.setdefault(section, {})[name] = row.default
    assert config["surface"] == {"kind": "sphere", "K": 1.0, "l_max": 2}
    assert "truncation" not in config  # a sphere's blocks are finite
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    for name, argv in (("plain", []), ("listed", ["--config", str(cfg_path)])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # both write to the default directory "out"
        assert run_cli(["run", *argv]) == 0
    plain, listed = tmp_path / "plain" / "out", tmp_path / "listed" / "out"
    files = sorted(p.name for p in plain.iterdir())
    assert "errors.json" not in files and files == sorted(p.name for p in listed.iterdir())
    for name in files:
        assert (plain / name).read_bytes() == (listed / name).read_bytes()


def test_selftest_quick_criterion(capsys):
    assert run_cli(["selftest", "--criteria", "1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion  1" in out


def test_selftest_designed_failure(capsys):
    # tightening tolerances must make the harness report a failure
    assert run_cli(["selftest", "--criteria", "1", "--tolerance-scale", "1e-8"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] criterion  1" in out


def test_selftest_report_is_deterministic(tmp_path):
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert run_cli(["selftest", "--report", str(r1)]) == 0
    assert run_cli(["selftest", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert r1.read_text().splitlines()[-1] == "10/10 criteria passed"


def test_selftest_has_no_seed_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["selftest", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_selftest_prints_times_but_reports_none(tmp_path, capsys):
    report = tmp_path / "r.txt"
    assert run_cli(["selftest", "--criteria", "1,4", "--report", str(report)]) == 0
    out = capsys.readouterr().out.splitlines()
    text = report.read_text().splitlines()
    assert len(out) == len(text) == 3
    for printed, written in zip(out[:2], text[:2]):
        head, seconds = printed.rsplit(" | ", 1)
        assert head == written and seconds.endswith(" s") and float(seconds[:-2]) >= 0.0
    assert out[2] == text[2] == "2/2 criteria passed"


def test_selftest_prints_the_shared_fixture_time(monkeypatch, tmp_path, capsys):
    result = acceptance.CriterionResult(cid=2, title="t", passed=True, detail="d", seconds=0.01)
    data = acceptance.SuiteData(tables={}, build_seconds=1.5)
    monkeypatch.setattr(acceptance, "run_acceptance", lambda **kwargs: ([result], data))
    report = tmp_path / "r.txt"
    assert run_cli(["selftest", "--criteria", "2", "--report", str(report)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "shared sweep fixture (criteria 2, 8, 9, 10) | 1.50 s",
        "[PASS] criterion  2: t | d | 0.01 s",
        "1/1 criteria passed",
    ]
    assert report.read_text().splitlines() == ["[PASS] criterion  2: t | d", "1/1 criteria passed"]


def test_the_removed_checks_flag_is_an_unknown_flag(tmp_path, capsys):
    # a usage error: _Parser.error writes the record and exits with 2
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--surface", "sphere", "--checks", "accretivity", "--out", str(out)])
    assert exc.value.code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {
        "error": "ConfigError",
        "message": "kbmlab: unrecognized arguments: --checks accretivity",
        "stage": "config",
        "eta": None,
    }
    assert not out.exists()  # the usage error ends the run before it starts


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--formats", "csv"], "kbmlab: unrecognized arguments: --formats csv"),
        (["--config", "formats.json"], "unknown key 'formats' in section 'outputs'"),
    ],
    ids=["flag", "key"],
)
def test_the_removed_formats_knob_is_a_config_error(tmp_path, monkeypatch, capsys, argv,
                                                    message):
    # a run writes the JSON tables alone; the flag and the key that chose
    # csv and/or json are refused, the flag as a usage error
    monkeypatch.chdir(tmp_path)
    Path("formats.json").write_text(json.dumps({"outputs": {"formats": ["json"]}}))
    try:
        code = run_cli(["run", *argv, "--gamma-points", "5", "--out", "o"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ConfigError", "eta": None, "stage": "config",
                                    "message": message}
    assert not list(tmp_path.glob("o/table_*"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--truncation", "fixed", "--k-max", "16"],
         "kbmlab: unrecognized arguments: --truncation fixed"),
        # nor is it read as an abbreviation of --truncation-tol
        (["--truncation", "1e-3"], "kbmlab: unrecognized arguments: --truncation 1e-3"),
        (["--config", "kind.json"], "unknown key 'kind' in section 'truncation'"),
    ],
    ids=["flag", "prefix", "key"],
)
def test_the_removed_truncation_kind_is_a_config_error(tmp_path, monkeypatch, capsys, argv,
                                                       message):
    # a k_max alone fixes the cutoff; the flag and the key that chose fixed
    # or adaptive are refused, the flag as a usage error
    monkeypatch.chdir(tmp_path)
    Path("kind.json").write_text(json.dumps({"truncation": {"kind": "fixed", "k_max": 16}}))
    try:
        code = run_cli(["run", "--surface", "torus", *argv, "--gamma-points", "5", "--out", "o"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ConfigError", "eta": None, "stage": "config",
                                    "message": message}
    assert not list(tmp_path.glob("o/table_*"))


def test_a_repeated_eta_in_a_custom_list_is_a_config_error(tmp_path, monkeypatch, capsys):
    # eta = 2 twice would be swept twice and written as two identical
    # tables; SurfaceSpectrum asks for it once, with the summed multiplicity,
    # before any sweep
    import kbmlab.cli

    monkeypatch.setattr(kbmlab.cli, "gamma_sweep", lambda *a, **k: pytest.fail("swept"))
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0, 1], [2, 1], [2, 2]]}))
    out = tmp_path / "out"
    code = run_cli(["run", "--surface", "custom", "--curvature", "-1", "--custom-path",
                    str(eta_path), "--gamma-points", "5", "--out", str(out)])
    assert code == 2
    record = _error_record(capsys)
    assert record == {
        "error": "ConfigError", "eta": None, "stage": "config",
        "message": "entries must be strictly ascending by eta, got 2.0 after 2.0; "
                   "give a repeated eta once with the summed multiplicity",
    }
    assert sorted(p.name for p in out.iterdir()) == ["errors.json"]


def test_a_config_that_still_names_workers_writes_the_same_bytes(tmp_path):
    # the top-level "workers" key of the deleted worker pool is ignored
    cfg = {"surface": {"kind": "sphere", "K": 1.0, "l_max": 1},
           "gamma_grid": {"explicit": [5.0, 10.0, 100.0]}}
    outs = []
    for name, extra in (("plain", {}), ("workers", {"workers": 4})):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({**cfg, **extra}))
        outs.append(tmp_path / name)
        assert run_cli(["run", "--config", str(cfg_path), "--out", str(outs[-1])]) == 0
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("key", ["gama_grid", "checks", "seed", "contour"])
def test_a_config_with_an_unknown_section_is_a_config_error(tmp_path, capsys, key):
    # a misspelled section would otherwise leave its values unread: the
    # 101-point default grid would run in place of the 3 points asked for
    cfg_path = tmp_path / "cfg.json"
    cfg = {key: {"points": 3}, "surface": {"kind": "sphere", "l_max": 1}}
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and repr(key) in record["message"]
    assert (record["stage"], record["eta"]) == ("config", None)
    assert not any(out.glob("table_*"))


def test_a_config_file_with_an_unknown_key_is_a_config_error_record(tmp_path, capsys):
    # validate refuses the key; the file parsed, so the record also goes
    # to errors.json in the directory the config names
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg_path.write_text(json.dumps({"surface": {"kind": "sphere", "bogus": 1},
                                    "outputs": {"directory": str(out)}}))
    assert run_cli(["run", "--config", str(cfg_path)]) == 2
    record = _error_record(capsys)
    assert record == {"error": "ConfigError", "eta": None, "stage": "config",
                      "message": "unknown key 'bogus' in section 'surface'"}
    assert sorted(p.name for p in out.iterdir()) == ["errors.json"]
    assert json.loads((out / "errors.json").read_text()) == record


@pytest.mark.parametrize(
    "config, name",
    [({"surface": {"kind": "sphere", "lmax": 3}}, "'lmax'"),
     ({"gama_grid": {"points": 3}, "surface": {"kind": "sphere", "l_max": 1}}, "'gama_grid'")],
    ids=["key", "section"],
)
def test_a_mapping_with_an_unknown_key_or_section_is_refused(tmp_path, config, name):
    # run reads a mapping through the same check as a config file, so a
    # misspelled key cannot leave its value unread (lmax would run l_max = 2)
    from kbmlab import ConfigError

    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=name):
        run({**config, "outputs": {"directory": str(out)}})
    assert not out.exists()


def _error_record(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_custom_infinite_eta_is_a_config_error(tmp_path, capsys):
    eta_path = tmp_path / "etas.json"
    eta_path.write_text('{"entries": [[0.0, 1], [Infinity, 1]]}')
    out = tmp_path / "out"
    code = run_cli(
        ["run", "--surface", "custom", "--curvature", "-1.0",
         "--custom-path", str(eta_path), "--out", str(out)]
    )
    assert code == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and "finite eta" in record["message"]
    assert (record["stage"], record["eta"]) == ("config", None)
    assert json.loads((out / "errors.json").read_text()) == record


@pytest.mark.parametrize(
    "config, etas",
    [
        (5, None),
        ({"outputs": {"formats": 5}}, None),
        ({"outputs": {"directory": 5}}, None),
        ({"gamma_grid": {"explicit": 5}}, None),
        ({"gamma_grid": {"points": 2.5}}, None),
        ({"surface": {"l_max": "x"}}, None),
        ({"surface": {"l_max": 2.5}}, None),
        ({"surface": {"kind": "custom", "path": 5}}, None),
        # "kind" is no truncation key (a k_max alone fixes the cutoff), and a
        # sphere reads no truncation at all
        ({"truncation": {"kind": "fixed", "k_max": "8"}}, None),
        ({"surface": {"kind": "torus"}, "truncation": {"kind": "fixed", "k_max": "8"}}, None),
        ({"surface": {"kind": "torus"}, "truncation": {"k_max": "8"}}, None),
        ({"surface": {"kind": "torus"}, "truncation": {"k_max": 0}}, None),
        ({"surface": {"K": 10**400}}, None),  # an int beyond the float range
        (None, {"foo": 1}),
        (None, 5),
        (None, [[0.0, 1], [2.0]]),
        (None, [[0.0, 1], [2.0, 1, "label", 4]]),
        (None, [[0.0, 1], [2.0, "x"]]),
        (None, [[0.0, 1], [2.0, 0]]),
        (None, [[0.0, 1], [2.0, 1.5]]),
        (None, [[0.0, 1], [2.0, True]]),
        (None, [[0.0, 1], [-2.0, 1]]),
        ({"surface": {"kind": "torus", "eta_cap": -1.0}}, None),
    ],
    ids=repr,
)
def test_malformed_input_is_a_config_error(tmp_path, monkeypatch, capsys, config, etas):
    # a config file or an eta list of the wrong shape or type
    monkeypatch.chdir(tmp_path)  # errors.json goes to the default directory "out"
    path = tmp_path / "input.json"
    path.write_text(json.dumps(config if etas is None else etas))
    if etas is None:
        argv = ["run", "--config", str(path)]
    else:
        argv = ["run", "--surface", "custom", "--curvature", "-1.0", "--custom-path", str(path)]
    assert run_cli(argv) == 2
    assert _error_record(capsys)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "gammas",
    ["0,5", "-1,5", "5,inf", "nan,5", "5,5", "abc", "5,x", "1e-170,1", "1e-200,5", "1e-300,5"],
)
def test_bad_explicit_gamma_is_a_config_error(tmp_path, capsys, gammas):
    # the later flag overrides the grid of small_run_args; gamma^2 / 2
    # underflows to 0 below gamma ~ 2e-162, where x = -2/gamma overflows
    out = tmp_path / "out"
    code = run_cli(small_run_args(out, extra=(f"--gamma-explicit={gammas}",)))
    assert code == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert json.loads((out / "errors.json").read_text()) == record


def test_negative_eta_cap_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["run", "--surface", "torus", "--eta-cap", "-1", "--out", str(out)]) == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and "eta_cap" in record["message"]
    assert json.loads((out / "errors.json").read_text()) == record


@pytest.mark.parametrize("tol", ["0", "-1e-10"])
@pytest.mark.parametrize("surface", ["sphere", "torus"])
def test_a_nonpositive_truncation_tolerance_is_a_config_error(tmp_path, capsys, surface, tol):
    # the adaptive policy needs tol > 0; TruncationPolicy says so while the
    # run builds its inputs, before any sweep.  A sphere's blocks are finite,
    # so it reads no tolerance at all
    out = tmp_path / "out"
    code = run_cli(
        ["run", "--surface", surface, f"--truncation-tol={tol}", "--gamma-explicit", "20",
         "--out", str(out)]
    )
    assert code == 2
    record = _error_record(capsys)
    text = "is not read by this run" if surface == "sphere" else "needs tol > 0"
    assert record["error"] == "ConfigError" and text in record["message"]
    assert json.loads((out / "errors.json").read_text()) == record


@pytest.mark.parametrize("side", ["1e-300", "1e300"])
def test_a_torus_side_whose_eta_scale_leaves_the_float_range_is_a_typed_error(
    tmp_path, capsys, side
):
    # (2 pi / L)^2 overflows for a tiny side and underflows to 0 for a huge
    # one; torus_spectrum rejects it while the run builds its inputs
    out = tmp_path / "out"
    code = run_cli(["run", "--surface", "torus", "--side", side, "--out", str(out)])
    assert code == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and "float range" in record["message"]
    assert json.loads((out / "errors.json").read_text()) == record


def test_a_torus_of_tiny_eta_has_a_finite_residual_on_every_row(tmp_path):
    # side 1e75 puts every eta near 1e-148, where the residual's solve at
    # mu, or the square of its solution, overflows; such a row moves to the
    # nudged shift, so the run warns of nothing (RuntimeWarnings are
    # errors in this suite) and every row is simple with a finite residual
    out = tmp_path / "out"
    code = run_cli(["run", "--surface", "torus", "--side", "1e75", "--eta-cap", "1e-146",
                    "--gamma-points", "3", "--out", str(out)])
    assert code == 0
    tables = sorted(out.glob("table_*.json"))
    rows = [row for path in tables for row in json.loads(path.read_text())["rows"]]
    assert len(tables) == 97 and len(rows) == 291
    assert all(row["simple"] and 0.0 <= row["residual"] < 1e-80 for row in rows)


@pytest.mark.parametrize(
    "flags",
    [
        ["--gamma-explicit", "0.5,1e300"],
        ["--gamma-log-end", "400"],
        ["--gamma-log-start", "-310", "--gamma-points", "3"],
    ],
    ids=repr,
)
def test_a_gamma_whose_half_square_overflows_is_a_config_error(tmp_path, capsys, flags):
    # lambda = (gamma^2 / 2) mu would be inf or nan on that row; where
    # gamma^2 / 2 underflows to 0 instead, x = -2/gamma overflows
    out = tmp_path / "out"
    code = run_cli(["run", "--surface", "sphere", "--l-max", "1", *flags, "--out", str(out)])
    assert code == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and "gamma^2 / 2" in record["message"]
    assert json.loads((out / "errors.json").read_text()) == record
    assert not any(out.glob("table_*"))


@pytest.mark.parametrize(
    "flags, text",
    [
        (["--surface", "torus", "--side", "1e3"], "|m| <= 64"),
        (["--surface", "torus", "--side", "1e4"], "|m| <= 64"),
        (["--out", "file/out"], "output directory"),
    ],
    ids=repr,
)
def test_a_run_that_cannot_build_its_inputs_is_a_config_error(
    tmp_path, monkeypatch, capsys, flags, text
):
    # a torus lattice too large to enumerate, and an output directory below
    # a regular file, stop the run before any sweep with one record
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("")
    assert run_cli(["run", "--gamma-points", "5", *flags]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError" and text in record["message"]
    if "--out" in flags:
        assert not Path("out").exists()  # the record has no directory to go to
    else:
        assert json.loads(Path("out", "errors.json").read_text()) == record
        assert not any(Path("out").glob("table_*"))


@pytest.mark.parametrize("criteria", ["11", "x", "1,11", "0"])
def test_bad_selftest_criteria_are_a_config_error(capsys, criteria):
    assert run_cli(["selftest", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no criterion ran
    assert json.loads(captured.err.strip().splitlines()[-1])["error"] == "ConfigError"


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1", "2", "1e300", "-inf"])
def test_a_tolerance_scale_that_could_loosen_the_contract_is_a_config_error(capsys, scale):
    # only a finite scale in (0, 1] tightens; inf used to pass every
    # tolerance-based criterion whatever it measured
    assert run_cli(["selftest", "--criteria", "1,3", f"--tolerance-scale={scale}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no criterion ran
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and "tolerance scale" in record["message"]


@pytest.mark.parametrize(
    "flags, key, value",
    [
        (["--surface", "custom", "--curvature", "-1e0"], "curvature", -1.0),
        (["--surface", "sphere", "--gamma-log-start", "-1e-1"], "gamma", 10.0**-0.1),
    ],
)
def test_a_negative_flag_value_in_exponent_form_is_a_value(tmp_path, flags, key, value):
    # only the custom run reads an eta list
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [2.0, 1]]}))
    out = tmp_path / "out"
    path = ["--custom-path", str(eta_path)] if "custom" in flags else []
    argv = ["run", *flags, *path, "--gamma-points", "5", "--out", str(out)]
    assert run_cli(argv) == 0
    first = json.loads((out / "table_00_eta_0.json").read_text())["rows"][0]
    assert first[key] == pytest.approx(value, rel=1e-15)


def test_a_negative_infinite_tolerance_scale_is_read_and_rejected(capsys):
    # -inf is a value, outside (0, 1]
    assert run_cli(["selftest", "--criteria", "1", "--tolerance-scale", "-inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and "got -inf" in record["message"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["run", "--bogus"], "unrecognized arguments: --bogus"),
        (["run", "--curvature"], "argument --curvature: expected one argument"),
        ([], "required: command"),
    ],
)
def test_a_usage_error_is_a_config_error_record(capsys, argv, text):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and text in record["message"]


def test_importing_the_cli_leaves_the_acceptance_suite_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kbmlab.cli; print('kbmlab.acceptance' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fixed_cutoff_beyond_dense_limit_is_a_config_error(tmp_path, capsys):
    code = run_cli(
        ["run", "--surface", "torus", "--k-max", "1024",
         "--gamma-explicit", "1e4", "--out", str(tmp_path / "out")]
    )
    assert code == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and "1023" in record["message"]
    cfg = load_config(None)
    cfg["surface"]["kind"] = "torus"  # a fixed cutoff needs K <= 0
    cfg["truncation"]["k_max"] = 1023
    validate(cfg)  # largest cutoff whose doubled block fits


@pytest.mark.parametrize("form", ["points", "explicit"])
def test_a_grid_beyond_the_point_limit_is_a_config_error(form):
    from kbmlab import ConfigError
    from kbmlab.spectra import GAMMA_GRID_MAX_POINTS

    cfg = load_config(None)
    cfg["surface"]["l_max"] = 1
    for points, ok in ((GAMMA_GRID_MAX_POINTS, True), (GAMMA_GRID_MAX_POINTS + 1, False)):
        if form == "points":
            cfg["gamma_grid"]["points"] = points
        else:
            cfg["gamma_grid"]["explicit"] = [float(g) for g in range(1, points + 1)]
        if ok:
            assert validate(cfg)[1].size == points
        else:
            with pytest.raises(ConfigError, match=f"to {GAMMA_GRID_MAX_POINTS} points"):
                validate(cfg)


def test_a_grid_too_large_to_allocate_is_a_config_error_record(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["run", "--surface", "sphere", "--l-max", "1", "--gamma-points",
                    "10000000000000", "--out", str(out)])
    assert code == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and "10000000000000" in record["message"]
    assert (record["stage"], record["eta"]) == ("config", None)


_CUSTOM = ["--surface", "custom", "--curvature", "-1", "--custom-path", "ETAS"]


@pytest.mark.parametrize(
    "flags, key, flag",
    [
        (["--surface", "torus", "--curvature", "5"], "surface.K", "--curvature"),
        (["--surface", "torus", "--l-max", "3"], "surface.l_max", "--l-max"),
        (["--surface", "torus", "--custom-path", "ETAS"], "surface.path", "--custom-path"),
        (["--surface", "sphere", "--side", "3", "--custom-path", "ETAS"], "surface.L", "--side"),
        (["--surface", "sphere", "--eta-cap", "3"], "surface.eta_cap", "--eta-cap"),
        (["--surface", "sphere", "--custom-path", "ETAS"], "surface.path", "--custom-path"),
        ([*_CUSTOM, "--l-max", "3"], "surface.l_max", "--l-max"),
        ([*_CUSTOM, "--side", "3"], "surface.L", "--side"),
        ([*_CUSTOM, "--eta-cap", "3"], "surface.eta_cap", "--eta-cap"),
        (["--gamma-explicit", "5,10,100", "--gamma-points", "41"], "gamma_grid.points",
         "--gamma-points"),
        (["--gamma-explicit", "5,10", "--gamma-log-start", "1"], "gamma_grid.log_start",
         "--gamma-log-start"),
        (["--gamma-log-end", "3", "--gamma-explicit", "5,10"], "gamma_grid.log_end",
         "--gamma-log-end"),
        # a k_max fixes the cutoff, so the adaptive tolerance is not read
        (["--surface", "torus", "--k-max", "16", "--truncation-tol", "1e-3"], "truncation.tol",
         "--truncation-tol"),
        ([*_CUSTOM, "--k-max", "16", "--truncation-tol", "1e-3"], "truncation.tol",
         "--truncation-tol"),
        # every block of a K > 0 surface is finite, so no truncation key is read
        (["--surface", "sphere", "--l-max", "2", "--gamma-points", "5", "--truncation-tol",
          "1e-3"], "truncation.tol", "--truncation-tol"),
        (["--surface", "custom", "--curvature", "1", "--custom-path", "ETAS", "--k-max", "8"],
         "truncation.k_max", "--k-max"),
    ],
)
def test_a_flag_the_run_does_not_read_is_a_config_error(tmp_path, capsys, flags, key, flag):
    # each of these runs used to exit 0 with the bytes of the run without
    # the extra flag; the record names the key and the flag that gave it
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [5.0, 1]]}))
    flags = [str(eta_path) if f == "ETAS" else f for f in flags]
    out = tmp_path / "out"
    assert run_cli(["run", *flags, "--out", str(out)]) == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and (record["stage"], record["eta"]) == ("config", None)
    assert record["message"].startswith(f"{key}, given by {flag}, is not read by this run")
    assert sorted(p.name for p in out.iterdir()) == ["errors.json"]


@pytest.mark.parametrize(
    "config, flags, key, source",
    [
        ({"surface": {"kind": "torus", "K": 5.0}}, [], "surface.K", "in the config file"),
        ({"surface": {"kind": "sphere", "path": "x.json"}}, [], "surface.path",
         "in the config file"),
        ({"gamma_grid": {"explicit": [5.0, 10.0], "points": 41}}, [], "gamma_grid.points",
         "in the config file"),
        ({"gamma_grid": {"points": 41}}, ["--gamma-explicit", "5,10"], "gamma_grid.points",
         "in the config file"),
        ({"gamma_grid": {"explicit": [5.0, 10.0]}}, ["--gamma-log-end", "3"],
         "gamma_grid.log_end", "by --gamma-log-end"),
        ({"surface": {"kind": "custom", "K": -1.0, "path": "ETAS"},
          "truncation": {"k_max": 16, "tol": 1e-3}}, [], "truncation.tol",
         "in the config file"),
        ({"surface": {"kind": "sphere", "L": 3.0}}, ["--side", "4"], "surface.L", "by --side"),
    ],
)
def test_a_config_key_the_run_does_not_read_is_a_config_error(
    tmp_path, capsys, config, flags, key, source
):
    # the same rule for the config file; a flag that sets the key names itself
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [5.0, 1]]}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config).replace('"ETAS"', json.dumps(str(eta_path))))
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(cfg_path), *flags, "--out", str(out)]) == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and (record["stage"], record["eta"]) == ("config", None)
    assert record["message"].startswith(f"{key}, given {source}")


def test_every_key_a_surface_reads_is_accepted(tmp_path):
    # the keys each kind reads, given in full by flags, as the benchmark's
    # configs give them
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [5.0, 1]]}))
    grid = ["--gamma-log-start", "0", "--gamma-log-end", "2", "--gamma-points", "3"]
    for surface in (
        ["--surface", "sphere", "--curvature", "1", "--l-max", "1"],
        ["--surface", "torus", "--side", "6.283185307179586", "--eta-cap", "1.5",
         "--k-max", "8"],
        ["--surface", "custom", "--curvature", "-1", "--custom-path", str(eta_path),
         "--truncation-tol", "1e-9"],
    ):
        out = tmp_path / surface[1]
        assert run_cli(["run", *surface, *grid, "--out", str(out)]) == 0
        assert not (out / "errors.json").exists()


def test_a_cutoff_with_adaptive_truncation_is_a_config_error(tmp_path, capsys):
    # a k_max fixes the cutoff; the adaptive tolerance given with it would
    # be ignored
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [5.0, 1]]}))
    out = tmp_path / "out"
    code = run_cli(
        ["run", "--surface", "custom", "--curvature", "-1", "--custom-path", str(eta_path),
         "--k-max", "64", "--truncation-tol", "1e-9", "--gamma-explicit", "20", "--out", str(out)]
    )
    assert code == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("truncation.tol, given by --truncation-tol, is not read")
    assert "k_max" in record["message"]
    assert json.loads((out / "errors.json").read_text()) == record
    assert not any(out.glob("table_*"))


def test_a_cutoff_alone_fixes_the_cutoff(tmp_path):
    # no other key says that the cutoff is fixed: every row of a torus run
    # with --k-max 16 reports that cutoff
    out = tmp_path / "out"
    assert run_cli(["run", "--surface", "torus", "--k-max", "16", "--gamma-points", "5",
                    "--out", str(out)]) == 0
    tables = sorted(out.glob("table_*.json"))
    assert len(tables) == 3  # eta = 0, 1, 2 on the default torus
    for path in tables[1:]:
        assert {row["k_max"] for row in json.loads(path.read_text())["rows"]} == {16}


@pytest.mark.parametrize("surface", ["sphere", "custom"])
def test_fixed_truncation_on_a_positively_curved_surface_is_a_config_error(
    tmp_path, capsys, surface
):
    # every block of a K > 0 surface is finite, so a cutoff would be ignored
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [2.0, 1]]}))
    flags = ["--curvature", "1", "--custom-path", str(eta_path)] if surface == "custom" else []
    out = tmp_path / "out"
    code = run_cli(
        ["run", "--surface", surface, *flags, "--k-max", "3",
         "--gamma-explicit", "20", "--out", str(out)]
    )
    assert code == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and "K <= 0" in record["message"]
    assert json.loads((out / "errors.json").read_text()) == record


def test_series_reuses_the_sweep_cutoff(tmp_path, monkeypatch):
    # the sweep doubles the cutoff itself, building every block at a fixed
    # cutoff, and the table reports the cutoff it certified
    import kbmlab.operator

    policies = []
    real_truncate = kbmlab.operator.truncate

    def counting(eta, K, policy):
        policies.append(policy.k_max)
        return real_truncate(eta, K, policy)

    monkeypatch.setattr(kbmlab.operator, "truncate", counting)
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [5.0, 1]]}))
    out = tmp_path / "out"
    code = run_cli(
        ["run", "--surface", "custom", "--curvature", "-1.0", "--custom-path",
         str(eta_path), "--gamma-explicit", "20,50", "--out", str(out)]
    )
    assert code == 0
    k_max = json.loads((out / "table_01_eta_5.json").read_text())["rows"][0]["k_max"]
    assert policies == [8, 16]
    assert k_max == 8


_BLOCK_BUILDERS = ("block_at", "finite_block", "truncate", "ladder_coefficients")


@pytest.mark.parametrize(
    "surface_flags",
    [["--surface", "sphere", "--l-max", "2"], ["--surface", "custom", "--curvature", "-1.0"]],
)
def test_run_builds_no_block_after_the_sweeps(tmp_path, monkeypatch, surface_flags):
    # every table carries the coefficients of the block it reports on, and
    # nothing after the last sweep builds a block or its coefficients, in
    # any module that binds a builder
    import kbmlab.cli
    import kbmlab.ladder
    import kbmlab.operator

    events = []
    home = {"block_at": kbmlab.operator, "truncate": kbmlab.operator}
    real = {name: getattr(home.get(name, kbmlab.ladder), name) for name in _BLOCK_BUILDERS}

    def recorder(name, fn):
        def recorded(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return recorded

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "kbmlab" or mod_name.startswith("kbmlab."):
            for name, fn in real.items():
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, recorder(name, fn))
    real_sweep = kbmlab.cli.gamma_sweep

    def sweeping(*args, **kwargs):
        table = real_sweep(*args, **kwargs)
        events.append("sweep")
        return table

    monkeypatch.setattr(kbmlab.cli, "gamma_sweep", sweeping)
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [2.0, 1], [5.0, 1]]}))
    out = tmp_path / "out"
    path = ["--custom-path", str(eta_path)] if "custom" in surface_flags else []
    argv = ["run", *surface_flags, *path, "--gamma-points", "7", "--out", str(out)]
    assert run_cli(argv) == 0
    last_sweep = len(events) - 1 - events[::-1].index("sweep")
    assert events.count("sweep") == 3
    assert "ladder_coefficients" in events[:last_sweep]  # the recorders see the sweeps' builds
    assert events[last_sweep + 1:] == []


@pytest.mark.parametrize("where", ["missing_dir", "below_a_file"])
def test_an_unwritable_selftest_report_is_a_config_error_before_any_criterion(tmp_path, where):
    (tmp_path / "file").write_text("")
    report = tmp_path / ("missing" if where == "missing_dir" else "file") / "r.txt"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "kbmlab", "selftest", "--criteria", "4", "--report", str(report)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""  # no criterion ran
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError" and str(report) in record["message"]
    assert (record["stage"], record["eta"]) == ("config", None)
    assert not report.exists()


def test_uncertified_truncation_is_a_numerics_error(tmp_path, monkeypatch, capsys):
    import kbmlab.spectra

    # eta = 5 needs cutoff 16, whose doubled block has dimension 65
    monkeypatch.setattr(kbmlab.spectra, "MAX_DENSE_DIM", 64)
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [5.0, 1]]}))
    out = tmp_path / "out"
    code = run_cli(
        ["run", "--surface", "custom", "--curvature", "-1.0", "--custom-path",
         str(eta_path), "--gamma-points", "13", "--out", str(out)]
    )
    assert code == 1
    record = _error_record(capsys)
    assert record["error"] == "TruncationError" and "eta = 5.0" in record["message"]
    assert (record["stage"], record["eta"]) == ("sweep", 5.0)
    assert json.loads((out / "errors.json").read_text()) == record


def test_continuation_that_accepts_no_step_is_a_numerics_error(tmp_path, monkeypatch, capsys):
    import kbmlab.spectra
    from conftest import stuck_at_zero

    monkeypatch.setattr(kbmlab.spectra, "track_branch", stuck_at_zero)
    out = tmp_path / "out"
    assert run_cli(small_run_args(out)) == 1
    record = _error_record(capsys)
    assert record["error"] == "BranchCollisionError"
    assert "eta = 2.0, K = 1.0" in record["message"]
    assert (record["stage"], record["eta"]) == ("sweep", 2.0)
    assert json.loads((out / "errors.json").read_text()) == record


def test_a_failing_sweep_names_its_eta(tmp_path, capsys):
    # on a K > 0 custom surface eta = 3 is no sphere level, so its finite
    # ladder does not terminate; the message alone names no eta
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [2.0, 3], [3.0, 1]]}))
    out = tmp_path / "out"
    code = run_cli(
        ["run", "--surface", "custom", "--curvature", "1", "--custom-path", str(eta_path),
         "--gamma-points", "5", "--out", str(out)]
    )
    assert code == 1
    record = _error_record(capsys)
    assert record["error"] == "LadderRangeError" and "eta" not in record["message"]
    assert (record["stage"], record["eta"]) == ("sweep", 3.0)
    assert json.loads((out / "errors.json").read_text()) == record


def test_a_huge_sphere_l_max_is_a_config_error(tmp_path):
    # the level count is bounded before the levels are enumerated, so the
    # run ends at once instead of enumerating 10^8 levels
    out = tmp_path / "out"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "kbmlab", "run", "--surface", "sphere", "--l-max", "100000000",
         "--gamma-points", "3", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and "l_max <= 256" in record["message"]
    assert (record["stage"], record["eta"]) == ("config", None)
    assert json.loads((out / "errors.json").read_text()) == record
    assert sorted(p.name for p in out.iterdir()) == ["errors.json"]


_NO_SCIPY_RUN = """
import sys
import kbmlab.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "kbmlab.cli imported scipy"
sys.modules["scipy"] = None  # any later scipy import raises ImportError
sys.exit(kbmlab.cli.main(sys.argv[1:]))
"""


def test_run_needs_no_scipy(tmp_path):
    # importing the CLI loads no scipy module, and a K < 0 run (adaptive
    # truncation, residuals) completes with scipy blocked
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [2.0, 1]]}))
    out = tmp_path / "out"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, "run", "--surface", "custom", "--curvature", "-1.0",
         "--custom-path", str(eta_path), "--gamma-points", "7", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [row for path in sorted(out.glob("table_*.json"))
            for row in json.loads(path.read_text())["rows"]]
    assert len(rows) == 14  # two eta values times seven gammas
    assert (out / "summary.json").exists()
