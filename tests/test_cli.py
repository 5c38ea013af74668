import json

import pytest

from kbmlab.cli import CSV_COLUMNS, build_parser, load_config, main


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
    out = tmp_path / "out"
    assert run_cli(small_run_args(out)) == 0
    names = {p.name for p in out.iterdir()}
    assert "summary.json" in names
    assert "diagnostics.json" in names
    assert "records.json" in names
    assert "perturbation_series.csv" in names
    assert "plot_mixing.dat" in names
    assert any(n.startswith("table_") and n.endswith(".csv") for n in names)
    assert any(n.startswith("table_") and n.endswith(".json") for n in names)
    assert any(n.startswith("plot_convergence_") for n in names)


def test_csv_schema_and_roundtrip(tmp_path):
    out = tmp_path / "out"
    run_cli(small_run_args(out))
    csv_files = sorted(out.glob("table_*.csv"))
    header = csv_files[0].read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    # eta=2 table at gamma=5: closed-form lambda = 2.5, 17 digits round-trip
    eta2 = [p for p in csv_files if "eta_2" in p.name][0]
    rows = eta2.read_text().splitlines()[1:]
    first = rows[0].split(",")
    assert float(first[0]) == 5.0
    assert float(first[1]) == pytest.approx(2.5, abs=1e-10)
    assert first[4] in ("true", "false")


def test_summary_contains_verdicts_and_mixing(tmp_path):
    out = tmp_path / "out"
    run_cli(small_run_args(out))
    summary = json.loads((out / "summary.json").read_text())
    etas = [row["eta"] for row in summary["per_eta"]]
    assert etas == [0.0, 2.0]
    assert summary["mixing"]["eta1"] == 2.0
    series = (out / "perturbation_series.csv").read_text().splitlines()
    assert series[0] == "eta,mu1,mu2,second_derivative,eta_over_2_residual"
    last = series[-1].split(",")
    assert float(last[0]) == 2.0 and float(last[3]) == pytest.approx(2.0, rel=1e-8)


def test_default_grid_sphere_run(tmp_path):
    # default log grid, three tables for eta = 0, 2, 6, tail errors in summary
    out = tmp_path / "out"
    code = run_cli(
        ["run", "--surface", "sphere", "--curvature", "1.0", "--l-max", "2",
         "--formats", "csv", "--out", str(out)]
    )
    assert code == 0
    assert len(list(out.glob("table_*.csv"))) == 3
    summary = json.loads((out / "summary.json").read_text())
    rows = {row["eta"]: row for row in summary["per_eta"]}
    assert set(rows) == {0.0, 2.0, 6.0}
    # closed form gives |lambda - eta| = 8/gamma^2 + O(gamma^-4) at eta = 2
    assert rows[2.0]["final_error"] == pytest.approx(8e-8, rel=1e-4)
    assert rows[2.0]["converged"] and rows[6.0]["converged"]
    first = (out / "table_00_eta_0.csv").read_text().splitlines()[1].split(",")
    assert float(first[0]) == 1.0  # default grid starts at gamma = 1


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
        "outputs": {"formats": ["csv"], "directory": str(tmp_path / "cfg_out")},
        "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "flag_out"
    assert run_cli(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.exists()
    assert not (tmp_path / "cfg_out").exists()
    assert not any(p.suffix == ".json" and p.name.startswith("table_") for p in out.iterdir())


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
            "--truncation", "fixed",
            "--k-max", "24",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [row["eta"] for row in summary["per_eta"]] == [0.0, 2.0, 5.0]


def test_custom_surface_missing_zero_mode_fails(tmp_path, capsys):
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[2.0, 1]]}))
    code = run_cli(
        [
            "run",
            "--surface", "custom",
            "--curvature", "-1.0",
            "--custom-path", str(eta_path),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code != 0
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "SpectrumValidationError"
    assert "zero mode" in record["message"]


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
    run_cli(["selftest", "--criteria", "1,3,4", "--report", str(r1)])
    run_cli(["selftest", "--criteria", "1,3,4", "--report", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_unknown_check_suite_is_rejected(tmp_path, capsys):
    code = run_cli(
        ["run", "--surface", "sphere", "--checks", "bogus", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and "bogus" in record["message"]


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"surface": {"kind": "sphere", "bogus": 1}}))
    from kbmlab import ConfigError

    with pytest.raises(ConfigError):
        load_config(str(cfg_path))


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
    assert json.loads((out / "errors.json").read_text()) == record


@pytest.mark.parametrize("gammas", ["0,5", "-1,5", "5,inf", "nan,5", "5,5"])
def test_bad_explicit_gamma_is_a_config_error(tmp_path, capsys, gammas):
    # the later flag overrides the grid of small_run_args
    code = run_cli(small_run_args(tmp_path / "out", extra=(f"--gamma-explicit={gammas}",)))
    assert code == 2
    assert _error_record(capsys)["error"] == "ConfigError"


def test_fixed_cutoff_beyond_dense_limit_is_a_config_error(tmp_path, capsys):
    code = run_cli(
        ["run", "--surface", "torus", "--truncation", "fixed", "--k-max", "1024",
         "--gamma-explicit", "1e4", "--out", str(tmp_path / "out")]
    )
    assert code == 2
    record = _error_record(capsys)
    assert record["error"] == "ConfigError" and "1023" in record["message"]
    cfg = load_config(None)
    cfg.truncation.kind, cfg.truncation.k_max = "fixed", 1023
    cfg.validate()  # largest cutoff whose doubled block fits


def test_series_reuses_the_sweep_cutoff(tmp_path, monkeypatch):
    # one adaptive doubling study per eta, run by the sweep; the
    # perturbation series is built at the cutoff the sweep certified
    import kbmlab.cli
    import kbmlab.spectra

    policies = []
    for mod in (kbmlab.cli, kbmlab.spectra):
        real = mod.truncate

        def counting(eta, K, policy, _real=real):
            policies.append(policy.kind)
            return _real(eta, K, policy)

        monkeypatch.setattr(mod, "truncate", counting)
    eta_path = tmp_path / "etas.json"
    eta_path.write_text(json.dumps({"entries": [[0.0, 1], [5.0, 1]]}))
    code = run_cli(
        ["run", "--surface", "custom", "--curvature", "-1.0", "--custom-path",
         str(eta_path), "--gamma-explicit", "20,50", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    assert policies == ["adaptive", "fixed"]
