import contextlib
import io
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jcentropy
from jcentropy import ensemble
from jcentropy.ensemble import load_betas
from jcentropy.cli import _csv_text, _json_text, main
from oracle_utils import rowwise_csv, rowwise_json

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestCalibrate:
    def test_gibbs_temperature_is_identity(self, tmp_path):
        out = tmp_path / "cal.csv"
        assert main(["calibrate", "--q", "gibbs", "--grid", "0.5:5:9", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["q", "T_star", "T"]
        for row in rows:
            assert float(row[2]) == pytest.approx(float(row[1]), rel=1e-12)

    def test_deformed_temperature_above_identity(self, tmp_path):
        out = tmp_path / "cal.csv"
        assert main(["calibrate", "--q", "1.6", "--grid", "0.5:10:20", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 20
        for row in rows:
            assert float(row[2]) >= float(row[1])

    def test_malformed_grid_is_usage_error(self, tmp_path):
        out = tmp_path / "cal.csv"
        assert main(["calibrate", "--q", "1.4", "--grid", "nope", "--out", str(out)]) == 2

    def test_missing_q_is_usage_error(self, tmp_path):
        assert main(["calibrate", "--out", str(tmp_path / "x.csv")]) == 2

    def test_invalid_q_is_domain_error(self, tmp_path):
        assert main(["calibrate", "--q", "0.5", "--grid", "1:2:3",
                     "--out", str(tmp_path / "x.csv")]) == 3

    def test_t_star_grid_out_of_gamma_range_names_the_grid(self, tmp_path, capsys):
        # T*/(q-1) = 5e44 passes the Hurwitz offset bound of 1e44
        assert main(["calibrate", "--q", "1.2", "--grid", "1e44:1e45:2",
                     "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert "--grid '1e44:1e45:2'" in err and "omega=1.0" in err
        assert "beta_star" not in err
        assert os.listdir(tmp_path) == []


class TestWeights:
    def test_gibbs_weights_table(self, tmp_path):
        out = tmp_path / "w.csv"
        beta = math.log(11.0)
        assert main(["weights", "--gibbs", "--beta", repr(beta), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "p"]
        assert float(rows[0][1]) == pytest.approx(1.0 - math.exp(-beta), rel=1e-12)
        meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
        assert meta["derived"]["source"] == "gibbs"
        assert "tail_mass" in meta["derived"]

    def test_gamma_records_derived_beta_star(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "--q", "1.4", "--beta", repr(math.log(11.0)),
                     "--tail-tol", "1e-4", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
        assert meta["derived"]["beta_star"] == pytest.approx(3.3356918657181176, rel=1e-6)

    @pytest.mark.parametrize("source", ["gibbs", "betas-file"])
    def test_n_cap_binds_for_every_source(self, tmp_path, source):
        # both hot states need over 1e5 levels for the default tail tolerance
        if source == "gibbs":
            model = ["--gibbs", "--beta", "1e-4"]
        else:
            betas = tmp_path / "hot.betas"
            assert main(["ensemble-gen", "--count", "5", "--mean", "1e-4", "--sd", "1e-5",
                         "--seed", "1", "--out", str(betas)]) == 0
            model = ["--betas-file", str(betas)]
        out = tmp_path / "w.csv"
        assert main(["weights", *model, "--n-cap", "1000", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1001
        derived = json.loads((tmp_path / "w.csv.meta.json").read_text())["derived"]
        assert derived["n_max"] == 1000 and derived["tail_limited"] is True
        total = math.fsum(float(p) for _, p in rows) + derived["tail_mass"]
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("cap", ["0", "-5", "10000001", "1000000000000"])
    @pytest.mark.parametrize("model", [["--gibbs", "--beta", "1e-4"],
                                       ["--q", "1.6", "--beta", "2.0"]], ids=["gibbs", "gamma"])
    def test_n_cap_below_one_is_usage_error(self, tmp_path, capsys, model, cap):
        # and above HARD_CAP: 1e12 levels once died allocating 7.28 TiB
        out = tmp_path / "w.csv"
        assert main(["weights", *model, "--n-cap", cap, "--out", str(out)]) == 2
        assert f"--n-cap must lie in [1, 10000000], got {cap}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("source", ["gibbs", "betas-file"])
    def test_unresolvable_beta_is_domain_error(self, tmp_path, capsys, source):
        # exp(-1e-17) rounds to 1: no tail tolerance could ever be met
        if source == "gibbs":
            model = ["--gibbs", "--beta", "1e-17"]
        else:
            betas = tmp_path / "tiny.betas"
            betas.write_text('# {"count": 2, "omega": 1.0, "spec": null}\n2.0\n1e-17\n')
            model = ["--betas-file", str(betas)]
        out = tmp_path / "w.csv"
        assert main(["weights", *model, "--out", str(out)]) == 3
        assert not out.exists() and not (tmp_path / "w.csv.meta.json").exists()
        err = capsys.readouterr().err
        assert "too small to resolve" in err and "Traceback" not in err

    @pytest.mark.parametrize("q, beta_star", [("1.6", "5e-324"), ("1.2", "5e-324"),
                                              ("1.2", "1e-300"), ("1.4", "1e-45")])
    def test_beta_star_out_of_float_range_is_domain_error(self, tmp_path, capsys, q, beta_star):
        # the Hurwitz offset 1/((q-1) beta_star omega) is infinite, or its sums overflow
        argv = ["weights", "--q", q, f"--beta-star={beta_star}", "--n-cap", "100",
                "--out", str(tmp_path / "w.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert "beta_star" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []  # no output, no temporary file

    @pytest.mark.parametrize("command", ["weights", "timeseries"])
    def test_omega_other_than_the_betas_file_omega_is_usage_error(self, tmp_path, capsys,
                                                                   command):
        betas = os.path.join(DATA_DIR, "normal_n100.betas")  # stores omega 1.0
        run = [command, "--betas-file", betas]
        if command == "timeseries":
            run += ["--T", "2", "--grid", "8"]
        assert main([*run, "--omega", "2", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "--omega" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []
        assert main([*run, "--omega", "1", "--out", str(tmp_path / "a.csv")]) == 0
        assert main([*run, "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_model_selection_usage_errors(self, tmp_path):
        out = str(tmp_path / "w.csv")
        assert main(["weights", "--out", out]) == 2  # nothing selected
        assert main(["weights", "--gibbs", "--beta", "1.0", "--q", "1.5", "--out", out]) == 2
        assert main(["weights", "--q", "1.5", "--out", out]) == 2  # no beta
        assert main(["weights", "--q", "1.5", "--beta", "1", "--beta-star", "1", "--out", out]) == 2


class TestTimeseries:
    def test_zero_coupling_gives_zero_columns(self, tmp_path):
        out = tmp_path / "ts.csv"
        assert main(["timeseries", "--gibbs", "--beta", "2.0", "--lambda", "0",
                     "--T", "5", "--grid", "50", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "dS_a", "dS_b", "dS_total"]
        for row in rows:
            assert row[1] == "0.0" and row[2] == "0.0" and row[3] == "0.0"

    def test_sidecar_metadata_complete(self, tmp_path):
        out = tmp_path / "ts.csv"
        assert main(["timeseries", "--q", "1.5", "--beta", repr(math.log(11.0)),
                     "--epsilon", "0.3", "--tail-tol", "1e-4", "--T", "5",
                     "--grid", "64", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "ts.csv.meta.json").read_text())
        derived = meta["derived"]
        for key in ("beta", "beta_star", "n_max", "tail_mass", "entropy", "avg_dSa", "avg_dSb"):
            assert key in derived
        assert meta["config"]["tail_tol"] == 1e-4
        assert derived["entropy"] == "tsallis(q=1.5)"

    def test_rerun_from_sidecar_reproduces_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["timeseries", "--q", "1.3", "--beta", "2.0", "--epsilon", "0.25",
                "--tail-tol", "1e-4", "--T", "4", "--grid", "40"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(["timeseries", "--config", str(tmp_path / "a.csv.meta.json"),
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sidecar_with_recorded_seed_reruns_to_same_bytes(self, tmp_path):
        # sidecars of earlier versions record "seed": null; --config ignores keys
        # the command does not take
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["timeseries", "--q", "1.3", "--beta", "2.0", "--epsilon", "0.25",
                     "--tail-tol", "1e-4", "--T", "4", "--grid", "40",
                     "--out", str(out1)]) == 0
        sidecar = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert "seed" not in sidecar["config"]
        sidecar["config"]["seed"] = None
        old = tmp_path / "old.meta.json"
        old.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        assert main(["timeseries", "--config", str(old), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command", ["timeseries", "bloch-sweep"])
    def test_seed_is_not_an_option(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--gibbs", "--beta", "2.0", "--seed", "1",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_json_format_embeds_metadata(self, tmp_path):
        out = tmp_path / "ts.json"
        assert main(["timeseries", "--gibbs", "--beta", "1.0", "--T", "3",
                     "--grid", "16", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["t", "dS_a", "dS_b", "dS_total"]
        assert payload["meta"]["command"] == "timeseries"
        assert len(payload["rows"]) == 16

    def test_single_time_sample_is_usage_error(self, tmp_path):
        assert main(["timeseries", "--gibbs", "--beta", "2.0", "--grid", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_multilevel_from_file(self, tmp_path):
        out = tmp_path / "ts.csv"
        betas = os.path.join(DATA_DIR, "normal_n100.betas")
        assert main(["timeseries", "--betas-file", betas, "--epsilon", "1.0",
                     "--T", "4", "--grid", "32", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "ts.csv.meta.json").read_text())
        assert meta["derived"]["source"] == "multilevel"
        assert meta["derived"]["n_betas"] == 100


@pytest.mark.parametrize("command, text, named", [
    ("weights", '{"gibbs": true, "beta": 2.4, "n_cap": "5"}', "'n_cap'"),
    ("weights", '{"gibbs": true, "beta": "2.4"}', "'beta'"),
    ("weights", '{"gibbs": true, "beta": true}', "'beta'"),
    ("weights", '{"gibbs": true, "beta": 2.4, "format": "JSON"}', "'format'"),
    ("timeseries", '{"q": "1.4", "beta": 2.4, "entropy": "renyi"}', "'entropy'"),
    ("timeseries", '{"gibbs": true, "beta": 2.4, "field_entropy": "COARSE"}', "'field_entropy'"),
    ("timeseries", '{"gibbs": true, "beta": 2.4, "grid": "abc"}', "'grid'"),
    ("timeseries", '{"gibbs": true, "beta": 2.4, "grid": 40.0}', "'grid'"),
    ("bloch-sweep", '{"gibbs": "yes", "beta": 2.4}', "'gibbs'"),
    ("ensemble-gen", '{"shape": "gamma"}', "'shape'"),
    ("weights", '{"gibbs": true, "beta": 2.4,', "cfg.json"),
], ids=["int-as-string", "float-as-string", "bool-as-float", "format-choice", "entropy-choice",
        "form-choice", "grid-as-string", "grid-as-float", "switch-as-string", "shape-choice",
        "malformed-json"])
def test_config_value_outside_its_flag_is_usage_error(tmp_path, capsys, command, text, named):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["cfg.json"]  # no output, no temporary file


@pytest.mark.parametrize("command", ["timeseries", "bloch-sweep"])
@pytest.mark.parametrize("flag", ["--delta", "--lambda"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_dynamics_input_is_domain_error(tmp_path, capsys, command, flag, value):
    samples = ["--grid", "6"] if command == "timeseries" else ["--t-samples", "6"]
    argv = [command, "--gibbs", "--beta", "2", flag, value, *samples,
            "--out", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    err = capsys.readouterr().err
    # named as the flag is: --delta is the detuning, --lambda the coupling
    assert f"{flag[2:]} must be finite" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == []  # no output, no temporary file


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_omega_out_of_range_gets_one_message_on_every_command(tmp_path, capsys, value):
    runs = [
        ["calibrate", "--q", "1.4", "--grid", "1:2:3"],
        ["weights", "--q", "1.4", "--beta", "2"],
        ["weights", "--gibbs", "--beta", "2"],
        ["timeseries", "--gibbs", "--beta", "2", "--grid", "6"],
        ["bloch-sweep", "--q", "1.4", "--beta", "2", "--t-samples", "6"],
        ["ensemble-gen", "--count", "3"],
    ]
    for argv in runs:
        assert main([*argv, f"--omega={value}", "--out", str(tmp_path / "x.csv")]) == 3, argv
        err = capsys.readouterr().err
        assert err == f"jcentropy: omega must be finite and positive, got {float(value)}\n", argv
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, code", [
    (["calibrate", "--q", "gibbs", "--grid", "nan:1:3"], 2),
    (["calibrate", "--q", "gibbs", "--grid", "1:inf:3"], 2),
    (["calibrate", "--q", "gibbs", "--grid", "inf:inf:3"], 2),
    (["calibrate", "--q", "gibbs", "--grid=-inf:1:3"], 2),
    (["calibrate", "--q", "gibbs", "--omega=-1"], 3),
    (["calibrate", "--q", "gibbs", "--omega=nan"], 3),
    (["calibrate", "--q", "gibbs", "--omega=inf"], 3),
    (["timeseries", "--gibbs", "--beta", "2", "--grid", "6", "--T", "inf"], 3),
    (["timeseries", "--gibbs", "--beta", "2", "--grid", "6", "--T", "nan"], 3),
    (["timeseries", "--gibbs", "--beta", "2", "--grid", "6", "--T=-1"], 3),
    (["bloch-sweep", "--gibbs", "--beta", "2", "--t-samples", "6", "--T", "0"], 3),
], ids=["grid-nan", "grid-inf", "grid-inf-inf", "grid-minus-inf", "omega-negative",
        "omega-nan", "omega-inf", "horizon-inf", "horizon-nan", "horizon-negative",
        "horizon-zero"])
def test_non_finite_grid_omega_or_horizon_is_refused(tmp_path, capsys, argv, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert os.listdir(tmp_path) == []  # no output, no temporary file


@pytest.mark.parametrize("argv", [
    ["timeseries", "--betas-file", os.path.join(DATA_DIR, "normal_n100.betas"), "--n-cap", "7",
     "--T", "1e300", "--grid", "7", "--entropy", "tsallis", "--entropy-q", "1.1"],
    ["bloch-sweep", "--gibbs", "--beta", "2", "--t-samples", "6", "--T", "1e16"],
], ids=["timeseries", "bloch-sweep"])
def test_horizon_beyond_a_resolvable_phase_is_refused(tmp_path, capsys, argv):
    # T delta_max above 2**52: Simpson's step product overflowed at T=1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("jcentropy: time horizon ") and "2**52" in err
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["timeseries", "--gibbs", "--beta", "1", "--lambda", "1e-140", "--T", "1e155", "--grid", "7"],
    ["timeseries", "--gibbs", "--beta", "1", "--lambda", "0", "--T", "1e300"],
    ["timeseries", "--gibbs", "--beta", "1", "--lambda", "0", "--T", "1e105", "--grid", "8"],
    ["bloch-sweep", "--gibbs", "--beta", "1", "--lambda", "0", "--T", "1e105",
     "--t-samples", "8", "--grid", "1x2"],
], ids=["square-overflow", "zero-coupling", "cube-overflow", "bloch-sweep"])
def test_time_step_beyond_simpson_range_is_refused(tmp_path, capsys, argv):
    # these once exited 0 with a RuntimeWarning and a wrong or NaN average
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("jcentropy: time step ") and "5.6e+102" in err
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_usage_error_comes_before_an_unresolvable_phase(tmp_path, capsys):
    # the phase is checked with the time grid, after the entropy is resolved
    argv = ["timeseries", "--gibbs", "--beta", "2", "--T", "1e300", "--entropy", "tsallis"]
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    assert "--entropy-q" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, named", [
    (["--mean", "inf", "--count", "2"], "mean must be finite, got inf"),
    (["--sd", "inf"], "sd must be finite, got inf"),
    (["--shape", "weibull", "--scale", "inf"], "scale must be finite, got inf"),
    (["--shape", "weibull", "--shape-param", "nan"], "shape_param must be finite, got nan"),
    (["--omega", "1e-310", "--mean", "1e300"], "got [inf, inf, inf]"),
], ids=["mean", "sd", "scale", "shape-param", "draw-over-omega"])
def test_ensemble_gen_refuses_non_finite_parameters(tmp_path, capsys, argv, named):
    assert main(["ensemble-gen", *argv, "--out", str(tmp_path / "e.betas")]) == 3
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_draw_that_rejects_every_sample_is_a_domain_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ensemble, "_MAX_CONSECUTIVE_REJECTIONS", 100)
    argv = ["ensemble-gen", "--mean", "-100", "--sd", "0.1", "--count", "1"]
    assert main([*argv, "--out", str(tmp_path / "e.betas")]) == 3
    err = capsys.readouterr().err
    assert "101 consecutive non-positive draws" in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_config_takes_integers_for_float_flags_and_false_switches(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"gibbs": true, "beta": 2, "lam": 1, "horizon": 3, "grid": 16}')
    assert main(["timeseries", "--config", str(config), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["timeseries", "--gibbs", "--beta", "2", "--lambda", "1", "--T", "3",
                 "--grid", "16", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    config.write_text('{"gibbs": false, "q": "1.5", "beta": 2.0, "n_cap": 100}')
    assert main(["weights", "--config", str(config), "--out", str(tmp_path / "w.csv")]) == 0


class TestBlochSweep:
    def test_single_point_is_ground_state(self, tmp_path):
        out = tmp_path / "bloch.csv"
        assert main(["bloch-sweep", "--gibbs", "--beta", repr(math.log(11.0)),
                     "--grid", "1x1", "--T", "6", "--t-samples", "121",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["r", "theta", "epsilon", "avg_dSa", "avg_dSb"]
        assert len(rows) == 1
        # the 1x1 grid collapses to r=0, theta=0 -> epsilon = 1/2
        assert float(rows[0][2]) == pytest.approx(0.5)

    def test_grid_row_count(self, tmp_path):
        out = tmp_path / "bloch.csv"
        assert main(["bloch-sweep", "--gibbs", "--beta", "2.0", "--grid", "3x4",
                     "--T", "4", "--t-samples", "81", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 12
        assert float(rows[-1][0]) == 1.0 and float(rows[-1][1]) == pytest.approx(math.pi)
        assert float(rows[-1][2]) == pytest.approx(0.0, abs=1e-15)

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert main(["bloch-sweep", "--gibbs", "--beta", "2.0", "--grid", "axb",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_single_time_sample_is_usage_error(self, tmp_path):
        assert main(["bloch-sweep", "--gibbs", "--beta", "2.0", "--t-samples", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("header", [
    '[1]', '{"omega": null}', '{"spec": {"bogus": 1}}', '{"count": [2]}',
], ids=["not-an-object", "null-omega", "unknown-spec-key", "list-count"])
def test_malformed_betas_header_is_domain_error(tmp_path, capsys, header):
    betas = tmp_path / "bad.betas"
    betas.write_text(f"# {header}\n2.0\n3.0\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["weights", "--betas-file", str(betas), "--out", str(out_dir / "w.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"jcentropy: {betas}: ") and "Traceback" not in err
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize("header, values", [
    ('{"count": 2.5}', "2.0\n3.0\n"), ('{"count": true}', "2.0\n"), ('{"omega": true}', "2.0\n"),
], ids=["fractional-count", "boolean-count", "boolean-omega"])
def test_betas_header_number_of_the_wrong_type_is_domain_error(tmp_path, capsys, header, values):
    betas = tmp_path / "bad.betas"
    betas.write_text(f"# {header}\n{values}")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["weights", "--betas-file", str(betas), "--out", str(out_dir / "w.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"jcentropy: {betas}: ") and "Traceback" not in err
    assert os.listdir(out_dir) == []


class TestEnsembleGen:
    def test_generates_loadable_deterministic_file(self, tmp_path):
        from jcentropy.ensemble import load_betas

        out1, out2 = tmp_path / "e1.betas", tmp_path / "e2.betas"
        args = ["ensemble-gen", "--shape", "weibull", "--count", "40", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        model, spec = load_betas(out1)
        assert len(model.betas) == 40
        assert spec.shape == "weibull"

    def test_usable_as_timeseries_input(self, tmp_path):
        ens = tmp_path / "e.betas"
        assert main(["ensemble-gen", "--count", "25", "--seed", "3", "--out", str(ens)]) == 0
        out = tmp_path / "ts.csv"
        assert main(["timeseries", "--betas-file", str(ens), "--T", "3",
                     "--grid", "16", "--out", str(out)]) == 0


class TestSelfcheck:
    def test_passes_by_default(self, capsys):
        assert main(["selfcheck"]) == 0
        report = capsys.readouterr().out
        assert "[PASS]" in report and "[FAIL]" not in report
        assert "tail_mass" in report

    def test_injected_perturbation_detected(self, capsys):
        assert main(["selfcheck", "--inject-perturbation", "1e-6"]) == 4
        report = capsys.readouterr().out
        assert "[FAIL]" in report


# ------------------------------------------------------------ table emission

# non-finite values, signed zero, the smallest subnormal, and both sides of the
# points where repr switches to exponent notation (1e16 and 1e-4)
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 0.1, 1.0]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def tables(draw):
    """(column names, columns as the CLI passes them, rows as Python values)."""
    n_rows = draw(st.integers(0, 12))
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4,
                          unique=True))
    columns, values = [], []
    for _ in names:
        kind = draw(st.sampled_from(["int", "float", "float64", "mixed", "str"]))
        if kind == "int":
            col = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n_rows,
                                max_size=n_rows))
            as_array = draw(st.booleans())
            columns.append(np.array(col, dtype=np.int64) if as_array else col)
        elif kind == "str":
            col = draw(st.lists(st.one_of(st.sampled_from(['"', "\\", 'a"b\\c', "\u00e9\u03b2",
                                                           "\U0001f600", ""]),
                                          st.text(max_size=5)),
                                min_size=n_rows, max_size=n_rows))
            columns.append(col)
        else:
            col = draw(st.lists(floats, min_size=n_rows, max_size=n_rows))
            if kind == "float64":
                col = np.array(col)
            elif kind == "mixed":  # np.float64 and float in one list
                flags = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
                col = [np.float64(v) if f else v for v, f in zip(col, flags)]
            columns.append(col)
        values.append(list(col))
    return names, columns, list(zip(*values)) if n_rows else []


@settings(max_examples=300, deadline=None)
@given(tables())
def test_columnwise_emitter_matches_rowwise_text(table):
    names, columns, rows = table
    meta = {"command": "test", "config": {"x": 0.1, "y": None}, "derived": {"n": len(rows)}}
    by_name = dict(zip(names, columns))
    assert _csv_text(by_name) == rowwise_csv(names, rows)
    assert _json_text(by_name, meta) == rowwise_json(names, rows, meta)


def _parse_like(csv_row, json_row):
    """The CSV cells converted to the types of the matching JSON cells."""
    return [type(j)(c) for c, j in zip(csv_row, json_row)]


@pytest.mark.parametrize("argv", [
    ["calibrate", "--q", "gibbs,1.4", "--grid", "0.5:5:4"],
    ["weights", "--q", "1.6", "--beta", "2.0", "--n-cap", "200"],
    ["weights", "--gibbs", "--beta", repr(math.log(11.0))],
    ["weights", "--betas-file", os.path.join(DATA_DIR, "normal_n100.betas")],
    ["timeseries", "--gibbs", "--beta", "1.0", "--epsilon", "0.3", "--T", "3", "--grid", "16"],
    ["bloch-sweep", "--gibbs", "--beta", "2.0", "--grid", "2x3", "--T", "3",
     "--t-samples", "21"],
], ids=["calibrate", "weights-gamma", "weights-gibbs", "weights-betas-file", "timeseries",
        "bloch-sweep"])
def test_csv_and_json_tables_agree_and_rerun_byte_identical(tmp_path, argv):
    for run in ("a", "b"):
        assert main(argv + ["--out", str(tmp_path / f"{run}.csv")]) == 0
        assert main(argv + ["--format", "json", "--out", str(tmp_path / f"{run}.json")]) == 0
    for name in ("csv", "csv.meta.json", "json"):
        assert (tmp_path / f"a.{name}").read_bytes() == (tmp_path / f"b.{name}").read_bytes()

    header, csv_rows = read_csv(tmp_path / "a.csv")
    payload = json.loads((tmp_path / "a.json").read_text())
    assert payload["columns"] == header
    assert len(payload["rows"]) == len(csv_rows) > 0
    for csv_row, json_row in zip(csv_rows, payload["rows"]):
        assert _parse_like(csv_row, json_row) == json_row
    sidecar = json.loads((tmp_path / "a.csv.meta.json").read_text())
    sidecar["config"]["format"] = "json"
    assert payload["meta"] == sidecar


def test_cli_start_up_leaves_scipy_solvers_unimported():
    snippet = ("import sys, jcentropy.cli; jcentropy.cli.build_parser(); "
               "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') "
               "if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(jcentropy.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", snippet], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
def test_outputs_honour_umask(tmp_path, umask, mode):
    betas, out = tmp_path / "e.betas", tmp_path / "w.csv"
    previous = os.umask(umask)
    try:
        assert main(["ensemble-gen", "--count", "5", "--seed", "1", "--out", str(betas)]) == 0
        assert main(["weights", "--betas-file", str(betas), "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    for path in (out, tmp_path / "w.csv.meta.json", betas):
        assert stat.S_IMODE(os.stat(path).st_mode) == mode, path


# ------------------------------------------------------------- input fuzz

SPECIAL_NUMBERS = ["nan", "inf", "-inf", "0", "-1", "1e-300", "5e-324", "1e300"]
QS = ["1.2", "1.4", "1.6"]


def _mostly(ordinary, rare):
    """A draw from ``ordinary``, or (one draw in four) from ``rare``."""
    return st.sampled_from((ordinary, ordinary, ordinary, rare)).flatmap(lambda chosen: chosen)


def _counts(lo, hi, refused):
    """A count in [lo, hi], or one in ``refused``."""
    return _mostly(st.integers(lo, hi), st.sampled_from(refused))


def _numbers(lo, hi):
    """A value in [lo, hi], or a special float as a user may type it."""
    return _mostly(st.floats(lo, hi).map(repr), st.sampled_from(SPECIAL_NUMBERS))


@st.composite
def cli_runs(draw):
    """(argv without --out, output format) for a small calibrate/weights/dynamics run."""
    command = draw(st.sampled_from(["calibrate", "weights", "timeseries", "bloch-sweep"]))
    flags = {}

    def maybe(flag, values):
        value = draw(st.none() | values)
        if value is not None:
            flags[flag] = value

    maybe("--omega", _numbers(0.5, 2.0))
    if command == "calibrate":
        flags["--q"] = ",".join(draw(st.lists(st.sampled_from(["gibbs", *QS]),
                                              min_size=1, max_size=3)))
        lo, hi = draw(_numbers(0.1, 5.0)), draw(_numbers(0.1, 10.0))
        maybe("--grid", st.integers(1, 12).map(lambda count: f"{lo}:{hi}:{count}"))
    else:
        source = draw(st.sampled_from(["gamma", "gibbs", "betas-file"]))
        if source == "gamma":
            flags["--q"] = draw(st.sampled_from(QS))
            flags[draw(st.sampled_from(["--beta", "--beta-star"]))] = draw(_numbers(0.2, 5.0))
        elif source == "gibbs":
            flags["--gibbs"] = None
            flags["--beta"] = draw(_numbers(0.2, 5.0))
        else:
            flags["--betas-file"] = os.path.join(DATA_DIR, "normal_n100.betas")
        maybe("--tail-tol", _numbers(1e-10, 1e-2))
        flags["--n-cap"] = str(draw(_counts(1, 64, [-1, 0])))
    if command in ("timeseries", "bloch-sweep"):
        maybe("--delta", _numbers(-3.0, 3.0))
        maybe("--lambda", _numbers(0.0, 3.0))
        maybe("--T", _numbers(0.1, 20.0))
        maybe("--entropy", st.sampled_from(["vn", "tsallis"]))
        maybe("--entropy-q", _numbers(1.1, 1.9))
        maybe("--field-entropy", st.sampled_from(["full", "coarse"]))
    if command == "timeseries":
        maybe("--epsilon", _numbers(0.0, 1.0))
        flags["--grid"] = str(draw(_counts(2, 12, [0, 1])))
    elif command == "bloch-sweep":
        flags["--grid"] = f"{draw(_counts(1, 3, [0]))}x{draw(_counts(1, 3, [0]))}"
        flags["--t-samples"] = str(draw(_counts(2, 12, [0, 1])))
    argv = [command] + [flag if value is None else f"{flag}={value}"
                        for flag, value in flags.items()]
    return argv, draw(st.sampled_from(["csv", "json"]))


def _numeric_cells(path, fmt):
    """The rows, every number and the meta record of a written table."""
    if fmt == "json":
        payload = json.loads(path.read_text())
        rows, meta = payload["rows"], payload["meta"]
    else:
        _, rows = read_csv(path)
        meta = json.loads(path.with_name(path.name + ".meta.json").read_text())
    numbers = []
    for row in rows:
        for cell in row:
            if cell != "gibbs":  # calibrate's q column
                numbers.append(float(cell))
    return rows, numbers, meta


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cli_runs())
def test_every_input_ends_in_a_documented_exit_code(run):
    argv, fmt = run
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / f"out.{fmt}"
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([*argv, f"--format={fmt}", f"--out={out}"])
            except SystemExit as exc:  # argparse refuses a value its flag cannot take
                code = exc.code
        assert code in (0, 2, 3, 4, 5), argv
        assert not [name for name in os.listdir(tmp) if name.endswith(".tmp")], argv
        if code != 0:
            return
        rows, numbers, meta = _numeric_cells(out, fmt)
        assert rows and all(map(math.isfinite, numbers)), argv
        if argv[0] == "weights":
            weights = [float(row[1]) for row in rows]
            assert abs(math.fsum(weights) + meta["derived"]["tail_mass"] - 1.0) <= 1e-12, argv


@st.composite
def ensemble_gen_runs(draw):
    """argv without --out for a small ensemble-gen run."""
    flags = {"--shape": draw(st.sampled_from(["normal", "weibull"])),
             "--count": str(draw(_counts(1, 8, [0, -1]))),
             "--seed": str(draw(st.integers(-2, 2**70)))}

    def maybe(flag, values):
        value = draw(st.none() | values)
        if value is not None:
            flags[flag] = value

    maybe("--omega", _numbers(0.5, 2.0))
    maybe("--mean", _numbers(-3.0, 10.0))
    maybe("--sd", _numbers(0.01, 3.0))
    maybe("--scale", _numbers(0.1, 10.0))
    maybe("--shape-param", _numbers(0.2, 5.0))
    return ["ensemble-gen"] + [f"{flag}={value}" for flag, value in flags.items()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ensemble_gen_runs())
def test_every_ensemble_gen_ends_in_a_documented_exit_code(argv):
    # a hopeless spec (all mass at or below 0) exhausts its rejections in milliseconds
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ensemble, "_MAX_CONSECUTIVE_REJECTIONS", 200):
        out = pathlib.Path(tmp) / "e.betas"
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([*argv, f"--out={out}"])
            except SystemExit as exc:  # argparse refuses a value its flag cannot take
                code = exc.code
        assert code in (0, 2, 3, 4, 5), argv
        assert not [name for name in os.listdir(tmp) if name.endswith(".tmp")], argv
        if code != 0:
            assert not out.exists(), argv
            return
        model, _ = load_betas(out)
        count = int(argv[2].split("=")[1])
        assert len(model.betas) == count, argv
        assert all(0.0 < beta < math.inf for beta in model.betas), argv
