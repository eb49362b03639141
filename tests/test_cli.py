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
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jcentropy
from jcentropy import cli, ensemble
from jcentropy import entropy as entropy_module
from jcentropy.ensemble import load_betas
from jcentropy.cli import _csv_text, _json_text, build_parser, main
from jcentropy.superstat import (
    GammaSuperstat,
    photon_weights_gamma,
    photon_weights_gibbs,
    photon_weights_multilevel,
)
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

    def test_sidecar_names_the_tsallis_index_that_ran(self, tmp_path):
        # six significant digits would record 1.42188
        out = tmp_path / "ts.csv"
        assert main(["timeseries", "--gibbs", "--beta", "1", "--entropy", "tsallis",
                     "--entropy-q", "1.421875", "--grid", "8", "--out", str(out)]) == 0
        derived = json.loads((tmp_path / "ts.csv.meta.json").read_text())["derived"]
        assert derived["entropy"] == "tsallis(q=1.421875)"

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
    ["timeseries", "--gibbs", "--beta", "2", "--grid", "6"],
    ["bloch-sweep", "--gibbs", "--beta", "2", "--t-samples", "6"],
], ids=["timeseries", "bloch-sweep"])
def test_default_horizon_beyond_the_float_range_names_lambda(tmp_path, capsys, argv):
    # 50/|lambda| overflows: the user typed --lambda, never a horizon
    assert main([*argv, "--lambda", "1e-320", "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == (
        "jcentropy: --lambda 1e-320 takes the default horizon 50/|lambda| beyond the "
        "float range; set the horizon with --T\n"
    )
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["timeseries", "--gibbs", "--beta", "1", "--lambda", "1e-140", "--T", "1e155", "--grid", "7"],
    ["timeseries", "--gibbs", "--beta", "1", "--lambda", "0", "--T", "1e300"],
    ["timeseries", "--gibbs", "--beta", "1", "--lambda", "0", "--T", "1e105", "--grid", "8"],
    ["bloch-sweep", "--gibbs", "--beta", "1", "--lambda", "0", "--T", "1e105",
     "--t-samples", "8", "--grid", "1x2"],
], ids=["square-overflow", "zero-coupling", "cube-overflow", "bloch-sweep"])
def test_time_step_beyond_simpson_range_is_refused(tmp_path, capsys, argv):
    # the averaging weights hold no power of the step, so any horizon averages
    # without a warning, and without coupling nothing moves
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 0
    assert capsys.readouterr().err == ""
    _, *rows = (tmp_path / "x.csv").read_text().splitlines()
    table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    derived = json.loads((tmp_path / "x.csv.meta.json").read_text())["derived"]
    if argv[0] == "timeseries":
        cells = np.concatenate((table[:, 1:].ravel(), [derived["avg_dSa"], derived["avg_dSb"]]))
    else:
        cells = table[:, 3:].ravel()
    assert np.all(np.isfinite(cells))
    if argv[argv.index("--lambda") + 1] == "0":
        assert not np.any(cells)
    else:  # a weak coupling over a long horizon still moves the atom
        assert np.all(table[1:, 1] != 0.0)


@pytest.mark.parametrize("argv", [
    ["timeseries", "--gibbs", "--beta", "2", "--lambda", "2e154", "--grid", "5"],
    ["timeseries", "--gibbs", "--beta", "2", "--delta", "2e154", "--lambda", "1", "--T", "1e-160"],
    ["bloch-sweep", "--gibbs", "--beta", "2", "--lambda", "1e160"],
    ["timeseries", "--gibbs", "--beta", "0.01", "--lambda", "1e153"],
], ids=["lambda-squared", "delta-squared", "bloch-sweep", "lambda-squared-times-levels"])
def test_rabi_frequency_whose_square_overflows_is_refused(tmp_path, capsys, argv):
    # these once exited 3 with a bare OverflowError or after RuntimeWarnings and a NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("jcentropy: delta ") and " and lambda " in err
    assert "Rabi frequency" in err and "1.34e+154" in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("delta, omega", [("0.1", "1"), ("1.7e308", "1e308")])
def test_rabi_refusal_names_the_detuning_as_given(tmp_path, capsys, delta, omega):
    # a detuning rebuilt as (omega + delta) - omega read 0.10000000000000009,
    # and beside a huge omega a finite one overflowed to inf and was refused
    # as "delta must be finite"
    lam = "2e154" if delta == "0.1" else "1"
    argv = ["timeseries", "--gibbs", "--beta", "2", "--delta", delta, "--omega", omega,
            "--lambda", lam, "--grid", "5", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"jcentropy: delta {float(delta)!r} and lambda {float(lam)!r} take ")
    assert "Rabi frequency" in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_usage_error_comes_before_an_unresolvable_phase(tmp_path, capsys):
    # --T is checked with the time grid, after the entropy is resolved
    for horizon in ("1e300", "-1", "nan"):
        argv = ["timeseries", "--gibbs", "--beta", "2", f"--T={horizon}", "--entropy", "tsallis"]
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert "--entropy-q" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, named", [
    (["--mean", "inf", "--count", "2"], "mean must be finite, got inf"),
    (["--sd", "inf"], "sd must be finite, got inf"),
    (["--shape", "weibull", "--scale", "inf"], "scale must be finite, got inf"),
    (["--shape", "weibull", "--shape-param", "nan"], "shape_param must be finite, got nan"),
    (["--omega", "1e-310", "--mean", "1e300"], "got [inf, inf, inf]"),
    (["--shape", "weibull", "--shape-param", "1e-300", "--count", "3"],
     "weibull draws leave the float range at shape_param=1e-300, scale=None"),
    (["--shape", "weibull", "--shape-param", "0.001", "--scale", "1e300", "--count", "3"],
     "weibull draws leave the float range at shape_param=0.001, scale=1e+300"),
], ids=["mean", "sd", "scale", "shape-param", "draw-over-omega", "weibull-mean-matched-scale",
        "weibull-power"])
def test_ensemble_gen_refuses_non_finite_parameters(tmp_path, capsys, argv, named):
    assert main(["ensemble-gen", *argv, "--out", str(tmp_path / "e.betas")]) == 3
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_draw_that_rejects_every_sample_is_a_domain_error(tmp_path, capsys, monkeypatch):
    # a draw above 0 is possible here (8.57 sd up), but far rarer than one in 100
    monkeypatch.setattr(ensemble, "_MAX_CONSECUTIVE_REJECTIONS", 100)
    argv = ["ensemble-gen", "--mean", "-5", "--sd", "1", "--count", "1"]
    assert main([*argv, "--out", str(tmp_path / "e.betas")]) == 3
    err = capsys.readouterr().err
    assert "101 consecutive non-positive draws" in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("mean, sd", [("-100", "0.1"), ("-60", "0.5")])
def test_spec_with_no_positive_draw_is_refused_before_drawing(tmp_path, capsys, monkeypatch,
                                                              mean, sd):
    draws = []
    normal = ensemble.SplitMix64.normal
    monkeypatch.setattr(ensemble.SplitMix64, "normal",
                        lambda rng, *args: draws.append(args) or normal(rng, *args))
    monkeypatch.setattr(ensemble, "_MAX_CONSECUTIVE_REJECTIONS", 100)  # a drawing spec fails fast
    argv = ["ensemble-gen", "--mean", mean, "--sd", sd, "--count", "1"]
    assert main([*argv, "--out", str(tmp_path / "e.betas")]) == 3
    err = capsys.readouterr().err
    assert f"--mean {float(mean)!r} and --sd {float(sd)!r} the largest" in err
    assert err.count("\n") == 1
    assert draws == []
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


# a small run of each command that takes --config, and the flags with a non-null default
NULL_RUNS = {
    "calibrate": ({"q": "gibbs", "grid": "1:2:3"}, ["omega", "format", "grid"]),
    "weights": ({"gibbs": True, "beta": 2.0}, ["omega", "tail_tol", "format"]),
    "timeseries": ({"gibbs": True, "beta": 2.0, "horizon": 3, "grid": 16, "n_cap": 20},
                   ["omega", "tail_tol", "format", "delta", "lam", "field_entropy", "epsilon",
                    "grid", "n_cap"]),
    "bloch-sweep": ({"gibbs": True, "beta": 2.0, "horizon": 3, "grid": "2x2", "t_samples": 16,
                     "n_cap": 20},
                    ["omega", "tail_tol", "format", "delta", "lam", "field_entropy", "grid",
                     "t_samples", "n_cap"]),
    "ensemble-gen": ({"count": 5}, ["omega", "shape", "count", "seed", "mean", "sd",
                                    "shape_param"]),
}


@pytest.mark.parametrize("command, key", [(command, key) for command, (_, keys)
                                          in NULL_RUNS.items() for key in keys])
def test_null_config_value_keeps_the_flag_default(tmp_path, command, key):
    base = NULL_RUNS[command][0]
    configs = {"null": {**base, key: None},
               "absent": {k: v for k, v in base.items() if k != key}}
    for name, config in configs.items():
        run = tmp_path / name
        run.mkdir()
        (run / "cfg.json").write_text(json.dumps(config))
        assert main([command, "--config", str(run / "cfg.json"), "--out", str(run / "out")]) == 0
        (run / "cfg.json").unlink()
    outputs = sorted(os.listdir(tmp_path / "null"))  # the table, and a CSV table's sidecar
    assert outputs == sorted(os.listdir(tmp_path / "absent"))
    for name in outputs:
        assert (tmp_path / "null" / name).read_bytes() == (tmp_path / "absent" / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["timeseries", "--gibbs", "--beta", "1.0", "--epsilon", "0.3", "--T", "3", "--grid", "16"],
    ["calibrate", "--q", "gibbs,1.4", "--grid", "0.5:5:4"],
], ids=["timeseries", "calibrate"])
def test_json_output_reruns_from_itself_byte_identical(tmp_path, argv):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*argv, "--format", "json", "--out", str(first)]) == 0
    assert main([argv[0], "--config", str(first), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


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

    def test_epsilon_column_maps_the_poles_and_the_centre(self, tmp_path):
        # epsilon = (1 + r cos theta) / 2: r=0 is the centre, r=1 at theta=0 and pi the poles
        out = tmp_path / "bloch.csv"
        assert main(["bloch-sweep", "--gibbs", "--beta", "2.0", "--grid", "2x3",
                     "--T", "4", "--t-samples", "81", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        eps = {(float(r), float(theta)): float(e) for r, theta, e, *_ in rows}
        assert [eps[0.0, theta] for theta in (0.0, math.pi / 2, math.pi)] == [0.5] * 3
        assert eps[1.0, 0.0] == 1.0
        assert eps[1.0, math.pi] == 0.0

    def test_bad_grid_is_usage_error(self, tmp_path, capsys):
        # only the documented NRxNTHETA form is taken
        for grid in ("axb", "5,7", "5"):
            assert main(["bloch-sweep", "--gibbs", "--beta", "2.0", "--grid", grid,
                         "--out", str(tmp_path / "x.csv")]) == 2, grid
            assert capsys.readouterr().err == (
                f"jcentropy: usage error: expected grid as 'NRxNTHETA', got {grid!r}\n"
            )
        assert os.listdir(tmp_path) == []

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


@pytest.mark.parametrize("header, values, message", [
    ('{"omega": 0.0, "count": 1}', "2.0\n", "omega must be finite and positive, got 0.0"),
    ("{}", "", "at least one inverse temperature is required"),
], ids=["zero-omega", "no-values"])
def test_betas_model_refusal_names_the_file(tmp_path, capsys, header, values, message):
    betas = tmp_path / "bad.betas"
    betas.write_text(f"# {header}\n{values}")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["weights", "--betas-file", str(betas), "--out", str(out_dir / "w.csv")]) == 3
    assert capsys.readouterr().err == f"jcentropy: {betas}: {message}\n"
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
        # the shift reaches the walk every output goes through, and the oracle
        # comparison, not a probability guard, catches it on every config
        assert main(["selfcheck", "--inject-perturbation", "1e-6"]) == 4
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "oracle-equivalence" in line]
        assert len(lines) == 6
        for line in lines:
            assert line.startswith("[FAIL]")
            max_dev = float(line.split("max_dev=")[1].split()[0])
            assert 1e-8 < max_dev < math.inf

    def test_perturbation_beyond_the_weights_fails_without_traceback(self, capsys):
        # moving all of a weight and more leaves a negative one, which the
        # checks report as failed
        assert main(["selfcheck", "--inject-perturbation", "1"]) == 4
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        # the six oracle-equivalence lines and the oracle-average line
        assert captured.out.count("max_dev=inf") == 7

    @pytest.fixture(scope="class")
    def check_names(self):
        """Names of the checks a passing selfcheck reports, in order."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["selfcheck"]) == 0
        return self.names(stdout.getvalue())

    @staticmethod
    def names(report):
        return [line.split("] ", 1)[1].split(":")[0] for line in report.splitlines()
                if line.startswith("[")]

    def test_leaking_walk_exits_4_with_every_line(self, monkeypatch, capsys, check_names):
        # field weights that gain what no atomic sector lost trip the walk's
        # probability guard where no tail mass absorbs them; every check on
        # the walk reports a failure, and no error escapes as a domain failure
        transfers = entropy_module.manifold_transfers

        def leaky(params, epsilon, dist):
            delta_n, a1 = transfers(params, epsilon, dist)
            # the walk reads the weights after its transfers are set
            dist.weights[1] += 1e-5
            return delta_n, a1

        monkeypatch.setattr(entropy_module, "manifold_transfers", leaky)
        assert main(["selfcheck"]) == 4
        captured = capsys.readouterr()
        assert captured.err == ""
        assert self.names(captured.out) == check_names
        assert captured.out.splitlines()[-1] == "selfcheck: FAILURES detected"
        walked = [line for line in captured.out.splitlines()
                  if any(name in line for name in ("oracle-", "exchange-zero", "flat-trace"))]
        assert len(walked) == 9 and all(line.startswith("[FAIL]") for line in walked)
        assert all("max_dev=inf" in line for line in walked if "gamma-q1.5" not in line)

    @pytest.mark.parametrize("mutation", ["a1-negated", "delta_n-scaled", "a1-rolled",
                                          "delta_n-scaled-5e-10"])
    def test_transfer_faults_exit_4_with_every_line(self, monkeypatch, capsys, check_names,
                                                    mutation):
        # a transfer of the wrong sign, a Rabi frequency off by 1e-9 or 5e-10
        # and a transfer moved up one level each reach the walk through its one seam
        transfers = entropy_module.manifold_transfers

        def faulty(params, epsilon, dist):
            delta_n, a1 = transfers(params, epsilon, dist)
            if mutation == "a1-negated":
                return delta_n, -a1
            if mutation == "delta_n-scaled":
                return delta_n * (1.0 + 1e-9), a1
            if mutation == "delta_n-scaled-5e-10":
                return delta_n * (1.0 + 5e-10), a1
            return delta_n, np.roll(a1, 1, axis=-1)

        monkeypatch.setattr(entropy_module, "manifold_transfers", faulty)
        assert main(["selfcheck"]) == 4
        captured = capsys.readouterr()
        assert captured.err == ""
        assert self.names(captured.out) == check_names
        assert captured.out.splitlines()[-1] == "selfcheck: FAILURES detected"
        # the few-level oracle lines see each fault by a factor of 3 or more
        few_levels = [line for line in captured.out.splitlines()
                      if line.split("[")[-1].startswith(("gibbs,", "gamma-q1.5,"))]
        assert len(few_levels) == 4 and all(line.startswith("[FAIL]") for line in few_levels)

    @pytest.mark.parametrize("mutation", ["end-correction-dropped", "correction-on-first-panel",
                                          "uniform-weights"])
    def test_weight_faults_exit_4_with_every_line(self, monkeypatch, capsys, check_names,
                                                  mutation):
        # the oracle-average line weighs 400 samples, an even count, so it sees
        # Cartwright's last panel left out or moved to the first, and a plain mean
        weights = entropy_module._simpson_weights

        def faulty(samples):
            if mutation == "uniform-weights":
                return np.full(samples, 1.0 / samples)
            if samples % 2 == 1:
                return weights(samples)
            if mutation == "correction-on-first-panel":
                return weights(samples)[::-1].copy()
            dropped = weights(samples)
            dropped[-3:] -= np.array([-1.0, 8.0, 5.0]) / (12.0 * (samples - 1))
            return dropped

        monkeypatch.setattr(entropy_module, "_simpson_weights", faulty)
        assert main(["selfcheck"]) == 4
        report = capsys.readouterr().out
        assert self.names(report) == check_names
        average = [line for line in report.splitlines() if "oracle-average" in line]
        assert len(average) == 1 and average[0].startswith("[FAIL]")
        assert sum(line.startswith("[FAIL]") for line in report.splitlines()) == 1

    def test_recurrence_step_fault_exits_4_with_every_line(self, monkeypatch, capsys,
                                                           check_names):
        # a recurrence step scaled by 1 + 1e-9 drifts the phase of every chunk
        # after the first; the few-level lines walk 32 chunks and see it per sample
        transfers = entropy_module._transfers

        def scaled(times, delta_n, a1, rows, first, stop, steps):
            step = min(rows, times.size // 2) * (times[-1] / (times.size - 1)) * delta_n
            step *= 1.0 + 1e-9
            yield from transfers(times, delta_n, a1, rows, first, stop,
                                 (2.0 * np.cos(step), np.sin(step)))

        monkeypatch.setattr(entropy_module, "_transfers", scaled)
        assert main(["selfcheck"]) == 4
        report = capsys.readouterr().out
        assert self.names(report) == check_names
        few_levels = [line for line in report.splitlines()
                      if line.split("[")[-1].startswith(("gibbs,", "gamma-q1.5,"))]
        assert len(few_levels) == 4 and all(line.startswith("[FAIL]") for line in few_levels)

    @pytest.mark.parametrize("mutation", ["swapped-halves", "plain-mean"])
    def test_averaging_faults_exit_4_with_every_line(self, monkeypatch, capsys, check_names,
                                                     mutation):
        # the oracle-average line sees a walk that returns the field exchange
        # as the atom's, and averages taken without Simpson's weights
        if mutation == "swapped-halves":
            exchanges = entropy_module._exchanges
            monkeypatch.setattr(entropy_module, "_exchanges", lambda *args: exchanges(*args)[::-1])
        else:
            monkeypatch.setattr(entropy_module, "_window_average",
                                lambda times, values: np.mean(values, axis=-1))
        assert main(["selfcheck"]) == 4
        report = capsys.readouterr().out
        assert self.names(report) == check_names
        average = [line for line in report.splitlines() if "oracle-average" in line]
        assert len(average) == 1 and average[0].startswith("[FAIL]")


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
    # blocks of 3 rows give the drawn tables no rows, one block, a whole
    # number of blocks and a short last block
    for block_rows in (cli.BLOCK_ROWS, 3):
        with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
            assert "".join(_csv_text(by_name)) == rowwise_csv(names, rows)
            assert "".join(_json_text(by_name, meta)) == rowwise_json(names, rows, meta)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitted_table_is_held_one_block_at_a_time(tmp_path, fmt):
    # the whole text of these 2e5 rows took 47 MiB (CSV) and 57 MiB (JSON)
    rows = 200000
    table = {"n": np.arange(rows), "p": np.linspace(0.0, 1.0, rows) ** 3}
    meta = {"command": "test", "config": {}, "derived": {}}
    cfg = {"out": str(tmp_path / f"t.{fmt}"), "format": fmt}
    tracemalloc.start()
    try:
        cli._emit(cfg, table, meta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert (tmp_path / f"t.{fmt}").stat().st_size > 20 * rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failure_in_a_later_block_leaves_the_old_output(tmp_path, monkeypatch, fmt):
    # the third block of two rows holds a cell no table column may hold
    monkeypatch.setattr(cli, "BLOCK_ROWS", 2)
    table = {"x": [0.5, 1.5, 2.5, 3.5, None]}
    out = tmp_path / f"t.{fmt}"
    out.write_text("old output\n")
    (tmp_path / f"t.{fmt}.meta.json").write_text("old sidecar\n")
    blocks = []
    real_cells = cli._cells

    def cells(column, json_cells):
        blocks.append(len(column))
        return real_cells(column, json_cells)

    monkeypatch.setattr(cli, "_cells", cells)
    with pytest.raises(TypeError, match="unsupported table column"):
        cli._emit({"out": str(out), "format": fmt}, table, {})
    assert blocks == [2, 2, 1]
    assert sorted(os.listdir(tmp_path)) == [f"t.{fmt}", f"t.{fmt}.meta.json"]
    assert out.read_text() == "old output\n"
    assert (tmp_path / f"t.{fmt}.meta.json").read_text() == "old sidecar\n"


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


@pytest.mark.parametrize("argv", [
    ["timeseries", "--gibbs", "--beta", "2"],
    ["bloch-sweep", "--gibbs", "--beta", "2", "--grid", "5x7"],
    ["timeseries", "--betas-file", os.path.join(DATA_DIR, "normal_n100.betas")],
], ids=["gibbs-trace", "gibbs-sweep", "betas-file-trace"])
def test_dynamics_runs_leave_scipy_unimported(tmp_path, argv):
    # only calibrate_beta_star's root solve and selfcheck's reference rule need scipy
    snippet = ("import sys\nfrom jcentropy.cli import main\n"
               f"assert main({[*argv, '--out', str(tmp_path / 'x.csv')]!r}) == 0\n"
               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(jcentropy.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", snippet], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
    assert (tmp_path / "x.csv").exists()


def test_only_the_selfcheck_command_imports_selfcheck(tmp_path):
    # its module body sets up the fuzz tables, which no other command reads
    argv = ["timeseries", "--gibbs", "--beta", "2", "--out", str(tmp_path / "x.csv")]
    snippet = ("import sys, jcentropy.cli\njcentropy.cli.build_parser()\n"
               "print('jcentropy.selfcheck' in sys.modules)\n"
               f"assert jcentropy.cli.main({argv!r}) == 0\n"
               "print('jcentropy.selfcheck' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(jcentropy.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", snippet], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["False", "False"]
    assert (tmp_path / "x.csv").exists()


def _subparser(parser, command):
    return parser._subparsers._group_actions[0].choices[command]


def _action_record(action):
    return (type(action), action.option_strings, action.dest, action.default, action.type,
            action.choices, action.nargs, action.const, action.help, action.required)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_parser_of_one_command_equals_its_part_of_the_full_parser(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help text to the terminal width
    full, partial = build_parser(), build_parser(command)
    assert full.format_help() == partial.format_help()
    assert full.format_usage() == partial.format_usage()
    full_sub, sub = _subparser(full, command), _subparser(partial, command)
    assert [_action_record(a) for a in sub._actions] == [
        _action_record(a) for a in full_sub._actions]
    assert sub._defaults.pop("parser") is sub
    assert full_sub._defaults.pop("parser") is full_sub
    assert sub._defaults == full_sub._defaults
    assert sub.format_help() == full_sub.format_help()
    for other in cli._COMMANDS.keys() - {command}:  # named with their help, but empty
        assert [a.dest for a in _subparser(partial, other)._actions] == ["help"]


@pytest.mark.parametrize("argv", [
    ["bloch-sweep", "--gibbs", "--beta", "2", "--grid", "1x2", "--t-samples", "3"],
    ["calibrate", "--q", "gibbs", "--grid", "1:2:2"],
], ids=["bloch-sweep", "calibrate"])
def test_main_adds_the_flags_of_the_command_it_runs_only(tmp_path, monkeypatch, argv):
    added = []

    def recording(name, add_arguments):
        def add(sub):
            added.append(name)
            add_arguments(sub)
        return add

    for name, (help_text, add_arguments) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (help_text, recording(name, add_arguments)))
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 0
    assert added == [argv[0]]


def test_outputs_agree_across_cpu_dispatch_tiers(tmp_path):
    # NumPy rounds exp, log, log1p and power differently on each SIMD tier, so
    # another tier gives other bytes; it must still give the same numbers
    src = os.path.dirname(os.path.dirname(os.path.abspath(jcentropy.__file__)))
    beta = repr(math.log(11.0))
    runs = [["timeseries", "--q", "1.4", "--beta", beta, "--tail-tol", "1e-6", "--epsilon", "0.3",
             "--delta", "0.3", "--grid", "401", "--T", "12.5", "--out", "trace.csv"],
            ["weights", "--q", "1.4", "--beta", beta, "--tail-tol", "1e-6", "--out", "weights.csv"]]
    snippet = f"from jcentropy.cli import main\nfor argv in {runs!r}:\n    assert main(argv) == 0"
    tables = {}
    for tier, mask in (("plain", None), ("masked", "X86_V4 AVX512_ICL AVX512_SPR")):
        env = {key: value for key, value in os.environ.items()
               if key not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if mask is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = mask
        (tmp_path / tier).mkdir()
        subprocess.run([sys.executable, "-c", snippet], env=env, cwd=tmp_path / tier, check=True)
        tables[tier] = {name: np.loadtxt(tmp_path / tier / name, delimiter=",", skiprows=1)
                        for name in ("trace.csv", "weights.csv")}
    plain, masked = tables["plain"], tables["masked"]
    # a cell near zero is held to 1e-13 absolute, far inside the 1e-8 oracle criterion
    np.testing.assert_allclose(masked["trace.csv"], plain["trace.csv"], rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(masked["weights.csv"], plain["weights.csv"], rtol=1e-13, atol=0.0)


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


def test_outputs_leave_the_umask_alone(tmp_path, monkeypatch):
    # the umask is per process: setting it, even for a moment, would leave the
    # files other threads create meanwhile unmasked
    monkeypatch.setattr(os, "umask", mock.Mock(side_effect=AssertionError("umask set")))
    betas = tmp_path / "e.betas"
    assert main(["ensemble-gen", "--count", "5", "--seed", "1", "--out", str(betas)]) == 0
    assert main(["weights", "--betas-file", str(betas), "--out", str(tmp_path / "w.csv")]) == 0
    assert sorted(os.listdir(tmp_path)) == ["e.betas", "w.csv", "w.csv.meta.json"]


def test_temporary_name_in_use_is_left_to_its_owner(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    theirs = tmp_path / ".jcentropy-0000000000000000.tmp"
    theirs.write_text("theirs")
    with pytest.raises(FileExistsError):
        ensemble._write_atomic(str(tmp_path / "x.csv"), ("mine\n",))
    assert os.listdir(tmp_path) == [theirs.name] and theirs.read_text() == "theirs"


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


@st.composite
def oracle_sized_runs(draw):
    """argv without --out for a valid timeseries or bloch-sweep run of at most 41 levels.

    omega stays in [0.5, 2]: the oracle evolves in the lab frame, where a huge
    omega rounds the coupling away, while the walk never sees omega.  Up to
    300 samples, so the cosine recurrence runs over several chunks.
    """
    command = draw(st.sampled_from(["timeseries", "bloch-sweep"]))
    source = draw(st.sampled_from(["gamma", "gibbs", "betas-file"]))

    def number(lo, hi):
        return repr(draw(st.floats(lo, hi)))

    flags = {}
    if source == "gamma":
        flags["--q"] = number(1.1, 1.9)
        flags[draw(st.sampled_from(["--beta", "--beta-star"]))] = number(0.2, 5.0)
    elif source == "gibbs":
        flags["--gibbs"] = None
        flags["--beta"] = number(0.2, 5.0)
    else:
        flags["--betas-file"] = os.path.join(DATA_DIR, "normal_n100.betas")
    if source != "betas-file":  # the file fixes its own omega
        flags["--omega"] = number(0.5, 2.0)
    flags["--n-cap"] = str(draw(st.integers(1, 40)))
    flags["--delta"] = number(-3.0, 3.0)
    flags["--lambda"] = number(0.0, 3.0)
    flags["--T"] = number(0.1, 40.0)
    flags["--entropy"] = draw(st.sampled_from(["vn", "tsallis"]))
    if flags["--entropy"] == "tsallis" and (source != "gamma" or draw(st.booleans())):
        flags["--entropy-q"] = number(1.1, 1.9)
    flags["--field-entropy"] = draw(st.sampled_from(["full", "coarse"]))
    samples = str(draw(st.integers(2, 300)))
    if command == "timeseries":
        flags["--epsilon"] = number(0.0, 1.0)
        flags["--grid"] = samples
    else:
        flags["--grid"] = f"{draw(st.integers(1, 3))}x{draw(st.integers(1, 3))}"
        flags["--t-samples"] = samples
    argv = [command] + [flag if value is None else f"{flag}={value}"
                        for flag, value in flags.items()]
    return argv, draw(st.sampled_from(["csv", "json"]))


def _recorded_state(meta):
    """(params, distribution, entropy kind, coarse?) rebuilt from a run's own record."""
    cfg, derived = meta["config"], meta["derived"]
    omega, tol, cap = cfg["omega"], cfg["tail_tol"], cfg["n_cap"]
    if derived["source"] == "gamma":
        model = GammaSuperstat(q=derived["q"], beta_star=derived["beta_star"], omega=omega)
        dist = photon_weights_gamma(model, tail_tol=tol, hard_cap=cap)
    elif derived["source"] == "gibbs":
        dist = photon_weights_gibbs(cfg["beta"], omega, tail_tol=tol, hard_cap=cap)
    else:
        dist = photon_weights_multilevel(load_betas(cfg["betas_file"])[0], tail_tol=tol,
                                         hard_cap=cap)
    assert dist.n_max == derived["n_max"] and dist.tail_mass == derived["tail_mass"]
    if cfg["entropy"] == "vn":
        kind = jcentropy.VON_NEUMANN
    else:  # the index itself, never the text of the label
        q = cfg["entropy_q"] if cfg["entropy_q"] is not None else derived["q"]
        kind = jcentropy.tsallis(q)
    params = jcentropy.ModelParams(delta=cfg["delta"], omega=omega, lam=cfg["lam"])
    return params, dist, kind, cfg["field_entropy"] == "coarse"


def _oracle_exchanges(params, epsilon, dist, kind, coarse, times):
    """(dS_a, dS_b) at each of ``times``, from the dense oracle, against the state as given."""

    def entropies(atom, field, tail):
        if coarse:
            field = [field[0], math.fsum(field[1:]) + tail]
        return (jcentropy.entropy_of(atom, kind), jcentropy.entropy_of(field, kind))

    s0_atom, s0_field = entropies([epsilon, 1.0 - epsilon], dist.weights, dist.tail_mass)
    ds = np.empty((2, len(times)))
    for i, t in enumerate(times):
        ora = jcentropy.oracle_evolve(params, jcentropy.AtomInit(epsilon), dist, t,
                                      n_cut=dist.n_max, warn_tol=1.0)
        s_atom, s_field = entropies([ora.atom_excited, ora.atom_ground], ora.field_weights,
                                    ora.tail_mass)
        ds[:, i] = s_atom - s0_atom, s_field - s0_field
    return ds


@settings(max_examples=60, deadline=None, derandomize=True)
@given(oracle_sized_runs())
def test_every_written_exchange_matches_the_dense_oracle(run):
    from scipy.integrate import simpson

    argv, fmt = run
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / f"out.{fmt}"
        assert main([*argv, f"--format={fmt}", f"--out={out}"]) == 0, argv
        rows, _, meta = _numeric_cells(out, fmt)
    params, dist, kind, coarse = _recorded_state(meta)
    cfg, derived = meta["config"], meta["derived"]
    table = np.array(rows, dtype=float)
    if argv[0] == "timeseries":
        times = table[:, 0]
        ds = _oracle_exchanges(params, cfg["epsilon"], dist, kind, coarse, times)
        assert np.max(np.abs(table[:, 1:3] - ds.T)) <= 1e-8, argv
        assert np.max(np.abs(table[:, 3] - ds.sum(axis=0))) <= 1e-8, argv
        averages = [[derived["avg_dSa"], derived["avg_dSb"]]]
        epsilons = [cfg["epsilon"]]
    else:
        times = np.linspace(0.0, cfg["horizon"], cfg["t_samples"])
        averages = table[:, 3:5]
        epsilons = table[:, 2]
    for epsilon, written in zip(epsilons, averages):
        ds = _oracle_exchanges(params, epsilon, dist, kind, coarse, times)
        expected = simpson(ds, x=times, axis=-1) / cfg["horizon"]
        assert np.max(np.abs(np.asarray(written) - expected)) <= 1e-8, argv


def _config_flags(command):
    """The flags of ``command`` that a config file may set (dest -> action), ``out`` aside."""
    sub = build_parser(command).parse_args([command]).parser
    return {a.dest: a for a in sub._actions if a.dest not in ("help", "config", "out")}


def _typed(action):
    """Values of the JSON type that ``action`` takes, within its choices."""
    if action.nargs == 0:
        return st.booleans()
    if action.choices is not None:
        return st.sampled_from(action.choices)
    return {None: st.text(max_size=5), int: st.integers(-3, 3),
            float: st.floats(0.0, 5.0) | st.sampled_from(EDGE_FLOATS)}[action.type]


ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(), st.sampled_from(EDGE_FLOATS),
    st.floats(), st.text(max_size=5), st.lists(st.integers(0, 3), max_size=2),
)
# work sizes, always set, so that no run falls back to a large default
WORK_SIZES = {
    "n_cap": _counts(1, 64, [-1, 0]), "t_samples": _counts(2, 12, [0, 1]),
    "count": _counts(1, 8, [-1, 0]),
    ("grid", "calibrate"): st.builds("{}:{}:{}".format, _numbers(0.1, 5.0), _numbers(0.1, 10.0),
                                     _counts(1, 12, [0])),
    ("grid", "timeseries"): _counts(2, 12, [0, 1]),
    ("grid", "bloch-sweep"): st.builds("{}x{}".format, _counts(1, 3, [0]), _counts(1, 3, [0])),
}
SOURCES = {
    "gamma": st.fixed_dictionaries({"q": st.sampled_from(QS), "beta": st.floats(0.2, 5.0)}),
    "gibbs": st.fixed_dictionaries({"gibbs": st.just(True), "beta": st.floats(0.2, 5.0)}),
    "betas-file": st.just({"betas_file": os.path.join(DATA_DIR, "normal_n100.betas")}),
}


@st.composite
def config_runs(draw):
    """(command, config file text): one model, drawn flags, one wild value, one unknown key."""
    command = draw(st.sampled_from(["calibrate", "weights", "timeseries", "bloch-sweep",
                                    "ensemble-gen"]))
    flags = _config_flags(command)
    config = {}
    if command == "calibrate":
        config["q"] = draw(st.sampled_from(["gibbs", "gibbs,1.4", *QS]))
    elif command != "ensemble-gen":
        config.update(draw(st.sampled_from(sorted(SOURCES)).flatmap(SOURCES.get)))
    for key in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5)):
        config[key] = draw(_typed(flags[key]))
    for key in flags:
        size = WORK_SIZES.get(key, WORK_SIZES.get((key, command)))
        if size is not None:
            config[key] = draw(size)
    wild = draw(st.none() | st.sampled_from(sorted(flags)))
    if wild is not None:  # any JSON value, null included, for any flag
        config[wild] = draw(ANY_VALUE)
    unknown = draw(st.sampled_from(["bogus", "seed", "func", "parser", "help", "config",
                                    "command", "columns"]).filter(lambda k: k not in flags))
    config[unknown] = draw(ANY_VALUE)
    wrapper = draw(st.sampled_from(["flat", "sidecar", "json-output"]))
    if wrapper == "sidecar":
        config = {"command": command, "config": config}
    elif wrapper == "json-output":
        config = {"columns": [], "meta": {"config": config}, "rows": []}
    return command, json.dumps(config)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config_runs())
def test_every_config_file_ends_in_a_documented_exit_code(run):
    command, text = run
    # a spec that draws but rarely gets a positive value gives up in milliseconds
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(ensemble, "_MAX_CONSECUTIVE_REJECTIONS", 200):
        config = pathlib.Path(tmp) / "cfg.json"
        config.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, f"--config={config}", f"--out={pathlib.Path(tmp) / 'out'}"])
        assert code in (0, 2, 3, 4, 5), text
        assert "Traceback" not in err.getvalue(), text
        assert not [name for name in os.listdir(tmp) if name.endswith(".tmp")], text


# ------------------------------------------------- refusals before any work

HEAVY_TRACE = ["timeseries", "--q", "1.6", "--beta", repr(math.log(11.0)), "--tail-tol", "1e-4"]
BETAS_FILE = os.path.join(DATA_DIR, "normal_n100.betas")


def _refuse(*args, **kwargs):
    raise AssertionError("called before the refusal")


@pytest.mark.parametrize("argv", [
    ["calibrate", "--q", "gibbs"],
    ["calibrate"],  # no --q either: the missing --out is reported first
    ["weights", "--gibbs", "--beta", "2"],
    HEAVY_TRACE,
    ["bloch-sweep", "--gibbs", "--beta", "2"],
    ["ensemble-gen"],
], ids=["calibrate", "calibrate-no-q", "weights", "timeseries", "bloch-sweep", "ensemble-gen"])
def test_missing_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv):
    for name in ("calibrate_beta_star", "photon_weights_gamma", "photon_weights_gibbs",
                 "physical_beta", "sample_betas"):
        monkeypatch.setattr(cli, name, _refuse)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "jcentropy: usage error: --out is required\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["weights", "timeseries", "bloch-sweep"])
@pytest.mark.parametrize("q", ["gibbs", "Gibbs", "x", "1.2,1.4", ""])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_q_that_is_no_gamma_index_is_usage_error(tmp_path, capsys, command, q, via):
    argv = [command, "--beta", "2", "--n-cap", "5"]
    if via == "flag":
        argv += [f"--q={q}"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"q": q}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("jcentropy: usage error: --q ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_calibrate_words_a_bad_q_entry_as_before(tmp_path, capsys):
    assert main(["calibrate", "--q", "gibbs, 1.2,Foo", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        "jcentropy: usage error: --q entries must be numbers or 'gibbs', got 'foo'\n")


# (a run, the flag its model never reads, that flag's config key and value)
UNREAD_FLAGS = {
    "beta-with-betas-file": (["weights", "--betas-file", BETAS_FILE], "--beta", "beta", 7.0),
    "beta-star-with-betas-file": (["weights", "--betas-file", BETAS_FILE], "--beta-star",
                                  "beta_star", 9.0),
    "beta-star-with-gibbs": (["weights", "--gibbs", "--beta", "2"], "--beta-star", "beta_star",
                             9.0),
    "entropy-q-with-explicit-vn": (["timeseries", "--q", "1.5", "--beta", "2", "--entropy", "vn",
                                    "--n-cap", "5", "--grid", "2"],
                                   "--entropy-q", "entropy_q", 1.7),
    "entropy-q-with-gibbs": (["bloch-sweep", "--gibbs", "--beta", "2", "--grid", "1x1",
                              "--t-samples", "2"], "--entropy-q", "entropy_q", 1.7),
    "entropy-q-with-betas-file": (["timeseries", "--betas-file", BETAS_FILE, "--n-cap", "5",
                                   "--grid", "2"], "--entropy-q", "entropy_q", 1.7),
}


@pytest.mark.parametrize("case", UNREAD_FLAGS)
@pytest.mark.parametrize("via", ["flag", "config"])
def test_flag_the_model_never_reads_is_usage_error(tmp_path, capsys, case, via):
    # such runs exited 0 and recorded the value as if it had shaped the output
    argv, flag, key, value = UNREAD_FLAGS[case]
    if via == "flag":
        argv = [*argv, flag, repr(value)]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"jcentropy: usage error: {flag} ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["timeseries", "--gibbs", "--beta", "2", "--grid", "1000000000000000"],
    ["bloch-sweep", "--gibbs", "--beta", "2", "--t-samples", "1000000000000000"],
], ids=["timeseries", "bloch-sweep"])
def test_allocation_beyond_memory_is_domain_error(tmp_path, capsys, argv):
    # a 7.11 PiB time grid: numpy refuses it at once, before allocating anything
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("jcentropy: out of memory: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, memory, walk", [
    (["timeseries", "--gibbs", "--beta", "2", "--grid", "1000"], 2**16,
     "a walk over 1000 time samples and "),
    (["bloch-sweep", "--gibbs", "--beta", "2", "--t-samples", "1000"], 2**16,
     "a walk over 1000 time samples and "),
    # one group of the million points' walk takes 1.9 MB, the points 80 MB
    (["bloch-sweep", "--gibbs", "--beta", "2", "--t-samples", "2", "--T", "1",
      "--grid", "1000x1000"], 2**24,
     "a walk over 2 time samples and 10 photon levels, for 1000000 atom preparation(s), "
     "needs an estimated 0.0763 GiB"),
], ids=["timeseries", "bloch-sweep", "bloch-sweep-grid"])
def test_walk_beyond_physical_memory_is_refused_before_it_starts(tmp_path, capsys, monkeypatch,
                                                                  argv, memory, walk):
    # an allocation the OS overcommits is not refused at once, so the walk is
    # sized first; the time grid is the first array of its length, and a
    # sweep's grid columns come after it
    monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
    for name in ("linspace", "repeat", "tile"):
        monkeypatch.setattr(np, name, mock.Mock(side_effect=AssertionError("allocated")))
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"jcentropy: out of memory: {walk}")
    assert f"more than the {memory / 2**30:.3g} GiB of physical memory\n" in err
    assert err.count("\n") == 1 and os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, extra, n_cap, n_max", [
    ("timeseries", ["--grid", "2"], 100000, 100000),
    ("bloch-sweep", ["--grid", "1x1", "--t-samples", "2"], 100000, 100000),
    ("weights", [], None, None),
])
def test_n_cap_defaults(tmp_path, command, extra, n_cap, n_max):
    # dynamics runs cap a heavy tail at 1e5 levels; weights keeps the 1e7 ceiling
    model = (["--q", "1.6", "--beta", repr(math.log(11.0)), "--tail-tol", "1e-4", "--T", "1"]
             if n_max else ["--gibbs", "--beta", "2"])
    assert main([command, *model, *extra, "--out", str(tmp_path / "x.csv")]) == 0
    meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
    assert meta["config"]["n_cap"] == n_cap
    if n_max:
        assert meta["derived"]["n_max"] == n_max and meta["derived"]["tail_limited"] is True


@pytest.mark.parametrize("argv, code, message", [
    (["weights", "--gibbs"], 2, "usage error: --gibbs needs --beta"),
    (["calibrate", "--q", "gibbs", "--grid", "0:1:3"], 2,
     "usage error: T* grid must be strictly positive"),
    (["calibrate", "--q", "gibbs", "--grid", "1e300:1e300:1", "--omega", "1e10"], 3,
     "T* grid '1e300:1e300:1' leaves the float range at omega=10000000000.0"),
], ids=["gibbs-without-beta", "t-star-not-positive", "t-star-out-of-float-range"])
def test_model_and_grid_refusals(tmp_path, capsys, argv, code, message):
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == code
    assert capsys.readouterr().err == f"jcentropy: {message}\n"
    assert os.listdir(tmp_path) == []
