"""The three benchmark workloads: seeded CLI command sequences and their output checks.

A workload seed only picks values that leave the work size alone (detuning,
initial excited-state weight, ensemble seed); levels, time samples, grid points
and table sizes are fixed per workload and checked against what the program
records, so a drift in them is caught.  Checks run outside the timed region and
read only the files the CLI wrote.
"""

from __future__ import annotations

import json
import math
import os
import random
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import simpson

from jcentropy.ensemble import BetaEnsembleSpec, load_betas, sample_betas
from jcentropy.entropy import VON_NEUMANN, entropy_of, tsallis
from jcentropy.jcm import AtomInit, ModelParams, oracle_evolve
from jcentropy.superstat import (
    GammaSuperstat,
    photon_weights_gamma,
    photon_weights_gibbs,
    physical_beta,
)

LN11 = math.log(11.0)
ORACLE_TOL = 1e-8
NORM_TOL = 1e-12
CALIB_TOL = 1e-10


@dataclass
class Check:
    """One output check: the largest deviation found against its tolerance."""

    name: str
    deviation: float
    tol: float
    command: int  # index of the command whose output was checked

    @property
    def ok(self) -> bool:
        return math.isfinite(self.deviation) and self.deviation <= self.tol


@dataclass
class Plan:
    """A workload instance: one iteration's commands and how to check their outputs."""

    name: str
    seed: int
    commands: list[list[str]]
    tables: list[list[str]]  # per command: files holding emitted table rows
    files: list[list[str]]  # per command: every file it writes
    expected: dict[str, tuple[int, int]]  # work size -> (value, command that reports it)
    check: Callable[["Plan"], tuple[list[Check], dict]] = field(repr=False)

    def run_checks(self) -> tuple[list[Check], dict]:
        """Output checks plus one check per expected work size."""
        checks, sizes = self.check(self)
        for key, (value, command) in self.expected.items():
            checks.append(Check(f"check.size.{key}", abs(sizes.get(key, math.inf) - value),
                                0.0, command))
        return checks, sizes


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_meta(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def table_rows(path: str) -> int:
    """Data rows of a CSV or JSON table written by the CLI."""
    if path.endswith(".json"):
        return len(_read_meta(path)["rows"])
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _finite(values: np.ndarray) -> float:
    """0.0 when every value is finite, else inf (a deviation that fails any check)."""
    return 0.0 if np.all(np.isfinite(values)) else math.inf


# ------------------------------------------------------------ heavy_tail_trace


def heavy_tail_trace(seed: int, out: str, tiny: bool = False) -> Plan:
    """One Tsallis-entropy time series over 1e5 photon levels (the n-cap binds)."""
    rng = random.Random(seed)
    epsilon, delta = rng.uniform(0.1, 0.9), rng.uniform(-1.0, 1.0)
    n_cap, grid = (2000, 40) if tiny else (100000, 2000)
    path = os.path.join(out, "trace.csv")
    argv = ["timeseries", "--q", "1.6", "--beta", repr(LN11), "--tail-tol", "1e-4",
            "--grid", str(grid), "--epsilon", repr(epsilon), "--delta", repr(delta),
            "--out", path]
    if tiny:
        argv += ["--n-cap", str(n_cap)]
    return Plan(
        name="heavy_tail_trace", seed=seed, commands=[argv], tables=[[path]],
        files=[[path, path + ".meta.json"]],
        expected={"n_max": (n_cap, 0), "time_samples": (grid, 0), "rows": (grid, 0)},
        check=_check_heavy,
    )


def _oracle_entropies(params, atom, dist, kind, t):
    ev = oracle_evolve(params, atom, dist, t, n_cut=dist.n_max, warn_tol=1.0)
    return (entropy_of([ev.atom_excited, ev.atom_ground], kind),
            entropy_of(ev.field_weights, kind))


def _check_heavy(plan: Plan) -> tuple[list[Check], dict]:
    path = plan.tables[0][0]
    meta = _read_meta(path + ".meta.json")
    cfg, derived = meta["config"], meta["derived"]
    data = _read_csv(path)
    model = GammaSuperstat(q=1.6, beta_star=derived["beta_star"], omega=cfg["omega"])
    dist = photon_weights_gamma(model, tail_tol=cfg["tail_tol"], hard_cap=cfg["n_cap"])
    params = ModelParams.from_detuning(cfg["delta"], cfg["lam"], cfg["omega"])
    atom = AtomInit(epsilon=cfg["epsilon"])
    kind = tsallis(1.6)

    rows = np.unique(np.linspace(0, data.shape[0] - 1, 20).astype(int))
    s_a0, s_b0 = _oracle_entropies(params, atom, dist, kind, 0.0)
    dev = 0.0
    for i in rows:
        s_a, s_b = _oracle_entropies(params, atom, dist, kind, data[i, 0])
        dev = max(dev, abs(s_a - s_a0 - data[i, 1]), abs(s_b - s_b0 - data[i, 2]))
    calib = abs(physical_beta(model) - cfg["beta"]) / cfg["beta"]
    checks = [
        Check("check.heavy.oracle_max_dev", dev, ORACLE_TOL, 0),
        Check("check.heavy.finite", _finite(data), 0.0, 0),
        Check("check.heavy.calibration_rel_dev", calib, CALIB_TOL, 0),
        Check("check.heavy.norm_dev",
              abs(math.fsum(dist.weights) + dist.tail_mass - 1.0), NORM_TOL, 0),
    ]
    sizes = {"n_max": derived["n_max"], "time_samples": cfg["grid"],
             "rows": data.shape[0], "grid_points": 1, "distinct_eps": 1,
             "oracle_rows": int(rows.size)}
    return checks, sizes


# ----------------------------------------------------------- gibbs_bloch_sweep


def gibbs_bloch_sweep(seed: int, out: str, tiny: bool = False) -> Plan:
    """Time-averaged exchange over a 5x7 Bloch grid of a 7-level thermal cavity."""
    rng = random.Random(seed)
    delta = rng.uniform(-1.0, 1.0)
    grid, n_r, n_theta, samples = ("2x3", 2, 3, 60) if tiny else ("5x7", 5, 7, 1000)
    path = os.path.join(out, "sweep.csv")
    argv = ["bloch-sweep", "--gibbs", "--beta", repr(LN11), "--grid", grid,
            "--t-samples", str(samples), "--delta", repr(delta), "--out", path]
    return Plan(
        name="gibbs_bloch_sweep", seed=seed, commands=[argv], tables=[[path]],
        files=[[path, path + ".meta.json"]],
        expected={"n_max": (7, 0), "time_samples": (samples, 0),
                  "grid_points": (n_r * n_theta, 0),
                  "distinct_eps": (len(_distinct_eps(n_r, n_theta)), 0)},
        check=_check_gibbs,
    )


def _distinct_eps(n_r: int, n_theta: int) -> set[float]:
    return {min(max((1.0 + r * math.cos(th)) / 2.0, 0.0), 1.0)
            for r in np.linspace(0.0, 1.0, n_r) for th in np.linspace(0.0, math.pi, n_theta)}


def _check_gibbs(plan: Plan) -> tuple[list[Check], dict]:
    path = plan.tables[0][0]
    meta = _read_meta(path + ".meta.json")
    cfg, derived = meta["config"], meta["derived"]
    data = _read_csv(path)
    dist = photon_weights_gibbs(cfg["beta"], cfg["omega"], tail_tol=cfg["tail_tol"])
    params = ModelParams.from_detuning(cfg["delta"], cfg["lam"], cfg["omega"])
    times = np.linspace(0.0, cfg["horizon"], cfg["t_samples"])

    # both ends of the r=0 row, r=1 at theta=pi/2 and pi, and the middle row
    picks = sorted({0, derived["n_theta"] - 1, data.shape[0] - 1,
                    data.shape[0] - 1 - derived["n_theta"] // 2, data.shape[0] // 2})
    dev = 0.0
    for i in picks:
        r, theta, eps = data[i, :3]
        atom = AtomInit(epsilon=min(max((1.0 + r * math.cos(theta)) / 2.0, 0.0), 1.0))
        dev = max(dev, abs(atom.epsilon - eps))
        s = np.array([_oracle_entropies(params, atom, dist, VON_NEUMANN, t) for t in times])
        ds = s - s[0]
        for col in (0, 1):
            avg = simpson(ds[:, col], x=times) / (times[-1] - times[0])
            dev = max(dev, abs(avg - data[i, 3 + col]))
    checks = [
        Check("check.gibbs.recompute_max_dev", dev, ORACLE_TOL, 0),
        Check("check.gibbs.finite", _finite(data), 0.0, 0),
    ]
    sizes = {"n_max": derived["n_max"], "time_samples": cfg["t_samples"],
             "rows": data.shape[0], "grid_points": derived["n_r"] * derived["n_theta"],
             "distinct_eps": len(set(data[:, 2].tolist())), "recomputed_points": len(picks)}
    return checks, sizes


# -------------------------------------------------------------- thermal_tables


def thermal_tables(seed: int, out: str, tiny: bool = False) -> Plan:
    """Ensemble sampling, calibration tables and 1e5-row weight tables; no dynamics."""
    count, cal_grid, n_cap = (50, "0.5:10:10", 2000) if tiny else (1000, "0.5:10:200", 100000)
    beta = repr(LN11)
    p = lambda name: os.path.join(out, name)  # noqa: E731
    commands = [
        ["ensemble-gen", "--shape", "weibull", "--count", str(count), "--seed", str(seed),
         "--out", p("ensemble.betas")],
        ["weights", "--betas-file", p("ensemble.betas"), "--out", p("w_multi.csv")],
        ["calibrate", "--q", "gibbs,1.2,1.4,1.6,1.8", "--grid", cal_grid,
         "--out", p("calibrate.csv")],
        ["weights", "--q", "1.2", "--beta", beta, "--n-cap", str(n_cap), "--out", p("w_q12.csv")],
        ["weights", "--q", "1.6", "--beta", beta, "--n-cap", str(n_cap), "--out", p("w_q16.csv")],
        ["weights", "--q", "1.6", "--beta", beta, "--n-cap", str(n_cap), "--format", "json",
         "--out", p("w_q16.json")],
    ]
    tables = [[], [p("w_multi.csv")], [p("calibrate.csv")], [p("w_q12.csv")],
              [p("w_q16.csv")], [p("w_q16.json")]]
    files = [[p("ensemble.betas")]] + [
        t if t[0].endswith(".json") else t + [t[0] + ".meta.json"] for t in tables[1:]]
    return Plan(
        name="thermal_tables", seed=seed, commands=commands, tables=tables, files=files,
        expected={"betas": (count, 0),
                  "calibrate_rows": (5 * int(cal_grid.rsplit(":", 1)[1]), 2),
                  "q16_rows": (n_cap + 1, 4)},
        check=_check_thermal,
    )


def _weights_table(path: str) -> tuple[np.ndarray, dict]:
    if path.endswith(".json"):
        payload = _read_meta(path)
        return np.array(payload["rows"], dtype=float), payload["meta"]
    return _read_csv(path), _read_meta(path + ".meta.json")


def _check_thermal(plan: Plan) -> tuple[list[Check], dict]:
    gen = plan.commands[0]
    spec = BetaEnsembleSpec(shape="weibull", count=int(gen[gen.index("--count") + 1]),
                            seed=plan.seed)
    model, stored_spec = load_betas(plan.files[0][0])
    ref = sample_betas(spec).betas
    pack = lambda v: struct.pack(f"<{len(v)}d", *v)  # noqa: E731
    checks = [Check("check.thermal.betas_reload_mismatch",
                    0.0 if pack(model.betas) == pack(ref) and stored_spec == spec else 1.0,
                    0.0, 0)]

    sizes = {"betas": len(model.betas)}
    tables = {}
    for idx in (1, 3, 4, 5):
        path = plan.tables[idx][0]
        name = f"check.thermal.{os.path.basename(path)}"
        data, meta = _weights_table(path)
        tables[idx] = data
        derived = meta["derived"]
        total = math.fsum(data[:, 1]) + derived["tail_mass"]
        checks += [Check(f"{name}.finite", _finite(data), 0.0, idx),
                   Check(f"{name}.norm_dev", abs(total - 1.0), NORM_TOL, idx)]
        if derived["source"] == "gamma":
            model_q = GammaSuperstat(q=derived["q"], beta_star=derived["beta_star"],
                                     omega=derived["omega"])
            beta = meta["config"]["beta"]
            checks.append(Check(f"{name}.calibration_rel_dev",
                                abs(physical_beta(model_q) - beta) / beta, CALIB_TOL, idx))
        sizes[f"rows.{os.path.basename(path)}"] = data.shape[0]
    checks.append(Check("check.thermal.json_csv_mismatch",
                        0.0 if np.array_equal(tables[4], tables[5]) else 1.0, 0.0, 5))

    cal = np.genfromtxt(plan.tables[2][0], delimiter=",", skip_header=1, dtype=None,
                        encoding="utf-8")
    t_star = np.array([row[1] for row in cal], dtype=float)
    temp = np.array([row[2] for row in cal], dtype=float)
    gibbs = np.array([row[0] == "gibbs" for row in cal])
    checks += [
        Check("check.thermal.calibrate_gibbs_rel_dev",
              float(np.max(np.abs(temp[gibbs] - t_star[gibbs]) / t_star[gibbs])), 1e-12, 2),
        Check("check.thermal.calibrate_positive",
              0.0 if np.all(np.isfinite(temp) & (temp > 0)) else math.inf, 0.0, 2),
    ]
    sizes["calibrate_rows"] = len(cal)
    sizes["q16_rows"] = tables[4].shape[0]
    return checks, sizes


WORKLOADS = {
    "heavy_tail_trace": heavy_tail_trace,
    "gibbs_bloch_sweep": gibbs_bloch_sweep,
    "thermal_tables": thermal_tables,
}
