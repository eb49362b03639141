"""Command-line surface.

Subcommands: ``calibrate``, ``weights``, ``timeseries``, ``bloch-sweep``,
``ensemble-gen``, ``selfcheck``.  Every file-producing command writes its
output atomically and records the fully resolved run configuration
(including derived quantities) either embedding it (JSON format, betas
files) or in a ``<out>.meta.json`` sidecar, so any output can be
regenerated byte-for-byte from its own metadata.

Exit codes: 0 success, 2 usage, 3 numeric-domain failure, 4 accuracy
failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .ensemble import (
    BetaEnsembleSpec,
    _write_atomic,
    load_betas,
    sample_betas,
    save_betas,
)
from .entropy import (
    VON_NEUMANN,
    BlochPoint,
    EntropyKind,
    FieldEntropyForm,
    bloch_sweep,
    entropy_trace,
    tsallis,
)
from .jcm import AtomInit, ModelParams
from .selfcheck import run_selfcheck
from .specfun import AccuracyError
from .superstat import (
    HARD_CAP,
    MAX_OFFSET,
    GammaSuperstat,
    _check_omega,
    calibrate_beta_star,
    photon_weights_gamma,
    photon_weights_gibbs,
    photon_weights_multilevel,
    physical_beta,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_ACCURACY = 4
EXIT_IO = 5


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- helpers


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cells(column, json_cells: bool) -> list:
    """The text of every cell of one table column.

    A column holds one kind of value.  Strings are written as they are in
    CSV and JSON-escaped (``ensure_ascii``) in JSON; integers through
    ``str``; floats through ``float.__repr__`` (``tolist`` yields Python
    floats, so no ``np.float64`` spells itself ``np.float64(...)``), with
    the non-finite ones written ``NaN``, ``Infinity`` and ``-Infinity`` in
    JSON, as :mod:`json` writes them.
    """
    if len(column) and isinstance(column[0], str):
        return list(map(json.dumps, column)) if json_cells else list(column)
    values = np.asarray(column)
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    if values.dtype.kind != "f":
        raise TypeError(f"unsupported table column of dtype {values.dtype}")
    cells = list(map(repr, values.tolist()))
    if json_cells and not np.isfinite(values).all():
        cells = [_JSON_NONFINITE.get(c, c) for c in cells]
    return cells


def _csv_text(table: dict) -> str:
    """Header line, then one comma-joined line per row."""
    cells = [_cells(col, json_cells=False) for col in table.values()]
    return "\n".join([",".join(table), *map(",".join, zip(*cells))]) + "\n"


def _json_text(table: dict, meta: dict) -> str:
    """``json.dumps({"columns", "meta", "rows"}, indent=2, sort_keys=True)``, by column.

    ``json`` renders everything but the rows; ``"rows"`` sorts last, so
    its empty list closes the text and gives way to the rows laid out as
    ``indent=2`` lays them out: a row opens four spaces in, a cell sits
    six spaces in.
    """
    head = json.dumps({"columns": list(table), "meta": meta, "rows": []},
                      indent=2, sort_keys=True)
    cells = [_cells(col, json_cells=True) for col in table.values()]
    body = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(*cells)))
    if not body:
        return head + "\n"
    return head[: -len("[]\n}")] + "[\n    [\n      " + body + "\n    ]\n  ]\n}\n"


def _emit(cfg: dict, table: dict, meta: dict) -> None:
    """Write ``table`` (column name -> column of values) to ``--out``."""
    out = cfg.get("out")
    if not out:
        raise UsageError("--out is required")
    if cfg.get("format", "csv") == "json":
        _write_atomic(out, _json_text(table, meta))
    else:
        _write_atomic(out, _csv_text(table))
        _write_atomic(out + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON, or text that is not UTF-8
            raise UsageError(f"{path}: not a JSON config: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    if isinstance(data.get("config"), dict):  # accept recorded sidecars directly
        return data["config"]
    return data


# JSON types a --config value may take, by the type of its flag
_CONFIG_TYPES = {None: str, int: int, float: (int, float)}


def _check_config_value(key: str, value, action: argparse.Action) -> None:
    """Refuse a ``--config`` value that its flag could not have produced.

    ``null`` leaves the key unset.  A value is taken as it is, never
    converted, so a recorded sidecar reruns to the same bytes.
    """
    if value is None:
        return
    if action.nargs == 0:  # a switch such as --gibbs
        fits = isinstance(value, bool)
    else:  # bool subclasses int, but JSON true and false are no numbers
        fits = isinstance(value, _CONFIG_TYPES[action.type]) and not isinstance(value, bool)
    if fits and action.choices is not None:
        fits = value in action.choices
    if not fits:
        raise UsageError(
            f"config key {key!r}: {value!r} is not a valid {action.option_strings[0]} value"
        )


def _effective_config(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        for key, value in _load_config(args.config).items():
            if key in defaults:
                _check_config_value(key, value, args.flags[key])
                cfg[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _meta(cfg: dict, command: str, derived: dict) -> dict:
    return {
        "command": command,
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "derived": derived,
        "version": __version__,
    }


def _parse_range(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if count < 1 or not 0.0 <= hi - lo < math.inf:  # NaN and infinite bounds fail too
            raise ValueError
    except ValueError:
        raise UsageError(f"expected grid as finite 'min:max:count', got {text!r}") from None
    return np.linspace(lo, hi, count)


def _parse_pair(text: str) -> tuple[int, int]:
    for sep in ("x", ","):
        if sep in text:
            a, b = text.split(sep, 1)
            try:
                return int(a), int(b)
            except ValueError:
                break
    try:
        n = int(text)
        return n, n
    except ValueError:
        raise UsageError(f"expected grid as 'NRxNTHETA', got {text!r}") from None


def _time_samples(value: int, flag: str) -> int:
    """Validated time-sample count: an exchange needs t=0 and one later time."""
    if value < 2:
        raise UsageError(f"{flag} needs at least two time samples, got {value}")
    return value


def _resolve_source(cfg: dict) -> tuple[object, dict]:
    """Build the photon distribution and the derived-parameter record."""
    omega = cfg["omega"]
    tail_tol = cfg["tail_tol"]
    hard_cap = cfg.get("n_cap")
    if hard_cap is None:
        hard_cap = HARD_CAP
    elif not 1 <= hard_cap <= HARD_CAP:
        raise UsageError(f"--n-cap must lie in [1, {HARD_CAP}], got {hard_cap}")
    chosen = [name for name, active in (
        ("gamma", cfg.get("q") is not None),
        ("gibbs", bool(cfg.get("gibbs"))),
        ("multilevel", cfg.get("betas_file") is not None),
    ) if active]
    if len(chosen) != 1:
        raise UsageError(
            "select exactly one initial-state model: --q (gamma), --gibbs, or --betas-file"
        )
    source = chosen[0]

    if source == "gamma":
        q = float(cfg["q"])
        beta, beta_star = cfg.get("beta"), cfg.get("beta_star")
        if (beta is None) == (beta_star is None):
            raise UsageError("gamma model needs exactly one of --beta / --beta-star")
        if beta_star is None:
            beta_star = calibrate_beta_star(q, beta, omega)
        model = GammaSuperstat(q=q, beta_star=beta_star, omega=omega)
        if beta is None:
            beta = physical_beta(model)
        dist = photon_weights_gamma(model, tail_tol=tail_tol, hard_cap=hard_cap)
        derived = {"source": "gamma", "q": q, "beta": beta, "beta_star": beta_star}
    elif source == "gibbs":
        beta = cfg.get("beta")
        if beta is None:
            raise UsageError("--gibbs needs --beta")
        dist = photon_weights_gibbs(beta, omega, tail_tol=tail_tol, hard_cap=hard_cap)
        derived = {"source": "gibbs", "beta": beta}
    else:
        # the ensemble file fixes its own omega (part of the stored state)
        model, _spec = load_betas(cfg["betas_file"])
        if omega != model.omega:
            raise UsageError(
                f"--omega {omega!r} differs from the omega {model.omega!r} that "
                f"{cfg['betas_file']} stores; a betas file fixes its own omega"
            )
        dist = photon_weights_multilevel(model, tail_tol=tail_tol, hard_cap=hard_cap)
        derived = {
            "source": "multilevel",
            "betas_file": cfg["betas_file"],
            "n_betas": len(model.betas),
            "betas_omega": model.omega,
        }

    derived.update(
        omega=omega,
        tail_tol=tail_tol,
        n_max=dist.n_max,
        tail_mass=dist.tail_mass,
        tail_limited=dist.tail_limited,
    )
    return dist, derived


def _resolve_entropy(cfg: dict, derived: dict) -> EntropyKind:
    choice = cfg.get("entropy")
    if choice is None:
        choice = "tsallis" if derived["source"] == "gamma" else "vn"
    if choice == "vn":
        return VON_NEUMANN
    q = cfg.get("entropy_q")
    if q is None:
        q = derived.get("q")
    if q is None:
        raise UsageError("--entropy tsallis needs --entropy-q (or a gamma model's --q)")
    return tsallis(float(q))


def _resolve_form(cfg: dict) -> FieldEntropyForm:
    return FieldEntropyForm(cfg.get("field_entropy", "full"))


def _resolve_dynamics(cfg: dict, n_times: int):
    """Distribution, derived record, entropy, field form, model and time grid of a run.

    An unset horizon becomes 50/|lambda| (50 at zero coupling) and is
    recorded in ``cfg``; both are checked before the distribution is built.
    """
    params = ModelParams.from_detuning(cfg["delta"], cfg["lam"], cfg["omega"])
    if cfg["horizon"] is None:
        cfg["horizon"] = 50.0 / abs(cfg["lam"]) if cfg["lam"] else 50.0
    if not 0.0 < cfg["horizon"] < math.inf:
        raise ValueError(f"time horizon must be finite and positive, got {cfg['horizon']}")
    dist, derived = _resolve_source(cfg)
    kind = _resolve_entropy(cfg, derived)
    form = _resolve_form(cfg)
    derived.update(entropy=kind.label(), field_entropy_form=form.value)
    times = np.linspace(0.0, cfg["horizon"], n_times)
    return dist, derived, kind, form, params, times


# ------------------------------------------------------------- commands


def cmd_calibrate(args: argparse.Namespace) -> int:
    defaults = {
        "q": None, "grid": "0.5:10:50", "omega": 1.0,
        "out": None, "format": "csv",
    }
    cfg = _effective_config(args, defaults)
    if cfg["q"] is None:
        raise UsageError("--q is required (comma list, e.g. 'gibbs,1.2,1.6')")
    q_tokens = []
    for tok in cfg["q"].split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        if tok != "gibbs":
            try:
                float(tok)
            except ValueError:
                raise UsageError(f"--q entries must be numbers or 'gibbs', got {tok!r}") from None
        q_tokens.append(tok)
    if not q_tokens:
        raise UsageError("empty --q list")
    omega = cfg["omega"]
    _check_omega(omega)
    t_star_grid = _parse_range(cfg["grid"])
    if np.any(t_star_grid <= 0.0):
        raise UsageError("T* grid must be strictly positive")

    temps = []
    # a T* omega or a beta out of the float range shows as a temperature out of it
    with np.errstate(divide="ignore", over="ignore"):
        for tok in q_tokens:
            for t_star in t_star_grid:
                beta_star = 1.0 / (t_star * omega)
                if tok == "gibbs":
                    beta = beta_star
                else:
                    q = float(tok)
                    try:
                        model = GammaSuperstat(q=q, beta_star=beta_star, omega=omega)
                    except ValueError:
                        if not 1.0 < q < 2.0:
                            raise
                        # the model names beta_star = 1/(T* omega), which the user never typed
                        raise ValueError(
                            f"--grid {cfg['grid']!r} holds T*={float(t_star)!r}, which the gamma "
                            f"model at q={tok}, omega={omega!r} cannot take: 1/(T* omega) must be "
                            f"finite and positive and T*/(q-1) lie in (0, {MAX_OFFSET:g}]"
                        ) from None
                    beta = physical_beta(model)
                temps.append(1.0 / (beta * omega))
    if not all(0.0 < temp < math.inf for temp in temps):
        raise ValueError(f"T* grid {cfg['grid']!r} leaves the float range at omega={omega}")
    table = {
        "q": [tok for tok in q_tokens for _ in t_star_grid],
        "T_star": np.tile(t_star_grid, len(q_tokens)),
        "T": temps,
    }
    _emit(cfg, table, _meta(cfg, "calibrate", {"n_rows": len(temps)}))
    return EXIT_OK


_MODEL_DEFAULTS = {
    "omega": 1.0, "q": None, "beta": None, "beta_star": None,
    "gibbs": None, "betas_file": None, "tail_tol": 1e-8, "n_cap": None,
}


_DYNAMICS_DEFAULTS = {
    **_MODEL_DEFAULTS,
    "delta": 0.0, "lam": 2.0,
    "entropy": None, "entropy_q": None, "field_entropy": "full", "horizon": None,
    "n_cap": 10**5,  # keeps heavy-tail runs tractable; tail mass stays tracked
    "out": None, "format": "csv",
}


def cmd_weights(args: argparse.Namespace) -> int:
    defaults = {**_MODEL_DEFAULTS, "out": None, "format": "csv"}
    cfg = _effective_config(args, defaults)
    dist, derived = _resolve_source(cfg)
    table = {"n": np.arange(dist.weights.size), "p": dist.weights}
    _emit(cfg, table, _meta(cfg, "weights", derived))
    return EXIT_OK


def cmd_timeseries(args: argparse.Namespace) -> int:
    defaults = {**_DYNAMICS_DEFAULTS, "epsilon": 0.0, "grid": 2000}
    cfg = _effective_config(args, defaults)
    n_times = _time_samples(cfg["grid"], "--grid")
    dist, derived, kind, form, params, times = _resolve_dynamics(cfg, n_times)
    trace = entropy_trace(params, AtomInit(epsilon=cfg["epsilon"]), dist, kind, form, times=times)
    derived.update(avg_dSa=trace.avg_ds_atom, avg_dSb=trace.avg_ds_field)
    table = {"t": trace.times, "dS_a": trace.ds_atom, "dS_b": trace.ds_field,
             "dS_total": trace.ds_total}
    _emit(cfg, table, _meta(cfg, "timeseries", derived))
    return EXIT_OK


def cmd_bloch_sweep(args: argparse.Namespace) -> int:
    defaults = {**_DYNAMICS_DEFAULTS, "grid": "5x7", "t_samples": 1000}
    cfg = _effective_config(args, defaults)
    n_times = _time_samples(cfg["t_samples"], "--t-samples")
    n_r, n_theta = _parse_pair(cfg["grid"])
    if n_r < 1 or n_theta < 1:
        raise UsageError("bloch grid must have at least one point per axis")
    dist, derived, kind, form, params, times = _resolve_dynamics(cfg, n_times)
    r_values = np.linspace(0.0, 1.0, n_r)
    theta_values = np.linspace(0.0, math.pi, n_theta)
    grid = bloch_sweep(params, dist, kind, form, r_values, theta_values, times)
    r_col = np.repeat(r_values, n_theta)
    theta_col = np.tile(theta_values, n_r)
    derived.update(n_r=n_r, n_theta=n_theta)
    table = {
        "r": r_col,
        "theta": theta_col,
        "epsilon": [BlochPoint(r=float(r), theta=float(th)).epsilon
                    for r, th in zip(r_col, theta_col)],
        "avg_dSa": grid[:, :, 0].ravel(),
        "avg_dSb": grid[:, :, 1].ravel(),
    }
    _emit(cfg, table, _meta(cfg, "bloch-sweep", derived))
    return EXIT_OK


def cmd_ensemble_gen(args: argparse.Namespace) -> int:
    defaults = {
        "shape": "normal", "count": 100, "seed": 0, "omega": 1.0,
        "mean": 3.0, "sd": 0.3, "scale": None, "shape_param": 2.0,
        "out": None,
    }
    cfg = _effective_config(args, defaults)
    if not cfg["out"]:
        raise UsageError("--out is required")
    spec = BetaEnsembleSpec(
        shape=cfg["shape"], count=cfg["count"], seed=cfg["seed"],
        omega=cfg["omega"], mean=cfg["mean"], sd=cfg["sd"],
        scale=cfg["scale"], shape_param=cfg["shape_param"],
    )
    model = sample_betas(spec)
    save_betas(cfg["out"], model, spec)
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace) -> int:
    perturb = getattr(args, "inject_perturbation", None) or 0.0
    results = run_selfcheck(perturb=perturb)
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_passed &= res.passed
        extra = f"  {res.detail}" if res.detail else ""
        print(f"[{status}] {res.name}: max_dev={res.max_dev:.3e} tol={res.tol:g}{extra}")
    print(f"selfcheck: {'all checks passed' if all_passed else 'FAILURES detected'}")
    return EXIT_OK if all_passed else EXIT_ACCURACY


# --------------------------------------------------------------- parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file (flags override file values)")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")
    sub.add_argument("--omega", type=float, help="cavity frequency (default 1.0)")


def _add_model(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", help="gamma-model deformation index (selects the gamma model)")
    sub.add_argument("--beta", type=float, help="physical inverse temperature")
    sub.add_argument("--beta-star", type=float, dest="beta_star",
                     help="quasi-temperature parameter (gamma model)")
    sub.add_argument("--gibbs", action="store_const", const=True, default=None,
                     help="plain thermal state at --beta")
    sub.add_argument("--betas-file", dest="betas_file",
                     help="multi-temperature ensemble file (see ensemble-gen)")
    sub.add_argument("--tail-tol", type=float, dest="tail_tol",
                     help="photon-number tail tolerance (default 1e-8)")
    sub.add_argument("--n-cap", type=int, dest="n_cap",
                     help="hard cap on the retained photon levels")


def _add_dynamics(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delta", type=float, help="detuning omega0 - omega (default 0)")
    sub.add_argument("--lambda", type=float, dest="lam", help="coupling strength (default 2)")
    sub.add_argument("--entropy", choices=["vn", "tsallis"], help="entropy functional")
    sub.add_argument("--entropy-q", type=float, dest="entropy_q",
                     help="deformation index for --entropy tsallis (defaults to --q)")
    sub.add_argument("--field-entropy", choices=["full", "coarse"], dest="field_entropy",
                     help="field entropy over the full spectrum or (vacuum, rest)")
    sub.add_argument("--T", type=float, dest="horizon",
                     help="time horizon (default 50/lambda); T sqrt(delta^2 + "
                          "lambda^2 n_max) may not exceed 2**52, nor the time step "
                          "T/(samples - 1) 5.6e102")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcentropy",
        description="Entropy exchange of a two-level atom and a thermally "
                    "fluctuating cavity mode.",
    )
    parser.add_argument("--version", action="version", version=f"jcentropy {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    cal = subs.add_parser("calibrate", help="physical temperature vs quasi-temperature table")
    _add_common(cal)
    cal.add_argument("--q", help="comma list of deformation indices, 'gibbs' allowed")
    cal.add_argument("--grid", help="T* grid as 'min:max:count' (default 0.5:10:50)")
    cal.set_defaults(func=cmd_calibrate)

    wts = subs.add_parser("weights", help="photon-number weight table")
    _add_common(wts)
    _add_model(wts)
    wts.set_defaults(func=cmd_weights)

    ts = subs.add_parser("timeseries", help="entropy exchange time series")
    _add_common(ts)
    _add_model(ts)
    _add_dynamics(ts)
    ts.add_argument("--epsilon", type=float, help="initial excited-state weight (default 0)")
    ts.add_argument("--grid", type=int, help="number of time samples (default 2000)")
    ts.set_defaults(func=cmd_timeseries)

    bs = subs.add_parser("bloch-sweep", help="time-averaged exchange over atom preparations")
    _add_common(bs)
    _add_model(bs)
    _add_dynamics(bs)
    bs.add_argument("--grid", help="(r, theta) grid as 'NRxNTHETA' (default 5x7)")
    bs.add_argument("--t-samples", type=int, dest="t_samples",
                    help="time samples per point (default 1000)")
    bs.set_defaults(func=cmd_bloch_sweep)

    gen = subs.add_parser("ensemble-gen", help="draw and store an inverse-temperature ensemble")
    gen.add_argument("--config", help="JSON config file (flags override file values)")
    gen.add_argument("--out", help="output betas file")
    gen.add_argument("--shape", choices=["normal", "weibull"], help="distribution shape")
    gen.add_argument("--count", type=int, help="ensemble size (default 100)")
    gen.add_argument("--seed", type=int, help="PRNG seed (default 0)")
    gen.add_argument("--omega", type=float, help="cavity frequency (default 1.0)")
    gen.add_argument("--mean", type=float, help="target mean of beta*omega (default 3)")
    gen.add_argument("--sd", type=float, help="normal-shape standard deviation (default 0.3)")
    gen.add_argument("--scale", type=float, help="weibull scale (default: mean-matched)")
    gen.add_argument("--shape-param", type=float, dest="shape_param",
                     help="weibull shape parameter (default 2)")
    gen.set_defaults(func=cmd_ensemble_gen)

    chk = subs.add_parser("selfcheck", help="run the built-in consistency suite")
    chk.add_argument("--inject-perturbation", type=float, dest="inject_perturbation",
                     help=argparse.SUPPRESS)
    chk.set_defaults(func=cmd_selfcheck)

    for sub in subs.choices.values():
        sub.set_defaults(flags={action.dest: action for action in sub._actions})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"jcentropy: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AccuracyError as exc:
        print(f"jcentropy: accuracy failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except (ValueError, ArithmeticError) as exc:
        print(f"jcentropy: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"jcentropy: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
