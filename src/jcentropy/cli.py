"""Command-line surface.

Subcommands: ``calibrate``, ``weights``, ``timeseries``, ``bloch-sweep``,
``ensemble-gen``, ``selfcheck``.  ``_COMMANDS`` is the one list of them:
each name maps to its help line and to the function that adds its flags.
A call whose first argument names a command builds the parser of that
command only; any other call builds them all.

Every file-producing command writes its output atomically and records the
fully resolved run configuration (including derived quantities) either
embedding it (JSON format, betas files) or in a ``<out>.meta.json``
sidecar, so any output can be regenerated byte-for-byte from its own
metadata.  A table and its sidecar replace their paths only once both are
written.

Tables are written in blocks of ``BLOCK_ROWS`` rows.  A table of at least
``2 * MIN_PART_BLOCKS`` blocks is formatted by up to one process per
available CPU: its blocks are split into contiguous ranges of at least
``MIN_PART_BLOCKS``, this process writes the first and a forked child each
of the others to a file of its own, and those files are appended in order
before the one atomic replace.  Every block is the same text from the same
code whichever process formats it, so the bytes do not depend on the split.

Exit codes: 0 success, 2 usage, 3 numeric-domain failure, 4 accuracy
failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
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
    EntropyKind,
    FieldEntropyForm,
    _available_cpus,
    bloch_sweep,
    entropy_trace,
    tsallis,
    walk_bytes,
)
from .jcm import AtomInit, ModelParams
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


# rows converted and written at a time: a block's cell strings take about
# 1.3 MB, so a table of any length is written within one block's memory
BLOCK_ROWS = 4096

# blocks a forked writer takes at least: a fork, exit and wait cost about as
# much as one block's text, so a table of fewer blocks is not split for it
MIN_PART_BLOCKS = 8


def _block_count(table: dict) -> int:
    return -(-min(map(len, table.values())) // BLOCK_ROWS)


def _parts(table: dict) -> list[range]:
    """The table's blocks as contiguous ranges, one per process that formats them.

    One range per available CPU, but at least ``MIN_PART_BLOCKS`` blocks
    each, and one range where there is no ``os.fork``.
    """
    blocks = _block_count(table)
    parts = max(1, min(_available_cpus(), blocks // MIN_PART_BLOCKS)) if hasattr(os, "fork") else 1
    return [range(blocks * i // parts, blocks * (i + 1) // parts) for i in range(parts)]


def _blocks(table: dict, json_cells: bool, blocks: range):
    """The cell texts of each of the ``BLOCK_ROWS``-row ``blocks``, as one list per column."""
    columns = list(table.values())
    for block in blocks:
        start = block * BLOCK_ROWS
        yield [_cells(col[start : start + BLOCK_ROWS], json_cells) for col in columns]


def _csv_text(table: dict, blocks: range | None = None):
    """Header line, then one comma-joined line per row, in text pieces of one block each.

    With ``blocks``, the text of those blocks only, headed by the header
    line if they are the first; the texts of consecutive ranges join to
    the text of the table.
    """
    if blocks is None:
        blocks = range(_block_count(table))
    if blocks.start == 0:
        yield ",".join(table) + "\n"
    for cells in _blocks(table, False, blocks):
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _json_text(table: dict, meta: dict, blocks: range | None = None):
    """``json.dumps({"columns", "meta", "rows"}, indent=2, sort_keys=True)``, in text pieces.

    ``json`` renders everything but the rows; ``"rows"`` sorts last, so
    its empty list closes the text and gives way to the rows laid out as
    ``indent=2`` lays them out: a row opens four spaces in, a cell sits
    six spaces in.  Each block of rows is one piece.  With ``blocks``, as
    for :func:`_csv_text`, the text of those blocks only: the head opens
    the first range and the closing brackets end the last.
    """
    count = _block_count(table)
    if blocks is None:
        blocks = range(count)
    row_break = "\n    ],\n    [\n      "
    if blocks.start == 0:
        head = json.dumps({"columns": list(table), "meta": meta, "rows": []},
                          indent=2, sort_keys=True)
        if not count:
            yield head + "\n"
            return
        opening = head[: -len("[]\n}")] + "[\n    [\n      "
    else:
        opening = row_break
    for cells in _blocks(table, True, blocks):
        yield opening + row_break.join(map(",\n      ".join, zip(*cells)))
        opening = row_break
    if blocks.stop == count:
        yield "\n    ]\n  ]\n}\n"


def _emit(cfg: dict, table: dict, meta: dict) -> None:
    """Write ``table`` (column name -> column of values) to ``--out``, a block of rows at a time.

    The blocks are split into :func:`_parts`, each formatted by a process
    of its own.  A CSV table and its sidecar replace their paths only once
    both are written.
    """
    out = cfg["out"]
    parts = _parts(table)
    if cfg["format"] == "json":
        _write_atomic({out: [_json_text(table, meta, blocks) for blocks in parts]})
    else:
        _write_atomic({out: [_csv_text(table, blocks) for blocks in parts],
                       out + ".meta.json": [(json.dumps(meta, indent=2, sort_keys=True) + "\n",)]})


def _load_config(path: str, flags: dict) -> dict:
    """The values of a ``--config`` file that set one of ``flags`` (dest -> action).

    A JSON output's ``meta`` and a sidecar's ``config`` are unwrapped, so
    any output reruns from its own record.  Keys the command does not take
    and ``null`` values are dropped: such a flag keeps its default.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON, or text that is not UTF-8
            raise UsageError(f"{path}: not a JSON config: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    for record in ("meta", "config"):
        if isinstance(data.get(record), dict):
            data = data[record]
    values = {key: value for key, value in data.items() if key in flags and value is not None}
    for key, value in values.items():
        _check_config_value(key, value, flags[key])
    return values


# JSON types a --config value may take, by the type of its flag
_CONFIG_TYPES = {None: str, int: int, float: (int, float)}


def _check_config_value(key: str, value, action: argparse.Action) -> None:
    """Refuse a ``--config`` value that its flag could not have produced.

    A value is taken as it is, never converted, so a recorded sidecar
    reruns to the same bytes.
    """
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
    try:
        n_r, n_theta = map(int, text.split("x"))
    except ValueError:
        raise UsageError(f"expected grid as 'NRxNTHETA', got {text!r}") from None
    if n_r < 1 or n_theta < 1:
        raise UsageError("bloch grid must have at least one point per axis")
    return n_r, n_theta


def _q_value(token: str) -> float | None:
    """The one reader of ``--q`` text: a deformation index, or None for 'gibbs'."""
    if token.strip().lower() == "gibbs":
        return None
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"--q entries must be numbers or 'gibbs', got {token!r}") from None


def _time_samples(value: int, flag: str) -> int:
    """Validated time-sample count: an exchange needs t=0 and one later time."""
    if value < 2:
        raise UsageError(f"{flag} needs at least two time samples, got {value}")
    return value


def _resolve_source(cfg: dict) -> tuple[object, dict]:
    """Build the photon distribution and the derived-parameter record."""
    omega = cfg["omega"]
    tail_tol = cfg["tail_tol"]
    hard_cap = cfg["n_cap"]
    if hard_cap is None:
        hard_cap = HARD_CAP
    elif not 1 <= hard_cap <= HARD_CAP:
        raise UsageError(f"--n-cap must lie in [1, {HARD_CAP}], got {hard_cap}")
    chosen = [name for name, active in (
        ("gamma", cfg["q"] is not None),
        ("gibbs", bool(cfg["gibbs"])),
        ("multilevel", cfg["betas_file"] is not None),
    ) if active]
    if len(chosen) != 1:
        raise UsageError(
            "select exactly one initial-state model: --q (gamma), --gibbs, or --betas-file"
        )
    source = chosen[0]
    # a value the chosen model never reads would be recorded as if it had shaped the run
    if source == "multilevel" and cfg["beta"] is not None:
        raise UsageError("--beta is not read with --betas-file: the file fixes the temperatures")
    if source != "gamma" and cfg["beta_star"] is not None:
        raise UsageError("--beta-star is read only by the gamma model (--q)")

    if source == "gamma":
        q = _q_value(cfg["q"])
        if q is None:
            raise UsageError("--q gibbs selects no gamma model; the thermal state is --gibbs")
        beta, beta_star = cfg["beta"], cfg["beta_star"]
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
        beta = cfg["beta"]
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
    choice = cfg["entropy"]
    if choice is None:
        choice = "tsallis" if derived["source"] == "gamma" else "vn"
    if choice == "vn":
        if cfg["entropy_q"] is not None:
            raise UsageError("--entropy-q is not read by the von Neumann entropy")
        return VON_NEUMANN
    q = cfg["entropy_q"]
    if q is None:
        q = derived.get("q")
    if q is None:
        raise UsageError("--entropy tsallis needs --entropy-q (or a gamma model's --q)")
    return tsallis(float(q))


def _physical_memory() -> float:
    """Bytes of physical memory of this host; infinite where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return math.inf


def _check_walk_memory(n_times: int, levels: int, preparations: int) -> None:
    """Refuse with :class:`MemoryError` a walk whose estimated bytes exceed physical memory.

    A caught ``MemoryError`` covers only an allocation refused at once; one
    the OS overcommits can end the process later, with a partial run behind it.
    """
    need = walk_bytes(n_times, levels, preparations)
    have = _physical_memory()
    if need > have:
        raise MemoryError(
            f"a walk over {n_times} time samples and {levels} photon levels, for "
            f"{preparations} atom preparation(s), needs an estimated {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _resolve_dynamics(cfg: dict, n_times: int, preparations: int = 1):
    """Distribution, derived record, entropy, field form and model of a run.

    An unset horizon becomes 50/|lambda| (50 at zero coupling) and is
    recorded in ``cfg``; a default that overflows is refused before the
    distribution is built.  The walk over ``preparations`` atom
    preparations is sized before anything of the time grid's length is
    allocated.
    """
    params = ModelParams.from_detuning(cfg["delta"], cfg["lam"], cfg["omega"])
    if cfg["horizon"] is None:
        cfg["horizon"] = 50.0 / abs(cfg["lam"]) if cfg["lam"] else 50.0
        if cfg["horizon"] == math.inf:
            raise ValueError(f"--lambda {cfg['lam']!r} takes the default horizon 50/|lambda| "
                             "beyond the float range; set the horizon with --T")
    dist, derived = _resolve_source(cfg)
    kind = _resolve_entropy(cfg, derived)
    form = FieldEntropyForm(cfg["field_entropy"])
    derived.update(entropy=kind.label(), field_entropy_form=form.value)
    _check_walk_memory(n_times, dist.weights.size, preparations)
    return dist, derived, kind, form, params


# ------------------------------------------------------------- commands


def cmd_calibrate(cfg: dict) -> int:
    if cfg["q"] is None:
        raise UsageError("--q is required (comma list, e.g. 'gibbs,1.2,1.6')")
    q_tokens = [tok for tok in (tok.strip().lower() for tok in cfg["q"].split(",")) if tok]
    q_values = [_q_value(tok) for tok in q_tokens]
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
        for tok, q in zip(q_tokens, q_values):
            for t_star in t_star_grid:
                beta_star = 1.0 / (t_star * omega)
                if q is None:
                    beta = beta_star
                else:
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


def cmd_weights(cfg: dict) -> int:
    dist, derived = _resolve_source(cfg)
    table = {"n": np.arange(dist.weights.size), "p": dist.weights}
    _emit(cfg, table, _meta(cfg, "weights", derived))
    return EXIT_OK


def cmd_timeseries(cfg: dict) -> int:
    n_times = _time_samples(cfg["grid"], "--grid")
    dist, derived, kind, form, params = _resolve_dynamics(cfg, n_times)
    trace = entropy_trace(params, AtomInit(epsilon=cfg["epsilon"]), dist, kind, form,
                          horizon=cfg["horizon"], samples=n_times)
    derived.update(avg_dSa=trace.avg_ds_atom, avg_dSb=trace.avg_ds_field)
    table = {"t": trace.times, "dS_a": trace.ds_atom, "dS_b": trace.ds_field,
             "dS_total": trace.ds_total}
    _emit(cfg, table, _meta(cfg, "timeseries", derived))
    return EXIT_OK


def cmd_bloch_sweep(cfg: dict) -> int:
    n_times = _time_samples(cfg["t_samples"], "--t-samples")
    n_r, n_theta = _parse_pair(cfg["grid"])
    dist, derived, kind, form, params = _resolve_dynamics(cfg, n_times, n_r * n_theta)
    r_col = np.repeat(np.linspace(0.0, 1.0, n_r), n_theta)
    theta_col = np.tile(np.linspace(0.0, math.pi, n_theta), n_r)
    # the dephased preparation diag(epsilon, 1 - epsilon) of each (r, theta): the
    # coherence r sin(theta) is not evolved yet; |r cos(theta)| <= 1 keeps epsilon in [0, 1]
    eps_col = (1.0 + r_col * np.cos(theta_col)) / 2.0
    averages = bloch_sweep(params, eps_col, dist, kind, form,
                           horizon=cfg["horizon"], samples=n_times)
    derived.update(n_r=n_r, n_theta=n_theta)
    table = {
        "r": r_col,
        "theta": theta_col,
        "epsilon": eps_col,
        "avg_dSa": averages[:, 0],
        "avg_dSb": averages[:, 1],
    }
    _emit(cfg, table, _meta(cfg, "bloch-sweep", derived))
    return EXIT_OK


def cmd_ensemble_gen(cfg: dict) -> int:
    spec = BetaEnsembleSpec(
        shape=cfg["shape"], count=cfg["count"], seed=cfg["seed"],
        omega=cfg["omega"], mean=cfg["mean"], sd=cfg["sd"],
        scale=cfg["scale"], shape_param=cfg["shape_param"],
    )
    model = sample_betas(spec)
    save_betas(cfg["out"], model, spec)
    return EXIT_OK


def cmd_selfcheck(cfg: dict) -> int:
    from .selfcheck import run_selfcheck  # imported here to keep its set-up off other commands

    results = run_selfcheck(perturb=cfg["inject_perturbation"])
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
    sub.add_argument("--format", choices=["csv", "json"], default="csv",
                     help="output format (default csv)")
    sub.add_argument("--omega", type=float, default=1.0, help="cavity frequency (default 1.0)")


def _add_model(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", help="gamma-model deformation index (selects the gamma model)")
    sub.add_argument("--beta", type=float, help="physical inverse temperature")
    sub.add_argument("--beta-star", type=float, dest="beta_star",
                     help="quasi-temperature parameter (gamma model)")
    sub.add_argument("--gibbs", action="store_const", const=True, default=None,
                     help="plain thermal state at --beta")
    sub.add_argument("--betas-file", dest="betas_file",
                     help="multi-temperature ensemble file (see ensemble-gen)")
    sub.add_argument("--tail-tol", type=float, dest="tail_tol", default=1e-8,
                     help="photon-number tail tolerance (default 1e-8)")
    sub.add_argument("--n-cap", type=int, dest="n_cap",
                     help="hard cap on the retained photon levels")


def _add_dynamics(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delta", type=float, default=0.0,
                     help="detuning omega0 - omega (default 0)")
    sub.add_argument("--lambda", type=float, dest="lam", default=2.0,
                     help="coupling strength (default 2)")
    sub.add_argument("--entropy", choices=["vn", "tsallis"], help="entropy functional")
    sub.add_argument("--entropy-q", type=float, dest="entropy_q",
                     help="deformation index for --entropy tsallis (defaults to --q)")
    sub.add_argument("--field-entropy", choices=["full", "coarse"], dest="field_entropy",
                     default="full", help="field entropy over the full spectrum or (vacuum, rest)")
    sub.add_argument("--T", type=float, dest="horizon",
                     help="time horizon (default 50/lambda); sqrt(delta^2 + lambda^2 "
                          "n_max) may not exceed 1.34e154, nor T times it 2**52")
    sub.set_defaults(n_cap=10**5)  # keeps heavy-tail runs tractable; tail mass stays tracked


def _add_calibrate(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--q", help="comma list of deformation indices, 'gibbs' allowed")
    sub.add_argument("--grid", default="0.5:10:50",
                     help="T* grid as 'min:max:count' (default 0.5:10:50)")
    sub.set_defaults(func=cmd_calibrate)


def _add_weights(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    _add_model(sub)
    sub.set_defaults(func=cmd_weights)


def _add_timeseries(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    _add_model(sub)
    _add_dynamics(sub)
    sub.add_argument("--epsilon", type=float, default=0.0,
                     help="initial excited-state weight (default 0)")
    sub.add_argument("--grid", type=int, default=2000,
                     help="number of time samples (default 2000)")
    sub.set_defaults(func=cmd_timeseries)


def _add_bloch_sweep(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    _add_model(sub)
    _add_dynamics(sub)
    sub.add_argument("--grid", default="5x7", help="(r, theta) grid as 'NRxNTHETA' (default 5x7)")
    sub.add_argument("--t-samples", type=int, dest="t_samples", default=1000,
                     help="time samples per point (default 1000)")
    sub.set_defaults(func=cmd_bloch_sweep)


def _add_ensemble_gen(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file (flags override file values)")
    sub.add_argument("--out", help="output betas file")
    sub.add_argument("--shape", choices=["normal", "weibull"], default="normal",
                     help="distribution shape")
    sub.add_argument("--count", type=int, default=100, help="ensemble size (default 100)")
    sub.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    sub.add_argument("--omega", type=float, default=1.0, help="cavity frequency (default 1.0)")
    sub.add_argument("--mean", type=float, default=3.0,
                     help="target mean of beta*omega (default 3)")
    sub.add_argument("--sd", type=float, default=0.3,
                     help="normal-shape standard deviation (default 0.3)")
    sub.add_argument("--scale", type=float, help="weibull scale (default: mean-matched)")
    sub.add_argument("--shape-param", type=float, dest="shape_param", default=2.0,
                     help="weibull shape parameter (default 2)")
    sub.set_defaults(func=cmd_ensemble_gen)


def _add_selfcheck(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--inject-perturbation", type=float, dest="inject_perturbation",
                     default=0.0, help=argparse.SUPPRESS)
    sub.set_defaults(func=cmd_selfcheck)


# the one list of subcommands: name -> (help line, adder of its flags and its func)
_COMMANDS = {
    "calibrate": ("physical temperature vs quasi-temperature table", _add_calibrate),
    "weights": ("photon-number weight table", _add_weights),
    "timeseries": ("entropy exchange time series", _add_timeseries),
    "bloch-sweep": ("time-averaged exchange over atom preparations", _add_bloch_sweep),
    "ensemble-gen": ("draw and store an inverse-temperature ensemble", _add_ensemble_gen),
    "selfcheck": ("run the built-in consistency suite", _add_selfcheck),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` only, or of every subcommand if None.

    A call runs one command, and argparse's flags are most of a warm
    command's fixed cost.  Every flag is an option, so each goes straight
    into the subparser's options group, where it lands through the parser
    too: the parser's ``add_argument`` would first build a help formatter
    to check a metavar tuple, which no flag here has.  A parser of one
    command names all of them in its usage line, so a refusal of its
    arguments reads as the full parser's.  The full parser keeps argparse's
    own listing: argparse names the subcommand argument by its metavar
    where one is set, so a missing or unknown command would read otherwise.
    """
    parser = argparse.ArgumentParser(
        prog="jcentropy",
        description="Entropy exchange of a two-level atom and a thermally "
                    "fluctuating cavity mode.",
    )
    parser.add_argument("--version", action="version", version=f"jcentropy {__version__}")
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar=None if command is None else "{%s}" % ",".join(_COMMANDS))
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if command is None or command == name:
            sub = subs.add_parser(name, help=help_text)
            add_arguments(sub._optionals)
            sub.set_defaults(parser=sub)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # an argv that does not open with a command (-h, --, a typo) gets the full parser
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    flags = {action.dest: action for action in args.parser._actions
             if action.dest not in ("help", "config")}
    try:
        if getattr(args, "config", None):  # file values become defaults the flags override
            args.parser.set_defaults(**_load_config(args.config, flags))
            args = parser.parse_args(argv)
        if "out" in flags and not args.out:
            raise UsageError("--out is required")
        return args.func({dest: getattr(args, dest) for dest in flags})
    except UsageError as exc:
        print(f"jcentropy: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AccuracyError as exc:
        print(f"jcentropy: accuracy failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except (ValueError, ArithmeticError) as exc:
        print(f"jcentropy: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"jcentropy: out of memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"jcentropy: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
