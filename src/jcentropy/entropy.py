"""Entropy functionals, entropy-exchange traces and Bloch-sphere sweeps.

Two functionals are available for every probability list: the von
Neumann entropy ``-sum p ln p`` and its q-deformed counterpart
``-sum p ln_q p`` (both with the ``0 ln 0 = 0`` convention).  Partial
entropy exchange is the change of a subsystem entropy relative to t=0,
and time averages use composite Simpson quadrature on the stored grid.

Truncation note: a field entropy computed over a truncated weight list
omits the (constant, non-evolving) contribution of the tail levels.
That offset cancels exactly in the exchange ``dS(t) = S(t) - S(0)``,
which is the quantity this module reports.
"""

from __future__ import annotations

import enum
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .jcm import (
    AtomInit,
    BlockEvolver,
    EvolvedState,
    ModelParams,
    _atom_probs,
    _field_weights,
    reduced_atom,
    reduced_field,
)
from .superstat import PhotonDistribution

__all__ = [
    "EntropyKind",
    "VON_NEUMANN",
    "tsallis",
    "FieldEntropyForm",
    "EntropyTrace",
    "BlochPoint",
    "GridCoarseWarning",
    "entropy_of",
    "atom_entropy",
    "field_entropy",
    "entropy_trace",
    "time_average",
    "bloch_sweep",
]


# time samples x photon levels evaluated per chunk of a trace: small enough
# that each chunk's arrays (128 KB) stay cache-resident, large enough that the
# per-call overhead vanishes at a few levels
CHUNK_ELEMENTS = 2**14
# chunks between exact reseeds of the cosine recurrence over chunks
RESEED_CHUNKS = 128


class GridCoarseWarning(UserWarning):
    pass


@dataclass(frozen=True)
class EntropyKind:
    """Entropy functional selector: q=None for von Neumann, else Tsallis index."""

    q: float | None = None

    def __post_init__(self):
        if self.q is not None and not 1.0 < self.q < 2.0:
            raise ValueError(f"deformed entropy requires 1 < q < 2, got q={self.q}")

    @property
    def is_von_neumann(self) -> bool:
        return self.q is None

    def label(self) -> str:
        return "vn" if self.q is None else f"tsallis(q={self.q:g})"


VON_NEUMANN = EntropyKind()


def tsallis(q: float) -> EntropyKind:
    return EntropyKind(q=q)


class FieldEntropyForm(enum.Enum):
    """Field entropy over the full spectrum, or coarse-grained to (vacuum, rest)."""

    FULL = "full"
    COARSE = "coarse"


@dataclass(frozen=True)
class BlochPoint:
    """Polar Bloch-sphere coordinates of the atomic initial state."""

    r: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")

    @property
    def epsilon(self) -> float:
        """Excited-state weight (1 + r cos(theta)) / 2."""
        return min(max((1.0 + self.r * math.cos(self.theta)) / 2.0, 0.0), 1.0)


def _row_entropies(
    p: np.ndarray, kind: EntropyKind, *, overwrite: bool = False, logs: np.ndarray | None = None
) -> np.ndarray:
    """Entropies of the probability lists along the last axis of ``p``.

    Every row must pass the checks :func:`entropy_of` documents; entries
    that are not positive score 0 (the ``0 ln 0 = 0`` convention).  With
    ``overwrite`` the contiguous ``p`` is scored in place, and a von
    Neumann score writes its logarithms to ``logs``, a flat buffer of at
    least ``p.size`` entries, so nothing of ``p``'s size is allocated;
    without it, ``p`` is left unchanged.
    """
    if p.shape[-1] == 0:
        raise ValueError("empty probability list")
    # written so that NaN fails both checks
    lowest = float(np.min(p))
    if not lowest >= -1e-12:
        raise ValueError(f"negative or NaN probability {lowest}")
    totals = np.sum(p, axis=-1)
    if not np.all(totals <= 1.0 + 1e-10):
        raise ValueError(f"probabilities sum to {float(np.max(totals))}, exceeding 1")
    if not overwrite:
        p = p.copy()
    if kind.is_von_neumann:
        if not lowest > 0.0:
            # a unit entry scores exactly 0
            np.copyto(p, 1.0, where=p <= 0.0)
        logs = np.log(p, out=None if logs is None else logs[: p.size].reshape(p.shape))
        return -np.sum(np.multiply(p, logs, out=logs), axis=-1)
    q = kind.q
    # -p ln_q p = (p^(2-q) - p)/(q - 1), and 0^(2-q) = 0 for q < 2; without a
    # negative entry the clamp changes nothing, so the totals are the linear sums
    linear = totals
    if lowest < 0.0:
        linear = np.sum(np.maximum(p, 0.0, out=p), axis=-1)
    return (np.sum(np.power(p, 2.0 - q, out=p), axis=-1) - linear) / (q - 1.0)


def entropy_of(p, kind: EntropyKind = VON_NEUMANN) -> float:
    """Entropy of a (possibly sub-normalized) probability list.

    Sub-normalized input is accepted so truncated weight lists can be
    scored directly; every term is non-negative either way.  Entries
    below -1e-12, a NaN entry or a sum above 1 + 1e-10 raise
    :class:`ValueError`.
    """
    return float(_row_entropies(np.asarray(p, dtype=float).ravel(), kind))


def atom_entropy(state: EvolvedState, kind: EntropyKind = VON_NEUMANN) -> float:
    """Entropy of the reduced atomic state (two outcomes)."""
    return entropy_of(reduced_atom(state), kind)


def field_entropy(
    state: EvolvedState,
    kind: EntropyKind = VON_NEUMANN,
    form: FieldEntropyForm = FieldEntropyForm.FULL,
) -> float:
    """Entropy of the reduced field state.

    ``FULL`` scores the whole photon-number weight list; ``COARSE``
    aggregates everything above the vacuum into a single outcome, i.e.
    the two-term expression (vacuum weight, all n >= 1 including the
    tail).
    """
    w = reduced_field(state)
    if form is FieldEntropyForm.COARSE:
        w = _coarse_grained(w, state.tail_mass)
    return entropy_of(w, kind)


def _coarse_grained(w: np.ndarray, tail_mass: float) -> np.ndarray:
    """(vacuum, all n >= 1 including the tail) weights along the last axis."""
    return np.stack((w[..., 0], np.sum(w[..., 1:], axis=-1) + tail_mass), axis=-1)


@dataclass(frozen=True)
class EntropyTrace:
    """Sampled partial entropy exchanges with their time averages."""

    times: np.ndarray
    ds_atom: np.ndarray
    ds_field: np.ndarray
    ds_total: np.ndarray
    avg_ds_atom: float
    avg_ds_field: float


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _transfers(
    times: np.ndarray, delta_n: np.ndarray, a1: np.ndarray, rows: int, first: int, stop: int, steps
):
    """Yield ``(chunk, a1 * cos(outer(times[chunk], delta_n)))`` for chunks ``first..stop-1``.

    ``times`` is a strictly increasing grid of at least two samples,
    cut into chunks of ``rows`` samples (the last may be short);
    ``first`` is a multiple of ``RESEED_CHUNKS``.  With ``steps`` equal to
    ``(2 cos(R h delta_n), sin(R h delta_n))`` on a grid equal to
    ``np.linspace(0, times[-1], times.size)`` (step h, R = ``rows``), a
    full chunk follows from the two before it by the three-term recurrence
    ``s_{k+1} = 2 cos(R h delta_n) s_k - s_{k-1}`` (Numerical Recipes
    5.4), which the transfer ``s = a1 cos`` obeys as the cosine does.
    Chunk k restarts the recurrence when ``k % RESEED_CHUNKS == 0``, from
    its exact cosine times ``a1`` and that chunk rotated by
    ``R h delta_n``, so a chunk depends only on the chunks of its own
    reseed window and any split of the chunks at window boundaries
    yields the same bytes.  A rounding error amplifies by at most j at
    the j-th recurrence step, also where ``R h delta_n`` is a multiple
    of pi, so the drift stays within about ``RESEED_CHUNKS**2`` ulps of
    ``|a1|``.  With ``steps=None``, and for a short last chunk, every
    chunk takes the exact cosine.  A yielded block is overwritten two
    chunks later.
    """
    older, old, new = (np.empty((rows, delta_n.size)) for _ in range(3))
    for k in range(first, stop):
        t = times[k * rows : (k + 1) * rows]
        block = new[: t.size]
        position = k % RESEED_CHUNKS if steps is not None and t.size == rows else 0
        if position == 0:
            # the phase waits in the buffer the next chunk fills
            np.cos(np.multiply.outer(t, delta_n, out=older[: t.size]), out=block)
            block *= a1
        elif position == 1:
            # a second exact cosine would disagree with the rotation by up
            # to phase * eps (1e-11 at phase 1e5), which the recurrence then
            # amplifies up to RESEED_CHUNKS-fold; the rotation agrees to an ulp
            twice_cos_step, sin_step = steps
            rotated = np.multiply(twice_cos_step, old, out=older)
            rotated *= 0.5
            np.multiply(sin_step, np.sin(block, out=block), out=block)
            block *= a1
            np.subtract(rotated, block, out=block)
        else:
            np.multiply(steps[0], old, out=block)
            block -= older
        yield slice(k * rows, k * rows + t.size), block
        older, old, new = old, new, older


def entropy_trace(
    params: ModelParams,
    atom: AtomInit,
    dist: PhotonDistribution,
    kind: EntropyKind = VON_NEUMANN,
    form: FieldEntropyForm = FieldEntropyForm.FULL,
    *,
    times: np.ndarray,
) -> EntropyTrace:
    """Partial entropy exchange of atom and field on a time grid.

    The grid must start at t=0 (the exchange is defined relative to the
    initial state, so the first samples are exactly zero).  Times are
    evaluated in chunks of about ``CHUNK_ELEMENTS`` samples x levels,
    whose transfers ``a1 cos`` come from :func:`_transfers`.  The reseed
    windows of ``RESEED_CHUNKS`` chunks are dealt out as contiguous
    groups to one thread per available CPU (at most one per window), each
    with its own scratch rows; a chunk depends only on its own window, so
    the result is the same to the bit for any number of threads.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2 or times[0] != 0.0:
        raise ValueError("time grid must start at t=0 and hold at least two samples")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("time grid must be strictly increasing")

    evolver = BlockEvolver(params, atom, dist)
    a1 = evolver.a1
    uncoupled, excited_top = evolver.uncoupled_weight, evolver.excited_top
    # A = a0 + a1 cos and C = c0 - a1 cos, so the atom populations and the
    # field weights are their t-independent parts plus or minus a1 cos
    pe0, pg0 = _atom_probs(
        evolver.a0, evolver.c0, uncoupled, excited_top, dist.tail_mass, atom.epsilon
    )
    w0 = _field_weights(evolver.a0, evolver.c0, uncoupled, excited_top)
    moved = np.empty(times.size)
    s_field = np.empty(times.size)
    rows = min(times.size, max(1, CHUNK_ELEMENTS // dist.weights.size))
    # the sine overwrites the phase, so no third level array outlives this block
    steps = None
    if times.size > 2 * rows and np.array_equal(times, np.linspace(0.0, times[-1], times.size)):
        step = rows * (times[-1] / (times.size - 1)) * evolver.delta_n
        steps = 2.0 * np.cos(step), np.sin(step, out=step)

    def walk(first: int, stop: int) -> None:
        # runs on worker threads: the NumPy calls on whole rows release the GIL;
        # it calls nothing perfbench/tracing.py wraps, whose span stack is per process
        w_rows = np.empty((rows, w0.size))
        logs = np.empty(rows * w0.size) if kind.is_von_neumann else None
        for chunk, s in _transfers(times, evolver.delta_n, a1, rows, first, stop, steps):
            w = w_rows[: s.shape[0]]
            # row sums, not a BLAS product: threaded BLAS would spin a second core
            moved[chunk] = np.sum(s, axis=-1)
            np.add(w0[:-1], s, out=w[:, :-1])
            w[:, -1] = w0[-1]
            w[:, 1:] -= s
            if form is FieldEntropyForm.COARSE:
                w = _coarse_grained(w, dist.tail_mass)
            s_field[chunk] = _row_entropies(w, kind, overwrite=True, logs=logs)

    chunks = -(-times.size // rows)
    windows = -(-chunks // RESEED_CHUNKS)
    walkers = min(_available_cpus(), windows)
    bounds = [min(chunks, RESEED_CHUNKS * (windows * i // walkers)) for i in range(walkers + 1)]
    if walkers == 1:
        walk(0, chunks)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=walkers - 1) as pool:
            futures = [pool.submit(walk, *span) for span in zip(bounds[1:-1], bounds[2:])]
            # the calling thread walks the earliest windows, so its error comes first
            walk(bounds[0], bounds[1])
        for future in futures:
            future.result()
    # each two-entry row sums alike in any batch, so one call scores every sample
    p_atom = np.stack((pe0 + moved, pg0 - moved), axis=-1)
    s_atom = _row_entropies(p_atom, kind, overwrite=True)
    ds_atom = s_atom - s_atom[0]
    ds_field = s_field - s_field[0]
    ds_total = ds_atom + ds_field

    return EntropyTrace(
        times=times,
        ds_atom=ds_atom,
        ds_field=ds_field,
        ds_total=ds_total,
        avg_ds_atom=_window_average(times, ds_atom),
        avg_ds_field=_window_average(times, ds_field),
    )


def _window_average(times: np.ndarray, values: np.ndarray) -> float:
    from scipy.integrate import simpson  # imported here to keep scipy off the CLI start-up

    return float(simpson(values, x=times) / (times[-1] - times[0]))


def time_average(trace: EntropyTrace) -> tuple[float, float]:
    """Time-averaged (atom, field) entropy exchange over the whole grid.

    Composite Simpson on the stored grid; the average over the half-density
    grid is compared against the full one and a :class:`GridCoarseWarning`
    is emitted when they disagree by more than 1e-6.
    """
    t = trace.times
    averages = []
    for values in (trace.ds_atom, trace.ds_field):
        full = _window_average(t, values)
        if t.size >= 5:
            half = _window_average(t[::2], values[::2])
            if abs(full - half) > 1e-6:
                warnings.warn(
                    f"time grid may be too coarse: half/full Simpson averages differ "
                    f"by {abs(full - half):.3e} (> 1e-06)",
                    GridCoarseWarning,
                    stacklevel=2,
                )
        averages.append(full)
    return averages[0], averages[1]


def bloch_sweep(
    params: ModelParams,
    dist: PhotonDistribution,
    kind: EntropyKind,
    form: FieldEntropyForm,
    r_values,
    theta_values,
    times: np.ndarray,
) -> np.ndarray:
    """Time-averaged exchanges over a (r, theta) grid of atom preparations.

    Returns an array of shape ``(len(r_values), len(theta_values), 2)``
    holding (avg atom exchange, avg field exchange) over the whole of
    ``times``, ordered by the declared grid.  The dynamics depends on a preparation only through
    its excited-state weight epsilon, so each distinct epsilon is traced
    once and its averages fill every point that shares it (the whole
    r=0 row, for instance).
    """
    r_values = np.asarray(r_values, dtype=float)
    theta_values = np.asarray(theta_values, dtype=float)
    out = np.empty((r_values.size, theta_values.size, 2))
    averages: dict[float, tuple[float, float]] = {}
    for i, r in enumerate(r_values):
        for j, theta in enumerate(theta_values):
            eps = BlochPoint(r=float(r), theta=float(theta)).epsilon
            if eps not in averages:
                trace = entropy_trace(params, AtomInit(epsilon=eps), dist, kind, form, times=times)
                averages[eps] = (trace.avg_ds_atom, trace.avg_ds_field)
            out[i, j] = averages[eps]
    return out
