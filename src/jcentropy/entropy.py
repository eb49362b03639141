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
from dataclasses import dataclass

import numpy as np

from .jcm import AtomInit, BlockEvolver, ModelParams
from .superstat import PhotonDistribution

__all__ = [
    "EntropyKind",
    "VON_NEUMANN",
    "tsallis",
    "FieldEntropyForm",
    "EntropyTrace",
    "BlochPoint",
    "entropy_of",
    "entropy_trace",
    "bloch_sweep",
]


# time samples x photon levels evaluated per chunk of a trace: small enough
# that each chunk's arrays (128 KB) stay cache-resident, large enough that the
# per-call overhead vanishes at a few levels
CHUNK_ELEMENTS = 2**14
# time samples x photon levels x preparations walked at once by a Bloch sweep
# (256 KB per buffer): four 1000-sample traces of a few levels share a group,
# while a trace whose chunk alone exceeds it walks by itself; twice this bought
# 5% more speed for twice the memory of the group's buffers
GROUP_ELEMENTS = 2**15
# chunks between exact reseeds of the cosine recurrence over chunks
RESEED_CHUNKS = 128
# a time step whose cube is still a finite float (the cube root of the largest
# float is 5.64e102)
MAX_STEP = 5.6e102
# adjacent floats above 2**52 lie a whole radian apart, so no cosine of such a phase resolves
MAX_PHASE = 2.0**52


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
    """Yield ``(chunk, a1[:, None] * cos(outer(times[chunk], delta_n)))`` for chunks ``first..stop-1``.

    ``a1`` holds one transfer row per preparation, shape ``(k, levels)``,
    and a yielded block has shape ``(k, samples, levels)``.  ``times`` is
    a strictly increasing grid of at least two samples, cut into chunks
    of ``rows`` samples (the last may be short); ``first`` is a multiple
    of ``RESEED_CHUNKS``.  With ``steps`` equal to
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
    chunk takes the exact cosine.  The phase and its cosine or sine are
    computed once per chunk for all k rows of ``a1``, and each row takes
    the float operations it would take alone.  A yielded block is
    overwritten two chunks later.
    """
    k, levels = a1.shape
    older, old, new = (np.empty(k * rows * levels) for _ in range(3))
    for c in range(first, stop):
        t = times[c * rows : (c + 1) * rows]
        shape = (k, t.size, levels)
        block = new[: k * t.size * levels].reshape(shape)
        position = c % RESEED_CHUNKS if steps is not None and t.size == rows else 0
        if position == 0:
            # the phase waits in the buffer the next chunk fills
            phase = np.multiply.outer(t, delta_n, out=older[: t.size * levels].reshape(shape[1:]))
            np.cos(phase, out=block[0])
            _spread(block, a1)
        elif position == 1:
            # a second exact cosine would disagree with the rotation by up
            # to phase * eps (1e-11 at phase 1e5), which the recurrence then
            # amplifies up to RESEED_CHUNKS-fold; the rotation agrees to an ulp
            twice_cos_step, sin_step = steps
            rotated = np.multiply(twice_cos_step, old.reshape(shape), out=older.reshape(shape))
            rotated *= 0.5
            # the first row holds the phase of the chunk before
            np.multiply(sin_step, np.sin(block[0], out=block[0]), out=block[0])
            _spread(block, a1)
            np.subtract(rotated, block, out=block)
        else:
            np.multiply(steps[0], old.reshape(shape), out=block)
            block -= older.reshape(shape)
        yield slice(c * rows, c * rows + t.size), block
        older, old, new = old, new, older


def _spread(block: np.ndarray, a1: np.ndarray) -> None:
    """Turn ``block[0]``, a factor shared by every preparation, into ``block[i] = block[0] * a1[i]``."""
    np.multiply(block[0], a1[1:, np.newaxis], out=block[1:])
    block[0] *= a1[0]


def _checked_grid(times, params: ModelParams, dist: PhotonDistribution) -> np.ndarray:
    """``times`` as a float array, once it passes the checks :func:`entropy_trace` documents."""
    times = np.asarray(times, dtype=float)
    if times.size < 2 or times[0] != 0.0:
        raise ValueError("time grid must start at t=0 and hold at least two samples")
    steps = np.diff(times)
    if np.any(steps <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    phase = times[-1] * math.hypot(params.delta, params.lam * math.sqrt(dist.n_max))
    if not phase <= MAX_PHASE:
        raise ValueError(f"time horizon {float(times[-1])!r} takes the largest phase to "
                         f"{phase:.3g}, beyond 2**52, where no cosine is resolvable")
    # Simpson's rule on an even sample count weighs its last panel with the
    # cube of a step, which leaves the float range above MAX_STEP
    largest = float(np.max(steps))
    if not largest <= MAX_STEP:
        raise ValueError(f"time step {largest:.3g} exceeds {MAX_STEP:.3g}, "
                         "where the Simpson weights overflow")
    return times


def _chunk_rows(times: np.ndarray, dist: PhotonDistribution) -> int:
    """Time samples per chunk: a function of the levels, never of the preparations."""
    return min(times.size, max(1, CHUNK_ELEMENTS // dist.weights.size))


def _exchanges(
    params: ModelParams,
    atoms: tuple[AtomInit, ...],
    dist: PhotonDistribution,
    kind: EntropyKind,
    form: FieldEntropyForm,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(atom, field) entropy exchanges of each preparation, shape ``(len(atoms), times.size)``.

    The one walk behind :func:`entropy_trace` and :func:`bloch_sweep`;
    ``times`` has passed :func:`_checked_grid`.  Every preparation's row
    has the bits it has when walked alone.
    """
    evolver = BlockEvolver(params, atoms, dist)
    a1 = evolver.a1
    # A = a0 + a1 cos and C = c0 - a1 cos, so the atom populations and the
    # field weights are their t-independent parts plus or minus a1 cos
    pe0, pg0, w0 = evolver.populations(evolver.a0, evolver.c0)
    moved = np.empty((len(atoms), times.size))
    s_field = np.empty((len(atoms), times.size))
    rows = _chunk_rows(times, dist)
    # the sine overwrites the phase, so no third level array outlives this block
    steps = None
    if times.size > 2 * rows and np.array_equal(times, np.linspace(0.0, times[-1], times.size)):
        step = rows * (times[-1] / (times.size - 1)) * evolver.delta_n
        steps = 2.0 * np.cos(step), np.sin(step, out=step)

    def walk(first: int, stop: int) -> None:
        # runs on worker threads: the NumPy calls on whole rows release the GIL;
        # it calls nothing perfbench/tracing.py wraps, whose span stack is per process
        w_rows = np.empty(len(atoms) * rows * w0.shape[-1])
        logs = np.empty(w_rows.size) if kind.is_von_neumann else None
        for chunk, s in _transfers(times, evolver.delta_n, a1, rows, first, stop, steps):
            shape = s.shape[:-1] + w0.shape[-1:]
            w = w_rows[: math.prod(shape)].reshape(shape)
            # row sums, not a BLAS product: threaded BLAS would spin a second core
            moved[:, chunk] = np.sum(s, axis=-1)
            np.add(w0[:, np.newaxis, :-1], s, out=w[..., :-1])
            w[..., -1] = w0[:, -1:]
            w[..., 1:] -= s
            if form is FieldEntropyForm.COARSE:
                w = _coarse_grained(w, dist.tail_mass)
            s_field[:, chunk] = _row_entropies(w, kind, overwrite=True, logs=logs)

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
    p_atom = np.stack((pe0[:, np.newaxis] + moved, pg0[:, np.newaxis] - moved), axis=-1)
    s_atom = _row_entropies(p_atom, kind, overwrite=True)
    return s_atom - s_atom[:, :1], s_field - s_field[:, :1]


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
    initial state, so the first samples are exactly zero), increase
    strictly, take no phase ``t delta_n`` above ``MAX_PHASE`` and no step
    above ``MAX_STEP``.  Times are evaluated in chunks of about
    ``CHUNK_ELEMENTS`` samples x levels, whose transfers ``a1 cos`` come
    from :func:`_transfers`.  The reseed windows of ``RESEED_CHUNKS``
    chunks are dealt out as contiguous groups to one thread per available
    CPU (at most one per window), each with its own scratch rows; a chunk
    depends only on its own window, so the result is the same to the bit
    for any number of threads.
    """
    times = _checked_grid(times, params, dist)
    ds_atom, ds_field = _exchanges(params, (atom,), dist, kind, form, times)
    return EntropyTrace(
        times=times,
        ds_atom=ds_atom[0],
        ds_field=ds_field[0],
        ds_total=ds_atom[0] + ds_field[0],
        avg_ds_atom=float(_window_average(times, ds_atom)[0]),
        avg_ds_field=float(_window_average(times, ds_field)[0]),
    )


def _window_average(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Simpson time averages of ``values`` along its last axis."""
    from scipy.integrate import simpson  # imported here to keep scipy off the CLI start-up

    return simpson(values, x=times, axis=-1) / (times[-1] - times[0])


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
    ``times``, ordered by the declared grid.  The dynamics depends on a
    preparation only through its excited-state weight epsilon, so each
    distinct epsilon is walked once and its averages fill every point
    that shares it (the whole r=0 row, for instance).  The distinct
    epsilons are walked in first-seen order, in groups that share the
    manifold arrays, each chunk's phases and cosines, and one Simpson
    call per side; a group holds as many as keep ``k x samples x levels``
    per chunk within ``GROUP_ELEMENTS``, so the working set follows that
    budget, not the number of epsilons.  Every average has the bits of
    :func:`entropy_trace` at the same epsilon.
    """
    r_values = np.asarray(r_values, dtype=float)
    theta_values = np.asarray(theta_values, dtype=float)
    times = _checked_grid(times, params, dist)
    first_seen: dict[float, int] = {}
    cells = np.array([
        first_seen.setdefault(BlochPoint(r=float(r), theta=float(theta)).epsilon, len(first_seen))
        for r in r_values for theta in theta_values
    ], dtype=int)
    atoms = [AtomInit(epsilon=eps) for eps in first_seen]
    averages = np.empty((len(atoms), 2))
    size = max(1, GROUP_ELEMENTS // (_chunk_rows(times, dist) * dist.weights.size))
    for start in range(0, len(atoms), size):
        group = tuple(atoms[start : start + size])
        ds_atom, ds_field = _exchanges(params, group, dist, kind, form, times)
        averages[start : start + len(group), 0] = _window_average(times, ds_atom)
        averages[start : start + len(group), 1] = _window_average(times, ds_field)
    return averages[cells].reshape(r_values.size, theta_values.size, 2)
