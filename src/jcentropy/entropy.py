"""Entropy functionals, entropy-exchange traces and sweeps over atom preparations.

Two functionals are available for every probability list: the von
Neumann entropy ``-sum p ln p`` and its q-deformed counterpart
``-sum p ln_q p`` (both with the ``0 ln 0 = 0`` convention).  Partial
entropy exchange is the change of a subsystem entropy relative to t=0,
and time averages use composite Simpson weights on the even time grid.

Truncation note: a field entropy computed over a truncated weight list
omits the (constant, non-evolving) contribution of the tail levels.
That offset cancels exactly in the exchange ``dS(t) = S(t) - S(0)``,
which is the quantity this module reports.
"""

from __future__ import annotations

import enum
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .jcm import AtomInit, ModelParams, manifold_transfers
from .superstat import PhotonDistribution

__all__ = [
    "EntropyKind",
    "VON_NEUMANN",
    "tsallis",
    "FieldEntropyForm",
    "EntropyTrace",
    "entropy_of",
    "entropy_trace",
    "bloch_sweep",
    "walk_bytes",
]


# time samples x photon levels evaluated per chunk of a trace: small enough
# that each chunk's arrays (128 KB) stay cache-resident, large enough that the
# per-call overhead vanishes at a few levels
CHUNK_ELEMENTS = 2**14
# time samples per chunk, at most: below 128 levels a chunk holds fewer than
# CHUNK_ELEMENTS, so a few-level group holds more preparations and its later
# chunks come from the cosine recurrence; of caps 64, 128 and 256, 128 gave the
# fastest 8-level, 1000-sample sweep
CHUNK_ROWS = 128
# time samples x photon levels x preparations walked at once by a Bloch sweep
# (256 KB per buffer): 32 traces of 8 levels share a group, while a trace whose
# chunk alone exceeds it walks by itself; twice this bought 5% more speed for
# twice the memory of the group's buffers
GROUP_ELEMENTS = 2**15
# float arrays of one entry per time sample and preparation that a walk holds
# (under tracemalloc): its two exchanges, which hold the moved weight and the
# field entropies until the atom entropies take the moved weight's place
SAMPLE_ARRAYS = 2
# 8-byte entries per time sample and preparation of a block of atom entropies,
# at most: the two atomic weights, their two logarithms and the scoring's
# totals, sum and negated sum with its boolean masks
ATOM_ARRAYS = 8
# 8-byte entries a Bloch sweep holds per grid point, at most: its r, theta and epsilon
# columns with np.unique's sort and inverse, or with both averages tables (9 under tracemalloc)
POINT_ARRAYS = 10
# NumPy ufunc buffers a walker holds at once, at most: a call that broadcasts a
# level-major column (the cosine step, the sine step, a1, the t=0 weights) along
# the time axis copies it through one buffer of np.getbufsize() entries, and the
# outer product that builds a phase copies both of its factors; a reseed copies
# the shared cosine into a block without one and multiplies a1 in through one
UFUNC_BUFFERS = 2
# chunks between exact reseeds of the cosine recurrence over chunks
RESEED_CHUNKS = 128
# adjacent floats above 2**52 lie a whole radian apart, so no cosine of such a phase resolves
MAX_PHASE = 2.0**52
# a Rabi frequency whose square is still a finite float (the square root of the
# largest float is 1.3408e154)
MAX_RABI = 1.34e154


@dataclass(frozen=True)
class EntropyKind:
    """Entropy functional selector: q=None for von Neumann, else the q of ``-sum p ln_q p``.

    On a normalized list that functional is the standard Tsallis entropy
    ``(1 - sum p^r)/(r - 1)`` at index ``r = 2 - q``, which lies in (0, 1).
    """

    q: float | None = None

    def __post_init__(self):
        if self.q is not None and not 1.0 < self.q < 2.0:
            raise ValueError(f"deformed entropy requires 1 < q < 2, got q={self.q}")

    @property
    def is_von_neumann(self) -> bool:
        return self.q is None

    def label(self) -> str:
        return "vn" if self.q is None else f"tsallis(q={self.q!r})"


VON_NEUMANN = EntropyKind()


def tsallis(q: float) -> EntropyKind:
    return EntropyKind(q=q)


class FieldEntropyForm(enum.Enum):
    """Field entropy over the full spectrum, or coarse-grained to (vacuum, rest)."""

    FULL = "full"
    COARSE = "coarse"


def _row_entropies(
    p: np.ndarray, kind: EntropyKind, *, logs: np.ndarray | None = None, axis: int = -1
) -> np.ndarray:
    """Entropies of the probability lists along ``axis`` of ``p``.

    Every list must pass the checks :func:`entropy_of` documents; entries
    that are not positive score 0 (the ``0 ln 0 = 0`` convention).  The
    contiguous ``p`` is scored in place, so a caller passes lists it owns.
    A von Neumann score writes its logarithms to ``logs`` when given, a
    flat buffer of at least ``p.size`` entries, so that nothing of
    ``p``'s size is allocated.
    """
    if p.shape[axis] == 0:
        raise ValueError("empty probability list")
    # written so that NaN fails both checks
    lowest = float(np.min(p))
    if not lowest >= -1e-12:
        raise ValueError(f"negative or NaN probability {lowest}")
    totals = np.sum(p, axis=axis)
    if not np.all(totals <= 1.0 + 1e-10):
        raise ValueError(f"probabilities sum to {float(np.max(totals))}, exceeding 1")
    if kind.is_von_neumann:
        if not lowest > 0.0:
            # a unit entry scores exactly 0
            np.copyto(p, 1.0, where=p <= 0.0)
        logs = np.log(p, out=None if logs is None else logs[: p.size].reshape(p.shape))
        return -np.sum(np.multiply(p, logs, out=logs), axis=axis)
    q = kind.q
    # -p ln_q p = (p^(2-q) - p)/(q - 1), and 0^(2-q) = 0 for q < 2; without a
    # negative entry the clamp changes nothing, so the totals are the linear sums
    linear = totals
    if lowest < 0.0:
        linear = np.sum(np.maximum(p, 0.0, out=p), axis=axis)
    return (np.sum(np.power(p, 2.0 - q, out=p), axis=axis) - linear) / (q - 1.0)


def entropy_of(p, kind: EntropyKind = VON_NEUMANN) -> float:
    """Entropy of a (possibly sub-normalized) probability list.

    Sub-normalized input is accepted so truncated weight lists can be
    scored directly; every term is non-negative either way.  Entries
    below -1e-12, a NaN entry or a sum above 1 + 1e-10 raise
    :class:`ValueError`.
    """
    return float(_row_entropies(np.array(p, dtype=float).ravel(), kind))


def _coarse_grained(w: np.ndarray, tail_mass: float, axis: int = -1) -> np.ndarray:
    """(vacuum, all n >= 1 including the tail) weights along the level ``axis``."""
    levels = np.moveaxis(w, axis, 0)
    return np.stack((levels[0], np.sum(levels[1:], axis=0) + tail_mass), axis=axis)


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
    times: np.ndarray, delta_n: np.ndarray, a1: np.ndarray, rows: int, first: int, stop: int,
    steps, scratch: np.ndarray,
):
    """Yield ``(chunk, a1[:, :, None] * cos(outer(delta_n, times[chunk]))[:, None])`` for chunks ``first..stop-1``.

    ``a1`` holds the transfers level-major, one column per preparation,
    shape ``(levels, k)``, and a yielded block has shape ``(levels, k,
    samples)``: each level is one contiguous plane, so a sum over the
    levels adds whole planes and a shift by one level moves whole planes.
    ``times`` is the grid of :func:`_time_grid`, step h, cut into chunks
    of R = ``rows`` samples of :func:`_chunk_rows` (the last may be
    short); ``first`` is a multiple of ``RESEED_CHUNKS``.  With ``steps``
    equal to ``(R h, 2 cos(R h delta_n))``, the time a full chunk spans
    and a level array, a full chunk follows from the two before it by
    the three-term recurrence ``s_{k+1} = 2 cos(R h delta_n) s_k -
    s_{k-1}`` (Numerical Recipes 5.4), which the transfer ``s = a1 cos``
    obeys as the cosine does; it is written over ``s_{k-1}``, so the walk
    holds two transfer blocks.
    Chunk k restarts the recurrence when ``k % RESEED_CHUNKS == 0``, from
    its exact cosine times ``a1`` and that chunk rotated by
    ``R h delta_n``, so a chunk depends only on the chunks of its own
    reseed window and any split of the chunks at window boundaries
    yields the same bytes.  A rounding error amplifies by at most j at
    the j-th recurrence step, also where ``R h delta_n`` is a multiple
    of pi, so the drift stays within about ``RESEED_CHUNKS**2`` ulps of
    ``|a1|``.  A short last chunk takes the exact cosine too.  So a walk
    evaluates ``levels x R`` cosines and as many sines per reseed window,
    and the cosines of a short last chunk: at 8 levels, where R is
    ``CHUNK_ROWS``, 2.9k for 1000 samples, where one chunk of all the
    samples would take 8000.  The phase and its cosine or sine are
    computed once per chunk for all k columns of ``a1``, and each
    preparation takes the float operations it would take alone.
    ``scratch`` is a flat buffer of at least ``levels x k x R`` entries
    that the caller holds across no chunk: the shared cosine or sine
    factor of a reseed is formed there, and a recurrence step's ``2
    cos(R h delta_n) s_k``.  A yielded block holds until the generator
    resumes.
    """
    levels, k = a1.shape
    span, twice_cos_step = steps
    twice_cos_step = twice_cos_step[:, np.newaxis, np.newaxis]
    older, old = (np.empty(levels * k * rows) for _ in range(2))
    for c in range(first, stop):
        t = times[c * rows : (c + 1) * rows]
        shape = (levels, k, t.size)
        block = older[: levels * k * t.size].reshape(shape)
        product = scratch[: block.size].reshape(shape)
        factor = scratch[: levels * t.size].reshape(levels, t.size)
        position = c % RESEED_CHUNKS if t.size == rows else 0
        if position == 0:
            # the chunk before is spent, so the phase waits in its buffer, which
            # the next chunk fills
            phase = np.multiply.outer(delta_n, t, out=old[: factor.size].reshape(factor.shape))
            _spread(block, np.cos(phase, out=factor), a1)
        elif position == 1:
            # a second exact cosine would disagree with the rotation by up
            # to phase * eps (1e-11 at phase 1e5), which the recurrence then
            # amplifies up to RESEED_CHUNKS-fold; the rotation agrees to an ulp
            np.sin(older[: factor.size].reshape(factor.shape), out=factor)
            # the phase of the chunk before is spent, so the sine step takes its place
            sin_step = np.multiply(span, delta_n, out=older[:levels])
            np.sin(sin_step, out=sin_step)
            factor *= sin_step[:, np.newaxis]
            _spread(block, factor, a1)
            rotated = np.multiply(twice_cos_step, old.reshape(shape), out=product)
            rotated *= 0.5
            np.subtract(rotated, block, out=block)
        else:
            np.multiply(twice_cos_step, old.reshape(shape), out=product)
            np.subtract(product, block, out=block)
        yield slice(c * rows, c * rows + t.size), block
        older, old = old, older


def _spread(block: np.ndarray, factor: np.ndarray, a1: np.ndarray) -> None:
    """Write ``block[l, i] = factor[l] * a1[l, i]``: a factor shared by every preparation, times its transfer.

    The copy broadcasts with no ufunc buffer, so only the product runs
    through one.
    """
    np.copyto(block, factor[:, np.newaxis])
    block *= a1[..., np.newaxis]


def _time_grid(
    horizon: float, samples: int, params: ModelParams, dist: PhotonDistribution
) -> np.ndarray:
    """``np.linspace(0, horizon, samples)``, once it passes the checks :func:`entropy_trace` documents."""
    try:
        samples = operator.index(samples)
    except TypeError:
        raise ValueError(f"the sample count must be an integer, got {samples!r}") from None
    if samples < 2:
        raise ValueError(f"a time grid needs at least two samples, got {samples}")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"time horizon must be finite and positive, got {horizon}")
    rabi = math.hypot(params.delta, params.lam * math.sqrt(dist.n_max))
    if not rabi <= MAX_RABI:
        raise ValueError(f"delta {params.delta!r} and lambda {params.lam!r} take the largest "
                         f"Rabi frequency sqrt(delta^2 + lambda^2 n_max) to {rabi:.4g}, beyond "
                         f"{MAX_RABI:.4g}, where its square overflows")
    phase = horizon * rabi
    if not phase <= MAX_PHASE:
        raise ValueError(f"time horizon {horizon!r} takes the largest phase to "
                         f"{phase:.3g}, beyond 2**52, where no cosine is resolvable")
    # near the largest float the last sample's product overflows before
    # linspace sets it to the horizon itself
    with np.errstate(over="ignore"):
        return np.linspace(0.0, horizon, samples)


def _chunk_rows(samples: int, levels: int) -> int:
    """Time samples per chunk: a function of the samples and levels, never of the preparations.

    At most ``CHUNK_ROWS``, and at most ``CHUNK_ELEMENTS`` samples x levels
    but never below one sample; so the cap binds below 128 levels only.
    """
    return min(samples, CHUNK_ROWS, max(1, CHUNK_ELEMENTS // levels))


def _group_size(rows: int, levels: int) -> int:
    """Preparations that ``k x rows x levels`` within ``GROUP_ELEMENTS`` admit."""
    return max(1, GROUP_ELEMENTS // (rows * levels))


def _walkers(samples: int, rows: int) -> int:
    """Threads that walk a trace: one per available CPU, at most one per reseed window."""
    windows = -(-samples // (rows * RESEED_CHUNKS))
    return min(_available_cpus(), windows)


def _atom_span(samples: int, preparations: int) -> int:
    """Time samples whose atom entropies are scored at once: ``2 x preparations x span`` within ``CHUNK_ELEMENTS``."""
    return min(samples, max(1, CHUNK_ELEMENTS // (2 * preparations)))


def walk_bytes(
    samples: int, levels: int, preparations: int = 1, kind: EntropyKind = VON_NEUMANN
) -> int:
    """Estimated peak bytes of the walk behind :func:`entropy_trace` and :func:`bloch_sweep`.

    ``levels`` is the length of the weight table (``n_max + 1``) and
    ``preparations`` the number given (1 for a trace), of which a group
    of the k distinct ones :func:`_group_size` admits is walked at once,
    scored with ``kind``.  Counted
    in 8-byte entries: ``POINT_ARRAYS`` per preparation given; per one of
    a group the transfer ``a1`` of :func:`~jcentropy.jcm.manifold_transfers`
    and the t=0 field weights, each walker's scratch blocks of ``levels x
    k x rows`` (two transfer blocks of :func:`_transfers` and the field
    block, and a von Neumann score's log block), the ``SAMPLE_ARRAYS``
    exchanges of ``k x samples`` and ``ATOM_ARRAYS`` per sample of a
    block of :func:`_atom_span` samples of atom entropies; each walker's
    ``UFUNC_BUFFERS``; the Rabi frequencies and the one recurrence step
    ``2 cos(R h delta_n)``; and four arrays of the samples: the time grid,
    its averaging weights and the copy of a trace's two exchanges that
    they weigh.
    """
    rows = _chunk_rows(samples, levels)
    k = min(preparations, _group_size(rows, levels))
    walkers = _walkers(samples, rows)
    blocks = 4 if kind.is_von_neumann else 3
    return 8 * (POINT_ARRAYS * preparations + 2 * levels + 4 * samples
                + walkers * UFUNC_BUFFERS * np.getbufsize()
                + k * (2 * levels + SAMPLE_ARRAYS * samples + walkers * blocks * rows * levels
                       + ATOM_ARRAYS * _atom_span(samples, k)))


def _exchanges(
    params: ModelParams,
    epsilon: np.ndarray,
    dist: PhotonDistribution,
    kind: EntropyKind,
    form: FieldEntropyForm,
    times: np.ndarray,
) -> np.ndarray:
    """(atom, field) entropy exchanges of each preparation, shape ``(2, epsilon.size, times.size)``.

    The one walk behind :func:`entropy_trace` and :func:`bloch_sweep`;
    ``epsilon`` is a 1-D float column of excited-state weights and
    ``times`` the grid of :func:`_time_grid`.  The walk starts from the
    state it is given and adds each transfer ``s = a1 cos`` less its value
    ``a1`` at t = 0: the atom is ``(eps T + m(t) - m(0), (1 - eps) T - (m(t) -
    m(0)))`` with ``T`` the total weight and ``m`` the walk's own level sum of
    ``s``, so its departure is exactly 0 at t = 0 in any summation order.
    The walk's blocks are level-major, ``(levels, k, samples)``, as
    :func:`_transfers` yields them: the field shift by one level, the
    anchor's add and every level sum run over whole contiguous planes,
    adding the levels in their order.  A chunk of one sample is scored one
    preparation at a time, on the strided column ``block[:, i:i+1]``, whose
    levels NumPy sums pairwise as it sums a lone trace's.  So every
    preparation's row has the bits it has when walked alone.  The
    returned array is the only one of the samples' length the walk
    allocates: the walk writes the moved weight and the field entropies
    into it, and the atom is scored as ``(2, k, span)`` planes, blocks of
    :func:`_atom_span` samples in one reused buffer, its entropies written
    over the moved weight.
    """
    delta_n, a1 = manifold_transfers(params, epsilon, dist)
    a1 = a1.T  # level-major, as the walk's blocks
    rows = _chunk_rows(times.size, dist.weights.size)
    # the t=0 field less the transfer at t=0, which a chunk adds back as s on
    # levels 0..n_max-1 and takes from levels 1..n_max
    w0 = np.repeat(dist.weights[:, np.newaxis], epsilon.size, axis=1)
    w0[:-1] -= a1
    w0[1:] += a1
    # the walk writes the moved weight and the field entropies; the atom
    # entropies then take the place of the moved weight
    exchanges = np.empty((2, epsilon.size, times.size))
    moved, s_field = exchanges
    # only a walk of two full chunks or more, where rows <= samples // 2, reads
    # the steps, and that cap keeps rows h within any finite horizon; each
    # walker takes the sine step into its scratch, so one level row outlives this
    span = min(rows, times.size // 2) * (times[-1] / (times.size - 1))
    twice_cos_step = np.cos(span * delta_n)
    twice_cos_step *= 2.0

    def walk(first: int, stop: int) -> None:
        # runs on worker threads: the NumPy calls on whole rows release the GIL;
        # it calls nothing perfbench/tracing.py wraps, whose span stack is per process
        w_block = np.empty(w0.size * rows)
        logs = np.empty(w_block.size) if kind.is_von_neumann else None
        # the recurrence's scratch: the log rows where the score takes logarithms
        # (a 23-preparation, 8-level von Neumann walk ran 1-2% faster with them
        # than with the field rows), else the field rows
        scratch = w_block if logs is None else logs
        transfers = _transfers(times, delta_n, a1, rows, first, stop,
                               (span, twice_cos_step), scratch)
        for chunk, block in transfers:
            # NumPy sums the levels of a one-sample block pairwise for one
            # preparation, strided or not, but plane by plane for several; so such
            # a block is scored one preparation at a time, as its trace scores it
            k = block.shape[1] if block.shape[2] > 1 else 1
            for i in range(0, block.shape[1], k):
                part = slice(i, i + k)
                s = block[:, part]
                shape = (w0.shape[0], *s.shape[1:])
                w = w_block[: math.prod(shape)].reshape(shape)
                # plane sums, not a BLAS product: threaded BLAS would spin a second core
                moved[part, chunk] = np.sum(s, axis=0)
                np.add(w0[:-1, part, np.newaxis], s, out=w[:-1])
                w[-1] = w0[-1, part, np.newaxis]
                w[1:] -= s
                if form is FieldEntropyForm.COARSE:
                    w = _coarse_grained(w, dist.tail_mass, axis=0)
                s_field[part, chunk] = _row_entropies(w, kind, logs=logs, axis=0)

    chunks = -(-times.size // rows)
    windows = -(-chunks // RESEED_CHUNKS)
    walkers = _walkers(times.size, rows)
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
    # the column is copied, where the overlapping operand would copy the whole array
    moved -= moved[:, :1].copy()
    total = float(np.sum(dist.weights)) + dist.tail_mass
    excited = epsilon[:, np.newaxis] * total
    ground = (1.0 - epsilon[:, np.newaxis]) * total
    # each two-entry pair scores alike in any batch, so blocks of samples give the
    # bits of one call over all of them
    span = _atom_span(times.size, epsilon.size)
    pairs = np.empty(2 * epsilon.size * span)
    logs = np.empty(pairs.size) if kind.is_von_neumann else None
    for start in range(0, times.size, span):
        block = moved[:, start : start + span]
        p = pairs[: 2 * block.size].reshape(2, *block.shape)
        np.add(excited, block, out=p[0])
        np.subtract(ground, block, out=p[1])
        block[...] = _row_entropies(p, kind, logs=logs, axis=0)
    exchanges -= exchanges[..., :1].copy()
    return exchanges


def entropy_trace(
    params: ModelParams,
    atom: AtomInit,
    dist: PhotonDistribution,
    kind: EntropyKind = VON_NEUMANN,
    form: FieldEntropyForm = FieldEntropyForm.FULL,
    *,
    horizon: float,
    samples: int,
) -> EntropyTrace:
    """Partial entropy exchange of atom and field at ``samples`` even steps over ``[0, horizon]``.

    The exchange is defined relative to the initial state, so the first
    samples are exactly zero.  The grid needs an integer count of at
    least two samples, a finite positive horizon, no Rabi frequency
    ``delta_n`` above ``MAX_RABI`` and no phase ``horizon delta_n`` above
    ``MAX_PHASE``.  Times are evaluated in chunks of at most
    ``CHUNK_ROWS`` samples and about ``CHUNK_ELEMENTS`` samples x levels
    (:func:`_chunk_rows`), whose transfers ``a1 cos`` come from
    :func:`_transfers`.  The reseed windows of ``RESEED_CHUNKS``
    chunks are dealt out as contiguous groups to one thread per available
    CPU (at most one per window), each with its own scratch rows; a chunk
    depends only on its own window, so the result is the same to the bit
    for any number of threads.  The averages weigh the samples with
    :func:`_simpson_weights`, the rule of ``scipy.integrate.simpson``.
    """
    times = _time_grid(horizon, samples, params, dist)
    exchanges = _exchanges(params, np.array([float(atom.epsilon)]), dist, kind, form, times)[:, 0]
    avg_atom, avg_field = _window_average(_simpson_weights(times.size), exchanges.copy()).tolist()
    ds_atom, ds_field = exchanges
    return EntropyTrace(
        times=times,
        ds_atom=ds_atom,
        ds_field=ds_field,
        ds_total=ds_atom + ds_field,
        avg_ds_atom=avg_atom,
        avg_ds_field=avg_field,
    )


def _simpson_weights(samples: int) -> np.ndarray:
    """Weights ``c`` such that ``sum(c * y)`` is the Simpson time average of ``samples`` even steps ``y``.

    The rule is that of ``scipy.integrate.simpson`` on an even grid: the
    composite 1-4-2-...-4-1 rule for an odd count; for an even count that
    rule on all samples but the last, plus Cartwright's last panel
    (-1/12, 2/3, 5/12 of a step on its three samples); the trapezoid for
    two.  Divided by the horizon ``(samples - 1) h``, the step drops out:
    each weight is a whole number of twelfths of a step over
    ``12 (samples - 1)``, so it holds no power of the step, overflows at no
    horizon and is correctly rounded.
    """
    if samples == 2:
        return np.array([0.5, 0.5])
    odd = samples - 1 + samples % 2
    twelfths = np.zeros(samples)
    twelfths[1:odd:2] = 16.0
    twelfths[2 : odd - 1 : 2] = 8.0
    twelfths[[0, odd - 1]] = 4.0
    if odd < samples:
        twelfths[-3:] += (-1.0, 8.0, 5.0)
    return twelfths / (12.0 * (samples - 1))


def _window_average(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Time averages of ``values`` along its last axis, on the ``weights`` of :func:`_simpson_weights`.

    A plain product and pairwise sum, not a BLAS product (threaded BLAS
    would spin a second core), so each row's bits are those it has alone.
    The product is formed in ``values``, which is overwritten.
    """
    values *= weights
    return np.sum(values, axis=-1)


def bloch_sweep(
    params: ModelParams,
    epsilons,
    dist: PhotonDistribution,
    kind: EntropyKind = VON_NEUMANN,
    form: FieldEntropyForm = FieldEntropyForm.FULL,
    *,
    horizon: float,
    samples: int,
) -> np.ndarray:
    """Time-averaged exchanges of the dephased preparation of each weight in ``epsilons``.

    ``epsilons`` is a 1-D column of excited-state weights.  Returns an
    array of shape ``(len(epsilons), 2)`` holding (avg atom exchange, avg
    field exchange) over the grid of :func:`entropy_trace`, one row per
    weight, in their order.  The grid takes the checks of
    :func:`entropy_trace`, the column must be 1-D and each weight pass
    that of :class:`AtomInit`, before anything is walked.
    Each distinct weight is walked once, in ascending order, in groups
    that share the manifold arrays, each chunk's phases and cosines, the
    atom entropies and one weighted sum on the :func:`_simpson_weights`
    built once per call; a group holds as many as keep ``k x rows x
    levels`` per chunk within ``GROUP_ELEMENTS``, with the rows of
    :func:`_chunk_rows`: 32 at 8 levels and 1000 samples, so a 5x7 grid's
    23 distinct weights walk as one group, and at 12001 levels, where a
    chunk holds one sample, 2 weights do.  The rows depend on the samples
    and levels only, so every row has the bits of :func:`entropy_trace`
    for its preparation.
    """
    times = _time_grid(horizon, samples, params, dist)
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.ndim != 1:
        raise ValueError(f"epsilons must be a 1-D column, got shape {epsilons.shape}")
    distinct, inverse = np.unique(epsilons, return_inverse=True)
    for eps in distinct[:1].tolist() + distinct[-1:].tolist():  # NaN sorts last
        AtomInit(eps)
    averages = np.empty((distinct.size, 2))
    levels = dist.weights.size
    size = _group_size(_chunk_rows(times.size, levels), levels)
    weights = _simpson_weights(times.size)
    for start in range(0, distinct.size, size):
        group = distinct[start : start + size]
        exchanges = _exchanges(params, group, dist, kind, form, times)
        averages[start : start + group.size] = _window_average(weights, exchanges).T
    return averages[inverse]
