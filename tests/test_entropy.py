import itertools
import math
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

import jcentropy.entropy as entropy_module
from jcentropy.entropy import (
    CHUNK_ELEMENTS,
    GROUP_ELEMENTS,
    RESEED_CHUNKS,
    VON_NEUMANN,
    EntropyKind,
    MAX_PHASE,
    FieldEntropyForm,
    _coarse_grained,
    _row_entropies,
    _simpson_weights,
    _transfers,
    _window_average,
    bloch_sweep,
    entropy_of,
    entropy_trace,
    tsallis,
    walk_bytes,
)
from jcentropy.jcm import (
    AtomInit,
    ModelParams,
    manifold_transfers,
    oracle_evolve,
)
from jcentropy.superstat import (
    GammaSuperstat,
    PhotonDistribution,
    photon_weights_gamma,
    photon_weights_gibbs,
)
from oracle_utils import evolved_ac, populations, q_log, zeta_brute

RESONANT = ModelParams.from_detuning(0.0, 2.0)
# Thermal von Neumann entropy (1+nbar) ln(1+nbar) - nbar ln(nbar) at nbar=0.1,
# frozen from direct evaluation and cross-checked by summing the weights.
THERMAL_S_01 = 0.3350997070841619


def exact_entropies(params, eps, dist, t, kind=VON_NEUMANN, form=FieldEntropyForm.FULL):
    """(atom, field) entropies at time t from the closed form, one instant at a time."""
    p_e, p_g, field = populations(eps, dist, *evolved_ac(params, eps, dist, t))
    if form is FieldEntropyForm.COARSE:
        field = _coarse_grained(field, dist.tail_mass)
    return entropy_of([p_e, p_g], kind), entropy_of(field, kind)


class TestEntropyOf:
    def test_pure_state(self):
        assert entropy_of([1.0, 0.0, 0.0]) == 0.0
        assert entropy_of([1.0, 0.0], tsallis(1.5)) == 0.0

    def test_uniform_two_outcome_von_neumann(self):
        assert entropy_of([0.5, 0.5]) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_uniform_two_outcome_deformed(self):
        # -2 * (1/2) ln_q(1/2) = 2(sqrt(2) - 1) at q = 1.5
        expected = 2.0 * (math.sqrt(2.0) - 1.0)
        assert entropy_of([0.5, 0.5], tsallis(1.5)) == pytest.approx(expected, rel=1e-14)
        assert entropy_of([0.5, 0.5], tsallis(1.5)) == pytest.approx(
            -q_log(0.5, 1.5), rel=1e-14
        )

    def test_matches_direct_q_log_sum(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.0, 1.0, 12)
        p /= p.sum()
        for q in (1.2, 1.5, 1.9):
            direct = -float(np.sum(p * q_log(p, q)))
            assert entropy_of(p, tsallis(q)) == pytest.approx(direct, rel=1e-12)

    def test_subnormalized_accepted_and_nonnegative(self):
        assert entropy_of([0.3, 0.2]) > 0.0
        assert entropy_of([0.3, 0.2], tsallis(1.7)) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            entropy_of([0.5, -0.1])
        with pytest.raises(ValueError):
            entropy_of([0.9, 0.3])
        with pytest.raises(ValueError):
            entropy_of([])

    def test_q_continuity_towards_von_neumann(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = rng.uniform(0.0, 1.0, rng.integers(2, 30))
            p /= p.sum()
            near = entropy_of(p, EntropyKind(q=1.0 + 1e-6))
            assert abs(near - entropy_of(p)) < 1e-4

    @pytest.mark.parametrize("kind", [VON_NEUMANN, tsallis(1.6)], ids=["vn", "tsallis1.6"])
    def test_row_helper_scores_zeros_and_tiny_negatives_as_zero(self, kind):
        rows = np.array([
            [0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.3, -1e-12, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.1, 0.2, 0.0, 0.3, -5e-13, 0.15, 0.0, 0.05, 0.2],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1],
        ])
        got = _row_entropies(rows.copy(), kind)
        assert got.shape == (rows.shape[0],)
        for row, value in zip(rows, got):
            p = row[row > 0.0]
            if kind.is_von_neumann:
                direct = -float(np.sum(p * np.log(p)))
            else:
                direct = float(np.sum(p ** (2.0 - kind.q) - p)) / (kind.q - 1.0)
            assert value == pytest.approx(direct, rel=1e-14, abs=1e-15)
            assert value == pytest.approx(entropy_of(row, kind), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("kind", [VON_NEUMANN, tsallis(1.6)], ids=["vn", "tsallis1.6"])
    @pytest.mark.parametrize("bad", [
        [0.5, -2e-12, 0.5], [0.9, 0.3, 0.0], [0.7, 0.3 + 2e-10, 0.0], [math.nan, 0.5, 0.0],
    ])
    def test_row_helper_rejects_what_entropy_of_rejects(self, kind, bad):
        with pytest.raises(ValueError):
            entropy_of(bad, kind)
        rows = np.array([[0.2, 0.3, 0.5], bad, [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            _row_entropies(rows, kind)

    @pytest.mark.parametrize("kind", [VON_NEUMANN, tsallis(1.6)], ids=["vn", "tsallis1.6"])
    @pytest.mark.parametrize("zeros", [False, True], ids=["positive", "with-zeros"])
    def test_clamp_skip_gives_the_clamped_bits(self, kind, zeros):
        # a batch without a negative entry skips the clamp (Tsallis) or the unit
        # fill (von Neumann, and only without zeros); a second row holding a
        # tiny negative forces both onto the first row as well
        rng = np.random.default_rng(11)
        row = rng.uniform(0.0, 1.0, 1000) ** 4
        if zeros:
            row[::7] = 0.0
        row /= 1.25 * row.sum()
        negative = np.zeros_like(row)
        negative[:3] = 0.2, -1e-13, 0.3
        skipped = _row_entropies(row[np.newaxis].copy(), kind)
        clamped = _row_entropies(np.stack((row, negative)), kind)
        assert skipped.tobytes() == clamped[:1].tobytes()
        logs = np.empty(row.size)
        with_logs = _row_entropies(row[np.newaxis].copy(), kind, logs=logs)
        assert with_logs.tobytes() == skipped.tobytes()

    @pytest.mark.parametrize("kind", [VON_NEUMANN, tsallis(1.6)], ids=["vn", "tsallis1.6"])
    def test_input_is_left_unchanged(self, kind):
        # the scoring clamps and rewrites entries, but only in its own copy
        p = np.array([0.25, 0.0, -1e-13, 0.75])
        before = p.tobytes()
        entropy_of(p, kind)
        assert p.tobytes() == before

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            tsallis(2.0)
        with pytest.raises(ValueError):
            tsallis(1.0)


class TestAtomEntropy:
    def test_pure_state_zero(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-12)
        s_atom, _ = exact_entropies(RESONANT, 1.0, dist, 0.0)
        assert s_atom == pytest.approx(0.0, abs=1e-12)

    def test_maximal_mixing(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-12)
        s_atom, _ = exact_entropies(RESONANT, 0.5, dist, 0.0)
        assert s_atom == pytest.approx(math.log(2.0), abs=1e-12)
        q = 1.5
        s_atom, _ = exact_entropies(RESONANT, 0.5, dist, 0.0, tsallis(q))
        assert s_atom == pytest.approx(-q_log(0.5, q), abs=1e-12)

    def test_bounded_by_maximal_binary_entropy(self):
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        rng = np.random.default_rng(7)
        for q in (None, 1.3, 1.8):
            kind = VON_NEUMANN if q is None else tsallis(q)
            bound = math.log(2.0) if q is None else -q_log(0.5, q)
            for _ in range(25):
                params = ModelParams.from_detuning(rng.uniform(-2, 2), rng.uniform(0.5, 3))
                s_atom, _ = exact_entropies(params, rng.uniform(), dist, rng.uniform(0, 9), kind)
                assert s_atom <= bound + 1e-12


class TestFieldEntropy:
    def test_thermal_value_at_t0(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-12)
        _, s_field = exact_entropies(RESONANT, 0.3, dist, 0.0)
        assert s_field == pytest.approx(THERMAL_S_01, abs=1e-8)

    def test_coarse_form_at_t0_is_binary(self):
        dist = photon_weights_gibbs(2.0, tail_tol=1e-12)
        p0 = dist.weights[0]
        expected = entropy_of([p0, 1.0 - p0])
        _, s_field = exact_entropies(RESONANT, 0.7, dist, 0.0, form=FieldEntropyForm.COARSE)
        assert s_field == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("q", [1.2, 1.4])
    def test_deformed_t0_matches_tail_corrected_closed_form(self, q):
        # closed form (sum p^(2-q) - 1)/(q-1) via independent brute-force zeta sums
        beta_star = 1.2
        gs = GammaSuperstat(q=q, beta_star=beta_star, omega=1.0)
        dist = photon_weights_gamma(gs, tail_tol=1e-5, hard_cap=10**6)
        s, r = gs.s_index, gs.r_offset
        norm, _ = zeta_brute(s, r, n_terms=2 * 10**6)
        full, _ = zeta_brute((2.0 - q) * s, r, n_terms=2 * 10**6)
        tail, _ = zeta_brute((2.0 - q) * s, r + dist.n_max + 1.0, n_terms=2 * 10**6)
        exact = (full / norm ** (2.0 - q) - 1.0) / (q - 1.0)
        tail_correction = (tail / norm ** (2.0 - q) - dist.tail_mass) / (q - 1.0)
        got = exact_entropies(RESONANT, 0.0, dist, 0.0, tsallis(q))[1] + tail_correction
        assert got == pytest.approx(exact, abs=1e-8)


class TestEntropyTrace:
    def test_first_sample_exactly_zero(self):
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        trace = entropy_trace(RESONANT, AtomInit(0.2), dist, horizon=5.0, samples=64)
        assert trace.ds_atom[0] == 0.0
        assert trace.ds_field[0] == 0.0
        assert trace.ds_total[0] == 0.0

    def test_total_is_elementwise_sum(self):
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        trace = entropy_trace(RESONANT, AtomInit(0.2), dist, horizon=5.0, samples=64)
        assert np.array_equal(trace.ds_total, trace.ds_atom + trace.ds_field)

    def test_zero_coupling_flat(self):
        params = ModelParams.from_detuning(0.0, 0.0)
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        trace = entropy_trace(params, AtomInit(0.4), dist, horizon=5.0, samples=32)
        assert np.max(np.abs(trace.ds_total)) == 0.0

    def test_pure_atom_exchange_never_negative(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-10)
        trace = entropy_trace(RESONANT, AtomInit(0.0), dist, horizon=20.0, samples=400)
        assert np.min(trace.ds_atom) >= 0.0

    def test_grid_validation(self):
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        for horizon, samples, message in (
            (5.0, 2.5, "must be an integer, got 2.5"),
            (5.0, np.float64(3), r"must be an integer, got (np\.float64\()?3\.0"),
            (5.0, 1, "at least two samples, got 1"),
            (5.0, 0, "at least two samples, got 0"),
            (0.0, 8, "finite and positive, got 0.0"),
            (-1.0, 8, "finite and positive, got -1.0"),
            (math.inf, 8, "finite and positive, got inf"),
            (math.nan, 8, "finite and positive, got nan"),
        ):
            with pytest.raises(ValueError, match=message):
                entropy_trace(RESONANT, AtomInit(0.2), dist, horizon=horizon, samples=samples)
            with pytest.raises(ValueError, match=message):
                bloch_sweep(RESONANT, np.array([0.5]), dist, horizon=horizon, samples=samples)

    def test_steps_up_to_max_step_keep_the_averages_finite(self):
        # the averaging weights hold no power of the step, so every horizon
        # up to the largest float averages without a warning; a weak resonant
        # coupling keeps every phase below MAX_PHASE and still moves the whole
        # transfer, and no coupling moves nothing at all
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        largest = np.finfo(float).max
        for lam, horizons in ((1e-140, (1e140, 1e154)), (0.0, (1e103, 1e300, 1e308, largest))):
            params = ModelParams.from_detuning(0.0, lam)
            for horizon, samples in itertools.product(horizons, (2, 3, 4, 7, 8)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    trace = entropy_trace(params, AtomInit(0.2), dist, horizon=horizon,
                                          samples=samples)
                    sweep = bloch_sweep(params, np.array([0.2, 0.9]), dist, horizon=horizon,
                                        samples=samples)
                cells = np.concatenate((trace.times, trace.ds_atom, trace.ds_field,
                                        [trace.avg_ds_atom, trace.avg_ds_field], sweep.ravel()))
                assert np.all(np.isfinite(cells))
                assert trace.times[-1] == horizon
                if lam == 0.0:
                    assert not np.any(cells[samples:])
                else:
                    assert np.all(trace.ds_atom[1:] != 0.0)

    def test_phase_beyond_max_phase_is_refused_for_traces_and_sweeps(self):
        # 14 levels at beta=1 and lambda=1 put the largest phase at T sqrt(13)
        params = ModelParams.from_detuning(0.0, 1.0)
        dist = photon_weights_gibbs(1.0, tail_tol=1e-6)
        assert dist.n_max == 13
        runs = (
            lambda horizon: entropy_trace(params, AtomInit(0.3), dist, horizon=horizon, samples=9),
            lambda horizon: bloch_sweep(params, np.array([0.5, 1.0, 0.0]), dist, horizon=horizon,
                                        samples=9),
        )
        horizon = MAX_PHASE / math.sqrt(13.0)
        while horizon * math.sqrt(13.0) > MAX_PHASE:
            horizon = np.nextafter(horizon, 0.0)
        for run in runs:
            with pytest.raises(ValueError, match=r"2\*\*52"):
                run(1e17)
            with pytest.raises(ValueError, match=r"2\*\*52"):
                run(np.nextafter(horizon, np.inf))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = run(horizon)
            averages = (result.avg_ds_atom, result.avg_ds_field) if run is runs[0] else result
            assert np.all(np.isfinite(averages))

    def test_trace_matches_state_level_entropies(self):
        # the batched trace path, the exact per-time route and the oracle must
        # agree; the ~4k-level gamma state spans several chunks of the 29-sample
        # grid; at eps in {0, 1} one sector starts empty, where a residue of
        # 1e-16 would cost 1e-10 under p^(2-q)
        gibbs = photon_weights_gibbs(math.log(11.0), tail_tol=1e-10)
        gamma = photon_weights_gamma(
            GammaSuperstat(q=1.4, beta_star=3.3356918657181176), tail_tol=1e-6
        )
        assert 1 < CHUNK_ELEMENTS // gamma.weights.size < 29
        for delta, eps, dist, kind, form in itertools.product(
            (0.0, 0.3),
            (0.35, 0.0, 1.0),
            (gibbs, gamma),
            (VON_NEUMANN, tsallis(1.5)),
            (FieldEntropyForm.FULL, FieldEntropyForm.COARSE),
        ):
            params = ModelParams.from_detuning(delta, 2.0)
            atom = AtomInit(eps)

            def oracle_entropies(t):
                ora = oracle_evolve(params, atom, dist, t, n_cut=dist.n_max, warn_tol=1.0)
                field = ora.field_weights
                if form is FieldEntropyForm.COARSE:
                    field = [field[0], float(np.sum(field[1:])) + ora.tail_mass]
                return (
                    entropy_of([ora.atom_excited, ora.atom_ground], kind),
                    entropy_of(field, kind),
                )

            trace = entropy_trace(params, atom, dist, kind, form, horizon=7.0, samples=29)
            s0_atom, s0_field = exact_entropies(params, eps, dist, 0.0, kind, form)
            o0_atom, o0_field = oracle_entropies(0.0)
            for i in (3, 11, 28):
                s_atom, s_field = exact_entropies(params, eps, dist, trace.times[i], kind, form)
                assert trace.ds_atom[i] == pytest.approx(s_atom - s0_atom, abs=1e-12)
                assert trace.ds_field[i] == pytest.approx(s_field - s0_field, abs=1e-12)
                o_atom, o_field = oracle_entropies(trace.times[i])
                assert trace.ds_atom[i] == pytest.approx(o_atom - o0_atom, abs=1e-12)
                assert trace.ds_field[i] == pytest.approx(o_field - o0_field, abs=1e-12)

    @pytest.mark.parametrize("kind", [VON_NEUMANN, tsallis(1.5)], ids=["vn", "tsallis1.5"])
    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_one_sample_chunks_depart_from_an_exact_anchor(self, kind, eps):
        # beyond 8192 levels a chunk holds one sample and its level sums are
        # pairwise; the empty sector starts at exactly 0 all the same, where the
        # 2.8e-16 by which a left-to-right sum of this a1 differs would move
        # every Tsallis atom exchange by about 3e-8
        dist = photon_weights_gibbs(1e-3, tail_tol=1e-8)
        assert dist.weights.size > CHUNK_ELEMENTS // 2
        assert entropy_module._chunk_rows(9, dist.weights.size) == 1
        params, atom = RESONANT, AtomInit(eps)
        trace = entropy_trace(params, atom, dist, kind, horizon=3.0, samples=9)
        assert trace.ds_atom[0] == 0.0
        s0_atom, s0_field = exact_entropies(params, eps, dist, 0.0, kind)
        # the dense oracle's own t=0 state is a rotation by an eigenbasis and
        # back, so its exchanges start from the state as given
        g0_atom = entropy_of([eps, 1.0 - eps], kind)
        g0_field = entropy_of(dist.weights, kind)
        for i in (1, 2, 5, 8):
            s_atom, s_field = exact_entropies(params, eps, dist, trace.times[i], kind)
            assert trace.ds_atom[i] == pytest.approx(s_atom - s0_atom, abs=1e-12)
            assert trace.ds_field[i] == pytest.approx(s_field - s0_field, abs=1e-12)
            ora = oracle_evolve(params, atom, dist, trace.times[i], n_cut=dist.n_max,
                                warn_tol=1.0)
            o_atom = entropy_of([ora.atom_excited, ora.atom_ground], kind)
            assert trace.ds_atom[i] == pytest.approx(o_atom - g0_atom, abs=1e-12)
            o_field = entropy_of(ora.field_weights, kind)
            assert trace.ds_field[i] == pytest.approx(o_field - g0_field, abs=1e-12)

    @pytest.mark.parametrize("grid", ["linspace", "resonant", "two-chunks"])
    def test_chunk_recurrence_matches_state_level_entropies(self, grid):
        # ~4k levels give R = 3 samples per chunk, and 300 chunks cross two
        # reseeds of the cosine recurrence; the resonant step has R h delta_0 =
        # 2 pi; of two full chunks, the second is the first one rotated
        gamma = photon_weights_gamma(
            GammaSuperstat(q=1.4, beta_star=3.3356918657181176), tail_tol=1e-6
        )
        rows = CHUNK_ELEMENTS // gamma.weights.size
        n = 2 * rows if grid == "two-chunks" else 300 * rows
        horizon = {
            "linspace": 60.0,
            "resonant": (n - 1) * math.pi / rows,  # delta_0 = 2
            "two-chunks": 5.0,
        }[grid]
        eps = 0.35
        atom = AtomInit(eps)
        # drift peaks late in a reseed window, more so in one seeded at large t
        picks = range(n) if grid == "two-chunks" else [
            7, *range(120 * rows, 130 * rows), *range(240 * rows, 256 * rows), n - 1]
        for kind in (VON_NEUMANN, tsallis(1.5)):
            trace = entropy_trace(RESONANT, atom, gamma, kind, FieldEntropyForm.FULL,
                                  horizon=horizon, samples=n)
            s0_atom, s0_field = exact_entropies(RESONANT, eps, gamma, 0.0, kind)
            for i in picks:
                s_atom, s_field = exact_entropies(RESONANT, eps, gamma, trace.times[i], kind)
                assert trace.ds_atom[i] == pytest.approx(s_atom - s0_atom, abs=1e-12)
                assert trace.ds_field[i] == pytest.approx(s_field - s0_field, abs=1e-12)


@pytest.mark.parametrize("grid", ["linspace", "resonant"])
def test_transfers_follow_the_exact_transfer(grid):
    # ~4k levels give R = 3 samples per chunk, so 300 chunks cross two reseeds;
    # the resonant step has R h delta_0 = 2 pi.  Between reseeds the reference
    # continues each reseed chunk's phases by j steps in extended precision: at
    # phases up to 1.2e5 the float grid's own rounding of t delta_n moves the
    # plain a1 cos(t delta_n) by about 1.2e5 ulps of a1, which no recurrence follows
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("the reference needs an extended-precision long double")
    gamma = photon_weights_gamma(
        GammaSuperstat(q=1.4, beta_star=3.3356918657181176), tail_tol=1e-6
    )
    delta_n, a1 = manifold_transfers(RESONANT, 0.35, gamma)
    rows = CHUNK_ELEMENTS // gamma.weights.size
    n = 300 * rows
    times = {
        "linspace": np.linspace(0.0, 60.0, n),
        "resonant": np.linspace(0.0, (n - 1) * math.pi / rows, n),  # delta_0 = 2
    }[grid]
    step = rows * (times[-1] / (n - 1)) * delta_n
    bound = RESEED_CHUNKS**2 * np.finfo(float).eps * np.abs(a1)
    worst = 0.0
    steps = 2.0 * np.cos(step), np.sin(step)
    for chunk, (s,) in _transfers(times, delta_n, a1[np.newaxis], rows, 0, 300, steps):
        s = s.T  # (samples, levels), as the references are laid out
        j = chunk.start // rows % RESEED_CHUNKS
        if j == 0:
            phase = np.multiply.outer(times[chunk], delta_n)
            assert np.array_equal(s, a1 * np.cos(phase))
            seed = phase.astype(np.longdouble)
            continue
        exact = a1 * np.cos(seed + j * step.astype(np.longdouble))
        assert np.all(np.abs(s - exact) <= bound)
        worst = max(worst, float(np.max(np.abs(s - exact) / bound)))
    assert worst > 0.0  # the recurrence ran


class TestTraceWalkers:
    """The reseed windows of a trace, walked on several threads."""

    @pytest.fixture(scope="class")
    def gamma(self):
        # ~4k levels give 3 samples per chunk, so 900 samples are 300 chunks
        # in three reseed windows
        dist = photon_weights_gamma(
            GammaSuperstat(q=1.4, beta_star=3.3356918657181176), tail_tol=1e-6
        )
        rows = CHUNK_ELEMENTS // dist.weights.size
        assert 2 * RESEED_CHUNKS < 900 // rows <= 3 * RESEED_CHUNKS
        return dist

    @staticmethod
    def _walkers(monkeypatch, count):
        monkeypatch.setattr(entropy_module, "_available_cpus", lambda: count)

    def test_bytes_do_not_depend_on_walker_count(self, monkeypatch, gamma):
        atom = AtomInit(0.35)
        for kind, form in itertools.product(
            (VON_NEUMANN, tsallis(1.5)), (FieldEntropyForm.FULL, FieldEntropyForm.COARSE)
        ):
            results = []
            for count in (1, 2, 3):
                self._walkers(monkeypatch, count)
                trace = entropy_trace(RESONANT, atom, gamma, kind, form, horizon=60.0, samples=900)
                results.append((
                    trace.ds_atom.tobytes(), trace.ds_field.tobytes(),
                    np.float64(trace.avg_ds_atom).tobytes(),
                    np.float64(trace.avg_ds_field).tobytes(),
                ))
            assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("faulty", [(2,), (1, 2)], ids=["window2", "windows1-2"])
    def test_error_is_the_single_walker_one(self, monkeypatch, gamma, faulty):
        original = entropy_module._transfers

        def transfers(times, delta_n, a1, rows, first, stop, steps):
            for chunk, s in original(times, delta_n, a1, rows, first, stop, steps):
                window = chunk.start // rows // RESEED_CHUNKS
                # a wrong transfer, scaled differently per window, breaks the weights
                yield chunk, s * (10.0 * (window + 1) if window in faulty else 1.0)

        monkeypatch.setattr(entropy_module, "_transfers", transfers)
        messages = []
        for count in (1, 2, 3):
            self._walkers(monkeypatch, count)
            with pytest.raises(ValueError) as info:
                entropy_trace(RESONANT, AtomInit(0.35), gamma, horizon=60.0, samples=900)
            messages.append(str(info.value))
        assert messages[1] == messages[0] and messages[2] == messages[0]

    def test_no_thread_outlives_the_trace(self, monkeypatch, gamma):
        self._walkers(monkeypatch, 3)
        before = threading.active_count()
        entropy_trace(RESONANT, AtomInit(0.35), gamma, horizon=60.0, samples=900)
        assert threading.active_count() == before


class TestFewLevelRecurrence:
    """Walks of a few levels, whose chunks of ``CHUNK_ROWS`` samples follow the cosine recurrence."""

    PARAMS = ModelParams.from_detuning(0.3, 2.0)
    ATOM = AtomInit(0.35)
    # 1000 samples are 7 full chunks and a short one; 40000 are 313 chunks in
    # three reseed windows
    GRIDS = {1000: 25.0, 40000: 250.0}

    @pytest.fixture(scope="class")
    def gibbs(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
        assert dist.weights.size == 8
        return dist

    @pytest.fixture(scope="class")
    def oracle(self, gibbs):
        """Per sample count, the oracle's (atom populations, field weights) at every sample."""
        computed = {}

        def populations(samples):
            if samples not in computed:
                evolutions = [oracle_evolve(self.PARAMS, self.ATOM, gibbs, t, n_cut=gibbs.n_max,
                                            warn_tol=1.0)
                              for t in np.linspace(0.0, self.GRIDS[samples], samples)]
                computed[samples] = (
                    np.array([(ev.atom_excited, ev.atom_ground) for ev in evolutions]),
                    np.array([ev.field_weights for ev in evolutions]),
                )
            return computed[samples]

        return populations

    @staticmethod
    def entropies(p, kind):
        """Entropies of the probability lists along the last axis of ``p``, each term spelled out."""
        if kind.is_von_neumann:
            return -np.sum(p * np.log(p), axis=-1)
        return np.sum(p - p ** (2.0 - kind.q), axis=-1) / (1.0 - kind.q)

    @pytest.mark.parametrize("samples", sorted(GRIDS))
    @pytest.mark.parametrize("kind", [VON_NEUMANN, tsallis(1.5)], ids=["vn", "tsallis1.5"])
    def test_every_sample_matches_the_oracle(self, gibbs, oracle, samples, kind):
        rows = entropy_module._chunk_rows(samples, gibbs.weights.size)
        assert rows == entropy_module.CHUNK_ROWS < samples // 2
        trace = entropy_trace(self.PARAMS, self.ATOM, gibbs, kind,
                              horizon=self.GRIDS[samples], samples=samples)
        for walked, weights in zip((trace.ds_atom, trace.ds_field), oracle(samples)):
            expected = self.entropies(weights, kind)
            assert np.max(np.abs(walked - (expected - expected[0]))) <= 1e-12

    def test_long_walk_keeps_its_bits_across_walkers_and_in_a_sweep(self, monkeypatch, gibbs):
        samples = 40000
        assert -(-samples // entropy_module.CHUNK_ROWS) == 313
        grid = {"horizon": self.GRIDS[samples], "samples": samples}
        traces = []
        for count in (1, 2):
            monkeypatch.setattr(entropy_module, "_available_cpus", lambda: count)
            assert entropy_module._walkers(samples, entropy_module.CHUNK_ROWS) == count
            trace = entropy_trace(self.PARAMS, self.ATOM, gibbs, **grid)
            traces.append(b"".join(np.asarray(x).tobytes() for x in (
                trace.ds_atom, trace.ds_field, trace.avg_ds_atom, trace.avg_ds_field)))
        assert traces[1] == traces[0]
        epsilons = np.array([0.0, self.ATOM.epsilon, 1.0])
        row = bloch_sweep(self.PARAMS, epsilons, gibbs, **grid)[1]
        assert row.tobytes() == np.array([trace.avg_ds_atom, trace.avg_ds_field]).tobytes()


def test_single_walker_trace_holds_nine_level_arrays(monkeypatch):
    # the transfer arrays delta_n and a1, the t=0 field weights, three transfer
    # rows, a field row and the two recurrence steps; a Tsallis score needs no log
    # buffer, and a step array kept beside the steps would make ten
    monkeypatch.setattr(entropy_module, "_available_cpus", lambda: 1)
    n = 10**5
    dist = PhotonDistribution(np.full(n + 1, 1.0 / (n + 1)), 0.0)
    # a first run pays any one-time set-up, which is no part of the trace's memory
    entropy_trace(RESONANT, AtomInit(0.35), dist, tsallis(1.6), horizon=1.0, samples=3)
    tracemalloc.start()
    try:
        # one sample per chunk, so the recurrence runs
        entropy_trace(RESONANT, AtomInit(0.35), dist, tsallis(1.6), horizon=5.0, samples=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * n) < 9.5


@pytest.mark.parametrize("case", ["samples", "levels", "sweep", "capped", "grid"])
def test_walk_bytes_bounds_the_traced_peak(monkeypatch, case):
    # the estimate a run is refused on holds every array the walk keeps, and
    # overstates it by less than half; "capped" is the 23 distinct weights of a
    # 5x7 grid on 8 levels, one group of 128-sample chunks
    walkers, kind, count, samples = {
        "samples": (1, VON_NEUMANN, 1, 100000),
        "levels": (2, VON_NEUMANN, 1, 900),
        "sweep": (1, tsallis(1.3), 92, 1000),
        "capped": (1, VON_NEUMANN, 23, 1000),
        "grid": (1, VON_NEUMANN, 200000, 2),
    }[case]
    monkeypatch.setattr(entropy_module, "_available_cpus", lambda: walkers)
    if case == "levels":  # 4148 levels, three reseed windows
        dist = photon_weights_gamma(
            GammaSuperstat(q=1.4, beta_star=3.3356918657181176), tail_tol=1e-6
        )
    else:
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
    grid = {"horizon": 25.0, "samples": samples}

    def sweep():
        if case != "grid":
            return bloch_sweep(RESONANT, np.linspace(0.0, 1.0, count), dist, kind, **grid)
        # a 500x400 grid's columns, built and held as the bloch-sweep command holds them
        r_col = np.repeat(np.linspace(0.0, 1.0, 500), 400)
        theta_col = np.tile(np.linspace(0.0, math.pi, 400), 500)
        eps_col = (1.0 + r_col * np.cos(theta_col)) / 2.0
        return r_col, theta_col, bloch_sweep(RESONANT, eps_col, dist, kind, **grid)

    # a first run imports the Simpson rule and the thread pool, which are no
    # part of the walk's memory
    sweep()
    tracemalloc.start()
    try:
        sweep()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    estimate = walk_bytes(samples, dist.weights.size, count)
    assert estimate / 2 < peak <= estimate


class TestTimeAverage:
    def test_constant_trace(self):
        weights = _simpson_weights(33)
        assert _window_average(weights, np.full(33, 0.7)) == pytest.approx(0.7, rel=1e-12)

    def test_sinusoid_over_integer_periods(self):
        times = np.linspace(0, 6 * math.pi, 2001)
        assert abs(_window_average(_simpson_weights(times.size), np.sin(times))) < 1e-8

    @pytest.mark.parametrize("samples", [*range(2, 10), 100, 1000, 1001, 2000])
    def test_weights_follow_scipys_simpson_rule(self, samples):
        from scipy.integrate import simpson

        rng = np.random.default_rng(samples)
        weights = _simpson_weights(samples)
        for horizon in (1e-3, 12.5, 4e4):
            times = np.linspace(0.0, horizon, samples)
            rows = rng.normal(size=(4, samples)) * np.array([[1e-300], [1e-3], [1.0], [1e200]])
            expected = simpson(rows, x=times, axis=-1) / horizon
            scale = np.max(np.abs(rows), axis=-1)
            assert np.all(np.abs(_window_average(weights, rows) - expected) <= 1e-14 * scale)

    @pytest.mark.parametrize("samples", [*range(2, 10), 100, 1000, 1001, 2000])
    def test_weights_are_exact_on_low_powers_and_sum_to_one(self, samples):
        weights = _simpson_weights(samples)
        ulp = np.finfo(float).eps
        assert abs(math.fsum(weights) - 1.0) <= 4 * ulp
        assert np.all(weights > 0.0)
        # on the unit window the averages of u^2 and u^3 are 1/3 and 1/4
        u = np.linspace(0.0, 1.0, samples)
        if samples >= 3:
            assert abs(math.fsum(weights * u**2) - 1.0 / 3.0) <= 4 * ulp
        if samples % 2 == 1:
            assert abs(math.fsum(weights * u**3) - 0.25) <= 4 * ulp
        # a step-free rule averages a ramp over any horizon the float range holds
        for horizon in (1e-300, 1.0, 1e300, 1e308):
            times = np.linspace(0.0, horizon, samples)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                average = _window_average(weights, times)
            assert math.isfinite(average)
            assert average == pytest.approx(horizon / 2.0, rel=1e-14)

    def test_doubling_grid_converges(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-10)
        coarse = entropy_trace(RESONANT, AtomInit(0.0), dist, horizon=25.0, samples=2001)
        fine = entropy_trace(RESONANT, AtomInit(0.0), dist, horizon=25.0, samples=4001)
        assert abs(coarse.avg_ds_atom - fine.avg_ds_atom) < 1e-6
        assert abs(coarse.avg_ds_field - fine.avg_ds_field) < 1e-6


class TestBloch:
    """A sweep returns one row of averages per given excited-state weight, in input order."""

    def test_validation(self, monkeypatch):
        # a sweep checks its column with the rule and message of a preparation,
        # before anything is walked
        monkeypatch.setattr(entropy_module, "_exchanges",
                            mock.Mock(side_effect=AssertionError("walked")))
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
        for epsilon in (-1e-300, 1.0 + 1e-15, math.nan):
            with pytest.raises(ValueError, match="epsilon must lie in") as refused:
                AtomInit(epsilon)
            for column in ([epsilon], [0.5, epsilon, 0.25], [epsilon, 0.0, 1.0, epsilon]):
                with pytest.raises(ValueError) as swept:
                    bloch_sweep(RESONANT, np.array(column), dist, horizon=10.0, samples=201)
                assert str(swept.value) == str(refused.value)
        # a column that is not 1-D is refused by its shape
        for column, shape in ((np.full((2, 3), 0.5), r"\(2, 3\)"), (0.5, r"\(\)")):
            with pytest.raises(ValueError, match=r"1-D column, got shape " + shape):
                bloch_sweep(RESONANT, column, dist, horizon=10.0, samples=201)

    def test_sweep_shape_and_order(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
        grid = {"horizon": 10.0, "samples": 201}
        epsilons = np.array([0.5, 1.0, 0.0, 0.5])
        averages = bloch_sweep(RESONANT, epsilons, dist, **grid)
        assert averages.shape == (4, 2)
        # a repeated preparation gets the same row, wherever it stands
        assert averages[0].tobytes() == averages[3].tobytes()
        assert not np.array_equal(averages[1], averages[2])
        reversed_order = bloch_sweep(RESONANT, epsilons[::-1], dist, **grid)
        assert reversed_order.tobytes() == averages[::-1].tobytes()
        assert bloch_sweep(RESONANT, np.empty(0), dist, **grid).shape == (0, 2)

    def test_sweep_matches_per_point_traces(self):
        # duplicates in permuted order: each row has the bits of its own trace
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
        kind = tsallis(1.6)
        epsilons = np.array([0.75, 0.0, 0.5, 0.75, 1.0, 0.0, 0.25, 0.5, 0.75])
        averages = bloch_sweep(RESONANT, epsilons, dist, kind, FieldEntropyForm.COARSE,
                               horizon=6.0, samples=121)
        expected = np.empty_like(averages)
        for row, eps in zip(expected, epsilons):
            trace = entropy_trace(RESONANT, AtomInit(eps), dist, kind, FieldEntropyForm.COARSE,
                                  horizon=6.0, samples=121)
            row[:] = trace.avg_ds_atom, trace.avg_ds_field
        assert averages.tobytes() == expected.tobytes()

    def test_each_distinct_preparation_is_walked_once(self, monkeypatch):
        walked = []
        exchanges = entropy_module._exchanges

        def counting(params, epsilon, *args):
            walked.extend(epsilon.tolist())
            return exchanges(params, epsilon, *args)

        monkeypatch.setattr(entropy_module, "_exchanges", counting)
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
        epsilons = np.array([1.0, 0.5, 0.0, 0.5, 1.0, 0.3, 0.0, 0.3, 0.5])
        bloch_sweep(RESONANT, epsilons, dist, horizon=25.0, samples=1000)
        # once each, in ascending order
        assert walked == [0.0, 0.3, 0.5, 1.0]


BATCH_KINDS = pytest.mark.parametrize("kind, form", [
    (VON_NEUMANN, FieldEntropyForm.FULL), (tsallis(1.3), FieldEntropyForm.COARSE),
], ids=["vn-full", "tsallis1.3-coarse"])


class TestSweepGroups:
    """A sweep walks its distinct preparations in groups, each with the bits of its own trace."""

    @staticmethod
    def group_size(dist, samples):
        levels = dist.weights.size
        return entropy_module._group_size(entropy_module._chunk_rows(samples, levels), levels)

    @staticmethod
    def per_point(dist, kind, form, epsilons, horizon, samples):
        expected = np.empty((len(epsilons), 2))
        for row, eps in zip(expected, epsilons):
            trace = entropy_trace(RESONANT, AtomInit(eps), dist, kind, form,
                                  horizon=horizon, samples=samples)
            row[:] = trace.avg_ds_atom, trace.avg_ds_field
        return expected

    @BATCH_KINDS
    def test_gamma_sweep_over_three_reseed_windows_on_two_walkers(self, monkeypatch, kind, form):
        # 4148 levels give 3 samples per chunk, so 900 samples are three reseed
        # windows, and two preparations share a group: the five distinct ones need three
        monkeypatch.setattr(entropy_module, "_available_cpus", lambda: 2)
        dist = photon_weights_gamma(
            GammaSuperstat(q=1.4, beta_star=3.3356918657181176), tail_tol=1e-6
        )
        assert dist.weights.size == 4148 and self.group_size(dist, 900) == 2
        epsilons = np.array([0.5, 1.0, 0.5, 0.75, 0.0, 0.25, 1.0])
        averages = bloch_sweep(RESONANT, epsilons, dist, kind, form, horizon=60.0, samples=900)
        expected = self.per_point(dist, kind, form, epsilons, 60.0, 900)
        assert averages.tobytes() == expected.tobytes()

    @BATCH_KINDS
    def test_gibbs_sweep_in_several_groups(self, kind, form):
        # 8 levels x 1000 samples put 32 preparations in a group, so the 71
        # distinct ones need three, the last of seven
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
        epsilons = np.linspace(0.0, 1.0, 71)
        epsilons = np.concatenate((epsilons[::-1], epsilons[::3]))
        assert np.unique(epsilons).size > 2 * self.group_size(dist, 1000) > 2
        averages = bloch_sweep(RESONANT, epsilons, dist, kind, form, horizon=25.0, samples=1000)
        expected = self.per_point(dist, kind, form, epsilons, 25.0, 1000)
        assert averages.tobytes() == expected.tobytes()

    def test_peak_memory_follows_the_group_budget(self, monkeypatch):
        # 8 levels x 1000 samples put 32 preparations in a group of 128-sample
        # chunks; 32 fill one, and 92 would need three times its buffers if
        # they were walked at once
        monkeypatch.setattr(entropy_module, "_available_cpus", lambda: 1)
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
        group = self.group_size(dist, 1000)
        assert group == 32
        # three transfer buffers, the field rows and the von Neumann logarithms
        buffers = 5 * 8 * GROUP_ELEMENTS

        def peak(count):
            epsilons = np.linspace(0.0, 1.0, count)
            tracemalloc.start()
            try:
                bloch_sweep(RESONANT, epsilons, dist, horizon=25.0, samples=1000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # pays any one-time set-up, which is no part of a sweep's memory
        small, large = peak(group), peak(92)
        assert small > buffers / 2
        assert large <= small + buffers
