import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import jcentropy.entropy as entropy_module
from jcentropy.entropy import (
    CHUNK_ELEMENTS,
    GROUP_ELEMENTS,
    RESEED_CHUNKS,
    VON_NEUMANN,
    BlochPoint,
    EntropyKind,
    MAX_PHASE,
    MAX_STEP,
    FieldEntropyForm,
    _coarse_grained,
    _row_entropies,
    _transfers,
    _window_average,
    bloch_sweep,
    entropy_of,
    entropy_trace,
    tsallis,
)
from jcentropy.jcm import (
    AtomInit,
    BlockEvolver,
    ModelParams,
    oracle_evolve,
)
from jcentropy.specfun import q_log
from jcentropy.superstat import (
    GammaSuperstat,
    PhotonDistribution,
    photon_weights_gamma,
    photon_weights_gibbs,
)
from oracle_utils import zeta_brute

RESONANT = ModelParams.from_detuning(0.0, 2.0)
# Thermal von Neumann entropy (1+nbar) ln(1+nbar) - nbar ln(nbar) at nbar=0.1,
# frozen from direct evaluation and cross-checked by summing the weights.
THERMAL_S_01 = 0.3350997070841619


def exact_entropies(evolver, t, kind=VON_NEUMANN, form=FieldEntropyForm.FULL):
    """(atom, field) entropies at time t from the coefficients, one instant at a time."""
    a, _, c = evolver.coefficients(t)
    p_e, p_g, field = evolver.populations(a, c)
    if form is FieldEntropyForm.COARSE:
        field = _coarse_grained(field, evolver.dist.tail_mass)
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
        got = _row_entropies(rows, kind)
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
        skipped = _row_entropies(row[np.newaxis], kind)
        clamped = _row_entropies(np.stack((row, negative)), kind)
        assert skipped.tobytes() == clamped[:1].tobytes()
        owned = row[np.newaxis].copy()
        logs = np.empty(owned.size)
        in_place = _row_entropies(owned, kind, overwrite=True, logs=logs)
        assert in_place.tobytes() == skipped.tobytes()

    @pytest.mark.parametrize("kind", [VON_NEUMANN, tsallis(1.6)], ids=["vn", "tsallis1.6"])
    def test_input_is_left_unchanged(self, kind):
        # the scoring clamps and rewrites entries, but only in its own copy
        p = np.array([0.25, 0.0, -1e-13, 0.75])
        before = p.tobytes()
        entropy_of(p, kind)
        _row_entropies(p.reshape(2, 2), kind)
        assert p.tobytes() == before

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            tsallis(2.0)
        with pytest.raises(ValueError):
            tsallis(1.0)


class TestAtomEntropy:
    def test_pure_state_zero(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-12)
        s_atom, _ = exact_entropies(BlockEvolver(RESONANT, AtomInit(1.0), dist), 0.0)
        assert s_atom == pytest.approx(0.0, abs=1e-12)

    def test_maximal_mixing(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-12)
        evolver = BlockEvolver(RESONANT, AtomInit(0.5), dist)
        s_atom, _ = exact_entropies(evolver, 0.0)
        assert s_atom == pytest.approx(math.log(2.0), abs=1e-12)
        q = 1.5
        s_atom, _ = exact_entropies(evolver, 0.0, tsallis(q))
        assert s_atom == pytest.approx(-q_log(0.5, q), abs=1e-12)

    def test_bounded_by_maximal_binary_entropy(self):
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        rng = np.random.default_rng(7)
        for q in (None, 1.3, 1.8):
            kind = VON_NEUMANN if q is None else tsallis(q)
            bound = math.log(2.0) if q is None else -q_log(0.5, q)
            for _ in range(25):
                params = ModelParams.from_detuning(rng.uniform(-2, 2), rng.uniform(0.5, 3))
                evolver = BlockEvolver(params, AtomInit(rng.uniform()), dist)
                s_atom, _ = exact_entropies(evolver, rng.uniform(0, 9), kind)
                assert s_atom <= bound + 1e-12


class TestFieldEntropy:
    def test_thermal_value_at_t0(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-12)
        _, s_field = exact_entropies(BlockEvolver(RESONANT, AtomInit(0.3), dist), 0.0)
        assert s_field == pytest.approx(THERMAL_S_01, abs=1e-8)

    def test_coarse_form_at_t0_is_binary(self):
        dist = photon_weights_gibbs(2.0, tail_tol=1e-12)
        evolver = BlockEvolver(RESONANT, AtomInit(0.7), dist)
        p0 = dist.weights[0]
        expected = entropy_of([p0, 1.0 - p0])
        _, s_field = exact_entropies(evolver, 0.0, form=FieldEntropyForm.COARSE)
        assert s_field == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("q", [1.2, 1.4])
    def test_deformed_t0_matches_tail_corrected_closed_form(self, q):
        # closed form (sum p^(2-q) - 1)/(q-1) via independent brute-force zeta sums
        beta_star = 1.2
        gs = GammaSuperstat(q=q, beta_star=beta_star, omega=1.0)
        dist = photon_weights_gamma(gs, tail_tol=1e-5, hard_cap=10**6)
        evolver = BlockEvolver(RESONANT, AtomInit(0.0), dist)
        s, r = gs.s_index, gs.r_offset
        norm, _ = zeta_brute(s, r, n_terms=2 * 10**6)
        full, _ = zeta_brute((2.0 - q) * s, r, n_terms=2 * 10**6)
        tail, _ = zeta_brute((2.0 - q) * s, r + dist.n_max + 1.0, n_terms=2 * 10**6)
        exact = (full / norm ** (2.0 - q) - 1.0) / (q - 1.0)
        tail_correction = (tail / norm ** (2.0 - q) - dist.tail_mass) / (q - 1.0)
        got = exact_entropies(evolver, 0.0, tsallis(q))[1] + tail_correction
        assert got == pytest.approx(exact, abs=1e-8)


class TestEntropyTrace:
    def test_first_sample_exactly_zero(self):
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        trace = entropy_trace(RESONANT, AtomInit(0.2), dist, times=np.linspace(0, 5, 64))
        assert trace.ds_atom[0] == 0.0
        assert trace.ds_field[0] == 0.0
        assert trace.ds_total[0] == 0.0

    def test_total_is_elementwise_sum(self):
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        trace = entropy_trace(RESONANT, AtomInit(0.2), dist, times=np.linspace(0, 5, 64))
        assert np.array_equal(trace.ds_total, trace.ds_atom + trace.ds_field)

    def test_zero_coupling_flat(self):
        params = ModelParams.from_detuning(0.0, 0.0)
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        trace = entropy_trace(params, AtomInit(0.4), dist, times=np.linspace(0, 5, 32))
        assert np.max(np.abs(trace.ds_total)) == 0.0

    def test_pure_atom_exchange_never_negative(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-10)
        trace = entropy_trace(RESONANT, AtomInit(0.0), dist, times=np.linspace(0, 20, 400))
        assert np.min(trace.ds_atom) >= 0.0

    def test_grid_validation(self):
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        with pytest.raises(ValueError):
            entropy_trace(RESONANT, AtomInit(0.2), dist, times=np.linspace(1, 5, 8))
        with pytest.raises(ValueError):
            entropy_trace(RESONANT, AtomInit(0.2), dist, times=np.array([0.0, 2.0, 1.0]))

    def test_steps_up_to_max_step_keep_the_averages_finite(self):
        # on an even sample count Simpson's rule weighs the last step by its cube;
        # a weak resonant coupling keeps every phase below MAX_PHASE, and still
        # moves the whole transfer
        params = ModelParams.from_detuning(0.0, 1e-90)
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        times = np.array([0.0, 0.5, 1.0, 2.0]) * MAX_STEP
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = entropy_trace(params, AtomInit(0.2), dist, times=times)
        assert math.isfinite(trace.avg_ds_atom) and math.isfinite(trace.avg_ds_field)
        assert np.all(trace.ds_atom[1:] != 0.0)
        times[-1] = np.nextafter(times[-1], np.inf)
        with pytest.raises(ValueError, match="time step"):
            entropy_trace(params, AtomInit(0.2), dist, times=times)

    def test_phase_beyond_max_phase_is_refused_for_traces_and_sweeps(self):
        # 14 levels at beta=1 and lambda=1 put the largest phase at T sqrt(13)
        params = ModelParams.from_detuning(0.0, 1.0)
        dist = photon_weights_gibbs(1.0, tail_tol=1e-6)
        assert dist.n_max == 13
        runs = (
            lambda times: entropy_trace(params, AtomInit(0.3), dist, times=times),
            lambda times: bloch_sweep(params, dist, VON_NEUMANN, FieldEntropyForm.FULL,
                                      [0.0, 1.0], [0.0, math.pi], times),
        )
        horizon = MAX_PHASE / math.sqrt(13.0)
        while horizon * math.sqrt(13.0) > MAX_PHASE:
            horizon = np.nextafter(horizon, 0.0)
        for run in runs:
            with pytest.raises(ValueError, match=r"2\*\*52"):
                run(np.linspace(0.0, 1e17, 9))
            with pytest.raises(ValueError, match=r"2\*\*52"):
                run(np.linspace(0.0, np.nextafter(horizon, np.inf), 9))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = run(np.linspace(0.0, horizon, 9))
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
        times = np.linspace(0.0, 7.0, 29)
        assert 1 < CHUNK_ELEMENTS // gamma.weights.size < times.size
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

            trace = entropy_trace(params, atom, dist, kind, form, times=times)
            evolver = BlockEvolver(params, atom, dist)
            s0_atom, s0_field = exact_entropies(evolver, 0.0, kind, form)
            o0_atom, o0_field = oracle_entropies(0.0)
            for i in (3, 11, 28):
                s_atom, s_field = exact_entropies(evolver, times[i], kind, form)
                assert trace.ds_atom[i] == pytest.approx(s_atom - s0_atom, abs=1e-12)
                assert trace.ds_field[i] == pytest.approx(s_field - s0_field, abs=1e-12)
                o_atom, o_field = oracle_entropies(times[i])
                assert trace.ds_atom[i] == pytest.approx(o_atom - o0_atom, abs=1e-12)
                assert trace.ds_field[i] == pytest.approx(o_field - o0_field, abs=1e-12)

    @pytest.mark.parametrize("grid", ["linspace", "squares", "resonant"])
    def test_chunk_recurrence_matches_state_level_entropies(self, grid):
        # ~4k levels give R = 3 samples per chunk, and 300 chunks cross two
        # reseeds of the cosine recurrence; t = s^2 is no linspace grid, so every
        # chunk takes the exact cosine; the resonant step has R h delta_0 = 2 pi
        gamma = photon_weights_gamma(
            GammaSuperstat(q=1.4, beta_star=3.3356918657181176), tail_tol=1e-6
        )
        rows = CHUNK_ELEMENTS // gamma.weights.size
        n = 300 * rows
        times = {
            "linspace": np.linspace(0.0, 60.0, n),
            "squares": np.linspace(0.0, math.sqrt(60.0), n) ** 2,
            "resonant": np.linspace(0.0, (n - 1) * math.pi / rows, n),  # delta_0 = 2
        }[grid]
        atom = AtomInit(0.35)
        # drift peaks late in a reseed window, more so in one seeded at large t
        picks = [7, *range(120 * rows, 130 * rows), *range(240 * rows, 256 * rows), n - 1]
        for kind in (VON_NEUMANN, tsallis(1.5)):
            trace = entropy_trace(RESONANT, atom, gamma, kind, FieldEntropyForm.FULL, times=times)
            evolver = BlockEvolver(RESONANT, atom, gamma)
            s0_atom, s0_field = exact_entropies(evolver, 0.0, kind)
            for i in picks:
                s_atom, s_field = exact_entropies(evolver, times[i], kind)
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
    evolver = BlockEvolver(RESONANT, AtomInit(0.35), gamma)
    delta_n, a1 = evolver.delta_n, evolver.a1
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

    @pytest.mark.parametrize("grid", ["linspace", "squares"])
    def test_bytes_do_not_depend_on_walker_count(self, monkeypatch, gamma, grid):
        times = {
            "linspace": np.linspace(0.0, 60.0, 900),
            "squares": np.linspace(0.0, math.sqrt(60.0), 900) ** 2,
        }[grid]
        atom = AtomInit(0.35)
        for kind, form in itertools.product(
            (VON_NEUMANN, tsallis(1.5)), (FieldEntropyForm.FULL, FieldEntropyForm.COARSE)
        ):
            results = []
            for count in (1, 2, 3):
                self._walkers(monkeypatch, count)
                trace = entropy_trace(RESONANT, atom, gamma, kind, form, times=times)
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
        times = np.linspace(0.0, 60.0, 900)
        messages = []
        for count in (1, 2, 3):
            self._walkers(monkeypatch, count)
            with pytest.raises(ValueError) as info:
                entropy_trace(RESONANT, AtomInit(0.35), gamma, times=times)
            messages.append(str(info.value))
        assert messages[1] == messages[0] and messages[2] == messages[0]

    def test_no_thread_outlives_the_trace(self, monkeypatch, gamma):
        self._walkers(monkeypatch, 3)
        before = threading.active_count()
        entropy_trace(RESONANT, AtomInit(0.35), gamma, times=np.linspace(0.0, 60.0, 900))
        assert threading.active_count() == before


def test_single_walker_trace_holds_eleven_level_arrays(monkeypatch):
    # the evolver's four arrays, the t=0 field weights, three transfer rows, a
    # field row and the two recurrence steps; a Tsallis score needs no log
    # buffer, and a step array kept beside the steps would make twelve
    monkeypatch.setattr(entropy_module, "_available_cpus", lambda: 1)
    n = 10**5
    dist = PhotonDistribution(np.full(n + 1, 1.0 / (n + 1)), 0.0)
    times = np.linspace(0.0, 5.0, 40)  # one sample per chunk, so the recurrence runs
    # a first run imports the Simpson rule, which is no part of the trace's memory
    entropy_trace(RESONANT, AtomInit(0.35), dist, tsallis(1.6), times=times[:3])
    tracemalloc.start()
    try:
        entropy_trace(RESONANT, AtomInit(0.35), dist, tsallis(1.6), times=times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * n) < 11.5


class TestTimeAverage:
    def test_constant_trace(self):
        times = np.linspace(0, 4, 33)
        assert _window_average(times, np.full_like(times, 0.7)) == pytest.approx(0.7, rel=1e-12)

    def test_sinusoid_over_integer_periods(self):
        times = np.linspace(0, 6 * math.pi, 2001)
        assert abs(_window_average(times, np.sin(times))) < 1e-8

    def test_doubling_grid_converges(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-10)
        coarse = entropy_trace(RESONANT, AtomInit(0.0), dist, times=np.linspace(0, 25, 2001))
        fine = entropy_trace(RESONANT, AtomInit(0.0), dist, times=np.linspace(0, 25, 4001))
        assert abs(coarse.avg_ds_atom - fine.avg_ds_atom) < 1e-6
        assert abs(coarse.avg_ds_field - fine.avg_ds_field) < 1e-6


class TestBloch:
    def test_epsilon_mapping(self):
        assert BlochPoint(1.0, math.pi).epsilon == pytest.approx(0.0, abs=1e-15)
        assert BlochPoint(0.0, 0.3).epsilon == 0.5
        assert BlochPoint(1.0, 0.0).epsilon == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlochPoint(1.2, 0.0)
        with pytest.raises(ValueError):
            BlochPoint(0.5, 3.5)

    def test_sweep_shape_and_order(self):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
        times = np.linspace(0, 10, 201)
        grid = bloch_sweep(
            RESONANT, dist, VON_NEUMANN, FieldEntropyForm.FULL,
            [0.0, 1.0], [0.0, math.pi / 2, math.pi], times,
        )
        assert grid.shape == (2, 3, 2)
        # r=0 rows are theta-independent (epsilon = 1/2 everywhere)
        assert np.allclose(grid[0, 0], grid[0, 2], atol=1e-12)

    def test_sweep_matches_per_point_traces(self):
        # the r=0 row shares epsilon = 1/2, so the sweep reuses one trace there
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
        times = np.linspace(0, 8, 161)
        times = times[times <= 6.0]
        r_values, theta_values = [0.0, 0.5, 1.0], [0.0, 1.2, math.pi]
        kind = tsallis(1.6)
        grid = bloch_sweep(RESONANT, dist, kind, FieldEntropyForm.COARSE,
                           r_values, theta_values, times)
        expected = np.empty_like(grid)
        for i, r in enumerate(r_values):
            for j, theta in enumerate(theta_values):
                atom = AtomInit(BlochPoint(r, theta).epsilon)
                trace = entropy_trace(RESONANT, atom, dist, kind, FieldEntropyForm.COARSE, times=times)
                expected[i, j] = trace.avg_ds_atom, trace.avg_ds_field
        assert np.array_equal(grid, expected)


BATCH_KINDS = pytest.mark.parametrize("kind, form", [
    (VON_NEUMANN, FieldEntropyForm.FULL), (tsallis(1.3), FieldEntropyForm.COARSE),
], ids=["vn-full", "tsallis1.3-coarse"])


class TestSweepGroups:
    """A sweep walks its distinct epsilons in groups, each with the bits of its own trace."""

    @staticmethod
    def group_size(dist, times):
        rows = min(times.size, CHUNK_ELEMENTS // dist.weights.size)
        return GROUP_ELEMENTS // (rows * dist.weights.size)

    @staticmethod
    def per_point(dist, kind, form, r_values, theta_values, times):
        expected = np.empty((len(r_values), len(theta_values), 2))
        for i, r in enumerate(r_values):
            for j, theta in enumerate(theta_values):
                atom = AtomInit(BlochPoint(r, theta).epsilon)
                trace = entropy_trace(RESONANT, atom, dist, kind, form, times=times)
                expected[i, j] = trace.avg_ds_atom, trace.avg_ds_field
        return expected

    @BATCH_KINDS
    def test_gamma_sweep_over_three_reseed_windows_on_two_walkers(self, monkeypatch, kind, form):
        # 4148 levels give 3 samples per chunk, so 900 samples are three reseed
        # windows, and two epsilons share a group: the five distinct ones need three
        monkeypatch.setattr(entropy_module, "_available_cpus", lambda: 2)
        dist = photon_weights_gamma(
            GammaSuperstat(q=1.4, beta_star=3.3356918657181176), tail_tol=1e-6
        )
        assert dist.weights.size == 4148 and self.group_size(dist, np.empty(900)) == 2
        times = np.linspace(0.0, 60.0, 900)
        r_values, theta_values = np.linspace(0.0, 1.0, 3), np.linspace(0.0, math.pi, 3)
        grid = bloch_sweep(RESONANT, dist, kind, form, r_values, theta_values, times)
        expected = self.per_point(dist, kind, form, r_values, theta_values, times)
        assert grid.tobytes() == expected.tobytes()

    @BATCH_KINDS
    def test_gibbs_sweep_in_several_groups(self, kind, form):
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
        times = np.linspace(0.0, 25.0, 1000)
        r_values, theta_values = np.linspace(0.0, 1.0, 4), np.linspace(0.0, math.pi, 5)
        distinct = {BlochPoint(r, theta).epsilon for r in r_values for theta in theta_values}
        assert len(distinct) > 2 * self.group_size(dist, times) > 2
        grid = bloch_sweep(RESONANT, dist, kind, form, r_values, theta_values, times)
        expected = self.per_point(dist, kind, form, r_values, theta_values, times)
        assert grid.tobytes() == expected.tobytes()

    def test_peak_memory_follows_the_group_budget(self, monkeypatch):
        # 8 levels x 1000 samples put four epsilons in a group; the 3x3 grid
        # fills one, and the 9x13 grid's 92 epsilons would need 23 times its
        # buffers if they were walked at once
        monkeypatch.setattr(entropy_module, "_available_cpus", lambda: 1)
        dist = photon_weights_gibbs(math.log(11.0), tail_tol=1e-8)
        times = np.linspace(0.0, 25.0, 1000)
        group = self.group_size(dist, times)
        assert group == 4
        # three transfer buffers, the field rows and the von Neumann logarithms
        buffers = 5 * 8 * GROUP_ELEMENTS

        def peak(n_r, n_theta):
            r_values, theta_values = np.linspace(0.0, 1.0, n_r), np.linspace(0.0, math.pi, n_theta)
            tracemalloc.start()
            try:
                bloch_sweep(RESONANT, dist, VON_NEUMANN, FieldEntropyForm.FULL,
                            r_values, theta_values, times)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2, 2)  # imports the Simpson rule, which is no part of a sweep's memory
        small, large = peak(3, 3), peak(9, 13)
        assert small > buffers / 2
        assert large <= small + buffers
