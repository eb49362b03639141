import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcentropy.entropy import entropy_of, entropy_trace, tsallis
from jcentropy.jcm import (
    AtomInit,
    CutoffWarning,
    ModelParams,
    _manifold_arrays,
    manifold_transfers,
    oracle_evolve,
)
from jcentropy.superstat import (
    GammaSuperstat,
    PhotonDistribution,
    photon_weights_gamma,
    photon_weights_gibbs,
)
from oracle_utils import evolved_ac, fixed_parts, populations

RESONANT = ModelParams.from_detuning(0.0, 2.0)


def make_dist(weights) -> PhotonDistribution:
    weights = np.asarray(weights, dtype=float)
    return PhotonDistribution(weights, 1.0 - float(np.sum(weights)))


def populations_at(params, eps, dist, t):
    """(p_e, p_g, field weights) at time t."""
    return populations(eps, dist, *evolved_ac(params, eps, dist, t))


@pytest.fixture(scope="module")
def thermal_dist():
    return photon_weights_gibbs(math.log(11.0), tail_tol=1e-12).truncated(20)


def test_model_params_keep_the_detuning_as_given_in_keyword_only_fields():
    # (omega + delta) - omega would read 0.10000000000000009, and inf beside a huge omega
    assert ModelParams.from_detuning(0.1, 2.0).delta == 0.1
    assert ModelParams.from_detuning(1.7e308, 1.0, omega=1e308).delta == 1.7e308
    # a positional call would once have read its first value as omega0
    with pytest.raises(TypeError):
        ModelParams(0.3, 1.0, 2.0)
    assert ModelParams(delta=0.3, lam=2.0) == ModelParams.from_detuning(0.3, 2.0)


class TestManifold:
    def test_resonant_ground_manifold(self):
        delta_n, sin_theta = _manifold_arrays(RESONANT, 1)
        assert delta_n[0] == pytest.approx(2.0, abs=1e-15)
        assert sin_theta[0] == pytest.approx(1.0, abs=1e-15)

    def test_detuned_manifold(self):
        delta_n, sin_theta = _manifold_arrays(ModelParams.from_detuning(3.0, 2.0), 1)
        assert delta_n[0] == pytest.approx(math.sqrt(13.0), rel=1e-15)
        assert sin_theta[0] == pytest.approx(2.0 / math.sqrt(13.0), rel=1e-15)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_uncoupled_manifold_does_not_rotate(self, delta):
        _, sin_theta = _manifold_arrays(ModelParams.from_detuning(delta, 0.0), 3)
        assert np.array_equal(sin_theta, np.zeros(3))

    def test_resonant_scaling(self):
        assert _manifold_arrays(RESONANT, 4)[0][3] == pytest.approx(4.0, rel=1e-15)


def test_evolver_holds_two_level_arrays():
    # delta_n and a1, and no other array of the levels' size outlives the call
    dist = photon_weights_gibbs(1e-3, tail_tol=1e-8)
    tracemalloc.start()
    try:
        delta_n, a1 = manifold_transfers(ModelParams.from_detuning(0.3, 2.0), 0.4, dist)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 2 * 8 * dist.n_max <= held <= 2 * 8 * dist.n_max + 4096
    assert delta_n.size == a1.size == dist.n_max


def test_transfers_need_two_photon_levels():
    with pytest.raises(ValueError, match=r"need at least photon levels \{0, 1\} to evolve"):
        manifold_transfers(RESONANT, 0.4, make_dist([1.0]))


@pytest.mark.parametrize("times", [(0.0, 0.7), (0.0, 0.7, 3.1)], ids=["k-samples", "3-samples"])
def test_group_populations_over_samples_have_each_lone_evolvers_bits(times):
    # (k, samples, levels) input: the frozen weights follow the preparation
    # axis, also where k == samples would let them broadcast along the samples
    # a (k,) column against 0-d calls, one per weight
    params, eps = ModelParams.from_detuning(0.0, 1.0), np.array([0.1, 0.9])
    dist = photon_weights_gibbs(0.5, tail_tol=1e-12).truncated(5)
    delta_n, a1 = manifold_transfers(params, eps, dist)
    cos = np.cos(np.multiply.outer(times, delta_n))
    a0, c0 = fixed_parts(eps, dist, a1)
    a = a0[:, np.newaxis] + a1[:, np.newaxis] * cos
    c = c0[:, np.newaxis] - a1[:, np.newaxis] * cos
    p_e, p_g, field = populations(eps, dist, a, c)
    assert p_e.shape == p_g.shape == (len(eps), len(times))
    for i, e in enumerate(eps.tolist()):
        for j, t in enumerate(times):
            a_t, c_t = evolved_ac(params, e, dist, t)
            assert a_t.tobytes() == a[i, j].tobytes() and c_t.tobytes() == c[i, j].tobytes()
            want = populations(e, dist, a_t, c_t)
            assert (p_e[i, j], p_g[i, j]) == want[:2] and field[i, j].tobytes() == want[2].tobytes()
        assert p_e[i, 0] == pytest.approx(e, abs=1e-12)


class TestInitialConditions:
    @pytest.mark.parametrize("delta", [0.0, 1.3, -2.0])
    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    def test_t0_recovers_initial_weights(self, delta, eps, thermal_dist):
        params = ModelParams.from_detuning(delta, 2.0)
        a, c = evolved_ac(params, eps, thermal_dist, 0.0)
        p = thermal_dist.weights
        assert np.max(np.abs(a - eps * p[:-1])) < 1e-14
        assert np.max(np.abs(c - (1.0 - eps) * p[1:])) < 1e-14

    def test_t0_atom_populations(self, thermal_dist):
        for eps, expected in ((1.0, (1.0, 0.0)), (0.0, (0.0, 1.0))):
            p_e, p_g, _ = populations_at(RESONANT, eps, thermal_dist, 0.0)
            assert p_e == pytest.approx(expected[0], abs=1e-12)
            assert p_g == pytest.approx(expected[1], abs=1e-12)

    def test_t0_field_is_input(self, thermal_dist):
        _, _, field = populations_at(RESONANT, 0.4, thermal_dist, 0.0)
        assert np.max(np.abs(field - thermal_dist.weights)) < 1e-15


class TestClosedForms:
    def test_resonant_ground_atom_rabi(self, thermal_dist):
        # eps=0, Delta=0: A_n(t) = p_{n+1} sin^2(delta_n t / 2)
        t = 0.9
        a, _ = evolved_ac(RESONANT, 0.0, thermal_dist, t)
        n = np.arange(thermal_dist.n_max)
        delta_n = 2.0 * np.sqrt(n + 1.0)
        expected = thermal_dist.weights[1:] * np.sin(delta_n * t / 2.0) ** 2
        assert np.max(np.abs(a - expected)) < 1e-14

    def test_single_photon_transfer(self):
        # two retained levels, excited atom: level-1 weight grows by p_0 sin^2(delta_0 t/2)
        dist = make_dist([0.7, 0.2])
        t = math.pi / 2.0  # delta_0 = 2 -> half Rabi period
        _, _, w0 = populations_at(RESONANT, 1.0, dist, 0.0)
        _, _, wt = populations_at(RESONANT, 1.0, dist, t)
        assert wt[1] - w0[1] == pytest.approx(0.7 * math.sin(2.0 * t / 2.0) ** 2, abs=1e-12)

    def test_periodicity_per_manifold(self, thermal_dist):
        params = ModelParams.from_detuning(0.7, 1.3)
        delta_n, _ = manifold_transfers(params, 0.25, thermal_dist)
        t = 1.234
        a1, c1 = evolved_ac(params, 0.25, thermal_dist, t)
        for n in range(thermal_dist.n_max):
            period = 2.0 * math.pi / delta_n[n]
            a2, c2 = evolved_ac(params, 0.25, thermal_dist, t + period)
            assert a2[n] == pytest.approx(a1[n], abs=1e-10)
            assert c2[n] == pytest.approx(c1[n], abs=1e-10)

    def test_zero_coupling_freezes_populations(self, thermal_dist):
        for delta in (1.0, 0.0):
            params = ModelParams.from_detuning(delta, 0.0)
            a0, c0 = evolved_ac(params, 0.6, thermal_dist, 0.0)
            a1, c1 = evolved_ac(params, 0.6, thermal_dist, 5.7)
            assert np.array_equal(a0, a1)
            assert np.array_equal(c0, c1)

    @pytest.mark.parametrize("eps, sector", [(1.0, "c"), (0.0, "a")])
    def test_empty_sector_is_exactly_zero_at_t0(self, eps, sector):
        # a t=0 residue of 1e-16 in the empty sector becomes 1e-10 under p^(2-q)
        gamma = photon_weights_gamma(
            GammaSuperstat(q=1.4, beta_star=3.3356918657181176), tail_tol=1e-6
        )
        assert gamma.n_max == 4147
        a, c = evolved_ac(ModelParams.from_detuning(0.3, 2.0), eps, gamma, 0.0)
        assert not np.any({"a": a, "c": c}[sector])


def spec_point_dist():
    """The 41-level q=1.5 gamma state of the spec point."""
    gs = GammaSuperstat(q=1.5, beta_star=2.0, omega=1.0)
    return photon_weights_gamma(gs, tail_tol=1e-4, hard_cap=10**5).truncated(40)


class TestOracle:
    def test_spec_point_matches_oracle(self):
        # Delta=1, lam=2, eps=0.3, q=1.5 weights, t=0.7
        dist = spec_point_dist()
        params = ModelParams.from_detuning(1.0, 2.0)
        atom = AtomInit(0.3)
        a, c = evolved_ac(params, atom.epsilon, dist, 0.7)
        ora = oracle_evolve(params, atom, dist, 0.7, n_cut=dist.n_max, warn_tol=1.0)
        assert np.max(np.abs(a - ora.coeff_a)) < 1e-10
        assert np.max(np.abs(c - ora.coeff_c)) < 1e-10
        p_e, p_g, field = populations(atom.epsilon, dist, a, c)
        assert p_e == pytest.approx(ora.atom_excited, abs=1e-10)
        assert p_g == pytest.approx(ora.atom_ground, abs=1e-10)
        assert np.max(np.abs(field - ora.field_weights)) < 1e-10

    def test_oracle_t0_exact(self, thermal_dist):
        atom = AtomInit(0.3)
        ora = oracle_evolve(RESONANT, atom, thermal_dist, 0.0, n_cut=thermal_dist.n_max)
        assert np.max(np.abs(ora.field_weights - thermal_dist.weights)) < 1e-14
        assert ora.atom_excited == pytest.approx(0.3, abs=1e-14)

    def test_oracle_zero_coupling_constant(self, thermal_dist):
        params = ModelParams.from_detuning(0.5, 0.0)
        atom = AtomInit(0.8)
        ora = oracle_evolve(params, atom, thermal_dist, 3.3, n_cut=thermal_dist.n_max)
        assert np.max(np.abs(ora.field_weights - thermal_dist.weights)) < 1e-12
        assert ora.atom_excited == pytest.approx(0.8, abs=1e-12)

    def test_random_grid_agreement(self, thermal_dist):
        rng = np.random.default_rng(3)
        for _ in range(10):
            params = ModelParams.from_detuning(rng.uniform(-3, 3), rng.uniform(0.3, 3.0))
            atom = AtomInit(rng.uniform())
            t = rng.uniform(0.0, 10.0)
            a, c = evolved_ac(params, atom.epsilon, thermal_dist, t)
            ora = oracle_evolve(params, atom, thermal_dist, t, n_cut=thermal_dist.n_max)
            assert np.max(np.abs(a - ora.coeff_a)) < 1e-10
            assert np.max(np.abs(c - ora.coeff_c)) < 1e-10
            p_e, p_g, _ = populations(atom.epsilon, thermal_dist, a, c)
            assert p_e == pytest.approx(ora.atom_excited, abs=1e-10)
            assert p_g == pytest.approx(ora.atom_ground, abs=1e-10)

    def test_cutoff_warning(self, thermal_dist):
        with pytest.warns(CutoffWarning):
            oracle_evolve(RESONANT, AtomInit(0.5), thermal_dist, 1.0, n_cut=3)

    @pytest.mark.parametrize("n_cut", [3, 17])
    def test_cutoff_is_the_one_truncation(self, n_cut):
        # n_cut cuts the state as truncated does, to the bit, and the field
        # keeps only the levels of the cut state
        dist = spec_point_dist()
        params = ModelParams.from_detuning(1.0, 2.0)
        atom = AtomInit(0.3)
        cut = dist.truncated(n_cut)
        ora = oracle_evolve(params, atom, dist, 0.7, n_cut=n_cut, warn_tol=1.0)
        ref = oracle_evolve(params, atom, cut, 0.7, n_cut=n_cut, warn_tol=1.0)
        assert ora.field_weights.size == n_cut + 1
        for name in ("coeff_a", "coeff_c", "field_weights"):
            assert np.array_equal(getattr(ora, name), getattr(ref, name)), name
        for name in ("atom_excited", "atom_ground", "tail_mass"):
            assert getattr(ora, name) == getattr(ref, name), name

    @pytest.mark.parametrize("n_cut", [3, 17])
    def test_cut_oracle_exchanges_match_the_trace_of_the_cut_state(self, n_cut):
        dist = spec_point_dist()
        params = ModelParams.from_detuning(1.0, 2.0)
        atom = AtomInit(0.3)
        kind = tsallis(1.5)
        cut = dist.truncated(n_cut)
        trace = entropy_trace(params, atom, cut, kind, horizon=5.0, samples=101)
        s0_atom = entropy_of([atom.epsilon, 1.0 - atom.epsilon], kind)
        s0_field = entropy_of(cut.weights, kind)
        for i in (0, 37, 100):
            ora = oracle_evolve(params, atom, dist, trace.times[i], n_cut=n_cut, warn_tol=1.0)
            ds_atom = entropy_of([ora.atom_excited, ora.atom_ground], kind) - s0_atom
            ds_field = entropy_of(ora.field_weights, kind) - s0_field
            assert trace.ds_atom[i] == pytest.approx(ds_atom, abs=1e-12)
            assert trace.ds_field[i] == pytest.approx(ds_field, abs=1e-12)

    def test_short_cutoff_still_conserves_probability(self, thermal_dist):
        ora = oracle_evolve(
            RESONANT, AtomInit(0.5), thermal_dist, 1.0, n_cut=3, warn_tol=1.0
        )
        assert ora.atom_excited + ora.atom_ground == pytest.approx(1.0, abs=1e-12)
        total = float(np.sum(ora.field_weights)) + ora.tail_mass
        assert total == pytest.approx(1.0, abs=1e-12)


def _full_dense_sim(delta, lam, eps, weights, tail, t):
    """Whole-space reference: rho_a (x) rho_f evolved with a dense expm.

    Assumes nothing about block structure; applies the same frozen-top
    convention (no coupling out of the last retained level, tail split
    epsilon : 1-epsilon).
    """
    from scipy.linalg import expm

    dim_f = len(weights)
    omega0 = 1.0 + delta
    h = np.zeros((2 * dim_f, 2 * dim_f))  # index = atom*dim_f + n, atom 0 = e
    for n in range(dim_f):
        h[n, n] = omega0 / 2.0 + n
        h[dim_f + n, dim_f + n] = -omega0 / 2.0 + n
    for n in range(dim_f - 1):
        g = lam * math.sqrt(n + 1.0) / 2.0
        h[n, dim_f + n + 1] = h[dim_f + n + 1, n] = g
    rho = np.kron(np.diag([eps, 1.0 - eps]), np.diag(weights)).astype(complex)
    u = expm(-1j * h * t)
    rho_t = u @ rho @ u.conj().T
    p_e = float(np.trace(rho_t[:dim_f, :dim_f]).real) + eps * tail
    p_g = float(np.trace(rho_t[dim_f:, dim_f:]).real) + (1.0 - eps) * tail
    field = np.diag(rho_t).real[:dim_f] + np.diag(rho_t).real[dim_f:]
    return p_e, p_g, field


def test_matches_full_space_dense_simulation():
    rng = np.random.default_rng(99)
    for _ in range(6):
        delta, lam, eps = rng.uniform(-2, 2), rng.uniform(0.5, 3.0), rng.uniform()
        t = rng.uniform(0.0, 8.0)
        dist = photon_weights_gibbs(rng.uniform(0.8, 3.0), tail_tol=1e-13).truncated(14)
        params = ModelParams.from_detuning(delta, lam)
        p_e, p_g, field = populations_at(params, eps, dist, t)
        ref_e, ref_g, ref_field = _full_dense_sim(delta, lam, eps, dist.weights, dist.tail_mass, t)
        assert p_e == pytest.approx(ref_e, abs=1e-12)
        assert p_g == pytest.approx(ref_g, abs=1e-12)
        assert np.max(np.abs(field - ref_field)) < 1e-12


@settings(max_examples=80, deadline=None)
@given(
    delta=st.floats(min_value=-4.0, max_value=4.0),
    lam=st.floats(min_value=0.1, max_value=4.0),
    eps=st.floats(min_value=0.0, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=30.0),
)
def test_structural_invariants(delta, lam, eps, t):
    params = ModelParams.from_detuning(delta, lam)
    dist = photon_weights_gibbs(1.5, tail_tol=1e-10)
    _, a1 = manifold_transfers(params, eps, dist)
    a, c = evolved_ac(params, eps, dist, t)
    # per-manifold conservation: the transfer a1 cos leaves A and enters C
    p = dist.weights
    assert np.max(np.abs(a + c - (eps * p[:-1] + (1.0 - eps) * p[1:]))) < 1e-10
    total = (1.0 - eps) * p[0] + eps * p[-1] + float(np.sum(a + c)) + dist.tail_mass
    assert abs(total - 1.0) < 1e-10
    assert np.min(a) > -1e-12 and np.min(c) > -1e-12
    # so at every t: each side's fixed part covers the transfer's swing
    swing = np.abs(a1)
    a0, c0 = fixed_parts(eps, dist, a1)
    assert np.min(a0 - swing) > -1e-12 and np.min(c0 - swing) > -1e-12
