import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcentropy.jcm import (
    AtomInit,
    BlockEvolver,
    CutoffWarning,
    ModelParams,
    _manifold_arrays,
    oracle_evolve,
    reduced_atom,
    reduced_field,
)
from jcentropy.superstat import (
    GammaSuperstat,
    PhotonDistribution,
    photon_weights_gamma,
    photon_weights_gibbs,
)

RESONANT = ModelParams.from_detuning(0.0, 2.0)


def make_dist(weights) -> PhotonDistribution:
    weights = np.asarray(weights, dtype=float)
    return PhotonDistribution(weights, 1.0 - float(np.sum(weights)))


@pytest.fixture(scope="module")
def thermal_dist():
    return photon_weights_gibbs(math.log(11.0), tail_tol=1e-12).truncated(20)


class TestManifold:
    def test_resonant_ground_manifold(self):
        delta_n, sin_theta, cos_theta = _manifold_arrays(RESONANT, 1)
        assert delta_n[0] == pytest.approx(2.0, abs=1e-15)
        assert sin_theta[0] == pytest.approx(1.0, abs=1e-15)
        assert cos_theta[0] == pytest.approx(0.0, abs=1e-15)

    def test_detuned_manifold(self):
        delta_n, sin_theta, cos_theta = _manifold_arrays(ModelParams.from_detuning(3.0, 2.0), 1)
        assert delta_n[0] == pytest.approx(math.sqrt(13.0), rel=1e-15)
        assert sin_theta[0] == pytest.approx(2.0 / math.sqrt(13.0), rel=1e-15)
        assert cos_theta[0] == pytest.approx(3.0 / math.sqrt(13.0), rel=1e-15)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_uncoupled_manifold_does_not_rotate(self, delta):
        _, sin_theta, cos_theta = _manifold_arrays(ModelParams.from_detuning(delta, 0.0), 3)
        assert np.array_equal(sin_theta, np.zeros(3))
        assert np.array_equal(cos_theta, np.ones(3))

    def test_resonant_scaling(self):
        assert _manifold_arrays(RESONANT, 4)[0][3] == pytest.approx(4.0, rel=1e-15)


def test_evolver_holds_four_level_arrays():
    # delta_n, a0, a1 and c0; the coherence is rebuilt from the mixing angle
    dist = photon_weights_gibbs(1e-3, tail_tol=1e-8)
    tracemalloc.start()
    try:
        evolver = BlockEvolver(ModelParams.from_detuning(0.3, 2.0), AtomInit(0.4), dist)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 4 * 8 * dist.n_max <= held <= 4 * 8 * dist.n_max + 4096
    assert evolver.delta_n.size == dist.n_max


class TestInitialConditions:
    @pytest.mark.parametrize("delta", [0.0, 1.3, -2.0])
    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    def test_t0_recovers_initial_weights(self, delta, eps, thermal_dist):
        params = ModelParams.from_detuning(delta, 2.0)
        state = BlockEvolver(params, AtomInit(eps), thermal_dist).state(0.0)
        p = thermal_dist.weights
        assert np.max(np.abs(state.coeff_a - eps * p[:-1])) < 1e-14
        assert np.max(np.abs(state.coeff_c - (1.0 - eps) * p[1:])) < 1e-14
        assert np.max(np.abs(state.coeff_b)) < 1e-14

    def test_t0_reduced_atom(self, thermal_dist):
        for eps, expected in ((1.0, (1.0, 0.0)), (0.0, (0.0, 1.0))):
            state = BlockEvolver(RESONANT, AtomInit(eps), thermal_dist).state(0.0)
            p_e, p_g = reduced_atom(state)
            assert p_e == pytest.approx(expected[0], abs=1e-12)
            assert p_g == pytest.approx(expected[1], abs=1e-12)

    def test_t0_reduced_field_is_input(self, thermal_dist):
        state = BlockEvolver(RESONANT, AtomInit(0.4), thermal_dist).state(0.0)
        assert np.max(np.abs(reduced_field(state) - thermal_dist.weights)) < 1e-15


class TestClosedForms:
    def test_resonant_ground_atom_rabi(self, thermal_dist):
        # eps=0, Delta=0: A_n(t) = p_{n+1} sin^2(delta_n t / 2)
        t = 0.9
        state = BlockEvolver(RESONANT, AtomInit(0.0), thermal_dist).state(t)
        n = np.arange(thermal_dist.n_max)
        delta_n = 2.0 * np.sqrt(n + 1.0)
        expected = thermal_dist.weights[1:] * np.sin(delta_n * t / 2.0) ** 2
        assert np.max(np.abs(state.coeff_a - expected)) < 1e-14

    def test_single_photon_transfer(self):
        # two retained levels, excited atom: level-1 weight grows by p_0 sin^2(delta_0 t/2)
        dist = make_dist([0.7, 0.2])
        t = math.pi / 2.0  # delta_0 = 2 -> half Rabi period
        evolver = BlockEvolver(RESONANT, AtomInit(1.0), dist)
        w0 = reduced_field(evolver.state(0.0))
        wt = reduced_field(evolver.state(t))
        assert wt[1] - w0[1] == pytest.approx(0.7 * math.sin(2.0 * t / 2.0) ** 2, abs=1e-12)

    def test_periodicity_per_manifold(self, thermal_dist):
        params = ModelParams.from_detuning(0.7, 1.3)
        evolver = BlockEvolver(params, AtomInit(0.25), thermal_dist)
        t = 1.234
        a1, _, c1 = evolver.coefficients(t)
        for n in range(thermal_dist.n_max):
            period = 2.0 * math.pi / evolver.delta_n[n]
            a2, _, c2 = evolver.coefficients(t + period)
            assert a2[n] == pytest.approx(a1[n], abs=1e-10)
            assert c2[n] == pytest.approx(c1[n], abs=1e-10)

    def test_zero_coupling_freezes_populations(self, thermal_dist):
        for delta in (1.0, 0.0):
            params = ModelParams.from_detuning(delta, 0.0)
            evolver = BlockEvolver(params, AtomInit(0.6), thermal_dist)
            state0, state1 = evolver.state(0.0), evolver.state(5.7)
            assert np.array_equal(state0.coeff_a, state1.coeff_a)
            assert np.array_equal(state0.coeff_c, state1.coeff_c)
            assert not np.any(state1.coeff_b)

    @pytest.mark.parametrize("eps, sector", [(1.0, "c"), (0.0, "a")])
    def test_empty_sector_is_exactly_zero_at_t0(self, eps, sector):
        # a t=0 residue of 1e-16 in the empty sector becomes 1e-10 under p^(2-q)
        gamma = photon_weights_gamma(
            GammaSuperstat(q=1.4, beta_star=3.3356918657181176), tail_tol=1e-6
        )
        assert gamma.n_max == 4147
        evolver = BlockEvolver(ModelParams.from_detuning(0.3, 2.0), AtomInit(eps), gamma)
        a, _, c = evolver.coefficients(0.0)
        assert not np.any({"a": a, "c": c}[sector])


class TestOracle:
    def test_spec_point_matches_oracle(self):
        # Delta=1, lam=2, eps=0.3, q=1.5 weights, t=0.7
        gs = GammaSuperstat(q=1.5, beta_star=2.0, omega=1.0)
        dist = photon_weights_gamma(gs, tail_tol=1e-4, hard_cap=10**5).truncated(40)
        params = ModelParams.from_detuning(1.0, 2.0)
        atom = AtomInit(0.3)
        state = BlockEvolver(params, atom, dist).state(0.7)
        ora = oracle_evolve(params, atom, dist, 0.7, n_cut=dist.n_max, warn_tol=1.0)
        assert np.max(np.abs(state.coeff_a - ora.coeff_a)) < 1e-10
        assert np.max(np.abs(state.coeff_c - ora.coeff_c)) < 1e-10
        assert np.max(np.abs(np.abs(state.coeff_b) - np.abs(ora.coeff_b))) < 1e-10
        p_e, p_g = reduced_atom(state)
        assert p_e == pytest.approx(ora.atom_excited, abs=1e-10)
        assert p_g == pytest.approx(ora.atom_ground, abs=1e-10)
        assert np.max(np.abs(reduced_field(state) - ora.field_weights)) < 1e-10

    @pytest.mark.parametrize(
        "delta, lam",
        [*itertools.product((0.7, -2.0, 3.0), (1.3, 0.4, 0.2)), (1.5, 0.0), (0.0, 0.0)],
    )
    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    def test_complex_coherence_matches_oracle(self, thermal_dist, delta, lam, eps):
        params = ModelParams.from_detuning(delta, lam)
        evolver = BlockEvolver(params, AtomInit(eps), thermal_dist)
        for t in (0.0, 0.37, 1.9, 7.3, 25.0):
            _, b, _ = evolver.coefficients(t)
            ora = oracle_evolve(params, AtomInit(eps), thermal_dist, t, n_cut=thermal_dist.n_max)
            assert np.max(np.abs(b - ora.coeff_b)) < 1e-12

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
            state = BlockEvolver(params, atom, thermal_dist).state(t)
            ora = oracle_evolve(params, atom, thermal_dist, t, n_cut=thermal_dist.n_max)
            assert np.max(np.abs(state.coeff_a - ora.coeff_a)) < 1e-10
            assert np.max(np.abs(state.coeff_c - ora.coeff_c)) < 1e-10
            p_e, p_g = reduced_atom(state)
            assert p_e == pytest.approx(ora.atom_excited, abs=1e-10)
            assert p_g == pytest.approx(ora.atom_ground, abs=1e-10)

    def test_cutoff_warning(self, thermal_dist):
        with pytest.warns(CutoffWarning):
            oracle_evolve(RESONANT, AtomInit(0.5), thermal_dist, 1.0, n_cut=3)

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
        state = BlockEvolver(params, AtomInit(eps), dist).state(t)
        p_e, p_g = reduced_atom(state)
        ref_e, ref_g, ref_field = _full_dense_sim(delta, lam, eps, dist.weights, dist.tail_mass, t)
        assert p_e == pytest.approx(ref_e, abs=1e-12)
        assert p_g == pytest.approx(ref_g, abs=1e-12)
        assert np.max(np.abs(reduced_field(state) - ref_field)) < 1e-12


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
    evolver = BlockEvolver(params, AtomInit(eps), dist)
    a, b, c = evolver.coefficients(t)
    # per-manifold conservation: the transfer a1 cos leaves A and enters C
    assert np.max(np.abs(a + c - evolver.block_weight)) < 1e-10
    total = evolver.uncoupled_weight + evolver.excited_top + float(np.sum(a + c)) + dist.tail_mass
    assert abs(total - 1.0) < 1e-10
    assert np.min(a) > -1e-12 and np.min(c) > -1e-12
    assert np.max(np.abs(b) ** 2 - a * c) < 1e-12
