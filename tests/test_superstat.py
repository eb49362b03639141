import math
import tracemalloc

import numpy as np
import pytest

import jcentropy.superstat as superstat
from jcentropy.ensemble import BetaEnsembleSpec, sample_betas
from jcentropy.specfun import AccuracyError, hurwitz_zeta_scaled
from jcentropy.superstat import (
    HARD_CAP,
    MIN_LEVELS,
    BracketError,
    GammaSuperstat,
    MultiLevelSuperstat,
    PhotonDistribution,
    calibrate_beta_star,
    mean_photon_q,
    photon_weights_gamma,
    photon_weights_gibbs,
    photon_weights_multilevel,
    physical_beta,
    _gamma_log_tail,
    _q_sums,
)
from oracle_utils import gamma_brute_sums

# Frozen from the brute-force oracle (see oracle_utils; 10^7-term sums with
# integral bracketing, all halfwidths < 5e-11), at q=1.4, beta_star*omega=1:
#   Tr rho^q                             = 0.5183609378798867
#   internal energy omega sum_n n p_n^q  = 0.5125517418375685
#   physical_beta                        = 0.3714471712607894
QTRACE_14_1 = 0.5183609378798867
ENERGY_14_1 = 0.5125517418375685
PHYSBETA_14_1 = 0.3714471712607894
# q=1.5, beta_star*omega=2 has (q-1) beta* omega = 1, so p_n = (1+n)^-2/zeta(2)
# and Tr rho^q = zeta(3)/zeta(2)^1.5.
QTRACE_15_2 = 0.5697735497023243


def q_partition(s):
    """Deformed partition function ``Tr exp_q(-beta_star H) = sum_n (1 + n/r)^(-s)``."""
    return hurwitz_zeta_scaled(s.s_index, s.r_offset)


def q_energy(s):
    """Internal energy ``omega sum_n n p_n^q``, composed as physical_beta composes it."""
    trace_q, nbar_q = _q_sums(s)
    return s.omega * nbar_q * trace_q


class TestGammaWeights:
    def test_boltzmann_limit(self):
        gs = GammaSuperstat(q=1.0 + 1e-9, beta_star=2.0, omega=1.0)
        dist = photon_weights_gamma(gs, tail_tol=1e-9)
        n = np.arange(dist.n_max + 1)
        expected = (1.0 - math.exp(-2.0)) * np.exp(-2.0 * n)
        assert np.max(np.abs(dist.weights - expected)) < 1e-6

    def test_inverse_square_case(self):
        gs = GammaSuperstat(q=1.5, beta_star=2.0, omega=1.0)
        dist = photon_weights_gamma(gs, tail_tol=1e-5, hard_cap=10**6)
        assert dist.weights[0] == pytest.approx(6.0 / math.pi**2, abs=1e-12)
        assert dist.weights[1] == pytest.approx(1.5 / math.pi**2, abs=1e-12)

    def test_normalization_with_tail(self):
        for q, bsw in ((1.2, 0.5), (1.5, 2.0), (1.9, 1.0)):
            gs = GammaSuperstat(q=q, beta_star=bsw, omega=1.0)
            dist = photon_weights_gamma(gs, tail_tol=1e-4, hard_cap=10**5)
            assert abs(float(np.sum(dist.weights)) + dist.tail_mass - 1.0) < 1e-12

    def test_tail_tolerance_honored(self):
        gs = GammaSuperstat(q=1.3, beta_star=1.0, omega=1.0)
        dist = photon_weights_gamma(gs, tail_tol=1e-6)
        assert dist.tail_mass <= 1e-6
        assert not dist.tail_limited
        # minimality: one level less would violate the tolerance
        shorter = dist.truncated(dist.n_max - 1)
        assert shorter.tail_mass > 1e-6

    def test_hard_cap_sets_tail_limited_flag(self):
        gs = GammaSuperstat(q=1.9, beta_star=1.0, omega=1.0)
        dist = photon_weights_gamma(gs, tail_tol=1e-6, hard_cap=1000)
        assert dist.tail_limited
        assert dist.n_max == 1000
        assert abs(float(np.sum(dist.weights)) + dist.tail_mass - 1.0) < 1e-12


class TestMultiLevelWeights:
    def test_degenerate_betas_match_gibbs(self):
        ml = MultiLevelSuperstat(betas=(1.3, 1.3, 1.3), omega=1.0)
        dist = photon_weights_multilevel(ml, tail_tol=1e-10)
        ref = photon_weights_gibbs(1.3, 1.0, tail_tol=1e-10)
        assert dist.n_max == ref.n_max
        assert np.max(np.abs(dist.weights - ref.weights)) < 1e-12
        assert abs(dist.tail_mass - ref.tail_mass) < 1e-12

    def test_two_level_fixture(self):
        # direct evaluation of the two geometric series
        ml = MultiLevelSuperstat(betas=(1.0, 2.0), omega=1.0)
        dist = photon_weights_multilevel(ml, tail_tol=1e-10)
        z = 1.0 / (1.0 - math.exp(-1.0)) + 1.0 / (1.0 - math.exp(-2.0))
        assert z == pytest.approx(2.7384943496189927, abs=1e-12)
        assert dist.weights[0] == pytest.approx(2.0 / z, abs=1e-12)
        assert dist.weights[1] == pytest.approx((math.exp(-1.0) + math.exp(-2.0)) / z, abs=1e-12)

    def test_normalization(self):
        ml = MultiLevelSuperstat(betas=(0.5, 1.0, 3.0, 0.8), omega=2.0)
        dist = photon_weights_multilevel(ml, tail_tol=1e-9)
        assert abs(float(np.sum(dist.weights)) + dist.tail_mass - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiLevelSuperstat(betas=(), omega=1.0)
        with pytest.raises(ValueError):
            MultiLevelSuperstat(betas=(1.0, -2.0), omega=1.0)
        for beta in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"finite and positive, got \\[{beta}\\]"):
                MultiLevelSuperstat(betas=(1.0, beta), omega=1.0)


def _gibbs_case(beta):
    def build(tol, cap):
        return photon_weights_gibbs(beta, tail_tol=tol, hard_cap=cap)

    def tail_exceeds(n, tol):
        return math.exp(-beta) ** (n + 1) > tol

    return pytest.param(build, tail_exceeds, id=f"gibbs-{beta:.3g}")


def _multilevel_case(betas, label):
    model = MultiLevelSuperstat(betas=betas, omega=1.0)
    x = np.exp(-np.asarray(betas))
    z_n = float(np.sum(1.0 / (1.0 - x)))

    def build(tol, cap):
        return photon_weights_multilevel(model, tail_tol=tol, hard_cap=cap)

    def tail_exceeds(n, tol):
        return float(np.sum(x ** (n + 1) / (1.0 - x))) / z_n > tol

    return pytest.param(build, tail_exceeds, id=f"multilevel-{label}")


def _gamma_case(q, beta_star):
    model = GammaSuperstat(q=q, beta_star=beta_star, omega=1.0)

    def build(tol, cap):
        return photon_weights_gamma(model, tail_tol=tol, hard_cap=cap)

    log_norm = np.log(hurwitz_zeta_scaled(model.s_index, model.r_offset))

    def tail_exceeds(n, tol):
        return _gamma_log_tail(model.s_index, model.r_offset, n, log_norm) > math.log(tol)

    return pytest.param(build, tail_exceeds, id=f"gamma-q{q}-bs{beta_star:.3g}")


TRUNCATION_CASES = [
    *(_gibbs_case(beta) for beta in (1e-3, 0.1, math.log(11.0), 5.0, 40.0)),
    _multilevel_case((0.5, 1.0, 3.0), "spread"),
    _multilevel_case((1e-3, 2.0, 2.0), "one-hot"),
    _multilevel_case((math.log(11.0),) * 4, "degenerate"),
    _multilevel_case(tuple(np.random.default_rng(3).uniform(0.01, 4.0, 30)), "random30"),
    _gamma_case(1.2, 1.0),
    _gamma_case(1.6, 3.0),
    _gamma_case(1.9, 1.0),
]


@pytest.mark.parametrize("hard_cap", [1, 3, 1000, 10**5])  # 1e5: the dynamics commands' cap
@pytest.mark.parametrize("build,tail_exceeds", TRUNCATION_CASES)
def test_truncation_contract(build, tail_exceeds, hard_cap):
    # a cap outside [MIN_LEVELS - 1, HARD_CAP] is refused, never bent
    for refused in (MIN_LEVELS - 2, -hard_cap, HARD_CAP + hard_cap):
        with pytest.raises(ValueError, match="hard_cap must lie in"):
            build(1e-6, refused)
    for tol in (1e-2, 1e-6, 1e-10):
        dist = build(tol, hard_cap)
        assert MIN_LEVELS - 1 <= dist.n_max <= hard_cap
        if not dist.tail_limited:
            assert dist.tail_mass <= tol
        if dist.n_max > MIN_LEVELS - 1:
            assert tail_exceeds(dist.n_max - 1, tol)  # minimal
        assert dist.tail_limited == tail_exceeds(hard_cap, tol)
        if dist.tail_limited:
            assert dist.n_max == hard_cap
        assert abs(math.fsum(dist.weights) + dist.tail_mass - 1.0) <= 1e-12


# n_max must pass one block of 2**16 // count rows: a hot first beta does it
# for few betas, the 0.05 floor of the draws (n_max ~ 400) for a thousand
@pytest.mark.parametrize("count,first", [(1, 2e-4), (7, 1e-3), (1000, 0.05), (1001, 0.05)])
def test_multilevel_blocked_weights_equal_dense_sum(count, first):
    betas = np.random.default_rng(count).uniform(0.05, 3.0, count)
    betas[0] = first
    dist = photon_weights_multilevel(MultiLevelSuperstat(betas=tuple(betas)), tail_tol=1e-8)
    assert dist.n_max + 1 > 2**16 // count
    x = np.exp(-betas)
    n = np.arange(dist.n_max + 1, dtype=np.float64)
    dense = np.sum(x[None, :] ** n[:, None], axis=1) / float(np.sum(1.0 / (1.0 - x)))
    assert dist.weights.tobytes() == dense.tobytes()


@pytest.mark.parametrize("betas", [
    sample_betas(BetaEnsembleSpec(shape="weibull", count=1000, seed=1)).betas,
    tuple(np.linspace(0.05, 50.0, 300)),
    (0.5, 800.0, 2000.0),  # exp(-beta) is 0.0 for two of them, and 0.0**0 is 1
], ids=["weibull-1000", "beta-to-50", "zero-ratio"])
def test_multilevel_weights_skip_only_powers_that_underflow(betas):
    dist = photon_weights_multilevel(MultiLevelSuperstat(betas=betas))
    x = np.exp(-np.asarray(betas))
    n = np.arange(dist.n_max + 1, dtype=np.float64)
    powers = x[None, :] ** n[:, None]
    assert np.count_nonzero(powers == 0.0) > powers.size // 10
    dense = np.sum(powers, axis=1) / float(np.sum(1.0 / (1.0 - x)))
    assert dist.weights.tobytes() == dense.tobytes()


@pytest.mark.parametrize("build", [
    lambda: photon_weights_gibbs(1e-17),
    lambda: photon_weights_multilevel(MultiLevelSuperstat(betas=(2.0, 1e-17))),
], ids=["gibbs", "multilevel"])
def test_unresolvable_geometric_ratio_is_refused(build):
    with pytest.raises(ValueError, match=r"beta\*omega = 1e-17 is too small to resolve"):
        build()


class TestPhotonDistribution:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            PhotonDistribution(np.array([0.5, -0.1, 0.6]), 0.0)

    @pytest.mark.parametrize("weights, tail", [([math.nan, 0.5], 0.5), ([0.5, 0.5], math.nan)],
                             ids=["nan-weight", "nan-tail"])
    def test_rejects_nan(self, weights, tail):
        with pytest.raises(ValueError, match="NaN"):
            PhotonDistribution(np.array(weights), tail)

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            PhotonDistribution(np.array([0.5, 0.4]), 0.2)

    def test_clean_table_is_not_copied(self):
        weights = np.full(10**6, 1e-6)
        tracemalloc.start()
        try:
            dist = PhotonDistribution(weights, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < weights.nbytes // 2
        assert dist.weights.tobytes() == weights.tobytes()

    def test_tiny_negative_weights_become_zero(self):
        weights = np.array([0.5, -1e-13, 0.5, -0.0])
        dist = PhotonDistribution(weights, 1e-13)
        assert dist.weights.tolist() == [0.5, 0.0, 0.5, -0.0]
        assert math.copysign(1.0, dist.weights[1]) == 1.0

    def test_truncated_moves_mass_to_tail(self):
        dist = photon_weights_gibbs(1.0, tail_tol=1e-10)
        short = dist.truncated(2)
        assert short.n_max == 2
        assert abs(float(np.sum(short.weights)) + short.tail_mass - 1.0) < 1e-12
        assert short.tail_mass > dist.tail_mass


class TestPartitionAndTrace:
    def test_partition_inverse_square_case(self):
        gs = GammaSuperstat(q=1.5, beta_star=2.0, omega=1.0)
        assert q_partition(gs) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)

    def test_weight_partition_consistency(self):
        # p_0 * Z = 1 in the (q-1) beta* omega scaled form
        gs = GammaSuperstat(q=1.4, beta_star=1.7, omega=1.0)
        dist = photon_weights_gamma(gs, tail_tol=1e-4, hard_cap=10**5)
        assert dist.weights[0] * q_partition(gs) == pytest.approx(1.0, abs=1e-12)

    def test_trace_near_gibbs_limit(self):
        gs = GammaSuperstat(q=1.0 + 1e-9, beta_star=2.0, omega=1.0)
        assert _q_sums(gs)[0] == pytest.approx(1.0, abs=1e-6)

    def test_trace_frozen_fixture(self):
        gs = GammaSuperstat(q=1.5, beta_star=2.0, omega=1.0)
        assert _q_sums(gs)[0] == pytest.approx(QTRACE_15_2, abs=1e-10)

    def test_trace_against_brute_force(self):
        gs = GammaSuperstat(q=1.4, beta_star=1.0, omega=1.0)
        trace_brute, _, _ = gamma_brute_sums(1.4, 1.0, 1.0, n_terms=10**6)
        assert _q_sums(gs)[0] == pytest.approx(trace_brute, rel=1e-8)
        assert _q_sums(gs)[0] == pytest.approx(QTRACE_14_1, abs=1e-10)

    def test_trace_positive(self):
        for q in (1.1, 1.5, 1.9):
            for bsw in (0.3, 1.0, 5.0):
                assert _q_sums(GammaSuperstat(q=q, beta_star=bsw, omega=1.0))[0] > 0.0


class TestInternalEnergy:
    def test_near_gibbs_limit(self):
        gs = GammaSuperstat(q=1.0 + 1e-9, beta_star=1.0, omega=1.0)
        assert q_energy(gs) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-6)

    def test_frozen_fixture_and_brute_force(self):
        gs = GammaSuperstat(q=1.4, beta_star=1.0, omega=1.0)
        _, energy_brute, _ = gamma_brute_sums(1.4, 1.0, 1.0, n_terms=10**6)
        assert q_energy(gs) == pytest.approx(energy_brute, rel=1e-8)
        assert q_energy(gs) == pytest.approx(ENERGY_14_1, abs=1e-10)

    @pytest.mark.parametrize("q,bsw", [(1.2, 0.7), (1.5, 1.3), (1.8, 2.2)])
    def test_matches_q_log_derivative_of_partition(self, q, bsw):
        # U = -d/d(beta*) ln_q Z, centered finite difference
        h = 1e-5 * bsw
        zp = q_partition(GammaSuperstat(q=q, beta_star=bsw + h, omega=1.0))
        zm = q_partition(GammaSuperstat(q=q, beta_star=bsw - h, omega=1.0))

        def lnq(z):
            return (z ** (1.0 - q) - 1.0) / (1.0 - q)

        fd = -(lnq(zp) - lnq(zm)) / (2.0 * h)
        assert q_energy(GammaSuperstat(q=q, beta_star=bsw, omega=1.0)) == pytest.approx(
            fd, rel=1e-6
        )


class TestPhysicalBeta:
    def test_frozen_fixture_and_brute_force(self):
        gs = GammaSuperstat(q=1.4, beta_star=1.0, omega=1.0)
        trace_brute, energy_brute, _ = gamma_brute_sums(1.4, 1.0, 1.0, n_terms=10**6)
        beta_brute = 1.0 * trace_brute / (1.0 - (1.0 - 1.4) * 1.0 * energy_brute / trace_brute)
        assert physical_beta(gs) == pytest.approx(beta_brute, rel=1e-8)
        assert physical_beta(gs) == pytest.approx(PHYSBETA_14_1, abs=1e-10)

    def test_temperature_never_below_quasi_temperature(self):
        # T = 1/beta >= T* = 1/beta* for the deformed state
        for t_star in np.linspace(0.1, 10.0, 25):
            beta_star = 1.0 / t_star
            beta = physical_beta(GammaSuperstat(q=1.6, beta_star=beta_star, omega=1.0))
            assert 1.0 / beta >= t_star

    def test_continuity_towards_gibbs(self):
        beta_star = 1.3
        beta = physical_beta(GammaSuperstat(q=1.0 + 1e-6, beta_star=beta_star, omega=1.0))
        assert abs(beta - beta_star) <= 1e-4 * beta_star


class TestSharedHurwitzSums:
    """One pair of Hurwitz sums serves Tr rho^q, the q-mean photon number and beta."""

    @pytest.mark.parametrize("fn", [_q_sums, mean_photon_q, physical_beta])
    def test_two_zeta_calls(self, monkeypatch, fn):
        made = []

        def counting(s, x):
            made.append((s, x))
            return hurwitz_zeta_scaled(s, x)

        monkeypatch.setattr(superstat, "hurwitz_zeta_scaled", counting)
        fn(GammaSuperstat(q=1.4, beta_star=1.0))
        assert len(made) == 2

    @pytest.mark.parametrize("q, hard_cap", [(1.2, 10**5), (1.9, 1000)])
    def test_gamma_weights_sum_their_normalization_once(self, monkeypatch, q, hard_cap):
        made = []

        def counting(s, x):
            made.append(x)
            return hurwitz_zeta_scaled(s, x)

        monkeypatch.setattr(superstat, "hurwitz_zeta_scaled", counting)
        model = GammaSuperstat(q=q, beta_star=math.log(11.0))
        dist = photon_weights_gamma(model, tail_tol=1e-8, hard_cap=hard_cap)
        assert made.count(model.r_offset) == 1
        # one tail sum per bisection step, and one for the tail mass kept
        assert len(made) == len(set(made)) + 1 and dist.n_max + 1 + model.r_offset in made

    def test_bits_equal_the_separate_sum_composition(self):
        def composed(s):
            sx, r = s.s_index, s.r_offset
            trace_q = hurwitz_zeta_scaled(s.q * sx, r) / hurwitz_zeta_scaled(sx, r) ** s.q
            nbar_q = r * (hurwitz_zeta_scaled(sx, r) / hurwitz_zeta_scaled(s.q * sx, r) - 1.0)
            energy = s.omega * nbar_q * trace_q
            beta = s.beta_star * trace_q / (1.0 - (1.0 - s.q) * s.beta_star * energy / trace_q)
            return trace_q, nbar_q, nbar_q, beta

        for q in np.linspace(1.01, 1.99, 41):
            for beta_star in np.geomspace(1e-3, 1e3, 50):
                s = GammaSuperstat(q=float(q), beta_star=float(beta_star))
                got = (*_q_sums(s), mean_photon_q(s), physical_beta(s))
                assert np.array(got).tobytes() == np.array(composed(s)).tobytes()


class TestCalibration:
    def test_round_trip_at_reference_point(self):
        beta = math.log(11.0)
        beta_star = calibrate_beta_star(1.2, beta)
        assert physical_beta(GammaSuperstat(q=1.2, beta_star=beta_star, omega=1.0)) == pytest.approx(
            beta, rel=1e-10
        )

    @pytest.mark.parametrize("q", [1.15, 1.5, 1.85])
    @pytest.mark.parametrize("beta", [0.7, 2.4])
    def test_round_trip_grid(self, q, beta):
        beta_star = calibrate_beta_star(q, beta)
        assert physical_beta(GammaSuperstat(q=q, beta_star=beta_star, omega=1.0)) == pytest.approx(
            beta, rel=1e-10
        )

    def test_inverse_round_trip(self):
        # calibrate(physical_beta(beta_star)) == beta_star
        gs = GammaSuperstat(q=1.45, beta_star=0.8, omega=1.0)
        beta = physical_beta(gs)
        assert calibrate_beta_star(1.45, beta) == pytest.approx(0.8, rel=1e-10)

    def test_unattainable_target_raises(self):
        with pytest.raises(BracketError):
            calibrate_beta_star(1.5, 1e9)

    @pytest.mark.parametrize("k", [0, 30, 60])
    def test_exact_zero_at_a_scan_point_returns_that_point(self, monkeypatch, k):
        # residual sign(beta_star - b_k): exactly 0 at scan point k, a sign change there
        b_k = math.exp(np.linspace(-3.0, 3.0, 61)[k] * math.log(10.0))
        monkeypatch.setattr(superstat, "physical_beta",
                            lambda s: 1.0 + (s.beta_star > b_k) - (s.beta_star < b_k))
        assert calibrate_beta_star(1.5, 1.0) == b_k

    @pytest.mark.parametrize("q", [1.2, 1.6])
    def test_scan_stops_at_its_first_bracket(self, monkeypatch, q):
        seen = []
        real = superstat.physical_beta
        monkeypatch.setattr(superstat, "physical_beta",
                            lambda s: seen.append(s.beta_star) or real(s))
        beta_star = calibrate_beta_star(q, math.log(11.0))
        grid = [math.exp(g) for g in np.linspace(-3.0, 3.0, 61) * math.log(10.0)]
        upper = grid.index(next(b for b in grid if b > beta_star))
        assert seen[: upper + 1] == grid[: upper + 1]  # the scan, in order
        assert max(seen) == grid[upper]  # and nothing past its first bracket

    def test_root_solve_has_the_bits_of_scipys_brentq(self, monkeypatch):
        from scipy.optimize import brentq

        grid = [(float(q), float(beta)) for q in np.linspace(1.02, 1.98, 25)
                for beta in np.geomspace(0.01, 50.0, 12)]
        ours = [calibrate_beta_star(q, beta) for q, beta in grid]
        monkeypatch.setattr(superstat, "_brentq", lambda f, xa, xb, fa, fb, xtol, rtol:
                            brentq(f, xa, xb, xtol=xtol, rtol=rtol))
        theirs = [calibrate_beta_star(q, beta) for q, beta in grid]
        assert np.array(ours).tobytes() == np.array(theirs).tobytes()

    @pytest.mark.parametrize("f, xa, xb, root", [
        (lambda x: x - 1.0, 1.0, 2.0, 1.0),
        (lambda x: x - 2.0, 1.0, 2.0, 2.0),
        (lambda x: 2.0 - x, 1.0, 2.0, 2.0),
    ])
    def test_root_solve_returns_an_endpoint_of_zero_residual(self, f, xa, xb, root):
        def counted(x):
            raise AssertionError(f"evaluated at {x}")

        assert superstat._brentq(counted, xa, xb, f(xa), f(xb), 1e-14, 8.9e-16) == root

    def test_root_solve_refuses_a_nan_residual_and_a_bracket_of_one_sign(self):
        with pytest.raises(ValueError, match="NaN"):
            superstat._brentq(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0, 1e-14, 8.9e-16)
        with pytest.raises(ValueError, match="different signs"):
            superstat._brentq(lambda x: x, 1.0, 2.0, 1.0, 2.0, 1e-14, 8.9e-16)

    def test_root_solve_that_runs_out_of_steps_is_an_accuracy_error(self, monkeypatch):
        monkeypatch.setattr(superstat, "_ROOT_ITERATIONS", 1)
        with pytest.raises(AccuracyError, match="did not converge in 1 steps"):
            calibrate_beta_star(1.4, 2.0)

    def test_scales_with_omega(self):
        beta = math.log(11.0) / 3.0
        beta_star = calibrate_beta_star(1.4, beta, omega=3.0)
        got = physical_beta(GammaSuperstat(q=1.4, beta_star=beta_star, omega=3.0))
        assert got == pytest.approx(beta, rel=1e-10)


class TestMeanPhoton:
    def test_near_gibbs_limit(self):
        gs = GammaSuperstat(q=1.0 + 1e-9, beta_star=math.log(11.0), omega=1.0)
        assert mean_photon_q(gs) == pytest.approx(0.1, abs=1e-6)

    @pytest.mark.parametrize("q", [1.2, 1.5, 1.9])
    @pytest.mark.parametrize("bsw", [0.5, 1.0, 3.0])
    def test_matches_brute_force_q_weighted_mean(self, q, bsw):
        # 4e6 terms keep the oracle's bracketing halfwidth below the tolerance
        # even at the slowest-converging grid point (q=1.9, beta*omega=0.5)
        gs = GammaSuperstat(q=q, beta_star=bsw, omega=1.0)
        _, _, nbar_brute = gamma_brute_sums(q, bsw, 1.0, n_terms=4 * 10**6)
        assert mean_photon_q(gs) == pytest.approx(nbar_brute, rel=1e-8)
