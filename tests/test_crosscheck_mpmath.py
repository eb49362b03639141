"""Third-route cross-checks against mpmath's arbitrary-precision zeta."""

import math

import mpmath as mp
import numpy as np
import pytest

from jcentropy.specfun import hurwitz_zeta
from jcentropy.superstat import GammaSuperstat, _q_sums, mean_photon_q, physical_beta

mp.mp.dps = 30


def test_hurwitz_zeta_random_grid():
    rng = np.random.default_rng(13)
    for _ in range(40):
        s = float(rng.uniform(1.001, 40.0))
        x = float(rng.uniform(0.01, 40.0))
        ref = float(mp.zeta(mp.mpf(s), mp.mpf(x)))
        assert hurwitz_zeta(s, x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def _mp_qtrace(q, bsw):
    s = 1.0 / (q - 1.0)
    r = 1.0 / ((q - 1.0) * bsw)
    return mp.zeta(q * s, r) / mp.zeta(s, r) ** q


def test_gamma_closed_forms_against_mpmath():
    for q in (1.15, 1.5, 1.85):
        for bsw in (0.4, 1.0, 2.8):
            gs = GammaSuperstat(q=q, beta_star=bsw)
            s, r = gs.s_index, gs.r_offset
            trace_ref = float(_mp_qtrace(q, bsw))
            nbar_ref = float((mp.zeta(s, r) - r * mp.zeta(q * s, r)) / mp.zeta(q * s, r))
            assert _q_sums(gs)[0] == pytest.approx(trace_ref, rel=1e-12)
            assert mean_photon_q(gs) == pytest.approx(nbar_ref, rel=1e-10)


def test_physical_beta_against_mpmath():
    beta = math.log(11.0)
    for q, expected_beta_star in ((1.2, 2.752627), (1.4, 3.335692), (1.6, 4.403966)):
        gs = GammaSuperstat(q=q, beta_star=expected_beta_star)
        trace = _mp_qtrace(q, expected_beta_star)
        s, r = gs.s_index, gs.r_offset
        nbar = (mp.zeta(s, r) - r * mp.zeta(q * s, r)) / mp.zeta(q * s, r)
        energy = nbar * trace
        ref = expected_beta_star * trace / (1 + (q - 1) * expected_beta_star * energy / trace)
        assert physical_beta(gs) == pytest.approx(float(ref), rel=1e-12)
        assert float(ref) == pytest.approx(beta, abs=1e-5)
