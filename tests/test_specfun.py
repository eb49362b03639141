import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcentropy import specfun
from jcentropy.specfun import (
    AccuracyError,
    hurwitz_zeta,
    hurwitz_zeta_scaled,
)
from oracle_utils import q_log, zeta_brute

ZETA3 = 1.2020569031595943

# Frozen from the brute-force oracle (10^7 terms + integral bracketing):
#   zeta_brute(1.667, 3.2) = 0.7682197976473739 +- 1.1e-12
#   zeta_brute(1.25, 0.8)  = 5.041734815793956  +- 8.9e-10
ZETA_1667_32 = 0.7682197976473740
PHI_125_08 = 5.0417348157939467


class TestQLog:
    def test_log_of_one(self):
        assert q_log(1.0, 1.7) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            q_log(0.0, 1.5)
        with pytest.raises(ValueError):
            q_log(-1.0, 1.5)
        with pytest.raises(ValueError, match="q != 1"):
            q_log(2.0, 1.0)


class TestHurwitzZeta:
    def test_riemann_zeta2(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)

    def test_half_integer_identity(self):
        # zeta_H(2, 1/2) = 4 sum 1/(2n+1)^2 = pi^2/2
        assert hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi**2 / 2.0, abs=1e-10)

    def test_frozen_fixture(self):
        assert hurwitz_zeta(1.667, 3.2) == pytest.approx(ZETA_1667_32, abs=1e-10)

    def test_against_live_brute_force(self):
        value, halfwidth = zeta_brute(1.667, 3.2, n_terms=10**6)
        assert abs(hurwitz_zeta(1.667, 3.2) - value) <= halfwidth + 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 2.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)

    def test_term_bound_raises_accuracy_error(self, monkeypatch):
        # an unreachable tolerance runs the head into the MAX_TERMS bound
        monkeypatch.setattr(specfun, "ABS_TOL", 0.0)
        monkeypatch.setattr(specfun, "MAX_TERMS", 10**4)
        with pytest.raises(AccuracyError, match="within 10000 terms"):
            hurwitz_zeta(1.2, 1.0)

    def test_scaled_form_in_near_gibbs_regime(self):
        # s = 1/(q-1) ~ 1e6: scaled sum tends to the geometric series limit
        s = 1.0e6
        x = s / 2.0
        expected = 1.0 / (1.0 - math.exp(-2.0))
        assert hurwitz_zeta_scaled(s, x) == pytest.approx(expected, rel=1e-5)


class TestLerchPhiUnit:
    """The Hurwitz-Lerch transcendent at unit argument, Phi(1, s, r), is zeta_H(s, r)."""

    def test_reduces_to_zeta2(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)

    def test_shift_recurrence(self):
        assert hurwitz_zeta(3.0, 2.0) == pytest.approx(ZETA3 - 1.0, abs=1e-10)

    def test_frozen_fixture(self):
        assert hurwitz_zeta(1.25, 0.8) == pytest.approx(PHI_125_08, abs=2e-10)

    def test_against_live_brute_force(self):
        value, halfwidth = zeta_brute(1.25, 0.8, n_terms=10**7)
        assert abs(hurwitz_zeta(1.25, 0.8) - value) <= halfwidth + 2e-10


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(min_value=1.0, max_value=4.0, exclude_min=True),
    x=st.floats(min_value=0.05, max_value=10.0),
)
@example(s=4.0, x=0.05078125)
def test_zeta_shift_recurrence(s, x):
    lhs = hurwitz_zeta(s, x + 1.0)
    rhs = hurwitz_zeta(s, x) - x**-s
    # subtracting x^-s cancels up to x^-s of magnitude, which costs a few
    # ulps of x^-s no matter how the zeta itself is computed
    tol = 1e-10 * max(1.0, abs(rhs)) + 4e-15 * x**-s
    assert lhs == pytest.approx(rhs, abs=tol)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(min_value=1.05, max_value=6.0),
    x=st.floats(min_value=0.05, max_value=20.0),
    dx=st.floats(min_value=0.01, max_value=5.0),
)
def test_zeta_strictly_decreasing_in_x(s, x, dx):
    assert hurwitz_zeta(s, x + dx) < hurwitz_zeta(s, x)
