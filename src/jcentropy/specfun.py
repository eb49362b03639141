"""Hurwitz-zeta-type sums.

The photon statistics and the temperature calibration of the gamma
model reduce to sums of the form ``sum_n (n+x)^(-s)``.  The slowly
converging sums are closed with an Euler-Maclaurin tail, so a 1e-10
absolute tolerance costs a few dozen explicit terms instead of the ~1e10
a plain truncation would need for exponents close to 1.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ABS_TOL",
    "MAX_TERMS",
    "AccuracyError",
    "hurwitz_zeta",
    "hurwitz_zeta_scaled",
]

ABS_TOL = 1e-10  # absolute accuracy of every Hurwitz sum
MAX_TERMS = 10**7  # explicit terms a sum may take before it raises AccuracyError


class AccuracyError(ArithmeticError):
    """Raised when a series cannot reach the requested tolerance."""


# Bernoulli-number factors B_2k/(2k)! for the Euler-Maclaurin tail.
_B2_OVER_2F = 1.0 / 12.0  # B_2/2!
_B4_OVER_4F = -1.0 / 720.0  # B_4/4!
_B6_OVER_6F = 1.0 / 30240.0  # B_6/6!
_B8_OVER_8F = -1.0 / 1209600.0  # B_8/8! (first omitted term -> error bound)


def hurwitz_zeta_scaled(s: float, x: float) -> float:
    """Scaled Hurwitz sum ``sum_{n>=0} (1 + n/x)^(-s)`` = x^s * zeta_H(s, x).

    The scaled form stays representable when s is huge (the deformed
    pipelines push s ~ 1/(q-1) towards 1e9 in the near-Gibbs limit,
    where the unscaled zeta over/underflows).  The head doubles until the
    Euler-Maclaurin error bound is within ``ABS_TOL``; past ``MAX_TERMS``
    head terms it raises :class:`AccuracyError`.
    """
    if not s > 1.0:
        raise ValueError(f"series converges only for s > 1, got s={s}")
    if not x > 0.0:
        raise ValueError(f"requires x > 0, got x={x}")
    head = 0.0
    start = 0
    m = 32
    while True:
        n = np.arange(start, m, dtype=np.float64)
        with np.errstate(over="ignore"):  # n/x -> inf means the term is exactly 0
            head += float(np.sum(np.exp(-s * np.log1p(n / x))))
        a = m + x
        scale = np.exp(-s * np.log1p(m / x))  # = x^s * a^(-s)
        c1 = s
        c3 = s * (s + 1.0) * (s + 2.0)
        c5 = c3 * (s + 3.0) * (s + 4.0)
        c7 = c5 * (s + 5.0) * (s + 6.0)
        tail = scale * (
            a / (s - 1.0)
            + 0.5
            + _B2_OVER_2F * c1 / a
            + _B4_OVER_4F * c3 / a**3
            + _B6_OVER_6F * c5 / a**5
        )
        err = scale * abs(_B8_OVER_8F) * c7 / a**7
        if err <= ABS_TOL:
            return float(head + tail)
        start = m
        m *= 2
        if m > MAX_TERMS:
            raise AccuracyError(
                f"hurwitz sum (s={s}, x={x}) did not reach abs_tol={ABS_TOL} "
                f"within {MAX_TERMS} terms"
            )


def hurwitz_zeta(s: float, x: float) -> float:
    """Hurwitz zeta ``zeta_H(s, x) = sum_{n>=0} (n + x)^(-s)`` for s > 1, x > 0.

    Overflows to inf for x small enough that x^(-s) leaves the double
    range; the scaled form stays finite there.
    """
    scaled = hurwitz_zeta_scaled(s, x)
    with np.errstate(over="ignore"):
        return float(np.exp(-float(s) * np.log(float(x))) * scaled)

