"""Initial cavity states with fluctuating temperature.

Two fluctuation models are supported for the diagonal thermal weights
``p_n`` of the cavity mode, plus the plain Gibbs state they both limit
to:

* a gamma-distributed inverse temperature, which closes to q-deformed
  (Tsallis-type) statistics with a power-law photon-number tail, and
* a finite mixture of N discrete inverse temperatures.

In the gamma model the state is parameterized by a quasi-temperature
``beta_star``; the thermodynamically meaningful inverse temperature
``beta`` follows from the Legendre-structure-preserving map implemented
by :func:`physical_beta`, and :func:`calibrate_beta_star` inverts that
map numerically.

Units: hbar = 1 and the oscillator energy zero is the vacuum, so the
mode Hamiltonian spectrum is ``E_n = n * omega``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import AccuracyError, hurwitz_zeta_scaled

__all__ = [
    "GammaSuperstat",
    "MultiLevelSuperstat",
    "PhotonDistribution",
    "BracketError",
    "photon_weights_gamma",
    "photon_weights_multilevel",
    "photon_weights_gibbs",
    "physical_beta",
    "calibrate_beta_star",
    "mean_photon_q",
]

HARD_CAP = 10**7  # largest photon index materialized in a weight table
MIN_LEVELS = 2  # keep at least {|0>, |1>} so the vacuum Rabi manifold exists
# a log below which exp underflows to +0.0 (the least subnormal is exp(-744.44))
UNDERFLOW_LOG = -746.0
# largest Hurwitz offset r: the Euler-Maclaurin tail of a sum takes (n + r)^7
MAX_OFFSET = 1e44


class BracketError(ValueError):
    """No sign change found while bracketing a root."""


def _check_omega(omega: float) -> None:
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be finite and positive, got {omega}")


@dataclass(frozen=True)
class GammaSuperstat:
    """Gamma-fluctuation model: deformation q, quasi-temperature, mode frequency."""

    q: float
    beta_star: float
    omega: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.q < 2.0:
            raise ValueError(f"gamma model requires 1 < q < 2, got q={self.q}")
        if not self.beta_star > 0:
            raise ValueError(f"beta_star must be positive, got {self.beta_star}")
        _check_omega(self.omega)
        # the Hurwitz offset r_offset = 1/scale must lie in (0, MAX_OFFSET]
        scale = (self.q - 1.0) * self.beta_star * self.omega
        if not 1.0 / MAX_OFFSET <= scale < math.inf:
            raise ValueError(f"beta_star={self.beta_star} puts the Hurwitz offset "
                             f"1/((q-1) beta_star omega) out of (0, {MAX_OFFSET:g}]")

    @property
    def s_index(self) -> float:
        """Power-law exponent 1/(q-1) of the photon-number weights."""
        return 1.0 / (self.q - 1.0)

    @property
    def r_offset(self) -> float:
        """Hurwitz offset 1/((q-1) beta_star omega)."""
        return 1.0 / ((self.q - 1.0) * self.beta_star * self.omega)


@dataclass(frozen=True)
class MultiLevelSuperstat:
    """Discrete mixture of inverse temperatures beta_k at one mode frequency."""

    betas: tuple[float, ...]
    omega: float = 1.0

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        if len(betas) < 1:
            raise ValueError("at least one inverse temperature is required")
        bad = [b for b in betas if not 0 < b < math.inf]
        if bad:
            raise ValueError(f"all inverse temperatures must be finite and positive, got {bad[:3]}")
        _check_omega(self.omega)
        object.__setattr__(self, "betas", betas)


@dataclass(frozen=True)
class PhotonDistribution:
    """Truncated diagonal cavity weights with exact tail accounting.

    ``weights[n]`` is the probability of Fock level n for n <= n_max;
    ``tail_mass`` is the exact probability of all higher levels, so the
    pair always sums to one.  ``tail_limited`` marks distributions whose
    truncation was forced by the hard cap rather than by the requested
    tail tolerance.  A float64 table is kept, not copied; only a table
    with entries in [-1e-12, 0) is copied, with those entries set to 0.
    """

    weights: np.ndarray
    tail_mass: float
    tail_limited: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        # written so that NaN fails every check
        lowest = w.min()
        if not lowest >= -1e-12:
            raise ValueError(f"negative or NaN photon weight {lowest}")
        if lowest < 0.0:
            w = np.where(w < 0.0, 0.0, w)
        object.__setattr__(self, "weights", w)
        if not self.tail_mass >= -1e-12:
            raise ValueError(f"negative or NaN tail mass {self.tail_mass}")
        object.__setattr__(self, "tail_mass", max(float(self.tail_mass), 0.0))
        total = float(np.sum(w)) + self.tail_mass
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights + tail_mass = {total!r}, expected 1 within 1e-12")

    @property
    def n_max(self) -> int:
        return self.weights.size - 1

    def truncated(self, n_max: int) -> "PhotonDistribution":
        """Shorter truncation of the same state; dropped head mass moves to the tail."""
        if n_max >= self.n_max:
            return self
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        dropped = float(np.sum(self.weights[n_max + 1 :]))
        return PhotonDistribution(
            weights=self.weights[: n_max + 1].copy(),
            tail_mass=self.tail_mass + dropped,
            tail_limited=self.tail_limited,
        )


def _truncation(tail_within_tol, tail_tol: float, hard_cap: int) -> tuple[int, bool]:
    """The one truncation rule of every photon source: ``(n_max, tail_limited)``.

    ``tail_within_tol(n)`` tells whether the exact tail mass beyond level n
    is at most ``tail_tol``; it must be monotone in n.  The result is the
    smallest n_max in ``[MIN_LEVELS - 1, hard_cap]`` where it holds, found
    by bisection, or ``(hard_cap, True)`` when it fails even at the cap.
    ``hard_cap`` itself must lie in ``[MIN_LEVELS - 1, HARD_CAP]``.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must be in (0, 1), got {tail_tol}")
    if not MIN_LEVELS - 1 <= hard_cap <= HARD_CAP:
        raise ValueError(f"hard_cap must lie in [{MIN_LEVELS - 1}, {HARD_CAP}], got {hard_cap}")
    lo, hi = MIN_LEVELS - 1, hard_cap
    if not tail_within_tol(hi):
        return hard_cap, True
    if tail_within_tol(lo):
        return lo, False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail_within_tol(mid):
            hi = mid
        else:
            lo = mid
    return hi, False


def _check_resolvable(x_max: float, beta_omega: float) -> None:
    """Refuse a geometric ratio ``exp(-beta omega)`` that rounds to 1: no tail would ever drop."""
    if x_max == 1.0:
        raise ValueError(
            f"beta*omega = {beta_omega!r} is too small to resolve: exp(-beta*omega) rounds to 1"
        )


def _gamma_log_tail(s: float, r: float, n_last: int, log_norm: float) -> float:
    """log of zeta_H(s, n_last+1+r) / exp(log_norm), the mass beyond level n_last."""
    shift = n_last + 1.0
    return float(
        -s * np.log1p(shift / r)
        + np.log(hurwitz_zeta_scaled(s, shift + r))
        - log_norm
    )


def photon_weights_gamma(
    s: GammaSuperstat, tail_tol: float = 1e-8, hard_cap: int = HARD_CAP
) -> PhotonDistribution:
    """Photon-number weights of the gamma-fluctuation thermal state.

    The weights follow ``p_n = (n + r)^(-s) / zeta_H(s, r)`` with
    s = 1/(q-1) and r = 1/((q-1) beta_star omega); the truncation level
    is the smallest one whose exact closed-form tail mass (a ratio of
    Hurwitz zetas) is <= tail_tol, subject to the hard cap.
    """
    sx, r = s.s_index, s.r_offset
    norm = hurwitz_zeta_scaled(sx, r)
    log_norm = np.log(norm)  # of zeta_H(s, r), summed once for every tail below
    n_max, tail_limited = _truncation(
        lambda n: _gamma_log_tail(sx, r, n, log_norm) <= math.log(tail_tol), tail_tol, hard_cap
    )
    n = np.arange(n_max + 1, dtype=np.float64)
    weights = np.exp(-sx * np.log1p(n / r)) / norm
    tail = math.exp(_gamma_log_tail(sx, r, n_max, log_norm))
    return PhotonDistribution(
        weights=weights,
        tail_mass=tail,
        tail_limited=tail_limited,
    )


def photon_weights_gibbs(
    beta: float, omega: float = 1.0, tail_tol: float = 1e-8, hard_cap: int = HARD_CAP
) -> PhotonDistribution:
    """Geometric (Gibbs) photon-number weights ``(1 - x) x^n`` with x = exp(-beta omega).

    Truncates at the smallest level whose exact tail mass ``x^(n_max+1)``
    is <= tail_tol, subject to the hard cap.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    _check_omega(omega)
    x = math.exp(-beta * omega)
    _check_resolvable(x, beta * omega)
    n_max, tail_limited = _truncation(lambda n: x ** (n + 1) <= tail_tol, tail_tol, hard_cap)
    n = np.arange(n_max + 1, dtype=np.float64)
    weights = (1.0 - x) * x**n
    return PhotonDistribution(
        weights=weights,
        tail_mass=x ** (n_max + 1),
        tail_limited=tail_limited,
    )


def photon_weights_multilevel(
    s: MultiLevelSuperstat, tail_tol: float = 1e-8, hard_cap: int = HARD_CAP
) -> PhotonDistribution:
    """Photon-number weights of the N-temperature mixture state.

    ``p_n = (1/Z_N) sum_k exp(-n beta_k omega)`` with the normalizing
    super-partition function ``Z_N = sum_k 1/(1 - exp(-beta_k omega))``;
    the exponential tail is closed in exact geometric form.  Truncation
    follows tail_tol, subject to the hard cap.  The weights are summed in
    blocks of about ``2**16`` powers, so memory stays at the weight table.
    """
    x = np.exp(-np.asarray(s.betas) * s.omega)
    _check_resolvable(float(np.max(x)), min(s.betas) * s.omega)
    z_n = float(np.sum(1.0 / (1.0 - x)))

    def tail(n_last: int) -> float:
        return float(np.sum(x ** (n_last + 1) / (1.0 - x))) / z_n

    n_max, tail_limited = _truncation(lambda n: tail(n) <= tail_tol, tail_tol, hard_cap)
    n = np.arange(n_max + 1, dtype=np.float64)
    weights = np.empty(n_max + 1)
    rows = max(1, 2**16 // x.size)
    # x**n underflows to exactly +0.0 once n ln x < -745.13, and slowly near
    # there, so it is computed only up to n ln x = UNDERFLOW_LOG (n = 0 at x = 0)
    with np.errstate(divide="ignore"):
        last = UNDERFLOW_LOG / np.log(x)
    for lo in range(0, n_max + 1, rows):
        block = n[lo : lo + rows, None]
        powers = np.power(x, block, where=block <= last, out=np.zeros((block.size, x.size)))
        # each row is reduced on its own, so the blocks sum exactly as one matrix would
        weights[lo : lo + rows] = np.sum(powers, axis=1)
    weights /= z_n
    return PhotonDistribution(
        weights=weights,
        tail_mass=tail(n_max),
        tail_limited=tail_limited,
    )


def _q_sums(s: GammaSuperstat) -> tuple[float, float]:
    """``(Tr rho^q, escort mean photon number)`` from one pair of Hurwitz sums.

    The escort mean is ``sum_n n p_n^q / sum_n p_n^q``, not the ordinary
    ``<n> = sum_n n p_n``.
    """
    sx, r = s.s_index, s.r_offset
    g1 = hurwitz_zeta_scaled(sx, r)
    gq = hurwitz_zeta_scaled(s.q * sx, r)
    return gq / g1**s.q, r * (g1 / gq - 1.0)


def mean_photon_q(s: GammaSuperstat) -> float:
    """q-average (escort) photon number ``sum_n n p_n^q / sum_n p_n^q`` of the quasi state.

    This is not the ordinary mean ``sum_n n p_n``.  Closed form
    ``[Phi(1, 1/(q-1), r) - r Phi(1, q/(q-1), r)] / zeta_H(q/(q-1), r)``
    rewritten in scaled zetas as ``r (G_s/G_qs - 1)``, which stays
    finite-precision all the way into the near-Gibbs regime.
    """
    return _q_sums(s)[1]


def physical_beta(s: GammaSuperstat) -> float:
    """Physical inverse temperature of a gamma-fluctuation state.

    Implements ``beta = beta_star Tr[rho^q] / (1 - (1-q) beta_star U /
    Tr[rho^q])``, where ``U = omega sum_n n p_n^q`` is the constrained
    internal energy ``-d/d(beta_star) ln_q Z``.  U is non-negative and
    :class:`GammaSuperstat` holds 1 < q < 2, so the denominator is at
    least 1.  As q -> 1, beta tends to beta_star.
    """
    trace_q, nbar_q = _q_sums(s)
    energy = s.omega * nbar_q * trace_q
    denom = 1.0 - (1.0 - s.q) * s.beta_star * energy / trace_q
    return s.beta_star * trace_q / denom


_SCAN_DECADES = (-3.0, 3.0)  # beta_star * omega scan range, log10
_ROOT_ITERATIONS = 100  # steps of a root solve before it raises AccuracyError


def _brentq(f, xa: float, xb: float, fa: float, fb: float, xtol: float, rtol: float) -> float:
    """A root of ``f`` in the bracket ``[xa, xb]``, where ``f`` takes the values ``fa`` and ``fb``.

    Brent's method as ``scipy.optimize.brentq`` runs it (its ``brentq.c``),
    so a root has the same bits: inverse quadratic or secant steps that
    fall back to bisection, until the bracket is within ``2 delta`` with
    ``delta = (xtol + rtol |x|)/2``.  An endpoint of residual exactly 0 is
    returned as it is.  A NaN value of ``f`` raises :class:`ValueError`, as
    scipy's wrapper does, and ``_ROOT_ITERATIONS`` steps without
    convergence raise :class:`AccuracyError`.
    """
    xpre, xcur, fpre, fcur = float(xa), float(xb), fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur} is NaN; the root solve cannot continue")
    raise AccuracyError(f"root solve did not converge in {_ROOT_ITERATIONS} steps; last x={xcur}")


def calibrate_beta_star(q: float, beta_target: float, omega: float = 1.0) -> float:
    """Invert :func:`physical_beta`: the gamma-model beta_star that realizes a physical beta.

    Scan over log(beta_star) across [1e-3, 1e3]/omega up to the first
    sign change, then a derivative-free hybrid root solve on it; the round trip
    ``physical_beta(calibrate_beta_star(beta)) == beta`` holds to 1e-10
    relative.
    """
    if not beta_target > 0:
        raise ValueError(f"beta_target must be positive, got {beta_target}")
    _check_omega(omega)

    def residual(log_bsw: float) -> float:
        bs = math.exp(log_bsw) / omega
        return physical_beta(GammaSuperstat(q=q, beta_star=bs, omega=omega)) - beta_target

    lo_exp, hi_exp = _SCAN_DECADES
    grid = np.linspace(lo_exp, hi_exp, 61) * math.log(10.0)
    fa = residual(grid[0])
    for ga, gb in zip(grid, grid[1:]):
        fb = residual(gb)
        if fa * fb <= 0.0:  # an endpoint whose residual is exactly 0 is the root
            root = _brentq(residual, ga, gb, fa, fb, xtol=1e-14, rtol=8.9e-16)
            return math.exp(root) / omega
        fa = fb
    raise BracketError(
        f"beta={beta_target} not attainable for q={q} with beta_star*omega in "
        f"[1e{lo_exp:+.0f}, 1e{hi_exp:+.0f}]"
    )
