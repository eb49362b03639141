"""Independent reference implementations used to freeze and check fixtures.

The evaluators stick to plain truncated summation with integral
bracketing of the dropped tail (the estimate is the bracket midpoint,
the reported halfwidth bounds the error), so these values share no code
path with the Euler-Maclaurin evaluation they are checking.  The table
writers format one row at a time, as the CLI once did, so they share no
code path with its column-wise emitter.  ``evolved_ac`` and
``populations`` spell out the closed-form manifold populations and the
reduced states one instant at a time, on the frozen-truncation
convention, for tests that check the transfers of ``manifold_transfers``
without the chunked walk.  ``q_log`` is the deformed logarithm that the
Tsallis entropy is defined through.
"""

import json

import numpy as np

from jcentropy.jcm import manifold_transfers

CHUNK = 10**6


def fixed_parts(epsilon, dist, a1) -> tuple[np.ndarray, np.ndarray]:
    """(a0, c0) = (x - a1, y + a1), the t-independent parts of A_n and C_n.

    ``(x, y) = (eps p_n, (1 - eps) p_{n+1})`` are the initial manifold
    weights of ``dist``, led by the shape of ``epsilon`` as ``a1`` is.
    """
    p, epsilon = dist.weights, np.asarray(epsilon, dtype=float)
    excited = np.multiply.outer(epsilon, p[:-1])
    ground = np.multiply.outer(1.0 - epsilon, p[1:])
    return excited - a1, ground + a1


def evolved_ac(params, epsilon, dist, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(A_n(t), C_n(t)) = (a0 + a1 cos(delta_n t), c0 - a1 cos(delta_n t)), one instant at a time."""
    delta_n, a1 = manifold_transfers(params, epsilon, dist)
    cos = np.cos(t * delta_n)
    a0, c0 = fixed_parts(epsilon, dist, a1)
    return a0 + a1 * cos, c0 - a1 * cos


def populations(epsilon, dist, a, c):
    """(p_e, p_g, field) of the reduced states, along the last axis of ``a`` and ``c``.

    ``a`` and ``c`` are ``A_n`` and ``C_n`` over the evolved manifolds of
    ``dist``, led by the shape of ``epsilon``, which the frozen weights
    follow.  The |g,0> weight, the |e,n_max> weight and the tail
    beyond ``n_max`` stay at their t=0 values; the tail is split
    epsilon : (1 - epsilon) between the atomic sectors, so
    ``p_e + p_g = 1``.  ``field`` holds the photon-number weights over
    levels 0..n_max; the remaining probability is the tail mass.
    """
    p, tail = dist.weights, dist.tail_mass
    epsilon = np.asarray(epsilon, dtype=float)
    eps = np.reshape(epsilon, epsilon.shape + (1,) * (np.ndim(a) - 1 - epsilon.ndim))
    top, uncoupled = eps * p[-1], (1.0 - eps) * p[0]
    p_e = np.sum(a, axis=-1) + top + eps * tail
    p_g = uncoupled + np.sum(c, axis=-1) + (1.0 - eps) * tail
    field = np.empty(a.shape[:-1] + (a.shape[-1] + 1,))
    field[..., 0] = uncoupled + a[..., 0]
    np.add(a[..., 1:], c[..., :-1], out=field[..., 1:-1])
    field[..., -1] = c[..., -1] + top
    return p_e, p_g, field


def q_log(x, q):
    """q-deformed logarithm (x^(1-q) - 1)/(1-q) for x > 0 and q != 1.

    The reference the Tsallis entropy ``-sum_n p_n ln_q p_n`` is checked
    against; the entropy kernel scores ``p^(2-q)`` directly instead.
    """
    if q == 1.0:
        raise ValueError("q_log requires q != 1; the q -> 1 limit is the natural log")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("q_log requires strictly positive arguments")
    q = float(q)
    out = (np.power(x, 1.0 - q) - 1.0) / (1.0 - q)
    return out if out.ndim else float(out)


def zeta_brute(s: float, x: float, n_terms: int = 10**7) -> tuple[float, float]:
    """sum_{n>=0} (n+x)^(-s) by direct summation; returns (estimate, halfwidth)."""
    total = 0.0
    for start in range(0, n_terms, CHUNK):
        n = np.arange(start, min(start + CHUNK, n_terms), dtype=np.float64)
        total += float(np.sum((n + x) ** (-s)))
    a = n_terms + x
    integral = a ** (1.0 - s) / (s - 1.0)  # integral_{n_terms}^inf (t+x)^(-s) dt
    first = a ** (-s)
    return total + integral + first / 2.0, first / 2.0


def weighted_zeta_brute(s: float, x: float, n_terms: int = 10**7) -> tuple[float, float]:
    """sum_{n>=0} n (n+x)^(-s) for s > 2; returns (estimate, halfwidth)."""
    total = 0.0
    for start in range(0, n_terms, CHUNK):
        n = np.arange(start, min(start + CHUNK, n_terms), dtype=np.float64)
        total += float(np.sum(n * (n + x) ** (-s)))
    a = n_terms + x
    integral = a ** (2.0 - s) / (s - 2.0) - x * a ** (1.0 - s) / (s - 1.0)
    first = n_terms * a ** (-s)
    return total + integral + first / 2.0, first / 2.0


def gamma_brute_sums(q: float, beta_star: float, omega: float, n_terms: int = 10**7):
    """Brute-force (Tr rho^q, sum n rho_n^q, mean photon) for the gamma state."""
    s = 1.0 / (q - 1.0)
    r = 1.0 / ((q - 1.0) * beta_star * omega)
    norm, _ = zeta_brute(s, r, n_terms)
    zq, _ = zeta_brute(q * s, r, n_terms)
    wq, _ = weighted_zeta_brute(q * s, r, n_terms)
    trace_q = zq / norm**q
    energy = omega * wq / norm**q
    nbar = wq / zq
    return trace_q, energy, nbar


def rowwise_csv(columns: list, rows: list) -> str:
    """CSV table text, one cell at a time: ``repr(float(v))`` for floats, else ``str``."""

    def fmt(value) -> str:
        if isinstance(value, float):  # includes numpy float64 (a float subclass)
            return repr(float(value))
        return str(value)

    lines = [",".join(columns)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def rowwise_json(columns: list, rows: list, meta: dict) -> str:
    """JSON table text from :func:`json.dumps` over the rows as lists."""
    payload = {"columns": columns, "rows": [list(r) for r in rows], "meta": meta}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
