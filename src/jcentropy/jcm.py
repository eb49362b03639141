"""Closed-form Jaynes-Cummings dynamics and a brute-force evolution oracle.

A two-level atom couples to one cavity mode through
``H = (omega0/2) sigma_z + omega a^dag a + (lam/2)(a^dag sigma_- + a sigma_+)``
(hbar = 1).  With a diagonal initial state the joint density operator
stays block diagonal over the excitation manifolds
``{|e,n>, |g,n+1>}``, so the evolution reduces to per-manifold 2x2
rotations at the Rabi frequency ``delta_n = sqrt(delta^2 + lam^2 (n+1))``
about an axis at the mixing angle ``sin(theta_n) = lam sqrt(n+1) / delta_n``
(Jaynes & Cummings, Proc. IEEE 51, 89, 1963; Shore & Knight, J. Mod. Opt.
40, 1195, 1993).

The analytic route (:class:`BlockEvolver`) and the numeric route
(:func:`oracle_evolve`, dense per-block diagonalization) are implemented
independently so each one checks the other.

Photon levels beyond the truncation of the supplied
:class:`~jcentropy.superstat.PhotonDistribution` are carried as a
frozen, non-evolving contribution (epsilon-split between the atomic
sectors), so total probability is conserved exactly and the freezing
error is bounded by the tracked tail mass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .superstat import PhotonDistribution, _check_omega

__all__ = [
    "ModelParams",
    "AtomInit",
    "OracleEvolution",
    "CutoffWarning",
    "BlockEvolver",
    "oracle_evolve",
]


class CutoffWarning(UserWarning):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Atom frequency, cavity frequency and coupling strength."""

    omega0: float
    omega: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        _check_omega(self.omega)
        # named as the detuning and the coupling are given on the command line
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")

    @property
    def delta(self) -> float:
        """Detuning omega0 - omega."""
        return self.omega0 - self.omega

    @classmethod
    def from_detuning(cls, delta: float, lam: float, omega: float = 1.0) -> "ModelParams":
        return cls(omega0=omega + delta, omega=omega, lam=lam)


@dataclass(frozen=True)
class AtomInit:
    """Diagonal atomic initial state: weight epsilon on the excited level."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")


def _manifold_arrays(params: ModelParams, count: int):
    """delta_n, sin(theta_n), cos(theta_n) for manifolds n = 0..count-1 (vectorized).

    theta_n = 0 where delta_n = 0 (no coupling, no detuning), so no manifold rotates uncoupled.
    """
    n1 = np.arange(1.0, count + 1.0)
    delta_n = np.sqrt(params.delta**2 + params.lam**2 * n1)
    rotates = delta_n > 0.0
    sin_theta = np.divide(params.lam * np.sqrt(n1), delta_n, out=np.zeros(count), where=rotates)
    cos_theta = np.divide(params.delta, delta_n, out=np.ones(count), where=rotates)
    return delta_n, sin_theta, cos_theta


class BlockEvolver:
    """Precomputed closed-form manifold evolution for one configuration.

    Manifold n starts with ``x = epsilon p_n`` on |e,n> and ``y = (1 - epsilon) p_{n+1}``
    on |g,n+1>; its Rabi rotation moves ``a1 (1 - cos(delta_n t))`` from |e,n> to
    |g,n+1>, with the transfer ``a1 = sin^2(theta_n) (x - y) / 2``.  So
    ``A_n(t) = a0 + a1 cos(delta_n t)`` and ``C_n(t) = c0 - a1 cos(delta_n t)``, and an
    evolver holds four per-level arrays: ``delta_n``, ``a0``, ``a1`` and ``c0``.  The
    coherence, which the entropy traces never read, follows from the same angle:
    ``B_n(t) = sin(theta_n) (x - y) / 2 [cos(theta_n) (1 - cos(delta_n t)) + i sin(delta_n t)]``.

    ``atom`` is one :class:`AtomInit` or a sequence of k, which share ``delta_n``.
    Its epsilons, of shape ``()`` or ``(k,)``, lead the shapes of ``a0``, ``a1``,
    ``c0``, ``block_weight``, ``uncoupled_weight`` and ``excited_top``, and each
    entry has the bits of the evolver of its preparation alone.
    """

    def __init__(self, params: ModelParams, atom, dist: PhotonDistribution):
        if dist.n_max < 1:
            raise ValueError("need at least photon levels {0, 1} to evolve a manifold")
        self.params = params
        self.dist = dist
        eps = atom.epsilon if isinstance(atom, AtomInit) else [one.epsilon for one in atom]
        self._eps = np.array(eps, dtype=float)
        p = dist.weights
        self.uncoupled_weight = (1.0 - self._eps) * p[0]
        self.excited_top = self._eps * p[-1]
        self.delta_n, sin_theta, _ = _manifold_arrays(params, dist.n_max)
        excited, ground = self._split()
        self.a1 = 0.5 * sin_theta**2 * (excited - ground)
        self.a0 = excited - self.a1
        self.c0 = ground + self.a1

    def _split(self):
        """(x, y) = (eps p_n, (1 - eps) p_{n+1}), led by the preparation axis."""
        p = self.dist.weights
        return np.multiply.outer(self._eps, p[:-1]), np.multiply.outer(1.0 - self._eps, p[1:])

    @property
    def block_weight(self) -> np.ndarray:
        """Total weight of each manifold, ``A_n(t) + C_n(t)`` at every t."""
        excited, ground = self._split()
        return excited + ground

    def coefficients(self, t: float):
        """(A_n(t), B_n(t), C_n(t)) over the evolved manifolds at time ``t``.

        ``A_n`` and ``C_n`` are the populations of |e,n> and |g,n+1>;
        ``B_n`` is the coherence ``<e,n|rho|g,n+1>`` (the |e,n><g,n+1|
        element, as :func:`oracle_evolve` returns it).
        """
        phase = t * self.delta_n
        cos = np.cos(phase)
        a = self.a0 + self.a1 * cos
        c = self.c0 - self.a1 * cos
        _, sin_theta, cos_theta = _manifold_arrays(self.params, self.delta_n.size)
        excited, ground = self._split()
        half_coherence = 0.5 * sin_theta * (excited - ground)
        b = half_coherence * (cos_theta * (1.0 - cos) + 1j * np.sin(phase))
        return a, b, c

    def populations(self, a, c):
        """(p_e, p_g, field) of the reduced states, along the last axis of ``a`` and ``c``.

        ``a`` and ``c`` are ``A_n`` and ``C_n`` over the evolved manifolds,
        led by a group's preparation axis, which the frozen weights follow.
        The |g,0> weight, the |e,n_max> weight and the tail beyond
        ``n_max`` stay at their t=0 values; the tail is split
        epsilon : (1 - epsilon) between the atomic sectors, so
        ``p_e + p_g = 1``.  ``field`` holds the photon-number weights over
        levels 0..n_max; the remaining probability is the tail mass.
        """
        lead = self._eps.shape + (1,) * (np.ndim(a) - 1 - self._eps.ndim)
        eps, top, uncoupled = (np.reshape(x, lead)
                               for x in (self._eps, self.excited_top, self.uncoupled_weight))
        p_e = np.sum(a, axis=-1) + top + eps * self.dist.tail_mass
        p_g = uncoupled + np.sum(c, axis=-1) + (1.0 - eps) * self.dist.tail_mass
        field = np.empty(a.shape[:-1] + (a.shape[-1] + 1,))
        field[..., 0] = uncoupled + a[..., 0]
        np.add(a[..., 1:], c[..., :-1], out=field[..., 1:-1])
        field[..., -1] = c[..., -1] + top
        return p_e, p_g, field


@dataclass(frozen=True)
class OracleEvolution:
    """Brute-force evolution output on the same truncation conventions."""

    time: float
    coeff_a: np.ndarray
    coeff_b: np.ndarray
    coeff_c: np.ndarray
    atom_excited: float
    atom_ground: float
    field_weights: np.ndarray
    tail_mass: float


def oracle_evolve(
    params: ModelParams,
    atom: AtomInit,
    dist: PhotonDistribution,
    t: float,
    n_cut: int,
    warn_tol: float = 1e-10,
) -> OracleEvolution:
    """Numerically evolve the truncated model and partial-trace the result.

    Builds the Hamiltonian blocks on ``{|g,0>, |e,n>, |g,n+1>: n < n_cut}``
    explicitly, exponentiates each 2x2 block through its numeric
    eigendecomposition, and traces out each subsystem by direct
    summation.  Shares no algebra with :class:`BlockEvolver` beyond the
    frozen-truncation convention, which both sides must apply to be
    comparable.
    """
    if n_cut < 1:
        raise ValueError("n_cut must be >= 1")
    eps = atom.epsilon
    p = dist.weights
    k = min(n_cut, dist.n_max)

    frozen_levels = float(np.sum(p[k:]))  # head weights not covered by a manifold
    if frozen_levels - float(p[k]) + dist.tail_mass > warn_tol:
        warnings.warn(
            f"photon mass {frozen_levels - float(p[k]) + dist.tail_mass:.3e} beyond "
            f"n_cut={n_cut} exceeds warn_tol={warn_tol:g}; comparisons may be "
            "truncation-limited",
            CutoffWarning,
            stacklevel=2,
        )

    n = np.arange(k, dtype=np.float64)
    h_blocks = np.zeros((k, 2, 2))
    h_blocks[:, 0, 0] = params.omega0 / 2.0 + n * params.omega
    h_blocks[:, 1, 1] = -params.omega0 / 2.0 + (n + 1.0) * params.omega
    h_blocks[:, 0, 1] = h_blocks[:, 1, 0] = params.lam * np.sqrt(n + 1.0) / 2.0

    evals, evecs = np.linalg.eigh(h_blocks)
    phases = np.exp(-1j * evals * t)
    u = np.einsum("kij,kj,klj->kil", evecs.astype(complex), phases, evecs.astype(complex))
    rho0 = np.zeros((k, 2, 2), dtype=complex)
    rho0[:, 0, 0] = eps * p[:k]
    rho0[:, 1, 1] = (1.0 - eps) * p[1 : k + 1]
    rho_t = u @ rho0 @ np.conj(np.swapaxes(u, 1, 2))

    coeff_a = rho_t[:, 0, 0].real
    coeff_c = rho_t[:, 1, 1].real
    coeff_b = rho_t[:, 0, 1]

    uncoupled = (1.0 - eps) * p[0]
    frozen_excited = eps * (frozen_levels + dist.tail_mass)
    frozen_ground = (1.0 - eps) * (frozen_levels - float(p[k]) + dist.tail_mass)

    atom_excited = float(np.sum(coeff_a)) + frozen_excited
    atom_ground = uncoupled + float(np.sum(coeff_c)) + frozen_ground

    field = np.zeros(dist.n_max + 1)
    field[0] = uncoupled + coeff_a[0]
    field[1:k] = coeff_a[1:] + coeff_c[:-1]
    field[k] = coeff_c[-1] + eps * p[k]
    if k < dist.n_max:
        field[k + 1 :] = p[k + 1 :]

    return OracleEvolution(
        time=float(t),
        coeff_a=coeff_a,
        coeff_b=coeff_b,
        coeff_c=coeff_c,
        atom_excited=atom_excited,
        atom_ground=atom_ground,
        field_weights=field,
        tail_mass=dist.tail_mass,
    )
