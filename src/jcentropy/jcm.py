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

The analytic route (:func:`manifold_transfers`) keeps only what moves:
each manifold's Rabi frequency and the transfer ``a1`` between its two
states, so a walk adds the departure ``a1 (cos(delta_n t) - 1)`` to the
initial state it is given.  The numeric route (:func:`oracle_evolve`,
dense per-block diagonalization) builds the whole state at each instant.
The two are implemented independently so each one checks the other.

Photon levels beyond the truncation of the supplied
:class:`~jcentropy.superstat.PhotonDistribution`, the |g,0> weight and
the |e,n_max> weight do not evolve.  The walk carries them in the initial
state; the oracle first cuts the state to its ``n_cut`` by the one rule of
:meth:`~jcentropy.superstat.PhotonDistribution.truncated`, then carries
them as a frozen contribution (the cut state's tail epsilon-split between
the atomic sectors).  So total probability is conserved exactly and the
freezing error is bounded by the tracked tail mass.
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
    "manifold_transfers",
    "oracle_evolve",
]


class CutoffWarning(UserWarning):
    pass


@dataclass(frozen=True, kw_only=True)
class ModelParams:
    """Detuning, cavity frequency and coupling strength, as given."""

    delta: float
    omega: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        _check_omega(self.omega)
        # named as the detuning and the coupling are given on the command line
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")

    @classmethod
    def from_detuning(cls, delta: float, lam: float, omega: float = 1.0) -> "ModelParams":
        return cls(delta=delta, omega=omega, lam=lam)


@dataclass(frozen=True)
class AtomInit:
    """Diagonal atomic initial state: weight epsilon on the excited level."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")


def _manifold_arrays(params: ModelParams, count: int):
    """delta_n and sin(theta_n) for manifolds n = 0..count-1 (vectorized).

    theta_n = 0 where delta_n = 0 (no coupling, no detuning), so no manifold rotates uncoupled.
    """
    n1 = np.arange(1.0, count + 1.0)
    delta_n = np.sqrt(params.delta**2 + params.lam**2 * n1)
    sin_theta = np.divide(params.lam * np.sqrt(n1), delta_n, out=np.zeros(count),
                          where=delta_n > 0.0)
    return delta_n, sin_theta


def manifold_transfers(params: ModelParams, epsilon, dist: PhotonDistribution):
    """``(delta_n, a1)``: each manifold's Rabi frequency and transfer, the level arrays a walk reads.

    Manifold n starts with ``x = epsilon p_n`` on |e,n> and ``y = (1 - epsilon) p_{n+1}``
    on |g,n+1>; its Rabi rotation moves ``a1 (1 - cos(delta_n t))`` from |e,n> to
    |g,n+1>, with the transfer ``a1 = sin^2(theta_n) (x - y) / 2``.  So
    ``A_n(t) = x - a1 (1 - cos(delta_n t))`` and ``C_n(t) = y + a1 (1 - cos(delta_n t))``:
    the state departs from its initial one by ``a1 cos(delta_n t) - a1``.

    ``epsilon`` is a float array of excited-state weights, 0-d for one
    preparation or ``(k,)`` for k that share ``delta_n``; its shape leads
    the shape of ``a1``, and each row has the bits of its preparation alone.
    """
    if dist.n_max < 1:
        raise ValueError("need at least photon levels {0, 1} to evolve a manifold")
    p = dist.weights
    delta_n, sin_theta = _manifold_arrays(params, dist.n_max)
    # x - y with (x, y) = (eps p_n, (1 - eps) p_{n+1}), led by the preparation axis
    a1 = np.multiply.outer(epsilon, p[:-1])
    a1 -= np.multiply.outer(1.0 - epsilon, p[1:])
    a1 *= 0.5 * sin_theta**2
    return delta_n, a1


@dataclass(frozen=True)
class OracleEvolution:
    """Brute-force evolution output on the truncation it was asked for.

    ``field_weights`` has ``n_cut + 1`` entries (at most ``n_max + 1``);
    ``tail_mass`` is the tail of the cut state, so the two sum to one.
    """

    coeff_a: np.ndarray
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

    First cuts the state as ``dist.truncated(n_cut)`` does, moving the
    weights above ``n_cut`` into the tail, then builds the Hamiltonian
    blocks on ``{|g,0>, |e,n>, |g,n+1>: n < n_cut}`` of the cut state
    explicitly, exponentiates each 2x2 block through its numeric
    eigendecomposition, and traces out each subsystem by direct
    summation.  Shares no algebra with :func:`manifold_transfers` beyond the
    frozen-truncation convention, which both sides must apply to be
    comparable.
    """
    if n_cut < 1:
        raise ValueError("n_cut must be >= 1")
    dist = dist.truncated(n_cut)
    if dist.tail_mass > warn_tol:
        warnings.warn(
            f"photon mass {dist.tail_mass:.3e} beyond n_cut={n_cut} exceeds "
            f"warn_tol={warn_tol:g}; comparisons may be truncation-limited",
            CutoffWarning,
            stacklevel=2,
        )
    eps = atom.epsilon
    p = dist.weights
    k = dist.n_max
    omega0 = params.omega + params.delta

    n = np.arange(k, dtype=np.float64)
    h_blocks = np.zeros((k, 2, 2))
    h_blocks[:, 0, 0] = omega0 / 2.0 + n * params.omega
    h_blocks[:, 1, 1] = -omega0 / 2.0 + (n + 1.0) * params.omega
    h_blocks[:, 0, 1] = h_blocks[:, 1, 0] = params.lam * np.sqrt(n + 1.0) / 2.0

    evals, evecs = np.linalg.eigh(h_blocks)
    phases = np.exp(-1j * evals * t)
    u = np.einsum("kij,kj,klj->kil", evecs.astype(complex), phases, evecs.astype(complex))
    rho0 = np.zeros((k, 2, 2), dtype=complex)
    rho0[:, 0, 0] = eps * p[:k]
    rho0[:, 1, 1] = (1.0 - eps) * p[1:]
    rho_t = u @ rho0 @ np.conj(np.swapaxes(u, 1, 2))

    coeff_a = rho_t[:, 0, 0].real
    coeff_c = rho_t[:, 1, 1].real

    # frozen: |g,0>, |e,k> and the cut state's tail, split epsilon : 1 - epsilon
    uncoupled = (1.0 - eps) * p[0]
    atom_excited = float(np.sum(coeff_a)) + eps * (float(p[k]) + dist.tail_mass)
    atom_ground = uncoupled + float(np.sum(coeff_c)) + (1.0 - eps) * dist.tail_mass

    field = np.empty(k + 1)
    field[0] = uncoupled + coeff_a[0]
    field[1:k] = coeff_a[1:] + coeff_c[:-1]
    field[k] = coeff_c[-1] + eps * p[k]

    return OracleEvolution(
        coeff_a=coeff_a,
        coeff_c=coeff_c,
        atom_excited=atom_excited,
        atom_ground=atom_ground,
        field_weights=field,
        tail_mass=dist.tail_mass,
    )
