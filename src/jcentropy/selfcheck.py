"""Built-in consistency suite: closed forms against independent routes.

Runs the analytic-vs-numeric evolution comparison, the structural
invariants of the manifold algebra, and the special-function identities
on a fixed internal parameter grid.  Intended as a release gate: every
check reports its maximum deviation and the suite passes only if all
checks do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entropy as ent
from .jcm import AtomInit, BlockEvolver, ModelParams, _manifold_arrays, oracle_evolve
from .specfun import hurwitz_zeta
from .superstat import (
    GammaSuperstat,
    calibrate_beta_star,
    photon_weights_gamma,
    photon_weights_gibbs,
)

__all__ = ["CheckResult", "run_selfcheck"]

_BETA_OMEGA = math.log(11.0)  # weakly excited field, mean occupancy 0.1 at q -> 1


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_dev: float
    tol: float
    detail: str = ""


def _check(name, max_dev, tol, detail="") -> CheckResult:
    return CheckResult(name=name, passed=max_dev <= tol, max_dev=float(max_dev), tol=tol, detail=detail)


def _zeta_identities() -> CheckResult:
    devs = [
        abs(hurwitz_zeta(2.0, 1.0) - math.pi**2 / 6.0),
        abs(hurwitz_zeta(2.0, 0.5) - math.pi**2 / 2.0),
    ]
    for s, x in ((1.5, 0.7), (2.5, 3.3), (4.0, 0.2)):
        devs.append(abs(hurwitz_zeta(s, x + 1.0) - (hurwitz_zeta(s, x) - x**-s)))
    return _check("zeta-identities", max(devs), 1e-10)


def _manifold_identity() -> CheckResult:
    devs = []
    for delta, lam in ((0.0, 2.0), (1.7, 0.4), (-3.0, 1.1)):
        params = ModelParams.from_detuning(delta, lam)
        d, sin_theta, cos_theta = _manifold_arrays(params, 64)
        devs.append(float(np.max(np.abs(sin_theta**2 + cos_theta**2 - 1.0))))
        devs.append(float(np.max(np.abs(d**2 - (delta**2 + lam**2 * np.arange(1, 65))))))
    return _check("mixing-angle-identity", max(devs), 1e-12)


def _oracle_configs():
    beta = _BETA_OMEGA
    gibbs = photon_weights_gibbs(beta, tail_tol=1e-12).truncated(25)
    q = 1.5
    beta_star = calibrate_beta_star(q, beta)
    gamma = photon_weights_gamma(GammaSuperstat(q=q, beta_star=beta_star), tail_tol=1e-6)
    gamma = gamma.truncated(25)
    return [
        ("gibbs", gibbs, ent.VON_NEUMANN),
        ("gamma-q1.5", gamma, ent.tsallis(q)),
    ]


def _oracle_equivalence(perturb: float) -> list[CheckResult]:
    params = ModelParams.from_detuning(0.0, 2.0)
    rng = np.random.default_rng(20260809)
    times = rng.uniform(0.0, 12.5, size=12)
    results = []
    for label, dist, kind in _oracle_configs():
        for eps in (0.0, 1.0):
            atom = AtomInit(epsilon=eps)
            evolver = BlockEvolver(params, atom, dist)
            dev = 0.0
            for t in times:
                a, b, c = evolver.coefficients(t)
                if perturb:
                    a[0] += perturb
                # same truncation on both sides, so the tail cannot bias the comparison
                ora = oracle_evolve(params, atom, dist, t, n_cut=dist.n_max, warn_tol=1.0)
                dev = max(dev, float(np.max(np.abs(a - ora.coeff_a))))
                dev = max(dev, float(np.max(np.abs(c - ora.coeff_c))))
                dev = max(dev, float(np.max(np.abs(b - ora.coeff_b))))
                p_e, p_g, field = evolver.populations(a, c)
                dev = max(dev, abs(p_e - ora.atom_excited), abs(p_g - ora.atom_ground))
                try:
                    s_a = ent.entropy_of([p_e, p_g], kind)
                    s_a_o = ent.entropy_of([ora.atom_excited, ora.atom_ground], kind)
                    s_b = ent.entropy_of(field, kind)
                    s_b_o = ent.entropy_of(ora.field_weights, kind)
                except ValueError:
                    # a perturbed state can stop being a probability list at all
                    dev = math.inf
                    break
                dev = max(dev, abs(s_a - s_a_o), abs(s_b - s_b_o))
            results.append(
                _check(
                    f"oracle-equivalence[{label},eps={eps:g}]",
                    dev,
                    1e-8,
                    detail=f"tail_mass={dist.tail_mass:.3e}",
                )
            )
    return results


def _structural_fuzz(cases: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(11)
    dev_cons = 0.0
    dev_total = 0.0
    dev_pos = 0.0
    for _ in range(cases):
        params = ModelParams.from_detuning(rng.uniform(-4, 4), rng.uniform(0.2, 3.0))
        atom = AtomInit(epsilon=rng.uniform())
        beta = rng.uniform(0.3, 4.0)
        dist = photon_weights_gibbs(beta, tail_tol=1e-10)
        evolver = BlockEvolver(params, atom, dist)
        t = rng.uniform(0.0, 20.0)
        a, b, c = evolver.coefficients(t)
        dev_cons = max(dev_cons, float(np.max(np.abs(a + c - evolver.block_weight))))
        total = evolver.uncoupled_weight + evolver.excited_top + float(np.sum(a + c)) + dist.tail_mass
        dev_total = max(dev_total, abs(total - 1.0))
        dev_pos = max(dev_pos, float(np.max(np.abs(b) ** 2 - a * c)))
    return [
        _check("block-conservation", dev_cons, 1e-10),
        _check("total-probability", dev_total, 1e-10),
        _check("block-positivity", dev_pos, 1e-12),
    ]


def _trace_zeroes() -> list[CheckResult]:
    params = ModelParams.from_detuning(0.0, 2.0)
    dist = photon_weights_gibbs(_BETA_OMEGA, tail_tol=1e-10)
    times = np.linspace(0.0, 10.0, 101)
    trace = ent.entropy_trace(params, AtomInit(epsilon=0.3), dist, times=times)
    dev0 = max(abs(trace.ds_atom[0]), abs(trace.ds_field[0]))
    frozen = ModelParams.from_detuning(0.0, 0.0)
    flat = ent.entropy_trace(frozen, AtomInit(epsilon=0.3), dist, times=times)
    dev_flat = max(float(np.max(np.abs(flat.ds_atom))), float(np.max(np.abs(flat.ds_field))))
    return [
        _check("exchange-zero-at-t0", dev0, 1e-12),
        _check("frozen-dynamics-flat-trace", dev_flat, 1e-12),
    ]


def _trace_oracle() -> list[CheckResult]:
    """The chunked trace kernel the CLI runs, row by row against the oracle."""
    params = ModelParams.from_detuning(0.3, 2.0)
    q = 1.4
    beta_star = calibrate_beta_star(q, _BETA_OMEGA)
    dist = photon_weights_gamma(GammaSuperstat(q=q, beta_star=beta_star), tail_tol=1e-6)
    atom = AtomInit(epsilon=0.35)
    # about 4k levels give 3 samples per chunk: 134 chunks, past one reseed of
    # the chunk recurrence, with the rows of its largest drift (chunk 127) checked
    times = np.linspace(0.0, 40.0, 400)
    results = []
    for kind in (ent.VON_NEUMANN, ent.tsallis(q)):
        label = f"trace-oracle[gamma-q1.4,{kind.label()}]"
        try:
            trace = ent.entropy_trace(params, atom, dist, kind, times=times)
        except ValueError as exc:
            # a faulty kernel can emit rows that are no probability lists at all
            results.append(_check(label, math.inf, 1e-8, detail=str(exc)))
            continue

        def oracle_entropies(t):
            ora = oracle_evolve(params, atom, dist, t, n_cut=dist.n_max, warn_tol=1.0)
            return (
                ent.entropy_of([ora.atom_excited, ora.atom_ground], kind),
                ent.entropy_of(ora.field_weights, kind),
            )

        s0_atom, s0_field = oracle_entropies(0.0)
        dev = 0.0
        for i in (5, 150, 381, 383, 386, 399):
            s_atom, s_field = oracle_entropies(times[i])
            dev = max(
                dev,
                abs(trace.ds_atom[i] - (s_atom - s0_atom)),
                abs(trace.ds_field[i] - (s_field - s0_field)),
            )
        results.append(_check(label, dev, 1e-8, detail=f"n_max={dist.n_max}"))
    return results


def run_selfcheck(perturb: float = 0.0) -> list[CheckResult]:
    """Run every internal check; ``perturb`` injects an error to prove sensitivity."""
    results = [_zeta_identities(), _manifold_identity()]
    results.extend(_oracle_equivalence(perturb))
    results.extend(_structural_fuzz())
    results.extend(_trace_zeroes())
    results.extend(_trace_oracle())
    return results
