"""Built-in consistency suite: closed forms against independent routes.

Runs the entropy-exchange walk that every CLI output goes through, and its
time averages, against the brute-force oracle, the rows of a grouped
sweep against their own traces, the structural invariants of the
manifold arrays that walk reads, and the special-function identities on
a fixed internal parameter grid.  Intended as a release
gate: every check reports its maximum deviation and the suite passes
only if all checks do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entropy as ent
from .jcm import AtomInit, ModelParams, _manifold_arrays, manifold_transfers, oracle_evolve
from .specfun import hurwitz_zeta
from .superstat import (
    GammaSuperstat,
    PhotonDistribution,
    calibrate_beta_star,
    photon_weights_gamma,
    photon_weights_gibbs,
)

__all__ = ["CheckResult", "run_selfcheck"]

_BETA_OMEGA = math.log(11.0)  # weakly excited field, mean occupancy 0.1 at q -> 1
_FUZZ_CASES = 100


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
        d, sin_theta = _manifold_arrays(params, 64)
        n1 = np.arange(1, 65)
        devs.append(float(np.max(np.abs(d**2 - (delta**2 + lam**2 * n1)))))
        devs.append(float(np.max(np.abs((sin_theta * d) ** 2 - lam**2 * n1))))
    return _check("mixing-angle-identity", max(devs), 1e-12)


def _oracle_configs():
    """(label, params, atom, dist, kind, horizon, samples, rows checked) of each oracle check."""
    beta = _BETA_OMEGA
    resonant = ModelParams.from_detuning(0.0, 2.0)
    gibbs = photon_weights_gibbs(beta, tail_tol=1e-12).truncated(25)
    q = 1.5
    gamma = photon_weights_gamma(GammaSuperstat(q=q, beta_star=calibrate_beta_star(q, beta)),
                                 tail_tol=1e-6).truncated(25)
    # 4000 samples of these few levels are 32 chunks of CHUNK_ROWS, so all but the
    # first and the last come from the rotation and the cosine recurrence; a
    # recurrence step 1e-9 off moves some checked row by 7e-8 or more
    configs = [
        (f"{label},eps={eps:g}", resonant, AtomInit(eps), dist, kind, 250.0, 4000,
         (*range(0, 4000, 13), 3999))
        for label, dist, kind in (("gibbs", gibbs, ent.VON_NEUMANN),
                                  ("gamma-q1.5", gamma, ent.tsallis(q)))
        for eps in (0.0, 1.0)
    ]
    # about 4k levels give 3 samples per chunk: 334 chunks, past two reseeds of
    # the chunk recurrence, with the rows of its largest drift (chunks 127 and
    # 255) checked; a Rabi frequency 5e-10 off moves some checked row by 1.7e-8
    q = 1.4
    heavy = photon_weights_gamma(GammaSuperstat(q=q, beta_star=calibrate_beta_star(q, beta)),
                                 tail_tol=1e-6)
    detuned = ModelParams.from_detuning(0.3, 2.0)
    for kind in (ent.VON_NEUMANN, ent.tsallis(q)):
        configs.append((f"gamma-q1.4,{kind.label()}", detuned, AtomInit(0.35), heavy, kind,
                        100.0, 1000, sorted({*range(0, 1000, 13), 381, 383, 765, 767, 999})))
    return configs


def _perturbed(dist: PhotonDistribution, perturb: float) -> PhotonDistribution:
    """``dist`` with ``perturb`` of photon weight moved from level 0 to level 1."""
    w = dist.weights.copy()
    w[0] -= perturb
    w[1] += perturb
    return PhotonDistribution(w, dist.tail_mass)


def _oracle_exchanges(params, atom, dist, kind, times) -> np.ndarray:
    """(atom, field) entropy changes of the oracle at each of ``times``, shape ``(2, times.size)``."""

    def entropies(t):
        # same truncation on both sides, so the tail cannot bias the comparison
        ora = oracle_evolve(params, atom, dist, t, n_cut=dist.n_max, warn_tol=1.0)
        return (
            ent.entropy_of([ora.atom_excited, ora.atom_ground], kind),
            ent.entropy_of(ora.field_weights, kind),
        )

    values = np.array([entropies(t) for t in [0.0, *times]]).T
    return values[:, 1:] - values[:, :1]


def _oracle_equivalence(perturb: float) -> list[CheckResult]:
    """The trace walk the CLI runs, sample by sample against the oracle's entropy changes.

    ``perturb`` moves photon weight from level 0 to level 1 of the
    distribution the walk gets, while the oracle keeps the true one.
    """
    results = []
    for label, params, atom, dist, kind, horizon, samples, rows in _oracle_configs():
        name = f"oracle-equivalence[{label}]"
        detail = f"n_max={dist.n_max} tail_mass={dist.tail_mass:.3e}"
        try:
            trace = ent.entropy_trace(params, atom, _perturbed(dist, perturb), kind,
                                      horizon=horizon, samples=samples)
        except ValueError as exc:
            # a shifted weight or a faulty walk can leave no probability list at all
            results.append(_check(name, math.inf, 1e-8, detail=f"{detail}; {exc}"))
            continue
        rows = list(rows)
        oracle = _oracle_exchanges(params, atom, dist, kind, trace.times[rows])
        walked = np.stack((trace.ds_atom[rows], trace.ds_field[rows]))
        results.append(_check(name, np.max(np.abs(walked - oracle)), 1e-8, detail=detail))
    return results


def _oracle_average(perturb: float) -> CheckResult:
    """The averages of a trace and of a one-row sweep against Simpson's rule over the oracle's samples.

    ``perturb`` shifts the walk's photon weights as for :func:`_oracle_equivalence`.
    """
    from scipy.integrate import simpson

    params = ModelParams.from_detuning(0.3, 2.0)
    dist = photon_weights_gibbs(_BETA_OMEGA, tail_tol=1e-12).truncated(25)
    # an even count, so the average takes Cartwright's last panel, on a step of
    # 1/8 that a misplaced panel moves by 8e-7; three full chunks of CHUNK_ROWS
    # and a short one, so it averages the rotation and the recurrence too
    atom, kind, horizon, samples = AtomInit(0.3), ent.VON_NEUMANN, 50.0, 400
    detail = f"n_max={dist.n_max} samples={samples}"
    times = np.linspace(0.0, horizon, samples)
    expected = simpson(_oracle_exchanges(params, atom, dist, kind, times), x=times) / horizon
    try:
        walked = _perturbed(dist, perturb)
        trace = ent.entropy_trace(params, atom, walked, kind, horizon=horizon, samples=samples)
        row = ent.bloch_sweep(params, [atom.epsilon], walked, kind,
                              horizon=horizon, samples=samples)[0]
    except ValueError as exc:
        return _check("oracle-average", math.inf, 1e-8, detail=f"{detail}; {exc}")
    averages = np.array([[trace.avg_ds_atom, trace.avg_ds_field], row])
    return _check("oracle-average", np.max(np.abs(averages - expected)), 1e-8, detail=detail)


def _structural_fuzz() -> list[CheckResult]:
    """Invariants of the arrays the walk reads, which hold at every t.

    ``A_n = (x - a1) + a1 cos`` and ``C_n = (y + a1) - a1 cos`` with ``(x, y)``
    the initial weights: the transfer cancels in each manifold's weight, and
    both stay non-negative where ``x - a1`` and ``y + a1`` cover ``|a1|``.
    """
    rng = np.random.default_rng(11)
    dev_cons = 0.0
    dev_total = 0.0
    dev_pos = 0.0
    for _ in range(_FUZZ_CASES):
        params = ModelParams.from_detuning(rng.uniform(-4, 4), rng.uniform(0.2, 3.0))
        eps = rng.uniform()
        beta = rng.uniform(0.3, 4.0)
        dist = photon_weights_gibbs(beta, tail_tol=1e-10)
        _, a1 = manifold_transfers(params, eps, dist)
        p = dist.weights
        excited, ground = eps * p[:-1], (1.0 - eps) * p[1:]
        fixed_a, fixed_c = excited - a1, ground + a1
        block = fixed_a + fixed_c
        dev_cons = max(dev_cons, float(np.max(np.abs(block - (excited + ground)))))
        total = (1.0 - eps) * p[0] + eps * p[-1] + float(np.sum(block)) + dist.tail_mass
        dev_total = max(dev_total, abs(total - 1.0))
        swing = np.abs(a1)
        lowest = min(np.min(fixed_a - swing), np.min(fixed_c - swing))
        dev_pos = max(dev_pos, -float(lowest))
    return [
        _check("block-conservation", dev_cons, 1e-10),
        _check("total-probability", dev_total, 1e-10),
        _check("block-positivity", dev_pos, 1e-12),
    ]


def _trace_zeroes() -> list[CheckResult]:
    """A trace's first samples, and a whole trace without coupling, are exchange-free."""
    dist = photon_weights_gibbs(_BETA_OMEGA, tail_tol=1e-10)
    results = []
    for name, lam, samples in (("exchange-zero-at-t0", 2.0, slice(0, 1)),
                               ("frozen-dynamics-flat-trace", 0.0, slice(None))):
        try:
            trace = ent.entropy_trace(ModelParams.from_detuning(0.0, lam), AtomInit(epsilon=0.3),
                                      dist, horizon=10.0, samples=101)
        except ValueError as exc:
            # a faulty walk can leave no probability list at all
            results.append(_check(name, math.inf, 1e-12, detail=str(exc)))
            continue
        dev = max(np.max(np.abs(trace.ds_atom[samples])), np.max(np.abs(trace.ds_field[samples])))
        results.append(_check(name, dev, 1e-12))
    return results


def _sweep_rows() -> CheckResult:
    """Each row of a sweep against its own trace's averages, bit for bit, under both entropies.

    129 samples of 37 levels walk the five weights as one group, through a
    chunk of ``CHUNK_ROWS`` samples and a chunk of one sample, which the
    walk scores one preparation at a time; a row that takes another
    preparation's transfers, moved weight or field entropies differs, and
    so does one whose last sample sums its levels plane by plane, as a
    group's one-sample block would.
    """
    params = ModelParams.from_detuning(0.3, 2.0)
    dist = photon_weights_gibbs(0.5, tail_tol=1e-8)
    epsilons = [0.6, 0.0, 0.9, 0.25, 1.0]
    grid = {"horizon": 10.0, "samples": 129}
    detail = f"n_max={dist.n_max} samples={grid['samples']} preparations={len(epsilons)}"
    devs = []
    try:
        for kind in (ent.VON_NEUMANN, ent.tsallis(1.3)):
            rows = ent.bloch_sweep(params, epsilons, dist, kind, **grid)
            for row, eps in zip(rows, epsilons):
                trace = ent.entropy_trace(params, AtomInit(eps), dist, kind, **grid)
                devs.append(np.abs(row - (trace.avg_ds_atom, trace.avg_ds_field)))
    except ValueError as exc:
        # a faulty walk can leave no probability list at all
        return _check("sweep-rows-equal-traces", math.inf, 0.0, detail=f"{detail}; {exc}")
    # np.max, not max, so that a NaN row fails
    return _check("sweep-rows-equal-traces", np.max(devs), 0.0, detail=detail)


def run_selfcheck(perturb: float = 0.0) -> list[CheckResult]:
    """Run every internal check.

    ``perturb`` moves that much photon weight from level 0 to level 1 of
    what the walk gets, to prove that the oracle checks see an error; the
    sweep check compares two walks of one state, so it walks the true one.
    """
    results = [_zeta_identities(), _manifold_identity()]
    results.extend(_oracle_equivalence(perturb))
    results.append(_oracle_average(perturb))
    results.extend(_structural_fuzz())
    results.extend(_trace_zeroes())
    results.append(_sweep_rows())
    return results
