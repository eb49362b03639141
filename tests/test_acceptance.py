"""Acceptance gate: one test per release criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pass/fail verdicts.
"""

import math
import time

import numpy as np
import pytest

import jcentropy as jc
from jcentropy.entropy import FieldEntropyForm
from jcentropy.jcm import _manifold_arrays
from oracle_utils import evolved_ac, gamma_brute_sums, populations

BETA_REF = math.log(11.0)  # physical beta*omega with mean occupancy 0.1 at q -> 1
RESONANT = jc.ModelParams.from_detuning(0.0, 2.0)

# q-average photon numbers at the reference temperature (reported values)
NBAR_EXPECTED = {1.2: 0.102773, 1.4: 0.100935, 1.6: 0.094662}


def report(line: str) -> None:
    print(f"\n{line}")


def test_criterion_1_q_average_photon_number():
    start = time.perf_counter()
    worst = 0.0
    for q, expected in NBAR_EXPECTED.items():
        beta_star = jc.calibrate_beta_star(q, BETA_REF)
        nbar = jc.mean_photon_q(jc.GammaSuperstat(q=q, beta_star=beta_star))
        worst = max(worst, abs(nbar - expected) / expected)
        assert nbar == pytest.approx(expected, rel=5e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"[PASS] criterion 1 (q-average photon number): max rel dev {worst:.2e} "
           f"(tol 0.5%) in {elapsed:.2f}s")


def test_criterion_2_temperature_monotonicity():
    start = time.perf_counter()
    t_star_grid = np.linspace(0.5, 10.0, 50)
    margin = np.inf
    for q in (1.2, 1.4, 1.6):
        for t_star in t_star_grid:
            beta = jc.physical_beta(jc.GammaSuperstat(q=q, beta_star=1.0 / t_star))
            t_phys = 1.0 / beta
            margin = min(margin, t_phys - t_star)
            assert t_phys >= t_star
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"[PASS] criterion 2 (T >= T* on 3x50 grid): min margin {margin:.3e} "
           f"in {elapsed:.2f}s")


def _criterion3_distributions():
    gibbs = jc.photon_weights_gibbs(BETA_REF, tail_tol=1e-33).truncated(30)
    q = 1.5
    beta_star = jc.calibrate_beta_star(q, BETA_REF)
    gamma = jc.photon_weights_gamma(
        jc.GammaSuperstat(q=q, beta_star=beta_star), tail_tol=1e-4, hard_cap=10**5
    ).truncated(30)
    return [("gibbs", gibbs, jc.VON_NEUMANN), ("gamma q=1.5", gamma, jc.tsallis(q))]


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    times = rng.uniform(0.0, 25.0 / 2.0, size=50)
    worst = 0.0
    for label, dist, kind in _criterion3_distributions():
        assert dist.n_max == 30
        for eps in (0.0, 1.0):
            atom = jc.AtomInit(epsilon=eps)
            for t in times:
                a, c = evolved_ac(RESONANT, eps, dist, t)
                ora = jc.oracle_evolve(RESONANT, atom, dist, t, n_cut=30, warn_tol=1.0)
                dev = max(
                    float(np.max(np.abs(a - ora.coeff_a))),
                    float(np.max(np.abs(c - ora.coeff_c))),
                )
                p_e, p_g, field = populations(eps, dist, a, c)
                dev = max(dev, abs(p_e - ora.atom_excited), abs(p_g - ora.atom_ground))
                s_atom = jc.entropy_of([p_e, p_g], kind)
                s_atom_o = jc.entropy_of([ora.atom_excited, ora.atom_ground], kind)
                s_field = jc.entropy_of(field, kind)
                s_field_o = jc.entropy_of(ora.field_weights, kind)
                dev = max(dev, abs(s_atom - s_atom_o), abs(s_field - s_field_o))
                worst = max(worst, dev)
                assert dev <= 1e-8, f"{label} eps={eps} t={t}: dev {dev:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"[PASS] criterion 3 (oracle equivalence, n_cut=30, 50 times): "
           f"max dev {worst:.3e} (tol 1e-8) in {elapsed:.2f}s")


def test_criterion_4_structural_invariants_fuzz():
    rng = np.random.default_rng(77)
    cases = 1000
    dev_angle = dev_conservation = dev_total = dev_zero = 0.0
    for i in range(cases):
        params = jc.ModelParams.from_detuning(rng.uniform(-4, 4), rng.uniform(0.2, 3.0))
        atom = jc.AtomInit(epsilon=rng.uniform())
        if i % 2:
            dist = jc.photon_weights_gibbs(rng.uniform(0.3, 4.0), tail_tol=1e-8)
        else:
            gs = jc.GammaSuperstat(q=rng.uniform(1.05, 1.95), beta_star=rng.uniform(0.5, 3.0))
            dist = jc.photon_weights_gamma(gs, tail_tol=1e-3, hard_cap=300)
        t = rng.uniform(0.0, 20.0)
        a, c = evolved_ac(params, atom.epsilon, dist, t)

        # sin(theta_n) delta_n = lam sqrt(n+1), to rounding relative to its square
        d, sin_theta = _manifold_arrays(params, dist.n_max)
        coupling = params.lam**2 * np.arange(1, dist.n_max + 1)
        dev_angle = max(dev_angle, float(np.max(np.abs((sin_theta * d) ** 2 / coupling - 1.0))))
        p = dist.weights
        dev_conservation = max(dev_conservation, float(np.max(np.abs(
            a + c - (atom.epsilon * p[:-1] + (1.0 - atom.epsilon) * p[1:])))))
        total = ((1.0 - atom.epsilon) * p[0] + atom.epsilon * p[-1]
                 + float(np.sum(a + c)) + dist.tail_mass)
        dev_total = max(dev_total, abs(total - 1.0))

        trace = jc.entropy_trace(params, atom, dist, horizon=t + 0.2, samples=3)
        dev_zero = max(dev_zero, abs(trace.ds_atom[0]), abs(trace.ds_field[0]))

    assert dev_angle <= 1e-12
    assert dev_conservation <= 1e-10
    assert dev_total <= 1e-10
    assert dev_zero <= 1e-12
    report(f"[PASS] criterion 4 (structural invariants, {cases} fuzz cases): "
           f"mixing-angle {dev_angle:.1e}, conservation {dev_conservation:.1e}, "
           f"total-probability {dev_total:.1e}, exchange-at-0 {dev_zero:.1e}")


def test_criterion_5_gibbs_limit_continuity():
    q = 1.0 + 1e-6
    beta_star = BETA_REF
    gs = jc.GammaSuperstat(q=q, beta_star=beta_star)
    gamma_dist = jc.photon_weights_gamma(gs, tail_tol=1e-10)
    gibbs_dist = jc.photon_weights_gibbs(beta_star, tail_tol=1e-10)

    n = min(gamma_dist.n_max, gibbs_dist.n_max) + 1
    dev_p = float(np.max(np.abs(gamma_dist.weights[:n] - gibbs_dist.weights[:n])))
    assert dev_p <= 1e-5

    dev_beta = abs(jc.physical_beta(gs) - beta_star) / beta_star
    assert dev_beta <= 1e-4

    grid = {"horizon": 10.0, "samples": 101}
    atom = jc.AtomInit(epsilon=0.4)
    deformed = jc.entropy_trace(RESONANT, atom, gamma_dist, jc.tsallis(q), **grid)
    plain = jc.entropy_trace(RESONANT, atom, gibbs_dist, jc.VON_NEUMANN, **grid)
    dev_s = max(
        float(np.max(np.abs(deformed.ds_atom - plain.ds_atom))),
        float(np.max(np.abs(deformed.ds_field - plain.ds_field))),
    )
    assert dev_s <= 1e-4
    report(f"[PASS] criterion 5 (q -> 1 continuity): weights {dev_p:.2e} (tol 1e-5), "
           f"entropies {dev_s:.2e} (tol 1e-4), physical beta {dev_beta:.2e} rel (tol 1e-4)")


def test_criterion_6_multilevel_degeneracy():
    beta = 3.0
    ml = jc.MultiLevelSuperstat(betas=(beta,) * 100)
    ml_dist = jc.photon_weights_multilevel(ml, tail_tol=1e-10)
    gibbs_dist = jc.photon_weights_gibbs(beta, tail_tol=1e-10)
    assert ml_dist.n_max == gibbs_dist.n_max
    dev_p = float(np.max(np.abs(ml_dist.weights - gibbs_dist.weights)))
    dev_tail = abs(ml_dist.tail_mass - gibbs_dist.tail_mass)

    grid = {"horizon": 12.5, "samples": 301}
    atom = jc.AtomInit(epsilon=1.0)
    tr_ml = jc.entropy_trace(RESONANT, atom, ml_dist, **grid)
    tr_gibbs = jc.entropy_trace(RESONANT, atom, gibbs_dist, **grid)
    dev_s = max(
        float(np.max(np.abs(tr_ml.ds_atom - tr_gibbs.ds_atom))),
        float(np.max(np.abs(tr_ml.ds_field - tr_gibbs.ds_field))),
    )
    assert dev_p <= 1e-12 and dev_tail <= 1e-12 and dev_s <= 1e-12
    report(f"[PASS] criterion 6 (equal-beta degeneracy): weights {dev_p:.2e}, "
           f"tail {dev_tail:.2e}, traces {dev_s:.2e} (tol 1e-12)")


def _qualitative_dist(q):
    if q == 1.0:
        return jc.photon_weights_gibbs(BETA_REF, tail_tol=1e-10), jc.VON_NEUMANN
    beta_star = jc.calibrate_beta_star(q, BETA_REF)
    dist = jc.photon_weights_gamma(
        jc.GammaSuperstat(q=q, beta_star=beta_star), tail_tol=1e-3
    )
    return dist, jc.tsallis(q)


def test_criterion_7_qualitative_figure_regimes():
    start = time.perf_counter()
    grid = {"horizon": 12.5, "samples": 1001}

    # (a) sign pattern at the south pole of the Bloch sphere (epsilon = 0)
    for q in (1.0, 1.6):
        dist, kind = _qualitative_dist(q)
        averages = jc.bloch_sweep(
            RESONANT, np.array([0.0]), dist, kind, FieldEntropyForm.FULL, **grid
        )
        avg_atom, avg_field = averages[0]
        assert avg_atom > 0.0, f"q={q}: avg atom exchange {avg_atom} not positive"
        assert avg_field < 0.0, f"q={q}: avg field exchange {avg_field} not negative"
        report(f"[PASS] criterion 7a (q={q}): avg dS_a={avg_atom:+.4f} > 0, "
               f"avg dS_b={avg_field:+.4f} < 0 at epsilon=0")

    # (b) reported (not asserted) trend of mean |total exchange| with q
    for form in (FieldEntropyForm.COARSE, FieldEntropyForm.FULL):
        for eps in (0.0, 1.0):
            magnitudes = []
            for q in (1.0, 1.2, 1.4, 1.6):
                dist, kind = _qualitative_dist(q)
                trace = jc.entropy_trace(
                    RESONANT, jc.AtomInit(epsilon=eps), dist, kind, form, **grid
                )
                magnitudes.append(float(np.mean(np.abs(trace.ds_total))))
            grows = all(b > a for a, b in zip(magnitudes, magnitudes[1:]))
            shrinks = all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
            trend = "grows" if grows else ("shrinks" if shrinks else "non-monotonic")
            values = ", ".join(f"{m:.4f}" for m in magnitudes)
            report(f"[REPORT] criterion 7b ({form.value} form, eps={eps:g}): "
                   f"mean |dS_total| over q in (1, 1.2, 1.4, 1.6) = [{values}] -> {trend}")

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(f"[PASS] criterion 7 runtime: {elapsed:.1f}s (< 120s)")


def test_criterion_8_special_function_regression():
    dev = max(
        abs(jc.hurwitz_zeta(2.0, 1.0) - math.pi**2 / 6.0),
        abs(jc.hurwitz_zeta(2.0, 0.5) - math.pi**2 / 2.0),
        abs(jc.hurwitz_zeta(1.7, 2.3 + 1.0) - (jc.hurwitz_zeta(1.7, 2.3) - 2.3**-1.7)),
    )
    assert dev <= 1e-10

    worst = 0.0
    for q in (1.2, 1.5, 1.9):
        for bsw in (0.5, 1.0, 3.0):
            closed = jc.mean_photon_q(jc.GammaSuperstat(q=q, beta_star=bsw))
            _, _, brute = gamma_brute_sums(q, bsw, 1.0, n_terms=4 * 10**6)
            worst = max(worst, abs(closed - brute) / abs(brute))
            assert closed == pytest.approx(brute, rel=1e-8)
    report(f"[PASS] criterion 8 (special functions): identities {dev:.1e} "
           f"(tol 1e-10), q-mean closed-vs-brute max rel dev {worst:.1e} (tol 1e-8)")
