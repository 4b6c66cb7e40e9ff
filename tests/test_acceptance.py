"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks the corresponding criterion as FAIL.
"""

import warnings

import numpy as np

from spdclab import crystal, hyptest, qstate, simulator, witness

SEVEN_PI_30 = 7 * np.pi / 30


def _announce(num, text):
    print(f"\n[criterion {num}] PASS - {text}")


def test_criterion_1_witness_identity():
    """Dense local-setting reconstruction equals the GHZ projector, n=2..6."""
    worst = 0.0
    for n in range(2, 7):
        target = np.zeros(2**n, dtype=complex)
        target[0] = target[-1] = 2**-0.5
        projector = np.outer(target, target.conj())
        dense = qstate.witness_decomposition(n).dense()
        worst = max(worst, float(np.abs(dense - projector).max()))
    assert worst < 1e-12
    _announce(1, f"witness identity for n=2..6, max entrywise deviation {worst:.2e}")


def test_criterion_2_fidelity_reproduction(reconstruction_dataset):
    """Shipped reconstruction: F = 0.606 +- 0.002, sigma in [0.025, 0.033]."""
    est = witness.estimate_fidelity(reconstruction_dataset)
    verdict = witness.entanglement_verdict(est)
    assert abs(est.value - 0.606) <= 0.002
    assert 0.025 <= est.sigma <= 0.033
    assert verdict.sigmas_above >= 3.5
    assert verdict.genuine
    _announce(2, f"fidelity {est.value:.4f} +- {est.sigma:.4f}, "
                 f"{verdict.sigmas_above:.2f} sigma above 0.5")


def test_criterion_3_pvalue_reproduction(trial_ledger):
    """Shipped ledger with F_exp = 0.606: bound in [3.3e-3, 4.0e-3]."""
    assert trial_ledger.f_exp == 0.606 and trial_ledger.f_0 == 0.5
    spread = hyptest.s_total(trial_ledger)
    result = hyptest.p_value_bound(trial_ledger)
    assert abs(spread - 0.0329) <= 0.0003
    assert 3.3e-3 <= result.bound <= 4.0e-3
    _announce(3, f"p-value bound {result.bound:.2e} ({result.branch}), "
                 f"normalized spread {spread:.5f}")


def test_criterion_4_fusion_algebra():
    """Five balanced pairs fuse to GHZ_10 at 1/16; unbalanced reference
    topology gives amplitudes (cos, sin)(7 pi/30), all within 1e-12."""
    bell_net = qstate.reference_network(theta_state=np.pi / 4)
    state, prob = qstate.fuse_and_postselect(bell_net)
    assert abs(prob - 1 / 16) < 1e-12
    assert np.abs(state.amps - qstate.ghz_state(10).amps).max() < 1e-12

    ref_state, _ = qstate.fuse_and_postselect(qstate.reference_network())
    assert abs(ref_state.amps[0] - np.cos(SEVEN_PI_30)) < 1e-12
    assert abs(ref_state.amps[-1] - np.sin(SEVEN_PI_30)) < 1e-12
    _announce(4, "balanced fusion -> GHZ_10 at 1/16; reference topology -> "
                 "(cos, sin)(7 pi/30)")


def test_criterion_5_rate_consistency():
    """Closed-form tenfold rate hits the published ~0.5/hour anchor and the
    Monte Carlo agrees with the formula within 10% at an inflated-p point."""
    mean_twofold = float(np.mean(simulator.REFERENCE_TWOFOLD_HZ))
    r_t = mean_twofold / 0.375**2  # back-solved total pair rate
    formula_ref = simulator.tenfold_rate(r_t, 0.375, 76e6)
    assert 0.35 <= formula_ref <= 0.65

    sources = tuple(simulator.SourceModel(
        pair_prob=0.3, xi_signal=1.0, xi_idler=1.0,
        theta_state=np.pi / 4, double_pair_factor=0.0) for _ in range(5))
    config = simulator.ExperimentConfig(
        sources=sources,
        interference=simulator.InterferenceModel((1.0,)),
        rep_rate_hz=76e6, seed=20260101)
    result = simulator.run_monte_carlo(config, 60_000_000, ["Z"])
    observed = result.rates["tenfold_per_hour_observed"]["Z"]
    events = result.diagnostics["events_per_setting"]["Z"]
    r_t_mc = sources[0].mean_pairs_per_pulse() * config.rep_rate_hz
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # inflated p is deliberate here
        formula_mc = simulator.tenfold_rate(r_t_mc, 1.0, config.rep_rate_hz)
    rel = abs(observed - formula_mc) / formula_mc
    assert events > 1500
    assert rel < 0.10
    _announce(5, f"formula {formula_ref:.3f}/hour at the published operating "
                 f"point; MC vs formula at inflated p: {100 * rel:.1f}% "
                 f"({events} events)")


def test_criterion_6_crystal_scalars(bbo, bibo, bibo_arms):
    """Effective nonlinearities, walk-offs and the minimal-walk-off region."""
    # BBO collinear type-II
    bbo_curve = crystal.phase_match_collinear(bbo, branch="lower")
    bbo_best = max(s.d_eff_pm_v for s in bbo_curve)
    assert abs(bbo_best - 1.15) / 1.15 < 0.10

    # BiBO maximal collinear type-II
    bibo_curve = crystal.phase_match_collinear(bibo)
    bibo_best = max(s.d_eff_pm_v for s in bibo_curve)
    assert abs(bibo_best - 1.94) / 1.94 < 0.10

    # non-collinear arm pair and pair-state angle
    lo, hi = sorted((bibo_arms.d_eff_fs, bibo_arms.d_eff_sf))
    assert abs(lo - 1.84) / 1.84 < 0.10
    assert abs(hi - 2.02) / 2.02 < 0.10
    angle = crystal.pair_state_angle(lo, hi)
    assert abs(angle - SEVEN_PI_30) / SEVEN_PI_30 < 0.015

    # walk-offs: BBO 780 nm extraordinary wave at its type-II angle;
    # the published BiBO triple reproduces at the pump wavelength at the cut
    theta_pm = bbo_curve[0].theta
    s_bbo = np.array([np.sin(theta_pm), 0.0, np.cos(theta_pm)])
    w_bbo = crystal.walkoff_angle(bbo.sellmeier, s_bbo, 780.0, crystal.FAST)
    assert abs(w_bbo - 0.072) / 0.072 < 0.10
    s_bibo = bibo.reference_cut.direction()
    w_fast = crystal.walkoff_angle(bibo.sellmeier, s_bibo, 390.0, crystal.FAST)
    w_slow = crystal.walkoff_angle(bibo.sellmeier, s_bibo, 390.0, crystal.SLOW)
    w_quad = float(np.hypot(w_fast, w_slow))
    assert abs(w_fast - 0.020) / 0.020 < 0.15
    assert abs(w_slow - 0.063) / 0.063 < 0.15
    assert abs(w_quad - 0.066) / 0.066 < 0.15

    # minimal-walk-off collinear region
    fine = crystal.phase_match_collinear(
        bibo, phi_grid=np.radians(np.arange(20.0, 23.01, 0.1)))
    sample = min(fine, key=lambda s: np.hypot(s.walkoff_fast, s.walkoff_slow))
    quad = float(np.hypot(sample.walkoff_fast, sample.walkoff_slow))
    assert abs(quad - 0.011) / 0.011 < 0.15
    assert abs(sample.d_eff_pm_v - 1.1) / 1.1 < 0.15
    _announce(6, f"d_eff: BBO {bbo_best:.3f}, BiBO max {bibo_best:.3f}, arms "
                 f"({lo:.3f}, {hi:.3f}), angle dev "
                 f"{100 * abs(angle - SEVEN_PI_30) / SEVEN_PI_30:.2f}%; "
                 f"walk-offs BBO {w_bbo:.4f}, BiBO ({w_fast:.4f}, {w_slow:.4f}, "
                 f"quad {w_quad:.4f}); min-walk-off region ({quad:.4f} rad, "
                 f"{sample.d_eff_pm_v:.3f} pm/V)")


def test_criterion_7_relative_pair_rate():
    """Shipped inputs reproduce 0.424 exactly; reciprocity and L-linearity."""
    inputs = crystal.load_rate_inputs()
    a, b = inputs["bibo_0p6mm"], inputs["bbo_2mm"]
    ratio = crystal.relative_pair_rate(a, b)
    assert abs(ratio - 0.424) < 1e-12
    assert abs(crystal.relative_pair_rate(a, b)
               * crystal.relative_pair_rate(b, a) - 1.0) < 1e-12
    stretched = crystal.RateInputs(a.label, a.d_eff_pm_v, 3.0 * a.length_mm,
                                   a.n_pump, a.n_signal, a.n_idler,
                                   a.delta_walkoff, a.omega)
    assert abs(crystal.relative_pair_rate(stretched, b) - 3.0 * ratio) < 1e-12
    _announce(7, f"rate ratio {ratio:.6f} (regression-locked), reciprocity "
                 f"and length-linearity exact")


def test_criterion_8_statistical_soundness(trial_ledger):
    """Over 1e5 synthetic null runs the empirical exceedance frequency never
    exceeds the computed bound at three thresholds."""
    rng = np.random.default_rng(314159)
    thresholds = (0.55, 0.58, 0.606)
    freq = hyptest.simulate_null_exceedance(trial_ledger, thresholds,
                                            100_000, rng)
    bounds = []
    for t, f in zip(thresholds, freq):
        ledger = hyptest.TrialLedger(trial_ledger.n, trial_ledger.n_z,
                                     trial_ledger.n_k, f_exp=t)
        bound = hyptest.p_value_bound(ledger).bound
        bounds.append(bound)
        assert f <= bound
    _announce(8, "empirical null exceedance vs bound: "
              + ", ".join(f"{f:.4f} <= {b:.4f}"
                          for f, b in zip(freq, bounds)))


def test_criterion_9_property_stand_ins():
    """Lab-scale quantities (300-hour acquisition, absolute brightness, the
    interference scan) are excluded from quantitative acceptance; their
    property stand-ins hold: visibility is monotone in the mode overlap and
    double-pair weight degrades the H/V-basis population fraction."""
    theta = SEVEN_PI_30

    def config(overlap, g, seed):
        sources = tuple(simulator.SourceModel(
            pair_prob=0.22, xi_signal=0.85, xi_idler=0.85, theta_state=theta,
            rotated=(i >= 3), double_pair_factor=g) for i in range(5))
        return simulator.ExperimentConfig(
            sources=sources,
            interference=simulator.InterferenceModel((overlap,)),
            rep_rate_hz=76e6, seed=seed)

    # monotone coherence visibility vs overlap (exact distributions; at g = 0
    # every event is clean)
    signs = np.array([1.0 - 2.0 * (bin(i).count("1") % 2) for i in range(1024)])
    vis = []
    for overlap in (0.3, 0.6, 0.9):
        probs = np.array(simulator._outcome_probabilities(config(overlap, 0.0, 1), ["M0"])["M0"])
        vis.append(float(np.dot(signs, probs) / probs.sum()))
    assert vis[0] < vis[1] < vis[2]

    # double-pair contamination strictly degrades the Z-basis signal fraction
    fractions = []
    for g in (0.0, 2.0, 8.0):
        res = simulator.run_monte_carlo(config(0.9, g, 99), 6_000_000, ["Z"])
        fractions.append(res.diagnostics["z_basis"]["population_fraction"])
    assert fractions[0] > fractions[1] > fractions[2]
    _announce(9, f"monotone visibility {[round(v, 3) for v in vis]} vs overlap; "
                 f"Z signal fraction {[round(f, 3) for f in fractions]} vs "
                 f"double-pair weight (desk-scale stand-ins for excluded "
                 f"lab-scale quantities)")
