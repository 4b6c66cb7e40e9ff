import hashlib
import json
import math
import sys
import time
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy import stats

from spdclab import qstate, simulator
from spdclab.cli import dataset_to_dict
from spdclab.errors import TopologyError
from spdclab.qstate import fuse_and_postselect
from spdclab.simulator import (
    DetectorModel,
    ExperimentConfig,
    InterferenceModel,
    SourceModel,
    config_from_dict,
    config_to_dict,
    overlap_for_visibility,
    reference_config,
    run_monte_carlo,
    sample_postselected,
    tenfold_rate,
)
from spdclab.witness import alpha_coefficients, setting_names

import einsum_reference
from per_pulse_oracle import Router, clean_events, enumerate_outcomes, trace_candidates

THETA_REF = 7 * np.pi / 30


def make_config(p=0.3, xi=1.0, theta=np.pi / 4, rotated_tail=0, overlap=1.0,
                g=0.0, dark=0.0, seed=11, rep=76e6):
    sources = tuple(
        SourceModel(pair_prob=p, xi_signal=xi, xi_idler=xi, theta_state=theta,
                    rotated=(i >= 5 - rotated_tail), double_pair_factor=g)
        for i in range(5)
    )
    return ExperimentConfig(
        sources=sources, interference=InterferenceModel((overlap,)),
        rep_rate_hz=rep, detector=DetectorModel(dark), seed=seed,
    )


def lossless(cfg):
    """cfg without losses, double pairs or dark counts: every candidate is clean."""
    return cfg._replace(detector=DetectorModel(), sources=tuple(
        s._replace(xi_signal=1.0, xi_idler=1.0, double_pair_factor=0.0)
        for s in cfg.sources))


def exact(cfg, settings):
    """The exact model's outcome probabilities per setting, as numpy arrays."""
    return {s: np.array(p) for s, p in simulator._outcome_probabilities(cfg, settings).items()}


def clean_distribution(cfg, setting):
    """The clean events' outcome distribution, from the exact model of lossless(cfg)."""
    probs = exact(lossless(cfg), [setting])[setting]
    return probs / probs.sum()


class TestSourceModel:
    def test_pair_number_probs(self):
        s = SourceModel(0.1, 0.5, 0.5, double_pair_factor=2.0)
        probs = s.pair_number_probs()
        assert abs(sum(probs) - 1.0) < 1e-14
        assert np.allclose(probs, np.array([1.0, 0.1, 0.02]) / 1.12)

    def test_mean_pairs(self):
        s = SourceModel(0.1, 0.5, 0.5, double_pair_factor=0.0)
        assert abs(s.mean_pairs_per_pulse() - 0.1 / 1.1) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceModel(1.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            SourceModel(0.1, 1.5, 0.5)


class TestInterferenceModel:
    def test_scalar_broadcasts_per_link(self):
        model = InterferenceModel((0.9,))
        assert model.per_link(4) == (0.9,) * 4
        assert abs(model.coherence_damping(4) - 0.9**4) < 1e-15

    def test_per_link_values(self):
        model = InterferenceModel((0.9, 0.8, 0.7, 1.0))
        assert abs(model.coherence_damping(4) - 0.9 * 0.8 * 0.7) < 1e-15
        with pytest.raises(ValueError):
            model.per_link(3)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            InterferenceModel((1.2,))


class TestHomVisibility:
    def test_limits(self):
        assert overlap_for_visibility(1.0) == 1.0
        assert overlap_for_visibility(0.0) == 0.0

    def test_reference_target(self):
        overlap = overlap_for_visibility(0.715)
        assert abs(overlap - 0.846) < 1e-3
        assert abs(overlap**2 - 0.715) < 1e-12   # v = overlap^2

    def test_domain(self):
        with pytest.raises(ValueError):
            overlap_for_visibility(1.2)


class TestTenfoldRate:
    def test_reference_point(self):
        # total pair rate back-solved from the mean published twofold rate
        mean_twofold = np.mean(simulator.REFERENCE_TWOFOLD_HZ)
        r_t = mean_twofold / 0.375**2
        assert abs(r_t - 4.16e6) / 4.16e6 < 0.01
        rate = tenfold_rate(r_t, 0.375, 76e6)
        assert 0.35 <= rate <= 0.65  # published anchor ~0.5 counts/hour

    def test_tenth_power_law_in_xi(self):
        base = tenfold_rate(1e6, 0.25, 76e6)
        assert abs(tenfold_rate(1e6, 0.5, 76e6) / base - 2**10) < 1e-9

    def test_xi_ratio_between_filtered_configs(self):
        # filtered vs unfiltered collection differ by (0.465/0.375)^10 ~ 8.6
        lo = tenfold_rate(1e6, 0.375, 76e6)
        hi = tenfold_rate(1e6, 0.465, 76e6)
        assert abs(hi / lo - (0.465 / 0.375) ** 10) < 1e-9

    def test_warns_outside_low_gain_regime(self):
        with pytest.warns(UserWarning, match="low-gain"):
            tenfold_rate(0.2 * 76e6, 1.0, 76e6)


class TestIdealOutputState:
    def test_reference_configuration(self):
        cfg = make_config(theta=THETA_REF, rotated_tail=2)
        st = fuse_and_postselect(cfg.network())[0]
        assert abs(st.amps[0] - np.cos(THETA_REF)) < 1e-12
        assert abs(st.amps[-1] - np.sin(THETA_REF)) < 1e-12

    def test_balanced_pairs_give_ghz(self):
        st = fuse_and_postselect(make_config(theta=np.pi / 4).network())[0]
        assert np.abs(st.amps - qstate.ghz_state(10).amps).max() < 1e-12


class TestPostselectedSampling:
    def test_z_basis_populations(self):
        cfg = make_config(theta=THETA_REF, rotated_tail=2, overlap=0.8)
        rng = np.random.default_rng(5)
        idx = sample_postselected(cfg, "Z", 200_000, rng)
        assert set(np.unique(idx)) <= {0, 1023}
        frac_h = np.mean(idx == 0)
        expect = np.cos(THETA_REF) ** 2
        assert abs(frac_h - expect) < 4 * np.sqrt(expect * (1 - expect) / idx.size)

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_mk_correlations_match_damped_coherence(self, k):
        """E_k = 2 cos sin * damping * (-1)^k for the two-component state."""
        overlap = 0.9
        cfg = make_config(theta=THETA_REF, rotated_tail=2, overlap=overlap)
        rng = np.random.default_rng(50 + k)
        n_events = 1_000_000
        idx = sample_postselected(cfg, f"M{k}", n_events, rng)
        bits = np.unpackbits(
            idx.astype(">u2").view(np.uint8).reshape(-1, 2), axis=1)[:, 6:]
        signs = 1.0 - 2.0 * (bits.sum(axis=1) % 2)
        c, s = np.cos(THETA_REF), np.sin(THETA_REF)
        expect = 2 * c * s * overlap**4 * (-1.0) ** k
        assert abs(signs.mean() - expect) < 3.0 / np.sqrt(n_events) + 1e-12

    def test_ideal_correlation_matches_exact_oracle(self):
        cfg = make_config(theta=THETA_REF, rotated_tail=2, overlap=1.0)
        st = fuse_and_postselect(cfg.network())[0]
        oracle = qstate.expectation(
            st, qstate.GlobalOperator(10, ((1.0, tuple([qstate.mk_operator(0, 10)] * 10)),)))
        rng = np.random.default_rng(8)
        idx = sample_postselected(cfg, "M0", 1_000_000, rng)
        bits = np.unpackbits(
            idx.astype(">u2").view(np.uint8).reshape(-1, 2), axis=1)[:, 6:]
        signs = 1.0 - 2.0 * (bits.sum(axis=1) % 2)
        assert abs(signs.mean() - oracle) < 4.0 / np.sqrt(idx.size)

    def test_zero_overlap_kills_coherence_not_populations(self):
        cfg0 = make_config(theta=THETA_REF, rotated_tail=2, overlap=0.0)
        cfg1 = make_config(theta=THETA_REF, rotated_tail=2, overlap=1.0)
        rng = np.random.default_rng(4)
        idx = sample_postselected(cfg0, "M0", 400_000, rng)
        bits = np.unpackbits(
            idx.astype(">u2").view(np.uint8).reshape(-1, 2), axis=1)[:, 6:]
        signs = 1.0 - 2.0 * (bits.sum(axis=1) % 2)
        assert abs(signs.mean()) < 4.0 / np.sqrt(idx.size)
        # Z distributions identical with and without coherence
        m0 = clean_distribution(cfg0, "Z")
        m1 = clean_distribution(cfg1, "Z")
        assert np.abs(m0 - m1).max() < 1e-15

    @pytest.mark.parametrize("overlap", [0.0, 0.4, 1.0])
    def test_distribution_is_born_rule_of_dephased_state(self, overlap):
        # a two-source ring, small enough for a dense density matrix
        sources = tuple(SourceModel(0.1, 1.0, 1.0, theta_state=THETA_REF + 0.2 * i)
                        for i in range(2))
        cfg = ExperimentConfig(
            sources=sources,
            interference=InterferenceModel((overlap,)), pbs_links=((2, 3),))
        psi = fuse_and_postselect(cfg.network())[0].amps
        rho = np.outer(psi, psi.conj())
        rho[0, -1] *= overlap
        rho[-1, 0] *= overlap
        for k in (None, 0, 1, 3):
            basis = np.eye(2) if k is None else qstate.mk_eigenbasis(k, 4)
            u = basis.conj().T
            for _ in range(3):
                u = np.kron(u, basis.conj().T)
            expect = np.real(np.diag(u @ rho @ u.conj().T))
            setting = "Z" if k is None else f"M{k}"
            np.testing.assert_allclose(clean_distribution(cfg, setting), expect,
                                       rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("cfg", [
        reference_config(),
        # theta in (pi/2, pi): ab < 0 with five sources, rotated or not
        make_config(theta=0.7 * np.pi, overlap=0.8),
        make_config(theta=0.6 * np.pi, rotated_tail=2, overlap=0.3),
        # and ab > 0 with two
        ExperimentConfig(sources=tuple(SourceModel(0.1, 1.0, 1.0, theta_state=0.6 * np.pi + 0.1 * i,
                                                   rotated=i == 1) for i in range(2)),
                         interference=InterferenceModel((0.7,)), pbs_links=((2, 3),)),
    ], ids=["reference", "theta-0.7pi", "theta-0.6pi-rotated", "two-sources"])
    def test_closed_form_equals_born_mixture(self, cfg):
        """The closed form equals the dephased dense state's Born probabilities."""
        rates = simulator._model_rates(cfg)
        for setting in setting_names(cfg.n_modes()):
            success, expect = clean_events(cfg, setting)
            assert rates["postselection_success_prob"] == success
            np.testing.assert_allclose(clean_distribution(cfg, setting), expect,
                                       rtol=0.0, atol=1e-15)

    def test_no_dense_born_distribution(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the simulator built a dense state or Born distribution")

        monkeypatch.setattr(qstate, "outcome_distribution", refuse)
        monkeypatch.setattr(qstate, "product_pair_state", refuse)
        cfg = reference_config()
        settings = setting_names(10)
        run_monte_carlo(cfg, 10**9, settings)
        simulator._model_rates(cfg)
        for setting in settings:
            sample_postselected(cfg, setting, 100, np.random.default_rng(1))

    def test_visibility_monotone_in_overlap(self):
        values = []
        for overlap in (0.3, 0.6, 0.9):
            cfg = make_config(theta=THETA_REF, rotated_tail=2, overlap=overlap)
            dist = clean_distribution(cfg, "M0")
            signs = np.array([1.0 - 2.0 * (bin(i).count("1") % 2) for i in range(1024)])
            values.append(float(np.dot(signs, dist)))
        assert values[0] < values[1] < values[2]


class TestRunMonteCarlo:
    def test_seed_determinism(self):
        cfg = make_config(p=0.25, xi=0.9, g=2.0, overlap=0.9, seed=123)
        r1 = run_monte_carlo(cfg, 300_000, ["Z", "M0"])
        r2 = run_monte_carlo(cfg, 300_000, ["Z", "M0"])
        def dump(r):
            return json.dumps({"counts": dataset_to_dict(r.counts, "simulated"),
                               "rates": r.rates, "diagnostics": r.diagnostics},
                              sort_keys=True)

        assert dump(r1) == dump(r2)

    def test_ideal_z_basis_outcomes(self):
        cfg = make_config(p=0.3, xi=1.0, theta=THETA_REF, rotated_tail=2, seed=3)
        res = run_monte_carlo(cfg, 2_000_000, ["Z"])
        hist = res.counts.z().histogram
        assert set(hist) <= {"H" * 10, "V" * 10}
        total = sum(hist.values())
        frac = hist.get("H" * 10, 0) / total
        expect = np.cos(THETA_REF) ** 2
        assert abs(frac - expect) < 4 * np.sqrt(expect * (1 - expect) / total)

    def test_rate_matches_formula_within_ten_percent(self):
        """Inflated-p test point against rep * (p xi^2)^5 / 16."""
        cfg = make_config(p=0.3, xi=1.0, theta=np.pi / 4, g=0.0, seed=21)
        pulses = 40_000_000
        res = run_monte_carlo(cfg, pulses, ["Z"])
        observed = res.rates["tenfold_per_hour_observed"]["Z"]
        r_t = cfg.sources[0].mean_pairs_per_pulse() * cfg.rep_rate_hz
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # deliberately outside low gain
            formula = tenfold_rate(r_t, 1.0, cfg.rep_rate_hz)
        assert res.diagnostics["events_per_setting"]["Z"] > 1000
        assert abs(observed - formula) / formula < 0.10

    def test_double_pairs_degrade_z_snr(self):
        base = dict(p=0.22, xi=0.85, theta=THETA_REF, rotated_tail=2,
                    overlap=0.9, seed=77)
        fractions = []
        for g in (0.0, 2.0, 8.0):
            res = run_monte_carlo(make_config(g=g, **base), 6_000_000, ["Z"])
            z = res.diagnostics["z_basis"]
            fractions.append(z["population_fraction"])
            if g == 0.0:
                assert z["rest"] == 0  # clean events only populate H^10/V^10
        assert fractions[0] > fractions[1] > fractions[2]

    def test_dark_counts_thin_events(self):
        base = dict(p=0.3, xi=1.0, theta=np.pi / 4, seed=5)
        clean = run_monte_carlo(make_config(dark=0.0, **base), 2_000_000, ["Z"])
        darkened = run_monte_carlo(make_config(dark=0.3, **base), 2_000_000, ["Z"])
        assert darkened.diagnostics["events_per_setting"]["Z"] < \
            clean.diagnostics["events_per_setting"]["Z"]

    def test_partial_settings_padded(self):
        cfg = make_config(seed=9)
        res = run_monte_carlo(cfg, 10_000, ["M3"])
        assert res.counts.m(3) is not None
        assert res.counts.z().total() == 0


#: the three configurations the exact model is checked on against the oracle
ORACLE_CONFIGS = {
    # demos/monte_carlo_run.py's bright configuration
    "demo_bright": dict(p=0.25, xi=1.0, g=0.5, overlap=overlap_for_visibility(0.715)),
    "g2_xi1": dict(p=0.25, xi=1.0, g=2.0, overlap=0.9),
    "g2_xi06_dark": dict(p=0.25, xi=0.6, g=2.0, overlap=0.9, dark=0.05),
}


def binned_chi2_pvalue(observed, probs):
    """Chi-square p-value of outcome counts (no-event bucket last).

    Outcomes are binned by their number of V letters; bins expecting fewer
    than five counts are pooled.
    """
    n = int(np.log2(probs.size - 1))
    bins = np.array([bin(i).count("1") for i in range(2**n)] + [n + 1])
    obs = np.bincount(bins, weights=observed, minlength=n + 2)
    exp = np.bincount(bins, weights=probs, minlength=n + 2) * observed.sum()
    sparse = exp < 5
    obs = np.append(obs[~sparse], obs[sparse].sum())
    exp = np.append(exp[~sparse], exp[sparse].sum())
    keep = exp > 0
    stat = float(np.sum((obs[keep] - exp[keep]) ** 2 / exp[keep]))
    return float(stats.chi2.sf(stat, keep.sum() - 1))


#: lossless, g = 0 and D = 1 with a = b to 1e-10: exact zeros round to -1e-19
ROUNDED_ZERO_CONFIG = dict(p=0.24, theta=np.pi / 4 - 1e-10, rotated_tail=2)

#: the chains ``test_equals_enumerated_trace`` checks, as (links, xi_signal, xi_idler, dark)
ENUMERATED_CHAINS = [
    (((2, 3),), 0.7, 0.63, 0.05),
    # a chain out of source order, with a signal on an odd mode
    (((3, 1), (1, 6)), 1.0, 0.8, 0.0),
]


def enumerated_chain_config(links, xi_signal, xi_idler, dark):
    n_src = (max(max(link) for link in links) - 1) // 2 + 1
    # sources differ, so a ring traversed the wrong way shows
    sources = tuple(
        SourceModel(pair_prob=0.2 + 0.1 * i, xi_signal=xi_signal,
                    xi_idler=xi_idler - 0.1 * i, theta_state=THETA_REF + 0.1 * i,
                    double_pair_factor=2.0)
        for i in range(n_src))
    return ExperimentConfig(sources=sources, pbs_links=links,
                            interference=InterferenceModel((0.9,)),
                            detector=DetectorModel(dark))


#: every configuration ``TestExactOutcomes`` runs the exact model on
EXACT_OUTCOME_CONFIGS = {
    **{f"oracle-{name}": lambda fields=fields: make_config(
        theta=THETA_REF, rotated_tail=2, **fields) for name, fields in ORACLE_CONFIGS.items()},
    **{f"enumerated-{i}": lambda chain=chain: enumerated_chain_config(*chain)
       for i, chain in enumerate(ENUMERATED_CHAINS)},
    "four-sources": lambda: enumerated_chain_config(((2, 3), (3, 5), (5, 7)), 0.9, 0.8, 0.02),
    "reference": reference_config,
    "reordered-links": lambda: reference_config()._replace(
        pbs_links=((3, 5), (9, 7), (2, 3), (7, 5))),
    "no-double-pairs": lambda: make_config(p=0.22, xi=0.85, theta=THETA_REF, rotated_tail=2,
                                           overlap=0.9, g=0.0, dark=0.1),
    "rounded-zero": lambda: make_config(**ROUNDED_ZERO_CONFIG),
    "ideal": make_config,
}


def poisson_law(n_pairs):
    """A ``pair_number_probs`` of up to ``n_pairs`` pairs: weights p^k / k!, the
    default law at g = 1/2 when ``n_pairs`` is 2."""
    def pair_number_probs(self):
        w = [self.pair_prob**k / math.factorial(k) for k in range(n_pairs + 1)]
        total = sum(w)
        return tuple(x / total for x in w)
    return pair_number_probs


def assert_equals_einsum_reference(cfg, settings, atol=0.0):
    """The plain-Python ring and its coherence equal the einsum contraction."""
    probs = simulator._outcome_probabilities(cfg, settings)
    expected = einsum_reference.outcome_probabilities(cfg, settings)
    for setting in settings:
        np.testing.assert_allclose(probs[setting], expected[setting], rtol=1e-13, atol=atol)


class TestExactOutcomes:
    @pytest.mark.parametrize("setting", ["Z", "M3"])
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_matches_per_pulse_oracle(self, name, setting):
        cfg = make_config(theta=THETA_REF, rotated_tail=2, **ORACLE_CONFIGS[name])
        probs = exact(cfg, [setting])[setting]
        probs = np.append(probs, 1.0 - probs.sum())
        observed = trace_candidates(cfg, setting, 20_000, np.random.default_rng(6))
        # the oracle never records an outcome the exact model rules out
        assert observed[probs == 0.0].sum() == 0
        assert binned_chi2_pvalue(observed, probs) > 1e-3

    @pytest.mark.parametrize("links, xi_signal, xi_idler, dark", ENUMERATED_CHAINS)
    def test_equals_enumerated_trace(self, links, xi_signal, xi_idler, dark):
        cfg = enumerated_chain_config(links, xi_signal, xi_idler, dark)
        settings = ("Z", "M0", "M1")
        probs = simulator._outcome_probabilities(cfg, settings)
        for setting in settings:
            np.testing.assert_allclose(probs[setting], enumerate_outcomes(cfg, setting),
                                       rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("links", [
        ((5, 7), (2, 3), (3, 5), (7, 9)),
        ((2, 3), (7, 9), (5, 3), (5, 7)),
        ((3, 5), (9, 7), (2, 3), (7, 5)),
    ])
    def test_link_order_leaves_probabilities_unchanged(self, links):
        settings = ("Z", "M0", "M3")

        expected = simulator._outcome_probabilities(reference_config(), settings)
        probs = simulator._outcome_probabilities(
            reference_config()._replace(pbs_links=links), settings)
        for setting in settings:
            assert np.array_equal(probs[setting], expected[setting])

    def test_classical_part_vanishes_without_double_pairs(self):
        """Without double pairs the ring holds the clean populations alone.

        Every candidate that is not clean at every source has lost a
        photon, so leaves a path dark; the all-clean ones route to the
        Z ends with weights a^2 and b^2, and uniformly in M_k.
        """
        xi, dark = 0.85, 0.1
        cfg = make_config(p=0.22, xi=xi, theta=THETA_REF, rotated_tail=2,
                          overlap=0.9, g=0.0, dark=dark)
        layout = simulator._ring_layout(cfg)
        tables = [simulator._source_table(cfg.sources[p]) for p, _, _ in layout]
        settings = ("Z", "M0", "M7")
        # success times the clean events' distribution
        clean = exact(lossless(cfg), settings)
        weight = (xi * xi) ** 5
        ring_z = np.array(simulator._classical_part(layout, tables, True))
        assert not ring_z[1:-1].any()
        np.testing.assert_allclose(ring_z[[0, -1]], weight * clean["Z"][[0, -1]],
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(simulator._classical_part(layout, tables, False),
                                   weight * clean["Z"].sum() / 2**10,
                                   rtol=1e-13, atol=0.0)
        probs = simulator._outcome_probabilities(cfg, settings)
        for setting in settings:
            expect = weight * clean[setting] * (1.0 - dark) ** 10
            np.testing.assert_allclose(probs[setting], expect, rtol=1e-13, atol=0.0)

    def test_rounded_zeros_clamped_in_outcome_probabilities(self):
        """An exact zero that the ring and the coherence round below 0 is drawn as 0.

        With a = b and D = 1 the odd-parity M_k outcomes have probability
        exactly 0, but the populations and the coherence are rounded apart.
        The first loop checks that this config does round them below 0.
        """
        cfg = make_config(**ROUNDED_ZERO_CONFIG)
        settings = setting_names(10)
        layout = simulator._ring_layout(cfg)
        tables = [simulator._source_table(cfg.sources[p]) for p, _, _ in layout]
        a, b, success = simulator._fused_amplitudes(cfg)
        parity = np.array([1.0 - 2.0 * (bin(i).count("1") % 2) for i in range(1024)])
        ring = np.array(simulator._classical_part(layout, tables, False))
        for k in range(10):
            # g = 0 and lossless arms: every candidate is clean; D = 1
            coherence = (-1) ** k * 2.0 * a * b / 2**10 * parity
            assert (ring + success * coherence).min() < 0.0
        probs = exact(cfg, settings)
        assert min(p.min() for p in probs.values()) >= 0.0
        res = run_monte_carlo(cfg, 10**6, settings)
        assert min(res.diagnostics["events_per_setting"].values()) > 0

    def test_rounded_zeros_clamped_in_clean_distribution(self):
        cfg = make_config(**ROUNDED_ZERO_CONFIG)
        for setting in setting_names(10):
            assert clean_distribution(cfg, setting).min() >= 0.0
            idx = sample_postselected(cfg, setting, 1000, np.random.default_rng(2))
            assert idx.size == 1000

    @pytest.mark.parametrize("name", sorted(EXACT_OUTCOME_CONFIGS))
    def test_equals_einsum_reference(self, name):
        cfg = EXACT_OUTCOME_CONFIGS[name]()
        assert_equals_einsum_reference(cfg, setting_names(cfg.n_modes()))

    @pytest.mark.parametrize("name", sorted(EXACT_OUTCOME_CONFIGS))
    @pytest.mark.parametrize("n_pairs", [3, 4])
    def test_equals_einsum_reference_beyond_two_pairs(self, monkeypatch, n_pairs, name):
        """Only ``pair_number_probs`` knows the number of pairs: with three or
        four, the two-state ring still equals the einsum contraction, whose
        received axis grows with the pair number."""
        monkeypatch.setattr(SourceModel, "pair_number_probs", poisson_law(n_pairs))
        cfg = EXACT_OUTCOME_CONFIGS[name]()
        assert len(cfg.sources[0].pair_number_probs()) == n_pairs + 1
        assert_equals_einsum_reference(cfg, setting_names(cfg.n_modes()),
                                       atol=sys.float_info.min)

    #: SHA-256 over ``float.hex`` of every exact outcome probability, settings in
    #: order.  The count digests move only when a draw moves, so these are what
    #: sees a last-digit change; a refactor of the contraction keeps them, and
    #: only a stated change of the model's rounding may update them
    EXACT_DIGESTS = {
        "reference": "3a6c00e75de32f1dde187a126bce5a2a2ef339ce44fbf6f3129a2fe80c9d1ac0",
        "bright": "eca000b809e1e62924e46032887c97a450dc125879af186d9d227ae762121278",
        "reference-three-pairs":
            "c8bf61070543d518361e76e13e7ba3b0a3fa84187d8c6a2f0c907e1ead553c43",
    }

    @pytest.mark.parametrize("case", sorted(EXACT_DIGESTS))
    def test_exact_lists_pinned(self, monkeypatch, case):
        """The reference config, the bright config of ``simulate``'s pinned output,
        and the reference config under a three-pair law give exactly the pinned
        outcome probabilities."""
        if case == "bright":
            cfg = make_config(p=0.22, xi=0.8, overlap=0.85, g=2.0, dark=0.003)
        else:
            if case == "reference-three-pairs":
                monkeypatch.setattr(SourceModel, "pair_number_probs", poisson_law(3))
            cfg = reference_config()
        settings = setting_names(cfg.n_modes())
        lists = simulator._outcome_probabilities(cfg, settings)
        text = " ".join(p.hex() for s in settings for p in lists[s])
        assert hashlib.sha256(text.encode()).hexdigest() == self.EXACT_DIGESTS[case]

    def test_residues_of_zero_draw_like_zeros(self, monkeypatch):
        """An outcome at a rounding residue of 0 gets the counts an exact 0 gets.

        On the ideal config (g = 0, xi = 1, D = 1, theta = pi/4) the M_k
        outcomes whose parity is not k's are exactly 0, which another rounding
        of the same sums can turn into 8.5e-36.  Give them that residue: every
        histogram and diagnostic stays byte-identical.
        """
        cfg = make_config(seed=5)
        settings = setting_names(10)
        lists = simulator._outcome_probabilities(cfg, settings)
        assert all(lists[f"M{k}"].count(0.0) == 512 for k in range(10))

        def dump(result):
            return json.dumps({"counts": dataset_to_dict(result.counts, "simulated"),
                               "diagnostics": result.diagnostics}, sort_keys=True)

        zeros = dump(run_monte_carlo(cfg, 10**9, settings))
        monkeypatch.setattr(simulator, "_outcome_probabilities", lambda config, names: {
            s: [p if p or s == "Z" else 8.5e-36 for p in lists[s]] for s in names})
        assert dump(run_monte_carlo(cfg, 10**9, settings)) == zeros

    def test_cost_does_not_grow_with_pulses(self):
        cfg = reference_config()
        settings = ["Z"] + [f"M{k}" for k in range(10)]
        start = time.perf_counter()
        res = run_monte_carlo(cfg, 10**12, settings)
        assert time.perf_counter() - start < 0.5
        assert res.pulses_per_setting == 10**12

    def test_pulse_count_bounds(self):
        cfg = make_config()
        for pulses in (0, simulator.MAX_PULSES + 1):
            with pytest.raises(ValueError):
                run_monte_carlo(cfg, pulses, ["Z"])
        res = run_monte_carlo(cfg, simulator.MAX_PULSES, ["Z"])
        assert res.diagnostics["candidates_per_setting"]["Z"] > 0


def chain_links(draw, n_src):
    """Links of a chain that visits the sources in any order, through either mode of each."""
    signals = [2 * p + draw(st.sampled_from((1, 2)))
               for p in draw(st.permutations(range(n_src)))]
    return tuple(zip(signals, signals[1:]))


@st.composite
def small_configs(draw):
    """Valid 2-source configs, or 3-source ones with lossless arms.

    The enumerated trace grows as 72^sources with lossy arms and 6^sources
    without, so these keep it small.
    """
    n_src = draw(st.integers(2, 3))
    efficiency = st.just(1.0) if n_src == 3 else st.floats(0.0, 1.0)
    # theta near 0 on one unrotated and one rotated source leaves no fused
    # state (cos theta sin theta underflows), which simulate reports as exit 4
    theta = st.floats(1e-9, 2.0 * np.pi)
    sources = tuple(SourceModel(
        pair_prob=draw(st.floats(0.01, 0.9)), xi_signal=draw(efficiency),
        xi_idler=draw(efficiency), theta_state=draw(theta),
        rotated=draw(st.booleans()), double_pair_factor=draw(st.floats(0.0, 4.0)))
        for _ in range(n_src))
    links = chain_links(draw, n_src)
    overlaps = tuple(draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0))) for _ in links)
    return ExperimentConfig(sources=sources, pbs_links=links,
                            interference=InterferenceModel(overlaps),
                            detector=DetectorModel(draw(st.floats(0.0, 0.5))))


@st.composite
def coherent_configs(draw):
    """2-6 sources without double pairs, distinguishability or dark counts.

    p, xi, theta, ``rotated`` and the chain order are random.
    """
    n_src = draw(st.integers(2, 6))
    sources = tuple(SourceModel(
        pair_prob=draw(st.floats(0.01, 0.9)), xi_signal=draw(st.floats(0.1, 1.0)),
        xi_idler=draw(st.floats(0.1, 1.0)), theta_state=draw(st.floats(1e-9, 2.0 * np.pi)),
        rotated=draw(st.booleans()), double_pair_factor=0.0)
        for _ in range(n_src))
    return ExperimentConfig(sources=sources, pbs_links=chain_links(draw, n_src),
                            interference=InterferenceModel((1.0,)))


@st.composite
def double_pair_configs(draw, theta=st.floats(0.1, 1.4)):
    """2-5 sources with double pairs (g > 0), random efficiencies, overlaps,
    dark counts, pair states (each angle drawn from ``theta``) and chain order."""
    n_src = draw(st.integers(2, 5))
    sources = tuple(SourceModel(
        pair_prob=draw(st.floats(0.01, 0.9)), xi_signal=draw(st.floats(0.05, 1.0)),
        xi_idler=draw(st.floats(0.05, 1.0)), theta_state=draw(theta),
        rotated=draw(st.booleans()), double_pair_factor=draw(st.floats(0.1, 4.0)))
        for _ in range(n_src))
    links = chain_links(draw, n_src)
    overlaps = tuple(draw(st.floats(0.0, 1.0)) for _ in links)
    return ExperimentConfig(sources=sources, pbs_links=links,
                            interference=InterferenceModel(overlaps),
                            detector=DetectorModel(draw(st.floats(0.0, 0.5))))


@st.composite
def ring_configs(draw):
    """2-6 sources with every parameter random: double pairs, efficiencies,
    overlaps, dark counts, pair states and chain order."""
    n_src = draw(st.integers(2, 6))
    sources = tuple(SourceModel(
        pair_prob=draw(st.floats(0.01, 0.9)), xi_signal=draw(st.floats(0.0, 1.0)),
        xi_idler=draw(st.floats(0.0, 1.0)), theta_state=draw(st.floats(0.1, 1.4)),
        rotated=draw(st.booleans()), double_pair_factor=draw(st.floats(0.0, 4.0)))
        for _ in range(n_src))
    links = chain_links(draw, n_src)
    overlaps = tuple(draw(st.floats(0.0, 1.0)) for _ in links)
    return ExperimentConfig(sources=sources, pbs_links=links,
                            interference=InterferenceModel(overlaps),
                            detector=DetectorModel(draw(st.floats(0.0, 0.5))))


@st.composite
def pair_laws(draw, max_pairs=5):
    """P(k) for k = 0 .. K, K from 1 to ``max_pairs``, with P(1) > 0."""
    n_pairs = draw(st.integers(1, max_pairs))
    w = [draw(st.floats(0.0, 1.0)), draw(st.floats(0.01, 1.0)),
         *(draw(st.floats(0.0, 1.0)) for _ in range(n_pairs - 1))]
    total = sum(w)
    return tuple(x / total for x in w)


def moved_along_chain(cfg):
    """(cfg with the source at each chain position moved one position on,
    cyclically, the links kept; each outcome index of cfg -> its index there)."""
    layout = simulator._ring_layout(cfg)
    sources = list(cfg.sources)
    for i, (p, _, _) in enumerate(layout):
        sources[layout[(i + 1) % len(layout)][0]] = cfg.sources[p]
    n = cfg.n_modes()
    moves = [(n - signal, n - layout[(i + 1) % len(layout)][1], n - idler,
              n - layout[(i + 1) % len(layout)][2])
             for i, (_, signal, idler) in enumerate(layout)]
    index = [sum(((x >> s) & 1) << s_to | ((x >> d) & 1) << d_to for s, s_to, d, d_to in moves)
             for x in range(2**n)]
    return cfg._replace(sources=tuple(sources)), np.array(index)


def exact_fidelity(cfg) -> float:
    """The witness's F from the exact outcome probabilities, each setting normalized."""
    n = cfg.n_modes()
    probs = exact(cfg, setting_names(n))
    signs = np.array([1.0 - 2.0 * (bin(i).count("1") % 2) for i in range(2**n)])
    z = probs["Z"]
    correlations = [signs @ probs[f"M{k}"] / probs[f"M{k}"].sum() for k in range(n)]
    return 0.5 * (z[0] + z[-1]) / z.sum() + float(np.dot(alpha_coefficients(n), correlations))


class TestExactModelProperties:
    @hyp_settings(max_examples=40, deadline=None)
    @given(st.builds(SourceModel, pair_prob=st.floats(0.01, 0.9),
                     xi_signal=st.floats(0.0, 1.0), xi_idler=st.floats(0.0, 1.0),
                     theta_state=st.floats(0.1, 1.4), rotated=st.booleans()),
           pair_laws())
    def test_source_table_of_photon_counts(self, src, law):
        """Given emission, the source table is a law of surviving photon counts.

        Its weights sum to 1; each of the E[k | emit] pairs is HH with
        probability P_HH and its signal survives with xi_s, so the mean number
        of surviving H signals is E[k | emit] P_HH xi_s, and that of V idlers
        E[k | emit] P_VV xi_i; and its clean weight is the enumeration's.
        """
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SourceModel, "pair_number_probs", lambda self: law)
            photons, clean = simulator._source_table(src)
            rows = einsum_reference.source_rows(src)
        assert abs(math.fsum(photons.values()) - 1.0) <= 1e-15
        mean_pairs = math.fsum(k * q for k, q in enumerate(law)) / math.fsum(law[1:])
        p_hh, p_vv = src.branch_probs()
        h_signals = math.fsum(w * counts[0] for counts, w in photons.items())
        v_idlers = math.fsum(w * counts[3] for counts, w in photons.items())
        assert h_signals == pytest.approx(mean_pairs * p_hh * src.xi_signal, rel=1e-14, abs=1e-15)
        assert v_idlers == pytest.approx(mean_pairs * p_vv * src.xi_idler, rel=1e-14, abs=1e-15)
        assert clean == pytest.approx(math.fsum(rows[rows[:, 5] == 1, 0]), rel=1e-14, abs=0.0)

    @hyp_settings(max_examples=60, deadline=None)
    @given(small_configs())
    def test_probabilities_bounded(self, cfg):
        settings = setting_names(cfg.n_modes())
        probs = exact(cfg, settings)
        for setting in settings:
            assert probs[setting].min() >= 0.0
            assert probs[setting].max() <= 1.0
            # the sum may round a few ulps past 1
            assert probs[setting].sum() <= 1.0 + 1e-14

    @hyp_settings(max_examples=20, deadline=None)
    @given(small_configs(), st.data())
    def test_equals_enumerated_trace(self, cfg, data):
        k = data.draw(st.integers(0, cfg.n_modes() - 1))
        settings = ("Z", f"M{k}")
        probs = simulator._outcome_probabilities(cfg, settings)
        for setting in settings:
            np.testing.assert_allclose(probs[setting], enumerate_outcomes(cfg, setting),
                                       rtol=0.0, atol=1e-14)

    @hyp_settings(max_examples=20, deadline=None)
    @given(coherent_configs())
    def test_closed_form_limit_is_fused_state_fidelity(self, cfg):
        """At g = 0, D = 1 and no dark counts, F is the fused pure state's fidelity.

        Without double pairs a candidate that lost a photon leaves a path
        dark, so every event is clean and each normalized setting is the
        fused state a|H...H> + b|V...V>'s: Z finds a^2 + b^2 = 1 at its
        ends and M_k has parity (-1)^k 2ab.  With alpha_k = (-1)^k / (2n),
        F = 1/2 + ab = (a + b)^2 / 2.
        """
        state = fuse_and_postselect(cfg.network())[0]
        a, b = state.amps[0].real, state.amps[-1].real
        assert abs(exact_fidelity(cfg) - (a + b) ** 2 / 2) <= 1e-14

    @hyp_settings(max_examples=40, deadline=None)
    @given(double_pair_configs(), st.data())
    def test_classical_part_adds_no_parity(self, cfg, data):
        """The classical part adds exactly 0 to every M_k parity sum.

        In an M_k setting every photon leaves either port of its analyzer
        with probability 1/2, so ``_path_weights`` gives both bits of a path
        the same weight, a source's four transfer matrices are equal, and
        the classical part is one number, trace(prod_i T_i), for every
        outcome.  So sum_x (-1)^|x| p(x) is 0 by construction: half of the
        2^n outcomes have each parity, and ``math.fsum`` adds the equal
        terms without rounding.  Only the clean events'
        coherence is left in the setting's parity sum: (1 - d)^n W 2abD
        (-1)^k, W the probability that every source is clean times the
        post-selection success.
        """
        n = cfg.n_modes()
        parity = 1.0 - 2.0 * (np.indices((2,) * n).sum(axis=0).ravel() % 2)
        layout = simulator._ring_layout(cfg)
        tables = [simulator._source_table(cfg.sources[p]) for p, _, _ in layout]
        classical = np.array(simulator._classical_part(layout, tables, False))
        assert classical.sum() > 0.0
        assert math.fsum(parity * classical) == 0.0

        k = data.draw(st.integers(0, n - 1))
        probs = simulator._outcome_probabilities(cfg, [f"M{k}"])[f"M{k}"]
        a, b, success = simulator._fused_amplitudes(cfg)
        clean = math.prod(clean for _, clean in tables) * success
        coherence = (-1) ** k * clean * 2.0 * a * b * cfg.interference.coherence_damping(
            len(cfg.pbs_links))
        thinning = (1.0 - cfg.detector.dark_count_prob) ** n
        assert abs(math.fsum(parity * probs) - thinning * coherence) <= 1e-15

    @hyp_settings(max_examples=40, deadline=None)
    @given(double_pair_configs(), st.one_of(st.none(), pair_laws(max_pairs=4)))
    def test_z_ends_in_closed_form(self, cfg, law):
        """The all-H and all-V Z outcomes are products of one factor per source.

        Derivation.  The chain path at each position holds the H signals of
        its own source and the V signals of the next one, and a path fires H
        under Z only when it holds H photons and no V ones.  So all-H needs
        every source to send no V signal, to keep at least one H signal for
        its own path, and to have at least one H idler and no V idler.
        Given emission, a source takes k pairs with P(k | emit), h of them
        HH with C(k, h) P_HH^h P_VV^(k - h), and each photon survives on its
        own, so that source's factor is

            P_s = sum_k P(k | emit) sum_h C(k, h) P_HH^h P_VV^(k - h)
                  (1 - (1 - xi_s)^h) (1 - xi_s)^(k - h)
                  (1 - (1 - xi_i)^h) (1 - xi_i)^(k - h).

        Sources are independent and dark counts thin every event by
        (1 - d)^n, and Z adds no coherence: Z[0] = (1 - d)^n prod_s P_s.
        All-V needs every path to receive a V signal and hold no H one, so
        every source sends at least one V signal and keeps no H one, with at
        least one V idler and no H idler: the same with H and V swapped.
        ``law``, when drawn, replaces every source's pair-number law.
        """
        def factor(src, first, second):
            probs = src.pair_number_probs()
            emit = math.fsum(probs[1:])
            xi_s, xi_i = src.xi_signal, src.xi_idler
            return math.fsum(
                probs[k] / emit * math.comb(k, h) * first**h * second ** (k - h)
                * (1.0 - (1.0 - xi_s) ** h) * (1.0 - xi_s) ** (k - h)
                * (1.0 - (1.0 - xi_i) ** h) * (1.0 - xi_i) ** (k - h)
                for k in range(1, len(probs)) for h in range(k + 1))

        with pytest.MonkeyPatch.context() as mp:
            if law is not None:
                mp.setattr(SourceModel, "pair_number_probs", lambda self: law)
            z = simulator._outcome_probabilities(cfg, ["Z"])["Z"]
            thinning = (1.0 - cfg.detector.dark_count_prob) ** cfg.n_modes()
            all_h = thinning * math.prod(factor(s, *s.branch_probs()) for s in cfg.sources)
            all_v = thinning * math.prod(factor(s, *s.branch_probs()[::-1]) for s in cfg.sources)
        assert z[0] == pytest.approx(all_h, rel=1e-13, abs=0.0)
        assert z[-1] == pytest.approx(all_v, rel=1e-13, abs=0.0)

    @hyp_settings(max_examples=25, deadline=None)
    @given(double_pair_configs(theta=st.builds(lambda t, q: t + q * np.pi / 2,
                                               st.floats(0.1, 1.4), st.integers(0, 3))),
           st.data())
    def test_fidelity_affine_in_each_overlap(self, cfg, data):
        """The exact F is affine in each link's overlap, with a slope of the sign of ab.

        Derivation.  The overlaps enter only through their product D, and D
        only through the clean events' coherence.  The Z populations are the
        classical part alone, so they do not depend on D.  In M_k the
        coherence adds (-1)^(k + |x|) (1 - d)^n W 2abD / 2^n to outcome x,
        which sums to 0 over the 2^n outcomes, so the setting's total T does
        not depend on D either; and the classical part adds 0 to the parity
        sum (``test_classical_part_adds_no_parity``).  So E_k = (-1)^k (1 -
        d)^n W 2abD / T, and with alpha_k = (-1)^k / (2n)

            F = F_Z + sum_k alpha_k E_k = F_Z + (1 - d)^n W ab D / T,

        affine in D.  With the other links' overlaps fixed, D is one overlap
        times their product, so F is affine in that overlap with a slope of
        the sign of ab.  F does not fall as an overlap rises where ab >= 0,
        and does not rise where ab <= 0.
        """
        j = data.draw(st.integers(0, len(cfg.pbs_links) - 1))
        overlaps = list(cfg.interference.mode_overlap)
        fidelity = []
        for overlap in (0.0, 0.3, 1.0):
            overlaps[j] = overlap
            fidelity.append(exact_fidelity(
                cfg._replace(interference=InterferenceModel(tuple(overlaps)))))
        slopes = ((fidelity[1] - fidelity[0]) / 0.3, (fidelity[2] - fidelity[1]) / 0.7)
        assert abs(slopes[0] - slopes[1]) <= 1e-12
        a, b, _ = simulator._fused_amplitudes(cfg)
        assert slopes[0] * math.copysign(1.0, a * b) >= -1e-12


    @hyp_settings(max_examples=25, deadline=None)
    @given(ring_configs())
    def test_equals_einsum_reference(self, cfg):
        """Agreement to rtol 1e-13 in the normal range of doubles.  Below it a
        double holds 5e-324 absolute, not a relative precision: a g of 2.2e-313
        gives probabilities of 1.2e-315 that the two contractions round apart
        in their ninth digit."""
        assert_equals_einsum_reference(cfg, setting_names(cfg.n_modes()),
                                       atol=sys.float_info.min)

    @hyp_settings(max_examples=25, deadline=None)
    @given(double_pair_configs())
    def test_moving_sources_along_the_chain_relabels_outcomes(self, cfg):
        """Moving every source one position along the chain permutes the outcome
        bits and leaves the exact F unchanged.

        Derivation.  Let position i of the chain hold source p_i, with its
        signal on chain mode s_i and its idler on mode d_i; move the source at
        i to i + 1 (mod N) and keep the links.  The classical routing is a
        ring: the path at i holds the H signals of the source at i and the V
        signals of the source at i + 1, so after the move the path at i + 1
        holds what the path at i held, and each idler is recorded where its
        source now sits.  The fused amplitudes A and B are products over the
        sources and D a product over the links, so the coherence term is the
        same, and it depends on an outcome only through its parity, which a
        permutation of bits keeps.  Dark counts thin every outcome alike.
        So P'(y) = P(x) for the y whose bit on s_{i+1} is x's bit on s_i and
        whose bit on d_{i+1} is x's bit on d_i, in every setting; and F, a
        function of each setting's probabilities that a permutation of
        outcomes with the same parity and the same Z ends keeps, is
        unchanged.
        """
        settings = setting_names(cfg.n_modes())
        moved, index = moved_along_chain(cfg)
        probs = exact(cfg, settings)
        relabeled = exact(moved, settings)
        for setting in settings:
            np.testing.assert_allclose(relabeled[setting][index], probs[setting],
                                       rtol=1e-13, atol=0.0)
        assert abs(exact_fidelity(moved) - exact_fidelity(cfg)) <= 1e-14


class TestReferenceConfig:
    def test_twofold_rates_reproduced(self):
        cfg = reference_config()
        rates = simulator._model_rates(cfg)["twofold_per_source_hz"]
        for got, want in zip(rates, simulator.REFERENCE_TWOFOLD_HZ):
            assert abs(got - want) / want < 1e-3

    def test_state_preparation_fields(self):
        cfg = reference_config()
        assert all(abs(s.theta_state - THETA_REF) < 1e-12 for s in cfg.sources)
        assert [s.rotated for s in cfg.sources] == [False, False, False, True, True]

    def test_rep_rate_flagged_as_assumption(self):
        cfg = reference_config()
        assert cfg.rep_rate_hz == 76e6
        assert "ASSUMPTION" in cfg.provenance["rep_rate_hz"]

    @pytest.mark.parametrize("g", [0.0, 0.5, 2.0, 8.0])
    def test_pair_prob_solves_twofold_rate(self, g):
        cfg = reference_config(double_pair_factor=g)
        rates = simulator._model_rates(cfg)["twofold_per_source_hz"]
        for got, want in zip(rates, simulator.REFERENCE_TWOFOLD_HZ):
            assert abs(got - want) / want < 1e-14

    def test_pair_prob_outside_bracket_raises(self):
        # at 10 MHz the g = 0 root lies above the p <= 0.5 bracket
        with pytest.raises(ValueError):
            reference_config(rep_rate_hz=10e6, double_pair_factor=0.0)
        # at g = 0, t >= 1 mean pairs per pulse has no root; t <= 0 has none in the bracket
        for twofold_hz in (1e6, 2e6, 0.0, -1.0):
            with pytest.raises(ValueError):
                simulator._solve_pair_prob(twofold_hz, 1.0, 1.0, 1e6, 0.0)

    def test_model_tenfold_rate_near_half_count_per_hour(self):
        rates = simulator._model_rates(reference_config())
        assert 0.35 <= rates["tenfold_per_hour_model"] <= 0.65

    def test_overlap_from_published_visibility(self):
        cfg = reference_config()
        overlap = cfg.interference.mode_overlap[0]
        assert abs(overlap**2 - 0.715) < 1e-12   # v = overlap^2


class TestConfigSerialization:
    def test_shipped_reference_file_is_the_reference_config(self):
        raw = json.loads(resources.files("spdclab.data")
                         .joinpath("reference_tenfold_config.json").read_text())
        raw.pop("notes")
        assert raw == config_to_dict(reference_config())

    def test_roundtrip(self):
        cfg = reference_config(seed=33)
        clone = config_from_dict(config_to_dict(cfg))
        assert clone.sources == cfg.sources
        assert clone.pbs_links == cfg.pbs_links
        assert clone.interference.mode_overlap == cfg.interference.mode_overlap
        assert clone.rep_rate_hz == cfg.rep_rate_hz
        assert clone.seed == cfg.seed

    def test_malformed_config_rejected(self):
        from spdclab.errors import SchemaError
        with pytest.raises(SchemaError):
            config_from_dict({"kind": "experiment_config", "sources": [{}]})

    def test_omitted_records_take_the_model_defaults(self):
        raw = config_to_dict(reference_config())
        for key in ("interference", "detector", "rep_rate_hz", "seed", "provenance"):
            del raw[key]
        for rec in raw["sources"]:
            del rec["double_pair_factor"], rec["rotated"], rec["theta_state"]
        cfg = config_from_dict(raw)
        assert cfg.interference == InterferenceModel()
        assert cfg.interference.mode_overlap == (1.0,)
        assert cfg.detector == DetectorModel()
        src = cfg.sources[0]
        assert src == SourceModel(src.pair_prob, src.xi_signal, src.xi_idler)
        assert (cfg.rep_rate_hz, cfg.seed, cfg.provenance) == (
            simulator.DEFAULT_REP_RATE_HZ, 0, {})


class TestClassicalRouting:
    def test_non_chain_network_rejected(self):
        with pytest.raises(TopologyError):
            ExperimentConfig(
                sources=tuple(SourceModel(0.1, 0.9, 0.9) for _ in range(5)),
                pbs_links=((2, 3), (2, 5), (2, 7), (2, 9)),
                interference=InterferenceModel((1.0,)), seed=1,
            )

    def test_route_map_cyclic_shift(self):
        cfg = make_config()
        router = Router(cfg)
        # H photons keep their own signal output
        assert [router.route(p, False, 0) for p in range(5)] == [2, 3, 5, 7, 9]
        # V photons reflect to the cyclically previous output
        assert [router.route(p, False, 1) for p in range(5)] == [9, 2, 3, 5, 7]
        # idlers go straight to their own analyzer
        assert [router.route(p, True, 0) for p in range(5)] == [1, 4, 6, 8, 10]
        # the exact model's ring: (source, signal mode, idler mode) per position
        assert simulator._ring_layout(cfg) == [
            (0, 2, 1), (1, 3, 4), (2, 5, 6), (3, 7, 8), (4, 9, 10)]
