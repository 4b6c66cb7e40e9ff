import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from record_checks import check_record
from spdclab import cli, qstate, witness
from spdclab.errors import InsufficientDataError, SchemaError
from spdclab.witness import (
    CountDataset,
    FidelityEstimate,
    PopulationStats,
    SettingCounts,
    Verdict,
    entanglement_verdict,
    estimate_fidelity,
    m_setting,
    population_stats,
)

# frozen expected values for the shipped reconstruction (exact rationals:
# population 111/288, coherence sum_k |E_k|/20 over the shipped splits)
RECON_F = 0.6055817961311696
RECON_SIGMA = 0.02876300923222882


def _dataset(n, z_agg, m_aggs, hours=None):
    settings = [SettingCounts("Z", aggregated=z_agg, hours=hours)]
    for k, (p, m) in enumerate(m_aggs):
        settings.append(SettingCounts(m_setting(k),
                                      aggregated={"n_plus": p, "n_minus": m}))
    return CountDataset(n=n, settings=tuple(settings))


def ideal_dataset(n=10, per_setting=1000):
    half = per_setting // 2
    m_aggs = [(per_setting, 0) if k % 2 == 0 else (0, per_setting)
              for k in range(n)]
    return _dataset(n, {"n_all_h": half, "n_all_v": per_setting - half,
                        "n_rest": 0}, m_aggs)


def uniform_dataset(n=10, per_outcome=1):
    labels = qstate.basis_labels(n)
    settings = [SettingCounts("Z", histogram={lab: per_outcome for lab in labels})]
    for k in range(n):
        settings.append(SettingCounts(
            m_setting(k), histogram={lab: per_outcome for lab in labels}))
    return CountDataset(n=n, settings=tuple(settings))


class TestEstimateFidelity:
    def test_ideal_dataset_gives_unity(self):
        est = estimate_fidelity(ideal_dataset())
        assert abs(est.value - 1.0) < 1e-12
        assert abs(est.population_term - 0.5) < 1e-12
        assert abs(est.coherence_term - 0.5) < 1e-12

    def test_shipped_reconstruction(self, reconstruction_dataset):
        est = estimate_fidelity(reconstruction_dataset)
        assert abs(est.value - RECON_F) < 1e-12
        assert abs(est.value - 0.606) < 0.001
        assert abs(est.value - (est.population_term + est.coherence_term)) < 1e-12

    def test_uniform_noise(self):
        est = estimate_fidelity(uniform_dataset())
        assert abs(est.value - 1.0 / 1024.0) < 1e-12
        assert abs(est.coherence_term) < 1e-12

    def test_zero_setting_raises_with_name(self):
        data = _dataset(2, {"n_all_h": 5, "n_all_v": 5, "n_rest": 0},
                        [(5, 5), (0, 0)])
        with pytest.raises(InsufficientDataError, match="M1"):
            estimate_fidelity(data)

    def test_invariant_under_count_scaling(self):
        base = _dataset(3, {"n_all_h": 7, "n_all_v": 5, "n_rest": 3},
                        [(9, 4), (2, 11), (6, 6)])
        scaled = _dataset(3, {"n_all_h": 21, "n_all_v": 15, "n_rest": 9},
                          [(27, 12), (6, 33), (18, 18)])
        assert abs(estimate_fidelity(base).value
                   - estimate_fidelity(scaled).value) < 1e-12

    def test_term_bounds_on_random_datasets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            z = {"n_all_h": int(rng.integers(0, 50)),
                 "n_all_v": int(rng.integers(0, 50)),
                 "n_rest": int(rng.integers(0, 50))}
            if sum(z.values()) == 0:
                z["n_rest"] = 1
            m_aggs = []
            for _ in range(n):
                a, b = int(rng.integers(0, 50)), int(rng.integers(0, 50))
                if a + b == 0:
                    a = 1
                m_aggs.append((a, b))
            est = estimate_fidelity(_dataset(n, z, m_aggs))
            assert -0.5 - 1e-12 <= est.coherence_term <= 0.5 + 1e-12
            assert -1e-12 <= est.population_term <= 0.5 + 1e-12


class TestPoissonPropagation:
    def test_shipped_reconstruction_sigma(self, reconstruction_dataset):
        sigma = estimate_fidelity(reconstruction_dataset).sigma
        assert abs(sigma - RECON_SIGMA) < 1e-12
        assert 0.025 <= sigma <= 0.033
        assert abs(sigma - 0.029) / 0.029 < 0.15

    def test_empty_complement_contributes_zero(self):
        data = _dataset(1, {"n_all_h": 50, "n_all_v": 50, "n_rest": 0}, [(25, 25)])
        sigma = estimate_fidelity(data).sigma
        # population term variance vanishes; only the coherence term is left
        expected = math.sqrt(0.25 * 4 * 25 * 25 / 50**3)
        assert abs(sigma - expected) < 1e-12

    def test_inverse_sqrt_scaling(self):
        base = _dataset(2, {"n_all_h": 8, "n_all_v": 6, "n_rest": 4},
                        [(9, 3), (4, 10)])
        c = 9
        scaled = _dataset(2, {"n_all_h": 8 * c, "n_all_v": 6 * c, "n_rest": 4 * c},
                          [(9 * c, 3 * c), (4 * c, 10 * c)])
        assert abs(estimate_fidelity(scaled).sigma
                   - estimate_fidelity(base).sigma / math.sqrt(c)) < 1e-12

    def test_against_parametric_bootstrap(self, reconstruction_dataset):
        """Delta method vs 1e5-resample parametric bootstrap, 10% relative."""
        rng = np.random.default_rng(2024)
        runs = 100_000
        data = reconstruction_dataset
        alphas = witness.alpha_coefficients(data.n)
        f = np.zeros(runs)
        z = data.z().aggregates()
        n_h = rng.poisson(z["n_all_h"], runs).astype(float)
        n_v = rng.poisson(z["n_all_v"], runs).astype(float)
        n_r = rng.poisson(z["n_rest"], runs).astype(float)
        f += 0.5 * (n_h + n_v) / np.maximum(n_h + n_v + n_r, 1)
        for k in range(data.n):
            agg = data.m(k).aggregates()
            p = rng.poisson(agg["n_plus"], runs).astype(float)
            m = rng.poisson(agg["n_minus"], runs).astype(float)
            f += alphas[k] * (p - m) / np.maximum(p + m, 1)
        boot = f.std()
        delta = estimate_fidelity(data).sigma
        assert abs(delta - boot) / boot < 0.10


class TestVerdict:
    def test_reference_numbers(self):
        v = entanglement_verdict(witness.FidelityEstimate(0.606, 0.029, 0.0, 0.0))
        assert abs(v.sigmas_above - (0.606 - 0.5) / 0.029) < 1e-12
        assert round(v.sigmas_above, 2) == 3.66
        assert v.genuine

    def test_threshold_boundary(self):
        v = entanglement_verdict(witness.FidelityEstimate(0.5, 0.01, 0.0, 0.0))
        assert v.sigmas_above == 0.0 and not v.genuine

    def test_below_threshold(self):
        v = entanglement_verdict(witness.FidelityEstimate(0.3, 0.1, 0.0, 0.0))
        assert abs(v.sigmas_above + 2.0) < 1e-12 and not v.genuine

    def test_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            entanglement_verdict(witness.FidelityEstimate(0.7, 0.0, 0.0, 0.0))


class TestPopulationStats:
    def test_reference_snr(self):
        stats = population_stats(SettingCounts(
            "Z", aggregated={"n_all_h": 61, "n_all_v": 50, "n_rest": 33}))
        assert abs(stats.signal_to_noise - 111 / 33) < 1e-12
        assert round(stats.signal_to_noise, 2) == 3.36

    def test_pure_population_is_infinite_snr(self):
        stats = population_stats(SettingCounts(
            "Z", aggregated={"n_all_h": 40, "n_all_v": 0, "n_rest": 0}))
        assert stats.population_fraction == 1.0
        assert math.isinf(stats.signal_to_noise)

    def test_uniform_histogram_fraction(self):
        labels = qstate.basis_labels(10)
        stats = population_stats(SettingCounts("Z", histogram={l: 1 for l in labels}))
        assert abs(stats.population_fraction - 2 / 1024) < 1e-12

    def test_rejects_m_setting(self):
        with pytest.raises(ValueError):
            population_stats(SettingCounts("M0", aggregated={"n_plus": 1, "n_minus": 1}))


class TestSchema:
    def test_histogram_aggregate_mismatch(self):
        with pytest.raises(SchemaError, match="disagree"):
            SettingCounts("Z", histogram={"HH": 3, "VV": 2},
                          aggregated={"n_all_h": 3, "n_all_v": 1, "n_rest": 0})

    def test_histogram_parity_aggregation(self):
        s = SettingCounts("M0", histogram={"HH": 4, "HV": 1, "VH": 2, "VV": 3})
        assert s.aggregates() == {"n_plus": 7, "n_minus": 3}

    def test_negative_counts_rejected(self):
        with pytest.raises(SchemaError):
            SettingCounts("Z", aggregated={"n_all_h": -1, "n_all_v": 0, "n_rest": 0})

    def test_numpy_integer_counts_accepted(self):
        data = _dataset(np.int64(1), {"n_all_h": np.int64(4), "n_all_v": np.uint32(3),
                                      "n_rest": np.int16(1)}, [(np.int64(5), np.int8(2))])
        assert data.z().total() == 8 and data.m(0).correlation()[0] == 3 / 7

    def test_missing_setting_rejected(self):
        with pytest.raises(SchemaError):
            CountDataset(n=2, settings=(
                SettingCounts("Z", aggregated={"n_all_h": 1, "n_all_v": 1, "n_rest": 0}),
                SettingCounts("M0", aggregated={"n_plus": 1, "n_minus": 0}),
            ))

    def test_setting_names_round_trip(self):
        names = witness.setting_names(3)
        assert names == ["Z", "M0", "M1", "M2"]
        assert [witness.setting_index(s) for s in names] == [None, 0, 1, 2]
        for bad in ("M\u00b2", "M\u0663", "M", "X", "m1"):
            with pytest.raises(SchemaError):
                witness.setting_index(bad)

    def test_correlation_and_variance(self):
        e, var = SettingCounts("M1", aggregated={"n_plus": 7, "n_minus": 3}).correlation()
        assert e == 0.4 and abs(var - 4 * 7 * 3 / 10**3) < 1e-18
        with pytest.raises(InsufficientDataError):
            SettingCounts("M1", aggregated={"n_plus": 0, "n_minus": 0}).correlation()
        with pytest.raises(ValueError):
            SettingCounts("Z", aggregated={"n_all_h": 1, "n_all_v": 0,
                                           "n_rest": 0}).correlation()

    @pytest.mark.parametrize("n", [1.9, True])
    def test_non_count_mode_number_rejected(self, n):
        settings = (SettingCounts("Z", aggregated={"n_all_h": 1, "n_all_v": 1, "n_rest": 0}),
                    SettingCounts("M0", aggregated={"n_plus": 1, "n_minus": 0}))
        with pytest.raises(SchemaError):
            CountDataset(n=n, settings=settings)

    def test_duplicate_setting_rejected(self):
        s = SettingCounts("M0", aggregated={"n_plus": 1, "n_minus": 0})
        with pytest.raises(SchemaError):
            CountDataset(n=1, settings=(s, s))


_Z_AGG = {"n_all_h": 3, "n_all_v": 2, "n_rest": 1}
_Z = SettingCounts("Z", aggregated=_Z_AGG)
_M0 = SettingCounts("M0", histogram={"H": 4, "V": 1})

#: record -> (positional args, the same record by keyword, other values for some fields)
RECORD_CASES = {
    "SettingCounts": (SettingCounts, ("Z", None, _Z_AGG, 2.0),
                      {"setting": "Z", "histogram": None, "aggregated": _Z_AGG,
                       "hours": 2.0},
                      {"hours": 2.5}),
    "CountDataset": (CountDataset, (1, [_Z, _M0]), {"n": 1, "settings": (_Z, _M0)},
                     {"settings": (_Z, SettingCounts("M0", histogram={"H": 4, "V": 2}))}),
    "FidelityEstimate": (FidelityEstimate, (0.6, 0.03, 0.4, 0.2),
                         {"value": 0.6, "sigma": 0.03, "population_term": 0.4,
                          "coherence_term": 0.2},
                         {"sigma": 0.04}),
    "Verdict": (Verdict, (0.5, 3.5, True),
                {"threshold": 0.5, "sigmas_above": 3.5, "genuine": True},
                {"genuine": False}),
    "PopulationStats": (PopulationStats, (0.77, math.inf, 1e-4),
                        {"population_fraction": 0.77, "signal_to_noise": math.inf,
                         "variance": 1e-4},
                        {"signal_to_noise": 3.4}),
}


class TestRecords:
    @pytest.mark.parametrize("name", RECORD_CASES)
    def test_record_semantics(self, name):
        check_record(*RECORD_CASES[name])

    def test_reduced_aggregates_not_compared_or_shown(self):
        a = SettingCounts("M0", histogram={"HH": 4, "VH": 1})
        b = SettingCounts("M0", histogram={"HH": 4, "VH": 1})
        object.__setattr__(b, "_aggregates", {"n_plus": 0, "n_minus": 0})
        assert a == b and "_aggregates" not in repr(a)
        # the same totals from another histogram make another record
        assert a != SettingCounts("M0", histogram={"VV": 4, "HV": 1})


class _WalkCountingHistogram(dict):
    """A histogram that counts how often its (outcome, count) pairs are walked."""

    walks = 0

    def items(self):
        self.walks += 1
        return super().items()


def _brute_force_aggregates(setting, histogram):
    """Aggregates summed straight from the definitions, one bucket at a time."""
    def bucket(keep):
        return sum(int(c) for o, c in histogram.items() if keep(o))

    if setting == "Z":
        return {"n_all_h": bucket(lambda o: o == "H" * len(o)),
                "n_all_v": bucket(lambda o: o == "V" * len(o)),
                "n_rest": bucket(lambda o: "H" in o and "V" in o)}
    return {"n_plus": bucket(lambda o: o.count("V") % 2 == 0),
            "n_minus": bucket(lambda o: o.count("V") % 2 == 1)}


#: counts as JSON gives them and as numpy hands them over, narrow types included
_counts = st.one_of(st.integers(0, 10**15),
                    st.integers(0, 255).map(np.uint8),
                    st.integers(0, 2**62).map(np.int64))
_histograms = st.integers(1, 6).flatmap(lambda n: st.dictionaries(
    st.text("HV", min_size=n, max_size=n), _counts, max_size=40))


def _per_outcome_aggregates(setting, histogram):
    """The per-outcome rule ``SettingCounts`` reduced histograms by before its
    one-pass reduction: a set of letters and a sign call for every outcome."""
    k = witness.setting_index(setting)
    keys = ("n_all_h", "n_all_v", "n_rest") if k is None else ("n_plus", "n_minus")
    reduced = dict.fromkeys(keys, 0)
    for outcome, c in histogram.items():
        letters = set(outcome)
        if letters - set("HV"):
            raise SchemaError(f"bad outcome string {outcome!r}")
        witness._check_count(c)
        if k is not None:
            key = "n_plus" if witness.outcome_sign(outcome) > 0 else "n_minus"
        else:
            key = ("n_all_h" if letters == {"H"} else
                   "n_all_v" if letters == {"V"} else "n_rest")
        reduced[key] += int(c)
    return reduced


def _outcome_or_error(reduce, *args):
    try:
        return reduce(*args)
    except Exception as exc:        # the type and message are what is compared
        return type(exc), str(exc)


_good_keys = st.text("HV", max_size=4)                  # the empty outcome included
#: keys that are not str but iterate over H and V letters, which the rule accepts
_letter_tuples = st.lists(st.sampled_from("HV"), max_size=3).map(tuple)
#: letters outside HV, and keys that are not str
_odd_keys = st.one_of(st.text("HVX h", min_size=1, max_size=4), _letter_tuples,
                      st.frozensets(st.sampled_from("HV"), max_size=2),
                      st.integers(-3, 3), st.binary(max_size=2), st.none())
_good_counts = st.one_of(st.integers(0, 10**15), st.integers(0, 255).map(np.uint8),
                         st.integers(0, 2**62).map(np.int64))
_odd_counts = st.one_of(st.integers(-3, -1), st.booleans(), st.floats(-1.0, 3.0),
                        st.integers(-5, -1).map(np.int64))
#: mostly good items, and now and then a bad key, a bad count or both, anywhere
_mixed_histograms = st.lists(st.one_of(
    *[st.tuples(_good_keys, _good_counts)] * 3, st.tuples(_letter_tuples, _good_counts),
    st.tuples(_odd_keys, _good_counts),
    st.tuples(_good_keys, _odd_counts), st.tuples(_odd_keys, _odd_counts)),
    max_size=6).map(dict)


class TestReduction:
    @hyp_settings(max_examples=300, deadline=None)
    @given(setting=st.sampled_from(["Z", "M0", "M3"]),
           histogram=_mixed_histograms)
    def test_one_pass_reduction_equals_the_per_outcome_rule(self, setting, histogram):
        """The same aggregates, or the same exception type and message."""
        def fast(s, h):
            return SettingCounts(s, histogram=h).aggregates()

        assert (_outcome_or_error(fast, setting, histogram)
                == _outcome_or_error(_per_outcome_aggregates, setting, histogram))

    @hyp_settings(max_examples=200, deadline=None)
    @given(setting=st.sampled_from(["Z", "M0", "M3"]), histogram=_histograms)
    def test_histogram_reduces_to_brute_force_aggregates(self, setting, histogram):
        agg = SettingCounts(setting, histogram=histogram).aggregates()
        assert agg == _brute_force_aggregates(setting, histogram)
        assert all(type(c) is int for c in agg.values())

    def test_numpy_aggregates_do_not_overflow(self):
        big = SettingCounts("M0", aggregated={"n_plus": np.int64(3_000_000),
                                              "n_minus": np.int64(2_000_000)})
        assert big.correlation() == SettingCounts(
            "M0", aggregated={"n_plus": 3_000_000, "n_minus": 2_000_000}).correlation()

    def test_each_histogram_walked_once(self):
        rng = np.random.default_rng(3)
        n = 4
        labels = qstate.basis_labels(n)
        histograms = [_WalkCountingHistogram(zip(labels, map(int, rng.integers(1, 50, 2**n))))
                      for _ in range(n + 1)]
        data = CountDataset(n=n, settings=tuple(
            SettingCounts(name, histogram=h)
            for name, h in zip(witness.setting_names(n), histograms)))
        assert [h.walks for h in histograms] == [1] * (n + 1)
        estimate_fidelity(data)
        cli.build_report(data, "0" * 64)
        assert [h.walks for h in histograms] == [1] * (n + 1)


class TestConvergenceToExpectation:
    def test_matches_witness_expectation_at_1e6_counts(self):
        """Sampling exact outcome probabilities reproduces <W> within 3 sigma."""
        state, _ = qstate.fuse_and_postselect(qstate.reference_network())
        n = state.n_modes
        target = qstate.expectation(state, qstate.witness_decomposition(n))
        rng = np.random.default_rng(99)
        counts_per_setting = 1_000_000
        labels = qstate.basis_labels(n)
        settings = []
        z_probs = qstate.outcome_distribution(state, [np.eye(2, dtype=complex)] * n)
        z_counts = rng.multinomial(counts_per_setting, z_probs)
        nz = np.flatnonzero(z_counts)
        settings.append(SettingCounts(
            "Z", histogram={labels[i]: int(z_counts[i]) for i in nz}))
        for k in range(n):
            ports = [qstate.mk_eigenbasis(k, n)] * n
            probs = qstate.outcome_distribution(state, ports)
            counts = rng.multinomial(counts_per_setting, probs)
            nzk = np.flatnonzero(counts)
            settings.append(SettingCounts(
                m_setting(k), histogram={labels[i]: int(counts[i]) for i in nzk}))
        data = CountDataset(n=n, settings=tuple(settings))
        est = estimate_fidelity(data)
        assert abs(est.value - target) < 3.0 * est.sigma
