"""The standard-library binomial and multinomial draws of ``spdclab.sampling``."""

import math
import random

import numpy as np
import pytest
from scipy import stats

from spdclab import sampling
from spdclab.sampling import binomial, multinomial


def exact_pmf(n: int, p: float) -> np.ndarray:
    return np.array([math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)])


def chi2_pvalue(draws, pmf) -> float:
    """Chi-square p-value of draws against a pmf; cells expecting under 5 are pooled."""
    observed = np.bincount(draws, minlength=pmf.size).astype(float)
    expected = pmf * len(draws)
    sparse = expected < 5.0
    observed = np.append(observed[~sparse], observed[sparse].sum())
    expected = np.append(expected[~sparse], expected[sparse].sum())
    keep = expected > 0.0
    stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    return float(stats.chi2.sf(stat, keep.sum() - 1))


class TestBinomial:
    @pytest.mark.parametrize("n, p", [
        (1, 0.3),          # the one-trial path
        (40, 0.1),         # BG: n p = 4
        (200, 0.3),        # BTRS: n p = 60
        (30, 0.85),        # p > 1/2, BG on 1 - p
        (1000, 0.7),       # p > 1/2, BTRS on 1 - p
    ])
    def test_matches_exact_pmf(self, n, p):
        rng = random.Random(f"pmf:{n}:{p}")
        draws = [binomial(rng, n, p) for _ in range(20_000)]
        assert min(draws) >= 0 and max(draws) <= n
        assert chi2_pvalue(draws, exact_pmf(n, p)) > 1e-3

    def test_btrs_acceptance_matches_exact_pmf(self):
        """Draws that the squeeze cannot accept go through the log-ratio test;
        at n p = 12 more than half of them reach it."""
        rng = random.Random("acceptance")
        draws = [binomial(rng, 60, 0.2) for _ in range(40_000)]
        assert chi2_pvalue(draws, exact_pmf(60, 0.2)) > 1e-3

    @pytest.mark.parametrize("n, p", [(10**15, 0.3), (2**63 - 1, 6.5e-4)])
    def test_mean_and_variance_at_large_n(self, n, p):
        """Sample mean and variance of 4000 draws, each within 5 standard errors.

        The log-ratio of the BTRS acceptance test is a difference of lgamma
        values near n log n when taken directly; its rounding inflated the
        variance 1.4-fold at n = 10^15 and 6- to 34-fold at n = 2^63 - 1.
        """
        rng = random.Random(f"large:{n}")
        draws = np.array([binomial(rng, n, p) for _ in range(4000)], dtype=float)
        mean, var = n * p, n * p * (1.0 - p)
        assert abs(draws.mean() - mean) < 5.0 * math.sqrt(var / draws.size)
        # the sample variance of near-normal draws has relative error sqrt(2 / (N - 1))
        assert abs(draws.var(ddof=1) / var - 1.0) < 5.0 * math.sqrt(2.0 / (draws.size - 1))

    def test_tiny_p_keeps_its_mean(self):
        """p = 3e-17 at n = 10^17: n p = 3.  Rounding 1 - p to 1.0 would give 0 always."""
        rng = random.Random("tiny")
        draws = [binomial(rng, 10**17, 3e-17) for _ in range(4000)]
        assert abs(np.mean(draws) - 3.0) < 5.0 * math.sqrt(3.0 / len(draws))

    def test_log_pmf_is_the_pmf(self):
        for n, p in ((40, 0.1), (200, 0.3), (1000, 0.5)):
            pmf = exact_pmf(n, p)
            for k in (0, 1, n // 3, int(n * p), n - 1, n):
                assert math.isclose(sampling._log_pmf(k, n, p), math.log(pmf[k]),
                                    rel_tol=1e-12, abs_tol=1e-12)

    def test_edges_and_domain(self):
        rng = random.Random(0)
        assert binomial(rng, 10, 0.0) == 0
        assert binomial(rng, 10, 1.0) == 10
        assert binomial(rng, 0, 0.4) == 0
        for n, p in ((-1, 0.5), (10, -0.1), (10, 1.5)):
            with pytest.raises(ValueError):
                binomial(rng, n, p)

    @pytest.mark.skipif(not hasattr(random.Random, "binomialvariate"),
                        reason="random.binomialvariate is new in Python 3.12")
    def test_draws_as_the_standard_library(self):
        """Where the acceptance formulas agree to rounding (n up to 10^6), the
        port draws what ``random.binomialvariate`` draws from the same state."""
        for seed in range(200):
            for n, p in ((1, 0.4), (25, 0.2), (60, 0.2), (10**6, 0.01), (500, 0.9)):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert ([binomial(ours, n, p) for _ in range(5)]
                        == [theirs.binomialvariate(n, p) for _ in range(5)])


class TestMultinomial:
    PROBS = [0.5, 0.2, 1e-3, 0.0, 0.25]         # and 0.049 drawn into none of them

    def test_marginals(self):
        """Each category's count is Binomial(n, p_i): mean and variance within 5 sigma."""
        n, runs = 1000, 3000
        rng = random.Random("marginals")
        counts = np.array([multinomial(rng, n, self.PROBS) for _ in range(runs)], dtype=float)
        assert (counts[:, 3] == 0).all()
        assert (counts.sum(axis=1) <= n).all()
        for i, p in enumerate(self.PROBS):
            if p == 0.0:
                continue
            var = n * p * (1.0 - p)
            assert abs(counts[:, i].mean() - n * p) < 5.0 * math.sqrt(var / runs)
            assert abs(counts[:, i].var(ddof=1) / var - 1.0) < 5.0 * math.sqrt(2.0 / (runs - 1))
        rest = n - counts.sum(axis=1)
        p_rest = 1.0 - sum(self.PROBS)
        assert abs(rest.mean() - n * p_rest) < 5.0 * math.sqrt(n * p_rest * (1 - p_rest) / runs)

    def test_seeded_determinism(self):
        draws = [multinomial(random.Random("same"), 10**9, self.PROBS) for _ in range(2)]
        assert draws[0] == draws[1]
        assert multinomial(random.Random("other"), 10**9, self.PROBS) != draws[0]

    @pytest.mark.parametrize("n", [1, 7, 10**6])
    def test_residue_draws_as_zero(self, n):
        """A residue whose ratio to the mass left rounds 1 - r to 1.0 costs no draw,
        so it leaves every other count as an exact 0 does; one trial included."""
        with_zero = [0.3, 0.0, 0.2, 0.0, 0.4]
        with_residue = [0.3, 8.5e-36, 0.2, 1e-17, 0.4]
        for seed in range(50):
            assert (multinomial(random.Random(seed), n, with_residue)
                    == multinomial(random.Random(seed), n, with_zero))

    def test_all_draws_land_when_the_mass_is_one(self):
        counts = multinomial(random.Random(3), 10**12, [0.25, 0.25, 0.5])
        assert sum(counts) == 10**12
