"""The standard-library binomial and multinomial draws of ``spdclab.sampling``."""

import itertools
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


def multinomial_pmf(n: int, probs) -> dict:
    """Every composition of ``n`` over ``probs`` (which sum to 1) with its probability."""
    out = {}
    for split in itertools.product(range(n + 1), repeat=len(probs) - 1):
        if sum(split) <= n:
            counts = split + (n - sum(split),)
            weight = math.factorial(n) * math.prod(p**c / math.factorial(c)
                                                   for p, c in zip(probs, counts))
            out[counts] = weight
    return out


def chi2_against(samples, pmf: dict) -> float:
    """Chi-square p-value of drawn outcomes against a pmf keyed by outcome."""
    keys = list(pmf)
    index = {key: i for i, key in enumerate(keys)}
    return chi2_pvalue([index[s] for s in samples], np.array([pmf[k] for k in keys]))


class _Stuck:
    """A stub generator whose uniforms come from a list, the last one repeated."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0) if len(self.values) > 1 else self.values[0]


class TestCellTableDraw:
    #: three kept cells that sum to exactly 1, and a zero, so every draw lands
    #: and the event count is n: n picks the branch
    PROBS = [0.5, 0.0, 0.3, 0.2]

    @pytest.mark.parametrize("n, branch", [
        (2, "placement"),
        (3, "placement at events = cells"),
        (4, "chain at events = cells + 1"),
        (9, "chain"),
    ])
    def test_counts_follow_the_multinomial(self, n, branch):
        table = sampling.cell_table(self.PROBS)
        assert table.cells == (0, 2, 3) and table.sums[-1] == 1.0
        rng = random.Random(f"branch:{n}")
        samples = []
        for _ in range(20_000):
            counts = sampling.draw(rng, n, table)
            assert counts[1] == 0 and sum(counts) == n
            samples.append((counts[0], counts[2], counts[3]))
        assert chi2_against(samples, multinomial_pmf(n, [0.5, 0.3, 0.2])) > 1e-3

    def test_counts_with_a_no_event_bucket(self):
        """Events and their cells together: the joint law of (cells, rest) at
        n = 5 over 3 cells, which mixes both branches."""
        probs = [0.25, 0.125, 0.0625]
        table = sampling.cell_table(probs)
        rng = random.Random("bucket")
        samples = [tuple(c) + (5 - sum(c),)
                   for c in (sampling.draw(rng, 5, table) for _ in range(30_000))]
        assert chi2_against(samples, multinomial_pmf(5, probs + [0.5625])) > 1e-3

    def test_event_total_is_binomial_in_the_kept_mass(self):
        table = sampling.cell_table([0.25, 0.0, 0.125, 1e-19, 0.0625])
        assert table.sums[-1] == 0.4375
        rng = random.Random("events")
        totals = [sum(sampling.draw(rng, 12, table)) for _ in range(20_000)]
        assert chi2_pvalue(totals, exact_pmf(12, 0.4375)) > 1e-3

    def test_last_uniform_fills_no_zero_cell(self):
        """A uniform of 1 - 2^-53 goes to the last cell of nonzero width: past a
        kept cell of zero width (2^-53 adds nothing to 1.0) and a dropped zero."""
        probs = [0.75, 0.25, 2.0**-53, 0.0]
        table = sampling.cell_table(probs)
        assert table.cells == (0, 1, 2) and table.sums[1] == table.sums[2] == 1.0
        for n in range(1, 8):        # placement up to 3 events, the chain above
            counts = sampling.draw(_Stuck(1.0 - 2.0**-53), n, table)
            assert counts[2] == counts[3] == 0 and sum(counts) == n
        assert sampling.draw(_Stuck(1.0 - 2.0**-53), 3, table) == [0, 3, 0, 0]

    def test_uniform_rounding_up_to_a_subnormal_mass(self):
        """(1 - 2^-53) 5e-324 rounds to 5e-324: the search stops at the last cell."""
        # the one-trial binomial takes the first uniform: 0.0 < 5e-324 is one event
        rng = _Stuck(0.0, 1.0 - 2.0**-53)
        assert sampling.draw(rng, 1, sampling.cell_table([5e-324, 0.0])) == [1, 0]

    def test_shared_table_draws_as_a_fresh_one(self):
        probs = [0.3, 0.0, 1e-3, 0.2, 0.05] * 40
        shared = sampling.cell_table(probs)
        for n in (10, 150, 10**9):   # placement, both, chain
            for seed in ("first setting", "second setting"):
                assert (sampling.draw(random.Random(seed), n, shared)
                        == multinomial(random.Random(seed), n, list(probs)))

    @pytest.mark.parametrize("probs, cells", [
        ([1.0, 2.0**-53], (0, 1)),          # every share above 2^-54
        ([1.0, 2.0**-54], (0,)),            # 1 - 2^-54 rounds to 1.0
        ([0.25, 0.25 * 2.0**-54, 0.0, 0.5], (0, 3)),
        ([0.0, 0.0], ()),
        ([], ()),
    ])
    def test_cells_kept_above_the_residue_share(self, probs, cells):
        table = sampling.cell_table(probs)
        assert table.cells == cells and table.probs == tuple(probs[i] for i in cells)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            sampling.cell_table([0.5, -1e-17])
