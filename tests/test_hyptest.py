import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.integrate import quad

from record_checks import check_record
from spdclab.errors import SchemaError
from spdclab.hyptest import (
    GAUSSIAN_BRANCH,
    PINELIS_CONST,
    TAIL_BRANCH,
    PValueBound,
    TrialLedger,
    normal_tail,
    p_value_bound,
    pinelis_D,
    s_total,
    simulate_null_exceedance,
)

# frozen: sqrt(1/(16*144) + (1/400) * sum 1/N_k) for the shipped ledger
LEDGER_S = 0.03287412845167948


def _scaled(ledger, factor):
    """``ledger`` with every trial count multiplied by ``factor``."""
    return TrialLedger(ledger.n, ledger.n_z * factor, tuple(c * factor for c in ledger.n_k),
                       ledger.f_exp, ledger.f_0)


class TestSTotal:
    def test_shipped_ledger(self, trial_ledger):
        val = s_total(trial_ledger)
        assert abs(val - LEDGER_S) < 1e-12
        assert abs(val - 0.03288) < 0.0002

    def test_equal_counts_closed_form(self):
        n, count = 10, 40
        ledger = TrialLedger(n, count, tuple([count] * n), 0.6)
        expected = math.sqrt((1 / 16 + n / (2 * n) ** 2) / count)
        assert abs(s_total(ledger) - expected) < 1e-14

    def test_doubling_counts_scales_by_sqrt2(self, trial_ledger):
        assert abs(s_total(_scaled(trial_ledger, 2))
                   - s_total(trial_ledger) / math.sqrt(2)) < 1e-14

    def test_count_validation(self):
        with pytest.raises(ValueError):
            TrialLedger(2, 0, (5, 5), 0.6)
        with pytest.raises(ValueError):
            TrialLedger(2, 5, (5, 0), 0.6)
        with pytest.raises(ValueError):
            TrialLedger(3, 5, (5, 5), 0.6)  # wrong n_k length

    @pytest.mark.parametrize("f_exp,f_0", [(math.nan, 0.5), (math.inf, 0.5),
                                           (0.6, math.nan), (0.6, -math.inf)])
    def test_non_finite_fidelity_rejected(self, f_exp, f_0):
        with pytest.raises(ValueError):
            TrialLedger(2, 5, (5, 5), f_exp, f_0)

    @pytest.mark.parametrize("f_0", [-1.0, -1e-12, 1.5, 2])
    def test_null_fidelity_outside_unit_interval_rejected(self, f_0):
        with pytest.raises(SchemaError, match=r"f_0 .* \[0, 1\]"):
            TrialLedger(2, 5, (5, 5), 0.6, f_0)

    @pytest.mark.parametrize("f_0", [0, 1.0])
    def test_null_fidelity_at_the_interval_ends_accepted(self, f_0):
        assert TrialLedger(2, 5, (5, 5), 0.6, f_0).f_0 == f_0

    @pytest.mark.parametrize("counts", [
        {"n_z": 3.5}, {"n_k": (True, 5.7)}, {"n_k": (5, 5.0)}, {"n": 2.0}])
    def test_non_integer_counts_rejected(self, counts):
        fields = {"n": 2, "n_z": 5, "n_k": (5, 5), "f_exp": 0.6, **counts}
        with pytest.raises(SchemaError):
            TrialLedger(**fields)

    @pytest.mark.parametrize("f_exp", ["0.606", True, None])
    def test_non_numeric_fidelity_rejected(self, f_exp):
        with pytest.raises(SchemaError):
            TrialLedger(2, 5, (5, 5), f_exp)

    def test_fidelities_stored_as_floats(self):
        ledger = TrialLedger(2, 5, (5, 5), 1, np.float64(0.5))
        assert type(ledger.f_exp) is float and type(ledger.f_0) is float


class TestRecords:
    def test_trial_ledger(self):
        check_record(TrialLedger, (2, 10, [20, 30], 0.7),
                     {"n": 2, "n_z": 10, "n_k": (20, 30), "f_exp": 0.7, "f_0": 0.5},
                     {"n_k": (20, 31)})

    def test_equal_ledgers_hash_equal(self):
        a = TrialLedger(2, 10, [20, 30], 0.7)
        b = TrialLedger(n=2, n_z=10, n_k=(20, 30), f_exp=0.7, f_0=0.5)
        assert hash(a) == hash(b) and len({a, b, _scaled(a, 1)}) == 1
        assert _scaled(a, 2) not in {a, b}

    def test_pvalue_bound(self):
        check_record(PValueBound, (3.2, 1e-3, TAIL_BRANCH),
                     {"x_arg": 3.2, "bound": 1e-3, "branch": TAIL_BRANCH,
                      "informative": True, "note": None},
                     {"informative": False, "note": "non-informative"})


class TestNormalTail:
    def test_symmetry_point(self):
        assert abs(normal_tail(0.0) - 0.5) < 1e-15

    def test_reference_value(self):
        assert abs(normal_tail(1.96) - 0.0249979) < 1e-7

    def test_against_quadrature(self):
        # independent oracle: numerical integral of the normal density
        for x in (-1.5, 0.0, 0.7, 1.96, 3.224, 5.0):
            oracle, err = quad(
                lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
                x, math.inf,
            )
            assert err < 1e-8
            assert abs(normal_tail(x) - oracle) < 1e-12

    def test_near_3p224(self):
        assert abs(normal_tail(3.224) - 6.3e-4) / 6.3e-4 < 0.02


class TestPinelisD:
    def test_constant(self):
        # exact value of 5! (e/5)^5 is 5.699065...; quoted roundings vary
        assert abs(PINELIS_CONST - 5.6991) < 1e-3

    def test_x_zero_exp_branch_wins(self):
        assert pinelis_D(0.0) == 1.0

    def test_x_one(self):
        assert abs(pinelis_D(1.0) - math.exp(-0.5)) < 1e-12
        # tail branch value is larger there
        assert PINELIS_CONST * normal_tail(1.0) > math.exp(-0.5)

    def test_x_3p224_tail_branch(self):
        val = pinelis_D(3.224)
        assert abs(val - 3.6e-3) / 3.6e-3 < 0.05
        assert val == PINELIS_CONST * normal_tail(3.224)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pinelis_D(-0.1)

    @given(st.floats(min_value=0.0, max_value=30.0),
           st.floats(min_value=0.0, max_value=30.0))
    @hyp_settings(max_examples=200, deadline=None)
    def test_monotone_nonincreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert pinelis_D(hi) <= pinelis_D(lo) + 1e-15


class TestPValueBound:
    def test_shipped_ledger_reproduces_reference(self, trial_ledger):
        res = p_value_bound(trial_ledger)
        assert 3.3e-3 <= res.bound <= 4.0e-3
        assert res.branch == TAIL_BRANCH
        assert abs(res.x_arg - (0.606 - 0.5) / LEDGER_S) < 1e-12

    def test_threshold_fidelity_gives_unity(self, trial_ledger):
        ledger = TrialLedger(trial_ledger.n, trial_ledger.n_z, trial_ledger.n_k,
                             f_exp=0.5)
        res = p_value_bound(ledger)
        assert res.bound == 1.0 and not res.informative

    def test_hundredfold_counts(self, trial_ledger):
        res = p_value_bound(_scaled(trial_ledger, 100))
        assert res.bound < 1e-20
        assert abs(res.x_arg - 10 * (0.606 - 0.5) / LEDGER_S) < 1e-9

    def test_monotone_in_f_exp(self, trial_ledger):
        bounds = [
            p_value_bound(TrialLedger(trial_ledger.n, trial_ledger.n_z,
                                      trial_ledger.n_k, f_exp=f)).bound
            for f in np.linspace(0.505, 0.75, 12)
        ]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bounds, bounds[1:]))

    def test_monotone_under_count_scaling(self, trial_ledger):
        bounds = [p_value_bound(_scaled(trial_ledger, c)).bound for c in (1, 2, 5, 10)]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bounds, bounds[1:]))

    def test_bound_always_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            ledger = TrialLedger(
                n, int(rng.integers(1, 500)),
                tuple(int(c) for c in rng.integers(1, 500, size=n)),
                f_exp=float(rng.uniform(0.3, 1.0)),
            )
            res = p_value_bound(ledger)
            assert 0.0 < res.bound <= 1.0

    def test_gaussian_branch_label_on_small_x(self, trial_ledger):
        ledger = TrialLedger(trial_ledger.n, trial_ledger.n_z, trial_ledger.n_k,
                             f_exp=0.52)
        assert p_value_bound(ledger).branch == GAUSSIAN_BRANCH


class TestNullSimulation:
    def test_bound_never_undershoots_simulation(self, trial_ledger):
        """Empirical exceedance under the product-state null (population 1,
        E_k = 0) stays below the bound.  That null is the mildest one, not the
        worst (see ``simulate_null_exceedance``)."""
        rng = np.random.default_rng(17)
        thresholds = (0.55, 0.58, 0.606)
        freq = simulate_null_exceedance(trial_ledger, thresholds, 100_000, rng)
        for t, f in zip(thresholds, freq):
            ledger = TrialLedger(trial_ledger.n, trial_ledger.n_z,
                                 trial_ledger.n_k, f_exp=t)
            assert f <= p_value_bound(ledger).bound
