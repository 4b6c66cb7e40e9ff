"""Distribution-free p-value bound for the bi-separability hypothesis test.

Each recorded coincidence is one trial of a hypothesis test against the
null "the source emits a bi-separable state" (fidelity at most F_0 = 1/2).
Trials measured in the M_k basis contribute +-alpha_k N_t / N_k, trials in
the H/V basis contribute N_t / (2 N_z) or 0, so the running sum of
(F_i - F_0) is a super-martingale under the null and its terminal value is
N_t (F_bar - F_0).  A bounded-increment concentration bound then gives

    p <= D( (F_exp - F_0) / s ),   s^2 = 1/(16 N_z) + sum_k alpha_k^2 / N_k,

where D(x) = min{exp(-x^2/2), 5! (e/5)^5 I(x)} and I is the standard
normal upper-tail function.  Per-trial half-ranges enter only through the
closed form s, so individual trial records never need to be stored.

Standard library only, with no ``dataclasses`` either: ``analyze`` and
``pvalue`` import this module, and each fresh call of theirs would pay
about 12 ms for the ``inspect`` that ``dataclasses`` imports.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .errors import SchemaError
from .witness import (_check_count, _check_mode_count, _is_finite_real, _Record,
                      alpha_coefficients)

#: 5! (e/5)^5, the tail-branch prefactor, evaluated once.
PINELIS_CONST = 120.0 * (math.e / 5.0) ** 5

GAUSSIAN_BRANCH = "gaussian"
TAIL_BRANCH = "pinelis_tail"


class TrialLedger(_Record):
    """Per-setting trial totals plus observed and null fidelity."""

    __slots__ = ("n", "n_z", "n_k", "f_exp", "f_0")

    def __init__(self, n: int, n_z: int, n_k: tuple, f_exp: float, f_0: float = 0.5):
        n_k = tuple(n_k)
        _check_mode_count(n)
        for c in (n_z, *n_k):
            _check_count(c)
        if len(n_k) != n:
            raise ValueError(f"expected {n} M-setting counts, got {len(n_k)}")
        if n_z < 1 or any(c < 1 for c in n_k):
            raise ValueError("all trial counts must be >= 1")
        for name, value in (("f_exp", f_exp), ("f_0", f_0)):
            if not _is_finite_real(value):
                raise SchemaError(f"{name} must be a finite real number, got {value!r}")
        if not 0 <= f_0 <= 1:
            raise SchemaError(f"f_0 is a fidelity and must lie in [0, 1], got {f_0!r}")
        self._fill(n, n_z, n_k, float(f_exp), float(f_0))

    @property
    def n_total(self) -> int:
        return self.n_z + sum(self.n_k)


class PValueBound(NamedTuple):
    x_arg: float
    bound: float
    branch: str
    informative: bool = True
    note: Optional[str] = None


def s_total(ledger: TrialLedger) -> float:
    """sqrt(1/(16 N_z) + sum_k alpha_k^2 / N_k), i.e. S_{N_t} / N_t."""
    terms = (alpha**2 / c for alpha, c in zip(alpha_coefficients(ledger.n), ledger.n_k))
    return math.sqrt(1.0 / (16.0 * ledger.n_z) + math.fsum(terms))


def normal_tail(x: float) -> float:
    """I(x) = P(N(0,1) >= x), via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def pinelis_D(x: float) -> float:
    """min{exp(-x^2/2), 5!(e/5)^5 I(x)} for x >= 0."""
    if x < 0:
        raise ValueError("the bound is one-sided; x must be >= 0")
    return min(math.exp(-0.5 * x * x), PINELIS_CONST * normal_tail(x))


def _branch_of(x: float) -> str:
    # ties resolve to the gaussian label
    return GAUSSIAN_BRANCH if math.exp(-0.5 * x * x) <= PINELIS_CONST * normal_tail(x) \
        else TAIL_BRANCH


def p_value_bound(ledger: TrialLedger) -> PValueBound:
    """Upper bound on the p-value for observing fidelity >= f_exp under the null."""
    if ledger.f_exp <= ledger.f_0:
        return PValueBound(
            x_arg=0.0, bound=1.0, branch=GAUSSIAN_BRANCH, informative=False,
            note="observed fidelity does not exceed the null threshold; test non-informative",
        )
    x = (ledger.f_exp - ledger.f_0) / s_total(ledger)
    bound = min(pinelis_D(x), 1.0)
    return PValueBound(x_arg=x, bound=bound, branch=_branch_of(x))


def simulate_null_exceedance(
    ledger: TrialLedger,
    thresholds: Sequence[float],
    runs: int,
    rng,
):
    """Empirical P(F_bar >= threshold) under one bi-separable null.

    The null is a product state with perfect H/V population and vanishing
    M_k correlations (fidelity exactly F_0 = 1/2): every Z trial lands in
    the all-H bin and every M_k outcome is an independent fair sign.  It is
    the mildest null, not the worst: on the shipped ledger its exact tail at
    the published 0.606 is 1.44e-5, while bi-separable GHZ-diagonal nulls
    with population fraction near 0.62 reach about 2.5e-4.  Used to check that
    computed bounds are never undershot in simulation.

    ``rng`` is a ``numpy.random.Generator``; returns a numpy array of one
    exceedance fraction per threshold.
    """
    import numpy as np

    alphas = alpha_coefficients(ledger.n)
    f_bar = np.full(runs, 0.5)  # population term: (N_z + 0) / (2 N_z)
    for k, n_k in enumerate(ledger.n_k):
        n_plus = rng.binomial(n_k, 0.5, size=runs)
        f_bar += alphas[k] * (2.0 * n_plus - n_k) / n_k
    return np.array([np.mean(f_bar >= t) for t in thresholds])
