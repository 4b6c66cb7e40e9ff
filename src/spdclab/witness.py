"""GHZ fidelity estimation from coincidence counts.

The estimator combines population counts in the H/V basis with parity
correlations measured in the n+1 local settings M_0..M_{n-1}:

    F = sum_k alpha_k (N_k+ - N_k-) / N_k + (N_z0 + N_z1) / (2 N_z),

with alpha_k = (-1)^k / (2n).  A fidelity above 1/2 certifies genuine
multipartite entanglement.  Uncertainties treat every recorded count as an
independent Poisson variable and propagate to first order (delta method).

Outcome strings use 'H'/'V' characters ordered by path label.  For an M_k
setting the letters denote the analyzer ports: 'H' is the +1 port, 'V' the
-1 port, and the event sign is the product of the per-photon eigenvalues,
i.e. +1 for an even number of 'V' outcomes.

Standard library only, and light even there: no numpy, and, like every
module of the package, no ``dataclasses`` (see ``spdclab._record``).  Plain
value records are ``NamedTuple``s; the records that check their input are
``__slots__`` classes on ``_record._Record``.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, NamedTuple, Optional

from ._record import _is_finite_real, _Record
from .errors import InsufficientDataError, SchemaError

Z_SETTING = "Z"


def m_setting(k: int) -> str:
    return f"M{k}"


def setting_names(n: int) -> list:
    """The settings of an n-photon dataset: Z, then M0..M(n-1)."""
    return [Z_SETTING] + [m_setting(k) for k in range(n)]


def setting_index(name: str) -> Optional[int]:
    """M-setting index, or None for the Z setting."""
    if name == Z_SETTING:
        return None
    # isdigit alone admits other scripts' digits, such as '²', which int() rejects
    if (isinstance(name, str) and name.startswith("M")
            and name[1:].isascii() and name[1:].isdigit()):
        return int(name[1:])
    raise SchemaError(f"unknown setting name {name!r}")


def outcome_sign(outcome: str) -> int:
    return -1 if outcome.count("V") % 2 else 1


def _check_count(c) -> None:
    # bool is an int subclass, but JSON true is not a count.  JSON's and the
    # simulator's counts are ints and skip the abstract-class test, which
    # costs a microsecond a count; it admits a library caller's numpy integers
    integral = type(c) is int or (not isinstance(c, bool)
                                  and isinstance(c, numbers.Integral))
    if not (integral and c >= 0):
        raise SchemaError(f"counts must be non-negative integers, got {c!r}")


def _check_mode_count(n) -> None:
    _check_count(n)
    if n < 1:
        raise SchemaError(f"n must be at least 1, got {n!r}")


def _reduce(histogram: dict, z: bool) -> list:
    """Totals of a histogram in one walk: [all H, all V, rest] for Z, [+1, -1] for M_k.

    A str outcome with an int count >= 0 takes the fast way: it is good iff
    ``strip("HV")`` leaves nothing, its sign is the parity of its V letters,
    and under Z it is all H iff it is not empty and holds no V, all V iff it
    is not empty and holds no H, and the rest otherwise (the empty outcome
    included).  Any other item goes through ``_checked_bucket``.
    """
    sums = [0, 0, 0]
    for outcome, c in histogram.items():
        if type(outcome) is not str or type(c) is not int or c < 0 or outcome.strip("HV"):
            bucket, c = _checked_bucket(outcome, c, z)
        elif not z:
            bucket = outcome.count("V") & 1
        elif "V" not in outcome:
            bucket = 0 if outcome else 2
        else:
            bucket = 2 if "H" in outcome else 1
        sums[bucket] += c
    return sums if z else sums[:2]


def _checked_bucket(outcome, c, z: bool) -> tuple:
    """(bucket, count) of ``_reduce`` by the checking rule: the outcome's letters
    as a set, then its count; a key that is not a str is taken by the letters
    it iterates over."""
    letters = set(outcome)
    if letters - set("HV"):
        raise SchemaError(f"bad outcome string {outcome!r}")
    _check_count(c)
    if not z:
        return int(outcome_sign(outcome) < 0), int(c)
    return (0 if letters == {"H"} else 1 if letters == {"V"} else 2), int(c)


class SettingCounts(_Record):
    """Tallies for one measurement setting.

    Either a full histogram over outcome strings, aggregated totals, or
    both (in which case they must agree).  Aggregated form uses
    ``{"n_plus": .., "n_minus": ..}`` for M settings and
    ``{"n_all_h": .., "n_all_v": .., "n_rest": ..}`` for Z.
    """

    # _aggregates: the aggregates as Python ints, reduced once, so no
    # statistic walks the histogram
    __slots__ = ("setting", "histogram", "aggregated", "hours", "_aggregates")

    def __init__(self, setting: str, histogram: Optional[dict] = None,
                 aggregated: Optional[dict] = None, hours: Optional[float] = None):
        k = setting_index(setting)
        if hours is not None and not (_is_finite_real(hours) and hours >= 0):
            raise SchemaError(f"setting {setting}: hours must be null or a finite "
                              f"non-negative number, got {hours!r}")
        if histogram is None and aggregated is None:
            raise SchemaError(f"setting {setting}: no counts given")
        if not all(isinstance(c, (dict, type(None))) for c in (histogram, aggregated)):
            raise SchemaError(f"setting {setting}: counts must be JSON objects")
        keys = ("n_all_h", "n_all_v", "n_rest") if k is None else ("n_plus", "n_minus")
        reduced = None
        if histogram is not None:
            reduced = dict(zip(keys, _reduce(histogram, k is None)))
        if aggregated is not None:
            if set(aggregated) != set(keys):
                raise SchemaError(
                    f"setting {setting}: aggregated keys must be {sorted(keys)}"
                )
            for c in aggregated.values():
                _check_count(c)
            given = {key: int(aggregated[key]) for key in keys}
            if reduced is not None and reduced != given:
                raise SchemaError(
                    f"setting {setting}: histogram and aggregated counts disagree"
                )
            reduced = given
        self._fill(setting, histogram, aggregated, hours, reduced)

    def aggregates(self) -> dict:
        return dict(self._aggregates)

    def total(self) -> int:
        return sum(self._aggregates.values())

    def correlation(self) -> tuple:
        """(E, var E) of an M setting: E = (N+ - N-) / N, var E = 4 N+ N- / N^3.

        The variance treats N+ and N- as independent Poisson counts.
        """
        if setting_index(self.setting) is None:
            raise ValueError("correlation expects an M setting")
        n_p, n_m = self._aggregates["n_plus"], self._aggregates["n_minus"]
        total = n_p + n_m
        if total < 1:
            raise InsufficientDataError(f"setting {self.setting} has zero total count")
        return (n_p - n_m) / total, 4.0 * n_p * n_m / total**3


class CountDataset(_Record):
    """One SettingCounts per required setting: Z plus M_0..M_{n-1}."""

    __slots__ = ("n", "settings")

    def __init__(self, n: int, settings: tuple):
        _check_mode_count(n)
        settings = tuple(settings)
        # the count first: the names of a huge n are never built
        if len(settings) != n + 1:
            raise SchemaError(f"a dataset with n = {n} must have {n + 1} settings, "
                              f"got {len(settings)}")
        names = [s.setting for s in settings]
        expected = setting_names(n)
        if sorted(names) != sorted(expected):
            raise SchemaError(
                f"dataset must contain settings {expected} exactly once, got {names}"
            )
        for s in settings:
            outcome = next((o for o in s.histogram or () if len(o) != n), None)
            if outcome is not None:
                raise SchemaError(
                    f"setting {s.setting}: outcome {outcome!r} is not {n} letters long")
        self._fill(n, settings)

    def setting(self, name: str) -> SettingCounts:
        for s in self.settings:
            if s.setting == name:
                return s
        raise KeyError(name)

    def z(self) -> SettingCounts:
        return self.setting(Z_SETTING)

    def m(self, k: int) -> SettingCounts:
        return self.setting(m_setting(k))

    def correlations(self) -> list:
        """E_k = (N_k+ - N_k-) / N_k for k = 0..n-1."""
        return [self.m(k).correlation()[0] for k in range(self.n)]


class FidelityEstimate(NamedTuple):
    value: float
    sigma: float
    population_term: float
    coherence_term: float


class Verdict(NamedTuple):
    threshold: float
    sigmas_above: float
    genuine: bool


class PopulationStats(NamedTuple):
    population_fraction: float
    signal_to_noise: float  # math.inf when n_rest == 0
    variance: float         # Poisson variance of population_fraction


def alpha_coefficients(n: int) -> list:
    return [(-1.0) ** k / (2.0 * n) for k in range(n)]


def mean_coherence_visibility(correlations: Iterable[float]) -> float:
    """Mean |E_k| over the given correlations; the sum is exact, so the
    order they come in does not matter."""
    magnitudes = [abs(e) for e in correlations]
    return math.fsum(magnitudes) / len(magnitudes)


def estimate_fidelity(data: CountDataset) -> FidelityEstimate:
    """Count-based fidelity with delta-method Poisson uncertainty.

    Every category is an independent Poisson count.  For each M_k term,
    var[(N+-N-)/N] = 4 N+ N- / N^3; for the Z term, var[(N0+N1)/N] =
    N_rest (N0+N1) / N^3.  Empty categories contribute zero variance.
    """
    pop = population_stats(data.z())
    coherence_terms, var = [], 0.0
    for k, alpha in enumerate(alpha_coefficients(data.n)):
        e_k, var_k = data.m(k).correlation()
        coherence_terms.append(alpha * e_k)
        var += alpha**2 * var_k
    var += 0.25 * pop.variance
    population = 0.5 * pop.population_fraction
    coherence = math.fsum(coherence_terms)
    return FidelityEstimate(
        value=population + coherence,
        sigma=math.sqrt(var),
        population_term=population,
        coherence_term=coherence,
    )


def entanglement_verdict(est: FidelityEstimate, threshold: float = 0.5) -> Verdict:
    """Distance above the bi-separability threshold in units of sigma."""
    if est.sigma <= 0:
        raise ValueError("verdict requires sigma > 0")
    sigmas = (est.value - threshold) / est.sigma
    return Verdict(
        threshold=threshold,
        sigmas_above=sigmas,
        genuine=bool(est.value > threshold),
    )


def population_stats(z: SettingCounts) -> PopulationStats:
    if setting_index(z.setting) is not None:
        raise ValueError("population_stats expects the Z setting")
    agg = z._aggregates
    n_sig = agg["n_all_h"] + agg["n_all_v"]
    n_z = n_sig + agg["n_rest"]
    if n_z < 1:
        raise InsufficientDataError("setting Z has zero total count")
    snr = math.inf if agg["n_rest"] == 0 else n_sig / agg["n_rest"]
    return PopulationStats(population_fraction=n_sig / n_z, signal_to_noise=snr,
                           variance=agg["n_rest"] * n_sig / n_z**3)
