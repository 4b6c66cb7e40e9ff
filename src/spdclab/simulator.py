"""Monte Carlo model of the five-source, four-PBS ten-photon experiment.

Per pulse each source emits 0, 1 or 2 photon pairs with truncated
thermal-style weights (1 : p : g p^2); every photon independently survives
collection with its arm efficiency.  Pulses whose surviving photons form
the canonical configuration (exactly one fully surviving pair per source)
are coherent: their post-selected statistics come from the exact fused
state a|H...H> + b|V...V>, a and b the normalized products of the sources'
HH and VV amplitudes, with one scalar overlap per PBS link damping the
coherence between its two components by their product D (partial
distinguishability dephases, it does not remove photons, so H/V
populations are unaffected).  All other surviving configurations
(double-pair contamination) are routed as classically polarized photons
through the PBS chain: H transmits, V reflects to the neighboring output,
and an event registers only when every analyzer path fires on exactly one
port.

The outcome probabilities of a candidate pulse are computed exactly, not
sampled, and without a dense state: every candidate is routed classically
around a ring of one small transfer matrix per source, which also gives
the coherent events' populations, and the M_k settings add their
coherence in closed form.  Pulses are independent and each gives at most
one outcome, so a run is one binomial draw (candidate pulses) and one
multinomial draw (outcomes plus a no-event bucket) per setting, whatever
the pulse count.

``run_monte_carlo`` runs on the standard library alone: the ring is
contracted in plain Python and the draws come from ``spdclab.sampling``, so
``simulate`` never imports numpy.  ``sample_postselected`` takes a numpy
``Generator`` and imports numpy when called.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import random
import sys
import warnings
from typing import Optional, Sequence

from . import qstate, sampling
from ._record import _is_finite_real, _Record
from .errors import InsufficientDataError, NumericalConsistencyError, SchemaError, TopologyError
from .fileio import _json_object, _record_fields
from .qstate import DEFAULT_PBS_LINKS, FusionNetwork, PairSource
from .witness import (
    CountDataset,
    SettingCounts,
    Z_SETTING,
    mean_coherence_visibility,
    population_stats,
    setting_index,
    setting_names,
)

DEFAULT_REP_RATE_HZ = 76.0e6
#: config keys that describe the record; every other key is an ExperimentConfig field
CONFIG_METADATA = ("schema_version", "kind", "notes")


class SourceModel(_Record):
    """Emission and collection model of one pulsed pair source.

    ``pair_prob`` is the single-pair weight p per pulse, and
    ``double_pair_factor`` is g: the double-pair weight is g p^2.
    """

    __slots__ = ("pair_prob", "xi_signal", "xi_idler", "theta_state", "rotated",
                 "double_pair_factor")

    def __init__(self, pair_prob: float, xi_signal: float, xi_idler: float,
                 theta_state: float = math.pi / 4, rotated: bool = False,
                 double_pair_factor: float = 2.0):
        self._fill(pair_prob, xi_signal, xi_idler, theta_state, rotated, double_pair_factor)
        for name in self._fields:
            if name != "rotated" and not _is_finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if not isinstance(self.rotated, bool):
            raise ValueError(f"rotated must be true or false, got {self.rotated!r}")
        if not 0.0 <= self.pair_prob < 1.0:
            raise ValueError("pair_prob must lie in [0, 1)")
        for name in ("xi_signal", "xi_idler"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.double_pair_factor < 0.0:
            raise ValueError("double_pair_factor must be finite and >= 0")

    def pair_number_probs(self) -> tuple:
        """P(0), P(1), P(2) pairs per pulse; weights 1 : p : g p^2."""
        w = (1.0, self.pair_prob, self.double_pair_factor * self.pair_prob**2)
        total = sum(w)
        return tuple(x / total for x in w)

    def mean_pairs_per_pulse(self) -> float:
        p = self.pair_number_probs()
        return p[1] + 2.0 * p[2]

    def pair_source(self) -> PairSource:
        """The pair state this source emits."""
        return PairSource(self.theta_state, self.rotated)

    def branch_probs(self) -> tuple:
        """Classical (P_HH, P_VV) of the pair state, rotation included."""
        a_hh, a_vv = self.pair_source().amplitudes()
        return float(a_hh**2), float(a_vv**2)


class InterferenceModel(_Record):
    """Scalar indistinguishability amplitude per PBS link."""

    __slots__ = ("mode_overlap",)

    def __init__(self, mode_overlap: tuple = (1.0,)):
        try:
            ov = tuple(mode_overlap)
        except TypeError:       # one number for every link
            ov = (mode_overlap,)
        if not all(_is_finite_real(v) and 0.0 <= v <= 1.0 for v in ov):
            raise ValueError("mode_overlap values must be numbers in [0, 1]")
        self._fill(tuple(float(v) for v in ov))

    def per_link(self, n_links: int) -> tuple:
        if len(self.mode_overlap) == 1:
            return self.mode_overlap * n_links
        if len(self.mode_overlap) != n_links:
            raise ValueError(f"need 1 or {n_links} overlap values")
        return self.mode_overlap

    def coherence_damping(self, n_links: int) -> float:
        """Damping of the all-H / all-V coherence: one factor per link."""
        return math.prod(self.per_link(n_links))


class DetectorModel(_Record):
    __slots__ = ("dark_count_prob",)

    def __init__(self, dark_count_prob: float = 0.0):
        if not (_is_finite_real(dark_count_prob) and 0.0 <= dark_count_prob < 1.0):
            raise ValueError("dark_count_prob must lie in [0, 1)")
        self._fill(dark_count_prob)


class ExperimentConfig(_Record):
    """Sources, the PBS links fusing their signal photons, and the rig around them.

    Every topology check runs here: at most ``MAX_DENSE_MODES // 2`` sources,
    links that are integer pairs of known modes forming a simple chain through
    one signal photon per source, and an overlap list of 1 or one value per link.
    A ``detector`` of None is a ``DetectorModel()``, a ``provenance`` of None
    an empty dict.
    """

    __slots__ = ("sources", "interference", "pbs_links", "rep_rate_hz", "detector", "seed",
                 "provenance")

    def __init__(self, sources: tuple, interference: InterferenceModel,
                 pbs_links: tuple = DEFAULT_PBS_LINKS, rep_rate_hz: float = DEFAULT_REP_RATE_HZ,
                 detector: Optional[DetectorModel] = None, seed: int = 0,
                 provenance: Optional[dict] = None):
        self._fill(tuple(sources), interference, pbs_links, rep_rate_hz,
                   DetectorModel() if detector is None else detector, seed,
                   {} if provenance is None else provenance)
        if self.n_modes() > qstate.MAX_DENSE_MODES:
            raise ValueError(f"at most {qstate.MAX_DENSE_MODES // 2} sources "
                             f"({qstate.MAX_DENSE_MODES} modes) can be simulated, "
                             f"got {len(self.sources)}")
        object.__setattr__(self, "pbs_links", self.network().pbs_links)
        _ring_layout(self)
        self.interference.per_link(len(self.pbs_links))
        if not (_is_finite_real(self.rep_rate_hz) and self.rep_rate_hz > 0.0):
            raise ValueError("rep_rate_hz must be positive and finite")
        if not (_is_finite_real(self.seed) and isinstance(self.seed, numbers.Integral)
                and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")

    def n_modes(self) -> int:
        return 2 * len(self.sources)

    def network(self) -> FusionNetwork:
        """The sources' pair states fused through the PBS links."""
        return FusionNetwork(tuple(s.pair_source() for s in self.sources), self.pbs_links)


def overlap_for_visibility(visibility: float) -> float:
    """Scalar mode overlap giving two-photon interference visibility v = overlap^2."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    return math.sqrt(visibility)


def tenfold_rate(total_pair_rate: float, xi: float, rep_rate_hz: float) -> float:
    """n-fold coincidence rate in counts/hour: rep * (p xi^2)^5 / 16.

    ``total_pair_rate`` is pairs/s, so p = R_T / rep_rate.  Valid for
    p << 1; a warning flags the regime violation at p >= 0.1.
    """
    p = total_pair_rate / rep_rate_hz
    if p >= 0.1:
        warnings.warn(
            f"pair probability per pulse {p:.3f} >= 0.1: outside the "
            "low-gain regime assumed by the rate formula"
        )
    return rep_rate_hz * (p * xi * xi) ** 5 / 16.0 * 3600.0


# ---------------------------------------------------------------------------
# Exact outcome probabilities
# ---------------------------------------------------------------------------

def _ring_layout(config: ExperimentConfig) -> list:
    """(source, signal mode, idler mode) at each position of the PBS chain.

    An H signal transmits to its own chain output; a V signal reflects to
    the output one position back, cyclically.  So the chain path at
    position i holds the H signals of source i and the V signals of source
    i + 1, which makes the classical routing a ring of transfer matrices.
    """
    chain = config.network().chain()
    sources = [(mode - 1) // 2 for mode in chain]
    if sorted(sources) != list(range(len(config.sources))):
        raise TopologyError("chain must fuse one signal photon per source")
    # a source's two modes are 2p+1 and 2p+2; the one off the chain is the idler
    return [(p, mode, mode + 1 if mode % 2 else mode - 1)
            for p, mode in zip(sources, chain)]


def _source_table(src: SourceModel) -> tuple:
    """(photons, clean) of one source, given that it emits at least one pair.

    ``photons`` maps each surviving (H signals, V signals, H idlers, V idlers)
    to its weight, over (1 or 2 pairs) x (HH or VV per pair) x (survival of
    each photon); ``clean`` is the weight of exactly one fully surviving pair
    and no stray photon.
    """
    probs = src.pair_number_probs()
    emit = probs[1] + probs[2]
    given_emit = (probs[1] / emit, probs[2] / emit) if probs[0] < 1.0 else (1.0, 0.0)
    pol_w = src.branch_probs()
    survive_s = (1.0 - src.xi_signal, src.xi_signal)
    survive_i = (1.0 - src.xi_idler, src.xi_idler)
    photons, clean = {}, 0.0
    for n_pairs in (1, 2):
        for pairs in itertools.product(itertools.product((0, 1), repeat=3),
                                       repeat=n_pairs):
            weight = given_emit[n_pairs - 1]
            counts = [0, 0, 0, 0]
            full = strays = 0
            for pol, s_ok, i_ok in pairs:
                weight *= pol_w[pol] * survive_s[s_ok] * survive_i[i_ok]
                counts[pol] += s_ok
                counts[2 + pol] += i_ok
                full += s_ok and i_ok
                strays += s_ok != i_ok
            key = tuple(counts)
            photons[key] = photons.get(key, 0.0) + weight
            if full == 1 and strays == 0:
                clean += weight
    return photons, clean


def _path_weights(n_h: int, n_v: int, z_rule: bool) -> tuple:
    """Weights of the (H port, V port) bits a path records.

    Z: the path fires iff it holds photons of one polarization only, and
    the bit is that polarization.  M_k: each photon leaves either port with
    probability 1/2, so m >= 1 photons give each bit with weight 2^-m.
    """
    if z_rule:
        return float(n_h > 0 and n_v == 0), float(n_v > 0 and n_h == 0)
    w = 0.5 ** (n_h + n_v) if n_h + n_v else 0.0
    return w, w


def _transfer_matrices(photons: dict, z_rule: bool) -> list:
    """One source's matrices T[3 o + r] for its (chain bit, idler bit) (0, 0),
    (0, 1), (1, 0) and (1, 1).

    o is the number of V signals it sends back along the ring, r the number
    it receives from the next source; its chain path holds its own H signals
    and the r received V ones.
    """
    mats = [[0.0] * 9 for _ in range(4)]
    t00, t01, t10, t11 = mats
    for (h_sig, v_sig, h_idl, v_idl), weight in photons.items():
        idler_h, idler_v = _path_weights(h_idl, v_idl, z_rule)
        w_h, w_v = weight * idler_h, weight * idler_v
        for r in range(3):
            chain_h, chain_v = _path_weights(h_sig, r, z_rule)
            at = 3 * v_sig + r
            t00[at] += chain_h * w_h
            t01[at] += chain_h * w_v
            t10[at] += chain_v * w_h
            t11[at] += chain_v * w_v
    return mats


def _matmul(a, b) -> list:
    """Product of two 3 x 3 matrices stored row by row."""
    return [a[i] * b[j] + a[i + 1] * b[j + 3] + a[i + 2] * b[j + 6]
            for i in (0, 3, 6) for j in (0, 1, 2)]


def _ring_products(factors: list) -> list:
    """(matrix, outcome bits) of the products along a stretch of the ring.

    Each factor lists its distinct nonzero matrices with the bits each one
    carries; a product carries every combination of its factors' bits.
    """
    products = factors[0]
    for options in factors[1:]:
        products = [(_matmul(mat, factor), [x | y for x in bits for y in more])
                    for mat, bits in products for factor, more in options]
    return [(mat, bits) for mat, bits in products if any(mat)]


def _classical_part(layout: list, tables: list, z_rule: bool) -> list:
    """Outcome weights of every candidate routed classically around the ring.

    The weight of an outcome is the trace of the sources' matrices for its
    bits, multiplied around the ring.  It is taken meet-in-the-middle: the
    products over the first and the second half of the ring, then one trace
    per pair of them.  Equal matrices are multiplied once: under M_k every
    bit of a path has the same weight, so this part is one trace, the same
    for every outcome.

    A candidate that is clean at every source routes to all-H or all-V as
    its pairs' polarizations agree, so this part holds the clean events'
    populations; only their coherence is left to add.
    """
    n = 2 * len(layout)
    factors = []
    for (_, signal, idler), (photons, _) in zip(layout, tables):
        mats = _transfer_matrices(photons, z_rule)
        options = {}                # matrix -> the outcome bits it carries
        for b in (0, 1):
            for d in (0, 1):
                mat = tuple(mats[2 * b + d])
                if any(mat):
                    options.setdefault(mat, []).append((b << n - signal) | (d << n - idler))
        factors.append(list(options.items()))
    half = len(layout) // 2
    second = _ring_products(factors[half:])
    # trace(A B) is A's rows against B's columns: store B by columns
    columns = [mat[0::3] + mat[1::3] + mat[2::3] for mat, _ in second]
    out = [0.0] * 2**n
    for mat, bits in _ring_products(factors[:half]):
        traces = [sum(map(operator.mul, mat, cols)) for cols in columns]
        for (_, more), weight in zip(second, traces):
            for x in bits:
                for y in more:
                    out[x | y] = weight
    return out


def _fused_amplitudes(config: ExperimentConfig) -> tuple:
    """(a, b, success) of the fused state a|H...H> + b|V...V>.

    The chain keeps the sources' product state only where all took the same
    branch: A|H...H> + B|V...V>, A and B the products of their HH and VV
    amplitudes, which survives with probability A^2 + B^2.  A success below
    the normal floating-point range raises: a and b would carry its rounding.
    """
    amps = [s.pair_source().amplitudes() for s in config.sources]
    big_a = math.prod(hh for hh, _ in amps)
    big_b = math.prod(vv for _, vv in amps)
    success = float(big_a * big_a + big_b * big_b)
    if success < sys.float_info.min:
        raise NumericalConsistencyError(
            f"post-selection annihilated the state: its success A^2 + B^2 = {success:.3g} "
            f"is below the normal floating-point range")
    root = math.sqrt(success)
    return big_a / root, big_b / root, success


def _parities(n: int) -> list:
    """|x| mod 2 of every n-bit outcome index x, in basis order."""
    par = [0]
    for _ in range(n):
        par += [1 - q for q in par]
    return par


def _outcome_lists(config: ExperimentConfig, settings: Sequence[str]) -> dict:
    """P(outcome | candidate pulse) over the 2^n outcome strings, per setting.

    Every candidate (every source emits at least one pair) is routed around
    the PBS ring, under the routing rules the settings need; those clean at
    every source are coherent.  Their fused state's coherence, damped by D,
    adds (-1)^(k + |x|) 2abD / 2^n to the probability of an M_k outcome x
    with |x| V letters.  Dark counts thin every event by (1 - d)^n.
    """
    layout = _ring_layout(config)
    tables = [_source_table(config.sources[p]) for p, _, _ in layout]
    a, b, success = _fused_amplitudes(config)
    weight = math.prod(clean for _, clean in tables) * success
    n = config.n_modes()
    damping = config.interference.coherence_damping(len(config.pbs_links))
    fringe = 2.0 * a * b * damping / 2**n
    classical = {z: _classical_part(layout, tables, z) for z in {s == Z_SETTING for s in settings}}
    thinning = (1.0 - config.detector.dark_count_prob) ** n
    parity = _parities(n) if False in classical else None
    out, by_sign = {}, {}         # M_k settings of one sign of (-1)^k share a list
    for s in settings:
        k = setting_index(s)
        if k is None:
            out[s] = [thinning * w for w in classical[True]]
            continue
        sign = (-1) ** k
        if sign not in by_sign:
            even = weight * sign * fringe
            shift = (even, -even)
            # the populations and the coherence are rounded apart, so an exact 0
            # can come out as -1e-17, which no draw accepts
            by_sign[sign] = [thinning * v if v > 0.0 else 0.0
                             for v in [w + shift[q] for w, q in zip(classical[False], parity)]]
        out[s] = by_sign[sign]
    return out


def _outcome_probabilities(config: ExperimentConfig, settings: Sequence[str]) -> dict:
    """``_outcome_lists`` as numpy arrays, for the numpy callers; imports numpy."""
    import numpy as np

    return {s: np.array(p) for s, p in _outcome_lists(config, settings).items()}


def sample_postselected(config: ExperimentConfig, setting: str, n_events: int, rng):
    """Outcome indices for post-selected clean events in one setting.

    ``rng`` is a ``numpy.random.Generator``; returns a numpy array.  With
    lossless arms, no double pairs and no dark counts every candidate is
    clean, so its outcome probabilities are the clean events' own times the
    success probability.
    """
    lossless = config._replace(detector=DetectorModel(), sources=tuple(
        s._replace(xi_signal=1.0, xi_idler=1.0, double_pair_factor=0.0)
        for s in config.sources))
    probs = _outcome_probabilities(lossless, [setting])[setting]
    return rng.choice(probs.size, size=n_events, p=probs / probs.sum())


# ---------------------------------------------------------------------------
# Main Monte Carlo driver
# ---------------------------------------------------------------------------

#: most pulses per setting, the largest signed 64-bit count; ``spdclab.sampling``
#: draws exactly up to it
MAX_PULSES = 2**63 - 1


class SimResult(_Record):
    __slots__ = ("counts", "pulses_per_setting", "rates", "diagnostics")

    def __init__(self, counts: CountDataset, pulses_per_setting: int, rates: dict,
                 diagnostics: dict):
        self._fill(counts, pulses_per_setting, rates, diagnostics)


def _model_rates(config: ExperimentConfig) -> dict:
    """First-order brightness estimates.

    The tenfold model rate uses each source's mean pairs per pulse (the
    total pair rate divided by the repetition rate), matching the usual
    R^5 xi^10 bookkeeping; double-pair corrections to post-selection are
    left to the outcome model.
    """
    success = _fused_amplitudes(config)[2]
    rep = config.rep_rate_hz
    twofold = []
    surviving_per_pulse = success
    for s in config.sources:
        twofold.append(rep * s.mean_pairs_per_pulse() * s.xi_signal * s.xi_idler)
        surviving_per_pulse *= s.mean_pairs_per_pulse() * s.xi_signal * s.xi_idler
    return {
        "twofold_per_source_hz": twofold,
        "tenfold_per_hour_model": surviving_per_pulse * rep * 3600.0,
        "postselection_success_prob": success,
    }


def run_monte_carlo(config: ExperimentConfig, pulses: int,
                    settings: Sequence[str],
                    seed: Optional[int] = None) -> SimResult:
    """Simulate ``pulses`` pump pulses for each requested setting.

    Only pulses in which every source emits at least one pair can register
    an n-fold coincidence (dark-count-only coincidences are not modeled).
    Per setting, the candidate count is Binomial(pulses, P(all emit)) and
    the outcome counts are Multinomial(candidates, exact p_outcome) with a
    no-event bucket, both drawn by ``spdclab.sampling`` from the setting's
    own ``random.Random(f"{seed}:{setting index}")``, the index counting
    from 0 in ``settings``.  Results are byte-identical for identical
    (config, pulses, settings, seed), on the standard library alone.  An
    outcome whose probability is at most about 2^-54 of the mass not yet
    drawn is given 0 without a draw, so an exact 0 and a rounding residue of
    0 give the same counts.
    """
    if not 1 <= pulses <= MAX_PULSES:
        raise ValueError(f"pulses must lie in [1, {MAX_PULSES}]")
    base_seed = config.seed if seed is None else seed
    probs = _outcome_lists(config, settings)
    p_all_emit = math.prod(1.0 - s.pair_number_probs()[0] for s in config.sources)
    n = config.n_modes()
    labels = qstate.basis_labels(n)

    histograms = {}
    diagnostics = {"events_per_setting": {}, "candidates_per_setting": {}}
    for s_idx, setting in enumerate(settings):
        rng = random.Random(f"{base_seed}:{s_idx}")
        n_cand = sampling.binomial(rng, pulses, p_all_emit)
        counts = sampling.multinomial(rng, n_cand, probs[setting])
        histograms[setting] = {labels[i]: c for i, c in enumerate(counts) if c}
        diagnostics["events_per_setting"][setting] = sum(counts)
        diagnostics["candidates_per_setting"][setting] = n_cand

    setting_counts = tuple(SettingCounts(setting=s, histogram=histograms[s])
                           for s in settings)
    rates = _model_rates(config)
    seconds = pulses / config.rep_rate_hz
    rates["tenfold_per_hour_observed"] = {
        s: diagnostics["events_per_setting"][s] / seconds * 3600.0 for s in settings
    }
    diagnostics.update(_correlation_diagnostics(setting_counts))
    return SimResult(counts=_partial_dataset(n, setting_counts),
                     pulses_per_setting=pulses, rates=rates,
                     diagnostics=diagnostics)


def _partial_dataset(n, setting_counts):
    """Pad unrequested settings with empty histograms to keep the schema."""
    have = {s.setting for s in setting_counts}
    padded = list(setting_counts)
    for name in setting_names(n):
        if name not in have:
            padded.append(SettingCounts(setting=name, histogram={}))
    return CountDataset(n=n, settings=tuple(padded))


def _correlation_diagnostics(setting_counts) -> dict:
    """Witness statistics of each simulated setting that recorded events."""
    corr = {}
    out = {"correlations": corr}
    for s in setting_counts:
        try:
            if setting_index(s.setting) is None:
                pop, agg = population_stats(s), s.aggregates()
                out["z_basis"] = {"population_fraction": pop.population_fraction,
                                  "all_h": agg["n_all_h"], "all_v": agg["n_all_v"],
                                  "rest": agg["n_rest"]}
            else:
                corr[s.setting] = s.correlation()[0]
        except InsufficientDataError:
            pass  # a setting without events has no statistics
    if corr:
        out["mean_coherence_visibility"] = mean_coherence_visibility(corr.values())
    return out


# ---------------------------------------------------------------------------
# Reference configuration
# ---------------------------------------------------------------------------

#: published per-source twofold coincidence rates (Hz) with spectral filters
REFERENCE_TWOFOLD_HZ = (605e3, 655e3, 590e3, 560e3, 515e3)
#: published per-source heralded efficiencies with spectral filters
REFERENCE_XI = (0.373, 0.390, 0.370, 0.380, 0.368)
#: published average two-photon interference visibility at the fusion PBSs
REFERENCE_HOM_VISIBILITY = 0.715


def _solve_pair_prob(twofold_hz: float, xi_s: float, xi_i: float,
                     rep_rate_hz: float, g: float) -> float:
    """p such that rep * mean_pairs(p) * xi_s * xi_i matches the twofold rate.

    With t the target mean pairs per pulse, (p + 2 g p^2) / (1 + p + g p^2) = t
    is g (2 - t) p^2 + (1 - t) p - t = 0, whose non-negative root is written
    in the form that stays finite at g = 0.  Raises ValueError when that root
    is not in [1e-9, 0.5], or does not exist (t >= 1 at g = 0).
    """
    t = twofold_hz / (rep_rate_hz * xi_s * xi_i)
    denom = (1.0 - t) + math.sqrt((1.0 - t) ** 2 + 4.0 * g * (2.0 - t) * t)
    p = 2.0 * t / denom if denom > 0.0 else math.nan
    if not 1e-9 <= p <= 0.5:
        raise ValueError(
            f"no pair probability in [1e-9, 0.5] gives {twofold_hz} Hz twofold "
            f"at {rep_rate_hz} Hz with efficiencies {xi_s}, {xi_i} and g = {g}"
        )
    return p


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready form of a configuration (schema 'experiment_config')."""
    return {
        "schema_version": 1,
        "kind": "experiment_config",
        "rep_rate_hz": config.rep_rate_hz,
        "seed": config.seed,
        "sources": [s._asdict() for s in config.sources],
        "interference": {"mode_overlap": list(config.interference.mode_overlap)},
        "detector": config.detector._asdict(),
        "network": {"pbs_links": [list(l) for l in config.pbs_links]},
        "provenance": dict(config.provenance),
    }


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse a configuration dict, raising SchemaError on malformed fields."""
    # records are built by field name: an unknown key is a TypeError
    record = _record_fields(raw, "experiment_config", "config file", CONFIG_METADATA)
    try:
        network = record.pop("network")
        if not isinstance(network, dict) or set(network) != {"pbs_links"}:
            raise SchemaError(f"the network record must hold exactly 'pbs_links', "
                              f"got {network!r}")
        what = "experiment config record"
        return ExperimentConfig(
            sources=tuple(SourceModel(**_json_object(rec, f"{what} sources[{i}]"))
                          for i, rec in enumerate(record.pop("sources"))),
            pbs_links=network["pbs_links"],
            interference=InterferenceModel(
                **_json_object(record.pop("interference", {}), f"{what} interference")),
            detector=DetectorModel(**_json_object(record.pop("detector", {}), f"{what} detector")),
            **record,
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"malformed experiment config: {exc}") from exc


def reference_config(rep_rate_hz: float = DEFAULT_REP_RATE_HZ,
                     double_pair_factor: float = 2.0,
                     seed: int = 7) -> ExperimentConfig:
    """Configuration reproducing the published ten-photon source parameters.

    Pair probabilities are solved from the published filtered twofold rates
    and heralded efficiencies; the PBS-link overlap comes from the
    published 71.5% interference visibility; pairs 4 and 5 are rotated by
    90 degrees.  The repetition rate is NOT published for this system:
    76 MHz (a standard ultrafast oscillator) is an assumption, flagged in
    the provenance notes, chosen for consistency with the published
    tenfold rate of roughly 0.5 counts per hour.
    """
    overlap = overlap_for_visibility(REFERENCE_HOM_VISIBILITY)
    sources = []
    for rate, xi_val, pair in zip(REFERENCE_TWOFOLD_HZ, REFERENCE_XI,
                                  qstate.reference_network().sources):
        p = _solve_pair_prob(rate, xi_val, xi_val, rep_rate_hz, double_pair_factor)
        sources.append(SourceModel(
            pair_prob=p, xi_signal=xi_val, xi_idler=xi_val,
            theta_state=pair.theta_state, rotated=pair.rotated,
            double_pair_factor=double_pair_factor,
        ))
    provenance = {
        "twofold_per_source_hz": "published filtered twofold coincidence rates",
        "xi": "published per-source heralded efficiencies (filtered)",
        "theta_state": "published pair-state angle 7*pi/30 for the non-collinear type-II cut",
        "rotated": "published 90-degree rotation of the last two pairs",
        "mode_overlap": "solved from the published 71.5% interference visibility (overlap^2 model)",
        "rep_rate_hz": "ASSUMPTION: not published; 76 MHz standard oscillator, "
                       "consistent with the published ~0.5 tenfold counts/hour",
        "double_pair_factor": "model default g=2 (thermal bunching); not published",
        "dark_count_prob": "idealized to 0",
    }
    return ExperimentConfig(
        sources=tuple(sources), interference=InterferenceModel((overlap,)),
        rep_rate_hz=rep_rate_hz, detector=DetectorModel(0.0),
        seed=seed, provenance=provenance,
    )
