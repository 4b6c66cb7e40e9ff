"""Per-pulse reference tracer for the simulator's exact outcome model.

Each candidate pulse (every source emits at least one pair) is drawn and
traced photon by photon: pair number, pair polarization and the survival
of every photon.  Pulses whose survivors reduce to one full pair per source
are coherent and draw from the dense fused state's Born probabilities
(``clean_events``); every other pulse routes its photons through the PBS
chain one by one.  This is the sampler the simulator used before its
probabilities were computed exactly; tests compare the two.  Nothing here
reads the simulator's outcome model.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from spdclab.errors import TopologyError
from spdclab.qstate import PureState, fuse_and_postselect, mk_eigenbasis, outcome_distribution
from spdclab.simulator import ExperimentConfig
from spdclab.witness import Z_SETTING, setting_index


class Router:
    """Per-photon deterministic routing through the PBS chain."""

    def __init__(self, config: ExperimentConfig):
        self.n_sources = len(config.sources)
        chain = config.network().chain()
        if len(chain) != self.n_sources:
            raise TopologyError("chain must fuse one signal photon per source")
        self.signal_mode = {}
        self.idler_mode = {}
        for p in range(self.n_sources):
            modes = {2 * p + 1, 2 * p + 2}
            sig = modes & set(chain)
            if len(sig) != 1:
                raise TopologyError(f"source {p} must feed exactly one chain input")
            self.signal_mode[p] = sig.pop()
            self.idler_mode[p] = (modes - {self.signal_mode[p]}).pop()
        # H transmits to the photon's own output; V reflects to the
        # cyclically previous chain output.
        self.route_v = {chain[i]: chain[i - 1] for i in range(len(chain))}

    def route(self, source: int, is_idler: bool, pol: int) -> int:
        """Final analyzer mode of a photon (pol: 0 = H, 1 = V)."""
        if is_idler:
            return self.idler_mode[source]
        mode = self.signal_mode[source]
        return self.route_v[mode] if pol else mode


def clean_events(config: ExperimentConfig, setting: str) -> tuple:
    """(success probability, outcome distribution) of the clean events in one setting.

    The dense fused state psi dephased by D is the mixture (1 + D)/2
    |psi><psi| + (1 - D)/2 |psi'><psi'|, psi' being psi with its all-V
    amplitude negated; the distribution is that mixture's Born rule.
    """
    state, success_prob = fuse_and_postselect(config.network())
    flipped = state.amps.copy()
    flipped[-1] *= -1.0
    damping = config.interference.coherence_damping(len(config.pbs_links))
    n = state.n_modes
    k = setting_index(setting)
    basis = np.eye(2) if k is None else mk_eigenbasis(k, n)
    mixture = ((0.5 * (1.0 + damping), state), (0.5 * (1.0 - damping), PureState(flipped)))
    return success_prob, sum(w * outcome_distribution(psi, [basis] * n) for w, psi in mixture)


def trace_candidates(config: ExperimentConfig, setting: str, n_candidates: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Outcome counts of ``n_candidates`` candidate pulses.

    Returns 2^n + 1 counts: one per outcome index, then the pulses that
    registered no event.
    """
    clean = clean_events(config, setting)
    router = Router(config)
    n = config.n_modes()
    sources = config.sources
    pair_probs = np.array([s.pair_number_probs() for s in sources])
    p_double_given_emit = pair_probs[:, 2] / (pair_probs[:, 1] + pair_probs[:, 2])
    xi = np.array([[s.xi_signal, s.xi_idler] for s in sources])
    branch_hh = np.array([s.branch_probs()[0] for s in sources])
    dark = config.detector.dark_count_prob

    doubles = rng.random((n_candidates, len(sources))) < p_double_given_emit
    # photons of the primary pair per source: (signal, idler) survival
    survive = rng.random((n_candidates, len(sources), 2)) < xi
    counts = np.zeros(2**n + 1, dtype=np.int64)
    for row in range(n_candidates):
        if doubles[row].any():
            out = _trace_contaminated(rng, sources, router, survive[row],
                                      doubles[row], branch_hh, setting, n, clean)
        elif survive[row].all():
            out = _clean_outcome(rng, clean)
        else:
            out = None
        if out is not None and dark > 0.0 and rng.random() >= (1.0 - dark) ** n:
            out = None
        counts[-1 if out is None else out] += 1
    return counts


def _clean_outcome(rng, clean) -> Optional[int]:
    success_prob, distribution = clean
    if rng.random() >= success_prob:
        return None
    return int(rng.choice(distribution.size, p=distribution))


def _trace_contaminated(rng, sources, router, survive_primary, doubles,
                        branch_hh, setting, n, clean) -> Optional[int]:
    """Classical trace of one pulse that contains a double emission.

    Returns the outcome index, or None when the pulse fails post-selection.
    If after losses the survivors reduce to the canonical one-full-pair-
    per-source configuration, the pulse is coherent and draws from the
    clean events' distribution instead.
    """
    photons = []          # (source, is_idler, pol)
    per_source_clean = []
    for p, src in enumerate(sources):
        n_pairs = 2 if doubles[p] else 1
        surviving_pairs = 0
        strays = 0
        for pair_idx in range(n_pairs):
            pol = 0 if rng.random() < branch_hh[p] else 1
            if pair_idx == 0:
                s_ok, i_ok = survive_primary[p]
            else:
                s_ok = rng.random() < src.xi_signal
                i_ok = rng.random() < src.xi_idler
            if s_ok and i_ok:
                surviving_pairs += 1
            elif s_ok or i_ok:
                strays += 1
            if s_ok:
                photons.append((p, False, pol))
            if i_ok:
                photons.append((p, True, pol))
        per_source_clean.append(surviving_pairs == 1 and strays == 0)
    if all(per_source_clean):
        # contamination died in the losses: coherent clean event after all
        return _clean_outcome(rng, clean)
    # analyzer paths: exactly one port may fire per path
    by_path = {}
    for source, is_idler, pol in photons:
        path = router.route(source, is_idler, pol)
        by_path.setdefault(path, []).append(pol)
    if len(by_path) != n:
        return None
    outcome = 0
    for mode in sorted(by_path):
        pols = by_path[mode]
        if setting == Z_SETTING:
            ports = pols
        else:
            ports = [int(rng.random() < 0.5) for _ in pols]
        if any(port != ports[0] for port in ports):
            return None  # both detectors on this path fired
        outcome = (outcome << 1) | ports[0]
    return outcome


def enumerate_outcomes(config: ExperimentConfig, setting: str) -> np.ndarray:
    """Exact outcome probabilities of one candidate pulse, by enumeration.

    Sums the per-pulse trace above over every pulse configuration (pair
    number, polarization and survival of every photon of every source).
    The cost grows as 72^sources, so this suits two or three sources, or
    lossless arms; returns 2^n probabilities.
    """
    success_prob, distribution = clean_events(config, setting)
    coherent = success_prob * distribution
    router = Router(config)
    n = config.n_modes()
    per_source = []
    for src in config.sources:
        probs = src.pair_number_probs()
        given_emit = probs[1:] / probs[1:].sum()
        pol_w = src.branch_probs()
        survive = ((1.0 - src.xi_signal, src.xi_signal),
                   (1.0 - src.xi_idler, src.xi_idler))
        options = []
        for n_pairs in (1, 2):
            for pairs in itertools.product(
                    itertools.product((0, 1), (False, True), (False, True)),
                    repeat=n_pairs):
                weight = given_emit[n_pairs - 1]
                for pol, s_ok, i_ok in pairs:
                    weight *= pol_w[pol] * survive[0][s_ok] * survive[1][i_ok]
                if weight > 0.0:
                    options.append((weight, pairs))
        per_source.append(options)
    out = np.zeros(2**n)
    for combo in itertools.product(*per_source):
        weight = float(np.prod([w for w, _ in combo]))
        if all(sum(s and i for _, s, i in pairs) == 1
               and all(s == i for _, s, i in pairs) for _, pairs in combo):
            out += weight * coherent
            continue
        by_path = {}
        for p, (_, pairs) in enumerate(combo):
            for pol, s_ok, i_ok in pairs:
                if s_ok:
                    by_path.setdefault(router.route(p, False, pol), []).append(pol)
                if i_ok:
                    by_path.setdefault(router.route(p, True, pol), []).append(pol)
        if len(by_path) != n:
            continue
        branches = {0: weight}      # outcome prefix -> weight
        for mode in sorted(by_path):
            pols = by_path[mode]
            branches = {
                (prefix << 1) | bit: w * (
                    float(all(pol == bit for pol in pols)) if setting == Z_SETTING
                    else 0.5 ** len(pols))
                for prefix, w in branches.items() for bit in (0, 1)}
        for outcome, w in branches.items():
            out[outcome] += w
    return out * (1.0 - config.detector.dark_count_prob) ** n
