"""The exact model's outcome probabilities by numpy's einsum: the tests' reference.

``simulator`` contracts the ring of transfer matrices in plain Python.  This
module builds the same probabilities independently: one row per source
configuration, one dense transfer tensor per source, and one einsum over
the whole ring, as the model was computed before it left numpy.
"""

import itertools

import numpy as np

from spdclab.simulator import _fused_amplitudes, _ring_layout
from spdclab.witness import Z_SETTING, setting_index


def source_rows(src) -> np.ndarray:
    """One row per (1 or 2 pairs) x (HH or VV per pair) x (survival of each
    photon), given that the source emits: weight, surviving H and V signals,
    surviving H and V idlers, and whether the row is clean."""
    probs = np.array(src.pair_number_probs())
    given_emit = probs[1:] / probs[1:].sum() if probs[0] < 1.0 else (1.0, 0.0)
    pol_w = src.branch_probs()
    survive_s = (1.0 - src.xi_signal, src.xi_signal)
    survive_i = (1.0 - src.xi_idler, src.xi_idler)
    rows = []
    for n_pairs in (1, 2):
        for pairs in itertools.product(itertools.product((0, 1), repeat=3), repeat=n_pairs):
            weight = given_emit[n_pairs - 1]
            photons = [0, 0, 0, 0]
            full = strays = 0
            for pol, s_ok, i_ok in pairs:
                weight *= pol_w[pol] * survive_s[s_ok] * survive_i[i_ok]
                photons[pol] += s_ok
                photons[2 + pol] += i_ok
                full += s_ok and i_ok
                strays += s_ok != i_ok
            rows.append((weight, *photons, full == 1 and strays == 0))
    return np.array(rows, dtype=float)


def path_weights(n_h, n_v, z_rule: bool) -> np.ndarray:
    """Weight of each recorded bit (H port, V port) of a path, last axis."""
    n_h, n_v = np.broadcast_arrays(n_h, n_v)
    if z_rule:
        return np.stack([(n_h > 0) & (n_v == 0), (n_v > 0) & (n_h == 0)],
                        axis=-1).astype(float)
    m = n_h + n_v
    w = np.where(m > 0, 0.5**m, 0.0)
    return np.stack([w, w], axis=-1)


def transfer_tensor(rows: np.ndarray, z_rule: bool) -> np.ndarray:
    """T[V signals received, V signals sent, chain bit, idler bit] of one source."""
    weight, h_sig, v_sig, h_idl, v_idl = rows[:, :5].T
    received = np.arange(3)
    chain = path_weights(h_sig[:, None], received, z_rule)       # (rows, 3, 2)
    sent = v_sig[:, None] == received                             # (rows, 3)
    idler = path_weights(h_idl, v_idl, z_rule)                    # (rows, 2)
    return np.einsum("r,rib,ro,rd->iobd", weight, chain, sent, idler)


def classical_part(config, z_rule: bool) -> np.ndarray:
    """Outcome weights of every candidate routed classically around the ring."""
    layout = _ring_layout(config)
    n_src = len(layout)
    # the chain bit at position i is axis n_src + i, its idler's bit 2 n_src + i
    axis, operands = {}, []
    for i, (p, signal, idler) in enumerate(layout):
        axis[signal], axis[idler] = n_src + i, 2 * n_src + i
        operands += [transfer_tensor(source_rows(config.sources[p]), z_rule),
                     [(i + 1) % n_src, i, n_src + i, 2 * n_src + i]]
    return np.einsum(*operands, [axis[m] for m in sorted(axis)], optimize=True).ravel()


def outcome_probabilities(config, settings) -> dict:
    """P(outcome | candidate pulse) over the 2^n outcome strings, per setting."""
    rows = [source_rows(s) for s in config.sources]
    a, b, success = _fused_amplitudes(config)
    weight = np.prod([t[t[:, 5] == 1, 0].sum() for t in rows]) * success
    n = config.n_modes()
    parity = 1.0 - 2.0 * (np.indices((2,) * n).sum(axis=0).ravel() % 2)
    damping = config.interference.coherence_damping(len(config.pbs_links))
    fringe = 2.0 * a * b * damping / 2**n * parity
    sign = {s: 0.0 if setting_index(s) is None else (-1) ** setting_index(s) for s in settings}
    classical = {z: classical_part(config, z) for z in {s == Z_SETTING for s in settings}}
    thinning = (1.0 - config.detector.dark_count_prob) ** n
    return {s: thinning * np.maximum(classical[s == Z_SETTING] + weight * sign[s] * fringe, 0.0)
            for s in settings}
