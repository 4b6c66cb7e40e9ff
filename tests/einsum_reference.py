"""The exact model's outcome probabilities by numpy's einsum: the tests' reference.

``simulator`` contracts the ring of transfer matrices in plain Python.  This
module builds the same probabilities independently: one row per source
configuration, one dense transfer tensor per source, and one einsum over
the whole ring, as the model was computed before it left numpy.
"""

import numpy as np

from spdclab.simulator import _fused_amplitudes, _ring_layout
from spdclab.witness import Z_SETTING, setting_index


def source_rows(src) -> np.ndarray:
    """One row per (k pairs) x (HH or VV per pair) x (survival of each photon),
    given that the source emits, k from 1 to the last pair number of
    ``pair_number_probs``: weight, surviving H and V signals, surviving H and V
    idlers, and whether the row is clean."""
    probs = np.array(src.pair_number_probs())
    given_emit = probs[1:] / probs[1:].sum() if probs[0] < 1.0 else np.eye(probs.size - 1)[0]
    pol_w = np.array(src.branch_probs())
    survive_s = np.array([1.0 - src.xi_signal, src.xi_signal])
    survive_i = np.array([1.0 - src.xi_idler, src.xi_idler])
    rows = []
    for n_pairs, given in enumerate(given_emit, 1):
        # the bits of every ordered (polarization, signal survives, idler survives) per pair
        codes = np.arange(2 ** (3 * n_pairs))[:, None] >> np.arange(3 * n_pairs)
        pol, s_ok, i_ok = (codes & 1).reshape(-1, n_pairs, 3).transpose(2, 0, 1)
        weight = given * np.prod(pol_w[pol] * survive_s[s_ok] * survive_i[i_ok], axis=1)
        h, v = pol == 0, pol == 1
        full = (s_ok & i_ok).sum(axis=1)
        strays = (s_ok != i_ok).sum(axis=1)
        rows.append(np.column_stack([weight, (s_ok * h).sum(axis=1), (s_ok * v).sum(axis=1),
                                     (i_ok * h).sum(axis=1), (i_ok * v).sum(axis=1),
                                     (full == 1) & (strays == 0)]))
    return np.concatenate(rows).astype(float)


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
    """T[V signals received, V signals sent, chain bit, idler bit] of one source.

    Each entry sums its rows pairwise, which ``np.sum`` does along a
    contiguous axis: at four pairs a source has 4680 rows, which a running
    sum, as einsum's, rounds by up to 1e-13."""
    weight, h_sig, v_sig, h_idl, v_idl = rows[:, :5].T
    received = np.arange(v_sig.max() + 1)
    chain = path_weights(h_sig[:, None], received, z_rule)       # (rows, K + 1, 2)
    sent = v_sig[:, None] == received                             # (rows, K + 1)
    idler = path_weights(h_idl, v_idl, z_rule)                    # (rows, 2)
    terms = np.einsum("r,rib,ro,rd->iobdr", weight, chain, sent, idler)
    return np.ascontiguousarray(terms).sum(axis=-1)


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
