"""Exact few-photon polarization states and post-selected PBS fusion.

States live in the 2^n dimensional space of n polarization qubits, one per
path mode.  Modes are numbered 1..n and mode m is tensor axis m - 1.  Basis
strings run over {H,V}^n, big-endian in the mode order (mode 1 is the most
significant "bit", H=0, V=1), so histograms and amplitude vectors are
reproducible across runs.  A single-photon operator is a complex 2x2 array.

``GlobalOperator``, ``expectation`` and ``witness_decomposition`` are the
exact reference for the witness identity (the GHZ projector split into the
M_k settings) and for the tests of the count-based estimator.

The fusion model uses the standard polarizing-beam-splitter convention:
H transmits, V reflects.  Demanding one photon per output then keeps only
the basis components in which the two fused modes carry identical
polarization (HH or VV); reflected photons swap paths, which for bosons
contributes no sign, so a cascade of PBS fusions acts on the coincidence
subspace as a chain of HH/VV agreement projectors.  Any consistent port
relabeling after reflection yields the same post-selected statistics; this
projector form is the convention used throughout.

The dense-state functions import numpy when called, so that importing this
module does not: ``simulate`` loads it for ``PairSource``, ``FusionNetwork``
and ``basis_labels`` and runs on the standard library alone.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Sequence

from ._record import _Record
from .errors import NumericalConsistencyError, TopologyError
from .witness import alpha_coefficients

MAX_DENSE_MODES = 12
NORM_ATOL = 1e-12


def _check_mode_count(n: int) -> None:
    if not 1 <= n <= MAX_DENSE_MODES:
        raise ValueError(
            f"dense state vectors support 1..{MAX_DENSE_MODES} modes, got n={n}"
        )


class PureState(_Record):
    """Pure polarization state of n photons on modes 1..n, one per mode."""

    __slots__ = ("amps",)

    def __init__(self, amps):
        import numpy as np

        amps = np.asarray(amps, dtype=complex)
        if amps.ndim != 1 or amps.size & (amps.size - 1):
            raise ValueError(f"amplitude vector length must be a power of 2, got {amps.shape}")
        self._fill(amps)
        _check_mode_count(self.n_modes)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state must be normalized, but |amps| = {norm!r}")

    @property
    def n_modes(self) -> int:
        return self.amps.size.bit_length() - 1


def basis_labels(n: int) -> list:
    """All 2^n outcome strings in basis order, e.g. ['HH','HV','VH','VV']."""
    return ["".join(letters) for letters in itertools.product("HV", repeat=n)]


def canonical_phase(state: PureState) -> PureState:
    """Rotate the global phase so the first nonzero amplitude is real positive."""
    import numpy as np

    amps = state.amps
    nz = np.flatnonzero(np.abs(amps) > 1e-14)
    if nz.size == 0:
        return state
    phase = amps[nz[0]] / abs(amps[nz[0]])
    return PureState(amps / phase)


def ghz_state(n: int) -> PureState:
    """(|H...H> + |V...V>)/sqrt(2) on modes 1..n."""
    import numpy as np

    _check_mode_count(n)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(amps)


# ---------------------------------------------------------------------------
# Global operators
# ---------------------------------------------------------------------------

def mk_operator(k: int, n: int):
    """cos(k pi/n) sigma_x + sin(k pi/n) sigma_y; Hermitian, eigenvalues +-1."""
    import numpy as np

    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must satisfy 0 <= k <= n-1, got k={k}, n={n}")
    angle = k * np.pi / n
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    pauli_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    return np.cos(angle) * pauli_x + np.sin(angle) * pauli_y


def mk_eigenbasis(k: int, n: int):
    """Columns are the +1 and -1 eigenvectors of mk_operator(k, n)."""
    import numpy as np

    phase = np.exp(1j * k * np.pi / n)
    plus = np.array([1.0, phase], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -phase], dtype=complex) / np.sqrt(2.0)
    return np.column_stack([plus, minus])


class GlobalOperator(_Record):
    """Sum of coefficient-weighted n-fold tensor products of 2x2 operators."""

    __slots__ = ("n", "terms")  # terms: (coefficient, tuple of n complex 2x2 arrays)

    def __init__(self, n: int, terms: tuple):
        import numpy as np

        for coeff, factors in terms:
            if len(factors) != n:
                raise ValueError("every term needs one local factor per mode")
            if any(np.shape(f) != (2, 2) for f in factors):
                raise ValueError("local factors are 2x2")
        self._fill(n, terms)

    def dense(self):
        import numpy as np

        # 2^n x 2^n matrices: keep the cap well below the state-vector one
        if self.n > 6:
            raise ValueError(
                f"dense operator realization capped at n=6 modes, got n={self.n}"
            )
        out = np.zeros((2**self.n, 2**self.n), dtype=complex)
        for coeff, factors in self.terms:
            block = np.array([[1.0 + 0j]])
            for op in factors:
                block = np.kron(block, op)
            out += coeff * block
        return out


def witness_decomposition(n: int) -> GlobalOperator:
    """GHZ projector as local-setting terms.

    sum_k alpha_k M_k^(x n) + (|H><H|^(x n) + |V><V|^(x n))/2 with
    alpha_k = (-1)^k / (2 n); the dense realization equals
    |GHZ_n><GHZ_n| exactly.
    """
    import numpy as np

    _check_mode_count(n)
    terms = [(alpha, tuple([mk_operator(k, n)] * n))
             for k, alpha in enumerate(alpha_coefficients(n))]
    for diagonal in ((1, 0), (0, 1)):   # |H><H| and |V><V|
        terms.append((0.5, (np.diag(diagonal).astype(complex),) * n))
    return GlobalOperator(n, tuple(terms))


def _apply_one(amps, n: int, axis: int, matrix):
    import numpy as np

    tensor = amps.reshape((2,) * n)
    tensor = np.tensordot(matrix, tensor, axes=([1], [axis]))
    tensor = np.moveaxis(tensor, 0, axis)
    return tensor.reshape(-1)


def expectation(state: PureState, op: GlobalOperator) -> float:
    """<state|op|state> for a Hermitian global operator.

    Evaluated term by term with mode-local applications, so it works at
    n=10 without materializing 2^n x 2^n matrices.
    """
    import numpy as np

    if op.n != state.n_modes:
        raise ValueError(f"operator acts on {op.n} modes, state has {state.n_modes}")
    for _, factors in op.terms:
        for f in factors:
            if not np.allclose(f, np.conj(f).T, atol=NORM_ATOL):
                raise ValueError("expectation requires Hermitian factors")
    total = 0.0 + 0.0j
    for coeff, factors in op.terms:
        amps = state.amps
        for axis, f in enumerate(factors):
            amps = _apply_one(amps, state.n_modes, axis, f)
        total += coeff * np.vdot(state.amps, amps)
    if abs(total.imag) > 1e-10:
        raise NumericalConsistencyError(
            f"expectation value has imaginary residue {total.imag:.3e}"
        )
    return float(total.real)


def outcome_distribution(state: PureState, port_kets: Sequence):
    """Born probabilities over the 2^n outcome strings of a product measurement.

    ``port_kets[i]`` is a (2, 2) array whose columns are the 'H'-port and
    'V'-port kets for mode i (e.g. an mk_eigenbasis, or identity for Z).
    """
    import numpy as np

    n = state.n_modes
    amps = state.amps
    for axis, basis in enumerate(port_kets):
        amps = _apply_one(amps, n, axis, np.asarray(basis, dtype=complex).conj().T)
    return np.abs(amps) ** 2


# ---------------------------------------------------------------------------
# Pair sources and PBS fusion
# ---------------------------------------------------------------------------

class PairSource(_Record):
    """Two-photon source emitting cos(theta)|HH> + sin(theta)|VV>.

    With ``rotated`` set, both photons pass a 90-degree rotation, giving
    cos(theta)|VV> + sin(theta)|HH>.
    """

    __slots__ = ("theta_state", "rotated")

    def __init__(self, theta_state: float = math.pi / 4, rotated: bool = False):
        self._fill(theta_state, rotated)

    def amplitudes(self) -> tuple:
        c, s = math.cos(self.theta_state), math.sin(self.theta_state)
        return (s, c) if self.rotated else (c, s)  # (amp_HH, amp_VV)


DEFAULT_PBS_LINKS = ((2, 3), (3, 5), (5, 7), (7, 9))
#: pairs of the reference network rotated by 90 degrees, the last ones (published)
REFERENCE_ROTATED = 2


class FusionNetwork(_Record):
    """Pair sources plus the simple PBS chain that fuses their signal photons.

    Source p occupies modes (2p+1, 2p+2) for p = 0..n_pairs-1; the default
    five-source chain links signal modes (2,3), (3,5), (5,7), (7,9).
    """

    __slots__ = ("sources", "pbs_links")

    def __init__(self, sources: tuple, pbs_links: tuple = DEFAULT_PBS_LINKS):
        for mode in (m for link in pbs_links for m in link):
            # bool is an int subclass, but JSON true is not a mode
            if isinstance(mode, bool) or not isinstance(mode, numbers.Integral):
                raise TopologyError(f"link modes must be integers, got {mode!r}")
        links = tuple((int(a), int(b)) for a, b in pbs_links)
        self._fill(tuple(sources), links)
        modes = self.mode_labels()
        for a, b in links:
            if a not in modes or b not in modes:
                raise TopologyError(f"link ({a},{b}) references unknown modes")
        self.chain()

    def mode_labels(self) -> tuple:
        return tuple(range(1, 2 * len(self.sources) + 1))

    def chain(self) -> tuple:
        """The chain's modes in order, oriented along the first listed link.

        The links may be listed in any order, each either way round.  A
        branch, a cycle, a self-loop, a repeated link, disjoint links or no
        link at all raises TopologyError.
        """
        if not self.pbs_links:
            raise TopologyError("a PBS chain needs at least one link")
        neighbours = {}
        for a, b in self.pbs_links:
            neighbours.setdefault(a, []).append(b)
            neighbours.setdefault(b, []).append(a)
        order = list(self.pbs_links[0])
        for _ in range(2):  # extend past the second mode, then past the first
            while step := [m for m in neighbours[order[-1]] if m not in order]:
                order.append(step[0])
            order.reverse()
        # a walk that repeats no mode and steps along every link is the chain
        if not len(set(order)) == len(order) == len(self.pbs_links) + 1:
            raise TopologyError(
                f"PBS links {[list(link) for link in self.pbs_links]} do not form "
                "a chain; fusion supports simple PBS chains only"
            )
        return tuple(order)


def reference_network(theta_state: float = 7 * math.pi / 30) -> FusionNetwork:
    """Five-source chain with the last ``REFERENCE_ROTATED`` pairs rotated by 90 degrees."""
    sources = tuple(
        PairSource(theta_state, rotated=(p >= 5 - REFERENCE_ROTATED)) for p in range(5)
    )
    return FusionNetwork(sources, DEFAULT_PBS_LINKS)


def product_pair_state(pairs: Sequence[PairSource]) -> PureState:
    """Tensor product of pair states on modes 1..2*n_pairs."""
    import numpy as np

    amps = np.array([1.0 + 0j])
    for pair in pairs:
        a_hh, a_vv = pair.amplitudes()
        pair_amps = np.zeros(4, dtype=complex)
        pair_amps[0] = a_hh   # HH
        pair_amps[3] = a_vv   # VV
        amps = np.kron(amps, pair_amps)
    return PureState(amps)


def fuse_and_postselect(network: FusionNetwork):
    """Fuse the network's pair states through its PBS links and post-select.

    Returns ``(state, success_prob)`` where ``state`` is the normalized
    coincidence-basis survivor (global phase canonicalized) and
    ``success_prob`` is the squared norm of the surviving component.
    """
    import numpy as np

    state = product_pair_state(network.sources)
    pol = np.indices((2,) * state.n_modes)   # pol[m - 1]: mode m's H=0 / V=1 per amplitude
    agree = np.all([pol[a - 1] == pol[b - 1] for a, b in network.pbs_links], axis=0)
    amps = np.where(agree.reshape(-1), state.amps, 0.0)
    success = float(np.vdot(amps, amps).real)
    if success <= 0.0:
        raise NumericalConsistencyError("post-selection annihilated the state")
    survivor = PureState(amps / np.sqrt(success))
    return canonical_phase(survivor), success
