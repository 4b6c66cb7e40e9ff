"""Exact few-photon polarization states and post-selected PBS fusion.

States live in the 2^n dimensional space of n polarization qubits, one per
path mode.  Basis strings run over {H,V}^n, big-endian in the mode order
(first mode is the most significant "bit", H=0, V=1), so histograms and
amplitude vectors are reproducible across runs.

The fusion model uses the standard polarizing-beam-splitter convention:
H transmits, V reflects.  Demanding one photon per output then keeps only
the basis components in which the two fused modes carry identical
polarization (HH or VV); reflected photons swap paths, which for bosons
contributes no sign, so a cascade of PBS fusions acts on the coincidence
subspace as a chain of HH/VV agreement projectors.  Any consistent port
relabeling after reflection yields the same post-selected statistics; this
projector form is the convention used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalConsistencyError, TopologyError
from .witness import alpha_coefficients

MAX_DENSE_MODES = 12
NORM_ATOL = 1e-12

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

H_KET = np.array([1.0, 0.0], dtype=complex)
V_KET = np.array([0.0, 1.0], dtype=complex)


def _check_mode_count(n: int) -> None:
    if not 1 <= n <= MAX_DENSE_MODES:
        raise ValueError(
            f"dense state vectors support 1..{MAX_DENSE_MODES} modes, got n={n}"
        )


@dataclass(frozen=True)
class PureState:
    """Pure polarization state of ``len(modes)`` photons, one per mode."""

    modes: tuple
    amps: np.ndarray

    def __post_init__(self):
        n = len(self.modes)
        _check_mode_count(n)
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**n,):
            raise ValueError(
                f"amplitude vector must have length 2^{n}, got shape {amps.shape}"
            )
        object.__setattr__(self, "amps", amps)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state must be normalized, but |amps| = {norm!r}")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def mode_axis(self, mode) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"unknown mode {mode!r}; state has modes {self.modes}") from None


def basis_labels(n: int) -> list:
    """All 2^n outcome strings in basis order, e.g. ['HH','HV','VH','VV']."""
    return ["".join("V" if (i >> (n - 1 - k)) & 1 else "H" for k in range(n))
            for i in range(2**n)]


def canonical_phase(state: PureState) -> PureState:
    """Rotate the global phase so the first nonzero amplitude is real positive."""
    amps = state.amps
    nz = np.flatnonzero(np.abs(amps) > 1e-14)
    if nz.size == 0:
        return state
    phase = amps[nz[0]] / abs(amps[nz[0]])
    return PureState(state.modes, amps / phase)


def ghz_state(n: int) -> PureState:
    """(|H...H> + |V...V>)/sqrt(2) on modes 1..n."""
    _check_mode_count(n)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(tuple(range(1, n + 1)), amps)


# ---------------------------------------------------------------------------
# Local and global operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalOperator:
    """2x2 single-photon operator with a semantic tag."""

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("local operators are 2x2")
        object.__setattr__(self, "matrix", m)

    def is_hermitian(self, atol: float = NORM_ATOL) -> bool:
        return bool(np.allclose(self.matrix, self.matrix.conj().T, atol=atol))

    def is_unitary(self, atol: float = NORM_ATOL) -> bool:
        return bool(np.allclose(self.matrix @ self.matrix.conj().T, np.eye(2), atol=atol))


def pauli_x() -> LocalOperator:
    return LocalOperator(_PAULI_X, "pauli_x")


def pauli_y() -> LocalOperator:
    return LocalOperator(_PAULI_Y, "pauli_y")


def pauli_z() -> LocalOperator:
    return LocalOperator(_PAULI_Z, "pauli_z")


def mk_operator(k: int, n: int) -> LocalOperator:
    """cos(k pi/n) sigma_x + sin(k pi/n) sigma_y; Hermitian, eigenvalues +-1."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must satisfy 0 <= k <= n-1, got k={k}, n={n}")
    angle = k * np.pi / n
    return LocalOperator(np.cos(angle) * _PAULI_X + np.sin(angle) * _PAULI_Y, "m_k")


def mk_eigenbasis(k: int, n: int) -> np.ndarray:
    """Columns are the +1 and -1 eigenvectors of mk_operator(k, n)."""
    phase = np.exp(1j * k * np.pi / n)
    plus = np.array([1.0, phase], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -phase], dtype=complex) / np.sqrt(2.0)
    return np.column_stack([plus, minus])


def half_waveplate(angle: float) -> LocalOperator:
    """HWP with fast axis at `angle` to H (Jones matrix, global phase dropped)."""
    c, s = np.cos(2 * angle), np.sin(2 * angle)
    return LocalOperator(np.array([[c, s], [s, -c]], dtype=complex), "waveplate")


def rotation(angle: float) -> LocalOperator:
    """Polarization rotation by `angle`: H -> cos|H> + sin|V>."""
    c, s = np.cos(angle), np.sin(angle)
    return LocalOperator(np.array([[c, -s], [s, c]], dtype=complex), "rotation")


def projector_h() -> LocalOperator:
    return LocalOperator(np.outer(H_KET, H_KET.conj()), "projector")


def projector_v() -> LocalOperator:
    return LocalOperator(np.outer(V_KET, V_KET.conj()), "projector")


@dataclass(frozen=True)
class GlobalOperator:
    """Sum of coefficient-weighted n-fold tensor products of local operators."""

    n: int
    terms: tuple  # of (coefficient, tuple of n LocalOperator)

    def __post_init__(self):
        for coeff, factors in self.terms:
            if len(factors) != self.n:
                raise ValueError("every term needs one local factor per mode")

    def dense(self) -> np.ndarray:
        # 2^n x 2^n matrices: keep the cap well below the state-vector one
        if self.n > 6:
            raise ValueError(
                f"dense operator realization capped at n=6 modes, got n={self.n}"
            )
        out = np.zeros((2**self.n, 2**self.n), dtype=complex)
        for coeff, factors in self.terms:
            block = np.array([[1.0 + 0j]])
            for op in factors:
                block = np.kron(block, op.matrix)
            out += coeff * block
        return out


def witness_decomposition(n: int) -> GlobalOperator:
    """GHZ projector as local-setting terms.

    sum_k alpha_k M_k^(x n) + (|H><H|^(x n) + |V><V|^(x n))/2 with
    alpha_k = (-1)^k / (2 n); the dense realization equals
    |GHZ_n><GHZ_n| exactly.
    """
    _check_mode_count(n)
    terms = [(alpha, tuple([mk_operator(k, n)] * n))
             for k, alpha in enumerate(alpha_coefficients(n))]
    terms.append((0.5, tuple([projector_h()] * n)))
    terms.append((0.5, tuple([projector_v()] * n)))
    return GlobalOperator(n, tuple(terms))


def _apply_one(amps: np.ndarray, n: int, axis: int, matrix: np.ndarray) -> np.ndarray:
    tensor = amps.reshape((2,) * n)
    tensor = np.tensordot(matrix, tensor, axes=([1], [axis]))
    tensor = np.moveaxis(tensor, 0, axis)
    return tensor.reshape(-1)


def apply_local(state: PureState, mode, op: LocalOperator) -> PureState:
    """Apply a single-mode unitary; the result stays normalized."""
    if not op.is_unitary():
        raise ValueError(f"apply_local requires a unitary operator, got kind={op.kind!r}")
    axis = state.mode_axis(mode)
    amps = _apply_one(state.amps, state.n_modes, axis, op.matrix)
    return PureState(state.modes, amps)


def expectation(state: PureState, op: GlobalOperator) -> float:
    """<state|op|state> for a Hermitian global operator.

    Evaluated term by term with mode-local applications, so it works at
    n=10 without materializing 2^n x 2^n matrices.
    """
    if op.n != state.n_modes:
        raise ValueError(f"operator acts on {op.n} modes, state has {state.n_modes}")
    for _, factors in op.terms:
        for f in factors:
            if not f.is_hermitian():
                raise ValueError("expectation requires Hermitian factors")
    total = 0.0 + 0.0j
    for coeff, factors in op.terms:
        amps = state.amps
        for axis, f in enumerate(factors):
            amps = _apply_one(amps, state.n_modes, axis, f.matrix)
        total += coeff * np.vdot(state.amps, amps)
    if abs(total.imag) > 1e-10:
        raise NumericalConsistencyError(
            f"expectation value has imaginary residue {total.imag:.3e}"
        )
    return float(total.real)


def outcome_distribution(state: PureState, port_kets: Sequence[np.ndarray]) -> np.ndarray:
    """Born probabilities over the 2^n outcome strings of a product measurement.

    ``port_kets[i]`` is a (2, 2) array whose columns are the 'H'-port and
    'V'-port kets for mode i (e.g. an mk_eigenbasis, or identity for Z).
    """
    n = state.n_modes
    amps = state.amps
    for axis, basis in enumerate(port_kets):
        amps = _apply_one(amps, n, axis, np.asarray(basis, dtype=complex).conj().T)
    return np.abs(amps) ** 2


# ---------------------------------------------------------------------------
# Pair sources and PBS fusion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairSource:
    """Two-photon source emitting cos(theta)|HH> + sin(theta)|VV>.

    With ``rotated`` set, both photons pass a 90-degree rotation, giving
    cos(theta)|VV> + sin(theta)|HH>.
    """

    theta_state: float = np.pi / 4
    rotated: bool = False

    def amplitudes(self) -> tuple:
        c, s = np.cos(self.theta_state), np.sin(self.theta_state)
        return (s, c) if self.rotated else (c, s)  # (amp_HH, amp_VV)


DEFAULT_PBS_LINKS = ((2, 3), (3, 5), (5, 7), (7, 9))


@dataclass(frozen=True)
class FusionNetwork:
    """Pair sources plus the simple PBS chain that fuses their signal photons.

    Source p occupies modes (2p+1, 2p+2) for p = 0..n_pairs-1; the default
    five-source chain links signal modes (2,3), (3,5), (5,7), (7,9).
    """

    sources: tuple
    pbs_links: tuple = DEFAULT_PBS_LINKS

    def __post_init__(self):
        for mode in (m for link in self.pbs_links for m in link):
            # bool is an int subclass, but JSON true is not a mode
            if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)):
                raise TopologyError(f"link modes must be integers, got {mode!r}")
        links = tuple((int(a), int(b)) for a, b in self.pbs_links)
        object.__setattr__(self, "pbs_links", links)
        object.__setattr__(self, "sources", tuple(self.sources))
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


def reference_network(theta_state: float = 7 * np.pi / 30, n_rotated: int = 2) -> FusionNetwork:
    """Five-source chain with the last ``n_rotated`` pairs rotated by 90 degrees."""
    sources = tuple(
        PairSource(theta_state, rotated=(p >= 5 - n_rotated)) for p in range(5)
    )
    return FusionNetwork(sources, DEFAULT_PBS_LINKS)


def product_pair_state(pairs: Sequence[PairSource]) -> PureState:
    """Tensor product of pair states on modes 1..2*n_pairs."""
    amps = np.array([1.0 + 0j])
    for pair in pairs:
        a_hh, a_vv = pair.amplitudes()
        pair_amps = np.zeros(4, dtype=complex)
        pair_amps[0] = a_hh   # HH
        pair_amps[3] = a_vv   # VV
        amps = np.kron(amps, pair_amps)
    modes = tuple(range(1, 2 * len(pairs) + 1))
    return PureState(modes, amps)


def fuse_and_postselect(network: FusionNetwork):
    """Fuse the network's pair states through its PBS links and post-select.

    Returns ``(state, success_prob)`` where ``state`` is the normalized
    coincidence-basis survivor (global phase canonicalized) and
    ``success_prob`` is the squared norm of the surviving component.
    """
    state = product_pair_state(network.sources)
    n = state.n_modes
    tensor = state.amps.reshape((2,) * n)
    for a, b in network.pbs_links:
        ia, ib = state.mode_axis(a), state.mode_axis(b)
        idx_a = np.arange(2).reshape([2 if ax == ia else 1 for ax in range(n)])
        idx_b = np.arange(2).reshape([2 if ax == ib else 1 for ax in range(n)])
        tensor = np.where(idx_a == idx_b, tensor, 0.0)
    amps = tensor.reshape(-1)
    success = float(np.vdot(amps, amps).real)
    if success <= 0.0:
        raise NumericalConsistencyError("post-selection annihilated the state")
    survivor = PureState(state.modes, amps / np.sqrt(success))
    return canonical_phase(survivor), success
