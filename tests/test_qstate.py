import itertools

import numpy as np
import pytest

from spdclab import qstate
from spdclab.errors import TopologyError
from spdclab.qstate import (
    DEFAULT_PBS_LINKS,
    FusionNetwork,
    GlobalOperator,
    PairSource,
    PureState,
    expectation,
    fuse_and_postselect,
    ghz_state,
    mk_eigenbasis,
    mk_operator,
    reference_network,
    witness_decomposition,
)

ATOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: every listing of the default chain: each order of its links, each link either way round
LISTED_CHAINS = [
    tuple(link[::-1] if flip else link for link, flip in zip(order, flips))
    for order in itertools.permutations(DEFAULT_PBS_LINKS)
    for flips in itertools.product((False, True), repeat=len(DEFAULT_PBS_LINKS))
]


class TestGhzState:
    def test_single_qubit_amplitudes(self):
        st = ghz_state(1)
        assert np.allclose(st.amps, [2**-0.5, 2**-0.5], atol=ATOL)

    def test_ten_qubit_support(self):
        st = ghz_state(10)
        assert st.amps.size == 1024
        assert abs(st.amps[0] - 2**-0.5) < ATOL
        assert abs(st.amps[-1] - 2**-0.5) < ATOL
        assert np.all(st.amps[1:-1] == 0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_normalized(self, n):
        st = ghz_state(n)
        assert abs(np.sum(np.abs(st.amps) ** 2) - 1.0) < ATOL

    @pytest.mark.parametrize("n", [0, -3, 13])
    def test_size_errors(self, n):
        with pytest.raises(ValueError):
            ghz_state(n)


class TestPureStateChecks:
    @pytest.mark.parametrize("size", [0, 3, 6, 12])
    def test_length_not_power_of_two(self, size):
        with pytest.raises(ValueError):
            PureState(np.ones(size) / np.sqrt(max(size, 1)))

    def test_not_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([1.0, 1.0]))

    def test_beyond_dense_cap(self):
        with pytest.raises(ValueError, match="1..12 modes"):
            PureState(np.ones(2**13) / np.sqrt(2**13))

    def test_mode_m_is_axis_m_minus_1(self):
        # outcome 'HV' (index 1): mode 1 carries H, mode 2 carries V
        st = PureState(np.array([0.0, 1.0, 0.0, 0.0]))
        assert st.n_modes == 2 and qstate.basis_labels(2)[1] == "HV"
        eye = np.eye(2)
        assert expectation(st, GlobalOperator(2, ((1.0, (PAULI_Z, eye)),))) == 1.0
        assert expectation(st, GlobalOperator(2, ((1.0, (eye, PAULI_Z)),))) == -1.0


class TestGlobalOperatorChecks:
    def test_wrong_factor_count(self):
        with pytest.raises(ValueError, match="one local factor per mode"):
            GlobalOperator(3, ((1.0, (PAULI_Z, PAULI_Z)),))

    @pytest.mark.parametrize("bad", [np.eye(3), np.ones(2), np.ones((2, 2, 1))])
    def test_factor_not_2x2(self, bad):
        with pytest.raises(ValueError, match="2x2"):
            GlobalOperator(2, ((1.0, (PAULI_Z, bad)),))


class TestMkOperator:
    def test_k0_is_pauli_x(self):
        assert np.allclose(mk_operator(0, 10), PAULI_X, atol=ATOL)

    def test_k5_n10_is_pauli_y(self):
        assert np.allclose(mk_operator(5, 10), PAULI_Y, atol=ATOL)

    def test_k1_n4_is_diagonal_combination(self):
        expect = (PAULI_X + PAULI_Y) / np.sqrt(2)
        assert np.allclose(mk_operator(1, 4), expect, atol=ATOL)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_hermitian_involutory_traceless(self, n):
        for k in range(n):
            m = mk_operator(k, n)
            assert np.allclose(m, m.conj().T, atol=ATOL)
            assert np.allclose(m @ m, np.eye(2), atol=ATOL)
            assert abs(np.trace(m)) < ATOL
            eig = np.linalg.eigvalsh(m)
            assert np.allclose(sorted(eig), [-1.0, 1.0], atol=ATOL)

    @pytest.mark.parametrize("k,n", [(-1, 10), (10, 10), (4, 4)])
    def test_domain_errors(self, k, n):
        with pytest.raises(ValueError):
            mk_operator(k, n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_eigenbasis_columns_are_eigenvectors(self, n):
        # the simulator measures through mk_eigenbasis, the witness oracle through mk_operator
        for k in range(n):
            m, basis = mk_operator(k, n), mk_eigenbasis(k, n)
            for column, eigenvalue in zip(basis.T, (1.0, -1.0)):
                assert np.allclose(m @ column, eigenvalue * column, atol=ATOL)


class TestWitnessDecomposition:
    def _ghz_projector(self, n):
        # independent oracle: direct outer product of the target state
        v = np.zeros(2**n, dtype=complex)
        v[0] = v[-1] = 2**-0.5
        return np.outer(v, v.conj())

    def test_n2_equals_bell_projector(self):
        dense = witness_decomposition(2).dense()
        assert np.abs(dense - self._ghz_projector(2)).max() < ATOL

    def test_n3_equals_ghz_projector(self):
        dense = witness_decomposition(3).dense()
        assert np.abs(dense - self._ghz_projector(3)).max() < ATOL

    @pytest.mark.parametrize("n", range(1, 7))
    def test_projector_property(self, n):
        dense = witness_decomposition(n).dense()
        assert np.abs(dense @ dense - dense).max() < ATOL
        assert abs(np.trace(dense) - 1.0) < ATOL

    def test_dense_capped(self):
        with pytest.raises(ValueError):
            witness_decomposition(7).dense()


def _tensor_op(op, n):
    return GlobalOperator(n, ((1.0, tuple([op] * n)),))


class TestExpectation:
    def test_mk_on_ghz_alternates(self):
        st = ghz_state(10)
        for k in range(10):
            val = expectation(st, _tensor_op(mk_operator(k, 10), 10))
            assert abs(val - (-1.0) ** k) < 1e-10  # matrix route; equals cos(k pi)

    def test_pauli_z_tensor_is_one(self):
        st = ghz_state(10)
        assert abs(expectation(st, _tensor_op(PAULI_Z, 10)) - 1.0) < 1e-10

    def test_witness_on_ghz_is_one(self):
        st = ghz_state(10)
        assert abs(expectation(st, witness_decomposition(10)) - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(ghz_state(3), witness_decomposition(4))

    def test_non_hermitian_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            expectation(ghz_state(2), GlobalOperator(2, ((1.0, (bad, bad)),)))


class TestFusion:
    def test_five_bell_pairs_give_ghz(self):
        net = reference_network(theta_state=np.pi / 4)
        st, prob = fuse_and_postselect(net)
        assert abs(prob - 1.0 / 16.0) < ATOL
        assert np.abs(st.amps - ghz_state(10).amps).max() < ATOL

    def test_reference_topology_amplitudes(self):
        st, _ = fuse_and_postselect(reference_network())
        assert abs(st.amps[0] - np.cos(7 * np.pi / 30)) < ATOL
        assert abs(st.amps[-1] - np.sin(7 * np.pi / 30)) < ATOL

    def test_two_h_photons_on_one_pbs_always_pass(self):
        net = FusionNetwork((PairSource(0.0),), ((1, 2),))
        st, prob = fuse_and_postselect(net)
        assert abs(prob - 1.0) < ATOL
        assert abs(st.amps[0] - 1.0) < ATOL

    @pytest.mark.parametrize("theta", np.linspace(0.1, np.pi / 2 - 0.1, 7))
    def test_success_probability_closed_form(self, theta):
        st, prob = fuse_and_postselect(reference_network(theta_state=theta))
        c, s = np.cos(theta), np.sin(theta)
        assert abs(prob - c**4 * s**4) < ATOL
        # post-selected amplitudes collapse to (cos, sin) for any theta
        assert abs(st.amps[0] - c) < ATOL
        assert abs(st.amps[-1] - s) < ATOL

    def test_disconnected_network_rejected(self):
        pairs = tuple(PairSource(np.pi / 4) for _ in range(5))
        with pytest.raises(TopologyError):
            FusionNetwork(pairs, ((2, 3), (5, 7)))
        for links, cause in [
            (((2, 3), (2, 5), (2, 7), (2, 9)), "simple PBS chains"),   # a star
            (((2, 3), (3, 5), (5, 2)), "simple PBS chains"),           # a cycle
            (((3, 3),), "simple PBS chains"),                          # a self-loop
            (((2, 3), (3, 5), (3, 2)), "simple PBS chains"),           # a repeated link
            ((), "at least one link"),
        ]:
            with pytest.raises(TopologyError, match=cause):
                FusionNetwork(pairs, links)

    @pytest.mark.parametrize("links", LISTED_CHAINS)
    def test_chain_in_any_listed_order(self, links):
        chain = FusionNetwork(reference_network().sources, links).chain()
        a, b = links[0]
        assert chain == ((2, 3, 5, 7, 9) if a < b else (9, 7, 5, 3, 2))

    @pytest.mark.parametrize("links", LISTED_CHAINS)
    def test_fusion_ignores_link_order(self, links):
        expected, expected_prob = fuse_and_postselect(reference_network())
        state, prob = fuse_and_postselect(FusionNetwork(reference_network().sources, links))
        assert prob == expected_prob
        assert np.array_equal(state.amps, expected.amps)


class TestBasisHelpers:
    def test_labels_roundtrip(self):
        labels = qstate.basis_labels(3)
        assert labels[0] == "HHH" and labels[-1] == "VVV"
        for i, lab in enumerate(labels):
            assert int(lab.replace("H", "0").replace("V", "1"), 2) == i

    @pytest.mark.parametrize("n", range(1, 13))
    def test_labels_match_bit_shift_definition(self, n):
        """Bit k of the index, counted from the most significant, is mode k + 1's letter."""
        expected = ["".join("V" if (i >> (n - 1 - k)) & 1 else "H" for k in range(n))
                    for i in range(2**n)]
        assert qstate.basis_labels(n) == expected

    def test_outcome_distribution_ghz_z_basis(self):
        st = ghz_state(4)
        ports = [np.eye(2, dtype=complex)] * 4
        probs = qstate.outcome_distribution(st, ports)
        assert abs(probs[0] - 0.5) < ATOL and abs(probs[-1] - 0.5) < ATOL
        assert abs(probs.sum() - 1.0) < ATOL

    def test_canonical_phase(self):
        st = PureState(np.array([-1j * 2**-0.5, 1j * 2**-0.5]))
        out = qstate.canonical_phase(st)
        assert out.amps[0].real > 0 and abs(out.amps[0].imag) < ATOL
