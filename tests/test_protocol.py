"""Golden-value and invariant tests for the named protocol constants.

Printed 4-decimal constants are asserted at 1e-4; exact surd identities at
1e-12 or tighter.  Oracles recompute quantities from raw matrix chains and
substitution algebra, independent of the library expansion paths.
"""

import re

import numpy as np
import pytest

from wigner_lab import core, protocol
from wigner_lab.core import StateVector
from wigner_lab.protocol import AliceOutcome, WrongStateLabel

HEADS, TAILS = AliceOutcome.HEADS, AliceOutcome.TAILS


def raw_chain(outcome):
    """Oracle: reset-then-entangle as a plain numpy matrix chain."""
    return (
        protocol.entangle_matrix().matrix
        @ protocol.reset_matrix(outcome).matrix
        @ protocol.initial_register(outcome).amplitudes
    )


class TestPreparations:
    def test_coin_qubit_decimals(self):
        np.testing.assert_allclose(
            protocol.alice_first_qubit().amplitudes.real, [0.57735, 0.81650], atol=1e-5
        )

    def test_coin_qubit_norm(self):
        assert abs(protocol.alice_first_qubit().norm() - 1.0) < 1e-15

    def test_coin_probabilities(self):
        dist = core.born_probabilities(protocol.alice_first_qubit(), [protocol.alice_basis()])
        assert dist.probability("h") == pytest.approx(1 / 3, abs=1e-12)
        assert dist.probability("t") == pytest.approx(2 / 3, abs=1e-12)

    def test_second_qubit_heads(self):
        np.testing.assert_array_equal(protocol.prepare_second_qubit(HEADS).amplitudes, [1, 0])

    def test_second_qubit_tails(self):
        np.testing.assert_allclose(
            protocol.prepare_second_qubit(TAILS).amplitudes.real, [0.70711, 0.70711], atol=1e-5
        )

    @pytest.mark.parametrize("outcome", [HEADS, TAILS])
    def test_second_qubit_normalized(self, outcome):
        assert abs(protocol.prepare_second_qubit(outcome).norm() - 1.0) < 1e-15


class TestInitialRegisters:
    def test_heads_register(self):
        np.testing.assert_allclose(
            protocol.initial_register(HEADS).amplitudes,
            [np.sqrt(1 / 3), 0, np.sqrt(2 / 3), 0],
            atol=1e-15,
        )

    def test_tails_register(self):
        np.testing.assert_allclose(
            protocol.initial_register(TAILS).amplitudes,
            [np.sqrt(1 / 6), np.sqrt(1 / 6), np.sqrt(1 / 3), np.sqrt(1 / 3)],
            atol=1e-15,
        )

    @pytest.mark.parametrize("outcome", [HEADS, TAILS])
    def test_registers_separable(self, outcome):
        assert core.is_separable(protocol.initial_register(outcome), 1)


class TestMatrices:
    @pytest.mark.parametrize("key", ["A_h0", "A_t01", "R"])
    def test_unitarity(self, key):
        report = core.is_unitary(protocol.named_matrices()[key], 1e-12)
        assert report.ok
        assert report.max_deviation <= 1e-12

    @pytest.mark.parametrize("outcome", [HEADS, TAILS])
    def test_reset_sends_register_to_origin(self, outcome):
        out = core.apply(protocol.reset_matrix(outcome), protocol.initial_register(outcome))
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_entangler_first_column(self):
        out = protocol.entangle_matrix().matrix @ np.array([1, 0, 0, 0])
        np.testing.assert_allclose(out, protocol.target_state().amplitudes, atol=1e-15)

    def test_entangler_second_column(self):
        out = protocol.entangle_matrix().matrix @ np.array([0, 1, 0, 0])
        np.testing.assert_array_equal(out.real, [0, 1, 0, 0])


class TestTargetState:
    def test_amplitudes(self):
        r3 = np.sqrt(1 / 3)
        np.testing.assert_allclose(protocol.target_state().amplitudes, [r3, 0, r3, r3], atol=1e-15)

    def test_absent_component_is_exactly_zero(self):
        assert protocol.target_state().amplitudes[1] == 0.0

    @pytest.mark.parametrize("outcome", [HEADS, TAILS])
    def test_convergent_evolution(self, outcome):
        # both evolutions land on the same entangled state
        diff = np.linalg.norm(raw_chain(outcome) - protocol.target_state().amplitudes)
        assert diff <= 1e-12


class TestCharlieBasis:
    def test_ok_overlap_with_heads(self):
        ok = StateVector(protocol.charlie_basis("A").vectors[:, 0])
        assert abs(np.vdot(ok.amplitudes, [1, 0]) - np.sqrt(0.5)) < 1e-15

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_orthonormal(self, which):
        report = core.is_unitary(protocol.charlie_basis(which).vectors, 1e-15)
        assert report.ok

    def test_unknown_subsystem(self):
        with pytest.raises(ValueError, match="subsystem"):
            protocol.charlie_basis("C")

    def test_eq6_coefficients(self):
        out = core.change_basis(
            protocol.target_state(), [protocol.charlie_basis("A"), protocol.charlie_basis("B")]
        )
        expected = [np.sqrt(1 / 12), -np.sqrt(1 / 12), np.sqrt(1 / 12), np.sqrt(9 / 12)]
        np.testing.assert_allclose(out.coefficients, expected, atol=1e-12)


class TestWrongStates:
    def test_heads_register_wrong_evolution(self):
        state = protocol.wrong_state(WrongStateLabel.ABHT)
        coeffs = state.amplitudes.real
        np.testing.assert_allclose(
            [coeffs[0], coeffs[2], coeffs[3]], [0.8471, 0.5137, -0.1361], atol=1e-4
        )
        assert abs(coeffs[1]) <= 1e-12

    def test_tails_register_wrong_evolution(self):
        state = protocol.wrong_state(WrongStateLabel.ABTH)
        np.testing.assert_allclose(
            state.amplitudes.real, [0.6804, -0.2357, 0.6804, -0.1361], atol=1e-4
        )

    @pytest.mark.parametrize("label", [WrongStateLabel.ABHT, WrongStateLabel.ABTH])
    def test_unit_physical_norm(self, label):
        assert abs(protocol.wrong_state(label).norm() - 1.0) <= 1e-10

    def test_matches_raw_matrix_chain(self):
        ht = (
            protocol.entangle_matrix().matrix
            @ protocol.reset_matrix(TAILS).matrix
            @ protocol.initial_register(HEADS).amplitudes
        )
        np.testing.assert_allclose(
            protocol.wrong_state(WrongStateLabel.ABHT).amplitudes, ht, atol=1e-15
        )


class TestParadoxAudit:
    def test_target_state_contradiction(self):
        report = protocol.paradox_audit(protocol.target_state(), tol=1e-12)
        assert abs(report.amp_h1) <= 1e-12
        assert abs(report.amp_0okA) <= 1e-12
        assert abs(report.amp_tokB) <= 1e-12
        assert report.p_okok == pytest.approx(1 / 12, abs=1e-12)
        assert report.contradiction_flag

    def test_heads_register_no_contradiction(self):
        state = protocol.initial_register(HEADS)
        report = protocol.paradox_audit(state)
        # oracle: quantities straight from the amplitudes
        v = state.amplitudes
        r = np.sqrt(0.5)
        assert report.amp_h1 == pytest.approx(complex(v[1]))
        assert report.amp_0okA == pytest.approx(r * (v[0] - v[2]))
        assert report.amp_tokB == pytest.approx(r * (v[2] - v[3]))
        assert report.p_okok == pytest.approx(abs(0.5 * (v[0] - v[1] - v[2] + v[3])) ** 2)
        assert not report.contradiction_flag

    def test_wrong_state_no_contradiction(self):
        assert not protocol.paradox_audit(protocol.wrong_state(WrongStateLabel.ABHT)).contradiction_flag

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError, match="2-qubit"):
            protocol.paradox_audit(protocol.alice_first_qubit())


def shared_bases():
    """Alice's, Bob's and Charlie's two bases."""
    return [protocol.alice_basis(), protocol.bob_basis(), protocol.charlie_basis("A"), protocol.charlie_basis("B")]


class TestSharedBases:
    """The fixed bases are built once and shared, so no call may write them."""

    def test_each_call_returns_the_same_basis(self):
        assert all(first is again for first, again in zip(shared_bases(), shared_bases()))

    def test_vectors_are_read_only(self):
        for basis in shared_bases():
            assert not basis.vectors.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                basis.vectors[0, 0] = 0


def substitution_bs(v):
    """Oracle for the bs view: eliminate the first-qubit |h> component."""
    r2 = np.sqrt(2)
    return np.array([r2 * v[0], r2 * v[1], v[2] - v[0], v[3] - v[1]])


def substitution_as(v):
    """Oracle for the as view: eliminate the second-qubit |1> component."""
    r2 = np.sqrt(2)
    return np.array([v[0] - v[1], r2 * v[1], v[2] - v[3], r2 * v[3]])


class TestFrameViews:
    def test_bs_view_labels(self):
        out = protocol.frame_view(protocol.target_state(), "bs")
        assert out.labels == ("fail_0", "fail_1", "t_0", "t_1")

    def test_as_view_labels(self):
        out = protocol.frame_view(protocol.target_state(), "as")
        assert out.labels == ("h_0", "h_fail", "t_0", "t_fail")

    def test_bs_view_heads_wrong_state(self):
        out = protocol.frame_view(protocol.wrong_state(WrongStateLabel.ABHT), "bs")
        np.testing.assert_allclose(out.coefficients.real, [1.1980, 0, -0.3334, -0.1361], atol=1e-4)
        assert out.naive_norm == pytest.approx(1.5649, abs=1e-3)

    def test_bs_view_tails_wrong_state(self):
        out = protocol.frame_view(protocol.wrong_state(WrongStateLabel.ABTH), "bs")
        np.testing.assert_allclose(out.coefficients.real, [0.9622, -0.3333, 0, 0.0996], atol=1e-4)

    def test_as_view_heads_wrong_state(self):
        out = protocol.frame_view(protocol.wrong_state(WrongStateLabel.ABHT), "as")
        np.testing.assert_allclose(out.coefficients.real, [0.8471, 0, 0.6498, -0.1925], atol=1e-4)

    def test_as_view_tails_wrong_state(self):
        out = protocol.frame_view(protocol.wrong_state(WrongStateLabel.ABTH), "as")
        np.testing.assert_allclose(
            out.coefficients.real, [0.9161, -0.3333, 0.8165, -0.1925], atol=1e-4
        )

    @pytest.mark.parametrize("key", ["psi_AB", "psi_ABht", "psi_ABth"])
    @pytest.mark.parametrize("view", ["bs", "as"])
    def test_matches_substitution_oracle(self, key, view):
        state = protocol.named_states()[key]
        out = protocol.frame_view(state, view)
        oracle = substitution_bs if view == "bs" else substitution_as
        np.testing.assert_allclose(out.coefficients, oracle(state.amplitudes), atol=1e-12)

    @pytest.mark.parametrize("key", ["psi_AB", "psi_ABht", "psi_ABth"])
    @pytest.mark.parametrize("view", ["bs", "as"])
    def test_reconstruction(self, key, view):
        state = protocol.named_states()[key]
        out = protocol.frame_view(state, view)
        frame = protocol._substitution_frame(view)
        reconstructed = frame.vectors @ out.coefficients
        assert np.abs(reconstructed - state.amplitudes).max() <= 1e-10

    def test_unknown_view(self):
        with pytest.raises(ValueError, match="view"):
            protocol.frame_view(protocol.target_state(), "cs")

    @pytest.mark.parametrize("view", ["BS", None, 1])
    def test_a_view_is_bs_or_as_as_written(self, view):
        # no case folding: "BS" is not "bs", and a view that is no str is refused as unknown
        with pytest.raises(ValueError, match=re.escape(f"unknown view {view!r}")):
            protocol.frame_view(protocol.target_state(), view)

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError, match="2-qubit"):
            protocol.frame_view(protocol.alice_first_qubit(), "bs")


class TestRegistry:
    def test_state_keys(self):
        states = protocol.named_states()
        assert list(states) == ["psi_A", "psi_AB", "psi_h0", "psi_t01", "psi_ABht", "psi_ABth"]
        for state in states.values():
            assert abs(state.norm() - 1.0) <= 1e-10

    def test_matrix_keys(self):
        assert list(protocol.named_matrices()) == ["A_h0", "A_t01", "R"]

    def test_lookup(self):
        assert isinstance(protocol.lookup("psi_AB"), StateVector)
        assert protocol.lookup("R") is protocol.entangle_matrix()

    def test_lookup_unknown(self):
        with pytest.raises(KeyError, match="unknown registry key"):
            protocol.lookup("psi_nope")


class TestVerificationChecks:
    def test_against_plain_numpy(self):
        checks = dict(protocol.verification_checks())
        unitary = ["unitary_A_h0", "unitary_A_t01", "unitary_R"]
        assert list(checks) == unitary + ["evolution_heads", "evolution_tails", "charlie_coefficients"]
        for key, mat in protocol.named_matrices().items():
            m = mat.matrix
            assert checks[f"unitary_{key}"] == np.abs(m.conj().T @ m - np.eye(4)).max()
        for key, outcome in (("heads", HEADS), ("tails", TAILS)):
            residual = np.linalg.norm(raw_chain(outcome) - protocol.target_state().amplitudes)
            assert abs(checks[f"evolution_{key}"] - residual) <= 1e-15
        assert all(value <= 1e-12 for value in checks.values())
