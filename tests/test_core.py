"""Unit and property tests for the statevector substrate."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wigner_lab import core, protocol
from wigner_lab.core import (
    Frame,
    MeasurementBasis,
    OutcomeDistribution,
    SquareUnitary,
    StateVector,
    computational_basis,
    tensor_frame,
)

R3, R6, R12 = np.sqrt(1 / 3), np.sqrt(1 / 6), np.sqrt(1 / 12)


def charlie_pair():
    return [protocol.charlie_basis("A"), protocol.charlie_basis("B")]


@st.composite
def normalized_states(draw, max_qubits=3):
    n = draw(st.integers(1, max_qubits))
    dim = 1 << n
    reals = draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim))
    imags = draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim))
    vec = np.array(reals) + 1j * np.array(imags)
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    return StateVector(vec / norm)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return SquareUnitary(q)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector([1.0, 1.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            StateVector([1.0, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector([np.nan, 0.0])

    def test_amplitudes_read_only(self):
        v = StateVector([1.0, 0.0])
        with pytest.raises(ValueError):
            v.amplitudes[0] = 0.0

    def test_num_qubits(self):
        assert StateVector([0, 0, 1, 0]).num_qubits == 2


class TestTensor:
    def test_identity_case(self):
        e0 = StateVector([1, 0])
        out = core.tensor(e0, e0)
        assert out.num_qubits == 2
        np.testing.assert_array_equal(out.amplitudes, [1, 0, 0, 0])

    def test_heads_register(self):
        out = core.tensor(StateVector([R3, np.sqrt(2 / 3)]), StateVector([1, 0]))
        np.testing.assert_allclose(out.amplitudes, [R3, 0, np.sqrt(2 / 3), 0], atol=1e-15)

    def test_tails_register(self):
        out = core.tensor(
            StateVector([R3, np.sqrt(2 / 3)]), StateVector([np.sqrt(0.5), np.sqrt(0.5)])
        )
        np.testing.assert_allclose(out.amplitudes, [R6, R6, R3, R3], atol=1e-15)

    @given(normalized_states(max_qubits=2), normalized_states(max_qubits=2))
    def test_index_formula(self, a, b):
        out = core.tensor(a, b)
        for i in range(a.dim):
            for j in range(b.dim):
                assert abs(out.amplitudes[i * b.dim + j] - a.amplitudes[i] * b.amplitudes[j]) < 1e-15


class TestApply:
    def test_identity(self):
        v = StateVector([0, 1, 0, 0])
        out = core.apply(SquareUnitary(np.eye(4)), v)
        np.testing.assert_array_equal(out.amplitudes, v.amplitudes)

    def test_reset_heads_register(self):
        reset = protocol.reset_matrix(protocol.AliceOutcome.HEADS)
        register = protocol.initial_register(protocol.AliceOutcome.HEADS)
        out = core.apply(reset, register)
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_entangler_on_origin(self):
        out = core.apply(protocol.entangle_matrix(), StateVector([1, 0, 0, 0]))
        np.testing.assert_allclose(out.amplitudes, [R3, 0, R3, R3], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            core.apply(SquareUnitary(np.eye(2)), StateVector([1, 0, 0, 0]))

    @pytest.mark.parametrize("dim,seed", [(2, 0), (4, 1), (8, 2)])
    def test_norm_preservation(self, dim, seed):
        u = random_unitary(dim, seed)
        rng = np.random.default_rng(seed + 100)
        for _ in range(20):
            z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v = StateVector(z / np.linalg.norm(z))
            out = core.apply(u, v)
            assert abs(out.norm() ** 2 - 1.0) <= 1e-10


class TestIsUnitary:
    def test_identity(self):
        report = core.is_unitary(np.eye(3))
        assert report.ok and report.max_deviation == 0.0

    def test_tails_reset_matrix(self):
        report = core.is_unitary(protocol.reset_matrix(protocol.AliceOutcome.TAILS), 1e-12)
        assert report.ok

    def test_duplicated_row_fails(self):
        r = np.sqrt(0.5)
        report = core.is_unitary(np.array([[r, r], [r, r]]))
        assert not report.ok
        # off-diagonal of U^H U reaches 1 for the duplicated row
        assert report.max_deviation == pytest.approx(1.0)

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            core.is_unitary(np.zeros((2, 3)))


class TestChangeBasis:
    def test_identity_basis_returns_amplitudes(self):
        psi = protocol.target_state()
        out = core.change_basis(psi, [computational_basis(), computational_basis()])
        np.testing.assert_allclose(out.coefficients, psi.amplitudes, atol=1e-15)
        assert out.labels == ("0_0", "0_1", "1_0", "1_1")

    def test_charlie_pair_coefficients(self):
        out = core.change_basis(protocol.target_state(), charlie_pair())
        assert out.labels == ("ok_ok", "ok_fail", "fail_ok", "fail_fail")
        np.testing.assert_allclose(out.coefficients, [R12, -R12, R12, np.sqrt(9 / 12)], atol=1e-12)

    def test_mixed_charlie_computational(self):
        out = core.change_basis(
            protocol.target_state(), [protocol.charlie_basis("A"), computational_basis()]
        )
        assert abs(out.coefficient("fail_0") - np.sqrt(4 / 6)) < 1e-12
        assert abs(out.coefficient("fail_1") - R6) < 1e-12
        assert abs(out.coefficient("ok_1") + R6) < 1e-12
        assert abs(out.coefficient("ok_0")) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            core.change_basis(StateVector([1, 0]), [computational_basis(), computational_basis()])

    def test_non_orthonormal_basis_unconstructible(self):
        with pytest.raises(ValueError, match="orthonormal"):
            MeasurementBasis(np.array([[1.0, 1.0], [0.0, 1.0]]), ("a", "b"))

    @given(normalized_states(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    def test_completeness(self, v, seed):
        bases = [
            MeasurementBasis(random_unitary(2, seed + q).matrix, ("u", "d"))
            for q in range(v.num_qubits)
        ]
        out = core.change_basis(v, bases)
        assert abs(out.naive_norm - 1.0) <= 1e-10


class TestExpandInFrame:
    def test_orthonormal_frame_matches_change_basis(self):
        psi = protocol.target_state()
        basis_result = core.change_basis(psi, charlie_pair())
        frame = tensor_frame(
            Frame(protocol.charlie_basis("A").vectors, ("ok", "fail")),
            Frame(protocol.charlie_basis("B").vectors, ("ok", "fail")),
        )
        frame_result = core.expand_in_frame(psi, frame)
        np.testing.assert_allclose(frame_result.coefficients, basis_result.coefficients, atol=1e-12)
        assert abs(frame_result.naive_norm - 1.0) < 1e-10

    def test_product_of_two_bases_is_a_basis(self):
        a, b = charlie_pair()
        frame = Frame(a.vectors, a.labels)
        assert type(tensor_frame(a, b)) is MeasurementBasis
        assert type(tensor_frame(frame, b)) is type(tensor_frame(b, frame)) is Frame

    def test_substitution_frame_golden(self):
        # printed 4-decimal coefficients of the heads-register wrong state
        out = protocol.frame_view(protocol.wrong_state(protocol.WrongStateLabel.ABHT), "bs")
        np.testing.assert_allclose(
            out.coefficients.real, [1.1980, 0.0, -0.3334, -0.1361], atol=1e-4
        )

    def test_rank_deficient_frame_unconstructible(self):
        with pytest.raises(ValueError, match="dependent"):
            Frame(np.array([[1.0, 2.0], [2.0, 4.0]]), ("a", "b"))

    def test_dimension_mismatch(self):
        frame = Frame(np.eye(2), ("a", "b"))
        with pytest.raises(ValueError, match="dimension"):
            core.expand_in_frame(StateVector([1, 0, 0, 0]), frame)

    @given(normalized_states(max_qubits=2), st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    def test_round_trip(self, v, seed):
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(v.dim, v.dim)) + 1j * rng.normal(size=(v.dim, v.dim))
        assume(np.linalg.svd(mat, compute_uv=False)[-1] > 1e-2)
        frame = Frame(mat, tuple(str(i) for i in range(v.dim)))
        coeffs = core.expand_in_frame(v, frame).coefficients
        reconstructed = frame.vectors @ coeffs
        assert np.abs(reconstructed - v.amplitudes).max() <= 1e-10


class TestBornProbabilities:
    def test_basis_state_is_certain(self):
        basis = protocol.charlie_basis("A")
        ok_state = StateVector(basis.vectors[:, 0])
        dist = core.born_probabilities(ok_state, [basis])
        assert dist.probability("ok") == pytest.approx(1.0)
        assert dist.probability("fail") == pytest.approx(0.0, abs=1e-15)

    def test_target_state_charlie(self):
        dist = core.born_probabilities(protocol.target_state(), charlie_pair())
        assert dist.probability("ok_ok") == pytest.approx(1 / 12, abs=1e-12)
        assert dist.probability("fail_fail") == pytest.approx(9 / 12, abs=1e-12)

    def test_coin_qubit(self):
        dist = core.born_probabilities(protocol.alice_first_qubit(), [protocol.alice_basis()])
        assert dist.probability("h") == pytest.approx(1 / 3, abs=1e-12)
        assert dist.probability("t") == pytest.approx(2 / 3, abs=1e-12)

    @given(normalized_states())
    @settings(max_examples=50)
    def test_sums_to_one_and_in_range(self, v):
        dist = core.born_probabilities(v, [computational_basis() for _ in range(v.num_qubits)])
        values = list(dist.frequencies.values())
        assert abs(sum(values) - 1.0) <= 1e-10
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in values)


class TestSchmidt:
    def test_product_state(self):
        e0 = StateVector([1, 0])
        values = core.schmidt_values(core.tensor(e0, e0), 1)
        np.testing.assert_allclose(values, [1.0, 0.0], atol=1e-15)

    def test_heads_register_separable(self):
        values = core.schmidt_values(protocol.initial_register(protocol.AliceOutcome.HEADS), 1)
        np.testing.assert_allclose(values, [1.0, 0.0], atol=1e-12)

    def test_target_state_entangled(self):
        values = core.schmidt_values(protocol.target_state(), 1)
        assert values[1] > core.TOL_RANK
        # oracle: eigenvalues of the reduced density matrix
        m = protocol.target_state().amplitudes.reshape(2, 2)
        lam = np.sort(np.linalg.eigvalsh(m @ m.conj().T))[::-1]
        np.testing.assert_allclose(values, np.sqrt(np.maximum(lam, 0)), atol=1e-12)

    @given(normalized_states())
    @settings(max_examples=50)
    def test_squares_sum_to_one(self, v):
        if v.num_qubits < 2:
            return
        values = core.schmidt_values(v, 1)
        assert abs(float(np.sum(values**2)) - 1.0) <= 1e-10

    def test_invalid_split(self):
        with pytest.raises(ValueError, match="split"):
            core.schmidt_values(StateVector([1, 0, 0, 0]), 2)
        with pytest.raises(ValueError, match="split"):
            core.schmidt_values(StateVector([1, 0]), 1)


class TestIsSeparable:
    def test_tails_register(self):
        assert core.is_separable(protocol.initial_register(protocol.AliceOutcome.TAILS), 1)

    def test_target_state(self):
        assert not core.is_separable(protocol.target_state(), 1)

    @given(normalized_states(max_qubits=1))
    def test_products_are_separable(self, b):
        assert core.is_separable(core.tensor(StateVector([1, 0]), b), 1)


class TestOutcomeDistribution:
    def test_from_counts(self):
        dist = OutcomeDistribution.from_counts({"x": 3, "y": 1})
        assert dist.total == 4
        assert dist.probability("x") == 0.75

    def test_counts_must_sum_to_total(self):
        with pytest.raises(ValueError, match="sum to total"):
            OutcomeDistribution({"x": 1.0}, {"x": 2}, 3)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            OutcomeDistribution.from_probabilities({"x": 0.4, "y": 0.4})

    def test_empty_counts(self):
        dist = OutcomeDistribution.from_counts({"x": 0, "y": 0})
        assert dist.total == 0
        assert dist.probability("x") == 0.0
