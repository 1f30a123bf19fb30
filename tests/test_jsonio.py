"""Tests for the state and matrix JSON formats: states are read, matrices written."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from wigner_lab import jsonio, protocol
from wigner_lab.core import SquareUnitary, StateVector
from wigner_lab.synthesis import synthesize_from_e0, synthesize_to_e0


def read_state(data):
    """The state of a JSON document, as ``jsonio.load_state`` reads it."""
    return StateVector(jsonio.vector_from_dict(data))


def state_document(state):
    """A state's JSON document, written as the file format spells it."""
    return {"num_qubits": state.num_qubits, "amplitudes": [[z.real, z.imag] for z in state.amplitudes.tolist()]}


def matrix_from_document(data):
    """The complex matrix of a matrix document, read with numpy."""
    entries = np.array(data["entries"])
    return entries[..., 0] + 1j * entries[..., 1]


def matrix_reference_text(u):
    """The matrix document built entry by entry and written by ``json``."""
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in u.matrix.tolist()]
    return json.dumps({"dim": u.dim, "entries": entries}, indent=2) + "\n"


@st.composite
def synthesized_unitaries(draw):
    """``synthesize_to_e0`` or ``synthesize_from_e0`` (an adjoint, so Fortran
    ordered) of a drawn vector of 1 to 17 entries."""
    dim = draw(st.integers(1, 17))
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * dim, max_size=2 * dim))
    vec = np.array(parts[:dim]) + 1j * np.array(parts[dim:])
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    synthesize = draw(st.sampled_from([synthesize_to_e0, synthesize_from_e0]))
    return synthesize(vec / norm).matrix


class TestStateJson:
    @pytest.mark.parametrize("key", list(protocol.named_states()))
    def test_round_trip_is_lossless(self, key):
        state = protocol.named_states()[key]
        again = read_state(state_document(state))
        np.testing.assert_array_equal(again.amplitudes, state.amplitudes)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(jsonio.dumps(state_document(protocol.target_state())), encoding="utf-8")
        again = jsonio.load_state(path)
        np.testing.assert_array_equal(again.amplitudes, protocol.target_state().amplitudes)

    def test_complex_amplitudes_survive(self):
        state = StateVector([0.6, 0.8j])
        again = read_state(state_document(state))
        np.testing.assert_array_equal(again.amplitudes, state.amplitudes)

    def test_num_qubits_mismatch_rejected(self):
        data = state_document(protocol.target_state())
        data["num_qubits"] = 3
        with pytest.raises(ValueError, match="num_qubits"):
            read_state(data)

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            {"amplitudes": [1, 2]},
            {"amplitudes": 5},
            {"num_qubits": [1], "amplitudes": [[1, 0], [0, 0]]},
            {"amplitudes": [[True, False], [False, False]]},
            {"amplitudes": [[1.0, True], [0, 0]]},
            {"amplitudes": [[10**400, 0], [0, 0]]},  # beyond every double
            {"num_qubits": True, "amplitudes": [[1, 0], [0, 0]]},  # JSON true is not 1
        ],
    )
    def test_malformed_shapes_rejected(self, data):
        with pytest.raises(ValueError):
            read_state(data)

    def test_errors_show_a_short_value(self):
        deep = [[0.0, 0.0]]
        for _ in range(900):
            deep = [deep]
        unit = [[1.0, 0.0], [0.0, 0.0]]
        items = (deep, ["x" * 1_000] * 1_000, {str(k): k for k in range(1_000)})
        calls = [
            *((jsonio.vector_from_dict, {"amplitudes": [item]}) for item in items),
            (read_state, {"num_qubits": deep, "amplitudes": unit}),
        ]
        for from_dict, data in calls:
            with pytest.raises(ValueError) as info:
                from_dict(data)
            assert len(str(info.value)) < 120, str(info.value)
        # values are spelled as in the user's JSON file, not as Python reprs
        spelled = [
            ([True, False], "got [true, false]"),
            ([None, "x"], 'got [null, "x"]'),
            ([float("nan"), float("-inf"), True], "got [NaN, -Infinity, true]"),
            (["x" * 1_000, 0], 'got ["xxxxx...xxxxxx", 0]'),
            ({"re": 1, "im": 0, "x": 2}, 'got {"im": 0, "re": 1, ...}'),  # keys sorted, as reprlib does
            ([[[0.5]], 1, 2, 3], "got [[...], 1, 2, ...]"),
            ([10**400, 0], "got [100000...0000000, 0]"),
        ]
        for item, text in spelled:
            with pytest.raises(ValueError) as info:
                jsonio.vector_from_dict({"amplitudes": [item]})
            assert str(info.value).endswith(text), str(info.value)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            read_state({"num_qubits": 1, "amplitudes": [[0.5, 0.0], [0.0, 0.0]]})


class TestMatrixJson:
    def test_dict_shape(self):
        data = json.loads(jsonio.matrix_json(protocol.named_matrices()["A_h0"]))
        assert data["dim"] == 4
        assert [len(row) for row in data["entries"]] == [4] * 4
        assert data["entries"][0][1] == [0.0, 0.0]

    def test_json_text_is_plain_numbers(self):
        # every entry part is a JSON float, spelled as the shortest decimal
        # that recovers the double: no NaN, Infinity or integer forms
        matrix = protocol.entangle_matrix()

        def refuse(constant):
            raise AssertionError(f"{constant} in the matrix text")

        parsed = json.loads(jsonio.matrix_json(matrix), parse_constant=refuse)
        parts = [x for row in parsed["entries"] for pair in row for x in pair]
        assert all(type(x) is float for x in parts)
        assert parts == [x for z in matrix.matrix.ravel().tolist() for x in (z.real, z.imag)]

    @pytest.mark.parametrize("key", list(protocol.named_matrices()))
    def test_round_trip_is_lossless(self, key):
        matrix = protocol.named_matrices()[key]
        again = matrix_from_document(json.loads(jsonio.matrix_json(matrix)))
        np.testing.assert_array_equal(again, matrix.matrix)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(jsonio.matrix_json(protocol.entangle_matrix()), encoding="utf-8")
        again = matrix_from_document(json.loads(path.read_text(encoding="utf-8")))
        np.testing.assert_array_equal(again, protocol.entangle_matrix().matrix)

    @given(synthesized_unitaries())
    @example(SquareUnitary([[-0.0, 1], [1, -0.0]]))
    @example(SquareUnitary(np.diag([np.exp(1j * 5e-324), np.exp(1j * 1e-300), -1])))  # subnormal and tiny parts
    @example(SquareUnitary(np.diag([1, 1j, -1j, -1])))
    @example(SquareUnitary([[1j]]))
    def test_text_is_what_json_writes(self, u):
        text = jsonio.matrix_json(u)
        assert text == matrix_reference_text(u)
        assert json.dumps(json.loads(text), indent=2) + "\n" == text  # a fixed point of the stdlib encoder

    def test_text_of_a_fortran_ordered_matrix(self):
        vec = np.array([0.6, 0.48j, -0.64])
        u = synthesize_from_e0(vec).matrix
        assert not u.matrix.flags.c_contiguous  # the adjoint of a row-major matrix
        assert jsonio.matrix_json(u) == matrix_reference_text(u)

    def test_layout_cache_is_bounded(self):
        for dim in range(1, 21):
            jsonio.matrix_json(SquareUnitary(np.eye(dim)))
        info = jsonio._matrix_layout.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


class TestVectorJson:
    def test_reads_without_normalization(self):
        vec = jsonio.vector_from_dict({"amplitudes": [[0.5, 0.0], [0.0, 0.0]]})
        np.testing.assert_array_equal(vec, [0.5, 0.0])

    def test_accepts_any_length(self):
        vec = jsonio.vector_from_dict({"amplitudes": [[1.0, 0.0]] * 3})
        assert vec.shape == (3,)

    def test_checks_a_given_qubit_count(self):
        # the check load_state shares; a length without a qubit count has none
        assert jsonio.vector_from_dict({"num_qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}).shape == (2,)
        for n, size in ((True, 2), (0, 2), (2, 2), (1.5, 2), ("1", 2), (1, 3)):
            with pytest.raises(ValueError, match="num_qubits"):
                jsonio.vector_from_dict({"num_qubits": n, "amplitudes": [[1.0, 0.0]] * size})
