"""Round-trip tests for the state and matrix JSON formats."""

import json

import numpy as np
import pytest

from wigner_lab import jsonio, protocol
from wigner_lab.core import StateVector


class TestStateJson:
    def test_dict_shape(self):
        data = jsonio.state_to_dict(protocol.target_state())
        assert data["num_qubits"] == 2
        assert len(data["amplitudes"]) == 4
        assert data["amplitudes"][1] == [0.0, 0.0]

    @pytest.mark.parametrize("key", protocol.STATE_KEYS)
    def test_round_trip_is_lossless(self, key):
        state = protocol.named_states()[key]
        again = jsonio.state_from_dict(jsonio.state_to_dict(state))
        np.testing.assert_array_equal(again.amplitudes, state.amplitudes)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(jsonio.dumps(jsonio.state_to_dict(protocol.target_state())), encoding="utf-8")
        again = jsonio.load_state(path)
        np.testing.assert_array_equal(again.amplitudes, protocol.target_state().amplitudes)

    def test_complex_amplitudes_survive(self):
        state = StateVector([0.6, 0.8j])
        again = jsonio.state_from_dict(jsonio.state_to_dict(state))
        np.testing.assert_array_equal(again.amplitudes, state.amplitudes)

    def test_num_qubits_mismatch_rejected(self):
        data = jsonio.state_to_dict(protocol.target_state())
        data["num_qubits"] = 3
        with pytest.raises(ValueError, match="num_qubits"):
            jsonio.state_from_dict(data)

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
            jsonio.state_from_dict(data)

    def test_errors_show_a_short_value(self):
        deep = [[0.0, 0.0]]
        for _ in range(900):
            deep = [deep]
        unit = [[1.0, 0.0], [0.0, 0.0]]
        grid = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        items = (deep, ["x" * 1_000] * 1_000, {str(k): k for k in range(1_000)})
        calls = [
            *((jsonio.vector_from_dict, {"amplitudes": [item]}) for item in items),
            (jsonio.state_from_dict, {"num_qubits": deep, "amplitudes": unit}),
            (jsonio.matrix_from_dict, {"dim": deep, "entries": grid}),
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
            jsonio.state_from_dict({"num_qubits": 1, "amplitudes": [[0.5, 0.0], [0.0, 0.0]]})

    def test_json_text_is_plain_numbers(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(jsonio.dumps(jsonio.state_to_dict(protocol.target_state())), encoding="utf-8")
        parsed = json.loads(path.read_text(encoding="utf-8"))
        assert parsed["amplitudes"][0][0] == pytest.approx(np.sqrt(1 / 3), abs=0)


class TestMatrixJson:
    @pytest.mark.parametrize("key", protocol.MATRIX_KEYS)
    def test_round_trip_is_lossless(self, key):
        matrix = protocol.named_matrices()[key]
        again = jsonio.matrix_from_dict(jsonio.matrix_to_dict(matrix))
        np.testing.assert_array_equal(again.matrix, matrix.matrix)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(jsonio.dumps(jsonio.matrix_to_dict(protocol.entangle_matrix())), encoding="utf-8")
        again = jsonio.matrix_from_dict(json.loads(path.read_text(encoding="utf-8")))
        np.testing.assert_array_equal(again.matrix, protocol.entangle_matrix().matrix)

    def test_dim_mismatch_rejected(self):
        data = jsonio.matrix_to_dict(protocol.entangle_matrix())
        data["dim"] = 2
        with pytest.raises(ValueError, match="dim"):
            jsonio.matrix_from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            [1],
            {"entries": 5},
            {"entries": [5, 6]},
            {"dim": [2], "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
            {"dim": "2", "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
            {"entries": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]},
            {"dim": True, "entries": [[[1, 0]]]},
        ],
    )
    def test_malformed_shapes_rejected(self, data):
        with pytest.raises(ValueError):
            jsonio.matrix_from_dict(data)

    def test_non_unitary_rejected(self):
        data = {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(ValueError, match="unitary"):
            jsonio.matrix_from_dict(data)


class TestVectorJson:
    def test_reads_without_normalization(self):
        vec = jsonio.vector_from_dict({"amplitudes": [[0.5, 0.0], [0.0, 0.0]]})
        np.testing.assert_array_equal(vec, [0.5, 0.0])

    def test_accepts_any_length(self):
        vec = jsonio.vector_from_dict({"amplitudes": [[1.0, 0.0]] * 3})
        assert vec.shape == (3,)

    def test_checks_a_given_qubit_count(self):
        # the check state_from_dict shares; a length without a qubit count has none
        assert jsonio.vector_from_dict({"num_qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}).shape == (2,)
        for n, size in ((True, 2), (0, 2), (2, 2), (1.5, 2), ("1", 2), (1, 3)):
            with pytest.raises(ValueError, match="num_qubits"):
                jsonio.vector_from_dict({"num_qubits": n, "amplitudes": [[1.0, 0.0]] * size})
