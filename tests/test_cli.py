"""End-to-end CLI tests: exit codes, output formats, file I/O, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wigner_lab
from wigner_lab import cli, core, montecarlo, protocol
from wigner_lab.cli import _DIGIT_GROUPS, _TRACE_TAILS, _build_parser, _write_trace_rows, main
from wigner_lab.montecarlo import _CHUNK, CHARLIE_LABELS, STATE_LABELS, TraceChunk

# The trials the trace encoder writes at once: all share every digit but the last four.
GROUP = len(_DIGIT_GROUPS)
# The codes of the shortest and the longest tail, in collapse mode (0..15), then analytic mode (16..19).
EXTREME_TAILS = [
    pick(codes, key=lambda code: len(_TRACE_TAILS[code])) for codes in (range(16), range(16, 20)) for pick in (min, max)
]

# The last two: JSON true/false are not numbers (read as 1 and 0, each was
# the unit vector e0), neither as amplitudes nor as the qubit count.
MALFORMED_DOCUMENTS = [
    '{"amplitudes": [1, 2]}',
    "[1, 2]",
    '{"amplitudes": [[true, false], [false, false], [false, false], [false, false]]}',
    '{"num_qubits": true, "amplitudes": [[1, 0], [0, 0]]}',
]
BAD_TOLERANCES = ["nan", "inf", "-inf", "-1", "-1e-300", "abc"]


def state_document(state):
    """A state's JSON document, written as the file format spells it."""
    return {"num_qubits": state.num_qubits, "amplitudes": [[z.real, z.imag] for z in state.amplitudes.tolist()]}


def read_matrix(path):
    """The complex matrix of a ``synth --out`` file, read with json and numpy."""
    entries = np.array(json.loads(path.read_text(encoding="utf-8"))["entries"])
    return entries[..., 0] + 1j * entries[..., 1]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_work(*args, **kwargs):
    raise AssertionError("the command did work before opening its --out file")


class TestStates:
    def test_computational_view(self, capsys):
        code, out, _ = run_cli(capsys, "states", "psi_AB", "--format", "json")
        assert code == 0
        data = json.loads(out)
        coeffs = [c[0] for c in data["coefficients"]]
        np.testing.assert_allclose(coeffs, [np.sqrt(1 / 3), 0, np.sqrt(1 / 3), np.sqrt(1 / 3)], atol=1e-12)
        assert data["physical_norm"] == pytest.approx(1.0)

    def test_charlie_view(self, capsys):
        code, out, _ = run_cli(capsys, "states", "psi_AB", "--basis", "charlie", "--format", "json")
        assert code == 0
        data = json.loads(out)
        expected = [np.sqrt(1 / 12), -np.sqrt(1 / 12), np.sqrt(1 / 12), np.sqrt(9 / 12)]
        np.testing.assert_allclose([c[0] for c in data["coefficients"]], expected, atol=1e-12)

    def test_frame_view_reports_naive_norm(self, capsys):
        code, out, _ = run_cli(capsys, "states", "psi_ABht", "--frame", "bs", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["naive_norm"] == pytest.approx(1.5649, abs=1e-3)
        np.testing.assert_allclose(
            [c[0] for c in data["coefficients"]], [1.1980, 0, -0.3334, -0.1361], atol=1e-4
        )

    def test_pretty_shows_four_decimals(self, capsys):
        code, out, _ = run_cli(capsys, "states", "psi_AB")
        assert code == 0
        assert "0.5774" in out

    def test_csv_parses(self, capsys):
        code, out, _ = run_cli(capsys, "states", "psi_AB", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["label", "re", "im"]
        assert float(rows[1][1]) == pytest.approx(np.sqrt(1 / 3))

    def test_loads_state_from_file(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(state_document(protocol.target_state())), encoding="utf-8")
        code, out, _ = run_cli(capsys, "states", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["labels"] == ["0_0", "0_1", "1_0", "1_1"]

    def test_unknown_key_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "states", "psi_nope")
        assert code == 2
        assert "unknown registry key" in err

    def test_matrix_key_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "states", "A_h0")
        assert code == 2
        assert "matrix" in err

    def test_frame_view_of_single_qubit_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "states", "psi_A", "--frame", "bs")
        assert code == 2
        assert "2-qubit" in err


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "all checks passed" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_bad_tolerance_is_a_usage_error(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tol", tol])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_zero_tolerance_is_valid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tol", "0", "--format", "json")
        assert code in (0, 1)
        assert json.loads(out)["tol"] == 0.0

    @pytest.mark.parametrize("command", [["verify"], ["audit", "psi_AB"]])
    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    def test_negative_zero_tolerance_prints_as_zero(self, capsys, command, fmt):
        # a -0.0 tolerance would print as "(tol -0)" and as "tol": -0.0
        zero = run_cli(capsys, *command, "--tol", "0", "--format", fmt)
        assert run_cli(capsys, *command, "--tol", "-0", "--format", fmt) == zero

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        names = {c["name"] for c in data["checks"]}
        assert {"unitary_A_h0", "unitary_A_t01", "unitary_R", "evolution_heads", "evolution_tails", "charlie_coefficients"} == names
        assert all(c["passed"] for c in data["checks"])


class TestAudit:
    def test_target_state_flags_contradiction(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "psi_AB", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["contradiction"] is True
        assert data["p_okok"] == pytest.approx(1 / 12, abs=1e-12)

    def test_pretty_output(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "psi_AB")
        assert code == 0
        assert "0.08333" in out
        assert "contradiction" in out

    @pytest.mark.parametrize("key", ["psi_h0", "psi_ABht"])
    def test_non_contradictory_states(self, capsys, key):
        code, out, _ = run_cli(capsys, "audit", key, "--format", "json")
        assert code == 0
        assert json.loads(out)["contradiction"] is False

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_bad_tolerance_is_a_usage_error(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "psi_AB", "--tol", tol])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_single_qubit_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "audit", "psi_A")
        assert code == 2
        assert "2-qubit" in err

    def test_unknown_key_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "audit", "psi_nope")
        assert code == 2

    @pytest.mark.parametrize("text", MALFORMED_DOCUMENTS)
    def test_malformed_state_json_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "audit", str(path))
        assert code == 2
        assert err.startswith("error: ")


class TestSynth:
    def test_to_e0_writes_valid_unitary(self, capsys, tmp_path):
        out_path = tmp_path / "u.json"
        code, out, _ = run_cli(capsys, "synth", "psi_h0", "--to-e0", "--out", str(out_path))
        assert code == 0
        assert "residual" in out
        u = read_matrix(out_path)
        assert core.is_unitary(u).ok
        mapped = u @ protocol.initial_register(protocol.AliceOutcome.HEADS).amplitudes
        assert np.linalg.norm(mapped - np.array([1, 0, 0, 0])) <= 1e-10

    def test_from_e0_reaches_target(self, capsys, tmp_path):
        out_path = tmp_path / "u.json"
        code, _, _ = run_cli(capsys, "synth", "psi_AB", "--from-e0", "--out", str(out_path))
        assert code == 0
        u = read_matrix(out_path)
        mapped = u @ np.array([1, 0, 0, 0])
        assert np.linalg.norm(mapped - protocol.target_state().amplitudes) <= 1e-10

    def test_stdout_json_with_residual_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "synth", "psi_h0", "--to-e0")
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 4
        assert "residual" in err

    def test_vector_file_input(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"amplitudes": [[0.6, 0.0], [0.0, 0.8]]}), encoding="utf-8")
        code, out, _ = run_cli(capsys, "synth", str(path), "--to-e0")
        assert code == 0

    def test_non_unit_vector_exits_2(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"amplitudes": [[0.5, 0.0], [0.0, 0.0]]}), encoding="utf-8")
        code, _, err = run_cli(capsys, "synth", str(path), "--to-e0")
        assert code == 2
        assert "norm = 0.5" in err

    def test_nan_amplitude_is_not_a_unit_vector(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"amplitudes": [[NaN, 0], [0, 0]]}', encoding="utf-8")
        code, _, err = run_cli(capsys, "synth", str(path), "--to-e0")
        assert code == 2
        assert err == "error: input is not a unit vector: norm = nan\n"

    @pytest.mark.parametrize("text", MALFORMED_DOCUMENTS)
    def test_malformed_vector_json_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "synth", str(path), "--to-e0")
        assert code == 2
        assert err.startswith("error: ")

    def test_out_into_missing_dir_names_the_path(self, capsys, tmp_path, monkeypatch):
        # the --out file is opened before the synthesis runs
        monkeypatch.setattr("wigner_lab.synthesis.synthesize_to_e0", refuse_work)
        path = str(tmp_path / "missing" / "u.json")
        code, _, err = run_cli(capsys, "synth", "psi_h0", "--to-e0", "--out", path)
        assert code == 2
        assert err.startswith("error: ") and path in err

    def test_direction_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "psi_h0"])
        assert exc.value.code == 2

    def test_format_is_a_usage_error(self, capsys):
        # synth writes JSON only; it takes no --format
        with pytest.raises(SystemExit) as exc:
            main(["synth", "psi_h0", "--to-e0", "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_empty_out_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "synth", "psi_h0", "--to-e0", "--out", "")
        assert code == 2
        assert out == "" and err == "error: [Errno 2] No such file or directory: ''\n"


STATE_FILE_COMMANDS = [("audit",), ("states",), ("synth", "--to-e0")]


class TestStateFiles:
    @pytest.mark.parametrize("command", STATE_FILE_COMMANDS, ids=lambda c: c[0])
    def test_deeply_nested_json_names_the_file(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text('{"amplitudes": ' + "[" * 200_000 + "]" * 200_000 + "}", encoding="utf-8")
        code, _, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert err.startswith(f"error: {path}: ") and "nested" in err

    @pytest.mark.parametrize("command", STATE_FILE_COMMANDS, ids=lambda c: c[0])
    def test_non_utf8_file_names_the_file(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"amplitudes": [[1, 0], [0, 0]], "note": "caf\u00e9"}'.encode("latin-1"))
        code, _, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert err.startswith(f"error: {path}: not UTF-8")

    def test_truncated_json_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"amplitudes": [[1, 0]', encoding="utf-8")
        code, _, err = run_cli(capsys, "audit", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: not JSON")


# JSON numbers as a user's file may spell them: NaN and Infinity text, and
# integers beyond every double.  Booleans, null and strings stand in for them
# in the recursive documents.
FUZZ_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -1, 0.6, 0.8, math.sqrt(0.5), 1e308, 5e-324, 10**400, math.nan, -math.inf]),
    st.integers(-(2**70), 2**70),
)
FUZZ_JSON = st.recursive(
    st.one_of(FUZZ_NUMBERS, st.booleans(), st.none(), st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
FUZZ_PAIRS = st.lists(FUZZ_NUMBERS, min_size=2, max_size=2)


def unit_document(pairs):
    norm = math.hypot(*(x for pair in pairs for x in pair))  # no underflow to 0 for tiny parts
    return {"amplitudes": [[re / norm, im / norm] for re, im in pairs]}


def declares_a_wrong_qubit_count(document):
    """Whether ``document`` has a ``num_qubits`` that is not the log2 of its
    amplitude count (a boolean never is)."""
    n = document.get("num_qubits") if isinstance(document, dict) else None
    if n is None:
        return False
    amplitudes = document.get("amplitudes")
    size = len(amplitudes) if isinstance(amplitudes, list) else 0
    return isinstance(n, bool) or not any(n == k and size == 1 << k for k in range(8))


UNIT_DOCUMENTS = (
    st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=8)
    .filter(lambda pairs: any(re or im for re, im in pairs))
    .map(unit_document)
)
# Mostly state-shaped, so documents reach the norm checks and the commands;
# the unit vectors of any length and the named states pass some commands.
# A unit vector also comes with a qubit count: right, a boolean or any value.
FUZZ_DOCUMENTS = st.one_of(
    FUZZ_JSON,
    st.fixed_dictionaries(
        {"amplitudes": st.lists(FUZZ_PAIRS, max_size=5) | st.lists(FUZZ_PAIRS | FUZZ_JSON, max_size=5) | FUZZ_JSON},
        optional={"num_qubits": st.integers(0, 3) | FUZZ_JSON},
    ),
    UNIT_DOCUMENTS,
    st.builds(lambda doc, n: {**doc, "num_qubits": n}, UNIT_DOCUMENTS, st.integers(0, 3) | st.booleans() | FUZZ_JSON),
    st.sampled_from([state_document(state) for state in protocol.named_states().values()]),
)
FUZZ_COMMANDS = [("audit",), ("states",), ("synth", "--to-e0"), ("synth", "--to-e0", "--out")]


class TestDocumentFuzz:
    @given(document=FUZZ_DOCUMENTS, command=st.sampled_from(FUZZ_COMMANDS))
    @example(document={"amplitudes": [[math.nan, 0], [0, 0]]}, command=("synth", "--to-e0"))
    @example(document={"amplitudes": [[10**400, 0], [0, 0]]}, command=("states",))
    @example(document={"num_qubits": True, "amplitudes": [[1, 0], [0, 0]]}, command=("synth", "--to-e0"))
    @example(document={"amplitudes": [[0, 2.2250738585e-313], [0, 1]]}, command=("synth", "--to-e0"))
    @settings(max_examples=200, deadline=None)
    def test_any_document_exits_0_1_or_2(self, document, command):
        # in process, warnings as errors: any warning or exception escaping main fails the example
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "doc.json", Path(tmp) / "u.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            argv = [command[0], str(path), *command[1:]] + ([str(out)] if "--out" in command else [])
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")
                code = main(argv)
            assert code in (0, 1, 2)
            if declares_a_wrong_qubit_count(document):
                assert code == 2
            if code == 2:
                assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
            if "--out" in command:
                assert out.exists() == (code == 0)


# The flags of every subcommand, each with the values to draw for it (None:
# a switch), good ones and bad ones.  No value is a trial count above 2 000,
# so -n stays small even when it takes a word meant for another flag, and
# -n -1 is refused before anything runs.  Paths are relative to the
# example's own directory, where "missing/x" cannot be created.
FUZZ_FLAGS = {
    "--format": ["pretty", "json", "csv", "xml"],
    "--basis": ["computational", "charlie", "bs"],
    "--frame": ["bs", "as", "charlie"],
    "--tol": ["1e-9", "0", "1e-30", "nan", "-1", "abc"],
    "-n": ["0", "1", "17", "2000", "-1", "1e3"],
    "--trials": ["5", "300", "x"],
    "--seed": ["0", "7", str(2**64 - 1), "-1", str(2**64), "x"],
    "--policy": ["correct", "uniform", "alternating", "biased:0.2", "biased:2", "sometimes"],
    "--mode": ["collapse", "analytic", "exact"],
    "--out": ["r.out", "t.csv", "missing/x"],
    "--trace": ["t.csv", "r.out", "missing/x"],
    "--check": None,
    "--to-e0": None,
    "--from-e0": None,
    "--bogus": None,
    "-h": None,
}
# Per subcommand: the names its positional may take, and its own flags.
FUZZ_SUBCOMMANDS = {
    "states": (["psi_AB", "psi_ABht", "psi_A", "A_h0"], ["--format", "--basis", "--frame"]),
    "verify": ([], ["--format", "--tol"]),
    "audit": (["psi_AB", "psi_ABth", "psi_A", "psi_nope"], ["--format", "--tol"]),
    "synth": (["psi_h0", "psi_AB", "psi_A", "A_h0"], ["--format", "--to-e0", "--from-e0", "--out"]),
    "simulate": ([], ["--format", "-n", "--trials", "--seed", "--policy", "--mode", "--check", "--trace", "--out"]),
    "table": ([], ["--format", "--policy"]),
}


@st.composite
def fuzz_argv(draw):
    """Mostly a subcommand's own flags, repeated or missing as they fall; now
    and then any other flag, a flag without its value, a stray word, a later
    command name, a missing positional, an unknown subcommand or none, or
    -h, -- or an unknown word in front of the subcommand; or one path for
    both --out and --trace."""
    command = draw(st.sampled_from([*FUZZ_SUBCOMMANDS] * 3 + ["bogus", None]))
    names, flags = FUZZ_SUBCOMMANDS.get(command, ([], []))
    prefix = draw(st.sampled_from([[]] * 12 + [["-h"], ["--"], ["bogus"]]))
    argv = prefix if command is None else [*prefix, command]
    if names and draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(names)))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["own"] * 15 + ["any", "bare", "word", "command", "same"]))
        if kind == "same":
            path = draw(st.sampled_from(FUZZ_FLAGS["--out"]))
            argv += ["--out", path, "--trace", path]
            continue
        if kind == "word":
            argv.append(draw(st.sampled_from(["psi_AB", "2000", "-1"])))
            continue
        if kind == "command":
            argv.append(draw(st.sampled_from(list(FUZZ_SUBCOMMANDS))))
            continue
        flag = draw(st.sampled_from(flags if flags and kind != "any" else list(FUZZ_FLAGS)))
        argv.append(flag)
        if FUZZ_FLAGS[flag] is not None and kind != "bare":
            argv.append(draw(st.sampled_from(FUZZ_FLAGS[flag])))
    return argv


class TestArgvFuzz:
    @given(argv=fuzz_argv())
    @example(argv=["simulate", "-n", "-1", "--out", "r.out", "--trace", "t.csv"])
    @example(argv=["simulate", "-n", "5", "--out", "r.out", "--trace", "missing/x"])
    @example(argv=["simulate", "-n", "17", "--out", "t.csv", "--trace", "t.csv", "--check"])
    @example(argv=["simulate", "-n", "5", "--format", "json", "--out", "same.csv", "--trace", "same.csv"])
    @example(argv=["simulate", "--policy", "alternating", "--check", "--trace", "t.csv", "--out", "r.out"])
    @example(argv=["synth", "psi_h0", "--to-e0", "--out", "missing/x"])
    @example(argv=["--", "verify"])  # selects verify on Python 3.13, a usage error before
    @example(argv=["--", "audit", "psi_AB", "verify"])
    @example(argv=["-h", "simulate", "-n", "5"])
    @settings(max_examples=400, deadline=None)
    def test_any_argv_exits_0_1_or_2(self, argv):
        # in process, warnings as errors, in a fresh directory that a failed call leaves empty
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            stdout, stderr = io.StringIO(), io.StringIO()
            os.chdir(tmp)
            try:
                with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    warnings.simplefilter("error")
                    try:
                        code, usage_error = main(argv), False
                    except SystemExit as exc:  # argparse: usage error or --help
                        code, usage_error = exc.code, True
            finally:
                os.chdir(cwd)
            assert code in ((0, 2) if usage_error else (0, 1, 2))
            if not usage_error:
                args = _build_parser(argv).parse_args(argv)
                if getattr(args, "trace", None) is not None and args.trace == args.out:
                    assert code == 2, "one file for --out and --trace"
            if code == 2 and not usage_error:
                assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
            if code == 2:
                assert not os.listdir(tmp), "a failed call left a file behind"


# argv -> sha256 of what the parser prints at 80 columns before it exits:
# stdout of a --help (exit 0), stderr of a usage error (exit 2)
PARSER_GOLDEN = {
    ("--help",): "866d4052ac18f4dadae03f2f2c8f36d7fde2e9e345de54b73e1345be7ea7a3a8",
    ("states", "--help"): "c07efdcfac0c3a745c51eade51c04a93a3ff6e35c4e013e1e13ce26b0c073a16",
    ("verify", "--help"): "d9edbde3aaa154e1100092f421558f0130a0a82ca9c79451c751854f98c9bff9",
    ("audit", "--help"): "052cce415e08dad39dfea8aee7fa037c8e106e34b3433f7a0b0e550805970043",
    ("synth", "--help"): "192763553fed942ac723a7587bd66889c7541f646a0953128f052aa7139686f6",
    ("simulate", "--help"): "56bcb1639122867a8d164c00051b0be10f4aef5b98983c2325e55b10cbad075c",
    ("table", "--help"): "02a980bed2cb0f902160f915c6b31aded6620fe602f1e66a9d979351fa76c289",
    ("states",): "df55cba4a8e928b4cdad646789e134dd751f7567cab8195deb7b6801ac9991e0",
    ("verify", "--tol", "nan"): "a1e400c865fa6c5e842064d5da4029ae4ba2058050c5bcbf3ae54869a9f135ab",
    ("audit",): "16763f9681868f3dc7ee7cd96b3588bc268cc7410c85d19756eb32a4a8c8ba30",
    ("synth", "psi_AB"): "c1c79981a004a1e964bfc1cc949ac6354ce8025d156ab561a0248f8026485090",
    ("simulate", "--seed", "x"): "b6172d73783fc5b0053ca0ce969d9afbb055b4d7ba589b261c3da92262607bf4",
    ("table", "--policy", "sometimes"): "36fd7bb4a86f08353a6dba10677c60c7389382072484f18b2869016f15c34c86",
}

# argv -> sha256 of the usage error the top-level parser prints at 80 columns:
# an invalid command, a missing one, and an unknown option after a command
TOP_LEVEL_ERRORS = {
    ("bogus",): "730e008e0e7ab3279e772907629c4713ff3e021b9d19e6c94fbfc4e92566115d",
    (): "178cc4149f6b36092ac6995d3cd08541e3e6eb7a1f0157a4686b8be5ad738d05",
    ("verify", "--bogus"): "a3fcc37632eb2f9a8ccd02f80abee1d86c2fb39c50e413e8980cb07c61580c22",
}


def one_spelling(text):
    """Parser output in one spelling on Python 3.10-3.13: an option with a
    short and a long form as "-n TRIALS, --trials TRIALS", which Python 3.13
    prints "-n, --trials TRIALS", and the choices of an invalid choice quoted,
    as "(choose from 'a', 'b')", which later releases such as 3.13.13 print
    unquoted.  Nothing else of this parser's output differs."""
    text = re.sub(r"^  (-\w), (--[\w-]+) (\S+)$", r"  \1 \3, \2 \3", text, flags=re.M)
    unquoted = r"\(choose from ([^')][^)]*)\)"
    return re.sub(unquoted, lambda m: f"(choose from {', '.join(map(repr, m[1].split(', ')))})", text)


class TestParserDigests:
    """The help and the usage errors, byte for byte, so that a change to how
    the parser is built shows in them."""

    def test_every_subcommand_is_pinned(self):
        subcommands = _build_parser()._subparsers._group_actions[0].choices
        assert {(command, "--help") for command in subcommands} <= set(PARSER_GOLDEN)
        assert {argv[0] for argv in PARSER_GOLDEN if "--help" not in argv} == set(subcommands)

    @pytest.mark.parametrize("argv", list(PARSER_GOLDEN), ids=" ".join)
    def test_parser_output_digest(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        code, text, silent = (0, captured.out, captured.err) if "--help" in argv else (2, captured.err, captured.out)
        assert (exc.value.code, silent) == (code, "")
        assert hashlib.sha256(one_spelling(text).encode("utf-8")).hexdigest() == PARSER_GOLDEN[argv]

    def test_one_spelling_reads_python_3_13_help(self):
        assert one_spelling("options:\n  -n, --trials TRIALS\n") == "options:\n  -n TRIALS, --trials TRIALS\n"
        assert one_spelling("  -h, --help            show this help\n") == "  -h, --help            show this help\n"
        quoted = "invalid choice: 'x' (choose from 'states', 'verify')\n"
        assert one_spelling("invalid choice: 'x' (choose from states, verify)\n") == one_spelling(quoted) == quoted

    @pytest.mark.parametrize("argv", list(TOP_LEVEL_ERRORS), ids=lambda argv: " ".join(argv) or "no-argv")
    def test_top_level_usage_error_digest(self, capsys, monkeypatch, argv):
        # only the top level prints the subcommand list and the prog prefix
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert hashlib.sha256(one_spelling(captured.err).encode("utf-8")).hexdigest() == TOP_LEVEL_ERRORS[argv]


class TestCommandParser:
    """A call builds the -h and the arguments of the subcommand it names and no other's."""

    @pytest.mark.parametrize(
        "argv, command",
        [
            (["verify"], "verify"),
            (["simulate", "-n", "5", "--trace", "table"], "simulate"),
            (["-h", "simulate"], "simulate"),
            (["--", "verify", "--format", "json"], "verify"),
            (["bogus", "audit", "psi_AB", "verify"], "audit"),
            (["bogus", "-h"], None),
            ([], None),
        ],
    )
    def test_only_the_first_command_name_gets_arguments(self, argv, command):
        subparsers = _build_parser(argv)._subparsers._group_actions[0].choices
        assert list(subparsers) == list(cli._COMMANDS)
        for name, subparser in subparsers.items():
            # one that argv does not name is bare: not even a -h action
            built = bool(subparser._actions)
            assert built == (subparser.get_default("func") is not None) == (name == command), name


class TestSimulate:
    def test_uniform_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "-n", "100000", "--seed", "7", "--policy", "uniform", "--check"
        )
        assert code == 0
        assert "pass" in out

    def test_json_is_byte_identical_across_runs(self, capsys):
        args = ("simulate", "-n", "50000", "--seed", "3", "--policy", "uniform", "--format", "json")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "-n", "1000", "--seed", "1", "--policy", "biased:0.25", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"] == {"n_trials": 1000, "seed": 1, "policy": "biased:0.25", "mode": "collapse"}
        assert data["provenance"] == montecarlo.provenance()
        assert "seed" not in data  # the seed is in config only
        assert set(data["resultant_states"]) == {"AB", "ABht", "ABth"}
        assert set(data["charlie"]) == {"ok_ok", "ok_fail", "fail_ok", "fail_fail"}
        counts = [v["count"] for v in data["resultant_states"].values()]
        assert sum(counts) == 1000

    @pytest.mark.parametrize("policy, mode", [("alternating", "collapse"), ("biased:0.17", "analytic")])
    def test_replay_from_config_and_provenance(self, capsys, policy, mode):
        # a run is replayed from its JSON alone: the config gives the flags,
        # and the provenance names the contract the library must follow
        argv = ("simulate", "-n", "70001", "--seed", "12", "--policy", policy, "--mode", mode, "--format", "json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert data["provenance"] == montecarlo.provenance()
        config = data["config"]
        replay = ["simulate", "-n", str(config["n_trials"]), "--seed", str(config["seed"]), "--format", "json"]
        code, again, _ = run_cli(capsys, *replay, "--policy", config["policy"], "--mode", config["mode"])
        assert code == 0
        assert again == out

    def test_zero_trials(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "-n", "0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert all(v["count"] == 0 for v in data["resultant_states"].values())

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "simulate", "-n", "50", "--seed", "2", "--trace", str(path))
        assert code == 0
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == ["trial", "alice_outcome", "transform", "state", "charlie_a", "charlie_b"]
        assert len(rows) == 51
        assert rows[1][1] in ("h", "t")
        assert rows[1][2] in ("A_h0", "A_t01")

    def test_rejected_call_leaves_no_trace_file(self, capsys, tmp_path):
        path, out = tmp_path / "trace.csv", tmp_path / "results.txt"
        code, _, _ = run_cli(
            capsys, "simulate", "--policy", "alternating", "--check", "--trace", str(path), "--out", str(out)
        )
        assert code == 2
        assert not path.exists() and not out.exists()

    def test_failed_trace_leaves_no_out_file(self, capsys, tmp_path):
        out, trace = tmp_path / "r.json", tmp_path / "missing" / "t.csv"
        code, _, err = run_cli(capsys, "simulate", "-n", "10", "--out", str(out), "--trace", str(trace))
        assert code == 2
        assert str(trace) in err
        assert not out.exists()

    def test_failed_call_keeps_an_existing_out_file(self, capsys, tmp_path):
        out, trace = tmp_path / "r.json", tmp_path / "missing" / "t.csv"
        out.write_text("old", encoding="utf-8")
        code, _, _ = run_cli(capsys, "simulate", "-n", "10", "--out", str(out), "--trace", str(trace))
        assert code == 2
        assert out.exists()

    def test_out_and_trace_on_one_path_exit_2(self, capsys, tmp_path, monkeypatch):
        # the results would overwrite the trace; refused before any trial runs
        monkeypatch.setattr("wigner_lab.cli.run_trials", refuse_work)
        path = str(tmp_path / "same.csv")
        code, _, err = run_cli(capsys, "simulate", "-n", "5", "--format", "json", "--out", path, "--trace", path)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and path in err
        assert not os.listdir(tmp_path)  # the file this call created is gone

    def test_out_through_a_symlink_to_the_trace_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("wigner_lab.cli.run_trials", refuse_work)
        trace, alias = tmp_path / "same.csv", tmp_path / "alias.csv"
        trace.write_text("old", encoding="utf-8")
        alias.symlink_to(trace.name)
        code, _, err = run_cli(capsys, "simulate", "-n", "5", "--out", str(alias), "--trace", str(trace))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["alias.csv", "same.csv"]  # both were there before

    def test_stdout_redirected_to_the_trace_exits_2(self, capsys, tmp_path, monkeypatch):
        # as with `simulate --trace t.csv > t.csv`: the results would overwrite the trace
        monkeypatch.setattr("wigner_lab.cli.run_trials", refuse_work)
        path = tmp_path / "t.csv"
        with open(path, "w", encoding="utf-8") as stdout, contextlib.redirect_stdout(stdout):
            code = main(["simulate", "-n", "5", "--trace", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: stdout and --trace name the same file: {path}\n"

    def test_out_and_trace_both_devnull_exit_0(self, capsys):
        # not a regular file: nothing written to it can be lost
        code, out, _ = run_cli(capsys, "simulate", "-n", "5", "--out", os.devnull, "--trace", os.devnull)
        assert code == 0 and out == ""

    def test_stdout_and_trace_both_devnull_exit_0(self, capsys):
        with open(os.devnull, "w", encoding="utf-8") as stdout, contextlib.redirect_stdout(stdout):
            code = main(["simulate", "-n", "5", "--trace", os.devnull])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_failed_call_keeps_a_dangling_out_link(self, capsys, tmp_path, monkeypatch):
        # the call creates target.csv through the link, then fails on the trace
        monkeypatch.chdir(tmp_path)
        Path("link").symlink_to("target.csv")
        code, _, err = run_cli(capsys, "simulate", "-n", "10", "--out", "link", "--trace", "missing/x")
        assert code == 2
        assert err.startswith("error: ") and "missing/x" in err
        assert os.path.islink("link") and os.readlink("link") == "target.csv"
        assert sorted(os.listdir(tmp_path)) == ["link"]  # target.csv, created by the call, is gone

    def test_trace_into_missing_dir_names_the_path(self, capsys, tmp_path):
        path = str(tmp_path / "missing" / "trace.csv")
        code, _, err = run_cli(capsys, "simulate", "-n", "10", "--trace", path)
        assert code == 2
        assert err.startswith("error: ") and path in err

    def test_out_into_missing_dir_names_the_path(self, capsys, tmp_path, monkeypatch):
        # the --out file is opened before any trial runs
        monkeypatch.setattr("wigner_lab.cli.run_trials", refuse_work)
        path = str(tmp_path / "missing" / "results.json")
        code, _, err = run_cli(capsys, "simulate", "-n", "10", "--format", "json", "--out", path)
        assert code == 2
        assert err.startswith("error: ") and path in err

    def test_trace_memory_is_bounded(self, capsys, tmp_path):
        # the trace streams chunk by chunk: 8x the trials, about the same peak
        def traced_peak(n):
            tracemalloc.start()
            try:
                assert main(["simulate", "-n", str(n), "--policy", "biased:0.2", "--trace", str(tmp_path / "t.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(2 * _CHUNK), traced_peak(16 * _CHUNK)
        capsys.readouterr()
        assert large <= 1.5 * small

    def test_check_with_alternating_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "-n", "100", "--policy", "alternating", "--check")
        assert code == 2
        assert "closed form" in err

    def test_alternating_without_check_runs(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "-n", "100", "--policy", "alternating", "--format", "json")
        assert code == 0

    def test_empty_out_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "-n", "3", "--out", "")
        assert code == 2
        assert out == "" and err == "error: [Errno 2] No such file or directory: ''\n"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "results.json"
        code, out, _ = run_cli(
            capsys, "simulate", "-n", "100", "--seed", "4", "--format", "json", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text(encoding="utf-8"))["config"]["seed"] == 4

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("WIGNER_LAB_SEED", "99")
        code, out, _ = run_cli(capsys, "simulate", "-n", "100", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 99

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WIGNER_LAB_SEED", "99")
        code, out, _ = run_cli(capsys, "simulate", "-n", "100", "--seed", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 5

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("WIGNER_LAB_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "simulate", "-n", "100")
        assert code == 2
        assert err == "error: $WIGNER_LAB_SEED: seed must be an integer, got 'not-a-number'\n"

    def test_bad_policy_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--policy", "sometimes"])
        assert exc.value.code == 2

    def test_analytic_mode_with_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "-n", "10000", "--seed", "8", "--mode", "analytic", "--check", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["resultant_states"]["AB"]["count"] == 10000
        assert data["check"]["passed"] is True


# One call of every command that writes its results to stdout, in each format it takes.
STDOUT_COMMANDS = [
    (*command, "--format", fmt)
    for command in [("states", "psi_AB"), ("verify",), ("audit", "psi_AB"), ("table",), ("simulate", "-n", "5")]
    for fmt in ("pretty", "json", "csv")
] + [("simulate", "-n", "5", "--trace", "t.csv"), ("synth", "psi_h0", "--to-e0")]


class TestClosedStreams:
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=" ".join)
    def test_closed_stdout_exits_2(self, capsys, monkeypatch, tmp_path, argv):
        # Python sets sys.stdout to None when it starts with fd 1 closed
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdout", None)
        code = main(list(argv))
        assert code == 2
        assert capsys.readouterr().err == "error: stdout is closed\n"
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv", [("simulate", "-n", "5"), ("synth", "psi_h0", "--to-e0")], ids=lambda a: a[0])
    def test_out_file_needs_no_stdout(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setattr(sys, "stdout", None)
        path = tmp_path / "results"
        assert main([*argv, "--out", str(path)]) == 0
        assert path.read_text(encoding="utf-8")
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, code", [(("audit", "psi_nope"), 2), (("synth", "psi_h0", "--to-e0"), 0)], ids=["audit", "synth"]
    )
    def test_stderr_none_keeps_stdout_clean(self, capsys, monkeypatch, argv, code):
        # print(file=None) would write the error, or synth's residual, to stdout
        monkeypatch.setattr(sys, "stderr", None)
        assert main(list(argv)) == code
        out = capsys.readouterr().out
        if code:
            assert out == ""
        else:
            assert json.loads(out)["dim"] == 4


def random_chunk(seed, start, length, analytic):
    """A chunk of random trials: outcome codes drawn from the 16 collapse
    cells, or from analytic mode's 16 + charlie_idx."""
    low, high = (16, 20) if analytic else (0, 16)
    return TraceChunk(start, np.random.default_rng(seed).integers(low, high, length).astype(np.uint8))


def reference_rows(chunk):
    """The row text of a chunk, one Python string per row, spelled from its decoded columns."""
    n = len(chunk.outcome)
    alice = ["-"] * n if chunk.heads is None else ["h" if heads else "t" for heads in chunk.heads.tolist()]
    transform = ["-"] * n if chunk.apply_h0 is None else ["A_h0" if h0 else "A_t01" for h0 in chunk.apply_h0.tolist()]
    columns = zip(alice, transform, chunk.state_idx.tolist(), chunk.charlie_idx.tolist())
    return "".join(
        f"{chunk.start + i},{a},{t},{STATE_LABELS[state]},{CHARLIE_LABELS[charlie].replace('_', ',')}\n"
        for i, (a, t, state, charlie) in enumerate(columns)
    ).encode("ascii")


def encoded_rows(chunk):
    handle = io.BytesIO()
    _write_trace_rows(handle, chunk)
    return handle.getvalue()


def encoding_peak(chunk):
    """The bytes the encoder writes for ``chunk`` and its peak traced memory."""
    handle = ByteCounter()
    tracemalloc.start()
    try:
        _write_trace_rows(handle, chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return handle.bytes, peak


class LastFirst(np.ndarray):
    """An array whose fancy assignments apply their elements last first."""

    def __setitem__(self, index, value):
        super().__setitem__(index[::-1], value[::-1])


class ByteCounter:
    """A binary handle that keeps nothing but the number of bytes and writes."""

    def __init__(self):
        self.bytes = self.writes = 0

    def write(self, data):
        self.bytes += memoryview(data).nbytes
        self.writes += 1


class TestTraceEncoding:
    def test_outcome_codes_spell_their_tails(self):
        # the collapse cells 0..15, then analytic codes 16..19
        for codes in (np.arange(16), np.arange(16, 20)):
            chunk = TraceChunk(0, codes.astype(np.uint8))
            heads, apply_h0 = chunk.heads, chunk.apply_h0
            for i, code in enumerate(codes.tolist()):
                alice, transform = "-", "-"
                if heads is not None:
                    alice, transform = "h" if heads[i] else "t", "A_h0" if apply_h0[i] else "A_t01"
                state, charlie = STATE_LABELS[chunk.state_idx[i]], CHARLIE_LABELS[chunk.charlie_idx[i]]
                assert _TRACE_TAILS[code] == f",{alice},{transform},{state},{charlie.replace('_', ',')}\n"
        assert len(_TRACE_TAILS) == 20

    def test_two_passes_cover_every_row(self):
        # pass 1 writes a row's number and as much of its tail as the group's
        # shortest tail has, pass 2 the last 8 bytes of the tail
        for tails in (_TRACE_TAILS[:16], _TRACE_TAILS[16:]):
            lengths = [len(tail) for tail in tails]
            assert min(lengths) >= 8
            assert max(lengths) - min(lengths) <= 8
        # pass 1 also writes the filler in front of a shorter number into the
        # last bytes of the row before, which pass 2 rewrites: it is widest,
        # digits - 1 bytes, for trials 0 .. 9 of a chunk from 0
        digits = -(-len(str(_CHUNK - 1)) // 4) * 4
        assert digits - 1 <= 8

    @pytest.mark.parametrize(
        "code", EXTREME_TAILS, ids=["collapse-shortest", "collapse-longest", "analytic-shortest", "analytic-longest"]
    )
    @pytest.mark.parametrize("start, length", [(0, 1_010), (9_990, 20)])
    def test_matches_per_row_reference_with_one_tail(self, start, length, code):
        # in front of a shorter number, pass 1 writes its slot's filler into the row before
        chunk = TraceChunk(start, np.full(length, code, dtype=np.uint8))
        assert encoded_rows(chunk) == reference_rows(chunk)

    @pytest.mark.parametrize("analytic", [False, True], ids=["collapse", "analytic"])
    def test_rows_do_not_depend_on_the_order_within_a_pass(self, monkeypatch, analytic):
        # numpy leaves undefined the order in which a fancy assignment applies
        # its elements; applied last first, a row's pass-1 record is written
        # after the filler that the next row's record put into its last bytes.
        # From trial 0 the filler is widest: 7 bytes in front of trials 0 .. 9.
        records = cli._records
        monkeypatch.setattr(cli, "_records", lambda *args: records(*args).view(LastFirst))
        chunk = random_chunk(2, 0, _CHUNK, analytic)
        assert encoded_rows(chunk) == reference_rows(chunk)

    @pytest.mark.parametrize("analytic", [False, True], ids=["collapse", "analytic"])
    @pytest.mark.parametrize(
        "start, length",
        [
            (0, 1),
            (0, 9),
            (0, 10),
            (0, 11),
            (0, GROUP + 1),
            (9_990, 20),
            (99_990, 20),
            (99_995, _CHUNK),  # 5 digits, then 6
            (983_040, _CHUNK),
            (10**15 - 5, 10),
        ],
    )
    def test_matches_per_row_reference(self, start, length, analytic):
        chunk = random_chunk(start + length, start, length, analytic)
        assert encoded_rows(chunk) == reference_rows(chunk)

    @given(
        start=st.one_of(
            st.integers(0, 10**15),
            st.builds(lambda k, back: max(0, 10**k - back), st.integers(1, 15), st.integers(0, 2 * GROUP)),
        ),
        length=st.integers(1, 2 * GROUP + 2),
        analytic=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_anywhere(self, start, length, analytic, seed):
        chunk = random_chunk(seed, start, length, analytic)
        assert encoded_rows(chunk) == reference_rows(chunk)

    def test_writes_once_per_block(self):
        # one write per group of 10 000 trials that the chunk touches
        for start, writes in [(0, 7), (10**15 - 5, 8)]:
            handle = ByteCounter()
            _write_trace_rows(handle, random_chunk(0, start, _CHUNK, False))
            assert handle.writes == writes

    def test_a_chunk_longer_than_the_kernel_makes_is_refused(self):
        # the slot rule is exact only for chunks of at most _CHUNK trials
        with pytest.raises(ValueError, match="at most"):
            _write_trace_rows(ByteCounter(), TraceChunk(0, np.zeros(_CHUNK + 1, dtype=np.uint8)))
        assert encoded_rows(TraceChunk(0, np.zeros(_CHUNK, dtype=np.uint8))).startswith(b"0,t,A_t01,AB,ok,ok\n")

    def test_memory_is_one_block(self):
        # a full chunk's rows are about 1.7 MB; the encoder holds one group of them
        written, peak = encoding_peak(random_chunk(1, 0, _CHUNK, False))
        assert written > 1_600_000
        assert peak <= 1 << 20

    def test_memory_of_a_late_chunk_is_one_block(self):
        # sixteen digits in place of eight widen each row of the group by 8 bytes
        written, peak = encoding_peak(random_chunk(1, 10**12, _CHUNK, False))
        assert written > 2_100_000
        assert peak <= 1.25 * (1 << 20)


class TestTable:
    def test_uniform_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--policy", "uniform", "--format", "json")
        assert code == 0
        data = json.loads(out)
        joints = [row["p_joint"] for row in data["rows"]]
        np.testing.assert_allclose(joints, [1 / 6, 1 / 6, 2 / 6, 2 / 6], atol=1e-12)

    def test_correct_aggregate(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--policy", "correct", "--format", "json")
        assert code == 0
        agg = json.loads(out)["resultant_states"]
        assert (agg["AB"], agg["ABht"], agg["ABth"]) == (1.0, 0.0, 0.0)

    def test_biased_aggregate(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--policy", "biased:0.3", "--format", "json")
        assert code == 0
        agg = json.loads(out)["resultant_states"]
        assert agg["AB"] == pytest.approx(0.7)
        assert agg["ABht"] == pytest.approx(0.1)
        assert agg["ABth"] == pytest.approx(0.2)

    def test_alternating_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "--policy", "alternating")
        assert code == 2
        assert "closed form" in err

    @pytest.mark.parametrize("policy, eps", [("correct", 0.0), ("uniform", 0.5), ("biased:0.17", 0.17), ("biased:0.3", 0.3)])
    def test_rows_and_aggregate_share_one_closed_form(self, capsys, policy, eps):
        code, out, _ = run_cli(capsys, "table", "--policy", policy, "--format", "json")
        assert code == 0
        data = json.loads(out)
        aggregate = data["resultant_states"]
        wrong = [row for row in data["rows"] if row["resultant_state"] != "AB"]
        assert [row["resultant_state"] for row in wrong] == ["ABht", "ABth"]
        assert [row["p_joint"] for row in wrong] == [aggregate["ABht"], aggregate["ABth"]]
        assert aggregate["AB"] == 1.0 - eps

    def test_negative_zero_epsilon_prints_as_zero(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--policy", "biased:-0.0", "--format", "csv")
        assert code == 0
        assert "-0.0" not in out
        assert out == run_cli(capsys, "table", "--policy", "biased:0.0", "--format", "csv")[1]

    def test_pretty_matches_mechanism_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--policy", "uniform")
        assert code == 0
        assert "0.1667" in out and "0.3333" in out


def module_env():
    """The environment of a child interpreter that imports this package."""
    src = str(Path(wigner_lab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def calls_in_one_process(*argvs):
    """The exit code and stdout of each ``main(argv)``, called in turn in one fresh interpreter."""
    code = (
        "import contextlib, io, json, sys\n"
        "from wigner_lab.cli import main\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        results.append([main(argv), out.getvalue()])\n"
        "print(json.dumps(results))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], env=module_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_module(*args, redirect=""):
    """``python -m wigner_lab ARGS`` in a fresh interpreter, as a user runs it;
    through ``/bin/sh`` with ``redirect`` (such as ``>&-``) when one is given."""
    argv = [sys.executable, "-m", "wigner_lab", *args]
    if redirect:
        argv = ["/bin/sh", "-c", f'exec "$@" {redirect}', "sh", *argv]
    return subprocess.run(argv, env=module_env(), capture_output=True, text=True, timeout=60)


def start_module(*args):
    """``python -m wigner_lab ARGS`` started with its output on pipes and
    Ctrl-C raising ``KeyboardInterrupt``, as in a terminal, even where this
    process ignores SIGINT (a background job)."""
    return subprocess.Popen(
        [sys.executable, "-m", "wigner_lab", *args],
        env=module_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )


class TestEntryPoint:
    def test_python_m_wigner_lab_verify(self):
        proc = run_module("verify")
        assert proc.returncode == 0, proc.stderr
        assert "all checks passed" in proc.stdout

    def test_importing_the_cli_leaves_out_fractions(self):
        # only sampling needs numpy.random, which numpy >= 2 imports on first
        # use; the cell bounds are built in integers, so not even a biased
        # run's table build imports fractions (and decimal with it)
        code = (
            "import contextlib, io, sys, numpy\n"
            "before = set(sys.modules)\n"
            "import wigner_lab.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert wigner_lab.cli.main(['verify']) == 0\n"
            "    numpy_random = {name for name in set(sys.modules) - before if name.startswith('numpy.random')}\n"
            "    assert wigner_lab.cli.main(['simulate', '-n', '1000', '--policy', 'biased:0.1']) == 0\n"
            "sys.exit(sorted(numpy_random | {'fractions', 'decimal'} & set(sys.modules)) or None)"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=module_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                ["simulate", "-n", "1000", "--seed", "1", "--policy", "biased:0.1", "--format", "json"],
                ["simulate", "-n", "1000", "--format", "csv"],
            ),
            (["verify", "--tol", "0"], ["verify"]),
            (["table", "--policy", "biased:0.2", "--format", "json"], ["simulate", "-n", "100", "--format", "csv"]),
            (["audit", "psi_ABht", "--format", "json"], ["states", "psi_AB", "--basis", "computational", "--format", "csv"]),
            (["states", "psi_AB", "--basis", "charlie"], ["audit", "psi_AB", "--format", "csv"]),
        ],
        ids=["simulate", "verify", "table-simulate", "audit-states", "states-audit"],
    )
    def test_a_call_prints_what_it_prints_alone(self, first, second):
        # nothing of one call's arguments or parser may leak into the next call in the process
        assert calls_in_one_process(first, second) == calls_in_one_process(first) + calls_in_one_process(second)

    def test_main_without_argv_reads_the_process_arguments(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["wigner-lab", "verify", "--format", "json"])
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == run_cli(capsys, "verify", "--format", "json")
        assert json.loads(captured.out)["passed"]

    def test_closed_stdout_exits_2(self):
        proc = run_module("verify", redirect=">&-")
        assert proc.returncode == 2
        assert proc.stderr == "error: stdout is closed\n"

    def test_error_with_closed_stderr_exits_2(self):
        proc = run_module("audit", "psi_nope", redirect="2>&-")
        assert proc.returncode == 2
        assert proc.stdout == ""

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_trace_to_stdout_through_a_pipe(self):
        # `simulate --trace /dev/stdout | cat`: a pipe is not a regular file
        proc = run_module("simulate", "-n", "3", "--format", "csv", "--trace", "/dev/stdout")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()  # the trace's 1 + 3 lines, then the results' 1 + 7
        assert lines[0] == "trial,alice_outcome,transform,state,charlie_a,charlie_b"
        assert lines[4] == "section,label,count,freq" and len(lines) == 12

    def test_interrupt_exits_130_without_a_traceback(self, tmp_path):
        # Ctrl-C while the trace is being written; the file the call created goes
        trace = tmp_path / "t.csv"
        proc = start_module("simulate", "-n", str(10**12), "--trace", str(trace))
        try:
            deadline = time.monotonic() + 60
            while not (trace.exists() and trace.stat().st_size) and time.monotonic() < deadline:
                time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.communicate()
        assert (proc.returncode, out, err) == (130, "", "")
        assert not trace.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize(
        "args, kept",
        [(("simulate", "-n", "300000", "--trace", "/dev/stdout"), 50), (("states", "psi_AB", "--format", "json"), 0)],
        ids=["trace-head", "states-true"],
    )
    def test_reader_that_closes_early_exits_141_silently(self, args, kept):
        # `simulate --trace /dev/stdout | head -c 50` and `states ... | true`
        proc = start_module(*args)
        try:
            assert len(proc.stdout.read(kept)) == kept
            proc.stdout.close()
            err = proc.communicate(timeout=60)[1]
        finally:
            proc.kill()
            proc.communicate()
        assert (proc.returncode, err) == (141, "")

    @pytest.mark.parametrize(
        "command, document",
        [
            (("audit",), {"num_qubits": 2, "amplitudes": [[1e308, 1e308], [0, 0], [0, 0], [0, 0]]}),
            (("synth", "--to-e0"), {"amplitudes": [[1e308, 1e308], [0, 0]]}),
            (("audit",), {"num_qubits": 2, "amplitudes": [[math.nan, 0], [0, 0], [0, 0], [0, 0]]}),
            (("synth", "--to-e0"), {"amplitudes": [[math.nan, 0], [0, 0]]}),
        ],
        ids=["audit", "synth", "audit-nan", "synth-nan"],
    )
    def test_huge_amplitudes_print_only_the_error(self, tmp_path, command, document):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        proc = run_module(command[0], str(path), *command[1:])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_deeply_nested_amplitude_prints_a_short_error(self, tmp_path):
        # json reads 900 levels in a fresh interpreter; the error shows only the first
        path = tmp_path / "deep_item.json"
        path.write_text('{"amplitudes": [' + "[" * 900 + "]" * 900 + ", [0, 0]]}", encoding="utf-8")
        proc = run_module("audit", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert len(proc.stderr.encode()) < 200, proc.stderr
