"""Workload inputs and output checks.

Each workload is an endless, seed-determined sequence of ``Op``s: one
``wigner_lab.cli.main`` argv plus the check its output must pass.  The
sequences are built from fixed rotations so that any window of a few
consecutive ops has the same mix of settings and sizes whatever the seed;
the seed picks the simulation seeds, policy epsilons, size jitter and the
contents of the generated input files.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CHUNK = 1 << 16  # trials per Philox chunk that the workloads assume
UNIFORM_BYTES_PER_TRIAL = 24  # three float64 uniforms per trial
SIGMA_BOUND = 4.0
# Two-sided normal tail beyond 4 sigma, over the three resultant-state labels.
ALARM_RATE_PER_CHECK = 3 * math.erfc(SIGMA_BOUND / math.sqrt(2))

STATE_LABELS = ("AB", "ABht", "ABth")
CHARLIE_LABELS = ("ok_ok", "ok_fail", "fail_ok", "fail_fail")
TRACE_HEADER = b"trial,alice_outcome,transform,state,charlie_a,charlie_b\n"
TWO_QUBIT_NAMES = ("psi_AB", "psi_h0", "psi_t01", "psi_ABht", "psi_ABth")


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One cli.main call, the files it writes, and how to check its output."""

    argv: list[str]
    # check(op, exit code, stdout, stderr, {file: Path}) raises CheckFailed,
    # or returns True for a statistical alarm of --check.
    check: Callable[..., bool]
    trials: int = 0
    outputs: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared checks


def _counts(dist: dict) -> dict[str, int]:
    return {label: entry["count"] for label, entry in dist.items()}


def _check_simulate_json(op: Op, code: int, stdout: str, stderr: str) -> tuple[dict, bool]:
    """Check a ``simulate --format json`` result; returns it and whether
    a --check call raised a statistical alarm (exit 1, check failed)."""
    require(stderr == "", f"unexpected stderr: {stderr[:200]!r}")
    payload = json.loads(stdout)
    n = op.trials
    require(payload["config"]["n_trials"] == n, "n_trials differs from the request")
    states, charlie = _counts(payload["resultant_states"]), _counts(payload["charlie"])
    require(set(states) == set(STATE_LABELS), "resultant-state labels differ")
    require(set(charlie) == set(CHARLIE_LABELS), "charlie labels differ")
    require(sum(states.values()) == n, "resultant-state counts do not sum to n")
    require(sum(charlie.values()) == n, "charlie counts do not sum to n")
    if op.expect.get("mode") == "analytic" or op.expect.get("policy") == "correct":
        require(states["AB"] == n, "a mistake-free run produced a wrong state")
    alarm = False
    if "--check" in op.argv and n > 0:
        passed = payload["check"]["passed"]
        require(code == (0 if passed else 1), f"exit {code} disagrees with check.passed={passed}")
        alarm = not passed
    else:
        require(code == 0, f"exit code {code}")
    return payload, alarm


def _check_trace_csv(op: Op, path: Path, payload: dict) -> None:
    """Row count, trial order, the AB-iff-match invariant and the tallies.

    The file is read a line at a time, so checking adds little memory to
    the benchmark process."""
    tails: Counter = Counter()
    rows = 0
    with path.open("rb") as handle:
        require(handle.readline() == TRACE_HEADER, "trace header differs")
        for index, row in enumerate(handle):
            trial, _, tail = row.partition(b",")
            if trial != b"%d" % index or not tail.endswith(b"\n"):
                raise CheckFailed(f"row {index} is {row[:80]!r}")
            tails[tail[:-1]] += 1
            rows = index + 1
    require(rows == op.trials, f"trace has {rows} rows, expected {op.trials}")
    analytic = op.expect.get("mode") == "analytic"
    states: Counter = Counter()
    charlie: Counter = Counter()
    for tail, count in tails.items():
        alice, transform, state, charlie_a, charlie_b = tail.decode().split(",")
        if analytic:
            require((alice, transform, state) == ("-", "-", "AB"), f"analytic row {tail!r}")
        else:
            require(alice in ("h", "t") and transform in ("A_h0", "A_t01"), f"bad row {tail!r}")
            matches = (transform == "A_h0") == (alice == "h")
            require((state == "AB") == matches, f"row {tail!r} breaks AB iff transform matches record")
        states[state] += count
        charlie[f"{charlie_a}_{charlie_b}"] += count
    require(
        {label: states[label] for label in STATE_LABELS} == _counts(payload["resultant_states"]),
        "trace state tallies differ from the JSON counts",
    )
    require(
        {label: charlie[label] for label in CHARLIE_LABELS} == _counts(payload["charlie"]),
        "trace charlie tallies differ from the JSON counts",
    )


def check_simulate(op, code, stdout, stderr, files) -> bool:
    payload, alarm = _check_simulate_json(op, code, stdout, stderr)
    if op.outputs:
        _check_trace_csv(op, files[op.outputs[0]], payload)
    return alarm


def _json_result(op, code, stdout, stderr) -> dict | None:
    """Check exit code, stderr and CSV shape; the payload of JSON output."""
    require(code == 0, f"exit code {code}")
    require(stderr == "", f"unexpected stderr: {stderr[:200]!r}")
    require(stdout.strip() != "", "empty output")
    if op.expect.get("format") == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        require(len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows), "ragged CSV")
    return json.loads(stdout) if op.expect.get("format") == "json" else None


def _check_verify(op, code, stdout, stderr, files) -> bool:
    payload = _json_result(op, code, stdout, stderr)
    if payload is not None:
        require(payload["passed"] and all(c["passed"] for c in payload["checks"]), "verify reports a failed check")
    elif op.expect["format"] == "pretty":
        require("all checks passed" in stdout, "verify reports a failed check")
    return False


def _check_audit(op, code, stdout, stderr, files) -> bool:
    payload = _json_result(op, code, stdout, stderr)
    if payload is None:
        return False
    p_okok = payload["p_okok"]
    amplitudes = op.expect.get("amplitudes")
    if amplitudes is not None:
        # Charlie's ok vector is (|0> - |1>)/sqrt(2) on both qubits.
        a = amplitudes
        require(abs(p_okok - abs(a[0] - a[1] - a[2] + a[3]) ** 2 / 4) < 1e-12, "p_okok differs from the closed form")
    if op.expect.get("name") == "psi_AB":
        require(payload["contradiction"] and abs(p_okok - 1 / 12) < 1e-12, "psi_AB audit lost the paradox")
    return False


def _check_states(op, code, stdout, stderr, files) -> bool:
    payload = _json_result(op, code, stdout, stderr)
    if payload is None:
        return False
    coefficients = payload["coefficients"]
    require(len(coefficients) == len(payload["labels"]), "label and coefficient counts differ")
    if payload["view"].startswith("basis:"):
        weight = sum(re * re + im * im for re, im in coefficients)
        require(abs(weight - payload["physical_norm"] ** 2) < 1e-9, "orthonormal expansion lost weight")
    else:
        require("naive_norm" in payload, "frame view without naive_norm")
    return False


def _check_table(op, code, stdout, stderr, files) -> bool:
    payload = _json_result(op, code, stdout, stderr)
    if payload is None:
        return False
    states = payload["resultant_states"]
    require(abs(sum(states.values()) - 1.0) < 1e-12, "resultant-state probabilities do not sum to 1")
    require(abs(sum(r["p_joint"] for r in payload["rows"]) - 1.0) < 1e-12, "joint probabilities do not sum to 1")
    require(abs(states["AB"] - (1.0 - op.expect["eps"])) < 1e-12, "P(AB) differs from 1 - eps")
    return False


def _check_synth(op, code, stdout, stderr, files) -> bool:
    require(code == 0, f"exit code {code}")
    if op.outputs:
        require(stderr == "" and stdout.startswith("residual: "), "synth --out reports no residual")
        text = files[op.outputs[0]].read_text(encoding="utf-8")
    else:
        require(stderr.startswith("residual: "), f"unexpected stderr: {stderr[:200]!r}")
        text = stdout
    entries = json.loads(text)["entries"]
    matrix = np.array([[complex(re, im) for re, im in row] for row in entries])
    vector = np.array(op.expect["vector"])
    vector = vector / np.linalg.norm(vector)
    e0 = np.zeros(len(vector), dtype=complex)
    e0[0] = 1.0
    source, target = (e0, vector) if op.expect["from_e0"] else (vector, e0)
    require(np.abs(matrix.conj().T @ matrix - np.eye(len(vector))).max() < 1e-9, "synthesized matrix is not unitary")
    require(np.abs(matrix @ source - target).max() < 1e-9, "synthesized matrix misses its target")
    return False


# ---------------------------------------------------------------------------
# Generated input files


def _random_vector(rng: random.Random, dim: int) -> list[complex]:
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [a / norm for a in amps]


def write_state(path: Path, amplitudes: list[complex]) -> None:
    path.write_text(
        json.dumps({"num_qubits": len(amplitudes).bit_length() - 1, "amplitudes": [[a.real, a.imag] for a in amplitudes]}),
        encoding="utf-8",
    )


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    # A run makes whole windows of ops, each with the same mix of settings
    # and sizes, so its metrics do not depend on how many windows fit in it.
    window_ops = 1
    # Whether every window repeats the same settings and sizes, with fresh
    # simulation seeds.  Then a call's latency is the median, over the
    # windows, of the calls at its place in the window: a simulate run holds
    # only a few dozen calls, so its tail is one or two kinds of call, and a
    # slow stretch of the machine during one call would otherwise set it.
    windows_repeat = False
    speed_block = 1  # calls per sample of the machine's speed, a divisor of window_ops
    reference = "mixed"  # the reference task (reference.TASKS) whose speed its calls follow
    traced_window_s = 1.0  # about how long a window takes, made untraced and traced

    def traced_ops(self, seconds: float) -> int:
        """The traced run's ops: whole windows, about ``seconds`` of them.
        The number depends on ``seconds`` alone, so the run's computed counts
        repeat exactly for a seed."""
        return max(1, round(seconds / self.traced_window_s)) * self.window_ops

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.scale = 0.01 if tiny else 1.0
        self.files: dict[str, list[complex]] = {}

    def prepare(self, workdir: Path) -> None:
        """Write the generated input files into ``workdir``."""
        for name, amplitudes in self.files.items():
            write_state(workdir / name, amplitudes)

    def _seed(self) -> str:
        return str(self.rng.randrange(1 << 63))

    def _eps(self) -> float:
        return round(self.rng.uniform(0.05, 0.3), 4)

    def ops(self):
        raise NotImplementedError

    def warmup(self) -> list[list[str]]:
        """One small call of each command kind the workload issues; it
        leaves the op sequence unchanged."""
        raise NotImplementedError


def _simulate(n: int, seed: str, policy: str, mode: str, check: bool, trace: str | None = None) -> Op:
    argv = ["simulate", "-n", str(n), "--seed", seed, "--policy", policy, "--format", "json"]
    if mode != "collapse":
        argv += ["--mode", mode]
    if check:
        argv.append("--check")
    outputs: tuple[str, ...] = ()
    if trace is not None:
        argv += ["--trace", trace]
        outputs = (trace,)
    return Op(argv, check_simulate, n, outputs, {"mode": mode, "policy": policy})


class SimulateWorkload(Workload):
    """Simulate calls of every setting in ``SETTINGS`` at each of ``STEPS``
    sizes spread log-uniformly over [LOW, HIGH).

    A window makes each setting at each size once, and every window repeats
    the same settings, sizes and policy epsilons with fresh simulation
    seeds.  Size j sits at (j + 1/2 + phase) / STEPS of the log range, with
    a small seed-drawn phase; every second size is rounded to whole chunks,
    the others are not.
    """

    SETTINGS: tuple[str, ...] = ()
    STEPS = 1
    LOW = HIGH = 0
    TRACE_FILE: str | None = None
    windows_repeat = True

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        phase = (self.rng.random() - 0.5) / 32
        self.window = []
        for j in range(self.STEPS):
            n = self.LOW * (self.HIGH / self.LOW) ** ((j + 0.5 + phase) / self.STEPS)
            if j % 2 == 1:
                n = round(n / CHUNK) * CHUNK
            n = max(1, int(n * self.scale))
            self.window += [(setting, n, self._eps() if setting == "biased" else None) for setting in self.SETTINGS]
        self.window_ops = len(self.window)

    def ops(self):
        for setting, n, eps in itertools.cycle(self.window):
            yield self._op(setting, n, eps)

    def _op(self, setting: str, n: int, eps: float | None) -> Op:
        seed = self._seed()
        # alternating has no closed form, so --check would reject it.
        check = self.TRACE_FILE is None and setting != "alternating"
        if setting == "analytic":
            return _simulate(n, seed, "uniform", "analytic", check, self.TRACE_FILE)
        policy = f"biased:{eps}" if setting == "biased" else setting
        return _simulate(n, seed, policy, "collapse", check, self.TRACE_FILE)

    def warmup(self):
        state = self.rng.getstate()
        argvs = [self._op(setting, 1000, 0.1).argv for setting in self.SETTINGS]
        self.rng.setstate(state)
        return argvs


class CountsStream(SimulateWorkload):
    """The counts-only hot path: large simulate --check calls."""

    name = "counts-stream"
    speed_block = 5
    reference = "kernel"
    traced_window_s = 5.0
    SETTINGS = ("correct", "uniform", "biased", "alternating", "analytic")
    STEPS = 4
    LOW, HIGH = 300_000, 3_000_000


class TraceExport(SimulateWorkload):
    """The traced path: simulate --trace at n across the chunk boundary."""

    name = "trace-export"
    traced_window_s = 7.5
    SETTINGS = ("alternating", "biased", "analytic")
    STEPS = 1
    LOW, HIGH = 100_000, 200_000
    TRACE_FILE = "trace.csv"
    reference = "kernel"


class CliMix(Workload):
    """The latency path: a rotation of short commands of every kind."""

    name = "cli-mix"
    window_ops = 90  # 10 rotations
    speed_block = 90
    traced_window_s = 0.5
    FORMATS = ("pretty", "json", "csv")
    SYNTH_OUT = "synth_out.json"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.files = {f"state_{k}.json": _random_vector(self.rng, 4) for k in range(8)}
        self.vectors = {f"vector_{k}.json": _random_vector(self.rng, 2 << (k % 3)) for k in range(6)}
        self.files.update(self.vectors)
        self.states = [name for name in self.files if name.startswith("state_")]

    def _format(self) -> list[str]:
        return ["--format", self.rng.choice(self.FORMATS)]

    def ops(self):
        kinds = (
            self._verify, self._audit_name, self._audit_file, self._states_basis, self._states_frame,
            self._table, self._synth_to, self._synth_from_out, self._simulate,
        )
        for i in itertools.count():
            yield kinds[i % len(kinds)]()

    def _op(self, argv: list[str], check, **expect) -> Op:
        if "--format" in argv:
            expect["format"] = argv[argv.index("--format") + 1]
        return Op(argv, check, expect=expect)

    def _verify(self):
        return self._op(["verify"] + self._format(), _check_verify)

    def _audit_name(self):
        name = self.rng.choice(TWO_QUBIT_NAMES)
        return self._op(["audit", name] + self._format(), _check_audit, name=name)

    def _audit_file(self):
        name = self.rng.choice(self.states)
        return self._op(["audit", name] + self._format(), _check_audit, amplitudes=self.files[name])

    def _states_basis(self):
        name = self.rng.choice(self.states + ["psi_A", "psi_AB", "psi_ABht"])
        basis = self.rng.choice(("computational", "charlie"))
        return self._op(["states", name, "--basis", basis] + self._format(), _check_states)

    def _states_frame(self):
        name = self.rng.choice(self.states + list(TWO_QUBIT_NAMES))
        return self._op(["states", name, "--frame", self.rng.choice(("bs", "as"))] + self._format(), _check_states)

    def _table(self):
        policy = self.rng.choice(("correct", "uniform", "biased"))
        eps = self._eps() if policy == "biased" else {"correct": 0.0, "uniform": 0.5}[policy]
        spec = f"biased:{eps}" if policy == "biased" else policy
        return self._op(["table", "--policy", spec] + self._format(), _check_table, eps=eps)

    def _synth_to(self):
        name = self.rng.choice(list(self.vectors))
        return self._op(["synth", name, "--to-e0"], _check_synth, vector=self.files[name], from_e0=False)

    def _synth_from_out(self):
        name = self.rng.choice(list(self.vectors))
        op = self._op(["synth", name, "--from-e0", "--out", self.SYNTH_OUT], _check_synth,
                      vector=self.files[name], from_e0=True)
        op.outputs = (self.SYNTH_OUT,)
        return op

    def _simulate(self):
        policy = self.rng.choice(("correct", "uniform", "alternating", "biased"))
        if policy == "biased":
            policy = f"biased:{self._eps()}"
        n = self.rng.randrange(1, 1001)
        return _simulate(n, self._seed(), policy, "collapse", policy != "alternating")

    def warmup(self):
        return [
            ["verify"], ["audit", "psi_AB"], ["audit", self.states[0]], ["states", "psi_AB", "--basis", "charlie"],
            ["states", "psi_AB", "--frame", "bs"], ["table"], ["synth", "psi_h0", "--to-e0"],
            ["synth", "psi_h0", "--from-e0", "--out", self.SYNTH_OUT], ["simulate", "-n", "1000", "--check"],
        ]


WORKLOADS = {w.name: w for w in (CountsStream, TraceExport, CliMix)}
