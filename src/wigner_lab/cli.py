"""Command-line front end: named-state inspection, constant verification,
paradox audits, unitary synthesis, and protocol simulation.

Exit codes: 0 success, 1 verification or statistical check failure,
2 usage or input error, 130 interrupted (Ctrl-C), 141 the reader of the
output closed early (as ``| head`` does).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import math
import os
import stat
import sys
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from . import core, jsonio, montecarlo, protocol, synthesis
from .core import StateVector
from .montecarlo import (
    SIGMA_BOUND,
    ComparisonReport,
    MechanismRow,
    MistakePolicy,
    OutcomeDistribution,
    RunResult,
    TrialConfig,
    analytic_mistake_table,
    compare_distributions,
    expected_resultant_states,
    mechanism_rows,
    run_trials,
)

SEED_ENV_VAR = "WIGNER_LAB_SEED"
# The one-qubit basis {0, 1} that `states --basis computational` puts on every qubit.
_QUBIT_BASIS = core.computational_basis()


def _fmt(x: float) -> str:
    if abs(x) < 5e-5:
        x = 0.0
    return f"{x:.4f}"


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) < 5e-5:
        return _fmt(z.real)
    return f"{_fmt(z.real)}{z.imag:+.4f}j"


def _render(fmt: str, payload: dict, rows: Callable[[], list[list]], lines: Callable[[], list[str]]) -> str:
    """One result in the ``--format`` asked for: its JSON payload, its CSV
    rows or its pretty lines, of which only the one printed is built."""
    if fmt == "json":
        return jsonio.dumps(payload)
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows())
        return buf.getvalue()
    return "\n".join(lines()) + "\n"


def _columns(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def _seed_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _tol_type(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and non-negative, got {text!r}")
    return value + 0.0  # -0.0 prints as "-0"; + 0.0 turns it into 0.0


def _policy_type(text: str) -> MistakePolicy:
    try:
        return MistakePolicy.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@contextlib.contextmanager
def _output_file(path: str, mode: str, **kwargs):
    """``path`` opened for writing; removed again if the block fails and this
    call created it, so a failed call leaves no new file behind.  Through a
    dangling symlink, the file the call created goes and the link stays."""
    target = os.path.realpath(path)
    created = not os.path.lexists(target)
    try:
        with open(path, mode, **kwargs) as handle:
            yield handle
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(target)
        raise


def _open_out(path: str | None):
    """The results stream: the ``--out`` file, opened for writing before any
    work is done, or stdout (read at call time, left open) when there is none."""
    if path is not None:
        return _output_file(path, "w", encoding="utf-8")
    if sys.stdout is None:  # started with fd 1 closed, as by `>&-`
        raise ValueError("stdout is closed")
    return contextlib.nullcontext(sys.stdout)


def _report(line: str, stream) -> None:
    """Print ``line``, which is not a result, to ``stream``; a closed stream drops it."""
    if stream is not None:  # print(file=None) would write to stdout
        with contextlib.suppress(OSError):
            print(line, file=stream)


def _same_regular_file(results, trace: BinaryIO) -> bool:
    """Whether the results would overwrite the trace: both are one regular file."""
    trace_stat = os.fstat(trace.fileno())
    try:
        return stat.S_ISREG(trace_stat.st_mode) and os.path.samestat(os.fstat(results.fileno()), trace_stat)
    except (AttributeError, io.UnsupportedOperation):  # an in-memory stream has no file descriptor
        return False


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return _seed_type(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"${SEED_ENV_VAR}: {exc}") from None


def _resolve_state(name: str) -> StateVector:
    if Path(name).is_file():
        return jsonio.load_state(name)
    obj = protocol.lookup(name)
    if not isinstance(obj, StateVector):
        raise ValueError(f"{name!r} names a matrix, not a state")
    return obj


def _resolve_vector(name: str) -> np.ndarray:
    if Path(name).is_file():
        return jsonio.load_vector(name)
    return _resolve_state(name).amplitudes


# ---------------------------------------------------------------------------
# states


def _cmd_states(args: argparse.Namespace) -> int:
    with _open_out(None) as out:
        state = _resolve_state(args.name)
        if args.frame is not None:
            expansion = protocol.frame_view(state, args.frame)
            view = f"frame:{args.frame}"
        else:
            if args.basis == "charlie":
                bases = [protocol.charlie_basis("A" if q == 0 else "B") for q in range(state.num_qubits)]
            else:
                bases = [_QUBIT_BASIS] * state.num_qubits
            expansion = core.change_basis(state, bases)
            view = f"basis:{args.basis}"

        physical_norm = state.norm()
        terms = list(zip(expansion.labels, expansion.coefficients))
        payload = {
            "name": args.name,
            "view": view,
            "labels": list(expansion.labels),
            "coefficients": [[z.real, z.imag] for z in expansion.coefficients],
            "physical_norm": physical_norm,
        }
        if args.frame is not None:
            payload["naive_norm"] = expansion.naive_norm

        def rows():
            return [["label", "re", "im"]] + [[label, repr(float(z.real)), repr(float(z.imag))] for label, z in terms]

        def lines():
            lines = [
                f"{args.name}  ({view})",
                _columns([[label, _fmt_complex(z)] for label, z in terms]),
                f"physical_norm  {_fmt(physical_norm)}",
            ]
            if args.frame is not None:
                lines.append(f"naive_norm     {_fmt(expansion.naive_norm)}")
            return lines

        out.write(_render(args.format, payload, rows, lines))
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    with _open_out(None) as out:
        tol = args.tol
        checks = protocol.verification_checks()
        passed = all(value <= tol for _, value in checks)
        payload = {
            "tol": tol,
            "checks": [{"name": n, "value": v, "passed": v <= tol} for n, v in checks],
            "passed": passed,
        }

        def rows():
            return [["name", "value", "passed"]] + [[n, repr(v), str(v <= tol).lower()] for n, v in checks]

        def lines():
            return [
                _columns([[n, f"{v:.3e}", "pass" if v <= tol else "FAIL"] for n, v in checks]),
                f"{'all checks passed' if passed else 'CHECKS FAILED'} (tol {tol:g})",
            ]

        out.write(_render(args.format, payload, rows, lines))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# audit


def _cmd_audit(args: argparse.Namespace) -> int:
    with _open_out(None) as out:
        state = _resolve_state(args.name)
        report = protocol.paradox_audit(state, args.tol)
        amplitudes = {name: getattr(report, name) for name in ("amp_h1", "amp_0okA", "amp_tokB")}
        payload = {
            "name": args.name,
            "tol": args.tol,
            **{name: [z.real, z.imag] for name, z in amplitudes.items()},
            "p_okok": report.p_okok,
            "contradiction": report.contradiction_flag,
        }

        def rows():
            rows = [["quantity", "re", "im"]] + [[name, repr(z.real), repr(z.imag)] for name, z in amplitudes.items()]
            rows.append(["p_okok", repr(report.p_okok), ""])
            rows.append(["contradiction", str(report.contradiction_flag).lower(), ""])
            return rows

        def lines():
            pretty = [[name, _fmt_complex(z)] for name, z in amplitudes.items()]
            pretty += [["p_okok", f"{report.p_okok:.5f}"], ["contradiction", "yes" if report.contradiction_flag else "no"]]
            return [f"audit {args.name}  (tol {args.tol:g})", _columns(pretty)]

        out.write(_render(args.format, payload, rows, lines))
    return 0


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args: argparse.Namespace) -> int:
    vec = synthesis.unit_vector(_resolve_vector(args.input))  # a refused input never opens --out
    with _open_out(args.out) as out:  # synthesize divides vec by its norm again; the output's bits rely on it
        result = synthesis.synthesize_from_e0(vec) if args.from_e0 else synthesis.synthesize_to_e0(vec)
        out.write(jsonio.matrix_json(result.matrix))
    _report(f"residual: {result.residual:.3e}", sys.stdout if args.out is not None else sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _dist_json(dist: OutcomeDistribution) -> dict:
    return {label: {"count": dist.counts[label], "freq": dist.frequencies[label]} for label in dist.labels}


# Trace CSV row tails, indexed by the TraceChunk outcome code branch * 4 +
# charlie_idx: per branch, Alice's outcome, the transform applied and the
# resultant state from protocol.BRANCHES, then analytic mode's "-,-,AB".
_TRACE_TAILS = [
    f",{branch},{charlie.replace(core.LABEL_SEP, ',')}\n"
    for branch in [f"{alice.value},{transform},{state}" for alice, transform, state in protocol.BRANCHES] + ["-,-,AB"]
    for charlie in montecarlo.CHARLIE_LABELS
]
# The tails as ASCII bytes, NUL-padded to one width.
_TAIL_BYTES = np.array([tail.encode("ascii") for tail in _TRACE_TAILS]).view(np.uint8).reshape(len(_TRACE_TAILS), -1)
# Each tail's length, and its last 8 bytes as one record; no tail is shorter.
_TAIL_LEN = np.array([len(tail) for tail in _TRACE_TAILS], dtype=np.intp)
_TAIL_END = np.frombuffer("".join(tail[-8:] for tail in _TRACE_TAILS).encode("ascii"), "V8")
# "0000" .. "9999" in ASCII, the four bytes of each read as one uint32.
_DIGIT_GROUPS = (np.stack(np.indices((10,) * 4, dtype=np.uint8), axis=-1) + ord("0")).view(np.uint32).ravel()
# The number of digits of 0 .. 9 999, the trials of the first group.
_FIRST_WIDTH = np.full(len(_DIGIT_GROUPS), 4, dtype=np.uint8)
_FIRST_WIDTH[:1000], _FIRST_WIDTH[:100], _FIRST_WIDTH[:10] = 3, 2, 1


def _records(buffer: np.ndarray, width: int, offset: int, count: int, stride: int) -> np.ndarray:
    """``count`` records of ``width`` bytes in ``buffer``, the first at byte
    ``offset`` and one every ``stride`` bytes, as one void array."""
    return np.ndarray((count,), f"V{width}", buffer, offset, (stride,))


def _write_trace_rows(handle: BinaryIO, chunk: montecarlo.TraceChunk) -> None:
    """Write one chunk of trace rows as ASCII bytes, one write per group of
    10 000 trials that share every digit but the last four.

    Each row is first laid out in a fixed-width byte array: the trial index
    right-aligned in ``digits`` bytes, then the tail of its outcome code
    from ``_TAIL_BYTES``.  The table of tails carries the group's higher
    digits, so one take lays out whole rows; one uint32 store per row adds
    the last four.

    One cumsum of the row lengths gives each row's end in the output
    buffer, and two scatters of fixed-width records place the rows there.
    Pass 1 copies each row's head from the array: its whole slot, the
    number ending where the tail starts, and as many bytes of the tail as
    the group's shortest tail has.  Pass 2 writes the last 8 bytes of each
    tail (``_TAIL_END``) to end at the row's end.  As every tail is at least
    8 bytes long and a mode's tails span at most 8, the two passes cover
    every row of a chunk, which is of one mode.  In front of a shorter
    number the slot holds filler, at most 7 bytes in a chunk of at most
    65 536 trials: from a start below 65 536 the slot is 8 bytes, and from
    a later one the last number has at most one digit more than the first,
    which leaves at most 4.  The filler lands in the last 8 bytes of the
    row before, which pass 2 then writes, or in a margin of one slot that
    is never written out, so no byte written depends on the order in which
    numpy applies the records of a pass.  ValueError for a chunk of more
    than ``montecarlo._CHUNK`` trials, whose filler could be longer.
    """
    if len(chunk.outcome) > montecarlo._CHUNK:
        raise ValueError(f"a trace chunk holds at most {montecarlo._CHUNK} trials, got {len(chunk.outcome)}")
    start, end, group = chunk.start, chunk.start + len(chunk.outcome), len(_DIGIT_GROUPS)
    digits = -(-len(str(end - 1)) // 4) * 4
    table = np.zeros((len(_TAIL_BYTES), digits + _TAIL_BYTES.shape[1]), dtype=np.uint8)
    table[:, digits:] = _TAIL_BYTES
    size = min(end - start, group)
    rows = np.empty((size, table.shape[1]), dtype=np.uint8)
    words = rows.view(np.uint32)  # the width is a multiple of 4
    out = np.empty(digits + rows.size, dtype=np.uint8)
    tails, ends = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
    tail_ends = np.empty(size, dtype=_TAIL_END.dtype)
    for base in range(start - start % group, end, group):
        lo, hi = max(start, base), min(end, base + group)
        codes, n = chunk.outcome[lo - start : hi - start], hi - lo
        row, tail, stop = rows[:n], tails[:n], ends[:n]
        table[:, : digits - 4] = list(str(base)[:-4].rjust(digits - 4, "\0").encode("ascii"))
        table.take(codes, axis=0, out=row, mode="clip")
        words[:n, digits // 4 - 1] = _DIGIT_GROUPS[lo - base : hi - base]
        width = len(str(base)) if base else _FIRST_WIDTH[lo:hi]
        _TAIL_LEN.take(codes, out=tail, mode="clip")
        head = digits + int(tail.min())
        np.add(tail, width, out=stop)
        np.cumsum(stop, out=stop)  # each row's end, counted from the margin's end
        np.subtract(stop, tail, out=tail)  # each tail's start: in the buffer, its slot's start
        _records(out, head, 0, out.size - head + 1, 1)[tail] = _records(rows, head, 0, n, rows.shape[1])
        np.add(stop, digits - 8, out=stop)  # in the buffer, the start of each tail's last 8 bytes
        _TAIL_END.take(codes, out=tail_ends[:n], mode="clip")
        _records(out, 8, 0, out.size - 7, 1)[stop] = tail_ends[:n]
        handle.write(out[digits : stop[-1] + 8])


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    config = TrialConfig(n_trials=args.trials, seed=seed, policy=args.policy, mode=args.mode)
    if args.check:
        expected = expected_resultant_states(config)  # rejects policies without a closed form
    with _open_out(args.out) as out:
        if args.trace is None:
            result = run_trials(config)
        else:
            with _output_file(args.trace, "wb") as handle:
                if _same_regular_file(out, handle):
                    results = "--out" if args.out is not None else "stdout"
                    raise ValueError(f"{results} and --trace name the same file: {args.trace}")
                handle.write(b"trial,alice_outcome,transform,state,charlie_a,charlie_b\n")
                result = run_trials(config, collect_traces=lambda chunk: _write_trace_rows(handle, chunk))
        report = None
        if args.check and config.n_trials > 0:
            report = compare_distributions(result.resultant_states, expected, SIGMA_BOUND)
        out.write(_simulate_text(args.format, config, result, report))
    return 0 if report is None or report.passed else 1


def _simulate_text(fmt: str, config: TrialConfig, result: RunResult, report: ComparisonReport | None) -> str:
    payload = {
        "config": {
            "n_trials": config.n_trials,
            "seed": config.seed,
            "policy": config.policy.spec(),
            "mode": config.mode,
        },
        "provenance": montecarlo.provenance(),
        "resultant_states": _dist_json(result.resultant_states),
        "charlie": _dist_json(result.charlie),
    }
    sections = (
        ("resultant_states", "resultant states", result.resultant_states),
        ("charlie", "charlie outcomes", result.charlie),
    )
    if report is not None:
        payload["check"] = {
            "sigma_bound": SIGMA_BOUND,
            "passed": report.passed,
            "labels": [dict(vars(c)) for c in report.checks],  # LabelCheck's fields, in order
        }

    def rows():
        rows = [["section", "label", "count", "freq"]]
        for section, _, dist in sections:
            rows += [[section, label, str(dist.counts[label]), repr(dist.frequencies[label])] for label in dist.labels]
        return rows

    def lines():
        lines = [f"simulate  n={config.n_trials}  seed={config.seed}  policy={config.policy.spec()}  mode={config.mode}"]
        for _, title, dist in sections:
            lines.append(title)
            lines.append(
                _columns([[label, str(dist.counts[label]), f"{dist.frequencies[label]:.5f}"] for label in dist.labels])
            )
        if report is not None:
            lines.append(f"check vs closed form ({SIGMA_BOUND:g} sigma): " + ("pass" if report.passed else "FAIL"))
        return lines

    return _render(fmt, payload, rows, lines)


# ---------------------------------------------------------------------------
# table


def _cmd_table(args: argparse.Namespace) -> int:
    with _open_out(None) as out:
        mechanisms = mechanism_rows(args.policy)  # rejects alternating
        aggregate = analytic_mistake_table(args.policy)
        header = list(MechanismRow._fields)
        payload = {
            "policy": args.policy.spec(),
            "rows": [row._asdict() for row in mechanisms],
            "resultant_states": dict(aggregate.frequencies),
        }

        def rows():
            return [header] + [[v if isinstance(v, str) else repr(v) for v in row] for row in mechanisms]

        def lines():
            return [
                _columns([header] + [[v if isinstance(v, str) else _fmt(v) for v in row] for row in mechanisms]),
                "aggregate  " + "  ".join(f"{label}={_fmt(p)}" for label, p in aggregate.frequencies.items()),
            ]

        out.write(_render(args.format, payload, rows, lines))
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and reused by every call: each parse makes a fresh
    namespace, each help or usage print a fresh formatter, every default is immutable, and
    each handler reads the module's globals when it runs."""
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")

    description = "Statevector simulation and numerical audit of the extended Wigner's friend protocol."
    parser = argparse.ArgumentParser(prog="wigner-lab", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    p_states = sub.add_parser("states", parents=[fmt_parent], help="print a named state in a basis or frame view")
    p_states.add_argument("name", help="registry key or state JSON path")
    group = p_states.add_mutually_exclusive_group()
    group.add_argument("--basis", choices=("computational", "charlie"), default="computational")
    group.add_argument("--frame", choices=("bs", "as"))
    p_states.set_defaults(func=_cmd_states)

    p_verify = sub.add_parser("verify", parents=[fmt_parent], help="verify protocol constants and evolution")
    p_verify.add_argument("--tol", type=_tol_type, default=1e-12)
    p_verify.set_defaults(func=_cmd_verify)

    p_audit = sub.add_parser("audit", parents=[fmt_parent], help="four-condition paradox audit of a 2-qubit state")
    p_audit.add_argument("name", help="registry key or state JSON path")
    p_audit.add_argument("--tol", type=_tol_type, default=protocol.AUDIT_TOL)
    p_audit.set_defaults(func=_cmd_audit)

    p_synth = sub.add_parser("synth", help="synthesize a unitary moving a unit vector to/from e0")
    p_synth.add_argument("input", help="registry key or vector JSON path")
    direction = p_synth.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-e0", dest="from_e0", action="store_false")
    direction.add_argument("--from-e0", dest="from_e0", action="store_true")
    p_synth.add_argument("--out", help="write the matrix JSON here instead of stdout")
    p_synth.set_defaults(func=_cmd_synth)

    p_sim = sub.add_parser("simulate", parents=[fmt_parent], help="sample the protocol under a mistake policy")
    p_sim.add_argument("-n", "--trials", type=int, default=10000)
    p_sim.add_argument("--seed", type=_seed_type, default=None, help=f"defaults to ${SEED_ENV_VAR} or 0")
    p_sim.add_argument("--policy", type=_policy_type, default=MistakePolicy("uniform"))
    p_sim.add_argument("--mode", choices=montecarlo.MODES, default="collapse")
    p_sim.add_argument("--check", action="store_true", help=f"compare against the closed form at {SIGMA_BOUND:g} sigma")
    p_sim.add_argument("--trace", help="write a per-trial CSV trace to this path")
    p_sim.add_argument("--out", help="write results here instead of stdout")
    p_sim.set_defaults(func=_cmd_simulate)

    p_table = sub.add_parser("table", parents=[fmt_parent], help="closed-form mistake table for a policy")
    p_table.add_argument("--policy", type=_policy_type, default=MistakePolicy("uniform"))
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a reader that closed early fails here, not at exit
        return code
    except BrokenPipeError:  # the shell's code for a writer killed by SIGPIPE
        return 141
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        # an OSError's first argument is its errno and numpy's MemoryError's the shape; their texts say what failed
        message = exc.args[0] if exc.args and not isinstance(exc, (OSError, MemoryError)) else exc
        _report(f"error: {message}", sys.stderr)  # with stderr closed, the exit code still tells
        return 2


def run() -> None:
    """The console entry point: ``main`` on the process's arguments, where
    an interrupt (Ctrl-C) exits 130 without a traceback."""
    try:
        code = main()
    except KeyboardInterrupt:
        code = 130
    if code == 141 and sys.stdout is not None:
        # Python flushes stdout at exit: send what is left to devnull so the
        # closed pipe does not raise again (the recipe in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
