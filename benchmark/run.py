#!/usr/bin/env python3
"""Benchmark of wigner-lab as its users drive it: ``wigner_lab.cli.main(argv)``
called in process by one closed-loop client (the next call starts when the
previous one has returned), on a seed-generated workload.

    python3 benchmark/run.py --workload counts-stream --seed 1 --seconds 30 --trace 0

``--trace 0`` makes whole windows of calls for ``--seconds`` and prints the
end-to-end metrics, with every timing stated at the speed of a reference
task timed between calls (see reference.py); ``--trace 1`` makes a fixed
number of calls twice, untraced and with timing spans around every public
function of each module, and prints the per-layer metrics and the tracing
overhead.  Every call's output is checked.  The last line of stdout is the
JSON result; a JSON report with provenance, digests, the metrics as
measured and the full span table precedes it.  See benchmark/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 15
SETUP_REFERENCE = "mixed"  # interpreter start, imports and first calls are like cli-mix's work
FAILURES_KEPT = 5

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "calls_per_s": "calls/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Spans reported with their call counts on every workload; run_trials by path.
COUNTED_SPANS = tuple(
    name
    for span in spans.REQUIRED_SPANS
    for name in ((f"{span}.counts", f"{span}.traced") if span == "montecarlo.run_trials" else (span,))
)
# Spans that run on every workload, so their times are never vacuous; the
# other spans' times are in the report's span table.
TIMED_SPANS = ("cli.main", "montecarlo.run_trials", "jsonio.dumps")

PER_LAYER_UNITS = {f"{span}.calls": "count" for span in COUNTED_SPANS}
for _span in TIMED_SPANS:
    PER_LAYER_UNITS[f"{_span}.self_ms_total"] = "ms"
    PER_LAYER_UNITS[f"{_span}.self_us_p50"] = "us"
PER_LAYER_UNITS.update({
    "montecarlo.run_trials.ns_per_trial": "ns",
    "montecarlo.trials": "count",
    "montecarlo.chunks": "count",
    "montecarlo.uniforms_bytes": "count",
    "montecarlo.compare_distributions.alarms": "count",
    "cli.trace_bytes": "count",
    "cli.stdout_bytes": "count",
    "trace.overhead_pct": "%",
})

# The set-up child: import the CLI, make the first call of each command kind
# (filling the program's caches), then say it is ready.
SETUP_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from wigner_lab import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print("ready" if all(code in (0, 1) for code in codes) else "failed", flush=True)
"""


@dataclass
class Phase:
    """What one closed-loop pass over a list of ops measured and checked."""

    period: int = 0  # calls per window when windows repeat (Workload.windows_repeat), else 0
    # Per call: trials, seconds, and the machine's speed around the call's
    # block (see reference.py).  Plain numbers, so that a long run adds
    # nothing for the garbage collector to scan.
    call_trials: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    speeds: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    failed: int = 0
    alarms: int = 0
    checks: int = 0
    trials: int = 0
    chunks: int = 0
    stdout_bytes: int = 0
    trace_bytes: int = 0
    elapsed: float = 0.0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def calls(self) -> int:
        return len(self.latencies)

    def scaled(self) -> list[float]:
        """Latencies of the calls at reference speed."""
        return [t * s for t, s in zip(self.latencies, self.speeds)]

    def op_latencies(self, latencies: list[float]) -> list[float]:
        """The latencies the quantiles are taken over: per place in a
        repeating window, the median over the windows; else every call's."""
        if not self.period:
            return latencies
        return [statistics.median(latencies[place::self.period]) for place in range(self.period)]


def call(cli, op, workdir: Path):
    """One timed cli.main call; returns exit code, seconds, stdout, stderr."""
    for name in op.outputs:
        (workdir / name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed operation, not a crashed benchmark
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def record(phase: Phase, op, workdir: Path, code, elapsed: float, stdout: str, stderr: str) -> None:
    """Check one call's output and add it to ``phase``."""
    phase.call_trials.append(op.trials)
    phase.latencies.append(elapsed)
    digest = hashlib.sha256(stdout.encode())
    files = {name: workdir / name for name in op.outputs}
    try:
        workloads.require("Traceback" not in stderr, f"traceback: {stderr[-300:]!r}")
        for name, path in files.items():
            # Streamed in blocks, so the checker adds little to peak_rss_mb.
            digest.update(b"\0")
            with path.open("rb") as handle:
                while block := handle.read(1 << 16):
                    digest.update(block)
            if name.endswith(".csv"):
                phase.trace_bytes += path.stat().st_size
        phase.alarms += bool(op.check(op, code, stdout, stderr, files))
    except (workloads.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        phase.failed += 1
        if len(phase.failures) < FAILURES_KEPT:
            phase.failures.append({"argv": op.argv, "exit": code, "error": f"{type(exc).__name__}: {exc}"})
    phase.digests.append(digest.hexdigest())
    phase.checks += "--check" in op.argv
    phase.trials += op.trials
    phase.chunks += math.ceil(op.trials / workloads.CHUNK)
    phase.stdout_bytes += len(stdout.encode())


def step(phase: Phase, cli, op, workdir: Path) -> None:
    """Make one call and check it: the per-op unit of every phase."""
    record(phase, op, workdir, *call(cli, op, workdir))


def warm_up(cli, ops, workdir: Path) -> Phase:
    """Every op once, untimed for the metrics: the warm-up."""
    phase = Phase()
    for op in ops:
        step(phase, cli, op, workdir)
    return phase


def timed_phase(cli, workload, workdir: Path, seconds: float) -> Phase:
    """Whole windows of the workload's calls until ``seconds`` have passed,
    with the reference task timed around each block of calls to give the
    block its speed."""
    phase = Phase(period=workload.window_ops if workload.windows_repeat else 0)
    ops = workload.ops()
    start = time.perf_counter()
    before = reference.speed(workload.reference)
    while True:
        for op in itertools.islice(ops, workload.window_ops):
            step(phase, cli, op, workdir)
            if phase.calls % workload.speed_block == 0:
                after = reference.speed(workload.reference)
                phase.speeds += [(before + after) / 2] * workload.speed_block
                before = after
        if time.perf_counter() - start >= seconds:
            break
    phase.elapsed = time.perf_counter() - start
    return phase


def warmup_check(op, code, stdout, stderr, files) -> bool:
    if code not in (0, 1):
        raise ValueError(f"exit code {code}")
    return False


def measure_setup(warmup: list, workdir: Path, repeats: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to ready, once per repeat,
    as measured and at reference speed."""
    samples, scaled = [], []
    before = reference.speed(SETUP_REFERENCE)
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(warmup)],
            cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {line!r} {err.decode()[-500:]}")
        after = reference.speed(SETUP_REFERENCE)
        samples.append(elapsed)
        scaled.append(elapsed * (before + after) / 2)
        before = after
    return samples, scaled


def outputs_digest(phase: Phase, calls: int) -> dict:
    """sha256 over the per-call output digests of the first ``calls`` calls,
    the first window, which every run makes; equal for two runs of one seed."""
    return {"calls": calls, "sha256": hashlib.sha256("".join(phase.digests[:calls]).encode()).hexdigest()}


def _git_commit() -> str | None:
    """HEAD of the checkout's own git repository, or None outside one."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, montecarlo, numpy_version: str, package_version: str) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "wigner_lab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "wigner_lab": package_version,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": 1,
        "chunk_assumed": workloads.CHUNK,
        "chunk_in_program": getattr(montecarlo, "_CHUNK", None),
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(phase: Phase, setup: list[float]) -> dict:
    """The end-to-end metrics, with the timings as ``phase`` and ``setup``
    scale them.  The rates are over busy time, the summed wall times of
    the calls, so output checks between calls do not count."""
    latencies = phase.scaled()
    busy = sum(latencies)
    op_latencies = phase.op_latencies(latencies)
    return {
        "trials_per_s": sum(phase.call_trials) / busy,
        "calls_per_s": phase.calls / busy,
        "latency_p50_ms": statistics.median(op_latencies) * 1e3,
        "latency_p99_ms": quantile(op_latencies, 99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def per_layer(untraced: Phase, traced: Phase, spans: dict) -> dict:
    metrics = {f"{span}.calls": spans.get(span, {}).get("calls", 0) for span in COUNTED_SPANS}
    for span in TIMED_SPANS:
        entry = spans.get(span, {"self_ms_total": 0.0, "self_us_p50": 0.0})
        metrics[f"{span}.self_ms_total"] = entry["self_ms_total"]
        metrics[f"{span}.self_us_p50"] = entry["self_us_p50"]
    run_trials_ms = spans.get("montecarlo.run_trials", {}).get("self_ms_total", 0.0)
    metrics.update({
        "montecarlo.run_trials.ns_per_trial": run_trials_ms * 1e6 / traced.trials if traced.trials else 0.0,
        "montecarlo.trials": traced.trials,
        "montecarlo.chunks": traced.chunks,
        "montecarlo.uniforms_bytes": workloads.UNIFORM_BYTES_PER_TRIAL * traced.trials,
        "montecarlo.compare_distributions.alarms": traced.alarms,
        "cli.trace_bytes": traced.trace_bytes,
        "cli.stdout_bytes": traced.stdout_bytes,
        "trace.overhead_pct": (traced.busy / untraced.busy - 1.0) * 100,
    })
    return metrics


def reference_speed(phase: Phase, workload) -> dict:
    """How fast the machine ran against the reference, over the run's blocks."""
    speeds = phase.speeds[::workload.speed_block]
    return {"task": workload.reference, "blocks": len(speeds), "speed_min": min(speeds),
            "speed_median": statistics.median(speeds), "speed_max": max(speeds)}


def phase_report(phase: Phase, digest_calls: int) -> dict:
    op_latencies = phase.op_latencies(phase.latencies)
    p99 = quantile(op_latencies, 99)
    return {
        "attempted": phase.calls,
        "failed": phase.failed,
        "error_rate": phase.failed / phase.calls,
        "failures": phase.failures,
        "busy_s": phase.busy,
        "elapsed_s": phase.elapsed,
        "windows_repeat": bool(phase.period),
        "latency_samples": len(op_latencies),
        "latency_samples_beyond_p99": sum(x > p99 for x in op_latencies),
        "checks": phase.checks,
        "alarms": phase.alarms,
        "alarms_expected": phase.checks * workloads.ALARM_RATE_PER_CHECK,
        "outputs_digest": outputs_digest(phase, digest_calls),
        "computed_counts": {
            "trials": phase.trials,
            "chunks": phase.chunks,
            "uniforms_bytes": workloads.UNIFORM_BYTES_PER_TRIAL * phase.trials,
            "trace_bytes": phase.trace_bytes,
            "stdout_bytes": phase.stdout_bytes,
        },
    }


def traced_run(cli, workload, workdir: Path, seconds: float) -> tuple[dict, int, int, dict]:
    """Make a fixed number of calls, sized to take about ``seconds``, each
    twice: untraced and with spans installed, alternating which goes first,
    so the overhead is measured on pairs made seconds apart.  A fixed number
    makes every computed count repeat exactly for a seed.  Returns per-layer
    metrics, attempted, failed and the report."""
    untraced, traced, tracer = Phase(), Phase(), spans.Tracer()
    start = time.perf_counter()
    for index, op in enumerate(itertools.islice(workload.ops(), workload.traced_ops(seconds))):
        passes = ((untraced, contextlib.nullcontext), (traced, tracer.installed))
        for phase, spans_installed in passes if index % 2 == 0 else reversed(passes):
            with spans_installed():
                step(phase, cli, op, workdir)
    untraced.elapsed = traced.elapsed = time.perf_counter() - start
    differing = sum(a != b for a, b in zip(untraced.digests, traced.digests))
    span_table = tracer.summary()
    report = {
        "untraced": phase_report(untraced, workload.window_ops),
        "traced": phase_report(traced, workload.window_ops),
        "traced_outputs_differing": differing,
        "overhead": {
            "calls_per_s_untraced": untraced.calls / untraced.busy,
            "calls_per_s_traced": traced.calls / traced.busy,
            "trials_per_s_untraced": untraced.trials / untraced.busy,
            "trials_per_s_traced": traced.trials / traced.busy,
            # Every span nests inside cli.main, so the summed self times are
            # the traced busy time less the loop's bookkeeping around calls.
            "summed_self_ms": tracer.total_self_ms(),
            "traced_busy_ms": traced.busy * 1e3,
            "untraced_busy_ms": untraced.busy * 1e3,
        },
        "spans": span_table,
    }
    metrics = per_layer(untraced, traced, span_table)
    failed = untraced.failed + traced.failed + differing
    return metrics, untraced.calls + traced.calls, failed, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wigner_lab" / "cli.py").is_file():
        print(f"error: no wigner_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import wigner_lab
    from wigner_lab import cli, montecarlo

    if not Path(wigner_lab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported wigner_lab from {wigner_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    workdir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(workdir)  # relative file names keep stdout identical across runs
    try:
        workload.prepare(workdir)
        warmup = workload.warmup()
        warm = warm_up(cli, [workloads.Op(argv, warmup_check) for argv in warmup], workdir)
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.failures}")
        report = {"provenance": provenance(args, montecarlo, numpy.__version__, wigner_lab.__version__)}
        if args.trace:
            metrics, attempted, failed, details = traced_run(cli, workload, workdir, args.seconds)
            units = PER_LAYER_UNITS
        else:
            setup, setup_scaled = measure_setup(warmup, workdir, 1 if args.tiny else SETUP_REPEATS)
            gc.collect()
            phase = timed_phase(cli, workload, workdir, args.seconds)
            metrics = end_to_end(phase, setup_scaled)
            units = END_TO_END_UNITS
            attempted, failed = phase.calls, phase.failed
            unscaled = Phase(call_trials=phase.call_trials, period=phase.period, latencies=phase.latencies,
                             speeds=[1.0] * phase.calls)
            details = {
                "setup_s_samples": setup,
                "setup_s_samples_at_reference_speed": setup_scaled,
                "reference_speed": reference_speed(phase, workload),
                "metrics_as_measured": end_to_end(unscaled, setup),
                **phase_report(phase, workload.window_ops),
            }
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    report.update(details, metrics=metrics)
    print(json.dumps(report, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
