"""Tests of the benchmark itself: BENCHMARK.json against what run.py emits,
the output schema, a tiny smoke run of every workload, seed determinism, the
trace check, and the refusal to run without the program's sources.

    python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_and_report(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.rstrip("\n").split("\n")
    return json.loads(last), json.loads("\n".join(report))


def test_spec_matches_the_benchmark():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "benchmark/run.py"]
    assert SPEC["paths"] == ["benchmark"]
    assert WORKLOADS == ["counts-stream", "trace-export", "cli-mix"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_well_formed(workload, trace):
    result, report = result_and_report(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                             "--trace", str(trace), "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"} and isinstance(metric["value"], (int, float))
    provenance = report["provenance"]
    assert provenance["seed"] == 3 and provenance["workload"] == workload
    assert provenance["chunk_assumed"] == provenance["chunk_in_program"] == 65536
    if trace:
        assert report["untraced"]["error_rate"] == report["traced"]["error_rate"] == 0
        assert report["traced_outputs_differing"] == 0
        assert result["metrics"]["cli.main.calls"]["value"] == report["traced"]["attempted"]
    else:
        assert report["error_rate"] == 0
        assert all(result["metrics"][name]["value"] > 0 for name in units)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_outputs(workload):
    digests = []
    for _ in range(2):
        _, report = result_and_report(bench("--workload", workload, "--seed", "5", "--seconds", "1.5", "--tiny"))
        digests.append(report["outputs_digest"])
    assert digests[0]["calls"] == digests[1]["calls"] > 0
    assert digests[0] == digests[1]


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result, _ = result_and_report(bench("--workload", "trace-export", "--seed", "5", "--seconds", "1",
                                            "--trace", "1", "--tiny"))
        counts.append({name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["montecarlo.trials"] > 0 and counts[0]["cli.trace_bytes"] > 0


def test_trace_check_rejects_a_row_that_breaks_the_invariant(tmp_path):
    op = workloads._simulate(2, "1", "alternating", "collapse", False, "trace.csv")
    payload = {
        "resultant_states": {"AB": {"count": 1}, "ABht": {"count": 1}, "ABth": {"count": 0}},
        "charlie": {"ok_ok": {"count": 0}, "ok_fail": {"count": 1}, "fail_ok": {"count": 1}, "fail_fail": {"count": 0}},
    }
    good = workloads.TRACE_HEADER + b"0,h,A_h0,AB,ok,fail\n1,t,A_h0,ABht,fail,ok\n"
    path = tmp_path / "trace.csv"
    path.write_bytes(good)
    workloads._check_trace_csv(op, path, payload)
    for broken in (good.replace(b"t,A_h0,ABht", b"t,A_h0,AB"), good[:-1], good + b"2,h,A_h0,AB,ok,ok\n"):
        path.write_bytes(broken)
        with pytest.raises(workloads.CheckFailed):
            workloads._check_trace_csv(op, path, payload)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
