"""Smoke tests: the report scripts under ``scripts/`` run against the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_reproduce_coefficients():
    lines = run_script("reproduce_coefficients.py")
    for section in (
        "verification checks",
        "computational amplitudes:",
        "two-qubit states in the joint Hadamard (ok/fail) basis:",
        "substitution-frame views",
        "paradox audits",
        "schmidt values across the A|B split:",
    ):
        assert any(line.startswith(section) for line in lines), section
    checks = [line.split() for line in lines[1:7]]
    assert [name for name, _ in checks][-1] == "charlie_coefficients"
    assert all(float(value) <= 1e-12 for _, value in checks)
    assert any(line.startswith("  psi_AB ") and line.endswith("CONTRADICTION") for line in lines)


def test_mistake_statistics():
    lines = run_script("mistake_statistics.py", "-n", "20000")
    assert lines[0].split() == ["eps", "AB", "ABht", "ABth", "4-sigma"]
    sweep = lines[1:7]
    assert [row.split()[0] for row in sweep] == ["0.00", "0.10", "0.25", "0.50", "0.75", "1.00"]
    assert all(row.endswith("pass") for row in sweep)
    assert lines[8].startswith("alternating: A_h0 applied 10000/20000 times")
    assert lines[9].startswith("charlie frequencies")
