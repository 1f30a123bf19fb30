"""Smoke tests: ``scripts/reproduce_paper.py`` and the README's Python
example run against the library."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from wigner_lab import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reproduce_paper.py"


@pytest.fixture(scope="module")
def script():
    return runpy.run_path(str(SCRIPT))


@pytest.fixture(scope="module")
def report():
    # run as CI runs Tier-1, and with every warning an error: a numpy warning
    # or a file left unclosed fails the report
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(SCRIPT)], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_each_block_is_what_the_cli_prints(script, report, capsys):
    # the script renders no result itself: under each command line stands,
    # byte for byte, what cli.main prints for that argv
    rest, left = report, []
    for _, calls in script["SECTIONS"]:
        for argv in calls:
            assert cli.main(argv) == 0
            head, block, rest = rest.partition(f"$ wigner-lab {' '.join(argv)}\n{capsys.readouterr().out}")
            assert block, argv
            left.append(head)
    # what is left: the headings, and the two things no command prints
    others = r"# .*|alternating: A_h0 applied \d+/\d+ times|  psi_\w+ +\[[\d. ]+\]  \((separable|entangled)\)|"
    assert [line for line in "".join([*left, rest]).splitlines() if not re.fullmatch(others, line)] == []


def test_report_prints_every_number(report):
    lines = report.splitlines()
    assert [line for line in lines if line.startswith("# ")] == [
        "# verification checks",
        "# computational amplitudes",
        "# two-qubit states in the joint ok/fail basis",
        "# substitution-frame views (coefficients need not square-sum to 1)",
        "# paradox audits",
        "# mistake sweep: the closed form (1-eps, eps/3, 2*eps/3), and a sample checked against it",
        "# alternating policy (no per-trial closed form)",
        "# schmidt values across the A|B split",
    ]
    checks = [row.split() for row in lines[2 : lines.index("all checks passed (tol 1e-12)")]]
    assert [name for name, _, _ in checks][-1] == "charlie_coefficients"
    assert all(float(value) <= 1e-12 and verdict == "pass" for _, value, verdict in checks)
    # 6 named states, 5 in Charlie's basis, 6 frame views; the frame views add their naive norm
    assert (report.count("\nphysical_norm  1.0000\n"), report.count("\nnaive_norm ")) == (17, 6)
    audits = [line for line in lines if line.startswith("contradiction ")]
    assert audits == ["contradiction  yes"] + ["contradiction  no"] * 4
    assert lines[lines.index("$ wigner-lab audit psi_AB") + 6] == "contradiction  yes"

    policies = [line.split("policy=")[1].split()[0] for line in lines if line.startswith("simulate  ")]
    assert policies == [f"biased:{eps}" for eps in ("0.0", "0.1", "0.25", "0.5", "0.75", "1.0")] + ["alternating"]
    verdicts = [line for line in lines if line.startswith("check vs closed form")]
    assert verdicts == ["check vs closed form (4 sigma): pass"] * 6
    aggregates = [line for line in lines if line.startswith("aggregate ")]
    assert aggregates[0] == "aggregate  AB=1.0000  ABht=0.0000  ABth=0.0000"
    assert aggregates[-1] == "aggregate  AB=0.0000  ABht=0.3333  ABth=0.6667"

    alternating = lines.index("$ wigner-lab simulate -n 200000 --seed 7 --policy alternating")
    assert lines[alternating + 6] == "charlie outcomes"
    charlie = [row.split() for row in lines[alternating + 7 : alternating + 11]]
    assert [label for label, _, _ in charlie] == ["ok_ok", "ok_fail", "fail_ok", "fail_fail"]
    assert sum(int(count) for _, count, _ in charlie) == 200_000 and all(0 < float(f) < 1 for _, _, f in charlie)
    assert lines[alternating + 11] == "alternating: A_h0 applied 100000/200000 times"

    schmidt = [row.split()[0::3] for row in lines[lines.index("# schmidt values across the A|B split") + 1 :]]
    assert schmidt == [
        ["psi_AB", "(entangled)"],
        ["psi_h0", "(separable)"],
        ["psi_t01", "(separable)"],
        ["psi_ABht", "(entangled)"],
        ["psi_ABth", "(entangled)"],
    ]


def test_a_failed_call_fails_the_script(script, monkeypatch, capsys):
    main = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: 1 if argv == ["audit", "psi_h0"] else main(argv))
    assert script["main"]() == 1
    # the calls after the failed one still ran
    assert capsys.readouterr().out.endswith("(entangled)\n")


def test_readme_python_example():
    # the docs cannot drift from the library: the example runs as written
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})

