"""Fixed reference tasks that measure how fast the machine runs right now.

The benchmark times a reference task around each block of workload calls and
around each set-up sample, and states every end-to-end timing at reference
speed: the raw seconds times the task's nominal time over its time around
them.  The machine's speed, which drifts by tens of percent within seconds on
a shared VM, then drops out, while a change to the program still shows in
full: the tasks run only the standard library and numpy, never
``wigner_lab``.

Each task mirrors a kind of work the program does, and a workload uses the
task whose speed its calls follow most closely:

- ``mixed``: building and running an argparse parser (as ``cli.main`` does
  on every call), Philox uniforms, comparisons and a bincount over half a
  chunk, and a few thousand formatted rows;
- ``kernel``: Philox uniforms, comparisons and a bincount over four chunks,
  as the trial kernel draws and classifies them.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

REPEATS = 5


def mixed() -> int:
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command", required=True)
    for k in range(8):
        command = commands.add_parser(f"command{k}", help=f"command {k}")
        command.add_argument("name")
        command.add_argument("-n", type=int, default=1000)
        command.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
        command.add_argument("--policy", default="uniform")
    args = parser.parse_args(["command5", "psi", "-n", "4096", "--format", "json"])
    uniforms = np.random.Generator(np.random.Philox(key=args.n)).random((3, 1 << 15))
    cases = (uniforms[0] < 0.5) + 2 * (uniforms[1] < 0.25) * (uniforms[2] < 0.75)
    counts = np.bincount(cases, minlength=4)
    rows = "".join([f"{i},{'ht'[i & 1]},A_h0,AB,ok,fail\n" for i in range(2000)])
    return int(counts.sum()) + len(rows)


def kernel() -> int:
    uniforms = np.random.Generator(np.random.Philox(key=5)).random((3, 1 << 18))
    cases = (uniforms[0] < 0.5) + 2 * (uniforms[1] < 0.25) * (uniforms[2] < 0.75)
    return int(np.bincount(cases, minlength=4).sum())


# Each task with about its median time on the machine the bounds were set on
# (2-vCPU 2.0 GHz Xeon VM, Python 3.11, numpy 2.4): a timing at reference
# speed is what that machine shows at its usual speed.
TASKS = {"mixed": (mixed, 3.3e-3), "kernel": (kernel, 12e-3)}


def speed(name: str) -> float:
    """The machine's speed now: the task's nominal time over its median
    time in a few back-to-back runs."""
    task, nominal = TASKS[name]
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        task()
        samples.append(time.perf_counter() - start)
    return nominal / statistics.median(samples)
