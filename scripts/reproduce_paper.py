#!/usr/bin/env python3
"""Reproduce the paper's numbers as the `wigner-lab` calls that print them.

Each block opens with its command line, so any block re-runs alone.  What no
command prints comes straight from the library: how often the alternating
policy applied A_h0, and the Schmidt values across the A|B split.  Exits 1
when any call fails.
"""

import sys

import numpy as np

from wigner_lab import cli, core, protocol
from wigner_lab.montecarlo import MistakePolicy, TrialConfig, run_trials

TWO_QUBIT = ("psi_AB", "psi_h0", "psi_t01", "psi_ABht", "psi_ABth")
N, SEED = 200_000, 7
SIMULATE = ["simulate", "-n", str(N), "--seed", str(SEED)]
SECTIONS = [
    ("verification checks", [["verify"]]),
    ("computational amplitudes", [["states", key] for key in protocol.named_states()]),
    ("two-qubit states in the joint ok/fail basis", [["states", key, "--basis", "charlie"] for key in TWO_QUBIT]),
    (
        "substitution-frame views (coefficients need not square-sum to 1)",
        [["states", key, "--frame", view] for key in ("psi_AB", "psi_ABht", "psi_ABth") for view in ("bs", "as")],
    ),
    ("paradox audits", [["audit", key] for key in TWO_QUBIT]),
    (
        "mistake sweep: the closed form (1-eps, eps/3, 2*eps/3), and a sample checked against it",
        [
            argv
            for eps in ("0", "0.1", "0.25", "0.5", "0.75", "1")
            for argv in (["table", "--policy", f"biased:{eps}"], [*SIMULATE, "--policy", f"biased:{eps}", "--check"])
        ],
    ),
    ("alternating policy (no per-trial closed form)", [[*SIMULATE, "--policy", "alternating"]]),
]


def main() -> int:
    failed = False
    for i, (heading, calls) in enumerate(SECTIONS):
        print("\n" * (i > 0) + f"# {heading}")
        for argv in calls:
            print("$ wigner-lab", *argv)
            failed |= cli.main(argv) != 0
    h0 = []
    config = TrialConfig(N, SEED, MistakePolicy("alternating"))
    run_trials(config, collect_traces=lambda chunk: h0.append(int(chunk.apply_h0.sum())))
    print(f"alternating: A_h0 applied {sum(h0)}/{N} times\n\n# schmidt values across the A|B split")
    states = protocol.named_states()
    for key in TWO_QUBIT:
        tag = "separable" if core.is_separable(states[key], 1) else "entangled"
        print(f"  {key:<10} {np.round(core.schmidt_values(states[key], 1), 6)}  ({tag})")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
