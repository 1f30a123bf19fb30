#!/usr/bin/env python3
"""Sweep the mistake probability and compare sampled resultant-state
frequencies against the closed form (1-eps, eps/3, 2*eps/3); then show the
alternating mechanism, which has no per-trial closed form.
"""

import argparse

from wigner_lab.montecarlo import (
    SIGMA_BOUND,
    STATE_LABELS,
    MistakePolicy,
    TrialConfig,
    compare_distributions,
    expected_resultant_states,
    run_trials,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"{'eps':>5}  " + "".join(f"{label:>18}  " for label in STATE_LABELS) + f"{SIGMA_BOUND:g}-sigma")
    for eps in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
        config = TrialConfig(args.trials, args.seed, MistakePolicy.biased(eps))
        result = run_trials(config)
        analytic = expected_resultant_states(config)
        report = compare_distributions(result.resultant_states, analytic, SIGMA_BOUND)
        cells = "".join(
            f"{result.resultant_states.probability(k):.4f} vs {analytic.probability(k):.4f}".rjust(18) + "  "
            for k in STATE_LABELS
        )
        print(f"{eps:>5.2f}  {cells}{'pass' if report.passed else 'FAIL'}")

    h0_per_chunk = []
    alternating = run_trials(
        TrialConfig(args.trials, args.seed, MistakePolicy("alternating")),
        collect_traces=lambda chunk: h0_per_chunk.append(int(chunk.apply_h0.sum())),
    )
    halves = sum(h0_per_chunk)
    print(
        f"\nalternating: A_h0 applied {halves}/{args.trials} times; "
        f"resultant frequencies {dict((k, round(v, 4)) for k, v in alternating.resultant_states.frequencies.items())}"
    )
    print(f"charlie frequencies {dict((k, round(v, 4)) for k, v in alternating.charlie.frequencies.items())}")


if __name__ == "__main__":
    main()
