"""The seed -> output contract (contract 3), checked against its reference
sampler (``tests/contract.py``): the counts of a run and its traced
outcome codes equal the spec's exactly, whatever the seed, size and
setting.  The kernel reads the seed's one stream in order, and the
reference looks up each chunk's words by trial index."""

import json

import contract
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wigner_lab import montecarlo
from wigner_lab.cli import main
from wigner_lab.montecarlo import _BLOCK, _CHUNK, CHARLIE_LABELS, STATE_LABELS, MistakePolicy, TrialConfig, run_trials

# every policy kind; epsilons at the ends of [0, 1], and 1e-9, which puts two cell bounds in one guide bucket
EPSILONS = (0.0, 1.0, 2.0**-53, 1 - 2.0**-53, 1e-9)
POLICIES = ("correct", "uniform", "alternating", *(f"biased:{eps!r}" for eps in EPSILONS))


def spec_tally(codes: np.ndarray) -> np.ndarray:
    """Joint tally (state_idx, charlie_idx) of outcome codes: code k = (heads * 2 +
    mistake) * 4 + charlie_idx is in the state ``contract.resultant`` finds, and
    analytic mode's 16 + charlie_idx in AB."""
    joint = np.zeros((len(STATE_LABELS), len(CHARLIE_LABELS)), dtype=np.int64)
    for branch, tally in enumerate(np.bincount(codes, minlength=20).reshape(5, 4)):
        heads, mistake = divmod(branch, 2)
        joint[0 if branch == 4 else contract.resultant(heads, heads ^ mistake)] += tally
    return joint


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    n=st.integers(min_value=0, max_value=3 * _CHUNK),
    spec=st.sampled_from(POLICIES),
    mode=st.sampled_from(montecarlo.MODES),
)
@example(seed=(1 << 64) - 1, n=0, spec="uniform", mode="collapse")
@example(seed=0, n=1, spec="alternating", mode="collapse")
@example(seed=7, n=_BLOCK - 1, spec="alternating", mode="collapse")
@example(seed=7, n=_BLOCK + 1, spec="biased:1e-09", mode="collapse")
@example(seed=2018, n=_CHUNK - 1, spec="alternating", mode="collapse")
@example(seed=2018, n=_CHUNK, spec="biased:1.0", mode="collapse")
@example(seed=2018, n=_CHUNK + 1, spec="alternating", mode="collapse")
@example(seed=1 << 63, n=2 * _CHUNK + _BLOCK + 1, spec="uniform", mode="analytic")
@example(seed=5, n=3 * _CHUNK, spec="correct", mode="collapse")
def test_run_trials_follows_the_contract(seed, n, spec, mode):
    policy = MistakePolicy.parse(spec)
    expected = contract.outcome_codes(seed, n, policy.mistake_probability, mode)
    config = TrialConfig(n, seed, policy, mode)
    chunks = []
    traced = run_trials(config, collect_traces=chunks.append)
    counts = run_trials(config)
    np.testing.assert_array_equal(np.concatenate([np.empty(0, np.uint8), *(c.outcome for c in chunks)]), expected)
    joint = spec_tally(expected)
    for result in (traced, counts):
        assert [result.resultant_states.counts[label] for label in STATE_LABELS] == joint.sum(axis=1).tolist()
        assert [result.charlie.counts[label] for label in CHARLIE_LABELS] == joint.sum(axis=0).tolist()


def test_outcome_code_is_the_contract_cell():
    # TraceChunk decodes code k = (heads * 2 + mistake) * 4 + charlie_idx into k's cell
    collapse = montecarlo.TraceChunk(0, np.arange(16, dtype=np.uint8))
    for k in range(16):
        heads, mistake = k >= 8, k // 4 % 2 == 1
        assert collapse.heads[k] == heads
        assert collapse.apply_h0[k] == heads ^ mistake
        assert collapse.state_idx[k] == contract.resultant(heads, heads ^ mistake)
        assert collapse.charlie_idx[k] == k % 4
    # analytic mode's 16 + charlie_idx: no record, and Charlie measures AB
    analytic = montecarlo.TraceChunk(0, np.arange(16, 20, dtype=np.uint8))
    assert analytic.heads is None and analytic.apply_h0 is None
    assert analytic.state_idx.tolist() == [contract.STATES.index("AB")] * 4
    assert analytic.charlie_idx.tolist() == [0, 1, 2, 3]


def test_replay_from_provenance_and_config(capsys):
    # the spec replays a simulate run from its JSON alone
    assert main(["simulate", "-n", "70001", "--seed", "99", "--policy", "biased:0.001", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["provenance"] == {"rng": "pcg64dxsm", "words_per_trial": 1, "contract": 3}
    config = data["config"]
    policy = MistakePolicy.parse(config["policy"])
    codes = contract.outcome_codes(config["seed"], config["n_trials"], policy.mistake_probability, config["mode"])
    joint = spec_tally(codes)
    assert [data["resultant_states"][label]["count"] for label in STATE_LABELS] == joint.sum(axis=1).tolist()
    assert [data["charlie"][label]["count"] for label in CHARLIE_LABELS] == joint.sum(axis=0).tolist()
