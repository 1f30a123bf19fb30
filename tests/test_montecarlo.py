"""Tests for the mistake-mechanism sampler: policies, closed forms,
determinism, and agreement with the exact state machinery."""

import ast
import dataclasses
import inspect
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import contract
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wigner_lab import cli, core, montecarlo, protocol
from wigner_lab.montecarlo import (
    _BLOCK,
    _CHUNK,
    CHARLIE_LABELS,
    STATE_LABELS,
    MistakePolicy,
    RunResult,
    TraceChunk,
    TrialConfig,
    analytic_mistake_table,
    compare_distributions,
    expected_resultant_states,
    mechanism_rows,
    run_trials,
)
from wigner_lab.protocol import BRANCHES, P_HEADS, AliceOutcome, WrongStateLabel

COLUMNS = ("heads", "apply_h0", "state_idx", "charlie_idx")
# The library's branch tables: the reference in contract.py is written to
# check them, so it names none of them.
BRANCH_TABLES = {
    "BRANCHES", "RECORDS", "_STATE_OF_BRANCH", "_HEADS_OF_BRANCH", "_H0_OF_BRANCH", "_branches", "_cell_weights",
    "mechanism_rows", "_TRACE_TAILS",
}


def run_traced(config):
    """Run with a sink; returns the result and each chunk's per-trial
    columns concatenated in trial order."""
    chunks = []
    result = run_trials(config, collect_traces=chunks.append)
    return result, {name: np.concatenate([getattr(c, name) for c in chunks]) for name in COLUMNS}, chunks


class TestMistakePolicy:
    def test_parse_named(self):
        assert MistakePolicy.parse("correct").mistake_probability == 0.0
        assert MistakePolicy.parse("uniform").mistake_probability == 0.5
        assert MistakePolicy.parse("alternating").mistake_probability is None

    def test_parse_biased(self):
        assert MistakePolicy.parse("biased:0.3").mistake_probability == 0.3

    @pytest.mark.parametrize("text", ["biased:1.5", "biased:x", "sometimes", "biased:"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            MistakePolicy.parse(text)

    def test_epsilon_range(self):
        for epsilon in (-0.1, None):
            with pytest.raises(ValueError, match="epsilon"):
                MistakePolicy.biased(epsilon)

    def test_named_policies_take_no_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            MistakePolicy("uniform", 0.5)

    def test_a_fraction_epsilon_samples_as_its_double(self):
        runs = [run_trials(TrialConfig(10_000, 5, MistakePolicy("biased", eps))) for eps in (Fraction(1, 3), 1 / 3)]
        assert runs[0].resultant_states.counts == runs[1].resultant_states.counts
        assert runs[0].charlie.counts == runs[1].charlie.counts

    def test_a_fraction_epsilon_has_a_spec_that_parses_back(self):
        policy = MistakePolicy("biased", Fraction(1, 3))
        assert MistakePolicy.parse(policy.spec()) == policy == MistakePolicy.biased(1 / 3)


class TestTrialConfig:
    def test_rejects_negative_trials(self):
        with pytest.raises(ValueError, match="n_trials"):
            TrialConfig(-1, 0, MistakePolicy("uniform"))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            TrialConfig(1, -5, MistakePolicy("uniform"))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TrialConfig(1, 0, MistakePolicy("uniform"), mode="exact")

    @pytest.mark.parametrize("n_trials, seed, name", [(2.5, 0, "n_trials"), (1000, 1.5, "seed"), (10, "7", "seed")])
    def test_rejects_non_integers(self, n_trials, seed, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TrialConfig(n_trials, seed, MistakePolicy("uniform"))

    def test_stores_numpy_integers_as_python_ints(self):
        config = TrialConfig(np.int64(10), np.uint64(1 << 63), MistakePolicy("uniform"))
        assert (type(config.n_trials), type(config.seed)) == (int, int)


class TestAnalyticTable:
    def test_uniform(self):
        dist = analytic_mistake_table(MistakePolicy("uniform"))
        assert dist.probability("AB") == pytest.approx(1 / 2)
        assert dist.probability("ABht") == pytest.approx(1 / 6)
        assert dist.probability("ABth") == pytest.approx(1 / 3)

    def test_correct(self):
        dist = analytic_mistake_table(MistakePolicy("correct"))
        assert dist.frequencies == {"AB": 1.0, "ABht": 0.0, "ABth": 0.0}

    def test_biased(self):
        dist = analytic_mistake_table(MistakePolicy.biased(0.3))
        assert dist.probability("AB") == pytest.approx(0.7)
        assert dist.probability("ABht") == pytest.approx(0.1)
        assert dist.probability("ABth") == pytest.approx(0.2)

    def test_alternating_rejected(self):
        with pytest.raises(ValueError, match="closed form"):
            analytic_mistake_table(MistakePolicy("alternating"))


class TestRunTrials:
    def test_correct_never_misses(self):
        result = run_trials(TrialConfig(100_000, 3, MistakePolicy("correct")))
        assert result.resultant_states.probability("AB") == 1.0
        assert result.resultant_states.counts["ABht"] == 0

    def test_uniform_matches_closed_form(self):
        config = TrialConfig(100_000, 42, MistakePolicy("uniform"))
        result = run_trials(config)
        report = compare_distributions(
            result.resultant_states, analytic_mistake_table(config.policy), 4.0
        )
        assert report.passed

    def test_biased_cross_check_large_n(self):
        config = TrialConfig(1_000_000, 5, MistakePolicy.biased(0.3))
        result = run_trials(config)
        report = compare_distributions(
            result.resultant_states, analytic_mistake_table(config.policy), 4.0
        )
        assert report.passed

    def test_correct_policy_charlie_marginal(self):
        # joint Hadamard-basis probabilities (1/12, 1/12, 1/12, 9/12), 4 sigma
        result = run_trials(TrialConfig(100_000, 7, MistakePolicy("correct")))
        expected = core.born_probabilities(
            protocol.target_state(), [protocol.charlie_basis("A"), protocol.charlie_basis("B")]
        )
        report = compare_distributions(result.charlie, expected, 4.0)
        assert report.passed
        assert abs(result.charlie.probability("ok_ok") - 1 / 12) <= 0.0035

    def test_zero_trials(self):
        result = run_trials(TrialConfig(0, 0, MistakePolicy("uniform")))
        assert result.resultant_states.total == 0
        assert all(c == 0 for c in result.charlie.counts.values())

    def test_analytic_mode_measures_target_state_only(self):
        config = TrialConfig(50_000, 11, MistakePolicy("uniform"), mode="analytic")
        chunks = []
        result = run_trials(config, collect_traces=chunks.append)
        assert result.resultant_states.probability("AB") == 1.0
        assert all(c.heads is None and c.apply_h0 is None and not c.state_idx.any() for c in chunks)
        assert sum(len(c.state_idx) for c in chunks) == 50_000
        expected = core.born_probabilities(
            protocol.target_state(), [protocol.charlie_basis("A"), protocol.charlie_basis("B")]
        )
        assert compare_distributions(result.charlie, expected, 4.0).passed


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        config = TrialConfig(70_000, 9, MistakePolicy("uniform"))
        a, a_columns, _ = run_traced(config)
        b, b_columns, _ = run_traced(config)
        assert a.resultant_states.counts == b.resultant_states.counts
        assert a.charlie.counts == b.charlie.counts
        for name in COLUMNS:
            np.testing.assert_array_equal(a_columns[name], b_columns[name])

    def test_trials_depend_only_on_seed_and_index(self):
        _, short, _ = run_traced(TrialConfig(100, 13, MistakePolicy("uniform")))
        _, long, _ = run_traced(TrialConfig(250, 13, MistakePolicy("uniform")))
        for name in COLUMNS:
            np.testing.assert_array_equal(long[name][:100], short[name])

    def test_different_seeds_differ(self):
        a = run_trials(TrialConfig(10_000, 1, MistakePolicy("uniform")))
        b = run_trials(TrialConfig(10_000, 2, MistakePolicy("uniform")))
        assert a.resultant_states.counts != b.resultant_states.counts


POLICIES = ("correct", "uniform", "alternating", "biased:0.3")


class TestSchedule:
    """Chunks run in order on the calling thread; counts-only and traced
    runs give the same result."""

    N_FIVE_CHUNKS = 4 * _CHUNK + 1_234

    @pytest.mark.parametrize("mode", montecarlo.MODES)
    @pytest.mark.parametrize("spec", POLICIES)
    def test_counts_independent_of_worker_count(self, spec, mode):
        config = TrialConfig(self.N_FIVE_CHUNKS, 77, MistakePolicy.parse(spec), mode)
        counts = run_trials(config)
        traced = run_trials(config, collect_traces=lambda chunk: None)
        assert traced.resultant_states.counts == counts.resultant_states.counts
        assert traced.charlie.counts == counts.charlie.counts

    def test_counts_run_draws_chunks_in_order_on_calling_thread(self, monkeypatch):
        draws = []
        original = montecarlo._chunk_words

        def recording(philox, seed, chunk_index):
            draws.append((threading.get_ident(), chunk_index))
            return original(philox, seed, chunk_index)

        monkeypatch.setattr(montecarlo, "_chunk_words", recording)
        run_trials(TrialConfig(self.N_FIVE_CHUNKS, 3, MistakePolicy("uniform")))
        assert draws == [(threading.get_ident(), chunk_index) for chunk_index in range(5)]

    def test_chunk_error_reaches_caller_and_stops_the_run(self, monkeypatch):
        started = []
        original = montecarlo._chunk_words

        def failing(philox, seed, chunk_index):
            started.append(chunk_index)
            if chunk_index == 2:
                raise RuntimeError("chunk 2 failed")
            return original(philox, seed, chunk_index)

        monkeypatch.setattr(montecarlo, "_chunk_words", failing)
        with pytest.raises(RuntimeError, match="chunk 2 failed"):
            run_trials(TrialConfig(self.N_FIVE_CHUNKS, 5, MistakePolicy("uniform")))
        assert started == [0, 1, 2]

    def test_traced_run_calls_sink_in_order_on_calling_thread(self):
        calls = []
        n = 3 * _CHUNK + 9
        run_trials(
            TrialConfig(n, 4, MistakePolicy.biased(0.2)),
            collect_traces=lambda chunk: calls.append((threading.get_ident(), chunk.start)),
        )
        assert calls == [(threading.get_ident(), start) for start in range(0, n, _CHUNK)]

    def test_a_run_constructs_one_philox(self, monkeypatch):
        constructed = []
        original = np.random.Philox

        def counting(*args, **kwargs):
            constructed.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        run_trials(TrialConfig(self.N_FIVE_CHUNKS, 6, MistakePolicy("uniform")))
        assert len(constructed) == 1

    def test_concurrent_runs_do_not_share_a_philox(self):
        # two seeds at once in two threads give what each gives alone
        configs = [TrialConfig(self.N_FIVE_CHUNKS, seed, MistakePolicy("uniform")) for seed in (11, 12)]
        alone = [run_traced(config)[1]["charlie_idx"] for config in configs]
        start, together = threading.Barrier(len(configs)), [None] * len(configs)

        def run(i):
            start.wait()
            together[i] = run_traced(configs[i])[1]["charlie_idx"]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for expected, got in zip(alone, together):
            np.testing.assert_array_equal(got, expected)


WORD_LIMIT = 1 << 64

# every policy kind and mode; biased:0.001 puts two distinct bounds in one guide bucket
SETTINGS = [(spec, "collapse") for spec in (*POLICIES, "biased:0.001", "biased:1e-09", "biased:1.0")] + [
    ("uniform", "analytic")
]


def fake_stream(words):
    """A stand-in for ``_chunk_words`` whose chunk k reads ``words`` from
    offset ``k * _CHUNK``."""

    def chunk_words(philox, seed, chunk_index):
        position = [chunk_index * _CHUNK]

        def random_raw(size):
            position[0] += size
            return words[position[0] - size : position[0]]

        return random_raw

    return chunk_words


class TestRawWords:
    """The kernel reads one raw Philox word per trial."""

    def test_a_chunk_reads_one_word_per_trial(self, monkeypatch):
        # a chunk of m trials reads exactly the stream's first m words
        streams = []
        original = montecarlo._chunk_words

        def recording(philox, seed, chunk_index):
            streams.append(original(philox, seed, chunk_index))
            return streams[-1]

        monkeypatch.setattr(montecarlo, "_chunk_words", recording)
        m = 2 * _BLOCK + 1_001
        run_trials(TrialConfig(m, 2024, MistakePolicy("uniform")))
        expected = contract.chunk_words(2024, 0, m + 1)[-1]
        assert streams[0]() == expected

    @pytest.mark.parametrize("traced", [False, True], ids=["counts", "traced"])
    def test_epsilon_zero_and_one_are_exact(self, traced):
        n = 2 * _CHUNK + 7  # several chunks
        for eps, ab in ((0.0, n), (1.0, 0)):
            config = TrialConfig(n, 8, MistakePolicy.biased(eps))
            if traced:
                result, columns, _ = run_traced(config)
                np.testing.assert_array_equal(columns["apply_h0"] == columns["heads"], eps == 0.0)
            else:
                result = run_trials(config)
            assert result.resultant_states.counts["AB"] == ab
            assert sum(result.resultant_states.counts.values()) == n


def edge_words(eps, mode):
    """Every word at a cell bound of the setting, one below and one above,
    and each bucket's first and last word, each at an even and an odd
    trial: several chunks of words."""
    bounds = [b for parity in (0, 1) for b in contract.cells(eps, mode, parity)]
    first = np.arange(montecarlo._BUCKETS, dtype=np.uint64) << np.uint64(montecarlo._BUCKET_SHIFT)
    near = np.array([w + d for w in bounds for d in (-1, 0, 1) if 0 <= w + d < WORD_LIMIT], dtype=np.uint64)
    return np.repeat(np.unique(np.concatenate([first, first | np.uint64(montecarlo._BUCKET_LOW), near])), 2)


class TestCells:
    """The kernel's cell bounds and its guide-table lookup."""

    @pytest.mark.parametrize("spec, mode", SETTINGS)
    def test_guide_lookup_matches_searchsorted_at_every_bound_and_bucket_edge(self, monkeypatch, spec, mode):
        # the edge words, through the kernel (traced and counts-only) and the spec
        policy = MistakePolicy.parse(spec)
        eps = policy.mistake_probability
        words = edge_words(eps, mode)
        monkeypatch.setattr(montecarlo, "_chunk_words", fake_stream(words))
        config = TrialConfig(len(words), 0, policy, mode)
        chunks = []
        traced = run_trials(config, collect_traces=chunks.append)
        expected = contract.outcome_codes(
            0, len(words), eps, mode, words=lambda seed, chunk, m: words[chunk * _CHUNK : chunk * _CHUNK + m]
        )
        assert len(chunks) > 1
        np.testing.assert_array_equal(np.concatenate([chunk.outcome for chunk in chunks]), expected)
        # the counts-only run moves each fallback word's tally to its cell too
        columns = TraceChunk(0, expected)
        states = np.bincount(columns.state_idx, minlength=len(STATE_LABELS)).tolist()
        charlie = np.bincount(columns.charlie_idx, minlength=len(CHARLIE_LABELS)).tolist()
        for result in (run_trials(config), traced):
            assert list(result.resultant_states.counts.values()) == states
            assert list(result.charlie.counts.values()) == charlie
        # a bucket falls back to searchsorted exactly when a bound lies strictly inside it
        code = montecarlo._cell_tables(policy, mode).code.reshape(-1, montecarlo._BUCKETS)
        for parity, table in enumerate(code):
            inside = {b for b in contract.cells(eps, mode, parity) if b & montecarlo._BUCKET_LOW}
            buckets = {b >> montecarlo._BUCKET_SHIFT for b in inside}
            assert set(np.flatnonzero(table == montecarlo._FALLBACK).tolist()) == buckets
            assert len(buckets) < len(inside) or spec != "biased:0.001"  # two distinct bounds share a bucket

    @pytest.mark.parametrize("block", [1 << 13, 6_002], ids=["8192", "6002"])
    @pytest.mark.parametrize("spec, mode", SETTINGS)
    def test_block_size_does_not_change_codes_or_tallies(self, monkeypatch, spec, mode, block):
        # a smaller block, a power of two or not, splits each chunk's edge
        # words differently and gives the same codes and tallies
        policy = MistakePolicy.parse(spec)
        words = edge_words(policy.mistake_probability, mode)
        monkeypatch.setattr(montecarlo, "_chunk_words", fake_stream(words))
        config = TrialConfig(len(words), 0, policy, mode)

        def run():
            chunks = []
            traced = run_trials(config, collect_traces=chunks.append)
            counts = run_trials(config)
            tallies = [(r.resultant_states.counts, r.charlie.counts) for r in (traced, counts)]
            return np.concatenate([chunk.outcome for chunk in chunks]), tallies

        default_codes, default_tallies = run()
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        codes, tallies = run()
        np.testing.assert_array_equal(codes, default_codes)
        assert tallies == default_tallies

    @pytest.mark.parametrize("spec, mode", SETTINGS)
    def test_cell_widths_are_exact_probabilities(self, spec, mode):
        policy = MistakePolicy.parse(spec)
        for parity in (0, 1):
            weights = contract.weights(policy.mistake_probability, mode, parity)
            bounds = montecarlo._setting_bounds(policy, mode)[parity if spec == "alternating" else 0]
            assert bounds == contract.cells(policy.mistake_probability, mode, parity)
            total = sum(weights)
            for k, weight in enumerate(weights):
                assert abs(Fraction(bounds[k + 1] - bounds[k], WORD_LIMIT) - weight / total) <= Fraction(1, WORD_LIMIT)
            if policy.mistake_probability is None:
                continue
            # per resultant state, the cells add up to the closed form; cell k
            # has heads k >= 8 and a mistake when bit 2 of k is set
            expected = expected_resultant_states(TrialConfig(1, 0, policy, mode))
            widths = dict.fromkeys(STATE_LABELS, 0)
            for k in range(len(weights)):
                heads, mistake = divmod(k // 4, 2)
                state = "AB" if mode == "analytic" else contract.STATES[contract.resultant(heads, heads ^ mistake)]
                widths[state] += bounds[k + 1] - bounds[k]
            for label, width in widths.items():
                assert abs(width / WORD_LIMIT - expected.probability(label)) <= 1e-15

    @pytest.mark.parametrize("mode", montecarlo.MODES)
    @settings(max_examples=50, deadline=None)
    @given(eps=st.floats(0, 1))
    @example(eps=0.0)
    @example(eps=5e-324)  # the least subnormal
    @example(eps=1.0 - 2.0**-53)  # the greatest double below 1
    @example(eps=1.0)
    def test_biased_bounds_follow_the_contract_for_any_epsilon(self, mode, eps):
        assert montecarlo._setting_bounds(MistakePolicy.biased(eps), mode) == [contract.cells(eps, mode, 0)]

    def test_corrupted_cell_table_raises(self, monkeypatch):
        # tails with no mistake now claims ABth: the cell weights and the
        # closed form read one derivation of the branches, and both refuse it
        monkeypatch.setattr(protocol, "BRANCHES", (BRANCHES[1], BRANCHES[0], *BRANCHES[2:]))
        policy = MistakePolicy("uniform")
        for refused in (
            lambda: montecarlo._branches(policy),
            lambda: montecarlo._cell_weights(policy, "collapse"),
            lambda: mechanism_rows(policy),
            lambda: cli.main(["table"]),
        ):
            with pytest.raises(AssertionError, match="AB exactly when the transform matches the record"):
                refused()


# sizes on each side of a block and a chunk boundary, odd and even
TALLY_SIZES = [1, 2, 3, _BLOCK - 1, _BLOCK + 1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 3]
BINS = montecarlo._FALLBACK + 1


def pairs_swapped(code):
    """``code`` with the two codes of every pair swapped, so that its uint16
    keys here are the keys a host of the other byte order reads from ``code``."""
    even = len(code) - len(code) % 2
    swapped = code.copy()
    swapped[:even] = code[:even].reshape(-1, 2)[:, ::-1].ravel()
    np.testing.assert_array_equal(swapped[:even].view(np.uint16), code[:even].view(np.uint16).byteswap())
    return swapped


class TestTally:
    """Each chunk tallies its final codes once, two codes per ``bincount`` key."""

    @pytest.mark.parametrize("kind", ["random", "all-fallback"])
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 1_000, 1_001, _CHUNK - 1, _CHUNK])
    def test_fold_matches_bincount_in_either_byte_order(self, length, kind):
        rng = np.random.default_rng(length)
        if kind == "random":
            code = rng.integers(0, BINS, length, dtype=np.uint8)
        else:  # every key the largest, _FALLBACK * 257
            code = np.full(length, montecarlo._FALLBACK, dtype=np.uint8)
        keys = np.empty(length // 2, dtype=np.intp)
        expected = np.bincount(code, minlength=BINS)
        for codes in (code, pairs_swapped(code)):
            np.testing.assert_array_equal(montecarlo._tally(codes, keys), expected)

    @pytest.mark.parametrize("n", TALLY_SIZES)
    @pytest.mark.parametrize("spec, mode", SETTINGS)
    def test_each_chunk_tallies_exactly_its_codes(self, monkeypatch, spec, mode, n):
        # counts-only and traced, each chunk's tally is the bincount of its traced codes
        tallies = []
        original = montecarlo._run_chunk

        def recording(*args):
            tallies.append(original(*args))
            return tallies[-1]

        monkeypatch.setattr(montecarlo, "_run_chunk", recording)
        config = TrialConfig(n, 99, MistakePolicy.parse(spec), mode)
        chunks = []
        traced = run_trials(config, collect_traces=chunks.append)
        counts = run_trials(config)
        expected = [np.bincount(chunk.outcome, minlength=BINS).tolist() for chunk in chunks]
        assert [tally.tolist() for tally in tallies] == expected * 2
        codes = TraceChunk(0, np.concatenate([chunk.outcome for chunk in chunks]))
        states = np.bincount(codes.state_idx, minlength=len(STATE_LABELS)).tolist()
        charlie = np.bincount(codes.charlie_idx, minlength=len(CHARLIE_LABELS)).tolist()
        for result in (traced, counts):
            assert list(result.resultant_states.counts.values()) == states
            assert list(result.charlie.counts.values()) == charlie

    @pytest.mark.parametrize("traced", [False, True], ids=["counts", "traced"])
    @pytest.mark.parametrize(
        "wrong_fold",
        [lambda fold, code, keys: fold(code[: len(code) & -2], keys), lambda fold, code, keys: 2 * fold(code, keys)],
        ids=["drops-the-odd-code", "counts-twice"],
    )
    def test_a_wrong_fold_raises(self, monkeypatch, wrong_fold, traced):
        original = montecarlo._tally
        monkeypatch.setattr(montecarlo, "_tally", lambda code, keys: wrong_fold(original, code, keys))
        sink = (lambda chunk: None) if traced else None
        with pytest.raises(RuntimeError, match="a chunk tallied [0-9]+ codes for its 3 trials"):
            run_trials(TrialConfig(3, 1, MistakePolicy("uniform")), collect_traces=sink)

    @pytest.mark.parametrize(
        "spec, mode", [("uniform", "collapse"), ("alternating", "collapse"), ("uniform", "analytic")]
    )
    def test_counts_only_memory_is_bounded(self, spec, mode):
        # one chunk's buffers, whatever n is: 8x the chunks, about the same peak
        policy = MistakePolicy.parse(spec)
        run_trials(TrialConfig(1, 0, policy, mode))  # builds the setting's cached tables

        def peak(n):
            tracemalloc.start()
            try:
                run_trials(TrialConfig(n, 3, policy, mode))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2 * _CHUNK), peak(16 * _CHUNK)
        assert max(small, large) <= 1 << 20
        assert abs(large - small) <= 0.1 * small


class TestTraces:
    def test_alternating_applies_each_transform_exactly_half(self):
        _, columns, _ = run_traced(TrialConfig(2_000, 21, MistakePolicy("alternating")))
        applied = columns["apply_h0"]
        assert applied.sum() == 1_000
        assert (~applied).sum() == 1_000
        assert applied[:4].tolist() == [True, False, True, False]

    def test_resultant_label_consistency(self):
        _, columns, _ = run_traced(TrialConfig(3_000, 17, MistakePolicy("uniform")))
        matches = columns["apply_h0"] == columns["heads"]
        np.testing.assert_array_equal(columns["state_idx"] == 0, matches)

    def test_convergent_evolution_spot_check(self):
        # every trial's matrix chain lands on the state its columns name
        _, columns, _ = run_traced(TrialConfig(1_500, 23, MistakePolicy("uniform")))
        canonical = (
            protocol.target_state(),
            protocol.wrong_state(WrongStateLabel.ABHT),
            protocol.wrong_state(WrongStateLabel.ABTH),
        )
        outcome = {True: AliceOutcome.HEADS, False: AliceOutcome.TAILS}
        assert (columns["state_idx"] == 0).sum() >= 500
        for heads, apply_h0, state in zip(
            columns["heads"].tolist(), columns["apply_h0"].tolist(), columns["state_idx"].tolist()
        ):
            evolved = core.apply(
                protocol.entangle_matrix(),
                core.apply(protocol.reset_matrix(outcome[apply_h0]), protocol.initial_register(outcome[heads])),
            )
            diff = np.abs(evolved.amplitudes - canonical[state].amplitudes).max()
            assert diff <= 1e-12

    def test_trace_count_and_indices(self):
        n = 2 * _CHUNK + 500
        result, columns, chunks = run_traced(TrialConfig(n, 29, MistakePolicy("correct")))
        assert [c.start for c in chunks] == [0, _CHUNK, 2 * _CHUNK]
        assert [len(c.state_idx) for c in chunks] == [_CHUNK, _CHUNK, 500]
        assert all(len(columns[name]) == n for name in COLUMNS)
        tallies = np.bincount(columns["state_idx"], minlength=len(STATE_LABELS)).tolist()
        assert tallies == [result.resultant_states.counts[label] for label in STATE_LABELS]

    @pytest.mark.parametrize("mode", ["collapse", "analytic"])
    def test_outcome_is_one_uint8_code_per_trial(self, mode):
        # collapse codes are the 16 cells, analytic codes 16 + charlie_idx
        n = _CHUNK + 3 * _BLOCK + 11
        chunks = []
        run_trials(TrialConfig(n, 37, MistakePolicy("uniform"), mode=mode), collect_traces=chunks.append)
        assert [c.outcome.dtype for c in chunks] == [np.uint8, np.uint8]
        assert [len(c.outcome) for c in chunks] == [_CHUNK, n - _CHUNK]
        outcome = np.concatenate([c.outcome for c in chunks])
        low, high = (16, 20) if mode == "analytic" else (0, 16)
        assert low <= outcome.min() and outcome.max() < high

    def test_traces_off_by_default(self):
        assert inspect.signature(run_trials).parameters["collect_traces"].default is None
        assert [f.name for f in dataclasses.fields(RunResult)] == ["resultant_states", "charlie"]


class TestCompareDistributions:
    def test_exact_match_zero_margins(self):
        analytic = analytic_mistake_table(MistakePolicy("uniform"))
        empirical = core.OutcomeDistribution.from_counts({"AB": 3, "ABht": 1, "ABth": 2})
        report = compare_distributions(empirical, analytic, 4.0)
        assert report.passed
        assert all(c.margin == pytest.approx(0.0) for c in report.checks)

    def test_seeded_uniform_run_passes(self):
        result = run_trials(TrialConfig(100_000, 42, MistakePolicy("uniform")))
        report = compare_distributions(
            result.resultant_states, analytic_mistake_table(MistakePolicy("uniform")), 4.0
        )
        assert report.passed

    def test_gross_mismatch_fails_every_label(self):
        empirical = core.OutcomeDistribution.from_counts(
            {"AB": 90_000, "ABht": 5_000, "ABth": 5_000}
        )
        report = compare_distributions(
            empirical, analytic_mistake_table(MistakePolicy("uniform")), 4.0
        )
        assert not report.passed
        assert all(not c.passed for c in report.checks)

    def test_label_mismatch(self):
        empirical = core.OutcomeDistribution.from_counts({"X": 1})
        with pytest.raises(ValueError, match="label sets"):
            compare_distributions(empirical, analytic_mistake_table(MistakePolicy("uniform")), 4.0)

    def test_zero_total(self):
        empirical = core.OutcomeDistribution.from_counts({"AB": 0, "ABht": 0, "ABth": 0})
        with pytest.raises(ValueError, match="no samples"):
            compare_distributions(empirical, analytic_mistake_table(MistakePolicy("uniform")), 4.0)


def assert_branch_laws_match_rows(policy):
    """Each branch's four cell weights over the total are within 2 ulp of
    that branch's ``mechanism_rows`` joint probability (the coin's two
    doubles and each Born row sum to 1 only within an ulp or so)."""
    weights = montecarlo._cell_weights(policy, "collapse")
    for branch, row in zip((2, 3, 1, 0), mechanism_rows(policy)):
        law = Fraction(sum(weights[4 * branch : 4 * branch + 4]), sum(weights))
        assert abs(law - Fraction(row.p_joint)) <= 2 * Fraction(math.ulp(row.p_joint)), (branch, float(law), row)


class TestBranches:
    """``BRANCHES`` is the one spelling of the mechanism's branches, indexed
    by the kernel's branch code ``heads * 2 + mistake``."""

    def test_each_branch_evolves_to_its_resultant_state(self):
        states, matrices = protocol.named_states(), protocol.named_matrices()
        for branch, (alice, transform, state) in enumerate(BRANCHES):
            heads, mistake = divmod(branch, 2)
            assert (alice.value, transform) == ("th"[heads], ("A_t01", "A_h0")[heads ^ mistake])
            register = states["psi_h0" if alice is AliceOutcome.HEADS else "psi_t01"]
            evolved = core.apply(protocol.entangle_matrix(), core.apply(matrices[transform], register))
            np.testing.assert_allclose(evolved.amplitudes, states[f"psi_{state}"].amplitudes, atol=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.17, 0.5, 1.0])
    def test_branches_agree_with_mechanism_rows(self, eps):
        rows = mechanism_rows(MistakePolicy.biased(eps))
        alice = {"psi_h0": AliceOutcome.HEADS, "psi_t01": AliceOutcome.TAILS}
        branches = [(alice[row.initial_state], row.transform, row.resultant_state) for row in rows]
        # heads first, the evolution keyed to the record before the other
        assert branches == [BRANCHES[2], BRANCHES[3], BRANCHES[1], BRANCHES[0]]
        for row in rows:
            assert row.p_initial == (P_HEADS if row.initial_state == "psi_h0" else 1.0 - P_HEADS)
            assert row.p_transform == (1.0 - eps if row.resultant_state == "AB" else eps)
            assert row.p_joint == row.p_initial * row.p_transform

    @pytest.mark.parametrize("spec", [spec for spec, mode in SETTINGS if mode == "collapse" and spec != "alternating"])
    def test_cell_weights_agree_with_mechanism_rows(self, spec):
        assert_branch_laws_match_rows(MistakePolicy.parse(spec))

    @settings(max_examples=50, deadline=None)
    @given(eps=st.floats(0, 1))
    @example(eps=5e-324)  # the least subnormal
    @example(eps=1.0 - 2.0**-53)  # the greatest double below 1
    def test_cell_weights_agree_with_mechanism_rows_for_any_epsilon(self, eps):
        assert_branch_laws_match_rows(MistakePolicy.biased(eps))

    @pytest.mark.parametrize("parity", [0, 1])
    def test_alternating_applies_the_transform_of_the_trials_parity(self, parity):
        # A_h0 on even trials and A_t01 on odd ones, whatever the record
        branches = montecarlo._branches(MistakePolicy("alternating"), parity)
        for (alice, transform, state), (p_record, p_transform, branch_state) in zip(BRANCHES, branches):
            assert p_record == (P_HEADS if alice is AliceOutcome.HEADS else 1.0 - P_HEADS)
            assert p_transform == (1.0 if transform == ("A_h0", "A_t01")[parity] else 0.0)
            assert branch_state == state

    @pytest.mark.parametrize("spec", ["correct", "uniform", "alternating", "biased:0.3"])
    def test_analytic_cell_weights_are_the_born_row_of_ab(self, spec):
        # analytic mode measures the target state, whatever the policy
        born = montecarlo._charlie_born()[STATE_LABELS.index("AB")]
        weights = montecarlo._cell_weights(MistakePolicy.parse(spec), "analytic")
        exact = [Fraction(p) for p in born]
        assert [Fraction(w, sum(weights)) for w in weights] == [p / sum(exact) for p in exact]

    def test_branches_agree_with_the_kernel(self):
        # per branch, then analytic mode's
        assert [STATE_LABELS[i] for i in montecarlo._STATE_OF_BRANCH] == ["AB", "ABth", "AB", "ABht", "AB"]
        _, columns, chunks = run_traced(TrialConfig(3_000, 41, MistakePolicy.biased(0.4)))
        branch = np.concatenate([chunk.outcome for chunk in chunks]) // len(CHARLIE_LABELS)
        assert sorted(set(branch.tolist())) == [0, 1, 2, 3]
        alice = [AliceOutcome.HEADS if heads else AliceOutcome.TAILS for heads in columns["heads"].tolist()]
        transform = ["A_h0" if h0 else "A_t01" for h0 in columns["apply_h0"].tolist()]
        states = [STATE_LABELS[i] for i in columns["state_idx"].tolist()]
        assert list(zip(alice, transform, states)) == [BRANCHES[b] for b in branch.tolist()]


def names_in(source):
    """Every name, attribute and imported name in ``source``, and every
    string constant (a ``getattr`` argument, say)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


class TestReferenceIndependence:
    def test_the_reference_names_no_branch_table(self):
        assert not names_in(Path(contract.__file__).read_text(encoding="utf-8")) & BRANCH_TABLES

    def test_each_way_of_naming_a_table_is_seen(self):
        source = (
            "from wigner_lab.cli import _TRACE_TAILS\nprotocol.BRANCHES\n_branches()\nm._cell_weights\n"
            "getattr(m, 'mechanism_rows')\n"
        )
        names = {"_TRACE_TAILS", "BRANCHES", "_branches", "_cell_weights", "mechanism_rows"}
        assert names_in(source) & BRANCH_TABLES == names


class TestExpectedResultantStates:
    """The closed form behind ``simulate --check``."""

    @pytest.mark.parametrize("spec", POLICIES)
    def test_analytic_mode_expects_no_mistakes(self, spec):
        expected = expected_resultant_states(TrialConfig(10, 0, MistakePolicy.parse(spec), mode="analytic"))
        assert expected.frequencies == {"AB": 1.0, "ABht": 0.0, "ABth": 0.0}

    @pytest.mark.parametrize("spec", ["correct", "uniform", "biased:0.3"])
    def test_collapse_mode_expects_the_policy_closed_form(self, spec):
        policy = MistakePolicy.parse(spec)
        expected = expected_resultant_states(TrialConfig(10, 0, policy))
        assert expected.frequencies == analytic_mistake_table(policy).frequencies

    def test_alternating_in_collapse_mode_has_no_closed_form(self):
        with pytest.raises(ValueError, match="closed form"):
            expected_resultant_states(TrialConfig(10, 0, MistakePolicy("alternating")))
