"""Tests for the mistake-mechanism sampler: policies, closed forms,
determinism, and agreement with the exact state machinery."""

import dataclasses
import inspect
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wigner_lab import core, montecarlo, protocol
from wigner_lab.montecarlo import (
    _BLOCK,
    _CHUNK,
    CHARLIE_LABELS,
    STATE_LABELS,
    MistakePolicy,
    RunResult,
    TrialConfig,
    analytic_mistake_table,
    compare_distributions,
    expected_resultant_states,
    mechanism_rows,
    run_trials,
)
from wigner_lab.protocol import P_HEADS, RECORDS, AliceOutcome, WrongStateLabel

COLUMNS = ("heads", "apply_h0", "state_idx", "charlie_idx")


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
        with pytest.raises(ValueError, match="epsilon"):
            MistakePolicy.biased(-0.1)

    def test_named_policies_take_no_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            MistakePolicy("uniform", 0.5)


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


def run_in_thread(fn, timeout=60):
    """Call ``fn`` on a helper thread; return its result or re-raise its
    error, failing the test if it has not finished within ``timeout`` s."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except Exception as exc:  # handed back to the test thread
            outcome["error"] = exc

    caller = threading.Thread(target=target, daemon=True)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive(), "run did not finish"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class TestSchedule:
    """Chunks may run on worker threads; the result may not depend on it."""

    N_FIVE_CHUNKS = 4 * _CHUNK + 1_234

    @pytest.mark.parametrize("mode", montecarlo.MODES)
    @pytest.mark.parametrize("spec", POLICIES)
    def test_counts_independent_of_worker_count(self, monkeypatch, spec, mode):
        config = TrialConfig(self.N_FIVE_CHUNKS, 77, MistakePolicy.parse(spec), mode)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_worker_count", lambda workers=workers: workers)
            results.append(run_trials(config))
        traced = run_trials(config, collect_traces=lambda chunk: None)
        for result in (*results[1:], traced):
            assert result.resultant_states.counts == results[0].resultant_states.counts
            assert result.charlie.counts == results[0].charlie.counts

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch):
        # Each share reuses its own workspace; a workspace that two threads
        # wrote at once would mix two chunks' buffers and change the counts.
        config = TrialConfig(9 * _CHUNK + 5, 12, MistakePolicy.biased(0.4))
        serial = run_trials(config, collect_traces=lambda chunk: None)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                result = run_in_thread(lambda: run_trials(config))
                assert result.resultant_states.counts == serial.resultant_states.counts
                assert result.charlie.counts == serial.charlie.counts
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_propagates_and_cancels_queued_chunks(self, monkeypatch):
        # Every chunk is queued at once; chunks 0 and 1 finish only after
        # chunk 2 has failed, so the error surfaces while most are queued.
        workers, n_chunks = 3, 32
        started = []
        failed = threading.Event()
        original = montecarlo._chunk_uniforms

        def failing(seed, chunk_index):
            started.append(chunk_index)
            if chunk_index == 2:
                failed.set()
                raise RuntimeError("chunk 2 failed")
            if chunk_index < 2:
                failed.wait(timeout=10)
            return original(seed, chunk_index)

        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        monkeypatch.setattr(montecarlo, "_chunk_uniforms", failing)
        with pytest.raises(RuntimeError, match="chunk 2 failed"):
            run_in_thread(lambda: run_trials(TrialConfig(n_chunks * _CHUNK, 5, MistakePolicy("uniform"))))
        assert {0, 1, 2} <= set(started)
        assert len(started) <= n_chunks // 2, f"queued chunks ran after the failure: {sorted(started)}"

    @pytest.mark.skipif(
        not hasattr(signal, "pthread_kill") or signal.getsignal(signal.SIGINT) is not signal.default_int_handler,
        reason="needs POSIX signals and Python's own Ctrl-C handler",
    )
    def test_interrupt_stops_every_share(self, monkeypatch):
        # Ctrl-C reaches the calling thread while chunk 1 runs; every share
        # must stop before its next chunk instead of running its stride out.
        workers, n_chunks = 3, 32
        started = []
        caller = threading.get_ident()
        original = montecarlo._chunk_uniforms

        def interrupting(seed, chunk_index):
            started.append(chunk_index)
            if chunk_index == 1:
                signal.pthread_kill(caller, signal.SIGINT)
            return original(seed, chunk_index)

        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        monkeypatch.setattr(montecarlo, "_chunk_uniforms", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_trials(TrialConfig(n_chunks * _CHUNK, 5, MistakePolicy("uniform")))
        assert 1 in started
        assert len(started) <= n_chunks // 2, f"chunks ran after the interrupt: {sorted(started)}"

    def test_traced_run_calls_sink_in_order_on_calling_thread(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 3)
        calls = []
        n = 3 * _CHUNK + 9
        run_trials(
            TrialConfig(n, 4, MistakePolicy.biased(0.2)),
            collect_traces=lambda chunk: calls.append((threading.get_ident(), chunk.start)),
        )
        assert calls == [(threading.get_ident(), start) for start in range(0, n, _CHUNK)]

    def test_single_chunk_and_traced_runs_start_no_pool(self, monkeypatch):
        def no_pool():
            raise AssertionError("no worker pool expected")

        monkeypatch.setattr(montecarlo, "_worker_count", no_pool)
        run_trials(TrialConfig(_CHUNK, 6, MistakePolicy("uniform")))
        run_trials(TrialConfig(2 * _CHUNK, 6, MistakePolicy("uniform")), collect_traces=lambda chunk: None)

    def test_worker_count_is_bounded(self):
        assert 1 <= montecarlo._worker_count() <= montecarlo._MAX_WORKERS


WORD_LIMIT = 1 << 64


def word_uniform(word: int) -> float:
    """numpy's Philox double of a raw word, in exact Python arithmetic."""
    return (word >> 11) * 2.0**-53


def charlie_references():
    """Per resultant state, Charlie's cumulative Born probabilities,
    computed apart from the kernel's tables."""
    bases = [protocol.charlie_basis("A"), protocol.charlie_basis("B")]
    states = (protocol.target_state(), *map(protocol.wrong_state, (WrongStateLabel.ABHT, WrongStateLabel.ABTH)))
    return [
        np.cumsum([core.born_probabilities(state, bases).probability(label) for label in CHARLIE_LABELS])
        for state in states
    ]


class TestRawWords:
    """The kernel reads raw Philox words and compares them with integer bounds."""

    def test_philox_double_is_the_top_53_bits_of_a_raw_word(self):
        # numpy's contract the kernel rests on, checked on a chunk's stream
        # drawn in kernel-sized blocks; runs on every numpy the CI installs
        n = 2 * _BLOCK + 1_001
        doubles = montecarlo._chunk_uniforms(2024, 3).random((n, 3))
        raw = montecarlo._chunk_uniforms(2024, 3).bit_generator
        words = np.concatenate([raw.random_raw((b, 3)) for b in (_BLOCK, _BLOCK, 1_001)])
        assert words.dtype == np.uint64
        np.testing.assert_array_equal((words >> np.uint64(11)) * 2.0**-53, doubles)

    def test_word_bound_ends(self):
        assert montecarlo._word_bound(0.0) == 0
        assert montecarlo._word_bound(1.0) == WORD_LIMIT
        assert montecarlo._word_bound(2.0**-53) == 1 << 11

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        noise=st.lists(st.integers(min_value=0, max_value=WORD_LIMIT - 1), max_size=8),
    )
    def test_word_bound_is_exact(self, p, noise):
        bound = montecarlo._word_bound(p)
        for word in (bound - 1, bound, bound + 2_047, *noise):
            if 0 <= word < WORD_LIMIT:
                assert (word_uniform(word) >= p) == (word >= bound), (p, word)

    @pytest.mark.parametrize("traced", [False, True], ids=["counts", "traced"])
    def test_epsilon_zero_and_one_are_exact(self, traced):
        n = 2 * _CHUNK + 7  # several chunks: worker threads when not traced
        for eps, ab in ((0.0, n), (1.0, 0)):
            config = TrialConfig(n, 8, MistakePolicy.biased(eps))
            if traced:
                result, columns, _ = run_traced(config)
                np.testing.assert_array_equal(columns["apply_h0"] == columns["heads"], eps == 0.0)
            else:
                result = run_trials(config)
            assert result.resultant_states.counts["AB"] == ab
            assert sum(result.resultant_states.counts.values()) == n


class TestRankTables:
    def test_rank_key_matches_searchsorted_at_every_bound_and_bucket_edge(self):
        tables = montecarlo._rank_tables()
        bounds = [montecarlo._word_bound(t) for t in montecarlo._charlie_thresholds().ravel().tolist()]
        edges = [j << montecarlo._BUCKET_SHIFT for j in range(1 << (64 - montecarlo._BUCKET_SHIFT))]
        words = {w + d for w in bounds + edges for d in (-1, 0, 1)} | {WORD_LIMIT - 1}
        words = np.array(sorted(w for w in words if 0 <= w < WORD_LIMIT), dtype=np.uint64)
        bucket = (words >> np.uint64(montecarlo._BUCKET_SHIFT)).astype(np.intp)
        rank = tables.base[bucket] + (words >= tables.edge[bucket])
        assert rank.min() == 0 and rank.max() == tables.ranks - 1
        u = (words >> np.uint64(11)) * 2.0**-53
        references = charlie_references()
        for code in range(4):  # heads * 2 + mistake
            key = code * tables.ranks + rank
            state = tables.state_of_key[code * tables.ranks]
            np.testing.assert_array_equal(tables.state_of_key[key], state)
            expected = np.minimum(np.searchsorted(references[state], u, side="right"), len(CHARLIE_LABELS) - 1)
            np.testing.assert_array_equal(tables.joint_of_key[key], state * len(CHARLIE_LABELS) + expected)

    def test_builder_refuses_two_bounds_in_one_bucket(self, monkeypatch):
        thresholds = montecarlo._charlie_thresholds().copy()
        thresholds[0, 1] = thresholds[0, 0] + 1e-5  # a bucket is 2**-12 wide
        monkeypatch.setattr(montecarlo, "_charlie_thresholds", lambda: thresholds)
        with pytest.raises(AssertionError, match="share a bucket"):
            montecarlo._rank_tables.__wrapped__()


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

    def test_charlie_index_matches_searchsorted(self):
        # the kernel ranks raw words against integer bounds; searchsorted on the doubles is the reference
        config = TrialConfig(3_000, 31, MistakePolicy("uniform"))
        _, columns, _ = run_traced(config)
        u = montecarlo._chunk_uniforms(config.seed, 0).random((config.n_trials, 3))[:, 2]
        for index, cumulative in enumerate(charlie_references()):
            mask = columns["state_idx"] == index
            expected = np.minimum(np.searchsorted(cumulative, u[mask], side="right"), len(CHARLIE_LABELS) - 1)
            np.testing.assert_array_equal(columns["charlie_idx"][mask], expected)

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
        # analytic codes have record -1 and lie below 12; collapse codes from 12 to 59
        n = _CHUNK + 3 * _BLOCK + 11
        chunks = []
        run_trials(TrialConfig(n, 37, MistakePolicy("uniform"), mode=mode), collect_traces=chunks.append)
        assert [c.outcome.dtype for c in chunks] == [np.uint8, np.uint8]
        assert [len(c.outcome) for c in chunks] == [_CHUNK, n - _CHUNK]
        outcome = np.concatenate([c.outcome for c in chunks])
        low, high = (0, 12) if mode == "analytic" else (12, 60)
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


class TestRecords:
    """``RECORDS`` is the one spelling of the mechanism's branches."""

    def test_each_record_evolves_to_its_resultant_state(self):
        states, matrices = protocol.named_states(), protocol.named_matrices()
        for code, (alice, transform, state) in enumerate(RECORDS):  # code = heads * 2 + apply_h0
            assert (alice.value, transform) == ("th"[code >> 1], ("A_t01", "A_h0")[code & 1])
            register = states["psi_h0" if alice is AliceOutcome.HEADS else "psi_t01"]
            evolved = core.apply(protocol.entangle_matrix(), core.apply(matrices[transform], register))
            np.testing.assert_allclose(evolved.amplitudes, states[f"psi_{state}"].amplitudes, atol=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.17, 0.5, 1.0])
    def test_records_agree_with_mechanism_rows(self, eps):
        rows = mechanism_rows(MistakePolicy.biased(eps))
        alice = {"psi_h0": AliceOutcome.HEADS, "psi_t01": AliceOutcome.TAILS}
        branches = [(alice[row.initial_state], row.transform, row.resultant_state) for row in rows]
        assert branches == list(reversed(RECORDS))  # heads first
        for row in rows:
            assert row.p_initial == (P_HEADS if row.initial_state == "psi_h0" else 1.0 - P_HEADS)
            assert row.p_transform == (1.0 - eps if row.resultant_state == "AB" else eps)
            assert row.p_joint == row.p_initial * row.p_transform

    def test_records_agree_with_the_kernel(self):
        assert [STATE_LABELS[i] for i in montecarlo._STATE_OF_RECORD] == [state for _, _, state in RECORDS]
        _, columns, _ = run_traced(TrialConfig(3_000, 41, MistakePolicy.biased(0.4)))
        record = columns["heads"] * 2 + columns["apply_h0"]
        assert sorted(set(record.tolist())) == [0, 1, 2, 3]
        states = [STATE_LABELS[i] for i in columns["state_idx"].tolist()]
        assert states == [RECORDS[code][2] for code in record.tolist()]


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
