"""Tests for the mistake-mechanism sampler: policies, closed forms,
determinism, and agreement with the exact state machinery."""

import dataclasses
import inspect
import threading
from fractions import Fraction
from types import SimpleNamespace

import contract
import numpy as np
import pytest

from wigner_lab import core, montecarlo, protocol
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
        original = montecarlo._chunk_uniforms

        def recording(seed, chunk_index):
            draws.append((threading.get_ident(), chunk_index))
            return original(seed, chunk_index)

        monkeypatch.setattr(montecarlo, "_chunk_uniforms", recording)
        run_trials(TrialConfig(self.N_FIVE_CHUNKS, 3, MistakePolicy("uniform")))
        assert draws == [(threading.get_ident(), chunk_index) for chunk_index in range(5)]

    def test_chunk_error_reaches_caller_and_stops_the_run(self, monkeypatch):
        started = []
        original = montecarlo._chunk_uniforms

        def failing(seed, chunk_index):
            started.append(chunk_index)
            if chunk_index == 2:
                raise RuntimeError("chunk 2 failed")
            return original(seed, chunk_index)

        monkeypatch.setattr(montecarlo, "_chunk_uniforms", failing)
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


WORD_LIMIT = 1 << 64

# every policy kind and mode; biased:0.001 puts two distinct bounds in one guide bucket
SETTINGS = [(spec, "collapse") for spec in (*POLICIES, "biased:0.001", "biased:1e-09", "biased:1.0")] + [
    ("uniform", "analytic")
]


def fake_stream(words):
    """A stand-in for ``_chunk_uniforms`` whose chunk k reads ``words`` from
    offset ``k * _CHUNK``."""

    def chunk_uniforms(seed, chunk_index):
        position = [chunk_index * _CHUNK]

        def random_raw(size):
            position[0] += size
            return words[position[0] - size : position[0]]

        return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw))

    return chunk_uniforms


class TestRawWords:
    """The kernel reads one raw Philox word per trial."""

    def test_a_chunk_reads_one_word_per_trial(self, monkeypatch):
        # a chunk of m trials reads exactly the stream's first m words
        streams = []
        original = montecarlo._chunk_uniforms

        def recording(seed, chunk_index):
            streams.append(original(seed, chunk_index))
            return streams[-1]

        monkeypatch.setattr(montecarlo, "_chunk_uniforms", recording)
        m = 2 * _BLOCK + 1_001
        run_trials(TrialConfig(m, 2024, MistakePolicy("uniform")))
        expected = montecarlo._chunk_uniforms(2024, 0).bit_generator.random_raw(m + 1)[-1]
        assert streams[0].bit_generator.random_raw() == expected

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


class TestCells:
    """The kernel's cell bounds and its guide-table lookup."""

    @pytest.mark.parametrize("spec, mode", SETTINGS)
    def test_guide_lookup_matches_searchsorted_at_every_bound_and_bucket_edge(self, monkeypatch, spec, mode):
        # every word at a bound, one below and one above, and each bucket's
        # first and last word, each at an even and an odd trial, over several
        # chunks, through the kernel (traced and counts-only) and the spec
        policy = MistakePolicy.parse(spec)
        eps = policy.mistake_probability
        bounds = [b for parity in (0, 1) for b in contract.cells(eps, mode, parity)]
        first = np.arange(montecarlo._BUCKETS, dtype=np.uint64) << np.uint64(montecarlo._BUCKET_SHIFT)
        near = np.array([w + d for w in bounds for d in (-1, 0, 1) if 0 <= w + d < WORD_LIMIT], dtype=np.uint64)
        words = np.repeat(np.unique(np.concatenate([first, first | np.uint64(montecarlo._BUCKET_LOW), near])), 2)
        monkeypatch.setattr(montecarlo, "_chunk_uniforms", fake_stream(words))
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

    def test_corrupted_cell_table_raises(self, monkeypatch):
        # tails with no mistake now claims ABth: the table build refuses it
        monkeypatch.setattr(montecarlo, "_STATE_OF_BRANCH", montecarlo._STATE_OF_BRANCH[[1, 0, 2, 3]])
        with pytest.raises(AssertionError, match="AB exactly when the transform matches the record"):
            montecarlo._cells.__wrapped__("collapse")


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
        # per branch heads * 2 + mistake, then analytic mode's
        assert [STATE_LABELS[i] for i in montecarlo._STATE_OF_BRANCH] == ["AB", "ABth", "AB", "ABht", "AB"]
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
