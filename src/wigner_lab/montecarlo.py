"""End-to-end sampling of the protocol under configurable mistake policies.

Each trial samples Alice's record, selects the evolution keyed to it (or,
on a mistake, to the opposite record), and lets Charlie measure the joint
Hadamard-basis observable on the resulting register.

Randomness is counter-based (Philox keyed by master seed and chunk index)
so results depend only on (seed, trial index): serial and parallel
execution schedules produce bit-identical output.  A counts-only run of
several chunks uses that: it splits its chunks into strides, one per
worker thread, as many as the CPUs the process may use (at most
``_MAX_WORKERS``, derived from the machine, not configurable), and sums
the strides' integer tallies, which is exact in any order.  A traced run
stays on the calling thread, which calls the sink with each chunk in
trial order.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import core, protocol
from .core import OutcomeDistribution

STATE_LABELS = ("AB", *(label.value for label in protocol.WrongStateLabel))
CHARLIE_LABELS = tuple(core.LABEL_SEP.join((a, b)) for a in protocol.CHARLIE_LABELS for b in protocol.CHARLIE_LABELS)

_CHUNK = 1 << 16
# Trials per block inside a chunk: a block's words and work buffers
# (about 0.5 MB) stay in a core's L2 cache.  Even, like _CHUNK, so every
# block starts at an even trial index.
_BLOCK = 1 << 13
_MAX_WORKERS = 4

# Joint bins state_idx * 4 + charlie_idx: trace outcome codes per record.
_JOINTS = len(STATE_LABELS) * len(CHARLIE_LABELS)
_ALTERNATE = np.arange(_BLOCK) % 2 == 0
# A Charlie word's bucket is its top 12 bits: 4 096 buckets.
_BUCKET_SHIFT = 52

POLICY_KINDS = ("correct", "uniform", "alternating", "biased")
MODES = ("collapse", "analytic")
# ``simulate --check`` passes a label within this many binomial standard deviations.
SIGMA_BOUND = 4.0

_STATE_OF_RECORD = np.array([STATE_LABELS.index(state) for _, _, state in protocol.RECORDS], dtype=np.intp)


@dataclass(frozen=True)
class MistakePolicy:
    """Rule selecting the applied evolution, possibly mismatching Alice's record.

    ``epsilon`` is the per-trial probability of applying the evolution keyed
    to the opposite record; alternating ignores the record entirely and has
    no per-trial closed form.
    """

    kind: str
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        if self.kind == "biased":
            if self.epsilon is None or not 0.0 <= self.epsilon <= 1.0:
                raise ValueError(f"biased policy needs epsilon in [0, 1], got {self.epsilon!r}")
        elif self.epsilon is not None:
            raise ValueError(f"policy {self.kind!r} does not take an epsilon")

    @classmethod
    def biased(cls, epsilon: float) -> MistakePolicy:
        return cls("biased", float(epsilon))

    @classmethod
    def parse(cls, text: str) -> MistakePolicy:
        """Parse ``correct | uniform | alternating | biased:<eps>``."""
        if text in POLICY_KINDS and text != "biased":
            return cls(text)
        if text.startswith("biased:"):
            try:
                return cls.biased(float(text.split(":", 1)[1]))
            except ValueError as exc:
                raise ValueError(f"bad policy spec {text!r}: {exc}") from None
        raise ValueError(f"bad policy spec {text!r}, expected correct|uniform|alternating|biased:<eps>")

    @property
    def mistake_probability(self) -> float | None:
        """Per-trial mistake probability; None for alternating."""
        return {"correct": 0.0, "uniform": 0.5, "alternating": None, "biased": self.epsilon}[self.kind]

    def spec(self) -> str:
        return f"biased:{self.epsilon!r}" if self.kind == "biased" else self.kind


@dataclass(frozen=True)
class TrialConfig:
    n_trials: int
    seed: int
    policy: MistakePolicy
    mode: str = "collapse"

    def __post_init__(self):
        if self.n_trials < 0:
            raise ValueError("n_trials must be >= 0")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")


@dataclass(frozen=True)
class TraceChunk:
    """The trials ``start .. start + len(outcome) - 1``, one outcome code each.

    The code (uint8) is ``((record + 1) * 3 + state_idx) * 4 + charlie_idx``:
    ``record`` is ``heads * 2 + apply_h0``, or -1 in analytic mode, where
    Charlie measures the target state directly, so analytic codes are below
    12 and collapse codes at or above.  The properties decode the columns:
    ``heads`` is Alice's record and ``apply_h0`` whether ``A_h0`` (else
    ``A_t01``) was applied, both None in analytic mode; ``state_idx`` and
    ``charlie_idx`` index ``STATE_LABELS`` and ``CHARLIE_LABELS``.
    """

    start: int
    outcome: np.ndarray

    @property
    def _analytic(self) -> bool:
        return not self.outcome.size or self.outcome[0] < _JOINTS

    @property
    def heads(self) -> np.ndarray | None:
        return None if self._analytic else self.outcome >= 3 * _JOINTS  # record 2 or 3

    @property
    def apply_h0(self) -> np.ndarray | None:
        return None if self._analytic else self.outcome // _JOINTS % 2 == 0  # record 1 or 3

    @property
    def state_idx(self) -> np.ndarray:
        return (self.outcome // len(CHARLIE_LABELS) % len(STATE_LABELS)).astype(np.intp)

    @property
    def charlie_idx(self) -> np.ndarray:
        return (self.outcome % len(CHARLIE_LABELS)).astype(np.intp)


class MechanismRow(NamedTuple):
    """One (initial state, applied transform) branch of the mistake mechanism."""

    initial_state: str
    p_initial: float
    transform: str
    p_transform: float
    resultant_state: str
    p_joint: float


@dataclass(frozen=True)
class RunResult:
    resultant_states: OutcomeDistribution
    charlie: OutcomeDistribution


@dataclass(frozen=True)
class LabelCheck:
    label: str
    frequency: float
    expected: float
    margin: float
    limit: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    checks: tuple[LabelCheck, ...]
    passed: bool


@lru_cache(maxsize=None)
def _charlie_thresholds() -> np.ndarray:
    """Row k < 3 holds, per resultant state, P(Charlie's outcome index <= k)."""
    bases = [protocol.charlie_basis("A"), protocol.charlie_basis("B")]
    states = protocol.named_states()
    cumulative = [
        np.cumsum([core.born_probabilities(states[f"psi_{label}"], bases).probability(k) for k in CHARLIE_LABELS])
        for label in STATE_LABELS
    ]
    return np.array(cumulative)[:, :-1].T.copy()


def _word_bound(p: float) -> int:
    """The least raw Philox word whose double is at least ``p`` in [0, 1].

    numpy's Philox double is ``(word >> 11) * 2**-53``, so ``u < p`` holds
    exactly when ``word < _word_bound(p)``.  The bound is ``2**64`` for
    ``p == 1``: every word is below it."""
    return math.ceil(p * 2.0**53) << 11


class _RankTables(NamedTuple):
    """Tables that classify a trial by one key, ``code * ranks + rank``.

    ``code`` is ``heads * 2 + mistake``.  ``rank`` is the number of distinct
    Charlie word bounds, over all three states, at or below the trial's
    Charlie word ``w``: ``base[w >> 52] + (w >= edge[w >> 52])``.  The key
    maps to the resultant state (``state_of_key``), to the joint bin
    ``state_idx * 4 + charlie_idx`` (``joint_of_key``) and to the trial's
    ``TraceChunk`` outcome code (``outcome_of_key``).  In analytic mode the
    key is the rank alone, a key of code 0 (state AB), and the outcome code
    is its joint bin: ``joint_of_key`` maps it there too.
    """

    ranks: int
    base: np.ndarray
    edge: np.ndarray
    state_of_key: np.ndarray
    joint_of_key: np.ndarray
    outcome_of_key: np.ndarray


@lru_cache(maxsize=None)
def _rank_tables() -> _RankTables:
    """Build the rank tables from ``_charlie_thresholds``.

    A bucket (the top 12 bits of a word) holds at most one distinct bound,
    so one compare with that bound ranks every word in the bucket; a bucket
    without a bound gets its first word as edge, which every word in it
    passes."""
    # Row s holds state s's three word bounds.
    thresholds = _charlie_thresholds().T
    bounds = np.array([_word_bound(t) for t in thresholds.ravel().tolist()], dtype=np.uint64)
    bounds = bounds.reshape(thresholds.shape)
    ordered = np.sort(bounds, axis=None)
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    buckets = (distinct >> np.uint64(_BUCKET_SHIFT)).astype(np.intp)
    if (buckets[1:] == buckets[:-1]).any():
        raise AssertionError("two Charlie bounds share a bucket, so the bucket rank would be inexact")
    edge = np.arange(1 << (64 - _BUCKET_SHIFT), dtype=np.uint64) << np.uint64(_BUCKET_SHIFT)
    edge[buckets] = distinct
    # base + 1 is the rank of a word at or above its bucket's edge; a word
    # below the edge (only in a bucket holding a bound) ranks one lower.
    base = np.searchsorted(distinct, edge, side="right") - 1
    ranks = len(distinct) + 1
    # charlie_of[s, r]: how many of state s's bounds lie at or below a word of rank r.
    charlie_of = np.zeros((len(STATE_LABELS), ranks), dtype=np.intp)
    charlie_of[:, 1:] = (bounds[:, :, None] <= distinct).sum(axis=1)
    heads, mistake = np.arange(4) >> 1, np.arange(4) & 1  # apply_h0 = heads ^ mistake
    record_of_key = np.repeat(heads * 2 + (heads ^ mistake), ranks)
    state_of_key = _STATE_OF_RECORD[record_of_key]
    rank_of_key = np.tile(np.arange(ranks), 4)
    joint_of_key = (state_of_key * len(CHARLIE_LABELS) + charlie_of[state_of_key, rank_of_key]).astype(np.uint8)
    # The TraceChunk code; an analytic key is a rank of state AB, with record -1.
    outcome_of_key = ((record_of_key + 1) * _JOINTS + joint_of_key).astype(np.uint8)
    return _RankTables(ranks, base, edge, state_of_key, joint_of_key, outcome_of_key)


def _chunk_uniforms(seed: int, chunk_index: int) -> np.random.Generator:
    """The Philox stream of one chunk: successive ``random`` draws give its
    uniforms, three per trial, in trial order.  The kernel reads the same
    stream as raw words (``bit_generator.random_raw``), one per uniform."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64)))


def _worker_count() -> int:
    """Threads for a multi-chunk counts run: the CPUs this process may use,
    at most ``_MAX_WORKERS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS))


class _Workspace:
    """Block buffers that one share of a run reuses from chunk to chunk.

    The caller allocates them, so the memory stays with the calling
    thread's allocator and is freed when the run ends.
    """

    def __init__(self, size: int):
        self.key = np.empty(size, dtype=np.intp)
        self.state = np.empty(size, dtype=np.intp)
        self.bucket = np.empty(size, dtype=np.uint64)
        self.edge = np.empty(size, dtype=np.uint64)
        self.code, self.part = np.empty((2, size), dtype=np.uint8)
        self.heads, self.mistake, self.above, self.flag = np.empty((4, size), dtype=bool)


def _run_chunk(
    config: TrialConfig, chunk_index: int, tables: _RankTables, work: _Workspace, traced: bool = False
) -> tuple[np.ndarray, TraceChunk | None]:
    """Run the trials of one chunk, ``_BLOCK`` trials at a time.

    Each block draws three raw Philox words per trial and classifies each
    trial by integer compares into one key (see ``_RankTables``); a block
    tallies its keys with one ``bincount``, and the chunk's key tally folds
    into the joint tally through ``joint_of_key``.  Returns the chunk's
    joint tally (bin ``state_idx * 4 + charlie_idx``) and, when ``traced``,
    its per-trial outcome codes, one ``outcome_of_key`` lookup per block.
    Worker threads run this, so it calls only private helpers and numpy.
    """
    start = chunk_index * _CHUNK
    m = min(_CHUNK, config.n_trials - start)
    draw_words = _chunk_uniforms(config.seed, chunk_index).bit_generator.random_raw
    ranks = tables.ranks
    analytic = config.mode == "analytic"
    alternating = config.policy.kind == "alternating"
    heads_bound = np.uint64(_word_bound(protocol.P_HEADS))
    if not alternating:
        bound = _word_bound(config.policy.mistake_probability)
        every_mistake = bound == 1 << 64  # eps = 1: the bound does not fit a uint64
        mistake_bound = np.uint64(min(bound, (1 << 64) - 1))
    key_tally = np.zeros(4 * ranks, dtype=np.int64)

    if traced:
        outcome = np.empty(m, dtype=np.uint8)
        outcome_of_key = tables.joint_of_key if analytic else tables.outcome_of_key

    for lo in range(0, m, _BLOCK):
        b = min(_BLOCK, m - lo)
        words = draw_words((b, 3))  # columns: record, mistake, Charlie
        charlie_w, key = words[:, 2], work.key[:b]
        bucket = np.right_shift(charlie_w, np.uint64(_BUCKET_SHIFT), out=work.bucket[:b]).view(np.intp)
        # Every index is in range; mode="clip" writes into out, "raise" would copy it.
        tables.base.take(bucket, out=key, mode="clip")
        edge = tables.edge.take(bucket, out=work.edge[:b], mode="clip")
        above = np.greater_equal(charlie_w, edge, out=work.above[:b]).view(np.uint8)
        if analytic:
            key += above
        else:
            heads, mistake, state, flag = work.heads[:b], work.mistake[:b], work.state[:b], work.flag[:b]
            np.less(words[:, 0], heads_bound, out=heads)
            if alternating:
                np.not_equal(heads, _ALTERNATE[:b], out=mistake)  # blocks start at even trial indices
            elif every_mistake:
                mistake.fill(True)
            else:
                np.less(words[:, 1], mistake_bound, out=mistake)
            # key += (heads * 2 + mistake) * ranks + above, summed in uint8 first
            code = np.multiply(heads.view(np.uint8), 2 * ranks, out=work.code[:b])
            code += np.multiply(mistake.view(np.uint8), ranks, out=work.part[:b])
            code += above
            key += code
            tables.state_of_key.take(key, out=state, mode="clip")
            np.equal(state, 0, out=flag)
            if np.equal(flag, mistake, out=flag).any():
                raise AssertionError("resultant state must be AB exactly when the transform matches the record")
        key_tally += np.bincount(key, minlength=len(key_tally))
        if traced:
            outcome_of_key.take(key, out=outcome[lo : lo + b], mode="clip")

    tally = np.zeros(_JOINTS, dtype=np.int64)
    np.add.at(tally, tables.joint_of_key, key_tally)
    if not traced:
        return tally, None
    return tally, TraceChunk(start, outcome)


def run_trials(config: TrialConfig, collect_traces: Callable[[TraceChunk], None] | None = None) -> RunResult:
    """Run the protocol ``config.n_trials`` times, one chunk of ``_CHUNK``
    trials at a time; ``collect_traces``, when given, receives each chunk's
    ``TraceChunk`` of per-trial outcome codes in trial order, and nothing
    per trial is kept.

    Trial ``i`` uses row ``i % _CHUNK`` of the uniforms keyed by (seed,
    ``i // _CHUNK``): column 0 draws Alice's record, column 1 the mistake
    and column 2 Charlie's outcome.  So results depend only on (seed,
    n_trials, policy, mode), whatever the execution schedule.  The uniforms
    are compared as raw 64-bit Philox words against exact integer bounds
    (``_word_bound``), so each decision is the one the double would give.

    Every run goes through ``run_share(work, first)``: it runs chunks
    ``first, first + workers, ...`` in order on one workspace and sums their
    tallies.  A traced run, or a run of one chunk, runs one share on the
    calling thread, so the sink is called there, in trial order.  A
    counts-only run of more chunks runs a share on each of ``_worker_count``
    threads (derived from the machine, not a setting) and sums the shares,
    exactly.  A share that raises, or the caller leaving early, stops every
    share before its next chunk.
    """
    tables = _rank_tables()  # built here, so worker threads never build it
    n_chunks = -(-config.n_trials // _CHUNK)
    traced = collect_traces is not None
    workers = 1 if traced or n_chunks < 2 else _worker_count()
    stop = threading.Event()

    def run_share(work: _Workspace, first: int) -> np.ndarray:
        tally = np.zeros(_JOINTS, dtype=np.int64)
        try:
            for chunk_index in range(first, n_chunks, workers):
                if stop.is_set():
                    break
                chunk_tally, chunk = _run_chunk(config, chunk_index, tables, work, traced)
                tally += chunk_tally
                if traced:
                    collect_traces(chunk)
        except BaseException:
            stop.set()
            raise
        return tally

    works = [_Workspace(min(_BLOCK, config.n_trials)) for _ in range(workers)]
    if workers == 1:
        tally = run_share(works[0], 0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            try:
                tally = sum(pool.map(run_share, works, range(workers)))
            finally:
                stop.set()  # before the pool waits for its threads

    joint = tally.reshape(len(STATE_LABELS), len(CHARLIE_LABELS))
    return RunResult(
        resultant_states=OutcomeDistribution.from_counts(dict(zip(STATE_LABELS, joint.sum(axis=1).tolist()))),
        charlie=OutcomeDistribution.from_counts(dict(zip(CHARLIE_LABELS, joint.sum(axis=0).tolist()))),
    )


def mechanism_rows(policy: MistakePolicy) -> tuple[MechanismRow, ...]:
    """The four branches of ``protocol.RECORDS``, heads first: Alice's register
    (heads with ``P_HEADS``), the transform applied (the one keyed to the other
    record with probability eps), and the resultant state with its joint probability."""
    eps = policy.mistake_probability
    if eps is None:
        raise ValueError("alternating policy has no per-trial closed form; sample it with run_trials")
    rows = []
    for alice, transform, state in reversed(protocol.RECORDS):
        heads = alice is protocol.AliceOutcome.HEADS
        register, p_register = ("psi_h0", protocol.P_HEADS) if heads else ("psi_t01", 1.0 - protocol.P_HEADS)
        p_transform = 1.0 - eps if state == "AB" else eps
        rows.append(MechanismRow(register, p_register, transform, p_transform, state, p_register * p_transform))
    return tuple(rows)


def analytic_mistake_table(policy: MistakePolicy) -> OutcomeDistribution:
    """Closed-form resultant-state distribution: (1-eps, eps/3, 2*eps/3).

    Each wrong state has one mechanism row; AB is reached exactly when no
    mistake is made, whatever the record."""
    wrong = {row.resultant_state: row.p_joint for row in mechanism_rows(policy) if row.resultant_state != "AB"}
    return OutcomeDistribution.from_probabilities({"AB": 1.0 - policy.mistake_probability, **wrong})


def expected_resultant_states(config: TrialConfig) -> OutcomeDistribution:
    """The closed form ``simulate --check`` holds the sampled resultant states
    to, at ``SIGMA_BOUND``: no mistakes in analytic mode, which measures the
    target state, whatever the policy; ValueError for alternating otherwise."""
    return analytic_mistake_table(MistakePolicy("correct") if config.mode == "analytic" else config.policy)


def compare_distributions(
    empirical: OutcomeDistribution,
    analytic: OutcomeDistribution,
    sigma_bound: float,
) -> ComparisonReport:
    """Per-label check |freq - p| <= sigma_bound * sqrt(p(1-p)/N)."""
    if empirical.total <= 0:
        raise ValueError("empirical distribution has no samples")
    if set(empirical.labels) != set(analytic.labels):
        raise ValueError(f"label sets differ: {sorted(empirical.labels)} vs {sorted(analytic.labels)}")
    checks = []
    for label in empirical.labels:
        p = analytic.probability(label)
        freq = empirical.probability(label)
        margin = abs(freq - p)
        limit = sigma_bound * float(np.sqrt(p * (1.0 - p) / empirical.total))
        checks.append(LabelCheck(label, freq, p, margin, limit, margin <= limit))
    return ComparisonReport(tuple(checks), all(c.passed for c in checks))
