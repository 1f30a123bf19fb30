"""End-to-end sampling of the protocol under configurable mistake policies.

Each trial samples Alice's record, selects the evolution keyed to it (or,
on a mistake, to the opposite record), and lets Charlie measure the joint
Hadamard-basis observable on the resulting register.

Randomness is counter-based (Philox keyed by master seed and chunk index)
so results depend only on (seed, trial index).  A run works through its
chunks in order on the calling thread, sums their integer tallies and,
when traced, calls the sink with each chunk in trial order.
"""

from __future__ import annotations

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
# (about 0.14 MB) stay in a core's L2 cache.  Even, like _CHUNK, so every
# block starts at an even trial index.
_BLOCK = 1 << 13

# A word's guide bucket is its top 16 bits: 65 536 buckets per trial parity.
_BUCKET_SHIFT = 48
_BUCKETS = 1 << (64 - _BUCKET_SHIFT)
_BUCKET_LOW = (1 << _BUCKET_SHIFT) - 1
# The odd trials of a block read the second set of buckets (alternating only).
_ODD_BUCKETS = np.arange(_BLOCK) % 2 * _BUCKETS

# The seed -> output contract: bumped whenever a seed's output changes.
CONTRACT = 2
WORDS_PER_TRIAL = 1

POLICY_KINDS = ("correct", "uniform", "alternating", "biased")
MODES = ("collapse", "analytic")
# ``simulate --check`` passes a label within this many binomial standard deviations.
SIGMA_BOUND = 4.0

# A trial's outcome code is its cell (see ``_cells``), ``branch * 4 +
# charlie_idx``, where branches 0 .. 3 are ``heads * 2 + mistake`` and 4 is
# analytic mode's.  Per branch: its record ``heads * 2 + apply_h0``, the index
# of its row in protocol.RECORDS (-1: none), and its resultant state.
_RECORD_OF_BRANCH = np.array([heads * 2 + (heads ^ mistake) for heads in (0, 1) for mistake in (0, 1)] + [-1])
_STATE_OF_BRANCH = np.array([STATE_LABELS.index(protocol.RECORDS[r][2]) for r in _RECORD_OF_BRANCH[:-1]] + [0], np.intp)
_ANALYTIC = 16  # the first code of analytic mode
# The guide-table code of a bucket with a cell bound strictly inside it.
_FALLBACK = len(_RECORD_OF_BRANCH) * len(CHARLIE_LABELS)


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

    The code (uint8) is the trial's cell ``k`` of the contract (see
    ``_cells``): ``(heads * 2 + mistake) * 4 + charlie_idx`` in collapse
    mode, 0 .. 15, and ``16 + charlie_idx`` in analytic mode, where Charlie
    measures the target state.  The properties decode the columns:
    ``heads`` is Alice's record and ``apply_h0`` whether ``A_h0`` (else
    ``A_t01``) was applied, both None in analytic mode; ``state_idx`` and
    ``charlie_idx`` index ``STATE_LABELS`` and ``CHARLIE_LABELS``.
    """

    start: int
    outcome: np.ndarray

    @property
    def _analytic(self) -> bool:
        return not self.outcome.size or self.outcome[0] >= _ANALYTIC

    @property
    def heads(self) -> np.ndarray | None:
        return None if self._analytic else _RECORD_OF_BRANCH[self.outcome // len(CHARLIE_LABELS)] >= 2

    @property
    def apply_h0(self) -> np.ndarray | None:
        return None if self._analytic else _RECORD_OF_BRANCH[self.outcome // len(CHARLIE_LABELS)] % 2 == 1

    @property
    def state_idx(self) -> np.ndarray:
        return _STATE_OF_BRANCH[self.outcome // len(CHARLIE_LABELS)]

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
def _charlie_born() -> tuple[tuple[float, ...], ...]:
    """Per resultant state, the Born probabilities of Charlie's outcomes, in
    ``CHARLIE_LABELS`` order: the only Born table the sampler reads."""
    bases = [protocol.charlie_basis("A"), protocol.charlie_basis("B")]
    states = protocol.named_states()
    return tuple(
        tuple(core.born_probabilities(states[f"psi_{label}"], bases).probability(k) for k in CHARLIE_LABELS)
        for label in STATE_LABELS
    )


def _dyadic(x: float) -> tuple[int, int]:
    """The double ``x`` exactly, as ``(n, s)`` with ``x == n / 2**s``."""
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


@lru_cache(maxsize=None)
def _cells(mode: str) -> tuple[tuple[int, int, tuple[int, int]], ...]:
    """The cells of one trial in the contract's order, ``(heads * 2 +
    mistake) * 4 + charlie_idx``, or ``charlie_idx`` alone in analytic mode,
    where Charlie measures the target state: each cell's heads, mistake and
    weight without the policy's factor, P(record) * P(Charlie's outcome)
    exactly (see ``_dyadic``).  A cell's ``TraceChunk`` outcome code is its
    index, plus ``_ANALYTIC`` in analytic mode.  Checks, over every cell,
    that the resultant state is AB exactly when there is no mistake."""
    born = _charlie_born()
    if mode == "analytic":
        return tuple((0, 0, _dyadic(p)) for p in born[0])
    cells = []
    for heads in (0, 1):
        n, s = _dyadic(protocol.P_HEADS if heads else 1.0 - protocol.P_HEADS)
        for mistake in (0, 1):
            state = int(_STATE_OF_BRANCH[heads * 2 + mistake])
            if (state == 0) == mistake:
                raise AssertionError("resultant state must be AB exactly when the transform matches the record")
            for p in born[state]:
                m, t = _dyadic(p)
                cells.append((heads, mistake, (n * m, s + t)))
    return tuple(cells)


@lru_cache(maxsize=None)
def _partial_sums(mode: str, parity: int | None) -> tuple[tuple[int, int], ...]:
    """For k = 0 .. 16 (0 .. 4 in analytic mode), the sums ``(A_k, B_k)``
    of the first k cells' weights (see ``_cells``) in exact integers at one
    power-of-two scale: B sums the mistake cells, or for a ``parity``
    (``alternating``) the cells the trial's parity allows, and A the
    others.  The policy's factor is ``x0`` for an A cell and ``x1`` for a B
    cell (see ``_exact_bounds``)."""
    cells = _cells(mode)
    top = max(s for *_, (_, s) in cells)
    a = b = 0
    sums = [(a, b)]
    for heads, mistake, (n, s) in cells:
        if (mistake if parity is None else heads ^ mistake == 1 - parity):
            b += n << (top - s)
        else:
            a += n << (top - s)
        sums.append((a, b))
    return tuple(sums)


def _exact_bounds(sums: tuple[tuple[int, int], ...], x0: float, x1: float) -> list[int]:
    """The cumulative bounds ``floor(2**64 * S_k / S)``, where ``S_k = x0 *
    A_k + x1 * B_k`` for ``(A_k, B_k) = sums[k]`` and ``S`` is the last
    ``S_k``, exactly: a double is ``n / 2**s`` (``_dyadic``)."""
    (n0, s0), (n1, s1) = _dyadic(x0), _dyadic(x1)
    n0, n1 = n0 << s1, n1 << s0  # over the common denominator 2**(s0 + s1)
    total = n0 * sums[-1][0] + n1 * sums[-1][1]
    return [((n0 * a + n1 * b) << 64) // total for a, b in sums]


class _CellTables(NamedTuple):
    """The inverse-CDF lookup of one setting (policy and mode).

    A trial's word ``w`` falls in cell ``k`` when ``bounds[k] <= w <
    bounds[k + 1]`` (``_exact_bounds``).  The guide table splits the words
    into buckets of their top 16 bits, 65 536 per trial parity
    (``alternating`` has a second set, for odd trials, at bucket ``65536 +
    (w >> 48)``), and ``code[bucket]`` is the trial's cell, its
    ``TraceChunk`` outcome code.  A bucket that has a bound strictly inside
    it, 15 of 65 536 at most, holds ``_FALLBACK`` instead, and its words
    are counted exactly against ``interior[parity]``, the bounds but the
    first that are below ``2**64``: the count is the cell's index, and its
    code adds ``first``, the mode's first code.
    """

    code: np.ndarray
    interior: tuple[np.ndarray, ...]
    first: int


def _guide(interior: list[int], first: int) -> np.ndarray:
    """The code table of one trial parity (see ``_CellTables``): cell k
    fills the buckets from the one its bound falls in, and a bucket with a
    bound strictly inside it holds ``_FALLBACK`` instead."""
    start = [0, *(bound >> _BUCKET_SHIFT for bound in interior), _BUCKETS]
    code = np.repeat(np.arange(first, first + len(start) - 1, dtype=np.uint8), np.diff(start))
    code[[bound >> _BUCKET_SHIFT for bound in interior if bound & _BUCKET_LOW]] = _FALLBACK
    return code


def _setting_bounds(policy: MistakePolicy, mode: str) -> list[list[int]]:
    """The cell bounds of a setting, one list per trial parity: two for
    ``alternating``, which applies A_h0 on even trials, else one."""
    eps = policy.mistake_probability if mode == "collapse" else 0.0
    if eps is None:
        return [_exact_bounds(_partial_sums(mode, parity), 0.0, 1.0) for parity in (0, 1)]
    return [_exact_bounds(_partial_sums(mode, None), 1.0 - eps, eps)]


@lru_cache(maxsize=8)
def _cell_tables(policy: MistakePolicy, mode: str) -> _CellTables:
    """Build the guide tables of a setting from its exact cell bounds."""
    first = _ANALYTIC if mode == "analytic" else 0
    interiors = [[bound for bound in bounds[1:] if bound < 1 << 64] for bounds in _setting_bounds(policy, mode)]
    code = np.concatenate([_guide(interior, first) for interior in interiors])
    return _CellTables(code, tuple(np.array(interior, dtype=np.uint64) for interior in interiors), first)


def _chunk_uniforms(seed: int, chunk_index: int) -> np.random.Generator:
    """The Philox stream of one chunk, keyed by (seed, chunk index); the
    kernel reads it as raw words (``bit_generator.random_raw``), one per
    trial, in trial order."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64)))


def provenance() -> dict:
    """What decides a run's output besides its ``TrialConfig``: the random
    stream (Philox keyed by seed and chunk), the trials per chunk, the raw
    words each trial reads and the contract's number.  Neither the numpy nor
    the package version is in it: the output does not depend on them."""
    return {"rng": "philox", "chunk_trials": _CHUNK, "words_per_trial": WORDS_PER_TRIAL, "contract": CONTRACT}


class _Workspace:
    """Block buffers that a run allocates once and reuses from block to
    block and chunk to chunk; they are freed when the run ends."""

    def __init__(self, size: int):
        self.bucket = np.empty(size, dtype=np.uint64)
        self.code = np.empty(size, dtype=np.uint8)


def _look_up_exactly(tables: _CellTables, words: np.ndarray, code: np.ndarray, counts: np.ndarray) -> None:
    """Replace each ``_FALLBACK`` code of a block by the code of its word's
    cell, counted exactly by ``searchsorted`` over the cell bounds, and
    tally it in ``counts`` under that code too."""
    at = (code == _FALLBACK).nonzero()[0]
    by_parity = len(tables.interior) == 2
    for parity, interior in enumerate(tables.interior):
        here = at[at % 2 == parity] if by_parity else at  # blocks start at even trial indices
        code[here] = np.searchsorted(interior, words[here], side="right") + tables.first
    counts += np.bincount(code[at], minlength=len(counts))


def _run_chunk(
    config: TrialConfig, chunk_index: int, tables: _CellTables, work: _Workspace, traced: bool = False
) -> tuple[np.ndarray, TraceChunk | None]:
    """Run the trials of one chunk, ``_BLOCK`` trials at a time.

    Each block draws one raw Philox word per trial and looks its cell up in
    the guide table (see ``_CellTables``): a shift to the word's bucket and
    one ``take`` of its outcome code.  A block tallies its codes with one
    ``bincount``; the words of a ``_FALLBACK`` bucket, under two a block,
    then go to ``_look_up_exactly``.  Returns the chunk's tally by outcome
    code, whose last bin, ``_FALLBACK``, counts the words looked up exactly,
    and, when ``traced``, its per-trial outcome codes.
    """
    start = chunk_index * _CHUNK
    m = min(_CHUNK, config.n_trials - start)
    draw_words = _chunk_uniforms(config.seed, chunk_index).bit_generator.random_raw
    by_parity = len(tables.interior) == 2
    code_tally = np.zeros(_FALLBACK + 1, dtype=np.int64)
    outcome = np.empty(m, dtype=np.uint8) if traced else None

    for lo in range(0, m, _BLOCK):
        b = min(_BLOCK, m - lo)
        words = draw_words(b)
        bucket = np.right_shift(words, np.uint64(_BUCKET_SHIFT), out=work.bucket[:b]).view(np.intp)
        if by_parity:
            bucket += _ODD_BUCKETS[:b]
        # Every index is in range; mode="clip" writes into out, "raise" would copy it.
        code = tables.code.take(bucket, out=outcome[lo : lo + b] if traced else work.code[:b], mode="clip")
        counts = np.bincount(code, minlength=_FALLBACK + 1)
        if counts[_FALLBACK]:
            _look_up_exactly(tables, words, code, counts)
        code_tally += counts

    return code_tally, TraceChunk(start, outcome) if traced else None


def run_trials(config: TrialConfig, collect_traces: Callable[[TraceChunk], None] | None = None) -> RunResult:
    """Run the protocol ``config.n_trials`` times, one chunk of ``_CHUNK``
    trials at a time; ``collect_traces``, when given, receives each chunk's
    ``TraceChunk`` of per-trial outcome codes in trial order, and nothing
    per trial is kept.

    Trial ``i`` reads word ``i % _CHUNK`` of the Philox stream keyed by
    (seed, ``i // _CHUNK``) and takes the cell of the joint outcome (heads,
    mistake, Charlie) that the word falls in, by inverse CDF over exact
    integer bounds (``_exact_bounds``).  So results depend only on (seed,
    n_trials, policy, mode).

    The chunks run in order on the calling thread, which sums their
    tallies and, on a traced run, calls the sink after each chunk.
    """
    tables = _cell_tables(config.policy, config.mode)
    traced = collect_traces is not None
    work = _Workspace(min(_BLOCK, config.n_trials))
    code_tally = np.zeros(_FALLBACK + 1, dtype=np.int64)
    for chunk_index in range(-(-config.n_trials // _CHUNK)):
        chunk_tally, chunk = _run_chunk(config, chunk_index, tables, work, traced)
        code_tally += chunk_tally
        if traced:
            collect_traces(chunk)

    joint = code_tally[:_FALLBACK].reshape(len(_STATE_OF_BRANCH), len(CHARLIE_LABELS))  # branch by Charlie
    states = [int(joint[_STATE_OF_BRANCH == state].sum()) for state in range(len(STATE_LABELS))]
    return RunResult(
        resultant_states=OutcomeDistribution.from_counts(dict(zip(STATE_LABELS, states))),
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
