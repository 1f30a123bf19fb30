"""End-to-end sampling of the protocol under configurable mistake policies.

Each trial samples Alice's record, selects the evolution keyed to it (or,
on a mistake, to the opposite record), and lets Charlie measure the joint
Hadamard-basis observable on the resulting register.

Trial ``i`` reads word ``i`` of the seed's PCG64DXSM stream, which
``advance`` reaches from the trial index alone, so results depend only on
(seed, trial index).  A run reads its one stream through its chunks in
order on the calling thread, sums their integer tallies and, when traced,
calls the sink with each chunk in trial order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from . import core, protocol
from .core import OutcomeDistribution

STATE_LABELS = ("AB", *(label.value for label in protocol.WrongStateLabel))
CHARLIE_LABELS = tuple(core.LABEL_SEP.join((a, b)) for a in protocol.CHARLIE_LABELS for b in protocol.CHARLIE_LABELS)

_CHUNK = 1 << 16
# Trials per block inside a chunk: a block's words, buckets, codes and the
# odd-trial offsets (about 0.4 MB) stay in a core's 2 MB L2 cache.  Even,
# like _CHUNK, so every block starts at an even trial index.
_BLOCK = 1 << 14

# A word's guide bucket is its top 16 bits: 65 536 buckets per trial parity.
_BUCKET_SHIFT = 48
_BUCKETS = 1 << (64 - _BUCKET_SHIFT)
_BUCKET_LOW = (1 << _BUCKET_SHIFT) - 1
# The odd trials of a block read the second set of buckets (alternating only).
_ODD_BUCKETS = np.arange(_BLOCK) % 2 * _BUCKETS

# The seed -> output contract: bumped whenever a seed's output changes.
CONTRACT = 3
WORDS_PER_TRIAL = 1

POLICY_KINDS = ("correct", "uniform", "alternating", "biased")
MODES = ("collapse", "analytic")
# ``simulate --check`` passes a label within this many binomial standard deviations.
SIGMA_BOUND = 4.0

# A trial's outcome code is its cell (see ``_cell_weights``), ``branch *
# 4 + charlie_idx``, where branches 0 .. 3 index protocol.BRANCHES and 4 is
# analytic mode's.  Per branch: whether Alice saw heads, whether A_h0 was
# applied, and its resultant state (AB in analytic mode).
_HEADS_OF_BRANCH = np.array([alice is protocol.AliceOutcome.HEADS for alice, _, _ in protocol.BRANCHES])
_H0_OF_BRANCH = np.array([transform == "A_h0" for _, transform, _ in protocol.BRANCHES])
_STATE_OF_BRANCH = np.array([STATE_LABELS.index(state) for _, _, state in protocol.BRANCHES] + [0], np.intp)
_ANALYTIC = 16  # the first code of analytic mode
# The guide-table code of a bucket with a cell bound strictly inside it.
_FALLBACK = len(_STATE_OF_BRANCH) * len(CHARLIE_LABELS)


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
            # the cell bounds and ``spec`` read eps as a double; + 0.0 turns -0.0 into 0.0
            object.__setattr__(self, "epsilon", float(self.epsilon) + 0.0)
        elif self.epsilon is not None:
            raise ValueError(f"policy {self.kind!r} does not take an epsilon")

    @classmethod
    def biased(cls, epsilon: float) -> MistakePolicy:
        return cls("biased", epsilon)

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
        for name in ("n_trials", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
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
    ``_cell_weights``): ``branch * 4 + charlie_idx`` in collapse mode, 0 .. 15,
    where the branch ``heads * 2 + mistake`` indexes ``protocol.BRANCHES``,
    and ``16 + charlie_idx`` in analytic mode, where Charlie measures the
    target state.  The properties decode the columns from the branch's
    entry: ``heads`` is Alice's record and ``apply_h0`` whether ``A_h0``
    (else ``A_t01``) was applied, both None in analytic mode; ``state_idx``
    and ``charlie_idx`` index ``STATE_LABELS`` and ``CHARLIE_LABELS``.
    """

    start: int
    outcome: np.ndarray

    @property
    def _analytic(self) -> bool:
        return not self.outcome.size or self.outcome[0] >= _ANALYTIC

    @property
    def heads(self) -> np.ndarray | None:
        return None if self._analytic else _HEADS_OF_BRANCH[self.outcome // len(CHARLIE_LABELS)]

    @property
    def apply_h0(self) -> np.ndarray | None:
        return None if self._analytic else _H0_OF_BRANCH[self.outcome // len(CHARLIE_LABELS)]

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
def _charlie_born() -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per resultant state, the Born probabilities of Charlie's outcomes, in
    ``CHARLIE_LABELS`` order, each double as its exact ``as_integer_ratio()``
    pair: the only Born table the sampler reads."""
    bases = [protocol.charlie_basis("A"), protocol.charlie_basis("B")]
    states = protocol.named_states()
    rows = (core.born_probabilities(states[f"psi_{label}"], bases) for label in STATE_LABELS)
    return tuple(tuple(row.probability(k).as_integer_ratio() for k in CHARLIE_LABELS) for row in rows)


def _branches(policy: MistakePolicy, parity: int = 0) -> tuple[MechanismRow, ...]:
    """The mistake mechanism, the one place it is derived: the
    ``MechanismRow`` of each branch of ``protocol.BRANCHES``, in branch
    order ``heads * 2 + mistake``.  The transform's probability is eps for
    a mistake and 1 - eps otherwise, or under ``alternating`` 1 for the
    transform the trial's parity applies (A_h0 on even trials) and 0 for
    the other.  Checks that the resultant state is AB exactly when there is
    no mistake."""
    eps = policy.mistake_probability
    rows = []
    for branch, (alice, transform, state) in enumerate(protocol.BRANCHES):
        heads, mistake = divmod(branch, 2)
        if (state == "AB") == mistake:
            raise AssertionError("resultant state must be AB exactly when the transform matches the record")
        register = "psi_h0" if alice is protocol.AliceOutcome.HEADS else "psi_t01"
        p_record = protocol.P_HEADS if heads else 1.0 - protocol.P_HEADS
        p_transform = float((transform == "A_h0") != parity) if eps is None else eps if mistake else 1.0 - eps
        rows.append(MechanismRow(register, p_record, transform, p_transform, state, p_record * p_transform))
    return tuple(rows)


def _cell_weights(policy: MistakePolicy, mode: str, parity: int = 0) -> list[int]:
    """Each cell's weight in the contract's order, ``branch * 4 +
    charlie_idx`` (see ``_branches``): P(record) * P(transform | record) *
    P(Charlie's outcome), or in analytic mode, where Charlie measures the
    target state, the Born row of AB alone.  Exact, as integers at one
    power-of-two scale (a double's denominator is a power of two).  A
    cell's ``TraceChunk`` outcome code is its index, plus ``_ANALYTIC`` in
    analytic mode."""
    born = _charlie_born()
    if mode == "analytic":
        cells = born[0]
    else:
        cells = []
        for row in _branches(policy, parity):
            (n0, d0), (n1, d1) = row.p_initial.as_integer_ratio(), row.p_transform.as_integer_ratio()
            cells += [(n0 * n1 * n, d0 * d1 * d) for n, d in born[STATE_LABELS.index(row.resultant_state)]]
    scale = max(d for _, d in cells)
    return [n * (scale // d) for n, d in cells]


class _CellTables(NamedTuple):
    """The inverse-CDF lookup of one setting (policy and mode).

    A trial's word ``w`` falls in cell ``k`` when ``bounds[k] <= w <
    bounds[k + 1]`` (``_setting_bounds``).  The guide table splits the words
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
    """The cell bounds ``floor(2**64 * S_k / S)`` of a setting, exactly, one
    list per trial parity: two for ``alternating`` in collapse mode, else
    one.  ``S_k`` sums the first k cells' weights (``_cell_weights``)."""
    parities = (0, 1) if policy.mistake_probability is None and mode == "collapse" else (0,)
    sums = [list(accumulate(_cell_weights(policy, mode, parity), initial=0)) for parity in parities]
    return [[(s_k << 64) // s[-1] for s_k in s] for s in sums]


# A counts-stream window cycles through exactly 8 settings (correct, uniform, alternating,
# analytic uniform, one biased eps per size): every call after the first window hits, and a
# ninth would make every call miss.  cli-mix's simulate reuses 3 policies and draws each biased eps fresh.
@lru_cache(maxsize=8)
def _cell_tables(policy: MistakePolicy, mode: str) -> _CellTables:
    """Build the guide tables of a setting from its exact cell bounds."""
    first = _ANALYTIC if mode == "analytic" else 0
    interiors = [[bound for bound in bounds[1:] if bound < 1 << 64] for bounds in _setting_bounds(policy, mode)]
    code = np.concatenate([_guide(interior, first) for interior in interiors])
    return _CellTables(code, tuple(np.array(interior, dtype=np.uint64) for interior in interiors), first)


def provenance() -> dict:
    """What decides a run's output besides its ``TrialConfig``: the random
    stream (numpy's PCG64DXSM seeded with the seed), the raw words each
    trial reads and the contract's number.  Neither the chunk size, nor the
    numpy or the package version is in it: the output does not depend on
    them."""
    return {"rng": "pcg64dxsm", "words_per_trial": WORDS_PER_TRIAL, "contract": CONTRACT}


def _look_up_exactly(tables: _CellTables, words: np.ndarray, code: np.ndarray) -> None:
    """Replace each ``_FALLBACK`` code of a block by the code of its word's
    cell, counted exactly by ``searchsorted`` over the cell bounds."""
    at = (code == _FALLBACK).nonzero()[0]
    by_parity = len(tables.interior) == 2
    for parity, interior in enumerate(tables.interior):
        here = at[at % 2 == parity] if by_parity else at  # blocks start at even trial indices
        code[here] = np.searchsorted(interior, words[here], side="right") + tables.first


def _tally(code: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The tally of the uint8 ``code`` in ``_FALLBACK + 1`` bins, from one
    ``bincount`` of two codes per key: each pair, read as one uint16 ``lo +
    256 * hi`` and copied into the run's intp buffer ``keys`` (``bincount``
    would cast into a fresh one), lands in a 21 x 256 grid whose rows count
    the codes ``hi`` and whose first 21 columns the codes ``lo``, in either
    byte order.  An odd last code is added alone."""
    pairs = keys[: len(code) // 2]
    pairs[...] = code[: 2 * len(pairs)].view(np.uint16)
    grid = np.bincount(pairs, minlength=(_FALLBACK + 1) << 8).reshape(_FALLBACK + 1, -1)[:, : _FALLBACK + 1]
    tally = (grid + grid.T).sum(axis=0)  # no code lies past _FALLBACK, so each row is whole
    if len(code) % 2:
        tally[code[-1]] += 1
    return tally


def _run_chunk(draw_words: Callable, tables: _CellTables, code: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Write into ``code`` the outcome codes of a chunk, whose words
    ``draw_words``, the run's ``random_raw``, returns in trial order, and
    return their tally.
    A block of ``_BLOCK`` trials draws one raw word per trial, shifts it to
    its bucket in ``work``, the run's intp buffer, and takes its code from
    the guide table (see ``_CellTables``); a ``_FALLBACK`` code, under four
    a block, is rewritten by ``_look_up_exactly``.  The chunk then tallies
    its codes once (``_tally``, with ``work`` as its keys).  Beyond the
    words ``random_raw`` returns, no numpy temporary of 128 KiB or more
    (glibc's mmap threshold) is made per block or chunk.  RuntimeError when
    the tally does not sum to the chunk's trials.
    """
    by_parity = len(tables.interior) == 2
    for lo in range(0, len(code), _BLOCK):
        words = draw_words(min(_BLOCK, len(code) - lo))
        bucket = work[: len(words)]
        np.right_shift(words, np.uint64(_BUCKET_SHIFT), out=bucket.view(np.uint64))
        if by_parity:
            bucket += _ODD_BUCKETS[: len(words)]
        # Every index is in range; mode="clip" writes into out, "raise" would copy it.
        block = tables.code.take(bucket, out=code[lo : lo + len(words)], mode="clip")
        if block.max() == _FALLBACK:
            _look_up_exactly(tables, words, block)
        del words  # freed before the next draw, whose 128 KiB then reuses its pages
    tally = _tally(code, work)
    if tally.sum() != len(code):
        raise RuntimeError(f"a chunk tallied {tally.sum()} codes for its {len(code)} trials")
    return tally


def run_trials(config: TrialConfig, collect_traces: Callable[[TraceChunk], None] | None = None) -> RunResult:
    """Run the protocol ``config.n_trials`` times, one chunk of ``_CHUNK``
    trials at a time; ``collect_traces``, when given, receives each chunk's
    ``TraceChunk`` of per-trial outcome codes in trial order, and nothing
    per trial is kept.

    Trial ``i`` reads word ``i`` of ``PCG64DXSM(seed)``'s stream and takes
    the cell of the joint outcome (heads, mistake, Charlie) that the word
    falls in, by inverse CDF over exact integer bounds
    (``_setting_bounds``).  So results depend only on (seed, n_trials,
    policy, mode), and not on the chunk size.

    The chunks run in order on the calling thread, which sums their
    tallies and, on a traced run, calls the sink after each chunk.  The run
    owns its PCG64DXSM and the chunks' buffers: no other run shares them.
    Each chunk writes its codes into an array of its own, a traced run's
    ``TraceChunk.outcome``; at 64 KiB, below glibc's mmap threshold, malloc
    reuses its memory.
    """
    tables = _cell_tables(config.policy, config.mode)
    n = config.n_trials
    draw_words = np.random.PCG64DXSM(config.seed).random_raw
    work = np.empty(min(n, _CHUNK // 2), dtype=np.intp)  # a block's buckets, then a chunk's pair keys
    code_tally = np.zeros(_FALLBACK + 1, dtype=np.int64)
    for start in range(0, n, _CHUNK):
        code = np.empty(min(_CHUNK, n - start), dtype=np.uint8)
        code_tally += _run_chunk(draw_words, tables, code, work)
        if collect_traces is not None:
            collect_traces(TraceChunk(start, code))

    joint = code_tally[:_FALLBACK].reshape(len(_STATE_OF_BRANCH), len(CHARLIE_LABELS))  # branch by Charlie
    states = [0] * len(STATE_LABELS)
    for state, count in zip(_STATE_OF_BRANCH.tolist(), joint.sum(axis=1).tolist()):  # faster than a mask per state
        states[state] += count
    return RunResult(
        resultant_states=OutcomeDistribution.from_counts(dict(zip(STATE_LABELS, states))),
        charlie=OutcomeDistribution.from_counts(dict(zip(CHARLIE_LABELS, joint.sum(axis=0).tolist()))),
    )


def mechanism_rows(policy: MistakePolicy) -> tuple[MechanismRow, ...]:
    """The four branches of ``protocol.BRANCHES`` (see ``_branches``), heads
    first (branches 2, 3, 1, 0): Alice's register, the transform applied
    and the resultant state, with their probabilities and the joint one."""
    if policy.mistake_probability is None:
        raise ValueError("alternating policy has no per-trial closed form; sample it with run_trials")
    rows = _branches(policy)
    return tuple(rows[branch] for branch in (2, 3, 1, 0))


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
