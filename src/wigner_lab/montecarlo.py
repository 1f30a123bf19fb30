"""End-to-end sampling of the protocol under configurable mistake policies.

Each trial samples Alice's record, selects the evolution keyed to it (or,
on a mistake, to the opposite record), and lets Charlie measure the joint
Hadamard-basis observable on the resulting register.

Randomness is counter-based (Philox keyed by master seed and chunk index)
so results depend only on (seed, trial index): serial and parallel
execution schedules produce bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import core, protocol
from .core import OutcomeDistribution

P_HEADS = 1.0 / 3.0

STATE_LABELS = ("AB", "ABht", "ABth")
CHARLIE_LABELS = ("ok_ok", "ok_fail", "fail_ok", "fail_fail")

_CHUNK = 1 << 16

POLICY_KINDS = ("correct", "uniform", "alternating", "biased")
MODES = ("collapse", "analytic")


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
    def always_correct(cls) -> MistakePolicy:
        return cls("correct")

    @classmethod
    def uniform_random(cls) -> MistakePolicy:
        return cls("uniform")

    @classmethod
    def alternating(cls) -> MistakePolicy:
        return cls("alternating")

    @classmethod
    def biased(cls, epsilon: float) -> MistakePolicy:
        return cls("biased", float(epsilon))

    @classmethod
    def parse(cls, text: str) -> MistakePolicy:
        """Parse ``correct | uniform | alternating | biased:<eps>``."""
        if text in ("correct", "uniform", "alternating"):
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
    """Per-trial columns of trials ``start .. start + len(state_idx) - 1``.

    ``heads`` is Alice's record and ``apply_h0`` whether ``A_h0`` (else
    ``A_t01``) was applied; both are None in analytic mode, where Charlie
    measures the target state directly.  ``state_idx`` and ``charlie_idx``
    index ``STATE_LABELS`` and ``CHARLIE_LABELS``.
    """

    start: int
    heads: np.ndarray | None
    apply_h0: np.ndarray | None
    state_idx: np.ndarray
    charlie_idx: np.ndarray


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
    cumulative = [
        np.cumsum([core.born_probabilities(state, bases).probability(k) for k in CHARLIE_LABELS])
        for state in (protocol.target_state(), *map(protocol.wrong_state, protocol.WrongStateLabel))
    ]
    return np.array(cumulative)[:, :-1].T.copy()


def _chunk_uniforms(seed: int, chunk_index: int, m: int) -> np.ndarray:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.random((m, 3))


def run_trials(config: TrialConfig, collect_traces: Callable[[TraceChunk], None] | None = None) -> RunResult:
    """Run the protocol ``config.n_trials`` times, one chunk of ``_CHUNK``
    trials at a time; ``collect_traces``, when given, receives each chunk's
    per-trial columns in trial order, and nothing per trial is kept.

    Trial ``i`` uses row ``i % _CHUNK`` of the uniforms keyed by (seed,
    ``i // _CHUNK``): column 0 draws Alice's record, column 1 the mistake
    and column 2 Charlie's outcome.  So results depend only on (seed,
    n_trials, policy, mode), whatever the execution schedule.
    """
    thresholds = _charlie_thresholds()
    state_counts = np.zeros(len(STATE_LABELS), dtype=np.int64)
    charlie_counts = np.zeros(len(CHARLIE_LABELS), dtype=np.int64)
    eps = config.policy.mistake_probability
    for chunk_index, start in enumerate(range(0, config.n_trials, _CHUNK)):
        m = min(_CHUNK, config.n_trials - start)
        u = _chunk_uniforms(config.seed, chunk_index, m)

        if config.mode == "analytic":
            heads = apply_h0 = None
            state_idx = np.zeros(m, dtype=np.int64)
        else:
            heads = u[:, 0] < P_HEADS
            if config.policy.kind == "alternating":
                apply_h0 = (start + np.arange(m)) % 2 == 0
            else:
                apply_h0 = heads ^ (u[:, 1] < eps)
            # matching transform -> AB; heads hit by A_t01 -> ABht; tails by A_h0 -> ABth
            state_idx = np.where(apply_h0 == heads, 0, np.where(heads, 1, 2))
            if not np.array_equal(state_idx == 0, apply_h0 == heads):
                raise AssertionError("resultant state must be AB exactly when the transform matches the record")

        # Charlie's index is the number of cumulative bounds <= u, the same
        # integer as searchsorted(side="right") clamped to the last label.
        charlie_u = u[:, 2]
        charlie_idx = np.zeros(m, dtype=np.int64)
        for bound in thresholds:
            charlie_idx += charlie_u >= bound[state_idx]

        state_counts += np.bincount(state_idx, minlength=len(STATE_LABELS))
        charlie_counts += np.bincount(charlie_idx, minlength=len(CHARLIE_LABELS))
        if collect_traces is not None:
            collect_traces(TraceChunk(start, heads, apply_h0, state_idx, charlie_idx))

    return RunResult(
        resultant_states=OutcomeDistribution.from_counts(dict(zip(STATE_LABELS, state_counts.tolist()))),
        charlie=OutcomeDistribution.from_counts(dict(zip(CHARLIE_LABELS, charlie_counts.tolist()))),
    )


def analytic_mistake_table(policy: MistakePolicy) -> OutcomeDistribution:
    """Closed-form resultant-state distribution: (1-eps, eps/3, 2*eps/3)."""
    eps = policy.mistake_probability
    if eps is None:
        raise ValueError("alternating policy has no per-trial closed form; sample it with run_trials")
    return OutcomeDistribution.from_probabilities(
        {"AB": 1.0 - eps, "ABht": eps * P_HEADS, "ABth": eps * (1.0 - P_HEADS)}
    )


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
