"""Canonical states, bases, and unitaries of the extended Wigner's friend
protocol, plus the four-condition paradox audit.

Alice privately measures a biased coin qubit in {h, t}, prepares a second
qubit conditioned on her record, and evolves the two-qubit register to a
shared entangled target state.  A super-observer (Charlie) measures both
qubits in Hadamard-rotated {ok, fail} bases.  The "wrong" states arise when
the evolution keyed to the opposite record is applied by mistake.

Index convention: qubit A is most significant, with |h> = |0>, |t> = |1>.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import sqrt

import numpy as np

from . import core
from .core import (
    ExpansionCoefficients,
    Frame,
    MeasurementBasis,
    SquareUnitary,
    StateVector,
    computational_basis,
    tensor_frame,
)

AUDIT_TOL = 1e-9


class AliceOutcome(Enum):
    """Alice's record of her first-qubit measurement."""

    HEADS = "h"
    TAILS = "t"


class WrongStateLabel(Enum):
    """Which mismatched evolution produced the register state."""

    ABHT = "ABht"  # heads register hit by the tails-keyed evolution
    ABTH = "ABth"  # tails register hit by the heads-keyed evolution


ALICE_LABELS = tuple(outcome.value for outcome in AliceOutcome)
BOB_LABELS = ("0", "1")
CHARLIE_LABELS = ("ok", "fail")

# The protocol's four branches by branch code heads * 2 + mistake: Alice's
# outcome, the evolution applied to her register and the register state
# that follows.  The evolution keyed to her outcome leaves AB; the other
# one is a mistake.
BRANCHES = (
    (AliceOutcome.TAILS, "A_t01", "AB"),
    (AliceOutcome.TAILS, "A_h0", "ABth"),
    (AliceOutcome.HEADS, "A_h0", "AB"),
    (AliceOutcome.HEADS, "A_t01", "ABht"),
)


@dataclass(frozen=True)
class ParadoxReport:
    """The four jointly contradictory quantities for a two-qubit state.

    The flag fires when the three amplitudes vanish (within ``tol``) while
    the joint (ok, ok) outcome keeps nonzero probability.
    """

    amp_h1: complex
    amp_0okA: complex
    amp_tokB: complex
    p_okok: float
    contradiction_flag: bool


@lru_cache(maxsize=None)
def alice_first_qubit() -> StateVector:
    """The biased coin qubit sqrt(1/3)|h> + sqrt(2/3)|t>."""
    return StateVector([sqrt(1 / 3), sqrt(2 / 3)])


# The coin's Born weight for heads, 1/3 to the last bit.
P_HEADS = float(abs(alice_first_qubit().amplitudes[0]) ** 2)


@lru_cache(maxsize=None)
def prepare_second_qubit(outcome: AliceOutcome) -> StateVector:
    """|0> after heads; the even superposition of |0> and |1> after tails."""
    if outcome is AliceOutcome.HEADS:
        return StateVector([1.0, 0.0])
    return StateVector([sqrt(1 / 2), sqrt(1 / 2)])


@lru_cache(maxsize=None)
def initial_register(outcome: AliceOutcome) -> StateVector:
    """Two-qubit register right after Alice's conditional preparation."""
    return core.tensor(alice_first_qubit(), prepare_second_qubit(outcome))


@lru_cache(maxsize=None)
def reset_matrix(outcome: AliceOutcome) -> SquareUnitary:
    """Unitary taking the initial register for ``outcome`` onto |00>."""
    r3, r6 = sqrt(1 / 3), sqrt(1 / 6)
    if outcome is AliceOutcome.HEADS:
        r23 = sqrt(2 / 3)
        rows = [
            [r3, 0.0, r23, 0.0],
            [0.0, r3, 0.0, -r23],
            [r23, 0.0, -r3, 0.0],
            [0.0, r23, 0.0, r3],
        ]
    else:
        rows = [
            [r6, r6, r3, r3],
            [r3, r3, -r6, -r6],
            [-r6, r6, r3, -r3],
            [r3, -r3, r6, -r6],
        ]
    return SquareUnitary(rows)


@lru_cache(maxsize=None)
def entangle_matrix() -> SquareUnitary:
    """Unitary taking |00> onto the shared entangled target state."""
    r3 = sqrt(1 / 3)
    rows = [
        [r3, 0.0, sqrt(1 / 2), sqrt(1 / 6)],
        [0.0, 1.0, 0.0, 0.0],
        [r3, 0.0, -sqrt(1 / 2), sqrt(1 / 6)],
        [r3, 0.0, 0.0, -sqrt(2 / 3)],
    ]
    return SquareUnitary(rows)


@lru_cache(maxsize=None)
def target_state() -> StateVector:
    """The entangled register sqrt(1/3)(|h0> + |t0> + |t1>); |h1> is absent."""
    r3 = sqrt(1 / 3)
    return StateVector([r3, 0.0, r3, r3])


@lru_cache(maxsize=None)
def charlie_basis(which: str) -> MeasurementBasis:
    """Hadamard-rotated basis {ok, fail} for subsystem ``which`` ("A" or "B")."""
    if which not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {which!r}")
    r = sqrt(1 / 2)
    vectors = np.array([[r, r], [-r, r]])
    return MeasurementBasis(vectors, CHARLIE_LABELS)


def evolve(register: StateVector, transform: SquareUnitary) -> StateVector:
    """``transform`` applied to ``register``, then the entangling unitary R."""
    return core.apply(entangle_matrix(), core.apply(transform, register))


def _evolve_record(alice: AliceOutcome, transform: str) -> StateVector:
    return evolve(initial_register(alice), named_matrices()[transform])


@lru_cache(maxsize=None)
def wrong_state(label: WrongStateLabel) -> StateVector:
    """Register state after the evolution keyed to the opposite record."""
    return next(_evolve_record(alice, transform) for alice, transform, state in BRANCHES if state == label.value)


@lru_cache(maxsize=None)
def alice_basis() -> MeasurementBasis:
    return computational_basis(ALICE_LABELS)


@lru_cache(maxsize=None)
def bob_basis() -> MeasurementBasis:
    return computational_basis(BOB_LABELS)


@lru_cache(maxsize=None)
def _audit_bases() -> tuple[MeasurementBasis, MeasurementBasis, MeasurementBasis]:
    """The audit's three two-qubit bases, built once: Charlie's on A with
    Bob's, Alice's with Charlie's on B, and Charlie's on both."""
    charlie_a, charlie_b = charlie_basis("A"), charlie_basis("B")
    return (
        tensor_frame(charlie_a, bob_basis()),
        tensor_frame(alice_basis(), charlie_b),
        tensor_frame(charlie_a, charlie_b),
    )


def paradox_audit(state: StateVector, tol: float = AUDIT_TOL) -> ParadoxReport:
    """Compute the four quantities whose joint pattern is contradictory:
    the |h1> amplitude, the |0>|ok>_A and |t>|ok>_B expansion coefficients,
    and the joint (ok, ok) probability.

    One ``tol`` serves both sides of the flag: each of the three amplitudes
    must be at most ``tol`` in magnitude, and P(ok, ok) must exceed ``tol``.
    On the target state the amplitudes are below 1e-17 and P(ok, ok) is
    1/12, so any ``tol`` between those passes both tests.
    """
    if state.num_qubits != 2:
        raise ValueError(f"audit requires a 2-qubit state, got {state.num_qubits} qubits")
    amp_h1 = complex(state.amplitudes[1])
    basis_a, basis_b, basis_ab = _audit_bases()
    amp_0okA = core.change_basis(state, [basis_a]).coefficient("ok_0")
    amp_tokB = core.change_basis(state, [basis_b]).coefficient("t_ok")
    joint = core.change_basis(state, [basis_ab])
    p_okok = abs(joint.coefficient("ok_ok")) ** 2
    flag = (
        abs(amp_h1) <= tol
        and abs(amp_0okA) <= tol
        and abs(amp_tokB) <= tol
        and p_okok > tol
    )
    return ParadoxReport(amp_h1, amp_0okA, amp_tokB, p_okok, flag)


_FRAME_VIEWS = ("bs", "as")


@lru_cache(maxsize=None)
def _substitution_frame(view: str) -> Frame:
    # View q puts Charlie's fail vector in column q of qubit q's basis: it
    # eliminates |h> = sqrt(2)|fail>_A - |t> ("bs") or |1> = sqrt(2)|fail>_B - |0> ("as").
    q = _FRAME_VIEWS.index(view)
    factors: list[Frame] = [alice_basis(), bob_basis()]
    vectors, labels = factors[q].vectors.copy(), list(factors[q].labels)
    vectors[:, q], labels[q] = charlie_basis("AB"[q]).vectors[:, 1], CHARLIE_LABELS[1]
    factors[q] = Frame(vectors, labels)
    return tensor_frame(*factors)


def frame_view(state: StateVector, view: str) -> ExpansionCoefficients:
    """Expand a two-qubit state over one of the substitution frames.

    ``"bs"``: {fail_A, t} x {0, 1} in the order fail_0, fail_1, t_0, t_1.
    ``"as"``: {h, t} x {0, fail_B} in the order h_0, h_fail, t_0, t_fail.
    """
    if state.num_qubits != 2:
        raise ValueError(f"frame views require a 2-qubit state, got {state.num_qubits} qubits")
    if view.lower() not in _FRAME_VIEWS:
        raise ValueError(f"unknown view {view!r}, expected 'bs' or 'as'")
    return core.expand_in_frame(state, _substitution_frame(view.lower()))


# ---------------------------------------------------------------------------
# Named registry exposed to the CLI.

def named_states() -> dict[str, StateVector]:
    return {
        "psi_A": alice_first_qubit(),
        "psi_AB": target_state(),
        "psi_h0": initial_register(AliceOutcome.HEADS),
        "psi_t01": initial_register(AliceOutcome.TAILS),
        **{f"psi_{label.value}": wrong_state(label) for label in WrongStateLabel},
    }


def named_matrices() -> dict[str, SquareUnitary]:
    return {
        "A_h0": reset_matrix(AliceOutcome.HEADS),
        "A_t01": reset_matrix(AliceOutcome.TAILS),
        "R": entangle_matrix(),
    }


def lookup(key: str) -> StateVector | SquareUnitary:
    """Resolve a registry key to its canonical state or matrix."""
    states = named_states()
    if key in states:
        return states[key]
    matrices = named_matrices()
    if key in matrices:
        return matrices[key]
    raise KeyError(f"unknown registry key {key!r}; states: {', '.join(states)}; matrices: {', '.join(matrices)}")


# ---------------------------------------------------------------------------
# The constant checks behind `wigner-lab verify`.


def verification_checks() -> list[tuple[str, float]]:
    """(name, deviation) for each constant the protocol rests on: the
    unitarity of A_h0, A_t01 and R, both evolutions reaching the target
    state, and the target's joint Charlie coefficients (1, -1, 1, 3)/sqrt(12)."""
    checks = [(f"unitary_{key}", core.is_unitary(mat).max_deviation) for key, mat in named_matrices().items()]
    target = target_state().amplitudes
    for alice, transform, state in reversed(BRANCHES):  # heads first
        if state == "AB":
            evolved = _evolve_record(alice, transform)
            checks.append((f"evolution_{alice.name.lower()}", float(np.linalg.norm(evolved.amplitudes - target))))
    expansion = core.change_basis(target_state(), [charlie_basis("A"), charlie_basis("B")])
    expected = np.array([np.sqrt(1 / 12), -np.sqrt(1 / 12), np.sqrt(1 / 12), np.sqrt(9 / 12)])
    checks.append(("charlie_coefficients", float(np.abs(expansion.coefficients - expected).max())))
    return checks
