"""A reference sampler of the seed -> output contract (contract 2), written
from the README's paragraph on determinism alone.

It evolves Alice's registers with the protocol's matrices to find each
resultant state and takes Charlie's Born tables from
``core.born_probabilities``; it reads neither ``protocol.RECORDS`` nor the
kernel's tables, and it computes the bounds with ``fractions``.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from wigner_lab import core, protocol

CHUNK = 1 << 16
STATES = ("AB", "ABht", "ABth")
CHARLIE = ("ok_ok", "ok_fail", "fail_ok", "fail_fail")
HEADS, TAILS = protocol.AliceOutcome.HEADS, protocol.AliceOutcome.TAILS


def chunk_words(seed: int, chunk: int, m: int) -> np.ndarray:
    """The raw words of one chunk, one per trial."""
    return np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)).random_raw(m)


def charlie(state: str) -> list[float]:
    """The Born probabilities of Charlie's outcomes on a named state."""
    named = protocol.named_states()[f"psi_{state}"]
    dist = core.born_probabilities(named, [protocol.charlie_basis("A"), protocol.charlie_basis("B")])
    return [dist.probability(label) for label in CHARLIE]


def resultant(heads: int, apply_h0: int) -> int:
    """The index of the named state that Alice's register reaches."""
    register = protocol.initial_register(HEADS if heads else TAILS)
    evolved = protocol.evolve(register, protocol.reset_matrix(HEADS if apply_h0 else TAILS))
    named = protocol.named_states()
    return next(i for i, s in enumerate(STATES) if np.allclose(evolved.amplitudes, named[f"psi_{s}"].amplitudes))


def weights(eps: float | None, mode: str, parity: int) -> list[Fraction]:
    """Each cell's exact weight, in the contract's order; eps None is alternating."""
    if mode == "analytic":
        return [Fraction(p) for p in charlie("AB")]
    cells = []
    for heads in (0, 1):
        for mistake in (0, 1):
            apply_h0 = heads ^ mistake
            p_mistake = float(apply_h0 == (parity == 0)) if eps is None else (eps if mistake else 1.0 - eps)
            p_heads = protocol.P_HEADS if heads else 1.0 - protocol.P_HEADS
            state = resultant(heads, apply_h0)
            cells += [Fraction(p_heads) * Fraction(p_mistake) * Fraction(p) for p in charlie(STATES[state])]
    return cells


@lru_cache(maxsize=None)
def cells(eps: float | None, mode: str, parity: int) -> list[int]:
    """The bounds b_0 .. b_K, b_k = floor(2**64 S_k / S)."""
    w = weights(eps, mode, parity)
    return [sum(w[:k]) * 2**64 // sum(w) for k in range(len(w) + 1)]


def outcome_codes(seed: int, n: int, eps: float | None, mode: str, words=chunk_words) -> np.ndarray:
    """One TraceChunk outcome code per trial: the cell k with b_k <= w < b_k+1,
    or 16 + k in analytic mode."""
    codes = [np.empty(0, dtype=np.uint8)]
    for start in range(0, n, CHUNK):
        w = words(seed, start // CHUNK, min(CHUNK, n - start))
        code, parity = np.empty(len(w), dtype=np.uint8), (start + np.arange(len(w))) % 2
        for p in (0, 1):
            bounds = np.array([b for b in cells(eps, mode, p) if b < 2**64], dtype=np.uint64)
            k = np.searchsorted(bounds, w, side="right") - 1
            code[parity == p] = k[parity == p] + (16 if mode == "analytic" else 0)
        codes.append(code)
    return np.concatenate(codes)
