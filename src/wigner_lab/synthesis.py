"""Deterministic synthesis of unitaries mapping a unit vector to the first
basis vector and back, via a single phase-adjusted Householder reflection.
Works in any dimension >= 1, not only qubit registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SquareUnitary, StateVector

NORM_TOL = 1e-8
RESIDUAL_TOL = 1e-10
_DEGENERATE = 1e-12


@dataclass(frozen=True)
class SynthesisResult:
    matrix: SquareUnitary
    residual: float

    def __post_init__(self):
        if self.residual > RESIDUAL_TOL:
            raise ValueError(f"synthesis residual {self.residual!r} exceeds {RESIDUAL_TOL!r}")


def unit_vector(v) -> np.ndarray:
    """``v``, a StateVector or amplitudes, over its norm, which must be finite
    and within ``NORM_TOL`` of 1: the one input check of ``synth`` and of both
    synthesize functions.  An empty, zero, NaN or infinite vector fails it."""
    vec = np.asarray(v.amplitudes if isinstance(v, StateVector) else v, dtype=np.complex128).reshape(-1)
    with np.errstate(over="ignore"):  # a huge entry makes the norm inf: refused
        norm = float(np.linalg.norm(vec))
    if not math.isfinite(norm) or abs(norm - 1.0) > NORM_TOL:  # a NaN norm fails every compare
        raise ValueError(f"input is not a unit vector: norm = {norm!r}")
    return vec / norm


def _phase_reflection(vec: np.ndarray) -> tuple[complex, np.ndarray]:
    """alpha, the phase of the unit vector's first entry, and the Householder
    reflection H about w = vec - alpha*e0, so that H vec = alpha*e0; for
    vec within 1e-12 of alpha*e0 the reflection degenerates and H is I.

    w's first entry, alpha*(|vec[0]| - 1), is computed without cancellation
    as -alpha*|vec[1:]|^2 / (1 + |vec[0]|) (Parlett 1971; Golub & Van Loan,
    Algorithm 5.1.1), which keeps H accurate for vec near alpha*e0.
    """
    dim = vec.size
    # the phase of v[0]; a subnormal v[0] has no finite reciprocal, so it gets phase 1, as 0 does
    alpha = vec[0] / abs(vec[0]) if abs(vec[0]) >= np.finfo(np.float64).tiny else 1.0 + 0.0j
    tail2 = float(np.vdot(vec[1:], vec[1:]).real)
    w = vec.copy()
    w[0] = -alpha * (tail2 / (1.0 + abs(vec[0])))
    wnorm2 = float(abs(w[0])) ** 2 + tail2
    if np.sqrt(wnorm2) < _DEGENERATE:
        return alpha, np.eye(dim, dtype=np.complex128)
    return alpha, np.eye(dim, dtype=np.complex128) - (2.0 / wnorm2) * np.outer(w, w.conj())


def synthesize_to_e0(v) -> SynthesisResult:
    """Unitary U with U v = e0 exactly in phase (no residual global phase).

    U is the Householder reflection about v - alpha*e0 (alpha the phase of
    v[0]), rescaled by conj(alpha); for v within 1e-12 of alpha*e0 the
    reflection degenerates and conj(alpha)*I is returned.
    """
    vec = unit_vector(v)
    alpha, reflection = _phase_reflection(vec)
    matrix = np.conj(alpha) * reflection
    residual = float(np.linalg.norm(matrix @ vec - np.eye(1, vec.size, dtype=np.complex128)[0]))
    return SynthesisResult(SquareUnitary(matrix), residual)


def synthesize_from_e0(t) -> SynthesisResult:
    """Unitary U with U e0 = t; the adjoint of ``synthesize_to_e0(t)``.

    The reflection is Hermitian, so that adjoint is alpha times it, built
    here directly, in row-major order."""
    vec = unit_vector(t)
    alpha, reflection = _phase_reflection(vec)
    matrix = alpha * reflection
    residual = float(np.linalg.norm(matrix[:, 0] - vec))  # U e0 is U's first column
    return SynthesisResult(SquareUnitary(matrix), residual)
