"""Deterministic synthesis of unitaries mapping a unit vector to the first
basis vector and back, via a single phase-adjusted Householder reflection.
Works in any dimension >= 1, not only qubit registers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SquareUnitary, StateVector, _as_complex_vector

RESIDUAL_TOL = 1e-10
_DEGENERATE = 1e-12


@dataclass(frozen=True)
class SynthesisResult:
    matrix: SquareUnitary
    residual: float

    def __post_init__(self):
        if self.residual > RESIDUAL_TOL:
            raise ValueError(f"synthesis residual {self.residual!r} exceeds {RESIDUAL_TOL!r}")


def _unit_vector(v) -> np.ndarray:
    vec = v.amplitudes.copy() if isinstance(v, StateVector) else _as_complex_vector(v)
    if vec.size < 1:
        raise ValueError("vector must have dimension >= 1")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError("cannot synthesize from the zero vector")
    if abs(norm - 1.0) > RESIDUAL_TOL:
        raise ValueError(f"vector is not unit: norm = {norm!r}")
    return vec / norm


def synthesize_to_e0(v) -> SynthesisResult:
    """Unitary U with U v = e0 exactly in phase (no residual global phase).

    U is the Householder reflection about v - alpha*e0 (alpha the phase of
    v[0]), rescaled by conj(alpha); for v within 1e-12 of alpha*e0 the
    reflection degenerates and conj(alpha)*I is returned.
    """
    vec = _unit_vector(v)
    dim = vec.size
    alpha = vec[0] / abs(vec[0]) if abs(vec[0]) > 0.0 else 1.0 + 0.0j
    w = vec.copy()
    w[0] -= alpha
    wnorm2 = float(np.vdot(w, w).real)
    if np.sqrt(wnorm2) < _DEGENERATE:
        matrix = np.conj(alpha) * np.eye(dim, dtype=np.complex128)
    else:
        matrix = np.conj(alpha) * (np.eye(dim, dtype=np.complex128) - (2.0 / wnorm2) * np.outer(w, w.conj()))
    residual = float(np.linalg.norm(matrix @ vec - np.eye(1, dim, dtype=np.complex128)[0]))
    return SynthesisResult(SquareUnitary(matrix), residual)


def synthesize_from_e0(t) -> SynthesisResult:
    """Unitary U with U e0 = t; the adjoint of ``synthesize_to_e0(t)``."""
    vec = _unit_vector(t)
    matrix = synthesize_to_e0(vec).matrix.adjoint()
    residual = float(np.linalg.norm(matrix.matrix[:, 0] - vec))  # U e0 is U's first column
    return SynthesisResult(matrix, residual)

