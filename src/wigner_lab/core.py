"""Dense complex statevector substrate: states, unitaries, basis and frame
expansions, Born-rule probabilities, and separability testing.

Conventions
-----------
Qubit 0 (the first tensor factor) is the most significant: the amplitude of
basis ket ``|a b>`` sits at index ``2*a + b``.  Joint outcome labels join the
per-factor labels with ``_``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

TOL_NORM = 1e-10
TOL_UNITARY = 1e-12
TOL_RANK = 1e-9

LABEL_SEP = "_"


def _as_complex_vector(values) -> np.ndarray:
    vec = np.array(values, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(vec)):
        raise ValueError("amplitudes must be finite (no NaN/Inf)")
    return vec


def _as_complex_matrix(values) -> np.ndarray:
    mat = np.array(values, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return mat


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _unitarity_deviation(mat: np.ndarray) -> float:
    """Max-entry |M^H M - I| of a square complex matrix."""
    return float(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max())


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of ``num_qubits`` qubits, 2**n complex amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex_vector(self.amplitudes)
        n = amps.size.bit_length() - 1
        if amps.size < 2 or amps.size != 1 << n:
            raise ValueError(f"amplitude count must be a power of two >= 2, got {amps.size}")
        with np.errstate(over="ignore"):  # a huge amplitude makes the sum inf: rejected
            norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > TOL_NORM:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm2!r}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class SquareUnitary:
    """d x d complex matrix validated unitary at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex_matrix(self.matrix)
        deviation = _unitarity_deviation(mat)
        if deviation > TOL_UNITARY:
            raise ValueError(f"matrix is not unitary: max |U^H U - I| = {deviation!r} > {TOL_UNITARY!r}")
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def adjoint(self) -> SquareUnitary:
        return SquareUnitary(self.matrix.conj().T)


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered spanning set of d linearly independent, not necessarily
    orthogonal, labelled columns.  Coefficient magnitudes in such a frame
    need not square-sum to the physical norm."""

    vectors: np.ndarray
    labels: tuple[str, ...]

    _kind = "frame"  # names the columns in the label-count error

    def __post_init__(self):
        mat = _as_complex_matrix(self.vectors)
        labels = tuple(self.labels)
        if len(labels) != mat.shape[1]:
            raise ValueError(f"one label per {self._kind} vector required")
        self._validate(mat)
        object.__setattr__(self, "vectors", _freeze(mat))
        object.__setattr__(self, "labels", labels)

    def _validate(self, mat: np.ndarray) -> None:
        smallest = float(np.linalg.svd(mat, compute_uv=False)[-1])
        if smallest <= TOL_RANK:
            raise ValueError(f"frame vectors are linearly dependent: smallest singular value {smallest!r}")

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


class MeasurementBasis(Frame):
    """Ordered orthonormal basis; column k of ``vectors`` is the outcome ``labels[k]``."""

    _kind = "basis"

    def _validate(self, mat: np.ndarray) -> None:
        deviation = _unitarity_deviation(mat)
        if deviation > TOL_UNITARY:
            raise ValueError(f"basis is not orthonormal: max |<b_i|b_j> - delta_ij| = {deviation!r}")


def computational_basis(labels: Sequence[str] = ("0", "1")) -> MeasurementBasis:
    """Identity basis of dimension ``len(labels)``."""
    return MeasurementBasis(np.eye(len(labels)), tuple(labels))


def _product(factors: Sequence[Frame]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Kronecker product of the factors, labels joined with ``_``, first factor most significant."""
    if not factors:
        raise ValueError("at least one basis required")
    matrix, labels = factors[0].vectors, factors[0].labels
    for factor in factors[1:]:
        matrix = np.kron(matrix, factor.vectors)
        labels = tuple(f"{la}{LABEL_SEP}{lb}" for la in labels for lb in factor.labels)
    return matrix, labels


def tensor_frame(a: Frame, b: Frame) -> Frame:
    """Kronecker product frame; labels join with ``_`` in (a, b) major order.
    The product of two orthonormal bases is a ``MeasurementBasis``."""
    bases = isinstance(a, MeasurementBasis) and isinstance(b, MeasurementBasis)
    return (MeasurementBasis if bases else Frame)(*_product([a, b]))


@dataclass(frozen=True, eq=False)
class ExpansionCoefficients:
    """Coefficients of a state over an ordered basis or frame.

    ``naive_norm`` is the plain coefficient square-sum.  It equals the
    physical squared norm only when the expansion set is orthonormal.
    """

    labels: tuple[str, ...]
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = _as_complex_vector(self.coefficients)
        labels = tuple(self.labels)
        if len(labels) != coeffs.size:
            raise ValueError("one label per coefficient required")
        object.__setattr__(self, "coefficients", _freeze(coeffs))
        object.__setattr__(self, "labels", labels)

    @property
    def naive_norm(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))

    def coefficient(self, label: str) -> complex:
        try:
            return complex(self.coefficients[self.labels.index(label)])
        except ValueError:
            raise KeyError(f"no coefficient labelled {label!r}") from None


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Outcome label -> relative frequency, with counts when sampled.

    Analytic distributions carry ``counts=None`` and ``total=0``.
    """

    frequencies: dict[str, float]
    counts: dict[str, int] | None = None
    total: int = 0

    def __post_init__(self):
        freqs = dict(self.frequencies)
        if self.counts is not None:
            counts = dict(self.counts)
            if set(counts) != set(freqs):
                raise ValueError("counts and frequencies must share labels")
            if sum(counts.values()) != self.total:
                raise ValueError("counts must sum to total")
            object.__setattr__(self, "counts", counts)
        elif self.total != 0:
            raise ValueError("total requires counts")
        if self.total > 0 and abs(sum(freqs.values()) - 1.0) > 1e-12:
            raise ValueError("frequencies must sum to 1")
        for label, f in freqs.items():
            if not np.isfinite(f) or f < 0.0 or f > 1.0 + 1e-12:
                raise ValueError(f"frequency out of range for {label!r}: {f!r}")
        object.__setattr__(self, "frequencies", freqs)

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> OutcomeDistribution:
        total = int(sum(counts.values()))
        freqs = {k: (v / total if total else 0.0) for k, v in counts.items()}
        return cls(freqs, {k: int(v) for k, v in counts.items()}, total)

    @classmethod
    def from_probabilities(cls, probs: Mapping[str, float]) -> OutcomeDistribution:
        total = sum(probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        return cls({k: float(v) for k, v in probs.items()})

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.frequencies)

    def probability(self, label: str) -> float:
        return self.frequencies[label]


@dataclass(frozen=True)
class UnitarityReport:
    ok: bool
    max_deviation: float


# ---------------------------------------------------------------------------
# Operations


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product with ``a`` as the most significant factor."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


def apply(u: SquareUnitary, v: StateVector) -> StateVector:
    """Evolve ``v`` by the unitary ``u``."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: matrix is {u.dim}x{u.dim}, state has dim {v.dim}")
    return StateVector(u.matrix @ v.amplitudes)


def is_unitary(matrix, tol: float = TOL_UNITARY) -> UnitarityReport:
    """Check max-entry |U^H U - I| against ``tol``; accepts any square array."""
    if isinstance(matrix, SquareUnitary):
        mat = matrix.matrix
    else:
        mat = _as_complex_matrix(matrix)
    deviation = _unitarity_deviation(mat)
    return UnitarityReport(deviation <= tol, deviation)


def change_basis(v: StateVector, per_qubit_bases: Sequence[MeasurementBasis]) -> ExpansionCoefficients:
    """Coefficients of ``v`` over the tensor product of orthonormal bases."""
    matrix, labels = _product(per_qubit_bases)
    if matrix.shape[0] != v.dim:
        raise ValueError(f"basis product has dim {matrix.shape[0]}, state has dim {v.dim}")
    coeffs = matrix.conj().T @ v.amplitudes
    return ExpansionCoefficients(labels, coeffs)


def expand_in_frame(v: StateVector, frame: Frame) -> ExpansionCoefficients:
    """Solve ``F c = v`` for the coefficients of ``v`` over a spanning frame."""
    if frame.dim != v.dim:
        raise ValueError(f"dimension mismatch: frame is dim {frame.dim}, state has dim {v.dim}")
    coeffs = np.linalg.solve(frame.vectors, v.amplitudes)
    return ExpansionCoefficients(frame.labels, coeffs)


def born_probabilities(v: StateVector, per_qubit_bases: Sequence[MeasurementBasis]) -> OutcomeDistribution:
    """Squared-magnitude outcome distribution of a projective product measurement."""
    expansion = change_basis(v, per_qubit_bases)
    probs = np.abs(expansion.coefficients) ** 2
    total = float(probs.sum())
    if abs(total - 1.0) > TOL_NORM:
        raise ValueError(f"basis is not complete: probabilities sum to {total!r}")
    return OutcomeDistribution.from_probabilities(dict(zip(expansion.labels, probs)))


def schmidt_values(v: StateVector, split: int) -> np.ndarray:
    """Descending singular values of the amplitude matrix reshaped at the
    bipartition after the first ``split`` qubits."""
    if not 1 <= split < v.num_qubits:
        raise ValueError(f"split must satisfy 1 <= split < {v.num_qubits}, got {split}")
    matrix = v.amplitudes.reshape(1 << split, -1)
    return np.linalg.svd(matrix, compute_uv=False)


def is_separable(v: StateVector, split: int, tol: float = TOL_RANK) -> bool:
    """True iff the state is a product across the bipartition (Schmidt rank 1)."""
    values = schmidt_values(v, split)
    return bool(np.all(values[1:] <= tol))
