"""JSON serialization for states and matrices.

Complex numbers are ``[re, im]`` pairs.  Floats round-trip losslessly
(shortest decimal form that recovers the exact double, never more than 17
significant digits).  All file I/O is UTF-8.
"""

from __future__ import annotations

import json
import reprlib
from pathlib import Path

import numpy as np

from .core import SquareUnitary, StateVector


def _cut(text: str, limit: int) -> str:
    """``text`` cut to ``limit`` characters by an ellipsis in its middle."""
    if len(text) <= limit:
        return text
    head = (limit - 3) // 2
    return text[:head] + "..." + text[len(text) - (limit - 3 - head) :]


class _ShortJson(reprlib.Repr):
    """Shows an offending JSON value in an error, spelled as JSON (``true``,
    ``null``, ``"x"``, ``NaN``): one level, a few items, short numbers and
    strings."""

    def __init__(self):
        super().__init__()
        self.maxlevel, self.maxlist, self.maxdict = 1, 3, 2
        self.maxstring = self.maxlong = self.maxother = 16

    def repr_str(self, x, level):
        n = self.maxstring
        return _cut(json.dumps(x if len(x) <= n else x[:n] + x[-n:]), n)

    def repr_instance(self, x, level):  # bool, None and float: no repr_<type> of their own
        return _cut(json.dumps(x), self.maxother)


_SHORT = _ShortJson()


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _from_pair(item) -> complex:
    # JSON true/false arrive as bool, a subclass of int; they are not numbers
    if not (
        isinstance(item, (list, tuple))
        and len(item) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in item)
    ):
        raise ValueError(f"a complex number must be a [re, im] pair of numbers, got {_SHORT.repr(item)}")
    try:
        return complex(float(item[0]), float(item[1]))
    except OverflowError:  # an integer beyond every double
        raise ValueError(f"a complex number's parts must fit a double, got {_SHORT.repr(item)}") from None


def state_from_dict(data: dict) -> StateVector:
    return StateVector(vector_from_dict(data))


def vector_from_dict(data: dict) -> np.ndarray:
    """Raw complex vector, no normalization check (synthesis inputs; the
    shape checks behind ``state_from_dict``).  A ``num_qubits``, when given,
    must be the vector's qubit count; without one any length passes."""
    if not (isinstance(data, dict) and isinstance(data.get("amplitudes"), (list, tuple))):
        raise ValueError('a state must be a JSON object with an "amplitudes" list')
    vector = np.array([_from_pair(a) for a in data["amplitudes"]], dtype=np.complex128)
    n, size = data.get("num_qubits"), vector.size
    # JSON true is not 1; a size that is no power of two has no qubit count
    if n is not None and (isinstance(n, bool) or size & (size - 1) or n != size.bit_length() - 1):
        raise ValueError(f"num_qubits {_SHORT.repr(n)} does not match {size} amplitudes")
    return vector


def matrix_to_dict(u: SquareUnitary) -> dict:
    return {
        "dim": u.dim,
        "entries": [[_pair(z) for z in row] for row in u.matrix],
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load(path: str | Path, from_dict):
    """``from_dict`` of the JSON document in a UTF-8 file.  A file that is not
    UTF-8 JSON, or JSON nested too deeply to read, is a ``ValueError`` that
    names the file."""
    try:
        return from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def load_state(path: str | Path) -> StateVector:
    return _load(path, state_from_dict)


def load_vector(path: str | Path) -> np.ndarray:
    return _load(path, vector_from_dict)
