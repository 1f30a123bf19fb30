"""JSON serialization for states and matrices.

Complex numbers are ``[re, im]`` pairs.  Floats round-trip losslessly
(shortest decimal form that recovers the exact double, never more than 17
significant digits).  All file I/O is UTF-8.
"""

from __future__ import annotations

import functools
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


def vector_from_dict(data: dict) -> np.ndarray:
    """Raw complex vector, no normalization check (synthesis inputs; the
    shape checks behind ``load_state``).  A ``num_qubits``, when given,
    must be the vector's qubit count; without one any length passes."""
    if not (isinstance(data, dict) and isinstance(data.get("amplitudes"), (list, tuple))):
        raise ValueError('a state must be a JSON object with an "amplitudes" list')
    vector = np.array([_from_pair(a) for a in data["amplitudes"]], dtype=np.complex128)
    n, size = data.get("num_qubits"), vector.size
    # JSON true is not 1; no amplitudes, or a size that is no power of two, has no qubit count
    if n is not None and (isinstance(n, bool) or not size or size & (size - 1) or n != size.bit_length() - 1):
        raise ValueError(f"num_qubits {_SHORT.repr(n)} does not match {size} amplitudes")
    return vector


# The leaf a layout's skeleton holds in each slot, and its spelling there.
_SLOT = "\0"
_SLOT_TEXT = json.dumps(_SLOT)
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    """``x`` as ``json`` spells a float: its shortest repr, or NaN and Infinity."""
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# Each leaf type's spelling, the one ``json`` gives it.  Of the other types,
# only a float subclass is spelled here; the rest go to ``json.dumps``.
_SPELL = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _walk(obj, leaves: list, shape: list) -> None:
    """Append ``obj``'s leaves, spelled, to ``leaves``, and its shape to
    ``shape``: a dict's keys as one tuple, a list's or tuple's length, and
    None for a leaf, each before the items it holds.  TypeError for a
    payload that only ``json.dumps`` itself writes as it should."""
    kind = type(obj)
    if kind is dict:
        shape.append(tuple(obj))
        for key, value in obj.items():
            if type(key) is not str:  # True and 1 are one cache key but two spellings
                raise TypeError
            _walk(value, leaves, shape)
    elif kind is list or kind is tuple:
        shape.append(len(obj))
        for value in obj:
            _walk(value, leaves, shape)
    else:
        spell = _SPELL.get(kind)
        if spell is None:
            if not isinstance(obj, float):  # numpy's float64 is a float and spelled as one
                raise TypeError
            spell = _float_text
        shape.append(None)
        leaves.append(spell(obj))


def _layout(skeleton, slots: int) -> str | None:
    """``json.dumps``'s indent-2 text of ``skeleton``, whose leaves are all
    ``_SLOT``, with ``%`` escaped and each leaf a ``%s`` slot; None when the
    text spells ``_SLOT`` other than as its ``slots`` leaves (in a key)."""
    text = json.dumps(skeleton, indent=2) + "\n"
    if text.count(_SLOT_TEXT) != slots:
        return None
    return text.replace("%", "%%").replace(_SLOT_TEXT, "%s")


def _skeleton(tokens):
    """The payload of a ``_walk`` shape, read from an iterator over it, with ``_SLOT`` for every leaf."""
    token = next(tokens)
    if token is None:
        return _SLOT
    if isinstance(token, tuple):
        return {key: _skeleton(tokens) for key in token}
    return [_skeleton(tokens) for _ in range(token)]


@functools.lru_cache(maxsize=64)  # cli-mix makes 8 shapes
def _shape_layout(shape: tuple) -> str | None:
    return _layout(_skeleton(iter(shape)), shape.count(None))


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)`` and a newline: the cached layout of ``obj``'s
    shape filled with its leaves, each spelled as ``json`` spells it.  A
    payload with a key that is not a str, a leaf of another type, or a key
    that spells like a slot is written by ``json.dumps`` itself, so its
    conversions and errors stay ``json``'s."""
    leaves, shape = [], []
    try:
        _walk(obj, leaves, shape)
        layout = _shape_layout(tuple(shape))
    except (TypeError, RecursionError):  # a cycle is json's ValueError, deep nesting its RecursionError
        layout = None
    if layout is None:
        return json.dumps(obj, indent=2) + "\n"
    return layout % tuple(leaves)


@functools.lru_cache(maxsize=4)  # a layout holds about 40 bytes per entry
def _matrix_layout(dim: int) -> str:
    """``dumps`` of a ``dim`` x ``dim`` matrix document with a ``%s`` slot for
    each part, in row-major order, real part first."""
    return _layout({"dim": dim, "entries": [[[_SLOT, _SLOT]] * dim] * dim}, 2 * dim * dim)


def matrix_json(u: SquareUnitary) -> str:
    """``dumps`` of ``{"dim": d, "entries": [[[re, im], ...], ...]}``, the
    matrix document: each part spelled as ``json`` spells a finite float, in
    its dimension's cached layout.  ``ravel`` copies a Fortran-ordered
    matrix, which has no float view, to row-major order."""
    parts = u.matrix.ravel().view(np.float64).tolist()
    return _matrix_layout(u.dim) % tuple(map(float.__repr__, parts))


def load_vector(path: str | Path) -> np.ndarray:
    """``vector_from_dict`` of the JSON document in a UTF-8 file.  A file that
    is not UTF-8 JSON, or JSON nested too deeply to read, is a ``ValueError``
    that names the file."""
    try:
        return vector_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def load_state(path: str | Path) -> StateVector:
    return StateVector(load_vector(path))
