"""Bit-exact JSON encoding shared by the stored documents.

numpy arrays in model payloads become dtype + shape + base64 data, and a
dataclass is read back from the document's entries for its fields.
"""

from __future__ import annotations

import base64
from dataclasses import fields

import numpy as np

from .errors import SpecMismatchError


def array_to_doc(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def doc_to_array(doc: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(doc["data"])
        arr = np.frombuffer(raw, dtype=np.dtype(doc["dtype"]))
        return arr.reshape(doc["shape"]).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecMismatchError(f"malformed array payload: {exc}") from exc


def from_fields(cls, doc: dict):
    """``cls`` from the document's entries for its fields; lists become tuples."""
    return cls(**{f.name: tuple(doc[f.name]) if isinstance(doc[f.name], list)
                  else doc[f.name] for f in fields(cls)})
