"""The geometry behind `sim`: norms and cosine similarity of dense vectors.

This is the only module that works in floating point; the logic modules
stay exact.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def as_vector(v: "Sequence[float] | np.ndarray") -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"expected a nonempty 1-d vector, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"vector components must be finite, got {out.tolist()!r}")
    return out


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a * 2**-e, e), with e chosen to put the largest magnitude of a in
    [0.5, 1).  Scaling by a power of two is exact, so squares and products
    of the scaled vector cannot overflow, a nonzero vector keeps a nonzero
    sum of squares, and on normal-range input the results are bit-identical
    to those of the unscaled formulas."""
    peak = float(np.max(np.abs(a)))
    if peak == 0.0:
        return a, 0
    e = math.frexp(peak)[1]
    return np.ldexp(a, -e), e


def norm(v) -> float:
    a, e = _scaled(as_vector(v))
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return float(np.ldexp(np.sqrt(a @ a), e))


def cosine_similarity(u, v) -> float:
    """Inner product normalized by both lengths, within [-1, 1]; undefined
    on a zero vector."""
    a, b = as_vector(u), as_vector(v)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    (a, _), (b, _) = _scaled(a), _scaled(b)  # the quotient is scale-free
    na, nb = norm(a), norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for the zero vector")
    # rounding can carry the quotient of parallel vectors just past +-1,
    # which acos refuses
    return float(min(max((a @ b) / (na * nb), -1.0), 1.0))
