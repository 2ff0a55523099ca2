"""Inner-product geometry for dense vectors: norms, distances, similarity.

This is the only module that works in floating point; the logic modules
stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def as_vector(v: "Sequence[float] | np.ndarray") -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"expected a nonempty 1-d vector, got shape {out.shape}")
    return out


def _pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    a, b = as_vector(u), as_vector(v)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def inner_product(u, v) -> float:
    a, b = _pair(u, v)
    return float(a @ b)


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


def distance(u, v) -> float:
    a, b = _pair(u, v)
    return norm(a - b)


def cosine_similarity(u, v) -> float:
    """Inner product normalized by both lengths, within [-1, 1]; undefined
    on a zero vector."""
    a, b = _pair(u, v)
    (a, _), (b, _) = _scaled(a), _scaled(b)  # the quotient is scale-free
    na, nb = norm(a), norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for the zero vector")
    # rounding can carry the quotient of parallel vectors just past +-1,
    # which acos refuses; the clamp keeps a nan a nan
    return float(min(max((a @ b) / (na * nb), -1.0), 1.0))


@dataclass(frozen=True)
class WordVector:
    word: str
    vec: np.ndarray


def word_vector(word: str, coefficients: Sequence[float],
                basis: Sequence[np.ndarray]) -> WordVector:
    """Represent a word as the linear combination sum_i alpha_i basis_i."""
    if len(coefficients) != len(basis):
        raise ValueError(
            f"{len(coefficients)} coefficients against {len(basis)} basis vectors")
    if not basis:
        raise ValueError("word vector needs at least one basis vector")
    vecs = [as_vector(b) for b in basis]
    dim = vecs[0].shape[0]
    for b in vecs[1:]:
        if b.shape[0] != dim:
            raise ValueError("basis vectors differ in dimension")
    out = np.zeros(dim, dtype=np.float64)
    for alpha, b in zip(coefficients, vecs):
        out += float(alpha) * b
    return WordVector(word, out)
