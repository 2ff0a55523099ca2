"""Norms and cosine similarity."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from semlink.space import as_vector, cosine_similarity, norm

TOL = 1e-9

finite = st.floats(min_value=-100, max_value=100, allow_nan=False,
                   allow_infinity=False)


def vec_pair(components=finite, min_dim=1, max_dim=8):
    return st.integers(min_dim, max_dim).flatmap(
        lambda d: st.tuples(
            st.lists(components, min_size=d, max_size=d),
            st.lists(components, min_size=d, max_size=d)))


def test_norm_known_values():
    assert norm([3, 4]) == pytest.approx(5.0, abs=TOL)


def test_truth_basis_is_orthonormal():
    assert cosine_similarity([1, 0], [0, 1]) == 0.0
    assert norm([1, 0]) == 1.0
    assert norm([0, 1]) == 1.0


def test_cosine_similarity_extremes():
    assert cosine_similarity([2, 0], [5, 0]) == pytest.approx(1.0, abs=TOL)
    assert cosine_similarity([1, 0], [0, 3]) == pytest.approx(0.0, abs=TOL)
    assert cosine_similarity([1, 0], [-2, 0]) == pytest.approx(-1.0, abs=TOL)


def test_similarity_of_parallel_vectors_stays_within_one():
    # rounding carried these quotients past +-1, where acos is undefined
    assert cosine_similarity([1, 1, 1], [2, 2, 2]) == 1.0
    assert cosine_similarity([1, 1, 1], [-2, -2, -2]) == -1.0
    rng = np.random.default_rng(0)
    past_one = 0
    for _ in range(2000):
        u = rng.uniform(-100, 100, int(rng.integers(1, 9)))
        v = rng.uniform(0.01, 100) * rng.choice([-1.0, 1.0]) * u
        sim = cosine_similarity(u, v)
        assert -1.0 <= sim <= 1.0
        assert 0.0 <= math.acos(sim) <= math.pi
        plain = (u @ v) / (np.sqrt(u @ u) * np.sqrt(v @ v))
        if abs(plain) > 1.0:
            past_one += 1
            assert sim == math.copysign(1.0, plain)
    assert past_one > 0  # the sample reaches the case the clamp is for


def test_zero_vector_similarity_is_an_error():
    with pytest.raises(ValueError):
        cosine_similarity([0, 0], [1, 0])
    with pytest.raises(ValueError):
        cosine_similarity([1, 0], [0, 0])


@pytest.mark.filterwarnings("error")
def test_norm_and_similarity_at_the_ends_of_the_float_range():
    big, tiny = 1e308, 5e-324
    assert norm([big, big]) == big * math.sqrt(2)
    assert norm([tiny]) == tiny
    assert norm([1.5e308, 1.5e308]) == math.inf  # the norm itself is past the range
    assert cosine_similarity([big, big], [big, big]) == pytest.approx(1.0, abs=TOL)
    assert cosine_similarity([big, -big], [big, big]) == pytest.approx(0.0, abs=TOL)
    assert cosine_similarity([1e-320, 0], [1, 0]) == 1.0
    assert cosine_similarity([tiny, tiny], [big, big]) == pytest.approx(1.0, abs=TOL)


# Nonzero components at least this large have squares and pairwise products
# that are normal floats (at least 2^-1008), with room for the scaling by as
# little as 2^-7 per vector that components of magnitude up to 100 get.
SMALLEST_SAFE_COMPONENT = 2.0 ** -504
# 0, or a magnitude in [SMALLEST_SAFE_COMPONENT, 100] of either sign, drawn so
# rather than filtered from [-100, 100], which rejected too many draws for
# Hypothesis's filter_too_much health check
safe_component = (st.just(0.0)
                  | st.floats(min_value=SMALLEST_SAFE_COMPONENT, max_value=100)
                  | st.floats(min_value=-100, max_value=-SMALLEST_SAFE_COMPONENT))


@given(vec_pair(safe_component))
def test_power_of_two_scaling_is_exact(pair):
    # the scaled computation rounds like the plain one where no square or
    # product of components is subnormal; both quotients are clamped to [-1, 1]
    u, v = (np.array(x) for x in pair)
    assume(u @ u > 0 and v @ v > 0)  # neither is the zero vector
    plain = float(np.clip((u @ v) / (np.sqrt(u @ u) * np.sqrt(v @ v)), -1.0, 1.0))
    assert cosine_similarity(u, v) == plain
    assert norm(u) == float(np.sqrt(u @ u))


def test_power_of_two_scaling_is_exact_where_the_plain_formula_is_not():
    # u @ u is subnormal, so the unscaled formulas lose digits; the scaled ones do not
    u = np.array([5.143486888813871e-156])
    assert norm(u) == u[0]
    assert float(np.sqrt(u @ u)) != u[0]
    assert cosine_similarity([1.0], u) == 1.0
    assert float((np.ones(1) @ u) / np.sqrt(u @ u)) == 0.9999999999999541


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        cosine_similarity([1, 2], [1, 2, 3])


def test_as_vector_validates():
    with pytest.raises(ValueError):
        as_vector([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        as_vector([])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [[math.inf, 1], [1, -math.inf], [math.nan, 1]])
def test_non_finite_components_are_refused(bad):
    with pytest.raises(ValueError, match="must be finite"):
        as_vector(bad)
    with pytest.raises(ValueError, match="must be finite"):
        cosine_similarity(bad, [1, 1])
    with pytest.raises(ValueError, match="must be finite"):
        cosine_similarity([1, 1], bad)
    with pytest.raises(ValueError, match="must be finite"):
        norm(bad)


@given(vec_pair())
def test_similarity_range_and_symmetry(pair):
    u, v = pair
    assume(norm(u) > 1e-6 and norm(v) > 1e-6)
    s = cosine_similarity(u, v)
    assert -1 - TOL <= s <= 1 + TOL
    assert abs(s - cosine_similarity(v, u)) <= TOL


@given(vec_pair(), st.floats(min_value=0.01, max_value=50))
def test_similarity_scale_invariant(pair, alpha):
    u, v = pair
    assume(norm(u) > 1e-6 and norm(v) > 1e-6)
    scaled = [alpha * x for x in u]
    assert cosine_similarity(scaled, v) == pytest.approx(
        cosine_similarity(u, v), abs=1e-7)


@given(vec_pair())
def test_similarity_is_odd_under_negation(pair):
    # negating a vector negates every product exactly and keeps both norms
    u, v = pair
    assume(norm(u) > 1e-6 and norm(v) > 1e-6)
    assert cosine_similarity([-x for x in u], v) == -cosine_similarity(u, v)


@given(vec_pair())
def test_norm_triangle_inequality(pair):
    u, v = pair
    assert norm(np.add(u, v)) <= norm(u) + norm(v) + TOL


@given(st.lists(finite, min_size=1, max_size=8), st.floats(min_value=-50, max_value=50))
def test_norm_is_absolutely_homogeneous(u, alpha):
    assert norm([alpha * x for x in u]) == pytest.approx(abs(alpha) * norm(u), rel=1e-12, abs=TOL)


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 4), st.integers(0, 4))
def test_norm_of_a_one_hot_vector_is_its_magnitude(x, before, after):
    # exact over the whole float range, subnormals and the largest floats included
    assert norm([0.0] * before + [x] + [0.0] * after) == abs(x)


@given(st.lists(finite, min_size=1, max_size=8))
def test_self_similarity_is_one(u):
    assume(norm(u) > 1e-6)
    assert cosine_similarity(u, u) == pytest.approx(1.0, abs=TOL)


def test_nonnegative_components_give_unit_interval_similarity():
    rngs = np.random.Generator(np.random.PCG64(5))
    for _ in range(200):
        d = int(rngs.integers(1, 9))
        u = rngs.uniform(0.01, 10, d)
        v = rngs.uniform(0.01, 10, d)
        s = cosine_similarity(u, v)
        assert -TOL <= s <= 1 + TOL


def test_norm_is_positive_definite():
    assert norm([0.0, 0.0]) == 0.0
    assert norm([1e-3]) > 0
    assert math.isclose(norm([-3, 4]), 5.0, abs_tol=TOL)
