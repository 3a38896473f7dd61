import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coincide.errors import DimensionMismatch, RankDeficient
from coincide.linalg import (
    NormTag,
    finite_diff_jacobian,
    min_norm_solve,
    norm,
    operator_norm,
    smallest_singular_value,
)


def test_norm_pythagorean_triple():
    assert norm([3.0, 4.0], NormTag.L2) == 5.0


def test_norm_linf_takes_magnitude():
    assert norm([3.0, -4.0], NormTag.LINF) == 4.0


# Magnitudes around the edges: zeros of both signs, subnormals, the largest
# float, infinities and NaN.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(EDGE_FLOATS, min_size=1, max_size=12))
@example([-0.0])
@example([math.nan, math.inf])
@example([-math.inf, 1.0, math.nan])
@example([5e-324, -0.0, -5e-324])
def test_linf_norm_has_the_bits_of_np_max_abs(values):
    v = np.array(values)
    got = norm(v, NormTag.LINF)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(float(np.max(np.abs(v)))).tobytes()


def test_norm_zero_vector():
    assert norm([0.0, 0.0, 0.0], NormTag.L2) == 0.0


def test_min_norm_solve_scaled_identity():
    x = min_norm_solve([[2.0, 0.0], [0.0, 2.0]], [1.0, 1.0])
    assert np.allclose(x, [0.5, 0.5], atol=1e-12)


def test_min_norm_solve_underdetermined_line():
    # Oracle: grid-search the line x1 + x2 = 2 for the shortest point.
    grid = np.linspace(-3.0, 5.0, 20001)
    lengths = np.hypot(grid, 2.0 - grid)
    k = int(np.argmin(lengths))
    assert abs(grid[k] - 1.0) < 1e-3 and abs(lengths[k] - math.sqrt(2.0)) < 1e-6

    x = min_norm_solve([[1.0, 1.0]], [2.0])
    assert np.allclose(x, [1.0, 1.0], atol=1e-10)
    assert np.linalg.norm(x) <= lengths[k] + 1e-9


def test_min_norm_solve_rank_deficient():
    with pytest.raises(RankDeficient):
        min_norm_solve([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0])


def test_min_norm_solve_shape_checks():
    with pytest.raises(DimensionMismatch):
        min_norm_solve([[1.0, 0.0]], [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        min_norm_solve([[1.0], [2.0]], [1.0, 2.0])  # m > n


def test_smallest_singular_value_diagonal():
    assert smallest_singular_value([[3.0, 0.0], [0.0, 1.0]]) == pytest.approx(1.0, abs=1e-12)


def test_smallest_singular_value_permutation():
    assert smallest_singular_value([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)


def test_smallest_singular_value_wide_matrix_against_sphere_scan():
    B = np.array([[2.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    # Oracle: sigma_min over the row space = min_{||u||=1} ||B^T u|| for u in R^2.
    thetas = np.linspace(0.0, 2.0 * np.pi, 100001)
    us = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    oracle = float(np.min(np.linalg.norm(us @ B, axis=1)))
    assert oracle == pytest.approx(0.5, abs=1e-6)
    assert smallest_singular_value(B) == pytest.approx(0.5, rel=1e-10)


def test_smallest_singular_value_near_zero_for_rank_deficient():
    assert smallest_singular_value([[1.0, 2.0], [2.0, 4.0]]) < 1e-12


def test_finite_diff_identity():
    J = finite_diff_jacobian(lambda x: x, np.array([0.3, -0.7, 1.1]), h=1e-5)
    assert np.max(np.abs(J - np.eye(3))) <= 1e-9


def test_finite_diff_scalar_square():
    J = finite_diff_jacobian(lambda x: x * x, np.array([1.0]), h=1e-5)
    assert abs(J[0, 0] - 2.0) <= 1e-8


def test_finite_diff_matches_bilinear_derivative():
    # For Phi(x) = A(x,x) + C with symmetric A, the derivative is 2 A(x, .).
    from coincide.problems import BilinearMap, QuadraticMap

    rng = np.random.default_rng(42)
    T = rng.standard_normal((2, 3, 3))
    T = 0.5 * (T + T.transpose(0, 2, 1))
    A = BilinearMap(coeffs=T, bound=10.0)
    phi = QuadraticMap(A, offset=rng.standard_normal(2))
    x = rng.standard_normal(3)
    J_fd = finite_diff_jacobian(phi.evaluate, x, h=1e-6)
    J_an = 2.0 * np.einsum("kij,i->kj", T, x)
    assert np.max(np.abs(J_fd - J_an)) <= 1e-6


def test_covering_inclusion_bound():
    # ||B^+ y|| <= 1 whenever ||y|| <= sigma_min(B).
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.integers(1, 5)
        n = rng.integers(m, 7)
        B = rng.standard_normal((m, n))
        smin = smallest_singular_value(B)
        if smin < 1e-6:
            continue
        y = rng.standard_normal(m)
        y *= smin * rng.uniform() / np.linalg.norm(y)
        assert np.linalg.norm(min_norm_solve(B, y)) <= 1.0 + 1e-9


def test_min_norm_solution_is_minimal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.integers(1, 5)
        n = rng.integers(m, 7)
        B = rng.standard_normal((m, n))
        if smallest_singular_value(B) < 1e-6:
            continue
        x = rng.standard_normal(n)
        assert np.linalg.norm(min_norm_solve(B, B @ x)) <= np.linalg.norm(x) + 1e-9


def test_sigma_min_invariant_under_orthogonal_transforms():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = 3, 5
        B = rng.standard_normal((m, n))
        ref = smallest_singular_value(B)
        perm = rng.permutation(n)
        assert smallest_singular_value(B[:, perm]) == pytest.approx(ref, abs=1e-9)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        assert smallest_singular_value(q @ B) == pytest.approx(ref, abs=1e-9)
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert smallest_singular_value(B @ q2) == pytest.approx(ref, abs=1e-9)


def test_operator_norm_agrees_with_dense_sampling():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 4))
    xs = rng.standard_normal((20000, 4))
    for from_tag, to_tag in [(NormTag.L2, NormTag.L2), (NormTag.LINF, NormTag.LINF),
                             (NormTag.L2, NormTag.LINF), (NormTag.LINF, NormTag.L2)]:
        denom = (np.linalg.norm(xs, axis=1) if from_tag == NormTag.L2
                 else np.max(np.abs(xs), axis=1))
        img = xs @ M.T
        num = (np.linalg.norm(img, axis=1) if to_tag == NormTag.L2
               else np.max(np.abs(img), axis=1))
        sampled = float(np.max(num / denom))
        exact = operator_norm(M, from_tag, to_tag)
        assert sampled <= exact * (1.0 + 1e-9)
        assert sampled >= 0.8 * exact  # dense sampling comes close from below


@st.composite
def vector_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=8))
    elems = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    u = draw(st.lists(elems, min_size=dim, max_size=dim))
    v = draw(st.lists(elems, min_size=dim, max_size=dim))
    lam = draw(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    return np.array(u), np.array(v), lam


@settings(max_examples=200, deadline=None)
@given(vector_pairs())
def test_norm_triangle_and_homogeneity(data):
    u, v, lam = data
    for tag in (NormTag.L2, NormTag.LINF):
        nu, nv = norm(u, tag), norm(v, tag)
        assert norm(u + v, tag) <= nu + nv + 1e-12 * (1.0 + nu + nv)
        assert abs(norm(lam * u, tag) - abs(lam) * nu) <= 1e-12 * (1.0 + abs(lam) * nu)
