"""Metamorphic relations of the quadratic solve.

The theorem is stated without coordinates, so changing coordinates in X and
Y must not change the answer beyond the rounding each relation states:

- a sign flip B -> -B (x -> -x) is exact: every row keeps its bits, and
  x_star is negated exactly;
- permuting the coordinates of X and Y keeps the status, the step count and
  the tau column bit for bit, since tau depends only on (a, b, c); the other
  columns may round apart.

Floats are compared by their bits, so -0.0 and NaN count. dim_x = 1 runs
the float loop, every larger dim_x the array methods.
"""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coincide.problems import BilinearMap, QuadraticProblem, random_quadratic
from coincide.solver import coincidence_solve


def _bits(v) -> bytes:
    return struct.pack("<d", v)


def _solve(q: QuadraticProblem):
    x, trace = coincidence_solve(q.instance, residual_tol=1e-10, max_steps=300)
    return x, trace, [(r[0], *map(_bits, r[1:])) for r in trace.rows]


@st.composite
def quadratics(draw) -> QuadraticProblem:
    """A random_quadratic with dim_x 1 to 9; margin 0 is the D = 0 boundary."""
    dim_x = draw(st.integers(1, 9))
    dim_y = draw(st.integers(1, dim_x))
    margin = draw(st.floats(0.0, 1.0))
    return random_quadratic(dim_x, dim_y, margin, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(q=quadratics())
@example(q=random_quadratic(1, 1, 0.5, 0))
@example(q=random_quadratic(4, 2, 1.0, 0))  # c = 0: converged at the start
def test_a_sign_flip_keeps_every_bit(q):
    x, trace, rows = _solve(q)
    flipped = QuadraticProblem(bilinear=q.bilinear, linear=-q.linear, offset=q.offset,
                               b=q.b, c=q.c)
    x_f, trace_f, rows_f = _solve(flipped)
    assert rows_f == rows
    assert (trace_f.status, trace_f.detail) == (trace.status, trace.detail)
    # The start 0 is the same point in both; each iterate after it is negated.
    want = x if trace.steps == 0 else -x
    assert x_f.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(q=quadratics(), data=st.data())
@example(q=random_quadratic(5, 3, 0.0, 1), data=None)  # D = 0: ends at the step cap
def test_a_coordinate_permutation_keeps_the_outcome_and_the_taus(q, data):
    if data is None:
        px, py = np.arange(q.dim_x)[::-1], np.arange(q.dim_y)[::-1]
    else:
        px = np.array(data.draw(st.permutations(range(q.dim_x))), dtype=int)
        py = np.array(data.draw(st.permutations(range(q.dim_y))), dtype=int)
    # The bound a, b and c are given, not recomputed, so the majorants are
    # the base problem's; a recomputed sum of slice norms may round apart.
    permuted = QuadraticProblem(
        bilinear=BilinearMap(coeffs=q.bilinear.coeffs[py][:, px][:, :, px], bound=q.a),
        linear=q.linear[py][:, px], offset=q.offset[py], b=q.b, c=q.c)
    _, trace, rows = _solve(q)
    _, trace_p, rows_p = _solve(permuted)
    assert (trace_p.status, trace_p.steps) == (trace.status, trace.steps)
    assert [r[:2] for r in rows_p] == [r[:2] for r in rows]
