"""Dense real linear algebra on desk-scale matrices.

Vectors carry no norm of their own; callers pick an l2 or l-infinity norm
per space via :class:`NormTag`. Minimal-norm solves and singular values go
through numpy's SVD, which is an orthogonal factorization with fully
controlled tolerances at these sizes (n <= ~10^3).

Entries are checked for finiteness at the boundary only: `as_vector` and
`as_matrix` take inputs (x0, config data, the outputs of a user map) and raise
NonFiniteValue. Vectors the iteration computes from checked inputs go through
`shaped_vector`, which checks the shape alone; a non-finite entry there makes
the step's norm non-finite, and the solver's covering step checks that one
scalar.

The l2 `norm` is `math.sqrt(x.dot(x))` with `x = v.ravel(order="K")`, the
arithmetic `np.linalg.norm` performs for a real array of any shape (numpy
2.4), without its dispatch. Of a one-entry vector [v] it is sqrt(v * v)
(not abs(v): v * v overflows and underflows) for l2 and abs(v) for linf,
which is how the solver's float loop takes it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, RankDeficient

# Relative rank cutoff: singular values <= RANK_TOL * sigma_max count as zero.
RANK_TOL = 1e-12
# Central-difference step for Jacobians that have no analytic form.
FD_STEP = 1e-6


class NormTag(str, Enum):
    """Norm choice for a space; X and Y may use different tags."""

    L2 = "l2"
    LINF = "linf"


# The members, bound once: `norm` compares its tag against them on every call.
_L2, _LINF = NormTag.L2, NormTag.LINF


def shaped_vector(x) -> np.ndarray:
    """x as a nonempty 1-d float array; the entries are not checked."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"expected a nonempty 1-d vector, got shape {v.shape}")
    return v


def as_vector(x) -> np.ndarray:
    """x as a nonempty 1-d float array with finite entries."""
    v = shaped_vector(x)
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue("vector entries must be finite")
    return v


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DimensionMismatch(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteValue("matrix entries must be finite")
    return a


def norm(v, tag: NormTag = NormTag.L2) -> float:
    """Vector norm under the given tag; zero iff v is the zero vector."""
    v = np.asarray(v, dtype=float)
    if tag == _L2:
        x = v.ravel(order="K")
        return math.sqrt(x.dot(x))
    if tag == _LINF:
        return float(abs(v).max()) if v.size else 0.0
    raise ValueError(f"unknown norm tag {tag!r}")


def min_norm_solve(B, y) -> np.ndarray:
    """Solve B x = y with minimal euclidean norm.

    B must have full row rank (surjective). The returned x is the unique
    minimizer of ||x||_2 among all solutions; its residual satisfies
    ||B x - y|| <= 1e-10 * (1 + ||y||).

    Raises RankDeficient when the numerical rank drops below the row count
    (cutoff RANK_TOL relative to the largest singular value).

    The solver does not call it (LinearSurjectiveCovering caches the same
    pseudo-inverse); it stays while bench/tracing.py wraps it by name.
    """
    B = as_matrix(B)
    y = as_vector(y)
    m, n = B.shape
    if y.size != m:
        raise DimensionMismatch(f"rhs has size {y.size}, expected {m}")
    if m > n:
        raise DimensionMismatch(f"need m <= n for an onto map, got {m}x{n}")
    u, s, vt = np.linalg.svd(B, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise RankDeficient(
            f"numerical rank < {m} (sigma_min={s[-1]:.3e}, sigma_max={s[0]:.3e})"
        )
    x = vt.T @ ((u.T @ y) / s)
    resid = float(np.linalg.norm(B @ x - y))
    if resid > 1e-10 * (1.0 + float(np.linalg.norm(y))):
        raise RankDeficient(f"solve residual {resid:.3e} indicates near rank deficiency")
    return x


def smallest_singular_value(B) -> float:
    """The m-th largest singular value of an m x n matrix, m <= n.

    For euclidean norms this is the largest valid covering constant of the
    map x -> Bx: the image of the unit ball contains the ball of this radius.
    Returns ~0 for rank-deficient input.
    """
    B = as_matrix(B)
    m, n = B.shape
    if m > n:
        raise DimensionMismatch(f"need m <= n, got {m}x{n}")
    s = np.linalg.svd(B, compute_uv=False)
    return float(s[-1])


def random_direction(rng, dim: int, tag: NormTag) -> np.ndarray:
    """Random vector of unit norm under tag, from one draw of rng.

    l2 normalizes a standard normal draw (uniform on the sphere); linf
    scales a uniform draw on the cube onto its surface. A degenerate draw
    (probability zero) falls back to the first basis vector.
    """
    if tag == NormTag.L2:
        d = rng.standard_normal(dim)
    else:
        d = rng.uniform(-1.0, 1.0, size=dim)
    size = norm(d, tag)
    if size <= 1e-12:
        return np.eye(dim)[0]
    return d / size


def finite_diff_jacobian(f: Callable[[np.ndarray], np.ndarray], x,
                         h: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of f at x; entrywise error O(h^2) for C^2 maps."""
    x = as_vector(x)
    if h <= 0:
        raise ValueError("h must be positive")
    f0 = as_vector(f(x))
    J = np.empty((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        J[:, j] = (as_vector(f(x + e)) - as_vector(f(x - e))) / (2.0 * h)
    return J


# Vertex enumeration in operator_norm is exact but 2^(n-1) work; cap n.
_ENUM_DIM_CAP = 16
# Largest vertex-image block (in entries) one linf -> l2 matmul may allocate.
_ENUM_BLOCK = 1 << 20


# A row norm below this has a subnormal sum of squares (or one that underflowed).
_SUBNORMAL_NORM = 2.0 ** -511


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis.

    np.linalg.norm squares the entries unscaled: a row with an entry above
    about 1.3e154 norms to inf, and one whose sum of squares is subnormal
    loses bits. Only those rows are recomputed, as s * ||row / s|| with
    s = max |row| (a zero row stays 0, and a row that holds inf stays inf);
    every other row keeps the bits np.linalg.norm gives it.
    """
    with np.errstate(over="ignore", under="ignore"):
        out = np.linalg.norm(A, axis=-1)
    redo = (out == np.inf) | (out < _SUBNORMAL_NORM)
    if redo.any():
        rows = A[redo]
        s = np.max(np.abs(rows), axis=-1)
        ok = (s > 0.0) & (s < np.inf)
        with np.errstate(all="ignore"):
            scaled = s * np.linalg.norm(rows / np.where(ok, s, 1.0)[:, None], axis=-1)
        out[redo] = np.where(ok, scaled, s)
    return out


def operator_norm(M, from_tag: NormTag, to_tag: NormTag):
    """Operator norm subordinate to (from_tag, to_tag) of a matrix or a stack.

    M is one (m, n) matrix, giving a float, or a (..., m, n) stack, giving
    an array of shape (...). Each matrix of a stack gets the bits the
    single-matrix call gives it.

    l2 -> l2 is the largest singular value; linf -> linf the largest absolute
    row sum; l2 -> linf the largest row euclidean norm. linf -> l2 maximizes
    over the cube's vertices (exact; the objective is convex), so the input
    dimension is capped at 16. The euclidean norms of the last two are
    rescaled where squaring would overflow or underflow (`_row_norms`).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.size == 0:
        raise DimensionMismatch(
            f"expected a nonempty (..., m, n) matrix stack, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFiniteValue("matrix entries must be finite")
    if from_tag == NormTag.L2 and to_tag == NormTag.L2:
        out = np.linalg.svd(M, compute_uv=False)[..., 0]
    elif from_tag == NormTag.LINF and to_tag == NormTag.LINF:
        out = np.max(np.sum(np.abs(M), axis=-1), axis=-1)
    elif from_tag == NormTag.L2 and to_tag == NormTag.LINF:
        out = np.max(_row_norms(M), axis=-1)
    elif from_tag == NormTag.LINF and to_tag == NormTag.L2:
        m, n = M.shape[-2:]
        if n > _ENUM_DIM_CAP:
            raise DimensionMismatch(
                f"linf->l2 operator norm needs n <= {_ENUM_DIM_CAP}, got {n}"
            )
        # Signs of the first coordinate can be fixed by symmetry.
        k = np.arange(2 ** max(n - 1, 0))
        signs = ((k[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
        signs[:, -1] = 1.0
        # Blocks of the stack keep the vertex images to _ENUM_BLOCK entries.
        flat = M.reshape(-1, m, n)
        block = max(1, _ENUM_BLOCK // (len(signs) * m))
        out = np.concatenate([
            np.max(_row_norms(signs @ flat[i:i + block].swapaxes(-1, -2)), axis=-1)
            for i in range(0, len(flat), block)]).reshape(M.shape[:-2])
    else:
        raise ValueError(f"unsupported norm pair ({from_tag}, {to_tag})")
    return float(out) if M.ndim == 2 else out
