"""Concrete problem gallery.

The quadratic operator equation A(x,x) + Bx + C = 0 splits into the smooth
part Phi(x) = A(x,x) + C against the linear covering Psi(x) = -Bx, majorized
by psi(tau) = b*tau and phi(tau) = a*tau^2 + c. Solvability is governed by
the discriminant D = b^2 - 4ac >= 0, and the smallest crossing is
tau_* = (b - sqrt(D)) / (2a). The fixed-point reduction (Psi = identity,
psi(tau) = tau) turns the solver into classical majorant-controlled
successive substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .covering import IdentityCovering, LinearSurjectiveCovering
from .errors import DimensionMismatch, NegativeDiscriminant
from .linalg import NormTag, as_matrix, as_vector, norm, smallest_singular_value
from .majorant import DEFAULT_HORIZON, MajorantPair, ScalarFn
from .solver import ProblemInstance, SmoothMap


@dataclass
class BilinearMap:
    """Symmetric bilinear A: X x X -> Y as a rank-3 coefficient array.

    coeffs[k, i, j] weights x1[i] * x2[j] in output component k. The bound
    constant satisfies ||A(x1, x2)|| <= bound * ||x1|| * ||x2|| (certify with
    audit_bound). Without a bound the l2 spectral overestimate is used, which
    guarantees it; generated tensors are rescaled against it.
    """

    coeffs: np.ndarray
    bound: Optional[float] = None

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1] != self.coeffs.shape[2]:
            raise DimensionMismatch(
                f"expected coeffs of shape (dim_y, dim_x, dim_x), got {self.coeffs.shape}")
        if not np.array_equal(self.coeffs, self.coeffs.transpose(0, 2, 1)):
            raise ValueError("bilinear coefficients must be exactly symmetric in (i, j)")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("bilinear coefficients must be finite")
        if self.bound is None:
            self.bound = self.overestimate
        if not (self.bound > 0.0):
            raise ValueError("bound constant must be positive")

    @cached_property
    def overestimate(self) -> float:
        """spectral_overestimate(coeffs), computed once per map."""
        return spectral_overestimate(self.coeffs)

    @property
    def dim_x(self) -> int:
        return self.coeffs.shape[1]

    @property
    def dim_y(self) -> int:
        return self.coeffs.shape[0]

    def __call__(self, x1, x2):
        return apply_bilinear(self, x1, x2)

    def audit_bound(self, norm_x: NormTag = NormTag.L2, norm_y: NormTag = NormTag.L2,
                    pairs: int = 1000, seed: int = 0) -> float:
        """Max sampled ratio ||A(x1,x2)|| / (||x1|| ||x2||); must stay <= bound."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(pairs):
            x1 = rng.standard_normal(self.dim_x)
            x2 = rng.standard_normal(self.dim_x)
            denom = norm(x1, norm_x) * norm(x2, norm_x)
            if denom < 1e-12:
                continue
            worst = max(worst, norm(apply_bilinear(self, x1, x2), norm_y) / denom)
        return worst


def apply_bilinear(A: BilinearMap, x1, x2) -> np.ndarray:
    """Evaluate A(x1, x2) through the polarization identity.

    Computing (A(u,u) - A(d,d)) / 4 with u = x1 + x2, d = x1 - x2 makes the
    result bit-for-bit symmetric in its arguments (float addition commutes
    and sign flips are exact), which a direct contraction would not be.
    """
    x1 = as_vector(x1)
    x2 = as_vector(x2)
    if x1.size != A.dim_x or x2.size != A.dim_x:
        raise DimensionMismatch(
            f"bilinear map expects vectors of size {A.dim_x}, got {x1.size} and {x2.size}")
    u = x1 + x2
    d = x1 - x2
    qu = np.einsum("kij,i,j->k", A.coeffs, u, u)
    qd = np.einsum("kij,i,j->k", A.coeffs, d, d)
    return 0.25 * (qu - qd)


def spectral_overestimate(coeffs) -> float:
    """Sum of per-slice spectral norms: a certified l2 bound constant."""
    coeffs = np.asarray(coeffs, dtype=float)
    return float(sum(np.linalg.svd(coeffs[k], compute_uv=False)[0]
                     for k in range(coeffs.shape[0])))


class QuadraticMap(SmoothMap):
    """Phi(x) = A(x,x) + C with analytic Jacobian Phi'(x) = 2 A(x, .)."""

    def __init__(self, bilinear: BilinearMap, offset, domain_radius: float = np.inf):
        self.bilinear = bilinear
        self.offset = as_vector(offset)
        if self.offset.size != bilinear.dim_y:
            raise DimensionMismatch(
                f"offset has size {self.offset.size}, expected {bilinear.dim_y}")
        self.domain_center = np.zeros(bilinear.dim_x)
        self.domain_radius = float(domain_radius)

    def evaluate(self, x):
        return apply_bilinear(self.bilinear, x, x) + self.offset

    def jacobian(self, x):
        x = as_vector(x)
        return 2.0 * np.einsum("kij,i->kj", self.bilinear.coeffs, x)


@dataclass
class QuadraticProblem:
    """A(x,x) + Bx + C = 0 with its certified constants a, b, c.

    a is the bilinear map's bound. b defaults to sigma_min(B), the largest
    valid covering constant, and c to ||C||.
    """

    bilinear: BilinearMap
    linear: np.ndarray
    offset: np.ndarray
    b: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self):
        self.linear = as_matrix(self.linear)
        self.offset = as_vector(self.offset)
        dy, dx = self.linear.shape
        if dy != self.bilinear.dim_y or dx != self.bilinear.dim_x:
            raise DimensionMismatch(
                f"linear part is {dy}x{dx}, expected "
                f"{self.bilinear.dim_y}x{self.bilinear.dim_x}")
        if self.offset.size != dy:
            raise DimensionMismatch(f"offset has size {self.offset.size}, expected {dy}")
        sigma = smallest_singular_value(self.linear)
        if self.b is None:
            self.b = sigma
        if self.b > sigma + 1e-9:
            raise ValueError(f"b={self.b} exceeds the covering constant {sigma} of B")
        if not (self.b > 0.0):
            raise ValueError("b must be positive")
        c_true = norm(self.offset, NormTag.L2)
        if self.c is None:
            self.c = c_true
        if abs(self.c - c_true) > 1e-9 * (1.0 + c_true):
            raise ValueError(f"c={self.c} disagrees with ||C||={c_true}")

    @property
    def a(self) -> float:
        return self.bilinear.bound

    @property
    def discriminant(self) -> float:
        return self.b * self.b - 4.0 * self.a * self.c

    @property
    def dim_x(self) -> int:
        return self.bilinear.dim_x

    @property
    def dim_y(self) -> int:
        return self.bilinear.dim_y

    def tau_star(self) -> float:
        d = self.discriminant
        if d < -_DISCRIMINANT_TOL * max(1.0, self.b * self.b):
            raise NegativeDiscriminant(f"D = {d} < 0")
        return (self.b - math.sqrt(max(d, 0.0))) / (2.0 * self.a)

    def equation_residual(self, x) -> float:
        """||A(x,x) + Bx + C|| in the l2 norm; the solution certificate."""
        x = as_vector(x)
        return norm(apply_bilinear(self.bilinear, x, x) + self.linear @ x + self.offset,
                    NormTag.L2)


# Discriminants this close to zero (relative to b^2) count as D = 0.
_DISCRIMINANT_TOL = 1e-12


def scalar_quadratic(a: float, b: float, c: float) -> QuadraticProblem:
    """One-dimensional instance a*x^2 + b*x + c = 0 in the operator form."""
    return QuadraticProblem(
        bilinear=BilinearMap(coeffs=np.array([[[a]]]), bound=a),
        linear=np.array([[b]]),
        offset=np.array([c]),
        b=b,
        c=c,
    )


def build_quadratic_instance(q: QuadraticProblem) -> ProblemInstance:
    """Assemble the coincidence problem for a quadratic operator equation.

    Refuses D < 0 (no solution is certified). The scan window is b/a, which
    always contains the crossing tau_* <= b / (2a); a window that is not
    finite and positive raises ValueError.

    H2 is proven, not sampled, when a >= spectral_overestimate(A): with
    x0 = 0 and tau0 = 0, ||Phi'(x)|| = ||2 A(x, .)|| <= 2 S ||x|| <= 2 a tau
    = phi'(tau) on ||x|| <= tau. The comparison has no slack.
    """
    d = q.discriminant
    if d < -_DISCRIMINANT_TOL * max(1.0, q.b * q.b):
        raise NegativeDiscriminant(
            f"D = b^2 - 4ac = {d} < 0: the quadratic equation has no certified solution")
    horizon = q.b / q.a
    if not (0.0 < horizon < math.inf):
        raise ValueError(f"the scan window b/a = {horizon} must be finite and positive")
    pair = MajorantPair(
        psi=ScalarFn.linear(q.b, label=f"{q.b}*tau"),
        phi=ScalarFn.polynomial([q.c, 0.0, q.a], label=f"{q.a}*tau^2 + {q.c}"),
        tau0=0.0,
        r=math.inf,
        horizon=horizon,
    )
    inst = ProblemInstance(
        phi=QuadraticMap(q.bilinear, q.offset, domain_radius=horizon),
        cover=LinearSurjectiveCovering(q.linear, sign=-1, b=q.b),
        majorants=pair,
        x0=np.zeros(q.bilinear.dim_x),
        norms=(NormTag.L2, NormTag.L2),
    )
    inst.h2_proven = q.a >= q.bilinear.overestimate
    return inst


def build_kantorovich_instance(f: SmoothMap, lip_majorant: ScalarFn, x0,
                               tau0: float = 0.0,
                               norm_tag: NormTag = NormTag.L2) -> ProblemInstance:
    """Fixed-point reduction: Psi = identity, psi(tau) = tau.

    lip_majorant is the growth profile whose derivative dominates ||f'(x)||
    on balls around x0; it is shifted so the majorant starts exactly at the
    measured initial defect ||f(x0) - x0||.
    """
    x0 = as_vector(x0)
    gap = norm(f.evaluate(x0) - x0, norm_tag)
    offset = gap + tau0 - lip_majorant(tau0)
    phi = ScalarFn(
        fn=lambda t: lip_majorant(t) + offset,
        deriv=lip_majorant.deriv,
        label=f"{lip_majorant.label} + {offset}",
        grid=lambda ts: lip_majorant.on_grid(ts) + offset,
    )
    horizon = f.domain_radius if np.isfinite(f.domain_radius) else DEFAULT_HORIZON
    pair = MajorantPair(
        psi=ScalarFn.linear(1.0, label="tau"),
        phi=phi,
        tau0=tau0,
        r=f.domain_radius,
        horizon=horizon,
    )
    return ProblemInstance(
        phi=f,
        cover=IdentityCovering(x0.size, norm_tag),
        majorants=pair,
        x0=x0,
        norms=(norm_tag, norm_tag),
    )


def random_quadratic(dim_x: int, dim_y: int, target_margin: float,
                     seed: int) -> QuadraticProblem:
    """Seeded random instance with discriminant D = target_margin * b^2.

    The tensor is rescaled so its certified spectral overestimate is the
    bound constant; B is built from random orthogonal factors with singular
    values in [1, 2]; C is scaled so c = (b^2 - D) / (4a) exactly (clamped at
    zero for margins above one).
    """
    if dim_y > dim_x:
        raise DimensionMismatch(f"need dim_y <= dim_x, got {dim_y} > {dim_x}")
    if target_margin < 0.0:
        raise ValueError("target_margin must be nonnegative")
    rng = np.random.default_rng(seed)

    raw = rng.standard_normal((dim_y, dim_x, dim_x))
    raw = 0.5 * (raw + raw.transpose(0, 2, 1))
    raw /= spectral_overestimate(raw)
    bilinear = BilinearMap(coeffs=raw)  # bound ~1, recomputed so the certificate is exact
    a = bilinear.bound

    qu, _ = np.linalg.qr(rng.standard_normal((dim_y, dim_y)))
    qv, _ = np.linalg.qr(rng.standard_normal((dim_x, dim_x)))
    sigmas = np.sort(rng.uniform(1.0, 2.0, size=dim_y))[::-1]
    B = qu @ (sigmas[:, None] * qv[:, :dim_y].T)
    b = smallest_singular_value(B)

    c = max(0.0, b * b * (1.0 - target_margin) / (4.0 * a))
    if c > 0.0:
        direction = rng.standard_normal(dim_y)
        C = direction * (c / np.linalg.norm(direction))
        c = norm(C, NormTag.L2)  # restate c as the realized norm
    else:
        C = np.zeros(dim_y)
        c = 0.0
    return QuadraticProblem(
        bilinear=bilinear,
        linear=B,
        offset=C,
        b=b,
        c=c,
    )
