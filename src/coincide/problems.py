"""Concrete problem gallery.

The quadratic operator equation A(x,x) + Bx + C = 0 splits into the smooth
part Phi(x) = A(x,x) + C against the linear covering Psi(x) = -Bx, majorized
by psi(tau) = b*tau and phi(tau) = a*tau^2 + c. Solvability is governed by
the discriminant D = b^2 - 4ac >= 0, and the smallest crossing is
tau_* = (b - sqrt(D)) / (2a), which `smallest_crossing` takes as
2c / (b + sqrt(D)) and `QuadraticProblem.tau_star` reads. The fixed-point
reduction (Psi = identity, psi(tau) = tau) turns the solver into classical
majorant-controlled successive substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest
from typing import Optional

import numpy as np

from .covering import IdentityCovering, LinearSurjectiveCovering
from .errors import DimensionMismatch, NegativeDiscriminant, NoCrossing, NonFiniteValue
from .linalg import (
    NormTag,
    as_matrix,
    as_vector,
    norm,
    operator_norm,
    shaped_vector,
    smallest_singular_value,
)
from .majorant import DEFAULT_HORIZON, MajorantPair, ScalarFn, smallest_crossing
from .solver import AffineMap, ProblemInstance, SmoothMap


@dataclass
class BilinearMap:
    """Symmetric bilinear A: X x X -> Y as a rank-3 coefficient array.

    coeffs[k, i, j] weights x1[i] * x2[j] in output component k. The bound
    constant satisfies ||A(x1, x2)|| <= bound * ||x1|| * ||x2||. Without a
    bound the l2 spectral overestimate is used, which guarantees it;
    generated tensors are rescaled against it.
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
    """Sum of per-slice spectral norms: a certified l2 bound constant.

    One stacked SVD gives each slice the bits its own SVD gives it; the
    norms are summed left to right.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    return float(sum(np.linalg.svd(coeffs, compute_uv=False)[:, 0].tolist()))


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
        self._dim_x = bilinear.dim_x

    def evaluate(self, x):
        """apply_bilinear(x, x) + offset in one contraction.

        The polarization half with d = x - x contracts zero vectors; for a
        finite x that einsum is +0, and q - (+0) is q, so dropping it leaves
        every bit of the result as it was. Only the shape of x is checked: it
        is an iterate, and the covering step checks finiteness.
        """
        x = shaped_vector(x)
        if x.size != self._dim_x:
            raise DimensionMismatch(
                f"bilinear map expects vectors of size {self._dim_x}, "
                f"got {x.size} and {x.size}")
        u = x + x
        return 0.25 * np.einsum("kij,i,j->k", self.bilinear.coeffs, u, u) + self.offset

    def jacobian(self, x):
        x = as_vector(x)
        return 2.0 * np.einsum("kij,i->kj", self.bilinear.coeffs, x)

    def float_form(self):
        # The 1x1x1 einsum adds (A * u) * u to +0, which turns a -0 into +0.
        if self.bilinear.coeffs.shape != (1, 1, 1):
            return None
        a, c = float(self.bilinear.coeffs[0, 0, 0]), float(self.offset[0])

        def evaluate(x):
            u = x + x
            return 0.25 * (0.0 + a * u * u) + c

        return evaluate


class PolynomialMap(SmoothMap):
    """Phi(x) = p(x) on R for a polynomial ScalarFn p, with Phi'(x) = p'(x).

    A non-finite value raises NonFiniteValue where it is made.
    """

    def __init__(self, poly: ScalarFn, domain_center: float, domain_radius: float):
        self.poly = poly
        self.domain_center = as_vector([domain_center])
        self.domain_radius = float(domain_radius)

    def evaluate(self, x):
        return np.array([self._checked(_entry(x))])

    def jacobian(self, x):
        return np.array([[self.poly.derivative(_entry(x))]])

    def _checked(self, x: float) -> float:
        value = self.poly(x)
        if not math.isfinite(value):
            raise NonFiniteValue("Phi(x) has a non-finite entry")
        return value

    def float_form(self):
        return self._checked


def _entry(x) -> float:
    """The entry of the one-entry vector x; DimensionMismatch for any other size."""
    x = shaped_vector(x)
    if x.size != 1:
        raise DimensionMismatch(f"polynomial map expects vectors of size 1, got {x.size}")
    return float(x[0])


@dataclass
class QuadraticProblem:
    """A(x,x) + Bx + C = 0 with its certified constants a, b, c.

    a is the bilinear map's bound and c defaults to ||C||. The covering
    Psi(x) = -Bx with modulus b * tau, `cover`, is built with the problem:
    it factors B, defaults b to sigma_min(B), the largest valid covering
    constant, and checks a given b. Every instance and baseline made from
    the problem shares it; `instance`, the build_quadratic_instance(self)
    that compare_methods solves, is built once, on first use.
    """

    bilinear: BilinearMap
    linear: np.ndarray
    offset: np.ndarray
    b: Optional[float] = None
    c: Optional[float] = None
    cover: LinearSurjectiveCovering = field(init=False, repr=False, compare=False)

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
        self.cover = LinearSurjectiveCovering(self.linear, b=self.b)
        self.b = self.cover.b
        c_true = norm(self.offset, NormTag.L2)
        if self.c is None:
            self.c = c_true
        if abs(self.c - c_true) > 1e-9 * (1.0 + c_true):
            raise ValueError(f"c={self.c} disagrees with ||C||={c_true}")

    @cached_property
    def instance(self) -> ProblemInstance:
        return build_quadratic_instance(self)

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
        """smallest_crossing(instance.majorants): the tau_* that its solve uses.

        For D >= 0 that is 2c / (b + sqrt(D)), the smaller root of
        a tau^2 - b tau + c without cancellation; a D just below 0, which the
        builder accepts as rounding when the scan finds a crossing, is
        scanned. Raises what building the instance raises
        (NegativeDiscriminant when D < 0 is not rounding).
        """
        return smallest_crossing(self.instance.majorants)

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

    Refuses D < 0 (no solution is certified) as NegativeDiscriminant. A D
    just below 0, within _DISCRIMINANT_TOL * b^2, counts as rounding only
    when `smallest_crossing` finds a crossing, so no accepted problem fails
    as one without. The scan window is b/a, which always contains the
    crossing tau_* <= b / (2a); a window that is not finite and positive
    raises ValueError.

    H2 is proven, not sampled, when a >= spectral_overestimate(A): with
    x0 = 0 and tau0 = 0, ||Phi'(x)|| = ||2 A(x, .)|| <= 2 S ||x|| <= 2 a tau
    = phi'(tau) on ||x|| <= tau. The comparison has no slack.
    """
    d = q.discriminant
    refused = NegativeDiscriminant(
        f"D = b^2 - 4ac = {d} < 0: the quadratic equation has no certified solution")
    if d < -_DISCRIMINANT_TOL * max(1.0, q.b * q.b):
        raise refused
    horizon = q.b / q.a
    if not (0.0 < horizon < math.inf):
        raise ValueError(f"the scan window b/a = {horizon} must be finite and positive")
    pair = MajorantPair(psi=q.cover.psi, phi=ScalarFn.polynomial([q.c, 0.0, q.a]),
                        tau0=0.0, horizon=horizon)
    if d < 0.0:
        try:
            smallest_crossing(pair)
        except NoCrossing:
            raise refused from None
    inst = ProblemInstance(phi=QuadraticMap(q.bilinear, q.offset, domain_radius=horizon),
                           cover=q.cover, majorants=pair, x0=np.zeros(q.dim_x))
    inst.h2_proven = q.a >= q.bilinear.overestimate
    return inst


def build_kantorovich_instance(f: SmoothMap, lip_majorant: ScalarFn, x0,
                               norm_tag: NormTag = NormTag.L2) -> ProblemInstance:
    """Fixed-point reduction: Psi = identity, psi(tau) = tau, tau0 = 0.

    f must map X to X: f(x0) has the shape of x0, else DimensionMismatch.
    lip_majorant is the growth profile whose derivative dominates ||f'(x)||
    on balls around x0; it is shifted so the majorant starts exactly at the
    measured initial defect ||f(x0) - x0||. The window is f's domain radius,
    or DEFAULT_HORIZON when that is infinite.

    H2 is proven, not sampled, when f is an AffineMap with finite W and
    lip_majorant is a degree-1 polynomial with slope lip: the Jacobian is W everywhere and
    phi' is lip, so H2 holds iff operator_norm(W) <= lip. The comparison has
    no slack; the sampled check norms copies of W, which operator_norm gives
    the same bits, so a proof implies a clean sample.
    """
    x0 = as_vector(x0)
    fx0 = f.evaluate(x0)
    if fx0.shape != x0.shape:
        raise DimensionMismatch(
            f"the fixed-point reduction needs f: X -> X, but f maps x0 of shape "
            f"{x0.shape} to shape {fx0.shape}")
    gap = norm(fx0 - x0, norm_tag)
    phi = lip_majorant.shifted(gap - lip_majorant(0.0))
    horizon = DEFAULT_HORIZON if f.domain_radius == math.inf else f.domain_radius
    cover = IdentityCovering(x0.size, norm_tag)
    pair = MajorantPair(psi=cover.psi, phi=phi, tau0=0.0, horizon=horizon)
    inst = ProblemInstance(phi=f, cover=cover, majorants=pair, x0=x0)
    lip = lip_majorant.coeffs
    if (isinstance(f, AffineMap) and lip is not None and len(lip) == 2
            and np.all(np.isfinite(f.W))):
        inst.h2_proven = operator_norm(f.W, norm_tag, norm_tag) <= lip[1]
    return inst


def build_polynomial_instance(phi_poly: list, majorant_poly: list, psi_slope: float,
                              horizon: float, x0: float = 0.0, tau0: float = 0.0,
                              norms: tuple = (NormTag.L2, NormTag.L2)) -> ProblemInstance:
    """1-d Phi = p against Psi(x) = -psi_slope * x, majorized by phi = m.

    p and m are ascending coefficient lists; the window is
    [tau0, tau0 + horizon], and an invalid pair raises ValueError. H2 is
    proven at x0 = tau0 = 0 (see `_polynomial_h2_proven`). Elsewhere the ball
    is not centred at 0 and the proof would need p' and m' re-expanded about
    x0 and tau0; those instances are sampled.
    """
    phi_map = PolynomialMap(ScalarFn.polynomial(phi_poly), x0, horizon)
    cover = LinearSurjectiveCovering(np.array([[psi_slope]]), b=psi_slope,
                                     norm_x=norms[0], norm_y=norms[1])
    pair = MajorantPair(psi=cover.psi, phi=ScalarFn.polynomial(majorant_poly),
                        tau0=tau0, horizon=horizon)
    inst = ProblemInstance(phi=phi_map, cover=cover, majorants=pair, x0=np.array([x0]))
    if x0 == 0.0 and tau0 == 0.0:
        inst.h2_proven = _polynomial_h2_proven(phi_map.poly, pair, norms)
    return inst


def _polynomial_h2_proven(p: ScalarFn, pair: MajorantPair, norms) -> bool:
    """H2 for Phi = p against phi = m on |x| <= tau, with x0 = tau0 = 0.

    It holds when every majorant coefficient m_k (k >= 1) is >= 0 and at
    least |p_k|, m'(tau_end) is finite and X and Y carry one norm tag. Float
    rounding is monotone and odd, so k * p_k, each Horner product and each
    Horner sum keep |fl p'(x)| <= fl m'(tau) whenever |x| <= tau, and
    fl m'(tau) <= fl m'(tau_end) < inf on the window: no sampled Jacobian is
    inf or NaN. For one tag the 1x1 operator norm is |J| (linf) or at most
    |J| (l2, by SVD); the mixed tags take the rescaled row norm of J, which
    this argument does not cover, so they are sampled. An O(n) float
    comparison with no slack.
    """
    if norms[0] != norms[1]:
        return False
    pairs = zip_longest(p.coeffs[1:], pair.phi.coeffs[1:], fillvalue=0.0)
    return (all(0.0 <= m and abs(p_k) <= m for p_k, m in pairs)
            and math.isfinite(pair.phi.derivative(pair.tau_end)))


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
