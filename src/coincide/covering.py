"""Covering maps: constrained local inversion with a radius budget.

A covering map Psi promises: whenever the target y sits within
psi(tau'') - psi(tau') of Psi(x'), a preimage x with Psi(x) = y exists inside
the ball of radius tau'' - tau' around x'. Shipped implementations pick the
minimal-norm correction, which is deterministic and meets the budget bound
tightly. `verify_covering_sampled` audits any implementation of the
interface against that contract.

`solve_within` checks the shapes of x' and y but does not scan their entries;
the step of the solver's `covering_loop` checks that the iterate it returns
is finite. The step hands over the defect y - Psi(x') it has already formed
for its residual, so a covering that needs it does not evaluate Psi(x') again.

A 1-d shipped covering also gives `float_factors`, from which the solver's
1-d loop computes evaluate and solve_within inline on Python floats, with
the bits and the errors the array methods give on one-entry vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, RankDeficient
from .linalg import (RANK_TOL, NormTag, as_matrix, as_vector, norm,
                     random_direction, shaped_vector)
from .majorant import ScalarFn

# Budget slack of the covering contract.
BUDGET_TOL = 1e-9
# Relative inversion residual and budget overshoot a sampled audit forgives.
AUDIT_TOL = 1e-8


class CoveringMap:
    """Interface: evaluate Psi, invert it within a budget, expose its modulus psi.

    A shipped covering of R onto R also gives `float_factors()`, which the
    solver's float loop reads; see the shipped classes.
    """

    psi: ScalarFn
    norm_x: NormTag = NormTag.L2
    norm_y: NormTag = NormTag.L2

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def solve_within(self, x_prime: np.ndarray, y: np.ndarray, budget: float,
                     defect: np.ndarray | None = None) -> np.ndarray:
        """x with Psi(x) = y and ||x - x'|| <= budget, else BudgetExceeded.

        defect, when given, is y - Psi(x') as the caller computed it, with the
        bits the covering's own evaluation would give; None means compute it.
        """
        raise NotImplementedError


class IdentityCovering(CoveringMap):
    """Psi(x) = x with modulus psi(tau) = tau; inversion returns y itself."""

    def __init__(self, dimension: int, norm_tag: NormTag = NormTag.L2):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)
        self.norm_x = norm_tag
        self.norm_y = norm_tag
        self.psi = ScalarFn.linear(1.0)

    def evaluate(self, x):
        return np.asarray(x, dtype=float)

    def solve_within(self, x_prime, y, budget, defect=None):
        x_prime = shaped_vector(x_prime)
        y = shaped_vector(y)
        if x_prime.size != self.dimension or y.size != self.dimension:
            raise DimensionMismatch(
                f"identity covering of dimension {self.dimension} got a start of size "
                f"{x_prime.size} and a target of size {y.size}")
        step = norm(y - x_prime, self.norm_x)
        if step > budget + BUDGET_TOL:
            raise self._over_budget(step, budget)
        return y

    def float_factors(self):
        """(None, None) for dimension 1, None otherwise: Psi(x) is x, and
        solve_within returns y, which moves |y - x'| from x'."""
        return (None, None) if self.dimension == 1 else None

    @staticmethod
    def _over_budget(step: float, budget: float) -> BudgetExceeded:
        return BudgetExceeded(
            f"identity covering asked to move {step:.6e} > budget {budget:.6e}",
            step=step, budget=budget)


class LinearSurjectiveCovering(CoveringMap):
    """Psi(x) = -B x for a surjective B, with modulus psi(tau) = b * tau.

    For l2 norms on both sides the exact largest valid covering constant is
    sigma_min(B), the default. A user-supplied b is accepted (required for
    linf norms, where no constant is computed automatically) but anything
    above sigma_min under l2/l2 is rejected unless check_constant=False;
    audit such overrides with verify_covering_sampled. B is factored here
    once: the one SVD gives sigma_min, the default b and the cached
    pseudo-inverse, and every check of b is made here.
    """

    def __init__(self, B, b: float | None = None,
                 norm_x: NormTag = NormTag.L2, norm_y: NormTag = NormTag.L2,
                 check_constant: bool = True):
        self.B = as_matrix(B)
        self.norm_x = norm_x
        self.norm_y = norm_y
        m, n = self.B.shape
        u, s, vt = np.linalg.svd(self.B, full_matrices=False)
        if m > n or s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
            raise RankDeficient(f"matrix {m}x{n} is not surjective")
        self.sigma_min = float(s[-1])
        # Cached minimal-norm inverse; identical math to min_norm_solve.
        self._pinv = vt.T @ (u / s).T
        if b is None:
            if norm_x != NormTag.L2 or norm_y != NormTag.L2:
                raise ValueError("covering constant b must be supplied for non-l2 norms")
            b = self.sigma_min
        if not (b > 0):  # NaN too
            raise ValueError("covering constant b must be positive")
        if (check_constant and norm_x == NormTag.L2 and norm_y == NormTag.L2
                and b > self.sigma_min + 1e-9):
            raise ValueError(
                f"b={b} exceeds sigma_min={self.sigma_min}; not a valid l2 covering constant")
        self.b = float(b)
        self.psi = ScalarFn.linear(self.b)
        # ndarray.dot, with less dispatch than `@`, when the matrix lies in C
        # or F order and the vector has a positive stride; `@` on other
        # layouts (a column slice, a reversed view) rounds its sums otherwise.
        # On a 1x1 matrix `B.dot(x)` keeps a -0 product that `B @ x` adds to
        # +0. The pseudo-inverse is C-ordered and -defect is a new C vector.
        self._dot_is_matmul = _c_or_f_ordered(self.B)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if self._dot_is_matmul and x.ndim == 1 and x.strides[0] > 0:
            return -(self.B.dot(x))
        return -(self.B @ x)

    def solve_within(self, x_prime, y, budget, defect=None):
        x_prime = shaped_vector(x_prime)
        y = shaped_vector(y)
        defect = y - self.evaluate(x_prime) if defect is None else shaped_vector(defect)
        delta = self._pinv.dot(-defect)
        step = norm(delta, self.norm_x)
        if step > budget + BUDGET_TOL:
            raise self._over_budget(step, budget)
        return x_prime + delta

    def float_factors(self):
        """(b, p) of a 1x1 B = [[b]] with pseudo-inverse [[p]]: Psi(x) is
        -(b * x) and the correction p * -defect, signed zeros included, as
        `B.dot(x)` and `pinv.dot(-defect)` give them. None for a larger B, or
        one in neither C nor F order, whose `B @ x` adds b * x to +0."""
        if self.B.shape != (1, 1) or not self._dot_is_matmul:
            return None
        return float(self.B[0, 0]), float(self._pinv[0, 0])

    def _over_budget(self, step: float, budget: float) -> BudgetExceeded:
        return BudgetExceeded(
            f"correction {step:.6e} exceeds budget {budget:.6e} "
            f"(covering constant b={self.b} too large?)",
            step=step, budget=budget)


def _c_or_f_ordered(M: np.ndarray) -> bool:
    """M's strides are those of its C-ordered or its F-ordered copy."""
    (m, n), k = M.shape, M.itemsize
    return M.strides in ((n * k, k), (k, m * k))


@dataclass
class CoveringAudit:
    """Result of a randomized covering-contract audit."""

    trials: int
    violations: int
    max_residual: float
    max_overshoot: float

    @property
    def clean(self) -> bool:
        return self.violations == 0


def verify_covering_sampled(cover: CoveringMap, region_center, region_radius: float,
                            trials: int = 1000, seed: int = 0) -> CoveringAudit:
    """Randomized audit of the covering contract.

    Samples x' in the region, a budget tau'' - tau', and a target y inside the
    allowed image ball (half the trials on its boundary, where violations of a
    wrong covering constant are largest), then checks that solve_within meets
    the relative inversion residual and the budget, each to AUDIT_TOL.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    center = as_vector(region_center)
    rng = np.random.default_rng(seed)
    violations = 0
    max_resid = 0.0
    max_over = 0.0
    for _ in range(trials):
        x_prime = center + region_radius * rng.uniform(-1.0, 1.0) * random_direction(
            rng, center.size, cover.norm_x)
        tau_lo = rng.uniform(0.0, max(region_radius, 1.0))
        budget = rng.uniform(0.0, max(region_radius, 1.0))
        increment = cover.psi(tau_lo + budget) - cover.psi(tau_lo)
        psi_x = cover.evaluate(x_prime)
        frac = min(1.0, 2.0 * rng.uniform())
        y = psi_x + frac * increment * random_direction(rng, psi_x.size, cover.norm_y)
        try:
            x = cover.solve_within(x_prime, y, budget)
        except BudgetExceeded as err:
            violations += 1
            if err.overshoot is not None:
                max_over = max(max_over, err.overshoot)
            continue
        resid = norm(cover.evaluate(x) - y, cover.norm_y) / (1.0 + norm(y, cover.norm_y))
        over = max(0.0, norm(x - x_prime, cover.norm_x) - budget)
        max_resid = max(max_resid, resid)
        max_over = max(max_over, over)
        if resid > AUDIT_TOL or over > AUDIT_TOL:
            violations += 1
    return CoveringAudit(trials=trials, violations=violations,
                         max_residual=max_resid, max_overshoot=max_over)
