"""Coincidence iteration under majorant control.

Each step inverts the covering at the current image of the smooth map,
Psi(x_{j+1}) = Phi(x_j), with the radius budget tau_{j+1} - tau_j handed out
by the scalar recurrence psi(tau_{j+1}) = phi(tau_j). The recorded trace
certifies the step bounds

    ||x_j - x_0||     <= tau_j - tau_0
    ||x_{j+1} - x_j|| <= tau_{j+1} - tau_j

so the returned point always carries a distance certificate, even on early
termination.

Both this iteration and the alpha-covering baseline run `covering_loop`,
which takes each majorant budget from one call of the step that
`majorant.budget_stepper` returns; a compare runs the one iteration once and
certifies it under both schemes. The loop has one step body and holds only
the current x, which each solve returns. A 1-d solve runs it on Python
floats, where numpy's per-call dispatch on one-entry arrays would cost more
than the arithmetic, when its map is a `QuadraticMap`, an `AffineMap` or a
`PolynomialMap`, its covering a `LinearSurjectiveCovering` or an
`IdentityCovering` (exactly those classes) and its norms l2 or linf: x,
Phi(x), the defect, tau and the rows stay in locals, and a step calls only
the map's float form and the budget step. Every other solve runs the same
body on the array methods.
The float path keeps the array methods' bits and checks:

- the 1x1x1 einsum is 0.0 + (A * u) * u and the 1x1 `W @ x` is 0.0 + w * x:
  a sum that starts at +0 turns a -0 product into +0;
- the covering's `B.dot(x)` and `pinv.dot(v)` are bare products, keeping -0;
- the l2 norm of one entry is sqrt(v * v), which overflows and underflows
  where abs(v) does not; the linf norm is abs(v);
- BudgetExceeded, BracketFailure, both NonFiniteValue tests and the STEP_TOL
  test of H2 fire at the same step, with the same messages.

A trace is its rows: each a plain tuple in trace.csv's column order, which
holds every certified distance. Its `records` and `final` build
`TraceRecord`s when read; the returned x is a fresh float64 ndarray.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, InsufficientData, NonFiniteValue
from .covering import BUDGET_TOL, CoveringMap
from .linalg import (
    NormTag,
    as_vector,
    finite_diff_jacobian,
    norm,
    operator_norm,
    random_direction,
    shaped_vector,
)
from .majorant import MajorantPair, budget_stepper, smallest_crossing, validate_h2_start

STATUS_CONVERGED = "converged"
STATUS_MAX_STEPS = "max_steps"
STATUS_HYPOTHESIS = "hypothesis_violation"

# Certificate slacks used both here and by the test suite.
STEP_TOL = 1e-8
TAIL_STOP = 1e-14

DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_MAX_STEPS = 100_000

_EPS = float(np.finfo(float).eps)  # polyfit's unit of rcond

# Sampled H2 derivative check: draws per solve, and the relative slack on phi'.
H2_SAMPLES = 100
H2_REL_SLACK = 1e-6


class SmoothMap:
    """A differentiable map with an explicit domain ball.

    A map of R into R may also give `float_form()`: evaluate on Python
    floats, with the bits and errors evaluate gives on one-entry vectors.
    """

    domain_center: np.ndarray
    domain_radius: float

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class CallableMap(SmoothMap):
    """Wrap plain callables as a smooth map; Jacobian falls back to central differences."""

    def __init__(self, f: Callable, jac: Optional[Callable] = None,
                 domain_center=None, domain_radius: float = np.inf):
        self._f = f
        self._jac = jac
        self.domain_center = as_vector(domain_center if domain_center is not None else [0.0])
        self.domain_radius = float(domain_radius)

    def evaluate(self, x):
        value = shaped_vector(self._f(np.asarray(x, dtype=float)))
        if not np.all(np.isfinite(value)):
            raise NonFiniteValue("Phi(x) has a non-finite entry")
        return value

    def jacobian(self, x):
        if self._jac is not None:
            return np.atleast_2d(np.asarray(self._jac(np.asarray(x, dtype=float)), dtype=float))
        return finite_diff_jacobian(self._f, x)


class AffineMap(SmoothMap):
    """x -> W x + d; d and domain_center must fit W's rows and columns."""

    def __init__(self, W, d, domain_center=None, domain_radius: float = np.inf):
        self.W = np.atleast_2d(np.asarray(W, dtype=float))
        self.d = as_vector(d)
        self.domain_center = as_vector(
            domain_center if domain_center is not None else np.zeros(self.W.shape[1]))
        self.domain_radius = float(domain_radius)
        if (self.d.size, self.domain_center.size) != self.W.shape:
            raise DimensionMismatch(
                f"affine map with W of shape {self.W.shape} needs a shift of size "
                f"{self.W.shape[0]} and a domain center of size {self.W.shape[1]}, "
                f"got {self.d.size} and {self.domain_center.size}")

    def evaluate(self, x):
        return self.W @ np.asarray(x, dtype=float) + self.d

    def jacobian(self, x):
        return self.W.copy()

    def float_form(self):
        if self.W.shape != (1, 1):
            return None
        w, d = float(self.W[0, 0]), float(self.d[0])
        return lambda x: (0.0 + w * x) + d


@dataclass
class ProblemInstance:
    """Everything a solve needs: the map pair, the majorants, and the start."""

    phi: SmoothMap
    cover: CoveringMap
    majorants: MajorantPair
    x0: np.ndarray
    # Set only by a builder in problems.py that proves the derivative bound
    # H2 from the structure it builds; coincidence_solve then skips the
    # sampled check. Each builder states its rule. Not a constructor argument.
    # The proof is for the phi, majorants and x0 the builder set: to change
    # them, build anew.
    h2_proven: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        self.x0 = as_vector(self.x0)


def as_point(v) -> np.ndarray:
    """A loop point (a float or an ndarray) as a fresh float64 vector."""
    return np.array(v, dtype=float, ndmin=1)


@dataclass
class TraceRecord:
    j: int
    tau: float
    deviation: float
    step_norm: float
    residual: float


@dataclass
class IterateTrace:
    """rows[j] is (j, tau, deviation, step_norm, residual), trace.csv's columns.
    `records` and `final` are views built on each read, so hoist a `records`
    read out of a loop."""

    rows: list = field(default_factory=list)
    status: str = STATUS_MAX_STEPS
    detail: str = ""
    tau0: float = 0.0
    tau_star: float = float("nan")

    @property
    def steps(self) -> int:
        return len(self.rows) - 1

    @property
    def records(self) -> list[TraceRecord]:
        return [TraceRecord(*row) for row in self.rows]

    @property
    def final(self) -> TraceRecord:
        return TraceRecord(*self.rows[-1])


@dataclass
class H2Report:
    samples: int
    violations: int
    max_excess: float

    @property
    def clean(self) -> bool:
        return self.violations == 0


def _sample_in_tau_ball(rng, inst: ProblemInstance, tau0: float, tau_hi: float):
    """Random (tau, x) with ||x - x0|| <= tau - tau0 in the instance's X norm."""
    tau = rng.uniform(tau0, tau_hi)
    rho = rng.uniform(0.0, tau - tau0) if tau > tau0 else 0.0
    return tau, inst.x0 + rho * random_direction(rng, inst.x0.size, inst.cover.norm_x)


def validate_h2_derivative(inst: ProblemInstance, samples: int,
                           tau_hi: float | None = None, seed: int = 1234) -> H2Report:
    """Sampled check of the derivative bound ||Phi'(x)|| <= phi'(tau).

    Draws random (tau, x) with ||x - x0|| <= tau - tau0 and compares the
    subordinate operator norm of the Jacobian against
    phi'(tau) * (1 + H2_REL_SLACK). The finite Jacobians are stacked and
    normed in one operator_norm call; a Jacobian with an inf or NaN entry is
    a violation with excess inf. The report carries the violation count and
    the worst excess.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pair = inst.majorants
    if tau_hi is None:
        tau_hi = smallest_crossing(pair)
    rng = np.random.default_rng(seed)
    jacobians = []
    slopes = np.empty(samples)
    for i in range(samples):
        tau, x = _sample_in_tau_ball(rng, inst, pair.tau0, tau_hi)
        jacobians.append(np.atleast_2d(inst.phi.jacobian(x)))
        slopes[i] = pair.phi.derivative(tau)
    stack = np.stack(jacobians)
    finite = np.isfinite(stack).all(axis=(-2, -1))
    bad = samples - int(np.count_nonzero(finite))
    excess = np.empty(0)
    if bad < samples:
        ops = operator_norm(stack[finite], inst.cover.norm_x, inst.cover.norm_y)
        bounds = slopes[finite] * (1.0 + H2_REL_SLACK)
        violated = ops > bounds
        excess = ops[violated] - bounds[violated]
    return H2Report(samples=samples, violations=excess.size + bad,
                    max_excess=math.inf if bad else float(np.max(excess, initial=0.0)))


def _own_float_form(obj, name: str):
    """obj.<name>() when obj's own class defines it, else None: a subclass
    may change the array methods that the form mirrors. The form itself is
    None where it does not apply (a map or covering that is not 1-d)."""
    form = vars(type(obj)).get(name)
    return None if form is None else form(obj)


def _float_kernels(cover: CoveringMap, phi: SmoothMap, x0: np.ndarray) -> Optional[tuple]:
    """(evaluate, (b, p)) when a solve from x0 runs on Python floats, else
    None: x0 has shape (1,), both norms are l2 or linf, and the map's own
    class gives `float_form` (evaluate) and the covering's `float_factors`."""
    tags = (NormTag.L2, NormTag.LINF)
    if x0.shape != (1,) or cover.norm_x not in tags or cover.norm_y not in tags:
        return None
    evaluate = _own_float_form(phi, "float_form")
    factors = _own_float_form(cover, "float_factors")
    return None if evaluate is None or factors is None else (evaluate, factors)


def covering_loop(cover: CoveringMap, phi: SmoothMap, x0: np.ndarray, residual_tol: float,
                  max_steps: int, *, pair: Optional[MajorantPair] = None,
                  tau_star: float = math.nan, h2_stop: Optional[Callable] = None,
                  alpha: Optional[float] = None) -> list[tuple[np.ndarray, IterateTrace]]:
    """One covering iteration from x0, certified by the majorant recurrence
    of `coincidence_solve` (pair and its crossing tau_star given), by the
    budgets residual / alpha of `alpha_iterate` (alpha given), or by both;
    returns (x_star, trace) per scheme given, the majorant's first: each
    x_star is the iterate of its trace's last row. h2_stop
    (residual), called on the start's residual, gives the detail of a
    majorant H2 stop before the first step, or None.

    A compare's covering corrects by its minimal-norm inverse, whatever the
    budget, so one pass serves both schemes. While both run, the majorant
    leads: the rows carry its tau, the baseline's (from 0) are kept apart,
    and a step inverts within the smaller budget; once the majorant stops,
    the baseline leads alone. A refused baseline budget ends the baseline,
    its BudgetExceeded held until the majorant ends normally, and the step
    is made again as the majorant's alone; a majorant error is raised at
    its step. A single scheme's step pays only the majorant's `joint` test.

    Each majorant budget is one call of the `budget_stepper` step, followed
    by the stall and H2 tests. A step then corrects x within the budget,
    handing the covering the defect Phi(x) - Psi(x) so that it need not
    evaluate Psi(x) again; the budget is passed apart from tau, since the
    baseline sums its budgets into tau and in floats (tau + budget) - tau
    need not be budget. A refused budget raises BudgetExceeded; an inf or
    NaN step norm (in x, Phi(x) or the correction) or new residual (Phi or
    Psi overflowed) raises NonFiniteValue before the row is recorded. A
    solve `_float_kernels` admits computes the correction, Psi and the
    norms inline on floats (`floats`); every other solve calls the
    covering's `solve_within` and `evaluate` and `linalg.norm`.
    """
    sqrt, isfinite = math.sqrt, math.isfinite
    tau = 0.0 if pair is None else pair.tau0
    kernels = _float_kernels(cover, phi, x0)
    floats = kernels is not None
    if floats:
        # Psi(x) is -(b * x), or x for the identity covering (b is None).
        evaluate, (b, p) = kernels
        l2_x, l2_y = cover.norm_x == NormTag.L2, cover.norm_y == NormTag.L2
        x = origin = float(x0[0])
        phi_x = evaluate(x)
        defect = phi_x - (x if b is None else -(b * x))
        residual = sqrt(defect * defect) if l2_y else abs(defect)
    else:
        tag_x, tag_y = cover.norm_x, cover.norm_y
        evaluate, psi, correct = phi.evaluate, cover.evaluate, cover.solve_within
        x, origin = x0.copy(), x0.copy()
        phi_x = evaluate(x)
        defect = phi_x - psi(x)
        residual = norm(defect, tag_y)
    trace = IterateTrace(rows=[(0, tau, 0.0, 0.0, residual)], tau0=tau, tau_star=tau_star)
    rows = trace.rows
    has_m, joint = pair is not None, pair is not None and alpha is not None
    tau_b, taus_b, held, stop, end, end_m, j = 0.0, [0.0], None, None, None, None, 0
    if has_m:
        detail = None if h2_stop is None else h2_stop(residual)
        if detail is not None:
            stop = STATUS_HYPOTHESIS, detail
        else:
            next_budget = budget_stepper(pair, tau_star)

    while True:
        if stop is None:
            try:
                for j in range(j, max_steps):
                    if residual <= residual_tol:
                        end = STATUS_CONVERGED
                        break
                    if pair is None:
                        budget = residual / alpha
                        tau_next = tau + budget
                    else:
                        if tau_star - tau <= TAIL_STOP:
                            stop = STATUS_CONVERGED, "tau tail exhausted"
                            break
                        tau_next, increment = next_budget(tau)
                        if tau_next <= tau:
                            stop = STATUS_MAX_STEPS, "tau sequence stalled at float resolution"
                            break
                        if residual > increment + STEP_TOL:
                            stop = STATUS_HYPOTHESIS, (f"H2: defect {residual:.6e} exceeds "
                                                       f"admissible increment {increment:.6e} "
                                                       f"at step {j}")
                            break
                        budget = tau_next - tau
                        if joint:
                            tau_m, budget_b = tau, residual / alpha
                            tau_b += budget_b
                            taus_b.append(tau_b)
                            if budget_b < budget:
                                budget = budget_b
                    tau, k = tau_next, j + 1
                    if floats:
                        if b is None:  # y itself, which moves y - x = defect
                            delta, x_next = defect, phi_x
                        else:
                            delta = p * -defect
                            x_next = x + delta
                        move = sqrt(delta * delta) if l2_x else abs(delta)
                        if move > budget + BUDGET_TOL:
                            raise cover._over_budget(move, budget)
                        v = x_next - x
                        size = sqrt(v * v) if l2_x else abs(v)
                    else:
                        x_next = correct(x, phi_x, budget, defect)
                        size = norm(x_next - x, tag_x)
                    if not isfinite(size):
                        raise NonFiniteValue(f"iterate {k} is not finite (step norm {size})")
                    phi_x = evaluate(x_next)
                    if floats:
                        defect = phi_x - (x_next if b is None else -(b * x_next))
                        residual = sqrt(defect * defect) if l2_y else abs(defect)
                    else:
                        defect = phi_x - psi(x_next)
                        residual = norm(defect, tag_y)
                    if not isfinite(residual):
                        raise NonFiniteValue(
                            f"Phi(x_{k}) - Psi(x_{k}) is not finite (residual {residual})")
                    if floats:
                        v = x_next - origin
                        deviation = sqrt(v * v) if l2_x else abs(v)
                    else:
                        deviation = norm(x_next - origin, tag_x)
                    rows.append((k, tau, deviation, size, residual))
                    x = x_next
                else:
                    end = STATUS_MAX_STEPS
            except BudgetExceeded as err:
                if not joint:
                    raise
                # Only a covering step raises this. Refused within a joint
                # step's budget, it ends the baseline, and step j is made
                # again as the majorant's alone, which raises the covering's
                # own error if the refused budget was the majorant's.
                held, joint, tau = err, False, tau_m
                continue
        if stop is None or not joint:
            break
        # The majorant stopped at row j, at x; the baseline leads on alone.
        end_m, stop, pair, joint = (len(rows), as_point(x), *stop), None, None, False
        tau = tau_b

    if held is not None:
        raise held
    trace.status, trace.detail = stop or (end, "")
    if not has_m or alpha is None:
        return [(as_point(x), trace)]
    # Both schemes: the majorant's trace is the first n rows, and the
    # baseline's rows take its own taus.
    n, x_m, status, detail = end_m or (len(rows), as_point(x), trace.status, trace.detail)
    rows_b = [row[:1] + (t,) + row[2:] for row, t in zip(rows, taus_b)] + rows[len(taus_b):]
    return [(x_m, IterateTrace(rows=rows[:n], status=status, detail=detail,
                               tau0=trace.tau0, tau_star=tau_star)),
            (as_point(x), IterateTrace(rows=rows_b, status=end))]


def _h2_stop(inst: ProblemInstance, tau_star: float, h2_check: str,
             residual: float) -> Optional[str]:
    """The detail of a solve that stops on H2 before its first step, given
    the start's residual, else None; a violated sample in "warn" mode warns."""
    pair = inst.majorants
    if not validate_h2_start(pair, residual):
        return (f"H2: initial defect {residual:.6e} exceeds "
                f"phi(tau0)-psi(tau0) = {pair.gap_at_start():.6e}")
    if not inst.h2_proven:
        report = validate_h2_derivative(inst, H2_SAMPLES, tau_hi=tau_star)
        if not report.clean:
            msg = (f"H2: sampled derivative bound violated {report.violations}/"
                   f"{report.samples} times (max excess {report.max_excess:.3e})")
            if h2_check == "strict":
                return msg
            # One stable line, "coincide:0: RuntimeWarning: H2: ...", once per message.
            warnings.warn_explicit(msg, RuntimeWarning, "coincide", 0, module=__name__,
                                   registry=globals().setdefault("__warningregistry__", {}))
    return None


def coincidence_solve(inst: ProblemInstance,
                      residual_tol: float = DEFAULT_RESIDUAL_TOL,
                      max_steps: int = DEFAULT_MAX_STEPS,
                      h2_check: str = "warn") -> tuple[np.ndarray, IterateTrace]:
    """Run the majorant-controlled coincidence iteration.

    Stops when the residual ||Phi(x_j) - Psi(x_j)|| drops to residual_tol, or
    when the scalar tail tau_* - tau_j falls below TAIL_STOP (the iterate is
    then within the certificate radius of the limit). Hitting max_steps
    returns the best iterate with its partial certificate rather than failing.

    h2_check: "warn" (default) samples the derivative bound at H2_SAMPLES
    points and warns on violations, "strict" aborts the solve with a
    hypothesis_violation status. The initial-gap
    condition is always enforced. The bound is not sampled when
    inst.h2_proven is set: the quadratic, Kantorovich and polynomial
    builders of problems.py set it where their docstrings say, each comparing
    floats with no slack, and each proof implies that the sample would be
    clean. Any other instance, hand-built ones included, is sampled.

    Raises NoCrossing when the majorants never meet, and propagates
    BudgetExceeded when the covering breaks its contract.

    Returns (x_star, trace); x_star is a fresh float64 ndarray.
    """
    if h2_check not in ("warn", "strict"):
        raise ValueError("h2_check must be 'warn' or 'strict'")
    return covering_loop(inst.cover, inst.phi, inst.x0, residual_tol, max_steps,
                         **majorant_loop_args(inst, h2_check))[0]


def majorant_loop_args(inst: ProblemInstance, h2_check: str) -> dict:
    """`covering_loop`'s majorant arguments for inst: its pair, their
    crossing tau_* (else NoCrossing) and the H2 stop in h2_check's mode."""
    pair = inst.majorants
    tau_star = smallest_crossing(pair)
    return {"pair": pair, "tau_star": tau_star,
            "h2_stop": lambda residual: _h2_stop(inst, tau_star, h2_check, residual)}


def rate_estimate(trace: IterateTrace) -> tuple[str, float]:
    """Classify the tail of a trace as geometric or sublinear.

    Fits log step_norm against j (geometric; returns the ratio exp(slope))
    and against log j (power law; returns the exponent) over the last half of
    the recorded steps, and keeps the better least-squares fit.
    """
    n = len(trace.rows) - 1
    if n < 20:
        raise InsufficientData(f"need >= 20 recorded steps, have {n}")
    tail = trace.rows[1 + n // 2:]
    steps = np.array([r[3] for r in tail])
    keep = (steps > 0.0) & np.isfinite(steps)
    if np.count_nonzero(keep) < 5:
        raise InsufficientData("tail of trace has too few nonzero steps")
    js = np.array([r[0] for r in tail], dtype=float)[keep]
    logs = np.log(steps[keep])

    def fit(xs):
        slope, intercept = _line_fit(xs, logs)
        sse = float(np.sum((slope * xs + intercept - logs) ** 2))
        return slope, sse

    slope_geo, sse_geo = fit(js)
    slope_pow, sse_pow = fit(np.log(js))
    if sse_geo <= sse_pow:
        return "geometric", float(np.exp(slope_geo))
    return "sublinear", float(slope_pow)


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """`np.polyfit(xs, ys, 1)` of float64 vectors, bit for bit and with its
    RankWarning, by its steps without its checks: the Vandermonde matrix
    with unit columns, lstsq with rcond = len(xs) * eps, and the unscale."""
    lhs = np.vander(xs + 0.0, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    c, _, rank, _ = np.linalg.lstsq(lhs, ys + 0.0, len(xs) * _EPS)
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning,
                      stacklevel=2)
    return c / scale


def check_jacobian(smooth: SmoothMap, samples: int = 100, seed: int = 0,
                   radius: float | None = None) -> float:
    """Max entrywise gap between the analytic Jacobian and central differences."""
    rng = np.random.default_rng(seed)
    center = smooth.domain_center
    if radius is None:
        radius = smooth.domain_radius
        if not np.isfinite(radius):
            radius = 1.0
    worst = 0.0
    for _ in range(samples):
        d = random_direction(rng, center.size, NormTag.L2)  # drawn before the radius
        x = center + rng.uniform(0.0, radius) * d
        J = np.atleast_2d(smooth.jacobian(x))
        J_fd = finite_diff_jacobian(smooth.evaluate, x)
        worst = max(worst, float(np.max(np.abs(J - J_fd))))
    return worst
