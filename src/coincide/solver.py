"""Coincidence iteration under majorant control.

Each step inverts the covering at the current image of the smooth map,
Psi(x_{j+1}) = Phi(x_j), with the radius budget tau_{j+1} - tau_j handed out
by the scalar recurrence psi(tau_{j+1}) = phi(tau_j). The recorded trace
certifies the step bounds

    ||x_j - x_0||     <= tau_j - tau_0
    ||x_{j+1} - x_j|| <= tau_{j+1} - tau_j

so the returned point always carries a distance certificate, even on early
termination.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InsufficientData
from .covering import CoveringMap
from .linalg import (
    NormTag,
    as_vector,
    finite_diff_jacobian,
    norm,
    operator_norm,
    random_direction,
)
from .majorant import MajorantPair, next_tau, smallest_crossing, validate_h2_start

STATUS_CONVERGED = "converged"
STATUS_MAX_STEPS = "max_steps"
STATUS_HYPOTHESIS = "hypothesis_violation"

# Certificate slacks used both here and by the test suite.
STEP_TOL = 1e-8
TAIL_STOP = 1e-14

DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_MAX_STEPS = 100_000

# Sampled H2 derivative check: draws per solve, and the relative slack on phi'.
H2_SAMPLES = 100
H2_REL_SLACK = 1e-6


class SmoothMap:
    """A differentiable map with an explicit domain ball."""

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
        return as_vector(self._f(np.asarray(x, dtype=float)))

    def jacobian(self, x):
        if self._jac is not None:
            return np.atleast_2d(np.asarray(self._jac(np.asarray(x, dtype=float)), dtype=float))
        return finite_diff_jacobian(self._f, x)


class AffineMap(SmoothMap):
    """x -> W x + d."""

    def __init__(self, W, d, domain_center=None, domain_radius: float = np.inf):
        self.W = np.atleast_2d(np.asarray(W, dtype=float))
        self.d = as_vector(d)
        self.domain_center = as_vector(
            domain_center if domain_center is not None else np.zeros(self.W.shape[1]))
        self.domain_radius = float(domain_radius)

    def evaluate(self, x):
        return self.W @ np.asarray(x, dtype=float) + self.d

    def jacobian(self, x):
        return self.W.copy()


@dataclass
class ProblemInstance:
    """Everything a solve needs: the map pair, the majorants, and the start."""

    phi: SmoothMap
    cover: CoveringMap
    majorants: MajorantPair
    x0: np.ndarray
    norms: tuple = (NormTag.L2, NormTag.L2)
    # Set only by a builder that proves the derivative bound H2 from the
    # structure it builds (build_quadratic_instance); coincidence_solve then
    # skips the sampled check. Not a constructor argument. The proof is for
    # the phi, majorants and x0 the builder set: to change them, build anew.
    h2_proven: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        self.x0 = as_vector(self.x0)
        nx, ny = self.norms
        if (nx, ny) != (self.cover.norm_x, self.cover.norm_y):
            raise ValueError(
                f"instance norms {(nx, ny)} disagree with covering norms "
                f"{(self.cover.norm_x, self.cover.norm_y)}"
            )


@dataclass
class TraceRecord:
    j: int
    tau: float
    x: np.ndarray
    step_norm: float
    deviation: float
    residual: float


@dataclass
class IterateTrace:
    records: list = field(default_factory=list)
    status: str = STATUS_MAX_STEPS
    detail: str = ""
    tau0: float = 0.0
    tau_star: float = float("nan")

    @property
    def steps(self) -> int:
        return len(self.records) - 1

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


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
    return tau, inst.x0 + rho * random_direction(rng, inst.x0.size, inst.norms[0])


def validate_h2_derivative(inst: ProblemInstance, samples: int,
                           tau_hi: float | None = None, seed: int = 1234) -> H2Report:
    """Sampled check of the derivative bound ||Phi'(x)|| <= phi'(tau).

    Draws random (tau, x) with ||x - x0|| <= tau - tau0 and compares the
    subordinate operator norm of the Jacobian against
    phi'(tau) * (1 + H2_REL_SLACK). The Jacobians are stacked and normed in
    one operator_norm call. The report carries the violation count and the
    worst excess.
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
    ops = operator_norm(np.stack(jacobians), inst.norms[0], inst.norms[1])
    bounds = slopes * (1.0 + H2_REL_SLACK)
    violated = ops > bounds
    return H2Report(samples=samples, violations=int(np.count_nonzero(violated)),
                    max_excess=float(np.max(ops[violated] - bounds[violated], initial=0.0)))


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
    hypothesis_violation status, "off" skips the check. The initial-gap
    condition is always enforced. The bound is not sampled when
    inst.h2_proven is set: build_quadratic_instance sets it when the certified
    constant a is at least the tensor's spectral overestimate, so that
    ||Phi'(x)|| <= 2 a ||x|| <= phi'(tau) holds on the whole ball. Any other
    instance, hand-built ones included, is sampled.

    Raises NoCrossing when the majorants never meet, and propagates
    BudgetExceeded when the covering breaks its contract.

    Returns (x_star, trace).
    """
    if h2_check not in ("warn", "strict", "off"):
        raise ValueError("h2_check must be 'warn', 'strict' or 'off'")
    pair = inst.majorants
    norm_x, norm_y = inst.norms
    tau_star = smallest_crossing(pair)

    x = inst.x0.copy()
    tau = pair.tau0
    phi_x = inst.phi.evaluate(x)
    residual = norm(phi_x - inst.cover.evaluate(x), norm_y)
    trace = IterateTrace(records=[TraceRecord(0, tau, x.copy(), 0.0, 0.0, residual)],
                         tau0=pair.tau0, tau_star=tau_star)

    if not validate_h2_start(pair, residual):
        trace.status = STATUS_HYPOTHESIS
        trace.detail = (f"H2: initial defect {residual:.6e} exceeds "
                        f"phi(tau0)-psi(tau0) = {pair.gap_at_start():.6e}")
        return x, trace

    if h2_check != "off" and not inst.h2_proven:
        report = validate_h2_derivative(inst, H2_SAMPLES, tau_hi=tau_star)
        if not report.clean:
            msg = (f"H2: sampled derivative bound violated {report.violations}/"
                   f"{report.samples} times (max excess {report.max_excess:.3e})")
            if h2_check == "strict":
                trace.status = STATUS_HYPOTHESIS
                trace.detail = msg
                return x, trace
            warnings.warn(msg, RuntimeWarning)

    for j in range(max_steps):
        if residual <= residual_tol:
            trace.status = STATUS_CONVERGED
            return x, trace
        if tau_star - tau <= TAIL_STOP:
            trace.status = STATUS_CONVERGED
            trace.detail = "tau tail exhausted"
            return x, trace

        tau_next = next_tau(pair, tau, tau_star)
        if tau_next <= tau:
            trace.status = STATUS_MAX_STEPS
            trace.detail = "tau sequence stalled at float resolution"
            return x, trace
        increment = pair.psi(tau_next) - pair.psi(tau)
        if residual > increment + STEP_TOL:
            trace.status = STATUS_HYPOTHESIS
            trace.detail = (f"H2: defect {residual:.6e} exceeds admissible increment "
                            f"{increment:.6e} at step {j}")
            return x, trace

        x_next = inst.cover.solve_within(x, phi_x, tau_next - tau)  # may raise BudgetExceeded
        phi_x = inst.phi.evaluate(x_next)
        residual = norm(phi_x - inst.cover.evaluate(x_next), norm_y)
        trace.records.append(TraceRecord(
            j=j + 1,
            tau=tau_next,
            x=np.array(x_next, dtype=float),
            step_norm=norm(x_next - x, norm_x),
            deviation=norm(x_next - inst.x0, norm_x),
            residual=residual,
        ))
        x, tau = x_next, tau_next

    trace.status = STATUS_MAX_STEPS
    return x, trace


def rate_estimate(trace: IterateTrace) -> tuple[str, float]:
    """Classify the tail of a trace as geometric or sublinear.

    Fits log step_norm against j (geometric; returns the ratio exp(slope))
    and against log j (power law; returns the exponent) over the last half of
    the recorded steps, and keeps the better least-squares fit.
    """
    steps = [(r.j, r.step_norm) for r in trace.records[1:]]
    if len(steps) < 20:
        raise InsufficientData(f"need >= 20 recorded steps, have {len(steps)}")
    tail = steps[len(steps) // 2:]
    tail = [(j, s) for j, s in tail if s > 0.0 and np.isfinite(s)]
    if len(tail) < 5:
        raise InsufficientData("tail of trace has too few nonzero steps")
    js = np.array([j for j, _ in tail], dtype=float)
    logs = np.log([s for _, s in tail])

    def fit(xs):
        slope, intercept = np.polyfit(xs, logs, 1)
        sse = float(np.sum((slope * xs + intercept - logs) ** 2))
        return slope, sse

    slope_geo, sse_geo = fit(js)
    slope_pow, sse_pow = fit(np.log(js))
    if sse_geo <= sse_pow:
        return "geometric", float(np.exp(slope_geo))
    return "sublinear", float(slope_pow)


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
