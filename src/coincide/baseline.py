"""Linear-rate baseline: successive approximation under an alpha-covering.

The classical scheme inverts u(x_{i+1}) = v(x_i) and contracts with ratio
beta/alpha whenever the Lipschitz constant beta of v sits strictly below the
covering constant alpha of u. On the degenerate quadratic instances
(discriminant zero) beta equals alpha and the scheme is inapplicable, while
the majorant-controlled solver still certifies a solution. Both schemes
make the same iterates, so compare_methods runs that one iteration once, in
the solver's covering_loop, and reports both certificates side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .covering import CoveringMap
from .errors import InsufficientData, NoCrossing, NotContractive
from .linalg import NormTag, as_vector, norm, random_direction
from .solver import (
    DEFAULT_MAX_STEPS,
    DEFAULT_RESIDUAL_TOL,
    IterateTrace,
    SmoothMap,
    covering_loop,
    majorant_loop_args,
    rate_estimate,
)
from .problems import QuadraticMap, QuadraticProblem

# Status of a compare row whose majorants never meet.
STATUS_NO_CROSSING = "no_crossing"


def estimate_lipschitz(v: SmoothMap, center, radius: float, pairs: int = 500,
                       seed: int = 0) -> float:
    """Sampled sup of ||v(x1) - v(x2)|| / ||x1 - x2|| on the l2 ball of the
    given radius around center, all norms l2.

    Sampling under-estimates the true constant; prefer an analytic bound when
    one is available (e.g. 2 a tau_* for quadratic maps).
    """
    center = as_vector(center)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        d1 = random_direction(rng, center.size, NormTag.L2)
        d2 = random_direction(rng, center.size, NormTag.L2)
        x1 = center + rng.uniform(0, radius) * d1
        x2 = center + rng.uniform(0, radius) * d2
        dist = norm(x1 - x2)
        if dist < 1e-9:
            continue
        worst = max(worst, norm(v.evaluate(x1) - v.evaluate(x2)) / dist)
    return worst


@dataclass
class AlphaCoveringProblem:
    """Covering u with linear modulus alpha*tau against a beta-Lipschitz v."""

    u: CoveringMap
    v: SmoothMap
    alpha: float
    beta: float

    @property
    def applicable(self) -> bool:
        return self.beta < self.alpha

    @classmethod
    def from_quadratic(cls, q: QuadraticProblem) -> "AlphaCoveringProblem":
        """Restrict the quadratic instance to the ball of radius tau_*.

        There the analytic Lipschitz constant of Phi is 2 a tau_*; the
        covering constant is b. The two coincide exactly when D = 0, so at
        D <= 0 beta is b itself: 2 a tau_* from a rounded tau_* can land an
        ulp below b. u is the problem's own covering, the one its coincidence
        instance uses, and tau_* is `q.tau_star()`, the one the coincidence
        solve uses. Raises NotContractive when there is no crossing (a D just
        below 0): then no ball carries a Lipschitz constant below b.
        """
        try:
            tau_star = q.tau_star()
        except NoCrossing as err:
            raise NotContractive(f"no crossing tau_*: {err}") from err
        return cls(
            u=q.cover,
            v=QuadraticMap(q.bilinear, q.offset, domain_radius=tau_star),
            alpha=q.b,
            beta=q.b if q.discriminant <= 0.0 else 2.0 * q.a * tau_star,
        )


def alpha_iterate(p: AlphaCoveringProblem, x0, tol: float,
                  max_steps: int) -> tuple[np.ndarray, IterateTrace]:
    """Iterate u(x_{i+1}) = v(x_i) with per-step budget ||v(x_i) - u(x_i)|| / alpha.

    Raises NotContractive unless beta < alpha. Step norms contract with ratio
    at most beta/alpha; the trace's tau column accumulates the budgets, so the
    same certificate bounds as the majorant trace apply. It runs the
    solver's `covering_loop`, as coincidence_solve does, so a 1-d problem
    runs on floats; x_star is a fresh float64 ndarray.
    """
    return covering_loop(p.u, p.v, as_vector(x0), tol, max_steps,
                         alpha=_contractive_alpha(p))[0]


def _contractive_alpha(p: AlphaCoveringProblem) -> float:
    """p.alpha; NotContractive unless beta < alpha."""
    if not p.applicable:
        raise NotContractive(
            f"beta = {p.beta} >= alpha = {p.alpha}: the linear-rate scheme does not apply")
    return p.alpha


@dataclass
class MethodRun:
    method: str
    status: str
    steps: int
    rate_regime: str
    rate_value: float
    residual: float
    x_star: Optional[np.ndarray] = None
    applicable: bool = True
    detail: str = ""


@dataclass
class ComparisonReport:
    runs: list = field(default_factory=list)
    majorant_trace: Optional[IterateTrace] = None
    baseline_trace: Optional[IterateTrace] = None

    def run_for(self, method: str) -> MethodRun:
        for r in self.runs:
            if r.method == method:
                return r
        raise KeyError(method)


def _rate_or_na(trace: IterateTrace) -> tuple[str, float]:
    try:
        return rate_estimate(trace)
    except InsufficientData:
        return "insufficient-data", float("nan")


def _refused(method: str, status: str, err: Exception) -> MethodRun:
    return MethodRun(method=method, status=status, steps=0, rate_regime="n/a",
                     rate_value=float("nan"), residual=float("nan"), applicable=False,
                     detail=str(err))


def compare_methods(q: QuadraticProblem, tol: float = DEFAULT_RESIDUAL_TOL,
                    max_steps: int = DEFAULT_MAX_STEPS) -> ComparisonReport:
    """Certify one covering iteration under both schemes and tabulate them.

    The minimal-norm correction of q's covering does not depend on the
    budget, so one `covering_loop` call runs the iteration under the
    majorant certificate of `coincidence_solve` and the budgets of
    `alpha_iterate`, and each scheme gets the trace, status and x_star it
    gets alone. The majorant row reports no_crossing when the majorants
    never meet, the baseline row not_contractive when beta >= alpha (the
    D = 0 regime). Traces of one length share one rate fit: it reads only j
    and step_norm, which they share row for row.
    """
    inst, loop, runs, traces, fits = q.instance, {}, {}, {}, {}
    try:
        loop.update(majorant_loop_args(inst, "warn"))
    except NoCrossing as err:
        runs["majorant"] = _refused("majorant", STATUS_NO_CROSSING, err)
    try:
        loop["alpha"] = _contractive_alpha(AlphaCoveringProblem.from_quadratic(q))
    except NotContractive as err:
        runs["baseline"] = _refused("baseline", "not_contractive", err)
    ran = covering_loop(inst.cover, inst.phi, inst.x0, tol, max_steps, **loop) if loop else []
    for method, (x_star, trace) in zip([m for m in ("majorant", "baseline") if m not in runs],
                                       ran):
        if len(trace.rows) not in fits:
            fits[len(trace.rows)] = _rate_or_na(trace)
        regime, value = fits[len(trace.rows)]
        traces[method] = trace
        runs[method] = MethodRun(
            method=method, status=trace.status, steps=trace.steps, rate_regime=regime,
            rate_value=value, residual=trace.final.residual, x_star=x_star,
            detail=trace.detail)
    return ComparisonReport(runs=[runs["majorant"], runs["baseline"]],
                            majorant_trace=traces.get("majorant"),
                            baseline_trace=traces.get("baseline"))
