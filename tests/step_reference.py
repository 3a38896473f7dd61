"""Reference oracle for the per-step hot paths, in the form they had before
they were streamlined.

- `reference_next_tau` bisects psi(t) - phi(tau_j) through `ScalarFn` calls
  whatever psi is;
- `reference_norm` takes the l2 norm through `np.linalg.norm`;
- `reference_evaluate` is A(x, x) + C through both halves of the
  polarization identity, with the d = x - x contraction;
- `reference_write_trace_csv` formats each field of a trace row on its own;
- `reference_coincidence_solve` and `reference_alpha_iterate` are the two
  iterations with their own copies of the covering step, before both loops
  called one shared step.
- `reference_rate_estimate` filters a trace's tail with `np.isfinite` on each
  step norm.

The reference iterations return a `ReferenceTrace`, the trace shape of the
solver before it stored rows as tuples: a list of `ReferenceRecord`s, each
with its iterate x.

The tests compare the library against them bit for bit (and byte for byte).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from coincide.errors import (
    BracketFailure,
    DimensionMismatch,
    InsufficientData,
    NotContractive,
)
from coincide.linalg import NormTag, as_vector
from coincide.majorant import next_tau, root_tolerance, smallest_crossing, validate_h2_start
from coincide.solver import (
    DEFAULT_MAX_STEPS,
    DEFAULT_RESIDUAL_TOL,
    H2_SAMPLES,
    STATUS_CONVERGED,
    STATUS_HYPOTHESIS,
    STATUS_MAX_STEPS,
    STEP_TOL,
    TAIL_STOP,
    ProblemInstance,
    validate_h2_derivative,
)


@dataclass
class ReferenceRecord:
    j: int
    tau: float
    x: np.ndarray
    step_norm: float
    deviation: float
    residual: float


@dataclass
class ReferenceTrace:
    records: list = field(default_factory=list)
    status: str = STATUS_MAX_STEPS
    detail: str = ""
    tau0: float = 0.0
    tau_star: float = float("nan")

    @property
    def steps(self) -> int:
        return len(self.records) - 1

    @property
    def final(self) -> ReferenceRecord:
        return self.records[-1]


def reference_norm(v, tag: NormTag = NormTag.L2) -> float:
    v = np.asarray(v, dtype=float)
    if tag == NormTag.L2:
        return float(np.linalg.norm(v))
    if tag == NormTag.LINF:
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise ValueError(f"unknown norm tag {tag!r}")


def reference_bisect(g, lo: float, hi: float, g_lo: float, g_hi: float) -> float:
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if gm < 0.0:
            lo, g_lo = mid, gm
        else:
            hi, g_hi = mid, gm
    return hi if abs(g_hi) <= abs(g_lo) else lo


def reference_next_tau(pair, tau_j: float, tau_star: float) -> float:
    target = pair.phi(tau_j)
    slack = 10.0 * root_tolerance(max(abs(target), abs(tau_star)))

    def h(t):
        return pair.psi(t) - target

    h_lo = h(tau_j)
    if h_lo > slack:
        raise BracketFailure(
            f"psi(tau_j)={pair.psi(tau_j)} exceeds phi(tau_j)={target} at tau_j={tau_j}"
        )
    if h_lo >= 0.0:
        return tau_j
    h_hi = h(tau_star)
    if h_hi < -slack:
        raise BracketFailure(
            f"psi(tau_star)={pair.psi(tau_star)} below phi(tau_j)={target}; "
            "tau_star does not bound the recurrence"
        )
    if h_hi <= 0.0:
        return tau_star
    return reference_bisect(h, tau_j, tau_star, h_lo, h_hi)


def reference_apply_bilinear(coeffs, x1, x2) -> np.ndarray:
    x1 = as_vector(x1)
    x2 = as_vector(x2)
    dim_x = coeffs.shape[1]
    if x1.size != dim_x or x2.size != dim_x:
        raise DimensionMismatch(
            f"bilinear map expects vectors of size {dim_x}, got {x1.size} and {x2.size}")
    u = x1 + x2
    d = x1 - x2
    qu = np.einsum("kij,i,j->k", coeffs, u, u)
    qd = np.einsum("kij,i,j->k", coeffs, d, d)
    return 0.25 * (qu - qd)


def reference_evaluate(quadratic_map, x) -> np.ndarray:
    return reference_apply_bilinear(quadratic_map.bilinear.coeffs, x, x) + quadratic_map.offset


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def reference_write_trace_csv(trace, path: Path) -> None:
    lines = ["j,tau,deviation,step_norm,residual"]
    for r in trace.records:
        lines.append(",".join([
            str(r.j), _fmt(r.tau), _fmt(r.deviation), _fmt(r.step_norm), _fmt(r.residual)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_coincidence_solve(inst: ProblemInstance,
                                residual_tol: float = DEFAULT_RESIDUAL_TOL,
                                max_steps: int = DEFAULT_MAX_STEPS,
                                h2_check: str = "warn") -> tuple[np.ndarray, ReferenceTrace]:
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
    norm_x, norm_y = inst.cover.norm_x, inst.cover.norm_y
    tau_star = smallest_crossing(pair)

    x = inst.x0.copy()
    tau = pair.tau0
    phi_x = inst.phi.evaluate(x)
    residual = reference_norm(phi_x - inst.cover.evaluate(x), norm_y)
    trace = ReferenceTrace(records=[ReferenceRecord(0, tau, x.copy(), 0.0, 0.0, residual)],
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

    psi_tau = pair.psi(tau)  # each step's psi(tau_next) is the next step's psi(tau)
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
        psi_next = pair.psi(tau_next)
        increment = psi_next - psi_tau
        if residual > increment + STEP_TOL:
            trace.status = STATUS_HYPOTHESIS
            trace.detail = (f"H2: defect {residual:.6e} exceeds admissible increment "
                            f"{increment:.6e} at step {j}")
            return x, trace

        x_next = inst.cover.solve_within(x, phi_x, tau_next - tau)  # may raise BudgetExceeded
        phi_x = inst.phi.evaluate(x_next)
        residual = reference_norm(phi_x - inst.cover.evaluate(x_next), norm_y)
        trace.records.append(ReferenceRecord(
            j=j + 1,
            tau=tau_next,
            x=np.array(x_next, dtype=float),
            step_norm=reference_norm(x_next - x, norm_x),
            deviation=reference_norm(x_next - inst.x0, norm_x),
            residual=residual,
        ))
        x, tau, psi_tau = x_next, tau_next, psi_next

    trace.status = STATUS_MAX_STEPS
    return x, trace


def reference_alpha_iterate(p, x0, tol: float,
                            max_steps: int) -> tuple[np.ndarray, ReferenceTrace]:
    """Iterate u(x_{i+1}) = v(x_i) with per-step budget ||v(x_i) - u(x_i)|| / alpha.

    Raises NotContractive unless beta < alpha. Step norms contract with ratio
    at most beta/alpha; the trace's tau column accumulates the budgets, so the
    same certificate bounds as the majorant trace apply.
    """
    if not p.applicable:
        raise NotContractive(
            f"beta = {p.beta} >= alpha = {p.alpha}: the linear-rate scheme does not apply")
    x = as_vector(x0).copy()
    x_start = x.copy()
    v_x = p.v.evaluate(x)
    residual = reference_norm(v_x - p.u.evaluate(x), p.u.norm_y)
    tau = 0.0
    trace = ReferenceTrace(records=[ReferenceRecord(0, tau, x.copy(), 0.0, 0.0, residual)],
                           tau0=0.0, tau_star=float("nan"))
    for i in range(max_steps):
        if residual <= tol:
            trace.status = STATUS_CONVERGED
            return x, trace
        budget = residual / p.alpha
        x_next = p.u.solve_within(x, v_x, budget)
        v_x = p.v.evaluate(x_next)
        residual = reference_norm(v_x - p.u.evaluate(x_next), p.u.norm_y)
        tau += budget
        trace.records.append(ReferenceRecord(
            j=i + 1,
            tau=tau,
            x=np.array(x_next, dtype=float),
            step_norm=reference_norm(x_next - x, p.u.norm_x),
            deviation=reference_norm(x_next - x_start, p.u.norm_x),
            residual=residual,
        ))
        x = x_next
    trace.status = STATUS_MAX_STEPS
    return x, trace


def reference_rate_estimate(trace) -> tuple[str, float]:
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
