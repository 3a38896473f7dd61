"""The per-step hot paths against the oracle in step_reference.py, bit for bit.

`next_tau` evaluates a linear psi inline, `QuadraticMap.evaluate` makes one
contraction instead of two, `write_trace_csv` formats a row in one call, and
both iterations run one shared covering step; none of them may move a bit of
a result, a byte of a trace or a word of a BracketFailure or BudgetExceeded
message.
"""

import dataclasses
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coincide.baseline import AlphaCoveringProblem, alpha_iterate
from coincide.cli import write_trace_csv
from coincide.config import build_problem, gallery_config
from coincide.covering import LinearSurjectiveCovering
from coincide.errors import BracketFailure, CoincidenceError
from coincide.linalg import NormTag
from coincide.majorant import MajorantPair, ScalarFn, next_tau
from coincide.problems import (
    BilinearMap,
    QuadraticMap,
    build_quadratic_instance,
    random_quadratic,
    scalar_quadratic,
)
from coincide.solver import (
    CallableMap,
    IterateTrace,
    ProblemInstance,
    TraceRecord,
    coincidence_solve,
)

from step_reference import (
    reference_alpha_iterate,
    reference_coincidence_solve,
    reference_evaluate,
    reference_next_tau,
    reference_write_trace_csv,
)


def _outcome(step, pair, tau_j, tau_star):
    """("tau", bits) for a returned budget, ("raise", message) for a BracketFailure."""
    try:
        return "tau", float(step(pair, tau_j, tau_star)).hex()
    except BracketFailure as err:
        return "raise", str(err)


def _pair(slope, intercept, target, linear=True):
    """psi = slope * t + intercept (flagged linear, or as a polynomial that is
    not), and a phi whose value is `target` everywhere."""
    psi = (ScalarFn.linear(slope, intercept) if linear
           else ScalarFn.polynomial([intercept, slope]))
    return SimpleNamespace(psi=psi, phi=ScalarFn(fn=lambda t: target))


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(slope=st.floats(min_value=1e-6, max_value=1e6),
       intercept=st.one_of(st.sampled_from([0.0, -0.0]), finite),
       tau_j=finite,
       width=st.floats(min_value=0.0, max_value=1e4),
       frac=st.one_of(st.floats(min_value=-0.5, max_value=1.5), st.sampled_from([0.0, 1.0])),
       linear=st.booleans())
@example(slope=2.0, intercept=0.0, tau_j=0.0, width=1.0, frac=0.5, linear=True)
@example(slope=3.0, intercept=-7.25, tau_j=1.5, width=0.0, frac=0.0, linear=True)
def test_next_tau_matches_oracle(slope, intercept, tau_j, width, frac, linear):
    tau_star = tau_j + width
    psi_j = slope * tau_j + intercept
    psi_star = slope * tau_star + intercept
    target = psi_j + frac * (psi_star - psi_j)
    pair = _pair(slope, intercept, target, linear)
    assert _outcome(next_tau, pair, tau_j, tau_star) == _outcome(
        reference_next_tau, pair, tau_j, tau_star)


# (target, expected outcome kind) for psi = 2 t + 0.5 on [tau_j, tau_star] = [1, 3].
BRANCHES = {
    "bisection": (4.0, "tau"),
    "stall": (2.5, "tau"),             # h(tau_j) = 0: returns tau_j
    "at-tau-star": (6.5, "tau"),       # h(tau_star) = 0: returns tau_star
    "psi-above-target": (1.0, "raise"),
    "tau-star-short": (9.0, "raise"),
}


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("linear", [True, False], ids=["linear", "generic"])
def test_every_next_tau_branch_matches_oracle(branch, linear):
    target, kind = BRANCHES[branch]
    pair = _pair(2.0, 0.5, target, linear)
    got = _outcome(next_tau, pair, 1.0, 3.0)
    assert got == _outcome(reference_next_tau, pair, 1.0, 3.0)
    assert got[0] == kind
    if branch == "stall":
        assert got[1] == (1.0).hex()
    if branch == "at-tau-star":
        assert got[1] == (3.0).hex()
    if branch == "bisection":
        assert 1.0 < float.fromhex(got[1]) < 3.0
    if branch == "psi-above-target":
        assert got[1].startswith("psi(tau_j)=")
    if branch == "tau-star-short":
        assert got[1].endswith("tau_star does not bound the recurrence")


special_x = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e154,
                             -1e200, 1e300, 1.7976931348623157e308])
entries = st.one_of(special_x, st.floats(min_value=-1e3, max_value=1e3))
coefficients = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -1e-300]),
                         st.floats(min_value=-10.0, max_value=10.0))


@st.composite
def quadratic_maps(draw):
    dim_y = draw(st.integers(1, 3))
    dim_x = draw(st.integers(1, 4))
    raw = np.array(draw(st.lists(coefficients, min_size=dim_y * dim_x * dim_x,
                                 max_size=dim_y * dim_x * dim_x))).reshape(dim_y, dim_x, dim_x)
    coeffs = 0.5 * (raw + raw.transpose(0, 2, 1))  # exactly symmetric
    offset = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), finite),
                           min_size=dim_y, max_size=dim_y))
    x = draw(st.one_of(st.just([0.0] * dim_x),
                       st.lists(entries, min_size=dim_x, max_size=dim_x)))
    return QuadraticMap(BilinearMap(coeffs=coeffs, bound=1.0), offset), np.array(x)


@settings(max_examples=120, deadline=None)
@given(quadratic_maps())
def test_quadratic_evaluate_matches_oracle(case):
    qmap, x = case
    with np.errstate(all="ignore"):
        got = qmap.evaluate(x)
        want = reference_evaluate(qmap, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_quadratic_evaluate_keeps_signed_zeros():
    # Negative coefficients, x = 0 and a -0 offset: every sign as the oracle has it.
    coeffs = -np.ones((2, 2, 2))
    qmap = QuadraticMap(BilinearMap(coeffs=coeffs, bound=1.0), [-0.0, 0.0])
    for x in ([0.0, 0.0], [-0.0, -0.0], [5e-324, -5e-324]):
        got = qmap.evaluate(np.array(x))
        assert got.tobytes() == reference_evaluate(qmap, np.array(x)).tobytes()


def _write_both(records):
    trace = IterateTrace(records=records)
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        write_trace_csv(trace, ours)
        reference_write_trace_csv(trace, ref)
        return ours.read_bytes(), ref.read_bytes()


def _record(j, values):
    tau, deviation, step_norm, residual = values
    return TraceRecord(j=j, tau=tau, x=np.zeros(1), step_norm=step_norm,
                       deviation=deviation, residual=residual)


trace_values = st.one_of(
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6),
                          st.tuples(trace_values, trace_values, trace_values, trace_values),
                          st.booleans()),
                min_size=0, max_size=6))
def test_trace_rows_match_oracle(rows):
    # The solver's records hold floats; numpy scalars format the same.
    records = [_record(j, [np.float64(v) if as_numpy else v for v in values])
               for j, values, as_numpy in rows]
    ours, ref = _write_both(records)
    assert ours == ref


def test_trace_rows_print_special_values():
    ours, ref = _write_both([_record(0, (0.0, -0.0, math.inf, math.nan)),
                             _record(7, (5e-324, -math.inf, 0.1, 2.0))])
    assert ours == ref
    assert ours.decode().splitlines()[1:] == [
        "0,0,-0,inf,nan",
        "7,4.9406564584124654e-324,-inf,0.10000000000000001,2",
    ]


def _loop_outcome(solve, *args, **kwargs):
    """Everything an iteration hands back, in bits, or ("raise", class, message)."""
    try:
        x, trace = solve(*args, **kwargs)
    except CoincidenceError as err:
        return "raise", type(err).__name__, str(err)
    rows = [(r.j, float.hex(r.tau), r.x.dtype.str, r.x.tobytes(), float.hex(r.step_norm),
             float.hex(r.deviation), float.hex(r.residual)) for r in trace.records]
    return (x.dtype.str, x.tobytes(), trace.status, trace.detail,
            float.hex(trace.tau0), float.hex(trace.tau_star), rows)


def _loops_outcomes(inst, p, tol, max_steps):
    """(ours, reference) outcomes of the majorant loop, then of the baseline loop."""
    x0 = np.zeros(inst.x0.size)
    return [
        (_loop_outcome(coincidence_solve, inst, residual_tol=tol, max_steps=max_steps),
         _loop_outcome(reference_coincidence_solve, inst, residual_tol=tol,
                       max_steps=max_steps)),
        (_loop_outcome(alpha_iterate, p, x0, tol, max_steps),
         _loop_outcome(reference_alpha_iterate, p, x0, tol, max_steps)),
    ]


def d_zero_quadratic(e, m):
    """a = 2^(e+2m-2), b = 2^m, c = 2^-e: D = b^2 - 4ac is exactly 0."""
    return scalar_quadratic(2.0 ** (e + 2 * m - 2), 2.0 ** m, 2.0 ** -e)


def near_d_quadratic(a, b, log_margin):
    """D = margin * b^2 up to rounding, with margin = 10^log_margin."""
    return scalar_quadratic(a, b, b * b * (1.0 - 10.0 ** log_margin) / (4.0 * a))


scalar_quadratics = st.one_of(
    st.builds(d_zero_quadratic, st.integers(0, 12), st.integers(-2, 3)),
    st.builds(near_d_quadratic, st.floats(0.25, 4.0), st.floats(0.5, 4.0),
              st.floats(-4.0, -1.0)))


@st.composite
def generated_quadratics(draw):
    dim_x = draw(st.integers(1, 6))
    return random_quadratic(dim_x, draw(st.integers(1, dim_x)), draw(st.floats(0.0, 1.0)),
                            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=50, deadline=None)
@given(q=st.one_of(scalar_quadratics, generated_quadratics()),
       tol=st.sampled_from([1e-6, 1e-8, 1e-10]), max_steps=st.integers(1, 250))
@example(q=d_zero_quadratic(10, 1), tol=1e-8, max_steps=100_000)  # 617 steps
@example(q=scalar_quadratic(1.0, 2.0, 1.0 - 10 ** -2.8), tol=1e-10, max_steps=100_000)
def test_quadratic_loops_match_reference(q, tol, max_steps):
    p = AlphaCoveringProblem.from_quadratic(q)
    for ours, ref in _loops_outcomes(build_quadratic_instance(q), p, tol, max_steps):
        assert ours == ref


def _linf_instance():
    # The scalar problem of test_linf_instance_solves.
    cover = LinearSurjectiveCovering([[2.0]], b=2.0,
                                     norm_x=NormTag.LINF, norm_y=NormTag.LINF)
    pair = MajorantPair(psi=ScalarFn.linear(2.0),
                        phi=ScalarFn.polynomial([0.75, 0.0, 1.0]),
                        tau0=0.0, horizon=2.0)
    phi = CallableMap(f=lambda x: np.array([x[0] ** 2 + 0.75]),
                      jac=lambda x: np.array([[2.0 * x[0]]]),
                      domain_center=[0.0], domain_radius=2.0)
    return ProblemInstance(phi=phi, cover=cover, majorants=pair,
                           x0=np.array([0.0]))


@pytest.mark.parametrize("max_steps", [1, 4, 100_000])
@pytest.mark.parametrize("name", ["kantorovich-affine", "linf"])
def test_hand_built_loops_match_reference(name, max_steps):
    # The baseline runs on the same covering, with alpha its modulus and beta
    # the Lipschitz constant of Phi on the certified ball.
    if name == "linf":
        inst, alpha, beta = _linf_instance(), 2.0, 1.0
    else:
        inst, alpha, beta = build_problem(gallery_config(name)).instance, 1.0, 0.5
    p = AlphaCoveringProblem(u=inst.cover, v=inst.phi, alpha=alpha, beta=beta)
    for ours, ref in _loops_outcomes(inst, p, 1e-10, max_steps):
        assert ours == ref
        if max_steps == 100_000:
            assert ours[2] == "converged"


@settings(max_examples=30, deadline=None)
@given(q=scalar_quadratics, factor=st.floats(1.5, 4.0))
def test_inflated_covering_constant_fails_alike(q, factor):
    # b above sigma_min: the budgets are too small for the first step.
    b = factor * q.b
    cover = LinearSurjectiveCovering(q.linear, b=b, check_constant=False)
    certified = build_quadratic_instance(q)
    pair = MajorantPair(psi=ScalarFn.linear(b), phi=certified.majorants.phi,
                        tau0=0.0, horizon=b / q.a)
    inst = ProblemInstance(phi=certified.phi, cover=cover, majorants=pair, x0=certified.x0)
    p = dataclasses.replace(AlphaCoveringProblem.from_quadratic(q), u=cover, alpha=b)
    for ours, ref in _loops_outcomes(inst, p, 1e-10, 100):
        assert ours == ref
        assert ours[:2] == ("raise", "BudgetExceeded")
