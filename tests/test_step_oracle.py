"""The per-step hot paths against the oracle in step_reference.py, bit for bit.

`budget_stepper` (which `next_tau` and the solve's loop step through)
evaluates a linear psi inline, walks to its root in O(1) and bisects
without a psi call,
`linalg.norm` takes a 1-d l2 norm as sqrt(x.dot(x)), `QuadraticMap.evaluate`
makes one contraction instead of two, `write_trace_csv` formats a row in one
call, both iterations run one shared covering step on arrays, and 1-d solves
run as one loop on Python floats; none of them may move a bit of a result, a
byte of a trace or a word of a BracketFailure or BudgetExceeded message.
"""

import contextlib
import dataclasses
import math
import struct
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coincide.majorant
import coincide.solver
from coincide import baseline
from coincide.baseline import AlphaCoveringProblem, alpha_iterate
from coincide.cli import write_trace_csv
from coincide.config import build_problem, gallery_config
from coincide.covering import LinearSurjectiveCovering
from coincide.errors import BracketFailure, CoincidenceError
from coincide.linalg import NormTag, norm
from coincide.majorant import (
    MajorantPair,
    ScalarFn,
    _walk_to_root,
    budget_stepper,
    next_tau,
    tau_sequence,
)
from coincide.problems import (
    BilinearMap,
    QuadraticMap,
    build_polynomial_instance,
    build_quadratic_instance,
    random_quadratic,
    scalar_quadratic,
)
from coincide.solver import (
    AffineMap,
    CallableMap,
    IterateTrace,
    ProblemInstance,
    TraceRecord,
    coincidence_solve,
)

from conftest import array_calls, baseline_start, planar_quadratic, replay_points
from step_reference import (
    ReferenceTrace,
    reference_alpha_iterate,
    reference_bisect,
    reference_coincidence_solve,
    reference_evaluate,
    reference_next_tau,
    reference_norm,
    reference_write_trace_csv,
)


def _outcome(step, pair, tau_j, tau_star):
    """("tau", bits) for a returned budget, ("raise", message) for a BracketFailure."""
    try:
        return "tau", float(step(pair, tau_j, tau_star)).hex()
    except BracketFailure as err:
        return "raise", str(err)


def _ours(pair, tau_j, tau_star):
    """The outcome of next_tau, which one stepper built for tau_star must give
    on each of two calls as well: a step carries nothing to the next."""
    got = _outcome(next_tau, pair, tau_j, tau_star)
    step = budget_stepper(pair, tau_star)
    for _ in range(2):
        assert _outcome(lambda _pair, t, _star: step(t)[0], pair, tau_j, tau_star) == got
    return got


def _pair(slope, intercept, target, linear=True):
    """psi = slope * t + intercept (a linear polynomial, or a plain callable
    with the same bits), and a phi whose value is `target` everywhere."""
    psi = (ScalarFn.linear(slope, intercept) if linear
           else ScalarFn(fn=lambda t: t * slope + intercept))
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
    assert _ours(pair, tau_j, tau_star) == _outcome(
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
    got = _ours(pair, 1.0, 3.0)
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


@contextlib.contextmanager
def _bisect_calls():
    """The list of (lo, hi) brackets `_bisect` is called with inside the block."""
    calls = []
    bisect = coincide.majorant._bisect

    def counted(*args):
        calls.append(args[1:3])
        return bisect(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coincide.majorant, "_bisect", counted)
        yield calls


def _matches_oracle(slope, intercept, target, tau_j, tau_star):
    pair = _pair(slope, intercept, target)
    got = _ours(pair, tau_j, tau_star)
    assert got == _outcome(reference_next_tau, pair, tau_j, tau_star)
    return got


def _not_a_power_of_two(x):
    return math.frexp(x)[0] != 0.5


# h(t) = slope * t - target is 0 on two or more adjacent floats: which zero
# bisection returns depends on its path, so next_tau must bisect as it did.
@settings(max_examples=300, deadline=None)
@given(slope=st.floats(1e-3, 1e3).filter(_not_a_power_of_two),
       t0=st.floats(1e-3, 1e3), below=st.floats(0.0, 1.0), above=st.floats(1e-12, 1.0))
@example(slope=0.1, t0=1.5, below=1.0, above=3.0)   # a plateau of two zeros
@example(slope=3.0, t0=0.7, below=1.0, above=1.0)
def test_next_tau_on_zero_plateaus_matches_oracle(slope, t0, below, above):
    target = slope * t0
    tau_j, tau_star = t0 * (1.0 - below), t0 * (1.0 + above)
    with _bisect_calls() as calls:
        _matches_oracle(slope, 0.0, target, tau_j, tau_star)
    h = [slope * t - target for t in (math.nextafter(t0, -math.inf), t0,
                                      math.nextafter(t0, math.inf))]
    if slope * tau_j - target < 0.0 < slope * tau_star - target and h.count(0.0) >= 2:
        assert calls  # a plateau inside the bracket is left to the bisection


def test_a_linear_psi_bisects_with_no_psi_call():
    # h = slope * t - target is 0 on t and on its upper neighbour, so the
    # walk hands over to the bisection, which for a linear psi evaluates
    # slope * t + intercept inline: the float the ScalarFn bisection gives.
    slope, target, t = 1.7101270739975631, 0.6297501425511367, 0.3682475718480053
    assert slope * t - target == slope * math.nextafter(t, math.inf) - target == 0.0
    outcomes = {}
    for linear in (True, False):
        pair = _pair(slope, 0.0, target, linear)
        calls = []
        call = ScalarFn.__call__

        def counted(self, tau):
            if self is pair.psi:
                calls.append(tau)
            return call(self, tau)

        with _bisect_calls() as brackets, pytest.MonkeyPatch.context() as mp:
            mp.setattr(ScalarFn, "__call__", counted)
            got = budget_stepper(pair, 0.5)(0.25)
        assert brackets == [(0.25, 0.5)]
        outcomes[linear] = tuple(map(float.hex, got)), len(calls)
    assert outcomes[True] == (outcomes[False][0], 0)
    assert outcomes[False][1] > 40
    assert outcomes[True][0][0] == t.hex()


# slope * t is small next to the intercept, so h is flat over many floats
# and the walk does not settle within its few ulps.
@settings(max_examples=300, deadline=None)
@given(slope=st.floats(1e-6, 1.0), intercept=st.floats(1e3, 1e20),
       tau_j=finite, width=st.floats(1e-9, 1e4), frac=st.floats(-0.25, 1.25))
@example(slope=1e-3, intercept=1e6, tau_j=0.0, width=10.0, frac=0.15)
def test_next_tau_on_absorption_plateaus_matches_oracle(slope, intercept, tau_j, width,
                                                        frac):
    tau_star = tau_j + width
    psi_j, psi_star = slope * tau_j + intercept, slope * tau_star + intercept
    _matches_oracle(slope, intercept, psi_j + frac * (psi_star - psi_j), tau_j, tau_star)


def test_plateau_examples_bisect():
    # The zero plateaus of the first two @examples above, and an absorption
    # plateau, are left to the bisection: once per example by next_tau and
    # by each of the two calls of its stepper in _ours.
    with _bisect_calls() as calls:
        for slope, t0 in ((0.1, 1.5), (3.0, 0.7)):
            target = slope * t0
            assert 0.0 in (slope * math.nextafter(t0, -math.inf) - target,
                           slope * math.nextafter(t0, math.inf) - target)
            _matches_oracle(slope, 0.0, target, 0.0, 4.0 * t0)
        got = _matches_oracle(1e-3, 1e6, 1e6 + 1.5e-3, 0.0, 10.0)
    assert got[0] == "tau" and len(calls) == 3 * 3


# A negative tau0: the bracket may hold 0, where the sign of a zero root
# depends on the bisection's path.
@settings(max_examples=300, deadline=None)
@given(slope=st.floats(1e-3, 1e3), intercept=st.one_of(st.sampled_from([0.0, -0.0]), finite),
       tau_j=st.floats(-1e6, -5e-324), width=st.floats(0.0, 2e6),
       frac=st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 0.5, 1.0])))
@example(slope=1.0, intercept=0.0, tau_j=-1.0, width=2.0, frac=0.5)
def test_next_tau_from_negative_tau0_matches_oracle(slope, intercept, tau_j, width, frac):
    tau_star = tau_j + width
    psi_j, psi_star = slope * tau_j + intercept, slope * tau_star + intercept
    _matches_oracle(slope, intercept, psi_j + frac * (psi_star - psi_j), tau_j, tau_star)


ULP = 2.0 ** -52  # the spacing of the floats in [1, 2)


class _StepSlope:
    """A slope whose product with t is h(t): `_walk_to_root(_StepSlope(h),
    0.0, 0.0, t)` walks h(t) + 0.0 - 0.0, which is h(t) for every value h
    takes below, so the walk can be run on any non-decreasing h."""

    def __init__(self, h):
        self.h = h

    def __mul__(self, t):
        return self.h(t)


@settings(max_examples=300, deadline=None)
@given(zeros=st.integers(0, 3), start=st.integers(-12, 12),
       below=st.sampled_from([1.0, 2.0, 0.5, 3.0]), above=st.sampled_from([1.0, 2.0, 0.5]))
@example(zeros=2, start=-3, below=1.0, above=1.0)   # walks up onto a plateau
@example(zeros=2, start=4, below=1.0, above=1.0)    # walks down onto one
@example(zeros=0, start=-5, below=2.0, above=2.0)   # a tie: bisection takes hi
def test_walk_ends_where_bisection_does_or_hands_back(zeros, start, below, above):
    # A non-decreasing step function on the floats 1.5 + i ulp: -below for
    # i < 0, 0 for 0 <= i < zeros, above from there on.
    def h(t):
        i = round((t - 1.5) / ULP)
        return -below if i < 0 else 0.0 if i < zeros else above

    lo, hi = 1.5 - 20 * ULP, 1.5 + 20 * ULP
    got = _walk_to_root(_StepSlope(h), 0.0, 0.0, 1.5 + start * ULP)
    if zeros >= 2:
        assert got is None
    else:
        # The walk settles when it needs at most 8 ulps to reach the zero or
        # the far end of the sign change.
        if (-start if start < 0 else start - zeros + 1) <= 8:
            assert got is not None
        if got is not None:
            assert got == reference_bisect(h, lo, hi, h(lo), h(hi))


def test_midpoint_overflow_keeps_the_bisection_result():
    # lo + hi overflows once both ends pass 2^1023, and bisection stops at a
    # bracket that is not adjacent; the walk must not be used there.
    got = _matches_oracle(1.0, 0.0, 1.6e308, 0.0, 1.7e308)
    assert got == ("tau", (1.7e308).hex())


def test_signed_zero_root_keeps_the_bisection_sign():
    # target - intercept = -0.0 puts the walk's start at -0.0; bisection
    # returns 0.5 * (-1 + 1) = +0.0.
    got = _matches_oracle(1.0, 0.0, -0.0, -1.0, 1.0)
    assert got == ("tau", (0.0).hex())
    assert math.copysign(1.0, float.fromhex(got[1])) == 1.0


subnormal = st.integers(1, 2 ** 52 - 1).map(lambda k: k * 5e-324)


@settings(max_examples=300, deadline=None)
@given(slope=st.floats(1e-3, 1e3), intercept=st.sampled_from([0.0, -0.0]),
       target=subnormal, tau_j=st.sampled_from([0.0, -0.0, -5e-324, -1e-310]),
       stretch=st.floats(1.0, 1e6))
@example(slope=1.0, intercept=0.0, target=5e-324, tau_j=0.0, stretch=2.0)
@example(slope=3.0, intercept=-0.0, target=15e-324, tau_j=-5e-324, stretch=1.0)
def test_next_tau_on_subnormal_targets_matches_oracle(slope, intercept, target, tau_j,
                                                      stretch):
    tau_star = tau_j + stretch * max(target / slope, 5e-324)
    _matches_oracle(slope, intercept, target, tau_j, tau_star)


@settings(max_examples=200, deadline=None)
@given(slope=st.floats(1e-3, 1e3), intercept=finite, tau_j=finite,
       width=st.floats(1e-6, 1e4), side=st.sampled_from(["below", "above"]),
       excess=st.floats(1e-3, 1e3))
def test_next_tau_bracket_failures_match_oracle(slope, intercept, tau_j, width, side,
                                                excess):
    # A target below psi(tau_j) or above psi(tau_star) by more than the slack.
    tau_star = tau_j + width
    psi_j, psi_star = slope * tau_j + intercept, slope * tau_star + intercept
    scale = 1.0 + abs(psi_j) + abs(psi_star) + abs(tau_star)
    target = psi_j - excess * scale if side == "below" else psi_star + excess * scale
    kind, message = _matches_oracle(slope, intercept, target, tau_j, tau_star)
    assert kind == "raise"
    if side == "below":
        assert message.startswith("psi(tau_j)=")
    else:
        assert message.endswith("tau_star does not bound the recurrence")


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


norm_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e154, -1e200,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(norm_entries, min_size=1, max_size=300),
       step=st.sampled_from([1, 2, 3, -1]))
@example(entries=[1e200, 1e200], step=1)   # the dot overflows to inf
# A stride-2 view whose dot has other bits than its contiguous copy's.
@example(entries=[0.345584192064786, 0.8216181435011584, 0.33043707618338714,
                  -1.303157231604361, 0.9053558666731177, 0.4463745723640113,
                  -0.5369532353602852, 0.5811181041963531], step=2)
@example(entries=[-0.0], step=1)
@example(entries=[5e-324] * 3, step=1)
@example(entries=[math.nan, 1.0], step=-1)
def test_l2_norm_matches_numpy_bits(entries, step):
    # Contiguous arrays and strided views, as np.linalg.norm sees them.
    v = np.array(entries)[::step]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow in dot
        got = norm(v, NormTag.L2)
        want = reference_norm(v, NormTag.L2)
    assert type(got) is float
    assert _bits(got) == _bits(want)



@settings(max_examples=100, deadline=None)
@given(entries=st.lists(norm_entries, min_size=4, max_size=120),
       cols=st.integers(1, 4), transpose=st.booleans())
@example(entries=[1e200, 1e200, 1.0, 1.0], cols=2, transpose=True)
def test_l2_norm_of_a_matrix_matches_numpy_bits(entries, cols, transpose):
    # Any shape ravels in memory order (order="K"), as np.linalg.norm does.
    rows = len(entries) // cols
    v = np.array(entries[:rows * cols]).reshape(rows, cols)
    v = v.T if transpose else v
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow in dot
        got = norm(v, NormTag.L2)
        want = float(np.linalg.norm(v))
    assert type(got) is float
    assert _bits(got) == _bits(want)

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
    trace = IterateTrace(rows=[(r.j, r.tau, r.deviation, r.step_norm, r.residual)
                               for r in records])
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        write_trace_csv(trace, ours)
        reference_write_trace_csv(ReferenceTrace(records=records), ref)
        return ours.read_bytes(), ref.read_bytes()


def _record(j, values):
    tau, deviation, step_norm, residual = values
    return TraceRecord(j=j, tau=tau, deviation=deviation, step_norm=step_norm,
                       residual=residual)


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


def _points(solve, args, trace):
    """Each x_j of trace: a reference trace stores them, and the library's
    are made again by `replay_points` from the start that solve was given."""
    if isinstance(trace, ReferenceTrace):
        return [r.x for r in trace.records]
    return replay_points(baseline_start(*args[:2]) if solve is alpha_iterate else args[0], trace)


def _loop_outcome(solve, *args, **kwargs):
    """Everything an iteration hands back, each iterate of its trace
    included, in bits, or ("raise", class, message)."""
    try:
        x, trace = solve(*args, **kwargs)
    except CoincidenceError as err:
        return "raise", type(err).__name__, str(err)
    rows = [(r.j, float.hex(r.tau), p.dtype.str, p.tobytes(), float.hex(r.step_norm),
             float.hex(r.deviation), float.hex(r.residual))
            for r, p in zip(trace.records, _points(solve, args, trace), strict=True)]
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


def test_a_budget_at_the_bracket_end_matches_reference():
    # phi(tau_j) = 2^20 + tau_j reaches psi(tau_*) = 2^21 exactly at step 54,
    # where the budget is tau_* itself and no walk may run; tau_* = 2^20 is
    # too coarse for the tail test to stop the loop before.
    cover = LinearSurjectiveCovering([[2.0]])
    pair = MajorantPair(psi=cover.psi, phi=ScalarFn.linear(1.0, 2.0 ** 20),
                        horizon=2.0 ** 21)
    inst = ProblemInstance(phi=AffineMap([[0.5]], [1.0]), cover=cover, majorants=pair,
                           x0=[0.0])
    ours = _loop_outcome(coincidence_solve, inst, residual_tol=-1.0, max_steps=200)
    assert ours == _loop_outcome(reference_coincidence_solve, inst, residual_tol=-1.0,
                                 max_steps=200)
    assert ours[2:4] == ("converged", "tau tail exhausted")
    assert ours[-1][-1][1] == (2.0 ** 20).hex() and ours[-1][-2][1] != (2.0 ** 20).hex()


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


L2, LINF = NormTag.L2, NormTag.LINF


def _cubic(x0=0.0, norms=(L2, L2)):
    """The custom-scalar cubic of the CLI tests, majorized by itself."""
    k = 1.25
    t_min = math.sqrt(2.0 / (3.0 * k))
    cubic = [0.5 * (4.0 / 3.0) * t_min, 0.0, 0.0, k]
    return build_polynomial_instance(cubic, cubic, 2.0, 2.0 * t_min, x0=x0, norms=norms)


def _signed_zero_quadratic():
    # A negative tensor, a -0 offset and a -0 start: every zero keeps its sign
    # as the array methods give it.
    q = scalar_quadratic(1.0, 2.0, 0.75)
    inst = build_quadratic_instance(q)
    inst.phi = QuadraticMap(BilinearMap(coeffs=[[[-1.0]]], bound=1.0), [-0.0],
                            domain_radius=inst.phi.domain_radius)
    inst.x0 = np.array([-0.0])
    return inst


# name -> (instance, its H2 check, how the majorant loop ends); the check is
# "proven", "sampled" (clean) or "violated" (sampled, with a warning).
ONE_D_FAMILIES = {
    "cubic-at-0-l2": (lambda: _cubic(), "proven", "converged"),
    "cubic-at-0-linf": (lambda: _cubic(norms=(LINF, LINF)), "proven", "converged"),
    "cubic-at-0-mixed": (lambda: _cubic(norms=(L2, LINF)), "sampled", "converged"),
    "cubic-off-0": (lambda: _cubic(x0=-0.0625), "violated", "converged"),
    "cubic-off-0-linf": (lambda: _cubic(x0=-0.0625, norms=(LINF, LINF)), "violated",
                         "converged"),
    # The undersized cubic majorant of ROADMAP item 1: an H2 defect at step 1.
    "cubic-undersized": (lambda: build_polynomial_instance(
        [0.5, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.5], 2.0, 2.0), "violated",
        "hypothesis_violation"),
    "quadratic-zero-offset": (lambda: build_quadratic_instance(
        scalar_quadratic(1.0, 2.0, -0.0)), "proven", "converged"),
    "quadratic-signed-zeros": (_signed_zero_quadratic, "proven", "converged"),
    "kantorovich-affine": (lambda: build_problem(gallery_config("kantorovich-affine")).instance,
                           "proven", "converged"),
}


def _runs_on_floats(inst) -> bool:
    """Whether a solve of inst runs on the float loop, which calls neither
    the map's evaluate nor the covering's solve_within; the array methods
    call solve_within once a step."""
    with warnings.catch_warnings(), array_calls(inst.phi, inst.cover) as calls:
        warnings.simplefilter("ignore")
        _, trace = coincidence_solve(inst, max_steps=3)
    if not calls:
        return True
    assert calls["solve_within"] == trace.steps > 0
    return False


def _warned(solve, *args, **kwargs):
    """_loop_outcome, with the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _loop_outcome(solve, *args, **kwargs)
    return outcome, [str(w.message) for w in caught]


@pytest.mark.parametrize("max_steps", [1, 3, 100_000])
@pytest.mark.parametrize("name", ONE_D_FAMILIES)
def test_one_d_families_match_reference(name, max_steps):
    # Each runs on the float forms; the reference runs the array methods.
    make, h2, status = ONE_D_FAMILIES[name]
    inst = make()
    assert inst.h2_proven is (h2 == "proven")
    assert _runs_on_floats(inst)
    slope = inst.cover.psi.coeffs[1]
    p = AlphaCoveringProblem(u=inst.cover, v=inst.phi, alpha=slope, beta=0.5 * slope)
    ours = _warned(coincidence_solve, inst, residual_tol=1e-10, max_steps=max_steps)
    assert ours == _warned(reference_coincidence_solve, inst, residual_tol=1e-10,
                           max_steps=max_steps)
    assert bool(ours[1]) is (h2 == "violated")
    if max_steps == 100_000:
        assert ours[0][2] == status
    x0 = np.zeros(1)
    assert _warned(alpha_iterate, p, x0, 1e-10, max_steps) == _warned(
        reference_alpha_iterate, p, x0, 1e-10, max_steps)


def _assert_steps_match(pair, tau_star, taus):
    """One stepper, stepped along taus, gives each next tau and the increment
    psi(tau_{j+1}) - psi(tau_j) of two ScalarFn calls, bit for bit."""
    step = budget_stepper(pair, tau_star)
    for tau_j, tau_next in zip(taus, taus[1:]):
        got, increment = step(tau_j)
        assert float.hex(got) == float.hex(tau_next)
        assert float.hex(increment) == float.hex(pair.psi(tau_next) - pair.psi(tau_j))


# psi = 2 tau in three forms: a plain callable (no coefficients, so each step
# bisects and calls psi), and a linear psi with a float64 or an int slope,
# which `polynomial` stores as floats.
PSI_FORMS = {
    "callable": lambda: ScalarFn(fn=lambda t: t * 2.0 + 0.0),
    "float64-slope": lambda: ScalarFn.linear(np.float64(2.0)),
    "int-slope": lambda: ScalarFn.linear(2),
}


@pytest.mark.parametrize("psi", PSI_FORMS)
@pytest.mark.parametrize("undersized", [False, True], ids=["sized", "undersized"])
@pytest.mark.parametrize("make", [scalar_quadratic, planar_quadratic],
                         ids=["float-path", "array-path"])
def test_psi_forms_match_reference(psi, undersized, make):
    # a = 1, b = 2, c = 0.75 under phi = 0.75 + a tau^2; a = 0.5 undersizes
    # the majorant, and the defect at step 1 then exceeds the admissible
    # increment psi(tau_2) - psi(tau_1), whose value the detail prints.
    certified = build_quadratic_instance(make(1.0, 2.0, 0.75))
    phi = ScalarFn.polynomial([0.75, 0.0, 0.5 if undersized else 1.0])
    pair = MajorantPair(psi=PSI_FORMS[psi](), phi=phi, tau0=0.0, horizon=2.0)
    inst = ProblemInstance(phi=certified.phi, cover=certified.cover, majorants=pair,
                           x0=certified.x0)
    float_path = make is scalar_quadratic
    assert _runs_on_floats(inst) is float_path
    ours = _warned(coincidence_solve, inst, residual_tol=1e-10)
    assert ours == _warned(reference_coincidence_solve, inst, residual_tol=1e-10)
    status, detail, _, tau_star, rows = ours[0][2:]
    _assert_steps_match(pair, float.fromhex(tau_star), [float.fromhex(r[1]) for r in rows])
    if undersized:
        assert status == "hypothesis_violation"
        assert detail.startswith("H2: defect ") and "admissible increment" in detail
        assert detail.endswith("at step 1")
    else:
        assert status == "converged"


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


@contextlib.contextmanager
def _solve_loop():
    """What the loops of coincide.solver do inside the block, from the first
    `budget_stepper` they build: `steppers`, one list per stepper built, with
    a (bisections, ScalarFn objects called) entry per call of its step;
    `walks`, the number of budgets a step walked to; and `called`, every
    ScalarFn object called, in or out of a step."""
    seen = SimpleNamespace(steppers=[], walks=0, called=[])
    build, call, walk = coincide.majorant.budget_stepper, ScalarFn.__call__, _walk_to_root

    def counted_call(self, tau):
        if seen.steppers:
            seen.called.append(self)
        return call(self, tau)

    def counted_walk(*args):
        root = walk(*args)
        seen.walks += root is not None
        return root

    def counted_build(pair, tau_star):
        step, per_step = build(pair, tau_star), []
        seen.steppers.append(per_step)

        def scoped(tau_j):
            before, first = len(calls), len(seen.called)
            try:
                return step(tau_j)
            finally:
                per_step.append((len(calls) - before, seen.called[first:]))

        return scoped

    with _bisect_calls() as calls, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScalarFn, "__call__", counted_call)
        mp.setattr(coincide.solver, "budget_stepper", counted_build)
        # The stepper binds the walk when it is built.
        mp.setattr(coincide.majorant, "_walk_to_root", counted_walk)
        yield seen


def test_pinned_d_zero_solve_never_bisects_in_next_tau():
    # a = 2^10, b = 2, c = 2^-10 (D = 0, 617 steps): every budget comes from
    # the walk. The crossing may bisect; the solve's budget steps may not,
    # and each is one call of the solve's one stepper that makes one
    # ScalarFn call, phi(tau_j).
    inst = build_quadratic_instance(d_zero_quadratic(10, 1))
    phi = inst.majorants.phi
    with _solve_loop() as seen:
        _, trace = coincidence_solve(inst, residual_tol=1e-8)
    assert trace.status == "converged" and trace.steps == 617
    assert len(seen.steppers) == 1 and len(seen.steppers[0]) == 617 and seen.walks == 617
    assert all(bisections == 0 and len(fns) == 1 and fns[0] is phi
               for bisections, fns in seen.steppers[0])
    assert len(seen.called) == 617 and all(fn is phi for fn in seen.called)


@pytest.mark.parametrize("name", ["scalar-d-zero", "scalar-d-pos", "matrix-2d",
                                  "kantorovich-affine", "random-quadratic"])
def test_a_solve_builds_one_stepper(name):
    # One budget recurrence per solve: each step's budget is one call of the
    # one stepper's step, which evaluates phi(tau_j) once.
    cfg = gallery_config(name)
    inst = build_problem(cfg).instance
    with _solve_loop() as seen:
        _, trace = coincidence_solve(inst, cfg.residual_tol, cfg.max_steps)
    assert trace.status == "converged"
    assert len(seen.steppers) == 1
    assert len(seen.steppers[0]) == trace.steps
    assert seen.walks <= trace.steps
    assert all([fn is inst.majorants.phi for fn in fns].count(True) == 1
               for _, fns in seen.steppers[0])


def test_a_budget_step_that_does_not_walk_evaluates_phi_once():
    # a = 0.5, b = 3.1, c = 0.3: 4 of the 7 budget steps hand the walk back
    # to the bisection, which reuses the step's phi(tau_j). The solve calls
    # phi once per step, once for the crossing and once for the start gap.
    inst = build_quadratic_instance(scalar_quadratic(0.5, 3.1, 0.3))
    phi = inst.majorants.phi
    calls = []
    call = ScalarFn.__call__

    def counted(self, tau):
        calls.append(self is phi)
        return call(self, tau)

    with _solve_loop() as seen, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScalarFn, "__call__", counted)
        _, trace = coincidence_solve(inst)
    assert trace.status == "converged" and trace.steps == 7
    assert calls.count(True) == trace.steps + 2
    assert len(seen.steppers[0]) == 7 and seen.walks == 3
    assert sum(bisections for bisections, _ in seen.steppers[0]) == 4


@settings(max_examples=30, deadline=None)
@given(q=scalar_quadratics, linear=st.booleans())
@example(q=d_zero_quadratic(10, 1), linear=True)
@example(q=near_d_quadratic(1.0, 2.0, -2.8), linear=False)
def test_one_stepper_steps_a_tau_sequence_as_fresh_calls_do(q, linear):
    # tau_sequence steps one stepper; each budget must be what a fresh
    # next_tau call and the bisecting oracle give at the same tau_j.
    pair = build_quadratic_instance(q).majorants
    if not linear:
        intercept, slope = pair.psi.coeffs
        pair = MajorantPair(psi=ScalarFn(fn=lambda t: t * slope + intercept), phi=pair.phi,
                            tau0=pair.tau0, horizon=pair.horizon)
    seq = tau_sequence(pair, max_steps=700, tail_tol=0.0)
    assert len(seq) > 1
    _assert_steps_match(pair, seq.tau_star, seq.taus)
    for tau_j, tau_next in zip(seq.taus, seq.taus[1:]):
        want = tau_next.hex()
        assert next_tau(pair, tau_j, seq.tau_star).hex() == want
        assert reference_next_tau(pair, tau_j, seq.tau_star).hex() == want


def _isfinite_calls(run):
    """The number of np.isfinite calls with an array argument while run() runs."""
    calls = []
    isfinite = np.isfinite

    def counted(x, *args, **kwargs):
        if isinstance(x, np.ndarray) and x.ndim:
            calls.append(x.shape)
        return isfinite(x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "isfinite", counted)
        run()
    return len(calls)


@pytest.mark.parametrize("method", ["majorant", "baseline"])
def test_loop_steps_scan_no_array_for_finiteness(method):
    # Vectors the loop makes are not scanned: finiteness is checked on the
    # step norm. A solve of 300 steps scans as often as one of 3.
    q = scalar_quadratic(1.0, 2.0, 1.0 - 10 ** -2.8)
    if method == "majorant":
        inst = build_quadratic_instance(q)

        def solve(steps):
            _, trace = coincidence_solve(inst, residual_tol=1e-10, max_steps=steps)
            assert trace.steps == steps
    else:
        p = AlphaCoveringProblem.from_quadratic(q)

        def solve(steps):
            _, trace = alpha_iterate(p, np.zeros(1), 1e-10, steps)
            assert trace.steps == steps

    assert _isfinite_calls(lambda: solve(3)) == _isfinite_calls(lambda: solve(300))
