"""The per-step hot paths against the oracle in step_reference.py, bit for bit.

`next_tau` evaluates a linear psi inline, `QuadraticMap.evaluate` makes one
contraction instead of two, and `write_trace_csv` formats a row in one call;
none of them may move a bit of a result, a byte of a trace or a word of a
BracketFailure message.
"""

import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coincide.cli import write_trace_csv
from coincide.errors import BracketFailure
from coincide.majorant import ScalarFn, next_tau
from coincide.problems import BilinearMap, QuadraticMap
from coincide.solver import IterateTrace, TraceRecord

from step_reference import reference_evaluate, reference_next_tau, reference_write_trace_csv


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
