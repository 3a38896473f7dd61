"""compare_methods runs one covering iteration and certifies it under both
schemes; what it reports must be what the two schemes give when each runs
alone, the majorant's solve first and then the baseline's, field for field
and bit for bit, with the same warnings and the same exception.

The reference below runs the schemes apart. The library cases drive
`covering_loop` with both schemes where one of them ends first, on the float
loop and on the array methods.
"""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coincide.baseline import (
    STATUS_NO_CROSSING,
    AlphaCoveringProblem,
    ComparisonReport,
    MethodRun,
    _rate_or_na,
    alpha_iterate,
    compare_methods,
)
from coincide.errors import CoincidenceError, NoCrossing, NotContractive
from coincide.problems import (
    BilinearMap,
    QuadraticProblem,
    build_polynomial_instance,
    build_quadratic_instance,
    random_quadratic,
    scalar_quadratic,
)
from coincide.solver import (
    _float_kernels,
    coincidence_solve,
    covering_loop,
    majorant_loop_args,
    smallest_crossing,
)
from conftest import planar_quadratic
from test_float_kernels import _twin_instance


def compare_apart(q, tol, max_steps) -> ComparisonReport:
    """compare_methods as two solves: coincidence_solve, then alpha_iterate."""
    report = ComparisonReport()
    try:
        x_m, trace_m = coincidence_solve(q.instance, residual_tol=tol, max_steps=max_steps)
        regime, value = _rate_or_na(trace_m)
        report.majorant_trace = trace_m
        report.runs.append(MethodRun(
            method="majorant", status=trace_m.status, steps=trace_m.steps,
            rate_regime=regime, rate_value=value,
            residual=trace_m.final.residual, x_star=x_m, detail=trace_m.detail))
    except NoCrossing as err:
        report.runs.append(MethodRun(
            method="majorant", status=STATUS_NO_CROSSING, steps=0,
            rate_regime="n/a", rate_value=float("nan"),
            residual=float("nan"), applicable=False, detail=str(err)))
    try:
        p = AlphaCoveringProblem.from_quadratic(q)
        x_b, trace_b = alpha_iterate(p, np.zeros(q.dim_x), tol, max_steps)
        regime, value = _rate_or_na(trace_b)
        report.baseline_trace = trace_b
        report.runs.append(MethodRun(
            method="baseline", status=trace_b.status, steps=trace_b.steps,
            rate_regime=regime, rate_value=value,
            residual=trace_b.final.residual, x_star=x_b, detail=""))
    except NotContractive as err:
        report.runs.append(MethodRun(
            method="baseline", status="not_contractive", steps=0,
            rate_regime="n/a", rate_value=float("nan"),
            residual=float("nan"), applicable=False, detail=str(err)))
    return report


def _bits(v):
    """A float as its bytes (-0.0 and 0.0 differ), anything else as it is."""
    return struct.pack("<d", v) if isinstance(v, float) else v


def _trace_bits(trace):
    if trace is None:
        return None
    return ([tuple(map(_bits, row)) for row in trace.rows],
            trace.status, trace.detail, _bits(trace.tau0), _bits(trace.tau_star))


def _run_bits(run):
    fields = {k: _bits(float(v)) if isinstance(v, (float, np.floating)) else v
              for k, v in vars(run).items() if k != "x_star"}
    fields["x_star"] = None if run.x_star is None else run.x_star.tobytes()
    return fields


def _outcome(fn, *args):
    """("ok", runs, traces, warnings) of a report, every float as its bits,
    or ("raise", type, message, warnings)."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except CoincidenceError as err:
            out = ("raise", type(err).__name__, str(err))
    seen = [(w.category.__name__, str(w.message)) for w in caught]
    if isinstance(out, tuple):
        return (*out, seen)
    if isinstance(out, ComparisonReport):
        return ("ok", [_run_bits(r) for r in out.runs],
                [_trace_bits(out.majorant_trace), _trace_bits(out.baseline_trace)], seen)
    return ("ok", [(x.tobytes(), _trace_bits(t)) for x, t in out], seen)


def assert_one_pass_matches(q, tol, max_steps):
    ours = _outcome(compare_methods, q, tol, max_steps)
    assert ours == _outcome(compare_apart, q, tol, max_steps)
    return ours


MAX_STEPS = st.sampled_from([1, 3, 50])
TOLS = st.one_of(st.sampled_from([1e-14, 1e-10, 1e-2]),
                 st.floats(-14.0, -2.0).map(lambda e: 10.0 ** e))
# D = b^2 - 4ac as a share of b^2: 0 (c = b^2 / 4a, up to its rounding) and
# near it, and the transversal range.
MARGINS = st.one_of(st.sampled_from([0.0, 1e-16, 1e-12, 1e-6]),
                    st.floats(1e-9, 1.0))


@settings(max_examples=150, deadline=None)
@given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0), margin=MARGINS, tol=TOLS,
       max_steps=MAX_STEPS)
@example(a=6.9925383670345385, b=2.9979354152236226, margin=0.0, tol=1e-8, max_steps=50)
def test_a_scalar_compare_is_the_two_schemes_apart(a, b, margin, tol, max_steps):
    try:
        q = scalar_quadratic(a, b, (1.0 - margin) * b * b / (4.0 * a))
    except (CoincidenceError, ValueError):
        return
    assert_one_pass_matches(q, tol, max_steps)


@settings(max_examples=40, deadline=None)
@given(e=st.integers(-4, 12), m=st.integers(-3, 3), tol=TOLS, max_steps=MAX_STEPS)
def test_an_exact_zero_discriminant_compare_is_the_majorant_alone(e, m, tol, max_steps):
    # b = 2^m, a = 2^(e + 2m - 2), c = 2^-e: D = 4^m - 4^m is exactly 0, and
    # beta = 2 a tau_* = b, so the baseline is refused.
    q = scalar_quadratic(2.0 ** (e + 2 * m - 2), 2.0 ** m, 2.0 ** -e)
    ours = assert_one_pass_matches(q, tol, max_steps)
    assert ours[1][1]["status"] == "not_contractive"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), dims=st.sampled_from([(2, 2), (2, 1), (3, 2)]),
       margin=MARGINS, tol=TOLS, max_steps=MAX_STEPS)
def test_a_multi_d_compare_is_the_two_schemes_apart(seed, dims, margin, tol, max_steps):
    try:
        q = random_quadratic(*dims, margin, seed)
    except (CoincidenceError, ValueError):
        return
    assert_one_pass_matches(q, tol, max_steps)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 2.0), margin=MARGINS, tol=TOLS, max_steps=MAX_STEPS)
def test_a_planar_compare_is_the_two_schemes_apart(a, margin, tol, max_steps):
    # The scalar problem on the first axis of R^2: the array methods.
    assert_one_pass_matches(planar_quadratic(a, 2.0, (1.0 - margin) / a), tol, max_steps)


@pytest.mark.parametrize("max_steps", [1, 3, 50])
def test_an_h2_sampled_compare_warns_as_the_majorant_alone(max_steps):
    # The bound a = 0.5 is below the tensor's 1.0: H2 is sampled, warns, and
    # the majorant stops on H2 after step 1 while the baseline runs on to
    # converge at step 31.
    q = QuadraticProblem(bilinear=BilinearMap(coeffs=np.array([[[1.0]]]), bound=0.5),
                         linear=np.array([[2.0]]), offset=np.array([0.75]))
    ours = assert_one_pass_matches(q, 1e-10, max_steps)
    assert any("sampled derivative bound violated" in msg for _, msg in ours[-1])
    majorant, baseline = ours[1]
    assert majorant["status"] == ("max_steps" if max_steps == 1 else "hypothesis_violation")
    assert majorant["steps"] == 1 and baseline["steps"] == min(max_steps, 31)


@pytest.mark.parametrize("make", [scalar_quadratic, planar_quadratic], ids=["float", "array"])
@pytest.mark.parametrize("c, tol", [(1.0 - 10 ** -2.75, 1e-10), (0.75, 0.0)],
                         ids=["one-length", "majorant-ends-first"])
def test_each_trace_keeps_its_own_lists(make, c, tol):
    # The two traces of one pass hold the same row values, never one list.
    report = compare_methods(make(1.0, 2.0, c), tol=tol)
    majorant, baseline = report.majorant_trace, report.baseline_trace
    assert (len(majorant.rows) == len(baseline.rows)) == (tol > 0.0)
    assert majorant.rows is not baseline.rows


def test_the_majorant_ends_first_by_its_tail():
    q = scalar_quadratic(1.0, 2.0, 0.75)
    ours = assert_one_pass_matches(q, 0.0, 200)
    majorant, baseline = ours[1]
    assert majorant["detail"] == "tau tail exhausted" and majorant["steps"] < baseline["steps"]
    assert baseline["status"] == "converged"


def test_a_baseline_over_budget_is_raised_after_the_majorant_ends():
    # b sits 1e-9 above sigma_min = 1 and c 4e-9 above ||C|| = 4, both within
    # the slack the builder forgives: the baseline's first budget 4 / b
    # misses the correction 4 by more than BUDGET_TOL, the majorant's
    # (4 + 4e-9) / b does not, and the majorant converges.
    q = QuadraticProblem(bilinear=BilinearMap(coeffs=np.array([[[0.05]]]), bound=0.05),
                         linear=np.array([[1.0]]), offset=np.array([4.0]),
                         b=1.0 + 1e-9, c=4.0 + 4e-9)
    assert coincidence_solve(q.instance)[1].status == "converged"
    ours = assert_one_pass_matches(q, 1e-10, 100_000)
    assert ours[:2] == ("raise", "BudgetExceeded")


def _instances():
    inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
    assert _float_kernels(inst.cover, inst.phi, inst.x0) is not None
    return {"float": inst, "array": _twin_instance(inst)}


def _loop_apart(inst, tol, max_steps, loop, alpha):
    """The joint loop's results as two loops, the majorant's error first."""
    majorant = covering_loop(inst.cover, inst.phi, inst.x0, tol, max_steps, **loop)
    return majorant + covering_loop(inst.cover, inst.phi, inst.x0, tol, max_steps,
                                    alpha=alpha)


def _loop_joint(inst, tol, max_steps, loop, alpha):
    return covering_loop(inst.cover, inst.phi, inst.x0, tol, max_steps, **loop, alpha=alpha)


# name: (factor on tau_*, alpha, residual_tol, what the joint loop gives)
LOOP_CASES = {
    # tau_* twice the crossing: the majorant stalls at float resolution, and
    # with a negative tolerance the baseline runs to its step cap.
    "majorant-stalls-first": (2.0, 2.0, -1.0, ("max_steps", "max_steps")),
    # The same with alpha = 1.5 below b = 2: the baseline's budgets exceed
    # its corrections, and its taus lead on from its own, not the majorant's.
    "majorant-stalls-first-taus-apart": (2.0, 1.5, -1.0, ("max_steps", "max_steps")),
    # alpha = 4 claims more than b = 2: the baseline's budget is half its
    # correction at step 1, and its error waits for the majorant to end.
    "baseline-over-budget": (1.0, 4.0, 1e-10, "BudgetExceeded"),
    # Both fail: the baseline at step 1, the majorant later, when phi(tau_j)
    # passes psi(0.9 tau_*); the majorant's error wins.
    "both-fail": (0.9, 4.0, 1e-10, "BracketFailure"),
    # The baseline is refused at step 1 and the majorant then stalls, which
    # is no error: the held baseline error is raised after it.
    "baseline-over-budget-then-majorant-stalls": (2.0, 4.0, -1.0, "BudgetExceeded"),
}


@pytest.mark.parametrize("path", ["float", "array"])
@pytest.mark.parametrize("name", LOOP_CASES)
def test_the_joint_loop_is_the_two_loops_apart(name, path):
    factor, alpha, tol, want = LOOP_CASES[name]
    inst = _instances()[path]
    loop = majorant_loop_args(inst, "warn")
    loop["tau_star"] = factor * smallest_crossing(inst.majorants)
    ours = _outcome(_loop_joint, inst, tol, 100, loop, alpha)
    assert ours == _outcome(_loop_apart, inst, tol, 100, loop, alpha)
    if isinstance(want, str):
        assert ours[:2] == ("raise", want)
    else:
        assert tuple(trace[1] for _, trace in ours[1]) == want
        (_, majorant), (_, baseline) = ours[1]
        assert majorant[2].startswith("tau sequence stalled") and len(baseline[0]) == 101


@pytest.mark.parametrize("path", ["float", "array"])
def test_a_baseline_error_waits_for_the_whole_majorant_pass(path, monkeypatch):
    # The pass makes every majorant step before it raises the baseline's
    # error: it evaluates Phi as often as the majorant alone does.
    inst = _instances()[path]
    loop = majorant_loop_args(inst, "warn")
    steps = coincidence_solve(inst)[1].steps
    calls = []
    if path == "float":
        form = type(inst.phi).float_form

        def counted_form(self):
            evaluate = form(self)
            return lambda x: calls.append(x) or evaluate(x)

        monkeypatch.setattr(type(inst.phi), "float_form", counted_form)
    else:
        evaluate = type(inst.phi).evaluate
        monkeypatch.setattr(type(inst.phi), "evaluate",
                            lambda self, x: calls.append(x) or evaluate(self, x))
    with pytest.raises(CoincidenceError, match=r"correction 3\.75.*exceeds budget 1\.875"):
        _loop_joint(inst, 1e-10, 100, loop, 4.0)
    assert len(calls) == steps + 1


@pytest.mark.parametrize("max_steps, want", [(1, "max_steps"), (3, "max_steps"),
                                             (50, "converged")])
def test_a_majorant_stopped_before_its_first_step_leaves_the_baseline_running(max_steps,
                                                                              want):
    # c sits 5e-10 below ||C|| = 0.75: the start's defect exceeds
    # phi(tau0) - psi(tau0) = c, so the majorant stops on H2 at row 0, while
    # the baseline converges at step 31.
    q = QuadraticProblem(bilinear=BilinearMap(coeffs=np.array([[[1.0]]]), bound=1.0),
                         linear=np.array([[2.0]]), offset=np.array([0.75]), c=0.75 - 5e-10)
    ours = assert_one_pass_matches(q, 1e-10, max_steps)
    majorant, baseline = ours[1]
    assert (majorant["status"], majorant["steps"]) == ("hypothesis_violation", 0)
    assert (baseline["status"], baseline["steps"]) == (want, min(max_steps, 31))


@pytest.mark.parametrize("path", ["float", "array"])
def test_a_joint_loop_from_a_nonzero_tau0_keeps_each_schemes_taus(path):
    # tau0 = 0.25: the majorant's rows carry its tau from 0.25, the
    # baseline's its budgets summed from 0, on the same iterates.
    inst = build_polynomial_instance([0.75, 0.0, 1.0], [1.3125, -0.5, 1.0], 2.0, 1.0,
                                     tau0=0.25)
    assert _float_kernels(inst.cover, inst.phi, inst.x0) is not None
    inst = {"float": inst, "array": _twin_instance(inst)}[path]
    loop = majorant_loop_args(inst, "warn")
    ours = _outcome(_loop_joint, inst, 1e-10, 100, loop, 2.0)
    assert ours == _outcome(_loop_apart, inst, 1e-10, 100, loop, 2.0)
    (_, majorant), (_, baseline) = ours[1]
    assert majorant[1] == baseline[1] == "converged"
    assert len(majorant[0]) == len(baseline[0]) == 32
    assert majorant[0][0][1] == _bits(0.25) and baseline[0][0][1] == _bits(0.0)
