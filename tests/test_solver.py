import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    array_calls,
    assert_trace_invariants,
    baseline_start,
    planar_quadratic,
    replay_points,
)
from coincide.covering import IdentityCovering, LinearSurjectiveCovering
from coincide.errors import InsufficientData, NoCrossing, NonFiniteValue
from coincide.linalg import NormTag
from coincide import solver
from coincide.majorant import MajorantPair, ScalarFn, smallest_crossing
from coincide.baseline import AlphaCoveringProblem, alpha_iterate
from coincide.cli import write_trace_csv
from coincide.problems import (
    BilinearMap,
    QuadraticMap,
    QuadraticProblem,
    build_kantorovich_instance,
    build_quadratic_instance,
    random_quadratic,
    scalar_quadratic,
)
from coincide.solver import (
    STATUS_CONVERGED,
    STATUS_HYPOTHESIS,
    STATUS_MAX_STEPS,
    AffineMap,
    CallableMap,
    IterateTrace,
    ProblemInstance,
    check_jacobian,
    coincidence_solve,
    _float_kernels,
    rate_estimate,
    validate_h2_derivative,
)
from step_reference import reference_rate_estimate


class TestCoincidenceSolve:
    def test_scalar_quadratic_finds_small_root(self):
        # x^2 + 2x + 0.75 = 0 has roots -0.5 and -1.5.
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
        x, trace = coincidence_solve(inst)
        assert trace.status == STATUS_CONVERGED
        assert trace.steps <= 60
        assert x[0] == pytest.approx(-0.5, abs=1e-9)
        assert abs(x[0]) <= 0.5 + 1e-10
        assert trace.final.residual <= 1e-10

    def test_affine_fixed_point_reaches_tau_star(self):
        f = AffineMap([[0.5]], [0.5], domain_center=[0.0], domain_radius=8.0)
        inst = build_kantorovich_instance(f, ScalarFn.linear(0.5), [0.0])
        x, trace = coincidence_solve(inst)
        assert trace.status == STATUS_CONVERGED
        assert x[0] == pytest.approx(1.0, abs=1e-9)
        assert trace.tau_star == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_quadratic_converges_sublinearly(self):
        # Double root at -1; the iterate mirrors the scalar recurrence.
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 1.0))
        x, trace = coincidence_solve(inst, residual_tol=0.0, max_steps=1000)
        assert trace.status == STATUS_MAX_STEPS
        oracle = [0.0]
        for _ in range(1000):
            oracle.append(-(oracle[-1] ** 2 + 1.0) / 2.0)
        points = replay_points(inst, trace)
        for j in (100, 500, 1000):
            assert points[j][0] == pytest.approx(oracle[j], abs=1e-11)
            assert abs(points[j][0] + 1.0) == pytest.approx(2.0 / j, rel=0.25)

    def test_degenerate_step_loop_evaluates_psi_once_per_step(self, monkeypatch):
        # D = 4 - 4 * 2^10 * 2^-10 = 0. The crossing is precomputed, so every
        # psi call counted is in the solve proper: psi(tau0) for the initial
        # gap, psi(tau0) before the loop, then psi(tau_{j+1}) once per step.
        inst = build_quadratic_instance(scalar_quadratic(2.0 ** 10, 2.0, 2.0 ** -10))
        psi = inst.majorants.psi
        tau_star = smallest_crossing(inst.majorants)
        monkeypatch.setattr(solver, "smallest_crossing", lambda pair: tau_star)
        calls = [0]
        call = ScalarFn.__call__

        def counted(self, tau):
            calls[0] += self is psi
            return call(self, tau)

        monkeypatch.setattr(ScalarFn, "__call__", counted)
        _, trace = coincidence_solve(inst, residual_tol=1e-8)
        assert trace.status == STATUS_CONVERGED
        assert trace.steps > 500
        assert calls[0] <= trace.steps + 2

    def test_zero_offset_converges_immediately(self):
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.0))
        x, trace = coincidence_solve(inst)
        assert trace.status == STATUS_CONVERGED and trace.steps == 0
        assert x[0] == 0.0

    def test_initial_gap_violation_reported_as_h2(self):
        # Majorant offset 0.5 cannot cover the measured defect 0.75.
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
        bad_pair = MajorantPair(psi=ScalarFn.linear(2.0),
                                phi=ScalarFn.polynomial([0.5, 0.0, 1.0]),
                                tau0=0.0, horizon=2.0)
        bad = ProblemInstance(phi=inst.phi, cover=inst.cover,
                              majorants=bad_pair, x0=inst.x0)
        x, trace = coincidence_solve(bad)
        assert trace.status == STATUS_HYPOTHESIS
        assert "H2" in trace.detail

    @pytest.mark.parametrize("mode", ["off", "loud"])
    def test_unknown_h2_check_is_refused(self, mode):
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
        with pytest.raises(ValueError, match="h2_check must be 'warn' or 'strict'"):
            coincidence_solve(inst, h2_check=mode)

    def test_no_crossing_propagates(self):
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
        pair = MajorantPair(psi=ScalarFn.linear(2.0),
                            phi=ScalarFn.polynomial([2.5, 0.0, 1.0]),
                            tau0=0.0, horizon=2.0)
        bad = ProblemInstance(phi=inst.phi, cover=inst.cover,
                              majorants=pair, x0=inst.x0)
        with pytest.raises(NoCrossing):
            coincidence_solve(bad)

    def test_max_steps_returns_partial_certificate(self):
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 1.0))
        x, trace = coincidence_solve(inst, residual_tol=1e-12, max_steps=50)
        assert trace.status == STATUS_MAX_STEPS
        assert trace.steps == 50
        assert trace.final.deviation <= (trace.records[-1].tau - trace.tau0) + 1e-8


def undersized_slope_instance() -> ProblemInstance:
    """Valid initial gap but derivative majorant scaled by 0.9."""
    inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
    pair = MajorantPair(psi=ScalarFn.linear(2.0),
                        phi=ScalarFn.polynomial([0.75, 0.0, 0.9]),
                        tau0=0.0, horizon=2.0)
    return ProblemInstance(phi=inst.phi, cover=inst.cover,
                           majorants=pair, x0=inst.x0)


class TestValidateH2Derivative:
    def test_quadratic_gallery_has_no_violations(self):
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
        report = validate_h2_derivative(inst, samples=500, seed=5)
        assert report.clean

    def test_constant_map_never_violates(self):
        f = AffineMap([[0.0]], [0.7], domain_center=[0.0], domain_radius=5.0)
        inst = build_kantorovich_instance(f, ScalarFn.linear(1e-9), [0.0])
        report = validate_h2_derivative(inst, samples=200, seed=6)
        assert report.clean

    def test_undersized_slope_is_flagged(self):
        report = validate_h2_derivative(undersized_slope_instance(), samples=500, seed=7)
        assert report.violations >= 1
        assert report.max_excess > 0.0

    def test_strict_mode_aborts_solve(self):
        x, trace = coincidence_solve(undersized_slope_instance(), h2_check="strict")
        assert trace.status == STATUS_HYPOTHESIS
        assert "H2" in trace.detail

    def test_warn_mode_warns_but_runs(self):
        with pytest.warns(RuntimeWarning, match="H2"):
            x, trace = coincidence_solve(undersized_slope_instance(), h2_check="warn")
        assert trace.status in (STATUS_CONVERGED, STATUS_MAX_STEPS, STATUS_HYPOTHESIS)

    def test_warn_mode_warns_once_per_message(self):
        # The warning names no source line, so its location is the message.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(2):
                coincidence_solve(undersized_slope_instance(), h2_check="warn")
        assert [(w.filename, w.lineno) for w in caught] == [("coincide", 0)]

    def test_non_finite_jacobian_is_a_violation_with_excess_inf(self):
        # Phi' = 2x, made NaN for x > 0.25 and -inf for x < -0.25; the finite
        # ones are within the bound phi'(tau) = 2 tau.
        made = []

        def jac(x):
            v = x[0]
            made.append(abs(v) > 0.25)
            return np.array([[math.nan if v > 0.25 else -math.inf if v < -0.25 else 2.0 * v]])

        phi = CallableMap(f=lambda x: x ** 2 + 0.75, jac=jac, domain_center=[0.0],
                          domain_radius=2.0)
        pair = MajorantPair(psi=ScalarFn.linear(2.0), phi=ScalarFn.polynomial([0.75, 0.0, 1.0]),
                            tau0=0.0, horizon=2.0)
        inst = ProblemInstance(phi=phi, cover=LinearSurjectiveCovering([[2.0]]),
                               majorants=pair, x0=np.array([0.0]))
        report = validate_h2_derivative(inst, samples=200, seed=3)
        assert 0 < sum(made) < 200
        assert report.violations == sum(made) and report.max_excess == math.inf

        always = CallableMap(f=phi._f, jac=lambda x: np.array([[math.nan]]),
                             domain_center=[0.0], domain_radius=2.0)
        report = validate_h2_derivative(
            ProblemInstance(phi=always, cover=inst.cover, majorants=pair, x0=inst.x0),
            samples=50, seed=3)
        assert (report.violations, report.max_excess) == (50, math.inf)


def _non_finite_at_evaluation(smooth, k, value=math.nan):
    """Make smooth.evaluate return value (NaN, say) from its k-th call (1-based) on."""
    evaluate, calls = smooth.evaluate, []

    def patched(x):
        calls.append(1)
        out = evaluate(x)
        return np.full_like(out, value) if len(calls) >= k else out

    smooth.evaluate = patched


def _non_finite_at_float_evaluation(monkeypatch, k, value):
    """Make QuadraticMap's float form return value from its k-th call (1-based) on."""
    float_form, calls = QuadraticMap.float_form, []

    def patched_form(self):
        evaluate = float_form(self)

        def patched(x):
            calls.append(1)
            out = evaluate(x)
            return value if len(calls) >= k else out

        return patched

    monkeypatch.setattr(QuadraticMap, "float_form", patched_form)


RESIDUAL_4_NOT_FINITE = r"Phi\(x_4\) - Psi\(x_4\) is not finite \(residual (nan|inf)\)"


class TestNonFiniteValueMidLoop:
    # A Phi value turning inf or NaN at step 4 makes that step's residual
    # non-finite, and the covering step raises NonFiniteValue before it
    # records the row. An inf residual is not an H2 defect. The 2-d problem
    # runs on the array methods, the 1-d one on the float forms.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_majorant_loop(self, value):
        inst = build_quadratic_instance(planar_quadratic(1.0, 2.0, 0.75))
        _non_finite_at_evaluation(inst.phi, 5, value)  # call 1 opens the trace
        with pytest.raises(NonFiniteValue, match=RESIDUAL_4_NOT_FINITE):
            coincidence_solve(inst)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_baseline_loop(self, value):
        p = AlphaCoveringProblem.from_quadratic(planar_quadratic(1.0, 2.0, 0.75))
        _non_finite_at_evaluation(p.v, 5, value)
        with pytest.raises(NonFiniteValue, match=RESIDUAL_4_NOT_FINITE):
            alpha_iterate(p, np.zeros(2), 1e-10, 100)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_majorant_loop(self, value, monkeypatch):
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
        _non_finite_at_float_evaluation(monkeypatch, 5, value)
        with pytest.raises(NonFiniteValue, match=RESIDUAL_4_NOT_FINITE):
            coincidence_solve(inst)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_baseline_loop(self, value, monkeypatch):
        p = AlphaCoveringProblem.from_quadratic(scalar_quadratic(1.0, 2.0, 0.75))
        _non_finite_at_float_evaluation(monkeypatch, 5, value)
        with pytest.raises(NonFiniteValue, match=RESIDUAL_4_NOT_FINITE):
            alpha_iterate(p, np.zeros(1), 1e-10, 100)

    def test_user_map_output_is_checked_where_it_is_made(self):
        # A CallableMap's output is validated at once, and the error names it.
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
        quadratic, calls = inst.phi, []

        def f(x):
            calls.append(1)
            return quadratic.evaluate(x) if len(calls) < 5 else np.array([math.nan])

        inst.phi = CallableMap(f=f, domain_center=[0.0], domain_radius=2.0)
        with pytest.raises(NonFiniteValue, match=r"^Phi\(x\) has a non-finite entry$"):
            coincidence_solve(inst)
        assert len(calls) == 5


def _undersized(q):
    q.bilinear.bound = 0.5  # below the overestimate: sampled, and violated
    return q


def _strict(q, **kwargs):
    inst = build_quadratic_instance(q)
    return inst, coincidence_solve(inst, h2_check="strict", **kwargs)


def _off_start(q):
    inst = build_quadratic_instance(q)
    inst.x0 = inst.x0 + 1.0
    return inst, coincidence_solve(inst, h2_check="strict")


def _in_loop_defect(q):
    inst = build_quadratic_instance(_undersized(q))
    with pytest.warns(RuntimeWarning, match="sampled derivative bound violated"):
        return inst, coincidence_solve(inst)


def _baseline(q, max_steps):
    p = AlphaCoveringProblem.from_quadratic(q)
    start = baseline_start(p, np.zeros(q.dim_x))
    return start, alpha_iterate(p, start.x0, 1e-10, max_steps)


# Every exit of both loops on a = 1, b = 2, c = 0.75: the map, covering and
# start the loop ran on, its (x_star, trace), and the (status, steps,
# detail) it ends with.
EXITS = {
    "initial-gap": (_off_start, (STATUS_HYPOTHESIS, 0, "H2: initial defect")),
    "strict-sample": (lambda q: _strict(_undersized(q)),
                      (STATUS_HYPOTHESIS, 0, "H2: sampled derivative bound violated")),
    "converged": (_strict, (STATUS_CONVERGED, 31, "")),
    "tail-exhausted": (lambda q: _strict(q, residual_tol=0.0),
                       (STATUS_CONVERGED, 45, "tau tail exhausted")),
    "in-loop-defect": (_in_loop_defect,
                       (STATUS_HYPOTHESIS, 1, "H2: defect 1.406250e-01 exceeds admissible "
                                              "increment 7.031250e-02 at step 1")),
    "max-steps": (lambda q: _strict(q, max_steps=3), (STATUS_MAX_STEPS, 3, "")),
    "baseline-converged": (lambda q: _baseline(q, 1000), (STATUS_CONVERGED, 31, "")),
    "baseline-max-steps": (lambda q: _baseline(q, 3), (STATUS_MAX_STEPS, 3, "")),
}


@pytest.mark.parametrize("problem", [scalar_quadratic, planar_quadratic],
                         ids=["float", "array"])
@pytest.mark.parametrize("exit_at", EXITS)
def test_every_return_gives_a_fresh_float_array(problem, exit_at):
    # x_star is a float64 ndarray of x0's shape with the bytes of the last
    # row's iterate, apart from the start, on every exit of both loops.
    run, (status, steps, detail) = EXITS[exit_at]
    q = problem(1.0, 2.0, 0.75)
    start, (x, trace) = run(q)
    assert (trace.status, trace.steps) == (status, steps)
    assert trace.detail.startswith(detail) and bool(trace.detail) is bool(detail)
    assert type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (q.dim_x,)
    assert x.tobytes() == replay_points(start, trace)[-1].tobytes()
    assert not np.shares_memory(x, start.x0)


def _loops(q):
    """(the map, covering and start, a solve giving (x_star, trace)) of the
    majorant loop and of the baseline loop on q."""
    inst = build_quadratic_instance(q)
    yield inst, lambda: coincidence_solve(inst)
    p = AlphaCoveringProblem.from_quadratic(q)
    start = baseline_start(p, np.zeros(q.dim_x))
    yield start, lambda: alpha_iterate(p, start.x0, 1e-10, 1000)


def _solved_in_d_zero_rows(inst, tol: float = 0.0):
    """The bytes a D = 0 solve of 10,000 steps from inst holds per trace row."""
    coincidence_solve(inst, residual_tol=tol, max_steps=10)  # warm up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, trace = coincidence_solve(inst, residual_tol=tol, max_steps=10_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = trace.steps + 1
    assert rows >= 10_000
    return held / rows


class TestTraceStorage:
    # A trace keeps each row as a tuple and no iterate; records and final
    # build fresh TraceRecords on each read.

    @pytest.mark.parametrize("problem", [scalar_quadratic, planar_quadratic],
                             ids=["float", "array"])
    def test_only_the_array_path_calls_the_array_methods(self, problem):
        # The float loop calls neither; the array loop calls solve_within
        # once a step and evaluate once more, at the start.
        for start, solve in _loops(problem(1.0, 2.0, 0.75)):
            with array_calls(start.phi, start.cover) as calls:
                _, trace = solve()
            steps = trace.steps
            assert steps > 2 and calls == ({} if problem is scalar_quadratic else
                                           {"solve_within": steps, "evaluate": steps + 1})

    @pytest.mark.parametrize("problem", [scalar_quadratic, planar_quadratic],
                             ids=["float", "array"])
    def test_each_read_of_records_is_fresh(self, problem):
        _, trace = coincidence_solve(build_quadratic_instance(problem(1.0, 2.0, 0.75)))
        first, second = trace.records, trace.records
        assert len(first) == len(second) == trace.steps + 1
        assert not any(a is b for a in first for b in second)
        want = list(trace.rows)
        for r in first:
            r.tau = 7.0
        trace.final.residual = 7.0
        assert [tuple(vars(r).values()) for r in trace.records] == want == trace.rows
        assert tuple(vars(trace.final).values()) == want[-1]

    @pytest.mark.parametrize("problem", [scalar_quadratic, planar_quadratic],
                             ids=["float", "array"])
    def test_rows_are_the_lines_of_trace_csv(self, problem, tmp_path):
        _, trace = coincidence_solve(build_quadratic_instance(problem(1.0, 2.0, 1.0)),
                                     max_steps=300)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        assert header == "j,tau,deviation,step_norm,residual"
        parsed = [(int(j), *map(float, rest)) for j, *rest in (ln.split(",") for ln in lines)]
        assert len(parsed) == len(trace.rows) == 301
        hexed = [(r[0], *map(float.hex, r[1:])) for r in trace.rows]
        assert hexed == [(r[0], *map(float.hex, r[1:])) for r in parsed]

    def test_a_float_path_row_costs_under_240_bytes(self):
        # D = 0: the solve runs all 10,000 steps. A row is a tuple of an int
        # and four floats, about 215 B; a stored float x_j added about 30 B.
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 1.0))
        assert _solved_in_d_zero_rows(inst) < 240

    def test_an_array_path_row_costs_under_300_bytes_at_dim_x_50(self):
        # The same solve on the first axis of R^50, onto R: a row costs what
        # it costs on the float path, whatever dim_x is; a stored copy of
        # each x_j added about 520 B here.
        coeffs = np.zeros((1, 50, 50))
        coeffs[0, 0, 0] = 1.0
        linear = np.zeros((1, 50))
        linear[0, 0] = 2.0
        q = QuadraticProblem(bilinear=BilinearMap(coeffs=coeffs, bound=1.0), linear=linear,
                             offset=np.array([1.0]), b=2.0, c=1.0)
        inst = build_quadratic_instance(q)
        assert _float_kernels(inst.cover, inst.phi, inst.x0) is None
        assert _solved_in_d_zero_rows(inst) < 300


class _Target(solver.SmoothMap):
    """Phi that maps every x to one target."""

    def __init__(self, target):
        self.target = target

    def evaluate(self, x):
        return self.target


def _step(cover, x, phi_x, alpha):
    """One covering step from x with target phi_x, within the baseline's
    budget residual / alpha; returns the trace it extends."""
    [(_, trace)] = solver.covering_loop(cover, _Target(phi_x), x, 0.0, 1, alpha=alpha)
    return trace


class TestCoveringStepRefusesANonFiniteIterate:
    # The loop scans no entries; a covering step checks the step norm once,
    # whatever covering made the iterate, and appends no row for it.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["target", "start"])
    @pytest.mark.parametrize("cover", [LinearSurjectiveCovering([[2.0, 0.0], [0.0, 1.0]]),
                                       IdentityCovering(2)], ids=["linear", "identity"])
    def test_non_finite_start_or_target(self, cover, where, bad):
        y, x = np.array([-1.0, 0.5]), np.zeros(2)
        (y if where == "target" else x)[1] = bad
        # The start's residual, and so the budget, is inf or NaN, which lets
        # an inf correction through the budget check.
        with pytest.raises(NonFiniteValue,
                           match=r"iterate 1 is not finite \(step norm (nan|inf)\)"), \
                np.errstate(all="ignore"):
            _step(cover, x, y, alpha=1.0)

    def test_sum_that_overflows_behind_a_finite_correction(self):
        # Psi(x) = -x/2 under linf norms (an l2 norm of 1e308 overflows):
        # the correction 1e308 is finite and within its budget 5e307 / 0.5,
        # but x' + 1e308 overflows.
        cover = LinearSurjectiveCovering([[0.5]], b=0.5, norm_x=NormTag.LINF,
                                         norm_y=NormTag.LINF)
        x, y = np.array([1.5e308]), np.array([-1.25e308])
        with np.errstate(over="ignore"):
            assert cover.solve_within(x, y, budget=1e308)[0] == math.inf
            with pytest.raises(NonFiniteValue, match=r"step norm inf"):
                _step(cover, x, y, alpha=0.5)

    def test_user_covering(self):
        class NaNCovering(IdentityCovering):
            def solve_within(self, x_prime, y, budget, defect=None):
                return np.full_like(y, math.nan)

        with pytest.raises(NonFiniteValue, match=r"step norm nan"):
            _step(NaNCovering(2), np.zeros(2), np.ones(2), alpha=0.1)

    def test_finite_step_appends_its_row(self):
        trace = _step(IdentityCovering(2), np.zeros(2), np.array([0.3, 0.4]), alpha=0.5)
        assert len(trace.records) == 2 and trace.records[1].step_norm == 0.5


class TestRateEstimate:
    def test_transversal_quadratic_is_geometric(self):
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
        _, trace = coincidence_solve(inst)
        regime, value = rate_estimate(trace)
        assert regime == "geometric"
        assert value == pytest.approx(0.5, abs=0.05)

    def test_degenerate_quadratic_is_sublinear(self):
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 1.0))
        _, trace = coincidence_solve(inst, residual_tol=0.0, max_steps=2000)
        regime, value = rate_estimate(trace)
        assert regime == "sublinear"
        assert value == pytest.approx(-2.0, abs=0.3)

    def test_banach_contraction_rate_is_exact(self):
        f = AffineMap([[0.5]], [0.5], domain_center=[0.0], domain_radius=8.0)
        inst = build_kantorovich_instance(f, ScalarFn.linear(0.5), [0.0])
        _, trace = coincidence_solve(inst, residual_tol=1e-12)
        regime, value = rate_estimate(trace)
        assert regime == "geometric"
        assert value == pytest.approx(0.5, abs=0.01)

    def test_short_trace_is_rejected(self):
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
        _, trace = coincidence_solve(inst, residual_tol=1e-3)
        with pytest.raises(InsufficientData):
            rate_estimate(trace)

    @staticmethod
    def _outcome(estimate, trace):
        try:
            regime, value = estimate(trace)
        except InsufficientData as err:
            return "raise", str(err)
        return regime, float(value).hex()

    step_norms = st.one_of(
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                         2.2e-308, 1e-310, 1.7976931348623157e308]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(1e-12, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(step_norms, min_size=19, max_size=60))
    @example(steps=[0.5 ** k for k in range(1, 41)])
    @example(steps=[5e-324] * 12 + [math.nan, -0.0, math.inf] * 4 + [1e-310] * 6)
    def test_tail_filter_matches_the_np_isfinite_one(self, steps):
        # Row 0 is the start; the rest carry the drawn step norms.
        trace = IterateTrace(rows=[(j, 0.0, 0.0, s, 0.0) for j, s in enumerate([0.0] + steps)])
        with np.errstate(all="ignore"):
            assert self._outcome(rate_estimate, trace) == self._outcome(
                reference_rate_estimate, trace)

    @staticmethod
    def _fit(fit, xs, ys):
        """(coefficient bits, warnings as (category, message)) of fit(xs, ys, ...)."""
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
            warnings.simplefilter("always")
            try:
                coeffs = fit(xs, ys).tobytes()
            except np.linalg.LinAlgError as err:
                coeffs = str(err)
        return coeffs, [(w.category, str(w.message)) for w in caught]

    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e3, 1e3)),
                           min_size=1, max_size=40),
           repeat=st.booleans())
    @example(points=[(3.0, 0.0), (3.0, 1.0), (3.0, -2.0)], repeat=False)  # rank 1: warns
    @example(points=[(-0.0, -0.0), (1.0, 0.5)], repeat=False)
    @example(points=[(2.0, 1.0)], repeat=False)                            # one point
    def test_line_fit_is_polyfit_bit_for_bit(self, points, repeat):
        # Every x the same (repeat) makes the Vandermonde matrix rank 1. An
        # x column of zeros scales to NaN (0 / 0) in both, and is left out.
        xs = np.array([points[0][0] if repeat else x for x, _ in points])
        ys = np.array([y for _, y in points])
        assume(np.any(xs != 0.0))
        assert self._fit(solver._line_fit, xs, ys) == self._fit(
            lambda a, b: np.polyfit(a, b, 1), xs, ys)

    @pytest.mark.parametrize("xs", [[3.0, 3.0, 3.0], [2.0]])
    def test_line_fit_warns_at_rank_one(self, xs):
        ys = np.arange(len(xs), dtype=float)
        _, caught = self._fit(solver._line_fit, np.array(xs), ys)
        assert caught == [(np.exceptions.RankWarning, "Polyfit may be poorly conditioned")]


class TestTraceInvariants:
    def test_gallery_instances(self, gallery):
        for name, built in gallery.items():
            x, trace = coincidence_solve(built.instance, max_steps=2000)
            assert_trace_invariants(built.instance, trace)

    def test_random_instances(self):
        for seed in range(8):
            q = random_quadratic(dim_x=2 + seed % 4, dim_y=1 + seed % 3,
                                 target_margin=(0.0, 0.1, 0.5)[seed % 3], seed=seed)
            inst = build_quadratic_instance(q)
            x, trace = coincidence_solve(inst, max_steps=600)
            assert_trace_invariants(inst, trace)

    @pytest.mark.parametrize("problem", [scalar_quadratic, planar_quadratic],
                             ids=["float", "array"])
    def test_a_deviation_one_ulp_off_fails(self, problem):
        inst = build_quadratic_instance(problem(1.0, 2.0, 0.75))
        _, trace = coincidence_solve(inst)
        assert_trace_invariants(inst, trace)
        j, tau, deviation, step_norm, residual = trace.rows[5]
        trace.rows[5] = (j, tau, math.nextafter(deviation, math.inf), step_norm, residual)
        with pytest.raises(AssertionError):
            assert_trace_invariants(inst, trace)

    @pytest.mark.parametrize("problem", [scalar_quadratic, planar_quadratic],
                             ids=["float", "array"])
    def test_a_trace_replayed_from_another_start_fails(self, problem):
        inst = build_quadratic_instance(problem(1.0, 2.0, 0.75))
        _, trace = coincidence_solve(inst)
        inst.x0 = inst.x0 + 2.0 ** -30
        with pytest.raises(AssertionError):
            assert_trace_invariants(inst, trace)

    def test_monotone_residuals_on_quadratic_gallery(self, gallery):
        for name in ("scalar-d-pos", "scalar-d-zero", "matrix-2d"):
            built = gallery[name]
            _, trace = coincidence_solve(built.instance, max_steps=2000)
            res = [r.residual for r in trace.records]
            for a, b in zip(res, res[1:]):
                assert b <= a + 1e-12

    def test_final_certificate(self):
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
        x, trace = coincidence_solve(inst)
        assert trace.final.deviation <= (trace.tau_star - trace.tau0) + 1e-8


class TestJacobianChecks:
    def test_quadratic_jacobian_matches_finite_differences(self):
        q = random_quadratic(4, 3, 0.5, seed=21)
        inst = build_quadratic_instance(q)
        assert check_jacobian(inst.phi, samples=50, seed=1, radius=1.0) <= 1e-5

    def test_callable_map_with_analytic_jacobian(self):
        f = CallableMap(
            f=lambda x: np.array([0.9 * math.sin(x[0])]),
            jac=lambda x: np.array([[0.9 * math.cos(x[0])]]),
            domain_center=[0.0], domain_radius=1.0)
        assert check_jacobian(f, samples=50, seed=2) <= 1e-8


def test_linf_instance_solves():
    # Scalar problem under linf norms with a user-supplied covering constant.
    cover = LinearSurjectiveCovering([[2.0]], b=2.0,
                                     norm_x=NormTag.LINF, norm_y=NormTag.LINF)
    pair = MajorantPair(psi=ScalarFn.linear(2.0),
                        phi=ScalarFn.polynomial([0.75, 0.0, 1.0]),
                        tau0=0.0, horizon=2.0)
    phi = CallableMap(f=lambda x: np.array([x[0] ** 2 + 0.75]),
                      jac=lambda x: np.array([[2.0 * x[0]]]),
                      domain_center=[0.0], domain_radius=2.0)
    inst = ProblemInstance(phi=phi, cover=cover, majorants=pair,
                           x0=np.array([0.0]))
    x, trace = coincidence_solve(inst)
    assert trace.status == STATUS_CONVERGED
    assert x[0] == pytest.approx(-0.5, abs=1e-9)
