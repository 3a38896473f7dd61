from collections import Counter

import numpy as np
import pytest

import coincide
from coincide.baseline import (
    AlphaCoveringProblem,
    alpha_iterate,
    compare_methods,
    estimate_lipschitz,
)
from coincide.covering import IdentityCovering, LinearSurjectiveCovering
from coincide.errors import NegativeDiscriminant, NotContractive
from coincide.problems import QuadraticMap, scalar_quadratic
from coincide.solver import STATUS_CONVERGED, AffineMap
from conftest import planar_quadratic


def step_ratios(trace):
    steps = [r.step_norm for r in trace.records[1:]]
    return [b / a for a, b in zip(steps, steps[1:]) if a > 0.0]


class TestAlphaIterate:
    def test_transversal_quadratic_contracts_at_half(self):
        # On the ball of radius tau_* = 0.5 the Lipschitz constant of
        # x^2 + 0.75 is 2 * tau_* = 1, against covering constant 2.
        q = scalar_quadratic(1.0, 2.0, 0.75)
        p = AlphaCoveringProblem.from_quadratic(q)
        assert p.alpha == pytest.approx(2.0, abs=1e-12)
        assert p.beta == pytest.approx(1.0, abs=1e-12)
        x, trace = alpha_iterate(p, np.zeros(1), tol=1e-10, max_steps=200)
        assert trace.status == STATUS_CONVERGED
        assert x[0] == pytest.approx(-0.5, abs=1e-9)
        bound = p.beta / p.alpha + 1e-6
        assert all(r <= bound for r in step_ratios(trace))

    def test_identity_covering_runs_banach_iteration(self):
        p = AlphaCoveringProblem(
            u=IdentityCovering(1),
            v=AffineMap([[0.5]], [0.5], domain_center=[0.0], domain_radius=8.0),
            alpha=1.0,
            beta=0.5,
        )
        x, trace = alpha_iterate(p, np.zeros(1), tol=1e-10, max_steps=100)
        assert trace.status == STATUS_CONVERGED
        assert x[0] == pytest.approx(1.0, abs=1e-9)
        for r in step_ratios(trace):
            assert r == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_quadratic_is_not_contractive(self):
        # D = 0 means beta = 2 a tau_* = b = alpha exactly.
        q = scalar_quadratic(1.0, 2.0, 1.0)
        p = AlphaCoveringProblem.from_quadratic(q)
        assert p.beta == p.alpha
        assert not p.applicable
        with pytest.raises(NotContractive):
            alpha_iterate(p, np.zeros(1), tol=1e-8, max_steps=100)

    def test_an_exact_zero_discriminant_with_a_rounded_crossing_is_not_contractive(self):
        # D = b^2 - 4ac is exactly 0, but 2 a tau_* from the rounded tau_*
        # lands an ulp below b; at D <= 0 beta is b itself.
        q = scalar_quadratic(6.9925383670345385, 2.9979354152236226, 0.3213288323244334)
        assert q.discriminant == 0.0 and 2.0 * q.a * q.tau_star() < q.b
        p = AlphaCoveringProblem.from_quadratic(q)
        assert p.beta == p.alpha == q.b and not p.applicable
        with pytest.raises(NotContractive, match="beta = 2.9979354152236226 >= alpha"):
            alpha_iterate(p, np.zeros(1), tol=1e-8, max_steps=100)
        report = compare_methods(q, tol=1e-8, max_steps=100)
        assert report.run_for("baseline").status == "not_contractive"
        assert report.baseline_trace is None

    def test_coincidence_certificate_on_success(self):
        q = scalar_quadratic(1.0, 2.0, 0.6)
        p = AlphaCoveringProblem.from_quadratic(q)
        x, trace = alpha_iterate(p, np.zeros(1), tol=1e-9, max_steps=500)
        gap = np.linalg.norm(p.v.evaluate(x) - p.u.evaluate(x))
        assert gap <= 1e-9


class TestCompareMethods:
    def test_unit_discriminant_runs_both(self):
        # a=1, b=2, c=0.75 gives D = 1; both schemes follow the same
        # recurrence, so step counts agree within a factor of two.
        report = compare_methods(scalar_quadratic(1.0, 2.0, 0.75))
        major = report.run_for("majorant")
        base = report.run_for("baseline")
        assert major.status == STATUS_CONVERGED and base.status == STATUS_CONVERGED
        assert major.steps <= 2 * base.steps and base.steps <= 2 * major.steps
        assert abs(major.x_star[0] - base.x_star[0]) <= 1e-8

    def test_degenerate_instance_splits_the_methods(self):
        report = compare_methods(scalar_quadratic(1.0, 2.0, 1.0), tol=1e-4)
        base = report.run_for("baseline")
        assert base.status == "not_contractive"
        assert not base.applicable
        major = report.run_for("majorant")
        assert major.status in (STATUS_CONVERGED, "max_steps")
        assert major.applicable
        assert report.majorant_trace.final.deviation <= (
            report.majorant_trace.tau_star + 1e-8)

    def test_a_d_just_below_zero_without_crossing_is_refused(self):
        # D = 100 - 4 (25 + 1e-11) < 0 is within the rounding the builder
        # accepts, but psi - phi stays below the root tolerance: there is no
        # tau_*, so the problem is refused before either scheme runs.
        with pytest.raises(NegativeDiscriminant, match=r"D = b\^2 - 4ac = -4\.0"):
            compare_methods(scalar_quadratic(1.0, 10.0, 25.0 + 1e-11))

    def test_zero_offset_converges_immediately_for_both(self):
        report = compare_methods(scalar_quadratic(1.0, 2.0, 0.0))
        for method in ("majorant", "baseline"):
            run = report.run_for(method)
            assert run.status == STATUS_CONVERGED
            assert run.steps == 0
            assert run.x_star[0] == 0.0

    def test_agreement_on_transversal_scalars(self):
        for c in (0.3, 0.6, 0.9):
            report = compare_methods(scalar_quadratic(1.0, 2.0, c))
            diff = abs(report.run_for("majorant").x_star[0]
                       - report.run_for("baseline").x_star[0])
            assert diff <= 1e-8


def test_estimate_lipschitz_recovers_affine_slope():
    f = AffineMap([[0.7]], [0.1], domain_center=[0.0], domain_radius=2.0)
    est = estimate_lipschitz(f, [0.0], radius=2.0, pairs=300, seed=4)
    assert est == pytest.approx(0.7, abs=1e-9)


def test_estimate_lipschitz_underestimates_quadratic():
    q = scalar_quadratic(1.0, 2.0, 0.75)
    p = AlphaCoveringProblem.from_quadratic(q)
    sampled = estimate_lipschitz(p.v, [0.0], radius=q.tau_star(), pairs=500, seed=5)
    assert sampled <= p.beta + 1e-9  # analytic bound dominates sampling


def _count_compare_calls(q, install):
    """Run compare_methods(q, tol=1e-10); return (call counts, steps).
    install(counted) puts the counters in place, where counted(name, fn)
    wraps fn so that each of its calls counts as name. q's instance is built
    first, so that only the compare's own calls count."""
    q.instance  # built here, on first use
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    install(counted)
    report = compare_methods(q, tol=1e-10)
    for trace in (report.majorant_trace, report.baseline_trace):
        assert trace.status == STATUS_CONVERGED and trace.steps > 300
    # Both schemes stop on the same residual, so the traces have one length.
    assert report.majorant_trace.steps == report.baseline_trace.steps
    return counts, report.majorant_trace.steps


def _patch_everywhere(monkeypatch, fn, replacement):
    for module in (coincide.linalg, coincide.majorant, coincide.covering, coincide.solver,
                   coincide.problems, coincide.baseline):
        for key, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, key, replacement)


def test_each_loop_step_makes_the_same_calls(monkeypatch):
    # A 2-d problem: the loop calls the array methods. The two schemes share
    # one pass: per step one covering solve, two evaluations (Phi and Psi;
    # the solve is handed the defect and evaluates nothing) and four norms
    # (the solve's correction, the residual, the step and the deviation);
    # opening the pass makes two evaluations and one norm. A pass per scheme
    # makes twice these. The counts are exact.
    def install(counted):
        for cls, meth, name in ((LinearSurjectiveCovering, "solve_within", "solve_within"),
                                (LinearSurjectiveCovering, "evaluate", "evaluate"),
                                (QuadraticMap, "evaluate", "evaluate")):
            monkeypatch.setattr(cls, meth, counted(name, getattr(cls, meth)))
        norm = coincide.linalg.norm
        _patch_everywhere(monkeypatch, norm, counted("norm", norm))

    counts, n = _count_compare_calls(planar_quadratic(1.0, 2.0, 1.0 - 10 ** -2.8), install)
    assert counts == Counter(solve_within=n, evaluate=2 * n + 2, norm=4 * n + 1)


def test_each_float_loop_step_makes_the_same_calls(monkeypatch):
    # The 1-d problem: the one pass evaluates the map's float form once at
    # the start and once per step, steps + 1 times for both schemes (a pass
    # per scheme makes 2 (steps + 1)). Psi, the correction and the norms are
    # inline, so the pass calls no array method, norm helper or covering
    # method; the covering's float factors are read once. The counts are
    # exact.
    def install(counted):
        quadratic_form = QuadraticMap.float_form

        def counted_quadratic_form(self):
            return counted("evaluate", quadratic_form(self))

        monkeypatch.setattr(QuadraticMap, "float_form", counted_quadratic_form)
        for cls, meth in ((LinearSurjectiveCovering, "solve_within"),
                          (LinearSurjectiveCovering, "evaluate"),
                          (LinearSurjectiveCovering, "float_factors"),
                          (QuadraticMap, "evaluate")):
            monkeypatch.setattr(cls, meth, counted(f"{cls.__name__}.{meth}",
                                                   getattr(cls, meth)))
        _patch_everywhere(monkeypatch, coincide.linalg.norm,
                          counted("norm", coincide.linalg.norm))

    counts, n = _count_compare_calls(scalar_quadratic(1.0, 2.0, 1.0 - 10 ** -2.8), install)
    assert counts == Counter({"evaluate": n + 1, "LinearSurjectiveCovering.float_factors": 1})
