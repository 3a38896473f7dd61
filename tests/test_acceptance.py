"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import assert_trace_invariants, build_gallery, replay_points
from coincide.baseline import AlphaCoveringProblem, alpha_iterate, compare_methods
from coincide.cli import main
from coincide.config import gallery_config, gallery_names, save_config
from coincide.covering import (
    IdentityCovering,
    LinearSurjectiveCovering,
    verify_covering_sampled,
)
from coincide.errors import NegativeDiscriminant
from coincide.linalg import smallest_singular_value
from coincide.majorant import tau_sequence
from coincide.problems import (
    build_quadratic_instance,
    random_quadratic,
    scalar_quadratic,
)
from coincide.solver import (
    STATUS_CONVERGED,
    STATUS_MAX_STEPS,
    AffineMap,
    check_jacobian,
    coincidence_solve,
    rate_estimate,
)


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def random_instance_grid(count=50):
    """Seeded instances with dims <= 10 and margins cycling {0, 0.1, 0.5}."""
    margins = (0.0, 0.1, 0.5)
    out = []
    for seed in range(count):
        dim_x = 1 + seed % 10
        dim_y = 1 + (seed // 3) % dim_x
        out.append(random_quadratic(dim_x, dim_y, margins[seed % 3], seed=seed))
    return out


def test_criterion_1_step_bound_invariants():
    with criterion("criterion 1 (step-bound invariants, 5 gallery + 50 random)"):
        start = time.monotonic()
        for name in gallery_names():
            built = build_gallery(name)
            _, trace = coincidence_solve(built.instance, max_steps=2000)
            assert_trace_invariants(built.instance, trace,
                                    step_tol=1e-8, invert_tol=1e-9)
        for q in random_instance_grid(50):
            inst = build_quadratic_instance(q)
            _, trace = coincidence_solve(inst, max_steps=400)
            assert_trace_invariants(inst, trace, step_tol=1e-8, invert_tol=1e-9)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"invariant suite took {elapsed:.1f}s"


def test_criterion_2_solution_certificates():
    with criterion("criterion 2 (solution certificates and root match)"):
        # D < 0 is refused outright.
        with pytest.raises(NegativeDiscriminant):
            build_quadratic_instance(scalar_quadratic(1.0, 2.0, 1.25))

        solved = []
        for q in [scalar_quadratic(1.0, 2.0, 0.75),
                  scalar_quadratic(0.5, 1.5, 0.6),
                  build_gallery("matrix-2d").quadratic,
                  build_gallery("random-quadratic").quadratic,
                  random_quadratic(4, 3, 0.1, seed=101),
                  random_quadratic(6, 2, 0.5, seed=102)]:
            x, trace = coincidence_solve(build_quadratic_instance(q))
            solved.append((q, x))
        # Degenerate scalar instance, driven to the 1e-8 residual target.
        q0 = scalar_quadratic(1.0, 2.0, 1.0)
        x0, trace0 = coincidence_solve(build_quadratic_instance(q0),
                                       residual_tol=1e-8, max_steps=100_000)
        assert trace0.status == STATUS_CONVERGED
        solved.append((q0, x0))

        for q, x in solved:
            assert q.equation_residual(x) <= 1e-8
            d = max(q.discriminant, 0.0)
            assert np.linalg.norm(x) <= (q.b - math.sqrt(d)) / (2 * q.a) + 1e-8

        # Scalar transversal roots match the closed form to 1e-8.
        for q, x in solved:
            if q.dim_x == 1 and q.discriminant > 1e-6:
                root = (-q.b + math.sqrt(q.discriminant)) / (2 * q.a)
                assert abs(x[0] - root) <= 1e-8
        # Double root: proximity follows the square-root law |x - root| =
        # sqrt(residual); 1e-8 proximity would need residual 1e-16, below
        # what float64 tau updates can resolve.
        assert abs(x0[0] + 1.0) <= 1.5 * math.sqrt(q0.equation_residual(x0)) + 1e-8


def test_criterion_3_rate_dichotomy():
    with criterion("criterion 3 (geometric vs sublinear rate dichotomy)"):
        inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
        x, trace = coincidence_solve(inst, residual_tol=1e-10)
        assert trace.status == STATUS_CONVERGED
        assert trace.steps <= 60
        regime, ratio = rate_estimate(trace)
        assert regime == "geometric"
        assert abs(ratio - 0.5) <= 0.05

        pair = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 1.0)).majorants
        seq = tau_sequence(pair, max_steps=1000, tail_tol=0.0)
        oracle = [0.0]
        for _ in range(1000):
            oracle.append((oracle[-1] ** 2 + 1.0) / 2.0)
        for j in range(1001):
            assert abs(seq.taus[j] - oracle[j]) <= 1e-12
        for j in range(100, 1001):
            assert 1.5 / j <= 1.0 - seq.taus[j] <= 2.5 / j


def test_criterion_4_baseline_rate_bound_and_gap():
    with criterion("criterion 4 (baseline rate bound; degenerate case dichotomy)"):
        applicable = [
            AlphaCoveringProblem.from_quadratic(scalar_quadratic(1.0, 2.0, 0.75)),
            AlphaCoveringProblem.from_quadratic(scalar_quadratic(1.0, 2.0, 0.6)),
            AlphaCoveringProblem.from_quadratic(random_quadratic(3, 2, 0.5, seed=7)),
            AlphaCoveringProblem(
                u=IdentityCovering(1),
                v=AffineMap([[0.5]], [0.5], domain_center=[0.0], domain_radius=8.0),
                alpha=1.0, beta=0.5),
        ]
        for p in applicable:
            dim = p.v.domain_center.size
            x, trace = alpha_iterate(p, np.zeros(dim), tol=1e-10, max_steps=500)
            assert trace.status == STATUS_CONVERGED
            steps = [r.step_norm for r in trace.records[1:]]
            for a, b in zip(steps, steps[1:]):
                if a > 0.0:
                    assert b / a <= p.beta / p.alpha + 1e-6

        # Degenerate instance: baseline refuses, majorant still certifies.
        report = compare_methods(scalar_quadratic(1.0, 2.0, 1.0), tol=1e-4)
        assert report.run_for("baseline").status == "not_contractive"
        major = report.run_for("majorant")
        assert major.status in (STATUS_CONVERGED, STATUS_MAX_STEPS)
        trace = report.majorant_trace
        assert trace.final.deviation <= (trace.tau_star - trace.tau0) + 1e-8


def test_criterion_5_covering_audits():
    with criterion("criterion 5 (covering audits, exact and inflated constants)"):
        audit = verify_covering_sampled(IdentityCovering(4), np.zeros(4), 2.0,
                                        trials=1000, seed=50)
        assert audit.violations == 0

        rng = np.random.default_rng(51)
        for k in range(20):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(m, 11))
            B = rng.standard_normal((m, n))
            if smallest_singular_value(B) < 1e-3:
                B += np.eye(m, n)
            cover = LinearSurjectiveCovering(B)
            audit = verify_covering_sampled(cover, np.zeros(n), 2.0,
                                            trials=1000, seed=100 + k)
            assert audit.violations == 0, (k, audit)

        B = rng.standard_normal((3, 5))
        inflated = LinearSurjectiveCovering(
            B, b=2.0 * smallest_singular_value(B), check_constant=False)
        audit = verify_covering_sampled(inflated, np.zeros(5), 2.0,
                                        trials=1000, seed=52)
        assert audit.violations >= 1


def test_criterion_6_fixed_point_reduction_is_exact():
    with criterion("criterion 6 (fixed-point reduction bitwise equal to iteration)"):
        built = build_gallery("kantorovich-affine")
        x_star, trace = coincidence_solve(built.instance)
        f = built.instance.phi
        direct = [built.instance.x0.copy()]
        for _ in range(trace.steps):
            direct.append(f.evaluate(direct[-1]))
        points = replay_points(built.instance, trace)
        assert len(direct) == len(points) == len(trace.rows)
        for x, ref in zip(points, direct):
            assert x.tobytes() == ref.tobytes()
        assert x_star.tobytes() == direct[-1].tobytes()


def test_criterion_7_jacobians_match_finite_differences():
    with criterion("criterion 7 (analytic Jacobians vs central differences)"):
        for name in gallery_names():
            built = build_gallery(name)
            worst = check_jacobian(built.instance.phi, samples=100, seed=60)
            assert worst <= 1e-5, (name, worst)


def test_criterion_8_trace_determinism(tmp_path):
    with criterion("criterion 8 (bit-identical traces across reruns)"):
        for name in gallery_names():
            cfg_path = tmp_path / f"{name}.json"
            save_config(gallery_config(name), cfg_path)
            blobs = []
            for tag in ("first", "second"):
                out = tmp_path / f"{name}-{tag}"
                code = main(["solve", "--config", str(cfg_path), "--out", str(out),
                             "--max-steps", "2000"])
                assert code in (0, 2)
                blobs.append((out / "trace.csv").read_bytes())
            assert blobs[0] == blobs[1], name
