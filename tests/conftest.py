"""Shared helpers: gallery construction and trace-invariant assertions."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from coincide.config import build_problem, gallery_config, gallery_names
from coincide.linalg import norm
from coincide.majorant import ScalarFn
from coincide.problems import BilinearMap, QuadraticProblem
from coincide.solver import IterateTrace, ProblemInstance


def build_gallery(name: str):
    return build_problem(gallery_config(name))


def planar_quadratic(a: float, b: float, c: float) -> QuadraticProblem:
    """scalar_quadratic(a, b, c) on the first axis of R^2, the second held at 0.

    Its iterates are those of the scalar problem with a 0 appended, and its
    solves run on the array kernels: a 2-d twin of a 1-d float-kernel solve.
    """
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 0] = a
    return QuadraticProblem(bilinear=BilinearMap(coeffs=coeffs, bound=a),
                            linear=b * np.eye(2), offset=np.array([c, 0.0]), b=b, c=c)


@pytest.fixture(scope="session")
def gallery():
    return {name: build_gallery(name) for name in gallery_names()}


@pytest.fixture
def scalar_ops(monkeypatch) -> Counter:
    """Counts the evaluations of psi and phi: "call" for each ScalarFn.__call__
    (one value) and "on_grid" for each ScalarFn.on_grid (one grid, whose
    values a plain callable computes by calls)."""
    ops = Counter()
    call, on_grid = ScalarFn.__call__, ScalarFn.on_grid

    def counted_call(self, tau):
        ops["call"] += 1
        return call(self, tau)

    def counted_on_grid(self, ts):
        ops["on_grid"] += 1
        return on_grid(self, ts)

    monkeypatch.setattr(ScalarFn, "__call__", counted_call)
    monkeypatch.setattr(ScalarFn, "on_grid", counted_on_grid)
    return ops


def assert_trace_invariants(inst: ProblemInstance, trace: IterateTrace,
                            step_tol: float = 1e-8, invert_tol: float = 1e-9):
    """Check the per-step certificate bounds on a recorded trace.

    deviation bound:  ||x_j - x_0||     <= tau_j - tau_0 + step_tol
    step bound:       ||x_{j+1} - x_j|| <= tau_{j+1} - tau_j + step_tol
    inversion bound:  ||Psi(x_{j+1}) - Phi(x_j)|| <= invert_tol * (1 + ||Phi(x_j)||)
    majorization:     residual_{j+1}    <= phi(tau_{j+1}) - phi(tau_j) + step_tol
    """
    norm_x, norm_y = inst.cover.norm_x, inst.cover.norm_y
    phi_fn = inst.majorants.phi
    recs = trace.records
    assert recs[0].step_norm == 0.0 and recs[0].deviation == 0.0
    for prev, cur in zip(recs, recs[1:]):
        assert cur.tau > prev.tau
        assert cur.deviation <= (cur.tau - trace.tau0) + step_tol, (
            f"deviation bound broken at j={cur.j}")
        assert cur.step_norm <= (cur.tau - prev.tau) + step_tol, (
            f"step bound broken at j={cur.j}")
        assert np.allclose(cur.step_norm, norm(cur.x - prev.x, norm_x), atol=1e-14)
        phi_prev = inst.phi.evaluate(prev.x)
        invert_gap = norm(inst.cover.evaluate(cur.x) - phi_prev, norm_y)
        assert invert_gap <= invert_tol * (1.0 + norm(phi_prev, norm_y)), (
            f"inversion residual {invert_gap} too large at j={cur.j}")
        assert cur.residual <= (phi_fn(cur.tau) - phi_fn(prev.tau)) + step_tol, (
            f"residual majorization broken at j={cur.j}")
    final = recs[-1]
    assert final.deviation <= (trace.tau_star - trace.tau0) + step_tol
