"""Shared helpers: gallery construction and trace-invariant assertions."""

from __future__ import annotations

import contextlib
import struct
from collections import Counter
from types import SimpleNamespace

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


@contextlib.contextmanager
def array_calls(phi, cover):
    """Counts the calls of phi.evaluate and cover.solve_within made in the
    block, by name, in the Counter it yields. A solve on the float loop makes
    none; one on the array methods calls solve_within once a step."""
    calls = Counter()
    # Each method's instance attribute before the block, if it had one.
    saved = [(obj, name, vars(obj).get(name))
             for obj, name in ((phi, "evaluate"), (cover, "solve_within"))]

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for obj, name, _ in saved:
        setattr(obj, name, counted(name, getattr(obj, name)))
    try:
        yield calls
    finally:
        for obj, name, own in saved:
            if own is None:
                delattr(obj, name)
            else:
                setattr(obj, name, own)


def baseline_start(p, x0) -> SimpleNamespace:
    """The map, covering and start of an `alpha_iterate` run of p from x0,
    as `replay_points` reads an instance."""
    return SimpleNamespace(phi=p.v, cover=p.u, x0=x0)


def replay_points(inst, trace: IterateTrace) -> list:
    """The iterates x_0, ..., x_n of trace, made again from inst.x0 on the
    array methods: Phi(x_j), then the covering's correction within the
    budget tau_{j+1} - tau_j, then the norms. inst needs only phi, cover and
    x0. Each row made again must equal the trace's row bit for bit; the
    float loop keeps the array methods' bits, so this holds on both paths."""
    norm_x, norm_y = inst.cover.norm_x, inst.cover.norm_y
    x0 = np.array(inst.x0, dtype=float)
    points, phi_x = [x0], inst.phi.evaluate(x0)
    replayed = [(0, trace.rows[0][1], 0.0, 0.0, norm(phi_x - inst.cover.evaluate(x0), norm_y))]
    for j, (prev, row) in enumerate(zip(trace.rows, trace.rows[1:]), 1):
        x = inst.cover.solve_within(points[-1], phi_x, row[1] - prev[1])
        phi_x = inst.phi.evaluate(x)
        replayed.append((j, row[1], norm(x - x0, norm_x), norm(x - points[-1], norm_x),
                         norm(phi_x - inst.cover.evaluate(x), norm_y)))
        points.append(np.array(x, dtype=float))
    assert [tuple(map(_bits, r)) for r in replayed] == [tuple(map(_bits, r))
                                                        for r in trace.rows]
    return points


def _bits(v):
    """A row entry as its bytes, so that -0.0 and 0.0 and NaNs differ."""
    return struct.pack("<d", v) if isinstance(v, float) else v


def assert_trace_invariants(inst: ProblemInstance, trace: IterateTrace,
                            step_tol: float = 1e-8, invert_tol: float = 1e-9):
    """Check the per-step certificate bounds on a recorded trace, on the
    iterates `replay_points` makes again.

    deviation bound:  ||x_j - x_0||     <= tau_j - tau_0 + step_tol
    step bound:       ||x_{j+1} - x_j|| <= tau_{j+1} - tau_j + step_tol
    inversion bound:  ||Psi(x_{j+1}) - Phi(x_j)|| <= invert_tol * (1 + ||Phi(x_j)||)
    majorization:     residual_{j+1}    <= phi(tau_{j+1}) - phi(tau_j) + step_tol
    """
    norm_x, norm_y = inst.cover.norm_x, inst.cover.norm_y
    phi_fn = inst.majorants.phi
    points = replay_points(inst, trace)
    recs = trace.records
    assert recs[0].step_norm == 0.0 and recs[0].deviation == 0.0
    for prev, cur, x_prev, x in zip(recs, recs[1:], points, points[1:]):
        assert cur.tau > prev.tau
        assert norm(x - points[0], norm_x) <= (cur.tau - trace.tau0) + step_tol, (
            f"deviation bound broken at j={cur.j}")
        assert norm(x - x_prev, norm_x) <= (cur.tau - prev.tau) + step_tol, (
            f"step bound broken at j={cur.j}")
        phi_prev = inst.phi.evaluate(x_prev)
        invert_gap = norm(inst.cover.evaluate(x) - phi_prev, norm_y)
        assert invert_gap <= invert_tol * (1.0 + norm(phi_prev, norm_y)), (
            f"inversion residual {invert_gap} too large at j={cur.j}")
        residual = norm(inst.phi.evaluate(x) - inst.cover.evaluate(x), norm_y)
        assert residual <= (phi_fn(cur.tau) - phi_fn(prev.tau)) + step_tol, (
            f"residual majorization broken at j={cur.j}")
    final = recs[-1]
    assert final.deviation <= (trace.tau_star - trace.tau0) + step_tol
