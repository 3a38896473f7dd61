import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coincide.covering import (
    IdentityCovering,
    LinearSurjectiveCovering,
    verify_covering_sampled,
)
from coincide.errors import BudgetExceeded, DimensionMismatch, RankDeficient
from coincide.linalg import NormTag, smallest_singular_value
from coincide.problems import build_quadratic_instance, scalar_quadratic
from coincide.solver import coincidence_solve
from conftest import planar_quadratic


def test_identity_returns_target_bitwise():
    cover = IdentityCovering(2)
    y = np.array([0.3, 0.4])
    x = cover.solve_within(np.array([0.0, 0.0]), y, budget=0.5)
    assert x is y or np.array_equal(x, y)
    assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("x_prime, y", [
    (np.zeros(2), np.array([[0.3], [0.4]])),  # would broadcast y - x' to 2 x 2
    (np.zeros((2, 1)), np.array([0.3, 0.4])),
    (np.zeros(2), 0.3),
    (np.zeros(2), np.zeros(0)),
])
def test_identity_refuses_a_start_or_target_that_is_not_a_vector(x_prime, y):
    with pytest.raises(DimensionMismatch, match="expected a nonempty 1-d vector"):
        IdentityCovering(2).solve_within(x_prime, y, budget=10.0)


@pytest.mark.parametrize("x_size, y_size", [(2, 3), (3, 2), (3, 3), (1, 1)])
def test_identity_refuses_vectors_of_another_dimension(x_size, y_size):
    with pytest.raises(DimensionMismatch, match="identity covering of dimension 2"):
        IdentityCovering(2).solve_within(np.zeros(x_size), np.ones(y_size), budget=10.0)


def test_identity_budget_enforced():
    cover = IdentityCovering(2)
    with pytest.raises(BudgetExceeded):
        cover.solve_within(np.zeros(2), np.array([0.3, 0.4]), budget=0.49)


@pytest.mark.parametrize("x_prime, y", [
    (np.zeros((2, 1)), np.array([-1.0, 0.5])),  # would broadcast v to 2 x 2
    (np.zeros(2), -1.0),
    (np.zeros(2), np.zeros(0)),
])
def test_linear_covering_refuses_a_start_or_target_that_is_not_a_vector(x_prime, y):
    cover = LinearSurjectiveCovering([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch, match="expected a nonempty 1-d vector"):
        cover.solve_within(x_prime, y, budget=10.0)


def test_inf_correction_within_a_finite_budget_is_still_budget_exceeded():
    # The budget is checked first, as when the entries were scanned.
    cover = LinearSurjectiveCovering([[1e-300]], b=1e-300)
    with pytest.raises(BudgetExceeded, match="correction inf exceeds budget"), \
            np.errstate(over="ignore"):
        cover.solve_within(np.zeros(1), np.array([1e300]), budget=1.0)


def test_scalar_linear_covering_inverts_exactly():
    # Psi(x) = -2x; y = -0.75 within the modulus increment 2 * 0.375.
    cover = LinearSurjectiveCovering([[2.0]])
    x = cover.solve_within(np.array([0.0]), np.array([-0.75]), budget=0.375)
    assert x[0] == pytest.approx(0.375, abs=1e-14)


def test_wide_covering_uses_minimal_norm_correction():
    cover = LinearSurjectiveCovering([[1.0, 1.0]])
    x = cover.solve_within(np.zeros(2), np.array([-2.0]), budget=1.5)
    assert np.allclose(x, [1.0, 1.0], atol=1e-10)
    assert np.linalg.norm(x) <= 1.5


def test_covering_rejects_rank_deficient_matrix():
    with pytest.raises(RankDeficient):
        LinearSurjectiveCovering([[1.0, 0.0], [2.0, 0.0]])


def test_covering_rejects_inflated_constant_by_default():
    B = [[2.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="sigma_min"):
        LinearSurjectiveCovering(B, b=1.5)
    # Explicit opt-out for audit experiments.
    cover = LinearSurjectiveCovering(B, b=1.5, check_constant=False)
    assert cover.b == 1.5


@pytest.mark.parametrize("b", [0.0, -1.0, float("nan")])
def test_covering_rejects_a_constant_that_is_not_positive(b):
    with pytest.raises(ValueError, match="must be positive"):
        LinearSurjectiveCovering([[2.0]], b=b, check_constant=False)


def test_covering_requires_constant_for_linf():
    with pytest.raises(ValueError, match="supplied"):
        LinearSurjectiveCovering([[2.0]],
                                 norm_x=NormTag.LINF, norm_y=NormTag.LINF)
    cover = LinearSurjectiveCovering([[2.0]], b=2.0,
                                     norm_x=NormTag.LINF, norm_y=NormTag.LINF)
    x = cover.solve_within(np.array([0.0]), np.array([-1.0]), budget=0.5)
    assert x[0] == pytest.approx(0.5, abs=1e-14)


def test_audit_identity_is_clean():
    audit = verify_covering_sampled(IdentityCovering(3), np.zeros(3), 2.0,
                                    trials=1000, seed=1)
    assert audit.clean
    assert audit.max_residual <= 1e-12
    assert audit.max_overshoot <= 1e-12


def test_audit_exact_constant_is_clean():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((3, 5))
    cover = LinearSurjectiveCovering(B)
    audit = verify_covering_sampled(cover, np.zeros(5), 2.0, trials=1000, seed=2)
    assert audit.clean, (audit.max_residual, audit.max_overshoot)


def test_audit_flags_inflated_constant():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((3, 5))
    smin = smallest_singular_value(B)
    cover = LinearSurjectiveCovering(B, b=2.0 * smin, check_constant=False)
    audit = verify_covering_sampled(cover, np.zeros(5), 2.0, trials=1000, seed=3)
    assert audit.violations >= 1
    assert audit.max_overshoot > 1e-8


def test_inflated_constant_fails_along_weakest_direction():
    # Constructed failure: a target on the inflated image ball along the
    # weakest singular direction needs a correction twice the budget.
    B = np.array([[2.0, 0.0], [0.0, 1.0]])
    cover = LinearSurjectiveCovering(B, b=2.0, check_constant=False)
    budget = 0.5
    y = np.array([0.0, -1.0])  # ||y|| = 2.0 * budget = inflated increment
    with pytest.raises(BudgetExceeded) as info:
        cover.solve_within(np.zeros(2), y, budget)
    assert info.value.overshoot == pytest.approx(0.5, abs=1e-12)


def test_correction_scales_with_covering_constant():
    rng = np.random.default_rng(12)
    B = rng.standard_normal((2, 4))
    cover = LinearSurjectiveCovering(B)
    x_prime = rng.standard_normal(4)
    for _ in range(200):
        y = cover.evaluate(x_prime) + rng.standard_normal(2)
        x = cover.solve_within(x_prime, y, budget=np.inf)
        gap = np.linalg.norm(y - cover.evaluate(x_prime))
        assert np.linalg.norm(x - x_prime) * cover.b <= gap * (1.0 + 1e-9)
        assert np.linalg.norm(cover.evaluate(x) - y) <= 1e-9 * (1.0 + np.linalg.norm(y))


def test_solutions_satisfy_equation_to_relative_tolerance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        B = rng.standard_normal((3, 6))
        cover = LinearSurjectiveCovering(B)
        x_prime = rng.standard_normal(6)
        y = rng.standard_normal(3)
        x = cover.solve_within(x_prime, y, budget=np.inf)
        assert np.linalg.norm(cover.evaluate(x) - y) <= 1e-9 * (1.0 + np.linalg.norm(y))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       tag=st.sampled_from([NormTag.L2, NormTag.LINF]),
       scale=st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e200]),
       budget=st.sampled_from([0.0, 1e-3, np.inf]), stride=st.sampled_from([1, 2, -1]))
@example(n=1, rows=1, seed=0, tag=NormTag.L2, scale=1.0, budget=np.inf, stride=1)
@example(n=12, rows=12, seed=0, tag=NormTag.L2, scale=1.0, budget=np.inf, stride=2)
def test_solve_within_has_the_same_bits_with_or_without_the_defect(n, rows, seed, tag,
                                                                   scale, budget, stride):
    # The defect a step hands over is y - Psi(x'), as the covering forms it;
    # a caller may hand it over as a strided view.
    m = min(rows, n)
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, n))
    cover = LinearSurjectiveCovering(B, b=smallest_singular_value(B), norm_x=tag, norm_y=tag)
    x_prime = scale * rng.standard_normal(n)
    y = cover.evaluate(x_prime) + scale * rng.standard_normal(m)
    defect = np.zeros(abs(stride) * m)[::stride]
    defect[:] = y - cover.evaluate(x_prime)

    def outcome(*extra):
        try:
            return cover.solve_within(x_prime, y, budget, *extra).tobytes()
        except BudgetExceeded as err:
            return str(err)

    with np.errstate(all="ignore"):
        assert outcome(defect) == outcome() == outcome(None)


def test_linear_covering_refuses_a_defect_that_is_not_a_vector():
    cover = LinearSurjectiveCovering([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch, match=r"got shape \(2, 2\)"):
        cover.solve_within(np.zeros(2), np.ones(2), 10.0, np.ones((2, 2)))


def test_a_step_handed_its_defect_evaluates_nothing_in_the_solve(monkeypatch):
    # A 2-d problem: the solve runs on the array methods.
    evaluations = []  # True for a Psi evaluation inside solve_within
    inside = []
    evaluate = LinearSurjectiveCovering.evaluate
    solve_within = LinearSurjectiveCovering.solve_within

    def counted_evaluate(self, x):
        evaluations.append(bool(inside))
        return evaluate(self, x)

    def scoped_solve_within(self, *args):
        inside.append(True)
        try:
            return solve_within(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(LinearSurjectiveCovering, "evaluate", counted_evaluate)
    monkeypatch.setattr(LinearSurjectiveCovering, "solve_within", scoped_solve_within)
    inst = build_quadratic_instance(planar_quadratic(1.0, 2.0, 0.75))
    _, trace = coincidence_solve(inst, residual_tol=1e-10)
    assert trace.status == "converged" and trace.steps > 10
    assert evaluations.count(True) == 0
    assert evaluations.count(False) == trace.steps + 1  # the residuals
    # Without a defect the solve evaluates Psi(x') itself.
    inst.cover.solve_within(np.zeros(2), np.ones(2), np.inf)
    assert evaluations[-1] is True


def test_a_float_step_handed_its_defect_evaluates_nothing_in_the_correction(monkeypatch):
    # The 1-d problem: the solve's loop computes Psi and the correction
    # inline from the covering's float factors, read once; it calls none of
    # the covering's methods, so nothing evaluates Psi inside a correction.
    calls = []
    factors = LinearSurjectiveCovering.float_factors

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("evaluate", "solve_within", "_over_budget"):
        monkeypatch.setattr(LinearSurjectiveCovering, name,
                            counted(name, getattr(LinearSurjectiveCovering, name)))
    monkeypatch.setattr(LinearSurjectiveCovering, "float_factors",
                        counted("float_factors", factors))
    inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
    _, trace = coincidence_solve(inst, residual_tol=1e-10)
    assert trace.status == "converged" and trace.steps > 10
    assert calls == ["float_factors"]


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 300), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       order=st.sampled_from(["C", "F"]), stride=st.sampled_from([1, 2, 3]))
@example(m=300, n=300, seed=0, order="F", stride=2)
@example(m=1, n=300, seed=1, order="C", stride=1)
@example(m=300, n=1, seed=2, order="F", stride=3)
def test_ndarray_dot_has_the_bits_of_matmul(m, n, seed, order, stride):
    # The covering's products use ndarray.dot for `@` on a C- or F-ordered
    # matrix and a vector of positive stride: one BLAS gemv either way.
    rng = np.random.default_rng(seed)
    A = np.asarray(rng.standard_normal((m, n)), order=order)
    v = rng.standard_normal(stride * n)[::stride]
    assert A.dot(v).tobytes() == (A @ v).tobytes()


def _laid_out(rng, shape, layout):
    """A random array of the given shape as a C-ordered array or as a view."""
    if layout == "C":
        return rng.standard_normal(shape)
    if layout == "F":
        return np.asfortranarray(rng.standard_normal(shape))
    if layout == "rows":
        return rng.standard_normal((2 * shape[0],) + shape[1:])[::2]
    if layout == "columns":
        return rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]
    if layout == "reversed":
        return rng.standard_normal(shape)[::-1]
    return np.broadcast_to(rng.standard_normal(shape[-1]), shape)  # "broadcast"


LAYOUTS = ["C", "F", "rows", "columns", "reversed", "broadcast"]


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 8), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       matrix=st.sampled_from(LAYOUTS), vector=st.sampled_from(["C", "rows", "reversed"]))
@example(rows=2, n=2, seed=0, matrix="columns", vector="C")
@example(rows=3, n=7, seed=0, matrix="reversed", vector="reversed")
def test_evaluate_has_the_bits_of_matmul_in_any_layout(rows, n, seed, matrix, vector):
    # Layouts where ndarray.dot would round otherwise keep `@`.
    rng = np.random.default_rng(seed)
    B = _laid_out(rng, (min(rows, n), n), matrix)
    if smallest_singular_value(B) <= 1e-6:
        return
    cover = LinearSurjectiveCovering(B, check_constant=False)
    x = _laid_out(rng, (n,), vector)
    assert cover.evaluate(x).tobytes() == (-(B @ x)).tobytes()
