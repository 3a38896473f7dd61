import numpy as np
import pytest

from coincide.covering import (
    IdentityCovering,
    LinearSurjectiveCovering,
    verify_covering_sampled,
)
from coincide.errors import BudgetExceeded, DimensionMismatch, RankDeficient
from coincide.linalg import NormTag, smallest_singular_value


def test_identity_returns_target_bitwise():
    cover = IdentityCovering(2)
    y = np.array([0.3, 0.4])
    x = cover.solve_within(np.array([0.0, 0.0]), y, budget=0.5)
    assert x is y or np.array_equal(x, y)
    assert x.tobytes() == y.tobytes()


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
