import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coincide.baseline import AlphaCoveringProblem
from coincide.config import build_problem, gallery_config, gallery_names
from coincide.errors import DimensionMismatch, NegativeDiscriminant
from coincide.linalg import finite_diff_jacobian, norm
from coincide.majorant import DEFAULT_HORIZON, ScalarFn, smallest_crossing
from coincide.problems import (
    BilinearMap,
    PolynomialMap,
    QuadraticMap,
    QuadraticProblem,
    apply_bilinear,
    build_kantorovich_instance,
    build_polynomial_instance,
    build_quadratic_instance,
    random_quadratic,
    scalar_quadratic,
    spectral_overestimate,
)
from coincide.solver import (
    STATUS_CONVERGED,
    AffineMap,
    CallableMap,
    coincidence_solve,
    rate_estimate,
)


def expand_bilinear_reference(T, x1, x2):
    """Loop-free-of-einsum oracle: explicit polynomial expansion."""
    dy, dx, _ = T.shape
    out = []
    for k in range(dy):
        acc = 0.0
        for i in range(dx):
            for j in range(dx):
                acc += T[k][i][j] * x1[i] * x2[j]
        out.append(acc)
    return np.array(out)


class TestApplyBilinear:
    def test_scalar_product(self):
        A = BilinearMap(coeffs=np.array([[[1.0]]]), bound=1.0)
        assert apply_bilinear(A, [2.0], [3.0])[0] == 6.0

    def test_zero_argument_gives_zero(self):
        rng = np.random.default_rng(1)
        T = rng.standard_normal((2, 3, 3))
        A = BilinearMap(coeffs=0.5 * (T + T.transpose(0, 2, 1)), bound=10.0)
        assert np.all(apply_bilinear(A, np.zeros(3), rng.standard_normal(3)) == 0.0)

    def test_matches_expansion_oracle(self):
        rng = np.random.default_rng(2)
        T = rng.standard_normal((2, 2, 2))
        T = 0.5 * (T + T.transpose(0, 2, 1))
        A = BilinearMap(coeffs=T, bound=10.0)
        for _ in range(20):
            x = rng.standard_normal(2)
            expected = expand_bilinear_reference(T, x, x)
            assert np.max(np.abs(apply_bilinear(A, x, x) - expected)) <= 1e-12

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(3)
        T = rng.standard_normal((3, 4, 4))
        A = BilinearMap(coeffs=0.5 * (T + T.transpose(0, 2, 1)), bound=20.0)
        for _ in range(20):
            x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
            assert np.array_equal(apply_bilinear(A, x1, x2), apply_bilinear(A, x2, x1))

    def test_dimension_mismatch(self):
        A = BilinearMap(coeffs=np.zeros((1, 2, 2)), bound=1.0)
        with pytest.raises(DimensionMismatch):
            apply_bilinear(A, [1.0, 2.0, 3.0], [1.0, 2.0])

    def test_asymmetric_tensor_rejected(self):
        T = np.zeros((1, 2, 2))
        T[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            BilinearMap(coeffs=T, bound=1.0)

    def test_sampled_ratio_stays_under_certified_bound(self):
        rng = np.random.default_rng(4)
        T = rng.standard_normal((3, 5, 5))
        T = 0.5 * (T + T.transpose(0, 2, 1))
        T /= spectral_overestimate(T)
        A = BilinearMap(coeffs=T, bound=spectral_overestimate(T))
        sample = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            x1, x2 = sample.standard_normal((2, A.dim_x))
            ratio = norm(apply_bilinear(A, x1, x2)) / (norm(x1) * norm(x2))
            worst = max(worst, ratio)
        assert 0.0 < worst <= A.bound * (1.0 + 1e-9)


def per_slice_overestimate(coeffs) -> float:
    """One SVD per slice, summed left to right: the overestimate as it was."""
    return float(sum(np.linalg.svd(coeffs[k], compute_uv=False)[0]
                     for k in range(coeffs.shape[0])))


@settings(max_examples=200, deadline=None)
@given(dim_y=st.integers(1, 12), dim_x=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e5, 1e150]))
@example(dim_y=12, dim_x=12, seed=0, scale=1.0)
@example(dim_y=1, dim_x=1, seed=1, scale=1.0)
def test_stacked_overestimate_has_the_per_slice_bits(dim_y, dim_x, seed, scale):
    T = np.random.default_rng(seed).standard_normal((dim_y, dim_x, dim_x)) * scale
    T = 0.5 * (T + T.transpose(0, 2, 1))
    got = spectral_overestimate(T)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(per_slice_overestimate(T)).tobytes()


def test_overestimate_makes_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    T = np.random.default_rng(7).standard_normal((9, 12, 12))
    spectral_overestimate(0.5 * (T + T.transpose(0, 2, 1)))
    assert calls == [(9, 12, 12)]


def test_quadratic_evaluate_makes_one_einsum(monkeypatch):
    # Phi(x) = A(x, x) + C contracts u = x + x once; the d = x - x half of
    # the polarization identity is +0 and is not computed.
    calls = [0]
    einsum = np.einsum

    def counted(*args, **kwargs):
        calls[0] += 1
        return einsum(*args, **kwargs)

    T = np.random.default_rng(6).standard_normal((2, 3, 3))
    phi = QuadraticMap(BilinearMap(coeffs=0.5 * (T + T.transpose(0, 2, 1)), bound=10.0),
                       [0.5, -0.25])
    monkeypatch.setattr(np, "einsum", counted)
    phi.evaluate([0.1, -0.2, 0.3])
    assert calls[0] == 1


# The gallery's quadratics and seeded random ones, at and near D = 0 too.
QUADRATICS = {
    **{name: lambda name=name: build_problem(gallery_config(name)).quadratic
       for name in gallery_names() if gallery_config(name).kind == "quadratic"},
    **{f"random-{dx}x{dy}-margin-{margin}-seed-{seed}":
       lambda dx=dx, dy=dy, margin=margin, seed=seed: random_quadratic(dx, dy, margin, seed)
       for seed in (1, 7919) for dx, dy in ((1, 1), (3, 2)) for margin in (0.0, 1e-6, 0.5)},
}


class TestBuildQuadraticInstance:
    def test_transversal_crossing_and_solution(self):
        q = scalar_quadratic(1.0, 2.0, 0.75)
        assert q.tau_star() == pytest.approx(0.5, abs=1e-14)
        x, trace = coincidence_solve(build_quadratic_instance(q))
        assert x[0] == pytest.approx(-0.5, abs=1e-9)

    def test_tangential_crossing_and_slow_solution(self):
        q = scalar_quadratic(1.0, 2.0, 1.0)
        assert q.tau_star() == pytest.approx(1.0, abs=1e-14)
        x, trace = coincidence_solve(build_quadratic_instance(q),
                                     residual_tol=1e-6, max_steps=10_000)
        assert trace.status == STATUS_CONVERGED
        assert x[0] == pytest.approx(-1.0, abs=2e-3)
        assert rate_estimate(trace)[0] == "sublinear"

    def test_negative_discriminant_refused(self):
        # One check, with one message, whether the instance or tau_* asks.
        q = scalar_quadratic(1.0, 2.0, 1.25)
        message = r"^D = b\^2 - 4ac = -1\.0 < 0: the quadratic equation has no certified"
        with pytest.raises(NegativeDiscriminant, match=message):
            build_quadratic_instance(q)
        with pytest.raises(NegativeDiscriminant, match=message):
            q.tau_star()

    def test_a_d_just_below_zero_is_rounding_only_where_the_pair_crosses(self):
        # Both D are within the builder's rounding tolerance. psi - phi peaks
        # at -1e-14 for the first, within the root tolerance of its vertex,
        # and at -1e-11 for the second, which has no crossing.
        touching = scalar_quadratic(1.0, 2.0, 1.0 + 1e-14)
        assert touching.discriminant < 0.0
        assert touching.tau_star() == pytest.approx(1.0, abs=1e-6)
        apart = scalar_quadratic(1.0, 10.0, 25.0 + 1e-11)
        message = r"^D = b\^2 - 4ac = -4\.0\d+e-11 < 0: the quadratic equation has no"
        with pytest.raises(NegativeDiscriminant, match=message):
            build_quadratic_instance(apart)

    @pytest.mark.parametrize("name", QUADRATICS)
    def test_tau_star_has_one_owner(self, name):
        # The solve, the baseline's beta and tau_star() read one float.
        q = QUADRATICS[name]()
        tau_star = q.tau_star()
        assert tau_star.hex() == smallest_crossing(q.instance.majorants).hex()
        assert AlphaCoveringProblem.from_quadratic(q).beta == 2.0 * q.a * tau_star
        _, trace = coincidence_solve(q.instance, max_steps=3)
        assert trace.tau_star.hex() == tau_star.hex()

    def test_instances_share_the_problems_covering(self):
        q = random_quadratic(3, 2, 0.5, seed=8)
        first, second = build_quadratic_instance(q), build_quadratic_instance(q)
        assert first.cover is second.cover is q.cover
        assert q.cover.b == q.b

    def test_default_b_is_the_coverings_sigma_min(self):
        B = np.random.default_rng(5).standard_normal((2, 3))
        q = QuadraticProblem(bilinear=BilinearMap(coeffs=np.ones((2, 3, 3))),
                             linear=B, offset=np.zeros(2))
        assert q.b.hex() == q.cover.sigma_min.hex()

    def test_jacobian_identity_on_random_points(self):
        q = random_quadratic(5, 3, 0.4, seed=31)
        phi = QuadraticMap(q.bilinear, q.offset)
        rng = np.random.default_rng(32)
        for _ in range(10):
            x = rng.standard_normal(5)
            h = rng.standard_normal(5)
            lhs = phi.jacobian(x) @ h
            rhs = 2.0 * apply_bilinear(q.bilinear, x, h)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            J_fd = finite_diff_jacobian(phi.evaluate, x, h=1e-6)
            assert np.max(np.abs(phi.jacobian(x) - J_fd)) <= 1e-6


class TestKantorovichReduction:
    def test_affine_contraction(self):
        f = AffineMap([[0.5]], [0.5], domain_center=[0.0], domain_radius=8.0)
        inst = build_kantorovich_instance(f, ScalarFn.linear(0.5), [0.0])
        x, trace = coincidence_solve(inst)
        assert x[0] == pytest.approx(1.0, abs=1e-9)
        assert trace.tau_star == pytest.approx(1.0, abs=1e-9)

    def test_constant_map_converges_in_one_step(self):
        f = AffineMap([[0.0]], [0.7], domain_center=[0.0], domain_radius=5.0)
        inst = build_kantorovich_instance(f, ScalarFn.linear(1e-9), [0.0])
        x, trace = coincidence_solve(inst)
        assert trace.status == STATUS_CONVERGED
        assert trace.steps == 1
        assert x[0] == 0.7
        assert trace.tau_star == pytest.approx(0.7, abs=1e-8)

    def test_damped_sine_converges_to_origin(self):
        # Oracle: bisect 0.9 sin(x) - x = 0 on [-0.4, 0.6]; the fixed point is 0.
        def g(x):
            return 0.9 * math.sin(x) - x

        lo, hi = -0.4, 0.6
        assert g(lo) > 0.0 > g(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        oracle_root = 0.5 * (lo + hi)
        assert abs(oracle_root) <= 1e-12

        f = CallableMap(
            f=lambda x: np.array([0.9 * math.sin(x[0])]),
            jac=lambda x: np.array([[0.9 * math.cos(x[0])]]),
            domain_center=[0.5], domain_radius=10.0)
        inst = build_kantorovich_instance(f, ScalarFn.linear(0.9), [0.5])
        x, trace = coincidence_solve(inst, residual_tol=1e-12)
        assert trace.status == STATUS_CONVERGED
        assert x[0] == pytest.approx(oracle_root, abs=1e-10)

    def test_majorant_offset_matches_initial_defect(self):
        f = AffineMap([[0.25]], [0.3], domain_center=[0.2], domain_radius=6.0)
        x0 = np.array([0.2])
        inst = build_kantorovich_instance(f, ScalarFn.linear(0.25), x0)
        gap = float(np.abs(f.evaluate(x0) - x0)[0])
        assert inst.majorants.gap_at_start() == pytest.approx(gap, abs=1e-15)

    def test_map_into_another_space_is_refused(self):
        # f: R^2 -> R^1 has no fixed points to reduce to.
        f = CallableMap(f=lambda x: np.array([0.5 * x[0] + 0.1 * x[1]]),
                        domain_center=[0.0, 0.0])
        with pytest.raises(DimensionMismatch, match=r"f: X -> X.*\(2,\).*\(1,\)"):
            build_kantorovich_instance(f, ScalarFn.linear(0.6), [0.0, 0.0])

    @pytest.mark.parametrize("W,d,center", [
        ([[0.5, 0.1], [0.0, 0.5]], [0.5], [0.0, 0.0]),   # shift too short
        ([0.5, 0.1], [0.5, 0.5], [0.0, 0.0]),            # 1-d W is one row
        ([[0.5, 0.1]], [0.5], [0.0]),                    # center too short
    ])
    def test_affine_map_refuses_mismatched_parts(self, W, d, center):
        with pytest.raises(DimensionMismatch, match="affine map with W of shape"):
            AffineMap(W, d, domain_center=center)

    def test_window_is_the_domain_radius_or_the_default_horizon(self):
        f = AffineMap([[0.5]], [0.5], domain_center=[0.0], domain_radius=8.0)
        pair = build_kantorovich_instance(f, ScalarFn.linear(0.5), [0.0]).majorants
        assert (pair.tau0, pair.tau_end) == (0.0, 8.0)
        f.domain_radius = math.inf
        pair = build_kantorovich_instance(f, ScalarFn.linear(0.5), [0.0]).majorants
        assert (pair.tau0, pair.tau_end) == (0.0, DEFAULT_HORIZON)
        for radius in (0.0, -1.0, -math.inf, math.nan):
            f.domain_radius = radius
            with pytest.raises(ValueError, match="horizon must be finite and positive"):
                build_kantorovich_instance(f, ScalarFn.linear(0.5), [0.0])


class TestPolynomialInstance:
    CUBIC = [0.3, 0.0, 0.0, 1.0]

    def test_cubic_converges_with_its_h2_proven(self):
        inst = build_polynomial_instance(self.CUBIC, self.CUBIC, 2.0, 1.6)
        assert inst.h2_proven
        x, trace = coincidence_solve(inst, h2_check="strict")
        assert trace.status == STATUS_CONVERGED
        assert abs(x[0] ** 3 + 0.3 + 2.0 * x[0]) <= 1e-10

    def test_off_the_origin_nothing_is_proven(self):
        for start in ({"x0": 0.25}, {"tau0": -0.0625}):
            assert not build_polynomial_instance(self.CUBIC, self.CUBIC, 2.0, 1.6,
                                                 **start).h2_proven

    @pytest.mark.parametrize("x", [[0.5, 0.25], [[0.5]], 0.5])
    def test_map_refuses_a_point_that_is_not_one_entry(self, x):
        phi = PolynomialMap(ScalarFn.polynomial(self.CUBIC), 0.0, 1.6)
        for method in (phi.evaluate, phi.jacobian):
            with pytest.raises(DimensionMismatch):
                method(x)

    def test_invalid_pair_raises_value_error(self):
        with pytest.raises(ValueError, match="phi is not strictly increasing"):
            build_polynomial_instance(self.CUBIC, [0.3, -1.0], 2.0, 1.6)


@pytest.mark.parametrize("build", [
    lambda: build_quadratic_instance(random_quadratic(3, 2, 0.5, seed=12345)),
    lambda: build_kantorovich_instance(
        AffineMap([[0.5]], [0.5], domain_center=[0.0], domain_radius=8.0),
        ScalarFn.linear(0.5), [0.0]),
    lambda: build_polynomial_instance([0.3, 0.0, 0.0, 1.0], [0.3, 0.0, 0.0, 1.0], 2.0, 1.6),
], ids=["quadratic", "kantorovich", "polynomial"])
def test_psi_is_the_coverings_modulus(build):
    inst = build()
    assert inst.majorants.psi is inst.cover.psi


class TestRandomQuadratic:
    def test_margin_sets_discriminant(self):
        q = random_quadratic(1, 1, 0.25, seed=7)
        assert q.dim_x == 1 and q.dim_y == 1
        assert q.discriminant == pytest.approx(0.25 * q.b ** 2, abs=1e-12 * q.b ** 2)

    def test_zero_margin_scalar_solves_sublinearly(self):
        # For dim 1 the certified bound constant is exact, so margin 0 is a
        # genuinely degenerate instance and the iterate decays like the
        # scalar recurrence.
        q = random_quadratic(1, 1, 0.0, seed=1)
        assert abs(q.discriminant) <= 1e-12 * q.b ** 2
        inst = build_quadratic_instance(q)
        x, trace = coincidence_solve(inst, residual_tol=0.0, max_steps=1500)
        regime, value = rate_estimate(trace)
        assert regime == "sublinear"

    def test_zero_margin_vector_keeps_certificates(self):
        # The certified bound overestimates the true bilinear norm in higher
        # dimensions, so the iterate may beat the majorant's sublinear rate;
        # the certificates must hold regardless.
        q = random_quadratic(3, 2, 0.0, seed=1)
        assert abs(q.discriminant) <= 1e-12 * q.b ** 2
        x, trace = coincidence_solve(build_quadratic_instance(q), max_steps=1500)
        assert q.equation_residual(x) <= 1e-8
        assert np.linalg.norm(x) <= q.tau_star() + 1e-8

    def test_huge_margin_clamps_offset_to_zero(self):
        q = random_quadratic(2, 2, 1e9, seed=0)
        assert q.c == 0.0
        x, trace = coincidence_solve(build_quadratic_instance(q))
        assert trace.status == STATUS_CONVERGED
        assert trace.steps <= 5
        assert q.equation_residual(x) <= 1e-10

    def test_determinism_per_seed(self):
        q1 = random_quadratic(4, 3, 0.3, seed=99)
        q2 = random_quadratic(4, 3, 0.3, seed=99)
        assert np.array_equal(q1.bilinear.coeffs, q2.bilinear.coeffs)
        assert np.array_equal(q1.linear, q2.linear)
        assert np.array_equal(q1.offset, q2.offset)
        q3 = random_quadratic(4, 3, 0.3, seed=100)
        assert not np.array_equal(q1.linear, q3.linear)

    def test_solution_certificates(self):
        for seed in range(6):
            q = random_quadratic(3 + seed % 3, 2 + seed % 2, (0.1, 0.5)[seed % 2],
                                 seed=seed)
            x, trace = coincidence_solve(build_quadratic_instance(q))
            assert q.equation_residual(x) <= 1e-8
            assert np.linalg.norm(x) <= q.tau_star() + 1e-8

    def test_scalar_solutions_match_quadratic_formula(self):
        for a, b, c in [(1.0, 2.0, 0.75), (0.5, 1.5, 0.6), (2.0, 3.0, 0.9)]:
            q = scalar_quadratic(a, b, c)
            x, trace = coincidence_solve(build_quadratic_instance(q))
            small_root = (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)
            assert x[0] == pytest.approx(small_root, abs=1e-8)
