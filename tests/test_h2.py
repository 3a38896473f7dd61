"""H2, the derivative bound ||Phi'(x)|| <= phi'(tau): proven or sampled.

Certified quadratics, affine fixed-point maps and 1-d polynomials started at
0 carry a proof and are never sampled; every other instance is sampled in
one stacked pass, which must give the report the per-sample reference loop
gives, bit for bit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from h2_reference import reference_operator_norm, reference_validate_h2
from coincide import problems, solver
from coincide.config import ConfigError, build_problem, config_from_dict, gallery_config
from coincide.covering import LinearSurjectiveCovering
from coincide.linalg import NormTag, operator_norm
from coincide.majorant import MajorantPair, ScalarFn
from coincide.problems import (
    BilinearMap,
    PolynomialMap,
    QuadraticMap,
    QuadraticProblem,
    build_kantorovich_instance,
    build_quadratic_instance,
    random_quadratic,
    spectral_overestimate,
)
from coincide.solver import (
    H2_SAMPLES,
    STATUS_HYPOTHESIS,
    AffineMap,
    CallableMap,
    ProblemInstance,
    coincidence_solve,
    validate_h2_derivative,
)

L2, LINF = NormTag.L2, NormTag.LINF
NORM_PAIRS = [(L2, L2), (LINF, LINF), (L2, LINF), (LINF, L2)]
MATRIX_2D = [[[0.3, 0.1], [0.1, 0.2]], [[0.1, 0.05], [0.05, 0.25]]]


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def same_report(got, want) -> bool:
    return ((got.samples, got.violations) == (want.samples, want.violations)
            and bits(got.max_excess) == bits(want.max_excess))


# ---------------------------------------------------------------------------
# Stacked operator norms


@st.composite
def matrix_stacks(draw):
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    scale = draw(st.sampled_from([1e-9, 1.0, 1e7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal(shape) * scale


@settings(max_examples=100, deadline=None)
@given(matrix_stacks(), st.sampled_from(NORM_PAIRS))
def test_stacked_operator_norm_has_the_bits_of_each_matrix(stack, pair):
    got = operator_norm(stack, *pair)
    assert got.shape == stack.shape[:1]
    for M, value in zip(stack, got):
        single = operator_norm(M, *pair)
        assert isinstance(single, float)
        assert bits(value) == bits(single) == bits(reference_operator_norm(M, *pair))


@pytest.mark.parametrize("pair", NORM_PAIRS, ids=lambda p: f"{p[0].value}-{p[1].value}")
def test_operator_norm_keeps_leading_stack_axes(pair):
    stack = np.random.default_rng(3).standard_normal((2, 3, 4, 5))
    got = operator_norm(stack, *pair)
    assert got.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert bits(got[idx]) == bits(reference_operator_norm(stack[idx], *pair))


@st.composite
def normal_range_matrices(draw):
    """Entries of magnitude 1e-150 to 1e150, or 0: no square overflows or
    leaves the normal range, so no row norm is recomputed."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(1e-150, 1e150).flatmap(
        lambda v: st.sampled_from([v, -v])))
    return np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)


@settings(max_examples=300, deadline=None)
@given(normal_range_matrices(), st.sampled_from([(L2, LINF), (LINF, L2)]))
@example(np.array([[1e150, -1e150], [1e-150, 0.0]]), (L2, LINF))
@example(np.array([[1e-150, -1e-150]]), (LINF, L2))  # a vertex image of 0
def test_rescaled_row_norms_keep_the_bits_of_the_plain_norm(M, pair):
    assert bits(operator_norm(M, *pair)) == bits(reference_operator_norm(M, *pair))


@pytest.mark.parametrize("pair", [(L2, LINF), (LINF, L2)], ids=["l2-linf", "linf-l2"])
@pytest.mark.parametrize("M, want", [
    ([[1e200]], 1e200),
    ([[-1e300]], 1e300),
    ([[1e-200]], 1e-200),
    ([[5e-324]], 5e-324),
    ([[0.0]], 0.0),
    ([[1.7976931348623157e308]], 1.7976931348623157e308),
], ids=["1e200", "-1e300", "1e-200", "subnormal", "zero", "max"])
def test_one_by_one_operator_norm_is_the_absolute_value(M, want, pair):
    # Unscaled, the square of 1e200 overflowed to inf (with numpy's warning)
    # and that of 1e-200 underflowed to 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert operator_norm(np.array(M), *pair) == want


def test_rows_past_the_square_range_are_rescaled():
    # l2 -> linf takes the largest row norm; linf -> l2 the largest vertex image.
    M = np.array([[3e200, 4e200], [3e-200, 4e-200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert operator_norm(M, L2, LINF) == pytest.approx(5e200, rel=1e-15)
        assert operator_norm(M, LINF, L2) == pytest.approx(math.hypot(7e200, 7e-200),
                                                           rel=1e-15)
        stack = operator_norm(np.stack([M[1:], M[:1]]), L2, LINF)
    assert stack[0] == pytest.approx(5e-200, rel=1e-15)
    assert stack[1] == pytest.approx(5e200, rel=1e-15)
    # A row sum that overflows past the largest float is inf, not nan.
    big = np.array([[1.7976931348623157e308, 1.7976931348623157e308]])
    with np.errstate(over="ignore"):
        assert operator_norm(big, LINF, L2) == math.inf


def test_linf_to_l2_blocks_give_the_same_bits(monkeypatch):
    # Blocks of one matrix each, as for a wide input.
    stack = np.random.default_rng(4).standard_normal((7, 3, 6))
    whole = operator_norm(stack, LINF, L2)
    monkeypatch.setattr("coincide.linalg._ENUM_BLOCK", 1)
    assert whole.tobytes() == operator_norm(stack, LINF, L2).tobytes()


# ---------------------------------------------------------------------------
# Sampled check against the per-sample reference loop


@st.composite
def sampled_instances(draw):
    """(instance, tau_hi, samples, seed) over every norm pair and map kind.

    The majorant phi(tau) = c0 + s*tau + q*tau^2 is scaled by a factor drawn
    from [0.05, 3] against a rough derivative size of the map, so undersized
    majorants (violations) and clean ones both occur.
    """
    norms = draw(st.sampled_from(NORM_PAIRS))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["affine", "quadratic", "callable", "finite-diff"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.standard_normal((m, n))
    x0 = rng.standard_normal(n)
    slope, curvature = float(np.abs(W).sum()), 0.0
    if kind == "affine":
        phi = AffineMap(W, rng.standard_normal(m), domain_center=x0)
    elif kind == "quadratic":
        T = rng.standard_normal((m, n, n))
        bilinear = BilinearMap(coeffs=0.5 * (T + T.transpose(0, 2, 1)))
        phi = QuadraticMap(bilinear, rng.standard_normal(m))
        x0 = np.zeros(n)
        slope, curvature = 0.0, bilinear.bound * 3.0
    else:
        phi = CallableMap(f=lambda x: np.sin(W @ x),
                          jac=(lambda x: np.cos(W @ x)[:, None] * W)
                          if kind == "callable" else None,
                          domain_center=x0)
    factor = draw(st.floats(0.05, 3.0))
    tau0 = draw(st.sampled_from([0.0, 0.5]))
    pair = MajorantPair(
        psi=ScalarFn.linear(1.0),
        phi=ScalarFn.polynomial([tau0 + 1.0, factor * slope + 1e-3, factor * curvature]),
        tau0=tau0, horizon=4.0)
    cover = LinearSurjectiveCovering(np.eye(m, n), b=1.0,
                                     norm_x=norms[0], norm_y=norms[1])
    inst = ProblemInstance(phi=phi, cover=cover, majorants=pair, x0=x0)
    tau_hi = tau0 + draw(st.floats(0.1, 2.0))
    return inst, tau_hi, draw(st.integers(1, 60)), draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(sampled_instances())
def test_batched_check_matches_the_per_sample_loop(case):
    inst, tau_hi, samples, seed = case
    got = validate_h2_derivative(inst, samples, tau_hi=tau_hi, seed=seed)
    want = reference_validate_h2(inst, samples, tau_hi=tau_hi, seed=seed)
    assert same_report(got, want), (got, want)


@pytest.mark.parametrize("norms", NORM_PAIRS, ids=lambda p: f"{p[0].value}-{p[1].value}")
def test_undersized_majorant_violations_match_the_reference(norms):
    W = np.array([[1.0, -2.0, 0.5], [0.3, 0.7, -1.1]])
    pair = MajorantPair(psi=ScalarFn.linear(1.0), phi=ScalarFn.polynomial([1.0, 0.3]),
                        horizon=4.0)
    cover = LinearSurjectiveCovering(np.eye(2, 3), b=1.0,
                                     norm_x=norms[0], norm_y=norms[1])
    inst = ProblemInstance(phi=AffineMap(W, [0.0, 0.0]), cover=cover, majorants=pair,
                           x0=np.zeros(3))
    got = validate_h2_derivative(inst, H2_SAMPLES, tau_hi=1.0)
    assert got.violations == H2_SAMPLES
    assert same_report(got, reference_validate_h2(inst, H2_SAMPLES, tau_hi=1.0))


def test_undersized_custom_scalar_matches_the_reference():
    cfg = config_from_dict({"kind": "custom-scalar", "custom_scalar": {
        "phi_poly": [0.75, 0.0, 1.0], "psi_slope": 2.0,
        "majorant_poly": [0.75, 0.0, 0.9], "x0": 0.0, "horizon": 2.0}})
    inst = build_problem(cfg).instance
    got = validate_h2_derivative(inst, H2_SAMPLES)
    assert got.violations > 0
    assert same_report(got, reference_validate_h2(inst, H2_SAMPLES))


# ---------------------------------------------------------------------------
# The proof for certified quadratics


def explicit_quadratic(**constants) -> ProblemInstance:
    section = {"tensor": MATRIX_2D, "matrix": [[2.0, 0.0], [0.0, 2.0]],
               "offset": [0.3, 0.4], **constants}
    return build_problem(config_from_dict({"kind": "quadratic", "quadratic": section})).instance


@pytest.fixture
def counted(monkeypatch):
    """Counts of Jacobians, SVDs and the stack shapes solver.operator_norm sees."""
    calls = {"jacobian": 0, "svd": 0, "norm_shapes": []}
    jacobian, svd, op_norm = QuadraticMap.jacobian, np.linalg.svd, solver.operator_norm

    def counted_jacobian(self, x):
        calls["jacobian"] += 1
        return jacobian(self, x)

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counted_norm(M, *tags):
        calls["norm_shapes"].append(np.shape(M))
        return op_norm(M, *tags)

    monkeypatch.setattr(QuadraticMap, "jacobian", counted_jacobian)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(solver, "operator_norm", counted_norm)
    return calls


@pytest.mark.parametrize("make", [
    lambda: build_quadratic_instance(random_quadratic(4, 3, 0.5, seed=21)),
    lambda: build_problem(gallery_config("matrix-2d")).instance,
    lambda: build_problem(gallery_config("scalar-d-pos")).instance,
    lambda: explicit_quadratic(a=spectral_overestimate(MATRIX_2D)),
], ids=["random", "gallery-default-a", "gallery-explicit-a", "explicit-a-at-overestimate"])
def test_proven_quadratic_samples_nothing(make, counted):
    inst = make()
    assert inst.h2_proven
    counted.update(jacobian=0, svd=0)
    coincidence_solve(inst, h2_check="strict")
    assert counted == {"jacobian": 0, "svd": 0, "norm_shapes": []}


def test_below_overestimate_samples_in_one_stacked_call(counted):
    inst = explicit_quadratic(a=0.4)
    assert not inst.h2_proven
    counted.update(jacobian=0, svd=0)
    _, trace = coincidence_solve(inst, h2_check="strict")
    assert trace.status == STATUS_HYPOTHESIS
    assert counted == {"jacobian": H2_SAMPLES, "svd": 1,
                       "norm_shapes": [(H2_SAMPLES, 2, 2)]}


def test_one_ulp_below_the_overestimate_is_sampled(counted):
    T = np.array(MATRIX_2D)
    S = spectral_overestimate(T)

    def instance(a):
        return build_quadratic_instance(QuadraticProblem(
            bilinear=BilinearMap(coeffs=T, bound=a), linear=2.0 * np.eye(2),
            offset=np.array([0.3, 0.4])))

    assert instance(S).h2_proven
    short = instance(np.nextafter(S, 0.0))
    assert not short.h2_proven
    coincidence_solve(short, h2_check="strict")
    assert counted["jacobian"] == H2_SAMPLES


def test_hand_built_instance_is_sampled(counted):
    inst = build_quadratic_instance(random_quadratic(3, 2, 0.5, seed=4))
    copy = ProblemInstance(phi=inst.phi, cover=inst.cover, majorants=inst.majorants,
                           x0=inst.x0)
    assert not copy.h2_proven
    coincidence_solve(copy, h2_check="strict")
    assert counted["jacobian"] == H2_SAMPLES
    with pytest.raises(TypeError):
        ProblemInstance(phi=inst.phi, cover=inst.cover, majorants=inst.majorants,
                        x0=inst.x0, h2_proven=True)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.floats(0.0, 1.0), st.integers(0, 2**31))
def test_proven_quadratics_pass_the_sampled_check(dim_x, dim_y, margin, seed):
    dim_y = min(dim_y, dim_x)
    inst = build_quadratic_instance(random_quadratic(dim_x, dim_y, margin, seed))
    assert inst.h2_proven
    assert validate_h2_derivative(inst, 300, seed=seed).clean


@pytest.mark.parametrize("constants", [{}, {"a": 0.4}, {"a": 0.7, "b": 2.0, "c": 0.5}],
                         ids=["defaults", "a-only", "all-given"])
def test_overestimate_and_sigma_are_computed_once_per_config(monkeypatch, constants):
    counts = {"overestimate": 0, "sigma": 0}
    overestimate, sigma = problems.spectral_overestimate, problems.smallest_singular_value

    def counted_overestimate(coeffs):
        counts["overestimate"] += 1
        return overestimate(coeffs)

    def counted_sigma(B):
        counts["sigma"] += 1
        return sigma(B)

    monkeypatch.setattr(problems, "spectral_overestimate", counted_overestimate)
    monkeypatch.setattr(problems, "smallest_singular_value", counted_sigma)
    explicit_quadratic(**constants)
    # sigma_min(B) comes from the covering's own SVD.
    assert counts == {"overestimate": 1, "sigma": 0}


# ---------------------------------------------------------------------------
# The proofs for affine fixed-point maps and 1-d polynomials


def cubic_section(k=1.25, frac=0.5, **extra) -> dict:
    """A small-batch cubic: phi = majorant = c0 + k tau^3 against psi = 2 tau."""
    t_min = math.sqrt(2.0 / (3.0 * k))
    poly = [frac * (4.0 / 3.0) * t_min, 0.0, 0.0, k]
    return {"phi_poly": poly, "psi_slope": 2.0, "majorant_poly": poly,
            "horizon": 2.0 * t_min, **extra}


def with_coefficient(section, key, k, value) -> dict:
    """section with coefficient k of its polynomial `key` set to value."""
    poly = section[key] + [0.0] * (k + 1 - len(section[key]))
    poly[k] = value
    return {**section, key: poly}


def built(kind, section, norms=None) -> ProblemInstance:
    data = {"kind": kind, kind.replace("-", "_"): section}
    if norms is not None:
        data["norms"] = {"x": norms[0].value, "y": norms[1].value}
    return build_problem(config_from_dict(data)).instance


def affine_section(W, lip) -> dict:
    n = len(W)
    return {"linear": W, "shift": [0.5] * n, "x0": [0.0] * n, "lipschitz": lip,
            "domain_radius": 8.0}


@pytest.fixture
def jacobians(monkeypatch):
    """Counts of Jacobians made by the maps the affine and polynomial configs build."""
    calls = {"jacobian": 0}
    for cls in (AffineMap, PolynomialMap):
        original = cls.jacobian

        def counted(self, x, original=original):
            calls["jacobian"] += 1
            return original(self, x)

        monkeypatch.setattr(cls, "jacobian", counted)
    return calls


@pytest.mark.parametrize("make", [
    lambda: build_problem(gallery_config("kantorovich-affine")).instance,
    lambda: built("kantorovich", affine_section([[0.25, 0.5], [-0.5, 0.125]], 0.75), (LINF, LINF)),
    lambda: built("custom-scalar", cubic_section()),
    lambda: built("custom-scalar", cubic_section(k=0.5, frac=0.2)),
    lambda: built("custom-scalar", cubic_section(k=2.0, frac=0.8), (LINF, LINF)),
], ids=["gallery-affine", "affine-linf", "cubic", "cubic-low", "cubic-linf"])
def test_proven_affine_and_cubic_solves_make_no_jacobian(make, jacobians):
    inst = make()
    assert inst.h2_proven
    _, trace = coincidence_solve(inst, h2_check="strict")
    assert trace.status == "converged"
    assert jacobians["jacobian"] == 0


def test_each_build_proves_once(monkeypatch):
    norms, proofs = [], []
    op_norm, polynomial_proof = problems.operator_norm, problems._polynomial_h2_proven

    def counted_norm(M, *tags):
        norms.append(np.shape(M))
        return op_norm(M, *tags)

    def counted_proof(*args):
        proofs.append(args)
        return polynomial_proof(*args)

    monkeypatch.setattr(problems, "operator_norm", counted_norm)
    monkeypatch.setattr(problems, "_polynomial_h2_proven", counted_proof)
    affine = build_problem(gallery_config("kantorovich-affine")).instance
    cubic = built("custom-scalar", cubic_section())
    assert (norms, len(proofs)) == ([(1, 1)], 1)
    coincidence_solve(affine)
    coincidence_solve(cubic)
    assert (norms, len(proofs)) == ([(1, 1)], 1)
    # Off the origin there is nothing to prove, and nothing is tried.
    built("custom-scalar", cubic_section(x0=0.25))
    assert len(proofs) == 1


@pytest.mark.parametrize("make", [
    # ||W|| one ulp above lip; the edge ||W|| == lip is proven (the gallery).
    lambda: built("kantorovich", affine_section([[0.5]], float(np.nextafter(0.5, 0.0)))),
    lambda: built("kantorovich", affine_section([[0.25, 0.5], [-0.5, 0.125]], 0.5), (LINF, LINF)),
    lambda: built("custom-scalar", cubic_section(x0=-0.0625)),
    lambda: built("custom-scalar", cubic_section(x0=-1e-300)),
    lambda: built("custom-scalar", cubic_section(tau0=-0.0625)),
    lambda: built("custom-scalar", cubic_section(), (L2, LINF)),
    lambda: built("custom-scalar", with_coefficient(cubic_section(), "phi_poly", 4, 1e-9)),
    # A negative coefficient in a majorant that still increases: 1e-9 - 2e-9 tau
    # + 3.75 tau^2 > 0. A negative slope alone would make it dip after tau0.
    lambda: built("custom-scalar", with_coefficient(with_coefficient(
        cubic_section(), "majorant_poly", 1, 1e-9), "majorant_poly", 2, -1e-9)),
], ids=["affine-ulp-short", "affine-linf-short", "cubic-x0", "cubic-tiny-x0", "cubic-tau0",
        "cubic-mixed-tags", "cubic-degree-above-majorant", "cubic-negative-majorant-coefficient"])
def test_unproven_instances_are_sampled(make, jacobians):
    inst = make()
    assert not inst.h2_proven
    coincidence_solve(inst, h2_check="strict")
    assert jacobians["jacobian"] == H2_SAMPLES


def test_affine_proof_needs_an_affine_map_and_a_linear_profile():
    W = [[0.5]]
    x0 = np.zeros(1)
    f = AffineMap(W, [0.5], domain_center=x0, domain_radius=8.0)
    assert build_kantorovich_instance(f, ScalarFn.linear(0.5), x0).h2_proven
    # linear(0.5) is polynomial([0.0, 0.5]): every degree-1 profile is linear.
    assert build_kantorovich_instance(f, ScalarFn.polynomial([0.0, 0.5]), x0).h2_proven
    # The same phi' = 0.5 from a plain callable, which declares no degree.
    profile = ScalarFn(fn=lambda t: 0.5 * t, deriv=lambda t: 0.5)
    assert not build_kantorovich_instance(f, profile, x0).h2_proven
    same_map = CallableMap(f=f.evaluate, jac=f.jacobian, domain_center=x0, domain_radius=8.0)
    assert not build_kantorovich_instance(same_map, ScalarFn.linear(0.5), x0).h2_proven


def test_mixed_tags_stay_sampled_where_the_norm_overflows():
    # In 1-d every norm is |.|, but the l2 -> linf operator norm squares the
    # entry, and |J| = 1e200 would overflow unscaled. The proof would hold
    # for one tag; the mixed tags are sampled, and the rescaled norm makes
    # the sample clean (it overflowed to 100/100 violations of excess inf).
    section = {"phi_poly": [0.5, 1e200], "psi_slope": 2e200,
               "majorant_poly": [0.5, 1e200], "horizon": 1.0}
    assert built("custom-scalar", section, (L2, L2)).h2_proven
    for norms in ((L2, LINF), (LINF, L2)):
        mixed = built("custom-scalar", section, norms)
        assert not mixed.h2_proven
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_h2_derivative(mixed, H2_SAMPLES, tau_hi=1.0)
        assert report.violations == 0 and report.max_excess == 0.0


def test_polynomial_proof_needs_a_finite_majorant_slope():
    # m = 0.5 + 1e308 tau^2 is finite on the window, but m' = 2e308 tau
    # overflows: every sampled Jacobian is inf (or NaN at x = 0).
    poly = [0.5, 0.0, 1e308]
    inst = built("custom-scalar", {"phi_poly": poly, "psi_slope": 1.0,
                                   "majorant_poly": poly, "horizon": 0.5})
    assert not inst.h2_proven
    with np.errstate(invalid="ignore"):
        report = validate_h2_derivative(inst, H2_SAMPLES, tau_hi=0.5)
    assert report.violations == H2_SAMPLES and report.max_excess == math.inf


# Jacobian scales from subnormal to near overflow; the l2 SVD and the linf
# row sums must keep them within the proof.
SCALES = [1e-310, 1e-160, 1e-3, 1.0, 1e7, 1e160, 1e300]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.sampled_from([L2, LINF]), st.sampled_from(SCALES),
       st.sampled_from(["edge", "ulp-above", "ulp-below", "drawn"]),
       st.floats(0.25, 4.0), st.integers(0, 2**32 - 1))
def test_proven_affine_maps_pass_the_sampled_check(n, tag, scale, where, factor, seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, n)) * scale
    size = operator_norm(W, tag, tag)
    lip = {"edge": size, "ulp-above": float(np.nextafter(size, math.inf)),
           "ulp-below": float(np.nextafter(size, 0.0)), "drawn": size * factor}[where]
    # The initial gap f(x0) - x0 scales with W, so phi = lip * tau + gap
    # increases over the window.
    x0 = rng.standard_normal(n) * min(scale, 1.0)
    f = AffineMap(W, rng.standard_normal(n) * scale, domain_center=x0, domain_radius=8.0)
    try:
        with np.errstate(over="ignore"):
            inst = build_kantorovich_instance(f, ScalarFn.linear(lip), x0, norm_tag=tag)
    except ValueError:  # an initial gap that overflows, or a profile too flat to increase
        reject()
    assert inst.h2_proven == (size <= lip)
    if inst.h2_proven:
        # tau_hi spans the window: psi and phi need not cross for the check.
        assert validate_h2_derivative(inst, 200, tau_hi=8.0, seed=seed % 2**16).clean


@st.composite
def dominated_polynomials(draw):
    """(phi_poly, majorant_poly, horizon, norms): |p_k| <= m_k mostly, at equality often."""
    degree = draw(st.integers(1, 6))
    scale = draw(st.sampled_from(SCALES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ms = list(np.abs(rng.standard_normal(degree + 1)) * scale)
    ratios = draw(st.lists(st.sampled_from([-1.0, 1.0, 0.0, 0.5, -0.999, 1.0000001, -1.0000001]),
                           min_size=degree + 1, max_size=degree + 1))
    ps = [float(r * m) for r, m in zip(ratios, ms)]
    horizon = draw(st.sampled_from([1e-3, 0.5, 2.0, 1e3]))
    tag = draw(st.sampled_from([L2, LINF]))
    return ps, [float(m) for m in ms], horizon, (tag, tag)


@settings(max_examples=200, deadline=None)
@given(dominated_polynomials(), st.integers(0, 2**16))
def test_proven_polynomials_pass_the_sampled_check(case, seed):
    ps, ms, horizon, norms = case
    section = {"phi_poly": ps, "psi_slope": 1.0, "majorant_poly": ms, "horizon": horizon}
    try:
        inst = built("custom-scalar", section, norms)
    except ConfigError:  # a majorant that is not strictly increasing or finite
        reject()
    dominated = all(abs(p) <= m for p, m in zip(ps[1:], ms[1:]))
    assert inst.h2_proven == (dominated and math.isfinite(
        inst.majorants.phi.derivative(horizon)))
    if inst.h2_proven:
        assert validate_h2_derivative(inst, 200, tau_hi=horizon, seed=seed).clean
