"""H2, the derivative bound ||Phi'(x)|| <= phi'(tau): proven or sampled.

Certified quadratics carry a proof and are never sampled; every other
instance is sampled in one stacked pass, which must give the report the
per-sample reference loop gives, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2_reference import reference_operator_norm, reference_validate_h2
from coincide import problems, solver
from coincide.config import build_problem, config_from_dict, gallery_config
from coincide.covering import LinearSurjectiveCovering
from coincide.linalg import NormTag, operator_norm
from coincide.majorant import MajorantPair, ScalarFn
from coincide.problems import (
    BilinearMap,
    QuadraticMap,
    QuadraticProblem,
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
    cover = LinearSurjectiveCovering(np.eye(m, n), sign=-1, b=1.0,
                                     norm_x=norms[0], norm_y=norms[1])
    inst = ProblemInstance(phi=phi, cover=cover, majorants=pair, x0=x0, norms=norms)
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
    cover = LinearSurjectiveCovering(np.eye(2, 3), sign=-1, b=1.0,
                                     norm_x=norms[0], norm_y=norms[1])
    inst = ProblemInstance(phi=AffineMap(W, [0.0, 0.0]), cover=cover, majorants=pair,
                           x0=np.zeros(3), norms=norms)
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
                           x0=inst.x0, norms=inst.norms)
    assert not copy.h2_proven
    coincidence_solve(copy, h2_check="strict")
    assert counted["jacobian"] == H2_SAMPLES
    with pytest.raises(TypeError):
        ProblemInstance(phi=inst.phi, cover=inst.cover, majorants=inst.majorants,
                        x0=inst.x0, norms=inst.norms, h2_proven=True)


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
    assert counts == {"overestimate": 1, "sigma": 1}
