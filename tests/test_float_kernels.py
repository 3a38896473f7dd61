"""The float forms of the 1-d maps, coverings and norms against their array
methods, bit for bit, the rule that picks them, and the float loop of a 1-d
solve against the array methods' loop.

A 1-d solve runs as one loop on Python floats; its map's float form, its
inline covering step and norms must give the bits the array methods give on
one-entry vectors, signed zeros, subnormals, squares that overflow,
infinities and NaNs included, and raise the same errors.
"""

import copy
import math
import struct
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coincide
from coincide.baseline import AlphaCoveringProblem, alpha_iterate
from coincide.config import build_problem, gallery_config
from coincide.covering import IdentityCovering, LinearSurjectiveCovering
from coincide.errors import CoincidenceError
from coincide.linalg import NormTag, norm
from coincide.majorant import ScalarFn
from coincide.problems import (
    BilinearMap,
    PolynomialMap,
    QuadraticMap,
    build_polynomial_instance,
    build_quadratic_instance,
    scalar_quadratic,
)
from coincide.solver import (
    AffineMap,
    CallableMap,
    _float_kernels,
    coincidence_solve,
)
from conftest import planar_quadratic

TAGS = [NormTag.L2, NormTag.LINF]
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-160, 1e154,
           1.5e154, -1e155, 1e200, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
           math.inf, -math.inf, math.nan]


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


def _values(finite: bool = False):
    """Special floats and any others; finite ones only when asked."""
    specials = [v for v in SPECIAL if math.isfinite(v)] if finite else SPECIAL
    return st.one_of(st.sampled_from(specials),
                     st.floats(allow_nan=not finite, allow_infinity=not finite),
                     st.floats(-10.0, 10.0))


def _outcome(fn, *args):
    """("value", bits) of a float or one-entry array, or ("raise", type, message, fields)."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except CoincidenceError as err:
        fields = [getattr(err, name, None) for name in ("step", "budget")]
        return ("raise", type(err).__name__, str(err),
                *[None if v is None else _bits(v) for v in fields])
    if isinstance(out, np.ndarray):
        assert out.shape == (1,) and out.dtype == np.float64
        out = out[0]
    else:
        assert type(out) is float
    return "value", _bits(out)


def _same(array_fn, float_fn, *points):
    """array_fn on one-entry vectors and float_fn on their floats agree."""
    want = _outcome(array_fn, *[np.array([p]) for p in points])
    assert _outcome(float_fn, *points) == want


@settings(max_examples=300, deadline=None)
@given(v=_values(), tag=st.sampled_from(TAGS))
@example(v=-0.0, tag=NormTag.L2)
@example(v=1e200, tag=NormTag.L2)       # v * v overflows: inf, where abs(v) is not
@example(v=1e-200, tag=NormTag.L2)      # v * v underflows: 0, where abs(v) is not
@example(v=5e-324, tag=NormTag.LINF)
@example(v=math.nan, tag=NormTag.LINF)
def test_float_norm_has_the_bits_of_norm(v, tag):
    # The float loop's norm of one entry: sqrt(v * v) for l2, abs(v) for linf.
    with np.errstate(all="ignore"):
        want = norm(np.array([v]), tag)
    got = math.sqrt(v * v) if tag == NormTag.L2 else abs(v)
    assert type(got) is float and _bits(got) == _bits(want)


def test_float_norm_refuses_an_unknown_tag():
    # The float loop takes l2 and linf only; under any other tag the solve
    # runs on the array methods, whose norm refuses it.
    inst = _quadratic_instance()
    inst.cover.norm_y = "l1"
    assert _float_kernels(inst.cover, inst.phi, inst.x0) is None
    with pytest.raises(ValueError, match="unknown norm tag"):
        coincidence_solve(inst)


@settings(max_examples=300, deadline=None)
@given(a=_values(finite=True), c=_values(finite=True), x=_values())
@example(a=-2.0, c=0.0, x=0.0)          # (a * u) * u is -0; the einsum's sum is +0
@example(a=-0.0, c=-0.0, x=1.0)
@example(a=1e-300, c=1.0, x=1e200)      # a * u * u overflows only in one order
@example(a=1.0, c=-0.0, x=-0.0)
def test_quadratic_float_form(a, c, x):
    qmap = QuadraticMap(BilinearMap(coeffs=[[[a]]], bound=1.0), [c])
    _same(qmap.evaluate, qmap.float_form(), x)


@settings(max_examples=300, deadline=None)
@given(w=_values(), d=_values(finite=True), x=_values())
@example(w=2.0, d=0.0, x=-0.0)          # W @ x is +0 where w * x is -0
@example(w=2.0, d=-0.0, x=-0.0)
@example(w=-0.0, d=-0.0, x=math.inf)
def test_affine_float_form(w, d, x):
    amap = AffineMap([[w]], [d])
    _same(amap.evaluate, amap.float_form(), x)


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(_values(finite=True), min_size=0, max_size=5), x=_values())
@example(coeffs=[0.5, 0.0, 0.0, 1e306], x=1e2)   # overflows: NonFiniteValue
@example(coeffs=[-0.0], x=-0.0)
@example(coeffs=[], x=math.inf)
def test_polynomial_float_form(coeffs, x):
    pmap = PolynomialMap(ScalarFn.polynomial(coeffs), 0.0, 1.0)
    _same(pmap.evaluate, pmap.float_form(), x)


def test_polynomial_map_refuses_non_finite_values_where_made():
    pmap = PolynomialMap(ScalarFn.polynomial([0.5, 0.0, 0.0, 1e306]), 0.0, 1.0)
    for fn, x in ((pmap.evaluate, np.array([1e200])), (pmap.float_form(), 1e200)):
        with pytest.raises(CoincidenceError, match=r"^Phi\(x\) has a non-finite entry$"):
            fn(x)


def _linear_cover(b, tag_x, tag_y, constant):
    kwargs = {"b": constant * abs(b), "norm_x": tag_x, "norm_y": tag_y}
    if tag_x == NormTag.L2 and tag_y == NormTag.L2:
        kwargs["check_constant"] = False
    return LinearSurjectiveCovering([[b]], **kwargs)


nonzero = _values(finite=True).filter(lambda v: v != 0.0 and abs(v) < 1e300
                                      and abs(v) > 1e-300)


def test_linear_covering_float_factors():
    # -(b * x) and p * -defect are `B.dot(x)` and `pinv.dot(-defect)` of a 1x1
    # B in C or F order; any other B has none.
    cover = LinearSurjectiveCovering([[-4.0]])
    assert cover.float_factors() == (-4.0, -0.25)
    assert all(type(v) is float for v in cover.float_factors())
    assert LinearSurjectiveCovering(np.eye(2)).float_factors() is None
    assert LinearSurjectiveCovering(_strided_one_by_one()).float_factors() is None


@settings(max_examples=300, deadline=None)
@given(tag=st.sampled_from(TAGS), x_prime=_values(finite=True), w=_values(),
       d=_values(finite=True), alpha=st.sampled_from([0.25, 1.0, 4.0]))
@example(tag=NormTag.L2, x_prime=-0.0, w=0.0, d=0.0, alpha=1.0)
@example(tag=NormTag.L2, x_prime=0.0, w=1.0, d=2.0, alpha=4.0)   # over budget
def test_identity_covering_float_forms(tag, x_prime, w, d, alpha):
    # Psi(x) = x and a correction to y itself: one baseline step of the
    # float loop against the array methods, errors included.
    cover = IdentityCovering(1, tag)
    assert cover.float_factors() == (None, None)
    assert IdentityCovering(2).float_factors() is None
    phi = AffineMap([[w]], [d])
    ours = _run(alpha_iterate, AlphaCoveringProblem(u=cover, v=phi, alpha=alpha, beta=0.0),
                [x_prime], 0.0, 1)
    twin = AlphaCoveringProblem(u=_on_arrays(cover), v=_on_arrays(phi), alpha=alpha, beta=0.0)
    assert ours == _run(alpha_iterate, twin, [x_prime], 0.0, 1)


# ---------------------------------------------------------------------------
# Which solves run on floats


class _SubQuadratic(QuadraticMap):
    pass


class _SubLinear(LinearSurjectiveCovering):
    pass


def _quadratic_instance(**swap):
    inst = build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))
    for key, value in swap.items():
        setattr(inst, key, value)
    return inst


def _strided_one_by_one():
    # A 1x1 view in neither C nor F order: the covering keeps `B @ x`.
    view = np.full((3, 4), 2.0)[1::2, 1::3][:1, :1]
    assert view.strides == (64, 24)
    return view


FLOAT_CASES = {
    "quadratic-linear": lambda: _quadratic_instance(),
    "affine-identity": lambda: _quadratic_instance(
        phi=AffineMap([[0.5]], [0.5]), cover=IdentityCovering(1)),
    "polynomial-linear": lambda: build_polynomial_instance(
        [0.3, 0.0, 0.0, 1.0], [0.3, 0.0, 0.0, 1.0], 2.0, 1.6),
}

ARRAY_CASES = {
    "planar": lambda: build_quadratic_instance(planar_quadratic(1.0, 2.0, 0.75)),
    "map-subclass": lambda: _quadratic_instance(
        phi=_SubQuadratic(BilinearMap(coeffs=[[[1.0]]], bound=1.0), [0.75])),
    "covering-subclass": lambda: _quadratic_instance(cover=_SubLinear([[2.0]])),
    "callable-map": lambda: _quadratic_instance(
        phi=CallableMap(f=lambda x: x * x + 0.75, domain_center=[0.0])),
    "strided-matrix": lambda: _quadratic_instance(
        cover=LinearSurjectiveCovering(_strided_one_by_one())),
    "start-of-size-two": lambda: _quadratic_instance(x0=np.zeros(2)),
}


def _one_step(inst):
    """The trace of one step of `alpha_iterate` (alpha 1) on inst's map and
    covering from inst.x0, and the calls the step made of their array
    methods, by name. Each of them is stubbed on the instance to map x to
    zeros, so any x0 can step."""
    called = Counter()

    def stub(name):
        def method(x, *args):
            called[name] += 1
            return np.zeros_like(x)
        return method

    inst.phi.evaluate = stub("phi.evaluate")
    inst.cover.evaluate = stub("cover.evaluate")
    inst.cover.solve_within = stub("cover.solve_within")
    p = AlphaCoveringProblem(u=inst.cover, v=inst.phi, alpha=1.0, beta=0.0)
    _, trace = alpha_iterate(p, inst.x0, -1.0, 1)
    assert trace.steps == 1
    return trace, called


@pytest.mark.parametrize("name", FLOAT_CASES)
def test_one_d_shipped_maps_run_on_floats(name):
    inst = FLOAT_CASES[name]()
    _, called = _one_step(inst)
    assert called == Counter()
    assert type(inst.phi.float_form()(0.25)) is float


@pytest.mark.parametrize("name", ARRAY_CASES)
def test_other_solves_run_on_the_array_methods(name):
    trace, called = _one_step(ARRAY_CASES[name]())
    assert called == {"phi.evaluate": 2, "cover.evaluate": 2,
                      "cover.solve_within": trace.steps}


def _array_method_calls(run) -> int:
    """Calls of the shipped maps' and coverings' array methods, and of
    linalg.norm from any module, while run() runs."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for cls in (QuadraticMap, AffineMap, PolynomialMap, LinearSurjectiveCovering,
                    IdentityCovering):
            for meth in ("evaluate", "solve_within"):
                if meth in vars(cls):
                    mp.setattr(cls, meth, counted(vars(cls)[meth]))
        for module in (coincide.linalg, coincide.majorant, coincide.covering,
                       coincide.solver, coincide.problems, coincide.baseline):
            for key, value in list(vars(module).items()):
                if value is norm:
                    mp.setattr(module, key, counted(norm))
        run()
    return len(calls)


LONG_1D = {
    # 438 steps in each loop
    "quadratic-majorant": lambda steps: coincidence_solve(
        build_quadratic_instance(scalar_quadratic(1.0, 2.0, 1.0 - 10 ** -2.8)),
        residual_tol=1e-10, max_steps=steps),
    "quadratic-baseline": lambda steps: alpha_iterate(
        AlphaCoveringProblem.from_quadratic(scalar_quadratic(1.0, 2.0, 1.0 - 10 ** -2.8)),
        np.zeros(1), 1e-10, steps),
    "cubic": lambda steps: coincidence_solve(
        FLOAT_CASES["polynomial-linear"](), residual_tol=0.0, max_steps=steps),
    "affine-identity": lambda steps: coincidence_solve(
        build_problem(gallery_config("kantorovich-affine")).instance, residual_tol=0.0,
        max_steps=steps),
}


@pytest.mark.parametrize("name", LONG_1D)
def test_one_d_steps_call_no_array_method(name):
    # The loop of a 1-d solve runs on the float forms alone: a solve of 300
    # steps calls the array methods as often as one of 3.
    steps = {}

    def solve(max_steps):
        _, trace = LONG_1D[name](max_steps)
        steps[max_steps] = trace.steps

    assert _array_method_calls(lambda: solve(3)) == _array_method_calls(lambda: solve(300))
    assert steps[3] == 3 and steps[300] > 3


# ---------------------------------------------------------------------------
# The float loop against the array methods, outcome for outcome


class _SubAffine(AffineMap):
    pass


class _SubPolynomial(PolynomialMap):
    pass


class _SubIdentity(IdentityCovering):
    pass


ARRAY_TWIN = {QuadraticMap: _SubQuadratic, AffineMap: _SubAffine, PolynomialMap: _SubPolynomial,
              LinearSurjectiveCovering: _SubLinear, IdentityCovering: _SubIdentity}


def _on_arrays(obj):
    """A copy of obj whose class is a subclass that gives no float form, so
    that a solve on it runs on the array methods."""
    twin = copy.copy(obj)
    twin.__class__ = ARRAY_TWIN[type(obj)]
    return twin


def _run(solve, *args, **kwargs):
    """("ok", x, rows, status, detail), every float as its bits, or
    ("raise", error type, message)."""
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            x, trace = solve(*args, **kwargs)
    except CoincidenceError as err:
        return "raise", type(err).__name__, str(err)
    rows = [(r[0], *map(_bits, r[1:])) for r in trace.rows]
    return "ok", [_bits(v) for v in x], rows, trace.status, trace.detail


def _twin_instance(inst):
    twin = copy.copy(inst)
    twin.phi, twin.cover = _on_arrays(inst.phi), _on_arrays(inst.cover)
    return twin


def _swapped(make, **swap):
    def build():
        inst = make()
        for key, value in swap.items():
            setattr(inst, key, value)
        return inst
    return build


def _quadratic():
    return build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75))


def _kantorovich():
    return build_problem(gallery_config("kantorovich-affine")).instance


# name: (instance, residual_tol, max_steps, factor on tau_*, outcome)
LOOP_CASES = {
    "quadratic-l2": (_quadratic, 1e-10, 100, 1.0, "converged"),
    "quadratic-linf-l2": (_swapped(_quadratic, cover=LinearSurjectiveCovering(
        [[2.0]], b=2.0, norm_x=NormTag.LINF, norm_y=NormTag.L2)), 1e-10, 100, 1.0,
        "converged"),
    "quadratic-l2-linf": (_swapped(_quadratic, cover=LinearSurjectiveCovering(
        [[-2.0]], b=2.0, norm_x=NormTag.L2, norm_y=NormTag.LINF)), 1e-10, 100, 1.0,
        "converged"),
    "quadratic-capped": (_quadratic, 1e-10, 3, 1.0, "max_steps"),
    "quadratic-stall": (_quadratic, -1.0, 100, 2.0, "stall"),
    "quadratic-bracket": (_quadratic, 1e-10, 100, 0.5, "BracketFailure"),
    "quadratic-over-budget": (_swapped(_quadratic, cover=LinearSurjectiveCovering([[1.0]])),
                              1e-10, 100, 1.0, "BudgetExceeded"),
    "affine-overflow": (_swapped(_quadratic, phi=AffineMap([[1e200]], [0.75])), 1e-10, 100,
                        1.0, "NonFiniteValue"),
    "cubic-h2-defect": (lambda: build_polynomial_instance(
        [0.5, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.5], 2.0, 2.0), 1e-10, 100, 1.0,
        "hypothesis_violation"),
    "cubic-linf": (lambda: build_polynomial_instance(
        [0.3, 0.0, 0.0, 1.0], [0.3, 0.0, 0.0, 1.0], 2.0, 1.6, norms=(NormTag.LINF,) * 2),
        1e-10, 100, 1.0, "converged"),
    "affine-identity-l2": (_kantorovich, 1e-10, 100, 1.0, "converged"),
    "affine-identity-linf": (_swapped(_kantorovich, cover=IdentityCovering(1, NormTag.LINF)),
                             1e-10, 100, 1.0, "converged"),
}


def _outcome_name(run) -> str:
    if run[0] == "raise":
        return run[1]
    return "stall" if run[-1].startswith("tau sequence stalled") else run[-2]


@pytest.mark.parametrize("name", LOOP_CASES)
def test_float_loop_matches_the_array_methods(name, monkeypatch):
    make, tol, max_steps, factor, outcome = LOOP_CASES[name]
    crossing = coincide.solver.smallest_crossing
    monkeypatch.setattr(coincide.solver, "smallest_crossing",
                        lambda pair: factor * crossing(pair))
    inst = make()
    twin = _twin_instance(inst)
    assert _float_kernels(inst.cover, inst.phi, inst.x0) is not None
    assert _float_kernels(twin.cover, twin.phi, twin.x0) is None
    ours = _run(coincidence_solve, inst, residual_tol=tol, max_steps=max_steps)
    assert ours == _run(coincidence_solve, twin, residual_tol=tol, max_steps=max_steps)
    assert _outcome_name(ours) == outcome
    # The baseline's loop, with the covering's own constant as alpha.
    alpha = inst.cover.psi.coeffs[1]
    p = AlphaCoveringProblem(u=inst.cover, v=inst.phi, alpha=alpha, beta=0.0)
    q = AlphaCoveringProblem(u=twin.cover, v=twin.phi, alpha=alpha, beta=0.0)
    assert _run(alpha_iterate, p, inst.x0, tol, max_steps) == _run(
        alpha_iterate, q, inst.x0, tol, max_steps)


@settings(max_examples=400, deadline=None)
@given(b=nonzero, tags=st.tuples(st.sampled_from(TAGS), st.sampled_from(TAGS)),
       constant=st.sampled_from([0.5, 1.0, 4.0]), w=_values(), d=_values(finite=True),
       x0=_values(finite=True), steps=st.integers(1, 3))
@example(b=2.0, tags=(NormTag.L2, NormTag.L2), constant=1.0, w=2.0, d=0.0, x0=0.0,
         steps=2)              # a +0 defect: p * -defect is -0
@example(b=-2.0, tags=(NormTag.LINF, NormTag.L2), constant=1.0, w=-0.0, d=-0.0, x0=-0.0,
         steps=1)
@example(b=2.0, tags=(NormTag.L2, NormTag.L2), constant=4.0, w=0.0, d=1.0, x0=0.0,
         steps=1)              # over budget
@example(b=1.0, tags=(NormTag.L2, NormTag.L2), constant=1.0, w=1e200, d=1.0, x0=0.0,
         steps=3)              # the l2 norm of a finite defect overflows
@example(b=0.5, tags=(NormTag.LINF, NormTag.LINF), constant=1.0, w=0.0, d=-1.25e308,
         x0=1.5e308, steps=1)  # the correction 1e308 fits its budget, x0 + 1e308 overflows
def test_float_steps_match_the_array_methods(b, tags, constant, w, d, x0, steps):
    # One to three baseline steps from special values: the linear covering's
    # inline Psi, correction and norms against the array methods, errors
    # included (the identity covering's are in test_identity_covering_float_forms).
    cover = _linear_cover(b, *tags, constant)
    phi = AffineMap([[w]], [d])
    alpha = cover.b  # constant 4 claims more than |b|: the correction is over budget
    ours = _run(alpha_iterate, AlphaCoveringProblem(u=cover, v=phi, alpha=alpha, beta=0.0),
                [x0], 0.0, steps)
    twin = AlphaCoveringProblem(u=_on_arrays(cover), v=_on_arrays(phi), alpha=alpha, beta=0.0)
    assert ours == _run(alpha_iterate, twin, [x0], 0.0, steps)
