import math
import re
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from crossing_reference import reference_smallest_crossing
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coincide import majorant
from coincide.config import build_problem, config_from_dict
from coincide.errors import BracketFailure, NoCrossing
from coincide.majorant import (
    MajorantPair,
    ScalarFn,
    _quadratic_root,
    _scan_crossing,
    next_tau,
    root_tolerance,
    smallest_crossing,
    tau_sequence,
    validate_h2_start,
)
from coincide.problems import (
    build_kantorovich_instance,
    build_quadratic_instance,
    random_quadratic,
    scalar_quadratic,
)
from coincide.solver import AffineMap


def quad_pair(a: float, b: float, c: float, horizon: float = 2.0) -> MajorantPair:
    return MajorantPair(
        psi=ScalarFn.linear(b),
        phi=ScalarFn.polynomial([c, 0.0, a]),
        tau0=0.0,
        horizon=horizon,
    )


def quad_recurrence(a: float, b: float, c: float, steps: int) -> list:
    """Direct scalar oracle tau_{j+1} = (a tau_j^2 + c) / b."""
    taus = [0.0]
    for _ in range(steps):
        taus.append((a * taus[-1] ** 2 + c) / b)
    return taus


class TestSmallestCrossing:
    def test_tangential_pair_crosses_at_one(self):
        # a=1, b=2, c=1: psi - phi = -(tau-1)^2 touches zero at tau = 1.
        assert smallest_crossing(quad_pair(1.0, 2.0, 1.0)) == pytest.approx(1.0, abs=1e-6)

    def test_transversal_pair_matches_closed_form(self):
        # roots of tau^2 - 2 tau + 0.75: (b - sqrt(D)) / (2a) = 0.5.
        assert smallest_crossing(quad_pair(1.0, 2.0, 0.75)) == pytest.approx(0.5, abs=1e-12)

    def test_no_crossing_raises(self):
        pair = MajorantPair(psi=ScalarFn.linear(1.0),
                            phi=ScalarFn.polynomial([2.0, 0.0, 1.0]),
                            tau0=0.0, horizon=10.0)
        with pytest.raises(NoCrossing):
            smallest_crossing(pair)

    def test_zero_gap_returns_tau0(self):
        pair = quad_pair(1.0, 2.0, 0.0)
        assert smallest_crossing(pair) == 0.0

    def test_smallest_of_two_roots_is_returned(self):
        # Crossing region is [0.5, 1.5]; the scan must stop at the left root.
        ts = smallest_crossing(quad_pair(1.0, 2.0, 0.75, horizon=5.0))
        assert ts == pytest.approx(0.5, abs=1e-12)


class TestNextTau:
    def test_first_step_of_tangential_pair(self):
        pair = quad_pair(1.0, 2.0, 1.0)
        assert next_tau(pair, 0.0, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_second_step_of_tangential_pair(self):
        pair = quad_pair(1.0, 2.0, 1.0)
        assert next_tau(pair, 0.5, 1.0) == pytest.approx(0.625, abs=1e-13)

    def test_linear_contraction_pair(self):
        pair = MajorantPair(psi=ScalarFn.linear(1.0),
                            phi=ScalarFn.linear(0.5, 0.5),
                            tau0=0.0, horizon=4.0)
        assert next_tau(pair, 0.0, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_bracket_failure_on_inconsistent_state(self):
        pair = quad_pair(1.0, 2.0, 0.75)
        with pytest.raises(BracketFailure):
            next_tau(pair, 0.4, 0.41)  # psi(0.4) = 0.8 < phi(0.4) = 0.91 > psi(0.41)


class TestTauSequence:
    def test_transversal_tail_ratio(self):
        # e_{j+1}/e_j -> phi'(tau_*) / b = 2 a tau_* / b = 0.5.
        seq = tau_sequence(quad_pair(1.0, 2.0, 0.75), max_steps=100, tail_tol=1e-10)
        assert seq.converged
        assert seq.tau_star == pytest.approx(0.5, abs=1e-12)
        tails = [seq.tau_star - t for t in seq.taus]
        ratios = [b / a for a, b in zip(tails, tails[1:]) if a > 1e-8]
        assert ratios[-1] == pytest.approx(0.5, abs=1e-3)

    def test_transversal_matches_direct_recurrence(self):
        seq = tau_sequence(quad_pair(1.0, 2.0, 0.75), max_steps=60, tail_tol=0.0)
        oracle = quad_recurrence(1.0, 2.0, 0.75, len(seq.taus) - 1)
        assert max(abs(s - o) for s, o in zip(seq.taus, oracle)) <= 1e-13

    def test_tangential_tail_decays_like_two_over_j(self):
        seq = tau_sequence(quad_pair(1.0, 2.0, 1.0), max_steps=1000, tail_tol=1e-3)
        assert not seq.converged  # 2/j stays above 1e-3 for j <= 1000
        assert len(seq.taus) == 1001
        for j in (100, 300, 1000):
            assert 1.0 - seq.taus[j] == pytest.approx(2.0 / j, rel=0.25)

    def test_linear_pair_closed_form(self):
        pair = MajorantPair(psi=ScalarFn.linear(1.0),
                            phi=ScalarFn.linear(0.5, 0.5),
                            tau0=0.0, horizon=4.0)
        seq = tau_sequence(pair, max_steps=100, tail_tol=1e-12)
        assert seq.converged
        assert seq.tau_star == pytest.approx(1.0, abs=1e-12)
        for j, t in enumerate(seq.taus):
            assert t == pytest.approx(1.0 - 0.5 ** j, abs=1e-13)

    def test_zero_gap_is_immediately_converged(self):
        seq = tau_sequence(quad_pair(1.0, 2.0, 0.0), max_steps=10, tail_tol=1e-12)
        assert seq.converged and seq.taus == [0.0]


class TestValidateH2Start:
    def test_gap_equal_to_offset_is_admissible(self):
        # phi(0) - psi(0) = c = 1 for the tangential pair.
        assert validate_h2_start(quad_pair(1.0, 2.0, 1.0), 1.0)

    def test_gap_above_offset_is_rejected(self):
        assert not validate_h2_start(quad_pair(1.0, 2.0, 1.0), 1.1)

    def test_zero_gap_is_always_admissible(self):
        assert validate_h2_start(quad_pair(0.3, 1.7, 0.4), 0.0)


class TestPairValidation:
    def test_plateaued_psi_is_rejected(self):
        with pytest.raises(ValueError, match="psi"):
            MajorantPair(psi=ScalarFn(fn=lambda t: min(t, 0.5)),
                         phi=ScalarFn.linear(0.5, 1.0), tau0=0.0, horizon=2.0)

    def test_decreasing_phi_is_rejected(self):
        with pytest.raises(ValueError, match="phi"):
            MajorantPair(psi=ScalarFn.linear(1.0),
                         phi=ScalarFn.linear(-0.1, 1.0), tau0=0.0, horizon=2.0)

    def test_negative_initial_gap_is_rejected(self):
        with pytest.raises(ValueError, match="gap"):
            MajorantPair(psi=ScalarFn.linear(1.0, 1.0),
                         phi=ScalarFn.linear(2.0, 0.0), tau0=0.0, horizon=2.0)


class TestSequenceInvariants:
    def test_strictly_increasing_and_bounded(self):
        seq = tau_sequence(quad_pair(1.0, 2.0, 0.9), max_steps=500, tail_tol=1e-11)
        for a, b in zip(seq.taus, seq.taus[1:]):
            assert b > a
        assert all(t <= seq.tau_star + 1e-15 for t in seq.taus)

    def test_defect_identity(self):
        pair = quad_pair(1.0, 2.0, 0.9)
        seq = tau_sequence(pair, max_steps=500, tail_tol=1e-11)
        for a, b in zip(seq.taus, seq.taus[1:]):
            assert abs(pair.psi(b) - pair.phi(a)) <= 10.0 * root_tolerance(b)

    def test_error_ratio_converges_to_slope_quotient(self):
        # (tau_* - tau_{j+1}) / (tau_* - tau_j) -> phi'(tau_*) / psi'(tau_*).
        a, b, c = 1.0, 2.0, 0.75
        pair = quad_pair(a, b, c)
        seq = tau_sequence(pair, max_steps=40, tail_tol=0.0)
        oracle = quad_recurrence(a, b, c, 40)
        tau_star = seq.tau_star
        expected = pair.phi.derivative(tau_star) / b
        for taus in (seq.taus, oracle):
            ratio = (tau_star - taus[31]) / (tau_star - taus[30])
            assert ratio == pytest.approx(expected, abs=1e-3)

    def test_tangential_tail_window_against_oracle(self):
        seq = tau_sequence(quad_pair(1.0, 2.0, 1.0), max_steps=1000, tail_tol=0.0)
        oracle = quad_recurrence(1.0, 2.0, 1.0, 1000)
        for j in range(100, 1001):
            e = 1.0 - seq.taus[j]
            assert 1.5 <= j * e <= 2.5
            assert abs(seq.taus[j] - oracle[j]) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=3.0),
    b=st.floats(min_value=0.5, max_value=4.0),
    margin=st.floats(min_value=0.05, max_value=0.95),
)
def test_crossing_matches_quadratic_formula(a, b, margin):
    c = b * b * (1.0 - margin) / (4.0 * a)
    pair = quad_pair(a, b, c, horizon=b / a)
    found = smallest_crossing(pair)
    expected = (b - math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    assert found == pytest.approx(expected, abs=1e-9 * (1.0 + expected))
    seq = tau_sequence(pair, max_steps=30, tail_tol=0.0)
    for lo, hi in zip(seq.taus, seq.taus[1:]):
        assert abs(pair.psi(hi) - pair.phi(lo)) <= 10.0 * root_tolerance(hi)


def as_plain_callable(f: ScalarFn) -> ScalarFn:
    """The same function with no coefficients, so on_grid calls it point by point."""
    return ScalarFn(fn=f.fn, deriv=f.deriv)


def crossing_outcome(psi, phi, tau0, horizon, crossing=_scan_crossing):
    """Bits of crossing(pair), or the type and message of the first error raised.

    The scan by default: a quadratic pair of library functions takes the
    closed form in smallest_crossing, and its plain-callable copy is scanned.
    """
    try:
        pair = MajorantPair(psi=psi, phi=phi, tau0=tau0, horizon=horizon)
        return ("tau_star", crossing(pair).hex())
    except (ValueError, NoCrossing) as err:
        return (type(err).__name__, str(err))


# A linear psi against a polynomial phi on a window.
LINEAR_POLYNOMIAL_PAIRS = dict(
    slope=st.floats(min_value=0.05, max_value=4.0),
    intercept=st.sampled_from([0.0, 0.0, 0.25, -0.5]),
    # Mostly increasing phi (a negative higher coefficient is rare), so most
    # pairs pass validation and reach the crossing scan.
    coeffs=st.tuples(st.floats(min_value=-1.0, max_value=3.0),
                     st.lists(st.floats(min_value=-0.25, max_value=3.0),
                              min_size=1, max_size=3)).map(lambda c: [c[0], *c[1]]),
    tau0=st.sampled_from([0.0, 0.0, 0.5, -1.0]),
    horizon=st.floats(min_value=0.1, max_value=10.0),
)


@settings(max_examples=80, deadline=None)
@given(**LINEAR_POLYNOMIAL_PAIRS)
# D = 0 tangency, on and off the grid.
@example(slope=2.0, intercept=0.0, coeffs=[1.0, 0.0, 1.0], tau0=0.0, horizon=2.0)
@example(slope=2.0, intercept=0.0, coeffs=[1.0, 0.0, 1.0], tau0=0.0, horizon=2.3)
# Narrow bump: psi - phi = 1e-12 - (tau - 1)^2 is positive only between grid points.
@example(slope=2.0, intercept=0.0, coeffs=[1.0 - 1e-12, 0.0, 1.0], tau0=0.0, horizon=2.3)
# Crossing at tau0.
@example(slope=2.0, intercept=0.0, coeffs=[0.0, 0.0, 1.0], tau0=0.0, horizon=2.0)
# NoCrossing: phi = tau^2 + 2 stays above psi = tau.
@example(slope=1.0, intercept=0.0, coeffs=[2.0, 0.0, 1.0], tau0=0.0, horizon=10.0)
def test_grid_and_pointwise_paths_agree(slope, intercept, coeffs, tau0, horizon):
    assert_paths_agree(ScalarFn.linear(slope, intercept), ScalarFn.polynomial(coeffs),
                       tau0, horizon)


# Fewer examples than above: the reference refines every grid maximum of a
# flat pair, about 0.8 s each, and the strategy draws equal slopes often.
@settings(max_examples=25, deadline=None)
@given(**LINEAR_POLYNOMIAL_PAIRS)
@example(slope=2.0, intercept=0.0, coeffs=[1.0, 0.0, 1.0], tau0=0.0, horizon=2.3)
@example(slope=2.0, intercept=0.0, coeffs=[1.0 - 1e-12, 0.0, 1.0], tau0=0.0, horizon=2.3)
# Flat: psi - phi is -0.5 up to the last bit on every grid point, and nearly so.
@example(slope=0.1, intercept=0.0, coeffs=[0.5, 0.1], tau0=0.0, horizon=0.1)
@example(slope=0.5, intercept=0.25, coeffs=[0.75, 0.5, 1e-14], tau0=-1.0, horizon=2.0)
def test_scan_keeps_the_bits_of_the_reference_scan(slope, intercept, coeffs, tau0, horizon):
    # Refining a flat run of grid maxima once keeps the bits of refining each.
    # smallest_crossing scans the plain-callable copy, so its scan is checked too.
    psi, phi = ScalarFn.linear(slope, intercept), ScalarFn.polynomial(coeffs)
    assert crossing_outcome(psi, phi, tau0, horizon) == \
        crossing_outcome(psi, phi, tau0, horizon, reference_smallest_crossing)
    psi, phi = as_plain_callable(psi), as_plain_callable(phi)
    assert crossing_outcome(psi, phi, tau0, horizon, smallest_crossing) == \
        crossing_outcome(psi, phi, tau0, horizon, reference_smallest_crossing)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=3.0),
    b=st.floats(min_value=0.5, max_value=4.0),
    margin=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-9),
                     st.floats(min_value=0.0, max_value=1.0)),
    reach=st.floats(min_value=0.5, max_value=2.0),
)
def test_grid_and_pointwise_paths_agree_near_tangency(a, b, margin, reach):
    # D = margin * b^2: tangent at margin 0, narrow crossings just above it.
    c = b * b * (1.0 - margin) / (4.0 * a)
    assert_paths_agree(ScalarFn.linear(b), ScalarFn.polynomial([c, 0.0, a]),
                       0.0, reach * b / a)


def assert_paths_agree(psi, phi, tau0, horizon):
    """The scan of the polynomials (one on_grid call each) and of their
    plain-callable copies (point by point) agree. Both scan one pair,
    validated on the grid as plain callables: polynomials are validated from
    their coefficients."""
    pointwise = crossing_outcome(as_plain_callable(psi), as_plain_callable(phi),
                                 tau0, horizon)
    if pointwise[0] == "ValueError":
        return
    pair = MajorantPair(psi=as_plain_callable(psi), phi=as_plain_callable(phi),
                        tau0=tau0, horizon=horizon)
    pair.psi, pair.phi = psi, phi
    try:
        vectorised = ("tau_star", _scan_crossing(pair).hex())
    except NoCrossing as err:
        vectorised = ("NoCrossing", str(err))
    assert vectorised == pointwise


@settings(max_examples=60, deadline=None)
@given(
    slope=st.floats(min_value=-4.0, max_value=4.0),
    intercept=st.floats(min_value=-4.0, max_value=4.0),
    coeffs=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=0, max_size=5),
    ts=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20),
)
def test_on_grid_has_the_bits_of_the_scalar_call(slope, intercept, coeffs, ts):
    grid = np.array(ts)
    shifted = build_kantorovich_instance(
        AffineMap([[0.5]], [intercept], domain_center=[0.0]),
        ScalarFn.linear(0.25 + abs(slope)), [0.0]).majorants.phi
    for f in (ScalarFn.linear(slope, intercept), ScalarFn.polynomial([intercept, slope]),
              ScalarFn.polynomial(coeffs), shifted):
        pointwise = np.array([f(t) for t in ts])
        assert f.on_grid(grid).tobytes() == pointwise.tobytes()


def test_the_shift_of_a_polynomial_is_a_polynomial():
    shifted = ScalarFn.polynomial([1.0, 2.0, 3.0]).shifted(0.5)
    assert shifted.coeffs == (1.5, 2.0, 3.0)
    assert shifted.derivative(2.0) == 14.0
    assert ScalarFn.polynomial([]).shifted(0.5).coeffs == (0.5,)
    plain = ScalarFn(fn=lambda t: 2.0 * t, deriv=lambda t: 2.0).shifted(0.5)
    assert plain.coeffs is None
    assert (plain(1.0), plain.derivative(1.0)) == (2.5, 2.0)


@settings(max_examples=200, deadline=None)
@given(lip=st.floats(min_value=1e-6, max_value=1e6),
       gap=st.floats(min_value=0.0, max_value=1e6),
       ts=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20))
def test_the_kantorovich_shift_is_linear_plus_the_gap(lip, gap, ts):
    # build_kantorovich_instance shifts linear(lip) by gap - linear(lip)(0.0),
    # which is gap. Each value has the bits of (t * lip + 0.0) + gap, the
    # profile's value plus the offset.
    phi = ScalarFn.linear(lip).shifted(gap)
    assert phi(0.0) == gap
    assert phi.coeffs == (gap, lip)
    for t in ts:
        assert phi(t).hex() == ((t * lip + 0.0) + gap).hex()


def counting(f: ScalarFn, calls: list) -> ScalarFn:
    """f with its fn wrapped so that each call is appended to calls."""
    fn = f.fn

    def counted(t):
        calls.append(np.shape(t))
        return fn(t)

    f.fn = counted
    return f


def test_on_grid_calls_a_library_function_once_and_any_other_per_point():
    grid = np.linspace(-2.0, 3.0, 101)
    shifted = build_kantorovich_instance(
        AffineMap([[0.5]], [0.5], domain_center=[0.0]), ScalarFn.linear(0.5),
        [0.0]).majorants.phi
    for f in (ScalarFn.linear(0.5, 0.25), ScalarFn.polynomial([1.0, 0.0, 2.0]),
              ScalarFn.polynomial([]), shifted):
        calls = []
        values = counting(f, calls).on_grid(grid)
        assert calls == [grid.shape] and values.shape == grid.shape
    calls = []
    user = counting(ScalarFn(fn=lambda t: 2.0 * t + 1.0), calls)
    assert user.on_grid(grid).tolist() == [2.0 * t + 1.0 for t in grid.tolist()]
    assert calls == [()] * grid.size


@pytest.fixture
def golden_calls(monkeypatch):
    """The (lo, hi) of each golden-section refinement of a grid maximum."""
    calls = []
    golden = majorant._golden_max

    def counted(g, lo, hi):
        calls.append((lo, hi))
        return golden(g, lo, hi)

    monkeypatch.setattr(majorant, "_golden_max", counted)
    return calls


def test_flat_stretch_of_psi_minus_phi_is_refined_once(golden_calls):
    # psi - phi is -1 up to 0.001 and -1e-13 (a touch within tolerance) after:
    # on the flat stretches every grid point is a maximum. Each stretch is
    # refined at its first one, and the first of the second stretch, whose
    # cell reaches past 0.001, is the crossing, with the bits that refining
    # every maximum gives.
    pair = MajorantPair(
        psi=ScalarFn(fn=lambda t: 2.0 * t + (1.0 - 1e-13 if t >= 0.001 else 0.0)),
        phi=ScalarFn.linear(2.0, 1.0), tau0=0.0, horizon=1.0)
    found = smallest_crossing(pair)
    assert 0.0009 <= found <= 0.0013
    assert len(golden_calls) == 2
    assert found.hex() == reference_smallest_crossing(pair).hex()


def test_a_parallel_pair_is_refined_once(golden_calls):
    # psi - phi is -0.5 or its float neighbour at every grid point: all of it
    # is one flat run, so the scan of the plain callables refines once (the
    # reference makes 5,096). The polynomials are isolated, with no grid.
    psi, phi = ScalarFn.linear(0.1), ScalarFn.linear(0.1, 0.5)
    message = ("psi - phi < 0 on all of [0.0, 0.1] (max -5.000000e-01); "
               "majorant hypotheses fail")
    for pair_psi, pair_phi, refinements in ((psi, phi, 0), (as_plain_callable(psi),
                                                            as_plain_callable(phi), 1)):
        pair = MajorantPair(psi=pair_psi, phi=pair_phi, tau0=0.0, horizon=0.1)
        with pytest.raises(NoCrossing, match=f"^{re.escape(message)}$"):
            smallest_crossing(pair)
        assert len(golden_calls) == refinements


def test_narrow_bump_between_grid_points_is_found():
    # Roots of 1e-12 - (tau - 1)^2 are 1 -+ 1e-6; no grid point sees g > 0.
    pair = quad_pair(1.0, 2.0, 1.0 - 1e-12, horizon=2.3)
    assert smallest_crossing(pair) == pytest.approx(1.0 - 1e-6, abs=1e-9)


CUSTOM_SCALAR = {
    "kind": "custom-scalar",
    "custom_scalar": {"phi_poly": [0.3, 0.0, 0.0, 1.0], "psi_slope": 2.0,
                      "majorant_poly": [0.3, 0.0, 0.0, 1.0], "horizon": 1.6},
}


@pytest.mark.parametrize("build", [
    lambda: build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75)),
    lambda: build_quadratic_instance(scalar_quadratic(1.0, 2.0, 1.0)),
    lambda: build_quadratic_instance(random_quadratic(3, 2, 0.5, seed=12345)),
    lambda: build_kantorovich_instance(
        AffineMap([[0.5]], [0.5], domain_center=[0.0], domain_radius=8.0),
        ScalarFn.linear(0.5), [0.0]),
    lambda: build_kantorovich_instance(
        AffineMap([[0.25]], [0.3], domain_center=[0.2]), ScalarFn.linear(0.25), [0.2]),
    lambda: build_problem(config_from_dict(CUSTOM_SCALAR)).instance,
], ids=["quadratic", "quadratic-d-zero", "random-quadratic", "kantorovich",
        "kantorovich-unbounded", "custom-scalar"])
def test_pair_checks_and_crossing_read_no_grid(scalar_ops, build):
    # Polynomials are decided from their coefficients (the grids read 1,000
    # and 10,001 values of psi and of phi). validate calls psi and phi at
    # tau0. The closed form calls them at tau_*, and so does the cubic: it
    # reads psi - phi in coefficient form, and its walk calls psi and phi at
    # the float its Newton steps end on, where psi - phi is 0.
    pair = build().majorants
    scalar_ops.clear()
    pair.validate()
    assert dict(scalar_ops) == {"call": 2}
    scalar_ops.clear()
    smallest_crossing(pair)
    assert dict(scalar_ops) == {"call": 2}


def test_linear_psi_next_tau_calls_only_phi(scalar_ops):
    # psi is linear, so the step evaluates it inline and walks to the root:
    # the one ScalarFn call is phi(tau_j). Bisecting psi(t) - target makes 55.
    pair = quad_pair(1.0, 2.0, 0.75)
    tau_star = smallest_crossing(pair)
    scalar_ops.clear()
    tau = next_tau(pair, 0.1, tau_star)
    assert 0.1 < tau < tau_star
    assert dict(scalar_ops) == {"call": 1}


def exact_quadratic(a: float, b: float, c: float):
    """a t^2 - b t + c in exact rational arithmetic at the float t."""
    return lambda t: Fraction(a) * Fraction(t) ** 2 - Fraction(b) * Fraction(t) + Fraction(c)


class TestClosedFormCrossing:
    @pytest.mark.parametrize("a, b, c, expected", [
        (2.0 ** 10, 2.0, 2.0 ** -10, 2.0 ** -10),
        (1.0, 2.0, 1.0, 1.0),
    ])
    def test_d_zero_is_the_tangent_point(self, a, b, c, expected):
        # The scan stops about 6e-9 relative below it, on the unsafe side.
        assert smallest_crossing(quad_pair(a, b, c)) == expected

    @pytest.mark.parametrize("c", [1e-10, 1e-12])
    def test_a_small_offset_is_within_one_ulp_of_the_root(self, c):
        # (b - sqrt(D)) / (2a) reads 5.000000413701855e-11 at c = 1e-10.
        a, b = 1.0, 2.0
        tau = smallest_crossing(quad_pair(a, b, c))
        p = exact_quadratic(a, b, c)
        # p falls through zero at its smaller root 2c / (b + sqrt(D)).
        assert p(math.nextafter(tau, -math.inf)) >= 0 >= p(math.nextafter(tau, math.inf))
        assert tau == 2.0 * c / (b + math.sqrt(b * b - 4.0 * a * c))

    @pytest.mark.parametrize("build, root", [
        (lambda: quad_pair(1.0, 2.0, 1e-12), 5.00000000000125e-13),
        # The Kantorovich pair with gap 1e-13 and lip 0.5: gap / (1 - lip).
        (lambda: build_kantorovich_instance(
            AffineMap([[0.5]], [1e-13], domain_center=[0.0], domain_radius=8.0),
            ScalarFn.linear(0.5), [0.0]).majorants, 2e-13),
    ], ids=["quadratic", "kantorovich"])
    def test_a_gap_within_the_root_tolerance_is_not_a_crossing(self, build, root):
        # |psi(0) - phi(0)| passes the scan's root test at tau0; the root is
        # further.
        pair = build()
        assert _scan_crossing(pair) == 0.0
        assert smallest_crossing(pair) == root

    @pytest.mark.parametrize("build, tau_star", [
        (lambda: build_quadratic_instance(scalar_quadratic(1.0, 2.0, 0.75)).majorants, 0.5),
        # psi = tau against phi = 0.5 + 0.5 tau: tau_* = C / B = 0.5 / 0.5.
        (lambda: MajorantPair(psi=ScalarFn.linear(1.0), phi=ScalarFn.linear(0.5, 0.5),
                              tau0=0.0, horizon=2.0), 1.0),
        # gap = ||f(x0) - x0|| = 0.5 and lip = 0.5: tau_* = gap / (1 - lip).
        (lambda: build_kantorovich_instance(
            AffineMap([[0.5]], [0.5], domain_center=[0.0], domain_radius=8.0),
            ScalarFn.linear(0.5), [0.0]).majorants, 1.0),
    ], ids=["quadratic", "linear", "kantorovich"])
    def test_a_closed_form_pair_makes_two_calls_and_no_grid(self, build, tau_star,
                                                            scalar_ops):
        pair = build()
        scalar_ops.clear()
        assert smallest_crossing(pair) == tau_star
        # psi(tau_*) and phi(tau_*) for the root test
        assert dict(scalar_ops) == {"call": 2}

    @pytest.mark.parametrize("psi, phi, tau0", [
        # Pairs the closed form does not take. Polynomials are isolated (a
        # cubic, a parallel linear phi with B = 0, D < 0, roots left of the
        # window, a root at tau0) and plain callables are scanned: all find
        # the scan's crossing.
        (ScalarFn.linear(2.0), ScalarFn.polynomial([0.3, 0.0, 0.0, 1.0]), 0.0),
        (ScalarFn.linear(1.0), ScalarFn.linear(1.0, 0.5), 0.0),
        (as_plain_callable(ScalarFn.linear(2.0)),
         ScalarFn.polynomial([0.75, 0.0, 1.0]), 0.0),
        (ScalarFn.linear(2.0), as_plain_callable(ScalarFn.polynomial([0.75, 0.0, 1.0])), 0.0),
        (ScalarFn.linear(1.0), ScalarFn.polynomial([2.0, 0.0, 1.0]), 0.0),
        # Both roots, 0.5 and 1.5, lie left of the window.
        (ScalarFn.linear(2.0), ScalarFn.polynomial([0.75, 0.0, 1.0]), 2.0),
        (ScalarFn.linear(2.0), ScalarFn.polynomial([0.0, 0.0, 1.0]), 0.0),
    ])
    def test_other_pairs_agree_with_the_scan(self, psi, phi, tau0):
        pair = MajorantPair(psi=psi, phi=phi, tau0=tau0, horizon=2.0)
        assert _quadratic_root(pair) is None
        assert crossing_outcome(psi, phi, tau0, 2.0, smallest_crossing) == \
            crossing_outcome(psi, phi, tau0, 2.0)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=3.0),
    b=st.floats(min_value=0.5, max_value=4.0),
    margin=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-9),
                     st.floats(min_value=0.0, max_value=1.0)),
    reach=st.floats(min_value=0.5, max_value=2.0),
)
@example(a=1.0, b=2.0, margin=0.0, reach=1.0)
def test_closed_form_and_scan_agree_within_the_root_tolerance(a, b, margin, reach):
    c = b * b * (1.0 - margin) / (4.0 * a)
    pair = quad_pair(a, b, c, horizon=reach * b / a)
    closed = _quadratic_root(pair)
    if closed is None:  # D < 0 by rounding, or the root past the window: scanned
        return
    scan = _scan_crossing(pair)

    def g(t):
        return pair.psi(t) - pair.phi(t)

    # Both pass the root test. Near D = 0 psi - phi is flat, and the scan
    # stops where it first meets the test: within sqrt(tol / a) of the
    # tangent point. A transversal crossing is bisected to float adjacency.
    assert abs(g(closed)) <= root_tolerance(closed)
    assert abs(g(scan)) <= root_tolerance(scan)
    assert abs(closed - scan) <= math.sqrt(root_tolerance(closed) / a)
    if margin >= 1e-4:
        assert abs(closed - scan) <= root_tolerance(closed)


def polynomial_pair(psi, phi, tau0=0.0, horizon=2.0) -> MajorantPair:
    return MajorantPair(psi=ScalarFn.polynomial(psi), phi=ScalarFn.polynomial(phi),
                        tau0=tau0, horizon=horizon)


class TestPolynomialPairs:
    def test_a_tangent_cubic_crosses_at_the_tangent_point(self):
        # psi - phi = -(2/3)(tau - 1)^2 (tau + 2) touches 0 at tau = 1; the
        # scan stops at 0.9999999938964843, 6.1e-9 short of it.
        assert smallest_crossing(polynomial_pair([0.0, 2.0], [4 / 3, 0.0, 0.0, 2 / 3])) == 1.0

    def test_a_dip_between_grid_points_is_refused(self):
        # phi' = 3 tau^2 - 3e-6 < 0 on (0, 1e-3): phi(5e-4) < phi(0) = 0.1,
        # inside the first cell of the 1,000-point grid, which accepts it.
        with pytest.raises(ValueError,
                           match=r"^phi is not strictly increasing near tau=0\.0$"):
            polynomial_pair([0.0, 2.0], [0.1, -3e-6, 0.0, 1.0], horizon=10.0)

    def test_a_phi_flat_in_floats_is_strictly_increasing(self):
        # 1 + 1e-20 tau^3 rounds to 1.0 on all of the window, which the grid
        # refused; its derivative is positive there.
        assert smallest_crossing(polynomial_pair([0.0, 2.0], [1.0, 0.0, 0.0, 1e-20])) == 0.5

    @pytest.mark.parametrize("psi, phi, message", [
        # A constant phi, and a psi that turns down inside the window.
        ([0.0, 2.0], [1.0], "phi is not strictly increasing near tau=0.0"),
        ([0.0, 2.0, -1.0], [1.0, 1.0], "psi is not strictly increasing near tau=1.0"),
        # Both descend from tau0: psi is named first, as on the grid.
        ([0.0, -1.0], [1.0, -1.0], "psi is not strictly increasing near tau=0.0"),
    ])
    def test_the_first_descent_is_named(self, psi, phi, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            polynomial_pair(psi, phi)

    def test_a_quartic_is_isolated_by_the_recursion(self, scalar_ops):
        # phi = 0.25 + tau^4 against psi = 2 tau: g' = 2 - 4 tau^3 is a cubic
        # whose root 2^(-1/3) comes by the recursion on g''; the crossing is
        # the smaller root of 0.25 - 2 tau + tau^4, near 0.1251.
        pair = polynomial_pair([0.0, 2.0], [0.25, 0.0, 0.0, 0.0, 1.0])
        scalar_ops.clear()
        tau = smallest_crossing(pair)
        assert scalar_ops["on_grid"] == 0
        assert abs(pair.psi(tau) - pair.phi(tau)) <= root_tolerance(tau)
        assert tau == pytest.approx(_scan_crossing(pair), abs=root_tolerance(tau))

    def test_undecided_pairs_go_to_the_grids(self, scalar_ops):
        # The roots of phi' = 2e200 tau + 3e200 tau^2 and of g' overflow in
        # D = c1^2 - 4 c2 c0: undecided, so validated and scanned on the grids.
        pair = polynomial_pair([0.0, 2.0], [0.5, 0.0, 1e200, 1e200])
        assert scalar_ops["on_grid"] == 2  # the validation grid, for psi and phi
        scalar_ops.clear()
        with pytest.raises(NoCrossing):
            smallest_crossing(pair)
        assert scalar_ops["on_grid"] == 2  # the scan grid
        # Values that may overflow on the window: the grid finds where.
        with pytest.raises(ValueError, match=r"^majorant functions must be finite at tau=565\.0$"):
            polynomial_pair([0.0, 2.0], [0.5, 1e300, 0.0, 1e300], horizon=1e3)


def psi_minus_phi_roots(pair: MajorantPair) -> list:
    """Critical points of psi - phi in the window, from the coefficients."""
    gc = [p - q for p, q in zip_longest(pair.psi.coeffs, pair.phi.coeffs, fillvalue=0.0)]
    return majorant._real_roots(majorant._derivative(tuple(gc)), pair.tau0, pair.tau_end)


@settings(max_examples=150, deadline=None)
@given(
    slope=st.floats(min_value=0.05, max_value=4.0),
    intercept=st.sampled_from([0.0, 0.25, -0.5]),
    coeffs=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4),
    tau0=st.sampled_from([0.0, 0.0, 0.5, -1.0]),
    horizon=st.floats(min_value=0.1, max_value=10.0),
)
@example(slope=2.0, intercept=0.0, coeffs=[4 / 3, 0.0, 0.0, 2 / 3], tau0=0.0, horizon=2.0)
@example(slope=2.0, intercept=0.0, coeffs=[1e-12, 0.0, 0.0, 1.0], tau0=0.0, horizon=1.0)
# A start within the tolerance, and no sign change after it: tau0, not the
# window's end, where psi - phi has risen back to -3e-201. A wider window
# holds the sign change at 3e-201.
@example(slope=1.0, intercept=0.0, coeffs=[2.9878755756556734e-201, 0.0, 0.0, 1.0],
         tau0=-1.0, horizon=1.0)
@example(slope=1.0, intercept=0.0, coeffs=[2.9878755756556734e-201, 0.0, 0.0, 1.0],
         tau0=-1.0, horizon=2.0)
# A bump of 5e-13 above 0 at the critical point, within the tolerance.
@example(slope=2.0, intercept=0.0, coeffs=[4 / 3 - 5e-13, 0.0, 0.0, 2 / 3], tau0=0.0,
         horizon=2.0)
def test_isolated_crossing_meets_the_root_test_and_the_scan(slope, intercept, coeffs,
                                                            tau0, horizon):
    psi, phi = ScalarFn.linear(slope, intercept), ScalarFn.polynomial(coeffs)
    try:
        pair = MajorantPair(psi=psi, phi=phi, tau0=tau0, horizon=horizon)
    except ValueError:
        return
    scanned = MajorantPair(psi=psi, phi=phi, tau0=tau0, horizon=horizon)
    scanned.psi, scanned.phi = as_plain_callable(psi), as_plain_callable(phi)
    outcomes = []
    for p in (pair, scanned):
        try:
            outcomes.append(smallest_crossing(p))
        except NoCrossing as err:
            outcomes.append(str(err))
    isolated, scan = outcomes
    if isinstance(scan, str):
        assert isinstance(isolated, str)
        return
    tol = root_tolerance(isolated)
    assert abs(pair.psi(isolated) - pair.phi(isolated)) <= tol
    if scan == tau0 and isolated > tau0:
        # A start within the tolerance: the scan stops there, and the
        # isolation goes on to the sign change after it.
        assert isolated not in psi_minus_phi_roots(pair)
    elif abs(isolated - scan) > tol:
        # A tangency: the isolation returns the critical point, and the scan
        # stops within about sqrt(ROOT_TOL) of it on the left, or bisects the
        # left flank of a bump that rises above 0 by at most the tolerance.
        assert isolated in psi_minus_phi_roots(pair)
        assert scan - isolated <= math.sqrt(tol)
