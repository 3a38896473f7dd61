import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coincide.config import build_problem, config_from_dict
from coincide.errors import BracketFailure, NoCrossing
from coincide.majorant import (
    MajorantPair,
    ScalarFn,
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
        r=math.inf,
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
    """The same function without a grid form, so on_grid calls it point by point."""
    return ScalarFn(fn=f.fn, deriv=f.deriv, label=f.label)


def crossing_outcome(psi, phi, tau0, horizon):
    """Bits of tau_*, or the type and message of the first error raised."""
    try:
        pair = MajorantPair(psi=psi, phi=phi, tau0=tau0, horizon=horizon)
        return ("tau_star", smallest_crossing(pair).hex())
    except (ValueError, NoCrossing) as err:
        return (type(err).__name__, str(err))


@settings(max_examples=80, deadline=None)
@given(
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
    vectorised = crossing_outcome(psi, phi, tau0, horizon)
    pointwise = crossing_outcome(as_plain_callable(psi), as_plain_callable(phi),
                                 tau0, horizon)
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
    for f in (ScalarFn.linear(slope, intercept), ScalarFn.polynomial(coeffs), shifted):
        pointwise = np.array([f(t) for t in ts])
        assert f.on_grid(grid).tobytes() == pointwise.tobytes()


def test_flat_stretch_of_psi_minus_phi_refines_every_grid_maximum():
    # psi - phi is -1 up to 0.001 and -1e-13 (a touch within tolerance) after:
    # on the flat stretches every grid point is a maximum, and the first one
    # whose cell reaches past 0.001 is the crossing.
    pair = MajorantPair(
        psi=ScalarFn(fn=lambda t: 2.0 * t + (1.0 - 1e-13 if t >= 0.001 else 0.0)),
        phi=ScalarFn.linear(2.0, 1.0), tau0=0.0, horizon=1.0)
    assert 0.0009 <= smallest_crossing(pair) <= 0.0013


def test_narrow_bump_between_grid_points_is_found():
    # Roots of 1e-12 - (tau - 1)^2 are 1 -+ 1e-6; no grid point sees g > 0.
    pair = quad_pair(1.0, 2.0, 1.0 - 1e-12, horizon=2.3)
    assert smallest_crossing(pair) == pytest.approx(1.0 - 1e-6, abs=1e-9)


@pytest.fixture
def scalar_calls(monkeypatch):
    """Counts ScalarFn.__call__, the per-point evaluations of psi and phi."""
    calls = [0]
    call = ScalarFn.__call__

    def counted(self, tau):
        calls[0] += 1
        return call(self, tau)

    monkeypatch.setattr(ScalarFn, "__call__", counted)
    return calls


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
def test_pair_checks_and_crossing_make_few_scalar_calls(scalar_calls, build):
    # The grids go through on_grid; only the refinement of the selected
    # cells calls psi and phi point by point (the pointwise path makes about 22,000).
    smallest_crossing(build().majorants)
    assert 0 < scalar_calls[0] <= 200
