"""Trace invariants of random custom-scalar instances built from configs.

A map p(x) = sum p_k x^k under a majorant m(tau) = sum m_k tau^k with every
m_k >= 0 and |p_k| <= m_k, started at x0 = tau0 = 0, satisfies H2 by the
majorant argument: |p'(x)| <= sum k |p_k| |x|^(k-1) <= m'(|x|) <= m'(tau)
whenever |x| <= tau. So a strict solve may end only in a certified trace or,
when psi never meets phi in the window, in NoCrossing.
"""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import assert_trace_invariants
from coincide.config import ConfigError, build_problem, config_from_dict
from coincide.errors import NoCrossing
from coincide.solver import STATUS_CONVERGED, STATUS_MAX_STEPS, coincidence_solve


@st.composite
def majorized_configs(draw):
    degree = draw(st.integers(1, 3))
    m = [draw(st.floats(0.0, 1.0))] + draw(
        st.lists(st.floats(0.0, 4.0), min_size=degree, max_size=degree))
    # |m_k * u| <= m_k for |u| <= 1, and rounding keeps it there.
    p = [mk * draw(st.floats(-1.0, 1.0)) for mk in m]
    return {
        "kind": "custom-scalar",
        "max_steps": draw(st.integers(1, 200)),
        "custom_scalar": {
            "phi_poly": p,
            "majorant_poly": m,
            # Steeper than phi at tau0, so that most draws have a crossing.
            "psi_slope": m[1] + draw(st.floats(0.1, 8.0)),
            "horizon": draw(st.floats(0.1, 8.0)),
        },
    }


@settings(max_examples=200, deadline=None)
@given(majorized_configs())
def test_strict_solves_keep_the_trace_invariants(data):
    try:
        inst = build_problem(config_from_dict(data)).instance
    except ConfigError:
        reject()  # e.g. a constant majorant, which is not strictly increasing
    try:
        _, trace = coincidence_solve(inst, residual_tol=1e-10,
                                     max_steps=data["max_steps"], h2_check="strict")
    except NoCrossing:
        return
    assert trace.status in (STATUS_CONVERGED, STATUS_MAX_STEPS), trace.detail
    assert_trace_invariants(inst, trace)
