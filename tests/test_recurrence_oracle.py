"""Every budget of a scalar quadratic solve against the exact recurrence.

For psi(tau) = b tau and phi(tau) = a tau^2 + c the recurrence
psi(tau_{j+1}) = phi(tau_j) has the closed form t = (a tau_j^2 + c) / b. It is
computed here in 50-digit decimal arithmetic from the float tau_j of the
trace (every float is an exact decimal), so the oracle shares no code with
`next_tau`, its bisection or any closed form the solver may use instead.
"""

from decimal import Decimal, localcontext

import pytest

from coincide.config import build_problem, gallery_config
from coincide.majorant import ROOT_TOL_REL
from coincide.problems import build_quadratic_instance, scalar_quadratic
from coincide.solver import STATUS_CONVERGED, STATUS_MAX_STEPS, coincidence_solve


def checked_steps(q, residual_tol: float, max_steps: int) -> int:
    """Assert each recorded tau_{j+1} < tau_star against the exact recurrence;
    returns how many were checked."""
    _, trace = coincidence_solve(build_quadratic_instance(q), residual_tol=residual_tol,
                                 max_steps=max_steps)
    assert trace.status in (STATUS_CONVERGED, STATUS_MAX_STEPS), trace.detail
    a, b, c = (Decimal(v) for v in (q.a, q.b, q.c))
    checked = 0
    with localcontext() as ctx:
        ctx.prec = 50
        records = trace.records
        for prev, cur in zip(records, records[1:]):
            if cur.tau >= trace.tau_star:
                continue  # clamped to the crossing, not a root of the recurrence
            want = (a * Decimal(prev.tau) ** 2 + c) / b
            bound = Decimal(ROOT_TOL_REL) * (1 + abs(want))
            assert abs(Decimal(cur.tau) - want) <= bound, (cur.j, cur.tau.hex(), str(want))
            checked += 1
    return checked


@pytest.mark.parametrize("name", ["scalar-d-pos", "scalar-d-zero"])
def test_gallery_scalars_follow_the_exact_recurrence(name):
    built = build_problem(gallery_config(name))
    cfg = built.config
    assert checked_steps(built.quadratic, cfg.residual_tol, cfg.max_steps) >= 10


@pytest.mark.parametrize("e", [10, 11])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_zero_discriminant_family_follows_the_exact_recurrence(e, m):
    # b^2 - 4ac = 2^(2m) - 2^(e+2m) 2^-e = 0, exactly in floats.
    q = scalar_quadratic(2.0 ** (e + 2 * m - 2), 2.0 ** m, 2.0 ** -e)
    assert q.discriminant == 0.0
    assert checked_steps(q, 1e-8, 2000) >= 100


@pytest.mark.parametrize("k", [3.0, 2.875, 2.75, 2.625, 2.5])
def test_near_zero_discriminant_follows_the_exact_recurrence(k):
    # D / b^2 = 1 - c = 10^-k.
    assert checked_steps(scalar_quadratic(1.0, 2.0, 1.0 - 10.0 ** -k), 1e-10, 100_000) >= 20
