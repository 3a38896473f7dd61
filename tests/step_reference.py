"""Reference oracle for the per-step hot paths, in the form they had before
they were streamlined.

- `reference_next_tau` bisects psi(t) - phi(tau_j) through `ScalarFn` calls
  whatever psi is;
- `reference_evaluate` is A(x, x) + C through both halves of the
  polarization identity, with the d = x - x contraction;
- `reference_write_trace_csv` formats each field of a trace row on its own.

The tests compare the library against them bit for bit (and byte for byte).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from coincide.errors import BracketFailure, DimensionMismatch
from coincide.linalg import as_vector
from coincide.majorant import root_tolerance


def reference_bisect(g, lo: float, hi: float, g_lo: float, g_hi: float) -> float:
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if gm < 0.0:
            lo, g_lo = mid, gm
        else:
            hi, g_hi = mid, gm
    return hi if abs(g_hi) <= abs(g_lo) else lo


def reference_next_tau(pair, tau_j: float, tau_star: float) -> float:
    target = pair.phi(tau_j)
    slack = 10.0 * root_tolerance(max(abs(target), abs(tau_star)))

    def h(t):
        return pair.psi(t) - target

    h_lo = h(tau_j)
    if h_lo > slack:
        raise BracketFailure(
            f"psi(tau_j)={pair.psi(tau_j)} exceeds phi(tau_j)={target} at tau_j={tau_j}"
        )
    if h_lo >= 0.0:
        return tau_j
    h_hi = h(tau_star)
    if h_hi < -slack:
        raise BracketFailure(
            f"psi(tau_star)={pair.psi(tau_star)} below phi(tau_j)={target}; "
            "tau_star does not bound the recurrence"
        )
    if h_hi <= 0.0:
        return tau_star
    return reference_bisect(h, tau_j, tau_star, h_lo, h_hi)


def reference_apply_bilinear(coeffs, x1, x2) -> np.ndarray:
    x1 = as_vector(x1)
    x2 = as_vector(x2)
    dim_x = coeffs.shape[1]
    if x1.size != dim_x or x2.size != dim_x:
        raise DimensionMismatch(
            f"bilinear map expects vectors of size {dim_x}, got {x1.size} and {x2.size}")
    u = x1 + x2
    d = x1 - x2
    qu = np.einsum("kij,i,j->k", coeffs, u, u)
    qd = np.einsum("kij,i,j->k", coeffs, d, d)
    return 0.25 * (qu - qd)


def reference_evaluate(quadratic_map, x) -> np.ndarray:
    return reference_apply_bilinear(quadratic_map.bilinear.coeffs, x, x) + quadratic_map.offset


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def reference_write_trace_csv(trace, path: Path) -> None:
    lines = ["j,tau,deviation,step_norm,residual"]
    for r in trace.records:
        lines.append(",".join([
            str(r.j), _fmt(r.tau), _fmt(r.deviation), _fmt(r.step_norm), _fmt(r.residual)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
