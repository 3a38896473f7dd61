"""Reference oracle for the crossing scan, in the form it had before flat runs
of grid maxima were refined once.

`reference_smallest_crossing` scans the grid of `SCAN_POINTS` cells for a
sign change of psi - phi, refines every grid maximum left of it with its own
copy of the golden-section pass, one maximum after the other, and bisects
with `step_reference.reference_bisect`. It has no closed form: every pair is
scanned. The tests compare `majorant._scan_crossing` against it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from step_reference import reference_bisect

from coincide.errors import NoCrossing
from coincide.majorant import SCAN_POINTS, MajorantPair, root_tolerance

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def reference_golden_max(g, lo: float, hi: float, iters: int = 120):
    best_t, best_v = lo, g(lo)
    v_hi = g(hi)
    if v_hi > best_v:
        best_t, best_v = hi, v_hi
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = g(c), g(d)
    for _ in range(iters):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = g(c)
            t, v = c, fc
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = g(d)
            t, v = d, fd
        if v > best_v:
            best_t, best_v = t, v
        if hi - lo <= 1e-17 * (1.0 + abs(lo)):
            break
    return best_t, best_v


def reference_smallest_crossing(pair: MajorantPair) -> float:
    lo, hi = pair.tau0, pair.tau_end

    def g(t):
        return pair.psi(t) - pair.phi(t)

    step = (hi - lo) / SCAN_POINTS
    taus = np.arange(SCAN_POINTS + 1, dtype=float)
    taus *= step
    taus += lo
    taus[-1] = hi
    with np.errstate(all="ignore"):
        gs = pair.psi.on_grid(taus) - pair.phi.on_grid(taus)
    n = len(taus)

    t0, g0 = float(taus[0]), float(gs[0])
    if abs(g0) <= root_tolerance(t0) or g0 > 0.0:
        return t0

    crossed = np.flatnonzero(gs[1:] >= 0.0)
    first_cross = int(crossed[0]) + 1 if crossed.size else None

    stop = first_cross if first_cross is not None else n
    peaks = gs[1:stop] >= gs[:stop - 1]
    m = min(stop, n - 1)
    peaks[:m - 1] &= gs[1:m] >= gs[2:m + 1]
    for k in (np.flatnonzero(peaks) + 1).tolist():
        a = float(taus[k - 1])
        b = float(taus[k + 1]) if k + 1 < n else float(taus[k])
        t_peak, g_peak = reference_golden_max(g, a, b)
        if g_peak > 0.0:
            return reference_bisect(g, a, t_peak, float(gs[k - 1]), g_peak)
        if g_peak >= -root_tolerance(t_peak):
            return t_peak

    if first_cross is not None:
        return reference_bisect(g, float(taus[first_cross - 1]), float(taus[first_cross]),
                                float(gs[first_cross - 1]), float(gs[first_cross]))
    raise NoCrossing(
        f"psi - phi < 0 on all of [{lo}, {hi}] "
        f"(max {max(gs.tolist()):.6e}); majorant hypotheses fail"
    )
