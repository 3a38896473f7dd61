"""Scalar majorant machinery.

A majorant pair (psi, phi) lives on the window [tau0, tau0 + min(r, horizon)].
The smallest crossing tau_* of psi(tau) = phi(tau) bounds how far the vector
iteration can drift, and the scalar recurrence psi(tau_{j+1}) = phi(tau_j)
hands out the per-step radius budgets.

Root finding is a left-to-right bracket scan over a fixed grid followed by
bisection. Bisection runs to float adjacency, so results are far tighter than
the guaranteed ROOT_TOL; tangential crossings (the degenerate case where
psi - phi touches zero without a sign change) are resolved by refining grid
maxima with a golden-section pass.

The scan grid and the validation grid are each evaluated in one call,
`ScalarFn.on_grid`. For the linear, polynomial and shifted functions the
library builds, that call repeats the scalar arithmetic step for step on a
numpy array, so every grid value has the bits the scalar call gives. The sign
change and the candidate maxima come from array comparisons; the scalar
golden-section and bisection passes run only on the cells they select.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BracketFailure, NoCrossing

# Documented tolerances, shared with the test suite.
ROOT_TOL_REL = 1e-12        # |psi - phi| acceptance, scaled by (1 + |tau|)
SCAN_POINTS = 10_000        # bracket-scan grid resolution
VALIDATION_POINTS = 1_000   # monotonicity grid for pair validation
DEFAULT_HORIZON = 1e6       # finite stand-in for an unbounded window

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def root_tolerance(tau: float) -> float:
    return ROOT_TOL_REL * (1.0 + abs(tau))


@dataclass
class ScalarFn:
    """A scalar function of tau with an optional derivative evaluator.

    `grid`, when given, is `fn` for a float64 array: the same operations in
    the same order, elementwise, so each entry has the bits `fn` gives at that
    point. Without it `on_grid` calls `fn` point by point.
    """

    fn: Callable[[float], float]
    deriv: Optional[Callable[[float], float]] = None
    label: str = ""
    grid: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, tau: float) -> float:
        return float(self.fn(tau))

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        """Values at every point of the float64 array ts."""
        if self.grid is None:
            return np.array([self(t) for t in ts.tolist()], dtype=float)
        # Overflow gives inf as in scalar float arithmetic, without a warning.
        with np.errstate(all="ignore"):
            return self.grid(ts)

    def derivative(self, tau: float) -> float:
        if self.deriv is None:
            raise ValueError(f"scalar function {self.label!r} has no derivative")
        return float(self.deriv(tau))

    @staticmethod
    def linear(slope: float, intercept: float = 0.0, label: str = "") -> "ScalarFn":
        def grid(ts):
            out = ts * slope
            out += intercept
            return out

        return ScalarFn(
            fn=lambda t: slope * t + intercept,
            deriv=lambda t: slope,
            label=label or f"{slope}*tau + {intercept}",
            grid=grid,
        )

    @staticmethod
    def polynomial(coeffs, label: str = "") -> "ScalarFn":
        """Polynomial with ascending coefficients [c0, c1, c2, ...]."""
        cs = [float(c) for c in coeffs]
        ds = [i * c for i, c in enumerate(cs)][1:] or [0.0]

        def horner(values, t):
            acc = 0.0
            for c in reversed(values):
                acc = acc * t + c
            return acc

        # In place, so a grid evaluation holds one array at a time.
        def grid(ts):
            acc = np.zeros_like(ts)
            for c in reversed(cs):
                acc *= ts
                acc += c
            return acc

        return ScalarFn(
            fn=lambda t: horner(cs, t),
            deriv=lambda t: horner(ds, t),
            label=label or f"poly{cs}",
            grid=grid,
        )


@dataclass
class MajorantPair:
    """The pair (psi, phi) with its window.

    psi must be strictly increasing on the window (plateaus would make the
    budget recurrence ill-posed), phi strictly increasing with a derivative,
    and phi(tau0) >= psi(tau0). `r` may be math.inf; scans then use `horizon`.
    """

    psi: ScalarFn
    phi: ScalarFn
    tau0: float = 0.0
    r: float = math.inf
    horizon: float = DEFAULT_HORIZON

    def __post_init__(self):
        self.tau0 = float(self.tau0)
        if not (self.r > 0.0):
            raise ValueError("r must be positive")
        if not (0.0 < self.horizon < math.inf):
            raise ValueError("horizon must be finite and positive")
        self.validate()

    @property
    def tau_end(self) -> float:
        return self.tau0 + min(self.r, self.horizon)

    def gap_at_start(self) -> float:
        return self.phi(self.tau0) - self.psi(self.tau0)

    def validate(self) -> None:
        lo, hi = self.tau0, self.tau_end
        step = (hi - lo) / VALIDATION_POINTS
        prev_psi = self.psi(lo)
        prev_phi = self.phi(lo)
        if not (math.isfinite(prev_psi) and math.isfinite(prev_phi)):
            raise ValueError("majorant functions must be finite at tau0")
        if prev_phi < prev_psi - root_tolerance(lo):
            raise ValueError(
                f"phi(tau0)={prev_phi} < psi(tau0)={prev_psi}: initial gap is negative"
            )
        ts = lo + np.arange(1.0, VALIDATION_POINTS + 1) * step
        ps = np.concatenate(([prev_psi], self.psi.on_grid(ts)))
        ph = np.concatenate(([prev_phi], self.phi.on_grid(ts)))
        # Entry k - 1 compares grid point k with point k - 1. The first failing
        # point raises with the first check it fails, as a left-to-right loop
        # would; every point before it is finite.
        finite = np.isfinite(ps[1:]) & np.isfinite(ph[1:])
        psi_flat = ps[1:] <= ps[:-1]
        phi_flat = ph[1:] <= ph[:-1]
        bad = np.flatnonzero(~finite | psi_flat | phi_flat)
        if not bad.size:
            return
        i = int(bad[0])
        t = float(ts[i])
        if not finite[i]:
            raise ValueError(f"majorant functions must be finite at tau={t}")
        if psi_flat[i]:
            raise ValueError(f"psi is not strictly increasing near tau={t}")
        raise ValueError(f"phi is not strictly increasing near tau={t}")


@dataclass
class TauSequence:
    """Budgets tau_j produced by psi(tau_{j+1}) = phi(tau_j), plus the crossing."""

    taus: list = field(default_factory=list)
    tau_star: float = math.nan
    converged: bool = False

    def __len__(self):
        return len(self.taus)


def _bisect(g, lo: float, hi: float, g_lo: float, g_hi: float) -> float:
    """Root of g on [lo, hi] given g_lo <= 0 <= g_hi, refined to float adjacency."""
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


def _golden_max(g, lo: float, hi: float, iters: int = 120):
    """Approximate maximizer of g on [lo, hi]; returns (tau, value)."""
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


def smallest_crossing(pair: MajorantPair) -> float:
    """Least tau in the window with |psi(tau) - phi(tau)| <= root_tolerance(tau).

    Scans SCAN_POINTS grid cells left to right for a sign change of
    psi - phi, then bisects. Grid maxima to the left of the first sign change
    are refined so that tangential crossings (psi - phi touching zero from
    below) and narrow bumps skipped by the grid are still found, and the
    smallest solution wins.

    Raises NoCrossing when psi - phi stays negative over the whole window.
    """
    lo, hi = pair.tau0, pair.tau_end

    def g(t):
        return pair.psi(t) - pair.phi(t)

    step = (hi - lo) / SCAN_POINTS
    # lo + k * step for k < SCAN_POINTS, then hi. Built in place: float(k)
    # is exact, and k * step + lo rounds as lo + k * step does.
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

    # Candidate tangencies: local maxima of g strictly left of the bracket.
    # The last grid point has no right neighbour, so only its left check counts.
    stop = first_cross if first_cross is not None else n
    peaks = gs[1:stop] >= gs[:stop - 1]
    m = min(stop, n - 1)
    peaks[:m - 1] &= gs[1:m] >= gs[2:m + 1]
    for k in (np.flatnonzero(peaks) + 1).tolist():
        a = float(taus[k - 1])
        b = float(taus[k + 1]) if k + 1 < n else float(taus[k])
        t_peak, g_peak = _golden_max(g, a, b)
        if g_peak > 0.0:
            # Narrow bump skipped by the grid: its left flank brackets a root.
            return _bisect(g, a, t_peak, float(gs[k - 1]), g_peak)
        if g_peak >= -root_tolerance(t_peak):
            return t_peak

    if first_cross is not None:
        return _bisect(g, float(taus[first_cross - 1]), float(taus[first_cross]),
                       float(gs[first_cross - 1]), float(gs[first_cross]))
    # Python's max keeps the message of a scan with NaN values; np.max would not.
    raise NoCrossing(
        f"psi - phi < 0 on all of [{lo}, {hi}] "
        f"(max {max(gs.tolist()):.6e}); majorant hypotheses fail"
    )


def next_tau(pair: MajorantPair, tau_j: float, tau_star: float) -> float:
    """Smallest tau in (tau_j, tau_star] with psi(tau) = phi(tau_j).

    The bracket is psi(tau_j) <= phi(tau_j) <= psi(tau_star); bisection runs
    to float adjacency so consecutive budgets track the exact scalar
    recurrence to machine precision.
    """
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
        return tau_j  # already at the crossing; caller treats this as a stall
    h_hi = h(tau_star)
    if h_hi < -slack:
        raise BracketFailure(
            f"psi(tau_star)={pair.psi(tau_star)} below phi(tau_j)={target}; "
            "tau_star does not bound the recurrence"
        )
    if h_hi <= 0.0:
        return tau_star
    return _bisect(h, tau_j, tau_star, h_lo, h_hi)


def tau_sequence(pair: MajorantPair, max_steps: int, tail_tol: float) -> TauSequence:
    """Iterate next_tau from tau0 until tau_star - tau_j <= tail_tol or max_steps."""
    tau_star = smallest_crossing(pair)
    taus = [pair.tau0]
    converged = tau_star - taus[-1] <= tail_tol
    while not converged and len(taus) - 1 < max_steps:
        t = next_tau(pair, taus[-1], tau_star)
        if t <= taus[-1]:
            break  # float-level stall; tail cannot shrink further
        taus.append(t)
        converged = tau_star - t <= tail_tol
    return TauSequence(taus=taus, tau_star=tau_star, converged=converged)


def validate_h2_start(pair: MajorantPair, initial_gap: float) -> bool:
    """True iff the measured initial defect fits under phi(tau0) - psi(tau0)."""
    if initial_gap < 0.0:
        raise ValueError("initial_gap must be nonnegative")
    return initial_gap <= pair.gap_at_start() + 1e-12
