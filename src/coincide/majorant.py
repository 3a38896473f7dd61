"""Scalar majorant machinery.

A majorant pair (psi, phi) lives on the window [tau0, tau0 + horizon].
The smallest crossing tau_* of psi(tau) = phi(tau) bounds how far the vector
iteration can drift, and the scalar recurrence psi(tau_{j+1}) = phi(tau_j)
hands out the per-step radius budgets.

Every majorant the library builds is a polynomial. `ScalarFn.polynomial`
records its ascending coefficients in `coeffs`, `ScalarFn.linear(s, i)` is
`polynomial([i, s])`, and the `shifted` of a polynomial is the polynomial
with c0 + offset; a function made from any other callable has no
coefficients.

Two polynomials are decided from their coefficients, with no grid:

- The crossing. For a linear psi (slope > 0) against a phi of degree at most
  2, tau_* has a closed form: the smaller root of psi - phi in the
  cancellation-free form, exact at D = 0. Any other polynomial pair is
  isolated: the real roots of g' = psi' - phi' (closed form up to degree 2,
  and above it the same recursion on g'') split the window into pieces on
  which g = psi - phi is monotone. The first piece whose end values bracket
  0 holds tau_*, found by Newton steps on the coefficients and a walk of a
  few ulps on psi - phi itself to where its sign changes. A critical point
  where g rises to within root_tolerance of 0 is a tangency and is tau_*
  as it is.
- The validation. psi and phi must be strictly increasing: a polynomial is,
  on the window, when its derivative is positive on each piece between the
  derivative's own roots. The sign is read at the middle of each piece and
  at each extremum of the derivative, and counts only when it exceeds the
  float error bound of that evaluation.

Plain callables, and polynomial pairs where a value overflows or a sign is
within rounding of 0, go to the grids. The crossing is then a left-to-right
bracket scan over SCAN_POINTS cells followed by bisection to float
adjacency; tangential crossings (psi - phi touching zero without a sign
change) are resolved by refining grid maxima with a golden-section pass,
one per flat run of maxima, which stops within about sqrt(ROOT_TOL) of a
tangent point, on either side. The validation compares VALIDATION_POINTS
grid values. Each grid is evaluated in one call, `ScalarFn.on_grid`: a
polynomial's Horner form is in-place arithmetic that takes a float or a
float64 array, so every grid value has the scalar call's bits; any other
function is called point by point.

`budget_stepper(pair, tau_star)` does the set-up of the budget recurrence
once per pair and returns step(tau_j) -> (tau_{j+1}, increment): the
increment psi(tau_{j+1}) - psi(tau_j) is the defect the solver may admit
next, and `next_tau` and `tau_sequence` keep tau_{j+1}. Every budget step,
the solver's too, is one call of that step. It returns the float that
bisection to float adjacency returns, but finds it in O(1) for a linear psi.
Every builder makes psi with `ScalarFn.linear`; for a psi with coefficients
(intercept, slope) a step evaluates psi inline as slope * t + intercept, the
float operations psi(t) performs, and makes one ScalarFn call, phi(tau_j),
even when it bisects. A bisection runs on h(t) = psi(t) - target, inline
for such a psi. For slope > 0 every rounding in h is monotone, so h is
non-decreasing on the floats. Bisection therefore ends at
the one adjacent pair with h(lo) < 0 < h(hi) (returning the end with the
smaller |h|, hi on a tie), or at the float where h is 0 if exactly one float
is. `_walk_to_root` starts at (target - intercept) / slope and walks a few
ulps to that pair or zero. It hands back to `_bisect` when the answer
depends on the bisection's path (h is 0 on two or more adjacent floats, or
the root is a signed zero), when the walk does not settle within a few ulps
(an absorption plateau, where slope * t is small next to intercept, makes h
flat over many floats), or when the bisection's midpoint sums could
overflow.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from itertools import zip_longest
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
    """A scalar function of tau with an optional derivative evaluator."""

    fn: Callable[[float], float]
    deriv: Optional[Callable[[float], float]] = None
    # The ascending coefficients (c0, c1, ...), set only by `polynomial`, whose
    # fn takes a float64 array as well as a float. Not a constructor argument,
    # so a function built any other way never claims to be a polynomial.
    coeffs: Optional[tuple] = field(default=None, init=False, repr=False)

    def __call__(self, tau: float) -> float:
        return float(self.fn(tau))

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        """Values at every point of the float64 array ts."""
        if self.coeffs is None:
            return np.array([self(t) for t in ts.tolist()], dtype=float)
        # Overflow gives inf as in scalar float arithmetic, without a warning.
        with np.errstate(all="ignore"):
            return self.fn(ts)

    def derivative(self, tau: float) -> float:
        if self.deriv is None:
            raise ValueError("scalar function has no derivative")
        return float(self.deriv(tau))

    def shifted(self, offset: float) -> "ScalarFn":
        """t -> self(t) + offset, with self's derivative; of a polynomial,
        the polynomial with c0 + offset."""
        if self.coeffs is not None:
            c0, *rest = self.coeffs or (0.0,)
            return ScalarFn.polynomial([c0 + offset, *rest])
        return ScalarFn(fn=lambda t: self(t) + offset, deriv=self.deriv)

    @staticmethod
    def linear(slope: float, intercept: float = 0.0) -> "ScalarFn":
        return ScalarFn.polynomial([intercept, slope])

    @staticmethod
    def polynomial(coeffs) -> "ScalarFn":
        """Polynomial with ascending coefficients [c0, c1, c2, ...]."""
        cs = tuple(map(float, coeffs))
        out = ScalarFn(fn=_horner_form(cs), deriv=_horner_form(_derivative(cs)))
        out.coeffs = cs
        return out


def _horner_form(cs: tuple):
    """t -> c0 + t * (c1 + ... + t * cn) for a float or a float64 array t; a
    partial, not a lambda, for one Python frame less per call. A constant is
    evaluated as 0.0 * t + c0, which has t's shape."""
    cs = cs + (0.0,) * (2 - len(cs))
    return functools.partial(_horner, cs[-1], cs[-2], cs[-3::-1])


def _horner(lead: float, second: float, rest: tuple, t):
    """Horner's rule, in place. It starts at t * cn + c(n-1), not at
    0.0 * t + cn (cn for finite t): the same bits, two array passes fewer."""
    acc = t * lead
    acc += second
    for c in rest:
        acc *= t
        acc += c
    return acc


def _derivative(cs: tuple) -> tuple:
    """Ascending coefficients of the derivative."""
    return tuple(i * c for i, c in enumerate(cs))[1:]


def _real_roots(cs: tuple, lo: float, hi: float) -> Optional[list]:
    """The real roots in (lo, hi), ascending, of the polynomial with ascending
    coefficients cs; None when a value on the way is not finite.

    Degrees 1 and 2 are closed forms, degree 2 without cancellation. A higher
    degree splits [lo, hi] at the roots of its derivative, by the same
    recursion, and runs `_newton` on each piece whose end values differ in
    sign. A zero polynomial has no roots.
    """
    n = len(cs)
    while n and cs[n - 1] == 0.0:
        n -= 1
    if n <= 3:
        c0, c1, c2 = cs[:n] + (0.0,) * (3 - n)
        d = c1 * c1 - 4.0 * c2 * c0
        if c2 == 0.0:
            roots = [-c0 / c1] if c1 else []
        elif d < 0.0:
            roots = []
        else:
            q = -0.5 * (c1 + math.copysign(math.sqrt(d), c1))
            roots = [q / c2, c0 / q] if q else [0.0]
    else:
        ds = _derivative(cs[:n])
        crit = _real_roots(ds, lo, hi)
        if crit is None:
            return None
        p, dp = _horner_form(cs[:n]), _horner_form(ds)
        ts = [lo, *crit, hi]
        vs = [p(t) for t in ts]
        if not all(map(math.isfinite, vs)):
            return None
        roots = [t for t, v in zip(crit, vs[1:-1]) if v == 0.0]
        roots += [_newton(p, dp, a, b, va < 0.0)
                  for a, b, va, vb in zip(ts, ts[1:], vs, vs[1:])
                  if va != 0.0 and vb != 0.0 and (va < 0.0) != (vb < 0.0)]
    if not all(map(math.isfinite, roots)):
        return None
    return sorted(t for t in roots if lo < t < hi)


def _newton(p, dp, a: float, b: float, rising: bool) -> float:
    """A root of p in [a, b], where p(a) < 0 < p(b) if rising and p(a) > 0 >
    p(b) otherwise. Newton steps from the midpoint keep the bracket; a step
    that would leave it is a bisection step. Ends at a zero of p, where a
    step does not move, or where the bracket is two adjacent floats.
    """
    t = 0.5 * (a + b)
    while a < t < b:
        v = p(t)
        if v == 0.0:
            break
        if (v < 0.0) == rising:
            a = t
        else:
            b = t
        d = dp(t)
        step = t - v / d if d else a
        if not a < step < b:
            step = 0.5 * (a + b)
        if step == t:
            break
        t = step
    return t


def _first_descent(f: "ScalarFn", lo: float, hi: float) -> Optional[float]:
    """Where the polynomial f stops being strictly increasing on [lo, hi]:
    the left end of the first piece between the roots of f' on which f' < 0,
    lo for a constant, inf when f is strictly increasing.

    The sign of f' is read at the middle of each piece and at each extremum
    of f' (a root of f''), so that two roots of f' too close to tell apart
    cannot hide a dip between them. None when that is not decided: f is no
    polynomial, a value may overflow on the window, or f' at one of those
    points is within Horner's float error bound of 0, (2 n + 2) eps times
    the Horner sum of the n absolute coefficients of f'.
    """
    if f.coeffs is None or not math.isfinite(
            _horner_form(tuple(map(abs, f.coeffs)))(max(1.0, abs(lo), abs(hi)))):
        return None
    ds = _derivative(f.coeffs)
    if not any(ds[1:]):  # a constant f'
        return math.inf if ds and ds[0] > 0.0 else lo
    roots, extrema = _real_roots(ds, lo, hi), _real_roots(_derivative(ds), lo, hi)
    if roots is None or extrema is None:
        return None
    dp, bound = _horner_form(ds), _horner_form(tuple(map(abs, ds)))
    rel = (2 * len(ds) + 2) * sys.float_info.epsilon
    starts = [lo, *roots]
    middles = [0.5 * (a + b) for a, b in zip(starts, [*roots, hi])]
    for m in sorted(middles + extrema):
        v = dp(m)
        if not abs(v) > rel * bound(abs(m)):
            return None
        if v < 0.0:
            return max(a for a in starts if a <= m)
    return math.inf


@dataclass
class MajorantPair:
    """The pair (psi, phi) with its window.

    psi must be strictly increasing on the window (plateaus would make the
    budget recurrence ill-posed), phi strictly increasing with a derivative,
    and phi(tau0) >= psi(tau0).
    """

    psi: ScalarFn
    phi: ScalarFn
    tau0: float = 0.0
    horizon: float = DEFAULT_HORIZON

    def __post_init__(self):
        self.tau0 = float(self.tau0)
        if not (0.0 < self.horizon < math.inf):
            raise ValueError("horizon must be finite and positive")
        self.validate()

    @property
    def tau_end(self) -> float:
        return self.tau0 + self.horizon

    def gap_at_start(self) -> float:
        return self.phi(self.tau0) - self.psi(self.tau0)

    def validate(self) -> None:
        """Raise ValueError unless psi and phi are finite at tau0, phi(tau0) >=
        psi(tau0) - root_tolerance(tau0), and both are strictly increasing on
        the window, naming the first tau where one of them is not.

        Two polynomials are decided from their coefficients (see
        `_first_descent`), with two ScalarFn calls and no grid. Any other
        pair, or one that is not decided, is checked at VALIDATION_POINTS grid
        points, each finite and above the one before.
        """
        lo, hi = self.tau0, self.tau_end
        prev_psi = self.psi(lo)
        prev_phi = self.phi(lo)
        if not (math.isfinite(prev_psi) and math.isfinite(prev_phi)):
            raise ValueError("majorant functions must be finite at tau0")
        if prev_phi < prev_psi - root_tolerance(lo):
            raise ValueError(
                f"phi(tau0)={prev_phi} < psi(tau0)={prev_psi}: initial gap is negative"
            )
        descents = (_first_descent(self.psi, lo, hi), _first_descent(self.phi, lo, hi))
        if None not in descents:
            t = min(descents)
            if t < math.inf:
                name = "psi" if descents[0] <= descents[1] else "phi"
                raise ValueError(f"{name} is not strictly increasing near tau={t}")
            return
        step = (hi - lo) / VALIDATION_POINTS
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


# Ulps a linear-psi step walks before it bisects.
_WALK_ULPS = 8
# Below this magnitude the midpoint sum lo + hi of `_bisect` cannot overflow.
_MIDPOINT_SAFE = 2.0 ** 1022


def _walk_to_root(slope: float, intercept: float, target: float, t: float):
    """The float `_bisect(h, lo, hi, h(lo), h(hi))` returns, or None, for
    h(t) = slope * t + intercept - target.

    h must be non-decreasing with h(lo) < 0 < h(hi), and t in [lo, hi] with
    lo < t < hi unless lo and hi are adjacent; the walk then stays in
    [lo, hi]. Walks from t towards the sign change for at most _WALK_ULPS
    ulps. None when h is 0 on two adjacent floats, when the root is a zero
    (its sign depends on the bisection's path), or when the walk does not
    settle.
    """
    ht = slope * t + intercept - target
    if ht == 0.0:
        unique = (slope * math.nextafter(t, -math.inf) + intercept - target != 0.0
                  and slope * math.nextafter(t, math.inf) + intercept - target != 0.0)
        return t if unique and t != 0.0 else None
    up = ht < 0.0
    toward = math.inf if up else -math.inf
    for _ in range(_WALK_ULPS):
        u = math.nextafter(t, toward)
        hu = slope * u + intercept - target
        if hu == 0.0:
            unique = slope * math.nextafter(u, toward) + intercept - target != 0.0
            return u if unique and u != 0.0 else None
        if (hu > 0.0) == up:
            a, h_a, b, h_b = (t, ht, u, hu) if up else (u, hu, t, ht)
            root = b if abs(h_b) <= abs(h_a) else a
            return root if root != 0.0 else None
        t, ht = u, hu
    return None


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
    """The crossing tau_* of psi and phi in the window: the least root of
    psi - phi in (tau0, tau0 + horizon], or tau0 when psi(tau0) >= phi(tau0).

    For a linear psi with slope > 0 against a phi of degree at most 2,
    coefficients [c0, c1, c2] (zero-padded) with c2 >= 0, psi - phi =
    -(c2 t^2 - B t + C) with B = slope - c1 and C = c0 - intercept, and
    tau_* is its smaller root, taken without cancellation: 2C / (B + sqrt(D))
    for B > 0, (B - sqrt(D)) / (2 c2) otherwise, where D = B^2 - 4 c2 C. For
    the quadratic builder's pair that is 2c / (b + sqrt(b^2 - 4ac)); a
    linear phi (c2 = 0) needs B > 0 and gives C / B, as for the Kantorovich
    pair gap / (1 - lip). The root is returned when it lies in
    (tau0, tau0 + horizon] and |psi - phi| <= root_tolerance there; it makes
    two ScalarFn calls and no grid.

    Every other pair of polynomials is isolated by `_isolated_crossing`, with
    no grid. A start gap within root_tolerance(tau0) is tau_* only when
    psi - phi does not change sign after tau0. Plain callables, and the polynomial
    pairs that it does not decide, are scanned by `_scan_crossing`: the least
    tau with |psi(tau) - phi(tau)| <= root_tolerance(tau).

    Raises NoCrossing when psi - phi stays negative over the whole window.
    """
    root = _quadratic_root(pair)
    if root is None:
        root = _isolated_crossing(pair)
    return _scan_crossing(pair) if root is None else root


def _isolated_crossing(pair: MajorantPair) -> Optional[float]:
    """`smallest_crossing` of two polynomials from the roots of g' = psi' -
    phi', or None when psi or phi has no coefficients, a value is not finite,
    or psi - phi is not within root_tolerance of 0 near the root found.

    g = psi - phi is read in coefficient form: one Horner pass over the
    differences of the coefficients. The critical points split the window
    into pieces on which g is monotone, and g is read at tau0, at each
    critical point in turn and at the window's end. The first point where
    g >= 0 closes the bracket of tau_*, which `_polished_root` finds. A
    g(tau0) within root_tolerance of 0 makes tau0 tau_* unless such a
    bracket follows. Otherwise a critical point where g has risen to within
    root_tolerance of 0 is a tangency, and tau_* as it is.
    """
    if pair.psi.coeffs is None or pair.phi.coeffs is None:
        return None
    lo, hi = pair.tau0, pair.tau_end
    gc = tuple(p - q for p, q in zip_longest(pair.psi.coeffs, pair.phi.coeffs, fillvalue=0.0))
    dgc = _derivative(gc)
    crit = _real_roots(dgc, lo, hi)
    g = _horner_form(gc)
    seen = [g(lo)]
    if crit is None or not math.isfinite(seen[0]):
        return None
    if seen[0] >= 0.0:
        return lo
    # A start within the tolerance is tau_* unless g changes sign after it.
    at_start = seen[0] >= -root_tolerance(lo)
    for a, t in zip([lo, *crit], [*crit, hi]):
        v = g(t)
        if not math.isfinite(v):
            return None
        # A tangency, or the window's end where g has risen to just below 0.
        if (not at_start and v > seen[-1] and abs(v) <= root_tolerance(t)
                and (v < 0.0 or t != hi)):
            return t
        if v >= 0.0:
            return _polished_root(pair, _newton(g, _horner_form(dgc), a, t, True))
        seen.append(v)
    if at_start:
        return lo
    raise NoCrossing(
        f"psi - phi < 0 on all of [{lo}, {hi}] "
        f"(max {max(seen):.6e}); majorant hypotheses fail"
    )


def _polished_root(pair: MajorantPair, t: float) -> Optional[float]:
    """The float near t where psi - phi changes sign, as `_bisect` ends: the
    end of the adjacent pair with the smaller |psi - phi|, or the float where
    it is 0. t is a root of the coefficient form; a walk of at most
    _WALK_ULPS ulps from it finds the pair. A walk that does not settle
    keeps t if it passes the root test, and gives None otherwise.
    """
    v = pair.psi(t) - pair.phi(t)
    start, up = (t, v), v < 0.0
    toward = math.inf if up else -math.inf
    for _ in range(_WALK_ULPS):
        if v == 0.0:
            return t
        u = math.nextafter(t, toward)
        w = pair.psi(u) - pair.phi(u)
        if (w < 0.0) != up:
            return u if abs(w) < abs(v) or (abs(w) == abs(v) and up) else t
        t, v = u, w
    t, v = start
    return t if abs(v) <= root_tolerance(t) else None


def _quadratic_root(pair: MajorantPair) -> Optional[float]:
    """The closed-form tau_* of `smallest_crossing`, or None where it does not apply."""
    lin, poly = pair.psi.coeffs, pair.phi.coeffs
    if lin is None or poly is None or len(lin) != 2 or len(poly) > 3:
        return None
    (intercept, slope), (c0, c1, c2) = lin, (poly + (0.0, 0.0, 0.0))[:3]
    b, c = slope - c1, c0 - intercept
    d = b * b - 4.0 * c2 * c
    # D >= 0, not NaN; c2 == 0 needs b > 0, and gives 2C / (2B) = C / B below.
    if not (slope > 0.0 and d >= 0.0 and (c2 > 0.0 or (c2 == 0.0 and b > 0.0))):
        return None
    root = 2.0 * c / (b + math.sqrt(d)) if b > 0.0 else (b - math.sqrt(d)) / (2.0 * c2)
    if (pair.tau0 < root <= pair.tau_end
            and abs(pair.psi(root) - pair.phi(root)) <= root_tolerance(root)):
        return root
    return None


def _plateau_heads(gs: np.ndarray, ks: list) -> list:
    """The grid maxima ks that the scan refines: one per plateau.

    A candidate is skipped when the grid values from the last refined
    candidate up to it span at most ROOT_TOL_REL: a flat stretch, whose
    values may differ in the last bits, is refined once, not once per point.
    A NaN or infinite value ends the stretch.
    """
    if len(ks) < 2:
        return ks
    # Extremes of gs over [ks[i], ks[i + 1]), the values between two candidates.
    lows = np.minimum.reduceat(gs, ks).tolist()
    highs = np.maximum.reduceat(gs, ks).tolist()
    heads = []
    for k, seg_lo, seg_hi in zip(ks, lows, highs):
        v = float(gs[k])
        if heads and max(hi, v) - min(lo, v) <= ROOT_TOL_REL:
            lo, hi = min(lo, seg_lo), max(hi, seg_hi)
        else:
            heads.append(k)
            lo, hi = seg_lo, seg_hi
    return heads


def _scan_crossing(pair: MajorantPair) -> float:
    """Least tau in the window with |psi(tau) - phi(tau)| <= root_tolerance(tau).

    Scans SCAN_POINTS grid cells left to right for a sign change of
    psi - phi, then bisects. Grid maxima to the left of the first sign change
    are refined so that tangential crossings (psi - phi touching zero from
    below) and narrow bumps skipped by the grid are still found, and the
    smallest solution wins; a flat run of maxima is refined once (see
    `_plateau_heads`).

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
    for k in _plateau_heads(gs, (np.flatnonzero(peaks) + 1).tolist()):
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


def budget_stepper(pair: MajorantPair, tau_star: float) -> Callable[[float], tuple]:
    """step(tau_j) -> (tau_{j+1}, psi(tau_{j+1}) - psi(tau_j)), where tau_{j+1}
    is the smallest tau in (tau_j, tau_star] with psi(tau) = phi(tau_j).

    The bracket is psi(tau_j) <= phi(tau_j) <= psi(tau_star); a step raises
    BracketFailure when phi(tau_j) lies outside it by more than the slack.
    tau_{j+1} is the float bisection to float adjacency gives, and a stall
    (tau_{j+1} = tau_j) has increment 0.0. A step makes one phi(tau_j) call,
    and for a linear psi no other ScalarFn call (see the module docstring).
    What depends only on the pair and tau_star is read here, once.
    """
    psi, phi = pair.psi, pair.phi
    abs_star = abs(tau_star)
    linear = psi.coeffs is not None and len(psi.coeffs) == 2
    if linear:
        intercept, slope = psi.coeffs
    # A linear psi(t) inline: its float operations, and no ScalarFn call.
    at = (lambda t: slope * t + intercept) if linear else psi
    psi_star = at(tau_star)

    def settle(tau_j: float, target: float, psi_j: float) -> tuple:
        """The step that does not walk, given phi(tau_j) and psi(tau_j)."""
        slack = 10.0 * root_tolerance(max(abs(target), abs_star))
        h_lo = psi_j - target
        if h_lo > slack:
            raise BracketFailure(
                f"psi(tau_j)={psi_j} exceeds phi(tau_j)={target} at tau_j={tau_j}"
            )
        if h_lo >= 0.0:
            return tau_j, 0.0  # already at the crossing; caller treats this as a stall
        h_hi = psi_star - target
        if h_hi < -slack:
            raise BracketFailure(
                f"psi(tau_star)={psi_star} below phi(tau_j)={target}; "
                "tau_star does not bound the recurrence"
            )
        if h_hi <= 0.0:
            return tau_star, psi_star - psi_j
        root = _bisect(lambda t: at(t) - target, tau_j, tau_star, h_lo, h_hi)
        return root, at(root) - psi_j

    # A pair whose steps cannot walk.
    if not (linear and 0.0 < slope < math.inf and abs_star < _MIDPOINT_SAFE):
        return lambda tau_j: settle(tau_j, phi(tau_j), at(tau_j))
    walk, nextafter, inf = _walk_to_root, math.nextafter, math.inf

    def step(tau_j: float) -> tuple:
        target = phi(tau_j)
        psi_j = slope * tau_j + intercept
        # Strictly inside the bracket no BracketFailure can fire.
        if psi_j - target < 0.0 < psi_star - target and abs(tau_j) < _MIDPOINT_SAFE:
            t = (target - intercept) / slope
            if not t > tau_j:
                t = nextafter(tau_j, inf)
            elif not t < tau_star:
                t = nextafter(tau_star, -inf)
            root = walk(slope, intercept, target, t)
            if root is not None:
                return root, slope * root + intercept - psi_j
        return settle(tau_j, target, psi_j)

    return step


def next_tau(pair: MajorantPair, tau_j: float, tau_star: float) -> float:
    """One step of the budget recurrence: `budget_stepper(pair, tau_star)(tau_j)[0]`."""
    return budget_stepper(pair, tau_star)(tau_j)[0]


def tau_sequence(pair: MajorantPair, max_steps: int, tail_tol: float) -> TauSequence:
    """Step the budget recurrence from tau0 until tau_star - tau_j <= tail_tol or max_steps."""
    tau_star = smallest_crossing(pair)
    step = budget_stepper(pair, tau_star)
    taus = [pair.tau0]
    converged = tau_star - taus[-1] <= tail_tol
    while not converged and len(taus) - 1 < max_steps:
        t = step(taus[-1])[0]
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
