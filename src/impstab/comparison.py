"""Comparison functions (class K / K-infinity / KL) and their algebra.

Functions are wrapped with a declared class and a finite domain hint so
that membership can be probed numerically.  Probing a finite grid can
never prove monotonicity or unboundedness; the checks here are designed
so that failures are conclusive while passes are evidence.  A function
may carry a closed-form inverse (the stock families do); inversion uses
it where its result passes the residual guard and bisects otherwise,
so no function needs one and a wrong one costs speed, not correctness.
Inversion and the weak-to-strong lift share one masked bisection,
`_bisect`, over arrays of targets; a scalar is an array of one.  The
lift takes g in closed form for a ``ceil`` envelope where it passes the
bisection's own predicate and closing rule, with the same bits, and
bisects every other envelope and every target the check rejects.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ClassViolation, ImpstabError, InvalidPhi, NotMonotone, OutOfRange
from .impulses import _from_table, _positive

GRID_POINTS = 64
INVERT_TOL = 1e-10
# enough bisection steps to resolve roots down to subnormal scale from
# a bracket of width ~1e6; typical calls break out after ~60
INVERT_MAX_ITER = 1200

# Growth demanded across the nine decades above the domain hint before a
# declared-unbounded function is believed.  Saturating shapes like
# r/(1+r) stall well below this; slow growers like log(1+r) clear it.
_GROWTH_RATIO = 1.0 + 1e-4


@functools.lru_cache(maxsize=128)
def _cached_geomspace(lo: float, hi: float, n: int) -> np.ndarray:
    grid = np.geomspace(lo, hi, n)
    grid.flags.writeable = False
    return grid


def _probe_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.geomspace(lo, hi, n)`` from a cache, as a fresh copy: an
    evaluator that writes into its argument cannot change the grid a
    later validation probes."""
    return _cached_geomspace(float(lo), float(hi), n).copy()


@dataclass(frozen=True)
class ComparisonFn:
    """A scalar function declared to lie in class K or K-infinity.

    ``evaluator`` should accept a float; accepting numpy arrays as well
    makes the vectorized check paths cheaper but is not required.
    ``inverse``, when set, is a closed-form inverse taking an array or,
    failing that, a float; `invert_array` tries it before bisecting.
    """

    evaluator: Callable
    declared_class: str = "Kinf"  # "K" or "Kinf"
    domain_hint: float = 1e6
    name: str = ""
    inverse: Callable | None = None

    def __call__(self, r):
        return self.evaluator(r)

    def validate(self) -> None:
        """Probe zero-at-zero, strict increase, and (for Kinf) growth.

        The logarithmic probe grids come from `_probe_grid`, computed once
        per (lo, hi, n) and handed to the evaluator as fresh copies.
        Raises ClassViolation with the offending sample in the message.
        """
        if self.declared_class not in ("K", "Kinf"):
            raise ClassViolation(f"unknown declared class {self.declared_class!r}")
        if not (self.domain_hint > 0 and math.isfinite(self.domain_hint)):
            raise ClassViolation("domain hint must be positive and finite")
        v0 = float(self.evaluator(0.0))
        if not math.isfinite(v0) or abs(v0) > 1e-12:
            raise ClassViolation(f"{self._label()}: value at 0 is {v0!r}, expected 0")
        grid = _probe_grid(1e-9, self.domain_hint, GRID_POINTS)
        vals = eval_array(self, grid)
        if not np.all(np.isfinite(vals)):
            raise ClassViolation(f"{self._label()}: non-finite value on the probe grid")
        joined = np.concatenate(([v0], vals))
        diffs = np.diff(joined)
        if np.any(diffs <= 0):
            bad = int(np.argmax(diffs <= 0))
            at = 0.0 if bad == 0 else grid[bad - 1]
            raise ClassViolation(
                f"{self._label()}: not strictly increasing near r={at:.6g}"
            )
        if self.declared_class == "Kinf":
            self._check_growth(float(vals[-1]))

    def _check_growth(self, value_at_hint: float) -> None:
        ext = _probe_grid(self.domain_hint, self.domain_hint * 1e9, 10)
        try:
            with np.errstate(over="ignore"):
                vals = eval_array(self, ext)
        except OutOfRange:
            # inverse-backed evaluators cannot reach past their hint;
            # boundedness beyond the certified range stays undecided and
            # the declared class is taken at its word there
            return
        if np.any(np.isnan(vals)):
            raise ClassViolation(f"{self._label()}: NaN beyond the domain hint")
        if np.any(np.isinf(vals)):
            return  # overflowed float range, certainly unbounded
        if not float(vals[-1]) >= _GROWTH_RATIO * max(value_at_hint, 1e-300):
            raise ClassViolation(
                f"{self._label()}: growth stalls above the domain hint "
                f"({value_at_hint:.6g} -> {float(vals[-1]):.6g}); "
                "not accepted as K-infinity"
            )

    def _label(self) -> str:
        return self.name or "comparison function"


@dataclass(frozen=True)
class KLFn:
    """A two-argument bound: class K-infinity in r, decreasing to 0 in s.

    ``inverse_at_zero``, when set, is a closed-form inverse of
    r -> beta(r, 0), taking a float or an array.
    """

    evaluator: Callable
    r_hint: float = 1e6
    s_hint: float = 1e4
    name: str = ""
    inverse_at_zero: Callable | None = None

    def __call__(self, r, s):
        return self.evaluator(r, s)

    def validate(self) -> None:
        """Check the KL shape on a 20x20 logarithmic grid, and each of
        three r-slices as a K-infinity function; every grid comes from
        `_probe_grid`, so a repeat validation computes none."""
        r_grid = _probe_grid(1e-6, self.r_hint, 20)
        s_grid = np.concatenate(([0.0], _probe_grid(1e-6, self.s_hint, 19)))
        # fast decay underflows to exactly 0 at large s, where strict
        # increase in r is unobservable; validate the increase at the
        # largest s that still yields representable values
        s_top = float(self.s_hint)
        while s_top > 1.0 and not self._resolvable_at(s_top):
            s_top /= 4.0
        for s in (0.0, min(1.0, s_top), s_top):
            slice_fn = ComparisonFn(
                lambda r, _s=s: self.evaluator(r, _s),
                declared_class="Kinf",
                domain_hint=self.r_hint,
                name=f"{self._label()} at s={s:g}",
            )
            slice_fn.validate()
        for r in r_grid[:: max(1, len(r_grid) // 6)]:
            vals = eval_kl_array(self, float(r), s_grid)
            if not np.all(np.isfinite(vals)):
                raise ClassViolation(f"{self._label()}: non-finite on the s grid")
            if np.any(np.diff(vals) > 1e-12 * (1.0 + np.abs(vals[:-1]))):
                raise ClassViolation(
                    f"{self._label()}: not nonincreasing in s at r={r:.6g}"
                )
            tail = float(self.evaluator(float(r), max(1e8, 100.0 * self.s_hint)))
            if not tail <= 1e-3 * (1.0 + float(vals[0])):
                raise ClassViolation(
                    f"{self._label()}: does not decay to 0 in s at r={r:.6g} "
                    f"(tail value {tail:.6g})"
                )

    def _resolvable_at(self, s: float) -> bool:
        try:
            return float(self.evaluator(1e-9, float(s))) > 1e-280
        except Exception:
            return False

    def _label(self) -> str:
        return self.name or "KL function"


def _eval_elementwise(fn: Callable, x) -> np.ndarray:
    """fn on an array, falling back to a scalar loop for functions written
    for scalars.  A package error from the array call is raised as is:
    the scalar loop would only raise it again."""
    x = np.asarray(x, dtype=float)
    try:
        out = np.asarray(fn(x), dtype=float)
        if out.shape == x.shape:
            return out
    except ImpstabError:
        raise
    except Exception:
        pass
    return np.array([float(fn(float(v))) for v in x.ravel()]).reshape(x.shape)


def eval_array(f: ComparisonFn, x: np.ndarray) -> np.ndarray:
    """Evaluate on an array, falling back to a scalar loop."""
    return _eval_elementwise(f.evaluator, x)


def eval_kl_array(beta: KLFn, r: float, s: np.ndarray) -> np.ndarray:
    """Evaluate beta(r, s) over an array of s values."""
    return _eval_elementwise(lambda v: beta.evaluator(r, v), s)


def _eval_kl_over_r(beta: KLFn, r: np.ndarray, s: float) -> np.ndarray:
    """beta(r, s) over an array of r values at one s."""
    return _eval_elementwise(lambda v: beta.evaluator(v, s), r)


def _bisect(up, lo, hi, closed, *carry, together=False):
    """Bisect the brackets [lo, hi] elementwise until ``closed(lo, hi)``.

    ``up(mid, *carry)`` is True where mid lies at or above the root, so
    hi moves to mid, and False where lo does.  ``carry`` holds arrays
    aligned with the brackets (targets, say); they are compacted with the
    open brackets and handed to ``up``, which may update them in place.
    Each bracket leaves as soon as it closes, or with ``together`` all
    run until every one has closed.  Returns the final lower ends, and
    with ``together`` the final upper ends too (None otherwise): brackets
    that leave one by one keep only their lower ends, all the lift reads.
    """
    out = lo.copy()
    live = np.arange(lo.size)
    for _ in range(INVERT_MAX_ITER):
        shut = closed(lo, hi)
        if together:
            if shut.all():
                break
        elif shut.any():
            out[live[shut]] = lo[shut]
            keep = ~shut
            live, lo, hi = live[keep], lo[keep], hi[keep]
            carry = [c[keep] for c in carry]
        if not live.size:
            break
        mid = 0.5 * (lo + hi)
        down = up(mid, *carry)
        lo, hi = np.where(down, lo, mid), np.where(down, mid, hi)
    out[live] = lo
    return out, hi if together else None


def invert(f: ComparisonFn, y: float) -> float:
    """Solve f(r) = y for r in [0, domain_hint]: `invert_array` of one
    target.

    The result satisfies |f(r) - y| <= 1e-10 * (1 + y).  Raises
    OutOfRange when y is negative or above f(domain_hint), and
    NotMonotone when the evaluator contradicts the bracketing order.
    """
    return float(invert_array(f, float(y)))


def invert_array(f: ComparisonFn, y) -> np.ndarray:
    """Solve f(r) = y elementwise for r in [0, domain_hint].

    After the range checks, targets at or below f(0) map to 0 and those
    within the residual tolerance of f(domain_hint) to the domain hint.
    The rest take f's closed-form inverse (clipped to the bracket) where
    it meets the residual; the remaining ones are found by one masked
    bisection, all refined until every bracket is narrow.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = np.zeros(flat.size)
    if np.any(~np.isfinite(flat)) or np.any(flat < 0):
        raise OutOfRange("cannot invert at negative or non-finite targets")
    if not flat.size:
        return out.reshape(y.shape)
    hint = float(f.domain_hint)
    fhi = float(f.evaluator(hint))
    tol = INVERT_TOL * (1.0 + flat)
    if np.any(flat > fhi + tol):
        raise OutOfRange(
            f"target {float(np.max(flat)):.6g} exceeds the reachable value "
            f"{fhi:.6g} at the domain hint"
        )
    flo = float(f.evaluator(0.0))
    # only targets at or below f(0) map to 0: tiny positive targets are
    # resolved by bisection so inverse-backed gauges stay strictly
    # increasing near zero instead of flattening within the tolerance
    todo = np.flatnonzero(~(flat <= flo))
    top = np.abs(fhi - flat[todo]) <= tol[todo]
    out[todo[top]] = hint
    todo = todo[~top]
    if todo.size and f.inverse is not None:
        root = np.clip(_eval_elementwise(f.inverse, flat[todo]), 0.0, hint)
        hit = np.abs(eval_array(f, root) - flat[todo]) <= tol[todo]  # NaN misses
        out[todo[hit]] = root[hit]
        todo = todo[~hit]
    if not todo.size:
        return out.reshape(y.shape)
    slack = 1e-12 * (1.0 + abs(fhi))

    def up(mid, target, f_lo, f_hi):
        fmid = eval_array(f, mid)
        left = (fmid < f_lo - slack) | (fmid > f_hi + slack)
        if left.any():
            i = int(np.argmax(left))
            raise NotMonotone(
                f"evaluator leaves the bracket at r={mid[i]:.6g} (f={fmid[i]:.6g})"
            )
        down = ~(fmid < target)
        np.copyto(f_hi, fmid, where=down)
        np.copyto(f_lo, fmid, where=~down)
        return down

    # refine the brackets all the way down rather than stopping at the
    # residual tolerance: near-exact roots keep inverse-backed evaluators
    # monotone at the resolution the class probes use; the width is
    # purely relative, so tiny roots are resolved instead of quantized
    target, n = flat[todo], todo.size
    lo, hi = _bisect(
        up,
        np.zeros(n),
        np.full(n, hint),
        lambda lo, hi: hi - lo <= 1e-13 * hi,
        target,
        np.full(n, flo),
        np.full(n, fhi),
        together=True,
    )
    out[todo] = 0.5 * (lo + hi)
    miss = ~(np.abs(eval_array(f, out[todo]) - target) <= tol[todo])
    if miss.any():
        raise NotMonotone(
            f"bisection failed to reach tolerance at y={target[np.argmax(miss)]:.6g}; "
            "the evaluator may be discontinuous"
        )
    return out.reshape(y.shape)


def require_kinf(f: ComparisonFn, role: str) -> None:
    """Reject functions that do not hold up as K-infinity."""
    if f.declared_class != "Kinf":
        raise ClassViolation(f"{role} must be declared K-infinity, got {f.declared_class!r}")
    f.validate()


# ---------------------------------------------------------------------------
# Certificate-transforming constructions.


def _beta_at_zero(beta: KLFn) -> ComparisonFn:
    """r -> beta(r, 0) as a gauge, with beta's closed-form inverse of it."""
    return ComparisonFn(
        lambda r: beta.evaluator(r, 0.0),
        declared_class="Kinf",
        domain_hint=beta.r_hint,
        name=f"{beta._label()} at s=0",
        inverse=beta.inverse_at_zero,
    )


def guas_decay_from_iiss(alpha: ComparisonFn, beta: KLFn) -> KLFn:
    """Decay bound implied by a gain pair: alpha-inverse composed with beta.

    With zero input the gain estimate alpha(|x|) <= beta(|x0|, s) collapses
    to |x| <= alpha^{-1}(beta(|x0|, s)), which is again a KL shape.
    """

    def ev(r, s):
        if isinstance(s, np.ndarray):
            return invert_array(alpha, eval_kl_array(beta, float(r), s))
        if isinstance(r, np.ndarray):  # one inversion, whatever beta takes
            return invert_array(alpha, _eval_kl_over_r(beta, r, float(s)))
        return float(invert_array(alpha, beta.evaluator(r, float(s))))

    # cap the r range so every inversion target stays reachable
    alpha_top = float(alpha.evaluator(float(alpha.domain_hint)))
    beta0 = _beta_at_zero(beta)
    if float(beta0.evaluator(beta.r_hint)) > alpha_top:
        r_cap = invert(beta0, alpha_top)
    else:
        r_cap = beta.r_hint
    return KLFn(
        ev,
        r_hint=r_cap,
        s_hint=beta.s_hint,
        name=f"inverse({alpha._label()}) o {beta._label()}",
    )


def ubebs_alpha_from_iiss(alpha: ComparisonFn, beta: KLFn) -> ComparisonFn:
    """Overshoot gauge built from a gain pair.

    psi(r) = min( beta0^{-1}(alpha(r)/2), alpha(r)/2 ) with
    beta0(r) = beta(r, 0).  Then psi(|x|) <= |x0| + energy + 0 holds
    whenever the gain estimate does, because one of the two minimands is
    dominated by the matching term of the estimate.
    """
    beta0 = _beta_at_zero(beta)
    beta0_top = float(beta0.evaluator(beta0.domain_hint))

    def ev(r):
        if isinstance(r, np.ndarray):
            half = 0.5 * eval_array(alpha, r)
            return np.minimum(invert_array(beta0, half), half)
        half = 0.5 * float(alpha.evaluator(float(r)))
        return min(invert(beta0, half), half)

    # keep the certified range within both minimands; callers that need
    # values at larger arguments should clip to the domain hint, which
    # only lowers the gauge and keeps violation reports genuine
    alpha_top = float(alpha.evaluator(float(alpha.domain_hint)))
    cap = min(
        float(alpha.domain_hint),
        invert(alpha, min(2.0 * beta0_top, alpha_top)),
    )
    return ComparisonFn(
        ev,
        declared_class="Kinf",
        domain_hint=cap,
        name=f"overshoot gauge from ({alpha._label()}, {beta._label()})",
    )


# Scalar rounding functions an envelope may be given as, with the numpy
# forms that give the same values on arrays.  Matched by identity, since
# an envelope need not be hashable.
_ARRAY_FORMS = ((math.ceil, np.ceil), (math.floor, np.floor))


def _ceil_edge(v: np.ndarray):
    """g(v) for phi = ceil, and whether s + ceil(s) >= v holds there.

    On (m - 1, m] the sum s + m covers (2m - 1, 2m] and skips
    (2m - 2, 2m - 1], where the infimum m - 1 is not attained.
    """
    m = np.ceil(0.5 * v)
    hit = v > 2.0 * m - 1.0
    return np.where(hit, v - m, m - 1.0), hit


def lift_weak_beta(beta: KLFn, phi: Callable[[float], float]) -> KLFn:
    """Convert an elapsed-time bound into a jump-counting one.

    ``phi`` must be a nondecreasing envelope on the number of jumps in
    any window of a given length.  The lifted bound evaluates beta at
    g(v) = inf{s >= 0 : s + phi(s) >= v}, as bisection on [0, H] finds
    it (H the first power of two from 1 up with H + phi(H) >= v): the
    left endpoint of the first bracket narrower than 1e-10 * (1 + its
    upper end), which keeps the lift conservative:
    beta(r, s) <= lifted(r, s + phi(s)) pointwise.

    For ``math.ceil`` and ``np.ceil`` g has a closed form.  It is placed
    on the dyadic grid where the bisection would close, and taken only
    where the bisection's own predicate and closing rule hold there;
    since s + ceil(s) is nondecreasing in floating point, that grid
    point is what the bisection returns.  Every other target, and every other envelope
    (``math.floor`` included), goes through one masked bisection over all
    strong times (a scalar one is an array of one), each time leaving it
    once its own bracket is narrow.  ``math.ceil`` and ``math.floor``
    are read as ``np.ceil`` and ``np.floor``, and any other envelope is
    called on arrays when it maps the probe array to values of the same
    shape equal to its scalar values; otherwise it is called one element
    at a time.  Either way each time gets the same bits.
    """
    probe = np.concatenate(([1e-9], np.geomspace(1e-6, max(beta.s_hint, 1.0), 40)))
    pv = np.array([float(phi(float(s))) for s in probe])
    if np.any(~np.isfinite(pv)) or np.any(pv < 0):
        raise InvalidPhi("envelope must be finite and nonnegative")
    if np.any(np.diff(pv) < -1e-12 * (1.0 + np.abs(pv[:-1]))):
        at = probe[int(np.argmax(np.diff(pv) < 0))]
        raise InvalidPhi(f"envelope decreases near s={at:.6g}")
    phi_arr = next((arr for fn, arr in _ARRAY_FORMS if phi is fn), phi)
    try:
        takes_arrays = np.array_equal(np.asarray(phi_arr(probe), dtype=float), pv)
    except Exception:
        # an envelope written for scalars may fail on arrays in any way
        takes_arrays = False
    if not takes_arrays:

        def phi_arr(s: np.ndarray) -> np.ndarray:
            return np.array([float(phi(v)) for v in s.tolist()])

    phi0 = float(phi(1e-12))  # limit from the right at 0

    def up(mid: np.ndarray, t: np.ndarray) -> np.ndarray:
        return mid + np.asarray(phi_arr(mid), dtype=float) >= t

    def closed(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return hi - lo <= 1e-10 * (1.0 + hi)

    def g(v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.size)
        live = np.flatnonzero(~(v.ravel() <= phi0))
        target = v.ravel()[live]
        hi, h = np.zeros(live.size), 1.0
        while not hi.all():
            if h > 2.0**199:
                raise InvalidPhi("envelope fails to grow past the target")
            # times still doubling share h: one scalar envelope call
            hi[(hi == 0.0) & (h + float(phi(h)) >= target)] = h
            h *= 2.0
        if phi_arr is np.ceil:
            # Bisection on [0, hi] tests only dyadic points, so it closes on
            # [j * w, (j + 1) * w] for a power of two w, at the first level
            # whose width is at most 1e-10 * (1 + upper end), and returns
            # j * w: the last grid point where the predicate fails, or 0.
            # Take w as the largest power of two at most 1e-10 * (1 + g)
            # and j from g; keep them only where that bracket is closed,
            # its parent [.., 2 * w] open, and the predicate false at j * w
            # (or j = 0) and true at (j + 1) * w.
            s, hit = _ceil_edge(target)
            w = np.ldexp(1.0, np.frexp(1e-10 * (1.0 + s))[1] - 1)
            j = np.where(hit, np.ceil(s / w) - 1.0, np.floor(s / w))
            lo, par = j * w, np.floor(0.5 * j) * (2.0 * w)
            ok = (j >= 0.0) & (2.0 * w <= hi) & closed(lo, lo + w)
            ok &= ~closed(par, par + 2.0 * w) & up(lo + w, target)
            ok &= (j == 0.0) | ~up(lo, target)
            out[live[ok]] = lo[ok]
            live, target, hi = live[~ok], target[~ok], hi[~ok]
        if live.size:
            out[live], _ = _bisect(up, np.zeros(live.size), hi, closed, target)
        return out.reshape(v.shape)

    def ev(r, s):
        if isinstance(s, np.ndarray):
            return eval_kl_array(beta, float(r), g(s))
        gs = float(g(np.array([float(s)]))[0])
        if isinstance(r, np.ndarray):  # one root-find, whatever beta takes
            return _eval_kl_over_r(beta, r, gs)
        return beta.evaluator(r, gs)

    return KLFn(
        ev,
        r_hint=beta.r_hint,
        s_hint=beta.s_hint,
        name=f"lift({beta._label()})",
    )


# ---------------------------------------------------------------------------
# Stock families and config parsing.


def linear(k: float = 1.0, domain_hint: float = 1e6) -> ComparisonFn:
    k, domain_hint = _positive("k", k), _positive("domain_hint", domain_hint)
    return ComparisonFn(
        lambda r: k * r,
        declared_class="Kinf",
        domain_hint=domain_hint,
        name=f"linear(k={k:g})",
        inverse=lambda y: y / k,
    )


def identity() -> ComparisonFn:
    return ComparisonFn(
        lambda r: r,
        declared_class="Kinf",
        domain_hint=1e6,
        name="identity",
        inverse=lambda y: y,
    )


def power(p: float, scale: float = 1.0, domain_hint: float = 1e6) -> ComparisonFn:
    p, scale = _positive("p", p), _positive("scale", scale)
    domain_hint = _positive("domain_hint", domain_hint)
    return ComparisonFn(
        lambda r: scale * r**p,
        declared_class="Kinf",
        domain_hint=domain_hint,
        name=f"power(p={p:g})",
        inverse=lambda y: (y / scale) ** (1.0 / p),
    )


def saturating(scale: float = 1.0) -> ComparisonFn:
    """scale * r / (1 + r): class K but bounded, so never K-infinity."""
    scale = _positive("scale", scale)
    return ComparisonFn(
        lambda r: scale * r / (1.0 + r),
        declared_class="K",
        domain_hint=1e6,
        name=f"saturating(scale={scale:g})",
    )


def log_growth(scale: float = 1.0) -> ComparisonFn:
    """scale * log(1 + r): slowly growing but genuinely unbounded."""
    scale = _positive("scale", scale)
    return ComparisonFn(
        lambda r: scale * np.log1p(r),
        declared_class="Kinf",
        domain_hint=1e6,
        name=f"log-growth(scale={scale:g})",
        inverse=lambda y: np.expm1(y / scale),
    )


def exp_decay_kl(amp: float = 1.0, rate: float = 1.0) -> KLFn:
    amp, rate = _positive("amp", amp), _positive("rate", rate)
    return KLFn(
        lambda r, s: amp * r * np.exp(-rate * s),
        name=f"exp-decay(amp={amp:g}, rate={rate:g})",
        inverse_at_zero=lambda y: y / amp,  # beta(r, 0) = amp * r * 1.0
    )


def rational_decay_kl(amp: float = 1.0, p: float = 1.0) -> KLFn:
    amp, p = _positive("amp", amp), _positive("p", p)
    return KLFn(
        lambda r, s: amp * r / (1.0 + s) ** p,
        name=f"rational-decay(amp={amp:g}, p={p:g})",
        inverse_at_zero=lambda y: y / amp,  # beta(r, 0) = amp * r / 1.0
    )


_GAUGES = {
    "identity": (identity, (), ()),
    "linear": (linear, (), ("k", "domain_hint")),
    "power": (power, ("p",), ("scale", "domain_hint")),
    "saturating": (saturating, (), ("scale",)),
    "log-growth": (log_growth, (), ("scale",)),
}

_KLS = {
    "exp-decay": (exp_decay_kl, (), ("amp", "rate")),
    "rational-decay": (rational_decay_kl, (), ("amp", "p")),
}


def comparison_from_config(cfg: dict) -> ComparisonFn:
    """A gauge from ``{"kind": ..., <the factory's arguments>}``, a number
    perhaps a string read by float(); ConfigError naming the key for a bad
    config, kind or argument, or a power without ``p``."""
    return _from_table(_GAUGES, cfg, "kind", "comparison function")


def kl_from_config(cfg: dict) -> KLFn:
    """A KL function, read as `comparison_from_config` reads a gauge."""
    return _from_table(_KLS, cfg, "kind", "KL function")
