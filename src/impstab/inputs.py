"""Piecewise-constant input signals, hybrid inputs, and energy norms.

Signals are right-continuous: the value at a breakpoint is the value of
the piece that starts there, and the last piece extends to infinity.
Before the first breakpoint the signal is zero.  Restricting to
piecewise-constant inputs makes every energy integral a finite sum that
is evaluated exactly, so the norm identities (additivity over adjacent
windows, agreement with truncation) hold to rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comparison import ComparisonFn, eval_array
from .errors import ConfigError, InvalidInterval, OutOfRange
from .impulses import ImpulseSequence, _arg, _count, _positive
from .systems import MAX_DIM


@dataclass(frozen=True)
class InputSignal:
    breakpoints: np.ndarray  # (k,), strictly increasing
    values: np.ndarray  # (k, m); row j applies on [b_j, b_{j+1})

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if bp.ndim != 1 or vals.ndim != 2 or len(bp) != len(vals):
            raise ValueError("breakpoints and values must align 1-to-1")
        if len(bp) == 0:
            raise ValueError("a signal needs at least one piece")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(vals)):
            raise ValueError("breakpoints and values must be finite")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        self._freeze(bp, vals)

    def _freeze(self, bp: np.ndarray, vals: np.ndarray) -> None:
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        # the rows with a zero row appended: row index -1 (a time before
        # the first breakpoint) then reads the zero signal
        padded = np.vstack((vals, np.zeros((1, vals.shape[1]))))
        padded.setflags(write=False)
        object.__setattr__(self, "_padded", padded)

    @classmethod
    def _trusted(cls, bp: np.ndarray, vals: np.ndarray) -> "InputSignal":
        """A signal the package built itself, unchecked: bp a 1-d float
        array, finite and strictly increasing, and vals a (len(bp), m)
        float array of finite rows.  Both are frozen in place."""
        sig = object.__new__(cls)
        sig._freeze(bp, vals)
        return sig

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def value_at(self, t) -> np.ndarray:
        """The row in force at time t; for an array of times, one row each."""
        return self._padded[np.searchsorted(self.breakpoints, t, "right") - 1]

    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))

    def piece_table(self, a: float, b: float):
        """(starts, ends, rows) covering [a, b] including the implicit
        zero piece before the first breakpoint."""
        if b < a:
            raise InvalidInterval(f"window end {b} precedes start {a}")
        bp = self.breakpoints
        # breakpoints strictly inside (a, b) are bp[lo:hi]
        lo = int(np.searchsorted(bp, a, "right"))
        hi = max(lo, int(np.searchsorted(bp, b, "left")))
        inside = bp[lo:hi]
        starts = np.concatenate(([a], inside))
        ends = np.concatenate((inside, [b]))
        return starts, ends, self._padded[np.arange(lo - 1, hi)]

    def canonical(self) -> "InputSignal":
        """Merge adjacent pieces with equal values; drop a leading zero piece."""
        vals = self.values
        keep = np.concatenate(([True], np.any(vals[1:] != vals[:-1], axis=1)))
        bp, vals = self.breakpoints[keep], vals[keep]
        if len(bp) > 1 and np.all(vals[0] == 0.0):
            bp, vals = bp[1:], vals[1:]
        return InputSignal._trusted(bp, vals)

    def scaled(self, factor: float) -> "InputSignal":
        """The signal times factor; ValueError when a value overflows."""
        vals = factor * self.values
        if not np.all(np.isfinite(vals)):
            raise ValueError("breakpoints and values must be finite")
        return InputSignal._trusted(self.breakpoints, vals)

    def to_json(self) -> dict:
        return {
            "breakpoints": [float(t) for t in self.breakpoints],
            "values": [[float(v) for v in row] for row in self.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "InputSignal":
        return cls(
            np.asarray(data["breakpoints"], dtype=float),
            np.asarray(data["values"], dtype=float),
        )


_ZEROS: dict[int, InputSignal] = {}


def zero_signal(dim: int = 1) -> InputSignal:
    """The zero signal of dimension dim: one shared, read-only signal per
    dimension, built on first use."""
    if dim not in _ZEROS:
        _ZEROS[dim] = InputSignal._trusted(np.array([0.0]), np.zeros((1, dim)))
    return _ZEROS[dim]


def constant_signal(value, start: float = 0.0) -> InputSignal:
    row = np.atleast_1d(np.asarray(value, dtype=float))
    return InputSignal(np.array([start]), row[None, :])


def _pulses(
    amplitude: float,
    ratio: float,
    period: float,
    width: float,
    count: int,
    start: float,
    dim: int,
) -> InputSignal:
    """``count`` rectangular pulses of the given width, one per period,
    pulse k of amplitude ``amplitude * ratio**k``.  A pulse that lasts
    until the next one starts (width == period) runs into it."""
    if width <= 0 or period <= 0 or width > period or not 1 <= count <= MAX_PULSES:
        raise ConfigError(f"need 0 < 'width' <= 'period' and 1 <= 'count' <= {MAX_PULSES}")
    bps = [start - 1.0]
    vals = [np.zeros(dim)]
    for k in range(count):
        on = start + k * period
        bps.append(on)
        vals.append(amplitude * ratio**k * np.ones(dim))
        if k == count - 1 or on + width < start + (k + 1) * period:
            bps.append(on + width)
            vals.append(np.zeros(dim))
    return InputSignal(np.asarray(bps), np.asarray(vals)).canonical()


def pulse_train(
    amplitude: float,
    period: float,
    width: float,
    count: int,
    start: float = 0.0,
    dim: int = 1,
) -> InputSignal:
    """``count`` rectangular pulses of the given width, one per period."""
    return _pulses(amplitude, 1.0, period, width, count, start, dim)


def decaying_burst(
    amplitude: float,
    ratio: float,
    period: float,
    width: float,
    count: int,
    start: float = 0.0,
    dim: int = 1,
) -> InputSignal:
    """Pulses whose amplitude shrinks geometrically; finite total energy
    for identity-like gauges even as count grows."""
    if not (0 < ratio < 1):
        raise ConfigError("'ratio' must lie in (0, 1)")
    return _pulses(amplitude, ratio, period, width, count, start, dim)


def _numbers(key: str, v) -> np.ndarray:
    """``v``, a number or nested lists of them, as a float array; a string
    entry is read by float().  ConfigError naming key for a bool, a
    non-number or a non-finite number."""
    try:
        if any(isinstance(x, bool) for x in np.asarray(v, dtype=object).ravel()):
            raise ValueError
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} must hold numbers, got {v!r}") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key!r} must hold finite numbers, got {v!r}")
    return arr


_PRESETS = ("zero", "constant", "pulse-train", "decaying-burst")
# the most pulses the pulse builder makes: it builds each in a Python loop
MAX_PULSES = 10_000


def signal_from_config(cfg, dim: int = 1) -> InputSignal:
    """An input signal from None or "zero", a preset object or a raw
    ``{"breakpoints": [...], "values": [...]}``.

    The presets and their keys: "zero" (dim), "constant" (value, start),
    "pulse-train" (amplitude, period, width, count, start, dim) and
    "decaying-burst" (those and ratio).  A key left out takes its
    default; dim defaults to the ``dim`` argument.  A number may be given
    as a string, read by float().  ConfigError naming the key for a
    missing key, an unknown preset, a bool, a non-number or a non-finite
    number, a period or width that is not positive, a count that is not
    an integer in 1..MAX_PULSES and a dim that is not an integer in
    1..MAX_DIM; ConfigError too for any signal `InputSignal` rejects.
    """
    if cfg is None or cfg == "zero":
        return zero_signal(dim)
    if not isinstance(cfg, dict):
        raise ConfigError(f"cannot interpret input config {cfg!r}")
    try:
        if "preset" not in cfg:
            for key in ("breakpoints", "values"):
                if key not in cfg:
                    raise ConfigError(f"input signal config is missing {key!r}")
            return InputSignal(*(_numbers(key, cfg[key]) for key in ("breakpoints", "values")))
        preset = cfg["preset"]
        if preset not in _PRESETS:
            raise ConfigError(f"input 'preset' must be one of {_PRESETS}, got {preset!r}")
        if preset == "constant":
            value = _numbers("value", cfg.get("value", 1.0))
            return constant_signal(value, _arg(cfg, "start", 0.0))
        dim = _arg(cfg, "dim", dim, _count, 1, MAX_DIM)
        if preset == "zero":
            return zero_signal(dim)
        amplitude = _arg(cfg, "amplitude", 1.0)
        shape = (
            _arg(cfg, "period", 1.0, _positive),
            _arg(cfg, "width", 0.5, _positive),
            _arg(cfg, "count", 4, _count, 1, MAX_PULSES),
            _arg(cfg, "start", 0.0),
            dim,
        )
        if preset == "pulse-train":
            return pulse_train(amplitude, *shape)
        return decaying_burst(amplitude, _arg(cfg, "ratio", 0.5), *shape)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad input signal {cfg!r}: {exc}") from None


@dataclass(frozen=True)
class HybridInput:
    """The pair driving a trajectory: a signal and the jump times."""

    u: InputSignal
    sigma: ImpulseSequence

    @property
    def dim(self) -> int:
        return self.u.dim


def truncate(w: HybridInput, t0: float, t: float) -> HybridInput:
    """Zero the signal outside (t0, t]; jump times are left alone.

    The restricted signal keeps the original values on [t0, t) and is
    zero from t on.  Energy over every sub-window of (t0, t] is kept,
    except that a jump exactly at t is charged at the zeroed value: a
    right-continuous piecewise-constant signal cannot keep u(t) and also
    be zero after t.
    """
    if t < t0:
        raise InvalidInterval(f"window end {t} precedes start {t0}")
    if t == t0:
        return HybridInput(zero_signal(w.u.dim), w.sigma)
    bp = [t0]
    vals = [w.u.value_at(t0)]
    inner = w.u.breakpoints[(w.u.breakpoints > t0) & (w.u.breakpoints < t)]
    for b in inner:
        bp.append(float(b))
        vals.append(w.u.value_at(float(b)))
    bp.append(t)
    vals.append(np.zeros(w.u.dim))
    return HybridInput(InputSignal(np.asarray(bp), np.asarray(vals)), w.sigma)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, as np.linalg.norm(row) computes it.

    A one-column row's norm is the root of its one rounded square, which
    every summation order gives; wider rows take a call each, since the
    per-vector call and an axis=1 reduction may round differently.
    """
    if rows.shape[1] == 1:
        return np.sqrt(rows[:, 0] * rows[:, 0])
    return np.array([float(np.linalg.norm(row)) for row in rows])


class EnergyProfile:
    """Cumulative energy of a hybrid input over (t0, .] up to a horizon.

    The flow part is a piecewise-linear polyline (the integrand is
    constant per piece), so evaluation anywhere is exact interpolation.
    The jump part is a step function over the jump times.  The piece
    lengths, piece rows and each jump's row are kept, so `scaled_total`
    can price the same input scaled by any factor without rebuilding.
    """

    def __init__(
        self,
        w: HybridInput,
        rho1: ComparisonFn,
        rho2: ComparisonFn,
        t0: float,
        horizon: float,
    ):
        if horizon < t0:
            raise InvalidInterval(f"horizon {horizon} precedes start {t0}")
        self.t0 = float(t0)
        self.horizon = float(horizon)
        self._rho1 = rho1
        self._rho2 = rho2
        starts, ends, self._rows = w.u.piece_table(self.t0, self.horizon)
        self._keep = ends > starts
        self._lengths = (ends - starts)[self._keep]
        self._knots = np.concatenate(([self.t0], ends[self._keep]))
        # sequential running sums from 0.0, one term per nonempty piece
        self._cum = np.cumsum(np.concatenate(([0.0], self._flow_terms(self._rows))))
        taus = w.sigma.materialize(self.horizon)
        taus = taus[taus > self.t0]
        self._taus = taus
        # each jump reads the right-continuous row at its time; index -1
        # (before the first breakpoint) is the zero row
        self._padded = w.u._padded
        self._jump_row = np.searchsorted(w.u.breakpoints, taus, "right") - 1
        self._jump_cum = np.zeros(1)
        if taus.size:
            self._jump_cum = np.concatenate(([0.0], np.cumsum(self._jump_mags(self._padded))))

    def _flow_terms(self, rows: np.ndarray) -> np.ndarray:
        # the expression np.linalg.norm(rows, axis=1) evaluates, unwrapped
        rates = eval_array(self._rho1, np.sqrt(np.add.reduce(rows * rows, axis=1)))
        return self._lengths * rates[self._keep]

    def _jump_mags(self, padded: np.ndarray) -> np.ndarray:
        return eval_array(self._rho2, _row_norms(padded)[self._jump_row])

    def scaled_total(self, c: float) -> float:
        """Energy over (t0, horizon] of the same input with its signal
        scaled by c; bit for bit `at(horizon)` of a profile built from
        the scaled signal.

        Only the window total is formed: the flow terms and the jump
        magnitudes are each added in a running sum from 0.0, the order
        of the cumulative sums a built profile keeps, and the two sums
        then added.  (Python's `sum` compensates from 3.12 on, so it is
        not used.)
        """
        flow = 0.0
        for term in self._flow_terms(c * self._rows).tolist():
            flow += term
        jump = 0.0
        if self._taus.size:
            for mag in self._jump_mags(c * self._padded).tolist():
                jump += mag
        return flow + jump

    def flow_part(self, t):
        return np.interp(t, self._knots, self._cum)

    def _within(self, t) -> None:
        # past the horizon the polyline would clamp to its last value
        if np.any(np.asarray(t) > self.horizon):
            raise OutOfRange(
                f"energy queried past the profile horizon {self.horizon:.6g}"
            )

    def _priced(self, t, jumps):
        """The flow energy up to t plus that of the first ``jumps`` jumps
        after t0, for t within the horizon (unchecked)."""
        return self.flow_part(t) + self._jump_cum[jumps]

    def at(self, t):
        """Energy over (t0, t] for scalar or array t within the horizon;
        OutOfRange past it."""
        self._within(t)
        return self._priced(t, np.searchsorted(self._taus, t, "right"))

    def before_jump(self, tau: float | np.ndarray) -> float | np.ndarray:
        """Energy over (t0, tau), the jump term at tau itself excluded, for
        scalar or array tau within the horizon (OutOfRange past it); same
        shape out, like `at`."""
        self._within(tau)
        return self._priced(tau, np.searchsorted(self._taus, tau, "left"))


def energy_norm(
    w: HybridInput,
    rho1: ComparisonFn,
    rho2: ComparisonFn,
    t0: float,
    t: float,
) -> float:
    """Flow energy plus jump energy of w over the window (t0, t].

    Both gauges are applied to the Euclidean norm of the signal value;
    at jump times the right-continuous value is used.
    """
    if t < t0:
        raise InvalidInterval(f"window end {t} precedes start {t0}")
    if t == t0:
        return 0.0
    return float(EnergyProfile(w, rho1, rho2, t0, t).at(t))
