"""Admissible jump-time sequences, jump counting, and jump-time families.

Counting uses intervals open on the left and closed on the right, so a
jump exactly at the start of a window is never counted and one exactly
at the end always is.  Sequences are either finite and explicit or
backed by a generator that must produce every time up to a requested
horizon; materialized prefixes are cached and treated as immutable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, InvalidInterval

# the most RK4 steps one run may take; a grid is sized before it is built.
# Every jump ends a grid segment, so a family refuses to generate more jump
# times than this too.
MAX_GRID_STEPS = 10**7


def _validated_times(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{what}: expected a 1-d array of times")
    if arr.size:
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{what}: times must be finite")
        if arr[0] <= 0.0:
            # time 0 is the conventional origin; a jump there is inadmissible
            raise ValueError(f"{what}: times must be strictly positive")
        if np.any(np.diff(arr) <= 0.0):
            raise ValueError(f"{what}: times must be strictly increasing")
    return arr


class ImpulseSequence:
    """Strictly increasing positive jump times, finite or generated."""

    def __init__(
        self,
        times=None,
        generator: Callable[[float], np.ndarray] | None = None,
        description: str = "",
    ):
        if (times is None) == (generator is None):
            raise ValueError("provide exactly one of times or generator")
        if times is not None:
            self._times = _validated_times(np.asarray(times, dtype=float), "sequence")
            self._times.setflags(write=False)
        else:
            self._times = None
        self._generator = generator
        self.description = description
        self._cache_horizon = -math.inf
        self._cache = np.empty(0)

    @classmethod
    def from_times(cls, times, description: str = "") -> "ImpulseSequence":
        return cls(times=times, description=description)

    @classmethod
    def from_generator(cls, generator, description: str = "") -> "ImpulseSequence":
        return cls(generator=generator, description=description)

    @property
    def is_finite(self) -> bool:
        return self._times is not None

    def materialize(self, horizon: float) -> np.ndarray:
        """All jump times <= horizon, ascending.

        A generator's output is taken as every jump up to the horizon;
        coverage is not checked.  Results are cached grow-only, so
        repeated calls with any horizon up to the largest one seen are
        cheap.
        """
        horizon = float(horizon)
        if not math.isfinite(horizon):
            raise InvalidInterval("horizon must be finite")
        if self._times is not None:
            return self._times[: int(np.searchsorted(self._times, horizon, "right"))]
        if horizon <= self._cache_horizon:
            cut = int(np.searchsorted(self._cache, horizon, "right"))
            return self._cache[:cut]
        fresh = _validated_times(
            np.asarray(self._generator(horizon), dtype=float), "generated sequence"
        )
        if fresh.size and fresh[-1] > horizon:
            fresh = fresh[: int(np.searchsorted(fresh, horizon, "right"))]
        fresh.setflags(write=False)
        self._cache = fresh
        self._cache_horizon = horizon
        return fresh

    def __repr__(self) -> str:
        if self._times is not None:
            head = np.array2string(self._times[:4], precision=4)
            return f"ImpulseSequence(times={head}{'...' if self._times.size > 4 else ''})"
        return f"ImpulseSequence(generator, {self.description or 'unnamed'})"


def count_jumps(sigma: ImpulseSequence, t0: float, t: float) -> int:
    """Number of jump times in (t0, t].  Zero-width windows count zero."""
    if t < t0:
        raise InvalidInterval(f"window end {t} precedes start {t0}")
    times = sigma.materialize(t)
    hi = int(np.searchsorted(times, t, "right"))
    lo = int(np.searchsorted(times, t0, "right"))
    return hi - lo


def count_jumps_at(
    times: np.ndarray, t0: float, t: np.ndarray | float
) -> np.ndarray | int:
    """Vectorized jump count against pre-materialized times."""
    hi = np.searchsorted(times, t, "right")
    lo = np.searchsorted(times, t0, "right")
    return hi - lo


# ---------------------------------------------------------------------------
# Families.


def _finite(name: str, v) -> float:
    """``v`` as a float, or ConfigError naming it unless it is a finite
    number; True would read as 1."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ConfigError(f"{name!r} must be a finite number, got {v!r}")
    return float(v)


def _positive(name: str, v) -> float:
    """``v`` as a float, or ConfigError naming it unless it is a positive,
    finite number: a NaN period would fail at the first step, an infinite
    one would give no jumps, and True would read as 1."""
    if not _finite(name, v) > 0:
        raise ConfigError(f"{name!r} must be a positive, finite number, got {v!r}")
    return float(v)


def _count(name: str, v, low: int = 0, high: float = math.inf) -> int:
    """``v`` as an int, or ConfigError naming it unless it is an integer
    (a float with no fraction counts) in low..high: int() would truncate
    2.9 and read True as 1."""
    integral = isinstance(v, numbers.Integral) or (
        isinstance(v, numbers.Real) and float(v).is_integer()
    )
    if isinstance(v, bool) or not integral or not low <= v <= high:
        bound = f">= {low}" if high == math.inf else f"in {low}..{high}"
        raise ConfigError(f"{name!r} must be an integer {bound}, got {v!r}")
    return int(v)


def _config_number(key: str, v):
    """A config value with a string read by float(), as ``"0.5"``; any
    other value as it is.  ConfigError naming key for a string that is
    not a number."""
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            raise ConfigError(f"{key!r} must be a number, got {v!r}") from None
    return v


@dataclass(frozen=True)
class ImpulseFamily:
    """A seedable distribution over admissible sequences."""

    sampler: Callable[[int, float], ImpulseSequence]
    description: str


def _too_many_jumps(gaps: str, horizon: float) -> InvalidInterval:
    return InvalidInterval(
        f"{gaps} give more than {MAX_GRID_STEPS} jump times up to {horizon!r}"
    )


def empty_family() -> ImpulseFamily:
    empty = ImpulseSequence.from_times((), description="empty")
    return ImpulseFamily(
        sampler=lambda seed, horizon: empty,
        description="no jumps",
    )


def periodic_family(period: float) -> ImpulseFamily:
    """Jumps at every multiple of period.  The draw ignores its seed, so
    every sample is one shared sequence, whose grow-only cache serves
    them all.  More than MAX_GRID_STEPS jumps up to a horizon raise
    InvalidInterval naming the period, before any is built."""
    period = _positive("period", period)

    def gen(horizon: float) -> np.ndarray:
        n = horizon / period + 1e-9
        if n >= MAX_GRID_STEPS + 1:
            raise _too_many_jumps(f"periods of {period!r}", horizon)
        return period * np.arange(1, int(math.floor(n)) + 1)

    shared = ImpulseSequence.from_generator(gen, description=f"periodic({period:g})")
    return ImpulseFamily(
        sampler=lambda seed, horizon: shared,
        description=f"jumps every {period:g} time units",
    )


def dwell_family(min_gap: float, max_gap: float) -> ImpulseFamily:
    """Randomized gaps, each at least min_gap.  More than MAX_GRID_STEPS
    jumps up to a horizon raise InvalidInterval naming the gaps: before
    any is drawn when gaps of at most max_gap force twice that many, else
    as the next one is drawn."""
    min_gap, max_gap = _positive("min_gap", min_gap), _positive("max_gap", max_gap)
    if min_gap > max_gap:
        raise ConfigError(f"need 'min_gap' <= 'max_gap', got {min_gap!r} > {max_gap!r}")
    gaps = f"gaps in [{min_gap!r}, {max_gap!r}]"

    def sample(seed: int, horizon: float) -> ImpulseSequence:
        def gen(h: float) -> np.ndarray:
            if h / max_gap >= 2 * (MAX_GRID_STEPS + 1):
                raise _too_many_jumps(gaps, h)
            rng = np.random.default_rng([7841, seed])
            out = []
            t = 0.0
            while t <= h:
                t += float(rng.uniform(min_gap, max_gap))
                if t <= h:
                    if len(out) >= MAX_GRID_STEPS:
                        raise _too_many_jumps(gaps, h)
                    out.append(t)
            return np.asarray(out)

        return ImpulseSequence.from_generator(
            gen, description=f"dwell({min_gap:g},{max_gap:g})"
        )

    return ImpulseFamily(
        sampler=sample,
        description=f"random gaps in [{min_gap:g}, {max_gap:g}]",
    )


# the most jump times a finite-random family may draw per sample
MAX_RANDOM_JUMPS = 10_000


def finite_random_family(count: int, spread: float) -> ImpulseFamily:
    """A fixed number (0..MAX_RANDOM_JUMPS) of jump times scattered over (0, spread]."""
    count, spread = _count("count", count, 0, MAX_RANDOM_JUMPS), _positive("spread", spread)

    def sample(seed: int, horizon: float) -> ImpulseSequence:
        rng = np.random.default_rng([1139, seed])
        times = np.sort(rng.uniform(0.0, spread, count))
        times = times[times > 0.0]
        while np.any(np.diff(times) <= 0.0):
            times = np.sort(rng.uniform(0.0, spread, count))
            times = times[times > 0.0]
        return ImpulseSequence.from_times(times, description=f"finite({count})")

    return ImpulseFamily(
        sampler=sample,
        description=f"{count} random jumps within (0, {spread:g}]",
    )


def shrinking_gap_family(first_gap: float, min_gap: float) -> ImpulseFamily:
    """Gaps that halve toward a strictly positive floor; never Zeno.  More
    than MAX_GRID_STEPS jumps up to a horizon raise InvalidInterval naming
    the gaps: before any is built when the gaps, which sum to less than
    2 * first_gap + k * min_gap over k jumps, force twice that many, else
    as the next one is built."""
    first_gap, min_gap = _positive("first_gap", first_gap), _positive("min_gap", min_gap)
    if min_gap > first_gap:
        raise ConfigError(f"need 'min_gap' <= 'first_gap', got {min_gap!r} > {first_gap!r}")
    gaps = f"gaps shrinking from {first_gap!r} toward {min_gap!r}"

    def sample(seed: int, horizon: float) -> ImpulseSequence:
        def gen(h: float) -> np.ndarray:
            if (h - 2.0 * first_gap) / min_gap >= 2 * (MAX_GRID_STEPS + 1):
                raise _too_many_jumps(gaps, h)
            out = []
            t = 0.0
            k = 0
            while t <= h:
                gap = min_gap + (first_gap - min_gap) * 0.5**k
                t += gap
                k += 1
                if t <= h:
                    if k > MAX_GRID_STEPS:
                        raise _too_many_jumps(gaps, h)
                    out.append(t)
            return np.asarray(out)

        return ImpulseSequence.from_generator(
            gen, description=f"shrinking({first_gap:g}->{min_gap:g})"
        )

    return ImpulseFamily(
        sampler=sample,
        description=f"gaps shrinking from {first_gap:g} toward {min_gap:g}",
    )


_FAMILIES = {
    "empty": (empty_family, (), ()),
    "periodic": (periodic_family, ("period",), ()),
    "dwell": (dwell_family, ("min_gap", "max_gap"), ()),
    "finite-random": (finite_random_family, ("count", "spread"), ()),
    "shrinking-gap": (shrinking_gap_family, ("first_gap", "min_gap"), ()),
}


def _from_table(table: dict, cfg, key: str, what: str, read=_config_number):
    """``make(**args)`` for ``(make, required, optional) = table[cfg[key]]``,
    args holding each required key and each optional key cfg has, read by
    ``read(k, value)``; make's defaults fill the rest.  ConfigError for a
    config that is not a mapping, an unknown name or a missing key."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} config must be a mapping, got {cfg!r}")
    name = cfg.get(key)
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{what} {key!r} must be one of {sorted(table)}, got {name!r}")
    make, required, optional = table[name]
    for k in required:
        if k not in cfg:
            raise ConfigError(f"{what} {name!r} config is missing {k!r}")
    return make(**{k: read(k, cfg[k]) for k in required + optional if k in cfg})


def _arg(cfg: dict, key: str, default, check=_finite, *bounds):
    """``check(key, v, *bounds)`` of cfg[key] read by `_config_number`, or
    default when cfg lacks key."""
    if key not in cfg:
        return default
    return check(key, _config_number(key, cfg[key]), *bounds)


def family_from_config(cfg: dict) -> ImpulseFamily:
    """Build a family from ``{"name": ..., <its arguments>}``.  A number
    may be given as a string, such as ``"0.5"``, and is read by float().
    A config that is not a mapping, an unknown name, a missing argument,
    a string that is not a number, or an argument the family rejects
    raises ConfigError naming it, before any step."""
    return _from_table(_FAMILIES, cfg, "name", "impulse family")
