"""Property tests of the energy measure over random piecewise-constant
signals, jump sets, windows, stock gauges and scales.

Times are drawn partly from a quarter grid so that breakpoints, jump
times and window ends coincide often, which is where right-continuity
and half-open windows decide the answer.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from impstab.certificates import _scaled_to_energy
from impstab.comparison import ComparisonFn, identity, linear, log_growth, power, saturating
from impstab.impulses import ImpulseSequence, dwell_family, empty_family, periodic_family
from impstab.inputs import (
    EnergyProfile,
    HybridInput,
    InputSignal,
    energy_norm,
    truncate,
    zero_signal,
)

GAUGES = [identity(), power(2.0), power(0.5, 3.0), linear(2.5), log_growth(1.5)]

PROPERTY = settings(max_examples=200)


def times(lo: float, hi: float):
    grid = st.integers(int(4 * lo), int(4 * hi)).map(lambda k: k / 4)
    return st.one_of(grid, st.floats(lo, hi, allow_nan=False))


@st.composite
def hybrid_inputs(draw) -> HybridInput:
    dim = draw(st.integers(1, 3))
    bps = sorted({float(t) for t in draw(st.lists(times(-1.0, 12.0), min_size=1, max_size=6))})
    vals = draw(
        st.lists(
            st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=dim, max_size=dim),
            min_size=len(bps),
            max_size=len(bps),
        )
    )
    if draw(st.booleans()):
        taus = sorted({float(t) for t in draw(st.lists(times(0.25, 12.0), max_size=8))})
    else:
        # dense periodic jumps: long jump sums, where summation order shows
        period = draw(st.floats(0.1, 1.0))
        taus = period * np.arange(1, int(12.0 / period) + 1)
    return HybridInput(
        InputSignal(np.array(bps), np.array(vals)),
        ImpulseSequence.from_times(np.array(taus)),
    )


gauges = st.tuples(st.sampled_from(GAUGES), st.sampled_from(GAUGES))
windows = st.lists(times(0.0, 12.0), min_size=2, max_size=2).map(sorted)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * (1.0 + abs(a))


@PROPERTY
@given(hybrid_inputs(), gauges, windows, st.floats(0.0, 4.0, allow_nan=False))
def test_scaled_total_equals_fresh_profile(w, gain, window, c):
    """The scaled window total is bit for bit the horizon value of a
    profile built from the scaled signal."""
    t0, horizon = window
    profile = EnergyProfile(w, *gain, t0, horizon)
    fresh = EnergyProfile(HybridInput(w.u.scaled(c), w.sigma), *gain, t0, horizon)
    assert profile.scaled_total(c) == float(fresh.at(horizon))
    assert profile.scaled_total(1.0) == float(profile.at(horizon))


@PROPERTY
@given(hybrid_inputs(), gauges, st.lists(times(0.0, 12.0), min_size=3, max_size=3).map(sorted))
def test_energy_additive_and_kept_by_truncation(w, gain, cuts):
    """Energy over (a, c] is the sum over (a, b] and (b, c]; truncating
    to (a, c] keeps it on every sub-window (a, e] with e < c, and on
    (a, c] itself short of exactly rho2(|u(c)|) for a jump charged at c,
    which reads the zeroed value there."""
    a, b, c = cuts
    whole = energy_norm(w, *gain, a, c)
    assert close(whole, energy_norm(w, *gain, a, b) + energy_norm(w, *gain, b, c))
    cut = truncate(w, a, c)
    if b < c:
        assert close(energy_norm(w, *gain, a, b), energy_norm(cut, *gain, a, b))
    deficit = 0.0
    if a < c and c in w.sigma.materialize(c):
        deficit = float(gain[1](float(np.linalg.norm(w.u.value_at(c)))))
    assert close(whole, energy_norm(cut, *gain, a, c) + deficit)


@PROPERTY
@given(
    hybrid_inputs(),
    gauges,
    windows,
    st.floats(-3.0, 1.7, allow_nan=False).map(lambda x: 10.0**x),
)
def test_scaled_to_energy_meets_target(w, gain, window, target):
    """The scaled signal's energy is at most the target and is exactly
    the energy the sampler reports."""
    t0, horizon = window
    u, energy = _scaled_to_energy(w.u, w.sigma, gain, t0, horizon, target)
    assert energy <= target
    assert energy == energy_norm(HybridInput(u, w.sigma), *gain, t0, horizon)
    assert math.isfinite(energy)


SQUARE, LOG = power(2.0), log_growth(1.0)
# the six stock gauges of the cap check and a non-homogeneous composition of two
CAP_GAUGES = [
    identity(),
    power(2.0),
    power(0.5),
    saturating(2.0),
    log_growth(1.5),
    linear(3.0),
    ComparisonFn(lambda r: SQUARE.evaluator(LOG.evaluator(r))),
]
CAP_FAMILIES = [periodic_family(0.5), dwell_family(0.3, 1.0), empty_family()]


def bisected_cap(sig, sigma, gain, t0, t_end, target):
    """The cap by 40 bisection steps on the factor in [0, 1], each priced
    by `EnergyProfile.scaled_total`: the reference the search must match."""
    if target <= 0.0 or sig.is_zero():
        return zero_signal(sig.dim), 0.0
    profile = EnergyProfile(HybridInput(sig, sigma), *gain, t0, t_end)
    base = profile.scaled_total(1.0)
    if base <= target:
        return sig, base
    lo, hi, lo_total = 0.0, 1.0, None
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        total = profile.scaled_total(mid)
        if total <= target:
            lo, lo_total = mid, total
        else:
            hi = mid
    if lo_total is None:
        lo_total = profile.scaled_total(lo)
    return sig.scaled(lo), lo_total


@settings(max_examples=300, derandomize=True)
@given(
    st.lists(times(0.0, 12.0), min_size=1, max_size=5).map(lambda ts: sorted(set(ts))),
    st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=5, max_size=5),
    st.sampled_from(CAP_GAUGES),
    st.sampled_from(CAP_GAUGES),
    st.sampled_from(CAP_FAMILIES),
    st.integers(0, 1000),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_cap_search_is_the_bisection(bps, vals, rho1, rho2, family, seed, t0, share):
    """Factor and energy of the cap are bit for bit those of 40 bisection
    steps, for targets from just above 0 up to the uncapped energy.  A
    share of 0 stands for a target below the energy at factor 2**-40,
    which gives the factor 0.0."""
    sig = InputSignal(np.array(bps), np.array(vals[: len(bps)]))
    t_end = t0 + 12.0
    sigma = family.sampler(seed, t_end + 1.0)
    gain = (rho1, rho2)
    profile = EnergyProfile(HybridInput(sig, sigma), *gain, t0, t_end)
    if share == 0.0:
        target = 0.5 * profile.scaled_total(2.0**-40)
    else:
        target = share * profile.scaled_total(1.0)
    u, energy = _scaled_to_energy(sig, sigma, gain, t0, t_end, target)
    ref_u, ref_energy = bisected_cap(sig, sigma, gain, t0, t_end, target)
    assert u.values.tobytes() == ref_u.values.tobytes()
    assert energy == ref_energy
    if share == 0.0 and target > 0.0:
        assert not np.any(u.values)
