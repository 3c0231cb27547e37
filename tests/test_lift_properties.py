"""Property tests of the weak-to-strong lift, of jump counting and of the
strong-time schedule.

The lift's array path is one masked bisection over all strong times;
its scalar path bisects one time at a time.  Both must give the same
bits for every envelope, array-capable or not.  Times are drawn partly
from a quarter grid so that targets, jump times and window ends land on
the envelopes' steps, where rounding decides the answer.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impstab import comparison
from impstab.certificates import _check_points
from impstab.comparison import KLFn, exp_decay_kl, lift_weak_beta, rational_decay_kl
from impstab.errors import InvalidPhi
from impstab.impulses import (
    ImpulseSequence,
    count_jumps,
    count_jumps_at,
    dwell_family,
    periodic_family,
    shrinking_gap_family,
    strong_time,
    strong_time_schedule,
)
from impstab.inputs import HybridInput, zero_signal
from impstab.library import get_example
from impstab.sim import simulate

PROPERTY = settings(max_examples=200)

ARRAY_ENVELOPES = [
    math.ceil,
    math.floor,
    np.ceil,
    np.sqrt,
    lambda s: s,
    lambda s: np.floor(s / 0.3) + 1.0,
    periodic_family(0.7).uib_phi,
    dwell_family(0.3, 1.0).uib_phi,
    shrinking_gap_family(1.0, 0.1).uib_phi,
]


@dataclass
class Steps:
    """A scalar-only envelope that, like any eq dataclass, is unhashable."""

    width: float

    def __call__(self, s):
        return math.floor(s / self.width) + 1


SCALAR_ENVELOPES = [
    lambda s: math.ceil(s),
    Steps(0.3),
    lambda s: math.sqrt(s),
    lambda s: 2.0,
]
BOUNDED_ENVELOPES = [
    lambda s: np.minimum(np.ceil(s), 3.0),
    lambda s: min(math.ceil(s), 3),
]

# beta(r, s) = s, so the lifted bound reads out g itself
READ_G = KLFn(lambda r, s: s)


def quarter(lo: float, hi: float):
    return st.integers(int(4 * lo), int(4 * hi)).map(lambda k: k / 4)


strong_times = st.one_of(
    quarter(0.0, 60.0),
    st.floats(-1e-3, 60.0, allow_nan=False),
    st.floats(0.0, 5e5, allow_nan=False),
    st.sampled_from([0.0, 1e-12, 1e-9, -1e-3, 5e5]),
)
targets = st.lists(strong_times, min_size=1, max_size=60)


def g_both(phi, vs):
    """g on an array, and g one scalar at a time."""
    lifted = lift_weak_beta(READ_G, phi)
    return lifted(1.0, np.asarray(vs, dtype=float)), [lifted(1.0, float(v)) for v in vs]


@PROPERTY
@given(st.sampled_from(ARRAY_ENVELOPES + SCALAR_ENVELOPES), targets)
def test_array_lift_equals_scalar_bisection(phi, vs):
    """Element by element, the array path returns the scalar bisection's
    bits, whichever path the envelope takes."""
    arr, scalar = g_both(phi, vs)
    assert arr.tolist() == scalar


@PROPERTY
@given(
    st.sampled_from(BOUNDED_ENVELOPES),
    targets,
    st.one_of(st.floats(1e61, 1e300), st.sampled_from([math.inf, math.nan])),
    st.integers(0, 60),
)
def test_both_paths_raise_past_reach(phi, vs, far, at):
    """A target that doubling cannot bracket raises InvalidPhi on both
    paths, wherever it sits in the array."""
    vs = vs[:at] + [far] + vs[at:]
    lifted = lift_weak_beta(READ_G, phi)
    with pytest.raises(InvalidPhi):
        lifted(1.0, np.asarray(vs))
    with pytest.raises(InvalidPhi):
        lifted(1.0, far)


@PROPERTY
@given(
    st.sampled_from(ARRAY_ENVELOPES + SCALAR_ENVELOPES),
    st.sampled_from([exp_decay_kl(2.0, math.log(2.0)), rational_decay_kl(1.5, 2.0)]),
    st.floats(1e-3, 1e3),
    st.lists(st.one_of(quarter(0.0, 40.0), st.floats(0.0, 40.0)), min_size=1, max_size=40),
)
def test_lift_is_conservative(phi, beta, r, ss):
    """beta(r, s) <= lifted(r, s + phi(s)), because g(s + phi(s)) <= s."""
    ss = np.asarray(ss)
    vs = ss + np.array([float(phi(float(s))) for s in ss])
    arr, _ = g_both(phi, vs)
    assert np.all(arr <= ss)
    lifted = lift_weak_beta(beta, phi)
    assert np.all(beta(r, ss) <= lifted(r, vs))


jump_sets = st.lists(st.one_of(quarter(0.25, 12.0), st.floats(0.25, 12.0)), max_size=12).map(
    lambda ts: ImpulseSequence.from_times(np.array(sorted(set(ts))))
)
windows = st.lists(st.one_of(quarter(0.0, 12.0), st.floats(0.0, 12.0)), min_size=2, max_size=2)


@PROPERTY
@given(jump_sets, windows.map(sorted))
def test_count_jumps_half_open(sigma, window):
    """Jumps are counted over (t0, t]: the left end never, the right end
    always, and a zero-width window holds none."""
    t0, t = window
    taus = sigma.materialize(12.0)
    want = sum(1 for tau in taus if t0 < tau <= t)
    assert count_jumps(sigma, t0, t) == want
    assert int(count_jumps_at(taus, t0, np.array([t]))[0]) == want
    assert count_jumps(sigma, t, t) == 0
    assert strong_time(sigma, t0, t) == (t - t0) + want


@PROPERTY
@given(
    jump_sets,
    st.one_of(quarter(0.0, 2.0), st.floats(0.0, 2.0)),
    st.one_of(quarter(0.25, 3.0), st.floats(0.05, 3.0)),
    st.integers(1, 8),
)
def test_schedule_step_is_first_crossing(sigma, t0, inc, count):
    """Each step of the schedule gains strong time in [inc, inc + 1],
    and no earlier time in it does: the midpoint and every jump time
    strictly inside (s_{i-1}, s_i) gain less than inc."""
    schedule = strong_time_schedule(sigma, t0, inc, count)
    assert len(schedule) == count + 1 and schedule[0] == t0
    for s_prev, s_i in zip(schedule[:-1], schedule[1:]):
        assert s_prev < s_i
        # s_{i-1} + (inc - n) rounds, so a flow-ended step may fall short by ulps
        tol = 1e-12 * (1.0 + s_i)
        assert inc - tol <= strong_time(sigma, s_prev, s_i) <= inc + 1.0 + tol
        taus = sigma.materialize(s_i)
        inside = [0.5 * (s_prev + s_i)] + [t for t in taus if s_prev < t < s_i]
        for t in inside:
            assert strong_time(sigma, s_prev, float(t)) < inc


@PROPERTY
@given(jump_sets, quarter(0.0, 2.0), st.floats(-4.0, 4.0), st.sampled_from([0.05, 0.25]))
def test_strong_dominates_weak_pointwise(sigma, t0, x0, step):
    """At every check point the strong time argument is the elapsed one
    plus the jumps counted so far, so a KL bound is never looser in
    strong time than in elapsed time."""
    w = HybridInput(zero_signal(), sigma)
    traj = simulate(get_example("pure-jump"), t0, [x0], w, t0 + 4.0, step)
    ts, norms, strong, side = _check_points(traj, sigma, "strong")
    ts_w, norms_w, weak, side_w = _check_points(traj, sigma, "weak")
    assert np.array_equal(ts, ts_w) and np.array_equal(norms, norms_w)
    assert np.array_equal(side, side_w)
    assert np.all(strong >= weak)
    taus = sigma.materialize(traj.end_time)
    counts = count_jumps_at(taus, t0, ts) - (side == 0)  # a pre-jump entry precedes its jump
    assert np.array_equal(strong, weak + counts)
    beta = exp_decay_kl(3.0, 0.5)
    r0 = abs(x0)
    assert np.all(beta(r0, strong) <= beta(r0, weak))


def test_math_rounding_read_as_numpy(monkeypatch):
    """math.ceil is lifted through its numpy form, with equal results."""
    calls = []

    def counted_ceil(s):
        calls.append(s)
        return np.ceil(s)

    monkeypatch.setattr(comparison, "_ARRAY_FORMS", ((math.ceil, counted_ceil),))
    vs = np.linspace(0.0, 30.0, 1001)
    arr, scalar = g_both(math.ceil, vs)
    assert calls and all(isinstance(s, np.ndarray) for s in calls)
    assert arr.tolist() == scalar
