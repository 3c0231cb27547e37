"""Property tests of the weak-to-strong lift and of jump counting.

For ``math.ceil`` and ``np.ceil`` the lift takes g in closed form,
checked against the bisection's own predicate and closing rule, and
must return the bits a test-local copy of the bisection returns.  Every other envelope, and
any target the check rejects, goes through one masked bisection over
all strong times, each time leaving it once its own bracket is narrow;
a scalar time is an array of one.  An array must give each time the
bits it gets alone, for every envelope, array-capable or not.  Times
are drawn partly from a quarter grid so that targets, jump times and
window ends land on the envelopes' steps, where rounding decides the
answer.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impstab import comparison
from impstab.certificates import _check_points, check_guas, derive_strong_from_weak
from impstab.comparison import KLFn, exp_decay_kl, lift_weak_beta, rational_decay_kl
from impstab.errors import InvalidPhi
from impstab.impulses import ImpulseSequence, count_jumps, count_jumps_at, periodic_family
from impstab.inputs import HybridInput, zero_signal
from impstab.library import get_example, pure_jump_weak_certificate
from impstab.sim import simulate

PROPERTY = settings(max_examples=200)

ARRAY_ENVELOPES = [
    math.ceil,
    math.floor,
    np.ceil,
    np.sqrt,
    lambda s: s,
    lambda s: np.floor(s / 0.3) + 1.0,
    # jump-count envelopes of periodic(0.7) jumps and of gaps of at least
    # 0.3 and 0.1
    lambda s: np.ceil(s / 0.7),
    lambda s: np.floor(s / 0.3) + 1.0,
    lambda s: np.floor(s / 0.1) + 1.0,
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


CLOSED_FORM_ENVELOPES = [math.ceil, np.ceil]


def bisected_g(phi, v: float) -> float:
    """g(v) by doubling and bisection alone, one target at a time: the
    reference the closed form must match bit for bit."""
    if v <= float(phi(1e-12)):
        return 0.0
    hi = 1.0
    while not hi + float(phi(hi)) >= v:
        hi *= 2.0
    lo = 0.0
    while not hi - lo <= 1e-10 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if mid + float(phi(mid)) >= v:
            hi = mid
        else:
            lo = mid
    return lo


def bisections_started(monkeypatch) -> list:
    """A list that records the size of every `_bisect` started from now on."""
    sizes, bisect = [], comparison._bisect

    def counted(up, lo, hi, closed, *carry, together=False):
        sizes.append(lo.size)
        return bisect(up, lo, hi, closed, *carry, together=together)

    monkeypatch.setattr(comparison, "_bisect", counted)
    return sizes


def steps_apart(x: float):
    """x, one ulp either side of it, and 1e-12 either side of it."""
    return st.sampled_from(
        [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf), x - 1e-12, x + 1e-12]
    )


def near_level_change(e: int, d: float) -> float:
    """s + ceil(s) for s within a few 1e-9 of where 1e-10 * (1 + s)
    crosses 2**e, so that the bisection's closing level changes there."""
    s = (2.0**e / 1e-10 - 1.0) * (1.0 - d)
    return s + math.ceil(s)


edge_targets = st.one_of(
    quarter(0.0, 200.0),
    st.builds(
        near_level_change,
        st.integers(-33, -20),
        # within about 5e-11 below a level change the bracket's parent
        # is already closed, so the guess is one level too fine there
        st.one_of(st.floats(0.0, 1e-10), st.floats(-1e-9, 3e-9)),
    ),
    st.integers(0, 400).map(lambda k: k / 2).flatmap(steps_apart),
    st.floats(-1.0, 1.0, allow_nan=False),  # at and below phi(0+)
    st.floats(0.0, 5e5, allow_nan=False),
    st.sampled_from([1e-12, 5e-324, 0.0, -0.0, 5e5]),
)


@settings(max_examples=300, derandomize=True)
@example(math.ceil, [near_level_change(-20, 1e-13), near_level_change(-33, 3e-10)])
@given(st.sampled_from(CLOSED_FORM_ENVELOPES), st.lists(edge_targets, min_size=1, max_size=60))
def test_rounding_lift_is_the_bisection(phi, vs):
    """The closed-form g of a ceil envelope is the bisection's, bit for
    bit, on and around the steps where rounding decides it."""
    got = lift_weak_beta(READ_G, phi)(1.0, np.asarray(vs, dtype=float))
    want = np.array([bisected_g(phi, v) for v in vs])
    assert got.tobytes() == want.tobytes()


def test_weak_lift_check_starts_no_bisection(monkeypatch):
    """On the weak-lift configuration (pure-jump, period-1 jumps, a
    ``math.ceil`` lift of the elapsed-time bound) the lifted check takes
    every strong time in closed form, with the bisection's bits."""
    lifted = derive_strong_from_weak(pure_jump_weak_certificate(), math.ceil)
    read_g = lift_weak_beta(READ_G, math.ceil)
    sizes = bisections_started(monkeypatch)
    family = periodic_family(1.0)
    for i in range(4):
        rng = np.random.default_rng([1760, 0, i])
        t0, x0 = float(rng.uniform(0.0, 2.0)), float(rng.uniform(-5.0, 5.0))
        w = HybridInput(zero_signal(), family.sampler(i, t0 + 10.0))
        traj = simulate(get_example("pure-jump"), t0, [x0], w, t0 + 10.0, 1e-2)
        assert check_guas(lifted, traj).verdict == "pass"
        strong = _check_points(traj, w.sigma, "strong")[2]
        got = read_g(1.0, strong)
        assert not sizes
        want = np.array([bisected_g(math.ceil, v) for v in strong])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "wrong",
    [
        lambda s, hit: (s + 0.25, hit),
        lambda s, hit: (s - 1e-9, hit),
        lambda s, hit: (s, ~hit),
        lambda s, hit: (np.full(s.shape, np.nan), hit),
    ],
    ids=["past-the-step", "below-the-grid-point", "hit-flipped", "nan"],
)
@pytest.mark.parametrize("phi", CLOSED_FORM_ENVELOPES)
def test_wrong_edge_falls_back_to_bisection(monkeypatch, phi, wrong):
    """A threshold that fails the check costs a bisection, not a bit."""
    edge = comparison._ceil_edge
    monkeypatch.setattr(comparison, "_ceil_edge", lambda v: wrong(*edge(v)))
    sizes = bisections_started(monkeypatch)
    vs = np.concatenate([np.arange(0.0, 40.0, 0.25), np.linspace(0.0, 5e5, 41)[1:] + 0.3])
    got = lift_weak_beta(READ_G, phi)(1.0, vs)
    want = np.array([bisected_g(phi, v) for v in vs])
    assert got.tobytes() == want.tobytes()
    assert sizes
