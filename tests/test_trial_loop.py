"""The trial loop's bookkeeping: grid jump counts, sort-free check
points, package-built signals and the shared periodic sequence.

Each reference below is the construction the code used before: jump
counts by `count_jumps_at` over the materialized jumps, check points
ordered by `np.lexsort`, energy by `EnergyProfile.at`/`before_jump`,
and the per-edge loops of `_pulses_at_jumps` and `canonical`.  The new
code must give their bits on every grid it accepts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impstab import certificates
from impstab.certificates import (
    CheckReport,
    GuasCertificate,
    IissCertificate,
    UbebsCertificate,
    _check_points,
    _pulses_at_jumps,
    _sides,
    falsify,
)
from impstab.comparison import exp_decay_kl, identity, linear
from impstab.impulses import ImpulseSequence, count_jumps_at, periodic_family
from impstab.inputs import EnergyProfile, HybridInput, InputSignal, _row_norms, zero_signal
from impstab.library import get_example, lin_contract_iiss_certificate
from impstab.sim import STATUS_COMPLETE, STATUS_DIVERGED, STATUS_STEP_FAILURE, simulate
from impstab.systems import ImpulsiveSystem, system_from_config


def reference_check_points(traj, mode):
    """Check points by searchsorted counts and a lexsort, as before."""
    ts = traj.times
    taus = traj.input_used.sigma.materialize(traj.end_time)
    counts = count_jumps_at(taus, traj.t0, ts)
    jt = traj.jumps
    jc = count_jumps_at(taus, traj.t0, jt) - 1  # jump at jt not yet counted
    elapsed, jel = ts - traj.t0, jt - traj.t0
    sargs = np.concatenate(
        (elapsed + counts, jel + jc) if mode == "strong" else (elapsed, jel)
    )
    all_ts = np.concatenate((ts, jt))
    norms = np.concatenate((traj.norms(), _row_norms(traj.x_pre)))
    side = np.concatenate((np.ones(len(ts), dtype=int), np.zeros(len(jt), dtype=int)))
    all_counts = np.concatenate((counts, jc))
    order = np.lexsort((side, all_ts))
    return all_ts[order], norms[order], sargs[order], side[order], all_counts[order]


def reference_energy(cert, traj, times, side):
    profile = EnergyProfile(traj.input_used, cert.rho1, cert.rho2, traj.t0, traj.end_time)
    energy = profile.at(times)
    pre = side == 0
    energy[pre] = profile.before_jump(times[pre])
    return energy


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def constant_signal_at(start, value):
    return InputSignal(np.array([start]), np.array([[value]]))


LIN = get_example("lin-contract")
OSC = system_from_config(
    {"name": "osc", "dim_x": 2, "dim_u": 1,
     "flow": ["x2 + 0.1*t", "-x1 - 0.1*x2 + u1"], "jump": ["0.1*x1", "-0.5*x2"]}
)
BLOW_UP = system_from_config(
    {"name": "blow-up", "dim_x": 1, "dim_u": 1, "flow": ["x1 * x1"], "jump": ["x1"]}
)
BIG_JUMP = system_from_config(
    {"name": "big-jump", "dim_x": 1, "dim_u": 1, "flow": ["-x1"], "jump": ["1e13 * x1"]}
)
INF_JUMP = ImpulsiveSystem(
    "inf-jump", 1, 1, lambda t, x, u: (-x[0],), lambda t, x, u: (float("inf"),)
)


def nan_flow_after(cut):
    return ImpulsiveSystem(
        "nan-flow", 1, 1,
        lambda t, x, u: (float("nan"),) if t > cut else (-x[0],),
        lambda t, x, u: (-0.5 * x[0],),
    )


quarter = st.integers(0, 12).map(lambda k: 0.25 * k)
jump_time = st.one_of(st.integers(1, 20).map(lambda k: 0.25 * k), st.floats(0.01, 5.0))


@st.composite
def checked_runs(draw):
    """A run on a random grid: jumps possibly at t0 and at the horizon,
    breakpoints possibly on jump times, dimension 1 or 2, and runs that
    complete, diverge, or fail at a jump or between jumps."""
    t0 = draw(st.one_of(quarter, st.floats(0.0, 2.0)))
    horizon = t0 + draw(st.one_of(st.just(0.0), quarter, st.floats(0.0, 3.0)))
    step = draw(st.sampled_from([0.05, 0.1, 0.3]))
    taus = set(draw(st.lists(jump_time, max_size=5)))
    taus |= {t for t in (t0, horizon) if t > 0.0 and draw(st.booleans())}
    taus = sorted(taus)
    bps = set(draw(st.lists(jump_time, max_size=3)))
    bps |= set(draw(st.lists(st.sampled_from(taus), max_size=2)) if taus else ())
    bps = sorted(bps | {0.0})
    vals = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(bps), max_size=len(bps)))
    u = InputSignal(np.asarray(bps), np.asarray(vals))
    w = HybridInput(u, ImpulseSequence.from_times(taus))
    system = draw(st.sampled_from(["lin", "osc", "blow-up", "big-jump", "inf-jump", "nan-flow"]))
    if system == "osc":
        x0 = draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
        return simulate(OSC, t0, x0, w, horizon, step, strict=False)
    x0 = [draw(st.floats(-3.0, 3.0))]
    if system == "blow-up":
        system, x0 = BLOW_UP, [10.0]
    elif system == "nan-flow":
        system = nan_flow_after(t0 + draw(st.floats(0.0, 1.0)) * (horizon - t0))
    else:
        system = {"lin": LIN, "big-jump": BIG_JUMP, "inf-jump": INF_JUMP}[system]
    return simulate(system, t0, x0, w, horizon, step, strict=False)


CERTS = [
    lin_contract_iiss_certificate(),
    IissCertificate(identity(), exp_decay_kl(1.0, 0.5), identity(), linear(2.0), "weak"),
    UbebsCertificate(linear(0.5), identity(), linear(3.0), 0.25),
    GuasCertificate(exp_decay_kl(3.0, 0.5), "strong"),
    GuasCertificate(exp_decay_kl(3.0, 0.5), "weak"),
]


@settings(max_examples=300)
@given(checked_runs())
def test_check_points_match_the_sorted_construction(traj):
    """Times, norms, strong and weak arguments, sides and counts are the
    bits of searchsorted counts and a lexsort, and the trajectory's own
    counts are the searchsorted counts at its samples."""
    taus = traj.input_used.sigma.materialize(traj.end_time)
    assert same_bits(traj.counts, count_jumps_at(taus, traj.t0, traj.times))
    for mode in ("strong", "weak"):
        with np.errstate(over="ignore"):  # a diverged run's last norm may overflow
            got, want = _check_points(traj, mode), reference_check_points(traj, mode)
        for g, w in zip(got, want):
            assert same_bits(g, w)


@settings(max_examples=200)
@given(checked_runs(), st.sampled_from(CERTS))
def test_sides_match_the_sorted_construction(traj, cert):
    """Both sides of every certificate shape, energy included, are the
    bits the sorted points and `at`/`before_jump` gave."""
    with np.errstate(over="ignore"):  # a diverged run's last norm may overflow
        times, lhs, rhs, side = _sides(cert, traj)
        ts, norms, sargs, want_side, _ = reference_check_points(
            traj, "strong" if isinstance(cert, UbebsCertificate) else cert.mode
        )
    assert same_bits(times, ts) and same_bits(side, want_side)
    r0 = float(np.linalg.norm(traj.x0))
    if isinstance(cert, GuasCertificate):
        assert same_bits(lhs, norms)
        assert same_bits(rhs, certificates.eval_kl_array(cert.beta, r0, sargs))
        return
    energy = reference_energy(cert, traj, ts, want_side)
    assert same_bits(lhs, certificates._gauge_values(cert.alpha, norms))
    if isinstance(cert, UbebsCertificate):
        assert same_bits(rhs, r0 + energy + cert.c)
    else:
        assert same_bits(rhs, certificates.eval_kl_array(cert.beta, r0, sargs) + energy)


def test_early_stops_are_covered():
    """The strategy above reaches each way a run can end; spot-check one
    of each with the reference."""
    w = HybridInput(constant_signal_at(0.0, 0.5), ImpulseSequence.from_times([0.5, 1.0, 1.5]))
    runs = {
        STATUS_COMPLETE: simulate(LIN, 0.0, [1.0], w, 2.0, 0.1),
        STATUS_DIVERGED: simulate(BIG_JUMP, 0.0, [1.0], w, 2.0, 0.1, strict=False),
        "fail-at-jump": simulate(INF_JUMP, 0.0, [1.0], w, 2.0, 0.1, strict=False),
        "fail-between": simulate(nan_flow_after(0.75), 0.0, [1.0], w, 2.0, 0.1, strict=False),
    }
    assert runs[STATUS_DIVERGED].status == STATUS_DIVERGED
    assert runs[STATUS_DIVERGED].end_time == 0.5  # diverged at the first jump
    fail = runs["fail-at-jump"]
    assert fail.status == STATUS_STEP_FAILURE and fail.end_time == 0.5
    assert len(fail.jumps) == 0 and fail.counts[-1] == 1  # the failed jump is counted
    assert runs["fail-between"].status == STATUS_STEP_FAILURE
    for traj in runs.values():
        for mode in ("strong", "weak"):
            for g, want in zip(_check_points(traj, mode), reference_check_points(traj, mode)):
                assert same_bits(g, want)


# ---------------------------------------------------------------------------
# Package-built signals: the loops they replaced.


def reference_pulses_at_jumps(sigma, dim, amp, width, t0, t_end):
    taus = sigma.materialize(t_end)
    taus = taus[taus > t0]
    if taus.size == 0 or amp <= 0.0:
        return zero_signal(dim)
    edges = np.unique(np.concatenate((taus - width, taus + width)))
    rows = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        j = int(np.searchsorted(taus, mid))
        near = min(
            abs(mid - taus[j - 1]) if j > 0 else math.inf,
            abs(taus[j] - mid) if j < taus.size else math.inf,
        )
        rows.append(amp * np.ones(dim) if near <= width else np.zeros(dim))
    rows.append(np.zeros(dim))
    return reference_canonical(InputSignal(edges, np.asarray(rows)))


def reference_canonical(sig):
    keep = [0]
    for j in range(1, len(sig.breakpoints)):
        if not np.array_equal(sig.values[j], sig.values[keep[-1]]):
            keep.append(j)
    bp, vals = sig.breakpoints[keep], sig.values[keep]
    if len(bp) > 1 and np.all(vals[0] == 0.0):
        bp, vals = bp[1:], vals[1:]
    return InputSignal(bp, vals)


def same_signal(a, b) -> bool:
    return same_bits(a.breakpoints, b.breakpoints) and same_bits(a.values, b.values)


@settings(max_examples=300)
@given(
    st.lists(jump_time, max_size=8),
    st.integers(1, 2),
    st.sampled_from([0.0, 0.7, 2.0]),
    st.sampled_from([1e-3, 0.02, 0.125, 0.3, 1.0]),
    quarter,
    st.floats(0.0, 5.0),
)
def test_pulses_at_jumps_match_the_loop(taus, dim, amp, width, t0, span):
    sigma = ImpulseSequence.from_times(sorted(set(taus)))
    got = _pulses_at_jumps(sigma, dim, amp, width, t0, t0 + span)
    assert same_signal(got, reference_pulses_at_jumps(sigma, dim, amp, width, t0, t0 + span))


@settings(max_examples=300)
@given(st.integers(1, 2).flatmap(
    lambda dim: st.lists(
        st.tuples(st.floats(0.001, 1.0), st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -2.5]), min_size=dim, max_size=dim)),
        min_size=1, max_size=8,
    )
))
def test_canonical_matches_the_loop(pieces):
    bps = np.cumsum([gap for gap, _ in pieces])
    sig = InputSignal(bps, np.array([row for _, row in pieces]))
    assert same_signal(sig.canonical(), reference_canonical(sig))


def test_zero_signal_is_shared_and_read_only():
    assert zero_signal(2) is zero_signal(2) and zero_signal(2).dim == 2
    with pytest.raises(ValueError):
        zero_signal(1).values[0, 0] = 1.0


def test_scaled_signal_that_overflows_is_rejected():
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        constant_signal_at(0.0, 1e300).scaled(1e300)


# ---------------------------------------------------------------------------
# Work the trial loop no longer does, counted.


def gain_search():
    return falsify(
        lin_contract_iiss_certificate(), LIN, periodic_family(0.5), budget=12, seed=3
    )


def test_periodic_generator_runs_once_per_horizon_increase(monkeypatch):
    """One shared sequence serves every trial, so the generator runs only
    when a trial asks past every horizon asked before."""
    gen_calls, asked = [], []
    from_generator = ImpulseSequence.__dict__["from_generator"].__func__
    materialize = ImpulseSequence.materialize

    def counted_from_generator(cls, generator, *args, **kwargs):
        def gen(horizon):
            gen_calls.append(horizon)
            return generator(horizon)

        return from_generator(cls, gen, *args, **kwargs)

    def counted_materialize(self, horizon):
        asked.append(float(horizon))
        return materialize(self, horizon)

    monkeypatch.setattr(ImpulseSequence, "from_generator", classmethod(counted_from_generator))
    monkeypatch.setattr(ImpulseSequence, "materialize", counted_materialize)
    rep = gain_search()
    assert (rep.verdict, rep.trials) == ("pass", 12)
    increases = sum(1 for i, h in enumerate(asked) if h > max(asked[:i], default=-math.inf))
    assert 1 <= len(gen_calls) <= increases < 12


def test_trial_loop_validates_no_signal_it_builds(monkeypatch):
    """Random, pulse, constant and zero inputs the search draws skip the
    validation a user's signal gets."""
    calls = []
    post_init = InputSignal.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(InputSignal, "__post_init__", counted)
    assert gain_search().verdict == "pass"
    assert calls == []


def test_check_points_neither_sort_nor_materialize(monkeypatch):
    """Every check of the search places its pre-jump entries from the
    grid's counts: no lexsort and no jump-time lookup inside it."""
    inside, seen = [], []
    check_points = certificates._check_points

    def flagged(traj, mode):
        inside.append(True)
        try:
            return check_points(traj, mode)
        finally:
            inside.pop()

    def watch(name, fn):
        def wrapper(*args, **kwargs):
            if inside:
                seen.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(certificates, "_check_points", flagged)
    monkeypatch.setattr(np, "lexsort", watch("lexsort", np.lexsort))
    monkeypatch.setattr(
        ImpulseSequence, "materialize", watch("materialize", ImpulseSequence.materialize)
    )
    assert gain_search().verdict == "pass"
    assert seen == []


def test_a_non_finite_trial_margin_survives_the_fold(monkeypatch):
    """A trial whose worst margin is NaN leaves the search's worst margin
    NaN, whatever the trials after it give."""
    check = certificates.check_certificate
    trial = []

    def one_nan(cert, traj):
        rep = check(cert, traj)
        trial.append(None)
        if len(trial) == 3:
            return CheckReport("inconclusive", rep.kind, math.nan, samples=rep.samples)
        return rep

    monkeypatch.setattr(certificates, "check_certificate", one_nan)
    rep = gain_search()
    assert rep.verdict == "pass" and rep.details["inconclusive_trials"] == 1
    assert math.isnan(rep.worst_margin)
