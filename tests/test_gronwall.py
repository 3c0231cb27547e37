"""Jump-aware integral inequality: bound, extremal profile, verifier."""

import math
from dataclasses import replace

import numpy as np
import pytest

from impstab.errors import HypothesisFailed, InvalidInterval
from impstab.gronwall import (
    GronwallData,
    gronwall_bound,
    gronwall_bound_at,
    growth_profile,
    scaled_growth_profile,
    verify_gronwall,
)
from impstab.impulses import ImpulseSequence

# p=1, q1=1, q2=2, one jump in (0, 1]: 1 * (1+2)^1 * e^1 = 3e.
BOUND_ORACLE = 8.154845485377136


def seq(*times):
    return ImpulseSequence.from_times(np.asarray(times, dtype=float))


def data(p=1.0, q1=1.0, q2=2.0, sigma=None, t0=0.0):
    return GronwallData(p=p, q1=q1, q2=q2, sigma=seq(1.0) if sigma is None else sigma, t0=t0)


class TestBound:
    def test_frozen_oracle(self):
        assert abs(gronwall_bound(data(), 1.0) - BOUND_ORACLE) <= 1e-12

    def test_no_jumps_pure_exponential(self):
        d = data(p=2.0, q1=0.7, q2=5.0, sigma=seq())
        assert gronwall_bound(d, 3.0) == pytest.approx(2.0 * math.exp(2.1), rel=1e-14)

    def test_no_flow_pure_jump_powers(self):
        d = data(p=1.0, q1=0.0, q2=1.0, sigma=seq(1.0, 2.0, 3.0))
        assert gronwall_bound(d, 3.0) == 8.0
        assert gronwall_bound(d, 2.5) == 4.0
        assert gronwall_bound(d, 1.0) == 2.0  # jump at t counts: window (t0, t]
        assert gronwall_bound(d, 0.5) == 1.0

    def test_jump_at_start_excluded(self):
        d = data(p=1.0, q1=0.0, q2=9.0, sigma=seq(2.0), t0=2.0)
        assert gronwall_bound(d, 2.0) == 1.0

    def test_vectorized_matches_scalar(self):
        d = data(p=0.5, q1=0.3, q2=0.8, sigma=seq(0.5, 1.5, 2.5))
        ts = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0])
        vec = gronwall_bound_at(d, ts)
        for t, v in zip(ts, vec):
            assert v == pytest.approx(gronwall_bound(d, float(t)), rel=1e-14)

    def test_nonfinite_start_rejected(self):
        """The profile shares the simulator's step grid, which rejects a
        start that is not finite."""
        with pytest.raises(InvalidInterval, match="not finite"):
            growth_profile(data(t0=math.nan), 1.0)

    def test_bad_data_rejected(self):
        with pytest.raises(InvalidInterval):
            gronwall_bound(data(), -1.0)
        with pytest.raises(InvalidInterval):
            growth_profile(data(), 1.0, float("nan"))
        with pytest.raises(ValueError):
            data(q1=-0.1)
        with pytest.raises(ValueError):
            data(q2=-0.1)
        with pytest.raises(ValueError):
            data(p=-1.0)
        with pytest.raises(ValueError):
            data(p=float("inf"))


class TestGrowthProfile:
    def test_equals_bound_everywhere(self):
        d = data(p=1.5, q1=0.6, q2=0.9, sigma=seq(0.7, 1.4, 2.9))
        traj = growth_profile(d, 4.0, step=1e-2)
        expect = gronwall_bound_at(d, traj.times)
        assert np.allclose(traj.states[:, 0], expect, rtol=1e-12, atol=0.0)
        # pre-jump states carry the bound with one jump fewer
        assert traj.jumps.tolist() == [0.7, 1.4, 2.9]
        # the recorded input: no signal, the data's jump times
        assert traj.horizon == 4.0 and traj.input_used.sigma is d.sigma
        assert traj.input_used.u.is_zero()
        x_post = traj.states[np.searchsorted(traj.times, traj.jumps), 0]
        for n_pre, (tau, x_pre) in enumerate(zip(traj.jumps, traj.x_pre[:, 0])):
            want = d.p * (1.0 + d.q2) ** n_pre * math.exp(d.q1 * (tau - d.t0))
            assert x_pre == pytest.approx(want, rel=1e-12)
            assert x_post[n_pre] == pytest.approx((1.0 + d.q2) * want, rel=1e-12)

    def test_extremal_profile_verifies(self):
        d = data(p=1.0, q1=1.0, q2=2.0, sigma=seq(1.0, 2.0))
        rep = verify_gronwall(growth_profile(d, 3.0, step=1e-2), d)
        assert rep.bound_satisfied
        assert rep.witness_time is None
        # equality case: both margins sit at zero up to quadrature error
        assert abs(rep.hypothesis_margin) <= 1e-3
        assert abs(rep.worst_slack) <= 1e-3

    def test_degenerate_window(self):
        d = data()
        traj = growth_profile(d, 0.0, step=1e-2)
        assert len(traj.times) == 1
        assert traj.states[0][0] == d.p


class TestVerifier:
    def test_scaled_profiles_pass(self):
        d = data(p=2.0, q1=0.8, q2=1.5, sigma=seq(0.5, 1.7))
        traj = scaled_growth_profile(
            d, 3.0, step=1e-2, flow_scale=0.6, jump_scale=0.5, offset_scale=0.8
        )
        rep = verify_gronwall(traj, d)
        assert rep.bound_satisfied
        assert rep.worst_slack > 0.0
        assert rep.hypothesis_margin > 0.0

    def test_random_subextremal_profiles_pass(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = GronwallData(
                p=float(rng.uniform(0.1, 3.0)),
                q1=float(rng.uniform(0.0, 1.5)),
                q2=float(rng.uniform(0.0, 2.0)),
                sigma=seq(*np.sort(rng.uniform(0.1, 2.9, size=rng.integers(0, 4)))),
            )
            traj = scaled_growth_profile(
                d,
                3.0,
                step=2e-2,
                flow_scale=float(rng.uniform(0.0, 1.0)),
                jump_scale=float(rng.uniform(0.0, 1.0)),
                offset_scale=float(rng.uniform(0.1, 1.0)),
            )
            rep = verify_gronwall(traj, d)
            assert rep.bound_satisfied
            assert rep.hypothesis_margin >= -1e-9

    def test_bumped_sample_fails_hypothesis(self):
        d = data(p=1.0, q1=1.0, q2=0.5, sigma=seq(1.0))
        traj = growth_profile(d, 2.0, step=1e-2)
        ys = traj.states.copy()
        i = len(ys) // 2
        ys[i, 0] *= 1.5
        forged = replace(traj, states=ys)
        with pytest.raises(HypothesisFailed) as exc:
            verify_gronwall(forged, d)
        assert exc.value.witness_time == pytest.approx(float(traj.times[i]), abs=1e-6)

    def test_scalar_only_and_t0_match(self):
        d = data()
        traj = growth_profile(d, 1.0)
        wide = replace(
            traj,
            states=np.hstack([traj.states, traj.states]),
            jumps=np.empty(0),
            x_pre=np.empty((0, 2)),
        )
        with pytest.raises(ValueError):
            verify_gronwall(wide, d)
        with pytest.raises(InvalidInterval):
            verify_gronwall(traj, data(t0=0.5))

    def test_scale_arguments_validated(self):
        with pytest.raises(ValueError):
            scaled_growth_profile(data(), 1.0, flow_scale=1.5)

