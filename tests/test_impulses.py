"""Jump-time sequences, counting conventions, and families."""

import math

import numpy as np
import pytest

from impstab.errors import InvalidInterval, InvalidPhi
from impstab.impulses import (
    ImpulseSequence,
    count_jumps,
    count_jumps_at,
    dwell_family,
    empty_family,
    family_from_config,
    family_generators,
    finite_random_family,
    periodic_family,
    shrinking_gap_family,
    strong_time,
    strong_time_schedule,
    uib_check,
)


def seq(*times):
    return ImpulseSequence.from_times(np.asarray(times, dtype=float))


class TestCounting:
    def test_half_open_window(self):
        """Jumps are counted over (t0, t]: left end excluded, right included."""
        s = seq(1.0, 2.0, 3.0)
        assert count_jumps(s, 1.0, 2.0) == 1  # the jump at t0 = 1 is not counted
        assert count_jumps(s, 0.0, 2.0) == 2
        assert count_jumps(s, 0.0, 3.0) == 3
        assert count_jumps(s, 2.5, 2.9) == 0

    def test_empty_window(self):
        assert count_jumps(seq(1.0), 0.5, 0.5) == 0

    def test_reversed_window_rejected(self):
        with pytest.raises(InvalidInterval):
            count_jumps(seq(1.0), 2.0, 1.0)

    def test_additivity(self):
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.uniform(0.05, 0.8, 60))
        s = ImpulseSequence.from_times(times)
        for _ in range(200):
            a, b, c = np.sort(rng.uniform(0.0, float(times[-1]), 3))
            assert count_jumps(s, a, b) + count_jumps(s, b, c) == count_jumps(s, a, c)

    def test_vectorized_matches_scalar(self):
        s = seq(0.5, 1.0, 1.5, 2.5)
        taus = s.materialize(10.0)
        ts = np.linspace(0.2, 3.0, 29)
        got = count_jumps_at(taus, 0.2, ts)
        want = [count_jumps(s, 0.2, float(t)) for t in ts]
        assert list(got) == want

    def test_time_zero_jump_rejected(self):
        with pytest.raises(ValueError):
            seq(0.0, 1.0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            seq(2.0, 1.0)
        with pytest.raises(ValueError):
            seq(1.0, 1.0)

    def test_json_roundtrip(self):
        s = seq(0.25, 1.5)
        back = ImpulseSequence.from_json(s.to_json())
        assert list(back.materialize(5.0)) == [0.25, 1.5]


class TestStrongTime:
    def test_matches_definition(self):
        s = seq(1.0, 2.0)
        assert strong_time(s, 0.0, 2.5) == 2.5 + 2
        assert strong_time(s, 1.0, 2.0) == 1.0 + 1

    def test_dominates_elapsed(self):
        rng = np.random.default_rng(9)
        times = np.cumsum(rng.uniform(0.1, 1.0, 30))
        s = ImpulseSequence.from_times(times)
        for _ in range(100):
            a, b = np.sort(rng.uniform(0.0, 25.0, 2))
            assert strong_time(s, a, b) >= b - a


class TestSchedule:
    def test_frozen_example(self):
        """Three early jumps: the first crossing is at the second jump,
        the next one happens by pure flow after the last jump."""
        s = seq(0.1, 0.2, 0.3)
        got = strong_time_schedule(s, 0.0, 2.0, 2)
        np.testing.assert_allclose(got, [0.0, 0.2, 1.2], atol=1e-12)

    def test_periodic_unit_grid(self):
        s = periodic_family(1.0).sampler(0, 50.0)
        got = strong_time_schedule(s, 0.0, 2.0, 5)
        np.testing.assert_allclose(got, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], atol=1e-12)

    def test_no_jumps_is_arithmetic(self):
        got = strong_time_schedule(seq(), 1.0, 0.5, 4)
        np.testing.assert_allclose(got, [1.0, 1.5, 2.0, 2.5, 3.0], atol=1e-12)

    def test_increment_bracket(self):
        """Strong time gained over one schedule step lies in
        [increment, increment + 1]: the crossing overshoots by at most
        one jump."""
        rng = np.random.default_rng(21)
        for trial in range(20):
            times = np.cumsum(rng.uniform(0.05, 1.2, 80))
            s = ImpulseSequence.from_times(times)
            inc = float(rng.uniform(0.3, 3.0))
            sched = strong_time_schedule(s, 0.0, inc, 8)
            for a, b in zip(sched[:-1], sched[1:]):
                gained = (b - a) + count_jumps(s, a, b)
                assert inc - 1e-9 <= gained <= inc + 1.0 + 1e-9

    def test_bad_args(self):
        with pytest.raises(InvalidInterval):
            strong_time_schedule(seq(1.0), 0.0, 0.0, 3)
        with pytest.raises(InvalidInterval):
            strong_time_schedule(seq(1.0), 0.0, 1.0, -1)


class TestUib:
    def test_periodic_envelope_passes(self):
        fam = periodic_family(0.5)
        rep = uib_check(fam, fam.uib_phi, sample_count=150, horizon=30.0, seed=2)
        assert rep.passed
        assert rep.checked > 100

    def test_undersized_envelope_caught(self):
        fam = periodic_family(0.5)
        rep = uib_check(fam, lambda s: 0.5 * s, sample_count=150, horizon=30.0, seed=2)
        assert not rep.passed
        v = rep.violation
        assert v["count"] > v["bound"]

    def test_dwell_envelope_passes(self):
        fam = dwell_family(0.2, 0.7)
        rep = uib_check(fam, fam.uib_phi, sample_count=200, horizon=40.0, seed=5)
        assert rep.passed

    def test_stock_envelopes_equal_their_math_forms(self):
        """The numpy envelopes give the values of the scalar math forms
        they replace, at every scalar and element by element on arrays."""
        grid = np.concatenate(
            ([0.0, 1e-12, 1e-9], np.arange(0.0, 50.0, 0.05), np.geomspace(1e-6, 1e5, 300))
        )
        cases = [
            (periodic_family(0.7).uib_phi, lambda s: math.ceil(s / 0.7)),
            (periodic_family(1.0).uib_phi, lambda s: math.ceil(s / 1.0)),
            (dwell_family(0.3, 2.0).uib_phi, lambda s: math.floor(s / 0.3) + 1.0),
            (shrinking_gap_family(1.0, 0.1).uib_phi, lambda s: math.floor(s / 0.1) + 1.0),
        ]
        for phi, old in cases:
            want = [old(float(s)) for s in grid]
            assert [phi(float(s)) for s in grid] == want
            assert phi(grid).tolist() == want

    def test_bad_phi_rejected(self):
        fam = periodic_family(1.0)
        with pytest.raises(InvalidPhi):
            uib_check(fam, lambda s: -1.0)
        with pytest.raises(InvalidPhi):
            uib_check(fam, lambda s: 10.0 - s)


class TestFamilies:
    def test_periodic_times(self):
        s = periodic_family(0.25).sampler(0, 2.0)
        np.testing.assert_allclose(
            s.materialize(1.0), [0.25, 0.5, 0.75, 1.0], atol=1e-12
        )

    def test_deterministic_in_seed(self):
        fam = dwell_family(0.1, 0.5)
        a = fam.sampler(42, 20.0).materialize(20.0)
        b = fam.sampler(42, 20.0).materialize(20.0)
        c = fam.sampler(43, 20.0).materialize(20.0)
        np.testing.assert_array_equal(a, b)
        assert len(a) != len(c) or not np.array_equal(a, c)

    def test_dwell_prefix_stable(self):
        """Growing the horizon extends the sequence without rewriting
        the earlier jump times."""
        fam = dwell_family(0.2, 0.6)
        s = fam.sampler(7, 100.0)
        short = s.materialize(10.0).copy()
        long = s.materialize(60.0)
        np.testing.assert_array_equal(long[: len(short)], short)

    def test_dwell_respects_gaps(self):
        fam = dwell_family(0.3, 0.9)
        times = fam.sampler(11, 50.0).materialize(50.0)
        gaps = np.diff(np.concatenate(([0.0], times)))
        assert np.all(gaps >= 0.3 - 1e-12)
        assert np.all(gaps <= 0.9 + 1e-12)

    def test_finite_family_count(self):
        fam = finite_random_family(5, 10.0)
        times = fam.sampler(3, 50.0).materialize(50.0)
        assert len(times) == 5

    def test_shrinking_gaps_bounded_below(self):
        fam = shrinking_gap_family(1.0, 0.125)
        times = fam.sampler(0, 30.0).materialize(30.0)
        gaps = np.diff(np.concatenate(([0.0], times)))
        assert np.all(gaps >= 0.125 - 1e-12)

    def test_empty_family(self):
        s = empty_family().sampler(0, 10.0)
        assert len(s.materialize(10.0)) == 0

    def test_config_roundtrip(self):
        for cfg in (
            {"name": "periodic", "period": 0.5},
            {"name": "dwell", "min_gap": 0.1, "max_gap": 0.4},
            {"name": "finite-random", "count": 3, "spread": 5.0},
            {"name": "shrinking-gap", "first_gap": 1.0, "min_gap": 0.1},
            {"name": "empty"},
        ):
            fam = family_from_config(cfg)
            fam.sampler(1, 10.0).materialize(10.0)
        with pytest.raises(ValueError):
            family_from_config({"name": "nope"})

    def test_generators_registry(self):
        gens = family_generators()
        assert "empty" in gens
        for fam in gens.values():
            fam.sampler(0, 5.0).materialize(5.0)
