"""Jump-time sequences, counting conventions, and families."""

import math

import numpy as np
import pytest

from impstab.errors import ConfigError, InvalidInterval
from impstab.impulses import (
    ImpulseSequence,
    count_jumps,
    count_jumps_at,
    dwell_family,
    empty_family,
    family_from_config,
    finite_random_family,
    periodic_family,
    shrinking_gap_family,
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

    @pytest.mark.parametrize(
        "cfg, named",
        [
            ({"name": "finite-random", "count": 2.9, "spread": 5.0}, "count"),
            ({"name": "finite-random", "count": True, "spread": 5.0}, "count"),
            ({"name": "finite-random", "count": -1, "spread": 5.0}, "count"),
            ({"name": "finite-random", "count": 3, "spread": math.nan}, "spread"),
            ({"name": "periodic", "period": True}, "period"),
            ({"name": "periodic", "period": "abc"}, "period"),
            ({"name": "periodic", "period": "nan"}, "period"),
            ({"name": "finite-random", "count": "2.9", "spread": 5.0}, "count"),
            ({"name": "periodic", "period": math.nan}, "period"),
            ({"name": "periodic", "period": math.inf}, "period"),
            ({"name": "periodic", "period": None}, "period"),
            ({"name": "periodic"}, "period"),
            ({"name": "dwell", "min_gap": 0.1}, "max_gap"),
            ({"name": "dwell", "min_gap": 0.1, "max_gap": math.inf}, "max_gap"),
            ({"name": "shrinking-gap", "first_gap": math.inf, "min_gap": 0.1}, "first_gap"),
            ({"name": "nope"}, "nope"),
            ({}, "name"),
        ],
    )
    def test_hostile_configs_name_their_key(self, cfg, named):
        """A non-integral or bool count, a bool, string, NaN or infinite
        number, a missing key and an unknown name raise ConfigError naming
        the key or name: int() truncated 2.9, True read as 1, a NaN period
        failed at the first step and an infinite one gave no jumps."""
        with pytest.raises(ConfigError, match=repr(named)):
            family_from_config(cfg)

    @pytest.mark.parametrize("cfg", [[1, 2], "periodic", None])
    def test_non_mapping_config_rejected(self, cfg):
        with pytest.raises(ConfigError, match="must be a mapping"):
            family_from_config(cfg)

    def test_quoted_numbers_read_as_numbers(self):
        quoted = family_from_config({"name": "periodic", "period": "0.5"})
        plain = family_from_config({"name": "periodic", "period": 0.5})
        assert np.array_equal(
            quoted.sampler(0, 3.0).materialize(3.0), plain.sampler(0, 3.0).materialize(3.0)
        )
        fam = family_from_config({"name": "finite-random", "count": "3", "spread": "5"})
        assert fam.sampler(1, 10.0).materialize(10.0).size == 3

    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, True])
    def test_periodic_family_rejects_before_any_step(self, period):
        with pytest.raises(ConfigError, match="'period'"):
            periodic_family(period)

    def test_integral_float_count_accepted(self):
        fam = family_from_config({"name": "finite-random", "count": 3.0, "spread": 5.0})
        assert fam.sampler(1, 10.0).materialize(10.0).size == 3

