"""Piecewise-constant inputs and the flow-plus-jump energy measure."""

import hashlib
import math

import numpy as np
import pytest

from impstab.comparison import identity, power
from impstab.errors import ConfigError, InvalidInterval, OutOfRange
from impstab.impulses import ImpulseSequence
from impstab.inputs import (
    MAX_PULSES,
    EnergyProfile,
    HybridInput,
    InputSignal,
    constant_signal,
    decaying_burst,
    energy_norm,
    pulse_train,
    signal_from_config,
    truncate,
    zero_signal,
)


def hybrid(u, *times):
    return HybridInput(u, ImpulseSequence.from_times(np.asarray(times, dtype=float)))


class TestSignal:
    def test_right_continuous_at_breakpoints(self):
        u = InputSignal(np.array([1.0, 2.0]), np.array([[3.0], [5.0]]))
        assert u.value_at(1.0)[0] == 3.0
        assert u.value_at(2.0)[0] == 5.0  # new piece applies at its start
        assert u.value_at(2.0 - 1e-12)[0] == 3.0

    def test_zero_before_first_piece(self):
        u = constant_signal(4.0, start=2.0)
        assert u.value_at(1.99)[0] == 0.0
        assert u.value_at(2.0)[0] == 4.0

    def test_last_piece_persists(self):
        u = InputSignal(np.array([0.0]), np.array([[7.0]]))
        assert u.value_at(1e9)[0] == 7.0

    def test_canonical_merges_equal_pieces(self):
        u = InputSignal(
            np.array([0.0, 1.0, 2.0]), np.array([[1.0], [1.0], [2.0]])
        ).canonical()
        assert len(u.breakpoints) == 2

    def test_scaled(self):
        u = constant_signal(3.0).scaled(2.0)
        assert u.value_at(1.0)[0] == 6.0

    def test_json_roundtrip(self):
        u = pulse_train(2.0, 1.0, 0.25, 3, start=0.5)
        back = InputSignal.from_json(u.to_json())
        np.testing.assert_array_equal(back.breakpoints, u.breakpoints)
        np.testing.assert_array_equal(back.values, u.values)

    def test_config_presets(self):
        assert signal_from_config("zero").is_zero()
        assert signal_from_config(None, dim=2).dim == 2
        u = signal_from_config({"preset": "constant", "value": 2.0})
        assert u.value_at(5.0)[0] == 2.0
        u = signal_from_config(
            {"preset": "decaying-burst", "amplitude": 4.0, "ratio": 0.5,
             "period": 1.0, "width": 0.5, "count": 3}
        )
        assert u.value_at(0.1)[0] == 4.0
        assert u.value_at(2.1)[0] == 1.0


    @pytest.mark.parametrize(
        "cfg, named",
        [
            ({"preset": "pulse-train", "count": 2.9}, "count"),
            ({"preset": "pulse-train", "count": True}, "count"),
            ({"preset": "pulse-train", "count": 0}, "count"),
            ({"preset": "decaying-burst", "count": math.inf}, "count"),
            ({"preset": "pulse-train", "dim": 1.5}, "dim"),
            ({"preset": "zero", "dim": 10**9}, "dim"),
            ({"preset": "zero", "dim": False}, "dim"),
            ({"preset": "pulse-train", "amplitude": True}, "amplitude"),
            ({"preset": "pulse-train", "amplitude": "abc"}, "amplitude"),
            ({"preset": "pulse-train", "amplitude": math.nan}, "amplitude"),
            ({"preset": "pulse-train", "period": math.inf}, "period"),
            ({"preset": "pulse-train", "width": -0.5}, "width"),
            ({"preset": "pulse-train", "start": [0.0]}, "start"),
            ({"preset": "decaying-burst", "ratio": math.nan}, "ratio"),
            ({"preset": "constant", "value": "abc"}, "value"),
            ({"preset": "constant", "value": [1.0, True]}, "value"),
            ({"preset": "constant", "start": "inf"}, "start"),
            ({"breakpoints": [0.0]}, "values"),
            ({"values": [[1.0]]}, "breakpoints"),
            ({"breakpoints": [0.0], "values": [[math.inf]]}, "values"),
            ({"breakpoints": [False], "values": [[1.0]]}, "breakpoints"),
            ({"preset": "ramp"}, "preset"),
            ({"preset": "pulse-train", "period": 1e300}, "period"),
            ({"preset": "constant", "value": [[1.0]]}, "value"),
        ],
    )
    def test_hostile_configs_name_their_key(self, cfg, named):
        """int() read a count of 2.9 as 2 and True as 1, a missing key
        escaped as a bare KeyError, and float() let NaN, infinities and
        bools through; a preset whose pulse times collide or whose value
        has the wrong shape escaped as InputSignal's bare ValueError."""
        with pytest.raises(ConfigError, match=repr(named)):
            signal_from_config(cfg)

    @pytest.mark.parametrize(
        "preset, build",
        [
            ("pulse-train", lambda n: pulse_train(1.0, 1.0, 0.5, n)),
            ("decaying-burst", lambda n: decaying_burst(1.0, 0.5, 1.0, 0.5, n)),
        ],
    )
    def test_pulse_count_is_bounded(self, preset, build):
        """A count of 100,000 took 0.68 s and 85 MB to build, and larger
        ones allocate until memory runs out; a preset, and a builder
        called directly, takes at most MAX_PULSES."""
        with pytest.raises(ConfigError, match="'count'"):
            signal_from_config({"preset": preset, "count": 100_000})
        with pytest.raises(ConfigError, match="'count'"):
            signal_from_config({"preset": preset, "count": MAX_PULSES + 1})
        with pytest.raises(ConfigError, match="'count'"):
            build(MAX_PULSES + 1)
        u = signal_from_config({"preset": preset, "count": 50, "period": 1.0, "width": 0.5})
        assert len(u.breakpoints) == 100

    def test_quoted_numbers_read_as_numbers(self):
        quoted = signal_from_config(
            {"preset": "pulse-train", "amplitude": "1.5", "count": "3", "dim": "2"}
        )
        plain = signal_from_config(
            {"preset": "pulse-train", "amplitude": 1.5, "count": 3, "dim": 2}
        )
        assert np.array_equal(quoted.breakpoints, plain.breakpoints)
        assert np.array_equal(quoted.values, plain.values)

    def test_pulse_builders_keep_their_bits(self):
        """sha256 of the breakpoints and values of these signals, computed
        before the two builders shared one: 1.0**k is 1.0, so a pulse
        train is a decaying burst at ratio 1, bit for bit."""
        h = hashlib.sha256()
        for build, args in [
            (pulse_train, (1.0, 1.0, 0.5, 4)),
            (pulse_train, (2.5, 0.9, 0.25, 7, 0.3, 2)),
            (pulse_train, (-1.5, 0.8, 0.79, 3, -0.2)),
            (pulse_train, (1e-3, 0.1, 0.05, 50, 1.7, 3)),
            (pulse_train, (0.0, 1.0, 0.5, 2)),
            (decaying_burst, (4.0, 0.5, 1.0, 0.5, 3)),
            (decaying_burst, (1.3, 0.9, 0.7, 0.35, 20, 0.1, 2)),
            (decaying_burst, (2.0, 0.1, 1.0, 0.999, 5)),
            (decaying_burst, (-3.0, 0.99, 0.3, 0.1, 40, 2.0, 1)),
        ]:
            u = build(*args)
            h.update(u.breakpoints.tobytes() + u.values.tobytes())
        for cfg in (
            {"preset": "pulse-train"},
            {"preset": "decaying-burst"},
            {
                "preset": "pulse-train",
                "count": 3,
                "period": 2.0,
                "width": 0.5,
                "amplitude": 1.5,
                "start": 1.0,
            },
        ):
            u = signal_from_config(cfg, 2)
            h.update(u.breakpoints.tobytes() + u.values.tobytes())
        assert h.hexdigest() == "9dae7434e701b80d57014e6b34adc481b6b72bac8bde3d99980bcb0c979aaa0f"

    def test_pulse_as_long_as_its_period_runs_into_the_next(self):
        """width == period is allowed; its pulses once put an off time on
        the next on time and failed as not strictly increasing."""
        u = pulse_train(2.0, 1.0, 1.0, 3)
        assert u.breakpoints.tolist() == [0.0, 3.0]
        assert u.values[:, 0].tolist() == [2.0, 0.0]
        u = decaying_burst(1.0, 0.5, 0.7, 0.7, 4, start=0.1)
        assert u.values[:, 0].tolist() == [1.0, 0.5, 0.25, 0.125, 0.0]
        assert np.all(np.diff(u.breakpoints) > 0.0)

    def test_builders_reject_bad_shapes(self):
        for args in [(1.0, 1.0, 1.5, 2), (1.0, 1.0, 0.0, 2), (1.0, 1.0, 0.5, 0)]:
            with pytest.raises(ConfigError, match="'width'"):
                pulse_train(*args)
        with pytest.raises(ConfigError, match="'ratio'"):
            decaying_burst(1.0, 1.0, 1.0, 0.5, 2)


class TestTruncate:
    def test_window_semantics(self):
        """The truncation keeps u on (t0, t), pins the value at t0, and
        zeroes everything from t on."""
        u = InputSignal(np.array([0.0, 3.0]), np.array([[1.0], [5.0]]))
        w = truncate(hybrid(u, 1.0, 4.0), 2.0, 3.5)
        assert w.u.value_at(2.0)[0] == 1.0
        assert w.u.value_at(3.2)[0] == 5.0
        assert w.u.value_at(3.5)[0] == 0.0
        assert w.u.value_at(10.0)[0] == 0.0

    def test_degenerate_window_is_zero(self):
        w = truncate(hybrid(constant_signal(2.0), 1.0), 1.5, 1.5)
        assert w.u.is_zero()

    def test_reversed_window_rejected(self):
        with pytest.raises(InvalidInterval):
            truncate(hybrid(constant_signal(1.0)), 2.0, 1.0)


class TestEnergy:
    def test_frozen_example(self):
        """Unit input, identity gauges, jumps at 1 and 2: the energy over
        (0, 2] is 2 from the flow part plus 2 from the jumps."""
        w = hybrid(constant_signal(1.0), 1.0, 2.0)
        val = energy_norm(w, identity(), identity(), 0.0, 2.0)
        assert abs(val - 4.0) < 1e-12
        val = energy_norm(w, identity(), identity(), 0.0, 1.5)
        assert abs(val - 2.5) < 1e-12

    def test_zero_window(self):
        w = hybrid(constant_signal(1.0), 1.0)
        assert energy_norm(w, identity(), identity(), 0.5, 0.5) == 0.0

    def test_flow_part_squares(self):
        w = hybrid(constant_signal(3.0))
        val = energy_norm(w, power(2.0), identity(), 0.0, 2.0)
        assert abs(val - 18.0) < 1e-12

    def test_jump_values_right_continuous(self):
        """The jump contribution samples u at the jump time itself, so a
        piece starting exactly at the jump is what gets charged."""
        u = InputSignal(np.array([0.0, 1.0]), np.array([[1.0], [3.0]]))
        w = hybrid(u, 1.0)
        val = energy_norm(w, identity(), identity(), 0.0, 1.0)
        # flow part integrates the old piece, the jump charges the new one
        assert abs(val - (1.0 + 3.0)) < 1e-12

    def test_additive_over_windows(self):
        rng = np.random.default_rng(17)
        u = InputSignal(np.sort(rng.uniform(0.0, 8.0, 6)), rng.uniform(-2, 2, (6, 1)))
        w = HybridInput(u, ImpulseSequence.from_times(np.sort(rng.uniform(0.1, 8.0, 5))))
        rho1, rho2 = power(2.0), identity()
        for _ in range(50):
            a, b, c = np.sort(rng.uniform(0.0, 8.0, 3))
            whole = energy_norm(w, rho1, rho2, a, c)
            split = energy_norm(w, rho1, rho2, a, b) + energy_norm(w, rho1, rho2, b, c)
            assert abs(whole - split) < 1e-12 * (1.0 + abs(whole))

    def test_profile_matches_pointwise(self):
        rng = np.random.default_rng(23)
        u = InputSignal(np.sort(rng.uniform(0.0, 5.0, 4)), rng.uniform(-1, 1, (4, 2)))
        w = HybridInput(u, ImpulseSequence.from_times([0.7, 2.3, 4.1]))
        rho1, rho2 = identity(), power(2.0)
        prof = EnergyProfile(w, rho1, rho2, 0.5, 5.0)
        for t in np.linspace(0.5, 5.0, 37):
            want = energy_norm(w, rho1, rho2, 0.5, float(t))
            assert abs(prof.at(float(t)) - want) < 1e-12 * (1.0 + want)

    def test_before_jump_gap(self):
        """Left limit at a jump differs from the value by that jump's
        charge and nothing else."""
        w = hybrid(constant_signal(2.0), 1.0)
        prof = EnergyProfile(w, identity(), identity(), 0.0, 3.0)
        assert abs(prof.at(1.0) - prof.before_jump(1.0) - 2.0) < 1e-12

    def test_before_jump_array_matches_scalar(self):
        """An array query gives, element by element, exactly the scalar
        answer, on and off the jump times."""
        taus = [1.2, 2.0, 2.3, 3.1]  # each inside a pulse, so each charges
        w = hybrid(pulse_train(1.5, 1.0, 0.5, 4), *taus)
        prof = EnergyProfile(w, identity(), power(2.0), 0.5, 5.0)
        ts = np.concatenate((np.linspace(0.5, 5.0, 31), taus))
        vals = prof.before_jump(ts)
        assert vals.shape == ts.shape
        assert all(vals[i] == prof.before_jump(float(t)) for i, t in enumerate(ts))
        # at each jump time that jump's charge lifts `at` above the left limit
        assert np.all(prof.at(ts[-4:]) > vals[-4:])

    def test_query_past_horizon_raises(self):
        """Past its horizon the profile raises instead of clamping: here the
        clamped value would be 2.0 where the energy over (0, 3] is 4.0."""
        w = hybrid(constant_signal(1.0), 0.5)
        prof = EnergyProfile(w, identity(), identity(), 0.0, 1.0)
        assert prof.at(1.0) == 2.0
        assert energy_norm(w, identity(), identity(), 0.0, 3.0) == 4.0
        with pytest.raises(OutOfRange):
            prof.at(3.0)
        with pytest.raises(OutOfRange):
            prof.before_jump(np.array([0.5, 3.0]))

    def test_monotone(self):
        w = hybrid(pulse_train(1.5, 1.0, 0.5, 4), 0.9, 1.9, 2.9)
        prof = EnergyProfile(w, identity(), identity(), 0.0, 6.0)
        ts = np.linspace(0.0, 6.0, 200)
        vals = prof.at(ts)
        assert np.all(np.diff(vals) >= -1e-14)
