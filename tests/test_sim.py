"""Integrator fidelity: exact grids, jump conventions, failure handling."""

import csv
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impstab.errors import InvalidInterval, InvalidSystem, NonFiniteState
from impstab.impulses import ImpulseSequence, periodic_family
from impstab.inputs import (
    HybridInput,
    InputSignal,
    constant_signal,
    pulse_train,
    zero_signal,
)
from impstab.library import EXAMPLE_CONFIGS, make_linear_system
from impstab.scenarios import _write_plot_csv
from impstab.sim import (
    _DIVERGE_SQ,
    DIVERGENCE_RADIUS,
    MAX_GRID_STEPS,
    STATUS_COMPLETE,
    STATUS_DIVERGED,
    STATUS_STEP_FAILURE,
    _kernel,
    closed_form_linear_impulsive,
    integral_residual,
    repr_column,
    simulate,
)
from impstab.systems import ImpulsiveSystem, compile_map, map_source, system_from_config

# x(1) for dx/dt = -x, x(0) = 1, one jump halving the state at t = 0.5:
# 0.5 * e^{-1}.
HALVED_EXP_ORACLE = 0.18393972058572117


def hybrid(u, *times):
    return HybridInput(u, ImpulseSequence.from_times(np.asarray(times, dtype=float)))


def post_rows(traj):
    """The post-jump states: the samples at the jump times."""
    return traj.states[np.searchsorted(traj.times, traj.jumps)]


def hand_linear(a, jump_factor):
    """dx = a*x + u, x -> jump_factor * x with hand-written maps, which
    the simulator calls from its map-calling kernel."""
    return ImpulsiveSystem(
        f"hand-linear(a={a:g}, jf={jump_factor:g})", 1, 1,
        lambda t, x, u: (a * x[0] + u[0],),
        lambda t, x, u: ((jump_factor - 1.0) * x[0],),
    )


class TestAgainstClosedForm:
    def test_hand_oracle(self):
        sys1 = make_linear_system(-1.0, 0.5)
        w = hybrid(zero_signal(), 0.5)
        traj = simulate(sys1, 0.0, [1.0], w, 1.0, 1e-3)
        assert abs(traj.states[-1][0] - HALVED_EXP_ORACLE) <= 1e-9
        exact = closed_form_linear_impulsive(-1.0, 0.5, 0.0, [1.0], w, 1.0, 1e-3)
        assert abs(exact.states[-1][0] - HALVED_EXP_ORACLE) <= 1e-15

    def test_identical_grids(self):
        sys1 = make_linear_system(-0.7, 0.4)
        w = HybridInput(
            pulse_train(start=0.3, period=0.9, width=0.25, amplitude=1.2, count=4),
            periodic_family(0.5).sampler(3, 6.0),
        )
        traj = simulate(sys1, 0.25, [1.5], w, 6.0, 1e-2)
        exact = closed_form_linear_impulsive(-0.7, 0.4, 0.25, [1.5], w, 6.0, 1e-2)
        assert np.array_equal(traj.times, exact.times)
        assert len(traj.jumps) > 0
        assert traj.jumps.tobytes() == exact.jumps.tobytes()
        assert (exact.horizon, exact.input_used) == (traj.horizon, w)

    def test_accuracy_random_linear(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            a = float(rng.uniform(-2.0, 0.5))
            jf = float(rng.uniform(-0.8, 0.9))
            t0 = float(rng.uniform(0.0, 1.0))
            x0 = float(rng.uniform(-3.0, 3.0))
            amp = float(rng.uniform(-2.0, 2.0))
            w = HybridInput(
                constant_signal(amp),
                ImpulseSequence.from_times(
                    np.sort(rng.uniform(t0 + 0.05, t0 + 4.0, size=3))
                ),
            )
            sys1 = make_linear_system(a, jf)
            traj = simulate(sys1, t0, [x0], w, t0 + 4.0, 1e-3)
            exact = closed_form_linear_impulsive(a, jf, t0, [x0], w, t0 + 4.0, 1e-3)
            err = float(np.max(np.abs(traj.states - exact.states)))
            assert err <= 1e-9

    def test_fourth_order_convergence(self):
        sys1 = make_linear_system(-1.3, 0.6)
        w = hybrid(constant_signal(0.8), 1.0, 2.2)

        def err(step):
            traj = simulate(sys1, 0.0, [2.0], w, 3.0, step)
            exact = closed_form_linear_impulsive(-1.3, 0.6, 0.0, [2.0], w, 3.0, step)
            return float(np.max(np.abs(traj.states - exact.states)))

        ratio = err(0.1) / err(0.05)
        assert 8.0 <= ratio <= 40.0  # RK4 halving: ideally ~16


class TestJumpConventions:
    def test_jump_at_start_not_applied(self):
        sys1 = make_linear_system(0.0, 0.5)
        w = hybrid(zero_signal(), 1.0, 2.0)
        traj = simulate(sys1, 1.0, [4.0], w, 1.5, 1e-2)
        assert traj.states[0][0] == 4.0
        assert len(traj.jumps) == 0

    def test_jump_at_horizon_applied(self):
        sys1 = make_linear_system(0.0, 0.5)
        w = hybrid(zero_signal(), 2.0)
        traj = simulate(sys1, 0.0, [4.0], w, 2.0, 1e-2)
        assert len(traj.jumps) == 1
        assert traj.jumps[0] == 2.0
        assert traj.states[-1][0] == 2.0  # sample at the horizon is post-jump

    def test_right_continuity_and_increment(self):
        sys1 = make_linear_system(-1.0, 0.25)
        w = hybrid(constant_signal(1.0), 1.0)
        traj = simulate(sys1, 0.0, [3.0], w, 2.0, 1e-3)
        assert traj.jumps.tolist() == [1.0] and traj.x_pre.shape == (1, 1)
        i = int(np.searchsorted(traj.times, 1.0))
        assert traj.times[i] == 1.0
        # increment form: x(tau) = x_pre + g(tau, x_pre, u(tau))
        x_pre = traj.x_pre[0]
        incr = sys1.jump(1.0, x_pre.tolist(), (1.0,))
        assert abs(traj.states[i][0] - (x_pre[0] + incr[0])) <= 1e-15
        assert traj.pre_states() == {1.0: x_pre}

    def test_events_exactly_on_grid(self):
        sys1 = make_linear_system(-0.5, 0.9)
        u = InputSignal(np.array([0.37, 1.11]), np.array([[1.0], [-0.5]]))
        w = HybridInput(u, ImpulseSequence.from_times(np.array([0.73, 1.9])))
        traj = simulate(sys1, 0.1, [1.0], w, 2.5, 0.03)
        ts = set(float(t) for t in traj.times)
        for event in (0.37, 0.73, 1.11, 1.9, 0.1, 2.5):
            assert event in ts
        assert float(np.max(np.diff(traj.times))) <= 0.03 + 1e-12

    def test_zero_length_window(self):
        sys1 = make_linear_system(-1.0, 0.5)
        traj = simulate(sys1, 1.0, [2.0], hybrid(zero_signal()), 1.0, 1e-2)
        assert traj.end_time == 1.0
        assert traj.status == STATUS_COMPLETE
        assert len(traj.times) == 1


class TestFailureModes:
    def test_divergence_stops_run(self):
        sys1 = make_linear_system(4.0, 3.0)
        w = HybridInput(zero_signal(), periodic_family(0.5).sampler(0, 30.0))
        traj = simulate(sys1, 0.0, [1.0], w, 30.0, 1e-2)
        assert traj.status == STATUS_DIVERGED
        assert traj.norms()[-1] >= DIVERGENCE_RADIUS
        assert traj.end_time < 30.0
        assert np.all(np.isfinite(traj.states))
        # the run keeps the horizon it was asked for and the input it got
        assert traj.horizon == 30.0 and traj.input_used is w

    def test_divergence_past_fsum_range(self):
        """Finite squares whose sum overflows still mean divergence."""
        big = 1.2e154  # 2 * big**2 overflows, big**2 does not
        sys2 = ImpulsiveSystem(
            "blow-up", 2, 1, lambda t, x, u: (0.0, 0.0), lambda t, x, u: (big, big)
        )
        traj = simulate(sys2, 0.0, [0.0, 0.0], hybrid(zero_signal(), 0.5), 1.0, 1e-2)
        assert traj.status == STATUS_DIVERGED
        assert traj.end_time == 0.5 and traj.states[-1].tolist() == [big, big]

    def test_nonfinite_strict_raises(self):
        def bad_flow(t, x, u):
            return (float("nan"),) if t > 1.0 else (-x[0],)

        sys1 = ImpulsiveSystem("bad", 1, 1, bad_flow, lambda t, x, u: (0.0,))
        w = hybrid(zero_signal())
        with pytest.raises(NonFiniteState):
            simulate(sys1, 0.0, [1.0], w, 2.0, 1e-2)

    def test_nonfinite_lenient_truncates(self):
        def bad_flow(t, x, u):
            return (float("nan"),) if t > 1.0 else (-x[0],)

        sys1 = ImpulsiveSystem("bad", 1, 1, bad_flow, lambda t, x, u: (0.0,))
        traj = simulate(sys1, 0.0, [1.0], hybrid(zero_signal()), 2.0, 1e-2, strict=False)
        assert traj.status == STATUS_STEP_FAILURE
        assert np.all(np.isfinite(traj.states))
        assert traj.end_time <= 2.0

    def test_bad_windows_rejected(self):
        sys1 = make_linear_system(-1.0, 0.5)
        w = hybrid(zero_signal())
        with pytest.raises(InvalidInterval):
            simulate(sys1, 1.0, [1.0], w, 0.5, 1e-2)
        with pytest.raises(InvalidInterval):
            simulate(sys1, 0.0, [1.0], w, 1.0, 0.0)
        with pytest.raises(InvalidInterval):
            simulate(sys1, 0.0, [1.0], w, 1.0, math.nan)
        with pytest.raises(InvalidInterval):
            closed_form_linear_impulsive(-1.0, 0.5, 0.0, [1.0], w, 1.0, math.nan)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_nonfinite_start_rejected(self, t0):
        """A NaN start once returned a one-sample `complete-to-horizon`
        run; every grid built from it is rejected now."""
        sys1 = make_linear_system(-1.0, 0.5)
        w = hybrid(zero_signal(), 0.5)
        with pytest.raises(InvalidInterval, match="not finite"):
            simulate(sys1, t0, [1.0], w, 2.0, 0.1)
        with pytest.raises(InvalidInterval, match="not finite"):
            closed_form_linear_impulsive(-1.0, 0.5, t0, [1.0], w, 2.0, 0.1)

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_nonfinite_initial_state_named_at_start(self, x0, strict):
        """A non-finite x0 is named at t0, before any step, not blamed on
        the first step as a state that became non-finite."""
        calls = []

        def flow(t, x, u):
            calls.append(t)
            return (-x[0],)

        sys1 = ImpulsiveSystem("counted", 1, 1, flow, lambda t, x, u: (0.0,))
        with pytest.raises(NonFiniteState, match="initial state is not finite at t=0.25$"):
            simulate(sys1, 0.25, [x0], hybrid(zero_signal(), 0.5), 2.0, 0.1, strict=strict)
        assert calls == []

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_closed_form_rejects_nonfinite_initial_state(self, x0):
        """The closed form once returned a `complete-to-horizon` run of
        NaN samples; it rejects x0 as `simulate` does."""
        w = hybrid(zero_signal(), 0.5)
        with pytest.raises(NonFiniteState, match="initial state is not finite at t=0$"):
            closed_form_linear_impulsive(-1.0, 0.5, 0.0, [x0], w, 1.0, 0.25)

    def test_dimension_mismatch_rejected(self):
        sys1 = make_linear_system(-1.0, 0.5)
        with pytest.raises(InvalidSystem):
            simulate(sys1, 0.0, [1.0, 2.0], hybrid(zero_signal()), 1.0, 1e-2)
        with pytest.raises(InvalidSystem):
            simulate(sys1, 0.0, [1.0], hybrid(zero_signal(dim=2)), 1.0, 1e-2)


class TestIntegralResidual:
    def test_small_on_simulated_path(self):
        sys1 = make_linear_system(-1.0, 0.5)
        w = hybrid(constant_signal(1.0), 0.7, 1.9)
        traj = simulate(sys1, 0.0, [2.0], w, 3.0, 1e-2)
        assert integral_residual(traj, sys1) <= 1e-8

    def test_detects_tampering(self):
        sys1 = make_linear_system(-1.0, 0.5)
        w = hybrid(constant_signal(1.0), 0.7)
        traj = simulate(sys1, 0.0, [2.0], w, 2.0, 1e-2)
        states = traj.states.copy()
        states[len(states) // 2, 0] += 1e-3
        forged = replace(traj, states=states)
        assert integral_residual(forged, sys1) >= 5e-4


class TestSerialization:
    def _sample(self):
        sys1 = make_linear_system(-0.9, 0.3)
        w = hybrid(constant_signal(0.5), 0.8, 1.6)
        return simulate(sys1, 0.2, [1.7], w, 2.5, 5e-2)

    def test_csv_bytes(self, tmp_path):
        """Every byte of the CSV is pinned: one row per sample, and a pre
        row then a post row at each of the two jumps."""
        traj = self._sample()
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(traj.times) + 2
        assert [line.split(",")[-1] for line in lines].count("1") == 2
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a4ffdab928647ffd54b50d00e01da091843d02e41559b6b5295e87c123b80b74"
        )

    def test_norms_and_end_time(self):
        traj = self._sample()
        assert traj.norms().shape == traj.times.shape
        assert traj.end_time == 2.5
        assert traj.dim == 1
        assert math.isclose(float(traj.x0[0]), 1.7)


def reference_trajectory_csv(traj, path):
    """The csv.writer loop `Trajectory.to_csv` replaced, kept as its byte
    oracle."""
    pre = traj.pre_states()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(traj.dim)] + ["is_post_jump"])
        for t, row in zip(traj.times, traj.states):
            tf = float(t)
            if tf in pre and tf > traj.t0:
                writer.writerow([repr(tf)] + [repr(float(v)) for v in pre[tf]] + [0])
                writer.writerow([repr(tf)] + [repr(float(v)) for v in row] + [1])
            else:
                writer.writerow([repr(tf)] + [repr(float(v)) for v in row] + [0])


def reference_plot_csv(traj, bounds) -> bytes:
    """The numpy-scalar loop the plot CSV writer replaced, as bytes."""
    lines = ["t,state_norm,bound"]
    for t, n, b in zip(traj.times, traj.norms(), bounds):
        lines.append(f"{float(t)!r},{float(n)!r},{float(b)!r}")
    return ("\n".join(lines) + "\n").encode()


# flows that decay, blow up (a "diverged" run) or raise a math domain
# error once |x| < 1 (a "step-failure" run under strict=False)
WRITTEN_FLOWS = {
    "decay": "-{x} + u1",
    "blow-up": "{x} * {x}",
    "domain": "-{x} + 0 * sqrt({x} * {x} - 1)",
}
WRITTEN_VALUES = st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300]) | st.floats(
    -10.0, 10.0
)


@st.composite
def written_runs(draw):
    """A run of dimension 1-3 with its plot bounds: signed zeros,
    subnormal and huge states, jumps at t0 and at the horizon, runs that
    diverge or end in a step failure, and a pre-jump record at t0 itself,
    which the CSV never prints as a jump."""
    dim = draw(st.integers(1, 3))
    flow = WRITTEN_FLOWS[draw(st.sampled_from(sorted(WRITTEN_FLOWS)))]
    xs = [f"x{i + 1}" for i in range(dim)]
    system = system_from_config(
        {
            "name": "written",
            "dim_x": dim,
            "dim_u": 1,
            "flow": [flow.format(x=x) for x in xs],
            "jump": [f"-0.5 * {x}" for x in xs],
        }
    )
    x0 = draw(st.lists(WRITTEN_VALUES, min_size=dim, max_size=dim))
    t0 = draw(st.sampled_from([0.25, 0.5]))
    horizon = t0 + 1.0
    inner = st.floats(t0, horizon, exclude_min=True, exclude_max=True)
    ends = draw(st.sets(st.sampled_from([t0, horizon])))
    taus = sorted({*draw(st.lists(inner, max_size=3)), *ends})
    w = hybrid(constant_signal(draw(WRITTEN_VALUES)), *taus)
    traj = simulate(system, t0, x0, w, horizon, 0.1, strict=False)
    if draw(st.booleans()):
        traj = replace(
            traj,
            jumps=np.concatenate(([t0], traj.jumps)),
            x_pre=np.concatenate((traj.states[:1], traj.x_pre)),
        )
    bounds = draw(st.lists(WRITTEN_VALUES | st.floats(), min_size=1, max_size=4))
    return traj, np.resize(np.asarray(bounds), traj.times.shape)


@settings(max_examples=150)
@given(written_runs())
def test_csv_writers_match_reference(tmp_path_factory, run):
    """Both CSV writers give the bytes of the loops they replaced."""
    traj, bounds = run
    out = tmp_path_factory.getbasetemp() / "csv-writers"
    out.mkdir(exist_ok=True)
    traj.to_csv(out / "traj.csv")
    reference_trajectory_csv(traj, out / "want.csv")
    assert (out / "traj.csv").read_bytes() == (out / "want.csv").read_bytes()
    with np.errstate(over="ignore"):  # the norm of a 1e300 state is inf
        _write_plot_csv(str(out / "plot.csv"), repr_column(traj.times), traj, bounds)
        want = reference_plot_csv(traj, bounds)
    assert (out / "plot.csv").read_bytes() == want


def segment_bounds(t0, horizon, jump_times, breakpoints):
    """[t0, every jump time and breakpoint in (t0, horizon) once, horizon]."""
    inner = {float(t) for t in (*jump_times, *breakpoints) if t0 < t < horizon}
    return np.asarray([t0, *sorted(inner), horizon], dtype=float)


def reference_rk4(system, t0, x0, w, horizon, step):
    """The per-component RK4 loop the segment kernel replaced, kept as the
    oracle for bit-identity: (times, states, jumps, status), never raising
    on a non-finite state."""
    jump_times = w.sigma.materialize(horizon)
    bounds = segment_bounds(t0, horizon, jump_times, w.u.breakpoints)
    jump_set = set(float(t) for t in jump_times if t > t0)
    f, g = system.flow, system.jump
    x = [float(v) for v in np.atleast_1d(np.asarray(x0, dtype=float))]
    times, states, jumps = [float(t0)], [list(x)], []

    def outside(v):
        return not math.fsum(c * c for c in v) <= _DIVERGE_SQ

    def finite(v):
        return all(math.isfinite(c) for c in v)

    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if b <= a:
            continue
        u = tuple(float(v) for v in w.u.value_at(a))
        nsub = max(1, math.ceil((b - a) / step - 1e-9))
        h = (b - a) / nsub
        h2, h6 = 0.5 * h, h / 6.0
        for i in range(nsub):
            t = a + i * h
            k1 = f(t, x, u)
            k2 = f(t + h2, [xi + h2 * ki for xi, ki in zip(x, k1)], u)
            k3 = f(t + h2, [xi + h2 * ki for xi, ki in zip(x, k2)], u)
            k4 = f(t + h, [xi + h * ki for xi, ki in zip(x, k3)], u)
            x = [
                xi + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                for xi, a1, a2, a3, a4 in zip(x, k1, k2, k3, k4)
            ]
            t_next = b if i == nsub - 1 else a + (i + 1) * h
            if outside(x):
                if not finite(x):
                    return times, np.asarray(states), jumps, STATUS_STEP_FAILURE
                times.append(t_next)
                states.append(list(x))
                return times, np.asarray(states), jumps, STATUS_DIVERGED
            times.append(t_next)
            states.append(list(x))
        if b in jump_set:
            incr = g(b, x, tuple(float(v) for v in w.u.value_at(b)))
            x_post = [xi + gi for xi, gi in zip(x, incr)]
            if outside(x_post) and not finite(x_post):
                return times, np.asarray(states), jumps, STATUS_STEP_FAILURE
            jumps.append((b, list(x), list(x_post)))
            states[-1] = list(x_post)
            if outside(x_post):
                return times, np.asarray(states), jumps, STATUS_DIVERGED
            x = x_post
    return times, np.asarray(states), jumps, STATUS_COMPLETE


def counted(system):
    """The system with call-counting maps; returns (system, counts)."""
    counts = {"flow": 0, "jump": 0}

    def flow(t, x, u):
        counts["flow"] += 1
        return system.flow(t, x, u)

    def jump(t, x, u):
        counts["jump"] += 1
        return system.jump(t, x, u)

    return ImpulsiveSystem(system.name, system.dim_x, system.dim_u, flow, jump), counts


class TestSegmentKernel:
    """The unrolled kernel reproduces the per-component loop bit for bit
    and calls the flow map exactly four times per step; the fused kernel
    of a compiled flow map reproduces it too."""

    def assert_identical(self, system, t0, x0, w, horizon, step):
        counting, counts = counted(system)
        reference = reference_rk4(system, t0, x0, w, horizon, step)
        traj = simulate(counting, t0, x0, w, horizon, step, strict=False)
        self.assert_matches(traj, *reference)
        if reference[-1] != STATUS_STEP_FAILURE:  # a failed step made calls but left no sample
            assert counts["flow"] == 4 * (len(traj.times) - 1)
            assert counts["jump"] == len(traj.jumps)
        # unwrapped, a compiled flow map takes the fused kernel
        self.assert_matches(simulate(system, t0, x0, w, horizon, step, strict=False), *reference)
        return traj

    @staticmethod
    def assert_matches(traj, times, states, jumps, status):
        assert traj.status == status
        assert traj.times.tobytes() == np.asarray(times).tobytes()
        assert traj.states.tobytes() == states.tobytes()
        assert traj.jumps.tolist() == [j[0] for j in jumps]
        assert traj.x_pre.shape == (len(jumps), traj.dim)
        for x_pre, x_post, (_, pre, post) in zip(traj.x_pre, post_rows(traj), jumps):
            assert x_pre.tobytes() == np.asarray(pre).tobytes()
            assert x_post.tobytes() == np.asarray(post).tobytes()

    def test_lin_contract_random_inputs(self):
        system = system_from_config(EXAMPLE_CONFIGS["lin-contract"])
        rng = np.random.default_rng(11)
        for k in range(8):
            t0 = float(rng.uniform(0.0, 2.0))
            u = InputSignal(np.sort(rng.uniform(t0, t0 + 5.0, 4)), rng.uniform(-3, 3, (4, 1)))
            w = HybridInput(u, periodic_family(0.5).sampler(k, 10.0))
            traj = self.assert_identical(system, t0, [rng.uniform(-5, 5)], w, t0 + 5.0, 1e-2)
            assert traj.status == STATUS_COMPLETE and len(traj.jumps)

    @pytest.mark.parametrize(
        "cfg",
        [
            {
                "name": "damped-osc", "dim_x": 2, "dim_u": 1,
                "flow": ["x2", "-x1 - 0.1*x2 + u1"], "jump": ["0.1*x1", "-0.5*x2"],
            },
            {
                "name": "coupled", "dim_x": 3, "dim_u": 2,
                "flow": ["-x1 + x2*x3", "-x2 + sin(u1)", "-2*x3 + u2*x1"],
                "jump": ["-0.5*x1", "0.1*x3", "x2 - x3"],
            },
        ],
        ids=["2d", "3d"],
    )
    def test_config_systems(self, cfg):
        system = system_from_config(cfg)
        rng = np.random.default_rng(cfg["dim_x"])
        for k in range(3):
            vals = rng.uniform(-2, 2, (3, cfg["dim_u"]))
            u = InputSignal(np.sort(rng.uniform(0.0, 3.0, 3)), vals)
            w = HybridInput(u, periodic_family(0.7).sampler(k, 10.0))
            x0 = rng.uniform(-3, 3, cfg["dim_x"])
            self.assert_identical(system, 0.1 * k, x0, w, 0.1 * k + 3.0, 0.013)

    def test_diverging_runs(self):
        w = HybridInput(zero_signal(), periodic_family(0.5).sampler(0, 40.0))
        in_flow = self.assert_identical(make_linear_system(4.0, 3.0), 0.0, [1.0], w, 30.0, 1e-2)
        at_jump = self.assert_identical(make_linear_system(2.0, 1e30), 0.0, [1.0], w, 30.0, 1e-2)
        blow_up = {"name": "blow-up", "dim_x": 1, "dim_u": 1, "flow": ["x1 * x1"], "jump": ["x1"]}
        fused = self.assert_identical(system_from_config(blow_up), 0.0, [1.0], w, 30.0, 1e-2)
        for traj in (in_flow, at_jump, fused):
            assert traj.status == STATUS_DIVERGED
            assert traj.norms()[-1] >= DIVERGENCE_RADIUS  # crossing sample kept
        assert at_jump.end_time == at_jump.jumps[-1]

    def test_nonfinite_stops(self):
        nan_flow = ImpulsiveSystem(
            "nan-flow", 1, 1,
            lambda t, x, u: (float("nan"),) if t > 1.0 else (-x[0],),
            lambda t, x, u: (0.0,),
        )
        inf_jump = ImpulsiveSystem(
            "inf-jump", 1, 1, lambda t, x, u: (-x[0],), lambda t, x, u: (float("inf"),)
        )
        w = hybrid(zero_signal(), 0.5, 1.5)
        for system in (nan_flow, inf_jump):
            traj = self.assert_identical(system, 0.0, [1.0], w, 2.0, 1e-2)
            assert traj.status == STATUS_STEP_FAILURE
            assert np.all(np.isfinite(traj.states))

    def test_zero_length_window(self):
        system = system_from_config(EXAMPLE_CONFIGS["lin-contract"])
        w = hybrid(constant_signal(1.0), 1.0)
        traj = self.assert_identical(system, 1.0, [2.0], w, 1.0, 1e-2)
        assert len(traj.times) == 1

    @pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS))
    def test_library_systems(self, name):
        system = system_from_config(EXAMPLE_CONFIGS[name])
        assert map_source(system.flow) is not None
        rng = np.random.default_rng(len(name))
        for k in range(3):
            u = InputSignal(np.sort(rng.uniform(0.0, 4.0, 3)), rng.uniform(-2, 2, (3, 1)))
            w = HybridInput(u, periodic_family(0.6).sampler(k, 10.0))
            self.assert_identical(system, 0.2 * k, [rng.uniform(-4, 4)], w, 0.2 * k + 4.0, 0.017)


def expressions(dim_x: int, dim_u: int, still: bool = False):
    """Whitelisted expressions over t, x1..x{dim_x} and u1..u{dim_u}, or
    over u1..u{dim_u} and constants only when still."""
    names = [] if still else ["t"] + [f"x{i + 1}" for i in range(dim_x)]
    names += [f"u{j + 1}" for j in range(dim_u)]
    leaves = st.sampled_from(names + ["0.5", "2.0", "3", "pi", "e"])

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from(["exp", "sqrt", "log", "sin", "tanh", "abs", "-"]), sub)
            .map(lambda p: f"{p[0]}({p[1]})"),
            st.tuples(sub, st.sampled_from(["+", "-", "*", "/"]), sub)
            .map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
            st.tuples(st.sampled_from(["min", "max"]), sub, sub)
            .map(lambda p: f"{p[0]}({p[1]}, {p[2]})"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def compiled_runs(draw):
    """A compiled system with its initial state and hybrid input."""
    dim_x, dim_u = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    flow = draw(st.lists(expressions(dim_x, dim_u), min_size=dim_x, max_size=dim_x))
    jump = draw(st.lists(expressions(dim_x, dim_u), min_size=dim_x, max_size=dim_x))
    system = system_from_config(
        {"name": "drawn", "dim_x": dim_x, "dim_u": dim_u, "flow": flow, "jump": jump}
    )
    small = st.floats(-3.0, 3.0, allow_nan=False)
    x0 = draw(st.lists(small, min_size=dim_x, max_size=dim_x))
    bps = sorted(set(draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3))))
    row = st.lists(small, min_size=dim_u, max_size=dim_u)
    vals = draw(st.lists(row, min_size=len(bps), max_size=len(bps)))
    taus = draw(st.lists(st.floats(0.01, 2.0), max_size=3))
    w = HybridInput(
        InputSignal(np.asarray(bps), np.asarray(vals)),
        ImpulseSequence.from_times(np.asarray(sorted(set(taus)))),
    )
    return system, x0, w


def outcome(system, x0, w, strict, step=0.05):
    """What one run gives: its samples and jumps as bytes, or the error raised."""
    try:
        traj = simulate(system, 0.0, x0, w, 2.0, step, strict=strict)
    except Exception as exc:
        return type(exc), str(exc)
    jumps = traj.jumps.tobytes(), traj.x_pre.tobytes()
    return traj.status, traj.times.tobytes(), traj.states.tobytes(), jumps


def map_calling(system):
    """The system with its flow map wrapped, so the map-calling kernel runs it."""
    m = system.flow
    return ImpulsiveSystem(
        system.name, system.dim_x, system.dim_u, lambda t, x, u: m(t, x, u), system.jump
    )


@settings(max_examples=150)
@given(compiled_runs())
def test_fused_kernel_matches_map_calls(run):
    """Fused and map-calling kernels agree bit for bit on any expressions,
    including runs a map error or a non-finite state ends."""
    system, x0, w = run
    calling = map_calling(system)
    for strict in (False, True):
        assert outcome(system, x0, w, strict) == outcome(calling, x0, w, strict)


def assert_still_flow_identical(system, x0, w, step=0.05):
    """A flow that reads neither t nor the state takes the still-flow
    segment (no x1 local), and gives the run of the map-calling kernel
    and of `reference_rk4` bit for bit, or fails the same way."""
    segment, _ = _kernel(system.dim_x, map_source(system.flow))
    assert "x1" not in segment.__code__.co_varnames
    calling = map_calling(system)
    for strict in (False, True):
        assert outcome(system, x0, w, strict, step) == outcome(calling, x0, w, strict, step)
    traj = simulate(system, 0.0, x0, w, 2.0, step, strict=False)
    try:
        reference = reference_rk4(system, 0.0, x0, w, 2.0, step)
    except (ArithmeticError, ValueError, TypeError):
        # the reference does not catch a map error or a complex state
        assert traj.status == STATUS_STEP_FAILURE
        return traj
    TestSegmentKernel.assert_matches(traj, *reference)
    return traj


STILL_EDGES = ["0.0", "1e14", "log(u1)", "(u1 - 5) ** 0.5", "1e308 * (2 + u1*u1)"]


@st.composite
def still_runs(draw):
    """A compiled system whose flow reads only u and constants, drawn or
    one of the edge cases, with its initial state (-0.0 among them) and
    hybrid input."""
    dim_x, dim_u = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    component = expressions(dim_x, dim_u, still=True) | st.sampled_from(STILL_EDGES)
    flow = draw(st.lists(component, min_size=dim_x, max_size=dim_x))
    jump = draw(st.lists(expressions(dim_x, dim_u), min_size=dim_x, max_size=dim_x))
    system = system_from_config(
        {"name": "still", "dim_x": dim_x, "dim_u": dim_u, "flow": flow, "jump": jump}
    )
    small = st.just(-0.0) | st.floats(-3.0, 3.0, allow_nan=False)
    x0 = draw(st.lists(small, min_size=dim_x, max_size=dim_x))
    bps = sorted(set(draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3))))
    row = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=dim_u, max_size=dim_u)
    vals = draw(st.lists(row, min_size=len(bps), max_size=len(bps)))
    taus = draw(st.lists(st.floats(0.01, 2.0), max_size=3))
    w = HybridInput(
        InputSignal(np.asarray(bps), np.asarray(vals)),
        ImpulseSequence.from_times(np.asarray(sorted(set(taus)))),
    )
    return system, x0, w, draw(st.sampled_from([0.05, 1e-3]))


@settings(max_examples=150)
@given(still_runs())
def test_still_flow_matches_map_calls_and_reference(run):
    assert_still_flow_identical(*run)


class TestStillFlow:
    """A flow of u and constants only is evaluated once per segment; the
    run is the four-stage one bit for bit, failures included."""

    @staticmethod
    def system(flow):
        jump = ["-0.5*x1"] + ["0.0"] * (len(flow) - 1)
        return system_from_config(
            {"name": "still", "dim_x": len(flow), "dim_u": 1, "flow": flow, "jump": jump}
        )

    # u1 is 1 on [0, 1) and -1 from 1 on; one jump at 0.5
    W = hybrid(InputSignal(np.array([0.0, 1.0]), np.array([[1.0], [-1.0]])), 0.5)

    def test_negative_zero_start(self):
        traj = assert_still_flow_identical(self.system(["0.0", "u1 - u1"]), [-0.0, -0.0], self.W)
        assert traj.status == STATUS_COMPLETE
        assert math.copysign(1.0, traj.states[1][0]) == 1.0  # -0.0 + 0.0

    def test_crossing_sample_kept_mid_segment(self):
        traj = assert_still_flow_identical(self.system(["1e14"]), [0.0], self.W, 1e-3)
        assert traj.status == STATUS_DIVERGED and len(traj.times) == 12
        # ten steps of 1e11 end exactly on the radius, still inside
        assert traj.norms()[-1] > DIVERGENCE_RADIUS == traj.norms()[-2]

    def test_raising_flow_fails_at_its_segment(self):
        traj = assert_still_flow_identical(self.system(["log(u1)"]), [1.0], self.W)
        assert traj.status == STATUS_STEP_FAILURE and traj.end_time == 1.0
        with pytest.raises(NonFiniteState, match="math domain error.* at t=1$"):
            simulate(self.system(["log(u1)"]), 0.0, [1.0], self.W, 2.0, 0.05)

    def test_complex_flow_fails(self):
        traj = assert_still_flow_identical(self.system(["(u1 - 5) ** 0.5"]), [1.0], self.W)
        assert traj.status == STATUS_STEP_FAILURE and len(traj.times) == 1
        with pytest.raises(NonFiniteState, match="state became complex at t=0$"):
            simulate(self.system(["(u1 - 5) ** 0.5"]), 0.0, [1.0], self.W, 2.0, 0.05)

    def test_infinite_increment_fails(self):
        traj = assert_still_flow_identical(self.system(["1e308 * (2 + u1*u1)"]), [1.0], self.W)
        assert traj.status == STATUS_STEP_FAILURE and len(traj.times) == 1
        with pytest.raises(NonFiniteState, match="non-finite at t=0.05$"):
            simulate(self.system(["1e308 * (2 + u1*u1)"]), 0.0, [1.0], self.W, 2.0, 0.05)

    def test_segment_locals(self):
        """Only a flow that reads neither t nor the state skips the stages."""
        for name, still in (("pure-jump", True), ("zero", True), ("lin-contract", False)):
            flow = system_from_config(EXAMPLE_CONFIGS[name]).flow
            segment, _ = _kernel(1, map_source(flow))
            assert ("x1" not in segment.__code__.co_varnames) == still


class TestMapErrors:
    """An arithmetic error raised by a map ends the run as a step failure;
    a map of the wrong size is a malformed system."""

    @pytest.mark.parametrize(
        "expr, x0, after",
        [("exp(x1)", 5.0, 1), ("1/x1", 0.0, 0), ("sqrt(x1)", -1.0, 0)],
        ids=["overflow", "zero-division", "domain"],
    )
    def test_error_is_step_failure(self, expr, x0, after):
        system = system_from_config(
            {"name": "raises", "dim_x": 1, "dim_u": 1, "flow": [expr], "jump": ["0.0"]}
        )
        w = hybrid(zero_signal())
        traj = simulate(system, 0.0, [x0], w, 1.0, 1e-2, strict=False)
        assert traj.status == STATUS_STEP_FAILURE
        assert len(traj.times) == 1 + after  # samples up to the last finished step
        assert traj.states[0][0] == x0 and np.all(np.isfinite(traj.states))
        with pytest.raises(NonFiniteState) as info:
            simulate(system, 0.0, [x0], w, 1.0, 1e-2)
        assert isinstance(info.value.__cause__, (OverflowError, ZeroDivisionError, ValueError))

    def test_jump_map_error_keeps_pre_jump_state(self):
        system = system_from_config(
            {"name": "raises", "dim_x": 1, "dim_u": 1, "flow": ["-x1"], "jump": ["log(x1 - 2)"]}
        )
        traj = simulate(system, 0.0, [1.0], hybrid(zero_signal(), 0.5), 1.0, 1e-2, strict=False)
        assert traj.status == STATUS_STEP_FAILURE
        assert traj.end_time == 0.5 and len(traj.jumps) == 0
        assert traj.states[-1][0] == pytest.approx(math.exp(-0.5), abs=1e-9)

    @pytest.mark.parametrize("which", ["flow", "jump"])
    @pytest.mark.parametrize("dims", [(2, 1), (1, 2)], ids=["dim_x", "dim_u"])
    def test_compiled_map_of_other_dimensions_is_invalid_system(self, which, dims):
        maps = {"flow": compile_map(["-x1"], 1, 1), "jump": compile_map(["0.0"], 1, 1)}
        maps[which] = compile_map(["-x1"] * dims[0], *dims)
        with pytest.raises(InvalidSystem, match=which):
            ImpulsiveSystem("bad", 1, 1, maps["flow"], maps["jump"])

    @pytest.mark.parametrize("kernel", ["fused", "map-calling"])
    @pytest.mark.parametrize(
        "flow, jump, end",
        [("x1 ** 0.5", "0.0", 0.0), ("-x1", "x1 ** 0.5", 0.5)],
        ids=["flow", "jump"],
    )
    def test_complex_state_is_step_failure(self, kernel, flow, jump, end):
        """A fractional power of a negative state is complex; the run ends
        at the last real sample instead of raising TypeError."""
        system = system_from_config(
            {"name": "complex", "dim_x": 1, "dim_u": 1, "flow": [flow], "jump": [jump]}
        )
        if kernel == "map-calling":
            m = system.flow
            system = ImpulsiveSystem("complex", 1, 1, lambda t, x, u: m(t, x, u), system.jump)
        w = hybrid(zero_signal(), 0.5)
        traj = simulate(system, 0.0, [-1.0], w, 1.0, 1e-2, strict=False)
        assert traj.status == STATUS_STEP_FAILURE
        assert traj.end_time == end and len(traj.jumps) == 0
        assert traj.states.dtype == float and np.all(np.isfinite(traj.states))
        with pytest.raises(NonFiniteState, match="complex") as info:
            simulate(system, 0.0, [-1.0], w, 1.0, 1e-2)
        assert isinstance(info.value.__cause__, TypeError)

    @pytest.mark.parametrize("which", ["flow", "jump"])
    @pytest.mark.parametrize("result", [None, 1.0], ids=["None", "float"])
    def test_non_sequence_result_is_invalid_system(self, which, result):
        maps = {"flow": lambda t, x, u: (-x[0],), "jump": lambda t, x, u: (0.0,)}
        maps[which] = lambda t, x, u: result
        system = ImpulsiveSystem("not-a-sequence", 1, 1, maps["flow"], maps["jump"])
        w = hybrid(zero_signal(), 0.5)
        for strict in (False, True):
            with pytest.raises(InvalidSystem, match="sequence") as info:
                simulate(system, 0.0, [1.0], w, 1.0, 1e-2, strict=strict)
            assert isinstance(info.value.__cause__, TypeError)

    def test_type_error_inside_a_map_is_not_swallowed(self):
        def broken(t, x, u):
            return (x + 1.0,)  # a list plus a float

        system = ImpulsiveSystem("broken", 1, 1, broken, lambda t, x, u: (0.0,))
        with pytest.raises(TypeError):
            simulate(system, 0.0, [1.0], hybrid(zero_signal()), 1.0, 1e-2, strict=False)

    @pytest.mark.parametrize("which", ["flow", "jump"])
    @pytest.mark.parametrize("size", [1, 3])
    def test_wrong_component_count_is_invalid_system(self, which, size):
        ok = {"flow": lambda t, x, u: (-x[0], -x[1]), "jump": lambda t, x, u: (0.0, 0.0)}
        ok[which] = lambda t, x, u: tuple([0.0] * size)
        system = ImpulsiveSystem("wrong-size", 2, 1, ok["flow"], ok["jump"])
        with pytest.raises(InvalidSystem):
            simulate(system, 0.0, [1.0, 1.0], hybrid(zero_signal(), 0.5), 1.0, 1e-2, strict=False)


class TestMutatingMaps:
    """A map that writes into its x argument changes neither the recorded
    samples nor the jump records: every call gets a fresh list."""

    @staticmethod
    def scribbling(system, which):
        maps = {"flow": system.flow, "jump": system.jump}
        inner = maps[which]

        def scribble(t, x, u):
            out = inner(t, x, u)
            x[0] = 1e6
            return out

        maps[which] = scribble
        return ImpulsiveSystem("scribbling", system.dim_x, system.dim_u, **maps)

    @pytest.mark.parametrize("which", ["flow", "jump"])
    def test_samples_and_jumps_untouched(self, which):
        system = make_linear_system(-0.7, 0.3)
        w = hybrid(constant_signal(0.5), 0.25, 0.6)
        clean = simulate(system, 0.0, [1.0], w, 1.0, 0.05)
        traj = simulate(self.scribbling(system, which), 0.0, [1.0], w, 1.0, 0.05)
        assert traj.states[0][0] == 1.0
        assert traj.states.tobytes() == clean.states.tobytes()
        assert traj.times.tobytes() == clean.times.tobytes()
        assert len(traj.jumps) == 2
        assert traj.jumps.tobytes() == clean.jumps.tobytes()
        assert traj.x_pre.tobytes() == clean.x_pre.tobytes()


def test_step_below_the_time_resolution_is_refused():
    """At t0 = 1e16 doubles are 2 apart, so steps of 0.01 would record
    995 of 1,000 sample times as non-increasing, and a decay check of
    that run passed with worst margin 0.0.  The grid is refused before
    any step, by the simulator and the closed form alike."""
    system = make_linear_system(-1.0, 0.5)
    t0 = 1e16
    w = hybrid(zero_signal(), t0 + 4.0, t0 + 8.0)
    for strict in (True, False):
        with pytest.raises(InvalidInterval, match="not strictly increasing"):
            simulate(system, t0, [1.0], w, t0 + 10.0, 0.01, strict=strict)
    with pytest.raises(InvalidInterval, match="not strictly increasing"):
        closed_form_linear_impulsive(-1.0, 0.5, t0, [1.0], w, t0 + 10.0, 0.01)
    # a step the doubles there resolve is accepted, one sample per step
    traj = simulate(system, t0, [1.0], w, t0 + 10.0, 2.0)
    assert np.all(np.diff(traj.times) > 0) and traj.counts.tolist() == [0, 0, 1, 1, 2, 2]


def test_grid_step_count_bounded_before_allocation():
    """A step of 1e-300 once overflowed the int64 step count into a cast
    warning and a bare ValueError, and any step needing about 1e9 samples
    allocated them.  Both counts below are worked out by hand, not built:
    (horizon - t0) / step over the bound is refused before the jumps are
    read, and a window count over it before the sample arrays exist."""
    system = make_linear_system(-1.0, 0.5)
    bound = float(MAX_GRID_STEPS)
    w = hybrid(zero_signal())
    for horizon, step in ((1.0, 1e-300), (bound + 1.0, 1.0)):
        assert horizon / step > bound
        with pytest.raises(InvalidInterval, match="needs more than"):
            simulate(system, 0.0, [1.0], w, horizon, step)
        with pytest.raises(InvalidInterval, match="needs more than"):
            closed_form_linear_impulsive(-1.0, 0.5, 0.0, [1.0], w, horizon, step)
    # exactly the bound over the whole window, but a jump at 0.5 cuts it
    # into [0, 0.5] (1 step) and [0.5, bound] (bound steps)
    assert 1 + math.ceil(bound - 0.5 - 1e-9) == MAX_GRID_STEPS + 1
    with pytest.raises(InvalidInterval, match="needs more than"):
        simulate(system, 0.0, [1.0], hybrid(zero_signal(), 0.5), bound, 1.0)


def scalar_grid(t0, horizon, step, jump_times, breakpoints):
    """Sample times by the scalar rule, one segment at a time."""
    bounds = segment_bounds(t0, horizon, jump_times, breakpoints)
    times = [float(t0)]
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if b <= a:
            continue
        nsub = max(1, math.ceil((b - a) / step - 1e-9))
        h = (b - a) / nsub
        times += [b if i == nsub - 1 else a + (i + 1) * h for i in range(nsub)]
    return times


@st.composite
def grid_runs(draw):
    """Start, horizon, step and a hybrid input with events anywhere,
    sometimes exactly at the start or the horizon."""
    t0 = draw(st.floats(0.0, 2.0))
    horizon = t0 + draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    step = draw(st.floats(0.01, 1.0))
    events = st.lists(st.floats(0.001, 5.0), max_size=4)
    bps = sorted(set(draw(events)) | {0.0})
    taus = set(draw(events))
    taus |= {t for t in (t0, horizon) if t > 0.0 and draw(st.booleans())}
    u = InputSignal(np.asarray(bps), np.linspace(-1.0, 1.0, len(bps)))
    return t0, horizon, step, HybridInput(u, ImpulseSequence.from_times(sorted(taus)))


LIN = system_from_config(EXAMPLE_CONFIGS["lin-contract"])
TIMED = system_from_config(
    {"name": "timed", "dim_x": 1, "dim_u": 1, "flow": ["u1 - x1 + t"], "jump": ["-0.5*x1"]}
)
BLOW_UP = system_from_config(
    {"name": "blow-up", "dim_x": 1, "dim_u": 1, "flow": ["x1 * x1"], "jump": ["x1"]}
)


@settings(max_examples=150)
@given(grid_runs())
def test_times_follow_the_scalar_rule(run):
    """Completed, diverged and failed runs sample a prefix of the scalar
    grid, one state per time; a strict failure names the failing step's
    time, the last sample after a map error."""
    t0, horizon, step, w = run
    grid = scalar_grid(t0, horizon, step, w.sigma.materialize(horizon), w.u.breakpoints)
    cut = t0 + 0.4 * (horizon - t0)
    nan_flow = ImpulsiveSystem(
        "nan", 1, 1, lambda t, x, u: (float("nan") if t > cut else -x[0],), lambda t, x, u: (0.0,)
    )
    raising = ImpulsiveSystem(
        "raises", 1, 1, lambda t, x, u: (1 / (t <= cut) - x[0],), lambda t, x, u: (0.0,)
    )
    for system, x0 in ((LIN, 1.0), (TIMED, 1.0), (BLOW_UP, 10.0), (nan_flow, 1.0), (raising, 1.0)):
        traj = simulate(system, t0, [x0], w, horizon, step, strict=False)
        k = len(traj.times)
        assert traj.states.shape == (k, 1) and traj.states.flags.c_contiguous
        assert traj.times.tolist() == grid[:k]
        if traj.status == STATUS_COMPLETE:
            assert k == len(grid)
        elif traj.status == STATUS_DIVERGED:
            assert abs(traj.states[-1][0]) >= DIVERGENCE_RADIUS
        else:
            assert k < len(grid) and system in (nan_flow, raising)
            failed_at = grid[k] if system is nan_flow else grid[k - 1]
            with pytest.raises(NonFiniteState, match=f"at t={failed_at:.6g}$"):
                simulate(system, t0, [x0], w, horizon, step)


def digest_runs():
    """A fixed set of runs over every kernel path: the five library systems
    (fused kernel), a hand-written linear system and a 2-d compiled system
    whose flow reads t, each under several inputs and jump grids, plus
    diverged and step-failure runs, lenient and strict."""
    library = [system_from_config(EXAMPLE_CONFIGS[name]) for name in sorted(EXAMPLE_CONFIGS)]
    osc = system_from_config(
        {"name": "osc", "dim_x": 2, "dim_u": 1,
         "flow": ["x2 + 0.1*t", "-x1 - 0.1*x2 + u1"], "jump": ["0.1*x1", "-0.5*x2"]}
    )
    systems = library + [hand_linear(-0.7, 0.3), osc]
    rng = np.random.default_rng(20191)
    inputs = [
        zero_signal(),
        constant_signal(0.8),
        pulse_train(start=0.3, period=0.9, width=0.25, amplitude=1.2, count=4),
        InputSignal(np.sort(rng.uniform(0.0, 4.0, 5)), rng.uniform(-2.0, 2.0, (5, 1))),
    ]
    grids = [
        ImpulseSequence.from_times(()),
        periodic_family(0.5).sampler(0, 10.0),
        ImpulseSequence.from_times(np.array([0.37, 1.0, 2.2, 3.9])),
    ]
    for k, system in enumerate(systems):
        for j, u in enumerate(inputs):
            for i, sigma in enumerate(grids):
                t0 = 0.1 * ((k + j + i) % 4)
                x0 = rng.uniform(-3.0, 3.0, system.dim_x)
                step = (0.013, 0.05, 0.1)[(j + i) % 3]
                yield system, t0, x0, HybridInput(u, sigma), t0 + 4.0, step, False
    periodic = HybridInput(zero_signal(), periodic_family(0.5).sampler(0, 40.0))
    yield hand_linear(4.0, 3.0), 0.0, [1.0], periodic, 30.0, 1e-2, False
    yield BLOW_UP, 0.0, [1.0], periodic, 30.0, 1e-2, False
    nan_flow = ImpulsiveSystem(
        "nan-flow", 1, 1,
        lambda t, x, u: (float("nan"),) if t > 1.0 else (-x[0],),
        lambda t, x, u: (0.0,),
    )
    sqrt_flow = system_from_config(
        {"name": "sqrt", "dim_x": 1, "dim_u": 1, "flow": ["-sqrt(x1)"], "jump": ["0.0"]}
    )
    inf_jump = ImpulsiveSystem(
        "inf-jump", 1, 1, lambda t, x, u: (-x[0],), lambda t, x, u: (float("inf"),)
    )
    w = hybrid(constant_signal(0.5), 0.5, 1.5)
    for system, x0 in ((nan_flow, [1.0]), (sqrt_flow, [0.3]), (inf_jump, [1.0])):
        for strict in (False, True):
            yield system, 0.0, x0, w, 2.0, 1e-2, strict


def trajectory_digest() -> str:
    """sha256 over the status, shape, times, states and jumps of every
    digest run, and the message of every NonFiniteState raised."""
    h = hashlib.sha256()
    for system, t0, x0, w, horizon, step, strict in digest_runs():
        try:
            traj = simulate(system, t0, x0, w, horizon, step, strict=strict)
        except NonFiniteState as exc:
            h.update(f"{type(exc.__cause__).__name__}: {exc}".encode())
            continue
        h.update(traj.status.encode())
        h.update(repr(traj.states.shape).encode())
        h.update(traj.times.tobytes())
        h.update(traj.states.tobytes())
        for tau, x_pre, x_post in zip(traj.jumps, traj.x_pre, post_rows(traj)):
            h.update(np.float64(tau).tobytes())
            h.update(x_pre.tobytes())
            h.update(x_post.tobytes())
            # the sample at a jump time is the increment form, bit for bit
            incr = system.jump(float(tau), x_pre.tolist(), tuple(w.u.value_at(tau).tolist()))
            assert x_post.tobytes() == (x_pre + np.asarray(incr, dtype=float)).tobytes()
    return h.hexdigest()


def test_pinned_trajectory_digest():
    """Every bit of the digest runs is as the per-step kernel gave it
    before the sample columns and the vectorized time grid."""
    assert trajectory_digest() == (
        "829fb4100207dd858a774aa5d27001bae414fdfdc611e7e54c5a53f25482ffb3"
    )
