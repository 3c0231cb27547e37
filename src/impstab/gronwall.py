"""Integral inequalities with jumps: closed-form bound and verification.

For nonnegative data, y(t) <= p + q1 * int_{t0}^{t} y(s) ds
+ q2 * sum over jump times in (t0, t] of y(s-) implies
y(t) <= p * (1 + q2)^{n(t0, t]} * exp(q1 * (t - t0)), and the bound is
achieved by the profile that satisfies the hypothesis with equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisFailed, InvalidInterval
from .impulses import ImpulseSequence, count_jumps, count_jumps_at
from .inputs import HybridInput, zero_signal
from .sim import STATUS_COMPLETE, Trajectory, _step_grid


@dataclass(frozen=True)
class GronwallData:
    p: float
    q1: float
    q2: float
    sigma: ImpulseSequence
    t0: float = 0.0

    def __post_init__(self):
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("q1 and q2 must be nonnegative")
        if not math.isfinite(self.p):
            raise ValueError("p must be finite")
        # p < 0 makes the conclusion vacuous rather than wrong; flag it
        # early instead of producing a negative "bound".
        if self.p < 0:
            raise ValueError("p must be nonnegative for a meaningful bound")


def gronwall_bound(data: GronwallData, t: float) -> float:
    """p * (1 + q2)^(jumps in (t0, t]) * exp(q1 * (t - t0))."""
    if t < data.t0:
        raise InvalidInterval(f"t={t} precedes t0={data.t0}")
    n = count_jumps(data.sigma, data.t0, t)
    return data.p * (1.0 + data.q2) ** n * math.exp(data.q1 * (t - data.t0))


def gronwall_bound_at(data: GronwallData, ts: np.ndarray) -> np.ndarray:
    """Vectorized bound over sample times (all at or after t0)."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and float(np.min(ts)) < data.t0:
        raise InvalidInterval("sample times precede t0")
    times = data.sigma.materialize(float(np.max(ts)) if ts.size else data.t0)
    n = count_jumps_at(times, data.t0, ts)
    return data.p * (1.0 + data.q2) ** n * np.exp(data.q1 * (ts - data.t0))


def growth_profile(
    data: GronwallData, horizon: float, step: float = 1e-2
) -> Trajectory:
    """The extremal scalar profile: equality in hypothesis and bound.

    y(t) = p (1 + q2)^n e^{q1 (t - t0)} grows by the flow factor between
    jumps and is multiplied by (1 + q2) at each jump, which is exactly
    the profile that turns the hypothesis into an identity.  Its
    recorded input is the zero signal with the data's jump times.
    """
    lo, hi, nsub, _, times, counts, jump_ends = _step_grid(
        data.t0, horizon, step, data.sigma, np.empty(0)
    )
    vals = [data.p]
    jumped, pre = [], []
    y = data.p
    for lo_k, hi_k, end, jumps in zip(lo.tolist(), hi.tolist(), np.cumsum(nsub).tolist(), jump_ends):
        seg_times = times[len(vals) : end + 1].tolist()
        vals.extend(y * math.exp(data.q1 * (t - lo_k)) for t in seg_times)
        y = vals[-1]
        if jumps:
            jumped.append(hi_k)
            pre.append(y)
            y = vals[-1] = (1.0 + data.q2) * y
    return Trajectory(
        t0=data.t0,
        times=times,
        states=np.asarray(vals)[:, None],
        jumps=np.array(jumped, dtype=float),
        x_pre=np.array(pre, dtype=float)[:, None],
        counts=counts,
        status=STATUS_COMPLETE,
        step=float(step),
        horizon=float(horizon),
        input_used=HybridInput(zero_signal(), data.sigma),
    )


def scaled_growth_profile(
    data: GronwallData,
    horizon: float,
    step: float = 1e-2,
    flow_scale: float = 1.0,
    jump_scale: float = 1.0,
    offset_scale: float = 1.0,
) -> Trajectory:
    """A profile satisfying the hypothesis with room to spare.

    Runs the extremal construction with q1, q2, p scaled down by the
    given factors in [0, 1]; the result satisfies the original
    hypothesis strictly whenever any factor is below one.
    """
    for s in (flow_scale, jump_scale, offset_scale):
        if not 0.0 <= s <= 1.0:
            raise ValueError("scales must lie in [0, 1]")
    inner = GronwallData(
        p=offset_scale * data.p,
        q1=flow_scale * data.q1,
        q2=jump_scale * data.q2,
        sigma=data.sigma,
        t0=data.t0,
    )
    return growth_profile(inner, horizon, step)


@dataclass
class GronwallReport:
    bound_satisfied: bool
    hypothesis_margin: float  # most negative slack of the hypothesis side
    worst_slack: float  # min over samples of bound - y
    samples: int
    witness_time: float | None = None


def verify_gronwall(
    traj: Trajectory, data: GronwallData, tol: float | None = None
) -> GronwallReport:
    """Check hypothesis and conclusion along a scalar trajectory.

    The running integral of y is accumulated by the trapezoid rule with
    the pre-jump value closing each interval that ends at a jump.  If
    the hypothesis fails anywhere beyond tolerance, HypothesisFailed is
    raised with the witness time: the conclusion is simply not in force
    there, and reporting a "bound violation" would be misleading.
    """
    if traj.dim != 1:
        raise ValueError("verification expects a scalar trajectory")
    if abs(traj.t0 - data.t0) > 1e-12:
        raise InvalidInterval("trajectory and data start at different times")
    ts = traj.times
    ys = traj.states[:, 0]
    pre = dict(zip(traj.jumps.tolist(), traj.x_pre[:, 0].tolist()))
    if tol is None:
        tol = 1e-6 * (1.0 + abs(data.p) + float(np.max(np.abs(ys))))

    sigma_times = data.sigma.materialize(float(ts[-1]))
    sigma_set = set(float(t) for t in sigma_times if t > data.t0)

    k = len(ts)
    integral = 0.0
    jump_sum = 0.0
    hyp_margin = math.inf
    worst_slack = math.inf
    witness = None

    bound_vals = gronwall_bound_at(data, ts)

    def check_point(t, y, rhs_hyp, bound):
        nonlocal hyp_margin, worst_slack, witness
        slack_hyp = rhs_hyp - y
        if slack_hyp < hyp_margin:
            hyp_margin = slack_hyp
        if slack_hyp < -tol:
            raise HypothesisFailed(
                f"hypothesis fails at t={t:.6g}: y={y:.6g} > rhs={rhs_hyp:.6g}",
                witness_time=t,
            )
        slack = bound - y
        if slack < worst_slack:
            worst_slack = slack
            if slack < -tol:
                witness = t

    check_point(float(ts[0]), float(ys[0]), data.p, float(bound_vals[0]))
    for i in range(1, k):
        tL, tR = float(ts[i - 1]), float(ts[i])
        yL = float(ys[i - 1])
        y_pre = pre.get(tR, float(ys[i]))
        integral += 0.5 * (tR - tL) * (yL + y_pre)
        if tR in sigma_set:
            # the value entering the jump obeys the pre-jump count
            rhs_pre = data.p + data.q1 * integral + data.q2 * jump_sum
            n_pre = count_jumps(data.sigma, data.t0, tR) - 1
            bound_pre = (
                data.p * (1.0 + data.q2) ** n_pre * math.exp(data.q1 * (tR - data.t0))
            )
            check_point(tR, y_pre, rhs_pre, bound_pre)
            jump_sum += y_pre
        rhs = data.p + data.q1 * integral + data.q2 * jump_sum
        check_point(tR, float(ys[i]), rhs, float(bound_vals[i]))

    return GronwallReport(
        bound_satisfied=witness is None,
        hypothesis_margin=float(hyp_margin),
        worst_slack=float(worst_slack),
        samples=k,
        witness_time=witness,
    )

