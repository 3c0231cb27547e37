"""Correctness checks computed apart from the program under test.

Each check returns a list of failure messages; an empty list means the
property holds.  The references are closed forms written here from the
systems' definitions, or properties the method must have; none of them
is a stored copy of an earlier output, and none calls the package's own
closed-form oracle.
"""

from __future__ import annotations

import math
import re

import numpy as np

TOL_SCALE = 1e-9  # the package's documented per-point check tolerance


def lin_contract_exact(t0, x0, breakpoints, values, period, times):
    """x(t) for dx/dt = u - x with x -> x/2 at every multiple of period.

    Variation of constants between events, exact halving at each jump
    time in (t0, t], right-continuous; u is piecewise constant, zero
    before its first breakpoint.
    """
    jumps = {period * k for k in range(1, int(times[-1] / period) + 2)}
    events = sorted({float(b) for b in breakpoints if t0 < b} | {j for j in jumps if t0 < j})

    def u_at(t):
        idx = int(np.searchsorted(breakpoints, t, "right")) - 1
        return float(values[idx]) if idx >= 0 else 0.0

    out = np.empty(len(times))
    s, x, ev = float(t0), float(x0), 0
    for i, t in enumerate(times):
        while ev < len(events) and events[ev] <= t:
            e = events[ev]
            x = _flow(x, u_at(s), e - s)
            s = e
            if e in jumps:
                x *= 0.5
            ev += 1
        out[i] = _flow(x, u_at(s), t - s)
    return out


def _flow(x, u, dt):
    decay = math.exp(-dt)
    return decay * x + u * (1.0 - decay)


def closed_form_mismatches(traj, t0, x0, breakpoints, values, period, tol=1e-6):
    want = lin_contract_exact(t0, x0, breakpoints, values, period, traj.times)
    err = float(np.max(np.abs(traj.states[:, 0] - want)))
    if err > tol:
        return [f"lin-contract trajectory from t0={t0:.6g} is {err:.3e} off its closed form"]
    return []


def falsify_report_failures(label, rep, budget):
    """A sound certificate survives the whole budget with every trial
    conclusive."""
    out = []
    if rep.verdict != "pass":
        out.append(f"{label}: verdict {rep.verdict!r}, want 'pass'")
    if rep.trials != budget:
        out.append(f"{label}: {rep.trials} trials, want the budget {budget}")
    if rep.details.get("inconclusive_trials", 0) != 0:
        out.append(f"{label}: {rep.details.get('inconclusive_trials')} inconclusive trials")
    return out


def margin_failures(label, worst, x0_max):
    """Where the bound at the start sample equals |x0|, as for the gain
    certificate and the decay certificate derived from it, the worst
    margin of a sound certificate is that zero, up to the tolerance."""
    tol = TOL_SCALE * (1.0 + x0_max)
    if not -tol <= worst <= tol:
        return [f"{label}: worst margin {worst!r} outside [-{tol:.1e}, {tol:.1e}]"]
    return []


def _keyed(key):
    return {k: float(v) for k, v in re.findall(r"(\w+)=([^,]+)", key)}


def limit_condition_failures(reports, step):
    """Bounds that follow from the gain certificate |x| <= r 2^-s + energy."""
    rep_i, rep_ii, rep_iii = reports
    out = [
        f"{rep.kind}: verdict {rep.verdict!r}"
        for rep in reports
        if rep.verdict != "pass"
    ]
    for key, c in rep_i.details["C"].items():
        k = _keyed(key)
        slack = TOL_SCALE * (1.0 + k["r"] + k["s"])
        if not k["r"] - slack <= c <= k["r"] + k["s"] + slack:
            out.append(f"C({key}) = {c!r} outside [r, r + s]")
    for key, delta in rep_ii.details["delta"].items():
        if delta is None or delta > _keyed(key)["eps"]:
            out.append(f"delta({key}) = {delta!r}, want a value <= eps")
    for key, t in rep_iii.details["T"].items():
        k = _keyed(key)
        cap = max(0.0, math.log2(k["r"] / k["eps"])) + step
        if not t <= cap:
            out.append(f"T({key}) = {t!r} above max(0, log2(r/eps)) + step = {cap!r}")
    return out


def settling_failures(profile, step):
    """dx/dt = -x from |x0| = r first stays below eps at ln(r/eps)."""
    out = []
    for r, row in zip(profile["r_grid"], profile["estimates"]):
        for eps, est in zip(profile["eps_grid"], row):
            truth = max(0.0, math.log(r / eps))
            if not abs(est - truth) <= step:
                out.append(f"settling(r={r:g}, eps={eps:g}) = {est!r}, want {truth!r} +- {step}")
    return out


def pure_jump_mismatches(traj, period=1.0):
    """No flow and exact halving: |x(t)| = |x0| 2^-n(t0, t], bit for bit."""
    t0 = traj.t0
    n = np.floor(traj.times / period) - math.floor(t0 / period)
    want = abs(float(traj.states[0, 0])) * np.exp2(-n)
    bad = np.flatnonzero(np.abs(traj.states[:, 0]) != want)
    if bad.size:
        i = int(bad[0])
        return [
            f"pure-jump from t0={t0!r}: |x({traj.times[i]!r})| = "
            f"{abs(traj.states[i, 0])!r}, want {want[i]!r}"
        ]
    return []


def double_jump_witness_failures(wit, period=0.1):
    """dx/dt = -x with x -> 2x: |x(t)| = |x0| e^-(t - t0) 2^n, and a
    violation of 3 r e^(-s/2) must exceed it at strong time s."""
    t, t0 = wit["t"], wit["t0"]
    r = abs(wit["x0"][0])
    # jumps at period * k; a pre-jump entry excludes the jump at t itself
    eps = 1e-9
    upto = math.floor(t / period + eps) if wit["side"] == "post" else math.ceil(t / period - eps) - 1
    n = upto - math.floor(t0 / period + eps)
    lhs = r * math.exp(-(t - t0)) * 2.0**n
    bound = 3.0 * r * math.exp(-0.5 * (t - t0 + n))
    out = []
    if not abs(wit["lhs"] - lhs) <= 1e-6 * lhs:
        out.append(f"double-jump witness lhs {wit['lhs']!r}, closed form {lhs!r}")
    if not wit["lhs"] > bound:
        out.append(f"double-jump witness lhs {wit['lhs']!r} does not exceed {bound!r}")
    return out
