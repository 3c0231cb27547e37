"""Each benchmark correctness check must be able to fail.

    python3 -m pytest bench/test_checks.py -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import impstab  # noqa: E402


def _lin_contract_run():
    t0, x0 = 0.3, 2.5
    bps, vals = np.array([1.0, 4.2, 7.7]), np.array([1.5, -0.5, 2.0])
    w = impstab.HybridInput(
        impstab.InputSignal(bps, vals[:, None]),
        impstab.periodic_family(0.5).sampler(0, t0 + 11.0),
    )
    traj = impstab.simulate(impstab.get_example("lin-contract"), t0, [x0], w, t0 + 10.0, 1e-2)
    return traj, (t0, x0, bps, vals, 0.5)


def test_perturbed_trajectory_fails_closed_form():
    traj, args = _lin_contract_run()
    assert checks.closed_form_mismatches(traj, *args) == []
    traj.states[len(traj.times) // 2, 0] += 1e-5
    assert checks.closed_form_mismatches(traj, *args)


def test_unsound_certificate_fails_falsify_check():
    system, family = impstab.get_example("lin-contract"), impstab.periodic_family(0.5)
    sound = impstab.falsify(impstab.lin_contract_iiss_certificate(), system, family, 12, seed=1)
    assert checks.falsify_report_failures("gain", sound, 12) == []
    assert checks.margin_failures("gain", sound.worst_margin, 5.0) == []
    # decays at rate 3 in strong time, faster than the flow's e^-t allows
    unsound = impstab.decaying_guas_certificate(amp=1.0, rate=3.0)
    rep = impstab.falsify(unsound, system, family, 12, seed=1)
    assert checks.falsify_report_failures("unsound", rep, 12)
    assert checks.margin_failures("unsound", rep.worst_margin, 5.0)


def _limit_reports(c):
    return (
        impstab.CheckReport("pass", "eps-delta-bounded", c, details={"C": {"T=2,r=0.5,s=2": c}}),
        impstab.CheckReport("pass", "eps-delta-stability", 0.0, details={"delta": {"eps=0.2": 0.125}}),
        impstab.CheckReport("pass", "eps-delta-convergence", 0.0, details={"T": {"r=2,eps=0.2": 3.3}}),
    )


def test_c_outside_r_to_r_plus_s_fails():
    assert checks.limit_condition_failures(_limit_reports(1.7), 0.01) == []
    assert checks.limit_condition_failures(_limit_reports(0.49), 0.01)
    assert checks.limit_condition_failures(_limit_reports(2.51), 0.01)


def test_pure_jump_check_is_bit_exact():
    w = impstab.HybridInput(impstab.zero_signal(), impstab.periodic_family(1.0).sampler(0, 12.0))
    traj = impstab.simulate(impstab.get_example("pure-jump"), 0.7, [-3.1], w, 10.7, 1e-2)
    assert checks.pure_jump_mismatches(traj) == []
    traj.states[-1, 0] = np.nextafter(traj.states[-1, 0], 0.0)
    assert checks.pure_jump_mismatches(traj)
