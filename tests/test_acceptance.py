"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (straight to the terminal,
bypassing capture) so a full run reads as a checklist.  Tolerances are
pinned here and nowhere else; loosening them is an API change.
"""

import json
import math
import time

import numpy as np
import pytest

from impstab.certificates import (
    EpsDeltaConfig,
    _check_points,
    check_guas,
    check_iiss,
    check_ubebs,
    check_eps_delta_conditions,
    derive_guas_from_iiss,
    derive_strong_from_weak,
    derive_ubebs_from_iiss,
    estimate_settling_time,
    falsify,
    replay_witness,
)
from impstab.comparison import eval_kl_array, identity, power
from impstab.gronwall import (
    GronwallData,
    gronwall_bound_at,
    growth_profile,
    scaled_growth_profile,
    verify_gronwall,
)
from impstab.impulses import ImpulseSequence, empty_family, periodic_family
from impstab.inputs import (
    EnergyProfile,
    HybridInput,
    InputSignal,
    energy_norm,
    truncate,
    zero_signal,
)
from impstab.library import (
    decaying_guas_certificate,
    get_example,
    lin_contract_iiss_certificate,
    make_linear_system,
    pure_jump_weak_certificate,
)
from impstab.scenarios import run_scenario
from impstab.sim import closed_form_linear_impulsive, simulate


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_signal(rng, t0: float, horizon: float, amp: float) -> InputSignal:
    k = int(rng.integers(1, 5))
    bps = np.sort(rng.uniform(t0, horizon, size=k))
    vals = rng.uniform(-amp, amp, size=(k, 1))
    return InputSignal(bps, vals)


def test_simulator_matches_closed_form(capsys):
    """Sampled error <= 1e-6 at step 1e-3; error falls ~16x when halved."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(8):
        a = float(rng.uniform(-2.0, 0.5))
        jf = float(rng.uniform(-0.8, 0.9))
        t0 = float(rng.uniform(0.0, 1.0))
        x0 = float(rng.uniform(-3.0, 3.0))
        u = _random_signal(rng, t0, t0 + 4.0, 2.0)
        w = HybridInput(
            u, ImpulseSequence.from_times(np.sort(rng.uniform(t0 + 0.1, t0 + 3.9, 3)))
        )
        sys1 = make_linear_system(a, jf)
        traj = simulate(sys1, t0, [x0], w, t0 + 4.0, 1e-3)
        exact = closed_form_linear_impulsive(a, jf, t0, [x0], w, t0 + 4.0, 1e-3)
        assert np.array_equal(traj.times, exact.times)
        worst = max(worst, float(np.max(np.abs(traj.states - exact.states))))

    sys1 = make_linear_system(-1.3, 0.6)
    w = HybridInput(
        InputSignal(np.array([0.0]), np.array([[0.8]])),
        ImpulseSequence.from_times([1.0, 2.2]),
    )

    def err(step):
        t = simulate(sys1, 0.0, [2.0], w, 3.0, step)
        e = closed_form_linear_impulsive(-1.3, 0.6, 0.0, [2.0], w, 3.0, step)
        return float(np.max(np.abs(t.states - e.states)))

    ratio = err(0.1) / err(0.05)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and 8.0 <= ratio <= 32.0 and elapsed < 5.0
    _report(
        capsys,
        "simulator-fidelity",
        ok,
        f"max err {worst:.3e} <= 1e-6, halving ratio {ratio:.1f} in [8, 32], {elapsed:.1f}s",
    )
    assert worst <= 1e-6
    assert 8.0 <= ratio <= 32.0
    assert elapsed < 5.0


def test_growth_bound_exact_and_never_undercut(capsys):
    """Extremal profile matches the bound to 1e-6; 1000 sub-extremal pass."""
    d = GronwallData(p=1.0, q1=1.0, q2=2.0, sigma=ImpulseSequence.from_times([1.0, 2.0]))
    traj = growth_profile(d, 3.0, step=1e-2)
    gap = float(
        np.max(
            np.abs(traj.states[:, 0] - gronwall_bound_at(d, traj.times))
            / (1.0 + gronwall_bound_at(d, traj.times))
        )
    )
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(1000):
        data = GronwallData(
            p=float(rng.uniform(0.05, 3.0)),
            q1=float(rng.uniform(0.0, 1.5)),
            q2=float(rng.uniform(0.0, 2.0)),
            sigma=ImpulseSequence.from_times(
                np.sort(rng.uniform(0.1, 2.9, size=int(rng.integers(0, 4))))
            ),
        )
        prof = scaled_growth_profile(
            data,
            3.0,
            step=5e-2,
            flow_scale=float(rng.uniform(0.0, 1.0)),
            jump_scale=float(rng.uniform(0.0, 1.0)),
            offset_scale=float(rng.uniform(0.1, 1.0)),
        )
        rep = verify_gronwall(prof, data)
        if not rep.bound_satisfied or rep.hypothesis_margin < -1e-9:
            failures += 1
    ok = gap <= 1e-6 and failures == 0
    _report(
        capsys,
        "growth-bound",
        ok,
        f"extremal relative gap {gap:.2e} <= 1e-6, {1000 - failures}/1000 sub-extremal profiles pass",
    )
    assert gap <= 1e-6
    assert failures == 0


def test_energy_measure_algebra(capsys):
    """Additivity, truncation invariance, jump right-continuity at 1e-12."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(300):
        u = _random_signal(rng, 0.0, 4.0, 2.0)
        taus = np.sort(rng.uniform(0.2, 3.8, size=int(rng.integers(1, 4))))
        w = HybridInput(u, ImpulseSequence.from_times(taus))
        rho1, rho2 = identity(), power(2.0)
        a, b, c = np.sort(rng.uniform(0.0, 4.0, size=3))
        # additivity over adjacent windows
        whole = energy_norm(w, rho1, rho2, float(a), float(c))
        split = energy_norm(w, rho1, rho2, float(a), float(b)) + energy_norm(
            w, rho1, rho2, float(b), float(c)
        )
        worst = max(worst, abs(whole - split) / (1.0 + abs(whole)))
        # truncation preserves the energy of the kept window
        cut = truncate(w, float(a), float(c))
        kept = energy_norm(cut, rho1, rho2, float(a), float(c))
        worst = max(worst, abs(whole - kept) / (1.0 + abs(whole)))
        # the charge at a jump time uses the right-continuous value
        tau = float(taus[0])
        prof = EnergyProfile(w, rho1, rho2, 0.0, 4.0)
        charge = prof.at(tau) - prof.before_jump(tau)
        expect = rho2(float(np.linalg.norm(u.value_at(tau))))
        worst = max(worst, abs(charge - expect) / (1.0 + abs(expect)))
    ok = worst <= 1e-12
    _report(capsys, "energy-algebra", ok, f"worst relative defect {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


def test_sound_certificates_survive_search(capsys):
    """2000-trial falsification passes the reference gain certificate
    and both certificates constructed from it."""
    start = time.monotonic()
    sys1 = get_example("lin-contract")
    fam = periodic_family(0.5)
    base = lin_contract_iiss_certificate()
    certs = {
        "gain": (base, check_iiss),
        "derived-decay": (derive_guas_from_iiss(base), check_guas),
        "derived-overshoot": (derive_ubebs_from_iiss(base), check_ubebs),
    }
    verdicts = {}
    for label, (cert, _) in certs.items():
        rep = falsify(cert, sys1, fam, budget=2000, seed=17)
        verdicts[label] = rep.verdict
    elapsed = time.monotonic() - start
    ok = all(v == "pass" for v in verdicts.values()) and elapsed < 60.0
    _report(
        capsys,
        "sound-certificates",
        ok,
        f"{', '.join(f'{k}={v}' for k, v in verdicts.items())} at budget 2000, {elapsed:.0f}s",
    )
    assert verdicts == {k: "pass" for k in certs}
    assert elapsed < 60.0


def test_strong_check_dominates_weak(capsys):
    """The strong-time bound is pointwise the tighter one, so passing it
    implies passing the elapsed-time variant."""
    rng = np.random.default_rng(23)
    sys1 = get_example("lin-contract")
    strong_cert = decaying_guas_certificate(3.0, 0.5, "strong")
    weak_cert = decaying_guas_certificate(3.0, 0.5, "weak")
    worst_gap = -math.inf
    implications = 0
    for i in range(60):
        t0 = float(rng.uniform(0.0, 2.0))
        x0 = float(rng.uniform(-4.0, 4.0))
        w = HybridInput(zero_signal(), periodic_family(0.5).sampler(i, t0 + 8.0))
        traj = simulate(sys1, t0, [x0], w, t0 + 8.0, 1e-2)
        ts, norms, s_strong, side = _check_points(traj, "strong")[:4]
        _, _, s_weak, _ = _check_points(traj, "weak")[:4]
        r0 = float(np.linalg.norm(traj.x0))
        rhs_strong = eval_kl_array(strong_cert.beta, r0, s_strong)
        rhs_weak = eval_kl_array(weak_cert.beta, r0, s_weak)
        gap = float(np.max(rhs_strong - rhs_weak)) if len(ts) else 0.0
        worst_gap = max(worst_gap, gap)
        rs = check_guas(strong_cert, traj)
        rw = check_guas(weak_cert, traj)
        if rs.verdict == "pass":
            implications += 1
            assert rw.verdict == "pass", f"strong passed but weak failed on trial {i}"
            assert rw.worst_margin <= rs.worst_margin + 1e-12
    ok = worst_gap <= 1e-12 and implications > 0
    _report(
        capsys,
        "strong-implies-weak",
        ok,
        f"max(rhs_strong - rhs_weak) = {worst_gap:.2e} <= 0 over 60 runs, "
        f"{implications} strong passes all carried over",
    )
    assert worst_gap <= 1e-12
    assert implications > 0


def test_weak_certificate_lifts_to_strong(capsys):
    """Jump-driven decay: the elapsed-time certificate holds, and its
    strong-time lift through a jump-count budget holds too."""
    start = time.monotonic()
    pj = get_example("pure-jump")
    weak = pure_jump_weak_certificate()
    lifted = derive_strong_from_weak(weak, lambda s: math.ceil(s))
    fam = periodic_family(1.0)
    rng = np.random.default_rng(31)
    weak_pass = strong_pass = 0
    n_traj = 1000
    for i in range(n_traj):
        t0 = float(rng.uniform(0.0, 2.0))
        x0 = float(rng.uniform(-5.0, 5.0))
        w = HybridInput(zero_signal(), fam.sampler(i, t0 + 10.0))
        traj = simulate(pj, t0, [x0], w, t0 + 10.0, 1e-2)
        if check_guas(weak, traj).verdict == "pass":
            weak_pass += 1
        if check_guas(lifted, traj).verdict == "pass":
            strong_pass += 1
    # the lift never claims more than the original certificate grants
    grid_gap = -math.inf
    for r in np.linspace(0.05, 5.0, 20):
        for s in np.linspace(0.0, 9.0, 20):
            claim = lifted.beta(float(r), float(s) + math.ceil(s))
            grid_gap = max(grid_gap, float(weak.beta(float(r), float(s))) - float(claim))
    elapsed = time.monotonic() - start
    ok = weak_pass == n_traj and strong_pass == n_traj and grid_gap <= 1e-8
    _report(
        capsys,
        "weak-to-strong-lift",
        ok,
        f"weak {weak_pass}/{n_traj}, lifted {strong_pass}/{n_traj}, "
        f"defining inequality slack {grid_gap:.2e} <= 1e-8, {elapsed:.0f}s",
    )
    assert weak_pass == n_traj
    assert strong_pass == n_traj
    assert grid_gap <= 1e-8


def test_unsound_certificates_are_falsified(capsys):
    """Expanding examples lose their claimed decay within 200 trials and
    the stored witness replays to the same margin."""
    results = {}
    for name, fam in (("double-jump", periodic_family(0.1)), ("zero", empty_family())):
        sys1 = get_example(name)
        cert = decaying_guas_certificate(3.0, 0.5)
        rep = falsify(cert, sys1, fam, budget=200, seed=3)
        gap = math.inf
        if rep.verdict == "violated":
            out = replay_witness(rep.witness, cert, sys1)
            gap = out["margin_gap"] if out["replayed_margin"] is not None else math.inf
        results[name] = (rep.verdict, rep.trials, gap)
    ok = all(v == "violated" and t <= 200 and g <= 1e-9 for v, t, g in results.values())
    _report(
        capsys,
        "unsound-falsified",
        ok,
        "; ".join(
            f"{k}: {v} at trial {t}, replay gap {g:.1e}" for k, (v, t, g) in results.items()
        ),
    )
    for name, (verdict, trials, gap) in results.items():
        assert verdict == "violated", name
        assert trials <= 200, name
        assert gap <= 1e-9, name


def test_limit_conditions_and_settling(capsys):
    """The three sampled limit conditions hold on the contractive
    example; the settling estimate matches the logarithmic truth."""
    start = time.monotonic()
    cfg = EpsDeltaConfig(alpha_tilde=identity())
    rep_i, rep_ii, rep_iii = check_eps_delta_conditions(
        get_example("lin-contract"),
        (identity(), identity()),
        periodic_family(0.5),
        cfg,
        budget=16,
        seed=5,
    )
    est = estimate_settling_time(
        make_linear_system(-1.0, 1.0),
        empty_family(),
        identity(),
        r=10.0,
        eps=0.1,
        budget=16,
        seed=0,
    )
    ln100 = math.log(100.0)
    err = abs(est.value - ln100)
    elapsed = time.monotonic() - start
    verdicts = (rep_i.verdict, rep_ii.verdict, rep_iii.verdict)
    ok = (
        verdicts == ("pass", "pass", "pass")
        and not est.saturated
        and err <= 0.2
        and elapsed < 120.0
    )
    _report(
        capsys,
        "limit-conditions",
        ok,
        f"bounded/stability/convergence = {'/'.join(verdicts)}, "
        f"settling |{est.value:.3f} - ln(100)| = {err:.3f} <= 0.2, {elapsed:.0f}s",
    )
    assert verdicts == ("pass", "pass", "pass")
    assert not est.saturated
    assert err <= 0.2
    assert elapsed < 120.0


def test_scenario_reports_deterministic(capsys, tmp_path):
    """Identical scenario runs produce byte-identical reports and the
    documented exit codes."""
    from importlib import resources

    outcomes = {}
    identical = True
    for name, want in (("lin_contract_iiss", 0), ("double_jump_falsify", 2)):
        scenario = json.loads(
            resources.files("impstab").joinpath("data", name + ".json").read_text()
        )
        r1 = run_scenario(scenario, str(tmp_path / name / "a"))
        r2 = run_scenario(scenario, str(tmp_path / name / "b"))
        b1 = (tmp_path / name / "a" / "report.json").read_bytes()
        b2 = (tmp_path / name / "b" / "report.json").read_bytes()
        identical = identical and b1 == b2
        outcomes[name] = (r1["exit_code"], want)
    ok = identical and all(got == want for got, want in outcomes.values())
    _report(
        capsys,
        "scenario-determinism",
        ok,
        f"reports byte-identical: {identical}; exit codes "
        + ", ".join(f"{k}={got} (want {want})" for k, (got, want) in outcomes.items()),
    )
    assert identical
    for name, (got, want) in outcomes.items():
        assert got == want, name
