"""Certificate checks, falsification search, limit conditions, settling."""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import impstab
from impstab.certificates import (
    CheckReport,
    EpsDeltaConfig,
    GuasCertificate,
    IissCertificate,
    SearchRanges,
    SettlingConfig,
    UbebsCertificate,
    Witness,
    _check_points,
    _limit_trial,
    _scrambled_halton,
    certificate_from_config,
    check_certificate,
    check_eps_delta_conditions,
    check_guas,
    check_iiss,
    check_ubebs,
    derive_guas_from_iiss,
    derive_strong_from_weak,
    derive_ubebs_from_iiss,
    estimate_settling_time,
    falsify,
    replay_witness,
    settling_time_profile,
)
from impstab import certificates, comparison
from impstab.comparison import KLFn, exp_decay_kl, identity, power, rational_decay_kl, saturating
from impstab.errors import (
    ClassViolation,
    ConfigError,
    NonZeroInput,
    OutOfRange,
)
from impstab.impulses import (
    ImpulseSequence,
    dwell_family,
    empty_family,
    finite_random_family,
    periodic_family,
)
from impstab.inputs import EnergyProfile, HybridInput, constant_signal, pulse_train, zero_signal
from impstab.library import (
    decaying_guas_certificate,
    get_example,
    lin_contract_iiss_certificate,
    make_linear_system,
    pure_jump_weak_certificate,
)
from impstab.sim import simulate
from impstab.systems import ImpulsiveSystem, map_source, system_from_config

LN_100 = 4.605170185988092  # settling of dx/dt = -x from r=10 to eps=0.1


def hybrid(u, *times):
    return HybridInput(u, ImpulseSequence.from_times(np.asarray(times, dtype=float)))


def zero_system():
    return get_example("zero")


def test_import_leaves_scipy_stats_unloaded():
    """scipy (scipy.stats costs about a second and 60 MB to import) loads
    neither with the package nor in falsify."""
    code = (
        "import sys, impstab\n"
        "impstab.falsify(impstab.lin_contract_iiss_certificate(),"
        " impstab.get_example('lin-contract'), impstab.periodic_family(0.5), budget=2)\n"
        "print('scipy' in sys.modules)"
    )
    src = str(Path(impstab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("seed", [0, 1, 17, 12345])
@pytest.mark.parametrize("n", [1, 12, 300])
def test_halton_matches_scipy(seed, n):
    """falsify's low-discrepancy points (t0, |x0|, amplitude) are scipy's
    3-D scrambled Halton points, bit for bit."""
    qmc = pytest.importorskip("scipy.stats").qmc
    want = qmc.Halton(d=3, scramble=True, seed=seed).random(n)
    assert np.array_equal(_scrambled_halton(n, seed), want)


class TestCertificateTypes:
    def test_bad_mode_rejected(self):
        with pytest.raises(ClassViolation):
            GuasCertificate(exp_decay_kl(1.0, 1.0), mode="medium")

    def test_saturating_alpha_rejected(self):
        with pytest.raises(ClassViolation):
            UbebsCertificate(saturating(1.0), identity(), identity(), 0.0)

    def test_negative_offset_rejected(self):
        with pytest.raises(ClassViolation):
            UbebsCertificate(identity(), identity(), identity(), -0.5)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_offset_rejected(self, c):
        """A NaN offset made every margin NaN and an infinite one every
        bound vacuous; a search on either passed with worst margin -inf."""
        with pytest.raises(ClassViolation, match="finite"):
            UbebsCertificate(identity(), identity(), identity(), c)
        cfg = {
            "kind": "ubebs",
            "alpha": {"kind": "linear", "k": 100},
            "rho1": {"kind": "identity"},
            "rho2": {"kind": "identity"},
            "c": c,
        }
        with pytest.raises(ClassViolation):
            certificate_from_config(json.loads(json.dumps(cfg)))
        cfg["c"] = 0.0
        rep = falsify(
            certificate_from_config(cfg), get_example("lin-contract"), periodic_family(0.5),
            budget=12, seed=3,
        )
        assert (rep.verdict, rep.trials) == ("violated", 1)

    @pytest.mark.parametrize("c", [True, None, [1.0], "1"], ids=["bool", "null", "list", "str"])
    def test_non_number_offset_rejected(self, c):
        """True was read as an offset of 1.0, and null or a list escaped
        as a bare TypeError; a config reads a string by float()."""
        with pytest.raises(ClassViolation, match="finite number"):
            UbebsCertificate(identity(), identity(), identity(), c)
        gauge = {"kind": "identity"}
        cfg = {"kind": "ubebs", "alpha": gauge, "rho1": gauge, "rho2": gauge, "c": c}
        if c == "1":
            assert certificate_from_config(cfg).c == 1.0
        else:
            with pytest.raises(ClassViolation):
                certificate_from_config(cfg)

    def test_config_round_trip(self):
        cfg = {
            "kind": "iiss",
            "mode": "weak",
            "alpha": {"kind": "power", "p": 2.0},
            "beta": {"kind": "exp-decay", "amp": 2.0, "rate": 0.5},
            "rho1": {"kind": "identity"},
            "rho2": {"kind": "linear", "k": 3.0},
        }
        cert = certificate_from_config(cfg)
        assert isinstance(cert, IissCertificate)
        assert cert.mode == "weak"
        assert cert.alpha(2.0) == pytest.approx(4.0)
        assert cert.beta(1.0, 0.0) == pytest.approx(2.0)
        assert cert.rho2(1.0) == pytest.approx(3.0)
        guas = certificate_from_config(
            {"kind": "guas", "beta": {"kind": "exp-decay", "amp": 1.0, "rate": 1.0}}
        )
        assert isinstance(guas, GuasCertificate) and guas.mode == "strong"
        ub = certificate_from_config(
            {
                "kind": "ubebs",
                "alpha": {"kind": "identity"},
                "rho1": {"kind": "identity"},
                "rho2": {"kind": "identity"},
                "c": 1.5,
            }
        )
        assert isinstance(ub, UbebsCertificate) and ub.c == 1.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            certificate_from_config({"kind": "stability"})


BAD_SCALARS = [math.nan, math.inf, -1.0]
LIMIT_FIELDS = ["t0_max", "horizon", "step"]
RANGES_FIELDS = ["t0_max", "x0_max", "u_amp_max", "horizon", "step"]


class TestConfigScalars:
    """Each config checks its scalars once, on construction.  At first a
    NaN t0_max raised numpy's OverflowError from the first trial and a
    negative horizon a ValueError, and neither config looked at them."""

    @pytest.mark.parametrize("value", BAD_SCALARS, ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("name", LIMIT_FIELDS)
    def test_eps_delta_config_rejects(self, name, value):
        with pytest.raises(OutOfRange, match=name):
            EpsDeltaConfig(alpha_tilde=identity(), **{name: value})

    @pytest.mark.parametrize("value", BAD_SCALARS, ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("name", LIMIT_FIELDS)
    def test_settling_config_rejects(self, name, value):
        with pytest.raises(OutOfRange, match=name):
            SettlingConfig(**{name: value})

    @pytest.mark.parametrize("value", BAD_SCALARS, ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("name", RANGES_FIELDS)
    def test_search_ranges_reject(self, name, value):
        with pytest.raises(OutOfRange, match=name):
            SearchRanges(**{name: value})

    def test_zero_step_rejected(self):
        for make in (lambda: EpsDeltaConfig(alpha_tilde=identity(), step=0.0),
                     lambda: SettlingConfig(step=0.0), lambda: SearchRanges(step=0.0)):
            with pytest.raises(OutOfRange, match="step"):
                make()

    @pytest.mark.parametrize("levels", [0, -3])
    def test_delta_levels_below_one_rejected(self, levels):
        """delta_levels=0 once reported item ii "violated" on 0 trials."""
        with pytest.raises(OutOfRange, match="delta_levels"):
            EpsDeltaConfig(alpha_tilde=identity(), delta_levels=levels)

    def test_zero_search_horizon_rejected(self):
        """A falsify run with horizon 0 once passed on trials that read
        only the t0 sample."""
        with pytest.raises(OutOfRange, match="horizon"):
            SearchRanges(horizon=0.0)

    def test_zero_start_range_stays_valid(self):
        assert SettlingConfig(t0_max=0.0).t0_max == 0.0
        assert EpsDeltaConfig(alpha_tilde=identity(), t0_max=0.0, horizon=0.0).horizon == 0.0
        assert SearchRanges(t0_max=0.0, x0_max=0.0, u_amp_max=0.0).x0_max == 0.0


class TestCheckPoints:
    def test_pre_entries_precede_post(self):
        sys1 = make_linear_system(-1.0, 0.5)
        w = hybrid(zero_signal(), 1.0)
        traj = simulate(sys1, 0.0, [2.0], w, 2.0, 0.25)
        ts, norms, sargs, side = _check_points(traj, "strong")[:4]
        at_tau = np.flatnonzero(ts == 1.0)
        assert len(at_tau) == 2
        i, j = at_tau
        assert side[i] == 0 and side[j] == 1
        assert norms[i] == pytest.approx(abs(traj.x_pre[0, 0]))
        assert norms[j] == pytest.approx(abs(traj.states[np.searchsorted(traj.times, 1.0), 0]))
        # strong time: the jump itself is not yet counted on the pre side
        assert sargs[j] - sargs[i] == pytest.approx(1.0)

    def test_weak_time_ignores_jump_count(self):
        sys1 = make_linear_system(-1.0, 0.5)
        w = hybrid(zero_signal(), 1.0)
        traj = simulate(sys1, 0.5, [2.0], w, 2.5, 0.25)
        ts, _, sargs, _ = _check_points(traj, "weak")[:4]
        assert np.allclose(sargs, ts - 0.5)


class TestGuasCheck:
    def test_valid_certificate_passes(self):
        sys1 = make_linear_system(-1.0, 0.5)
        w = HybridInput(zero_signal(), periodic_family(0.5).sampler(1, 6.0))
        traj = simulate(sys1, 0.0, [3.0], w, 6.0, 1e-2)
        rep = check_guas(decaying_guas_certificate(3.0, 0.5), traj)
        assert rep.verdict == "pass"
        assert rep.worst_margin <= 1e-9 * (1.0 + 3.0)
        assert rep.kind == "guas-strong"

    def test_first_violation_witness_frozen(self):
        # constant state vs strictly decaying bound: the first sample
        # after t0 is the first violation
        cert = GuasCertificate(exp_decay_kl(1.0, 1.0), mode="strong")
        traj = simulate(zero_system(), 0.0, [2.0], hybrid(zero_signal()), 2.0, 0.25)
        rep = check_guas(cert, traj)
        assert rep.verdict == "violated"
        wit = rep.witness
        assert wit.t == 0.25
        assert wit.side == "post"
        assert wit.lhs == pytest.approx(2.0)
        assert wit.rhs == pytest.approx(2.0 * math.exp(-0.25), rel=1e-12)
        assert wit.margin == pytest.approx(wit.lhs - wit.rhs, rel=1e-12)

    def test_nonzero_input_rejected(self):
        sys1 = make_linear_system(-1.0, 0.5)
        traj = simulate(sys1, 0.0, [1.0], hybrid(constant_signal(1.0)), 1.0, 1e-2)
        with pytest.raises(NonZeroInput):
            check_guas(decaying_guas_certificate(), traj)

    def test_r0_outside_certified_range(self):
        beta = exp_decay_kl(2.0, 1.0)
        object.__setattr__(beta, "r_hint", 1.0)
        cert = GuasCertificate(beta, mode="strong")
        traj = simulate(zero_system(), 0.0, [2.0], hybrid(zero_signal()), 1.0, 0.25)
        with pytest.raises(OutOfRange):
            check_guas(cert, traj)

    def test_strong_pass_implies_weak_pass(self):
        # beta nonincreasing in s and strong time >= weak time, so the
        # strong check is pointwise the stricter of the two
        sys1 = make_linear_system(-1.0, 0.5)
        w = HybridInput(zero_signal(), periodic_family(1.0).sampler(2, 8.0))
        traj = simulate(sys1, 0.0, [2.0], w, 8.0, 1e-2)
        strong = check_guas(decaying_guas_certificate(3.0, 0.5, "strong"), traj)
        weak = check_guas(decaying_guas_certificate(3.0, 0.5, "weak"), traj)
        assert strong.verdict == "pass"
        assert weak.verdict == "pass"
        assert weak.worst_margin <= strong.worst_margin + 1e-12


class TestIissAndUbebs:
    def test_reference_certificate_passes_with_input(self):
        sys1 = get_example("lin-contract")
        u = pulse_train(start=1.0, period=2.0, width=0.5, amplitude=1.5, count=3)
        w = HybridInput(u, periodic_family(0.5).sampler(5, 8.0))
        traj = simulate(sys1, 0.25, [2.0], w, 8.25, 1e-2)
        rep = check_iiss(lin_contract_iiss_certificate(), traj)
        assert rep.verdict == "pass"
        assert rep.kind == "iiss-strong"
        assert rep.samples >= len(traj.times)

    def test_derived_ubebs_passes(self):
        sys1 = get_example("lin-contract")
        cert = derive_ubebs_from_iiss(lin_contract_iiss_certificate())
        u = constant_signal(1.0)
        w = HybridInput(u, periodic_family(0.5).sampler(9, 6.0))
        traj = simulate(sys1, 0.0, [2.0], w, 6.0, 1e-2)
        rep = check_ubebs(cert, traj)
        assert rep.verdict == "pass"

    def test_diverged_trajectory_clipped_not_crashed(self):
        sys1 = make_linear_system(4.0, 3.0)
        w = HybridInput(zero_signal(), periodic_family(0.5).sampler(0, 30.0))
        traj = simulate(sys1, 0.0, [1.0], w, 30.0, 1e-2)
        assert traj.status == "diverged"
        cert = UbebsCertificate(power(2.0), identity(), identity(), 0.0)
        rep = check_ubebs(cert, traj)
        assert rep.verdict == "violated"
        assert math.isfinite(rep.worst_margin)
        assert rep.witness.lhs <= cert.alpha(cert.alpha.domain_hint) + 1e-6

    def test_incomplete_run_is_inconclusive_without_violation(self):
        def stalling_flow(t, x, u):
            return (float("nan"),) if t > 1.0 else (-x[0],)

        sys1 = ImpulsiveSystem("stall", 1, 1, stalling_flow, lambda t, x, u: (0.0,))
        w = hybrid(zero_signal())
        traj = simulate(sys1, 0.0, [1.0], w, 3.0, 1e-2, strict=False)
        assert traj.status == "step-failure"
        cert = GuasCertificate(exp_decay_kl(5.0, 0.1), mode="strong")
        rep = check_guas(cert, traj)
        assert rep.verdict == "inconclusive"
        assert "note" in rep.details

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_margin_is_never_a_pass(self, bad):
        """A NaN bound, or an infinite one (margin -inf), checks nothing at
        that point: the complete run is inconclusive, not a pass, and its
        worst margin shows the NaN."""
        traj = simulate(get_example("lin-contract"), 0.0, [1.0], hybrid(zero_signal()), 1.0, 0.25)
        times = traj.times
        lhs, rhs = np.ones(times.size), np.full(times.size, 2.0)
        side = np.ones(times.size, dtype=int)
        assert certificates._scan("x", traj, times, lhs, rhs, side).verdict == "pass"
        rhs[2] = bad
        rep = certificates._scan("x", traj, times, lhs, rhs, side)
        assert rep.verdict == "inconclusive" and "not finite" in rep.details["note"]
        assert math.isnan(rep.worst_margin) == math.isnan(bad)
        rhs[3] = 0.5  # a real violation still wins
        assert certificates._scan("x", traj, times, lhs, rhs, side).verdict == "violated"

    def test_dispatcher_matches_direct_calls(self):
        sys1 = get_example("lin-contract")
        w = hybrid(constant_signal(0.5), 1.0)
        traj = simulate(sys1, 0.0, [1.0], w, 2.0, 1e-2)
        cert = lin_contract_iiss_certificate()
        assert (
            check_certificate(cert, traj).worst_margin
            == check_iiss(cert, traj).worst_margin
        )


def without_inverses(cert: IissCertificate) -> IissCertificate:
    """The same gain pair with every closed-form inverse removed."""
    return IissCertificate(
        replace(cert.alpha, inverse=None),
        replace(cert.beta, inverse_at_zero=None),
        cert.rho1,
        cert.rho2,
        cert.mode,
    )


DERIVE = {"decay": derive_guas_from_iiss, "overshoot": derive_ubebs_from_iiss}


@pytest.mark.parametrize("kind", sorted(DERIVE))
@pytest.mark.parametrize(
    "alpha, beta",
    [
        (identity(), exp_decay_kl(1.0, math.log(2.0))),
        (identity(), exp_decay_kl(3.0, 0.2)),
        (power(2.0), exp_decay_kl(1.0, math.log(2.0))),
        (power(0.5), rational_decay_kl(2.0, 1.0)),
    ],
    ids=["id-exp", "id-exp-slow", "square-exp", "sqrt-rational"],
)
def test_closed_form_inverses_keep_falsify_results(kind, alpha, beta):
    """Derived certificates searched with and without the closed-form
    inverses give the same verdicts, trials, inconclusive counts and
    witnesses; only margins may move, at the last few ulps."""
    base = IissCertificate(alpha, beta, identity(), identity())
    for name in ("lin-contract", "double-jump", "bilinear"):
        for seed in (1, 2):
            reps = [
                falsify(DERIVE[kind](c), get_example(name), periodic_family(0.5), 24, seed=seed)
                for c in (base, without_inverses(base))
            ]
            fast, slow = (r.to_dict() for r in reps)
            assert (fast["verdict"], fast["trials"], fast["details"]) == (
                slow["verdict"],
                slow["trials"],
                slow["details"],
            )
            assert fast["worst_margin"] == pytest.approx(slow["worst_margin"], rel=1e-12, abs=1e-14)
            if slow["witness"] is None:
                assert fast["witness"] is None
                continue
            wf, ws = fast["witness"], slow["witness"]
            for key in ("lhs", "rhs", "margin"):
                assert wf.pop(key) == pytest.approx(ws.pop(key), rel=1e-12, abs=1e-14)
            assert wf == ws


def spied(family):
    """family with a sampler that records the seeds it is asked for."""
    seeds = []

    def sampler(seed, horizon):
        seeds.append(seed)
        return family.sampler(seed, horizon)

    return replace(family, sampler=sampler), seeds


def root_find_sizes(monkeypatch) -> tuple[list, list]:
    """Two lists that record the size of every inversion and of every
    lift bisection the comparison module starts from now on."""
    inverted, lifted = [], []
    invert_array, bisect = comparison.invert_array, comparison._bisect

    def counted_invert(f, y):
        inverted.append(np.size(y))
        return invert_array(f, y)

    def counted_lift_bisect(up, lo, hi, closed, *carry, together=False):
        if not together:  # the lift's bisection; inversion's runs together
            lifted.append(lo.size)
        return bisect(up, lo, hi, closed, *carry, together=together)

    monkeypatch.setattr(comparison, "invert_array", counted_invert)
    monkeypatch.setattr(comparison, "_bisect", counted_lift_bisect)
    return inverted, lifted


class TestDerivedCertificates:
    def test_validation_makes_few_scalar_root_finds(self, monkeypatch):
        """Derived and lifted bounds take an array of r with one s, so
        validating one solves a few dozen one-element roots at most, not
        one per probe point (about 230 when they took floats only).  A
        ``math.ceil`` lift takes g in closed form and bisects nothing."""
        inverted, lifted = root_find_sizes(monkeypatch)
        base = IissCertificate(
            power(2.0), exp_decay_kl(4.0, 0.5), identity(), identity(), "strong"
        )
        weak = pure_jump_weak_certificate()
        for derive in (
            lambda: derive_guas_from_iiss(base),
            lambda: derive_guas_from_iiss(lin_contract_iiss_certificate()),
            lambda: derive_strong_from_weak(weak, lambda s: math.ceil(s)),
        ):
            del inverted[:], lifted[:]
            derive()
            assert 0 < (inverted + lifted).count(1) <= 30
        del inverted[:], lifted[:]
        derive_strong_from_weak(weak, math.ceil)
        assert not lifted

    def test_float_only_beta_validation_makes_few_root_finds(self, monkeypatch):
        """A beta that takes floats only is called one r at a time around
        beta alone, so the root-find still runs once per call: validating
        its lift once made 246 root-finds, one per probe point.  With
        ``math.ceil`` the lift bisects nothing at all; a scalar-only ceil
        still bisects, a few dozen one-element roots at most."""
        beta = KLFn(lambda r, s: 2.0 * math.fabs(r) * math.exp(-0.5 * s), name="float-only")
        inverted, lifted = root_find_sizes(monkeypatch)
        derived = derive_guas_from_iiss(
            IissCertificate(power(2.0), beta, identity(), identity(), "strong")
        )
        assert 0 < inverted.count(1) <= 30
        lift = derive_strong_from_weak(GuasCertificate(beta, "weak"), math.ceil)
        assert not lifted
        scalar_lift = derive_strong_from_weak(
            GuasCertificate(beta, "weak"), lambda s: math.ceil(s)
        )
        assert 0 < lifted.count(1) <= 30
        for cert in (derived, lift, scalar_lift):
            for r in (0.5, 2.0):
                assert cert.beta(np.array([r]), 1.0)[0] == cert.beta(r, 1.0)

    def test_decay_through_square_gauge(self):
        base = IissCertificate(
            power(2.0), exp_decay_kl(4.0, 0.5), identity(), identity(), "strong"
        )
        derived = derive_guas_from_iiss(base)
        assert isinstance(derived, GuasCertificate)
        assert derived.mode == "strong"
        for r in (0.2, 1.0, 3.0):
            for s in (0.0, 1.0, 4.0):
                want = math.sqrt(4.0 * r * math.exp(-0.5 * s))
                assert derived.beta(r, s) == pytest.approx(want, rel=1e-6)

    def test_overshoot_gauge_identity_case(self):
        base = lin_contract_iiss_certificate()  # alpha = id, beta(r,0) = r
        derived = derive_ubebs_from_iiss(base)
        assert isinstance(derived, UbebsCertificate)
        for r in (0.1, 1.0, 10.0):
            assert derived.alpha(r) == pytest.approx(0.5 * r, rel=1e-9)

    def test_weak_lifted_to_strong(self):
        weak = pure_jump_weak_certificate()
        lifted = derive_strong_from_weak(weak, lambda s: math.ceil(s))
        assert lifted.mode == "strong"
        # beta(r, s) <= lifted(r, s + phi(s)): the lift never claims more
        for r in (0.5, 2.0):
            for s in (0.0, 0.7, 3.0):
                assert weak.beta(r, s) <= lifted.beta(r, s + math.ceil(s)) + 1e-8

    def test_lifted_check_takes_array_path(self):
        """A lifted check over about 1,000 points asks an array-capable
        envelope a few dozen times.  A masked path that raised would be
        hidden by the per-element fallback in eval_kl_array and ask it
        tens of thousands of times."""
        calls = 0

        def phi(s):
            nonlocal calls
            calls += 1
            return np.ceil(s)

        weak = pure_jump_weak_certificate()
        lifted = derive_strong_from_weak(weak, phi)
        scalar_only = derive_strong_from_weak(weak, lambda s: math.ceil(s))
        w = HybridInput(zero_signal(), periodic_family(1.0).sampler(0, 10.7))
        traj = simulate(get_example("pure-jump"), 0.7, [3.0], w, 10.7, 1e-2)
        calls = 0
        rep = check_guas(lifted, traj)
        assert rep.samples >= 1000
        assert calls < 300
        assert rep.to_dict() == check_guas(scalar_only, traj).to_dict()

    def test_lift_rejects_strong_input(self):
        with pytest.raises(ClassViolation):
            derive_strong_from_weak(decaying_guas_certificate(), lambda s: s)


class TestFalsify:
    def test_unsound_decay_caught_and_reproducible(self):
        sys1 = get_example("double-jump")
        fam = periodic_family(0.1)
        cert = decaying_guas_certificate(3.0, 0.5)
        rep1 = falsify(cert, sys1, fam, budget=100, seed=3)
        rep2 = falsify(cert, sys1, fam, budget=100, seed=3)
        assert rep1.verdict == "violated" == rep2.verdict
        assert rep1.witness.t == rep2.witness.t
        assert rep1.witness.margin == rep2.witness.margin
        assert rep1.witness.trial == rep2.witness.trial
        assert rep1.details["trial_style"] in ("random", "low-discrepancy", "adversarial")

    def test_witness_replays_exactly(self):
        sys1 = get_example("double-jump")
        cert = decaying_guas_certificate(3.0, 0.5)
        rep = falsify(cert, sys1, periodic_family(0.1), budget=100, seed=3)
        out = replay_witness(rep.witness, cert, sys1)
        assert out["matches"]
        assert out["margin_gap"] <= 1e-9
        assert out["verdict"] == "violated"

    def test_check_witness_of_a_diverged_run_replays_on_its_grid(self):
        """A run that stops early still asks for the whole horizon: its
        witness stores that horizon, so the replay builds the same grid
        (the stop time as horizon gave t one ulp off)."""
        sys1 = make_linear_system(4.0, 3.0)
        traj = simulate(sys1, 0.0, [1.0], hybrid(zero_signal()), 31.3, 0.03, strict=False)
        assert traj.status == "diverged" and traj.end_time < 7.0
        cert = GuasCertificate(exp_decay_kl(1.0, 0.1), "weak")
        wit = check_guas(cert, traj).witness
        assert wit.horizon == 31.3
        out = replay_witness(wit, cert, sys1)
        assert out["replayed_t"] == wit.t
        assert out["margin_gap"] == 0.0

    @pytest.mark.parametrize(
        "cert",
        [
            GuasCertificate(exp_decay_kl(1.0, 0.1), "weak"),
            UbebsCertificate(identity(), identity(), identity()),
        ],
        ids=["guas", "ubebs"],
    )
    def test_overflowing_norm_is_reported_not_warned(self, cert):
        """The flow 1e45*x1 from x0 = 1 with step 0.01 leaves the radius in
        one step, at 4.17e170, a kept crossing sample whose squared norm
        overflows: under warnings as errors its RuntimeWarning once escaped
        the search.  The search ignores numpy overflow, so the norm reads
        inf and the trial is reported; a direct check still warns."""
        system = system_from_config(
            {"name": "burst", "dim_x": 1, "dim_u": 1, "flow": ["1e45*x1"], "jump": ["0.0"]}
        )
        w = HybridInput(zero_signal(), empty_family().sampler(0, 1.0))
        traj = simulate(system, 0.0, [1.0], w, 1.0, 0.01, strict=False)
        assert traj.status == "diverged" and traj.states[-1][0] > 1e170
        with pytest.raises(RuntimeWarning, match="overflow"):
            check_certificate(cert, traj)
        ranges = SearchRanges(t0_max=0.0, x0_max=1.0, horizon=1.0, step=0.01)
        rep = falsify(cert, system, empty_family(), budget=1, ranges=ranges)
        assert rep.verdict == "violated" and rep.trials == 1
        assert rep.witness.t == rep.trajectory.end_time
        assert rep.trajectory.states[-1][0] > 1e154

    def test_halton_table_drawn_only_for_low_discrepancy_trials(self, monkeypatch):
        """The double-jump refutation stops at trial 0, a uniform draw, and
        builds no low-discrepancy table; a passing search builds it once."""
        calls = []
        halton = certificates._scrambled_halton

        def counted(n, seed):
            calls.append((n, seed))
            return halton(n, seed)

        monkeypatch.setattr(certificates, "_scrambled_halton", counted)
        cert = decaying_guas_certificate(3.0, 0.5)
        rep = falsify(cert, get_example("double-jump"), periodic_family(0.1), budget=100, seed=3)
        assert (rep.verdict, rep.trials, calls) == ("violated", 1, [])
        rep = falsify(
            lin_contract_iiss_certificate(),
            get_example("lin-contract"),
            periodic_family(0.5),
            budget=12,
            seed=1,
        )
        assert (rep.verdict, rep.trials, calls) == ("pass", 12, [(12, 1)])

    def test_sound_certificate_survives(self):
        sys1 = get_example("lin-contract")
        rep = falsify(
            lin_contract_iiss_certificate(),
            sys1,
            periodic_family(0.5),
            budget=36,
            seed=1,
        )
        assert rep.verdict == "pass"
        assert rep.trials == 36
        assert rep.details["note"] == "no violation found within budget"

    def test_no_decay_at_all_caught(self):
        cert = GuasCertificate(exp_decay_kl(1.0, 1.0), mode="strong")
        rep = falsify(cert, zero_system(), empty_family(), budget=10, seed=0)
        assert rep.verdict == "violated"
        assert rep.witness.margin > 0.0

    def test_map_error_makes_trial_inconclusive(self):
        """A map raising an arithmetic error ends its trial, not the search."""
        sys1 = system_from_config(
            {
                "name": "decay-until-domain-error",
                "dim_x": 1,
                "dim_u": 1,
                "flow": ["-x1 + 0*sqrt(x1*x1 - 1)"],
                "jump": ["0.0"],
            }
        )
        rep = falsify(decaying_guas_certificate(3.0, 0.5), sys1, empty_family(), budget=9)
        assert rep.verdict == "pass"
        assert rep.trials == 9
        assert rep.details["inconclusive_trials"] == 9

    def test_complex_state_makes_trial_inconclusive(self):
        """Trials from a negative state turn complex and end as step
        failures; the search still runs its whole budget."""
        sys1 = system_from_config(
            {
                "name": "complex-below-zero",
                "dim_x": 1,
                "dim_u": 1,
                "flow": ["-x1 + 0.0 * x1 ** 0.5"],
                "jump": ["-0.5*x1"],
            }
        )
        rep = falsify(decaying_guas_certificate(3.0, 0.5), sys1, periodic_family(0.5), budget=12)
        assert rep.verdict == "pass"
        assert rep.trials == 12
        assert 0 < rep.details["inconclusive_trials"] < 12

    def test_bad_arguments(self):
        cert = decaying_guas_certificate()
        with pytest.raises(ConfigError):
            falsify(cert, zero_system(), empty_family(), budget=0)
        with pytest.raises(ConfigError):
            falsify(cert, zero_system(), empty_family(), budget=1, seed=-1)

    def test_witness_json_round_trip(self):
        sys1 = get_example("double-jump")
        cert = decaying_guas_certificate(3.0, 0.5)
        rep = falsify(cert, sys1, periodic_family(0.1), budget=100, seed=3)
        blob = json.dumps(rep.witness.to_dict())
        back = Witness.from_dict(json.loads(blob))
        assert back == rep.witness

    def test_witness_dict_is_asdict_with_fresh_lists(self):
        """to_dict builds its dict directly: the keys, order and values of
        dataclasses.asdict, and no list shared with the witness."""
        cert = decaying_guas_certificate(3.0, 0.5)
        rep = falsify(cert, get_example("double-jump"), periodic_family(0.1), budget=3, seed=3)
        wit = replace(rep.witness, u={"breakpoints": [0.0, 1.0], "values": [[0.5], [0.0]]})
        out = wit.to_dict()
        assert list(out.items()) == list(asdict(wit).items())
        fresh = [out["x0"], out["sigma_times"], out["u"]["breakpoints"], *out["u"]["values"]]
        mine = [wit.x0, wit.sigma_times, wit.u["breakpoints"], *wit.u["values"]]
        assert all(a is not b for a, b in zip(fresh, mine))


class TestEpsDelta:
    def test_contractive_example_passes_all_three(self):
        sys1 = get_example("lin-contract")
        cfg = EpsDeltaConfig(
            alpha_tilde=identity(),
            T_grid=(2.0, 6.0),
            r_grid=(1.0,),
            s_grid=(0.5,),
            eps_grid=(0.5,),
            horizon=8.0,
        )
        rep_i, rep_ii, rep_iii = check_eps_delta_conditions(
            sys1, (identity(), identity()), periodic_family(0.5), cfg, budget=8, seed=2
        )
        assert rep_i.verdict == "pass"
        assert rep_i.kind == "eps-delta-bounded"
        assert set(rep_i.details["C"]) == {"T=2,r=1,s=0.5", "T=6,r=1,s=0.5"}
        assert all(v < 10.0 for v in rep_i.details["C"].values())
        assert rep_ii.verdict == "pass"
        assert rep_ii.details["delta"]["eps=0.5"] is not None
        assert rep_iii.verdict == "pass"
        assert not any(rep_iii.details["saturated"].values())

    def test_convergence_cells_draw_their_own_jump_times(self):
        """Item iii draws distinct jump times per cell and per seed; it
        once drew the same ones for every seed."""
        cfg = EpsDeltaConfig(
            alpha_tilde=identity(),
            T_grid=(2.0,),
            r_grid=(0.5, 1.0),
            s_grid=(0.5,),
            eps_grid=(0.5,),
            horizon=2.0,
            delta_levels=1,
        )
        item_iii = []
        for seed in (0, 1):
            family, seeds = spied(dwell_family(0.3, 1.0))
            check_eps_delta_conditions(
                get_example("lin-contract"), None, family, cfg, budget=2, seed=seed
            )
            item_iii.append(seeds[-4:])  # 2 cells x 2 trials, drawn last
        for cells in item_iii:
            assert set(cells[:2]).isdisjoint(cells[2:])
        assert set(item_iii[0]).isdisjoint(item_iii[1])

    def test_boundedness_trials_never_share_jump_times(self):
        """Item i once seeded trial k of cell c with 101 * c + k, so past a
        budget of 101 trial 101 of cell 0 drew the jump times of trial 0
        of cell 1; every trial now has its own seed path."""
        cfg = EpsDeltaConfig(
            alpha_tilde=identity(),
            T_grid=(1.0,),
            r_grid=(0.5,),
            s_grid=(0.5, 1.0),
            eps_grid=(1.0,),
            horizon=0.5,
            step=0.1,
            delta_levels=1,
        )
        family, seeds = spied(dwell_family(0.3, 1.0))
        check_eps_delta_conditions(
            get_example("lin-contract"), None, family, cfg, budget=102, seed=0
        )
        item_i = seeds[:204]  # 2 cells x 102 trials, drawn first
        assert len(set(item_i)) == 204

    def test_no_convergence_flagged(self):
        cfg = EpsDeltaConfig(
            alpha_tilde=identity(),
            T_grid=(2.0,),
            r_grid=(1.0,),
            s_grid=(0.5,),
            eps_grid=(0.5,),
            horizon=6.0,
        )
        rep_i, rep_ii, rep_iii = check_eps_delta_conditions(
            zero_system(), None, empty_family(), cfg, budget=6, seed=0
        )
        # a frozen state is bounded and stable but never settles
        assert rep_i.verdict == "pass"
        assert rep_ii.verdict == "pass"
        assert rep_iii.verdict == "violated"
        assert any(rep_iii.details["saturated"].values())

    @pytest.mark.parametrize("budget", [0, -2])
    def test_budget_below_one_rejected(self, budget):
        """A budget of 0 once gave three passes on zero trials, and -2
        reported -24 trials; settling took both too."""
        with pytest.raises(ConfigError, match="budget must be at least 1"):
            check_eps_delta_conditions(
                get_example("lin-contract"), None, empty_family(),
                EpsDeltaConfig(alpha_tilde=identity()), budget=budget,
            )
        linear = make_linear_system(-1.0, 1.0)
        with pytest.raises(ConfigError, match="budget must be at least 1"):
            estimate_settling_time(linear, empty_family(), identity(), 1.0, 0.5, budget=budget)
        with pytest.raises(ConfigError, match="budget must be at least 1"):
            settling_time_profile(
                linear, empty_family(), identity(), (1.0,), (0.5,), budget=budget
            )

    @pytest.mark.parametrize(
        "grids",
        [{"T_grid": ()}, {"r_grid": ()}, {"s_grid": ()}, {"eps_grid": ()},
         {"eps_grid": (0.0,)}, {"eps_grid": (0.5, -0.1)}, {"eps_grid": (math.nan,)},
         {"T_grid": (math.nan,)}, {"T_grid": (2.0, -1.0)},
         {"s_grid": (math.nan,)}, {"s_grid": (-0.5,)},
         {"r_grid": (math.nan,)}, {"r_grid": (math.inf,)}, {"r_grid": (-1.0,)},
         {"T_grid": (2.0, 2.0000001)}, {"r_grid": (0.5, 0.5)}, {"s_grid": (1e-7, 1.0000001e-7)},
         {"eps_grid": (0.2, 0.20000001)}],
        ids=["empty-T", "empty-r", "empty-s", "empty-eps", "zero-eps", "negative-eps", "nan-eps",
             "nan-T", "negative-T", "nan-s", "negative-s", "nan-r", "inf-r", "negative-r",
             "alike-T", "alike-r", "alike-s", "alike-eps"],
    )
    def test_degenerate_grids_rejected(self, grids):
        """An empty T, r or s grid once left item i's worst margin at -inf,
        which json.dumps writes as the non-JSON -Infinity, and eps = 0 ran
        to a "violated" item ii.  A NaN or negative T passed item i with
        every C = 0.0 and nothing read, a NaN s drove zero input, and a
        NaN or infinite r raised NonFiniteState from simulate.  Report keys
        print grid values with :g, so T_grid=(2.0, 2.0000001) reported 4
        trials but one C entry, a cell's result silently dropped.  All are
        refused before any step."""
        calls = []

        def flow(t, x, u):
            calls.append(t)
            return (-x[0],)

        counted = ImpulsiveSystem("counted", 1, 1, flow, lambda t, x, u: (0.0,))
        cfg = replace(EpsDeltaConfig(alpha_tilde=identity(), horizon=1.0), **grids)
        with pytest.raises(OutOfRange):
            check_eps_delta_conditions(counted, None, empty_family(), cfg, budget=1)
        assert calls == []

    def test_benchmark_cap_prices_at_most_three_factors(self, monkeypatch):
        """Under identity gains the energy is linear in the factor, so the
        cap's search prices 1, k and k + 1 at most, where 40 bisection steps
        priced 41 factors per capped input.  A count, not a timing."""
        priced = {}
        scaled_total = EnergyProfile.scaled_total

        def spied(profile, c):
            priced.setdefault(profile, []).append(c)
            return scaled_total(profile, c)

        monkeypatch.setattr(EnergyProfile, "scaled_total", spied)
        cfg = EpsDeltaConfig(alpha_tilde=identity())
        for seed in range(3):
            check_eps_delta_conditions(
                get_example("lin-contract"), (identity(), identity()), periodic_family(0.5),
                cfg, budget=1, seed=seed,
            )
        capped = [factors for factors in priced.values() if len(factors) > 1]
        assert len(capped) >= 10
        assert all(len(factors) <= 3 and factors[0] == 1.0 for factors in capped)
        # the settling half runs its flow in the fused kernel
        assert map_source(make_linear_system(-1.0, 1.0).flow) is not None

    def test_benchmark_call_simulates_only_what_its_verdicts_read(self, monkeypatch):
        """A budget-1 call on lin-contract under 0.5-periodic jumps makes 18
        simulations, not 21: the stability trials with |x0| > eps (delta
        1, 0.5 and 0.25 against eps 0.2) are decided at x0 and price no
        input, and every boundedness trial stops before the horizon."""
        ends, profiles = [], []
        simulate, profile = certificates.simulate, certificates.EnergyProfile

        def spied_simulate(system, t0, x0, w, horizon, step, strict=True):
            ends.append(horizon - t0)
            return simulate(system, t0, x0, w, horizon, step, strict)

        def spied_profile(*args):
            profiles.append(args)
            return profile(*args)

        monkeypatch.setattr(certificates, "simulate", spied_simulate)
        monkeypatch.setattr(certificates, "EnergyProfile", spied_profile)
        cfg = EpsDeltaConfig(alpha_tilde=identity())
        check_eps_delta_conditions(
            get_example("lin-contract"), (identity(), identity()), periodic_family(0.5),
            cfg, budget=1, seed=0,
        )
        assert len(ends) == len(profiles) == 18
        assert all(end < cfg.horizon for end in ends[:12])  # item i comes first
        del ends[:], profiles[:]
        norms, sargs, energy = _limit_trial(
            get_example("lin-contract"), periodic_family(0.5), [0], 1.0, cfg,
            (identity(), identity()), 1.0, eps=0.5,
        )
        assert norms.tolist() == [1.0] and sargs.tolist() == [0.0] and energy == 0.0
        assert ends == profiles == []


class TestSettling:
    def test_jump_times_follow_the_seed(self):
        """Settling trials once drew the same jump times for every seed."""
        drawn = []
        for seed in (0, 1, 99):
            family, seeds = spied(dwell_family(0.3, 1.0))
            estimate_settling_time(
                make_linear_system(-1.0, 1.0), family, identity(), 1.0, 0.5,
                budget=3, seed=seed,
            )
            drawn.append(frozenset(seeds))
        assert len(set(drawn)) == 3

    def test_linear_decay_matches_logarithm(self):
        sys1 = make_linear_system(-1.0, 1.0)
        est = estimate_settling_time(
            sys1, empty_family(), identity(), r=10.0, eps=0.1, budget=16, seed=0
        )
        assert not est.saturated
        assert abs(est.value - LN_100) <= 0.2
        assert float(est) == est.value

    def test_frozen_state_saturates(self):
        est = estimate_settling_time(
            zero_system(), empty_family(), identity(), r=1.0, eps=0.5, budget=8, seed=0
        )
        assert est.saturated

    def test_bad_thresholds_rejected(self):
        sys1 = make_linear_system(-1.0, 1.0)
        with pytest.raises(OutOfRange):
            estimate_settling_time(sys1, empty_family(), identity(), r=0.0, eps=0.1)
        with pytest.raises(OutOfRange):
            estimate_settling_time(sys1, empty_family(), identity(), r=1.0, eps=-0.1)
        # NaN once gave a settling time of 0.0 (eps) or NonFiniteState (r)
        with pytest.raises(OutOfRange):
            estimate_settling_time(sys1, empty_family(), identity(), r=1.0, eps=math.nan)
        with pytest.raises(OutOfRange):
            estimate_settling_time(sys1, empty_family(), identity(), r=math.nan, eps=0.1)

    def test_profile_monotone_for_linear_decay(self):
        sys1 = make_linear_system(-1.0, 1.0)
        prof = settling_time_profile(
            sys1,
            empty_family(),
            identity(),
            r_grid=(2.0, 10.0),
            eps_grid=(0.1, 1.0),
            budget=8,
            seed=0,
        )
        assert prof["monotone_in_r"]
        assert prof["monotone_in_eps"]
        assert len(prof["estimates"]) == 2
        assert not prof["saturated"][0][0]

    def test_profile_rejects_bad_thresholds_before_simulating(self):
        calls = []

        def flow(t, x, u):
            calls.append(t)
            return (-x[0],)

        counted = ImpulsiveSystem("counted", 1, 1, flow, lambda t, x, u: (0.0,))
        for r_grid, eps_grid in (((1.0, 0.0), (0.5,)), ((1.0,), (0.5, -0.1))):
            with pytest.raises(OutOfRange):
                settling_time_profile(
                    counted, empty_family(), identity(), r_grid, eps_grid, budget=2
                )
        assert calls == []

    @pytest.mark.parametrize(
        "r_grid, eps_grid, estimates",
        [((), (0.1,), []), ((1.0, 2.0), (), [[], []]), ((), (), [])],
        ids=["empty-r", "empty-eps", "both-empty"],
    )
    def test_profile_of_empty_grid_is_empty(self, r_grid, eps_grid, estimates):
        """An empty r_grid once raised IndexError; either empty grid
        gives an empty profile, flagged monotone."""
        prof = settling_time_profile(
            make_linear_system(-1.0, 1.0), empty_family(), identity(), r_grid, eps_grid, budget=2
        )
        assert prof["estimates"] == prof["saturated"] == estimates
        assert prof["monotone_in_r"] and prof["monotone_in_eps"]


SETTLING_CONFIGS = [
    SettlingConfig(horizon=3.0),
    SettlingConfig(gain=(identity(), identity()), t0_max=1.0, horizon=3.0),
]


@settings(max_examples=20)
@given(
    st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3),
    st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3),
    st.sampled_from([empty_family(), periodic_family(0.5)]),
    st.sampled_from(SETTLING_CONFIGS),
    st.integers(1, 3),
    st.integers(0, 1000),
)
def test_profile_cells_are_single_estimates(r_grid, eps_grid, family, config, budget, seed):
    """Every profile cell is `estimate_settling_time` of its (r, eps),
    bit for bit, though a profile row simulates its trials once."""
    sys1 = make_linear_system(-1.0, 0.5)
    prof = settling_time_profile(
        sys1, family, identity(), r_grid, eps_grid, config, budget, seed
    )
    for i, r in enumerate(r_grid):
        for j, eps in enumerate(eps_grid):
            est = estimate_settling_time(sys1, family, identity(), r, eps, config, budget, seed)
            assert prof["estimates"][i][j] == est.value
            assert prof["saturated"][i][j] == est.saturated


def planar_system():
    return system_from_config(
        {
            "name": "planar",
            "dim_x": 2,
            "dim_u": 2,
            "flow": ["u1 - x1 + 0.5*x2", "u2 - x2"],
            "jump": ["-0.5*x1", "0.3*x1 - 0.6*x2"],
        }
    )


def limit_report_digest() -> str:
    """sha256 over the reports of eps-delta runs (zero and random input,
    budgets 1-3, empty and periodic jumps, a 1-d and a 2-d system with
    linear and nonlinear gains), 3x3 settling profiles and single
    settling estimates."""
    h = hashlib.sha256()

    def put(obj):
        h.update(json.dumps(obj, sort_keys=True).encode())

    systems = (
        (get_example("lin-contract"), (identity(), identity())),
        (planar_system(), (saturating(2.0), power(2.0))),
    )
    cfg = EpsDeltaConfig(alpha_tilde=identity(), T_grid=(2.0, 6.0), horizon=6.0)
    for system, gain in systems:
        for family in (empty_family(), periodic_family(0.5)):
            for input_gain in (gain, None):
                for budget in (1, 2, 3):
                    reps = check_eps_delta_conditions(
                        system, input_gain, family, cfg, budget=budget, seed=budget
                    )
                    put([r.to_dict() for r in reps])
    linear = make_linear_system(-1.0, 1.0)
    configs = (
        SettlingConfig(horizon=6.0),
        SettlingConfig(gain=(identity(), identity()), t0_max=1.0, horizon=6.0),
    )
    for family in (empty_family(), periodic_family(0.5)):
        for config in configs:
            put(
                settling_time_profile(
                    linear, family, identity(), (0.5, 2.0, 10.0), (0.1, 0.5, 1.0),
                    config, budget=3, seed=5,
                )
            )
            e = estimate_settling_time(
                linear, family, identity(), 10.0, 0.1, config, budget=3, seed=5
            )
            put([e.value, e.saturated, e.trials, e.max_strong_time])
    return h.hexdigest()


def test_pinned_limit_report_digest():
    """Every bit of the limit-condition and settling reports is as it was
    when settling simulated each (r, eps) cell on its own and the energy
    cap priced each bisection step from two cumulative sums."""
    assert limit_report_digest() == (
        "b1a515325b740a4c8b3735ba9d665b933ec5de964fa3d1ec1d7d99ad44b02126"
    )


def falsify_report_digest() -> str:
    """sha256 over 30 budget-12 falsify reports (every trial style and
    adversarial variant) and every trajectory they simulated: lin-contract
    against its gain certificate and the derived decay and overshoot
    certificates, double-jump against an unsound decay claim, and a 2-d
    system against an energy bound, each at seeds 0 and 17 under
    periodic, dwell, empty and finite-random jumps."""
    h = hashlib.sha256()
    simulate = certificates.simulate

    def spied(*args, **kwargs):
        traj = simulate(*args, **kwargs)
        u = traj.input_used.u
        for arr in (traj.times, traj.states, traj.jumps, u.breakpoints, u.values):
            h.update(np.ascontiguousarray(arr).tobytes())
        return traj

    gain = lin_contract_iiss_certificate()
    runs = [
        (cert, get_example("lin-contract"), family)
        for cert in (gain, derive_guas_from_iiss(gain), derive_ubebs_from_iiss(gain))
        for family in (periodic_family(0.5), dwell_family(0.3, 1.0), finite_random_family(4, 3.0))
    ]
    runs += [
        (decaying_guas_certificate(3.0, 0.5), get_example("double-jump"), family)
        for family in (periodic_family(0.5), empty_family(), dwell_family(0.3, 1.0))
    ]
    runs += [
        (UbebsCertificate(identity(), identity(), power(2.0), 0.5), planar_system(), family)
        for family in (empty_family(), periodic_family(0.5), finite_random_family(4, 3.0))
    ]
    ranges = SearchRanges(horizon=4.0, step=0.05)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificates, "simulate", spied)
        for cert, system, family in runs:
            for seed in (0, 17):
                rep = falsify(cert, system, family, 12, ranges, seed)
                h.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def test_pinned_falsify_digest():
    """Every bit of these falsify searches, their trial draws included, is
    as it was before the trial draw was written once per style."""
    assert falsify_report_digest() == (
        "4ba204c3a7e61ec5327320b8c0883d7ef5c1c18c4144d259949fab53df79db0c"
    )


LIMIT_TRIAL_SYSTEMS = [
    (get_example("lin-contract"), (identity(), identity())),
    (planar_system(), (saturating(2.0), power(2.0))),
    (make_linear_system(3.0, 4.0), (identity(), identity())),  # leaves the radius
]


@settings(max_examples=80)
@given(
    st.sampled_from(LIMIT_TRIAL_SYSTEMS),
    st.sampled_from([empty_family(), periodic_family(0.5), dwell_family(0.3, 1.0)]),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),  # t0_max; 0.0 takes t0 = 0 undrawn
    st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.0]), st.floats(-2.0, 30.0)),
    st.floats(0.1, 3.0),
    st.floats(0.0, 2.0),
    st.one_of(st.just(1.0), st.floats(0.05, 3.0)),  # eps / r; 1.0 ties |x0| at k = 0
    st.booleans(),
    st.integers(0, 7),
    st.integers(0, 1000),
)
def test_cut_limit_trial_reads_full_horizon_bits(
    system_gain, family, t0_max, T, r, s, eps_over_r, priced, k, seed
):
    """A boundedness trial cut at its strong-time bound T keeps, bit for
    bit, the full-horizon trial's check points with strong time at most
    T, and its energy; a stability trial decided at |x0| > eps has the
    full trial's verdict, and one not decided there is the full trial."""
    system, gain = system_gain
    cfg = SettlingConfig(t0_max=t0_max, horizon=8.0, step=0.05)

    def trial(**cut):
        return _limit_trial(system, family, [seed, k], r, cfg, gain if priced else None, s, **cut)

    norms, sargs, energy = trial()
    cut_norms, cut_sargs, cut_energy = trial(T=T)
    keep, cut_keep = sargs <= T + 1e-12, cut_sargs <= T + 1e-12
    assert cut_norms[cut_keep].tobytes() == norms[keep].tobytes()
    assert cut_sargs[cut_keep].tobytes() == sargs[keep].tobytes()
    assert cut_energy == energy and cut_norms.size <= norms.size
    eps = eps_over_r * r
    x_norms, x_sargs, _ = trial(eps=eps)
    assert (float(np.max(x_norms)) > eps) == (float(np.max(norms)) > eps)
    if x_norms[0] <= eps:
        assert x_norms.tobytes() == norms.tobytes() and x_sargs.tobytes() == sargs.tobytes()
