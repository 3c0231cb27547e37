"""Gauge classes, inversion, and certificate transformations."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impstab.certificates import GuasCertificate
from impstab.comparison import (
    GRID_POINTS,
    ComparisonFn,
    KLFn,
    _beta_at_zero,
    _bisect,
    _probe_grid,
    comparison_from_config,
    eval_array,
    eval_kl_array,
    exp_decay_kl,
    guas_decay_from_iiss,
    identity,
    invert,
    invert_array,
    kl_from_config,
    lift_weak_beta,
    linear,
    log_growth,
    power,
    rational_decay_kl,
    saturating,
    ubebs_alpha_from_iiss,
)
from impstab.errors import ClassViolation, InvalidPhi, NotMonotone, OutOfRange

# root of r + log(1+r) = 3, frozen from an independent root finder
INVERT_ORACLE = 1.9262710624435009


class TestValidation:
    def test_families_pass(self):
        for fn in (identity(), linear(3.0), power(2.0), power(0.5), log_growth()):
            fn.validate()

    def test_saturating_is_k_not_kinf(self):
        saturating(2.0).validate()
        bad = ComparisonFn(lambda r: 2.0 * r / (1.0 + r), declared_class="Kinf")
        with pytest.raises(ClassViolation):
            bad.validate()

    def test_nonzero_at_zero_rejected(self):
        fn = ComparisonFn(lambda r: r + 0.1)
        with pytest.raises(ClassViolation, match="value at 0"):
            fn.validate()

    def test_decreasing_rejected(self):
        fn = ComparisonFn(lambda r: -r)
        with pytest.raises(ClassViolation, match="not strictly increasing"):
            fn.validate()

    def test_flat_region_rejected(self):
        fn = ComparisonFn(lambda r: min(r, 1.0), declared_class="K")
        with pytest.raises(ClassViolation):
            fn.validate()

    def test_kl_families_pass(self):
        exp_decay_kl(2.0, 0.7).validate()
        rational_decay_kl(1.5, 2.0).validate()

    def test_kl_fast_decay_underflow_ok(self):
        # at s ~ 1e4 the values underflow to exactly 0; the validator
        # must not mistake that for a failure of strict increase in r
        exp_decay_kl(1.0, math.log(2.0)).validate()

    def test_kl_increasing_in_s_rejected(self):
        bad = KLFn(lambda r, s: r * (1.0 + s))
        with pytest.raises(ClassViolation, match="nonincreasing"):
            bad.validate()

    def test_kl_no_decay_rejected(self):
        bad = KLFn(lambda r, s: r)
        with pytest.raises(ClassViolation, match="decay"):
            bad.validate()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"kind": "rational-decay", "p": 39},
            {"kind": "power", "p": 2.0, "domain_hint": 1e200},
            {"kind": "power", "p": 1e9},
            {"kind": "linear", "k": 2.0, "domain_hint": 1e300},
        ],
        ids=["rational-p39", "power-hint-1e200", "power-p1e9", "linear-hint-1e300"],
    )
    def test_probe_overflow_is_a_class_violation(self, cfg):
        """A tail probe (1 + 1e8) ** 39 once escaped as a bare OverflowError,
        and with warnings as errors numpy overflow escaped as
        RuntimeWarning; either now names the function."""
        if cfg["kind"] == "rational-decay":
            fn = kl_from_config(cfg)
            kl_from_config(dict(cfg, p=38)).validate()  # just below the overflow
        else:
            fn = comparison_from_config(cfg)
        with pytest.raises(ClassViolation, match=rf"{cfg['kind']}\(.*validation probe"):
            fn.validate()

    def test_repeat_validation_computes_no_grid(self, monkeypatch):
        """The probe grids are computed once per (lo, hi, n): validating a
        second fresh certificate with the same hints calls np.geomspace
        zero times."""
        calls = []
        geomspace = np.geomspace

        def counted(*args, **kwargs):
            calls.append(args)
            return geomspace(*args, **kwargs)

        monkeypatch.setattr(np, "geomspace", counted)

        def certificate():
            beta = KLFn(lambda r, s: 3.0 * r * np.exp(-0.5 * s), r_hint=777.0, s_hint=333.0)
            return GuasCertificate(beta, mode="strong")

        certificate()
        assert calls
        calls.clear()
        certificate()
        assert calls == []

    def test_evaluator_writing_its_argument_leaves_later_grids(self):
        """Each evaluator gets its own copy of a cached grid, so one that
        writes into its argument cannot change what the next validation
        probes, and the array path still runs."""
        scalar_calls = []

        def scribble(r):
            out = 2.0 * r
            if isinstance(r, np.ndarray):
                r[...] = -1.0
            else:
                scalar_calls.append(r)
            return out

        for _ in range(2):
            ComparisonFn(scribble, domain_hint=4321.0).validate()
        assert scalar_calls == [0.0, 0.0]  # the value at zero, once per validation
        assert np.array_equal(
            _probe_grid(1e-9, 4321.0, GRID_POINTS), np.geomspace(1e-9, 4321.0, GRID_POINTS)
        )


class TestInvert:
    def test_frozen_oracle(self):
        fn = ComparisonFn(lambda r: r + math.log1p(r))
        assert abs(invert(fn, 3.0) - INVERT_ORACLE) < 1e-10

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for fn in (identity(), power(2.0), power(0.5), log_growth(3.0)):
            top = 0.9 * float(fn(fn.domain_hint))
            for y in rng.uniform(0.0, min(top, 50.0), 25):
                r = invert(fn, float(y))
                assert abs(fn(r) - y) <= 1e-10 * (1.0 + y)

    def test_tiny_targets_resolved(self):
        # inversion must not quantize small targets, or derived gauges
        # go flat near zero and fail their own class validation
        fn = linear(2.0)
        for y in (1e-18, 3e-18, 1e-14, 1e-9):
            r = invert(fn, y)
            assert abs(2.0 * r - y) <= 1e-12 * y

    def test_zero(self):
        assert invert(power(3.0), 0.0) == 0.0

    def test_out_of_range(self):
        fn = ComparisonFn(lambda r: r, domain_hint=10.0)
        with pytest.raises(OutOfRange):
            invert(fn, 100.0)
        with pytest.raises(OutOfRange):
            invert(fn, -1.0)

    def test_non_monotone_detected(self):
        # nondecreasing with a flat jump: no r satisfies f(r) = 3
        fn = ComparisonFn(lambda r: r if r < 2.0 else 5.0 + r)
        with pytest.raises(NotMonotone):
            invert(fn, 3.0)

    def test_invert_array_matches_scalar(self):
        fn = power(2.0, 3.0)
        ys = np.geomspace(1e-6, 1e4, 40)
        got = invert_array(fn, ys)
        want = np.array([invert(fn, float(y)) for y in ys])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


# every gauge the package builds with a closed-form inverse
STOCK_INVERTIBLE = [
    identity(),
    linear(3.0),
    linear(0.25, domain_hint=1e3),
    power(2.0),
    power(0.5),
    power(3.0, 2.5, domain_hint=50.0),
    log_growth(),
    log_growth(3.0),
    _beta_at_zero(exp_decay_kl(2.0, 0.5)),
    _beta_at_zero(rational_decay_kl(1.5, 2.0)),
]
STOCK_IDS = [fn.name for fn in STOCK_INVERTIBLE]


def bisection_only(fn: ComparisonFn) -> ComparisonFn:
    """The same gauge without its closed form: the bisection oracle."""
    return replace(fn, inverse=None)


def counting(fn: ComparisonFn):
    """fn with an evaluator that records each call."""
    calls = []

    def ev(r):
        calls.append(r)
        return fn.evaluator(r)

    return replace(fn, evaluator=ev), calls


class TestClosedFormInverse:
    """The stock inverses are checked directly: inside `invert` the
    residual guard would send a wrong one to the bisection unseen."""

    @pytest.mark.parametrize("fn", STOCK_INVERTIBLE, ids=STOCK_IDS)
    def test_matches_bisection_oracle(self, fn):
        assert fn.inverse is not None
        top = float(fn(fn.domain_hint))
        ys = np.concatenate(([0.0], np.geomspace(1e-300, top, 400), [top]))
        got = np.asarray(fn.inverse(ys), dtype=float)
        want = invert_array(bisection_only(fn), ys)
        # roots below the normal range are compared in absolute terms
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=np.finfo(float).tiny)
        for y, r in zip(ys[::37], got[::37]):
            # a float takes Python's power, an array numpy's: one ulp apart
            assert float(fn.inverse(float(y))) == pytest.approx(r, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("fn", STOCK_INVERTIBLE, ids=STOCK_IDS)
    def test_no_bisection_runs(self, fn):
        # f(hint), f(0) and one residual check: no bisection step; the
        # top target is within the tolerance of f(hint), so it maps to
        # the hint exactly
        counted, calls = counting(fn)
        ys = np.linspace(0.0, float(fn(fn.domain_hint)), 1000)
        want = np.clip(fn.inverse(ys), 0.0, fn.domain_hint)
        want[-1] = fn.domain_hint
        np.testing.assert_array_equal(invert_array(counted, ys), want)
        assert len(calls) == 3
        del calls[:]
        invert(counted, float(ys[500]))
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "wrong",
        [lambda y: 2.0 * y, lambda y: -1.0 - y, lambda y: np.nan * y, lambda y: 1e300 + y],
        ids=["scaled", "negative", "nan", "huge"],
    )
    def test_wrong_inverse_costs_speed_not_correctness(self, wrong):
        oracle = ComparisonFn(lambda r: r**3 + r, domain_hint=100.0)
        fn = replace(oracle, inverse=wrong)
        ys = np.concatenate(([0.0], np.geomspace(1e-9, float(oracle(100.0)), 60)))
        got = invert_array(fn, ys)
        np.testing.assert_allclose(got, invert_array(oracle, ys), rtol=1e-12, atol=0.0)
        assert np.all(np.abs(oracle(got) - ys) <= 1e-10 * (1.0 + ys))
        for y in ys[::7]:
            assert invert(fn, float(y)) == invert(oracle, float(y))

    def test_range_checks_come_first(self):
        for fn in STOCK_INVERTIBLE:
            top = float(fn(fn.domain_hint))
            for bad in (-1.0, math.inf, math.nan, 2.0 * top + 1.0):
                with pytest.raises(OutOfRange):
                    invert(fn, bad)
                with pytest.raises(OutOfRange):
                    invert_array(fn, np.array([1e-3, bad]))


PROPERTY = settings(max_examples=200, deadline=None)


@PROPERTY
@given(
    st.sampled_from(["identity", "linear", "power", "log-growth", "exp-decay", "rational-decay"]),
    st.floats(0.05, 20.0),
    st.floats(1e-3, 1e3),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
)
def test_stock_inverse_property(kind, p, scale, fractions):
    """For any parameters, the closed form meets the bisection oracle
    anywhere in the reachable range."""
    fn = {
        "identity": lambda: identity(),
        "linear": lambda: linear(scale),
        "power": lambda: power(p, scale, domain_hint=1e3),
        "log-growth": lambda: log_growth(scale),
        "exp-decay": lambda: _beta_at_zero(exp_decay_kl(scale, p)),
        "rational-decay": lambda: _beta_at_zero(rational_decay_kl(scale, p)),
    }[kind]()
    ys = float(fn(fn.domain_hint)) * np.asarray(fractions)
    want = invert_array(bisection_only(fn), ys)
    np.testing.assert_allclose(fn.inverse(ys), want, rtol=1e-12, atol=np.finfo(float).tiny)
    np.testing.assert_allclose(invert_array(fn, ys), want, rtol=1e-12, atol=np.finfo(float).tiny)


class TestComposeInverse:
    def test_eval_array_scalar_fallback(self):
        # an evaluator that rejects arrays still works elementwise
        fn = ComparisonFn(lambda r: math.sqrt(r))
        xs = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(eval_array(fn, xs), [0.0, 1.0, 2.0])

    def test_package_error_from_array_call_is_not_retried(self):
        # the per-element fallback would only raise the same error again
        calls = []

        def out_of_range(*args):
            calls.append(args)
            raise OutOfRange("outside the certified range")

        xs = np.array([1.0, 2.0])
        with pytest.raises(OutOfRange):
            eval_array(ComparisonFn(out_of_range), xs)
        assert len(calls) == 1
        with pytest.raises(OutOfRange):
            eval_kl_array(KLFn(out_of_range), 1.0, xs)
        assert len(calls) == 2


class TestDerivedDecay:
    def test_identity_gauge_is_passthrough(self):
        beta = exp_decay_kl(1.0, 1.0)
        tilde = guas_decay_from_iiss(identity(), beta)
        tilde.validate()
        for r in (0.1, 1.0, 10.0):
            for s in (0.0, 1.0, 5.0):
                want = r * math.exp(-s)
                assert abs(tilde(r, s) - want) <= 1e-9 * (1.0 + want)

    def test_square_gauge(self):
        # alpha(v) = v^2 gives decay sqrt(beta)
        beta = exp_decay_kl(1.0, 1.0)
        tilde = guas_decay_from_iiss(power(2.0), beta)
        for r in (0.5, 2.0):
            for s in (0.0, 2.0):
                want = math.sqrt(r * math.exp(-s))
                assert abs(tilde(r, s) - want) <= 1e-8 * (1.0 + want)

    def test_result_is_kl(self):
        tilde = guas_decay_from_iiss(power(2.0), rational_decay_kl(2.0, 1.0))
        tilde.validate()


class TestOvershootGauge:
    def test_identity_case_halves(self):
        # alpha = id, beta(., 0) = id: the gauge is min(r/2, r/2) = r/2
        psi = ubebs_alpha_from_iiss(identity(), exp_decay_kl(1.0, 1.0))
        psi.validate()
        for r in (0.01, 1.0, 100.0):
            assert abs(psi(r) - r / 2.0) <= 1e-9 * (1.0 + r)

    def test_square_gauge_case(self):
        # alpha(v) = v^2, beta(r, 0) = 2r: min(r^2/4, r^2/2) = r^2/4
        psi = ubebs_alpha_from_iiss(power(2.0), exp_decay_kl(2.0, 1.0))
        psi.validate()
        for r in (0.1, 1.0, 30.0):
            want = r * r / 4.0
            assert abs(psi(r) - want) <= 1e-8 * (1.0 + want)

    def test_out_of_range_past_certified_cap(self):
        psi = ubebs_alpha_from_iiss(identity(), exp_decay_kl(1.0, 1.0))
        with pytest.raises(OutOfRange):
            psi(psi.domain_hint * 1e3)


class TestLift:
    def test_linear_envelope_halves_argument(self):
        # phi(s) = s makes g(v) = v/2 exactly
        beta = exp_decay_kl(1.0, 1.0)
        lifted = lift_weak_beta(beta, lambda s: s)
        for v in (0.5, 2.0, 8.0):
            want = math.exp(-v / 2.0)
            assert abs(lifted(1.0, v) - want) <= 1e-8 * (1.0 + want)

    def test_lift_is_conservative(self):
        # defining inequality: beta(r, s) <= lifted(r, s + phi(s))
        beta = exp_decay_kl(2.0, math.log(2.0))
        phi = lambda s: math.ceil(s)
        lifted = lift_weak_beta(beta, phi)
        for r in np.geomspace(0.01, 100.0, 20):
            for s in np.linspace(0.0, 30.0, 20):
                lhs = beta(float(r), float(s))
                rhs = lifted(float(r), float(s) + phi(float(s)))
                assert lhs <= rhs + 1e-8 * (1.0 + rhs)

    def test_lifted_validates(self):
        lifted = lift_weak_beta(
            exp_decay_kl(2.0, math.log(2.0)), lambda s: math.ceil(s)
        )
        lifted.validate()

    def test_decreasing_envelope_rejected(self):
        with pytest.raises(InvalidPhi):
            lift_weak_beta(exp_decay_kl(1.0, 1.0), lambda s: 1.0 / (1.0 + s))


class TestOneBisection:
    """`invert`, `invert_array` and the lift share `_bisect`."""

    @pytest.mark.parametrize("together", [False, True])
    def test_closed_brackets_make_no_predicate_call(self, together):
        def up(mid, *carry):
            raise AssertionError("predicate called")

        closed = lambda lo, hi: hi - lo <= 1e-10 * (1.0 + hi)  # noqa: E731
        for lo, hi in ((np.zeros(0), np.zeros(0)), (np.ones(3), np.ones(3))):
            got, _ = _bisect(up, lo, hi, closed, np.ones(lo.size), together=together)
            np.testing.assert_array_equal(got, lo)

    def test_all_zero_targets_are_not_bisected(self):
        counted, calls = counting(ComparisonFn(lambda r: r**3 + r, domain_hint=100.0))
        np.testing.assert_array_equal(invert_array(counted, np.zeros(5)), np.zeros(5))
        assert len(calls) == 2  # f(hint) and f(0)

    def test_targets_below_the_envelope_at_zero_ask_nothing(self):
        calls = []

        def phi(s):
            calls.append(s)
            return np.ceil(s) + 1.0

        lifted = lift_weak_beta(KLFn(lambda r, s: s), phi)
        del calls[:]
        np.testing.assert_array_equal(lifted(1.0, np.array([-1.0, 0.0, 0.5, 1.0])), 0.0)
        assert lifted(1.0, 1.0) == 0.0
        assert calls == []

    def test_scalar_invert_is_a_one_element_array(self):
        fn = ComparisonFn(lambda r: r**3 + r, domain_hint=100.0)
        for y in (1e-12, 0.3, 3.0, 1e3, float(fn(100.0))):
            assert invert(fn, y) == float(invert_array(fn, np.array([y]))[0])

    def test_top_target_maps_to_the_hint(self):
        fn = ComparisonFn(lambda r: r**3 + r, domain_hint=100.0)
        top = float(fn(100.0))
        got = invert_array(fn, np.array([1.0, top, top * (1.0 - 1e-12)]))
        assert got[1] == got[2] == 100.0


def comparison_digest() -> str:
    """sha256 over scalar and array inversion of gauges without a closed
    form, lifts over array-capable and scalar-only envelopes, and the
    certified ranges of derived decay bounds and overshoot gauges."""
    h = hashlib.sha256()

    def put(values):
        h.update(np.asarray(values, dtype=float).tobytes())

    no_inverse = (
        saturating(2.0),
        ComparisonFn(lambda r: r + math.log1p(r)),
        ComparisonFn(lambda r: r**3 + r, domain_hint=100.0),
        replace(power(0.5), inverse=None),
        replace(power(3.0, 2.5, domain_hint=50.0), inverse=None),
        replace(log_growth(3.0), inverse=None),
    )
    for fn in no_inverse:
        top = float(fn(fn.domain_hint))
        ys = np.concatenate(([0.0, 1e-300, 1e-18], np.geomspace(1e-12, 0.9 * top, 40)))
        put([invert(fn, float(y)) for y in ys] + [invert(fn, top)])
        put(invert_array(fn, ys))
    read_g = KLFn(lambda r, s: s)
    vs = np.concatenate(([-1e-3, 0.0, 1e-12, 1e-9], np.linspace(0.0, 30.0, 121), [5e5]))
    for phi in (
        math.ceil,
        np.sqrt,
        lambda s: np.ceil(s / 0.7),
        lambda s: np.floor(s / 0.3) + 1.0,
        lambda s: math.ceil(s),
        lambda s: math.sqrt(s),
    ):
        lifted = lift_weak_beta(read_g, phi)
        put(lifted(1.0, vs))
        put([lifted(1.0, float(v)) for v in vs[::9]])
    for alpha, beta in (
        (identity(), exp_decay_kl(1.0, math.log(2.0))),
        (power(2.0), exp_decay_kl(4.0, 0.5)),
        (power(3.0, 2.5, domain_hint=50.0), rational_decay_kl(2.0, 1.0)),
        (log_growth(), exp_decay_kl(1.0, 1.0)),
        (replace(power(2.0), inverse=None), exp_decay_kl(1.0, 1.0)),
        (linear(0.5, domain_hint=10.0), rational_decay_kl(3.0, 2.0)),
    ):
        put(
            [
                guas_decay_from_iiss(alpha, beta).r_hint,
                ubebs_alpha_from_iiss(alpha, beta).domain_hint,
            ]
        )
    return h.hexdigest()


def test_pinned_comparison_digest():
    """Every bit is as it was when scalar inversion and the scalar lift
    had bisection loops of their own."""
    assert comparison_digest() == (
        "4a76eeae490dbb214c5a3f3aa7788fcae9aa90dcd00942593126c962993918c2"
    )


class TestGaugeAlgebra:
    def test_weak_triangle(self):
        # psi(a + b) <= psi(2a) + psi(2b) holds for every gauge because
        # a + b <= 2 max(a, b) and psi is increasing and nonnegative
        rng = np.random.default_rng(11)
        for psi in (identity(), power(2.0), power(0.5), log_growth()):
            for _ in range(100):
                a, b = rng.uniform(0.0, 100.0, 2)
                assert psi(a + b) <= psi(2 * a) + psi(2 * b) + 1e-12
