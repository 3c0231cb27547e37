"""System containers, growth envelopes, and the expression language."""

import math

import numpy as np
import pytest

from impstab.comparison import identity
from impstab.errors import ConfigError, MissingEnvelope
from impstab.library import EXAMPLE_CONFIGS, get_example, make_linear_system
from impstab.systems import (
    ALEnvelope,
    SampleRanges,
    check_al_bound,
    check_al_continuity_at_zero_input,
    check_local_lipschitz_zero_input,
    compile_map,
    compile_scalar_map,
    system_from_config,
)


class TestExpressions:
    def test_basic_flow(self):
        f = compile_map(["u1 - x1", "x1*x2"], dim_x=2, dim_u=1)
        out = f(0.0, (2.0, 3.0), (5.0,))
        assert out == (3.0, 6.0)

    def test_time_dependence(self):
        f = compile_map(["sin(t)*x1"], dim_x=1, dim_u=1)
        assert abs(f(math.pi / 2, (2.0,), (0.0,))[0] - 2.0) < 1e-12

    def test_allowed_functions(self):
        f = compile_scalar_map("sqrt(abs(r)) + log(1 + r) + tanh(r)")
        assert f(0.0) == 0.0
        assert f(4.0) > 2.0

    def test_constants(self):
        f = compile_scalar_map("pi * r")
        assert abs(f(2.0) - 2 * math.pi) < 1e-12

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            compile_map(["y1"], dim_x=1, dim_u=1)

    def test_attribute_access_rejected(self):
        with pytest.raises(ValueError):
            compile_scalar_map("r.__class__")

    def test_call_of_non_whitelisted_rejected(self):
        with pytest.raises(ValueError):
            compile_scalar_map("__import__('os').getcwd()")
        with pytest.raises(ValueError):
            compile_scalar_map("open('/etc/passwd')")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            compile_map(["x1", "x2"], dim_x=1, dim_u=1)


class TestEnvelopeChecks:
    def test_true_envelope_passes(self):
        system = get_example("lin-contract")
        for which in ("flow", "jump"):
            rep = check_al_bound(system, which, samples=600, seed=1)
            assert rep.passed, rep.witness
            assert rep.witness is None

    def test_false_envelope_caught(self):
        system = make_linear_system(-1.0, 0.5)
        shrunk = ALEnvelope(lambda r: 0.05 * r, identity())
        bad = system_from_config(
            {
                "name": "bad-env",
                "dim_x": 1,
                "dim_u": 1,
                "flow": ["u1 - x1"],
                "jump": ["-0.5*x1"],
            }
        )
        object.__setattr__(bad, "al_envelope_f", shrunk)
        rep = check_al_bound(bad, "flow", samples=400, seed=0)
        assert not rep.passed
        w = rep.witness
        assert w["lhs"] > w["rhs"]

    def test_missing_envelope_raises(self):
        bare = system_from_config(
            {"name": "bare", "dim_x": 1, "dim_u": 1, "flow": ["-x1"], "jump": ["0.0"]}
        )
        with pytest.raises(MissingEnvelope):
            bare.envelope("flow")
        with pytest.raises(MissingEnvelope):
            bare.envelope("jump")


class TestContinuity:
    def test_linear_flow_continuous(self):
        system = get_example("lin-contract")
        rep = check_al_continuity_at_zero_input(
            system, "flow", r=5.0, eps=0.1, search_budget=400, seed=2
        )
        assert rep.passed
        assert rep.delta is not None and rep.delta <= 0.1

    def test_jump_discontinuity_flagged(self):
        system = system_from_config(
            {
                "name": "kicked",
                "dim_x": 1,
                "dim_u": 1,
                "flow": ["-x1"],
                # unit kick for any nonzero input, however small
                "jump": ["tanh(1e12*u1*u1)"],
            }
        )
        rep = check_al_continuity_at_zero_input(
            system, "jump", r=2.0, eps=0.5, search_budget=400, seed=3
        )
        assert not rep.passed
        assert rep.witness["deviation"] >= 0.5


class TestLipschitz:
    def test_linear_constant(self):
        system = make_linear_system(-2.0, 0.5)
        best = check_local_lipschitz_zero_input(
            system, "flow", center=[0.0], radius=3.0, samples=500, seed=4
        )
        assert abs(best - 2.0) < 0.05

    def test_sqrt_flow_blows_up_near_zero(self):
        """|x|^(1/2) has unbounded difference quotients near the origin,
        the classic failure of local Lipschitz continuity."""
        system = system_from_config(
            {
                "name": "sqrt-flow",
                "dim_x": 1,
                "dim_u": 1,
                "flow": ["sqrt(abs(x1))"],
                "jump": ["0.0"],
            }
        )
        near = check_local_lipschitz_zero_input(
            system, "flow", center=[0.0], radius=1e-4, samples=800, seed=5
        )
        away = check_local_lipschitz_zero_input(
            system, "flow", center=[10.0], radius=1e-4, samples=800, seed=5
        )
        assert near > 20.0 * away


class TestConfig:
    def test_roundtrip_with_envelopes(self):
        system = get_example("lin-contract")
        assert system.dim_x == 1 and system.dim_u == 1
        assert system.envelope("flow").size_bound(2.0) == 3.0
        # keys the builder does not know, such as an old "linear" record, are ignored
        legacy = {**EXAMPLE_CONFIGS["lin-contract"], "linear": {"a": -1.0, "jump_factor": 0.5}}
        assert system_from_config(legacy).flow(0.0, [2.0], [0.5]) == (-1.5,)

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            system_from_config(
                {"name": "x", "dim_x": 0, "dim_u": 1, "flow": [], "jump": []}
            )
        with pytest.raises(ConfigError):
            compile_map(["-x1"], 1, 0)

    def test_sample_ranges_defaults(self):
        r = SampleRanges()
        assert r.t_max == 100.0 and r.x_max == 10.0 and r.u_max == 10.0
