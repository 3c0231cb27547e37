"""System containers, config-built systems, and the expression language."""

import math

import pytest

from impstab.errors import ConfigError
from impstab.library import EXAMPLE_CONFIGS, get_example
from impstab.systems import MAX_DIM, compile_map, system_from_config


class TestExpressions:
    def test_basic_flow(self):
        f = compile_map(["u1 - x1", "x1*x2"], dim_x=2, dim_u=1)
        out = f(0.0, (2.0, 3.0), (5.0,))
        assert out == (3.0, 6.0)

    def test_time_dependence(self):
        f = compile_map(["sin(t)*x1"], dim_x=1, dim_u=1)
        assert abs(f(math.pi / 2, (2.0,), (0.0,))[0] - 2.0) < 1e-12

    def test_allowed_functions(self):
        f = compile_map(["sqrt(abs(x1)) + log(1 + x1) + tanh(x1)"], dim_x=1, dim_u=1)
        assert f(0.0, (0.0,), (0.0,)) == (0.0,)
        assert f(0.0, (4.0,), (0.0,))[0] > 2.0

    def test_constants(self):
        f = compile_map(["pi * x1"], dim_x=1, dim_u=1)
        assert abs(f(0.0, (2.0,), (0.0,))[0] - 2 * math.pi) < 1e-12

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            compile_map(["y1"], dim_x=1, dim_u=1)

    def test_attribute_access_rejected(self):
        with pytest.raises(ConfigError):
            compile_map(["x1.__class__"], dim_x=1, dim_u=1)

    def test_call_of_non_whitelisted_rejected(self):
        with pytest.raises(ConfigError):
            compile_map(["__import__('os').getcwd()"], dim_x=1, dim_u=1)
        with pytest.raises(ConfigError):
            compile_map(["open('/etc/passwd')"], dim_x=1, dim_u=1)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            compile_map(["x1", "x2"], dim_x=1, dim_u=1)


class TestConfig:
    def test_roundtrip_with_envelopes(self):
        system = get_example("lin-contract")
        assert system.dim_x == 1 and system.dim_u == 1
        # keys system_from_config does not know, such as an old "linear" record or
        # the growth envelopes configs once carried, are ignored
        legacy = {
            **EXAMPLE_CONFIGS["lin-contract"],
            "linear": {"a": -1.0, "jump_factor": 0.5},
            "envelope_f": {"size": "r + 1", "gain": {"kind": "identity"}},
            "envelope_g": {"size": "0.5*r", "gain": {"kind": "identity"}},
        }
        assert system_from_config(legacy).flow(0.0, [2.0], [0.5]) == (-1.5,)

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            system_from_config(
                {"name": "x", "dim_x": 0, "dim_u": 1, "flow": [], "jump": []}
            )
        with pytest.raises(ConfigError):
            compile_map(["-x1"], 1, 0)

    @pytest.mark.parametrize("key", ["dim_x", "dim_u"])
    def test_huge_dimension_rejected_before_names_are_built(self, key):
        """compile_map writes out every name x1..xn and u1..um: a dim_u of
        1e5 once took about 110 MB, and 1e9 allocated until memory ran out."""
        dims = {"dim_x": 1, "dim_u": 1, key: 10**9}
        with pytest.raises(ConfigError, match=repr(key)):
            compile_map(["-x1"], **dims)
        with pytest.raises(ConfigError, match=repr(key)):
            system_from_config({**EXAMPLE_CONFIGS["lin-contract"], **dims})
        compile_map(["-x1"] * MAX_DIM, MAX_DIM, MAX_DIM)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dim_x", 1.9),
            ("dim_x", True),
            ("dim_x", "abc"),
            ("dim_x", "1"),
            ("dim_x", math.nan),
            ("dim_x", math.inf),
            ("dim_x", None),
            ("dim_u", 0.5),
            ("dim_u", False),
            ("flow", "u1-x1"),
            ("flow", [1.0]),
            ("jump", "0.0"),
            ("jump", None),
        ],
    )
    def test_hostile_values_name_their_key(self, key, value):
        """A bool or non-integral dimension, and a flow or jump that is not a
        list of strings, raise ConfigError naming the key: int() would
        truncate 1.9, read True as 1 and fail bare on "abc", and list()
        would split a string into one-character expressions."""
        cfg = {**EXAMPLE_CONFIGS["lin-contract"], key: value}
        with pytest.raises(ConfigError, match=repr(key)):
            system_from_config(cfg)

    def test_integral_float_dimension_accepted(self):
        system = system_from_config({**EXAMPLE_CONFIGS["lin-contract"], "dim_x": 1.0})
        assert system.dim_x == 1 and isinstance(system.dim_x, int)
