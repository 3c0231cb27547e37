"""Every config loader, and a scenario's spot-check fields, fed any JSON
value at any key, builds or raises a package error: never a bare
TypeError, KeyError or ValueError."""

import copy
import math
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from impstab.certificates import certificate_from_config
from impstab.comparison import comparison_from_config, kl_from_config
from impstab.errors import ImpstabError
from impstab.impulses import family_from_config
from impstab.inputs import signal_from_config
from impstab.library import EXAMPLE_CONFIGS
from impstab.scenarios import run_scenario
from impstab.systems import system_from_config

IDENTITY = {"kind": "identity"}

# one valid base config per loader and shape
BASES = [
    (system_from_config, EXAMPLE_CONFIGS["lin-contract"]),
    (family_from_config, {"name": "periodic", "period": 0.5}),
    (family_from_config, {"name": "finite-random", "count": 3, "spread": 2.0}),
    (
        signal_from_config,
        {"preset": "decaying-burst", "amplitude": 1.0, "ratio": 0.5, "period": 1.0,
         "width": 0.5, "count": 3, "start": 0.0, "dim": 1},
    ),
    (signal_from_config, {"preset": "constant", "value": [1.0], "start": 0.0}),
    (signal_from_config, {"breakpoints": [0.0, 1.0], "values": [[1.0], [0.0]]}),
    (comparison_from_config, {"kind": "linear", "k": 2.0, "domain_hint": 1e3}),
    (comparison_from_config, {"kind": "power", "p": 2.0, "scale": 1.0, "domain_hint": 1e3}),
    (comparison_from_config, {"kind": "log-growth", "scale": 1.0}),
    (kl_from_config, {"kind": "rational-decay", "amp": 1.0, "p": 2.0}),
    (kl_from_config, {"kind": "exp-decay", "amp": 1.0, "rate": 0.5}),
    (certificate_from_config, {"kind": "guas", "beta": {"kind": "exp-decay"}, "mode": "weak"}),
    (
        certificate_from_config,
        {"kind": "ubebs", "alpha": IDENTITY, "rho1": IDENTITY, "rho2": IDENTITY, "c": 0.5},
    ),
    (
        certificate_from_config,
        {"kind": "iiss", "alpha": IDENTITY, "beta": {"kind": "exp-decay"},
         "rho1": IDENTITY, "rho2": {"kind": "linear", "k": 2.0}, "mode": "strong"},
    ),
]

# keys that size an allocation: drawn only from bounded numbers, so the
# property never asks for a huge array (the loaders bound them too)
SIZE_KEYS = {"count", "dim", "dim_x", "dim_u"}

STRINGS = st.sampled_from(["0.5", "3", "-1", "1e300", "nan", "inf", "", "abc", "zero", "x1"])
EXTREMES = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324])
NAMES = st.sampled_from(["identity", "linear", "exp-decay", "periodic", "constant", "guas"])


def json_values(numbers):
    leaves = st.one_of(st.none(), st.booleans(), numbers, STRINGS, st.text(max_size=3))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.text(max_size=3), inner, max_size=2),
            st.builds(lambda name: {"kind": name, "name": name}, NAMES),
        ),
        max_leaves=6,
    )


ANY_JSON = json_values(st.one_of(st.integers(-3, 3), st.floats(-10.0, 10.0), EXTREMES))
BOUNDED_JSON = json_values(st.one_of(st.integers(-3, 8), st.floats(-3.0, 8.0)))


@settings(max_examples=600)
@given(st.data())
def test_every_loader_builds_or_raises_a_package_error(data):
    """{"kind": "linear", "k": null} once raised a bare TypeError, a
    certificate that is a list an AttributeError and a pulse train with
    period 1e300 InputSignal's ValueError."""
    load, base = data.draw(st.sampled_from(BASES), label="base")
    key = data.draw(st.sampled_from([None, *base, "unknown"]), label="key")
    if key is None:
        cfg = data.draw(ANY_JSON, label="config")
    else:
        value = data.draw(BOUNDED_JSON if key in SIZE_KEYS else ANY_JSON, label="value")
        cfg = dict(copy.deepcopy(base), **{key: value})
    try:
        load(cfg)
    except ImpstabError:
        pass


# a spot check on a one-unit window of ten steps with one jump; the
# property sets one of its fields (or the whole check) to a drawn value
SPOT_CHECK = {
    "kind": "check-guas",
    "t0": 0.0,
    "horizon": 1.0,
    "step": 0.1,
    "x0": [1.0],
    "sigma_times": [0.5],
    "seed": 0,
    "certificate": {"kind": "guas", "beta": {"kind": "exp-decay", "amp": 2.0}},
}
# horizon and step only from values that give at most 200 steps from any
# drawn t0, or that the grid refuses before allocating (1e300 and up
# steps, a step that is not positive or finite), so no long run is drawn
GRID_NUMBERS = st.sampled_from(
    [0.0, -0.0, 0.05, 0.1, 0.5, 1.0, 2.0, 10.0, -1.0, 1e300, 1e-300, 5e-324, math.nan,
     math.inf, -math.inf]
)
GRID_JSON = json_values(GRID_NUMBERS)


@settings(max_examples=300)
@given(st.data())
def test_spot_check_fields_build_or_raise_a_package_error(data):
    """"x0": [[1]] once raised a bare TypeError from simulate, "sigma_times"
    [2, 1] or [[1]] ImpulseSequence's ValueError, and "step" 1e-300 a
    bare ValueError after an int64 cast overflowed."""
    key = data.draw(
        st.sampled_from([None, "t0", "horizon", "step", "x0", "sigma_times", "seed", "unknown"]),
        label="key",
    )
    if key is None:
        check = data.draw(ANY_JSON, label="check")
    else:
        value = data.draw(GRID_JSON if key in ("horizon", "step") else ANY_JSON, label="value")
        check = dict(copy.deepcopy(SPOT_CHECK), **{key: value})
    with tempfile.TemporaryDirectory() as out:
        try:
            run_scenario({"system": "lin-contract", "checks": [check]}, out)
        except ImpstabError:
            pass
