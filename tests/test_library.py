"""Built-in example systems and their reference certificates."""

import math

import numpy as np
import pytest

from impstab.certificates import GuasCertificate, IissCertificate
from impstab.errors import OutOfRange
from impstab.impulses import ImpulseSequence
from impstab.inputs import HybridInput, zero_signal
from impstab.library import (
    EXAMPLE_CONFIGS,
    decaying_guas_certificate,
    get_example,
    lin_contract_iiss_certificate,
    make_linear_system,
    pure_jump_weak_certificate,
)
from impstab.sim import simulate
from impstab.systems import map_source


class TestExamples:
    def test_all_examples_build_and_simulate(self):
        w = HybridInput(zero_signal(), ImpulseSequence.from_times([0.5, 1.0]))
        for name in EXAMPLE_CONFIGS:
            sys1 = get_example(name)
            assert sys1.name == name
            traj = simulate(sys1, 0.0, [1.0] * sys1.dim_x, w, 2.0, 1e-2)
            assert np.all(np.isfinite(traj.states))

    def test_unknown_example_lists_known_names(self):
        with pytest.raises(KeyError) as exc:
            get_example("does-not-exist")
        assert "lin-contract" in str(exc.value)


class TestLinearFactory:
    def test_flow_and_jump_closures(self):
        assert make_linear_system(-1.5, 0.3, name="probe").name == "probe"
        sys1 = make_linear_system(-2.0, 0.25)
        assert sys1.flow(0.0, [3.0], (1.0,)) == (-5.0,)
        # increment form: jump adds (factor - 1) x
        assert sys1.jump(0.0, [4.0], (0.0,)) == (-3.0,)

    def test_maps_compiled_from_exact_reprs(self):
        """The maps are expressions over the arguments' exact reprs, so the
        simulator writes the flow into its fused kernel."""
        sys1 = make_linear_system(-0.1, 1e30)
        assert map_source(sys1.flow).exprs == ("-0.1 * x1 + u1",)
        assert map_source(sys1.jump).exprs == ("1e+30 * x1",)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["a", "jump_factor"])
    def test_nonfinite_arguments_rejected(self, arg, bad):
        """A NaN or infinite coefficient once built a system silently; as an
        expression its repr would read as an unknown name."""
        args = {"a": -1.0, "jump_factor": 0.5, arg: bad}
        with pytest.raises(OutOfRange, match=arg):
            make_linear_system(**args)


class TestReferenceCertificates:
    def test_contract_certificate_shape(self):
        cert = lin_contract_iiss_certificate()
        assert isinstance(cert, IissCertificate)
        assert cert.mode == "strong"
        assert cert.alpha(2.0) == 2.0
        # beta(r, s) = r * 2^{-s}
        assert cert.beta(4.0, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_pure_jump_certificate_shape(self):
        cert = pure_jump_weak_certificate()
        assert isinstance(cert, GuasCertificate)
        assert cert.mode == "weak"
        assert cert.beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)  # 2 * 2^{-1}

    def test_decaying_certificate_validates(self):
        cert = decaying_guas_certificate(2.0, 0.7, "weak")
        assert cert.mode == "weak"
        assert cert.beta(1.0, 0.0) == pytest.approx(2.0)
        cert.beta.validate()
