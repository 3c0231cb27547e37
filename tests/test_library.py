"""Built-in example systems and their reference certificates."""

import numpy as np
import pytest

from impstab.certificates import GuasCertificate, IissCertificate
from impstab.impulses import ImpulseSequence
from impstab.inputs import HybridInput, zero_signal
from impstab.library import (
    EXAMPLE_CONFIGS,
    builtin_examples,
    decaying_guas_certificate,
    get_example,
    lin_contract_iiss_certificate,
    make_linear_system,
    pure_jump_weak_certificate,
)
from impstab.sim import simulate
from impstab.systems import check_al_bound


class TestExamples:
    def test_all_examples_build_and_simulate(self):
        names = builtin_examples()
        assert set(names) == set(EXAMPLE_CONFIGS)
        w = HybridInput(zero_signal(), ImpulseSequence.from_times([0.5, 1.0]))
        for name in names:
            sys1 = get_example(name)
            assert sys1.name == name
            traj = simulate(sys1, 0.0, [1.0] * sys1.dim_x, w, 2.0, 1e-2)
            assert np.all(np.isfinite(traj.states))

    def test_unknown_example_lists_known_names(self):
        with pytest.raises(KeyError) as exc:
            get_example("does-not-exist")
        assert "lin-contract" in str(exc.value)

    def test_declared_envelopes_hold(self):
        for name in ("lin-contract", "pure-jump", "bilinear"):
            sys1 = get_example(name)
            for which in ("flow", "jump"):
                rep = check_al_bound(sys1, which, samples=300, seed=1)
                assert rep.passed, f"{name}/{which}: {rep.witness}"


class TestLinearFactory:
    def test_flow_and_jump_closures(self):
        sys1 = make_linear_system(-2.0, 0.25)
        assert sys1.flow(0.0, [3.0], (1.0,)) == (-5.0,)
        # increment form: jump adds (factor - 1) x
        assert sys1.jump(0.0, [4.0], (0.0,)) == (-3.0,)

    def test_factory_envelopes_hold(self):
        sys1 = make_linear_system(-1.5, 0.3, name="probe")
        assert sys1.name == "probe"
        for which in ("flow", "jump"):
            assert check_al_bound(sys1, which, samples=200, seed=0).passed


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
