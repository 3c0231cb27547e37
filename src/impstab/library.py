"""Built-in example systems and reference certificates.

Five small systems exercise the main behaviours: a contracting linear
system with stabilizing jumps, a pure-jump system (no flow motion), a
bilinear system whose input enters multiplicatively, a system whose
jumps double the state against a contracting flow (unstable under fast
jumping), and the frozen system x(t) = x0.
"""

from __future__ import annotations

import math

from .certificates import GuasCertificate, IissCertificate
from .comparison import exp_decay_kl, identity
from .systems import ALEnvelope, ImpulsiveSystem, system_from_config

EXAMPLE_CONFIGS = {
    "lin-contract": {
        "name": "lin-contract",
        "dim_x": 1,
        "dim_u": 1,
        "flow": ["u1 - x1"],
        "jump": ["-0.5*x1"],
        "envelope_f": {"size": "r + 1", "gain": {"kind": "identity"}},
        "envelope_g": {"size": "0.5*r", "gain": {"kind": "identity"}},
    },
    "pure-jump": {
        "name": "pure-jump",
        "dim_x": 1,
        "dim_u": 1,
        "flow": ["0.0"],
        "jump": ["-0.5*x1"],
        "envelope_f": {"size": "0.0", "gain": {"kind": "identity"}},
        "envelope_g": {"size": "0.5*r", "gain": {"kind": "identity"}},
    },
    "bilinear": {
        "name": "bilinear",
        "dim_x": 1,
        "dim_u": 1,
        "flow": ["x1*u1 - x1"],
        "jump": ["-0.5*x1"],
        "envelope_f": {"size": "r", "gain": {"kind": "identity"}},
        "envelope_g": {"size": "0.5*r", "gain": {"kind": "identity"}},
    },
    "double-jump": {
        "name": "double-jump",
        "dim_x": 1,
        "dim_u": 1,
        "flow": ["-x1"],
        "jump": ["x1"],
        "envelope_f": {"size": "r", "gain": {"kind": "identity"}},
        "envelope_g": {"size": "r", "gain": {"kind": "identity"}},
    },
    "zero": {
        "name": "zero",
        "dim_x": 1,
        "dim_u": 1,
        "flow": ["0.0"],
        "jump": ["0.0"],
        "envelope_f": {"size": "0.0", "gain": {"kind": "identity"}},
        "envelope_g": {"size": "0.0", "gain": {"kind": "identity"}},
    },
}


def builtin_examples() -> dict[str, ImpulsiveSystem]:
    """Fresh instances of every built-in example, keyed by name."""
    return {name: system_from_config(cfg) for name, cfg in EXAMPLE_CONFIGS.items()}


def get_example(name: str) -> ImpulsiveSystem:
    try:
        return system_from_config(EXAMPLE_CONFIGS[name])
    except KeyError:
        known = ", ".join(sorted(EXAMPLE_CONFIGS))
        raise KeyError(f"unknown example {name!r}; known: {known}") from None


def make_linear_system(
    a: float, jump_factor: float, name: str | None = None
) -> ImpulsiveSystem:
    """Scalar system dx = a*x + u between jumps, x -> jump_factor * x at jumps.

    Hand-coded maps (no expression layer), used where the closed-form
    solution serves as an oracle.
    """
    aa = float(a)
    jf = float(jump_factor)

    def flow(t, x, u):
        return (aa * x[0] + u[0],)

    def jump(t, x, u):
        return ((jf - 1.0) * x[0],)

    gain = identity()
    return ImpulsiveSystem(
        name=name or f"linear(a={aa:g}, jf={jf:g})",
        dim_x=1,
        dim_u=1,
        flow=flow,
        jump=jump,
        al_envelope_f=ALEnvelope(lambda r: abs(aa) * r + 1.0, gain),
        al_envelope_g=ALEnvelope(lambda r: abs(jf - 1.0) * r, gain),
    )


def lin_contract_iiss_certificate() -> IissCertificate:
    """Valid gain estimate for the lin-contract example.

    Between jumps |x| gains at most exp(-elapsed) on the initial part
    and the input enters through a sub-unit kernel, so identity energy
    gauges cover it; each jump halves the state, and exp(-d) <= 2^(-d)
    lets flow decay and the jump count share one exponent.
    """
    return IissCertificate(
        alpha=identity(),
        beta=exp_decay_kl(amp=1.0, rate=math.log(2.0)),
        rho1=identity(),
        rho2=identity(),
        mode="strong",
    )


def pure_jump_weak_certificate() -> GuasCertificate:
    """Valid elapsed-time decay bound for pure-jump under period-1 jumps.

    Any window of length s on a unit grid holds at least floor(s) jump
    times, and each jump halves the state, so 2 * r * 2^(-s) covers it.
    """
    return GuasCertificate(
        beta=exp_decay_kl(amp=2.0, rate=math.log(2.0)), mode="weak"
    )


def decaying_guas_certificate(
    amp: float = 3.0, rate: float = 0.5, mode: str = "strong"
) -> GuasCertificate:
    """Generic exponential decay claim, mostly used as a falsification target."""
    return GuasCertificate(beta=exp_decay_kl(amp=amp, rate=rate), mode=mode)
