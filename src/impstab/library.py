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
from .errors import OutOfRange
from .systems import ImpulsiveSystem, compile_map, system_from_config

EXAMPLE_CONFIGS = {
    "lin-contract": {
        "name": "lin-contract",
        "dim_x": 1,
        "dim_u": 1,
        "flow": ["u1 - x1"],
        "jump": ["-0.5*x1"],
    },
    "pure-jump": {
        "name": "pure-jump",
        "dim_x": 1,
        "dim_u": 1,
        "flow": ["0.0"],
        "jump": ["-0.5*x1"],
    },
    "bilinear": {
        "name": "bilinear",
        "dim_x": 1,
        "dim_u": 1,
        "flow": ["x1*u1 - x1"],
        "jump": ["-0.5*x1"],
    },
    "double-jump": {
        "name": "double-jump",
        "dim_x": 1,
        "dim_u": 1,
        "flow": ["-x1"],
        "jump": ["x1"],
    },
    "zero": {
        "name": "zero",
        "dim_x": 1,
        "dim_u": 1,
        "flow": ["0.0"],
        "jump": ["0.0"],
    },
}


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

    Its maps are built by `compile_map` from the exact reprs of a and
    jump_factor - 1, so the simulator writes the flow into its fused
    kernel; the closed-form solution serves as an oracle for it.
    OutOfRange naming the argument when a or jump_factor is not finite.
    """
    aa = float(a)
    jf = float(jump_factor)
    for arg, v in (("a", aa), ("jump_factor", jf)):
        if not math.isfinite(v):
            raise OutOfRange(f"make_linear_system: {arg} must be finite, got {v!r}")
    return ImpulsiveSystem(
        name=name or f"linear(a={aa:g}, jf={jf:g})",
        dim_x=1,
        dim_u=1,
        flow=compile_map([f"{aa!r} * x1 + u1"], 1, 1),
        jump=compile_map([f"{jf - 1.0!r} * x1"], 1, 1),
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
