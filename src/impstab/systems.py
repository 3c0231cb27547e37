"""Impulsive system models and growth-envelope checks.

A system is a flow map and a jump map over (t, x, u), both returning a
state increment-rate or increment of the same dimension as x.  Optional
growth envelopes assert |h(t, x, u)| <= size(|x|) * (1 + gain(|u|)) for
all times, which sampling can refute but never prove; failures found
here are conclusive witnesses.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .comparison import ComparisonFn, comparison_from_config
from .errors import ConfigError, InvalidSystem, MissingEnvelope


@dataclass(frozen=True)
class ALEnvelope:
    """Growth cap for one map: size bound in |x| times (1 + gain in |u|)."""

    size_bound: Callable[[float], float]
    input_gain: ComparisonFn


@dataclass(frozen=True)
class LinearParams:
    """Scalar linear family: flow a*x + u, jump x -> jump_factor * x."""

    a: float
    jump_factor: float


@dataclass(frozen=True)
class ImpulsiveSystem:
    name: str
    dim_x: int
    dim_u: int
    flow: Callable
    jump: Callable
    al_envelope_f: ALEnvelope | None = None
    al_envelope_g: ALEnvelope | None = None
    linear: LinearParams | None = None

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_u < 1:
            raise InvalidSystem("state and input dimensions must be at least 1")

    def envelope(self, which: str) -> ALEnvelope:
        env = self.al_envelope_f if which == "flow" else self.al_envelope_g
        if which not in ("flow", "jump"):
            raise ValueError(f"which must be 'flow' or 'jump', got {which!r}")
        if env is None:
            raise MissingEnvelope(f"system {self.name!r} has no {which} envelope")
        return env


@dataclass(frozen=True)
class SampleRanges:
    t_max: float = 100.0
    x_max: float = 10.0
    u_max: float = 10.0


@dataclass
class EnvelopeReport:
    which: str
    passed: bool
    samples: int
    worst_margin: float
    witness: dict | None = None
    note: str = "passing is sampling evidence; a failure is a conclusive witness"


def _ball_point(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    vec = rng.standard_normal(dim)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return np.zeros(dim)
    return vec * (radius * rng.uniform() ** (1.0 / dim) / norm)


def _map_of(system: ImpulsiveSystem, which: str) -> Callable:
    return system.flow if which == "flow" else system.jump


def check_al_bound(
    system: ImpulsiveSystem,
    which: str,
    samples: int = 2000,
    ranges: SampleRanges = SampleRanges(),
    seed: int = 0,
) -> EnvelopeReport:
    """Sample (t, x, u) and compare |h| against the declared envelope."""
    env = system.envelope(which)
    h = _map_of(system, which)
    rng = np.random.default_rng(seed)
    worst = -math.inf
    witness = None
    for k in range(samples):
        t = float(rng.uniform(0.0, ranges.t_max))
        x = _ball_point(rng, system.dim_x, ranges.x_max)
        u = _ball_point(rng, system.dim_u, ranges.u_max)
        if k % 16 == 0:
            # corners stress the bound hardest
            x = x * 0 + ranges.x_max / math.sqrt(system.dim_x)
            u = u * 0 + ranges.u_max / math.sqrt(system.dim_u)
        val = np.asarray(h(t, x.tolist(), u.tolist()), dtype=float)
        lhs = float(np.linalg.norm(val))
        rhs = float(env.size_bound(float(np.linalg.norm(x)))) * (
            1.0 + float(env.input_gain(float(np.linalg.norm(u))))
        )
        margin = lhs - rhs
        if margin > worst:
            worst = margin
            witness = {"t": t, "x": x.tolist(), "u": u.tolist(), "lhs": lhs, "rhs": rhs}
    tol = 1e-9 * (1.0 + abs(worst))
    passed = worst <= tol
    return EnvelopeReport(
        which=which,
        passed=passed,
        samples=samples,
        worst_margin=worst,
        witness=None if passed else witness,
    )


@dataclass
class ContinuityReport:
    passed: bool
    delta: float | None
    eps: float
    r: float
    samples: int
    witness: dict | None = None
    deviations: dict | None = None


def check_al_continuity_at_zero_input(
    system: ImpulsiveSystem,
    which: str,
    r: float,
    eps: float,
    search_budget: int = 2000,
    ranges: SampleRanges = SampleRanges(),
    seed: int = 0,
) -> ContinuityReport:
    """Search for a delta certifying |h(t,x,u) - h(t,x,0)| < eps on |x| <= r.

    Delta levels halve from min(1, u_max); the first level where every
    sampled deviation stays below eps is returned.  Exhausting all
    levels is evidence of a discontinuity at u = 0 and the worst sample
    of the last level is reported.
    """
    h = _map_of(system, which)
    levels = 20
    per_level = max(8, search_budget // levels)
    delta = min(1.0, ranges.u_max)
    rng = np.random.default_rng(seed)
    deviations = {}
    witness = None
    total = 0
    for _ in range(levels):
        worst = 0.0
        witness = None
        for _k in range(per_level):
            t = float(rng.uniform(0.0, ranges.t_max))
            x = _ball_point(rng, system.dim_x, r)
            u = _ball_point(rng, system.dim_u, delta)
            total += 1
            base = np.asarray(h(t, x.tolist(), [0.0] * system.dim_u), dtype=float)
            pert = np.asarray(h(t, x.tolist(), u.tolist()), dtype=float)
            dev = float(np.linalg.norm(pert - base))
            if dev > worst:
                worst = dev
                witness = {"t": t, "x": x.tolist(), "u": u.tolist(), "deviation": dev}
        deviations[delta] = worst
        if worst < eps:
            return ContinuityReport(
                passed=True,
                delta=delta,
                eps=eps,
                r=r,
                samples=total,
                deviations=deviations,
            )
        delta *= 0.5
    return ContinuityReport(
        passed=False,
        delta=None,
        eps=eps,
        r=r,
        samples=total,
        witness=witness,
        deviations=deviations,
    )


def check_local_lipschitz_zero_input(
    system: ImpulsiveSystem,
    which: str,
    center,
    radius: float,
    samples: int = 2000,
    t_max: float = 100.0,
    seed: int = 0,
) -> float:
    """Largest sampled difference quotient of h(t, ., 0) on a ball."""
    h = _map_of(system, which)
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape != (system.dim_x,):
        raise InvalidSystem("center must match the state dimension")
    rng = np.random.default_rng(seed)
    zero_u = [0.0] * system.dim_u
    best = 0.0
    for _ in range(samples):
        t = float(rng.uniform(0.0, t_max))
        x1 = c + _ball_point(rng, system.dim_x, radius)
        x2 = c + _ball_point(rng, system.dim_x, radius)
        gap = float(np.linalg.norm(x1 - x2))
        if gap < 1e-12:
            continue
        v1 = np.asarray(h(t, x1.tolist(), zero_u), dtype=float)
        v2 = np.asarray(h(t, x2.tolist(), zero_u), dtype=float)
        quot = float(np.linalg.norm(v1 - v2)) / gap
        if quot > best:
            best = quot
    return best


# ---------------------------------------------------------------------------
# Expression language for config-defined systems.

_ALLOWED_FUNCS = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "abs": abs,
    "min": min,
    "max": max,
    "sqrt": math.sqrt,
    "log": math.log,
    "tanh": math.tanh,
}

_ALLOWED_CONSTS = {"pi": math.pi, "e": math.e}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Call,
    ast.Name,
    ast.Load,
    ast.Constant,
)


def _validate_expr(expr: str, names: set[str]) -> ast.Expression:
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {expr!r}: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(
                f"expression {expr!r} uses a disallowed construct "
                f"({type(node).__name__})"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ConfigError(f"expression {expr!r} calls a disallowed function")
            if node.keywords:
                raise ConfigError("keyword arguments are not supported in expressions")
        if isinstance(node, ast.Name):
            if node.id not in names and node.id not in _ALLOWED_FUNCS and node.id not in _ALLOWED_CONSTS:
                raise ConfigError(f"expression {expr!r} references unknown name {node.id!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ConfigError(f"expression {expr!r} uses a non-numeric constant")
    return tree


def compile_map(exprs: list[str], dim_x: int, dim_u: int) -> Callable:
    """Compile component expressions over t, x1..xn, u1..um to a map."""
    if dim_x < 1 or dim_u < 1:
        raise ConfigError(f"state and input dimensions must be >= 1, got {dim_x}, {dim_u}")
    xs = [f"x{i + 1}" for i in range(dim_x)]
    us = [f"u{j + 1}" for j in range(dim_u)]
    names = {"t", *xs, *us}
    if len(exprs) != dim_x:
        raise ConfigError(f"expected {dim_x} component expressions, got {len(exprs)}")
    for expr in exprs:
        _validate_expr(expr, names)
    # One frame per call: the generated map unpacks x and u itself.  The
    # expressions are validated above and its globals are the whitelist with
    # an empty __builtins__, so no builtin is reachable from it.
    body = f"{', '.join(xs)}, = x\n {', '.join(us)}, = u\n return ({', '.join(exprs)},)"
    env = _sandbox()
    exec(f"def _map(t, x, u):\n {body}", env)
    return env["_map"]


def _sandbox() -> dict:
    return {"__builtins__": {}, **_ALLOWED_FUNCS, **_ALLOWED_CONSTS}


def compile_scalar_map(expr: str, var: str = "r") -> Callable[[float], float]:
    """Compile a one-variable expression, e.g. an envelope size bound."""
    _validate_expr(expr, {var})
    return eval(f"lambda {var}: ({expr})", _sandbox())


def _envelope_from_config(cfg: dict | None) -> ALEnvelope | None:
    if cfg is None:
        return None
    return ALEnvelope(
        size_bound=compile_scalar_map(str(cfg["size"]), "r"),
        input_gain=comparison_from_config(cfg["gain"]),
    )


def system_from_config(cfg: dict) -> ImpulsiveSystem:
    """Build a system from component expressions.

    Expected keys: name, dim_x, dim_u, flow (list of expressions), jump
    (list of expressions), optional envelope_f / envelope_g with a size
    expression in r and a gain config, optional linear {a, jump_factor}.
    """
    try:
        dim_x = int(cfg["dim_x"])
        dim_u = int(cfg["dim_u"])
        flow_exprs = list(cfg["flow"])
        jump_exprs = list(cfg["jump"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"system config missing required keys: {exc}") from exc
    linear = None
    if cfg.get("linear") is not None:
        linear = LinearParams(
            a=float(cfg["linear"]["a"]),
            jump_factor=float(cfg["linear"]["jump_factor"]),
        )
    return ImpulsiveSystem(
        name=str(cfg.get("name", "from-config")),
        dim_x=dim_x,
        dim_u=dim_u,
        flow=compile_map(flow_exprs, dim_x, dim_u),
        jump=compile_map(jump_exprs, dim_x, dim_u),
        al_envelope_f=_envelope_from_config(cfg.get("envelope_f")),
        al_envelope_g=_envelope_from_config(cfg.get("envelope_g")),
        linear=linear,
    )
