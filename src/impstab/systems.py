"""Impulsive system models and the expression language that builds them.

A system is a flow map and a jump map over (t, x, u), both returning a
state increment-rate or increment of the same dimension as x.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, InvalidSystem
from .impulses import _count


@dataclass(frozen=True)
class ImpulsiveSystem:
    name: str
    dim_x: int
    dim_u: int
    flow: Callable
    jump: Callable

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_u < 1:
            raise InvalidSystem("state and input dimensions must be at least 1")
        for which, h in (("flow", self.flow), ("jump", self.jump)):
            src = map_source(h)
            if src is not None and (src.dim_x, src.dim_u) != (self.dim_x, self.dim_u):
                raise InvalidSystem(
                    f"{which} map of system {self.name!r} was compiled for "
                    f"dim_x={src.dim_x}, dim_u={src.dim_u}; the system has "
                    f"dim_x={self.dim_x}, dim_u={self.dim_u}"
                )


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


@dataclass(frozen=True)
class MapSource:
    """The validated component expressions of a map built by `compile_map`,
    over t, x1..x{dim_x} and u1..u{dim_u}."""

    exprs: tuple[str, ...]
    dim_x: int
    dim_u: int


def map_source(h: Callable) -> MapSource | None:
    """The expressions `compile_map` attached to h, or None for any other map."""
    src = getattr(h, "source", None)
    return src if isinstance(src, MapSource) else None


# The largest dim_x or dim_u a compiled map takes: every name x1..xn and
# u1..um is written out, so a huge dimension would only exhaust memory.
MAX_DIM = 1000


def compile_map(exprs: list[str], dim_x: int, dim_u: int) -> Callable:
    """Compile component expressions over t, x1..xn, u1..um to a map.

    The map carries its expressions as `source` (see `map_source`), from
    which the simulator writes them into its RK4 kernel.  ConfigError
    naming dim_x or dim_u unless it is an integer in 1..MAX_DIM, before
    any name is built.
    """
    dim_x, dim_u = _count("dim_x", dim_x, 1, MAX_DIM), _count("dim_u", dim_u, 1, MAX_DIM)
    if len(exprs) != dim_x:
        raise ConfigError(f"expected {dim_x} component expressions, got {len(exprs)}")
    xs = [f"x{i + 1}" for i in range(dim_x)]
    us = [f"u{j + 1}" for j in range(dim_u)]
    names = {"t", *xs, *us}
    for expr in exprs:
        _validate_expr(expr, names)
    # One frame per call: the generated map unpacks x and u itself.  The
    # expressions are validated above and its globals are the whitelist with
    # an empty __builtins__, so no builtin is reachable from it.
    body = f"{', '.join(xs)}, = x\n {', '.join(us)}, = u\n return ({', '.join(exprs)},)"
    env = sandbox()
    exec(f"def _map(t, x, u):\n {body}", env)
    env["_map"].source = MapSource(tuple(exprs), dim_x, dim_u)
    return env["_map"]


def sandbox() -> dict:
    """Globals for evaluating validated expressions: the whitelist only."""
    return {"__builtins__": {}, **_ALLOWED_FUNCS, **_ALLOWED_CONSTS}


def _config_expressions(cfg: dict, key: str) -> list[str]:
    v = cfg[key]
    # list() of a bare string would split it into one-character expressions
    if not isinstance(v, (list, tuple)) or not all(isinstance(e, str) for e in v):
        raise ConfigError(f"system config {key!r} must be a list of expression strings, got {v!r}")
    return list(v)


def system_from_config(cfg: dict) -> ImpulsiveSystem:
    """Build a system from component expressions.

    Expected keys: name, dim_x and dim_u (integers in 1..MAX_DIM), flow
    and jump (lists of expression strings).  Other keys are ignored.
    """
    try:
        dim_x = _count("dim_x", cfg["dim_x"], 1, MAX_DIM)
        dim_u = _count("dim_u", cfg["dim_u"], 1, MAX_DIM)
        flow_exprs = _config_expressions(cfg, "flow")
        jump_exprs = _config_expressions(cfg, "jump")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"system config missing required keys: {exc}") from exc
    return ImpulsiveSystem(
        name=str(cfg.get("name", "from-config")),
        dim_x=dim_x,
        dim_u=dim_u,
        flow=compile_map(flow_exprs, dim_x, dim_u),
        jump=compile_map(jump_exprs, dim_x, dim_u),
    )
