"""Batch runner for certificate checks described by a JSON scenario.

A scenario names a system, an impulse-time family, a master seed, and a
list of checks (single-trajectory checks or falsification searches).
Running one produces a deterministic report.json plus per-check CSV
artifacts in an output directory; the exit code is 2 when any check is
violated, 3 when none is violated but some are inconclusive, else 0.

Output directory precedence: explicit argument, then the scenario's
own "out_dir", then the IMPSTAB_OUT_DIR environment variable, then
"impstab-out" under the working directory.  report.json contains no
timestamps so reruns with the same seed are byte-identical; run
metadata lives in meta.json next to it.
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import datetime, timezone

import numpy as np

from .certificates import (
    _CERT_KIND,
    GuasCertificate,
    SearchRanges,
    _sides,
    certificate_from_config,
    check_certificate,
    falsify,
)
from .comparison import eval_array, invert_array
from .errors import ConfigError
from .impulses import ImpulseSequence, _arg, _count, family_from_config
from .inputs import HybridInput, _numbers, signal_from_config
from .library import EXAMPLE_CONFIGS, get_example
from .sim import Trajectory, simulate
from .systems import ImpulsiveSystem, system_from_config

DEFAULT_OUT_DIR = "impstab-out"


def _atomic_write(path: str, text: str) -> None:
    """Write text to path whole or not at all: through a temp file in the
    same directory and `os.replace`, with no newline translation.  On any
    error the temp file is removed and path keeps its old contents."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj, path: str) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_scenario(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load scenario {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("scenario file must contain a JSON object")
    return data


def resolve_out_dir(explicit: str | None, scenario: dict) -> str:
    return (
        explicit
        or scenario.get("out_dir")
        or os.environ.get("IMPSTAB_OUT_DIR")
        or DEFAULT_OUT_DIR
    )


def _resolve_system(ref) -> ImpulsiveSystem:
    if isinstance(ref, str):
        if ref not in EXAMPLE_CONFIGS:
            raise ConfigError(
                f"unknown system {ref!r}; built-ins: {', '.join(sorted(EXAMPLE_CONFIGS))}"
            )
        return get_example(ref)
    if isinstance(ref, dict):
        return system_from_config(ref)
    raise ConfigError("system must be a built-in name or a config object")


def _bound_series(cert, traj: Trajectory) -> np.ndarray:
    """Certificate right side converted to a bound on |x| at the samples."""
    _, _, rhs, side = _sides(cert, traj)
    y = rhs[side == 1]
    if isinstance(cert, GuasCertificate):
        return y
    # saturate at the gauge's certified range so inversion stays defined
    cap = float(eval_array(cert.alpha, np.array([cert.alpha.domain_hint]))[0])
    return invert_array(cert.alpha, np.minimum(y, cap))


def _write_plot_csv(path: str, traj: Trajectory, bounds: np.ndarray) -> None:
    """Write ``t,state_norm,bound`` rows, one per sample, as ``repr`` of
    the Python floats with ``"\\n"`` row ends, atomically."""
    lines = ["t,state_norm,bound"]
    for row in zip(traj.times.tolist(), traj.norms().tolist(), bounds.tolist()):
        lines.append(",".join(map(repr, row)))
    _atomic_write(path, "\n".join(lines) + "\n")


def _search_ranges(cfg) -> SearchRanges:
    """SearchRanges from a check's "ranges" object, each value read by
    `_arg`; ConfigError naming an unknown key or a value that is not a
    finite number."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"ranges must be a mapping, got {cfg!r}")
    try:
        return SearchRanges(**{key: _arg(cfg, key, None) for key in cfg})
    except (TypeError, ConfigError) as exc:  # an unknown key, or a bad value
        raise ConfigError(f"bad ranges {cfg!r}: {exc}") from None


def _run_one(chk: dict, system: ImpulsiveSystem, family, seed: int):
    kind = chk.get("kind")
    if "certificate" not in chk:
        raise ConfigError("every check needs a certificate")
    cert = certificate_from_config(chk["certificate"])
    check_seed = _arg(chk, "seed", seed, _count)
    known = tuple(f"{op}-{ck}" for op in ("falsify", "check") for ck in ("guas", "ubebs", "iiss"))
    if kind not in known:
        raise ConfigError(f"unknown check kind {kind!r}; expected one of {known}")
    op, want = kind.split("-", 1)
    have = _CERT_KIND[type(cert)]
    if have != want:
        raise ConfigError(f"check kind {kind!r} got a {have} certificate")

    if op == "falsify":
        ranges = _search_ranges(chk.get("ranges") or {})
        budget = _arg(chk, "budget", 200, _count, 1)
        rep = falsify(cert, system, family, budget, ranges, check_seed)
        traj = rep.witness.trajectory(system) if rep.witness is not None else None
        return rep, traj, cert

    t0, horizon, step = _arg(chk, "t0", 0.0), _arg(chk, "horizon", 10.0), _arg(chk, "step", 1e-2)
    x0 = _numbers("x0", chk.get("x0", [1.0] * system.dim_x))
    if "sigma_times" in chk:
        sigma = ImpulseSequence.from_times(_numbers("sigma_times", chk["sigma_times"]))
    else:
        sigma = family.sampler(check_seed, t0 + horizon + 1.0)
    w = HybridInput(signal_from_config(chk.get("input"), system.dim_u), sigma)
    traj = simulate(system, t0, x0, w, t0 + horizon, step, strict=False)
    return check_certificate(cert, traj), traj, cert


def run_scenario(scenario, out_dir: str | None = None) -> dict:
    """Run every check; write report.json and artifacts; return a summary.

    The summary holds the exit code, the report object, and the output
    directory actually used.
    """
    if isinstance(scenario, (str, os.PathLike)):
        scenario = load_scenario(scenario)
    name = str(scenario.get("name", "scenario"))
    seed = _arg(scenario, "seed", 0, _count)
    system = _resolve_system(scenario.get("system"))
    family = family_from_config(scenario.get("family", {"name": "empty"}))
    out = resolve_out_dir(out_dir, scenario)
    os.makedirs(out, exist_ok=True)

    entries = []
    any_violated = False
    any_inconclusive = False
    checks = scenario.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError(f"scenario 'checks' must be a list, got {checks!r}")
    for idx, chk in enumerate(checks):
        if not isinstance(chk, dict):
            raise ConfigError(f"check {idx} must be a mapping, got {chk!r}")
        cid = str(chk.get("id", f"check{idx}"))
        rep, traj, cert = _run_one(chk, system, family, seed)
        if rep.verdict == "violated":
            any_violated = True
        elif rep.verdict != "pass":
            any_inconclusive = True
        entry = {"id": cid, "kind": chk["kind"], "report": rep.to_dict()}
        if traj is not None:
            traj_name = f"{cid}-trajectory.csv"
            plot_name = f"{cid}-plot.csv"
            _atomic_write(os.path.join(out, traj_name), traj.csv_text())
            _write_plot_csv(os.path.join(out, plot_name), traj, _bound_series(cert, traj))
            entry["trajectory_csv"] = traj_name
            entry["plot_csv"] = plot_name
        entries.append(entry)

    exit_code = 2 if any_violated else (3 if any_inconclusive else 0)
    report = {
        "scenario": name,
        "seed": seed,
        "system": system.name,
        "family": family.description,
        "checks": entries,
        "exit_code": exit_code,
    }
    _dump_json(report, os.path.join(out, "report.json"))
    _dump_json(
        {"created": datetime.now(timezone.utc).isoformat(), "scenario": name},
        os.path.join(out, "meta.json"),
    )
    return {"exit_code": exit_code, "report": report, "out_dir": out}
