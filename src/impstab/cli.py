"""Command line interface.

Exit codes mirror the scenario runner: 0 for pass, 2 when a check is
violated, 3 when nothing was violated but a result is inconclusive,
1 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

import numpy as np

from .certificates import (
    EpsDeltaConfig,
    SearchRanges,
    certificate_from_config,
    check_certificate,
    check_eps_delta_conditions,
    falsify,
)
from .comparison import comparison_from_config, identity
from .errors import ImpstabError
from .gronwall import GronwallData, gronwall_bound
from .impulses import ImpulseSequence, family_from_config
from .inputs import HybridInput, signal_from_config, zero_signal
from .library import EXAMPLE_CONFIGS
from .scenarios import load_scenario, run_scenario
from .sim import simulate
from .systems import system_from_config

VERDICT_EXIT = {"pass": 0, "violated": 2, "inconclusive": 3}


def _load_json_arg(text: str):
    """Accept inline JSON or a path to a JSON file."""
    s = text.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    with open(text) as fh:
        return json.load(fh)


def _system_from_arg(text: str):
    if text in EXAMPLE_CONFIGS:
        return system_from_config(EXAMPLE_CONFIGS[text])
    return system_from_config(_load_json_arg(text))


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _sigma_from_args(args, horizon: float) -> ImpulseSequence:
    if getattr(args, "sigma", None):
        return ImpulseSequence.from_times(np.asarray(_floats(args.sigma)))
    if getattr(args, "family", None):
        family = family_from_config(_load_json_arg(args.family))
        return family.sampler(args.seed, horizon + 1.0)
    return ImpulseSequence.from_times(())


def _input_from_args(args, dim_u: int):
    if getattr(args, "input", None):
        return signal_from_config(_load_json_arg(args.input), dim_u)
    return zero_signal(dim_u)


def _add_sim_args(sub, default_horizon: float = 10.0):
    sub.add_argument("--system", required=True, help="built-in name or system config (JSON/file)")
    sub.add_argument("--t0", type=float, default=0.0)
    sub.add_argument("--x0", default="1.0", help="comma-separated initial state")
    sub.add_argument("--horizon", type=float, default=default_horizon, help="duration past t0")
    sub.add_argument("--step", type=float, default=1e-2)
    sub.add_argument("--sigma", help="comma-separated jump times")
    sub.add_argument("--family", help="impulse family config (JSON/file)")
    sub.add_argument("--input", help="input signal config (JSON/file)")
    sub.add_argument("--seed", type=int, default=0)


def _trajectory_from_args(args):
    system = _system_from_arg(args.system)
    x0 = np.asarray(_floats(args.x0))
    end = args.t0 + args.horizon
    sigma = _sigma_from_args(args, end)
    w = HybridInput(_input_from_args(args, system.dim_u), sigma)
    return simulate(system, args.t0, x0, w, end, args.step, strict=False)


def _cmd_simulate(args) -> int:
    traj = _trajectory_from_args(args)
    if args.out:
        traj.to_csv(args.out)
        print(f"wrote {len(traj.times)} samples to {args.out}")
    final = ", ".join(f"{v:.6g}" for v in traj.states[-1])
    print(f"status: {traj.status}")
    print(f"t = {traj.end_time:.6g}, x = [{final}], jumps applied: {len(traj.jumps)}")
    return 0


def _cmd_check(args) -> int:
    cert = certificate_from_config(_load_json_arg(args.certificate))
    rep = check_certificate(cert, _trajectory_from_args(args))
    print(f"{rep.kind}: {rep.verdict} (worst margin {rep.worst_margin:.3e}, {rep.samples} samples)")
    if rep.witness is not None:
        wit = rep.witness
        print(f"first violation at t = {wit.t:.6g} ({wit.side} side): lhs {wit.lhs:.6g} > rhs {wit.rhs:.6g}")
    return VERDICT_EXIT[rep.verdict]


def _cmd_falsify(args) -> int:
    system = _system_from_arg(args.system)
    cert = certificate_from_config(_load_json_arg(args.certificate))
    family = family_from_config(_load_json_arg(args.family))
    ranges = SearchRanges(
        t0_max=args.t0_max,
        x0_max=args.x0_max,
        u_amp_max=args.u_amp_max,
        horizon=args.horizon,
        step=args.step,
    )
    rep = falsify(cert, system, family, args.budget, ranges, args.seed)
    print(f"{rep.kind}: {rep.verdict} after {rep.trials} trials (worst margin {rep.worst_margin:.3e})")
    if rep.witness is not None:
        wit = rep.witness
        print(f"witness: trial {wit.trial}, t = {wit.t:.6g} ({wit.side}), margin {wit.margin:.3e}")
        if args.witness_out:
            with open(args.witness_out, "w") as fh:
                json.dump(wit.to_dict(), fh, indent=2, sort_keys=True)
            print(f"wrote witness to {args.witness_out}")
    return VERDICT_EXIT[rep.verdict]


def _cmd_gronwall(args) -> int:
    sigma = _sigma_from_args(args, args.t)
    data = GronwallData(p=args.p, q1=args.q1, q2=args.q2, sigma=sigma, t0=args.t0)
    print(f"{gronwall_bound(data, args.t)!r}")
    return 0


def _cmd_eps_delta(args) -> int:
    system = _system_from_arg(args.system)
    family = family_from_config(_load_json_arg(args.family))
    gain = (identity(), identity())
    if args.rho1:
        gain = (comparison_from_config(_load_json_arg(args.rho1)), gain[1])
    if args.rho2:
        gain = (gain[0], comparison_from_config(_load_json_arg(args.rho2)))
    alpha = (
        comparison_from_config(_load_json_arg(args.alpha)) if args.alpha else identity()
    )
    cfg = EpsDeltaConfig(
        alpha_tilde=alpha,
        horizon=args.horizon,
        step=args.step,
        zero_input=args.zero_input,
    )
    reports = check_eps_delta_conditions(system, gain, family, cfg, args.budget, args.seed)
    worst = 0
    for rep in reports:
        print(f"{rep.kind}: {rep.verdict} ({rep.trials} trials)")
        worst = max(worst, VERDICT_EXIT[rep.verdict])
    return worst


def _cmd_examples(args) -> int:
    if args.action == "list":
        for name in sorted(EXAMPLE_CONFIGS):
            cfg = EXAMPLE_CONFIGS[name]
            print(f"{name}: dim_x={cfg['dim_x']}, flow={cfg['flow']}, jump={cfg['jump']}")
        return 0
    if args.name is None:
        print("export needs an example name", file=sys.stderr)
        return 1
    if args.name not in EXAMPLE_CONFIGS:
        print(f"unknown example {args.name!r}", file=sys.stderr)
        return 1
    text = json.dumps(EXAMPLE_CONFIGS[args.name], indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_run(args) -> int:
    if args.bundled:
        ref = resources.files("impstab").joinpath("data", args.scenario + ".json")
        scenario = json.loads(ref.read_text())
    else:
        scenario = load_scenario(args.scenario)
    result = run_scenario(scenario, args.out_dir)
    report = result["report"]
    for entry in report["checks"]:
        rep = entry["report"]
        print(f"{entry['id']} ({entry['kind']}): {rep['verdict']}")
    print(f"report written to {result['out_dir']}/report.json")
    return result["exit_code"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impstab",
        description="simulate impulsive systems and check stability certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one trajectory")
    _add_sim_args(p)
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check", help="check a certificate along one trajectory")
    _add_sim_args(p)
    p.add_argument("--certificate", required=True, help="certificate config (JSON/file)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("falsify", help="search for a certificate violation")
    p.add_argument("--system", required=True)
    p.add_argument("--certificate", required=True)
    p.add_argument("--family", required=True, help="impulse family config (JSON/file)")
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t0-max", type=float, default=2.0)
    p.add_argument("--x0-max", type=float, default=5.0)
    p.add_argument("--u-amp-max", type=float, default=2.0)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--step", type=float, default=1e-2)
    p.add_argument("--witness-out", help="path for the witness JSON")
    p.set_defaults(func=_cmd_falsify)

    p = sub.add_parser("gronwall", help="evaluate the jump-aware growth bound")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q1", type=float, required=True)
    p.add_argument("--q2", type=float, required=True)
    p.add_argument("--sigma", help="comma-separated jump times")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_gronwall)

    p = sub.add_parser("eps-delta", help="sample the three limit conditions")
    p.add_argument("--system", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--alpha", help="gauge config for the convergence scan")
    p.add_argument("--rho1", help="flow energy gauge config")
    p.add_argument("--rho2", help="jump energy gauge config")
    p.add_argument("--budget", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=float, default=12.0)
    p.add_argument("--step", type=float, default=1e-2)
    p.add_argument("--zero-input", action="store_true")
    p.set_defaults(func=_cmd_eps_delta)

    p = sub.add_parser("examples", help="list or export built-in systems")
    p.add_argument("action", choices=["list", "export"])
    p.add_argument("name", nargs="?")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("run", help="run a scenario file")
    p.add_argument("scenario", help="path, or bundled name with --bundled")
    p.add_argument("--bundled", action="store_true", help="load a packaged scenario by name")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ImpstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
