"""The four benchmark workloads.

Each workload is a closed loop on one thread: ``setup`` builds the
systems, families and certificates once, and ``run_round`` makes one
round of calls, each starting after the previous one returned.  A round
records per-call times, counts the operations it attempted and failed,
keeps each call's outcome (so a traced round can be compared with an
untraced one), and runs the correctness checks of ``checks`` on what it
got, outside the timed calls.  Every input derives from the workload
seed and the round index.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from importlib import resources
from time import perf_counter
from typing import Callable

import numpy as np

import impstab
import checks

OUT_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_out")


@dataclass
class Recorder:
    times: dict = field(default_factory=dict)  # metric -> list of values
    attempted: int = 0
    failed: int = 0
    outcomes: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def time(self, metric: str, value: float) -> None:
        self.times.setdefault(metric, []).append(value)

    def call(self, ops: int, fn: Callable, *args, **kwargs):
        """Run one timed call worth ``ops`` operations; None if it raised."""
        self.attempted += ops
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            # one failed call must not end the run; it is counted instead
            traceback.print_exc()
            self.failed += ops
            return None, 0.0
        return out, perf_counter() - start


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict]
    run_round: Callable[[dict, int, int, Recorder], None]
    finish: Callable[[dict, int, Recorder], None]
    kinds: dict  # operation kind, timed per call -> unit
    trace_rounds_per_s: float  # rounds of the traced run per requested second


def _round_seed(seed: int, k: int) -> int:
    return seed * 10_000 + k


# ---------------------------------------------------------------------------
# falsify-sound: the acceptance suite's soundness search, full budget.

FALSIFY_BUDGET = 12  # every trial style and adversarial variant, once each
FALSIFY_PERIOD = 0.5


def falsify_setup(seed: int) -> dict:
    base = impstab.lin_contract_iiss_certificate()
    return {
        "system": impstab.get_example("lin-contract"),
        "family": impstab.periodic_family(FALSIFY_PERIOD),
        "gain": base,
        "decay": impstab.derive_guas_from_iiss(base),
        "overshoot": impstab.derive_ubebs_from_iiss(base),
    }


def falsify_round(st: dict, seed: int, k: int, rec: Recorder) -> None:
    ranges = impstab.SearchRanges()
    for label in ("gain", "decay", "overshoot"):
        rep, took = rec.call(
            FALSIFY_BUDGET,
            impstab.falsify,
            st[label],
            st["system"],
            st["family"],
            budget=FALSIFY_BUDGET,
            seed=_round_seed(seed, k),
        )
        if rep is None:
            continue
        rec.time(f"falsify_{label}_ms_per_trial", 1e3 * took / FALSIFY_BUDGET)
        rec.outcomes.append((label, rep.verdict, rep.trials, rep.worst_margin))
        rec.problems += checks.falsify_report_failures(label, rep, FALSIFY_BUDGET)
        if label != "overshoot":
            rec.problems += checks.margin_failures(label, rep.worst_margin, ranges.x0_max)


def falsify_finish(st: dict, seed: int, rec: Recorder) -> None:
    """Spot-check the simulator behind the search against a closed form."""
    rng = np.random.default_rng([seed, 909])
    for _ in range(6):
        t0 = float(rng.uniform(0.0, 2.0))
        x0 = float(rng.uniform(-5.0, 5.0))
        bps = np.sort(rng.uniform(t0, t0 + 10.0, 4))
        vals = rng.uniform(-2.0, 2.0, 4)
        w = impstab.HybridInput(
            impstab.InputSignal(bps, vals[:, None]), st["family"].sampler(0, t0 + 11.0)
        )
        traj = impstab.simulate(st["system"], t0, [x0], w, t0 + 10.0, 1e-2)
        rec.problems += checks.closed_form_mismatches(traj, t0, x0, bps, vals, FALSIFY_PERIOD)


FALSIFY = Workload(
    falsify_setup,
    falsify_round,
    falsify_finish,
    {
        "falsify_gain_ms_per_trial": "ms",
        "falsify_decay_ms_per_trial": "ms",
        "falsify_overshoot_ms_per_trial": "ms",
    },
    trace_rounds_per_s=1.5,
)


# ---------------------------------------------------------------------------
# limit-conditions: the three sampled limit conditions, and settling.

EPS_DELTA_BUDGET = 1
SETTLING_BUDGET = 4
SETTLING_R = (1.0, 10.0)
SETTLING_EPS = (0.1, 1.0)


def limit_setup(seed: int) -> dict:
    gauge = impstab.identity()
    return {
        "system": impstab.get_example("lin-contract"),
        "family": impstab.periodic_family(0.5),
        "gain": (impstab.identity(), impstab.identity()),
        "config": impstab.EpsDeltaConfig(alpha_tilde=gauge),
        "linear": impstab.make_linear_system(-1.0, 1.0),
        "empty": impstab.empty_family(),
        "alpha": gauge,
    }


def limit_round(st: dict, seed: int, k: int, rec: Recorder) -> None:
    s = _round_seed(seed, k)
    reps, took = rec.call(
        1,
        impstab.check_eps_delta_conditions,
        st["system"],
        st["gain"],
        st["family"],
        st["config"],
        budget=EPS_DELTA_BUDGET,
        seed=s,
    )
    if reps is not None:
        rec.time("eps_delta_s", took)
        rec.outcomes.append(tuple((r.verdict, r.worst_margin, r.details) for r in reps))
        rec.problems += checks.limit_condition_failures(reps, st["config"].step)
    prof, took = rec.call(
        1,
        impstab.settling_time_profile,
        st["linear"],
        st["empty"],
        st["alpha"],
        SETTLING_R,
        SETTLING_EPS,
        budget=SETTLING_BUDGET,
        seed=s,
    )
    if prof is not None:
        rec.time("settling_s", took)
        rec.outcomes.append(prof["estimates"])
        rec.problems += checks.settling_failures(prof, impstab.SettlingConfig().step)


LIMIT = Workload(
    limit_setup,
    limit_round,
    lambda st, seed, rec: None,
    {"eps_delta_s": "s", "settling_s": "s"},
    trace_rounds_per_s=1.0,
)


# ---------------------------------------------------------------------------
# weak-lift: an elapsed-time certificate and its strong-time lift.

WEAK_PER_ROUND = 10
WEAK_HORIZON = 10.0
WEAK_STEP = 1e-2


def weak_setup(seed: int) -> dict:
    weak = impstab.pure_jump_weak_certificate()
    return {
        "system": impstab.get_example("pure-jump"),
        "family": impstab.periodic_family(1.0),
        "weak": weak,
        "lifted": impstab.derive_strong_from_weak(weak, math.ceil),
        "zero": impstab.zero_signal(),
    }


def weak_round(st: dict, seed: int, k: int, rec: Recorder) -> None:
    for i in range(WEAK_PER_ROUND):
        rng = np.random.default_rng([seed, k, i])
        t0 = float(rng.uniform(0.0, 2.0))
        x0 = float(rng.uniform(-5.0, 5.0))
        w = impstab.HybridInput(st["zero"], st["family"].sampler(i, t0 + WEAK_HORIZON))

        def simulate_and_check():
            traj = impstab.simulate(st["system"], t0, [x0], w, t0 + WEAK_HORIZON, WEAK_STEP)
            return traj, impstab.check_guas(st["weak"], traj)

        got, took = rec.call(1, simulate_and_check)
        if got is None:
            continue
        traj, weak = got
        # the same operation: attempted once above, failed if this part fails
        lifted, took_lift = rec.call(0, impstab.check_guas, st["lifted"], traj)
        if lifted is None:
            rec.failed += 1
            continue
        rec.time("weak_ms_per_traj", 1e3 * took)
        rec.time("lifted_check_ms_per_traj", 1e3 * took_lift)
        rec.outcomes.append((weak.verdict, weak.worst_margin, lifted.verdict, lifted.worst_margin))
        for label, rep in (("weak", weak), ("lifted", lifted)):
            if rep.verdict != "pass":
                rec.problems.append(f"{label} check from t0={t0!r}, x0={x0!r}: {rep.verdict}")
        rec.problems += checks.pure_jump_mismatches(traj)


WEAK = Workload(
    weak_setup,
    weak_round,
    lambda st, seed, rec: None,
    {"weak_ms_per_traj": "ms", "lifted_check_ms_per_traj": "ms"},
    trace_rounds_per_s=3.5,
)


# ---------------------------------------------------------------------------
# scenarios: both bundled scenarios, end to end with their files.

SCENARIOS = (
    ("lin_contract_iiss", "scenario_iiss_s", 1.0, 0),
    ("double_jump_falsify", "scenario_refute_ms", 1e3, 2),
)


def scenario_setup(seed: int) -> dict:
    st = {}
    for name, *_ in SCENARIOS:
        text = resources.files("impstab").joinpath("data", name + ".json").read_text()
        scenario = json.loads(text)
        scenario["seed"] = seed
        st[name] = scenario
    return st


def scenario_round(st: dict, seed: int, k: int, rec: Recorder) -> None:
    os.makedirs(OUT_ROOT, exist_ok=True)
    for name, metric, scale, want_exit in SCENARIOS:
        out_dir = tempfile.mkdtemp(prefix=name + "-", dir=OUT_ROOT)
        try:
            res, took = rec.call(1, impstab.run_scenario, st[name], out_dir)
            if res is None:
                continue
            with open(os.path.join(out_dir, "report.json"), "rb") as fh:
                report = fh.read()
        finally:
            shutil.rmtree(out_dir)
        rec.time(metric, scale * took)
        rec.outcomes.append((name, res["exit_code"], report))
        if res["exit_code"] != want_exit:
            rec.problems.append(f"{name}: exit code {res['exit_code']}, want {want_exit}")
        first = st.setdefault(name + ":report", report)
        if report != first:
            rec.problems.append(f"{name}: report.json differs between runs of seed {seed}")


def scenario_finish(st: dict, seed: int, rec: Recorder) -> None:
    """Replay the refutation's witness and compare it with a closed form."""
    report = json.loads(st["double_jump_falsify:report"])
    check = report["checks"][0]
    wit = check["report"]["witness"]
    scenario = st["double_jump_falsify"]
    cert = impstab.certificate_from_config(scenario["checks"][0]["certificate"])
    replay = impstab.replay_witness(
        impstab.Witness.from_dict(wit), cert, impstab.get_example(scenario["system"])
    )
    gap = replay.get("margin_gap")
    if gap is None or not gap <= 1e-9:
        rec.problems.append(f"double_jump_falsify: witness replay gap {gap!r} > 1e-9")
    rec.problems += checks.double_jump_witness_failures(wit, scenario["family"]["period"])


SCENARIO = Workload(
    scenario_setup,
    scenario_round,
    scenario_finish,
    {"scenario_iiss_s": "s", "scenario_refute_ms": "ms"},
    trace_rounds_per_s=0.35,
)


WORKLOADS = {
    "falsify-sound": FALSIFY,
    "limit-conditions": LIMIT,
    "weak-lift": WEAK,
    "scenarios": SCENARIO,
}
