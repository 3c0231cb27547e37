"""In-memory span tracing of impstab's layers, installed from outside.

The tracer replaces public functions and class attributes of the
package with wrappers that record a span (name, start, end, parent,
operation, trial) around each call, plus counters read from the call's
arguments and results.  The flow and jump maps are called thousands of
times per trial, so they are not spans: their count and time are added
to counters and to the enclosing span, which keeps the self times of
the other layers exact.  Nothing under ``src/`` is edited; ``uninstall``
restores every replaced attribute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from collections import Counter
from time import perf_counter

import impstab
from impstab import certificates, comparison, impulses, inputs, scenarios, sim

# span names, one layer each
SIM = "sim.simulate"
CHECK = "certificates.check"
SEARCH = "certificates.search"
PROFILE = "inputs.profile_build"
QUERY = "inputs.energy_query"
INVERT = "comparison.invert"
KL = "comparison.kl_eval"
MATERIALIZE = "impulses.materialize"
SCENARIO = "scenarios.run"
WRITE = "scenarios.write"

# every per-layer metric the traced run reports, with its unit
PER_LAYER = {
    "sim.calls": "count",
    "sim.steps": "count",
    "sim.self_s": "s",
    "sim.steps_per_s": "1/s",
    "systems.flow_calls": "count",
    "systems.jump_calls": "count",
    "systems.map_s": "s",
    "inputs.profiles_built": "count",
    "inputs.profile_build_s": "s",
    "inputs.energy_points": "count",
    "inputs.energy_query_s": "s",
    "comparison.invert_calls": "count",
    "comparison.invert_targets": "count",
    "comparison.invert_s": "s",
    "comparison.kl_points": "count",
    "comparison.kl_eval_s": "s",
    "impulses.sequences_sampled": "count",
    "impulses.materialize_calls": "count",
    "impulses.cache_lookups": "count",
    "impulses.generator_calls": "count",
    "impulses.cache_hit_ratio": "ratio",
    "impulses.materialize_s": "s",
    "certificates.trials": "count",
    "certificates.checks": "count",
    "certificates.check_points": "count",
    "certificates.check_self_s": "s",
    "certificates.trial_self_s": "s",
    "scenarios.runs": "count",
    "scenarios.self_s": "s",
    "scenarios.files_written": "count",
    "scenarios.bytes_written": "B",
    "scenarios.write_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, op, trial, leaf_s]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.trial = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; ``after(counts, args, result)`` adds counters."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, self.trial, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, out)
            return out

        return wrapper

    def leaf(self, name, fn):
        """Count and time a hot map without a span of its own."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(t, x, u):
            start = perf_counter()
            out = fn(t, x, u)
            took = perf_counter() - start
            counts[name] += 1
            counts["systems.map_s"] += took
            if stack:
                spans[stack[-1]][6] += took
            return out

        return wrapper

    def system(self, system):
        return dataclasses.replace(
            system,
            flow=self.leaf("systems.flow_calls", system.flow),
            jump=self.leaf("systems.jump_calls", system.jump),
        )

    def family(self, family):
        counts = self.counts
        sampler = family.sampler

        def sample(seed, horizon):
            counts["impulses.sequences_sampled"] += 1
            return sampler(seed, horizon)

        return dataclasses.replace(family, sampler=sample)

    def instrument(self, state: dict) -> dict:
        """Copy of a workload state with its systems and families traced."""
        out = {}
        for key, val in state.items():
            if isinstance(val, impstab.ImpulsiveSystem):
                val = self.system(val)
            elif isinstance(val, impstab.ImpulseFamily):
                val = self.family(val)
            out[key] = val
        return out

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every impstab module name bound to original at replacement."""
        for modname, mod in list(sys.modules.items()):
            if modname != "impstab" and not modname.startswith("impstab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _set(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        counts = self.counts

        def after_sim(c, args, traj):
            c["sim.steps"] += len(traj.times) - 1
            c["sim.jumps_returned"] += len(traj.jumps)

        orig_sim = self.span(SIM, sim.simulate, after_sim)

        def simulate(*args, **kwargs):
            self.trial += 1  # falsify simulates once per trial
            return orig_sim(*args, **kwargs)

        self._rebind(sim.simulate, simulate)

        def after_check(c, args, rep):
            traj = args[1]
            c["certificates.check_points"] += rep.samples
            c["trace.checked_samples_plus_jumps"] += len(traj.times) + len(traj.jumps)

        for fn in (certificates.check_guas, certificates.check_ubebs, certificates.check_iiss):
            self._rebind(fn, self.span(CHECK, fn, after_check))
        for fn in (
            certificates.falsify,
            certificates.check_eps_delta_conditions,
            certificates.estimate_settling_time,
            certificates.settling_time_profile,
        ):
            self._rebind(fn, self.span(SEARCH, fn))

        def after_invert(c, args, out):
            c["comparison.invert_targets"] += out.size

        def after_kl(c, args, out):
            c["comparison.kl_points"] += out.size

        self._rebind(comparison.invert_array, self.span(INVERT, comparison.invert_array, after_invert))
        self._rebind(comparison.eval_kl_array, self.span(KL, comparison.eval_kl_array, after_kl))

        def after_query(c, args, out):
            c["inputs.energy_points"] += out.size

        profile = inputs.EnergyProfile
        self._set(profile, "__init__", self.span(PROFILE, profile.__init__))
        self._set(profile, "at", self.span(QUERY, profile.at, after_query))
        self._set(profile, "before_jump", self.span(QUERY, profile.before_jump, after_query))

        seq = impulses.ImpulseSequence

        def after_materialize(c, args, out):
            if not args[0].is_finite:
                c["impulses.cache_lookups"] += 1

        self._set(seq, "materialize", self.span(MATERIALIZE, seq.materialize, after_materialize))
        from_generator = seq.__dict__["from_generator"].__func__

        def counted_from_generator(cls, generator, *args, **kwargs):
            def gen(horizon):
                counts["impulses.generator_calls"] += 1
                return generator(horizon)

            return from_generator(cls, gen, *args, **kwargs)

        self._set(seq, "from_generator", classmethod(counted_from_generator))

        # systems and families that a scenario builds from its own config
        system_from_config = impstab.system_from_config
        family_from_config = impstab.family_from_config
        self._rebind(system_from_config, lambda cfg: self.system(system_from_config(cfg)))
        self._rebind(family_from_config, lambda cfg: self.family(family_from_config(cfg)))

        self._rebind(scenarios.run_scenario, self.span(SCENARIO, scenarios.run_scenario))

        def after_write(c, args, out):
            path = args[1] if isinstance(args[0], sim.Trajectory) else args[0]
            c["scenarios.files_written"] += 1
            c["scenarios.bytes_written"] += os.path.getsize(path)

        self._set(sim.Trajectory, "to_csv", self.span(WRITE, sim.Trajectory.to_csv, after_write))
        # report.json, meta.json and the plot CSVs all go through this one
        # private helper; it is the only place their writes can be timed
        self._rebind(scenarios._atomic_write, self.span(WRITE, scenarios._atomic_write, after_write))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_table(self, overhead_s: float) -> dict:
        """Per-layer metrics derived from the spans and counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        trials = 0
        for i, (name, start, end, parent, _op, _trial, leaf_s) in enumerate(spans):
            calls[name] += 1
            incl_s[name] += end - start
            self_s[name] += (end - start) - child[i] - leaf_s
            if name == SIM and self._under(i, SEARCH):
                trials += 1
        c = self.counts
        lookups = c["impulses.cache_lookups"]
        return {
            "sim.calls": calls[SIM],
            "sim.steps": c["sim.steps"],
            "sim.self_s": self_s[SIM],
            "sim.steps_per_s": c["sim.steps"] / incl_s[SIM] if incl_s[SIM] else 0.0,
            "systems.flow_calls": c["systems.flow_calls"],
            "systems.jump_calls": c["systems.jump_calls"],
            "systems.map_s": c["systems.map_s"],
            "inputs.profiles_built": calls[PROFILE],
            "inputs.profile_build_s": self_s[PROFILE],
            "inputs.energy_points": c["inputs.energy_points"],
            "inputs.energy_query_s": self_s[QUERY],
            "comparison.invert_calls": calls[INVERT],
            "comparison.invert_targets": c["comparison.invert_targets"],
            "comparison.invert_s": self_s[INVERT],
            "comparison.kl_points": c["comparison.kl_points"],
            "comparison.kl_eval_s": self_s[KL],
            "impulses.sequences_sampled": c["impulses.sequences_sampled"],
            "impulses.materialize_calls": calls[MATERIALIZE],
            "impulses.cache_lookups": lookups,
            "impulses.generator_calls": c["impulses.generator_calls"],
            "impulses.cache_hit_ratio": (
                (lookups - c["impulses.generator_calls"]) / lookups if lookups else 0.0
            ),
            "impulses.materialize_s": self_s[MATERIALIZE],
            "certificates.trials": trials,
            "certificates.checks": calls[CHECK],
            "certificates.check_points": c["certificates.check_points"],
            "certificates.check_self_s": self_s[CHECK],
            "certificates.trial_self_s": self_s[SEARCH],
            "scenarios.runs": calls[SCENARIO],
            "scenarios.self_s": self_s[SCENARIO],
            "scenarios.files_written": c["scenarios.files_written"],
            "scenarios.bytes_written": c["scenarios.bytes_written"],
            "scenarios.write_s": self_s[WRITE],
            "trace.overhead_s": overhead_s,
        }

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def total_mismatches(self) -> list[str]:
        """Totals reached by two independent paths must agree exactly."""
        c = self.counts
        out = []
        if c["systems.flow_calls"] != 4 * c["sim.steps"]:
            out.append(
                f"flow map calls {c['systems.flow_calls']} != 4 x steps "
                f"counted from the returned trajectories ({c['sim.steps']})"
            )
        if c["systems.jump_calls"] != c["sim.jumps_returned"]:
            out.append(
                f"jump map calls {c['systems.jump_calls']} != jumps recorded "
                f"in the returned trajectories ({c['sim.jumps_returned']})"
            )
        if c["certificates.check_points"] != c["trace.checked_samples_plus_jumps"]:
            out.append(
                f"check points reported {c['certificates.check_points']} != samples "
                f"plus jumps of the checked trajectories "
                f"({c['trace.checked_samples_plus_jumps']})"
            )
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines, then one line of counters."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "trial", "leaf_s")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
