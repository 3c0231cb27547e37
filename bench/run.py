"""Run one impstab benchmark workload and print its metrics.

    python3 bench/run.py --workload falsify-sound --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs whole rounds for ``--seconds`` and
reports the end-to-end metrics.  With ``--trace 1`` it runs a fixed
number of rounds (proportional to ``--seconds``) twice, untraced and then
traced, checks that both give the same results, and reports the
per-layer metrics.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T_FIRST = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]
# one thread: numpy's BLAS would otherwise start a worker per CPU
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _process_age() -> float:
    """Seconds since the process started, by its start time in /proc."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    except OSError:
        return time.perf_counter() - _T_FIRST
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def _reference_loop() -> float:
    """A fixed piece of scalar Python of the kind the simulator runs:
    3,000 RK4 steps of dx/dt = -x + sin t through a lambda, then fsum."""
    x, t, h = 1.0, 0.0, 1e-3
    f = lambda t, x: -x + math.sin(t)  # noqa: E731
    xs = []
    for _ in range(3000):
        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t + h, x + h * k3)
        x += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        xs.append(x)
    return math.fsum(xs)


def reference_ms() -> float:
    """The host's current speed: the faster of two reference loops, in ms."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


TO_MS = {"ms": 1.0, "s": 1e3}


def timed_run(workload, state, seed: int, seconds: float):
    """Whole rounds for ``seconds``, each between two reference loops.

    Returns the recorder, each kind's call times divided by the mean of
    the reference loops around their round (unit ``ref``: one reference
    loop's time), and those means in ms.  On a shared host the same call
    runs up to 2x slower for seconds at a time; the reference loop slows
    with it, so the ratio holds while the raw time does not.
    """
    from workloads import Recorder

    rec = Recorder()
    ref_times, ref_loops = {}, []
    deadline = time.perf_counter() + seconds
    ref_before = reference_ms()
    k = 0
    while True:
        done = {kind: len(v) for kind, v in rec.times.items()}
        workload.run_round(state, seed, k, rec)
        ref_after = reference_ms()
        ref = 0.5 * (ref_before + ref_after)
        ref_loops.append(ref)
        for kind, unit in workload.kinds.items():
            for took in rec.times.get(kind, [])[done.get(kind, 0) :]:
                ref_times.setdefault(kind, []).append(TO_MS[unit] * took / ref)
        ref_before = ref_after
        k += 1
        if time.perf_counter() >= deadline:
            break
    workload.finish(state, seed, rec)
    return rec, ref_times, ref_loops


def summary(values: list) -> str:
    """The median and, from 40 samples on, the highest percentile with
    ten samples beyond it."""
    text = f"median {statistics.median(values):.4g}"
    n = len(values)
    if n >= 40:
        text += f" p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4g}"
    return text


def op_geomean(ref_times: dict) -> float:
    """Geometric mean, over the workload's operation kinds, of each
    kind's median time in reference loops.

    Every kind weighs the same whatever its size, so a kind that takes
    a hundredth of a round (a refutation next to a 150-trial search)
    still moves the figure by its own relative change.
    """
    logs = [math.log(statistics.median(v)) for v in ref_times.values()]
    return math.exp(sum(logs) / len(logs))


def traced_run(workload, state, name: str, seed: int, seconds: float):
    from tracing import Tracer
    from workloads import OUT_ROOT, Recorder

    rounds = max(1, round(seconds * workload.trace_rounds_per_s))
    plain = Recorder()
    start = time.perf_counter()
    for k in range(rounds):
        workload.run_round(state, seed, k, plain)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    rec = Recorder()
    tracer.install()
    try:
        traced_state = tracer.instrument(state)
        start = time.perf_counter()
        for k in range(rounds):
            tracer.op, tracer.trial = k, -1
            workload.run_round(traced_state, seed, k, rec)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    workload.finish(state, seed, rec)
    rec.problems += plain.problems + tracer.total_mismatches()
    if rec.outcomes != plain.outcomes:
        rec.problems.append("traced verdicts or margins differ from the untraced run's")
    tracer.write(os.path.join(OUT_ROOT, f"trace-{name}-seed{seed}.jsonl"))
    return rec, tracer.layer_table(traced_s - untraced_s), rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    from workloads import WORKLOADS, impstab  # imports impstab: part of set-up

    if not impstab.__file__.startswith(SRC + os.sep):
        sys.exit(f"impstab came from {impstab.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    setup_s = _process_age()

    if args.trace:
        rec, table, rounds = traced_run(workload, state, args.workload, args.seed, args.seconds)
        from tracing import PER_LAYER

        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in table.items()}
        note = f"traced run of {rounds} rounds"
    else:
        rec, ref_times, ref_loops = timed_run(workload, state, args.seed, args.seconds)
        missing = [kind for kind in workload.kinds if not ref_times.get(kind)]
        if missing:
            sys.exit(f"no successful call of {', '.join(missing)}; no result")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "op_geomean_ref": {"value": op_geomean(ref_times), "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        note = ", ".join(
            f"{kind} {summary(ref_times[kind])} ref"
            f" ({summary(rec.times[kind])} {unit} raw) of {len(rec.times[kind])} calls"
            for kind, unit in workload.kinds.items()
        )
        note += f"; reference loop median {statistics.median(ref_loops):.4g} ms"

    for problem in rec.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {note}")
    for m, v in metrics.items():
        print(f"{m} = {v['value']:.6g} {v['unit']}")
    print(
        json.dumps(
            {
                "correct": not rec.problems,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
