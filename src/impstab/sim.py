"""Fixed-step simulation of flow-plus-jump dynamics.

Solutions are right-continuous: integrate the flow between jump times,
then apply the jump map at each time in the sequence, recording the
pre-jump state; the sample at a jump time is the post-jump state.
Segment boundaries land exactly on every jump time and input
breakpoint, so the integrator never steps across a discontinuity;
within a segment the input is constant.  A jump exactly at the start
time is not applied (windows are open on the left), one exactly at the
horizon is.

Each segment is stepped by one call of a classical RK4 kernel generated
per state dimension with its components unrolled into locals; a step
appends each component to its own sample column, and the sample times
and their jump counts come from the segment table in one vectorized
pass.  A flow map built by `compile_map` has its expressions written
into the kernel's stages, so a step makes no call; any other flow map
is called exactly four times per step.  A compiled flow that names
neither t nor any state component (a still flow, such as the pure-jump
system's 0.0) has equal stages, so its expressions are evaluated once
per segment and each step only adds the increment h/6 (k + 2k + 2k + k)
the stages would form.  All of them do the same operations in the same
order, so their results are bit-identical.  The jump map is called once
per applied jump.  Maps are called as h(t, x, u) with x a fresh list
and u a tuple.  A map that raises an arithmetic error, or a state that
turns complex, ends the run as "step-failure" at the last finite sample
(NonFiniteState when strict); a map returning anything but a sequence
of the state dimension raises InvalidSystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInterval, InvalidSystem, NonFiniteState
from .impulses import MAX_GRID_STEPS, ImpulseSequence
from .inputs import HybridInput
from .systems import ImpulsiveSystem, MapSource, map_source, sandbox

STATUS_COMPLETE = "complete-to-horizon"
STATUS_DIVERGED = "diverged"
STATUS_STEP_FAILURE = "step-failure"

DIVERGENCE_RADIUS = 1e12
_DIVERGE_SQ = DIVERGENCE_RADIUS**2


def repr_column(values: np.ndarray) -> list[str]:
    """``repr`` of each value as a Python float: how every CSV artifact
    writes a number, so it reads back exactly."""
    return list(map(repr, values.tolist()))


@dataclass
class Trajectory:
    t0: float
    times: np.ndarray  # (k,)
    states: np.ndarray  # (k, n), right-continuous values
    jumps: np.ndarray  # (j,) applied jump times; each has a post-jump sample
    x_pre: np.ndarray  # (j, n) the state just before each jump
    counts: np.ndarray  # (k,) the jumps in (t0, t] at each sample, from the grid
    status: str
    step: float
    horizon: float  # the end time the run was asked for
    input_used: HybridInput  # the input that drove the run

    @property
    def x0(self) -> np.ndarray:
        return self.states[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    def pre_states(self) -> dict[float, np.ndarray]:
        return dict(zip(self.jumps.tolist(), self.x_pre))

    def csv_text(self) -> str:
        """The trajectory as CSV: a header ``t,x1,..,xn,is_post_jump``,
        then one row per sample, except that a jump time after t0 gets a
        pre-jump row (flag 0) then a post-jump row (flag 1).  Numbers are
        written as ``repr`` of the Python float, so they read back exactly;
        rows end in ``"\\r\\n"``."""
        return self._csv_text(repr_column(self.times))

    def _csv_text(self, ts: list[str]) -> str:
        """`csv_text` with the time column already written (``ts``), so a
        caller that writes it elsewhere too formats each time once.  Rows
        are joined from the columns, each state column formatted as the
        rows are joined."""
        pre = dict(zip(self.jumps.tolist(), self.x_pre.tolist()))
        keys = np.array([t for t in pre if t > self.t0], dtype=float)
        at = np.minimum(np.searchsorted(self.times, keys), len(ts) - 1)
        hit = self.times[at] == keys
        # a sample at a jump time after t0 is a post-jump row, and its time
        # cell carries the pre-jump row that precedes it
        tcol, flags = list(ts), ["0"] * len(ts)
        for i, t in zip(at[hit].tolist(), keys[hit].tolist()):
            tcol[i] = ",".join([ts[i], *map(repr, pre[t]), "0\r\n" + ts[i]])
            flags[i] = "1"
        header = ",".join(["t", *(f"x{i + 1}" for i in range(self.dim)), "is_post_jump"])
        cols = (map(repr, col) for col in self.states.T.tolist())
        return "\r\n".join([header, *map(",".join, zip(tcol, *cols, flags)), ""])

    def to_csv(self, path) -> None:
        """Write `csv_text` to path in one call: ``repr`` floats, a pre
        row then a post row at each jump after t0, and ``"\\r\\n"`` row
        ends kept as they are (no newline translation), so the bytes are
        the same on every platform."""
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())


def _too_many_steps(t0: float, horizon: float, step: float) -> str:
    return f"step {step!r} from {t0!r} to {horizon!r} needs more than {MAX_GRID_STEPS} steps"


def _step_grid(
    t0: float, horizon: float, step: float, sigma: ImpulseSequence, breakpoints: np.ndarray
):
    """The grid of a run: its segment table (a, b, nsub, h), its sample
    times, each sample's jump count over (t0, t], and whether each
    segment ends in a jump in (t0, horizon].  Raises InvalidInterval when
    t0 is not finite, horizon < t0, step is not positive, the grid would
    take more than MAX_GRID_STEPS steps ((horizon - t0) / step is checked
    before the jumps are materialized, the step count before the sample
    times are allocated), or the sample times would not be strictly
    increasing (a step below the time resolution at the grid's magnitude).

    The windows between t0, each event in (t0, horizon) once, and horizon
    (none when horizon == t0) are each cut into the fewest nsub equal
    steps h no longer than `step`.  The times are t0, then a + j*h for
    step j = 1..nsub-1 of each window and exactly b for its last step.
    Every jump is a window end, so a sample inside a window has the count
    at its start a and the sample at b the count at b.
    """
    if not math.isfinite(t0):
        raise InvalidInterval(f"start {t0} is not finite")
    if horizon < t0:
        raise InvalidInterval(f"horizon {horizon} precedes start {t0}")
    if not step > 0:
        raise InvalidInterval("step must be positive")
    if not (float(horizon) - float(t0)) / float(step) <= MAX_GRID_STEPS:
        raise InvalidInterval(_too_many_steps(t0, horizon, step))
    jump_times = sigma.materialize(horizon)
    jump_times = jump_times[jump_times > t0]
    events = np.concatenate((jump_times, breakpoints))
    events = np.unique(events[(events > t0) & (events < horizon)])
    bounds = np.concatenate(([t0], events, [horizon]))
    keep = bounds[1:] > bounds[:-1]
    a, b = bounds[:-1][keep], bounds[1:][keep]
    # each window needs at most about (horizon - t0) / step steps, so the
    # int64 counts cannot overflow
    nsub = np.maximum(1, np.ceil((b - a) / step - 1e-9)).astype(np.int64)
    h = (b - a) / nsub
    ends = np.cumsum(nsub)
    total = int(ends[-1]) if ends.size else 0
    if total > MAX_GRID_STEPS:
        raise InvalidInterval(_too_many_steps(t0, horizon, step))
    times = np.empty(1 + total)
    times[0] = t0
    j = np.arange(1, times.size) - np.repeat(ends - nsub, nsub)
    times[1:] = np.repeat(a, nsub) + j * np.repeat(h, nsub)
    times[ends] = b
    if not np.all(times[1:] > times[:-1]):
        raise InvalidInterval(
            f"step {step!r} from {t0!r} to {horizon!r} gives sample times that "
            "are not strictly increasing"
        )
    at_b = np.searchsorted(jump_times, b, "right")
    at_a = np.concatenate(([0], at_b))[:-1]
    counts = np.zeros(times.size, dtype=np.int64)
    counts[1:] = np.repeat(at_a, nsub)
    counts[ends] = at_b
    return a, b, nsub, h, times, counts, (at_b > at_a).tolist()


_KERNEL_FILE = "<impstab.sim kernel>"
# A fused kernel evaluates the flow's expressions in its own frame, so every
# ValueError there is the expressions' own; its file name tells them apart.
_FUSED_FILE = "<impstab.sim fused kernel>"
_KERNELS: dict[tuple, tuple] = {}
# A sum of squares at or below this is inside the divergence radius however
# it was rounded; above it the exact `_outside` test decides.
_SAFE_SQ = 0.25 * _DIVERGE_SQ


def _outside(x) -> bool:
    """True when |x| is beyond the divergence radius or x is not finite."""
    try:
        return not math.fsum(v * v for v in x) <= _DIVERGE_SQ
    except OverflowError:  # finite squares whose sum overflows
        return True


def _kernel(n: int, source: MapSource | None = None) -> tuple:
    """The RK4 segment kernel and the jump step for state dimension n.

    Generated once per dimension, and once per expression set for a flow
    map built by `compile_map` (its `source`), with every component
    unrolled into locals.  Without a source each stage calls the flow map
    f with a fresh list; with one, each stage binds x1..xn to the stage
    state and evaluates the expressions in place, u1..um unpacked once per
    segment, so a step makes no call.  Stage times are computed only for
    f or for expressions that name t.  Expressions that name neither t
    nor any of x1..xn (a still flow) give four equal stages: they are
    evaluated once per segment into k_i, d_i = h6 * (k_i + 2.0 * k_i +
    2.0 * k_i + k_i) is formed once, and a step is s_i + d_i, the
    divergence test and the append.  An expression that raises, turns
    complex or overflows then does so before the segment's first sample,
    as it would at its first stage.  The operations and their order are
    the same every way.  `segment(f, a, nsub, h, x, u, cols)` takes nsub
    steps of length h from x at time a, appending component i of each
    state to cols[i], and returns (last state, False); a state outside
    the divergence radius or not finite is returned unappended, with
    True.  `jump` calls g with a fresh list and returns the post-jump
    state and whether it is outside the radius or not finite.
    """
    key = (n, source)
    if key in _KERNELS:
        return _KERNELS[key]

    def row(fmt: str) -> str:
        return ", ".join(fmt.format(i=i) for i in range(n))

    names = set()
    for e in source.exprs if source is not None else ():
        names.update(compile(e, "<flow>", "eval").co_names)
    timed = source is None or "t" in names
    # a still flow reads neither t nor the state, so its four stages are the
    # same values of u: evaluated once per segment, they give one increment
    still = not timed and not names & {f"x{i + 1}" for i in range(n)}

    def stage(k: str, t: str, c: str | None = None, prev: str = "") -> str:
        """Stage k at time t and state s + c * prev (s itself when c is None)."""
        xs = [f"s{i}" if c is None else f"s{i} + {c} * {prev}{i}" for i in range(n)]
        if source is None:
            return f"{row(k + '{i}')}, = f({t}, [{', '.join(xs)}], u)"
        lines = [f"t = {t}"] if timed else []
        lines += [f"x{i + 1} = {v}" for i, v in enumerate(xs)]
        lines += [f"{k}{i} = ({e})" for i, e in enumerate(source.exprs)]
        return "\n        ".join(lines)

    if still:
        head = [f"k{i} = ({e})" for i, e in enumerate(source.exprs)]
        head += [f"d{i} = h6 * (k{i} + 2.0 * k{i} + 2.0 * k{i} + k{i})" for i in range(n)]
        steps = [f"{row('s{i}')}, = {row('s{i} + d{i}')},"]
    else:
        head = []
        steps = ["ti = a + i * h"] if timed else []
        steps += [
            stage("k", "ti"),
            stage("p", "ti + h2", "h2", "k"),
            stage("q", "ti + h2", "h2", "p"),
            stage("r", "ti + h", "h", "q"),
            f"{row('s{i}')}, = {row('s{i} + h6 * (k{i} + 2.0 * p{i} + 2.0 * q{i} + r{i})')},",
        ]
    pre, body = "\n    ".join(head), "\n        ".join(steps)
    sumsq = " + ".join(f"s{i} * s{i}" for i in range(n))
    unpack_u = ""
    if source is not None:
        unpack_u = ", ".join(f"u{j + 1}" for j in range(source.dim_u)) + ", = u"
    src = f"""
def segment(f, a, nsub, h, x, u, cols):
    {row('s{i}')}, = x
    {row('c{i}')}, = cols
    {unpack_u}
    h2 = 0.5 * h
    h6 = h / 6.0
    {pre}
    for i in range(nsub):
        {body}
        if not {sumsq} <= {_SAFE_SQ!r} and _outside(({row('s{i}')},)):
            return [{row('s{i}')}], True
        {'; '.join(f'c{i}.append(s{i})' for i in range(n))}
    return [{row('s{i}')}], False
"""
    env = {"__builtins__": {}, "range": range, "_outside": _outside}
    if source is None:
        src += f"""

def jump(g, t, x, u):
    {row('s{i}')}, = x
    {row('d{i}')}, = g(t, [{row('s{i}')}], u)
    {row('s{i}')}, = {row('s{i} + d{i}')},
    return [{row('s{i}')}], not {sumsq} <= {_SAFE_SQ!r} and _outside(({row('s{i}')},))
"""
        exec(compile(src, _KERNEL_FILE, "exec"), env)
        _KERNELS[key] = (env["segment"], env["jump"])
    else:  # the jump map stays a call, from the map-calling kernel
        env.update(sandbox())
        exec(compile(src, _FUSED_FILE, "exec"), env)
        _KERNELS[key] = (env["segment"], _kernel(n)[1])
    return _KERNELS[key]


def _raising_frame(exc: BaseException):
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame


def _holds_complex(frame) -> bool:
    """True when a local of frame, or an item of a list local, is complex:
    the state has left the reals (a fractional power of a negative
    number, say), and comparing or summing it raised."""
    return any(
        isinstance(v, complex) or (isinstance(v, list) and any(isinstance(c, complex) for c in v))
        for v in frame.f_locals.values()
    )


def simulate(
    system: ImpulsiveSystem,
    t0: float,
    x0,
    w: HybridInput,
    horizon: float,
    step: float,
    strict: bool = True,
) -> Trajectory:
    """Integrate the flow with classical RK4 and apply jumps exactly.

    One kernel call (see `_kernel`) steps each constant-input segment,
    appending each step's state components to per-component sample
    columns; `states` is built from them once, and `times` from the
    segment table in one vectorized pass.  A flow map built by
    `compile_map` is evaluated inside the kernel, with bit-identical
    results; any other flow map is called exactly four times per step.
    The jump map is called once per applied jump.  Maps are called as
    h(t, x, u) with x a fresh list and u a tuple, and each must return a
    sequence of the state dimension, else InvalidSystem.  If |x| leaves
    the divergence radius the run stops with status "diverged" (the
    crossing sample is kept).  A NaN, infinite or complex state, or an
    arithmetic error raised by a map (OverflowError, ZeroDivisionError,
    ValueError such as a math domain error), raises NonFiniteState when
    strict, chained from the error it caused; otherwise the run stops
    with status "step-failure" at the last finite sample.  A NaN or
    infinite x0 raises NonFiniteState at t0 before any step, strict or
    not: there is no finite sample to stop at.
    """
    a, b, nsub, h, times, counts, jump_ends = _step_grid(
        t0, horizon, step, w.sigma, w.u.breakpoints
    )
    x = [float(v) for v in np.atleast_1d(np.asarray(x0, dtype=float))]
    if len(x) != system.dim_x:
        raise InvalidSystem(
            f"x0 has dimension {len(x)}, system expects {system.dim_x}"
        )
    if not all(math.isfinite(v) for v in x):
        raise NonFiniteState(f"initial state is not finite at t={t0:.6g}")
    if w.u.dim != system.dim_u:
        raise InvalidSystem(
            f"input has dimension {w.u.dim}, system expects {system.dim_u}"
        )
    rows = w.u.value_at(np.concatenate((a, b))).tolist()
    u_start, u_end = map(tuple, rows[: len(a)]), rows[len(a) :]

    segment, jump = _kernel(len(x), map_source(system.flow))
    f = system.flow
    g = system.jump
    cols = [[v] for v in x]
    jumped, pre = [], []
    status = STATUS_COMPLETE
    # a step that failed left no sample; its time is the next on the grid
    failed_next = False
    cause, what = None, "state became non-finite"
    try:
        for ak, bk, nk, hk, uk, ub, jumps in zip(
            a.tolist(), b.tolist(), nsub.tolist(), h.tolist(), u_start, u_end, jump_ends
        ):
            x, stopped = segment(f, ak, nk, hk, x, uk, cols)
            if stopped:
                if all(math.isfinite(v) for v in x):
                    for c, v in zip(cols, x):
                        c.append(v)
                    status = STATUS_DIVERGED
                else:
                    status, failed_next = STATUS_STEP_FAILURE, True
                break
            if jumps:
                x_post, outside = jump(g, bk, x, tuple(ub))
                if outside and not all(math.isfinite(v) for v in x_post):
                    # drop the bad post-jump value, keep the pre state
                    status = STATUS_STEP_FAILURE
                    break
                jumped.append(bk)
                pre.append(x)
                for c, v in zip(cols, x_post):
                    c[-1] = v
                if outside:
                    status = STATUS_DIVERGED
                    break
                x = x_post
    except (ArithmeticError, ValueError, TypeError) as exc:
        frame = _raising_frame(exc)
        complex_state = _holds_complex(frame)
        if not complex_state and not isinstance(exc, ArithmeticError):
            # over a real state the kernel's own code raises a ValueError or
            # TypeError only when unpacking a map's result
            if frame.f_code.co_filename == _KERNEL_FILE:
                raise InvalidSystem(
                    f"a map of system {system.name!r} did not return a sequence "
                    f"of {system.dim_x} components: {exc}"
                ) from exc
            if isinstance(exc, TypeError):
                raise
        status, cause = STATUS_STEP_FAILURE, exc
        what = "state became complex" if complex_state else f"a map raised {exc!r}"
    # the samples are a prefix of the grid; a run that stopped early
    # leaves the rest of it unsampled
    kept = len(cols[0])
    if status == STATUS_STEP_FAILURE and strict:
        failed_at = float(times[kept if failed_next else kept - 1])
        raise NonFiniteState(f"{what} at t={failed_at:.6g}") from cause

    return Trajectory(
        t0=float(t0),
        times=times[:kept],
        states=np.ascontiguousarray(np.array(cols, dtype=float).T),
        jumps=np.array(jumped, dtype=float),
        x_pre=np.array(pre, dtype=float).reshape(-1, system.dim_x),
        counts=counts[:kept],
        status=status,
        step=float(step),
        horizon=float(horizon),
        input_used=w,
    )


def integral_residual(traj: Trajectory, system: ImpulsiveSystem) -> float:
    """Worst defect of the integral identity along the samples.

    Reconstructs x(t) - x(t0) as the quadrature of the flow, driven by
    the trajectory's own input, along the sampled path plus the recorded
    jump increments, and returns the largest Euclidean mismatch.
    Quadrature is Simpson with a Hermite midpoint, fourth order, so the
    defect measures the trajectory, not the quadrature.
    """
    w = traj.input_used
    ts = traj.times
    xs = traj.states
    k = len(ts)
    pre = traj.pre_states()
    f = system.flow

    cum = np.zeros(traj.dim)
    jsum = np.zeros(traj.dim)
    worst = 0.0
    x0 = xs[0]
    for i in range(k - 1):
        tL = float(ts[i])
        tR = float(ts[i + 1])
        hseg = tR - tL
        useg = tuple(w.u.value_at(tL))
        xL = xs[i]
        xR = pre.get(tR, xs[i + 1])
        fL = np.asarray(f(tL, xL.tolist(), useg), dtype=float)
        fR = np.asarray(f(tR, xR.tolist(), useg), dtype=float)
        xm = 0.5 * (xL + xR) + (hseg / 8.0) * (fL - fR)
        fm = np.asarray(f(tL + 0.5 * hseg, xm.tolist(), useg), dtype=float)
        cum = cum + (hseg / 6.0) * (fL + 4.0 * fm + fR)
        if tR in pre:
            defect_pre = np.linalg.norm(xR - (x0 + cum + jsum))
            worst = max(worst, float(defect_pre))
            jsum = jsum + (xs[i + 1] - xR)
        defect = np.linalg.norm(xs[i + 1] - (x0 + cum + jsum))
        worst = max(worst, float(defect))
    return worst


def closed_form_linear_impulsive(
    a: float,
    jump_factor: float,
    t0: float,
    x0,
    w: HybridInput,
    horizon: float,
    step: float,
) -> Trajectory:
    """Exact solution of dx/dt = a x + u with x -> jump_factor * x.

    Variation of constants per constant-input segment, jump factor at
    each jump time; sampled on the very same grid `simulate` uses so the
    two trajectories compare sample-by-sample.  A NaN or infinite x0
    raises NonFiniteState, as in `simulate`.
    """
    lo, hi, nsub, h, times, counts, jump_ends = _step_grid(
        t0, horizon, step, w.sigma, w.u.breakpoints
    )
    if w.u.dim != 1:
        raise InvalidSystem("closed form is for scalar input")
    x_arr = np.atleast_1d(np.asarray(x0, dtype=float))
    if x_arr.shape != (1,):
        raise InvalidSystem("closed form is for scalar state")

    x = float(x_arr[0])
    if not math.isfinite(x):
        raise NonFiniteState(f"initial state is not finite at t={t0:.6g}")
    vals = [x]
    jumped, pre = [], []
    u_start = w.u.value_at(lo)[:, 0].tolist()
    for lo_k, hi_k, n_k, h_k, u0, jumps in zip(
        lo.tolist(), hi.tolist(), nsub.tolist(), h.tolist(), u_start, jump_ends
    ):
        offs = np.arange(1, n_k + 1) * h_k
        offs[-1] = hi_k - lo_k
        if a != 0.0:
            grow = np.exp(a * offs)
            seg_vals = grow * x + (u0 / a) * (grow - 1.0)
        else:
            seg_vals = x + u0 * offs
        vals.extend(seg_vals.tolist())
        x = vals[-1]
        if jumps:
            jumped.append(hi_k)
            pre.append(x)
            x = vals[-1] = jump_factor * x
    return Trajectory(
        t0=float(t0),
        times=times,
        states=np.asarray(vals)[:, None],
        jumps=np.array(jumped, dtype=float),
        x_pre=np.array(pre, dtype=float)[:, None],
        counts=counts,
        status=STATUS_COMPLETE,
        step=float(step),
        horizon=float(horizon),
        input_used=w,
    )
