"""Stability certificates: checking along trajectories and falsification.

Three certificate shapes are supported: a zero-input decay bound (a KL
function of |x0| and either strong time or elapsed time), a bounded-
energy bound (a gauge on |x| against |x0| + energy + offset), and a
gain estimate combining both.  Checks evaluate the defining inequality
at every sample of a trajectory, including the pre-jump value at each
jump time, with tolerance 1e-9 * (1 + |rhs|) per point.  A check can
pass, be violated (with a replayable witness), or be inconclusive when
the trajectory ended early without any violated sample.

Falsification searches over start times, initial states, inputs, and
sequences drawn from a family, mixing uniform random trials,
low-discrepancy trials, and adversarial presets.  Trial seeds derive
from (master seed, trial index) so any one trial reproduces on its own.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .comparison import (
    ComparisonFn,
    KLFn,
    comparison_from_config,
    eval_array,
    eval_kl_array,
    guas_decay_from_iiss,
    kl_from_config,
    lift_weak_beta,
    require_kinf,
    ubebs_alpha_from_iiss,
)
from .errors import ClassViolation, ConfigError, NonZeroInput, OutOfRange
from .impulses import ImpulseFamily, ImpulseSequence, _config_number, _from_table
from .inputs import EnergyProfile, HybridInput, InputSignal, _row_norms, zero_signal
from .sim import DIVERGENCE_RADIUS, STATUS_COMPLETE, Trajectory, simulate
from .systems import ImpulsiveSystem

TOL_SCALE = 1e-9

MODES = ("strong", "weak")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ClassViolation(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class GuasCertificate:
    """Zero-input decay bound |x(t)| <= beta(|x0|, time argument)."""

    beta: KLFn
    mode: str = "strong"

    def __post_init__(self):
        _check_mode(self.mode)
        self.beta.validate()


@dataclass(frozen=True)
class UbebsCertificate:
    """Energy bound alpha(|x(t)|) <= |x0| + energy + c."""

    alpha: ComparisonFn
    rho1: ComparisonFn
    rho2: ComparisonFn
    c: float = 0.0

    def __post_init__(self):
        require_kinf(self.alpha, "alpha")
        require_kinf(self.rho1, "rho1")
        require_kinf(self.rho2, "rho2")
        real = isinstance(self.c, numbers.Real) and not isinstance(self.c, bool)
        if not (real and 0 <= self.c < math.inf):
            raise ClassViolation(f"offset c must be a finite number >= 0, got {self.c!r}")


@dataclass(frozen=True)
class IissCertificate:
    """Gain estimate alpha(|x(t)|) <= beta(|x0|, time argument) + energy."""

    alpha: ComparisonFn
    beta: KLFn
    rho1: ComparisonFn
    rho2: ComparisonFn
    mode: str = "strong"

    def __post_init__(self):
        _check_mode(self.mode)
        require_kinf(self.alpha, "alpha")
        require_kinf(self.rho1, "rho1")
        require_kinf(self.rho2, "rho2")
        self.beta.validate()


Certificate = GuasCertificate | UbebsCertificate | IissCertificate

_CERT_KIND = {GuasCertificate: "guas", UbebsCertificate: "ubebs", IissCertificate: "iiss"}


@dataclass
class Witness:
    """Everything needed to re-simulate and re-check one violation."""

    check: str
    t: float
    side: str  # "post" for a sample value, "pre" for a pre-jump value
    lhs: float
    rhs: float
    margin: float
    t0: float
    x0: list
    horizon: float
    step: float
    sigma_times: list
    u: dict
    trial: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Witness":
        return cls(**data)

    def trajectory(self, system: ImpulsiveSystem) -> Trajectory:
        """Re-simulate the witnessed trial; the trajectory's ``input_used``
        is the hybrid input rebuilt from the stored times and signal."""
        sigma = ImpulseSequence.from_times(self.sigma_times)
        w = HybridInput(InputSignal.from_json(self.u), sigma)
        return simulate(
            system,
            self.t0,
            np.asarray(self.x0, dtype=float),
            w,
            self.horizon,
            self.step,
            strict=False,
        )


@dataclass
class CheckReport:
    verdict: str  # "pass" | "violated" | "inconclusive"
    kind: str
    worst_margin: float
    trials: int = 1
    samples: int = 0
    witness: Witness | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "kind": self.kind,
            "worst_margin": self.worst_margin,
            "trials": self.trials,
            "samples": self.samples,
            "details": self.details,
        }
        out["witness"] = self.witness.to_dict() if self.witness else None
        return out


def _check_points(traj: Trajectory, mode: str):
    """Evaluation points: every sample plus the pre-jump values.

    Returns times, state norms, time arguments (strong or elapsed), a
    side array (0 = pre-jump entry, 1 = sample) and the jumps counted
    over (t0, t] at a sample and over (t0, t) at a pre-jump entry, in
    time order with each pre-jump entry directly before its post-jump
    sample.  The counts are the trajectory's own, from its grid; applied
    jump i is the first sample whose count exceeds i.
    """
    n, nj = len(traj.times), len(traj.jumps)
    post = np.searchsorted(traj.counts, np.arange(1, nj + 1))
    # the sample each point reads: a post-jump one twice, its pre entry first
    src = np.repeat(np.arange(n), np.bincount(post, minlength=n) + 1)
    side = np.ones(n + nj, dtype=int)
    side[post + np.arange(nj)] = 0
    pre = side == 0
    ts = traj.times[src]
    norms = traj.norms()[src]
    norms[pre] = _row_norms(traj.x_pre)
    counts = traj.counts[src] - pre
    elapsed = ts - traj.t0
    return ts, norms, elapsed + counts if mode == "strong" else elapsed, side, counts


def _scan(
    kind: str,
    traj: Trajectory,
    times: np.ndarray,
    lhs: np.ndarray,
    rhs: np.ndarray,
    side: np.ndarray,
) -> CheckReport:
    """The report of one check: its first violation, if any, with a
    witness that replays the whole run the trajectory was asked for
    (its horizon, and the jumps and input that drove it)."""
    margins = lhs - rhs
    tol = TOL_SCALE * (1.0 + np.abs(rhs))
    viol = margins > tol
    worst = float(margins.max()) if margins.size else 0.0  # NaN if any is
    samples = int(len(times))
    if viol.any():
        idx = int(np.argmax(viol))  # arrays are time-ordered: first violation
        wit = Witness(
            check=kind,
            t=float(times[idx]),
            side="pre" if side[idx] == 0 else "post",
            lhs=float(lhs[idx]),
            rhs=float(rhs[idx]),
            margin=float(margins[idx]),
            t0=traj.t0,
            x0=[float(v) for v in traj.x0],
            horizon=traj.horizon,
            step=traj.step,
            sigma_times=[float(t) for t in traj.input_used.sigma.materialize(traj.horizon)],
            u=traj.input_used.u.to_json(),
        )
        return CheckReport(
            verdict="violated",
            kind=kind,
            worst_margin=worst,
            samples=samples,
            witness=wit,
        )
    details = {}
    if traj.status != STATUS_COMPLETE:
        details["note"] = f"trajectory ended early with status {traj.status!r}"
    elif not np.isfinite(margins).all():
        details["note"] = "a margin is not finite, so the bound was not checked there"
    verdict = "inconclusive" if details else "pass"
    return CheckReport(
        verdict=verdict,
        kind=kind,
        worst_margin=worst,
        samples=samples,
        details=details,
    )


def _gauge_values(fn: ComparisonFn, norms: np.ndarray) -> np.ndarray:
    # clip to the certified range: this can only lower the left side,
    # so a reported violation is genuine even past the gauge's hint
    return eval_array(fn, np.minimum(norms, fn.domain_hint))


def _guard_r0(r0: float, beta: KLFn) -> None:
    if r0 > beta.r_hint:
        raise OutOfRange(
            f"|x0|={r0:.6g} exceeds the decay bound's certified range {beta.r_hint:.6g}"
        )


def _sides(cert: Certificate, traj: Trajectory):
    """Check points and both sides of the certificate's inequality there.

    Returns times, the left side (|x| for a decay bound, alpha(|x|)
    otherwise), the right side, and the side array of ``_check_points``.
    Input energy, of the input that drove the trajectory, is taken over
    (t0, t] at samples and over (t0, t) at pre-jump entries, its jump
    part read at each point's jump count.
    """
    mode = "strong" if isinstance(cert, UbebsCertificate) else cert.mode
    times, norms, sargs, side, counts = _check_points(traj, mode)
    r0 = float(np.linalg.norm(traj.x0))
    if not isinstance(cert, UbebsCertificate):
        _guard_r0(r0, cert.beta)
    if isinstance(cert, GuasCertificate):
        return times, norms, eval_kl_array(cert.beta, r0, sargs), side
    profile = EnergyProfile(traj.input_used, cert.rho1, cert.rho2, traj.t0, traj.end_time)
    energy = profile._priced(times, counts)
    lhs = _gauge_values(cert.alpha, norms)
    if isinstance(cert, UbebsCertificate):
        return times, lhs, r0 + energy + cert.c, side
    return times, lhs, eval_kl_array(cert.beta, r0, sargs) + energy, side


def check_guas(cert: GuasCertificate, traj: Trajectory) -> CheckReport:
    """Check |x(t)| <= beta(|x0|, .) pointwise on a zero-input trajectory;
    NonZeroInput when the trajectory was driven by a nonzero signal."""
    if not traj.input_used.u.is_zero():
        raise NonZeroInput("decay check requires a zero-input trajectory")
    return _scan(f"guas-{cert.mode}", traj, *_sides(cert, traj))


def check_ubebs(cert: UbebsCertificate, traj: Trajectory) -> CheckReport:
    """Check alpha(|x(t)|) <= |x0| + energy over (t0, t] + c pointwise."""
    return _scan("ubebs", traj, *_sides(cert, traj))


def check_iiss(cert: IissCertificate, traj: Trajectory) -> CheckReport:
    """Check alpha(|x(t)|) <= beta(|x0|, .) + energy over (t0, t]."""
    return _scan(f"iiss-{cert.mode}", traj, *_sides(cert, traj))


def check_certificate(cert: Certificate, traj: Trajectory) -> CheckReport:
    if isinstance(cert, GuasCertificate):
        return check_guas(cert, traj)
    if isinstance(cert, UbebsCertificate):
        return check_ubebs(cert, traj)
    if isinstance(cert, IissCertificate):
        return check_iiss(cert, traj)
    raise ConfigError(f"unknown certificate type {type(cert).__name__}")


# ---------------------------------------------------------------------------
# Derived certificates.


def derive_guas_from_iiss(cert: IissCertificate) -> GuasCertificate:
    """Zero input kills the energy term; invert the gauge on what is left."""
    return GuasCertificate(
        beta=guas_decay_from_iiss(cert.alpha, cert.beta), mode=cert.mode
    )


def derive_ubebs_from_iiss(cert: IissCertificate) -> UbebsCertificate:
    """Overshoot gauge from the gain pair, same energy gauges, zero offset."""
    return UbebsCertificate(
        alpha=ubebs_alpha_from_iiss(cert.alpha, cert.beta),
        rho1=cert.rho1,
        rho2=cert.rho2,
        c=0.0,
    )


def derive_strong_from_weak(cert: GuasCertificate, phi) -> GuasCertificate:
    """Lift an elapsed-time bound to strong time with a count envelope.

    ``phi`` must bound the jump count: every window of length s of the
    jump times checked against the result holds at most phi(s) jumps.
    That is the caller's hypothesis and is not checked here.  For
    ``math.ceil`` and ``np.ceil`` the lifted check takes each strong
    time's argument in closed form, checked to be the bisection's; any
    other ``phi``, and any point the check rejects, goes through one
    masked bisection over the check points, asking a ``phi`` that takes
    numpy arrays once per step and any other once per point and step;
    see ``lift_weak_beta``.
    """
    if cert.mode != "weak":
        raise ClassViolation("lifting applies to weak-mode certificates")
    return GuasCertificate(beta=lift_weak_beta(cert.beta, phi), mode="strong")


_CERTS = {
    "guas": (GuasCertificate, ("beta",), ("mode",)),
    "ubebs": (UbebsCertificate, ("alpha", "rho1", "rho2"), ("c",)),
    "iiss": (IissCertificate, ("alpha", "beta", "rho1", "rho2"), ("mode",)),
}


def _cert_field(key: str, v):
    """beta by `kl_from_config`, a gauge by `comparison_from_config`, c as a number."""
    if key == "beta":
        return kl_from_config(v)
    if key in ("alpha", "rho1", "rho2"):
        return comparison_from_config(v)
    return _config_number(key, v) if key == "c" else v


def certificate_from_config(cfg: dict) -> Certificate:
    """A certificate from ``{"kind": <a key of _CERTS>, <its fields>}``.
    ConfigError for a bad config, kind or function config, or a missing
    function; ClassViolation for a function, mode or c it rejects."""
    return _from_table(_CERTS, cfg, "kind", "certificate", _cert_field)


# ---------------------------------------------------------------------------
# Falsification.


@dataclass(frozen=True)
class SearchRanges:
    """Bounds on the quantifier space a falsification run explores.

    OutOfRange for a bound that is NaN, infinite or negative, or a horizon
    or step that is not positive.
    """

    t0_max: float = 2.0
    x0_max: float = 5.0
    u_amp_max: float = 2.0
    horizon: float = 10.0
    step: float = 1e-2

    def __post_init__(self):
        _check_fields(
            self, nonneg=("t0_max", "x0_max", "u_amp_max"), positive=("horizon", "step")
        )


def _check_fields(cfg, nonneg: tuple[str, ...], positive: tuple[str, ...]) -> None:
    """OutOfRange naming the field unless every field in ``nonneg`` is
    finite and at least 0 and every field in ``positive`` finite and
    above 0; NaN fails both."""
    for name in nonneg + positive:
        v = getattr(cfg, name)
        if not (math.isfinite(v) and (v > 0 if name in positive else v >= 0)):
            want = "> 0" if name in positive else ">= 0"
            raise OutOfRange(f"{type(cfg).__name__}.{name} must be finite and {want}, got {v!r}")


def _direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim)
    n = float(np.linalg.norm(vec))
    if n == 0.0:
        vec = np.zeros(dim)
        vec[0] = 1.0
        return vec
    return vec / n


def _random_signal(
    rng: np.random.Generator,
    dim: int,
    t0: float,
    t_end: float,
    amp: float,
    max_pieces: int,
) -> InputSignal:
    n = int(rng.integers(1, max_pieces + 1))
    bps = np.unique(rng.uniform(t0, t_end, n))
    if bps.size == 0 or amp <= 0.0:
        return zero_signal(dim)
    vals = rng.uniform(-amp, amp, (bps.size, dim))
    return InputSignal._trusted(bps, vals)


def _pulses_at_jumps(
    sigma: ImpulseSequence,
    dim: int,
    amp: float,
    width: float,
    t0: float,
    t_end: float,
) -> InputSignal:
    taus = sigma.materialize(t_end)
    taus = taus[taus > t0]
    if taus.size == 0 or amp <= 0.0:
        return zero_signal(dim)
    edges = np.unique(np.concatenate((taus - width, taus + width)))
    # amp on each piece between edges whose midpoint is within width of a
    # jump (the jumps on either side of it), zero on the rest and the last
    mid = 0.5 * (edges[:-1] + edges[1:])
    j = np.searchsorted(taus, mid)
    padded = np.concatenate(([-math.inf], taus, [math.inf]))
    near = np.minimum(mid - padded[j], padded[j + 1] - mid)
    vals = np.zeros((edges.size, dim))
    vals[:-1][near <= width] = amp
    return InputSignal._trusted(edges, vals).canonical()


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial + 1


def _path_seed(path: list[int]) -> int:
    """One seed per seed path: the entries plus one as base-1_000_003
    digits, so paths of entries below 1_000_002 never share a seed."""
    out = 0
    for entry in path:
        out = _trial_seed(out, entry)
    return out


_HALTON_BASES = (2, 3, 5)


def _scrambled_halton(n: int, seed: int) -> np.ndarray:
    """First n points of the 3-D scrambled Halton sequence, bit for bit
    those of ``scipy.stats.qmc.Halton(d=3, scramble=True, seed=seed)``:
    one column each for falsify's t0, |x0| and input amplitude.

    Base b gets ceil(54 / log2 b) - 1 digit permutations, each a shuffle
    of 0..b-1 drawn in turn from one generator.  A coordinate is the
    sequential sum, least significant digit first, of the permuted
    digits of the point index times weights 1/b, 1/b^2, ... formed by
    repeated division (dividing by b^(j+1) instead is off by an ulp).
    """
    rng = np.random.default_rng(seed)
    index = np.arange(n)
    out = np.empty((n, len(_HALTON_BASES)))
    for col, base in enumerate(_HALTON_BASES):
        count = math.ceil(54 / math.log2(base)) - 1
        # one shuffle per row, drawn in turn
        perms = rng.permuted(np.repeat(np.arange(base)[None], count, axis=0), axis=1)
        weights = np.divide.accumulate(np.concatenate(([1.0], np.full(count, float(base)))))[1:]
        # digits past the first `used` are 0 for every index below n, so
        # their terms are one constant per digit
        used = 1
        while base**used < n:
            used += 1
        digits = index // base ** np.arange(used)[:, None] % base
        terms = np.repeat((perms[:, 0] * weights)[:, None], n, axis=1)
        terms[:used] = perms[np.arange(used)[:, None], digits] * weights[:used, None]
        out[:, col] = np.cumsum(terms, axis=0)[-1]
    return out


def falsify(
    cert: Certificate,
    system: ImpulsiveSystem,
    family: ImpulseFamily,
    budget: int,
    ranges: SearchRanges = SearchRanges(),
    seed: int = 0,
) -> CheckReport:
    """Search for a quantifier assignment violating the certificate.

    Stops at the first violated trial and returns its witness (first
    violating sample in time order), annotated with the trial index and
    master seed; otherwise reports a pass with the trial count.  Trials
    cycle uniform random, low-discrepancy, and adversarial presets
    (corner initial states, pulses synchronized with jump times, start
    times hugging a jump, constant worst-amplitude input).  The
    low-discrepancy table comes from its own generator seeded by ``seed``
    and is drawn only when a low-discrepancy trial runs, so a search that
    stops at trial 0 never builds it.
    """
    if budget < 1:
        raise ConfigError("budget must be at least 1")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    zero_only = isinstance(cert, GuasCertificate)
    kind = f"falsify-{_CERT_KIND[type(cert)]}"
    halton = None  # drawn at the first low-discrepancy trial
    maxes = (ranges.t0_max, ranges.x0_max, ranges.u_amp_max)
    worst = -math.inf
    inconclusive = 0
    for trial in range(budget):
        rng = np.random.default_rng([seed, trial])
        style = trial % 3
        variant = (trial // 3) % 4 if style == 2 else None
        sigma = family.sampler(_trial_seed(seed, trial), ranges.t0_max + ranges.horizon + 1.0)
        # (t0, |x0|, amplitude): uniform, low-discrepancy, or the corner
        if style == 0:
            t0, x0n, amp = (float(rng.uniform(0.0, m)) for m in maxes)
        elif style == 1:
            if halton is None:
                halton = _scrambled_halton(budget, seed)
            t0, x0n, amp = (float(v * m) for v, m in zip(halton[trial], maxes))
        else:
            t0, x0n, amp = 0.0, ranges.x0_max, ranges.u_amp_max
            if variant == 2:
                taus = sigma.materialize(ranges.t0_max + 1.0)
                if taus.size:
                    t0 = max(0.0, float(taus[0]) - 0.5 * ranges.step)
        horizon = t0 + ranges.horizon
        x0 = x0n * _direction(rng, system.dim_x)
        if zero_only or variant == 0:
            u = zero_signal(system.dim_u)
        elif variant == 1:
            u = _pulses_at_jumps(sigma, system.dim_u, amp, 2.0 * ranges.step, t0, horizon)
        elif variant == 3:
            u = InputSignal._trusted(np.array([t0]), amp * np.ones((1, system.dim_u)))
        else:
            u = _random_signal(rng, system.dim_u, t0, horizon, amp, 6)
        traj = simulate(system, t0, x0, HybridInput(u, sigma), horizon, ranges.step, strict=False)
        rep = check_certificate(cert, traj)
        if rep.verdict == "violated":
            wit = rep.witness
            wit.trial = trial
            wit.seed = seed
            return CheckReport(
                verdict="violated",
                kind=kind,
                worst_margin=rep.worst_margin,
                trials=trial + 1,
                samples=rep.samples,
                witness=wit,
                details={"trial_style": ("random", "low-discrepancy", "adversarial")[style]},
            )
        if rep.worst_margin > worst or math.isnan(rep.worst_margin):  # NaN stays
            worst = rep.worst_margin
        if rep.verdict == "inconclusive":
            inconclusive += 1
    return CheckReport(
        verdict="pass",
        kind=kind,
        worst_margin=worst,
        trials=budget,
        details={
            "note": "no violation found within budget",
            "inconclusive_trials": inconclusive,
        },
    )


def replay_witness(
    witness: Witness, cert: Certificate, system: ImpulsiveSystem
) -> dict:
    """Re-simulate a witness and compare the violation margin.

    The stored sequence times, input, horizon, and step pin the grid
    exactly, so a faithful implementation reproduces the margin to
    rounding error.
    """
    traj = witness.trajectory(system)
    rep = check_certificate(cert, traj)
    if rep.witness is None:
        return {
            "matches": False,
            "verdict": rep.verdict,
            "stored_margin": witness.margin,
            "replayed_margin": None,
        }
    new = rep.witness
    return {
        "matches": bool(
            abs(new.margin - witness.margin) <= 1e-9 and abs(new.t - witness.t) <= 1e-9
        ),
        "verdict": rep.verdict,
        "stored_margin": witness.margin,
        "replayed_margin": new.margin,
        "replayed_t": new.t,
        "margin_gap": abs(new.margin - witness.margin),
    }


# ---------------------------------------------------------------------------
# The three limit conditions and settling-time estimation.


@dataclass(frozen=True)
class EpsDeltaConfig:
    """Grids and sampling bounds for the three limit conditions.

    alpha_tilde is the candidate gauge for the convergence condition;
    the energy of sampled inputs is measured over the whole simulated
    window, which for generator-backed sequences means every jump up to
    the trial horizon contributes.  OutOfRange for a t0_max or horizon
    that is NaN, infinite or negative, a step that is not positive, or
    fewer than one delta level.
    """

    alpha_tilde: ComparisonFn
    T_grid: tuple = (2.0, 6.0, 12.0)
    r_grid: tuple = (0.5, 2.0)
    s_grid: tuple = (0.5, 2.0)
    eps_grid: tuple = (0.2, 1.0)
    t0_max: float = 1.0
    horizon: float = 12.0
    step: float = 1e-2
    delta_levels: int = 16

    def __post_init__(self):
        _check_fields(self, nonneg=("t0_max", "horizon"), positive=("step",))
        if not self.delta_levels >= 1:
            raise OutOfRange(
                f"EpsDeltaConfig.delta_levels must be at least 1, got {self.delta_levels!r}"
            )


# the energy cap's factors are k / _CAP_GRID for k = 0.._CAP_GRID
_CAP_GRID = 2**40


def _scaled_to_energy(
    sig: InputSignal,
    sigma: ImpulseSequence,
    gain: tuple[ComparisonFn, ComparisonFn],
    t0: float,
    t_end: float,
    target: float,
) -> tuple[InputSignal, float]:
    """Scale a signal so its energy over (t0, t_end] is at most target.

    Returns the scaled signal and its energy.  A signal within the target
    is kept whole; otherwise the factor is k / 2**40 for the largest k
    below 2**40 whose `EnergyProfile.scaled_total` is at most target (0.0
    when there is none), and the energy is that factor's scaled total.

    One search on the grid finds k.  It keeps a bracket lo < hi, lo priced
    at most target (or 0, unpriced) and hi above it, and takes a secant
    step between the bracket ends, pricing k + 1 too after a hit at k;
    a step that did not halve the bracket is followed by a halving step,
    so the bracket halves at least every two steps.  Where the energy is
    linear in the factor, as with identity gauges, it prices three
    factors: 1, k and k + 1.

    Scope: where scaled_total is nondecreasing in the factor, as it is
    for every stock gauge, k is unique, so the factor and energy are bit
    for bit those of 40 bisection steps on [0, 1].  For a gauge whose
    evaluation decreases somewhere the energy is still at most target,
    but the factor may be another one.
    """
    if target <= 0.0 or sig.is_zero():
        return zero_signal(sig.dim), 0.0
    profile = EnergyProfile(HybridInput(sig, sigma), *gain, t0, t_end)
    base = profile.scaled_total(1.0)
    if base <= target:
        return sig, base
    lo, hi = 0, _CAP_GRID
    lo_total, hi_total = 0.0, base  # the 0.0 at lo = 0 only steers the secant
    halve = False
    while hi - lo > 1:
        width = hi - lo
        frac = (target - lo_total) / (hi_total - lo_total)
        if halve or not 0.0 <= frac < 1.0:  # a NaN total, or rounding, halves
            tries = ((lo + hi) // 2,)
        else:
            k = min(max(lo + int(frac * width), lo + 1), hi - 1)
            tries = (k, k + 1)
        for k in tries:
            if k >= hi:
                break
            total = profile.scaled_total(k / _CAP_GRID)
            if not total <= target:
                hi, hi_total = k, total
                break
            lo, lo_total = k, total
        halve = not halve and 2 * (hi - lo) > width
    if lo == 0:
        lo_total = profile.scaled_total(0.0)
    return sig.scaled(lo / _CAP_GRID), lo_total


def _limit_trial(
    system: ImpulsiveSystem,
    family: ImpulseFamily,
    path: list[int],
    r: float,
    cfg: EpsDeltaConfig | SettlingConfig,
    gain: tuple[ComparisonFn, ComparisonFn] | None,
    cap: float,
    T: float = math.inf,
    eps: float = math.inf,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One limit-condition trial, drawn from its seed path alone.

    ``path`` seeds the trial's generator, and `_path_seed(path)` its jump
    times, so distinct paths never share jump times.  t0 is uniform on
    [0, cfg.t0_max], or 0 without a draw when t0_max <= 0; |x0| is r when
    the path ends in a multiple of 4 and uniform on [0, r] otherwise.
    The input is random, scaled to energy at most cap over
    (t0, t0 + cfg.horizon], or zero when gain is None.  Returns the state
    norms and strong times at the check points, and the input's energy.

    Only the check points a verdict reads are simulated, each with the
    bits the full-horizon run gives it.  With |x0| > eps the trial
    returns the t0 point alone, unpriced and unsimulated.  With a finite
    T the run ends at the first jump whose post-jump strong time exceeds
    T + 1e-12: its pre-jump point is still recorded, every later point
    lies above the bound too, and the jump is a segment end of the full
    run, so the windows before it are the same.  The energy is still
    priced over the whole window.
    """
    rng = np.random.default_rng(path)
    t0 = 0.0 if cfg.t0_max <= 0 else float(rng.uniform(0.0, cfg.t0_max))
    t_end = t0 + cfg.horizon
    norm = r if path[-1] % 4 == 0 else float(rng.uniform(0.0, r))
    x0 = norm * _direction(rng, system.dim_x)
    norm0 = np.linalg.norm(x0[None, :], axis=1)  # as `_check_points` takes it
    if norm0[0] > eps:
        return norm0, np.zeros(1), 0.0
    sigma = family.sampler(_path_seed(path), t_end + 1.0)
    if gain is None:
        u, energy = zero_signal(system.dim_u), 0.0
    else:
        raw = _random_signal(rng, system.dim_u, t0, t_end, 1.0, 5)
        u, energy = _scaled_to_energy(raw, sigma, gain, t0, t_end, cap)
    taus = sigma.materialize(t_end)
    taus = taus[taus > t0]
    # post-jump strong times, summed as `_check_points` sums them
    past = np.flatnonzero((taus - t0) + np.arange(1, taus.size + 1) > T + 1e-12)
    if past.size:
        t_end = float(taus[past[0]])
    traj = simulate(system, t0, x0, HybridInput(u, sigma), t_end, cfg.step, strict=False)
    _, norms, sargs, _, _ = _check_points(traj, "strong")
    return norms, sargs, energy


@dataclass
class _ScanResult:
    threshold: float
    saturated: bool
    max_seen: float


def _gain_violation_scan(
    system: ImpulsiveSystem,
    family: ImpulseFamily,
    alpha: ComparisonFn,
    gain: tuple[ComparisonFn, ComparisonFn] | None,
    r: float,
    eps_grid,
    cfg: EpsDeltaConfig | SettlingConfig,
    trials: int,
    seed_path: list[int],
) -> list[_ScanResult]:
    """For each eps, the largest strong time at which alpha(|x|) still
    exceeds eps + energy; one result per eps, in order.

    Every eps is judged on the same trials: each trial is drawn,
    simulated and its gauge values taken once, then each eps's threshold
    is applied in turn, so a result is the one a scan of that eps alone
    gives.  Trial k is `_limit_trial` of ``cfg`` on the seed path
    ``seed_path + [k]``, so t0 is 0 undrawn when cfg.t0_max <= 0.  A gain
    of None drives every trial with zero input.  Saturation means some
    trial's violations persist into the edge of its observable
    strong-time window, i.e. no settling was seen.
    """
    if not eps_grid:
        return []
    worst_T = [0.0] * len(eps_grid)
    saturated = [False] * len(eps_grid)
    max_seen = 0.0
    for k in range(trials):
        norms, sargs, wnorm = _limit_trial(system, family, seed_path + [k], r, cfg, gain, math.inf)
        lhs = _gauge_values(alpha, norms)
        trial_max = float(np.max(sargs)) if sargs.size else 0.0
        max_seen = max(max_seen, trial_max)
        edge = max(4.0 * cfg.step, 0.02 * trial_max)
        for i, eps in enumerate(eps_grid):
            rhs = eps + wnorm
            viol = lhs > rhs + TOL_SCALE * (1.0 + rhs)
            if np.any(viol):
                t_v = float(np.max(sargs[viol]))
                worst_T[i] = max(worst_T[i], t_v)
                if t_v >= trial_max - edge:
                    saturated[i] = True
    return [_ScanResult(T, sat, max_seen) for T, sat in zip(worst_T, saturated)]


def check_eps_delta_conditions(
    system: ImpulsiveSystem,
    gain: tuple[ComparisonFn, ComparisonFn] | None,
    family: ImpulseFamily,
    config: EpsDeltaConfig,
    budget: int = 32,
    seed: int = 0,
) -> tuple[CheckReport, CheckReport, CheckReport]:
    """Sample the three limit conditions behind the gain estimate.

    (i) boundedness: on each (T, r, s) cell the largest |x| over the
    samples with strong time at most T, from |x0| <= r and energy <= s.
    (ii) stability at zero: for each eps, a delta such that |x0| <= delta
    and energy <= delta kept every sample below eps; delta halves from 1
    until one works.  (iii) convergence: for each (r, eps), the largest
    strong time where alpha_tilde(|x|) still exceeded eps + energy;
    saturation of that threshold at the observable window is reported as
    violated.

    Every trial is `_limit_trial` on its own seed path, [seed, 11, cell,
    k] for (i), [seed, 22, eps index, level, k] for (ii) and [seed, 33,
    cell, k] for (iii), so no two trials share jump times; its t0 is
    uniform on [0, t0_max], or 0 without a draw when t0_max <= 0.  Items
    (i) and (ii) simulate only the samples they read: a trial of (i)
    stops at the first jump past its strong-time bound T, and a trial of
    (ii) with |x0| > eps fails unsimulated.  The reports are
    bit-identical to full-horizon runs.

    ``gain`` prices the sampled inputs' energy; None drives every trial
    with zero input.  ``budget`` is the number of trials per grid cell
    (per level for item ii).  Passing is sampling evidence; violations
    carry data.  ConfigError for a budget below 1, and OutOfRange for an
    empty grid, an eps that is not positive, a T or s that is negative,
    or an r that is negative or infinite (NaN in any grid too), or two
    values of one grid that print alike under :g, before anything is
    simulated: the report keys print grid values that way.
    """
    cfg = config
    if budget < 1:
        raise ConfigError("budget must be at least 1")
    if not all(len(grid) for grid in (cfg.T_grid, cfg.r_grid, cfg.s_grid, cfg.eps_grid)):
        raise OutOfRange("every grid needs at least one value")
    if not (
        all(eps > 0 for eps in cfg.eps_grid)
        and all(v >= 0 for v in (*cfg.T_grid, *cfg.s_grid))
        and all(0 <= r < math.inf for r in cfg.r_grid)
    ):
        raise OutOfRange("need eps > 0, T >= 0, s >= 0 and a finite r >= 0")
    # two values printing alike would share a report key, dropping a cell
    for name in ("T_grid", "r_grid", "s_grid", "eps_grid"):
        grid = getattr(cfg, name)
        if len({f"{v:g}" for v in grid}) < len(grid):
            raise OutOfRange(f"{name} has values that print alike (:g), so report keys collide")

    # item i: uniform bound over strong-time sublevels; every grid is
    # nonempty, so `cell` ends as the last cell's index
    c_grid = {}
    worst_i = -math.inf
    for cell, (T, r, s) in enumerate(itertools.product(cfg.T_grid, cfg.r_grid, cfg.s_grid)):
        cmax = 0.0
        for k in range(budget):
            path = [seed, 11, cell, k]
            norms, sargs, _ = _limit_trial(system, family, path, r, cfg, gain, s, T=T)
            mask = sargs <= T + 1e-12
            if np.any(mask):
                cmax = max(cmax, float(np.max(norms[mask])))
        c_grid[f"T={T:g},r={r:g},s={s:g}"] = cmax
        worst_i = max(worst_i, cmax)
    report_i = CheckReport(
        verdict="violated" if worst_i >= DIVERGENCE_RADIUS else "pass",
        kind="eps-delta-bounded",
        worst_margin=worst_i,
        trials=budget * (cell + 1),
        details={"C": c_grid},
    )

    # item ii: a delta for every eps
    verdict_ii = "pass"
    delta_map = {}
    trials_ii = 0
    for e_idx, eps in enumerate(cfg.eps_grid):
        for level in range(cfg.delta_levels):
            delta = 0.5**level
            for k in range(budget):
                path = [seed, 22, e_idx, level, k]
                norms, _, _ = _limit_trial(system, family, path, delta, cfg, gain, delta, eps=eps)
                trials_ii += 1
                if float(np.max(norms)) > eps:
                    break
            else:
                break  # every trial stayed below eps
        else:
            delta = None
            verdict_ii = "violated"
        delta_map[f"eps={eps:g}"] = delta
    report_ii = CheckReport(
        verdict=verdict_ii,
        kind="eps-delta-stability",
        worst_margin=0.0,
        trials=trials_ii,
        details={"delta": delta_map},
    )

    # item iii: settling of the gauge below eps + energy
    verdict_iii = "pass"
    t_map = {}
    sat_map = {}
    for cell, (r, eps) in enumerate(itertools.product(cfg.r_grid, cfg.eps_grid)):
        (scan,) = _gain_violation_scan(
            system, family, cfg.alpha_tilde, gain, r, (eps,), cfg, budget, [seed, 33, cell]
        )
        key = f"r={r:g},eps={eps:g}"
        t_map[key] = scan.threshold
        sat_map[key] = scan.saturated
        if scan.saturated:
            verdict_iii = "violated"
    report_iii = CheckReport(
        verdict=verdict_iii,
        kind="eps-delta-convergence",
        worst_margin=max(t_map.values()),
        trials=budget * (cell + 1),
        details={"T": t_map, "saturated": sat_map},
    )
    return report_i, report_ii, report_iii


@dataclass(frozen=True)
class SettlingConfig:
    """Trial set-up for settling estimates; a gain of None means zero input.

    OutOfRange for a t0_max or horizon that is NaN, infinite or negative,
    or a step that is not positive.
    """

    gain: tuple[ComparisonFn, ComparisonFn] | None = None
    t0_max: float = 0.0
    horizon: float = 12.0
    step: float = 1e-2

    def __post_init__(self):
        _check_fields(self, nonneg=("t0_max", "horizon"), positive=("step",))


@dataclass
class SettlingEstimate:
    value: float
    saturated: bool
    trials: int
    max_strong_time: float

    def __float__(self) -> float:
        return float(self.value)


def _settling_scans(
    system: ImpulsiveSystem,
    family: ImpulseFamily,
    alpha: ComparisonFn,
    r_grid,
    eps_grid,
    config: SettlingConfig,
    budget: int,
    seed: int,
) -> list[list[_ScanResult]]:
    """One `_gain_violation_scan` per r, over every eps, each on the seed
    path [seed, 44].  ConfigError for a budget below 1 and OutOfRange for
    an r or eps that is not positive (NaN too), before anything is
    simulated."""
    if budget < 1:
        raise ConfigError("budget must be at least 1")
    if not all(r > 0 for r in r_grid) or not all(eps > 0 for eps in eps_grid):
        raise OutOfRange("need r > 0 and eps > 0")
    eps_grid = [float(eps) for eps in eps_grid]
    return [
        _gain_violation_scan(
            system, family, alpha, config.gain, float(r), eps_grid, config, budget, [seed, 44]
        )
        for r in r_grid
    ]


def estimate_settling_time(
    system: ImpulsiveSystem,
    family: ImpulseFamily,
    alpha: ComparisonFn,
    r: float,
    eps: float,
    config: SettlingConfig = SettlingConfig(),
    budget: int = 64,
    seed: int = 0,
) -> SettlingEstimate:
    """Largest sampled strong time with alpha(|x|) above eps (+ energy).

    Raw sampling estimate: no smoothing across (r, eps).  A saturated
    result means violations persisted to the edge of the observable
    window, so no finite settling threshold was seen within budget.  It
    is the one-cell case of `settling_time_profile`, with the same
    trials, so it equals that profile's cell bit for bit.
    """
    [[scan]] = _settling_scans(system, family, alpha, (r,), (eps,), config, budget, seed)
    return SettlingEstimate(
        value=scan.threshold,
        saturated=scan.saturated,
        trials=budget,
        max_strong_time=scan.max_seen,
    )


def settling_time_profile(
    system: ImpulsiveSystem,
    family: ImpulseFamily,
    alpha: ComparisonFn,
    r_grid,
    eps_grid,
    config: SettlingConfig = SettlingConfig(),
    budget: int = 32,
    seed: int = 0,
) -> dict:
    """Settling estimates over a grid, with monotonicity flags.

    Each cell is `estimate_settling_time` of its (r, eps), bit for bit,
    but every eps of one r is read off the same simulated trials, so a
    row costs one scan.  ConfigError for a budget below 1, OutOfRange
    for an r or eps that is not positive.  The underlying quantity is
    nondecreasing in r and nonincreasing in eps; sampled estimates are
    reported raw and simply flagged when they wobble beyond the sampling
    tolerance, not adjusted.
    """
    scans = _settling_scans(system, family, alpha, r_grid, eps_grid, config, budget, seed)
    est = [[s.threshold for s in row] for row in scans]
    sat = [[s.saturated for s in row] for row in scans]
    arr = np.asarray(est, dtype=float).reshape(len(r_grid), len(eps_grid))
    band = 2.0 * config.step + 1e-9
    mono_r = bool(np.all(np.diff(arr, axis=0) >= -band)) if arr.shape[0] > 1 else True
    mono_eps = bool(np.all(np.diff(arr, axis=1) <= band)) if arr.shape[1] > 1 else True
    return {
        "r_grid": [float(r) for r in r_grid],
        "eps_grid": [float(e) for e in eps_grid],
        "estimates": [[float(v) for v in row] for row in est],
        "saturated": [[bool(v) for v in row] for row in sat],
        "monotone_in_r": mono_r,
        "monotone_in_eps": mono_eps,
        "tolerance": band,
        "note": "raw sampled estimates; wobble within tolerance is sampling noise",
    }
