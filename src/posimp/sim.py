"""Hybrid simulation of impulsive and switched positive systems with delays.

Trajectories are integrated with fixed-step RK4 between impulse times
(method of steps): the flow-delayed state x(t - h_c) is read from a
history ring buffer by linear interpolation, the jump-count-delayed state
x(t_{k - h_d}) from a buffer of pre-jump samples.  Integration always
lands exactly on each impulse time; the jump map is applied to the left
limit x(t_k) and the trace continues from the post-jump value.  A
switched system is a per-mode list run along the modes of the dwell
sequence.  Every run goes through one engine: an interval-observer run is
a plain run of one 3n-state system on (x, x^-, x^+) that lifts the plant
and its closed error system from :func:`posimp.observer.error_system`.

The module also generates admissible dwell-time sequences for every
constraint kind, checks interval-observer enclosures sample by sample,
and estimates hybrid L1/l1 gains empirically from random bounded inputs
(a lower bound on the true gain, hence on any certified gamma).

Conventions documented here because the dynamics leave them open:
  * the delayed read at exactly an impulse time returns the left limit;
  * the discrete disturbance w_d is evaluated at the jump index k
    (1-based, so the jump at t_1 consumes w_d(1));
  * x(t_{k-h_d}) is the pre-jump state at t_{k-h_d}, and phi0(0) while
    k <= h_d;
  * the delayed-state interpolation is linear, one order below RK4, so
    step-halving studies should use fixtures whose delayed coupling
    vanishes.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import core, delay, observer

__all__ = [
    "SimulationError", "DwellSequence", "JumpRecord", "SimulationTrace",
    "EnclosureReport", "simulate", "simulate_with_observer", "gen_sequence",
    "check_enclosure", "empirical_gain", "to_csv",
]


class SimulationError(RuntimeError):
    """Raised when a trajectory leaves the representable range."""


# ---------------------------------------------------------------------------
# dwell sequences


@dataclass(frozen=True)
class DwellSequence:
    """Impulse schedule: interval k spans [times[k], times[k] + dwells[k])
    and ends with a jump (or switch).  ``modes[k]`` is the mode active on
    interval k for switched runs.  ``repeats`` marks the dwell pattern as
    repeating beyond the listed intervals (periodic-constraint output).
    """

    dwells: tuple
    modes: tuple | None = None
    repeats: bool = False

    @classmethod
    def build(cls, dwells, modes=None, repeats=False) -> "DwellSequence":
        dwells = tuple(float(T) for T in dwells)
        if not dwells:
            raise ValueError("need at least one dwell time")
        if any(not math.isfinite(T) or T <= 0.0 for T in dwells):
            raise ValueError("dwell times must be positive and finite")
        if modes is not None:
            modes = tuple(int(m) for m in modes)
            if len(modes) != len(dwells):
                raise ValueError(
                    f"got {len(modes)} modes for {len(dwells)} dwell times")
            if any(m < 0 for m in modes):
                raise ValueError("mode indices must be nonnegative")
        return cls(dwells, modes, bool(repeats))

    @property
    def times(self) -> np.ndarray:
        """Interval start times followed by the final jump time."""
        return np.concatenate([[0.0], np.cumsum(self.dwells)])

    @property
    def pairs(self) -> tuple:
        """(t_k, T_k) pairs: interval start and duration."""
        t = self.times
        return tuple((float(t[k]), self.dwells[k])
                     for k in range(len(self.dwells)))

    def covering(self, horizon: float) -> "DwellSequence":
        """This sequence extended to cover [0, horizon], tiling the
        pattern when it repeats; error when it cannot cover."""
        total = sum(self.dwells)
        if total >= horizon:
            return self
        if not self.repeats:
            raise ValueError(
                f"dwell sequence covers {total:.6g} < horizon {horizon:.6g} "
                "and is not flagged as repeating")
        reps = int(math.ceil(horizon / total))
        modes = None if self.modes is None else self.modes * reps
        return DwellSequence(self.dwells * reps, modes, True)


def gen_sequence(constraint, horizon: float, seed: int, *,
                 n_modes: int | None = None) -> DwellSequence:
    """Random admissible dwell sequence covering [0, horizon].

    Range draws i.i.d. uniform dwells from [tmin, tmax]; Minimum from
    [tbar, 3 tbar].  The periodic kinds draw one block beta_0..beta_{q-1}
    with the required sum h_c/alpha (uniform draws projected onto the sum
    constraint) and repeat it; validate_periodic_sequence accepts the
    result.  With ``n_modes`` a mode is attached to every interval --
    i.i.d. uniform for the non-periodic kinds, a repeating pattern of
    length q for the periodic ones.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)

    if isinstance(constraint, core.Range):
        lo, hi = constraint.tmin, constraint.tmax
        dwells = _draw_until(rng, lo, hi, horizon)
        modes = None if n_modes is None else rng.integers(0, n_modes,
                                                          len(dwells))
        return DwellSequence.build(dwells, modes)

    if isinstance(constraint, core.Minimum):
        lo = constraint.tbar
        dwells = _draw_until(rng, lo, 3.0 * lo, horizon)
        modes = None if n_modes is None else rng.integers(0, n_modes,
                                                          len(dwells))
        return DwellSequence.build(dwells, modes)

    if isinstance(constraint, (core.PeriodicRange, core.PeriodicMinimum)):
        if isinstance(constraint, core.PeriodicRange):
            lo, hi = constraint.tmin, constraint.tmax
        else:
            lo, hi = constraint.tbar, np.inf
        q, target = constraint.q, constraint.period_sum
        if q * lo > target * (1 + 1e-12) or q * min(hi, target) < target:
            raise ValueError(
                f"no q={q} dwell times in [{lo:.6g}, {hi:.6g}] can sum to "
                f"{target:.6g}")
        beta = _draw_block(rng, q, lo, hi, target)
        reps = int(math.ceil(horizon / target))
        dwells = np.tile(beta, reps)
        modes = None
        if n_modes is not None:
            modes = np.tile(rng.integers(0, n_modes, q), reps)
        return DwellSequence.build(dwells, modes, repeats=True)

    raise TypeError(
        f"unsupported dwell-time constraint {type(constraint).__name__}")


def _draw_until(rng, lo, hi, horizon):
    dwells, total = [], 0.0
    while total < horizon:
        T = float(rng.uniform(lo, hi))
        dwells.append(T)
        total += T
    return dwells


def _draw_block(rng, q, lo, hi, target):
    """q dwells in [lo, hi] summing exactly to target: uniform draws,
    alternating projection onto the sum constraint and the box."""
    draw_hi = hi if np.isfinite(hi) else max(3.0 * lo, target)
    beta = rng.uniform(lo, draw_hi, q)
    for _ in range(200):
        beta = beta + (target - beta.sum()) / q
        np.clip(beta, lo, hi, out=beta)
        if abs(beta.sum() - target) <= 1e-13 * max(1.0, target):
            break
    # push the residual through the entries that still have slack
    residual = target - beta.sum()
    free = ((beta > lo) | (residual > 0)) & ((beta < hi) | (residual < 0))
    if residual and free.any():
        beta[free] += residual / free.sum()
    return np.clip(beta, lo, hi)


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class JumpRecord:
    """One applied jump: 1-based index, time, left limit, post state, and
    the discrete output sample (empty when the system has none)."""
    index: int
    time: float
    x_pre: np.ndarray
    x_post: np.ndarray
    z_d: np.ndarray


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled hybrid trajectory.  ``x[i]`` is the state at ``t[i]``; the
    sample at an impulse time is the left limit, the post-jump value
    opens the next interval (so ``t`` stays strictly increasing).  For
    observer runs ``xminus``/``xplus`` hold the framer pair and ``z_c``
    the weighted bracket width."""

    t: np.ndarray
    x: np.ndarray
    z_c: np.ndarray
    jumps: tuple
    step: float
    requested_step: float
    seq: DwellSequence
    xminus: np.ndarray | None = None
    xplus: np.ndarray | None = None

    @property
    def z_d(self) -> np.ndarray:
        if not self.jumps:
            return np.zeros((0, 0))
        return np.stack([j.z_d for j in self.jumps])

    @property
    def jump_times(self) -> np.ndarray:
        return np.array([j.time for j in self.jumps])


def to_csv(trace: SimulationTrace, path) -> None:
    """Write the trace as CSV: t, x_1..x_n, then xminus_*/xplus_* columns
    for observer runs.  Fixed %.17g formatting keeps output deterministic.
    """
    n = trace.x.shape[1]
    cols = ["t"] + [f"x_{i + 1}" for i in range(n)]
    blocks = [trace.t[:, None], trace.x]
    if trace.xminus is not None:
        cols += [f"xminus_{i + 1}" for i in range(n)]
        cols += [f"xplus_{i + 1}" for i in range(n)]
        blocks += [trace.xminus, trace.xplus]
    np.savetxt(path, np.hstack(blocks), delimiter=",", fmt="%.17g",
               header=",".join(cols), comments="")


# ---------------------------------------------------------------------------
# integration engine


def _adjust_step(step: float, h_c: float, min_dwell: float) -> float:
    """Largest step <= the request that divides h_c exactly and is at
    most a quarter of the shortest dwell."""
    if not step > 0:
        raise ValueError("step must be positive")
    cap = min(step, min_dwell / 4.0, h_c)
    return h_c / int(math.ceil(h_c / cap - 1e-12))


class _History:
    """Ring buffer of (t, x) samples with linear interpolation.  Reads at
    a duplicated sample time return the earlier entry (the left limit)."""

    def __init__(self, phi):
        self.phi = phi
        self.ts: list[float] = []
        self.xs: list[np.ndarray] = []

    def append(self, t, x):
        self.ts.append(t)
        self.xs.append(x)

    def prune(self, before):
        cut = bisect.bisect_left(self.ts, before) - 1
        if cut > 0:
            del self.ts[:cut]
            del self.xs[:cut]

    def read(self, s):
        if s <= 0.0:
            return self.phi(s)
        i = bisect.bisect_left(self.ts, s)
        if i < len(self.ts) and self.ts[i] == s:
            return self.xs[i]
        t0, t1 = self.ts[i - 1], self.ts[i]
        w = (s - t0) / (t1 - t0)
        return (1.0 - w) * self.xs[i - 1] + w * self.xs[i]


def _input_fn(fn, width, name):
    if fn is None:
        zero = np.zeros(width)
        return lambda _t: zero
    if not callable(fn):
        raise ValueError(f"{name} must be callable or None")

    def wrapped(arg):
        v = np.atleast_1d(np.asarray(fn(arg), dtype=float))
        if v.shape != (width,):
            raise ValueError(
                f"{name} returned shape {v.shape}, expected ({width},)")
        return v

    return wrapped


def _as_phi(phi0, n):
    if phi0 is None:
        zero = np.zeros(n)
        return lambda _s: zero
    if not callable(phi0):
        raise ValueError("initial history must be callable or None")
    return lambda s: np.atleast_1d(np.asarray(phi0(s), dtype=float))


def _stacked(fns):
    return lambda arg: np.concatenate([f(arg) for f in fns])


# ---------------------------------------------------------------------------
# plain simulation


def simulate(sys, seq: DwellSequence, w_c=None, w_d=None, *,
             horizon: float, step: float | None = None,
             phi0=None) -> SimulationTrace:
    """Integrate a delayed impulsive system (or a per-mode list of them,
    switched by ``seq.modes``) over [0, horizon].

    ``w_c(t)`` and ``w_d(k)`` are the continuous and discrete
    disturbances (None means zero); ``phi0`` overrides the system's
    initial history.  The step is adjusted down to divide h_c exactly
    and to stay below a quarter of the shortest dwell; the adjustment
    is reported with a warning and recorded on the trace.
    """
    return _simulate(sys, seq, w_c, w_d, horizon, step, phi0)


def _simulate(sys, seq, w_c, w_d, horizon, step, phi0) -> SimulationTrace:
    """The engine of :func:`simulate` and :func:`simulate_with_observer`.
    Observer runs call it directly, so they are not also calls of
    ``simulate`` to anything that wraps that name."""
    sysv = list(sys) if isinstance(sys, (list, tuple)) else [sys]
    if isinstance(sys, (list, tuple)):
        if len(sysv) < 1:
            raise ValueError("need at least one mode system")
        if seq.modes is None:
            raise ValueError("mode list given but seq carries no modes")
        if max(seq.modes) >= len(sysv):
            raise ValueError(
                f"seq uses mode {max(seq.modes)} but only {len(sysv)} "
                "systems were given")
        if any(m.h_c != sysv[0].h_c for m in sysv):
            raise ValueError("all modes must share the flow delay h_c")
        if any((m.n, m.qc, m.pc) != (sysv[0].n, sysv[0].qc, sysv[0].pc) for m in sysv):
            raise ValueError("all modes must share state/channel widths")
    sys = sysv[0]

    if not horizon > 0:
        raise ValueError("horizon must be positive")
    n, pc, pd, h_c, h_d = sys.n, sys.pc, sys.pd, sys.h_c, sys.h_d
    requested = step if step is not None else min(h_c, min(seq.dwells)) / 16.0
    h = _adjust_step(requested, h_c, min(seq.dwells))
    if step is not None and h < step * (1.0 - 1e-12):
        # stacklevel 3: the caller of simulate / simulate_with_observer
        warnings.warn(f"step adjusted from {step:.6g} to {h:.6g} to divide "
                      "h_c and respect the shortest dwell", stacklevel=3)
    step = h

    w_c = _input_fn(w_c, pc, "w_c")
    w_d = _input_fn(w_d, pd, "w_d")
    phi = _as_phi(phi0 if phi0 is not None else sys.phi0, n)
    mats = [_flow_mats(m) for m in sysv]

    def flow(mode, t, tau, x, xd):
        A, Gc, Ec = mats[mode]
        dx = A(tau) @ x + Gc(tau) @ xd
        if pc:
            dx = dx + Ec(tau) @ w_c(t)
        return dx

    def output(m, t, x, xd):
        z = m.Cc @ x + m.Hc @ xd
        if pc:
            z = z + m.Fc @ w_c(t)
        return z

    # method of steps: RK4 between impulse times, the flow-delayed state
    # read from the history, the jump-count-delayed one from jump_pre
    seq = seq.covering(horizon)
    times = seq.times
    hist = _History(phi)
    x = np.asarray(phi(0.0), dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"phi0(0) must have shape ({n},), got {x.shape}")
    hist.append(0.0, x)

    ts = [0.0]
    xs = [x]
    zs = [output(sysv[seq.modes[0] if seq.modes else 0], 0.0, x, hist.read(-h_c))]
    jumps: list[JumpRecord] = []
    jump_pre: list[np.ndarray] = []  # jump_pre[k-1] = x(t_k) left limit

    for k in range(len(seq.dwells)):
        t_start = float(times[k])
        if t_start >= horizon:
            break
        t_end = min(float(times[k + 1]), horizon)
        mode = seq.modes[k] if seq.modes else 0
        m = sysv[mode]
        t = t_start
        while t < t_end - 1e-12 * max(1.0, t_end):
            h = min(step, t_end - t)
            t_next = t_end if t_end - (t + h) < 1e-12 * step else t + h
            h = t_next - t
            tau = t - t_start

            k1 = flow(mode, t, tau, x, hist.read(t - h_c))
            xm = hist.read(t + 0.5 * h - h_c)
            k2 = flow(mode, t + 0.5 * h, tau + 0.5 * h, x + 0.5 * h * k1, xm)
            k3 = flow(mode, t + 0.5 * h, tau + 0.5 * h, x + 0.5 * h * k2, xm)
            xe = hist.read(t + h - h_c)
            k4 = flow(mode, t + h, tau + h, x + h * k3, xe)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

            if not np.all(np.isfinite(x)):
                raise SimulationError(
                    f"state became non-finite at t={t_next:.6g}")
            t = t_next
            hist.append(t, x)
            hist.prune(t - h_c - 2.0 * step)
            ts.append(t)
            xs.append(x)
            zs.append(output(m, t, x, xe))

        if t_end >= horizon or t_end < float(times[k + 1]):
            break
        kj = k + 1  # 1-based jump index at t_end
        if h_d == 0:
            x_kd = x  # x(t_{k-0}) is the current left limit
        elif kj - h_d >= 1:
            x_kd = jump_pre[kj - h_d - 1]
        else:
            x_kd = phi(0.0)
        x_post = m.J @ x + m.Gd @ x_kd
        z_d = m.Cd @ x + m.Hd @ x_kd
        if pd:
            wd = w_d(kj)
            x_post = x_post + m.Ed @ wd
            z_d = z_d + m.Fd @ wd
        if not np.all(np.isfinite(x_post)):
            raise SimulationError(
                f"state became non-finite at t={t_end:.6g}")
        jumps.append(JumpRecord(kj, t_end, x, x_post, z_d))
        jump_pre.append(x)
        x = x_post
        hist.append(t_end, x)

    return SimulationTrace(np.array(ts), np.stack(xs), np.stack(zs), tuple(jumps),
                           step, float(requested), seq)


def _flow_mats(sys):
    """Per-mode flow matrix evaluators; constant blocks are bound once."""
    def fixed(M):
        return lambda _tau: M

    if sys.flow_degree == 0:
        return (fixed(sys.A.eval(0.0)), fixed(sys.Gc.eval(0.0)),
                fixed(sys.Ec.eval(0.0)))
    return (sys.A.eval, sys.Gc.eval, sys.Ec.eval)


# ---------------------------------------------------------------------------
# observer runs


def simulate_with_observer(plant, gains, seq: DwellSequence, *,
                           w_c=None, w_d=None, phi0=None, phi0_minus=None,
                           phi0_plus=None, horizon: float,
                           step: float | None = None,
                           w_c_bounds=None, w_d_bounds=None
                           ) -> SimulationTrace:
    """Joint run of the plant and its interval observer pair.

    The framers integrate the plant model driven by the measured output
    and the known disturbance brackets: the lower one replaces w by its
    lower bound, the upper one by its upper bound, each corrected through
    the injection gain.  Ordered initial histories phi0_minus <= phi0 <=
    phi0_plus give x^-(t) <= x(t) <= x^+(t) whenever the closed error
    dynamics are internally positive.  ``gains`` takes every gain form of
    :func:`posimp.observer.error_system`, one per mode for switched
    plants.  Bounds default to the ones stored on the plant; ``z_c`` holds
    the weighted bracket width M_c (x^+ - x^-).

    The pair runs as one 3n-state delayed system on (x, x^-, x^+), see
    :func:`_framers`, through the engine of :func:`simulate`.
    """
    if phi0_minus is None or phi0_plus is None:
        raise ValueError("observer runs need phi0_minus and phi0_plus")
    closed = observer.error_system(plant, gains)
    if isinstance(plant, observer.SwitchedPlant):
        framers = [_framers(P, K) for P, K in zip(observer.error_system(plant), closed)]
        pc, pd = plant.p, 0
    else:
        framers = _framers(observer.error_system(plant), closed)
        pc, pd = plant.pc, plant.pd

    cb = w_c_bounds if w_c_bounds is not None else getattr(plant, "w_c_bounds", None)
    db = w_d_bounds if w_d_bounds is not None else getattr(plant, "w_d_bounds", None)
    w = [_input_fn(f, pc, name) for f, name in zip(
        (w_c, *(cb or (None, None))), ("w_c", "w_c lower bound", "w_c upper bound"))]
    if np.any(w[1](0.0) > w[0](0.0)) or np.any(w[0](0.0) > w[2](0.0)):
        raise ValueError("disturbance leaves its declared bounds at t=0")
    d = [_input_fn(f, pd, name) for f, name in zip(
        (w_d, *(db or (None, None))), ("w_d", "w_d lower bound", "w_d upper bound"))]
    phi = _stacked([_as_phi(f, plant.n) for f in (phi0, phi0_minus, phi0_plus)])

    trace = _simulate(framers, seq, _stacked(w), _stacked(d), horizon, step, phi)
    x, xminus, xplus = np.split(trace.x, 3, axis=1)
    return dataclasses.replace(trace, x=x, xminus=xminus, xplus=xplus)


def _framers(P, K) -> delay.DelaySystem:
    """The plant P (its error system at zero gain) and the framers of the
    closed error system K as one delayed system on (x, x^-, x^+): each
    framer is its plant copy corrected by L (y^-/+ - y), so every block
    lifts to [[P, 0, 0], [P - K, K, 0], [P - K, 0, K]].  The inputs are
    (w, w_lo, w_hi) and the output is the bracket width [0, -M, M] x."""
    M = K.Cc
    return delay.DelaySystem.build(
        **{b: _lift(getattr(P, b), getattr(K, b)) for b in ("A", "Gc", "Ec", "J", "Gd", "Ed")},
        Cc=np.hstack([np.zeros_like(M), -M, M]), h_c=K.h_c, h_d=K.h_d)


def _lift(P, K):
    if isinstance(K, core.TimerFunction):  # RK4 stages 2 and 3 share one timer value
        return core.TimerFunction(functools.lru_cache(maxsize=1)(
            lambda tau: _lift(P.eval(tau), K.eval(tau))), (3 * K.shape[0], 3 * K.shape[1]))
    if isinstance(K, core.TimerMatrixFunction):
        return core.TimerMatrixFunction([_lift(p, k) for p, k in itertools.zip_longest(
            P.coeffs, K.coeffs, fillvalue=np.zeros(K.shape))])
    n, m = K.shape
    out = np.zeros((3 * n, 3 * m))
    out[:n, :m] = P
    out[n:2 * n, :m] = out[2 * n:, :m] = P - K
    out[n:2 * n, m:2 * m] = out[2 * n:, 2 * m:] = K
    return out


# ---------------------------------------------------------------------------
# enclosure checking


@dataclass(frozen=True)
class EnclosureReport:
    """Outcome of a componentwise x^- <= x <= x^+ scan over a trace."""
    holds: bool
    time: float | None = None
    component: str | None = None
    margin: float | None = None


def check_enclosure(trace: SimulationTrace,
                    tol: float = 1e-9) -> EnclosureReport:
    """First violation (in time) of the interval enclosure, if any."""
    if trace.xminus is None or trace.xplus is None:
        raise ValueError("trace does not carry framer samples")
    low = trace.xminus - trace.x
    high = trace.x - trace.xplus
    bad = np.maximum(low, high)
    rows = np.nonzero(np.any(bad > tol, axis=1))[0]
    if rows.size == 0:
        return EnclosureReport(True)
    r = int(rows[0])
    i = int(np.argmax(bad[r]))
    side = "xminus" if low[r, i] >= high[r, i] else "xplus"
    return EnclosureReport(False, float(trace.t[r]),
                           f"x[{i}] vs {side}[{i}]", float(bad[r, i]))


# ---------------------------------------------------------------------------
# empirical gain


def empirical_gain(sys, constraint, *, n_trials: int = 64, seed: int = 0,
                   horizon: float | None = None,
                   step: float | None = None) -> float:
    """Monte-Carlo lower bound on the hybrid L1/l1 gain.

    Each trial draws an admissible dwell sequence and random bounded
    finite-support inputs (piecewise-constant w_c on the RK4 grid with
    entries uniform in [-1, 1] scaled to unit L1 norm; w_d uniform per
    jump), simulates from zero initial conditions, and evaluates

        (||z_c||_L1 + ||z_d||_l1) / (||w_c||_L1 + ||w_d||_l1).

    Trials alternate between joint, continuous-only and discrete-only
    excitation; zero-input trials are skipped.  The maximum ratio over
    trials is returned -- always at most the true gain, hence at most
    any sound certified gamma (up to discretization error).
    """
    moded = isinstance(sys, (list, tuple))
    base = sys[0] if moded else sys
    if isinstance(constraint, core.Range):
        lo, hi = constraint.tmin, constraint.tmax
    elif isinstance(constraint, core.Minimum):
        lo, hi = constraint.tbar, 3.0 * constraint.tbar
    elif isinstance(constraint, (core.PeriodicRange, core.PeriodicMinimum)):
        lo = getattr(constraint, "tmin", getattr(constraint, "tbar", 1.0))
        hi = getattr(constraint, "tmax", constraint.period_sum)
    else:
        raise TypeError(
            f"unsupported dwell-time constraint {type(constraint).__name__}")
    if horizon is None:
        horizon = 50.0 * max(lo, hi)
    h = _adjust_step(step if step is not None else min(base.h_c, lo) / 8.0,
                     base.h_c, lo)

    pc, pd = base.pc, base.pd
    rng = np.random.default_rng(seed)
    trapz = getattr(np, "trapezoid", None) or np.trapz
    support = 0.5 * horizon
    ncells = int(math.ceil(support / h))
    best = 0.0

    for trial in range(n_trials):
        seq = gen_sequence(constraint, horizon, int(rng.integers(2 ** 31)),
                           n_modes=len(sys) if moded else None)
        kind = trial % 3  # 0: both channels, 1: continuous, 2: discrete
        use_c = pc > 0 and kind != 2
        use_d = pd > 0 and kind != 1
        if not use_c and pd > 0:
            use_d = True
        if not use_d and pc > 0:
            use_c = True

        denom = 0.0
        if use_c:
            Wc = rng.uniform(-1.0, 1.0, (ncells, pc))
            l1 = h * np.abs(Wc).sum()
            if l1 > 0:
                Wc /= l1
                denom += 1.0
        else:
            Wc = np.zeros((ncells, pc))

        jump_times = seq.covering(horizon).times[1:]
        K = int(np.sum(jump_times < horizon))
        if use_d and K:
            Wd = rng.uniform(-1.0, 1.0, (K, pd))
            Wd[jump_times[:K] > support] = 0.0
            denom += float(np.abs(Wd).sum())
        else:
            Wd = np.zeros((K, pd))
        if denom <= 0.0:
            continue  # zero-input trial

        def w_c(t, Wc=Wc):
            i = int(t / h)
            return Wc[i] if i < ncells else np.zeros(pc)

        def w_d(k, Wd=Wd):
            return Wd[k - 1] if k - 1 < len(Wd) else np.zeros(pd)

        trace = simulate(list(sys) if moded else sys, seq,
                         w_c if pc else None, w_d if pd else None,
                         horizon=horizon, step=h)
        num = float(trapz(np.abs(trace.z_c).sum(axis=1), trace.t))
        if trace.jumps:
            num += float(np.abs(trace.z_d).sum())
        best = max(best, num / denom)
    return best
