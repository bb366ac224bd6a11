"""Hybrid simulation of impulsive and switched positive systems with delays.

Trajectories are integrated with fixed-step RK4 between impulse times
(method of steps).  The step h divides h_c and the timer restarts at
every jump, so one RK4 step of the linear delayed flow is a linear map
of the state, the three delayed reads x(t - h_c), x(t + h/2 - h_c),
x(t + h - h_c) and the three input samples w(t), w(t + h/2), w(t + h).
A per-run table holds that map for every mode (and every step index of
a dwell interval when the flow depends on the timer); only the last,
partial step of an interval gets a map of its own.  An interval is
walked in chunks of at most h_c/h - 1 steps, so every delayed read of a
chunk lies at or before its start: one sorted search over the history
(the samples plus the post-jump rows) reads them all by linear
interpolation, and the inputs are called once per distinct stage time.
The jump-count-delayed state x(t_{k - h_d}) comes from a buffer of
pre-jump samples.  Integration always lands exactly on each impulse
time; the jump map is applied to the left limit x(t_k) and the trace
continues from the post-jump value.  A switched system is a per-mode
list run along the modes of the dwell sequence.  Every run goes through
one engine: an interval-observer run is a plain run of one 3n-state
system on (x, x^-, x^+) that lifts the plant and its closed error system
from :func:`posimp.observer.error_system`.

The module also generates admissible dwell-time sequences for every
constraint kind, checks interval-observer enclosures sample by sample,
and estimates hybrid L1/l1 gains empirically from random bounded inputs
(a lower bound on the true gain, hence on any certified gamma).

Conventions documented here because the dynamics leave them open:
  * the delayed read at exactly an impulse time returns the left limit,
    and a read past the newest sample (by rounding, when h = h_c)
    returns that sample;
  * w_c is called once per distinct stage time: w(t + h) of a step also
    serves the output at t + h and the first stage of the next step;
  * the discrete disturbance w_d is evaluated at the jump index k
    (1-based, so the jump at t_1 consumes w_d(1));
  * x(t_{k-h_d}) is the pre-jump state at t_{k-h_d}, and phi0(0) while
    k <= h_d;
  * the delayed-state interpolation is linear, one order below RK4, so
    step-halving studies should use fixtures whose delayed coupling
    vanishes.
"""

from __future__ import annotations

import dataclasses
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
    _check_horizon(horizon)
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


def _check_horizon(horizon) -> None:
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    if not horizon > 0:
        raise ValueError("horizon must be positive")


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

    _check_horizon(horizon)
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
    seq = seq.covering(horizon)
    x = np.asarray(phi(0.0), dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"phi0(0) must have shape ({n},), got {x.shape}")

    # method of steps: every row time is known before the first step, the
    # history is the samples plus one post-jump row per jump, and a chunk
    # of steps reads the flow-delayed state only at or before its start
    ht, intervals = _schedule(seq, horizon, step)
    H = np.empty((len(ht), n))
    Z = np.empty((len(ht), sys.qc))
    H[0] = x
    chunk = max(1, round(h_c / step) - 1)
    tables = _step_tables(sysv, intervals, step)
    output = [np.hstack([m.Cc, m.Hc, m.Fc]) for m in sysv]
    w_prev = w_c(0.0) if pc else np.zeros(0)
    Z[0] = output[intervals[0][0]] @ np.concatenate([x, phi(-h_c), w_prev])
    jumps: list[JumpRecord] = []
    jump_pre: list[np.ndarray] = []  # jump_pre[k-1] = x(t_k) left limit

    for k, (mode, r0, steps, partial, jump) in enumerate(intervals):
        m = sysv[mode]
        Tx_tab, Tv_tab = tables[mode]
        for a in range(0, steps, chunk):
            r, c = r0 + a, min(chunk, steps - a)  # rows r+1..r+c are new
            t, t_next = ht[r:r + c], ht[r + 1:r + c + 1]
            dt = t_next - t
            s = np.column_stack([t - h_c, t + 0.5 * dt - h_c, t + dt - h_c])
            D = _read(ht[:r + 1], H[:r + 1], s.ravel(), phi).reshape(c, 3 * n)
            # w(t + h/2) and w(t + h) per step; w(t) is the last step's w(t + h)
            W = np.array([w_c(u) for u in np.column_stack([t + 0.5 * dt, t + dt]).ravel().tolist()]
                         if pc else []).reshape(c, 2 * pc)
            W = np.hstack([np.vstack([w_prev, W[:-1, pc:]]), W])
            w_prev = W[-1, 2 * pc:]
            idx = np.minimum(np.arange(a, a + c), len(Tx_tab) - 1)
            Tx, Tv = Tx_tab[idx], Tv_tab[idx]
            if partial and a + c == steps:
                Tx[-1], Tv[-1] = _step_map(m, float(t[-1] - ht[r0]), float(dt[-1]))
            X = H[r + 1:r + c + 1]
            # a diverging state ends the run with a SimulationError, not a
            # numpy warning; the caller's inputs and history are read above
            with np.errstate(over="ignore", invalid="ignore"):
                U = np.einsum("jik,jk->ji", Tv, np.hstack([D, W]))
                for j in range(c):
                    x = X[j] = Tx[j] @ x + U[j]
                if not np.isfinite(X).all():
                    bad = int(np.argmin(np.isfinite(X).all(axis=1)))
                    raise SimulationError(
                        f"state became non-finite at t={t_next[bad]:.6g}")
                Z[r + 1:r + c + 1] = np.hstack([X, D[:, 2 * n:], W[:, 2 * pc:]]) @ output[mode].T

        if not jump:
            break
        t_end = float(ht[r0 + steps + 1])
        kj = k + 1  # 1-based jump index at t_end
        if h_d == 0:
            x_kd = x  # x(t_{k-0}) is the current left limit
        elif kj - h_d >= 1:
            x_kd = jump_pre[kj - h_d - 1]
        else:
            x_kd = phi(0.0)
        wd = w_d(kj) if pd else None
        with np.errstate(over="ignore", invalid="ignore"):
            x_post = m.J @ x + m.Gd @ x_kd
            z_d = m.Cd @ x + m.Hd @ x_kd
            if pd:
                x_post = x_post + m.Ed @ wd
                z_d = z_d + m.Fd @ wd
        if not np.all(np.isfinite(x_post)):
            raise SimulationError(
                f"state became non-finite at t={t_end:.6g}")
        jumps.append(JumpRecord(kj, t_end, x, x_post, z_d))
        jump_pre.append(x)
        x = H[r0 + steps + 1] = x_post

    sample = np.ones(len(ht), dtype=bool)
    sample[[r0 for _, r0, *_ in intervals[1:]]] = False  # post-jump rows
    return SimulationTrace(ht[sample], H[sample], Z[sample], tuple(jumps),
                           step, float(requested), seq)


def _schedule(seq, horizon, h):
    """Row times of a run and its intervals (mode, start row, steps,
    whether the last step is partial, whether a jump ends it).  Steps of
    h run from each interval start; the last one is snapped onto the
    interval end, which is then a partial step."""
    times = seq.times
    rows, intervals = [0.0], []
    for k in range(len(seq.dwells)):
        t_start = float(times[k])
        if t_start >= horizon:
            break
        t_end = min(float(times[k + 1]), horizon)
        r0, t, partial = len(rows) - 1, t_start, False
        while t < t_end - 1e-12 * max(1.0, t_end):
            dt = min(h, t_end - t)
            snap = t_end - (t + dt) < 1e-12 * h
            partial = snap or dt < h
            t = t_end if snap else t + dt
            rows.append(t)
        jump = not (t_end >= horizon or t_end < float(times[k + 1]))
        intervals.append((seq.modes[k] if seq.modes else 0, r0, len(rows) - 1 - r0, partial, jump))
        if not jump:
            break
        rows.append(t_end)
    return np.array(rows), intervals


def _step_tables(sysv, intervals, h):
    """Per used mode, the stacked maps of full steps from timers 0, h,
    2h, ...: one map for a flow that does not depend on the timer, one per
    step index in a dwell interval otherwise."""
    count = {}
    for mode, _, steps, partial, _ in intervals:
        count[mode] = max(count.get(mode, 1), steps - partial)
    tables = {}
    for mode, num in count.items():
        m = sysv[mode]
        maps = [_step_map(m, i * h, h) for i in range(num if m.flow_degree else 1)]
        tables[mode] = tuple(np.array(T) for T in zip(*maps))
    return tables


def _step_map(sys, tau, h):
    """One RK4 step of the flow from timer tau as x+ = T_x x + T_v v, with
    v = (x(t - h_c), x(t + h/2 - h_c), x(t + h - h_c), w(t), w(t + h/2),
    w(t + h)): the stages applied to coefficient matrices over (x, v)."""
    n, p = sys.n, sys.pc
    stages = [[M.eval(tau + a * h) for M in (sys.A, sys.Gc, sys.Ec)] for a in (0.0, 0.5, 1.0)]

    def flow(s, y):
        A, G, E = stages[s]
        k = A @ y
        k[:, (s + 1) * n:(s + 2) * n] += G
        k[:, 4 * n + s * p:4 * n + (s + 1) * p] += E
        return k

    base = np.eye(n, 4 * n + 3 * p)
    k1 = flow(0, base)
    k2 = flow(1, base + 0.5 * h * k1)
    k3 = flow(1, base + 0.5 * h * k2)
    k4 = flow(2, base + h * k3)
    T = base + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return T[:, :n], T[:, n:]


def _read(ht, H, s, phi):
    """History rows (times ht, values H) at times s by linear
    interpolation: the left limit at a jump time, the newest row past the
    end, phi0(s) for s <= 0."""
    i = np.minimum(np.searchsorted(ht, s), len(ht) - 1)
    t0, t1 = ht[i - 1], ht[i]
    take = (s >= t1) | (s <= 0.0)
    w = np.where(take, 1.0, (s - t0) / np.where(take, 1.0, t1 - t0))
    out = (1.0 - w)[:, None] * H[i - 1] + w[:, None] * H[i]
    for r in np.flatnonzero(s <= 0.0):
        out[r] = phi(float(s[r]))
    return out


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
    if isinstance(K, core.TimerFunction):
        return core.TimerFunction(lambda tau: _lift(P.eval(tau), K.eval(tau)),
                                  (3 * K.shape[0], 3 * K.shape[1]))
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
    _check_horizon(horizon)
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
