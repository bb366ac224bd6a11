"""Hybrid simulation of impulsive and switched positive systems with delays.

Trajectories are integrated with fixed-step RK4 between impulse times
(method of steps).  The step h divides h_c and the timer restarts at
every jump, so one RK4 step of the linear delayed flow is a linear map
of the state, the three delayed reads x(t - h_c), x(t + h/2 - h_c),
x(t + h - h_c) and the three input samples w(t), w(t + h/2), w(t + h).

Per run, before the first step: the row times (the samples and one
post-jump row per jump); the step maps, indexed by step: per mode one
full-step map for a flow that does not depend on the timer and one per
step index of a dwell interval otherwise, then one map per partial last
step (for a constant flow all from the degree-4 polynomial of the map in
h, in one batch); the two rows and the weight of every delayed read; and
every input value, each shape-checked: w_c on all stage times, w_d on
all jump indices, phi0 on 0, -h_c and every read at or before 0.  The
steps are walked in chunks of at most h_c/h - 1 steps, across jumps, so
a chunk's reads are clamped to its start row and touch only rows written
before it.  Per chunk: one interpolation of the reads, one product of
the maps with the reads and inputs, one finiteness check.  Per row: the
state recurrence, and at a jump the jump map on the left limit x(t_k),
with x(t_{k - h_d}) from its pre-jump row.  After the last chunk, per
run: the outputs, one product per mode, and the jump records.  A
switched system is a per-mode list run along the modes of the dwell
sequence; an interval-observer run is a plain run of one 3n-state
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
  * w_c is called once per distinct stage time, in increasing order:
    w(t + h) of a step also serves the output at t + h and the first
    stage of the next step;
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
        pattern when it repeats; error when it cannot cover, or would need
        more than MAX_INTERVALS intervals."""
        total = sum(self.dwells)
        if total >= horizon:
            return self
        if not self.repeats:
            raise ValueError(
                f"dwell sequence covers {total:.6g} < horizon {horizon:.6g} "
                "and is not flagged as repeating")
        _check_intervals(horizon, min(self.dwells))
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
    elif isinstance(constraint, core.PeriodicMinimum):
        lo, hi = constraint.tbar, np.inf
    elif isinstance(constraint, core.Minimum):
        lo, hi = constraint.tbar, 3.0 * constraint.tbar
    else:
        raise TypeError(
            f"unsupported dwell-time constraint {type(constraint).__name__}")
    _check_intervals(horizon, lo)
    if not isinstance(constraint, core.Periodic):
        dwells = _draw_until(rng, lo, hi, horizon)
        modes = None if n_modes is None else rng.integers(0, n_modes, len(dwells))
        return DwellSequence.build(dwells, modes)

    q, target = constraint.q, constraint.period_sum  # the constructor checked they can sum
    beta = _draw_block(rng, q, lo, hi, target)
    reps = int(math.ceil(horizon / target))
    modes = None if n_modes is None else np.tile(rng.integers(0, n_modes, q), reps)
    return DwellSequence.build(np.tile(beta, reps), modes, repeats=True)


def _check_horizon(horizon) -> None:
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    if not horizon > 0:
        raise ValueError("horizon must be positive")


#: Most dwell intervals a run may need: a horizon longer than that many
#: shortest dwells is an error before any dwell is drawn or tiled.
MAX_INTERVALS = 10**7


def _check_intervals(horizon: float, shortest: float) -> None:
    if horizon / shortest > MAX_INTERVALS:
        raise ValueError(
            f"horizon {horizon:.6g} spans up to {horizon / shortest:.3g} dwell intervals of "
            f"{shortest:.6g}; at most {MAX_INTERVALS:,} are simulated")


#: Most rows (samples and post-jump rows) a run may have.  A run is planned
#: in full before its first step, at some hundreds of bytes a row, so one
#: that could need more is an error before any row is laid out.
MAX_ROWS = 10**6


def _check_rows(seq, horizon: float, h: float) -> None:
    """At most horizon / h whole steps, one more per interval for its last
    step and one post-jump row per jump."""
    rows = horizon / h + 2 * int(np.searchsorted(seq.times, horizon)) + 1
    if rows > MAX_ROWS:
        raise ValueError(
            f"horizon {horizon:.6g} at step {h:.6g} takes up to {rows:.3g} rows; "
            f"at most {MAX_ROWS:,} are simulated")


def _draw_until(rng, lo, hi, horizon):
    """Uniform dwells in [lo, hi] until they cover the horizon, as one draw
    at a time would give them.  No sum of ceil(R/hi) - 2 draws reaches the
    remainder R, with a whole dwell to spare for rounding."""
    blocks, total = [], 0.0
    while total < horizon:
        block = rng.uniform(lo, hi, max(1, math.ceil((horizon - total) / hi) - 1))
        total = float(np.add.accumulate(np.concatenate([[total], block]))[-1])
        blocks.append(block)
    return np.concatenate(blocks)


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
    """The sampler of ``fn``: a list of arguments in, the (len, width)
    array of values out, each value shape-checked; None samples zeros."""
    if fn is None:
        return lambda args: np.zeros((len(args), width))
    if not callable(fn):
        raise ValueError(f"{name} must be callable or None")

    def sample(args):
        vals = [fn(a) for a in args]
        try:  # one conversion when all values have the same shape
            out = np.array(vals, dtype=float)
            if out.shape[1:] == (width,) or (width == 1 and out.ndim == 1):
                return out.reshape(len(vals), width)
        except ValueError:  # scalars mixed with arrays
            pass
        vals = [np.atleast_1d(np.asarray(v, dtype=float)) for v in vals]
        for v in vals:
            if v.shape != (width,):
                raise ValueError(f"{name} returned shape {v.shape}, expected ({width},)")
        return np.array(vals).reshape(len(vals), width)

    return sample


def _stacked(samplers):
    return lambda args: np.hstack([f(args) for f in samplers])


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
    sysv = _modes(sys, seq)
    m = sysv[0]
    return _simulate(sysv, seq, _input_fn(w_c, m.pc, "w_c"), _input_fn(w_d, m.pd, "w_d"),
                     _input_fn(phi0 if phi0 is not None else m.phi0, m.n, "phi0"),
                     horizon, step)


def _modes(sys, seq) -> list:
    """The mode systems of a run: [sys], or a per-mode list checked against seq."""
    if not isinstance(sys, (list, tuple)):
        return [sys]
    sysv = list(sys)
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
    return sysv


def _simulate(sysv, seq, w_c, w_d, phi, horizon, step) -> SimulationTrace:
    """The engine of :func:`simulate` and :func:`simulate_with_observer` on
    mode systems and samplers.  Observer runs call it directly, so they are
    not also calls of ``simulate`` to anything that wraps that name."""
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
    seq = seq.covering(horizon)
    _check_rows(seq, horizon, step)

    # the plan: the steps of the run are walked in chunks of at most
    # h_c/h - 1, across jumps; each delayed read is clamped to its chunk's
    # start row and interpolates two rows of G, phi0 samples first, then
    # the history
    ht, intervals = _schedule(seq, horizon, step)
    chunk = max(1, round(h_c / step) - 1)
    modes, r0, counts, partial, jump = (np.array(c) for c in zip(*intervals))
    first = np.cumsum(counts) - counts  # the first step of each interval
    last = first + counts - 1
    i = np.arange(counts.sum()) - np.repeat(first, counts)
    rows = np.repeat(r0, counts) + i  # step -> start row
    jr = rows[last[jump]] + 1  # the left-limit row of each jump, its post-jump row next
    t, dt = ht[rows], ht[rows + 1] - ht[rows]
    stage = np.column_stack([t + 0.5 * dt, t + dt])
    s = (np.column_stack([t, stage]) - h_c).ravel()
    k = np.minimum(np.searchsorted(ht, s), np.repeat(rows[::chunk], 3 * chunk)[:len(s)])
    past = s <= 0.0
    take = (s >= ht[k]) | past
    w = np.where(take, 1.0, (s - ht[k - 1]) / np.where(take, 1.0, ht[k] - ht[k - 1]))
    P = phi([0.0, -h_c, *s[past].tolist()])
    ia, ib = np.maximum(k - 1, 0) + len(P), k + len(P)
    ia[past] = ib[past] = 2 + np.arange(len(P) - 2)
    # w(t) of a step is w(t + h) of the step before, w(0) for the first
    Ws = w_c([0.0, *stage.ravel().tolist()]) if pc else np.zeros((2 * len(t) + 1, 0))
    Wf = np.hstack([Ws[:-1:2], Ws[1::2], Ws[2::2]])
    Wd = w_d(range(1, len(jr) + 1)) if pd else np.zeros((len(jr), 0))
    mode, cut = np.repeat(modes, counts), np.zeros(len(t), dtype=bool)
    cut[last[partial]] = True
    TX, TV, index = _step_maps(sysv, step, mode, i, t - ht[np.repeat(r0, counts)], dt, cut)

    G = np.vstack([P, P[:1], np.full((len(ht) - 1, n), np.nan)])  # phi0, history (NaN unwritten)
    H, x = G[len(P):], P[0]
    bound = np.append(rows, len(ht) - 1)
    jump_maps = [(sysv[md].J, sysv[md].Gd, sysv[md].Ed) for md in modes[jump].tolist()]
    at, kj = [*jr.tolist(), -1], 0
    # a diverging state ends the run with a SimulationError, not a numpy
    # warning (the caller's callables ran before the loop)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, len(t), chunk):  # steps a..b-1 write rows bound[a]+1..bound[b]
            b = min(a + chunk, len(t))
            g = slice(3 * a, 3 * b)
            D = ((1.0 - w[g])[:, None] * G[ia[g]] + w[g][:, None] * G[ib[g]]).reshape(b - a, 3 * n)
            U = np.einsum("jik,jk->ji", TV[index[a:b]], np.hstack([D, Wf[a:b]]))
            for e, T, u in zip((rows[a:b] + 1).tolist(), TX[index[a:b]], U):
                x = H[e] = T.dot(x) + u
                if e == at[kj]:
                    # x(t_{k-h_d}): the current left limit when h_d = 0, phi0(0) while k <= h_d
                    J, Gd, Ed = jump_maps[kj]
                    x_kd = H[at[kj - h_d]] if kj >= h_d else P[0]
                    x = H[e + 1] = J @ x + Gd @ x_kd + Ed @ Wd[kj]
                    kj += 1
            X = H[bound[a] + 1:bound[b] + 1]
            if not np.isfinite(X).all():
                bad = int(np.argmin(np.isfinite(X).all(axis=1)))
                raise SimulationError(f"state became non-finite at t={ht[bound[a] + 1 + bad]:.6g}")

        del s, k, past, take, stage, t, dt, Wf, TX, TV, index  # before the outputs' temporaries
        # the outputs, with the reads at t + h taken again now that every row is written
        out = [np.hstack([m.Cc, m.Hc, m.Fc]) for m in sysv]
        Z = np.empty((len(ht), sys.qc))
        Z[0] = out[modes[0]] @ np.concatenate([P[0], P[1], Ws[0]])
        g = slice(2, None, 3)
        R = (1.0 - w[g])[:, None] * G[ia[g]] + w[g][:, None] * G[ib[g]]
        for md in np.unique(mode).tolist():
            sel = mode == md
            Z[rows[sel] + 1] = np.hstack([H[rows[sel] + 1], R[sel], Ws[2::2][sel]]) @ out[md].T
        x_kd = np.concatenate([np.repeat(P[:1], h_d, axis=0), H[jr]])
        z_d = [sysv[md].Cd @ x + sysv[md].Hd @ y + sysv[md].Fd @ v
               for md, x, y, v in zip(modes[jump].tolist(), H[jr], x_kd, Wd)]

    sample = np.ones(len(ht), dtype=bool)
    sample[jr + 1] = False  # post-jump rows
    jumps = map(JumpRecord, range(1, len(jr) + 1), ht[jr].tolist(), H[jr], H[jr + 1], z_d)
    return SimulationTrace(ht[sample], H[sample], Z[sample], tuple(jumps), step,
                           float(requested), seq)


def _schedule(seq, horizon, h):
    """Row times of a run and its intervals (mode, start row, steps,
    whether the last step is partial, whether a jump ends it)."""
    times = seq.times
    rows, intervals, r0 = [np.zeros(1)], [], 0
    for k in range(len(seq.dwells)):
        t_start = float(times[k])
        if t_start >= horizon:
            break
        t_end = min(float(times[k + 1]), horizon)
        steps, partial = _steps(t_start, t_end, h)
        jump = not (t_end >= horizon or t_end < float(times[k + 1]))
        intervals.append((seq.modes[k] if seq.modes else 0, r0, steps.size, partial, jump))
        rows.append(steps)
        r0 += steps.size + 1
        if not jump:
            break
        rows.append([t_end])
    return np.concatenate(rows), intervals


def _steps(t, t_end, h):
    """Row times of one interval after its start t, and whether the last
    step is partial.  Steps of h run from t as sequential sums, one
    ``np.add.accumulate`` per block of them; the last step is snapped onto
    t_end, or ends there when less than h remains, and is then partial."""
    tol, snap = 1e-12 * max(1.0, t_end), 1e-12 * h
    rows = []
    while True:
        c = np.add.accumulate(np.concatenate([[t], np.full(math.ceil((t_end - t) / h) + 2, h)]))
        # whole steps from and to short of t_end: a prefix of the block, as c
        # increases; all of it only when rounding drifts by h (~1e8 steps)
        last = int(np.count_nonzero((c[:-1] < t_end - tol) & (t_end - c[:-1] >= h)
                                    & (t_end - c[1:] >= snap)))
        rows.append(c[1:last + 1])
        t = c[last]
        if last < c.size - 1:
            break
    if t >= t_end - tol:
        return np.concatenate(rows), False
    end = t + (t_end - t)  # within snap of t_end whenever a whole step would snap
    rows.append([t_end if t_end - end < snap else end])
    return np.concatenate(rows), True


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


def _step_maps(sysv, h, mode, i, tau, dt, cut):
    """The step maps of a run stacked as (T_x, T_v), and the index of each
    step's map: per mode the full step (one per step index i when the flow
    depends on the timer), then the partial steps (``cut``) from timer tau
    over dt, from one batched evaluation of the polynomial for a constant
    flow."""
    TX, TV, index = [], [], np.empty(len(mode), dtype=int)
    for md in np.unique(mode).tolist():
        m, base = sysv[md], sum(map(len, TX))
        full, part = (mode == md) & ~cut, np.flatnonzero((mode == md) & cut)
        if m.flow_degree:
            maps = [_step_map(m, q * h, h) for q in range(int(i[full].max(initial=0)) + 1)]
            maps += map(functools.partial(_step_map, m), tau[part].tolist(), dt[part].tolist())
            Tx, Tv = (np.array(T) for T in zip(*maps))
            index[full] = base + i[full]
        else:
            Tx, Tv = _poly_map(_step_poly(m), np.concatenate([[h], dt[part]])[:, None, None])
            index[full] = base
        index[part] = base + len(Tx) - len(part) + np.arange(len(part))
        TX.append(Tx)
        TV.append(Tv)
    return np.concatenate(TX), np.concatenate(TV), index


def _step_poly(sys):
    """:func:`_step_map` of a flow that does not depend on the timer as a
    degree-4 polynomial in h, C[j] the coefficient of h^j: its stages
    applied to polynomial coefficients."""
    n, p = sys.n, sys.pc
    A, G, E = (M.eval(0.0) for M in (sys.A, sys.Gc, sys.Ec))

    def flow(s, Y):
        K = A @ Y
        K[0, :, (s + 1) * n:(s + 2) * n] += G
        K[0, :, 4 * n + s * p:4 * n + (s + 1) * p] += E
        return K

    base = np.eye(n, 4 * n + 3 * p)[None]
    k1 = flow(0, base)
    k2 = flow(1, np.concatenate([base, 0.5 * k1]))
    k3 = flow(1, np.concatenate([base, 0.5 * k2]))
    k4 = flow(2, np.concatenate([base, k3]))
    k4[:3] += 2.0 * k3
    k4[:2] += 2.0 * k2
    k4[:1] += k1
    return np.concatenate([base, k4 / 6.0])


def _poly_map(C, h):
    """The step map of coefficients C at step h, split as (T_x, T_v); an
    array of m steps shaped (m, 1, 1) gives a stack of m maps."""
    T = functools.reduce(lambda T, c: T * h + c, C[::-1])
    n = C.shape[1]
    return T[..., :n], T[..., n:]


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
    w_0, w_lo, w_hi = (f([0.0])[0] for f in w)
    if np.any(w_lo > w_0) or np.any(w_0 > w_hi):
        raise ValueError("disturbance leaves its declared bounds at t=0")
    d = [_input_fn(f, pd, name) for f, name in zip(
        (w_d, *(db or (None, None))), ("w_d", "w_d lower bound", "w_d upper bound"))]
    phi = [_input_fn(f, plant.n, name) for f, name in zip(
        (phi0, phi0_minus, phi0_plus), ("phi0", "phi0_minus", "phi0_plus"))]

    trace = _simulate(_modes(framers, seq), seq, _stacked(w), _stacked(d), _stacked(phi),
                      horizon, step)
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
    elif isinstance(constraint, core.PeriodicMinimum):
        lo, hi = constraint.tbar, constraint.period_sum
    elif isinstance(constraint, core.Minimum):
        lo, hi = constraint.tbar, 3.0 * constraint.tbar
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
