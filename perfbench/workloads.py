"""Workloads of the posimp benchmark: candidate points, ops and answer checks.

A *candidate* is one fixed question put to posimp through its public API:
one certificate or synthesis program (an LP op) or one simulation run (a
sim op).  Every candidate has a stored reference outcome in
``references.json``.  A workload is a list of *strata*; the seed picks the
same number of candidates from each stratum and each reference status, so
every seed runs the same mix of families, sizes and feasible/infeasible
answers, on different points.  See ``NOTES.md`` for why each workload
exists.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from posimp import certify, cli, core, delay, observer, sim

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

FIXTURES = ("stable_toy", "uncertain_impulsive", "range_observer_plant",
            "min_observer_plant", "switched_toy", "power_control")

# Constant reference gains of the range dwell-time observer benchmark; the
# fixture stores none.  They keep the error dynamics internally positive.
RANGE_OBSERVER_GAINS = (np.array([[1.0], [1.0]]), np.array([[0.0], [0.1]]))
RANGE_DT = core.Range(0.3, 0.5)

GAMMA_RTOL = 1e-6   # gamma against its reference
SIM_RTOL = 1e-6     # final states and empirical gains against their references

LP_FAMILIES = ("certify_min", "certify_min_free", "certify_range",
               "certify_range_free", "delay_min", "delay_range",
               "synth_min", "synth_range", "synth_switched")


@dataclass(frozen=True)
class Candidate:
    family: str
    system: str          # fixture name, or a derived system for plain runs
    n_nodes: int         # timer grid (0 for sim ops)
    params: tuple        # dwell parameters, or (horizon, seed) / (trials, seed)

    @property
    def id(self) -> str:
        return f"{self.family}/{self.system}/N{self.n_nodes}/" + ",".join(
            f"{p:g}" for p in self.params)

    @property
    def is_lp(self) -> bool:
        return self.family in LP_FAMILIES


@dataclass(frozen=True)
class Stratum:
    candidates: tuple
    per_status: int      # candidates picked from each reference status


def _lp(family, system, n_nodes, values, per_status, width=None):
    """One stratum over dwell values; ``width`` turns each value t into the
    range [t, t + width]."""
    params = [(t,) if width is None else (t, t + width) for t in values]
    return Stratum(tuple(Candidate(family, system, n_nodes, p) for p in params),
                   per_status)


def _sims(family, system, first, seeds, per_status):
    return Stratum(tuple(Candidate(family, system, 0, (first, s)) for s in seeds),
                   per_status)


UI = "uncertain_impulsive"
ROP = "range_observer_plant"
MOP = "min_observer_plant"
UI_INFEASIBLE = (0.3, 0.6, 0.9, 1.2)
UI_FEASIBLE = (1.5, 2.0, 2.5, 3.0)
WINDOW_INFEASIBLE = (0.05, 0.1, 10.0, 12.0)
WINDOW_FEASIBLE = (0.3, 0.5, 1.0, 2.0)
SIM_SEEDS = (11, 22, 33, 44, 55, 66)

# sweep: gamma against the dwell bound across the feasibility boundaries,
# at the fixture grids (N = 21; synthesis N <= 11).  Every point of every
# curve runs in each pass; the seed orders them.
SWEEP = (
    _lp("certify_min", UI, 21, UI_INFEASIBLE + UI_FEASIBLE, 4),
    _lp("certify_min_free", UI, 21, UI_INFEASIBLE + UI_FEASIBLE, 4),
    _lp("certify_range", UI, 21, UI_INFEASIBLE + UI_FEASIBLE, 4, width=0.5),
    _lp("certify_range_free", UI, 21, UI_INFEASIBLE + UI_FEASIBLE, 4, width=0.5),
    _lp("delay_min", MOP, 21, (0.3, 0.5, 1.0, 2.0), 4),
    _lp("delay_range", ROP, 21, WINDOW_INFEASIBLE + WINDOW_FEASIBLE, 4, width=0.2),
    _lp("synth_min", MOP, 11, (0.3, 0.4, 0.5, 1.0), 4),
    _lp("synth_range", ROP, 11, WINDOW_INFEASIBLE + WINDOW_FEASIBLE, 4, width=0.2),
    _lp("synth_switched", "switched_toy", 5, (0.1, 0.2, 0.5, 1.0), 4),
    _lp("synth_switched", "power_control", 5, (0.05, 0.1, 0.2, 0.5), 4),
)

# grid: the grid-refinement curve; every program is feasible.  The seed
# draws three of the four dwell values at each size.
GRID = (
    *(_lp("certify_min", UI, n, UI_FEASIBLE, 3) for n in (11, 16, 18, 19, 21, 26, 28, 31)),
    *(_lp("certify_min_free", UI, n, UI_FEASIBLE, 3) for n in (11, 21, 31, 36, 41, 46, 51)),
    *(_lp("certify_range", UI, n, UI_FEASIBLE, 3, width=0.5)
      for n in (11, 16, 18, 19, 21, 23, 26)),
    *(_lp("synth_range", ROP, n, WINDOW_FEASIBLE, 3, width=0.2)
      for n in (7, 9, 11, 12, 13, 14, 16)),
    *(_lp("synth_switched", "switched_toy", n, (0.5, 1.0, 1.5, 2.0), 3) for n in (5, 6, 7, 8)),
    _lp("synth_switched", "power_control", 5, (0.1, 0.2, 0.3, 0.5), 3),
)

# simulate: no LP at all.  The seed draws four of the six runs of each kind.
SIMULATE = (
    *(_sims("observer_run", f, h, SIM_SEEDS, 4) for f, h in (
        (MOP, 40.0), (ROP, 12.0), ("switched_toy", 40.0), ("power_control", 8.0))),
    *(_sims("plain_run", s, h, SIM_SEEDS, 4) for s, h in (
        ("range_observer_error", 50.0), ("stable_toy", 90.0), (UI, 180.0))),
    _sims("empirical_gain", "range_observer_error", 3, SIM_SEEDS, 4),
)

WORKLOADS = {"sweep": SWEEP, "grid": GRID, "simulate": SIMULATE}


def all_candidates() -> list[Candidate]:
    seen: dict[str, Candidate] = {}
    for strata in WORKLOADS.values():
        for st in strata:
            for c in st.candidates:
                seen.setdefault(c.id, c)
    return list(seen.values())


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as f:
        return json.load(f)


def plan(workload: str, seed: int, refs: dict) -> list[Candidate]:
    """The candidates one run uses: from every stratum and every reference
    status in it, ``per_status`` candidates drawn by the seed."""
    rnd = random.Random(seed)
    chosen = []
    for st in WORKLOADS[workload]:
        groups: dict[str, list[Candidate]] = {}
        for c in st.candidates:
            if c.id not in refs["candidates"]:
                raise KeyError(f"no reference outcome for {c.id}")
            groups.setdefault(refs["candidates"][c.id]["status"], []).append(c)
        for status in sorted(groups):
            g = groups[status]
            chosen += rnd.sample(g, min(st.per_status, len(g)))
    return chosen


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Context:
    loaded: dict                 # fixture name -> cli.LoadedSystem
    plain_targets: dict          # plain-run system name -> (DelaySystem, constraint)
    range_error: delay.DelaySystem


def _closed_lft(sys: core.LftPositiveSystem) -> delay.DelaySystem:
    """The lft system with its uncertainty closed at the worst case, as the
    ``simulate`` command runs it."""
    A, Ec, Cc, Fc = core.worst_case_continuous(sys)
    J, Ed, Cd, Fd = core.worst_case_discrete(sys)
    return delay.DelaySystem.build(A=A, Ec=Ec, Cc=Cc, Fc=Fc, J=J, Ed=Ed,
                                   Cd=Cd, Fd=Fd, h_c=1.0)


def make_context() -> Context:
    loaded = {name: cli.load(os.path.join("fixtures", name + ".json"))
              for name in FIXTURES}
    rop = loaded[ROP]
    range_error = observer.error_system(rop.system, *RANGE_OBSERVER_GAINS)
    plain = {
        "range_observer_error": (range_error, RANGE_DT),
        "stable_toy": (_closed_lft(loaded["stable_toy"].system),
                       loaded["stable_toy"].constraint),
        UI: (_closed_lft(loaded[UI].system), loaded[UI].constraint),
    }
    return Context(loaded, plain, range_error)


# Small programs and short runs of every op kind, run once during set-up.
WARMUP = (
    Candidate("certify_min", UI, 5, (2.0,)),
    Candidate("certify_min_free", UI, 5, (1.0,)),
    Candidate("delay_range", ROP, 5, (0.3, 0.5)),
    Candidate("synth_range", ROP, 5, (0.3, 0.5)),
    Candidate("synth_switched", "switched_toy", 3, (1.0,)),
    Candidate("observer_run", MOP, 0, (5.0, 1)),
    Candidate("observer_run", "switched_toy", 0, (5.0, 1)),
    Candidate("plain_run", "range_observer_error", 0, (2.0, 1)),
    Candidate("empirical_gain", "range_observer_error", 0, (1, 1)),
)


# ---------------------------------------------------------------------------
# ops


def _piecewise_input(rng, bounds, cells: int, horizon: float):
    if bounds is None:
        return None
    lo, hi = bounds
    vals = rng.uniform(lo, hi, size=(cells, lo.size))
    return lambda t: vals[min(int(t / horizon * cells), cells - 1)]


def _per_jump_input(rng, bounds, draws: int):
    if bounds is None:
        return None
    lo, hi = bounds
    vals = rng.uniform(lo, hi, size=(draws, lo.size))
    return lambda k: vals[(k - 1) % draws]


def _step(h_c: float, constraint) -> float:
    """The default step of ``sim.simulate`` at the shortest admissible
    dwell, fixed so that the work of a run does not depend on the seed."""
    lo = getattr(constraint, "tmin", getattr(constraint, "tbar", None))
    return h_c / math.ceil(16.0 * h_c / min(h_c, lo) - 1e-9)


def _observer_run(ctx: Context, name: str, horizon: float, seed: int):
    ld = ctx.loaded[name]
    gains = ld.gains if ld.gains is not None else RANGE_OBSERVER_GAINS
    n_modes = ld.system.n_modes if ld.kind == "switched" else None
    seq = sim.gen_sequence(ld.constraint, horizon, seed, n_modes=n_modes)
    rng = np.random.default_rng([seed, 0x5EED])
    w_c = _piecewise_input(rng, ld.w_c_bounds, 64, horizon)
    w_d = _per_jump_input(rng, ld.w_d_bounds, 4096)
    center = ld.phi0 if ld.phi0 is not None else np.ones(ld.system.n)
    spread = ld.spread if ld.spread is not None else np.full(ld.system.n, 0.5)
    lo, hi = center - spread, center + spread
    cb = None if ld.w_c_bounds is None else (
        lambda t: ld.w_c_bounds[0], lambda t: ld.w_c_bounds[1])
    db = None if ld.w_d_bounds is None else (
        lambda k: ld.w_d_bounds[0], lambda k: ld.w_d_bounds[1])
    trace = sim.simulate_with_observer(
        ld.system, gains, seq, w_c=w_c, w_d=w_d,
        phi0=lambda s: center, phi0_minus=lambda s: lo, phi0_plus=lambda s: hi,
        horizon=horizon, step=_step(ld.system.h_c, ld.constraint),
        w_c_bounds=cb, w_d_bounds=db)
    return trace, sim.check_enclosure(trace)


def _plain_run(ctx: Context, name: str, horizon: float, seed: int):
    target, constraint = ctx.plain_targets[name]
    seq = sim.gen_sequence(constraint, horizon, seed)
    rng = np.random.default_rng([seed, 0x5EED])
    unit = lambda width: (-np.ones(width), np.ones(width))  # noqa: E731
    w_c = _piecewise_input(rng, unit(target.pc), 64, horizon) if target.pc else None
    w_d = _per_jump_input(rng, unit(target.pd), 4096) if target.pd else None
    center = np.ones(target.n)
    return sim.simulate(target, seq, w_c=w_c, w_d=w_d, horizon=horizon,
                        step=_step(target.h_c, constraint), phi0=lambda s: center)


def _lp_op(ctx: Context, c: Candidate):
    ld = ctx.loaded[c.system]
    p = c.params
    copts = dataclasses.replace(ld.certify_options, n_nodes=c.n_nodes)
    sopts = dataclasses.replace(ld.synthesis_options, n_nodes=c.n_nodes)
    dt = core.Minimum(p[0]) if len(p) == 1 else core.Range(p[0], p[1])
    f = c.family
    if f == "certify_min":
        return certify.certify_min(ld.system, dt, ld.scalings, copts)
    if f == "certify_min_free":
        return certify.certify_min_free(ld.system, dt, copts)
    if f == "certify_range":
        return certify.certify_range(ld.system, dt, ld.scalings, copts)
    if f == "certify_range_free":
        return certify.certify_range_free(ld.system, dt, copts)
    if f in ("delay_min", "delay_range"):
        gains = ld.gains if ld.gains is not None else RANGE_OBSERVER_GAINS
        target = observer.error_system(ld.system, *gains)
        run = delay.certify_delay_min if f == "delay_min" else delay.certify_delay_range
        return run(target, dt, ld.scalings, copts)
    if f == "synth_min":
        return observer.synthesize_min(ld.system, dt, ld.scalings, sopts,
                                       gain_box=ld.gain_box)
    if f == "synth_range":
        return observer.synthesize_range(ld.system, dt, ld.scalings, sopts,
                                         gain_box=ld.gain_box)
    if f == "synth_switched":
        return observer.synthesize_switched(ld.system, dt, ld.scalings, sopts,
                                            gain_box=ld.gain_box)
    raise ValueError(f"unknown LP family {f!r}")


def run_op(ctx: Context, c: Candidate):
    """Answer one candidate; this is the timed part of an op."""
    if c.is_lp:
        return _lp_op(ctx, c)
    if c.family == "observer_run":
        return _observer_run(ctx, c.system, c.params[0], int(c.params[1]))
    if c.family == "plain_run":
        return _plain_run(ctx, c.system, c.params[0], int(c.params[1]))
    if c.family == "empirical_gain":
        return sim.empirical_gain(ctx.range_error, RANGE_DT,
                                  n_trials=int(c.params[0]), seed=int(c.params[1]))
    raise ValueError(f"unknown family {c.family!r}")


# ---------------------------------------------------------------------------
# outcomes and checks


def sim_samples(c: Candidate, result) -> int:
    """RK4 samples an op produced (0 for LP ops and empirical-gain blocks,
    whose runs the traced layers count)."""
    if c.family == "observer_run":
        return int(result[0].t.size)
    if c.family == "plain_run":
        return int(result.t.size)
    return 0


def summarize(c: Candidate, result) -> dict:
    """The part of an answer that is compared against its reference."""
    if c.is_lp:
        if isinstance(result, certify.Infeasible):
            return {"status": "infeasible", "gamma": None}
        first = result[0] if isinstance(result, list) else result
        return {"status": "feasible", "gamma": float(first.gamma)}
    if c.family == "empirical_gain":
        return {"status": "ok", "gain": float(result)}
    trace = result[0] if c.family == "observer_run" else result
    out = {"status": "ok", "samples": int(trace.t.size),
           "jumps": len(trace.jumps), "x_final": trace.x[-1].tolist()}
    if c.family == "observer_run":
        out["xminus_final"] = trace.xminus[-1].tolist()
        out["xplus_final"] = trace.xplus[-1].tolist()
    return out


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(1.0, abs(b))


def check(c: Candidate, result, refs: dict) -> list[str]:
    """Problems with one answer; empty when it is correct.  Runs outside
    the timed op."""
    ref = refs["candidates"][c.id]
    got = summarize(c, result)
    if got["status"] != ref["status"]:
        return [f"status {got['status']}, expected {ref['status']}"]
    bad = []
    if c.is_lp:
        if got["status"] == "infeasible":
            if not result.margin > 0.0:
                bad.append(f"Farkas margin {result.margin} is not positive")
            return bad
        if not _close(got["gamma"], ref["gamma"], GAMMA_RTOL):
            bad.append(f"gamma {got['gamma']!r}, expected {ref['gamma']!r}")
        first = result[0] if isinstance(result, list) else result
        violations = first.reverify()
        if violations:
            bad.append(f"{len(violations)} rows fail reverify, first {violations[0]}")
        return bad
    if c.family == "empirical_gain":
        g = got["gain"]
        if not _close(g, ref["gain"], SIM_RTOL):
            bad.append(f"empirical gain {g!r}, expected {ref['gain']!r}")
        if not g <= refs["range_error_gamma"] + 1e-6:
            bad.append(f"empirical gain {g!r} exceeds the certified gamma")
        return bad
    for key in ("samples", "jumps"):
        if got[key] != ref[key]:
            bad.append(f"{key} {got[key]}, expected {ref[key]}")
    for key in ("x_final", "xminus_final", "xplus_final"):
        if key in ref and not all(_close(a, b, SIM_RTOL)
                                  for a, b in zip(got[key], ref[key])):
            bad.append(f"{key} {got[key]}, expected {ref[key]}")
    if c.family == "observer_run" and not result[1].holds:
        rep = result[1]
        bad.append(f"enclosure violated at t={rep.time} ({rep.component})")
    return bad
