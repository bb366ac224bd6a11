"""Span recorder for the traced run of the benchmark.

The recorder wraps public module attributes of posimp (``lp.solve``,
``sim.simulate``, ...).  Callers in other modules and in the defining
module itself look these names up at call time, so every call goes
through the wrapper.  A span is recorded only while an op is open: the
benchmark's own checks run between ops and leave no spans.  Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module name inside posimp, attribute) of every traced layer
LAYERS = (
    ("cli", "load"),
    ("lp", "solve"), ("lp", "verify"), ("lp", "farkas_check"),
    ("observer", "range_synthesis"), ("observer", "min_synthesis"),
    ("observer", "switched_synthesis"), ("observer", "recover_gains"),
    ("sim", "simulate"), ("sim", "simulate_with_observer"),
    ("sim", "gen_sequence"), ("sim", "check_enclosure"),
)
SYNTHESIS = {"observer.range_synthesis", "observer.min_synthesis",
             "observer.switched_synthesis"}
SIM_LAYERS = ("sim.simulate", "sim.simulate_with_observer",
              "sim.gen_sequence", "sim.check_enclosure")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None for an op
    op: str
    info: dict | None = None


def _describe(name: str, args, result) -> dict | None:
    """Counts a span carries: program size and outcome of a solve, RK4
    samples of a simulation."""
    if name == "lp.solve" and args:
        return {"status": getattr(result, "status", "raised"),
                "vars": args[0].num_vars, "rows": args[0].num_rows}
    if name in ("sim.simulate", "sim.simulate_with_observer"):
        return {"samples": int(result.t.size) if result is not None else 0}
    return None


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self._patched: list = []

    def install(self, package) -> None:
        """Wrap every layer in LAYERS that ``package`` has."""
        for module_name, attr in LAYERS:
            module = getattr(package, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn))
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, info) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.info = info
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, _describe(name, args, result))
        return traced

    @contextmanager
    def op(self, op_id: str, name: str):
        """Record everything the body calls as one op with id ``op_id``."""
        self._op = op_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)
            self._op = None


def write(span_list: list[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in span_list:
            f.write(json.dumps(asdict(s)) + "\n")


def _dur(s: Span) -> float:
    return s.end - s.start


def layer_metrics(spans: list[Span], ops: list[str], passes: int) -> dict:
    """Per-layer figures of the ops whose ids are in ``ops``.

    Times are self times in ms per op (averaged over all those ops, so the
    layers of an op add up to its wall time); counts are per pass.  An LP
    op's wall time splits into build (everything before ``lp.solve``
    starts), solve, verify, Farkas check, and extract (everything after
    ``lp.solve`` returns).
    """
    wanted = set(ops)
    n_ops = max(len(ops), 1)
    passes = max(passes, 1)
    children: dict[int, list[int]] = defaultdict(list)
    child_time = defaultdict(float)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
            child_time[s.parent] += _dur(s)

    self_s = defaultdict(float)     # layer -> total self time
    calls = defaultdict(int)
    incl_s = defaultdict(float)     # layer -> total inclusive time
    samples = defaultdict(int)
    lp_vars = lp_rows = 0
    op_total = build = extract = 0.0
    for i, s in enumerate(spans):
        if s.op not in wanted:
            continue
        if s.parent is None:
            op_total += _dur(s)
            solves = [j for j in children[i] if spans[j].name == "lp.solve"]
            if solves:
                first, last = spans[solves[0]], spans[solves[-1]]
                build += first.start - s.start
                extract += s.end - last.end
            continue
        name = s.name
        if name == "lp.solve":
            lp_vars += s.info["vars"]
            lp_rows += s.info["rows"]
            name = "lp.solve_optimal" if s.info["status"] == "optimal" else "lp.solve_infeasible"
            incl_s["lp.solve"] += _dur(s)
        elif name in SYNTHESIS:
            name = "observer.synthesis"
        self_s[name] += _dur(s) - child_time[i]
        incl_s[name] += _dur(s)
        calls[name] += 1
        if s.info and "samples" in s.info:
            samples[name] += s.info["samples"]

    accounted = build + extract + sum(
        self_s[k] for k in ("lp.solve_optimal", "lp.solve_infeasible",
                            "lp.verify", "lp.farkas_check") + SIM_LAYERS)

    def per_op_ms(x):
        return 1e3 * x / n_ops

    def rate(name):
        return samples[name] / incl_s[name] if incl_s[name] > 0 else 0.0

    return {
        "build_ms": (per_op_ms(build), "ms"),
        "extract_ms": (per_op_ms(extract), "ms"),
        "lp.solve_optimal_ms": (per_op_ms(self_s["lp.solve_optimal"]), "ms"),
        "lp.solve_infeasible_ms": (per_op_ms(self_s["lp.solve_infeasible"]), "ms"),
        "lp.verify_ms": (per_op_ms(self_s["lp.verify"]), "ms"),
        "lp.verify_calls": (calls["lp.verify"] / passes, "count"),
        "lp.farkas_check_ms": (per_op_ms(self_s["lp.farkas_check"]), "ms"),
        "lp.farkas_check_calls": (calls["lp.farkas_check"] / passes, "count"),
        "lp.solve_share": (incl_s["lp.solve"] / op_total if op_total else 0.0, "share"),
        "lp.vars": (lp_vars / passes, "count"),
        "lp.rows": (lp_rows / passes, "count"),
        "observer.synthesis_ms": (per_op_ms(incl_s["observer.synthesis"]), "ms"),
        "observer.recover_gains_ms": (per_op_ms(incl_s["observer.recover_gains"]), "ms"),
        "sim.plain_steps_per_s": (rate("sim.simulate"), "1/s"),
        "sim.observer_steps_per_s": (rate("sim.simulate_with_observer"), "1/s"),
        "sim.gen_sequence_ms": (per_op_ms(incl_s["sim.gen_sequence"]), "ms"),
        "sim.check_enclosure_ms": (per_op_ms(incl_s["sim.check_enclosure"]), "ms"),
        "trace.accounted_share": (accounted / op_total if op_total else 0.0, "share"),
        "trace.spans": (sum(1 for s in spans if s.op in wanted) / passes, "count"),
    }


def load_ms(spans: list[Span], op: str) -> float:
    """Mean wall time of one ``cli.load`` call inside op ``op``."""
    loads = [_dur(s) for s in spans if s.op == op and s.name == "cli.load"]
    return 1e3 * sum(loads) / len(loads) if loads else 0.0
