"""posimp benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One caller drives posimp through its public API in a closed loop: the next
op starts when the previous one has returned.  An op is one verified
answer (a certificate, observer gains or an infeasibility proof, or one
simulation run).  Every answer is checked against its stored reference
outside the timed op.  The run repeats whole passes over the seed's
candidates until about ``--seconds`` of op time are measured; the passes
are shared out to a few worker processes that run one after the other.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` traces half
of the ops, interleaved with untraced ones, and reports the per-layer
metrics of the traced ops and the tracing overhead against the untraced
ones.  The last line of standard output is one JSON object; the full
result, the environment and (when traced) the spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process: with default
# BLAS threads one small solve swings by two orders of magnitude.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_PINS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 5         # fresh processes timed for setup_s
SETUP_TIMEOUT_S = 60
# Workers share a run's passes: a process can run 25% slower than the next
# one for its whole life, with no change in machine speed the probe sees.
WORKERS = 3
WORKER_TIMEOUT_S = 150
MIN_PASSES = 2
MIN_OPS = 100             # so that op_p90_ms has ten samples beyond it
# Times are scaled to the machine speed at which the probe takes
# PROBE_REF_S: op times by the median probe time of the ops around each op,
# set-up times by the median of probes run just before each set-up process.
PROBE_REF_S = 2.0e-3
PROBE_WINDOW = 5


@dataclass
class Op:
    pass_no: int
    index: int           # position of the candidate in the plan
    id: str              # candidate id
    family: str
    trials: int          # empirical-gain trials, 0 for other ops
    seconds: float
    probe_s: float       # machine-speed probe run just before the op
    samples: int
    traced: bool
    problems: list
    scaled: float = 0.0  # seconds at the reference machine speed


def checkout_ok() -> bool:
    return (os.path.isfile(os.path.join("src", "posimp", "__init__.py"))
            and os.path.isdir("fixtures"))


def setup(recorder=None):
    """Everything before the timed load: import posimp, load the fixtures
    and answer one small op of each kind."""
    sys.path.insert(0, os.path.abspath("src"))
    import workloads as wl
    if recorder is not None:
        import posimp
        recorder.install(posimp)
        with recorder.op("setup", "setup"):
            ctx = wl.make_context()
    else:
        ctx = wl.make_context()
    for c in wl.WARMUP:
        wl.run_op(ctx, c)
    return wl, ctx


def time_setup() -> float:
    """Wall time from starting a fresh process until its set-up is done."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__),
                          "--setup-since", repr(time.monotonic())],
                         stdout=subprocess.PIPE, text=True, check=True,
                         timeout=SETUP_TIMEOUT_S).stdout
    return float(out)


def make_probe():
    """A fixed piece of work that does not touch posimp, in three parts like
    the ops: interpreter arithmetic, many tiny numpy calls (as in the RK4
    stepper and the row emitters) and dense rank-1 updates (as in the
    simplex).  Other tenants of the machine slow it down as they slow the
    ops, by up to 60% within seconds, so its time tracks machine speed."""
    import numpy as np
    A = np.array([[-1.0, 0.5], [0.2, -2.0]])
    x0 = np.array([1.0, 0.5])
    B = np.random.default_rng(0).standard_normal((200, 300))

    def probe() -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(8000):
            s += i * i % 7
        x = x0
        for _ in range(250):
            x = x + 0.01 * (A @ x)
        T = B.copy()
        for r in range(6):
            T -= 1e-3 * np.outer(T[:, r], T[r])
        return time.perf_counter() - t0
    return probe


def scale(ops: list[Op]) -> None:
    """Set each op's time at the reference machine speed."""
    probes = [o.probe_s for o in ops]
    for i, o in enumerate(ops):
        local = statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
        o.scaled = o.seconds * PROBE_REF_S / local


def pass_count(first_s: float, n_cands: int, seconds: float, traced: bool) -> int:
    """Passes of a run whose first pass took ``first_s``: about ``seconds``
    of op time and at least MIN_OPS ops; even when traced."""
    n = max(MIN_PASSES, math.ceil(MIN_OPS / n_cands),
            round(seconds / first_s) if first_s > 0 else MIN_PASSES)
    return n + n % 2 if traced else n


def shares(passes: int) -> list[int]:
    return [passes // WORKERS + (i < passes % WORKERS) for i in range(WORKERS)]


def timed_load(wl, ctx, refs, cands, seed: int, probe, recorder, start: int,
               count: int | None, seconds: float):
    """Closed loop over passes start, start + 1, ...: ``count`` of them, or,
    when ``count`` is None, pass 0 and then the first worker's share of the
    pass count that pass 0 fixes.  Returns the ops and that pass count.

    With a recorder, candidate k is traced in pass p when k + p is odd, and
    the pass count is even: every candidate runs as often traced as
    untraced, the two kinds interleaved in time, and the traced ops make up
    whole passes' worth of work."""
    ops: list[Op] = []
    passes = None
    end = None if count is None else start + count
    p = start
    while end is None or p < end:
        order = list(enumerate(cands))
        random.Random(f"order-{seed}-{p}").shuffle(order)
        for k, c in order:
            traced = recorder is not None and (k + p) % 2 == 1
            trials = int(c.params[0]) if c.family == "empirical_gain" else 0
            probe_s = probe()
            t0 = time.perf_counter()
            try:
                if traced:
                    with recorder.op(f"{p}.{k}", "op:" + c.family):
                        result = wl.run_op(ctx, c)
                else:
                    result = wl.run_op(ctx, c)
            except Exception as e:  # an op that raises is a failed op
                dt = time.perf_counter() - t0
                ops.append(Op(p, k, c.id, c.family, trials, dt, probe_s, 0, traced,
                              [f"raised {type(e).__name__}: {e}"]))
                continue
            dt = time.perf_counter() - t0
            ops.append(Op(p, k, c.id, c.family, trials, dt, probe_s,
                          wl.sim_samples(c, result), traced, wl.check(c, result, refs)))
        p += 1
        if end is None:
            passes = pass_count(sum(o.seconds for o in ops), len(cands), seconds,
                                recorder is not None)
            end = shares(passes)[0]
    return ops, passes


def work(workload: str, seed: int, seconds: float, trace: bool, start: int,
         count: int | None, refs: dict | None = None) -> dict:
    """One worker: set up in this process, run its passes (see timed_load)
    and return the ops and, when traced, the spans."""
    probe = make_probe()
    recorder = spans.Recorder() if trace else None
    wl, ctx = setup(recorder)
    if workload not in wl.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    refs = refs if refs is not None else wl.load_references()
    cands = wl.plan(workload, seed, refs)
    try:
        ops, passes = timed_load(wl, ctx, refs, cands, seed, probe, recorder,
                                 start, count, seconds)
    finally:
        if recorder is not None:
            recorder.uninstall()
    scale(ops)
    return {"candidates": len(cands), "passes": passes,
            "ops": [asdict(o) for o in ops],
            "spans": [asdict(s) for s in recorder.spans] if trace else [],
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def spawn_work(workload, seed, seconds, trace, start, count) -> dict:
    """``work`` in a fresh process."""
    args = json.dumps([workload, seed, seconds, trace, start, count])
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", args],
                         stdout=subprocess.PIPE, text=True, check=True,
                         timeout=WORKER_TIMEOUT_S).stdout
    return json.loads(out.strip().splitlines()[-1])


def op_times(times: list[float]) -> dict:
    return {
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(times, n=10)[8], "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
    }


def end_to_end(ops: list[Op], setup_s: float, rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        **op_times([o.scaled for o in ops]),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(ops: list[Op], passes: int, span_list: list) -> dict:
    traced = [o for o in ops if o.traced]
    untraced = [o for o in ops if not o.traced]
    m = spans.layer_metrics(span_list, [f"{o.pass_no}.{o.index}" for o in traced],
                            passes / 2)
    m["cli.load_ms"] = (spans.load_ms(span_list, "setup"), "ms")
    m["trace.overhead_share"] = (sum(o.seconds for o in traced)
                                 / sum(o.seconds for o in untraced) - 1.0, "share")
    sim_ops = [o for o in untraced if o.samples]
    m["sim.steps_per_s"] = (sum(o.samples for o in sim_ops) / sum(o.seconds for o in sim_ops)
                            if sim_ops else 0.0, "1/s")
    eg = [o for o in untraced if o.trials]
    m["sim.empirical_gain_trials_per_s"] = (
        sum(o.trials for o in eg) / sum(o.seconds for o in eg) if eg else 0.0, "1/s")
    m["fail_share"] = (sum(1 for o in ops if o.problems) / len(ops), "share")
    return m


def environment() -> dict:
    import numpy
    try:
        from importlib.metadata import PackageNotFoundError, version
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    revision = None
    if os.path.isdir(".git"):
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                      text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join("src", "posimp")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_samples: int = SETUP_SAMPLES, refs: dict | None = None,
        spawn: bool = True) -> dict:
    """One benchmark run; returns the full result document.  With ``spawn``
    false the workers run in this process (for tests)."""
    probe = make_probe()
    setup_times, setup_probes = [], []
    for _ in range(setup_samples):
        setup_probes.append(statistics.median(probe() for _ in range(5)))
        setup_times.append(time_setup())
    setup_s = statistics.median(setup_times) * PROBE_REF_S / statistics.median(setup_probes)

    def call(start, count):
        if spawn:
            return spawn_work(workload, seed, seconds, int(trace), start, count)
        return work(workload, seed, seconds, trace, start, count, refs)

    parts = [call(0, None)]
    passes = parts[0]["passes"]
    start = shares(passes)[0]
    for count in shares(passes)[1:]:
        if count:
            parts.append(call(start, count))
            start += count
    ops = [Op(**d) for part in parts for d in part["ops"]]
    span_list = []
    for part in parts:     # parents index into each worker's own list
        offset = len(span_list)
        for d in part["spans"]:
            span = spans.Span(**d)
            if span.parent is not None:
                span.parent += offset
            span_list.append(span)
    rss_mb = max(part["rss_mb"] for part in parts)
    metrics = (per_layer(ops, passes, span_list) if trace
               else end_to_end(ops, setup_s, rss_mb))
    failed = [o for o in ops if o.problems]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "candidates": parts[0]["candidates"], "passes": passes, "workers": len(parts),
        "op_seconds": sum(o.seconds for o in ops),
        "setup_samples_s": setup_times,
        "setup_probes_ms": [1e3 * p for p in setup_probes],
        "probe_median_ms": 1e3 * statistics.median(o.probe_s for o in ops),
        "unscaled": {k: v for k, (v, _) in op_times([o.seconds for o in ops]).items()},
        "attempted": len(ops), "failed": len(failed),
        "failures": [{"op": o.id, "pass": o.pass_no, "problems": o.problems}
                     for o in failed],
        "ops": [[o.id, o.pass_no, o.seconds, o.probe_s] for o in ops],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "spans": span_list,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-since", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not checkout_ok():
        print("error: run from the root of a posimp checkout "
              "(src/posimp and fixtures/ not found)", file=sys.stderr)
        return 2
    if args.setup_since is not None:
        setup()
        print(repr(time.monotonic() - args.setup_since))
        return 0
    if args.worker is not None:
        workload, seed, seconds, trace, start, count = json.loads(args.worker)
        print(json.dumps(work(workload, seed, seconds, bool(trace), start, count)))
        return 0
    if args.workload is None or args.seconds <= 0:
        ap.error("--workload and a positive --seconds are required")

    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    span_list = res.pop("spans")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(res, f, indent=1)
    if span_list:
        spans.write(span_list, stem + ".spans.jsonl")

    print("environment: " + json.dumps(res["environment"]))
    print(f"workload {args.workload}, seed {args.seed}: {res['candidates']} candidates, "
          f"{res['passes']} passes in {res['workers']} worker processes, "
          f"{res['attempted']} ops in {res['op_seconds']:.2f} s of op time "
          "(closed loop, 1 caller)")
    print(f"fail_share = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} ops)")
    print(f"machine-speed probe: median {res['probe_median_ms']:.3f} ms against "
          f"{1e3 * PROBE_REF_S:g} ms for the reference speed; unscaled op times: "
          + ", ".join(f"{k} = {v:.6g}" for k, v in res["unscaled"].items()))
    for f in res["failures"][:5]:
        print(f"  failed {f['op']} (pass {f['pass']}): {'; '.join(f['problems'])}")
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"result written to {stem}.json")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
