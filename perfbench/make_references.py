"""Regenerate ``references.json``: the stored outcome of every candidate.

Run from the repository root, once, on code whose answers are trusted:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_references.py

Every LP candidate is re-solved with scipy's HiGHS (the oracle the unit
tests already trust) from the program posimp built, and the status and
optimum are recorded beside posimp's answer; the script fails if they
disagree.  It also pins the empirical gain of the range observer error
system at seed 0 with 64 trials, and checks that the empirical gain stays
below the certified gamma for other seeds.  Candidate timings are printed
to help size the workloads; they are not stored.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

from posimp import delay, lp, sim  # noqa: E402

import workloads as wl  # noqa: E402

PINNED_GAIN = 0.821601          # empirical_gain(range error, seed 0, 64 trials)
PINNED_RTOL = 1e-4
EXTRA_GAIN_SEEDS = (1, 2, 3)


def parse_dump(text: str):
    """(c, rows, lb, ub) of a program from its canonical ``lp.dump`` text."""
    lines = text.splitlines()
    names, lb, ub = [], [], []
    for line in lines:
        if line.startswith("var "):
            name, box = line[4:].split(" in ", 1)
            lo, hi = box.strip("[]").split(", ")
            names.append(name)
            lb.append(float(lo))
            ub.append(float(hi))
    col = {n: j for j, n in enumerate(names)}

    def terms(expr):
        vec = np.zeros(len(names))
        if expr != "0":
            for term in expr.split(" + "):
                coef, var = term.split("*", 1)
                vec[col[var]] += float(coef)
        return vec

    c = terms(lines[1][len("minimize: "):])
    rows = []
    for line in lines[2:]:
        if line.startswith("var "):
            continue
        head, rel, rhs = line.rsplit(" ", 2)
        _, expr = head.split(": ", 1)
        rows.append((terms(expr), rel, float(rhs)))
    return c, rows, np.array(lb), np.array(ub)


def highs(program: lp.LinearProgram) -> dict:
    c, rows, lb, ub = parse_dump(lp.dump(program))
    A_ub = [a if rel == lp.LE else -a for a, rel, _ in rows if rel != lp.EQ]
    b_ub = [b if rel == lp.LE else -b for _, rel, b in rows if rel != lp.EQ]
    A_eq = [a for a, rel, _ in rows if rel == lp.EQ]
    b_eq = [b for _, rel, b in rows if rel == lp.EQ]
    bounds = [(None if np.isinf(l) else l, None if np.isinf(u) else u)
              for l, u in zip(lb, ub)]
    res = linprog(c, A_ub=np.array(A_ub) if A_ub else None, b_ub=b_ub or None,
                  A_eq=np.array(A_eq) if A_eq else None, b_eq=b_eq or None,
                  bounds=bounds, method="highs")
    if res.status == 0:
        return {"status": "feasible", "objective": float(res.fun)}
    if res.status == 2:
        return {"status": "infeasible", "objective": None}
    raise RuntimeError(f"HiGHS status {res.status}: {res.message}")


def main() -> int:
    ctx = wl.make_context()
    captured = []
    solve = lp.solve

    def capturing_solve(program, *args, **kwargs):
        captured.append(program)
        return solve(program, *args, **kwargs)

    lp.solve = capturing_solve
    out = {"candidates": {}}
    try:
        for cand in wl.all_candidates():
            captured.clear()
            t0 = time.perf_counter()
            result = wl.run_op(ctx, cand)
            ms = 1e3 * (time.perf_counter() - t0)
            ref = wl.summarize(cand, result)
            if cand.is_lp:
                (program,) = captured
                ref["vars"], ref["rows"] = program.num_vars, program.num_rows
                check = highs(program)
                agree = check["status"] == ref["status"] and (
                    ref["gamma"] is None
                    or abs(check["objective"] - ref["gamma"]) <= 1e-6 * max(1.0, ref["gamma"]))
                if not agree:
                    raise SystemExit(f"{cand.id}: HiGHS {check} disagrees with {ref}")
                ref["highs"] = check
            out["candidates"][cand.id] = ref
            print(f"{ms:9.1f} ms  {cand.id}  {ref['status']}  "
                  f"{ref.get('gamma', ref.get('gain', ref.get('samples')))}", flush=True)
    finally:
        lp.solve = solve

    cert = delay.certify_delay_range(ctx.range_error, wl.RANGE_DT, delay.CONSTANT)
    out["range_error_gamma"] = float(cert.gamma)
    pinned = sim.empirical_gain(ctx.range_error, wl.RANGE_DT, n_trials=64, seed=0)
    if abs(pinned - PINNED_GAIN) > PINNED_RTOL * PINNED_GAIN:
        raise SystemExit(f"pinned empirical gain moved: {pinned} != {PINNED_GAIN}")
    out["pinned_empirical_gain"] = {"seed": 0, "n_trials": 64, "gain": pinned,
                                    "expected": PINNED_GAIN, "rtol": PINNED_RTOL}
    for s in EXTRA_GAIN_SEEDS:
        g = sim.empirical_gain(ctx.range_error, wl.RANGE_DT, n_trials=64, seed=s)
        if not 0.0 < g <= cert.gamma + 1e-6:
            raise SystemExit(f"empirical gain {g} at seed {s} exceeds gamma {cert.gamma}")
    out["empirical_gain_below_gamma_seeds"] = list(EXTRA_GAIN_SEEDS)
    for cand in wl.all_candidates():
        ref = out["candidates"][cand.id]
        if cand.family == "empirical_gain" and not ref["gain"] <= cert.gamma + 1e-6:
            raise SystemExit(f"{cand.id}: gain {ref['gain']} exceeds gamma {cert.gamma}")

    with open(wl.REFERENCES, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(out['candidates'])} references to {wl.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
