"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload is cut down to its first three strata with one candidate per
reference status, and a run to two passes, so a run takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402
from posimp import lp  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.chdir(ROOT)
    small = {name: tuple(wl.Stratum(st.candidates, 1) for st in strata[:3])
             for name, strata in wl.WORKLOADS.items()}
    monkeypatch.setattr(wl, "WORKLOADS", small)
    monkeypatch.setattr(run, "MIN_OPS", 1)


def _run(workload, trace, refs=None):
    return run.run(workload, seed=3, seconds=0.2, trace=trace, setup_samples=1,
                   refs=refs, spawn=False)


def _names(kind):
    return {(m["name"], m["unit"]) for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        res = _run(workload, trace)
        assert res["attempted"] >= 2 and res["failed"] == 0, res["failures"]
        got = {(k, m["unit"]) for k, m in res["metrics"].items()}
        assert got == _names(kind)


def test_last_line_follows_the_contract(capsys):
    assert run.main(["--workload", "sweep", "--seed", "5", "--seconds", "0.2",
                     "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {(k, m["unit"]) for k, m in last["metrics"].items()} == _names("end_to_end")
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_corrupted_gamma_fails():
    refs = wl.load_references()
    plan = wl.plan("sweep", 3, refs)
    victim = next(c for c in plan if refs["candidates"][c.id]["status"] == "feasible")
    refs["candidates"][victim.id]["gamma"] *= 1.0 + 1e-3
    res = _run("sweep", True, refs)
    assert res["failed"] > 0
    assert res["metrics"]["fail_share"]["value"] > 0
    assert any(victim.id == f["op"] and "gamma" in f["problems"][0]
               for f in res["failures"])


def test_corrupted_farkas_margin_fails(monkeypatch):
    solve = lp.solve

    def negated_margin(program, *args, **kwargs):
        out = solve(program, *args, **kwargs)
        if out.status == "infeasible":
            out.margin = -abs(out.margin)
        return out

    monkeypatch.setattr(lp, "solve", negated_margin)
    res = _run("sweep", True)
    assert res["metrics"]["fail_share"]["value"] > 0
    assert all("Farkas margin" in f["problems"][0] for f in res["failures"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable] + SPEC["command"][1:]
                          + ["--workload", "sweep", "--seed", "1", "--seconds", "1",
                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
