"""Solver tests: hand cases, a randomized battery against scipy, and the
certificate invariants (Farkas multipliers, re-verification, determinism)."""

import logging
import sys
import threading

import numpy as np
import pytest
from scipy.optimize import linprog

from posimp import certify, core, lp
from systems import uncertain_impulsive


def test_min_over_halfline():
    p = lp.LinearProgram()
    x = p.add_var("x")
    p.add_row("lo", {x: 1.0}, lp.GE, 2.0)
    p.set_objective({x: 1.0})
    out = lp.solve(p)
    assert out.status == "optimal"
    assert out.x[0] == pytest.approx(2.0, abs=1e-9)
    assert out.objective == pytest.approx(2.0, abs=1e-9)


def _contradictory_pair():
    p = lp.LinearProgram()
    x = p.add_var("x")
    p.add_row("up", {x: 1.0}, lp.LE, 1.0)
    p.add_row("lo", {x: 1.0}, lp.GE, 2.0)
    return p


def test_contradictory_pair_gives_multipliers(monkeypatch):
    p = _contradictory_pair()
    runs = _count_runs(monkeypatch)
    out = lp.solve(p)
    assert out.status == "infeasible"
    assert len(runs) == 1  # the multipliers come from the run's own dual ray
    assert np.all(out.farkas >= 0.0)
    ok, margin = lp.farkas_check(p, out.farkas)
    assert ok and margin > 0.0
    names = {n for n, _ in out.rows_used}
    assert names == {"up", "lo"}


def test_unbounded_free_variable(monkeypatch):
    p = lp.LinearProgram()
    x = p.add_var("x")
    p.set_objective({x: -1.0})
    runs = _count_runs(monkeypatch)
    out = lp.solve(p)
    assert out.status == "unbounded"
    assert out.ray[0] > 0.0
    assert len(runs) == 2  # the ray program follows


def test_unbounded_with_rows_ray_is_feasible_direction():
    p = lp.LinearProgram()
    x = p.add_var("x", lb=0.0)
    y = p.add_var("y", lb=0.0)
    p.add_row("r", {x: 1.0, y: -1.0}, lp.LE, 3.0)
    p.set_objective({y: -1.0, x: 1.0})
    out = lp.solve(p)
    assert out.status == "unbounded"
    d = out.ray
    assert d[0] - d[1] <= 1e-9 and d[1] > 0.0


def test_equality_and_box():
    p = lp.LinearProgram()
    x = p.add_var("x", lb=0.0, ub=2.0)
    y = p.add_var("y", lb=0.0, ub=3.0)
    p.add_row("cap", {x: 1.0, y: 1.0}, lp.LE, 4.0)
    p.set_objective({x: -1.0, y: -2.0})
    out = lp.solve(p)
    assert out.status == "optimal"
    np.testing.assert_allclose(out.x, [1.0, 3.0], atol=1e-9)

    q = lp.LinearProgram()
    x = q.add_var("x", lb=0.0, ub=1.0)
    y = q.add_var("y", lb=0.0, ub=1.0)
    q.add_row("eq", {x: 1.0, y: 1.0}, lp.EQ, 5.0)
    out = lp.solve(q)
    assert out.status == "infeasible"
    assert out.margin > 0.0


def test_upper_bounded_only_variable():
    p = lp.LinearProgram()
    x = p.add_var("x", ub=-1.0)  # x <= -1, unbounded below
    p.add_row("lo", {x: 1.0}, lp.GE, -4.0)
    p.set_objective({x: 1.0})
    out = lp.solve(p)
    assert out.status == "optimal"
    assert out.x[0] == pytest.approx(-4.0, abs=1e-9)


def test_bad_inputs():
    p = lp.LinearProgram()
    with pytest.raises(ValueError):
        p.add_var("x", lb=1.0, ub=0.0)
    x = p.add_var("x")
    with pytest.raises(IndexError):
        p.add_row("r", {5: 1.0}, lp.LE, 0.0)
    with pytest.raises(ValueError):
        p.add_row("r", {x: 1.0}, "<", 0.0)


def test_verify_flags_violations():
    p = lp.LinearProgram()
    x = p.add_var("x", lb=0.0)
    p.add_row("r", {x: 1.0}, lp.LE, 1.0)
    assert lp.verify(p, np.array([0.5])) == []
    bad = lp.verify(p, np.array([2.0]))
    assert len(bad) == 1 and bad[0].row == "r" and bad[0].amount == pytest.approx(1.0)
    bad = lp.verify(p, np.array([-1.0]))
    assert bad and bad[0].row == "bound:x"


def test_duplicate_coefficients_are_merged():
    p = lp.LinearProgram()
    x = p.add_var("x", lb=0.0)
    p.add_row("r", [(x, 1.0), (x, 2.0)], lp.LE, 6.0)
    p.set_objective({x: -1.0})
    out = lp.solve(p)
    assert out.x[0] == pytest.approx(2.0, abs=1e-9)


def _stored_rows(p):
    """Per row: name, relation, rhs, variables and coefficient bytes."""
    ends = np.searchsorted(p._row, np.arange(p.num_rows + 1))
    return [(p._names[i], str(p._rel[i]), float(p._rhs[i]), p._col[a:b].tolist(),
             p._val[a:b].tobytes()) for i, (a, b) in enumerate(zip(ends[:-1], ends[1:]))]


@pytest.mark.parametrize("seed", range(10))
def test_add_rows_matches_one_add_row_per_row(seed):
    rng = np.random.default_rng(seed)
    n, m, k = 5, int(rng.integers(1, 7)), int(rng.integers(0, 40))
    rows = rng.integers(0, m, size=k)  # rows interleaved, variables repeated
    cols = rng.integers(0, n, size=k)
    vals = rng.choice([0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 1 / 3, 1e-17], size=k)
    pick = rng.integers(0, k, size=k // 3) if k else np.zeros(0, np.int64)
    rows, cols = np.append(rows, rows[pick]), np.append(cols, cols[pick])
    vals = np.append(vals, -vals[pick])  # cancelling pairs
    names, rhs = [f"r{i}" for i in range(m)], rng.normal(size=m)
    block, one_by_one = lp.LinearProgram(), lp.LinearProgram()
    for p in (block, one_by_one):
        for j in range(n):
            p.add_var(f"x{j}")
        p.add_row("before", {1: 2.0}, lp.EQ, 0.5)
    block.add_rows(names, rows, cols, vals, lp.GE, rhs)
    for i in range(m):
        at = rows == i
        one_by_one.add_row(names[i], zip(cols[at], vals[at]), lp.GE, rhs[i])
    # reference: a dict per row summed in the given order, zeros left out
    want = [("before", lp.EQ, 0.5, [1], np.array([2.0]).tobytes())]
    for i in range(m):
        acc = {}
        for j, v in zip(cols[rows == i].tolist(), vals[rows == i].tolist()):
            if v != 0.0:
                acc[j] = acc.get(j, 0.0) + v
        want.append((names[i], lp.GE, float(rhs[i]), sorted(acc),
                     np.array([acc[j] for j in sorted(acc)]).tobytes()))
    assert _stored_rows(block) == _stored_rows(one_by_one) == want
    assert lp.dump(block) == lp.dump(one_by_one)


def test_add_rows_rejects_bad_input():
    p = lp.LinearProgram()
    p.add_var("x")
    p.add_var("y")
    with pytest.raises(IndexError, match="row b: variable index 2"):
        p.add_rows(["a", "b"], [0, 1], [1, 2], [1.0, 0.0], lp.LE, 0.0)
    with pytest.raises(IndexError, match="variable index -1"):
        p.add_rows(["a"], [0], [-1], [1.0], lp.LE, 0.0)
    with pytest.raises(IndexError, match="row index 2"):
        p.add_rows(["a", "b"], [0, 2], [0, 1], [1.0, 1.0], lp.LE, 0.0)
    with pytest.raises(ValueError, match="unknown relation"):
        p.add_rows(["a"], [0], [0], [1.0], "<", 0.0)
    with pytest.raises(ValueError, match="one length"):
        p.add_rows(["a"], [0, 0], [0], [1.0], lp.LE, 0.0)
    with pytest.raises(ValueError):
        p.add_rows(["a", "b"], [0], [0], [1.0], lp.LE, [0.0, 1.0, 2.0])
    assert p.num_rows == 0 and p._val.size == 0


def test_verify_flags_a_nan_point():
    p = lp.LinearProgram()
    x = p.add_var("x", lb=0.0)
    p.add_row("r", {x: 1.0}, lp.LE, 1.0)
    assert [v.row for v in lp.verify(p, np.array([np.nan]))] == ["r", "bound:x"]


@pytest.mark.parametrize("coef, rhs, lb, why", [
    (1e16, 1.0, 0.0, "a coefficient has magnitude 1e[+]16"),
    (1.0, np.nan, 0.0, "a bound or right-hand side is NaN")])
def test_refused_program_says_why(coef, rhs, lb, why):
    # HiGHS refuses these programs before solving; the error names the cause
    p = lp.LinearProgram()
    x = p.add_var("x", lb=lb)
    p.add_row("r", {x: coef}, lp.LE, rhs)
    with pytest.raises(lp.SolverError, match="HiGHS refused the program: " + why):
        lp.solve(p)


@pytest.mark.parametrize("lb, ub", [(np.inf, None), (np.inf, np.inf), (None, -np.inf),
                                    (-np.inf, -np.inf), (np.nan, None), (0.0, np.nan)])
def test_add_var_refuses_a_bound_no_value_meets(lb, ub):
    p = lp.LinearProgram()
    with pytest.raises(ValueError, match=r"^variable x\[2\]: bounds must not be NaN"):
        p.add_var("x[2]", lb=lb, ub=ub)
    assert p.num_vars == 0


@pytest.mark.parametrize("lb, ub", [(np.inf, None), (np.inf, np.inf), (None, -np.inf),
                                    (-np.inf, -np.inf), (np.nan, None), (0.0, np.nan),
                                    (1.0, 0.0), (np.inf, 0.0)])
def test_add_vars_refuses_what_add_var_refuses(lb, ub):
    with pytest.raises(ValueError) as want:
        lp.LinearProgram().add_var("v[1]", lb=lb, ub=ub)
    p = lp.LinearProgram()
    p.add_var("x")
    # the first bad variable is named; v[2] is bad too, for another reason
    lbs = [0.0, -np.inf if lb is None else lb, 2.0]
    ubs = [1.0, np.inf if ub is None else ub, 1.0]
    with pytest.raises(ValueError) as got:
        p.add_vars(["v[0]", "v[1]", "v[2]"], lbs, ubs)
    assert str(got.value) == str(want.value)
    assert p.var_names == ["x"] and [a.tolist() for a in p.bounds()] == [[-np.inf], [np.inf]]


def test_add_vars_takes_one_bound_or_one_per_variable():
    p = lp.LinearProgram()
    assert p.add_var("x", lb=-0.0) == 0
    assert p.add_vars(["y", "z"], lb=[1.0, 2.0], ub=5.0).tolist() == [1, 2]
    assert p.add_vars([]).size == 0
    lb, ub = p.bounds()
    assert lb.tobytes() == np.array([-0.0, 1.0, 2.0]).tobytes()
    assert ub.tolist() == [np.inf, 5.0, 5.0]


def _blocks(rng):
    """Random add_rows blocks with repeated variables and cancelling pairs,
    over three variables and from the third block on over four."""
    out = []
    for b in range(4):
        m, k = int(rng.integers(1, 4)), int(rng.integers(0, 12))
        rows, cols = rng.integers(0, m, size=k), rng.integers(0, 3 + (b >= 2), size=k)
        vals = rng.choice([0.0, 1.0, -1.0, 0.1, 1 / 3], size=k)
        rows, cols = np.append(rows, [0, 0]), np.append(cols, [0, 0])
        vals = np.append(vals, [0.7, -0.7])
        out.append(([f"b{b}r{i}" for i in range(m)], rows, cols, vals, lp.LE if b % 2 else lp.EQ,
                    rng.normal(size=m)))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_reading_rows_between_blocks_keeps_the_program(seed):
    # blocks added after a read are merged on the next read, as in one go
    blocks = _blocks(np.random.default_rng(seed))
    once, read = lp.LinearProgram(), lp.LinearProgram()
    for p in (once, read):
        for j in range(3):
            p.add_var(f"x{j}")
    for b, block in enumerate(blocks):
        if b == 2:  # a variable added between reads widens the merge key
            once.add_var("x3")
            read.add_var("x3")
        once.add_rows(*block)
        read.add_rows(*block)
        if b % 2:
            lp.verify(read, np.zeros(read.num_vars))
        else:
            lp.dump(read)
    assert lp.dump(read) == lp.dump(once)
    assert _stored_rows(read) == _stored_rows(once)
    # every block's cancelling pair on x0 stays an explicit 0.0 in its first row
    assert [row[3][0] for row in _stored_rows(read) if row[0].endswith("r0")] == [0] * 4
    assert lp.solve(read).status == lp.solve(once).status


@pytest.mark.parametrize("cost", [np.nan, np.inf, -np.inf])
def test_set_objective_refuses_a_cost_that_is_not_finite(cost):
    # HiGHS would call these programs optimal
    p = lp.LinearProgram()
    x = p.add_var("x", lb=0.0)
    y = p.add_var("y", lb=0.0)
    p.add_row("r", {x: 1.0, y: 1.0}, lp.LE, 1.0)
    with pytest.raises(ValueError, match=r"^variable y: objective cost -?(nan|inf) is not finite"):
        p.set_objective({x: 1.0, y: cost})


# ---------------------------------------------------------------------------
# randomized battery against scipy.optimize.linprog (oracle)

def _random_program(rng):
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 11))
    p = lp.LinearProgram("rand")
    bounds = []
    for j in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            lo, hi = None, None
        elif kind == 1:
            lo, hi = float(rng.normal()), None
        elif kind == 2:
            lo, hi = None, float(rng.normal())
        else:
            lo = float(rng.normal())
            hi = lo + float(rng.uniform(0.1, 3.0))
        p.add_var(f"x{j}", lb=lo, ub=hi)
        bounds.append((lo, hi))
    A, rels, b = [], [], []
    for i in range(m):
        row = rng.normal(size=n) * (rng.random(size=n) < 0.7)
        rel = [lp.LE, lp.GE, lp.EQ][int(rng.integers(0, 3))]
        rhs = float(rng.normal())
        p.add_row(f"r{i}", {j: row[j] for j in range(n)}, rel, rhs)
        A.append(row)
        rels.append(rel)
        b.append(rhs)
    c = rng.normal(size=n) * (rng.random(size=n) < 0.8)
    p.set_objective({j: c[j] for j in range(n)})
    return p, np.array(A).reshape(m, n), rels, np.array(b), c, bounds


def _oracle(A, rels, b, c, bounds):
    m, n = A.shape
    Aub, bub, Aeq, beq = [], [], [], []
    for i in range(m):
        if rels[i] == lp.LE:
            Aub.append(A[i]); bub.append(b[i])
        elif rels[i] == lp.GE:
            Aub.append(-A[i]); bub.append(-b[i])
        else:
            Aeq.append(A[i]); beq.append(b[i])
    res = linprog(
        c,
        A_ub=np.array(Aub) if Aub else None, b_ub=np.array(bub) if bub else None,
        A_eq=np.array(Aeq) if Aeq else None, b_eq=np.array(beq) if beq else None,
        bounds=bounds, method="highs", options={"presolve": False})
    return res


# With presolve on, HiGHS calls these feasible, unbounded programs infeasible.
_PRESOLVE_MISLABELS = (674, 783, 1201, 2148)
# The first draws whose rows all lack a non-zero term: HiGHS leaves no dual ray.
_NO_RAY = (1375, 1395, 1469, 1634)


@pytest.mark.parametrize("seed", [*range(60), *(pytest.param(s - 1000, id=f"rng{s}")
                                               for s in _PRESOLVE_MISLABELS + _NO_RAY)])
def test_against_scipy(seed):
    rng = np.random.default_rng(1000 + seed)
    p, A, rels, b, c, bounds = _random_program(rng)
    ours = lp.solve(p)
    ref = _oracle(A, rels, b, c, bounds)
    if ref.status == 0:
        assert ours.status == "optimal", f"oracle optimal, we said {ours.status}"
        assert ours.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
        assert lp.verify(p, ours.x, feastol=1e-7) == []
    elif ref.status == 2:
        assert ours.status == "infeasible"
        ok, margin = lp.farkas_check(p, ours.farkas)
        assert ok and margin > 0.0
    elif ref.status == 3:
        assert ours.status == "unbounded"
    else:  # pragma: no cover
        pytest.skip(f"oracle returned status {ref.status}")


def test_degenerate_many_ties_terminates():
    # many duplicated rows through the same vertex: a degenerate vertex the
    # simplex must leave without cycling
    p = lp.LinearProgram()
    xs = [p.add_var(f"x{j}", lb=0.0) for j in range(6)]
    for i in range(40):
        p.add_row(f"d{i}", {x: 1.0 for x in xs}, lp.LE, 1.0)
    for j, x in enumerate(xs):
        p.add_row(f"s{j}", {x: 1.0, xs[(j + 1) % 6]: -1.0}, lp.LE, 0.5)
    p.set_objective({x: -1.0 for x in xs})
    out = lp.solve(p)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(-1.0, abs=1e-8)


def test_deterministic_resolve_and_dump():
    def build():
        p = lp.LinearProgram("det")
        x = p.add_var("x", lb=0.0)
        y = p.add_var("y")
        p.add_row("a", {x: 1.0, y: 2.0}, lp.LE, 4.0)
        p.add_row("b", {x: 3.0, y: -1.0}, lp.GE, -2.0)
        p.set_objective({x: 1.0, y: -1.0})
        return p
    p1, p2 = build(), build()
    assert lp.dump(p1) == lp.dump(p2)
    o1, o2 = lp.solve(p1), lp.solve(p2)
    assert o1.status == o2.status == "optimal"
    assert o1.x.tobytes() == o2.x.tobytes()


def test_farkas_check_rejects_bogus_multipliers():
    p = lp.LinearProgram()
    x = p.add_var("x", lb=0.0)
    p.add_row("r", {x: 1.0}, lp.LE, 1.0)  # feasible program
    ok, _ = lp.farkas_check(p, np.array([1.0]))
    assert not ok


# ---------------------------------------------------------------------------
# HiGHS statuses mapped onto the outcome types

def test_infeasible_program_with_improving_direction_is_infeasible():
    p = lp.LinearProgram()
    x = p.add_var("x")
    y = p.add_var("y")
    p.add_row("lo", {x: 1.0}, lp.GE, 1.0)
    p.add_row("up", {x: 1.0}, lp.LE, 0.0)
    p.set_objective({y: -1.0})
    out = lp.solve(p)
    assert out.status == "infeasible"
    ok, margin = lp.farkas_check(p, out.farkas)
    assert ok and margin > 0.0


@pytest.mark.parametrize("rhs, rel, sign", [(3.0, lp.LE, -1.0), (-3.0, lp.GE, 1.0)])
def test_infeasible_equality_row_with_free_variable(rhs, rel, sign):
    # x free, y in [0, 1]; the conflict needs the equality row with a
    # negative multiplier in one case and a positive one in the other, so
    # both signs of an equality row's multiplier are exercised
    p = lp.LinearProgram()
    x = p.add_var("x")
    y = p.add_var("y", lb=0.0, ub=1.0)
    p.add_row("e", {x: 1.0, y: 1.0}, lp.EQ, rhs)
    p.add_row("c", {x: 1.0, y: -1.0}, rel, 0.0)
    out = lp.solve(p)
    assert out.status == "infeasible"
    ok, margin = lp.farkas_check(p, out.farkas)
    assert ok and margin > 0.0
    assert np.sign(out.farkas[0]) == sign


def test_unbounded_ray_is_zero_on_doubly_bounded_variable():
    p = lp.LinearProgram()
    x = p.add_var("x", lb=0.0, ub=2.0)
    y = p.add_var("y", lb=0.0)
    p.add_row("r", {x: 1.0, y: -1.0}, lp.LE, 1.0)
    p.set_objective({x: -1.0, y: -1.0})
    out = lp.solve(p)
    assert out.status == "unbounded"
    assert out.ray[0] == 0.0 and out.ray[1] > 0.0


def test_one_debug_line_per_solve(caplog):
    p = lp.LinearProgram("logged")
    x = p.add_var("x", lb=0.0)
    p.add_row("up", {x: 1.0}, lp.LE, 1.0)
    p.add_row("lo", {x: 1.0}, lp.GE, 2.0)
    with caplog.at_level(logging.DEBUG, logger="posimp.lp"):
        lp.solve(p)
    lines = [r.getMessage() for r in caplog.records if r.name == "posimp.lp"]
    assert len(lines) == 1
    assert lines[0].startswith("logged: HiGHS Infeasible after ")
    assert "simplex iterations; extra program: none" in lines[0]


# ---------------------------------------------------------------------------
# infeasibility from the one HiGHS run: its dual ray, or rows without a term

class _NoRay:
    """A HiGHS run that reports ``status`` and holds no dual ray."""

    def __init__(self, highs, status):
        self._highs, self._status = highs, status

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getModelStatus(self):
        return self._status

    def getDualRayExist(self):
        return self._highs.getDualRayExist()[0], False

    def getDualRay(self):
        status, _, y = self._highs.getDualRay()
        return status, False, np.zeros_like(y)


def _count_runs(monkeypatch, first_status=None):
    """The list of HiGHS runs ``lp.solve`` makes from here on.  With
    ``first_status`` (a HighsModelStatus name) the first run reports that
    status and no dual ray."""
    runs, run = [], lp._run

    def counted(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        if first_status and len(runs) == 1:
            return _NoRay(runs[0], getattr(lp._highs_core().HighsModelStatus, first_status))
        return runs[-1]
    monkeypatch.setattr(lp, "_run", counted)
    return runs


@pytest.mark.parametrize("terms, rel, rhs, weight", [
    ({}, lp.LE, -1.0, 1.0), ({}, lp.GE, 1.0, 1.0), ({}, lp.EQ, 2.0, -1.0),
    ({}, lp.EQ, -2.0, 1.0), ([(0, 1.0), (0, -1.0)], lp.EQ, 1.0, -1.0)])
def test_unmet_row_without_a_term_is_the_conflict(terms, rel, rhs, weight):
    # HiGHS stops before its first iteration on these programs and leaves no
    # dual ray; the row itself, with a unit weight, proves infeasibility
    p = lp.LinearProgram()
    p.add_var("x", lb=0.0)
    p.add_row("blank", terms, rel, rhs)
    out = lp.solve(p)
    assert out.status == "infeasible"
    ok, margin = lp.farkas_check(p, out.farkas)
    assert ok and margin > 0.0
    assert out.rows_used == [("blank", weight)]


def test_unbounded_or_infeasible_without_a_ray_resolves_the_rows(monkeypatch):
    # the zero-cost run finds the rows infeasible and gives its own ray
    runs = _count_runs(monkeypatch, "kUnboundedOrInfeasible")
    p = _contradictory_pair()
    out = lp.solve(p)
    assert out.status == "infeasible"
    ok, margin = lp.farkas_check(p, out.farkas)
    assert ok and margin > 0.0
    assert len(runs) == 2
    # the zero-cost run is optimal: the rows can be met, so the ray program runs
    runs = _count_runs(monkeypatch, "kUnboundedOrInfeasible")
    p = lp.LinearProgram()
    x = p.add_var("x", lb=0.0)
    p.add_row("lo", {x: 1.0}, lp.GE, 1.0)
    p.set_objective({x: -1.0})
    out = lp.solve(p)
    assert out.status == "unbounded" and out.ray[0] > 0.0
    assert len(runs) == 3


def test_infeasible_without_a_ray_or_a_blank_row_is_an_error(monkeypatch):
    _count_runs(monkeypatch, "kInfeasible")
    with pytest.raises(lp.SolverError, match="gave no dual ray"):
        lp.solve(_contradictory_pair())


def test_infeasible_certificate_takes_one_highs_run(monkeypatch):
    runs = _count_runs(monkeypatch)
    out = certify.certify_min(uncertain_impulsive(), core.Minimum(0.3),
                              options=certify.CertifyOptions(n_nodes=5))
    assert isinstance(out, certify.Infeasible) and out.margin > 0.0
    assert len(runs) == 1


def test_missing_highs_extension_names_the_scipy_version(monkeypatch):
    monkeypatch.delitem(sys.modules, lp._HIGHS_CORE)
    monkeypatch.setattr(lp.os.path, "isfile", lambda path: False)
    with pytest.raises(ImportError, match=r"scipy \d+\.\d+"):
        lp._highs_core()


# ---------------------------------------------------------------------------
# one HiGHS instance per thread, reused from program to program

def _certificate_programs(monkeypatch):
    """The programs of two certificates: optimal (tbar 2.0), infeasible (tbar 0.3)."""
    seen, solve = [], lp.solve
    with monkeypatch.context() as m:
        m.setattr(lp, "solve", lambda p, **kw: seen.append(p) or solve(p, **kw))
        for tbar in (2.0, 0.3):
            certify.certify_min(uncertain_impulsive(), core.Minimum(tbar),
                                options=certify.CertifyOptions(n_nodes=7))
    return seen


def _recorded(monkeypatch):
    """(model status, iteration count) of each HiGHS run from here on, read right after it."""
    seen, run = [], lp._run

    def recorded(*args, **kwargs):
        highs = run(*args, **kwargs)
        seen.append((highs.getModelStatus(), highs.getInfo().simplex_iteration_count))
        return highs
    monkeypatch.setattr(lp, "_run", recorded)
    return seen


def _outcome(p, seen=()):
    """Status, point or multiplier bytes, and the runs recorded in ``seen`` meanwhile."""
    first = len(seen)
    out = lp.solve(p)
    return out.status, (out.x if out.status == "optimal" else out.farkas).tobytes(), seen[first:]


def test_reused_instance_repeats_each_outcome_bit_for_bit(monkeypatch):
    a, b = _certificate_programs(monkeypatch)
    seen = _recorded(monkeypatch)
    first = [_outcome(p, seen) for p in (a, b)]
    highs = lp._THREAD.highs
    assert [o[0] for o in first] == ["optimal", "infeasible"]
    assert all(len(o[2]) == 1 and o[2][0][1] > 0 for o in first)  # one run each, with pivots
    assert [_outcome(p, seen) for p in (a, b, a)] == first + first[:1]
    assert lp._THREAD.highs is highs


def test_threads_solve_on_their_own_instances(monkeypatch):
    # more threads than cores, switching often, each solving its program in a loop
    a, b = _certificate_programs(monkeypatch)
    want = [_outcome(p) for p in (a, b)]
    start, got, instances = threading.Barrier(4), {}, {}

    def work(i):
        start.wait(timeout=60)
        got[i] = [_outcome((a, b)[i % 2]) for _ in range(5)]
        instances[i] = lp._THREAD.highs
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {i: [want[i % 2]] * 5 for i in range(4)}
    assert len({id(h) for h in [*instances.values(), lp._THREAD.highs]}) == 5


def test_debug_line_reports_the_first_run(monkeypatch, caplog):
    # the zero-cost run and the ray program replace the state of the first
    # run on the same instance
    p, _ = _certificate_programs(monkeypatch)
    p.set_objective({p.var_names.index("gamma"): -1.0})  # gamma has no upper bound
    seen = _recorded(monkeypatch)
    runs = _count_runs(monkeypatch, "kUnboundedOrInfeasible")
    with caplog.at_level(logging.DEBUG, logger="posimp.lp"):
        assert lp.solve(p).status == "unbounded"
    assert len(runs) == 3 and seen[0][1] not in (seen[1][1], seen[2][1])
    status = runs[0].modelStatusToString(lp._highs_core().HighsModelStatus.kUnboundedOrInfeasible)
    assert [r.getMessage() for r in caplog.records if r.name == "posimp.lp"] == [
        f"{p.name}: HiGHS {status} after {seen[0][1]} simplex iterations; "
        "extra program: zero cost, ray"]
