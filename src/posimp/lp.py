"""Linear programming with verifiable outcomes.

Programs are solved by the HiGHS dual simplex (Huangfu & Hall, Math. Prog.
Comp. 10, 2018) that scipy bundles, loaded from its extension file so that
``scipy.optimize`` is never imported.  HiGHS is not trusted: optimal points
are re-verified against the original rows, infeasibility carries Farkas
multipliers that ``farkas_check`` validates against the variable box, and an
unbounded ray is checked against every row.  ``dump`` gives a canonical text
form for exact row-level comparison of differently-built programs.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
import numpy as np

LE = "<="
GE = ">="
EQ = "=="
_RELS = (LE, GE, EQ)

_HIGHS_CORE = "scipy.optimize._highspy._core"
# presolve stays off because its code pages add memory to every process;
# feasibility tolerances of 1e-10 keep optima inside certificates' 1e-8 reverify
_HIGHS_OPTIONS = {"output_flag": False, "threads": 1, "presolve": "off",
                  "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class SolverError(RuntimeError):
    """The solver could not produce an outcome that passes verification."""


@dataclass(frozen=True)
class Violation:
    row: str
    amount: float

    def __str__(self) -> str:
        return f"{self.row}: violated by {self.amount:.3e}"


class LinearProgram:
    """minimize c.x  subject to rows a.x (<=|==|>=) b and box bounds on x.

    Variables and rows are identified by insertion order; names are kept
    for reporting and for the canonical dump.  Instances are treated as
    immutable once handed to :func:`solve`.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._var_names: list[str] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        # rows: (name, var-index array, coefficient array, relation, rhs)
        self._rows: list[tuple[str, np.ndarray, np.ndarray, str, float]] = []
        self._obj: dict[int, float] = {}

    # ------------------------------------------------------------------
    # construction
    def add_var(self, name: str, lb: float | None = None, ub: float | None = None) -> int:
        l = -np.inf if lb is None else float(lb)
        u = np.inf if ub is None else float(ub)
        if l > u:
            raise ValueError(f"variable {name}: lower bound {l} exceeds upper bound {u}")
        self._var_names.append(name)
        self._lb.append(l)
        self._ub.append(u)
        return len(self._var_names) - 1

    def add_row(self, name: str, coeffs, rel: str, rhs: float) -> int:
        if rel not in _RELS:
            raise ValueError(f"row {name}: unknown relation {rel!r}")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict[int, float] = {}
        for j, c in items:
            j = int(j)
            if not 0 <= j < len(self._var_names):
                raise IndexError(f"row {name}: variable index {j} out of range")
            c = float(c)
            if c != 0.0:
                acc[j] = acc.get(j, 0.0) + c
        idx = np.fromiter(acc.keys(), dtype=np.int64, count=len(acc))
        coef = np.fromiter(acc.values(), dtype=np.float64, count=len(acc))
        self._rows.append((name, idx, coef, rel, float(rhs)))
        return len(self._rows) - 1

    def add_to_objective(self, j: int, coef: float) -> None:
        self._obj[j] = self._obj.get(j, 0.0) + float(coef)

    def set_objective(self, coeffs: dict[int, float]) -> None:
        self._obj = {int(j): float(c) for j, c in coeffs.items() if c != 0.0}

    # ------------------------------------------------------------------
    # introspection
    @property
    def num_vars(self) -> int:
        return len(self._var_names)

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def var_names(self) -> list[str]:
        return list(self._var_names)

    @property
    def row_names(self) -> list[str]:
        return [r[0] for r in self._rows]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self._lb), np.array(self._ub)

    def row_value(self, i: int, x: np.ndarray) -> float:
        _, idx, coef, _, _ = self._rows[i]
        return float(coef @ x[idx])

    def objective_value(self, x: np.ndarray) -> float:
        return float(sum(c * x[j] for j, c in self._obj.items()))


@dataclass
class LpSolution:
    status: str  # "optimal"
    x: np.ndarray
    objective: float
    var_names: list[str]

    def __getitem__(self, name: str) -> float:
        return float(self.x[self.var_names.index(name)])


@dataclass
class LpInfeasible:
    status: str  # "infeasible"
    farkas: np.ndarray  # one multiplier per original row (see farkas_check)
    margin: float       # certified Farkas gap
    rows_used: list[tuple[str, float]]  # rows with non-negligible multipliers


@dataclass
class LpUnbounded:
    status: str  # "unbounded"
    ray: np.ndarray  # feasible improving direction in original variables



def _highs_core():
    """HiGHS as bundled with scipy, loaded from its file under its own name,
    so that ``scipy.optimize`` shares it in either import order."""
    if _HIGHS_CORE in sys.modules:
        return sys.modules[_HIGHS_CORE]
    spec = importlib.util.find_spec("scipy")  # locates scipy without importing it
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if spec else ():
        path = os.path.join(os.path.dirname(spec.origin), "optimize", "_highspy", "_core" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(_HIGHS_CORE, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_HIGHS_CORE, path, loader=loader))
            loader.exec_module(module)
            sys.modules[_HIGHS_CORE] = module
            return module
    from importlib.metadata import version  # itself an ImportError when scipy is missing
    raise ImportError(f"scipy {version('scipy')} has no optimize/_highspy/_core extension; "
                      "posimp solves with the HiGHS library bundled in scipy>=1.15,<1.18")


def _columns(lp: LinearProgram):
    """The rows of ``lp`` as a column-wise matrix: (start, row index, value)."""
    col = np.concatenate([np.zeros(0, np.int64)] + [r[1] for r in lp._rows])
    val = np.concatenate([np.zeros(0)] + [r[2] for r in lp._rows])
    row = np.repeat(np.arange(lp.num_rows, dtype=np.int32), [r[1].size for r in lp._rows])
    order = np.argsort(col, kind="stable")
    start = np.searchsorted(col[order], np.arange(lp.num_vars + 1)).astype(np.int32)
    return start, row[order], val[order]


def _run(cost, col_lower, col_upper, matrix, rels, rhs, program=None):
    """Run HiGHS on  min cost.x  s.t.  matrix.x (rels) rhs,  x in the box."""
    h = _highs_core()
    highs = h._Highs()
    for key, val in _HIGHS_OPTIONS.items():
        highs.setOptionValue(key, val)
    highs.passModel(cost.size, rhs.size, matrix[1].size, int(h.MatrixFormat.kColwise),
                    int(h.ObjSense.kMinimize), 0.0, cost, col_lower, col_upper,
                    np.where(rels == LE, -np.inf, rhs), np.where(rels == GE, np.inf, rhs),
                    *matrix, np.zeros(cost.size, np.int32))  # all columns continuous
    if highs.run() == h.HighsStatus.kError and highs.getModelStatus() == h.HighsModelStatus.kNotset:
        # another HiGHS user in this process sized the shared thread pool
        # differently; a thread count of 0 joins that pool
        highs.setOptionValue("threads", 0)
        highs.run()
    if program and highs.getModelStatus() != h.HighsModelStatus.kOptimal:  # auxiliary programs
        raise SolverError(f"{program} program ended with model status "
                          + highs.modelStatusToString(highs.getModelStatus()))
    return highs


def solve(lp: LinearProgram, feastol: float = 1e-8):
    """Solve the program.  Returns LpSolution, LpInfeasible or LpUnbounded,
    each after its check (:func:`verify`, :func:`farkas_check`, the ray
    check); raises SolverError when the check fails."""
    matrix = _columns(lp)
    rels = np.array([r[3] for r in lp._rows], dtype="<U2")
    rhs = np.array([r[4] for r in lp._rows], dtype=float)
    cost = np.zeros(lp.num_vars)
    cost[list(lp._obj)] = list(lp._obj.values())
    highs = _run(cost, *lp.bounds(), matrix, rels, rhs)
    status, codes = highs.getModelStatus(), _highs_core().HighsModelStatus
    extra, out = [], None
    if status == codes.kOptimal:
        x = np.array(highs.getSolution().col_value)
        x[np.abs(x) < 1e-12] = 0.0  # rounding noise on values pinned at zero by rows
        bad = verify(lp, x, feastol=max(1e-7, 10 * feastol))
        if bad:
            raise SolverError("optimal point failed re-verification: "
                              + "; ".join(str(v) for v in bad[:5]))
        out = LpSolution("optimal", x, lp.objective_value(x), lp.var_names)
    elif status in (codes.kInfeasible, codes.kUnboundedOrInfeasible):
        extra.append("elastic")
        out = _infeasible_outcome(lp, matrix, rels, rhs, feastol)
    elif status != codes.kUnbounded:
        raise SolverError(f"HiGHS stopped with model status {highs.modelStatusToString(status)}")
    if out is None:
        extra.append("ray")
        out = _unbounded_outcome(lp, matrix, rels, cost, feastol)
    # DEBUG can only be on once something has imported logging; importing
    # it here would cost every process half a megabyte
    logging = sys.modules.get("logging")
    log = logging and logging.getLogger(__name__)
    if log and log.isEnabledFor(logging.DEBUG):
        log.debug("%s: HiGHS %s after %d simplex iterations; extra program: %s",
                  lp.name, highs.modelStatusToString(status),
                  highs.getInfo().simplex_iteration_count, ", ".join(extra) or "none")
    return out


def _infeasible_outcome(lp, matrix, rels, rhs, feastol):
    """Farkas multipliers from the row duals of the always feasible elastic
    program  min sum(s)  s.t.  a.x - s <= b,  a.x + s >= b,  a.x + s' - s'' == b,
    s >= 0.  Returns None when its optimum is zero: the rows can be met."""
    start, index, value = matrix
    eq = np.nonzero(rels == EQ)[0]
    srow = np.concatenate([np.arange(rels.size), eq]).astype(np.int32)
    k = srow.size
    elastic = (np.append(start, start[-1] + np.arange(1, k + 1, dtype=np.int32)), np.append(index, srow),
               np.concatenate([value, np.where(rels == LE, -1.0, 1.0), -np.ones(eq.size)]))
    lb, ub = lp.bounds()
    highs = _run(np.append(np.zeros(lp.num_vars), np.ones(k)), np.append(lb, np.zeros(k)),
                 np.append(ub, np.full(k, np.inf)), elastic, rels, rhs, "elastic")
    if highs.getInfo().objective_function_value <= feastol:
        return None
    y = np.array(highs.getSolution().row_dual)
    u = np.where(rels == GE, y, -y)
    u[np.abs(u) < 1e-12] = 0.0
    valid, margin = farkas_check(lp, u, feastol)
    if not valid:
        raise SolverError("infeasibility detected but the Farkas certificate failed its check")
    used = [(lp._rows[i][0], float(u[i])) for i in np.nonzero(np.abs(u) > 1e-9)[0]]
    return LpInfeasible("infeasible", u, margin, used)


def _unbounded_outcome(lp, matrix, rels, cost, feastol):
    """An improving ray: min c.d over the homogeneous rows and the recession
    cone of the box, with |d_j| <= 1."""
    lb, ub = lp.bounds()
    highs = _run(cost, np.where(np.isinf(lb), -1.0, 0.0), np.where(np.isinf(ub), 1.0, 0.0),
                 matrix, rels, np.zeros(rels.size), "ray")
    d = np.array(highs.getSolution().col_value)
    # sanity: the ray must not increase the objective and must respect rows
    if lp.objective_value(d) > -1e-9:
        raise SolverError("unbounded ray fails to improve the objective")
    for name, idx, coef, rel, _ in lp._rows:
        g = float(coef @ d[idx])
        if (rel == LE and g > feastol) or (rel == GE and g < -feastol) or (rel == EQ and abs(g) > feastol):
            raise SolverError(f"unbounded ray violates row {name}")
    return LpUnbounded("unbounded", d)


def verify(lp: LinearProgram, x, feastol: float = 1e-8) -> list[Violation]:
    """Residual check of a point against all rows and bounds.

    Returns the (possibly empty) list of violations larger than feastol.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.num_vars,):
        raise ValueError(f"expected {lp.num_vars} values, got shape {x.shape}")
    out: list[Violation] = []
    for name, idx, coef, rel, rhs in lp._rows:
        v = float(coef @ x[idx])
        if rel == LE:
            amt = v - rhs
        elif rel == GE:
            amt = rhs - v
        else:
            amt = abs(v - rhs)
        if amt > feastol:
            out.append(Violation(name, amt))
    lb, ub = lp.bounds()
    for j in range(lp.num_vars):
        if x[j] < lb[j] - feastol:
            out.append(Violation(f"bound:{lp._var_names[j]}", float(lb[j] - x[j])))
        elif x[j] > ub[j] + feastol:
            out.append(Violation(f"bound:{lp._var_names[j]}", float(x[j] - ub[j])))
    return out


def farkas_check(lp: LinearProgram, u, feastol: float = 1e-8) -> tuple[bool, float]:
    """Validate Farkas multipliers u (one per row) against the variable box.

    Convention: every inequality row is first normalized to '<=' form
    (>= rows are negated); u must be >= 0 on inequality rows and may take
    either sign on equality rows.  The multipliers prove infeasibility when

        inf over the box of  sum_r u_r * (abar_r . x)   >   sum_r u_r * bbar_r.

    Returns (valid, margin) where margin is the certified gap.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (lp.num_rows,):
        raise ValueError(f"expected {lp.num_rows} multipliers, got shape {u.shape}")
    c = np.zeros(lp.num_vars)
    rhs = 0.0
    for i, (name, idx, coef, rel, b) in enumerate(lp._rows):
        ui = u[i]
        if ui == 0.0:
            continue
        if rel in (LE, EQ):
            if rel == LE and ui < -feastol:
                return False, -np.inf
            np.add.at(c, idx, ui * coef)
            rhs += ui * b
        else:  # GE row, normalized by negation
            if ui < -feastol:
                return False, -np.inf
            np.add.at(c, idx, -ui * coef)
            rhs += ui * (-b)
    lb, ub = lp.bounds()
    scale = max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
    lo = 0.0
    for j in range(lp.num_vars):
        cj = c[j]
        if abs(cj) <= 1e-9 * scale:
            continue
        v = cj * (lb[j] if cj > 0 else ub[j])
        if not np.isfinite(v):
            return False, -np.inf
        lo += v
    margin = lo - rhs
    return margin > 0.0, float(margin)


def dump(lp: LinearProgram) -> str:
    """Canonical text form: one `name: coef*var + coef*var REL rhs` line per row.

    Deterministic for identically-built programs (insertion order, repr
    floats), which lets tests compare two construction paths exactly.
    """
    lines = [f"lp {lp.name}"]
    obj = " + ".join(f"{float(c)!r}*{lp._var_names[j]}" for j, c in sorted(lp._obj.items()))
    lines.append(f"minimize: {obj if obj else '0'}")
    lb, ub = lp.bounds()
    for j, nm in enumerate(lp._var_names):
        lines.append(f"var {nm} in [{float(lb[j])!r}, {float(ub[j])!r}]")
    for name, idx, coef, rel, rhs in lp._rows:
        order = np.argsort(idx, kind="stable")
        terms = " + ".join(f"{float(coef[k])!r}*{lp._var_names[idx[k]]}" for k in order)
        lines.append(f"{name}: {terms if terms else '0'} {rel} {rhs!r}")
    return "\n".join(lines) + "\n"
