"""Linear programming with verifiable outcomes.

Programs are solved by the HiGHS dual simplex (Huangfu & Hall, Math. Prog.
Comp. 10, 2018) that scipy bundles, loaded from its extension file so that
``scipy.optimize`` is never imported.  HiGHS is not trusted: optimal points
are re-verified against the original rows, infeasibility carries Farkas
multipliers, read from the dual ray of the same run, that ``farkas_check``
validates against the variable box, and an unbounded ray is checked against
every row.  ``dump`` gives a canonical text form for exact row-level
comparison of differently-built programs.

Rows are kept as one coordinate list from :meth:`LinearProgram.add_rows`,
which takes whole blocks, to the HiGHS column matrix, the checks and dump.
Blocks are appended as they come and merged once, when the rows are first
read.  Each thread solves on one HiGHS instance of its own, set up once;
the run state it holds is valid until that thread's next run.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
import numpy as np

LE = "<="
GE = ">="
EQ = "=="
_RELS = (LE, GE, EQ)

_HIGHS_CORE = "scipy.optimize._highspy._core"
# presolve stays off because its code pages add memory to every process, and
# so that an infeasible run's dual ray is in the original rows;
# feasibility tolerances of 1e-10 keep optima inside certificates' 1e-8 reverify
_HIGHS_OPTIONS = {"output_flag": False, "threads": 1, "presolve": "off",
                  "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_THREAD = threading.local()  # .highs: this thread's instance, with the options set


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
    for reporting and for the canonical dump.  Coefficient k puts ``_val[k]``
    on variable ``_col[k]`` in row ``_row[k]``, sorted by row, then variable,
    at most once per pair; ``_names``, ``_rel`` and ``_rhs`` are per row.
    :meth:`add_rows` appends a block to the pending ones; the first read of
    these arrays merges every pending block in one pass.  Instances are
    treated as immutable once handed to :func:`solve`.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._var_names: list[str] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._names: list[str] = []
        self._coo = (np.zeros(0, np.int64),) * 2 + (np.zeros(0), np.zeros(0, "<U2"), np.zeros(0))
        self._pending: list[tuple] = []  # blocks of the five _merged arrays
        self._obj: dict[int, float] = {}

    # ------------------------------------------------------------------
    # construction
    def add_vars(self, names, lb=None, ub=None) -> np.ndarray:
        """One variable per entry of ``names``; ``lb`` and ``ub`` are one
        bound or one per variable, None for none.  Returns the indices."""
        names = list(names)
        l, u = (np.full(len(names), none if b is None else b, dtype=float)
                for b, none in ((lb, -np.inf), (ub, np.inf)))
        open_ = (l < np.inf) & (u > -np.inf)  # false for a NaN bound too
        for i in np.flatnonzero(~open_ | (l > u))[:1]:  # the first bad variable
            name, li, ui = names[i], float(l[i]), float(u[i])
            raise ValueError(f"variable {name}: lower bound {li} exceeds upper bound {ui}"
                             if open_[i] else f"variable {name}: bounds must not be NaN, a lower "
                             f"bound +inf or an upper bound -inf, got [{li}, {ui}]")
        self._var_names += names
        self._lb += l.tolist()
        self._ub += u.tolist()
        return np.arange(self.num_vars - len(names), self.num_vars)

    def add_var(self, name: str, lb: float | None = None, ub: float | None = None) -> int:
        return int(self.add_vars([name], lb, ub)[0])

    def add_rows(self, names, rows, cols, vals, rel: str, rhs) -> None:
        """Add one row per entry of ``names``, all with relation ``rel``.

        Coefficient k puts ``vals[k]`` on variable ``cols[k]`` in new row
        ``rows[k]`` (counted from 0 within this call); ``rhs`` is one value
        or one per row.  Zero values are left out, and the values of a
        variable repeated in a row are summed in the given order, so a
        cancelling pair stays as an explicit 0.0.
        """
        names = list(names)
        if rel not in _RELS:
            raise ValueError(f"row {names[0] if names else '?'}: unknown relation {rel!r}")
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if not rows.ndim == 1 or rows.shape != cols.shape or rows.shape != vals.shape:
            raise ValueError(f"rows, cols and vals must be 1-d and of one length, got shapes "
                             f"{rows.shape}, {cols.shape}, {vals.shape}")
        rhs = np.full(len(names), rhs, dtype=float)
        bad = np.flatnonzero((rows < 0) | (rows >= len(names)))
        if bad.size:
            raise IndexError(f"row index {rows[bad[0]]} out of range for {len(names)} rows")
        k = np.flatnonzero((cols < 0) | (cols >= self.num_vars))
        if k.size:
            raise IndexError(f"row {names[rows[k[0]]]}: variable index {cols[k[0]]} out of range")
        hit = vals != 0.0
        self._pending.append((self.num_rows + rows[hit], cols[hit], vals[hit],
                              np.full(len(names), rel), rhs))
        self._names += names

    def _merged(self) -> tuple:
        """The stored rows, after merging the pending blocks into them."""
        if self._pending:
            row, col, val, rel, rhs = map(np.concatenate, zip(*self._pending))
            n = max(self.num_vars, 1)
            key, at = np.unique(row * n + col, return_inverse=True)
            # bincount adds in input order, starting from 0.0; blocks hold
            # rows after all merged ones, so appending keeps the row order
            block = (key // n, key % n, np.bincount(at, weights=val, minlength=key.size), rel, rhs)
            self._coo = tuple(map(np.concatenate, zip(self._coo, block)))
            self._pending = []
        return self._coo

    _row, _col, _val, _rel, _rhs = (property(lambda p, k=k: p._merged()[k]) for k in range(5))

    def add_row(self, name: str, coeffs, rel: str, rhs: float) -> int:
        """One row from a {variable: coefficient} dict or (variable,
        coefficient) pairs; see :meth:`add_rows`."""
        pairs = list(coeffs.items() if isinstance(coeffs, dict) else coeffs)
        self.add_rows([name], [0] * len(pairs), [j for j, _ in pairs], [c for _, c in pairs], rel, rhs)
        return self.num_rows - 1

    def set_objective(self, coeffs: dict[int, float]) -> None:
        for j, c in coeffs.items():
            if not np.isfinite(c):
                raise ValueError(f"variable {self._var_names[j]}: objective cost {c} is not finite")
        self._obj = {int(j): float(c) for j, c in coeffs.items() if c != 0.0}

    # ------------------------------------------------------------------
    # introspection
    @property
    def num_vars(self) -> int:
        return len(self._var_names)

    @property
    def num_rows(self) -> int:
        return len(self._names)

    @property
    def var_names(self) -> list[str]:
        return list(self._var_names)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self._lb), np.array(self._ub)

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


def _run(cost, col_lower, col_upper, matrix, rels, rhs, program=None):
    """Run HiGHS on  min cost.x  s.t.  matrix.x (rels) rhs,  x in the box,
    on this thread's instance; its status, solution and rays are this run's
    until the thread's next run."""
    h = _highs_core()
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _THREAD.highs = h._Highs()
        for key, val in _HIGHS_OPTIONS.items():
            highs.setOptionValue(key, val)
    highs.clearModel()
    if highs.passModel(cost.size, rhs.size, matrix[1].size, int(h.MatrixFormat.kColwise),
                       int(h.ObjSense.kMinimize), 0.0, cost, col_lower, col_upper,
                       np.where(rels == LE, -np.inf, rhs), np.where(rels == GE, np.inf, rhs),
                       *matrix, np.zeros(cost.size, np.int32)) == h.HighsStatus.kError:
        raise SolverError("HiGHS refused the program: "
                          + _refusal(matrix[2], col_lower, col_upper, rhs))
    if highs.run() == h.HighsStatus.kError and highs.getModelStatus() == h.HighsModelStatus.kNotset:
        # another HiGHS user in this process sized the shared thread pool
        # differently; a thread count of 0 joins that pool
        highs.setOptionValue("threads", 0)
        highs.run()
    if program and highs.getModelStatus() != h.HighsModelStatus.kOptimal:  # auxiliary programs
        raise SolverError(f"{program} program ended with model status "
                          + highs.modelStatusToString(highs.getModelStatus()))
    return highs


def _refusal(values, col_lower, col_upper, rhs) -> str:
    """Why HiGHS refuses a model; its own message goes to its log, which is off."""
    big = np.abs(values).max(initial=0.0)
    return "; ".join(why for bad, why in (
        (big >= 1e15, f"a coefficient has magnitude {big:g}, and HiGHS admits only magnitudes "
                      "below 1e+15"),
        (np.isnan(np.concatenate([col_lower, col_upper, rhs])).any(),
         "a bound or right-hand side is NaN"),
        ((col_lower == np.inf).any() or (col_upper == -np.inf).any(),
         "a variable has lower bound +inf or upper bound -inf")) if bad) or "no known reason"


def solve(lp: LinearProgram, feastol: float = 1e-8):
    """Solve the program.  Returns LpSolution, LpInfeasible or LpUnbounded,
    each after its check (:func:`verify`, :func:`farkas_check`, the ray
    check); raises SolverError when HiGHS refuses the program or a check
    fails."""
    order = np.argsort(lp._col, kind="stable")  # column-wise, rows ascending
    matrix = (np.searchsorted(lp._col[order], np.arange(lp.num_vars + 1)).astype(np.int32),
              lp._row[order].astype(np.int32), lp._val[order])
    cost = np.zeros(lp.num_vars)
    cost[list(lp._obj)] = list(lp._obj.values())
    highs = _run(cost, *lp.bounds(), matrix, lp._rel, lp._rhs)
    status, codes = highs.getModelStatus(), _highs_core().HighsModelStatus
    # DEBUG is off until something imports logging (importing it here costs every
    # process half a megabyte); the line reports this run, read before the next
    logging = sys.modules.get("logging")
    log = logging and logging.getLogger(__name__)
    first = log and log.isEnabledFor(logging.DEBUG) and (
        highs.modelStatusToString(status), highs.getInfo().simplex_iteration_count)
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
        rays = highs
        if status == codes.kUnboundedOrInfeasible and not highs.getDualRayExist()[1]:
            extra.append("zero cost")  # cannot be unbounded: optimal means feasible
            rays = _run(np.zeros(lp.num_vars), *lp.bounds(), matrix, lp._rel, lp._rhs)
        if rays.getModelStatus() != codes.kOptimal:
            out = _infeasible_outcome(lp, rays, feastol)
    elif status != codes.kUnbounded:
        raise SolverError(f"HiGHS stopped with model status {highs.modelStatusToString(status)}")
    if out is None:
        extra.append("ray")
        out = _unbounded_outcome(lp, matrix, cost, feastol)
    if first:
        log.debug("%s: HiGHS %s after %d simplex iterations; extra program: %s",
                  lp.name, *first, ", ".join(extra) or "none")
    return out


def _infeasible_outcome(lp, highs, feastol):
    """Farkas multipliers from the dual ray of the infeasible run or, when HiGHS stopped without
    one before its first iteration, a unit weight on each unmet row with no non-zero term."""
    _, found, y = highs.getDualRay()
    if found:
        u = np.where(lp._rel == GE, y, -y)
    else:
        blank = np.bincount(lp._row, weights=lp._val != 0.0, minlength=lp.num_rows) == 0
        unmet = blank & (_row_excess(lp, np.zeros(lp.num_vars), lp._rhs) > 0.0)
        if not unmet.any():
            raise SolverError("HiGHS found the rows infeasible but gave no dual ray")
        u = np.where(unmet, np.where(lp._rel == EQ, -np.sign(lp._rhs), 1.0), 0.0)
    u[np.abs(u) < 1e-12] = 0.0
    valid, margin = farkas_check(lp, u, feastol)
    if not valid:
        raise SolverError("infeasibility detected but the Farkas certificate failed its check")
    used = [(lp._names[i], float(u[i])) for i in np.nonzero(np.abs(u) > 1e-9)[0]]
    return LpInfeasible("infeasible", u, margin, used)


def _unbounded_outcome(lp, matrix, cost, feastol):
    """An improving ray: min c.d over the homogeneous rows and the recession
    cone of the box, with |d_j| <= 1."""
    lb, ub = lp.bounds()
    zero = np.zeros(lp.num_rows)
    highs = _run(cost, np.where(np.isinf(lb), -1.0, 0.0), np.where(np.isinf(ub), 1.0, 0.0),
                 matrix, lp._rel, zero, "ray")
    d = np.array(highs.getSolution().col_value)
    # sanity: the ray must not increase the objective and must respect rows
    if lp.objective_value(d) > -1e-9:
        raise SolverError("unbounded ray fails to improve the objective")
    bad = np.flatnonzero(~(_row_excess(lp, d, zero) <= feastol))
    if bad.size:
        raise SolverError(f"unbounded ray violates row {lp._names[bad[0]]}")
    return LpUnbounded("unbounded", d)


def _row_excess(lp: LinearProgram, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per row, how far a.x lies outside the relation to ``rhs`` (<= 0 when met)."""
    ax = np.bincount(lp._row, weights=lp._val * x[lp._col], minlength=lp.num_rows)
    return np.select([lp._rel == LE, lp._rel == GE], [ax - rhs, rhs - ax], np.abs(ax - rhs))


def verify(lp: LinearProgram, x, feastol: float = 1e-8) -> list[Violation]:
    """Residual check of a point against all rows and bounds.

    Returns the (possibly empty) list of violations: every row and bound
    whose excess is not at most feastol, NaN included.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.num_vars,):
        raise ValueError(f"expected {lp.num_vars} values, got shape {x.shape}")
    rows = _row_excess(lp, x, lp._rhs)
    lb, ub = lp.bounds()
    box = np.maximum(lb - x, x - ub)
    return ([Violation(lp._names[i], float(rows[i])) for i in np.flatnonzero(~(rows <= feastol))]
            + [Violation(f"bound:{lp._var_names[j]}", float(box[j]))
               for j in np.flatnonzero(~(box <= feastol))])


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
    if (u[lp._rel != EQ] < -feastol).any():
        return False, -np.inf
    w = np.where(lp._rel == GE, -u, u)  # multipliers of the rows in '<=' form
    c = np.bincount(lp._col, weights=w[lp._row] * lp._val, minlength=lp.num_vars)
    lb, ub = lp.bounds()
    scale = max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
    live = ~(np.abs(c) <= 1e-9 * scale)
    v = c[live] * np.where(c[live] > 0, lb[live], ub[live])
    if not np.isfinite(v).all():
        return False, -np.inf
    margin = v.sum() - w @ lp._rhs
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
    terms = [f"{c!r}*{lp._var_names[j]}" for c, j in zip(lp._val.tolist(), lp._col.tolist())]
    ends = np.searchsorted(lp._row, np.arange(lp.num_rows + 1)).tolist()
    for i, (name, rel, rhs) in enumerate(zip(lp._names, lp._rel.tolist(), lp._rhs.tolist())):
        lines.append(f"{name}: {' + '.join(terms[ends[i]:ends[i + 1]]) or '0'} {rel} {rhs!r}")
    return "\n".join(lines) + "\n"
