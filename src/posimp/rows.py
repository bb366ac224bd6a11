"""Linear-program rows over variable families on a timer grid.

Certificates and observer synthesis impose the same inequalities: column
sums of a block matrix, weighted by LP variables that live at the nodes of
the timer grid.  A *family* is the index array of such variables: shape
(m, N) for m node-valued quantities (linear in the timer between nodes),
(m,) for timer-independent ones, () for a single variable.  A *term*
``(family, coef)`` puts sum_r coef[r, j] * family[r](tau) into column j of
a row group.  ``coef`` is a matrix or a callable of the timer (a
:class:`~posimp.core.TimerMatrixFunction`); for a single variable it is
one number, or one number per column.  An optional third entry replaces
the interpolation weights of a node-valued family.

:class:`DecayProgram` owns the timer grid of every certificate and
synthesis program: it turns a dwell-time constraint into the grid and the
flow, stationarity and jump decay rows, decides in
:meth:`~DecayProgram.flow_plan` where timer-dependent rows are imposed and
whether that is sound, and fills the fields every :class:`Answer` shares.
:func:`emit` adds the rows of any block in one ``add_rows`` call, one
numpy product per term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, product
import numpy as np

from . import core, lp, pwl

_ONE = np.ones((1, 1))


def fmt(t: float) -> str:
    """A timer value as it appears in row names."""
    return f"{t:.12g}"


def add_vars(p: lp.LinearProgram, name: str, shape, lb=None, ub=None) -> np.ndarray:
    """A family of new variables; ``name`` is formatted with each index.
    ``lb`` is one lower bound or an array of them broadcast to ``shape``."""
    names = [name.format(*ix) for ix in product(*map(range, shape))]
    return p.add_vars(names, None if lb is None else np.broadcast_to(lb, shape).ravel(),
                      ub).reshape(shape)


def emit(p: lp.LinearProgram, prefix: str, suffixes, groups, rel: str = lp.LE) -> None:
    """Add the rows of every group at every sample, sample by sample.

    A group is (column names, terms, rhs per column, keep).  A term is
    (variables (m, K), weights (S or 1, K), coefficients (S or 1, m, ncols))
    and puts weights[s, k] * coefficients[s, r, j] on variables[r, k] in
    the row of sample s and column j.  ``keep`` (S, ncols), when not None,
    selects the rows.  Every column has one zero-padded slot per variable
    of its group's terms, and the products of each term fill their slots
    of one (S, all columns, slots) array, so the entries of a row come in
    (term, variable row, node) order; a term with one sample of weights
    and coefficients fills every sample.
    """
    S = len(suffixes)
    keep = np.concatenate([np.ones((S, len(cols)), dtype=bool) if k is None else k
                           for cols, _, _, k in groups], axis=1)
    number = np.cumsum(keep).reshape(keep.shape) - 1  # (sample, column) -> row, once kept
    slots = max((sum(f.size for f, _, _ in terms) for _, terms, _, _ in groups), default=0)
    vals = np.zeros((S, keep.shape[1], slots))
    var = np.zeros((keep.shape[1], slots), dtype=np.int64)
    first = 0
    for cols, terms, _, _ in groups:
        n, a = len(cols), 0
        for f, w, c in terms:
            prod = np.swapaxes(c, 1, 2)[..., None] * w[:, None, None, :]
            vals[:, first:first + n, a:a + f.size] = prod.reshape(len(prod), n, f.size)
            var[first:first + n, a:a + f.size] = f.ravel()
            a += f.size
        first += n
    hit = (vals != 0.0) & keep[:, :, None]  # zero products and padding are left out
    s, j, k = np.nonzero(hit)
    names = [f"{prefix}{col}{suffix}" for suffix in suffixes for cols, _, _, _ in groups
             for col in cols]
    p.add_rows(compress(names, keep.ravel()), number[s, j], var[j, k], vals[hit], rel,
               np.tile(np.concatenate([rhs for _, _, rhs, _ in groups]), S)[keep.ravel()])


def resolve(term, at, weights, ncols: int):
    """A (family, coef[, weights]) term in the form :func:`emit` takes, with
    node-valued families interpolated at ``at``.  A timer polynomial is
    evaluated at all of ``at`` in one pass (a constant one, as every lft
    flow block without a timer, is its one coefficient), any other
    callable once per timer value."""
    family, coef, *own = term
    v = np.asarray(family)
    if v.ndim == 0:
        return v.reshape(1, 1), _ONE, np.full((1, 1, ncols), coef, dtype=float)
    c = coef.at(at) if isinstance(coef, core.TimerMatrixFunction) else \
        np.stack([coef(t) for t in at]) if callable(coef) else np.asarray(coef, dtype=float)[None]
    if v.ndim == 1:
        return v[:, None], _ONE, c
    return v, own[0] if own else weights, c


@dataclass
class Infeasible:
    kind: str
    constraint: core.DwellTimeConstraint
    rows: list[tuple[str, float]]      # named conditions with Farkas weight
    margin: float

    def __str__(self):
        head = f"no {self.kind} certificate exists for {self.constraint}"
        if self.rows:
            conds = ", ".join(n for n, _ in self.rows[:8])
            more = "" if len(self.rows) <= 8 else f" (+{len(self.rows) - 8} more)"
            return f"{head}; conflicting conditions: {conds}{more}"
        return head


@dataclass(kw_only=True)
class Answer:
    """The fields every certificate and synthesis answer shares."""
    kind: str
    constraint: core.DwellTimeConstraint
    gamma: float
    eps: float
    sound: bool                        # False when flow rows were only sampled
    program: lp.LinearProgram = field(repr=False)
    assignment: np.ndarray = field(repr=False)
    restriction: str | None = None     # extra admissibility restriction, if any

    def reverify(self, feastol: float = 1e-8) -> list[lp.Violation]:
        return lp.verify(self.program, self.assignment, feastol)


class DecayProgram:
    """A program over the timer grid of a dwell-time constraint, with the
    gain bound gamma, the contraction eps and the decay rows all
    certificates share.

    The constraint ``dt`` decides the grid and the rows once: nodes on
    [0, tmax] for a :class:`~posimp.core.Range`, on [0, tbar] for a
    :class:`~posimp.core.Minimum` (periodic or not).  Row groups are
    (name, terms, rhs), one column per rhs entry.  The first group holds
    the state columns; each kind of row adds its own terms of the
    node-valued ``state`` family there: the timer derivative on flow rows,
    eps on stationarity rows, eps - state(theta) on jump rows.  Terms are
    taken at the sample timer on flow and stationarity rows and at tau = 0
    on jump rows.  ``sound`` stays True while every flow plan is sound.
    """

    def __init__(self, name: str, dt, n_nodes: int, margin: float, eps_min: float):
        self.p = lp.LinearProgram(name)
        self.dt = dt
        self.minimum = isinstance(dt, core.Minimum)
        self.nodes = pwl.uniform_nodes(dt.tbar if self.minimum else dt.tmax, n_nodes)
        self.gamma = self.p.add_var("gamma", lb=margin)
        self.eps = self.p.add_var("eps", lb=eps_min)
        self.sound = True
        self.restriction: str | None = None

    def flow_plan(self, degree: int) -> np.ndarray:
        """Where the flow rows of one block, of the form
        d/dtau(pwl) + pwl * M(tau) <= rhs, are imposed: one row of timer
        values per grid segment.

        With constant system matrices (degree 0) the left-hand side is
        affine in tau on each segment, so imposing the row at both segment
        endpoints is sound for the whole segment.  With timer-dependent
        matrices the product of a degree->=1 matrix and a piecewise-linear
        variable is no longer affine; endpoints plus the midpoint are then
        imposed and the program is recorded as sampled rather than sound.
        """
        a, b = self.nodes[:-1], self.nodes[1:]
        if degree <= 0:
            return np.stack([a, b], axis=1)
        self.sound = False
        return np.stack([a, 0.5 * (a + b), b], axis=1)

    def decay_rows(self, tag: str, state, flow, jump, plan: np.ndarray) -> None:
        """The flow rows of the ``flow`` groups at every sample of ``plan``
        (see :meth:`flow_plan`); for a minimum dwell time the same rows
        frozen at tau = tbar, with eps in place of the derivative; then,
        unless ``jump`` is None, the jump rows at every dwell value theta:
        tbar, or the grid points covering [tmin, tmax].  Row names start
        with ``tag``."""
        segments, per = plan.shape
        s, k = np.arange(plan.size), np.repeat(np.arange(segments), per)
        deriv = np.zeros((s.size, self.nodes.size))
        h = np.diff(self.nodes)[k]
        deriv[s, k], deriv[s, k + 1] = -1.0 / h, 1.0 / h
        self._rows(tag + "flow:", [f"@s{j}.{i}" for j in range(segments) for i in range(per)],
                   plan.ravel().tolist(), flow, [(state, np.eye(len(state)), deriv)])
        if self.minimum:
            self._rows(tag + "stat:", [""], [self.dt.tbar], flow, [(self.eps, 1.0)])
        if jump is not None:
            thetas = [self.dt.tbar] if self.minimum else \
                pwl.window_points(self.nodes, self.dt.tmin, self.dt.tmax)
            theta = (state, -np.eye(len(state)), pwl.hat_matrix(self.nodes, thetas))
            self._rows(tag + "jump:", [f"@{fmt(t)}" for t in thetas], [0.0] * len(thetas), jump,
                       [(self.eps, 1.0), theta])

    def minimize_gamma(self, kind: str, feastol: float):
        """Minimize gamma: :class:`Infeasible` naming the conflicting rows,
        or the :class:`Answer` fields at the optimal point, which is their
        ``assignment``."""
        self.p.set_objective({self.gamma: 1.0})
        out = lp.solve(self.p, feastol=feastol)
        if out.status == "infeasible":
            return Infeasible(kind, self.dt, out.rows_used, out.margin)
        if out.status != "optimal":  # pragma: no cover - gamma is bounded below
            raise lp.SolverError(f"unexpected solver status {out.status}")
        x = out.x
        return dict(kind=kind, constraint=self.dt, gamma=float(x[self.gamma]),
                    eps=float(x[self.eps]), sound=self.sound, program=self.p, assignment=x,
                    restriction=self.restriction)

    def _rows(self, prefix, suffixes, at, groups, state_terms) -> None:
        weights = pwl.hat_matrix(self.nodes, at)
        emit(self.p, prefix, suffixes, [
            ([f"{name}[{j}]" for j in range(len(rhs))],
             [resolve(t, at, weights, len(rhs)) for t in (state_terms if g == 0 else []) + terms],
             rhs, None)
            for g, (name, terms, rhs) in enumerate(groups)])
