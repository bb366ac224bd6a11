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

:class:`DecayProgram` emits the flow, stationarity and jump decay rows of
every certificate and synthesis program; :func:`emit` adds the rows of any
block, one numpy product per term.
"""

from __future__ import annotations

import numpy as np

from . import lp, pwl

_ONE = np.ones((1, 1))


def fmt(t: float) -> str:
    """A timer value as it appears in row names."""
    return f"{t:.12g}"


def add_vars(p: lp.LinearProgram, name: str, shape, lb=None, ub=None) -> np.ndarray:
    """A family of new variables; ``name`` is formatted with each index."""
    return np.array([p.add_var(name.format(*ix), lb=lb, ub=ub) for ix in np.ndindex(*shape)],
                    dtype=np.int64).reshape(shape)


def emit(p: lp.LinearProgram, prefix: str, suffixes, groups, rel: str = lp.LE) -> None:
    """Add the rows of every group at every sample, sample by sample.

    A group is (column names, terms, rhs per column, keep).  A term is
    (variables (m, K), weights (S or 1, K), coefficients (S or 1, m, ncols))
    and puts weights[s, k] * coefficients[s, r, j] on variables[r, k] in
    the row of sample s and column j.  Products that are exactly zero are
    left out, and ``add_row`` sums a repeated variable in term order, then
    family order.  ``keep`` (S, ncols), when not None, selects the rows.
    """
    S = len(suffixes)
    built = []
    for cols, terms, rhs, keep in groups:
        var = np.concatenate([v.ravel() for v, _, _ in terms])
        val = np.concatenate([
            np.broadcast_to(np.swapaxes(c, 1, 2)[..., None] * w[:, None, None, :],
                            (S, len(cols)) + v.shape).reshape(S * len(cols), v.size)
            for v, w, c in terms], axis=1)
        hit = val != 0.0
        ends = [0] + np.cumsum(hit.sum(axis=1)).tolist()
        built.append((cols, rhs, keep, ends, np.broadcast_to(var, val.shape)[hit].tolist(),
                      val[hit].tolist()))
    for s, suffix in enumerate(suffixes):
        for cols, rhs, keep, ends, var, val in built:
            row = s * len(cols)
            for j, col in enumerate(cols):
                if keep is None or keep[s, j]:
                    a, b = ends[row + j], ends[row + j + 1]
                    p.add_row(f"{prefix}{col}{suffix}", zip(var[a:b], val[a:b]), rel, rhs[j])


def resolve(term, at, weights, ncols: int):
    """A (family, coef[, weights]) term in the form :func:`emit` takes, with
    callables evaluated and node-valued families interpolated at ``at``."""
    family, coef, *own = term
    v = np.asarray(family)
    if v.ndim == 0:
        return v.reshape(1, 1), _ONE, np.broadcast_to(np.asarray(coef, dtype=float), (1, 1, ncols))
    c = np.stack([coef(t) for t in at]) if callable(coef) else np.asarray(coef, dtype=float)[None]
    if v.ndim == 1:
        return v[:, None], _ONE, c
    return v, own[0] if own else weights, c


class DecayProgram:
    """A program over a timer grid with the gain bound gamma and the
    contraction eps, and the decay rows all certificates share.

    Row groups are (name, terms, rhs), one column per rhs entry.  The first
    group holds the state columns; each kind of row adds its own terms of
    the node-valued ``state`` family there: the timer derivative on flow
    rows, eps on stationarity rows, eps - state(theta) on jump rows.  Terms
    are taken at the sample timer on flow and stationarity rows and at
    tau = 0 on jump rows.
    """

    def __init__(self, name: str, nodes: np.ndarray, margin: float, eps_min: float):
        self.p = lp.LinearProgram(name)
        self.nodes = nodes
        self.gamma = self.p.add_var("gamma", lb=margin)
        self.eps = self.p.add_var("eps", lb=eps_min)

    def flow_rows(self, prefix: str, state, groups, degree: int) -> bool:
        """Rows at every sample of the flow plan; True when that is sound."""
        plan = pwl.flow_sample_plan(self.nodes, degree)
        samples = [(seg.segment, i, t) for seg in plan for i, t in enumerate(seg.taus)]
        deriv = np.zeros((len(samples), self.nodes.size))
        for s, (k, _, _) in enumerate(samples):
            h = self.nodes[k + 1] - self.nodes[k]
            deriv[s, k], deriv[s, k + 1] = -1.0 / h, 1.0 / h
        self._rows(prefix, [f"@s{k}.{i}" for k, i, _ in samples], [t for _, _, t in samples],
                   groups, [(state, np.eye(len(state)), deriv)])
        return all(seg.sound for seg in plan)

    def stationarity_rows(self, prefix: str, tbar: float, groups) -> None:
        """Rows frozen at tau = tbar, with eps in place of the derivative."""
        self._rows(prefix, [""], [tbar], groups, [(self.eps, 1.0)])

    def jump_rows(self, prefix: str, thetas, state, groups) -> None:
        """Rows at every dwell value theta."""
        theta = (state, -np.eye(len(state)), pwl.hat_matrix(self.nodes, thetas))
        self._rows(prefix, [f"@{fmt(t)}" for t in thetas], [0.0] * len(thetas), groups,
                   [(self.eps, 1.0), theta])

    def _rows(self, prefix, suffixes, at, groups, state_terms) -> None:
        weights = pwl.hat_matrix(self.nodes, at)
        emit(self.p, prefix, suffixes, [
            ([f"{name}[{j}]" for j in range(len(rhs))],
             [resolve(t, at, weights, len(rhs)) for t in (state_terms if g == 0 else []) + terms],
             rhs, None)
            for g, (name, terms, rhs) in enumerate(groups)])
