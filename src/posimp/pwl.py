"""Piecewise-linear functions on a timer grid.

Certificate variables (co-positive Lyapunov weights, synthesis variables)
live at the nodes of a grid over the timer interval and are interpolated
linearly in between.  This module holds the value container
:class:`PwlArray` and :func:`hat_matrix`, the interpolation weights that
both evaluate it and assemble LP rows; ``hat_matrix`` is the one place
where values freeze outside the grid.  Where a timer-dependent row is
imposed, and whether that is sound or merely sampled, is decided by
:meth:`posimp.rows.DecayProgram.flow_plan`.
"""

from __future__ import annotations

import numpy as np


def uniform_nodes(horizon: float, n_nodes: int) -> np.ndarray:
    """n_nodes equally spaced points on [0, horizon]."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return np.linspace(0.0, float(horizon), int(n_nodes))


def _check_nodes(nodes: np.ndarray) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("nodes must be a 1-d array with at least two entries")
    if not np.all(np.diff(nodes) > 0):
        raise ValueError("nodes must be strictly increasing")
    return nodes


def hat_matrix(nodes: np.ndarray, taus) -> np.ndarray:
    """Linear interpolation weights over all nodes, one row per tau.

    Each tau is clamped to [nodes[0], nodes[-1]]: this implements the
    freeze convention, values held constant beyond the last node (used
    when certificates are constant past the minimum dwell time).  No
    weight is -0.0.
    """
    taus = np.asarray(taus, dtype=float).reshape(-1)
    # the segment is the count of inner nodes at or below tau: 0 before the
    # grid, the last one past it; np.minimum/np.maximum clamp s as np.clip
    # would, at a fraction of its cost on short arrays, and + 0.0 keeps out
    # the -0.0 of tau = -0.0 at a node 0.0, whichever zero np.maximum returns
    k = np.searchsorted(nodes[1:-1], taus, side="right")
    s = np.minimum(np.maximum((taus - nodes[k]) / (nodes[k + 1] - nodes[k]), 0.0), 1.0) + 0.0
    out = np.zeros((taus.size, nodes.size))
    row = np.arange(taus.size)
    out[row, k], out[row, k + 1] = 1.0 - s, s
    return out


class PwlArray:
    """Array with piecewise-linear entries on a shared grid: values of
    shape (..., N), the node values of each entry along the last axis."""

    def __init__(self, nodes, values):
        self.nodes = _check_nodes(nodes)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim < 2 or self.values.shape[-1] != self.nodes.size:
            raise ValueError("values must have shape (..., len(nodes)), at least two axes")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape[:-1]

    def eval(self, tau: float) -> np.ndarray:
        """The values at ``tau``: :func:`hat_matrix` weights, same float operations."""
        nodes = self.nodes
        k = int(nodes[1:-1].searchsorted(tau, side="right"))
        s = min(max((tau - nodes[k]) / (nodes[k + 1] - nodes[k]), 0.0), 1.0)
        out = np.zeros(self.shape)
        for i, w in ((k, 1.0 - s), (k + 1, s)):
            if w != 0.0:
                out += w * self.values[..., i]
        return out


def window_points(nodes: np.ndarray, tmin: float, tmax: float) -> np.ndarray:
    """Grid nodes inside [tmin, tmax] plus both window endpoints.

    The jump inequality is piecewise-linear in the dwell value, so holding
    at these points makes it hold on the whole window.
    """
    nodes = _check_nodes(nodes)
    if not tmin <= tmax:
        raise ValueError("empty dwell window")
    inside = nodes[(nodes > tmin) & (nodes < tmax)]
    return np.unique(np.concatenate([[tmin], inside, [tmax]]))
