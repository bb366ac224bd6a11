"""Piecewise-linear functions on a timer grid.

Certificate variables (co-positive Lyapunov weights, synthesis variables)
live at the nodes of a grid over the timer interval and are interpolated
linearly in between.  This module holds the value containers, the
interpolation/derivative weights used when assembling LP rows, and the
per-segment sampling plan that decides where a timer-dependent inequality
must be imposed and whether doing so is sound or merely sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def segment_of(nodes: np.ndarray, tau: float) -> int:
    """Index k with nodes[k] <= tau <= nodes[k+1], clamped at the ends."""
    k = int(np.searchsorted(nodes, tau, side="right")) - 1
    return min(max(k, 0), nodes.size - 2)


def hat_weights(nodes: np.ndarray, tau: float) -> list[tuple[int, float]]:
    """Linear interpolation weights at tau, clamped to [nodes[0], nodes[-1]].

    Clamping implements the freeze convention: values are held constant
    beyond the last node (used when certificates are constant past the
    minimum dwell time).
    """
    if tau <= nodes[0]:
        return [(0, 1.0)]
    if tau >= nodes[-1]:
        return [(nodes.size - 1, 1.0)]
    k = segment_of(nodes, tau)
    h = nodes[k + 1] - nodes[k]
    s = (tau - nodes[k]) / h
    if s == 0.0:
        return [(k, 1.0)]
    if s == 1.0:
        return [(k + 1, 1.0)]
    return [(k, 1.0 - s), (k + 1, s)]


def hat_matrix(nodes: np.ndarray, taus) -> np.ndarray:
    """Rows of :func:`hat_weights` over all nodes, one row per tau."""
    out = np.zeros((len(taus), nodes.size))
    for s, tau in enumerate(taus):
        for k, w in hat_weights(nodes, tau):
            out[s, k] = w
    return out


class PwlFunction:
    """Scalar continuous piecewise-linear function given by node values."""

    def __init__(self, nodes, values):
        self.nodes = _check_nodes(nodes)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != self.nodes.shape:
            raise ValueError("values must match nodes in shape")

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    def eval(self, tau: float) -> float:
        return float(sum(w * self.values[i] for i, w in hat_weights(self.nodes, tau)))

    __call__ = eval


class PwlVector:
    """Vector of piecewise-linear entries on a shared grid.  values: (n, N)."""

    def __init__(self, nodes, values):
        self.nodes = _check_nodes(nodes)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.nodes.size:
            raise ValueError("values must have shape (n, len(nodes))")

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def eval(self, tau: float) -> np.ndarray:
        out = np.zeros(self.dim)
        for i, w in hat_weights(self.nodes, tau):
            out += w * self.values[:, i]
        return out

    __call__ = eval


class PwlMatrix:
    """Matrix with piecewise-linear entries on a shared grid.  values: (n, m, N)."""

    def __init__(self, nodes, values):
        self.nodes = _check_nodes(nodes)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[2] != self.nodes.size:
            raise ValueError("values must have shape (n, m, len(nodes))")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[:2]

    def eval(self, tau: float) -> np.ndarray:
        out = np.zeros(self.shape)
        for i, w in hat_weights(self.nodes, tau):
            out += w * self.values[:, :, i]
        return out

    __call__ = eval


@dataclass(frozen=True)
class SegmentSamples:
    """Where to impose a timer-dependent inequality on one grid segment."""
    segment: int
    taus: tuple[float, ...]
    sound: bool


def flow_sample_plan(nodes: np.ndarray, degree: int) -> list[SegmentSamples]:
    """Sampling plan for rows of the form  d/dtau(pwl) + pwl * M(tau) <= rhs.

    With constant system matrices (degree 0) the left-hand side is affine
    in tau on each segment, so imposing the row at both segment endpoints
    is sound for the whole segment.  With timer-dependent matrices the
    product of a degree->=1 matrix and a piecewise-linear variable is no
    longer affine; endpoints plus the midpoint are then imposed and the
    resulting certificate is flagged as sampled rather than sound.
    """
    nodes = _check_nodes(nodes)
    plan = []
    for k in range(nodes.size - 1):
        a, b = float(nodes[k]), float(nodes[k + 1])
        if degree <= 0:
            plan.append(SegmentSamples(k, (a, b), True))
        else:
            plan.append(SegmentSamples(k, (a, 0.5 * (a + b), b), False))
    return plan


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
