"""Dwell-time stability and hybrid L1-gain certificates.

Feasibility of a small linear program over piecewise-linear co-positive
Lyapunov data certifies that an internally positive impulsive system is
asymptotically stable for every admissible dwell-time sequence and that
the hybrid gain from (w_c, w_d) to (z_c, z_d) -- the L1 norm of the
continuous part plus the summed l1 norm of the discrete part -- is below
the certified gamma.  Two families are provided:

* constrained scalings: the uncertainty channels are handled through
  diagonal scaling variables whose structure is selectable;
* free scalings (``*_free``): the scalings are eliminated analytically by
  closing each uncertainty loop at its extremal operator, which is both
  the least conservative choice and a smaller program.

The gamma found is minimized directly as the LP objective.  The rows are
column sums over the families zeta, mu_c and mu_d, emitted by
:class:`posimp.rows.DecayProgram` on the timer grid, flow sample plan and
dwell window it derives from the constraint, as for observer synthesis;
it also decides soundness and fills the fields a :class:`Certificate`
shares with every :class:`posimp.rows.Answer`.  A periodic constraint
certifies as its base family.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import core, pwl, rows
from .rows import Infeasible


@dataclass(frozen=True)
class CertifyOptions:
    n_nodes: int = 21          # timer grid nodes
    margin: float = 1e-7       # margin standing in for strict inequalities
    eps_min: float = 1e-6      # floor for the jump contraction variable
    feastol: float = 1e-8

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("need at least two grid nodes")
        if self.margin <= 0 or self.eps_min <= 0:
            raise ValueError("margin and eps_min must be positive")


@dataclass
class Certificate(rows.Answer):
    """Co-positive certificate data; ``kind`` is range | minimum |
    range_free | minimum_free (the delay builders substitute their own)."""
    zeta: pwl.PwlArray
    mu_c: pwl.PwlArray | None
    mu_d: np.ndarray | None


CertifyResult = Certificate | Infeasible


class _CertProgram(rows.DecayProgram):
    """Certificate variables and the decay rows of the constraint, see
    :meth:`~posimp.rows.DecayProgram.decay_rows`.

    Between jumps:  [zdot;0;0]^T + [z(tau); mu_c(tau); 1]^T
    [A Gc Ec; CcD HcD-I FcD; Cc Hc Fc] <= [0;0;g1]^T.  At jumps:
    [-z(th);0;0]^T + [z(0); mu_d; 1]^T [J Gd Ed; CdD HdD-I FdD; Cd Hd Fd]
    <= [-eps 1; 0; g1]^T, piecewise-linear in th, so imposing it on the
    grid points covering the dwell window is sound.
    """

    def __init__(self, name, sys, dt, scalings, options):
        super().__init__(name, dt, options.n_nodes, options.margin, options.eps_min)
        self.opt = options
        # zeta is free but positive at tau = 0 and, frozen past tbar, at tbar
        strict = np.full(self.nodes.size, -np.inf)
        strict[[0, -1] if self.minimum else 0] = options.margin
        self.zeta_idx = rows.add_vars(self.p, "zeta[{}]@n{}", (sys.n, self.nodes.size),
                                      lb=strict)
        # scaling families; the continuous one is per node unless constant
        self.mu_c = self.mu_d = None
        if scalings is not None and sys.ncD:
            kc = scalings.continuous
            self.mu_c = self._scaling(kc, sys.ncD, "mu_c", kc != "constant")
        if scalings is not None and sys.ndD:
            self.mu_d = self._scaling(scalings.discrete, sys.ndD, "mu_d", False)
        self.decay_rows(
            "", self.zeta_idx,
            self._groups(self.mu_c, sys.A, sys.Gc, sys.Ec, sys.Cc, sys.Hc, sys.Fc,
                         sys.CcD, sys.HcD, sys.FcD),
            self._groups(self.mu_d, sys.J, sys.Gd, sys.Ed, sys.Cd, sys.Hd, sys.Fd,
                         sys.CdD, sys.HdD, sys.FdD),
            self.flow_plan(sys.flow_degree))

    def _scaling(self, kind, size: int, name: str, per_node: bool) -> np.ndarray:
        """Positive scaling variables of one channel, one per entry or, for
        ("grouped", partition), one per group shared by its entries."""
        node, extent = ("@n{}", (self.nodes.size,)) if per_node else ("", ())
        if kind in ("constant", "unconstrained"):
            return rows.add_vars(self.p, name + "[{}]" + node, (size,) + extent, lb=self.opt.margin)
        part = kind[1]
        core.validate_partition(part, size)
        groups = rows.add_vars(self.p, name + "[g{}]" + node, (len(part),) + extent,
                               lb=self.opt.margin)
        group_of = np.empty(size, dtype=np.int64)
        for g, grp in enumerate(part):
            group_of[list(grp)] = g
        return groups[group_of]

    def _groups(self, mu, M, G, E, C, H, F, CD, HD, FD):
        """Columns x / wD / w of [zeta; mu; 1]^T [M G E; CD HD-I FD; C H F];
        without a channel (mu None) the wD columns and the mu rows are absent."""
        z = self.zeta_idx
        x, w = [(z, M)], [(self.gamma, -1.0), (z, E)]
        groups = [("x", x, -C.sum(axis=0))]
        if mu is not None:
            x.append((mu, CD))
            groups.append(("wD", [(z, G), (mu, HD - np.eye(len(HD)))], -H.sum(axis=0)))
            w.append((mu, FD))
        groups.append(("w", w, -F.sum(axis=0)))
        return groups

    # -- outcome -------------------------------------------------------------
    def finish(self, kind) -> CertifyResult:
        shared = self.minimize_gamma(kind, self.opt.feastol)
        if isinstance(shared, Infeasible):
            return shared
        x, N = shared["assignment"], self.nodes.size
        zeta = pwl.PwlArray(self.nodes, x[self.zeta_idx])
        mu_c = None
        if self.mu_c is not None:  # a constant scaling holds at every node
            vals = x[self.mu_c]
            mu_c = pwl.PwlArray(self.nodes, vals if vals.ndim == 2
                                else np.repeat(vals[:, None], N, axis=1))
        mu_d = None if self.mu_d is None else x[self.mu_d]
        return Certificate(zeta=zeta, mu_c=mu_c, mu_d=mu_d, **shared)


def _certify(name, kind, sys, dt, scalings, options) -> CertifyResult:
    """Certificate program on the grid of ``dt``."""
    return _CertProgram(name, sys, dt, scalings, options or CertifyOptions()).finish(kind)


def _certify_free(name, kind, sys, dt, options) -> CertifyResult:
    """Certificate of the system with both uncertainty loops closed at their
    extremal operators, with the implied scalings attached."""
    A, Ec, Cc, Fc = core.worst_case_continuous(sys)
    J, Ed, Cd, Fd = core.worst_case_discrete(sys)
    closed = core.LftPositiveSystem.build(A=A, Ec=Ec, Cc=Cc, Fc=Fc, J=J, Ed=Ed, Cd=Cd, Fd=Fd)
    return _attach_eliminated(_certify(name, kind, closed, dt, None, options), sys)


# ---------------------------------------------------------------------------
# public builders

def certify_range(sys: core.LftPositiveSystem, dt: core.Range,
                  scalings: core.ScalingStructure | None = None,
                  options: CertifyOptions | None = None) -> CertifyResult:
    """Certificate for dwell times ranging over [tmin, tmax], with channel
    scalings of the requested structure."""
    core.check_family(dt, core.Range)
    return _certify("certify_range", "range", sys, dt,
                    scalings or core.ScalingStructure.unconstrained(), options)


def certify_min(sys: core.LftPositiveSystem, dt: core.Minimum,
                scalings: core.ScalingStructure | None = None,
                options: CertifyOptions | None = None) -> CertifyResult:
    """Certificate for dwell times >= tbar.  Certificate data are frozen at
    tbar for larger timer values, matching systems whose matrices are
    constant past tbar."""
    core.check_family(dt, core.Minimum)
    return _certify("certify_min", "minimum", sys, dt,
                    scalings or core.ScalingStructure.unconstrained(), options)


def certify_range_free(sys: core.LftPositiveSystem, dt: core.Range,
                       options: CertifyOptions | None = None) -> CertifyResult:
    """Range certificate with the scalings eliminated analytically.

    Both uncertainty loops are closed at their extremal (worst-case)
    operators; requires the feedthrough loops to be well posed in the
    positive sense.  Never more conservative than any scaling structure.
    """
    core.check_family(dt, core.Range)
    return _certify_free("certify_range_free", "range_free", sys, dt, options)


def certify_min_free(sys: core.LftPositiveSystem, dt: core.Minimum,
                     options: CertifyOptions | None = None) -> CertifyResult:
    """Minimum dwell-time certificate with the scalings eliminated."""
    core.check_family(dt, core.Minimum)
    return _certify_free("certify_min_free", "minimum_free", sys, dt, options)


def _attach_eliminated(cert: CertifyResult, sys: core.LftPositiveSystem) -> CertifyResult:
    """Populate the scaling slots of a free certificate with the values the
    elimination argument implies (useful for cross-checks)."""
    if not isinstance(cert, Certificate):
        return cert
    if sys.ncD:
        K = np.linalg.solve(np.eye(sys.ncD) - sys.HcD, np.eye(sys.ncD))
        vals = np.zeros((sys.ncD, cert.zeta.nodes.size))
        # zeta at each node without one eval per node: a contiguous row, as
        # eval gives it (the product of a strided one can round differently)
        Z = np.ascontiguousarray(cert.zeta.values.T)
        for k, tau in enumerate(cert.zeta.nodes):
            vals[:, k] = (Z[k] @ sys.Gc.eval(tau) + sys.Hc.sum(axis=0)) @ K
        cert.mu_c = pwl.PwlArray(cert.zeta.nodes, vals)
    if sys.ndD:
        K = np.linalg.solve(np.eye(sys.ndD) - sys.HdD, np.eye(sys.ndD))
        cert.mu_d = (cert.zeta.eval(0.0) @ sys.Gd + sys.Hd.sum(axis=0)) @ K
    return cert
