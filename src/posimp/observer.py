"""Interval-observer gain synthesis for impulsive and switched systems.

An interval observer runs two corrected copies of the plant whose states
bracket the true state entrywise, x-(t) <= x(t) <= x+(t), whenever the
disturbances and the initial history are bracketed.  The bracketing
requires the observation-error dynamics to be internally positive, and
the bracket is useful when those error dynamics are stable with a small
hybrid L1 gain from the disturbance widths to the weighted error.  Both
requirements are linear in the pair (X, Y) = (X, X L), where X is a
diagonal storage function on the timer interval and L the observer gain,
so gain synthesis is again a linear program:

* positivity block: X(tau) A(tau) - Y_c(tau) C_yc + alpha I >= 0
  entrywise (with the matching delayed-state and disturbance blocks,
  shift-free) makes the closed error flow Metzler and every other closed
  block nonnegative for the recovered gain L = X^{-1} Y;
* decay block: the column-sum co-positive inequalities of the
  certificate modules, written on the closed error system under the
  substitution zeta^T = 1^T X, with the continuous channel multiplier
  mu_c = diag(U) as an extra variable.  They come from the emitter the
  certificates use, :class:`posimp.rows.DecayProgram`, on the timer grid
  and dwell window it derives from the constraint, with Y as one more
  variable family (analysis is synthesis with Y = 0).  Its flow sample
  plan, built once per block, also places the flow positivity rows, and
  it alone records whether the rows are sound;
* the gain bound gamma on the map from disturbance widths to the
  weighted errors M_c e / M_d e is the LP objective.

A feasible program therefore returns both the gains and, implicitly, a
stability/performance certificate for the closed error system at the
same gamma.  Scalings follow the delayed-system rules: ``CONSTANT``
multipliers give delay-independent conditions; ``UNCONSTRAINED_PERIODIC``
multipliers fold the delayed state into the instantaneous one (dropping
U) and restrict the result to compatible eventually periodic dwell-time
sequences -- for switched plants the mode pattern must repeat as well.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import core, delay, lp, pwl, rows
from .certify import Infeasible
from .core import TimerMatrixFunction
from .delay import CONSTANT, UNCONSTRAINED_PERIODIC

_PERIODIC_RESTRICTION_SWITCHED = (
    "holds along eventually periodic dwell-time sequences, with a mode "
    "pattern repeating at the same period, whose period sum divides the "
    "continuous delay h_c; check candidate dwell sequences with "
    "validate_periodic_sequence")


@dataclass(frozen=True)
class SynthesisOptions:
    """Grid size and numerical floors for the synthesis programs."""
    n_nodes: int = 21          # timer grid nodes
    margin: float = 1e-7       # margin standing in for strict inequalities
    eps_min: float = 1e-6      # floor for the jump/stationarity contraction
    x_min: float = 1e-6        # floor for the diagonal storage entries
    alpha_max: float = 1e6     # cap on the Metzler shift variable
    feastol: float = 1e-8

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("need at least two grid nodes")
        if min(self.margin, self.eps_min, self.x_min) <= 0:
            raise ValueError("margin, eps_min and x_min must be positive")
        if self.alpha_max <= 0:
            raise ValueError("alpha_max must be positive")


def _weights(kind: str, given: dict, n: int) -> dict:
    """The error weights of ``core.WEIGHTS[kind]``, identity when omitted."""
    out = core.assemble(core.WEIGHTS[kind], {k: v for k, v in given.items() if v is not None},
                        {"n": n})
    for name, M in out.items():
        if M.min() < 0:
            raise ValueError(f"{name} must be entrywise nonnegative")
        if not M.any():
            raise ValueError(f"{name} must be nonzero (it weights the error bound)")
    return out


def _bounds_pair(b, name):
    if b is None:
        return None
    lo, hi = b
    if not (callable(lo) and callable(hi)):
        raise ValueError(f"{name} must be a (lower, upper) pair of callables")
    return (lo, hi)


class ObservedPlant(core.Container):
    """Plant with measured outputs, ready for interval-observer synthesis.

    Flow (timer tau since the last jump), jump, and measurements:
        xdot(t) = A(tau) x(t) + Gc(tau) x(t - h_c) + Ec(tau) w_c(t)
        y_c(t)  = C_yc x(t) + H_yc x(t - h_c) + F_yc w_c(t)
        x+      = J x(t_k) + Gd x(t_{k - h_d}) + Ed w_d(k)
        y_d(k)  = C_yd x(t_k) + H_yd x(t_{k - h_d}) + F_yd w_d(k)

    The synthesized observer corrects with y_c between jumps and with y_d
    at jumps; the quality of the bracket is measured through the weighted
    errors M_c e(t) and M_d e(t_k).  ``w_c_bounds`` / ``w_d_bounds``
    optionally carry the known disturbance brackets as (lower, upper)
    callables of time / jump index; the simulator consumes them, the
    synthesis programs do not.
    """

    TABLE = core.BLOCKS["plant"] + core.MEASUREMENTS["plant"] + core.WEIGHTS["plant"]

    @classmethod
    def build(cls, *, M_c=None, M_d=None, h_c=1.0, h_d=0,
              w_c_bounds=None, w_d_bounds=None, **blocks):
        """Assemble from the blocks of ``core.BLOCKS["plant"]`` and
        ``core.MEASUREMENTS["plant"]`` with shape validation; omitted
        blocks default to zero (J, M_c and M_d to the identity).  Channel
        widths are inferred from the blocks given."""
        h_c, h_d = delay.check_delays(h_c, h_d)
        mats = core.assemble(core.BLOCKS["plant"] + core.MEASUREMENTS["plant"], blocks)
        mats.update(_weights("plant", {"M_c": M_c, "M_d": M_d}, mats["A"].shape[0]))
        return cls(mats, h_c=h_c, h_d=h_d,
                   w_c_bounds=_bounds_pair(w_c_bounds, "w_c_bounds"),
                   w_d_bounds=_bounds_pair(w_d_bounds, "w_d_bounds"))


class SwitchedPlant(core.Container):
    """N-mode switched plant with one continuous delay and mode-dependent
    measurements; the state is continuous across switches.

        xdot(t) = A_i x(t) + Gc_i x(t - h_c) + Ec_i w(t)
        y(t)    = C_y_i x(t) + H_y_i x(t - h_c) + F_y_i w(t),  i = sigma(t)

    All modes share the state dimension, the disturbance width and the
    measurement width; M weights the observation error in the gain bound.
    """

    TABLE = core.BLOCKS["switched"] + core.MEASUREMENTS["switched"] + core.WEIGHTS["switched"]

    @classmethod
    def build(cls, *, M=None, h_c=1.0, **blocks):
        """Assemble from per-mode lists of the blocks of
        ``core.BLOCKS["switched"]`` and ``core.MEASUREMENTS["switched"]``;
        omitted lists default to zero blocks of the widths inferred from
        the first mode, M to the identity."""
        h_c, _ = delay.check_delays(h_c)
        table = core.BLOCKS["switched"] + core.MEASUREMENTS["switched"]
        modes = {k: list(v) for k, v in blocks.items() if v is not None}
        if not modes.get("A"):
            raise ValueError("need at least one mode")
        n_modes = len(modes["A"])
        for name, v in modes.items():
            if len(v) != n_modes:
                raise ValueError(f"{name}: expected {n_modes} per-mode blocks, got {len(v)}")
        first = {k: v[0] for k, v in modes.items()}
        dims = core.infer_dims(table, first, {"n": core.shape_of(first["A"])[0]})
        per_mode = [core.assemble(table, {k: v[i] for k, v in modes.items()}, dims, f"[{i}]")
                    for i in range(n_modes)]
        return cls({**{b.name: tuple(m[b.name] for m in per_mode) for b in table},
                    **_weights("switched", {"M": M}, dims["n"])}, h_c=h_c)

    @property
    def n_modes(self) -> int:
        return len(self.A)

    def flow_degree(self, mode: int) -> int:
        return max(getattr(self, b.name)[mode].degree for b in self.TABLE if b.timer)


@dataclass
class StoredGains:
    """The gains as the synthesis data give them: the storage X, the
    product Y_c and the jump gain L_d.  A ``synthesize`` result document
    stores these; :class:`ObserverGains` adds the rest of the answer."""

    X: pwl.PwlArray
    Y_c: pwl.PwlArray
    L_d: np.ndarray | None = None

    def L_c_at(self, tau: float) -> np.ndarray:
        """Exact recovered gain X(tau)^{-1} Y_c(tau).

        Node values agree with the node table ``L_c``; between nodes this
        ratio of the piecewise-linear synthesis data is the gain the
        positivity and decay blocks certify (the node table's linear
        interpolant is only an approximation there).  Values freeze outside
        the grid, which matches holding the gain constant past the minimum
        dwell time.
        """
        return self.Y_c.eval(tau) / self.X.eval(tau)[:, None]


@dataclass(kw_only=True)
class ObserverGains(StoredGains, rows.Answer):
    """Synthesized gains plus the storage data certifying them.

    ``X`` holds the diagonal storage entries (one piecewise-linear entry
    per state), ``Y_c``/``Y_d`` the synthesis products X L, and
    ``L_c``/``L_d`` the recovered gains; ``L_c`` tabulates the gain at
    the grid nodes, see :meth:`L_c_at` for values in between.  ``U`` is
    the diagonal continuous-channel multiplier (None when the scalings
    fold the channel away).  For switched plants one instance per mode is
    returned and ``mode`` records which; the scalars and the program are
    shared.
    """

    scalings: str
    Y_d: np.ndarray | None
    L_c: pwl.PwlArray
    U: np.ndarray | None
    alpha: float
    mode: int | None = None


SynthesisResult = ObserverGains | Infeasible


class _Block:
    """Per-mode decision variables: diagonal X at the nodes, dense Y."""

    def __init__(self, prog: lp.LinearProgram, nodes, n, q_c, x_min, tag=""):
        self.n = n
        self.tag = tag
        self.x_idx = rows.add_vars(prog, tag + "x[{}]@n{}", (n, nodes.size), lb=x_min)
        self.yc_idx = rows.add_vars(prog, tag + "yc[{}][{}]@n{}", (n, q_c, nodes.size))
        self.yd_idx = None

    def add_discrete(self, prog: lp.LinearProgram, q_d: int) -> None:
        self.yd_idx = rows.add_vars(prog, self.tag + "yd[{}][{}]", (self.n, q_d))

    def y_terms(self, C, y=None):
        """The term of -1^T Y C: rows (i, r) of the flattened Y_c (or Y_d)
        carry -C[r]."""
        y = self.yc_idx if y is None else y
        return (y.reshape((-1,) + y.shape[2:]), np.tile(-C, (self.n, 1)))


class Synthesis(rows.DecayProgram):
    """A synthesis linear program before solving.

    Built by :func:`range_synthesis`, :func:`min_synthesis` or
    :func:`switched_synthesis`; extra rows (for example
    :func:`gain_entry_box`) may be added before :meth:`solve`, which
    minimizes gamma and recovers the gains.  The constructor checks the
    scalings, the mode count of a switched plant and the family and
    period of ``dt``; periodic scalings append ``_periodic`` to ``kind``
    and set the restriction the answer carries.
    """

    def __init__(self, name, kind, family, plant, dt, scalings, options):
        scalings = delay.check_scalings(scalings, "observer synthesis admits")
        self._switched = isinstance(plant, SwitchedPlant)
        if self._switched and plant.n_modes < 2:
            raise ValueError("switched synthesis needs at least two modes")
        core.check_family(dt, family, plant.h_c)
        self.periodic = scalings == UNCONSTRAINED_PERIODIC
        self.opt = options = options or SynthesisOptions()
        super().__init__(name, dt, options.n_nodes, options.margin, options.eps_min)
        self.kind = kind + "_periodic" if self.periodic else kind
        if self.periodic:
            self.restriction = _PERIODIC_RESTRICTION_SWITCHED if self._switched else \
                delay._PERIODIC_RESTRICTION
        self.scalings = scalings
        self.alpha = self.p.add_var("alpha", lb=options.margin, ub=options.alpha_max)
        self.u_idx: np.ndarray | None = None
        self.blocks: list[_Block] = []

    # -- variables -----------------------------------------------------------
    def add_block(self, n: int, q_c: int, tag: str = "") -> _Block:
        blk = _Block(self.p, self.nodes, n, q_c, self.opt.x_min, tag)
        self.blocks.append(blk)
        return blk

    def add_channel_multiplier(self, n: int) -> None:
        """Diagonal multiplier U for the delayed-state channel, shared by
        every mode (a timer-independent multiplier cannot be
        mode-dependent along arbitrary switching sequences)."""
        self.u_idx = rows.add_vars(self.p, "u[{}]", (n,), lb=self.opt.margin)

    # -- positivity block ------------------------------------------------------
    def positivity_rows(self, blk: _Block, blocks, plan: np.ndarray | None = None) -> None:
        """X F - Y C >= 0 entrywise for every (name, F, C) of ``blocks``.

        Flow blocks (with the block's ``plan``, see
        :meth:`~posimp.rows.DecayProgram.flow_plan`): X(tau) A(tau) -
        Y_c(tau) C_y + alpha I, X Gc - Y_c H_y and X Ec - Y_c F_y at every
        distinct timer value of the plan (node rows are exact when the
        matrices are constant).  Jump blocks (no plan): X(0) J - Y_d C_yd,
        X(0) Gd - Y_d H_yd and X(0) Ed - Y_d F_yd.  An entry with F >= 0
        and no measurement term reduces to F x_i (+ alpha) >= 0, which the
        variable bounds already give; it gets no row.
        """
        flow = plan is not None
        if flow:
            at = np.unique(plan).tolist()
            suffixes, y = [f"@{rows.fmt(t)}" for t in at], blk.yc_idx
        else:
            at, suffixes, y = [0.0], [""], blk.yd_idx
        weights, S, n = pwl.hat_matrix(self.nodes, at), len(at), blk.n
        F = np.concatenate([np.broadcast_to(M.at(at) if callable(M) else M, (S,) + M.shape)
                            for _, M, _ in blocks], axis=2)
        C = np.concatenate([Cb for _, _, Cb in blocks], axis=1)
        # one column per (state i, block column j), i-major: row i of X F - Y C
        cols = [f"{name}[{i},{j}]" for i in range(n) for name, _, Cb in blocks
                for j in range(Cb.shape[1])]
        XF = np.zeros((S, n, n, C.shape[1]))
        XF[:, range(n), range(n)] = F  # x_r weighs F[i] in the columns of state i = r
        terms = [(blk.x_idx, weights, XF.reshape(S, n, len(cols))),
                 rows.resolve((y.reshape((-1,) + y.shape[2:]), np.kron(np.eye(n), -C)), at,
                              weights, len(cols))]
        if flow:  # alpha on the diagonal of X A
            terms.append(rows.resolve((self.alpha, np.eye(n, C.shape[1]).ravel()), at, weights,
                                      len(cols)))
        keep = ~((F >= 0.0) & ~C.any(axis=0)).reshape(S, len(cols))
        rows.emit(self.p, blk.tag + "pos:", suffixes,
                  [(cols, terms, np.zeros(len(cols)), keep)], lp.GE)

    # -- decay block -----------------------------------------------------------
    def flow_groups(self, blk: _Block, A, Gc, Ec, C_y, H_y, F_y, sumM, *, folded: bool):
        """Decay of 1^T X between jumps: column sums of
        Xdot + X A - Y_c C_y + U <= -1^T M_c together with the
        delayed-state columns X Gc - Y_c H_y - U <= 0 and the disturbance
        columns X Ec - Y_c F_y <= gamma 1^T.  ``folded`` merges the
        delayed state into the instantaneous one and drops U.  The
        stationarity rows of a minimum dwell time take the same groups."""
        n, x = blk.n, blk.x_idx
        if folded:
            state = [(x, lambda t: A(t) + Gc(t)), blk.y_terms(C_y + H_y)]
            return [("x", state, -sumM), ("w", [(x, Ec), blk.y_terms(F_y), (self.gamma, -1.0)],
                                          np.zeros(Ec.shape[1]))]
        return [("x", [(x, A), blk.y_terms(C_y), (self.u_idx, np.eye(n))], -sumM),
                ("xd", [(x, Gc), blk.y_terms(H_y), (self.u_idx, -np.eye(n))], np.zeros(n)),
                ("w", [(x, Ec), blk.y_terms(F_y), (self.gamma, -1.0)], np.zeros(Ec.shape[1]))]

    def jump_groups(self, blk: _Block, J, Gd, Ed, C_yd, H_yd, F_yd, sumMd):
        """Jump contraction: column sums of
        X(0)(J + Gd) - Y_d(C_yd + H_yd) - X(theta) + eps I <= -1^T M_d
        plus the jump disturbance columns.  The same contraction row serves
        the range and the minimum dwell-time variants."""
        x, yd = blk.x_idx, blk.yd_idx
        return [("x", [(x, J + Gd), blk.y_terms(C_yd + H_yd, yd)], -sumMd),
                ("w", [(x, Ed), blk.y_terms(F_yd, yd), (self.gamma, -1.0)], np.zeros(Ed.shape[1]))]

    def coupling_rows(self) -> None:
        """Mode hand-off contraction: column sums of
        X_a(0) - X_b(Tbar) + eps I <= 0 for every ordered pair a != b
        (the state passes unchanged from mode b into mode a)."""
        pairs = [(a, b) for a in range(len(self.blocks)) for b in range(len(self.blocks)) if a != b]
        a, b = np.array(pairs).T
        x = np.array([blk.x_idx for blk in self.blocks])  # (mode, state, node)
        n = x.shape[1]
        cols = np.stack([x[a, :, 0], x[b, :, -1], np.full((a.size, n), self.eps)], axis=2)
        self.p.add_rows([f"couple:m{i}.m{j}:x[{s}]" for i, j in pairs for s in range(n)],
                        np.repeat(np.arange(cols.size // 3), 3), cols.ravel(),
                        np.tile([1.0, -1.0, 1.0], cols.size // 3), lp.LE, 0.0)

    # -- outcome ---------------------------------------------------------------
    def solve(self):
        """Minimize gamma; returns ObserverGains (a list for switched
        plants, one per mode) or Infeasible with named conditions."""
        shared = self.minimize_gamma(self.kind, self.opt.feastol)
        if isinstance(shared, Infeasible):
            return shared
        x = shared["assignment"]
        results = []
        for mi, blk in enumerate(self.blocks):
            X = pwl.PwlArray(self.nodes, x[blk.x_idx])
            Y_c = pwl.PwlArray(self.nodes, x[blk.yc_idx])
            Y_d = x[blk.yd_idx] if blk.yd_idx is not None else None
            L_c, L_d = recover_gains(X, Y_c, Y_d, x_min=self.opt.x_min)
            U = None if self.u_idx is None else x[self.u_idx]
            results.append(ObserverGains(
                scalings=self.scalings, X=X, Y_c=Y_c, Y_d=Y_d, L_c=L_c, L_d=L_d, U=U,
                alpha=float(x[self.alpha]), mode=mi if self._switched else None, **shared))
        return results if self._switched else results[0]


# ---------------------------------------------------------------------------
# public builders

def _plant_synthesis(name, kind, family, plant: ObservedPlant, dt, scalings, options) -> Synthesis:
    syn = Synthesis(name, kind, family, plant, dt, scalings, options)
    blk = syn.add_block(plant.n, plant.qc)
    blk.add_discrete(syn.p, plant.qd)
    if not syn.periodic:
        syn.add_channel_multiplier(plant.n)
    plan = syn.flow_plan(plant.flow_degree)
    syn.positivity_rows(blk, [("A", plant.A, plant.C_yc), ("Gc", plant.Gc, plant.H_yc),
                              ("Ec", plant.Ec, plant.F_yc)], plan)
    syn.positivity_rows(blk, [("J", plant.J, plant.C_yd), ("Gd", plant.Gd, plant.H_yd),
                              ("Ed", plant.Ed, plant.F_yd)])
    flow = syn.flow_groups(blk, plant.A, plant.Gc, plant.Ec, plant.C_yc, plant.H_yc,
                           plant.F_yc, plant.M_c.sum(axis=0), folded=syn.periodic)
    jump = syn.jump_groups(blk, plant.J, plant.Gd, plant.Ed, plant.C_yd, plant.H_yd, plant.F_yd,
                           plant.M_d.sum(axis=0))
    syn.decay_rows("", blk.x_idx, flow, jump, plan)
    return syn


def range_synthesis(plant: ObservedPlant, dt, scalings: str = CONSTANT,
                    options: SynthesisOptions | None = None) -> Synthesis:
    """Unsolved gain-synthesis program for dwell times in [tmin, tmax]."""
    return _plant_synthesis("synthesize_range", "observer_range", core.Range,
                            plant, dt, scalings, options)


def min_synthesis(plant: ObservedPlant, dt, scalings: str = CONSTANT,
                  options: SynthesisOptions | None = None) -> Synthesis:
    """Unsolved gain-synthesis program for dwell times >= tbar; storage
    and gains freeze at tbar for larger timer values."""
    return _plant_synthesis("synthesize_min", "observer_minimum", core.Minimum,
                            plant, dt, scalings, options)


def switched_synthesis(plant: SwitchedPlant, dt, scalings: str = CONSTANT,
                       options: SynthesisOptions | None = None) -> Synthesis:
    """Unsolved per-mode gain-synthesis program under a minimum dwell
    time between switches."""
    syn = Synthesis("synthesize_switched", "observer_switched", core.Minimum, plant, dt,
                    scalings, options)
    if not syn.periodic:
        syn.add_channel_multiplier(plant.n)
    sumM = plant.M.sum(axis=0)
    for mi in range(plant.n_modes):
        blk = syn.add_block(plant.n, plant.q, tag=f"m{mi}:")
        A, Gc, Ec = plant.A[mi], plant.Gc[mi], plant.Ec[mi]
        C, H, F = plant.C_y[mi], plant.H_y[mi], plant.F_y[mi]
        plan = syn.flow_plan(plant.flow_degree(mi))
        syn.positivity_rows(blk, [("A", A, C), ("Gc", Gc, H), ("Ec", Ec, F)], plan)
        flow = syn.flow_groups(blk, A, Gc, Ec, C, H, F, sumM, folded=syn.periodic)
        syn.decay_rows(blk.tag, blk.x_idx, flow, None, plan)
    syn.coupling_rows()
    return syn


def _solve(syn: Synthesis, gain_box: tuple | None):
    """Solve ``syn``, first boxing its gain entries to ``gain_box`` when given."""
    if gain_box is not None:
        gain_entry_box(syn, *gain_box)
    return syn.solve()


def synthesize_range(plant: ObservedPlant, dt, scalings: str = CONSTANT,
                     options: SynthesisOptions | None = None,
                     gain_box: tuple | None = None) -> SynthesisResult:
    """Gains for dwell times ranging over [tmin, tmax]; gamma minimized."""
    return _solve(range_synthesis(plant, dt, scalings, options), gain_box)


def synthesize_min(plant: ObservedPlant, dt, scalings: str = CONSTANT,
                   options: SynthesisOptions | None = None,
                   gain_box: tuple | None = None) -> SynthesisResult:
    """Gains for dwell times >= tbar; gamma minimized."""
    return _solve(min_synthesis(plant, dt, scalings, options), gain_box)


def synthesize_switched(plant: SwitchedPlant, dt, scalings: str = CONSTANT,
                        options: SynthesisOptions | None = None,
                        gain_box: tuple | None = None):
    """Per-mode gains (a list, one entry per mode) under a minimum dwell
    time between switches; gamma minimized."""
    return _solve(switched_synthesis(plant, dt, scalings, options), gain_box)


def recover_gains(X: pwl.PwlArray, Y_c: pwl.PwlArray,
                  Y_d: np.ndarray | None, x_min: float = 1e-6):
    """Observer gains from the synthesis variables.

    Exact diagonal solve per node, L_c(tau_k) = X(tau_k)^{-1} Y_c(tau_k),
    and L_d = X(0)^{-1} Y_d.  X holds the diagonal storage entries and
    must be >= x_min at every node; synthesis enforces that bound, so a
    violation here indicates an internal error.
    """
    vals = X.values
    if vals.min() < x_min * (1.0 - 1e-9):
        raise RuntimeError(
            f"storage diagonal fell below its floor ({vals.min()} < {x_min}); "
            "gain recovery would be ill-conditioned")
    L_c = pwl.PwlArray(X.nodes, Y_c.values / vals[:, None, :])
    L_d = None if Y_d is None else np.asarray(Y_d, dtype=float) / vals[:, 0][:, None]
    return L_c, L_d


def gain_entry_box(synthesis: Synthesis, lo: float, hi: float) -> Synthesis:
    """Constrain every recovered gain entry to [lo, hi], in place.

    Adds the node rows lo * X_i(tau_k) <= Y_c[i, r](tau_k) <= hi * X_i(tau_k)
    (piecewise-linear in tau, hence valid on the whole interval) and the
    matching rows on Y_d against X(0).  Since X is diagonal positive this
    is exactly lo <= L[i, r] <= hi for the recovered gains.  Infinite
    bounds drop the corresponding side; lo > hi is an error.  Returns the
    modified synthesis.
    """
    lo, hi = float(lo), float(hi)
    if not lo <= hi:
        raise ValueError(f"empty gain box: lo={lo} > hi={hi}")
    sides = [(side, a, b) for side, bound, a, b in (("lo", lo, lo, -1.0), ("hi", hi, -hi, 1.0))
             if np.isfinite(bound)]
    gains = []  # (row name pattern, X, Y) per gain entry, in row order
    for blk in synthesis.blocks:
        for i in range(blk.n):
            gains += [(f"{blk.tag}box:{{}}:yc[{i}][{r}]@n{k}", blk.x_idx[i, k], blk.yc_idx[i, r, k])
                      for r in range(blk.yc_idx.shape[1]) for k in range(synthesis.nodes.size)]
            if blk.yd_idx is not None:
                gains += [(f"{blk.tag}box:{{}}:yd[{i}][{r}]", blk.x_idx[i, 0], blk.yd_idx[i, r])
                          for r in range(blk.yd_idx.shape[1])]
    # the row of (gain entry, side) is a X + b Y <= 0
    cols = np.array([(x, y) for _, x, y in gains for _ in sides], dtype=np.int64).reshape(-1)
    vals = np.tile(np.array([(a, b) for _, a, b in sides]).reshape(-1), len(gains))
    synthesis.p.add_rows([name.format(side) for name, _, _ in gains for side, _, _ in sides],
                         np.arange(cols.size) // 2, cols, vals, lp.LE, 0.0)
    return synthesis


def error_system(plant: ObservedPlant | SwitchedPlant, L_c=None, L_d=None
                 ) -> delay.DelaySystem | list[delay.DelaySystem]:
    """Closed observation-error system e = x+ - x of the framer pair.

    Flow blocks A - L_c C_yc / Gc - L_c H_yc / Ec - L_c F_yc, jump blocks
    J - L_d C_yd / Gd - L_d H_yd / Ed - L_d F_yd, and the weighted errors
    M_c e / M_d e as performance outputs.  ``L_c`` is a constant gain
    (None: zero), an (L_c, L_d) pair, or the exact gain of anything with
    ``L_c_at`` (:class:`ObserverGains`, :class:`StoredGains`), whose
    ``L_d`` serves when ``L_d`` is None; a missing L_d is zero.  Constant
    gains fold into constant blocks, which the certificate builders take.
    An exact gain makes each flow block M(tau) - L_c(tau) S, a
    :class:`~posimp.core.TimerFunction` that the simulator evaluates per
    stage and the delay certificates reject: the synthesis program is the
    certificate of that design.  For a switched plant ``L_c`` holds one
    gain per mode (None: zero gains) and the result is a list of per-mode
    systems with identity jumps and the weighted error M e as output.
    """
    if isinstance(plant, SwitchedPlant):
        gains = [None] * plant.n_modes if L_c is None else list(L_c)
        if len(gains) != plant.n_modes:
            raise ValueError(f"got {len(gains)} gain sets for {plant.n_modes} modes")
        return [delay.DelaySystem.build(
            **_closed_flow(g, plant.q, A=(plant.A[i], plant.C_y[i]), Gc=(plant.Gc[i], plant.H_y[i]),
                           Ec=(plant.Ec[i], plant.F_y[i])),
            Cc=plant.M, h_c=plant.h_c) for i, g in enumerate(gains)]
    if not isinstance(plant, ObservedPlant):
        raise TypeError("plant must be a measured impulsive or switched plant")
    if isinstance(L_c, tuple):
        L_c, L_d = L_c
    if L_d is None:
        L_d = getattr(L_c, "L_d", None)
    L_d = _gain_matrix("L_d", L_d, (plant.n, plant.qd))
    return delay.DelaySystem.build(
        **_closed_flow(L_c, plant.qc, A=(plant.A, plant.C_yc), Gc=(plant.Gc, plant.H_yc),
                       Ec=(plant.Ec, plant.F_yc)),
        Cc=plant.M_c,
        J=plant.J - L_d @ plant.C_yd,
        Gd=plant.Gd - L_d @ plant.H_yd,
        Ed=plant.Ed - L_d @ plant.F_yd,
        Cd=plant.M_d,
        h_c=plant.h_c, h_d=plant.h_d)


def _gain_matrix(name: str, L, shape: tuple) -> np.ndarray:
    """L as a float matrix of the given shape; None is the zero gain."""
    L = np.zeros(shape) if L is None else np.asarray(L, dtype=float)
    if L.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {L.shape}")
    return L


def _closed_flow(L_c, q: int, **blocks) -> dict:
    """The closed flow blocks M - L_c S of the (M, S) pairs in ``blocks``,
    for a constant gain (None: zero) or one with ``L_c_at``."""
    n = blocks["A"][0].shape[0]
    if not hasattr(L_c, "L_c_at"):
        L = _gain_matrix("L_c", L_c, (n, q))
        return {name: M + TimerMatrixFunction.constant(-(L @ S)) for name, (M, S) in blocks.items()}
    # the three blocks evaluate the gain at the same timer value in turn
    gain = functools.lru_cache(maxsize=1)(L_c.L_c_at)
    _gain_matrix("L_c", gain(0.0), (n, q))
    return {name: core.TimerFunction(lambda tau, M=M, S=S: M.eval(tau) - gain(tau) @ S, M.shape)
            for name, (M, S) in blocks.items()}
