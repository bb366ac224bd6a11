"""System containers for linear positive impulsive dynamics.

The central object couples a flow block and a jump block, each written as
a linear fractional interconnection: the state, an uncertainty channel
(closed by an operator of unit gain) and a performance channel.  A timer
measures the time elapsed since the last jump; the flow matrices facing
the state may depend polynomially on it.

Every system container is a :class:`Container`: its block table (in
``BLOCKS``, ``MEASUREMENTS`` and ``WEIGHTS``) names each block with its
row and column dimensions and whether it may depend on the timer, and the
container derives its attributes, its dimensions and its flow degree from
that table.  Delayed systems, observed plants and switched plants
(``posimp.delay``, ``posimp.observer``) are containers of the same kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

MAX_DEGREE = 6


class WellPosednessError(RuntimeError):
    """The uncertainty loop cannot be closed in the positive sense."""


class TimerMatrixFunction:
    """Matrix-valued polynomial in the timer: M(tau) = sum_k coeffs[k] tau^k."""

    def __init__(self, coeffs):
        mats = [np.array(c, dtype=float) for c in coeffs]
        if not mats:
            raise ValueError("need at least one coefficient")
        if any(m.shape != mats[0].shape or m.ndim != 2 for m in mats):
            raise ValueError("coefficients must share one 2-d shape")
        while len(mats) > 1 and not mats[-1].any():
            mats.pop()
        if len(mats) - 1 > MAX_DEGREE:
            raise ValueError(f"polynomial degree {len(mats) - 1} exceeds {MAX_DEGREE}")
        for m in mats:
            m.setflags(write=False)
        self.coeffs: tuple[np.ndarray, ...] = tuple(mats)

    @classmethod
    def constant(cls, M) -> "TimerMatrixFunction":
        return cls([M])

    @classmethod
    def wrap(cls, obj) -> "TimerMatrixFunction":
        return obj if isinstance(obj, cls) else cls.constant(obj)

    @property
    def shape(self) -> tuple[int, int]:
        return self.coeffs[0].shape

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def eval(self, tau: float) -> np.ndarray:
        out = np.array(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            out = out * tau + c
        return out

    __call__ = eval

    def derivative(self) -> "TimerMatrixFunction":
        if self.is_constant:
            return TimerMatrixFunction([np.zeros(self.shape)])
        return TimerMatrixFunction([k * c for k, c in enumerate(self.coeffs)][1:])

    def __add__(self, other) -> "TimerMatrixFunction":
        other = TimerMatrixFunction.wrap(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = [np.zeros(self.shape) for _ in range(n)]
        for k, c in enumerate(self.coeffs):
            out[k] = out[k] + c
        for k, c in enumerate(other.coeffs):
            out[k] = out[k] + c
        return TimerMatrixFunction(out)

    def mul_const(self, M) -> "TimerMatrixFunction":
        """self(tau) @ M, with M constant."""
        M = np.asarray(M, dtype=float)
        return TimerMatrixFunction([c @ M for c in self.coeffs])


class TimerFunction:
    """Matrix-valued function of the timer that is not a polynomial, given by
    a callable: a flow block closed with the exact observer gain.  Its degree
    is infinite, so the simulator evaluates it at every stage and the delay
    certificates, which need polynomial coefficients, reject it."""

    degree = math.inf

    def __init__(self, fn, shape):
        self.eval = fn
        self.shape = tuple(shape)


# ---------------------------------------------------------------------------
# block tables

@dataclass(frozen=True)
class Block:
    """One matrix of a system container: its dimensions by name, whether it
    may depend on the timer, and its value when omitted ("zero",
    "identity" or "required")."""
    name: str
    rows: str
    cols: str
    timer: bool
    default: str


def block_table(*specs: str) -> tuple[Block, ...]:
    """A block table from "name rows cols [timer] [identity|required]" lines."""
    table = []
    for spec in specs:
        name, rows, cols, *flags = spec.split()
        default = [f for f in flags if f != "timer"]
        table.append(Block(name, rows, cols, "timer" in flags, default[0] if default else "zero"))
    return tuple(table)


#: Block tables of the containers, by the kind names of the CLI: the
#: dynamics, the measurements of the observed plants and their error
#: weights.  Switched plants have one dynamics and measurement block per
#: mode and one weight.
BLOCKS = {
    "lft": block_table(
        "A n n timer required", "Gc n ncD timer", "Ec n pc timer",
        "CcD ncD n", "HcD ncD ncD", "FcD ncD pc", "Cc qc n", "Hc qc ncD", "Fc qc pc",
        "J n n identity", "Gd n ndD", "Ed n pd",
        "CdD ndD n", "HdD ndD ndD", "FdD ndD pd", "Cd qd n", "Hd qd ndD", "Fd qd pd"),
    "delay": block_table(
        "A n n timer required", "Gc n n timer", "Ec n pc timer",
        "Cc qc n", "Hc qc n", "Fc qc pc",
        "J n n identity", "Gd n n", "Ed n pd", "Cd qd n", "Hd qd n", "Fd qd pd"),
    "plant": block_table(
        "A n n timer required", "Gc n n timer", "Ec n pc timer",
        "J n n identity", "Gd n n", "Ed n pd"),
    "switched": block_table("A n n timer required", "Gc n n timer", "Ec n p timer"),
}
MEASUREMENTS = {
    "plant": block_table(
        "C_yc qc n", "H_yc qc n", "F_yc qc pc", "C_yd qd n", "H_yd qd n", "F_yd qd pd"),
    "switched": block_table("C_y q n", "H_y q n", "F_y q p"),
}
WEIGHTS = {
    "plant": block_table("M_c n n identity", "M_d n n identity"),
    "switched": block_table("M n n identity"),
}


def shape_of(M) -> tuple:
    return M.shape if isinstance(M, (TimerMatrixFunction, TimerFunction)) else np.shape(M)


def infer_dims(table, given: dict, dims: dict | None = None, suffix: str = "") -> dict:
    """Dimension sizes: those of ``dims``, then each from the first given
    block, in table order, that has it.  The first block fixing the state
    dimension n must be square.  ``suffix`` (a mode index) goes into
    the block names of errors."""
    dims = dict(dims or {})
    names = [b.name for b in table]
    for name in given:
        if name not in names:
            raise TypeError(f"unknown block {name!r}; expected one of {', '.join(names)}")
    for b in table:
        M = given.get(b.name)
        if M is None:
            if b.default == "required":
                raise TypeError(f"block {b.name} is required")
            continue
        shape = shape_of(M)
        if len(shape) != 2:
            raise ValueError(f"{b.name}{suffix}: expected a matrix, got shape {shape}")
        if b.rows == b.cols == "n" and "n" not in dims and shape[0] != shape[1]:
            raise ValueError(f"{b.name}{suffix}: expected a square matrix, got {shape}")
        dims.setdefault(b.rows, shape[0])
        dims.setdefault(b.cols, shape[1])
    return dims


def assemble(table, given: dict, dims: dict | None = None, suffix: str = "") -> dict:
    """The blocks of ``table`` from ``given`` (name -> matrix, timer
    polynomial or None), shape-checked against :func:`infer_dims`; a
    dimension no given block has is 0.  Omitted blocks become zero, or the
    identity where the table says so; only timer blocks may be timer
    polynomials or :class:`TimerFunction`s."""
    dims = infer_dims(table, given, dims, suffix)
    out = {}
    for b in table:
        shape = (dims.get(b.rows, 0), dims.get(b.cols, 0))
        M = given.get(b.name)
        if M is None:
            M = np.eye(shape[0]) if b.default == "identity" else np.zeros(shape)
        if b.timer:
            M = M if isinstance(M, TimerFunction) else TimerMatrixFunction.wrap(M)
        elif isinstance(M, (TimerMatrixFunction, TimerFunction)):
            timer = ", ".join(t.name for t in table if t.timer)
            raise ValueError(f"{b.name}{suffix}: only {timer} may depend on the timer")
        else:
            M = np.array(M, dtype=float)
            M.setflags(write=False)
        if M.shape != shape:
            raise ValueError(f"{b.name}{suffix}: expected shape {shape}, got {M.shape}")
        out[b.name] = M
    return out


class Container:
    """A system given by a block table: the blocks of ``TABLE`` (as
    :func:`assemble` returns them, or one tuple per block with an entry
    per mode) and any extras as attributes, plus every dimension the table
    names, read off the block shapes (of the first mode).  Instances are
    immutable."""

    TABLE: tuple[Block, ...] = ()

    def __init__(self, blocks: dict, **extras):
        dims = {}
        for b in self.TABLE:
            M = blocks[b.name]
            dims[b.rows], dims[b.cols] = shape_of(M[0] if isinstance(M, tuple) else M)
        self.__dict__.update(dims, **blocks, **extras)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name}")

    @property
    def flow_degree(self):
        """The highest timer degree of the flow blocks (inf for a :class:`TimerFunction`)."""
        return max(getattr(self, b.name).degree for b in self.TABLE if b.timer)


class LftPositiveSystem(Container):
    """Impulsive system with uncertainty and performance channels.

    Flow (between jumps, timer tau since the last jump):
        xdot   = A(tau) x + Gc(tau) w_cD + Ec(tau) w_c
        z_cD   = CcD x + HcD w_cD + FcD w_c      (uncertainty output)
        z_c    = Cc x + Hc w_cD + Fc w_c         (performance output)
    Jump (at impulse times):
        x+     = J x + Gd w_dD + Ed w_d
        z_dD   = CdD x + HdD w_dD + FdD w_d
        z_d    = Cd x + Hd w_dD + Fd w_d
    The uncertainty channels are closed by causal operators of unit
    (integral / summation) gain mapping z_cD -> w_cD and z_dD -> w_dD.
    """

    TABLE = BLOCKS["lft"]

    @classmethod
    def build(cls, **blocks):
        """Assemble from the blocks of ``BLOCKS["lft"]`` with shape
        validation; omitted blocks default to zero (J to the identity).
        Channel widths are inferred from the blocks given (all zero-width
        if none are), see :func:`assemble`."""
        return cls(assemble(cls.TABLE, blocks))


# ---------------------------------------------------------------------------
# dwell-time constraints

def _finite(**params) -> None:
    for name, v in params.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class Range:
    """Dwell times anywhere in [tmin, tmax]."""
    tmin: float
    tmax: float

    def __post_init__(self):
        _finite(tmin=self.tmin, tmax=self.tmax)
        if not 0 < self.tmin <= self.tmax:
            raise ValueError("need 0 < tmin <= tmax")


@dataclass(frozen=True)
class Minimum:
    """Dwell times at least tbar."""
    tbar: float

    def __post_init__(self):
        _finite(tbar=self.tbar)
        if self.tbar <= 0:
            raise ValueError("tbar must be positive")


@dataclass(frozen=True)
class PeriodicRange:
    """Range dwell times whose q-blocks repeat with total duration h_c/alpha."""
    tmin: float
    tmax: float
    q: int
    alpha: int
    h_c: float

    def __post_init__(self):
        _finite(tmin=self.tmin, tmax=self.tmax, h_c=self.h_c)
        if not 0 < self.tmin <= self.tmax:
            raise ValueError("need 0 < tmin <= tmax")
        if self.q < 1 or self.alpha < 1 or self.h_c <= 0:
            raise ValueError("need q >= 1, alpha >= 1, h_c > 0")
        s = self.period_sum
        if not self.q * self.tmin <= s <= self.q * self.tmax:
            raise ValueError(
                f"no q={self.q} dwell times in [{self.tmin}, {self.tmax}] can sum to {s}")

    @property
    def period_sum(self) -> float:
        return self.h_c / self.alpha


@dataclass(frozen=True)
class PeriodicMinimum:
    """Minimum dwell times whose q-blocks repeat with total duration h_c/alpha."""
    tbar: float
    q: int
    alpha: int
    h_c: float

    def __post_init__(self):
        _finite(tbar=self.tbar, h_c=self.h_c)
        if self.tbar <= 0:
            raise ValueError("tbar must be positive")
        if self.q < 1 or self.alpha < 1 or self.h_c <= 0:
            raise ValueError("need q >= 1, alpha >= 1, h_c > 0")
        if self.q * self.tbar > self.period_sum:
            raise ValueError(
                f"q={self.q} dwell times of at least {self.tbar} cannot sum to {self.period_sum}")

    @property
    def period_sum(self) -> float:
        return self.h_c / self.alpha


DwellTimeConstraint = Range | Minimum | PeriodicRange | PeriodicMinimum


# ---------------------------------------------------------------------------
# scaling structures for the uncertainty channels

@dataclass(frozen=True)
class ScalingStructure:
    """How the diagonal channel scalings are allowed to vary.

    kind per channel:
      "unconstrained"  one value per diagonal entry (timer-dependent for
                       the continuous channel: one value per grid node);
      ("grouped", partition)  entries tied together inside each group,
                       still timer-dependent where applicable;
      "constant"       one value per entry shared across all timer nodes
                       (no effect beyond "unconstrained" for the discrete
                       channel, which never depends on the timer).
    """
    continuous: object = "unconstrained"
    discrete: object = "unconstrained"

    @classmethod
    def unconstrained(cls) -> "ScalingStructure":
        return cls("unconstrained", "unconstrained")

    @classmethod
    def constant(cls) -> "ScalingStructure":
        return cls("constant", "constant")

    @classmethod
    def grouped(cls, partition_c, partition_d=None) -> "ScalingStructure":
        pc = tuple(tuple(g) for g in partition_c)
        pd = pc if partition_d is None else tuple(tuple(g) for g in partition_d)
        return cls(("grouped", pc), ("grouped", pd))


def validate_partition(partition, size: int) -> None:
    seen = sorted(i for g in partition for i in g)
    if seen != list(range(size)):
        raise ValueError(f"groups must partition range({size}), got {partition}")


# ---------------------------------------------------------------------------
# positivity

def is_metzler(M, tol: float = 0.0) -> bool:
    """Off-diagonal entries >= -tol."""
    M = np.asarray(M, dtype=float)
    off = M - np.diag(np.diag(M))
    return bool(np.all(off >= -tol))


@dataclass(frozen=True)
class PositivityViolation:
    matrix: str
    index: tuple[int, int]
    tau: float | None
    value: float

    def __str__(self):
        where = "" if self.tau is None else f" at tau={self.tau:.6g}"
        return f"{self.matrix}[{self.index[0]},{self.index[1]}] = {self.value:.6g}{where}"


@dataclass(frozen=True)
class PositivityReport:
    holds: bool
    sampled: bool  # timer-dependent blocks were only checked on a grid
    violations: tuple[PositivityViolation, ...]


def check_internal_positivity(sys: LftPositiveSystem, horizon: float = 1.0,
                              n_samples: int = 33, tol: float = 0.0) -> PositivityReport:
    """Internal positivity of the closed interconnection.

    Requires A(tau) Metzler and Gc(tau), Ec(tau) nonnegative for every
    timer value, and every other block nonnegative.  Timer-dependent
    blocks are checked on a sample grid over [0, horizon]; the report is
    flagged sampled when any of them actually depends on the timer.
    """
    bad: list[PositivityViolation] = []
    taus = np.linspace(0.0, horizon, n_samples)
    sampled = sys.flow_degree >= 1

    def scan(name, M, metzler, tau=None):
        for i, j in zip(*np.nonzero(M < -tol)):
            if not (metzler and i == j):
                bad.append(PositivityViolation(name, (int(i), int(j)), tau, float(M[i, j])))

    for b in BLOCKS["lft"]:
        M, metzler = getattr(sys, b.name), b.name == "A"
        if b.timer and not M.is_constant:
            for t in taus:
                scan(b.name, M.eval(t), metzler, float(t))
        else:
            scan(b.name, M.coeffs[0] if b.timer else M, metzler)
    return PositivityReport(not bad, sampled, tuple(bad))


# ---------------------------------------------------------------------------
# worst-case loop closure

def _positive_loop_inverse(H: np.ndarray, what: str) -> np.ndarray:
    """(I - H)^{-1}, required to exist and be entrywise nonnegative."""
    m = H.shape[0]
    if m == 0:
        return np.zeros((0, 0))
    I = np.eye(m)
    try:
        K = np.linalg.solve(I - H, I)
    except np.linalg.LinAlgError:
        raise WellPosednessError(f"{what}: I - H is singular; the loop cannot be closed")
    if not np.all(np.isfinite(K)) or np.min(K) < -1e-12:
        raise WellPosednessError(
            f"{what}: (I - H)^-1 has negative entries; spectral radius of H is >= 1 "
            "and the worst-case interconnection is not positive")
    return K


def worst_case_continuous(sys: LftPositiveSystem):
    """Close the continuous uncertainty loop at its extremal operator.

    Returns (A_wc, E_wc, C_wc, F_wc) with
        A_wc(tau) = A + Gc (I - HcD)^-1 CcD,   E_wc(tau) = Ec + Gc (I - HcD)^-1 FcD,
        C_wc      = Cc + Hc (I - HcD)^-1 CcD,  F_wc      = Fc + Hc (I - HcD)^-1 FcD.
    """
    K = _positive_loop_inverse(sys.HcD, "continuous channel")
    A_wc = sys.A + sys.Gc.mul_const(K @ sys.CcD)
    E_wc = sys.Ec + sys.Gc.mul_const(K @ sys.FcD)
    C_wc = sys.Cc + sys.Hc @ K @ sys.CcD
    F_wc = sys.Fc + sys.Hc @ K @ sys.FcD
    return A_wc, E_wc, C_wc, F_wc


def worst_case_discrete(sys: LftPositiveSystem):
    """Close the discrete uncertainty loop at its extremal operator."""
    K = _positive_loop_inverse(sys.HdD, "discrete channel")
    J_wc = sys.J + sys.Gd @ K @ sys.CdD
    E_wc = sys.Ed + sys.Gd @ K @ sys.FdD
    C_wc = sys.Cd + sys.Hd @ K @ sys.CdD
    F_wc = sys.Fd + sys.Hd @ K @ sys.FdD
    return J_wc, E_wc, C_wc, F_wc
