"""Impulsive positive systems with constant delays.

The flow may read the state a fixed time ``h_c`` in the past and the
jumps may read the state ``h_d`` impulses in the past.  Both delay
operators have unit gain on nonnegative signals, so the delayed state
can be routed through the uncertainty channels of the delay-free
framework (identity channel output, no feedthrough).  Two certificate
families result:

* ``CONSTANT`` scalings: the channel multipliers commute with any delay,
  so the certificate holds for every dwell-time sequence admitted by the
  constraint and for *every* delay value -- ``h_c`` and ``h_d`` never
  enter the linear program.
* ``UNCONSTRAINED_PERIODIC`` scalings: timer-dependent multipliers must
  agree with their own value one delay earlier, which pins the dwell
  sequence to an eventually periodic family whose period sum divides
  ``h_c``.  Along such sequences the conditions collapse to the
  delay-free conditions on the zero-delay (folded) system, the least
  conservative reading of the delayed dynamics.

``validate_periodic_sequence`` decides membership in that periodic
family for a concrete dwell sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certify, core

#: Scaling policies admissible for delayed systems.  Timer-dependent,
#: non-periodic scalings are rejected: a multiplier that varies with the
#: timer cannot commute with the delay operator along arbitrary
#: dwell-time sequences.
CONSTANT = "constant"
UNCONSTRAINED_PERIODIC = "unconstrained-periodic"

_PERIODIC_RESTRICTION = (
    "holds along eventually periodic dwell-time sequences whose period sum "
    "divides the continuous delay h_c; check candidate sequences with "
    "validate_periodic_sequence")


def check_delays(h_c, h_d=0) -> tuple[float, int]:
    """The delays as (float h_c > 0, int h_d >= 0)."""
    h_c = float(h_c)
    if not h_c > 0:
        raise ValueError("h_c must be positive")
    if h_d != int(h_d) or int(h_d) < 0:
        raise ValueError("h_d must be a nonnegative integer")
    return h_c, int(h_d)


class DelaySystem(core.Container):
    """Linear impulsive system with one flow delay and one jump-count delay.

    Flow (between jumps, timer tau since the last jump):
        xdot(t) = A(tau) x(t) + Gc(tau) x(t - h_c) + Ec(tau) w_c(t)
        z_c(t)  = Cc x(t) + Hc x(t - h_c) + Fc w_c(t)
    Jump (at impulse time t_k):
        x+      = J x(t_k) + Gd x(t_{k - h_d}) + Ed w_d(k)
        z_d(k)  = Cd x(t_k) + Hd x(t_{k - h_d}) + Fd w_d(k)
    with initial history x(s) = phi0(s) on [-h_c, 0] (zero when phi0 is
    None).  The jump-count delay h_d counts impulses, not time.
    """

    TABLE = core.BLOCKS["delay"]

    @classmethod
    def build(cls, *, h_c=1.0, h_d=0, phi0=None, **blocks):
        """Assemble from the blocks of ``core.BLOCKS["delay"]`` with shape
        validation; omitted blocks default to zero (J to the identity).
        Input/output widths are inferred from the blocks given."""
        h_c, h_d = check_delays(h_c, h_d)
        if phi0 is not None and not callable(phi0):
            raise ValueError("phi0 must be callable (history on [-h_c, 0]) or None")
        return cls(core.assemble(cls.TABLE, blocks), h_c=h_c, h_d=h_d, phi0=phi0)


# ---------------------------------------------------------------------------
# reductions to the delay-free framework

def to_lft(sys: DelaySystem) -> core.LftPositiveSystem:
    """Embed the delays as unit-gain uncertainty channels.

    The continuous channel carries x(t - h_c) and the discrete channel
    x(t_{k - h_d}); both channel outputs are the raw state (identity
    output, no channel feedthrough), so closing each loop at its
    extremal operator recovers the zero-delay folded matrices.
    """
    n = sys.n
    return core.LftPositiveSystem.build(
        A=sys.A, Gc=sys.Gc, Ec=sys.Ec,
        CcD=np.eye(n), Cc=sys.Cc, Hc=sys.Hc, Fc=sys.Fc,
        J=sys.J, Gd=sys.Gd, Ed=sys.Ed,
        CdD=np.eye(n), Cd=sys.Cd, Hd=sys.Hd, Fd=sys.Fd)


def zero_delay_system(sys: DelaySystem) -> core.LftPositiveSystem:
    """Fold the delayed state into the instantaneous one (delays set to zero).

    Returns the channel-free system with blocks A+Gc, Ec, Cc+Hc, Fc and
    J+Gd, Ed, Cd+Hd, Fd.  Stability and gain of this folded system are
    what the unconstrained-periodic certificate actually establishes.
    """
    return core.LftPositiveSystem.build(
        A=sys.A + sys.Gc, Ec=sys.Ec,
        Cc=sys.Cc + sys.Hc, Fc=sys.Fc,
        J=sys.J + sys.Gd, Ed=sys.Ed,
        Cd=sys.Cd + sys.Hd, Fd=sys.Fd)


def _reduced_lft(sys: DelaySystem) -> core.LftPositiveSystem:
    """Continuous channel kept open, discrete channel folded analytically.

    A constant discrete multiplier is optimal at mu_d = zeta(0)^T Gd + 1^T Hd,
    which turns the jump rows into rows on the summed blocks J+Gd / Cd+Hd;
    the continuous channel keeps its constant multiplier as an LP variable.
    """
    return core.LftPositiveSystem.build(
        A=sys.A, Gc=sys.Gc, Ec=sys.Ec,
        CcD=np.eye(sys.n), Cc=sys.Cc, Hc=sys.Hc, Fc=sys.Fc,
        J=sys.J + sys.Gd, Ed=sys.Ed,
        Cd=sys.Cd + sys.Hd, Fd=sys.Fd)


# ---------------------------------------------------------------------------
# certificates

def check_scalings(scalings, who: str = "delay certificates admit") -> str:
    """The scaling tag, when it is CONSTANT or UNCONSTRAINED_PERIODIC."""
    if scalings in (CONSTANT, UNCONSTRAINED_PERIODIC):
        return scalings
    raise ValueError(
        f"{who} scalings CONSTANT or UNCONSTRAINED_PERIODIC only (timer-dependent "
        "multipliers cannot commute with the delay operator along arbitrary dwell "
        f"sequences); got {scalings!r}")


def _check_polynomial(sys: DelaySystem) -> None:
    if any(isinstance(M, core.TimerFunction) for M in (sys.A, sys.Gc, sys.Ec)):
        raise TypeError(
            "delay certificates need flow blocks polynomial in the timer, not closed with the exact "
            "observer gain X(tau)^-1 Y_c(tau); its synthesis program certifies that design")


def _certify_delay(sys: DelaySystem, dt, scalings, options, family) -> certify.CertifyResult:
    scalings = check_scalings(scalings)
    _check_polynomial(sys)
    core.check_family(dt, family, sys.h_c)
    periodic = scalings == UNCONSTRAINED_PERIODIC
    call = certify.certify_range if family is core.Range else certify.certify_min
    if periodic:
        res = call(zero_delay_system(sys), dt, core.ScalingStructure.unconstrained(), options)
    else:
        res = call(_reduced_lft(sys), dt, core.ScalingStructure.constant(), options)
    res.kind = f"delay_{res.kind}_periodic" if periodic else f"delay_{res.kind}"
    if isinstance(res, certify.Certificate):
        if periodic:
            res.restriction = _PERIODIC_RESTRICTION
        else:
            # the discrete multiplier the analytic folding implies
            res.mu_d = res.zeta.eval(0.0) @ sys.Gd + sys.Hd.sum(axis=0)
    return res


def certify_delay_range(sys: DelaySystem, dt,
                        scalings: str = CONSTANT,
                        options: certify.CertifyOptions | None = None) -> certify.CertifyResult:
    """Stability / hybrid-gain certificate under a range dwell-time
    constraint for the delayed system.

    With ``CONSTANT`` scalings the certificate is delay-independent: it
    holds for all h_c > 0 and all h_d >= 0.  With
    ``UNCONSTRAINED_PERIODIC`` scalings it holds only along eventually
    periodic dwell sequences compatible with h_c (the result carries a
    ``restriction`` note) and equals the delay-free certificate of the
    zero-delay folded system.  A periodic constraint must tie its period
    to the h_c of the system.
    """
    return _certify_delay(sys, dt, scalings, options, core.Range)


def certify_delay_min(sys: DelaySystem, dt,
                      scalings: str = CONSTANT,
                      options: certify.CertifyOptions | None = None) -> certify.CertifyResult:
    """Minimum dwell-time analog of :func:`certify_delay_range`."""
    return _certify_delay(sys, dt, scalings, options, core.Minimum)


# ---------------------------------------------------------------------------
# periodic dwell-sequence validation

@dataclass(frozen=True)
class PeriodicValidation:
    """Outcome of validate_periodic_sequence; truthy iff valid."""
    valid: bool
    q: int | None = None          # primitive period length
    alpha: int | None = None      # h_c = alpha * (period sum)
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid

    def __str__(self) -> str:
        if self.valid:
            return f"valid periodic dwell sequence: q={self.q}, alpha={self.alpha}"
        return f"invalid periodic dwell sequence: {self.reason}"


def _primitive_period(dwells: list[float]) -> list[float]:
    """Shortest prefix whose repetition reproduces the whole list."""
    q = len(dwells)
    for p in range(1, q + 1):
        if q % p:
            continue
        if all(abs(dwells[i] - dwells[i % p]) <= 1e-12 * max(1.0, abs(dwells[i]))
               for i in range(q)):
            return dwells[:p]
    return list(dwells)


def validate_periodic_sequence(seq, constraint, h_c: float) -> PeriodicValidation:
    """Check that a repeating dwell sequence is compatible with the
    unconstrained-periodic certificate for continuous delay h_c.

    The sequence is reduced to its primitive period (so m-fold
    repetitions validate identically); it is valid iff every dwell obeys
    the base constraint and the period sum divides h_c, i.e.
    alpha = h_c / sum(beta) is a positive integer (relative tolerance
    1e-9).  ``seq`` may be a plain iterable of dwell times (assumed to
    repeat) or any object with ``dwells`` and ``repeats`` attributes; a
    non-repeating sequence is never valid.
    """
    if not h_c > 0:
        raise ValueError("h_c must be positive")
    repeats = True
    dwells = seq
    if hasattr(seq, "dwells"):
        dwells = seq.dwells
        repeats = getattr(seq, "repeats", True)
    dwells = [float(b) for b in dwells]
    if not dwells:
        return PeriodicValidation(False, reason="empty dwell sequence")
    if not repeats:
        return PeriodicValidation(False, reason="sequence is not flagged as repeating")
    if any(b <= 0 for b in dwells):
        return PeriodicValidation(False, reason="dwell times must be positive")

    if isinstance(constraint, core.Range):
        lo, hi = constraint.tmin, constraint.tmax
    elif isinstance(constraint, core.Minimum):
        lo, hi = constraint.tbar, np.inf
    else:
        raise TypeError(f"unsupported constraint {type(constraint).__name__}")

    beta = _primitive_period(dwells)
    problems = []
    tol = 1e-9
    for k, b in enumerate(beta):
        if b < lo * (1 - tol) or b > hi * (1 + tol):
            problems.append(f"dwell beta[{k}]={b:.6g} outside [{lo:.6g}, {hi:.6g}]")
    s = sum(beta)
    alpha = h_c / s
    if abs(alpha - round(alpha)) > tol * max(1.0, alpha) or round(alpha) < 1:
        problems.append(
            f"period sum {s:.6g} does not divide h_c={h_c:.6g} "
            f"(h_c/sum = {alpha:.6g} is not a positive integer)")
    if isinstance(constraint, core.Periodic):
        if abs(constraint.h_c - h_c) > 1e-12 * max(1.0, h_c):
            problems.append(
                f"constraint ties the period to h_c={constraint.h_c} but h_c={h_c} was given")
        elif not problems and (len(beta) != constraint.q or round(alpha) != constraint.alpha):
            problems.append(
                f"sequence has (q, alpha)=({len(beta)}, {round(alpha)}) but the "
                f"constraint demands ({constraint.q}, {constraint.alpha})")
    if problems:
        return PeriodicValidation(False, reason="; ".join(problems))
    return PeriodicValidation(True, q=len(beta), alpha=int(round(alpha)))
