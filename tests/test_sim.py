"""Hybrid simulator: analytic trajectory oracles, sequence generation,
enclosure checks, and empirical gains against certified bounds.

Oracles: closed-form solutions (exponential decay, pure jumps, the
piecewise-polynomial method-of-steps solution of xdot = -x(t-1)), exact
linearity identities of the RK4 recursion, and the certified gammas from
the analysis modules.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import systems
from posimp import core, delay, observer, sim

RANGE_DT = core.Range(0.3, 0.5)


def scalar_decay(x0=1.0):
    return delay.DelaySystem.build(A=[[-1.0]], h_c=1.0,
                                   phi0=lambda s: np.array([x0]))


def smooth_fixture():
    """Jumping system whose delayed coupling vanishes, so the global
    error is pure RK4 O(step^4)."""
    return delay.DelaySystem.build(
        A=[[-1.0, 0.5], [0.2, -2.0]], Ec=[[1.0], [0.5]], Cc=[[1.0, 1.0]],
        J=[[0.5, 0.0], [0.1, 0.4]], h_c=1.0,
        phi0=lambda s: np.array([1.0, 0.5]))


# ---------------------------------------------------------------------------
# dwell sequences


def test_dwell_sequence_container():
    seq = sim.DwellSequence.build([0.5, 1.0], modes=[1, 0])
    assert seq.times == pytest.approx([0.0, 0.5, 1.5])
    assert seq.pairs == ((0.0, 0.5), (0.5, 1.0))
    assert seq.modes == (1, 0)

    with pytest.raises(ValueError, match="positive"):
        sim.DwellSequence.build([0.5, 0.0])
    with pytest.raises(ValueError, match="modes"):
        sim.DwellSequence.build([0.5, 1.0], modes=[0])
    with pytest.raises(ValueError, match="at least one"):
        sim.DwellSequence.build([])

    rep = sim.DwellSequence.build([0.5, 1.0], modes=[1, 0], repeats=True)
    cov = rep.covering(4.0)
    assert sum(cov.dwells) >= 4.0
    assert cov.dwells[:2] == rep.dwells and cov.modes[:2] == rep.modes
    with pytest.raises(ValueError, match="covers"):
        seq.covering(4.0)


def test_gen_sequence_reference_cases():
    a = sim.gen_sequence(RANGE_DT, 10.0, 42)
    b = sim.gen_sequence(RANGE_DT, 10.0, 42)
    assert a.dwells == b.dwells and not a.repeats
    assert all(0.3 <= T <= 0.5 for T in a.dwells)
    assert sum(a.dwells) >= 10.0

    m = sim.gen_sequence(core.Minimum(1.0), 20.0, 7)
    assert all(1.0 <= T <= 3.0 for T in m.dwells)

    # q=1 block forced to sum h_c/alpha = 1: the constant sequence
    pm = core.PeriodicMinimum(1.0, q=1, alpha=5, h_c=5.0)
    qp = sim.gen_sequence(pm, 10.0, 1)
    assert set(qp.dwells) == {1.0} and qp.repeats

    pr = core.PeriodicRange(0.3, 0.5, q=5, alpha=1, h_c=2.0)
    qr = sim.gen_sequence(pr, 10.0, 3)
    assert sum(qr.dwells[:5]) == pytest.approx(2.0, abs=1e-12)
    assert all(0.3 - 1e-12 <= T <= 0.5 + 1e-12 for T in qr.dwells)
    v = delay.validate_periodic_sequence(qr, pr, 2.0)
    assert v.valid and v.q <= 5 and v.alpha >= 1

    sw = sim.gen_sequence(pr, 10.0, 3, n_modes=2)
    assert sw.modes is not None and len(sw.modes) == len(sw.dwells)
    assert sw.modes[:5] == sw.modes[5:10]  # pattern repeats with the block

    with pytest.raises(ValueError):
        core.PeriodicMinimum(1.0, q=3, alpha=2, h_c=5.0)  # 3 > 5/2
    with pytest.raises(TypeError, match="constraint"):
        sim.gen_sequence("soon", 10.0, 0)
    with pytest.raises(ValueError, match="horizon"):
        sim.gen_sequence(RANGE_DT, 0.0, 0)


# (q, alpha) pairs for h_c = 2 whose dwell blocks have interior slack; at
# the corners (q tmin or q tmax equal to the required sum) the block is
# forced constant and its primitive period legitimately collapses below q
_INTERIOR_PERIODIC = [(5, 1), (6, 1), (3, 2), (2, 3), (1, 5)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(_INTERIOR_PERIODIC))
def test_generated_periodic_blocks_always_validate(seed, qa):
    q, alpha = qa
    h_c = 2.0
    pr = core.PeriodicRange(0.3, 0.5, q=q, alpha=alpha, h_c=h_c)
    seq = sim.gen_sequence(pr, 6.0, seed)
    assert delay.validate_periodic_sequence(seq, pr, h_c).valid


# ---------------------------------------------------------------------------
# trajectory oracles


def test_exponential_decay_matches_analytic():
    tr = sim.simulate(scalar_decay(), sim.DwellSequence.build([5.0]),
                      horizon=1.0, step=0.05)
    assert tr.t[-1] == 1.0
    assert tr.x[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)
    assert not tr.jumps


def test_pure_jump_doubles_exactly():
    s = delay.DelaySystem.build(A=[[0.0]], J=[[2.0]], h_c=1.0,
                                phi0=lambda s: np.array([1.0]))
    tr = sim.simulate(s, sim.DwellSequence.build([1.0] * 6),
                      horizon=5.5, step=0.25)
    assert tr.x[-1, 0] == 32.0  # five jumps, exact powers of two
    assert len(tr.jumps) == 5
    assert tr.jumps[0].x_pre[0] == 1.0 and tr.jumps[0].x_post[0] == 2.0
    assert list(tr.jump_times) == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert np.all(np.diff(tr.t) > 0)  # strictly time-ordered samples
    # the sample at an impulse time is the left limit
    assert tr.x[np.searchsorted(tr.t, 1.0), 0] == 1.0


def test_delayed_flow_follows_method_of_steps():
    """xdot = -x(t-1), phi0 = 1: x(t) = 1 - t on [0,1] and
    x(t) = t^2/2 - 2t + 3/2 on [1,2]; both polynomial pieces are exact
    for RK4 with linear history interpolation."""
    s = delay.DelaySystem.build(A=[[0.0]], Gc=[[-1.0]], h_c=1.0,
                                phi0=lambda s: np.array([1.0]))
    tr = sim.simulate(s, sim.DwellSequence.build([10.0]),
                      horizon=2.0, step=0.125)
    at = {round(t, 6): x for t, x in zip(tr.t, tr.x[:, 0])}
    assert at[0.5] == pytest.approx(0.5, abs=1e-12)
    assert at[1.0] == pytest.approx(0.0, abs=1e-12)
    assert at[2.0] == pytest.approx(-0.5, abs=1e-9)


def test_step_equal_to_the_delay_reads_the_newest_sample():
    """With step == h_c the read x(t + h - h_c) lands on the newest sample
    up to an ulp.  xdot = x(t - 0.9)/2, phi0 = 1: x(t) = 1 + t/2 on
    [0, 0.9] and 1.45 + (t - 0.9)/2 + (t - 0.9)^2/8 on [0.9, 1.8], both
    exact for RK4 with linear history interpolation."""
    s = delay.DelaySystem.build(A=[[0.0]], Gc=[[0.5]], h_c=0.9,
                                phi0=lambda s: np.array([1.0]))
    tr = sim.simulate(s, sim.DwellSequence.build([3.7]), horizon=3.0, step=0.9)
    assert tr.step == 0.9
    assert list(tr.t) == [0.0, 0.9, 1.8, 2.7, 3.0]
    assert tr.x[1, 0] == pytest.approx(1.45, abs=1e-12)
    assert tr.x[2, 0] == pytest.approx(2.00125, abs=1e-12)
    assert np.all(np.isfinite(tr.x))


def test_timer_dependent_flow_matches_the_closed_form():
    """xdot = (-1 + tau) x with x+ = x/2: x = x_k exp(-tau + tau^2/2) on
    every interval.  Each step index of a dwell interval has its own map
    and the last, partial step of each interval is mapped on its own."""
    s = delay.DelaySystem.build(A=core.TimerMatrixFunction([[[-1.0]], [[1.0]]]),
                                J=[[0.5]], h_c=1.0, phi0=lambda s: np.array([2.0]))
    seq = sim.gen_sequence(core.Range(0.6, 1.4), 8.0, 5)
    tr = sim.simulate(s, seq, horizon=8.0, step=0.05)
    assert len(tr.jumps) == 8
    T = np.array(seq.dwells)
    flow = np.exp(-T + T ** 2 / 2)
    starts = 2.0 * np.concatenate([[1.0], np.cumprod(0.5 * flow)])
    k = np.maximum(np.searchsorted(seq.times, tr.t) - 1, 0)  # left limit at a jump
    tau = tr.t - seq.times[k]
    exact = starts[k] * np.exp(-tau + tau ** 2 / 2)
    assert np.max(np.abs(tr.x[:, 0] - exact) / exact) < 2e-7  # RK4 at step 0.05


def test_exact_gain_observer_run_is_pinned():
    """Synthesized gains evaluated exactly along the timer (a
    TimerFunction flow); final samples pinned from a reference run."""
    plant = systems.range_observer_plant()
    g = observer.synthesize_range(plant, RANGE_DT, observer.CONSTANT)
    seq = sim.gen_sequence(RANGE_DT, 12.0, 3)
    phi0 = lambda s: np.array([0.5, 0.25])
    one = lambda _: np.array([1.0])
    minus_one = lambda _: np.array([-1.0])
    tr = sim.simulate_with_observer(
        plant, g, seq, w_c=lambda t: np.array([np.sin(t)]),
        w_d=lambda k: np.array([0.25]), phi0=phi0,
        phi0_minus=lambda s: phi0(s) - 0.25, phi0_plus=lambda s: phi0(s) + 0.25,
        horizon=12.0, step=0.05, w_c_bounds=(minus_one, one),
        w_d_bounds=(minus_one, one))
    assert (len(tr.t), len(tr.jumps)) == (256, 30)
    assert tr.x[-1] == pytest.approx([0.282716726228959, 0.11064076469521918], rel=1e-12)
    assert tr.xminus[-1] == pytest.approx([-0.6334947913424794, -0.29963928677491214], rel=1e-12)
    assert tr.xplus[-1] == pytest.approx([0.8337677788805687, 0.35680925282817233], rel=1e-12)
    assert sim.check_enclosure(tr).holds


def test_jump_count_delay_uses_prejump_buffer():
    """x+ = 2 x(t_{k-1}) with flow frozen: the delayed read is the
    pre-jump state one impulse ago, phi0(0) for the first jump."""
    s = delay.DelaySystem.build(A=[[0.0]], J=[[0.0]], Gd=[[2.0]],
                                h_c=1.0, h_d=1,
                                phi0=lambda s: np.array([1.0]))
    tr = sim.simulate(s, sim.DwellSequence.build([1.0] * 6),
                      horizon=5.5, step=0.25)
    assert [j.x_post[0] for j in tr.jumps] == [2.0, 2.0, 4.0, 4.0, 8.0]


def test_step_halving_converges_at_rk4_order():
    ends = []
    for step in (0.1, 0.05, 0.025):
        tr = sim.simulate(smooth_fixture(),
                          sim.DwellSequence.build([0.7, 0.9, 0.8, 1.1, 0.9]),
                          w_c=lambda t: np.array([np.sin(t)]),
                          horizon=4.0, step=step)
        ends.append(tr.x[-1])
    ratio = (np.linalg.norm(ends[0] - ends[1])
             / np.linalg.norm(ends[1] - ends[2]))
    assert 8.0 <= ratio <= 24.0  # 16 +/- 50%


def test_step_is_adjusted_and_reported():
    s = scalar_decay()
    with pytest.warns(UserWarning, match="step adjusted"):
        tr = sim.simulate(s, sim.DwellSequence.build([2.0]),
                          horizon=1.5, step=0.3)
    assert tr.requested_step == 0.3
    assert tr.step == 0.25  # largest divisor of h_c=1 below 0.3
    # a quarter of the shortest dwell also caps the step
    with pytest.warns(UserWarning, match="step adjusted"):
        tr = sim.simulate(s, sim.DwellSequence.build([0.2, 2.0]),
                          horizon=1.0, step=0.25)
    assert tr.step <= 0.05 + 1e-15


def test_simulation_error_on_blowup():
    s = delay.DelaySystem.build(A=[[50.0]], h_c=1.0,
                                phi0=lambda s: np.array([1.0]))
    with pytest.raises(sim.SimulationError, match="non-finite at t="):
        sim.simulate(s, sim.DwellSequence.build([100.0]),
                     horizon=50.0, step=0.25)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_is_a_simulation_error_when_warnings_are_errors():
    s = delay.DelaySystem.build(A=[[50.0]], Ed=[[1.0]], h_c=1.0,
                                phi0=lambda s: np.array([1.0]))
    with pytest.raises(sim.SimulationError, match="non-finite at t="):
        sim.simulate(s, sim.DwellSequence.build([100.0]),
                     horizon=50.0, step=0.25)
    # the jump arithmetic: a finite left limit times a huge jump map
    big = delay.DelaySystem.build(A=[[-1.0]], J=[[1e300]], h_c=1.0,
                                  phi0=lambda s: np.array([1e10]))
    with pytest.raises(sim.SimulationError, match="non-finite at t=1$"):
        sim.simulate(big, sim.DwellSequence.build([1.0, 1.0]), horizon=2.0)
    # the caller's own arithmetic still warns
    with pytest.raises(RuntimeWarning, match="overflow"):
        sim.simulate(s, sim.DwellSequence.build([0.5, 0.5]), horizon=1.0,
                     w_d=lambda k: np.array([1e300]) * 1e300)


def test_non_finite_horizon_is_rejected():
    s = scalar_decay()
    for horizon in (np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon must be finite"):
            sim.gen_sequence(RANGE_DT, horizon, 0)
        with pytest.raises(ValueError, match="horizon must be finite"):
            sim.simulate(s, sim.DwellSequence.build([1.0], repeats=True), horizon=horizon)
        with pytest.raises(ValueError, match="horizon must be finite"):
            sim.empirical_gain(s, RANGE_DT, n_trials=1, horizon=horizon)


def test_trajectory_nonnegative_on_positive_fixture():
    e2 = systems.range_observer_error()
    seq = sim.gen_sequence(RANGE_DT, 20.0, 11)
    tr = sim.simulate(e2, seq,
                      w_c=lambda t: np.array([max(0.0, np.sin(t))]),
                      w_d=lambda k: np.array([0.3]),
                      phi0=lambda s: np.array([0.5, 0.2]),
                      horizon=20.0, step=0.05)
    assert tr.x.min() >= -1e-9
    assert tr.z_c.min() >= -1e-9


@settings(max_examples=10, deadline=None)
@given(st.floats(0.1, 3.0))
def test_simulation_is_linear_in_the_inputs(c):
    """Scaling all inputs scales the zero-state response exactly (the
    RK4 recursion commutes with the scaling)."""
    e2 = systems.range_observer_error()
    seq = sim.DwellSequence.build([0.4, 0.35, 0.45, 0.5, 0.3, 0.4, 0.4])
    kw = dict(horizon=2.5, step=0.1)
    base = sim.simulate(e2, seq, lambda t: np.array([np.cos(t)]),
                        lambda k: np.array([0.5]), **kw)
    scaled = sim.simulate(e2, seq, lambda t: np.array([c * np.cos(t)]),
                          lambda k: np.array([c * 0.5]), **kw)
    assert np.allclose(scaled.x, c * base.x, rtol=1e-12, atol=1e-12)
    assert np.allclose(scaled.z_c, c * base.z_c, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# observer runs and enclosures


def _min_observer_run(L_c, L_d, horizon, seed=2024):
    plant = systems.min_observer_plant()
    seq = sim.gen_sequence(core.Minimum(1.0), horizon, seed)
    rng = np.random.default_rng(5)
    Wd = rng.uniform(-1.0, 1.0, (len(seq.dwells) + 2, 1))
    phi0 = lambda s: np.array([1.0, 2.0])
    return sim.simulate_with_observer(
        plant, (L_c, L_d), seq,
        w_c=lambda t: np.array([4.0 * np.sin(t)]),
        w_d=lambda k: Wd[k - 1],
        phi0=phi0,
        phi0_minus=lambda s: phi0(s) - 0.5,
        phi0_plus=lambda s: phi0(s) + 0.5,
        horizon=horizon, step=0.1,
        w_c_bounds=(lambda t: np.array([-4.0]), lambda t: np.array([4.0])),
        w_d_bounds=(lambda k: np.array([-1.0]), lambda k: np.array([1.0])))


def test_enclosure_holds_on_reference_observer_run():
    """Positivity of the closed error system keeps the bracket ordered
    for 100 time units even though the error dynamics are unstable at
    this dwell time (samples grow beyond 1e4)."""
    tr = _min_observer_run(np.array(systems.MIN_OBSERVER["L_c"]),
                           np.array(systems.MIN_OBSERVER["L_d"]), 100.0)
    rep = sim.check_enclosure(tr)
    assert rep.holds and rep.time is None
    assert np.abs(tr.x).max() > 1e4
    assert np.min(tr.x - tr.xminus) > 0.1
    assert np.min(tr.xplus - tr.x) > 0.1
    assert tr.z_c.min() >= -1e-9  # bracket width stays nonnegative


def test_enclosure_violation_reported_for_bad_gain():
    """A gain that destroys the Metzler structure of A - L_c C_yc breaks
    the bracket at a finite, early time."""
    tr = _min_observer_run(np.array([[5.0], [3.3333]]),
                           np.array(systems.MIN_OBSERVER["L_d"]), 30.0)
    rep = sim.check_enclosure(tr)
    assert not rep.holds
    assert rep.time == pytest.approx(0.3, abs=1e-9)
    assert rep.component == "x[0] vs xminus[0]"
    assert rep.margin > 1e-3


def test_enclosure_trivial_equalities():
    plant = systems.range_observer_plant()
    seq = sim.DwellSequence.build([0.4] * 8)
    phi0 = lambda s: np.array([0.5, 0.25])
    zero = lambda _: np.array([0.0])
    tr = sim.simulate_with_observer(
        plant, (np.array(systems.RANGE_OBSERVER["L_c"]),
                np.array(systems.RANGE_OBSERVER["L_d"])), seq,
        phi0=phi0, phi0_minus=phi0, phi0_plus=phi0,
        horizon=3.0, step=0.1,
        w_c_bounds=(zero, zero), w_d_bounds=(zero, zero))
    assert np.allclose(tr.xminus, tr.x, atol=1e-12)
    assert np.allclose(tr.xplus, tr.x, atol=1e-12)
    assert sim.check_enclosure(tr).holds

    plain = sim.simulate(systems.range_observer_error(), seq,
                         horizon=3.0, step=0.1,
                         phi0=lambda s: np.array([0.0, 0.0]))
    with pytest.raises(ValueError, match="framer"):
        sim.check_enclosure(plain)


def test_observer_error_equals_closed_loop_trajectory():
    """x+ - x from the joint observer run solves the closed-loop error
    system driven by (upper bound - disturbance); both integrations are
    linear images of the same RK4 recursion, so they agree to roundoff."""
    plant = systems.range_observer_plant()
    g = observer.synthesize_range(plant, RANGE_DT, observer.CONSTANT)
    seq = sim.DwellSequence.build([0.4, 0.35, 0.45, 0.5, 0.3, 0.4, 0.45,
                                   0.35, 0.4, 0.5])
    phi0 = lambda s: np.array([0.5, 0.25])
    w_c = lambda t: np.array([np.sin(t)])
    w_d = lambda k: np.array([0.25])
    one = lambda _: np.array([1.0])
    minus_one = lambda _: np.array([-1.0])
    tr = sim.simulate_with_observer(
        plant, g, seq, w_c=w_c, w_d=w_d,
        phi0=phi0, phi0_minus=lambda s: phi0(s) - 0.25,
        phi0_plus=lambda s: phi0(s) + 0.25,
        horizon=4.0, step=0.1,
        w_c_bounds=(minus_one, one), w_d_bounds=(minus_one, one))
    err = observer.error_system(plant, g)
    tre = sim.simulate(err, seq,
                       w_c=lambda t: np.array([1.0]) - w_c(t),
                       w_d=lambda k: np.array([1.0]) - w_d(k),
                       phi0=lambda s: np.array([0.25, 0.25]),
                       horizon=4.0, step=0.1)
    assert np.allclose(tr.xplus - tr.x, tre.x, atol=1e-9)
    assert sim.check_enclosure(tr).holds


def test_csv_export_is_deterministic(tmp_path):
    tr = sim.simulate(smooth_fixture(),
                      sim.DwellSequence.build([0.7, 0.9, 0.8]),
                      w_c=lambda t: np.array([np.sin(t)]),
                      horizon=2.0, step=0.1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sim.to_csv(tr, p1)
    sim.to_csv(tr, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2"
    data = np.loadtxt(p1, delimiter=",", skiprows=1)
    assert data.shape == (len(tr.t), 3)
    assert np.allclose(data[:, 1:], tr.x)

    tro = _min_observer_run(np.array(systems.MIN_OBSERVER["L_c"]),
                            np.array(systems.MIN_OBSERVER["L_d"]), 5.0)
    p3 = tmp_path / "obs.csv"
    sim.to_csv(tro, p3)
    head = p3.read_text().splitlines()[0]
    assert head == "t,x_1,x_2,xminus_1,xminus_2,xplus_1,xplus_2"


# ---------------------------------------------------------------------------
# switched runs


def test_switched_simulation_follows_mode_schedule():
    plant = systems.switched_toy()
    opts = observer.SynthesisOptions(n_nodes=13)
    gains = observer.synthesize_switched(plant, core.Minimum(1.0),
                                         observer.CONSTANT, opts)
    cl = observer.error_system(plant, gains)
    seq = sim.DwellSequence.build([1.0, 1.5, 1.2, 1.0], modes=[0, 1, 1, 0])
    tr = sim.simulate(cl, seq, w_c=lambda t: np.array([0.5]),
                      horizon=4.0, step=0.1)
    assert tr.x.min() >= -1e-9  # closed loop is internally positive
    # switches leave the state continuous: post equals the left limit
    for j in tr.jumps:
        assert np.allclose(j.x_post, j.x_pre)

    with pytest.raises(ValueError, match="modes"):
        sim.simulate(cl, sim.DwellSequence.build([1.0, 1.0]),
                     horizon=2.0, step=0.1)
    bad = sim.DwellSequence.build([1.0, 1.0], modes=[0, 2])
    with pytest.raises(ValueError, match="mode"):
        sim.simulate(cl, bad, horizon=2.0, step=0.1)


def test_switched_observer_run_with_wide_disturbance_channel():
    # disturbance width (3) differs from measurement width (1); the framers
    # must size their input reads off the former
    plant = systems.power_control()
    L = np.array(systems.POWER_CONTROL["L"], dtype=float)
    seq = sim.gen_sequence(core.Minimum(0.2), 4.0, 7, n_modes=2)
    tr = sim.simulate_with_observer(
        plant, [L, L], seq,
        w_c=lambda t: np.array([0.3 * np.sin(t), 0.1, -0.2 * np.cos(t)]),
        phi0=lambda s: np.ones(3), phi0_minus=lambda s: np.zeros(3),
        phi0_plus=lambda s: 2.0 * np.ones(3),
        horizon=4.0,
        w_c_bounds=(lambda t: -0.5 * np.ones(3), lambda t: 0.5 * np.ones(3)))
    assert sim.check_enclosure(tr).holds


# ---------------------------------------------------------------------------
# empirical gains


def test_empirical_gain_static_map():
    stat = delay.DelaySystem.build(A=[[-1.0]], Fc=[[0.5]], Cc=[[0.0]],
                                   h_c=1.0)
    g = sim.empirical_gain(stat, core.Range(0.5, 1.0), n_trials=12, seed=3)
    assert g == pytest.approx(0.5, rel=2e-2)

    silent = delay.DelaySystem.build(A=[[-1.0]], Ec=[[1.0]], h_c=1.0)
    assert sim.empirical_gain(silent, core.Range(0.5, 1.0),
                              n_trials=6, seed=3) == 0.0


def test_empirical_gain_is_below_certified_gamma():
    e2 = systems.range_observer_error()
    cert = delay.certify_delay_range(e2, RANGE_DT, delay.CONSTANT)
    g = sim.empirical_gain(e2, RANGE_DT, n_trials=64, seed=0)
    assert 0.0 < g <= cert.gamma + 1e-6
    assert g == pytest.approx(0.821601, rel=1e-4)  # seed-pinned regression

    toy = systems.stable_toy()
    toyd = delay.DelaySystem.build(
        A=toy.A.eval(0.0), Ec=toy.Ec.eval(0.0), Cc=toy.Cc,
        J=toy.J, Ed=toy.Ed, Cd=toy.Cd, h_c=1.0, h_d=0)
    cert_toy = delay.certify_delay_range(toyd, core.Range(0.5, 1.5),
                                         delay.CONSTANT)
    gt = sim.empirical_gain(toyd, core.Range(0.5, 1.5), n_trials=64, seed=0)
    assert 0.0 < gt <= cert_toy.gamma + 1e-6
