"""Hybrid simulator: analytic trajectory oracles, sequence generation,
enclosure checks, and empirical gains against certified bounds.

Oracles: closed-form solutions (exponential decay, pure jumps, the
piecewise-polynomial method-of-steps solution of xdot = -x(t-1)), exact
linearity identities of the RK4 recursion, and the certified gammas from
the analysis modules.
"""

import hashlib
import time
import warnings

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


def _scalar_draws(lo, hi, horizon, seed, n_modes):
    """gen_sequence for Range and Minimum as one dwell per call."""
    rng = np.random.default_rng(seed)
    dwells, total = [], 0.0
    while total < horizon:
        T = float(rng.uniform(lo, hi))
        dwells.append(T)
        total += T
    modes = None if n_modes is None else tuple(int(m) for m in rng.integers(0, n_modes, len(dwells)))
    return tuple(dwells), modes


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("constraint, lo, hi, n_modes", [
    (core.Range(0.5, 1.5), 0.5, 1.5, None),
    (core.Minimum(0.5), 0.5, 1.5, None),
    (core.Range(0.7, 0.7), 0.7, 0.7, 3),
    (core.Minimum(1.0), 1.0, 3.0, 2),
])
def test_block_draws_equal_one_draw_per_call(constraint, lo, hi, n_modes, seed):
    """Dwells drawn in blocks are the scalar loop's draws and sums, and
    leave the generator where the loop does (the modes are drawn after).
    With tmin = tmax = 0.7, six dwells sum to 4.2 by rounding, where
    ceil(4.2 / 0.7) is 7: a block must not draw the seventh."""
    for horizon in (0.1, 4.2, 1e5):
        seq = sim.gen_sequence(constraint, horizon, seed, n_modes=n_modes)
        assert (seq.dwells, seq.modes) == _scalar_draws(lo, hi, horizon, seed, n_modes)


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


def _exact_gain_run():
    plant = systems.range_observer_plant()
    g = observer.synthesize_range(plant, RANGE_DT, observer.CONSTANT)
    seq = sim.gen_sequence(RANGE_DT, 12.0, 3)
    phi0 = lambda s: np.array([0.5, 0.25])
    one = lambda _: np.array([1.0])
    minus_one = lambda _: np.array([-1.0])
    return sim.simulate_with_observer(
        plant, g, seq, w_c=lambda t: np.array([np.sin(t)]),
        w_d=lambda k: np.array([0.25]), phi0=phi0,
        phi0_minus=lambda s: phi0(s) - 0.25, phi0_plus=lambda s: phi0(s) + 0.25,
        horizon=12.0, step=0.05, w_c_bounds=(minus_one, one),
        w_d_bounds=(minus_one, one))


def test_exact_gain_observer_run_is_pinned():
    """Synthesized gains evaluated exactly along the timer (a
    TimerFunction flow); final samples pinned from a reference run."""
    tr = _exact_gain_run()
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
    with pytest.warns(UserWarning, match="step adjusted") as rec:
        tr = sim.simulate(s, sim.DwellSequence.build([2.0]),
                          horizon=1.5, step=0.3)
    assert rec[0].filename == __file__  # the warning points at the caller
    assert tr.requested_step == 0.3
    assert tr.step == 0.25  # largest divisor of h_c=1 below 0.3
    # a quarter of the shortest dwell also caps the step
    with pytest.warns(UserWarning, match="step adjusted"):
        tr = sim.simulate(s, sim.DwellSequence.build([0.2, 2.0]),
                          horizon=1.0, step=0.25)
    assert tr.step <= 0.05 + 1e-15
    zero, flat = (lambda _: np.zeros(1)), (lambda _: np.zeros(2))
    with pytest.warns(UserWarning, match="step adjusted") as rec:
        sim.simulate_with_observer(
            systems.range_observer_plant(), (np.array(systems.RANGE_OBSERVER["L_c"]),
                                             np.array(systems.RANGE_OBSERVER["L_d"])),
            sim.DwellSequence.build([0.4] * 4), phi0=flat, phi0_minus=flat, phi0_plus=flat,
            horizon=1.0, step=0.3, w_c_bounds=(zero, zero), w_d_bounds=(zero, zero))
    assert rec[0].filename == __file__


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


@pytest.mark.parametrize("action", ["default", "error"])
def test_divergence_at_a_jump_inside_a_chunk_is_a_simulation_error(action):
    """The second jump overflows.  With h_c = 5 and the default step all ten
    intervals lie in one chunk, so the jump is applied mid-chunk, and the
    error names its time with and without RuntimeWarnings as errors."""
    s = delay.DelaySystem.build(A=[[-1.0]], J=[[1e200]], h_c=5.0, phi0=lambda s: np.array([1.0]))
    h = sim._adjust_step(0.3 / 16.0, 5.0, 0.3)
    assert 2.5 / h + 10 < round(5.0 / h) - 1  # every step of the run in the first chunk
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(sim.SimulationError, match=r"non-finite at t=0\.6$"):
            sim.simulate(s, sim.DwellSequence.build([0.3] * 10), horizon=2.5)


def test_non_finite_horizon_is_rejected():
    s = scalar_decay()
    for horizon in (np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon must be finite"):
            sim.gen_sequence(RANGE_DT, horizon, 0)
        with pytest.raises(ValueError, match="horizon must be finite"):
            sim.simulate(s, sim.DwellSequence.build([1.0], repeats=True), horizon=horizon)
        with pytest.raises(ValueError, match="horizon must be finite"):
            sim.empirical_gain(s, RANGE_DT, n_trials=1, horizon=horizon)


@pytest.mark.parametrize("make, shortest", [
    (lambda h: sim.gen_sequence(core.Range(0.5, 1.5), h, 1), 0.5),
    (lambda h: sim.gen_sequence(core.Minimum(2.0), h, 1, n_modes=2), 2.0),
    (lambda h: sim.gen_sequence(core.PeriodicMinimum(1.0, q=2, alpha=1, h_c=4.0), h, 1), 1.0),
    (lambda h: sim.DwellSequence.build([0.5, 2.0], repeats=True).covering(h), 0.5),
], ids=["range", "minimum", "periodic", "covering"])
def test_interval_count_is_capped_before_allocating(make, shortest):
    # just past the cap on horizon / shortest dwell, and far past it
    for horizon in (shortest * sim.MAX_INTERVALS * (1 + 1e-9), 1e9):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most 10,000,000 are simulated"):
            make(horizon)
        assert time.perf_counter() - start < 0.5
    assert sum(make(3.0).dwells) >= 3.0


def test_row_count_is_capped_before_allocating():
    toy = delay.DelaySystem.build(A=[[-1.0]], Cc=[[1.0]], h_c=1.0)
    seq = sim.gen_sequence(core.Range(0.5, 1.5), 1e5, 1)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^horizon 100000 at step 0\.0001 takes up to 1e\+09 "
                                         r"rows; at most 1,000,000 are simulated$"):
        sim.simulate(toy, seq, horizon=1e5, step=1e-4)
    assert time.perf_counter() - start < 0.5


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


@pytest.mark.parametrize("seed", range(6))
def test_polynomial_step_map_equals_the_rk4_step(seed):
    rng = np.random.default_rng(seed)
    n, p = (int(v) for v in rng.integers(1, 5, 2))
    s = delay.DelaySystem.build(A=rng.normal(size=(n, n)), Gc=rng.normal(size=(n, n)),
                                Ec=rng.normal(size=(n, p)), h_c=1.0)
    C = sim._step_poly(s)
    for h in [*rng.uniform(0.0, 1.0, 8), 1e-3, 1.0]:
        want = np.hstack(sim._step_map(s, float(rng.uniform(0.0, 5.0)), h))
        got = np.hstack(sim._poly_map(C, h))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_inputs_are_sampled_once_per_stage_time():
    """w_c is sampled at 0 and at the midpoint and end of every step, each
    time once and in increasing order, across the jumps too."""
    seen = []

    def w_c(t):
        seen.append(t)
        return np.array([np.sin(t)])

    tr = sim.simulate(smooth_fixture(), sim.DwellSequence.build([0.7, 0.9, 0.8]),
                      w_c=w_c, horizon=2.2, step=0.05)
    assert len(tr.jumps) == 2
    assert len(seen) == 2 * (len(tr.t) - 1) + 1
    assert np.all(np.diff(seen) > 0)
    assert np.allclose(seen[::2], tr.t, rtol=0, atol=1e-15)
    assert np.allclose(seen[1::2], 0.5 * (tr.t[:-1] + tr.t[1:]), rtol=0, atol=1e-15)


def test_every_input_value_is_shape_checked():
    seq = sim.DwellSequence.build([0.7, 0.9, 0.8])
    late = lambda t: np.zeros(2) if t > 1.0 else np.zeros(1)
    with pytest.raises(ValueError, match=r"^w_c returned shape \(2,\), expected \(1,\)$"):
        sim.simulate(smooth_fixture(), seq, w_c=late, horizon=2.2, step=0.05)
    with pytest.raises(ValueError, match=r"^phi0 returned shape \(1, 2\), expected \(2,\)$"):
        sim.simulate(smooth_fixture(), seq, phi0=lambda s: np.ones((1, 2)) if s < 0 else np.ones(2),
                     horizon=2.2, step=0.05)
    # a width-1 input may mix floats and one-element arrays
    mixed = sim.simulate(smooth_fixture(), seq, w_c=lambda t: 0.5 if t < 1.0 else np.array([0.5]),
                         horizon=2.2, step=0.05)
    const = sim.simulate(smooth_fixture(), seq, w_c=lambda t: np.array([0.5]),
                         horizon=2.2, step=0.05)
    assert np.array_equal(mixed.x, const.x)


def _plain_pinned_run():
    return sim.simulate(systems.range_observer_error(), sim.gen_sequence(RANGE_DT, 20.0, 4),
                        w_c=lambda t: np.array([np.sin(t)]), horizon=20.0)


def _min_observer_pinned_run():
    """h_d = 4, and a chunk of 49 steps spans several dwell intervals."""
    return _min_observer_run(np.array(systems.MIN_OBSERVER["L_c"]),
                             np.array(systems.MIN_OBSERVER["L_d"]), 30.0)


def _switched_observer_pinned_run():
    plant = systems.power_control()
    L = np.array(systems.POWER_CONTROL["L"], dtype=float)
    return sim.simulate_with_observer(
        plant, [L, L], sim.gen_sequence(core.Minimum(0.2), 4.0, 7, n_modes=2),
        w_c=lambda t: np.array([0.3 * np.sin(t), 0.1, -0.2 * np.cos(t)]),
        phi0=lambda s: np.ones(3), phi0_minus=lambda s: np.zeros(3),
        phi0_plus=lambda s: 2.0 * np.ones(3), horizon=4.0,
        w_c_bounds=(lambda t: -0.5 * np.ones(3), lambda t: 0.5 * np.ones(3)))


# sha256 prefixes of trace.t.tobytes() as the engine that stepped one
# chunk at a time, sampling inputs and history per chunk, produced them
ROW_TIMES = {
    "plain": ("ce5a9e709c186db1", _plain_pinned_run),
    "observer": ("cb726cd8dff2530b", _min_observer_pinned_run),
    "switched_observer": ("04017f3be1cbd3eb", _switched_observer_pinned_run),
}


@pytest.mark.parametrize("name", sorted(ROW_TIMES))
def test_row_times_are_unchanged(name):
    digest, run = ROW_TIMES[name]
    tr = run()
    assert hashlib.sha256(tr.t.tobytes()).hexdigest()[:16] == digest


def _timer_flow_pinned_run():
    """A(tau) = A0 + tau A1 with delayed coupling, inputs, outputs and a
    pre-jump read two jumps back; the dwells leave a partial last step."""
    s = delay.DelaySystem.build(
        A=core.TimerMatrixFunction([[[-1.0, 0.3], [0.2, -1.5]], [[0.5, 0.0], [0.1, 0.4]]]),
        Gc=[[0.2, 0.0], [0.1, 0.1]], Ec=[[1.0], [0.5]], Cc=[[1.0, 0.5]], Hc=[[0.3, 0.1]],
        Fc=[[0.2]], J=[[0.6, 0.1], [0.0, 0.7]], Gd=[[0.1, 0.0], [0.0, 0.1]], Ed=[[0.3], [0.1]],
        Cd=[[0.5, 1.0]], Hd=[[0.2, 0.0]], Fd=[[0.4]], h_c=1.0, h_d=2,
        phi0=lambda s: np.array([1.0 + s, 0.5]))
    return sim.simulate(s, sim.gen_sequence(core.Range(0.6, 1.4), 8.0, 5),
                        w_c=lambda t: np.array([np.sin(t)]), w_d=lambda k: np.array([1.0 / k]),
                        horizon=8.0, step=0.05)


def _step_equal_to_delay_pinned_run():
    """Step h = h_c: every chunk is one step and ends at a row a jump may
    follow.  Output rows with one term each keep z_c exact whatever order
    the matrix product sums in."""
    s = delay.DelaySystem.build(
        A=[[-1.0, 0.5], [0.2, -2.0]], Gc=[[0.3, 0.0], [0.1, 0.2]], Ec=[[1.0], [0.5]],
        Cc=[[1.0, 0.0], [0.0, 0.0]], Hc=[[0.0, 0.0], [0.0, 0.5]], J=[[0.5, 0.0], [0.1, 0.4]],
        Ed=[[0.2], [0.2]], Cd=[[1.0, 0.5]], h_c=0.25, phi0=lambda s: np.array([1.0, 0.5 - s]))
    return sim.simulate(s, sim.gen_sequence(core.Range(1.0, 1.6), 10.0, 2),
                        w_c=lambda t: np.array([np.cos(t)]), w_d=lambda k: np.array([0.5]),
                        horizon=10.0, step=0.25)


# sha256 prefixes of the bytes of trace.x, trace.z_c, trace.z_d and the
# stacked post-jump states, as the engine that stepped each dwell interval
# in its own chunks produced them
TRACES = {
    "plain": (("3da615c8ebd3562f", "3da615c8ebd3562f", "ef115a0e0c15cdc4", "ef115a0e0c15cdc4"),
              _plain_pinned_run),
    "observer": (("8d9d231927214185", "b8ab5b34f3e03d15", "e3b0c44298fc1c14", "6fab8f5940f38e77"),
                 _min_observer_pinned_run),
    "switched_observer": (("8097672bdd708447", "a663d8b9b47d26e6", "e3b0c44298fc1c14",
                           "3c92cf9ebab82d43"), _switched_observer_pinned_run),
    "timer_flow": (("f1e7140945b716e1", "e82ee3782f212fe5", "abf9bb544e241ee9", "041cac054b2cc200"),
                   _timer_flow_pinned_run),
    "exact_gain": (("eb614dbf60ab8878", "65d7595ebda129cf", "e3b0c44298fc1c14", "d52e0abe50e191c9"),
                   _exact_gain_run),
    "step_equal_to_delay": (("016599f5e379ecf6", "db619a7d1a2e51b6", "0f610602bb9ce0fc",
                             "24d9f2738318e1c8"), _step_equal_to_delay_pinned_run),
}


def _trace_digests(tr):
    post = np.array([j.x_post for j in tr.jumps])
    return tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (tr.x, tr.z_c, tr.z_d, post))


@pytest.mark.parametrize("name", sorted(TRACES))
def test_traces_are_unchanged(name):
    digests, run = TRACES[name]
    assert _trace_digests(run()) == digests


def _loop_schedule(seq, horizon, h):
    """The row times and intervals of a run, one step at a time: steps of h
    from each interval start, the last one snapped onto the interval end."""
    times = seq.times
    rows, intervals = [0.0], []
    for k in range(len(seq.dwells)):
        t_start = float(times[k])
        if t_start >= horizon:
            break
        t_end = min(float(times[k + 1]), horizon)
        r0, t, partial = len(rows) - 1, t_start, False
        while t < t_end - 1e-12 * max(1.0, t_end):
            dt = min(h, t_end - t)
            snap = t_end - (t + dt) < 1e-12 * h
            partial = snap or dt < h
            t = t_end if snap else t + dt
            rows.append(t)
        jump = not (t_end >= horizon or t_end < float(times[k + 1]))
        intervals.append((seq.modes[k] if seq.modes else 0, r0, len(rows) - 1 - r0, partial, jump))
        if not jump:
            break
        rows.append(t_end)
    return np.array(rows), intervals


def _same_schedule(seq, horizon, h):
    got_t, got = sim._schedule(seq, horizon, h)
    want_t, want = _loop_schedule(seq, horizon, h)
    assert got_t.tobytes() == want_t.tobytes()
    assert [tuple(map(int, iv)) for iv in got] == [tuple(map(int, iv)) for iv in want]


@pytest.mark.parametrize("seed", range(4))
def test_schedule_equals_a_loop_over_the_steps(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        h = float(rng.choice([0.1, 0.04, 1 / 3, 2 / 27, rng.uniform(0.04, 1.0)]))
        k = int(rng.integers(1, 8))
        dwells = [rng.uniform(0.01, 3.0, k), h * rng.integers(1, 9, k),  # multiples of h
                  rng.uniform(1.0, 50.0, k),
                  # late intervals, where a step's rounding can exceed the snap tolerance
                  np.append(rng.uniform(500.0, 2000.0), h * rng.integers(1, 9, k))
                  ][int(rng.integers(0, 4))]
        seq = sim.DwellSequence.build(
            dwells, rng.integers(0, 3, len(dwells)) if rng.random() < 0.5 else None)
        ends = seq.times[1:]
        _same_schedule(seq, float(rng.choice([ends[-1], ends[int(rng.integers(0, len(ends)))],
                                              ends[-1] * rng.uniform(0.1, 1.0)])), h)
    for _ in range(100):
        # a single partial step from a start below half the horizon, whose end
        # t + (horizon - t) can round off the horizon
        h = float(rng.uniform(0.04, 1.0))
        seq = sim.DwellSequence.build(h * rng.uniform(0.05, 0.95, 2))
        _same_schedule(seq, float(seq.times[-1] * rng.uniform(0.1, 1.0)), h)


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


@pytest.mark.parametrize("error, dt, pinned", [
    (systems.range_observer_error, core.PeriodicRange(0.3, 0.5, q=5, alpha=1, h_c=2.0),
     0.6712709287244109),
    # dwell window [tbar, period_sum]
    (systems.min_observer_error, core.PeriodicMinimum(1.0, q=2, alpha=1, h_c=5.0),
     0.7358964250701311),
])
def test_empirical_gain_under_periodic_constraints_is_pinned(error, dt, pinned):
    assert sim.empirical_gain(error(), dt, n_trials=3, seed=1) == pytest.approx(pinned, rel=1e-9)
