"""The closed observation-error system as the one closed-loop builder, and
the interval-observer run as a plain run of the lifted 3n-state system.

Oracles: the gain forms that must give the same system (a bare L_c is the
pair (L_c, 0); an exact gain is M(tau) - L_c_at(tau) S at every timer
value), and the validation errors a malformed switched run must raise
before it integrates.
"""

import numpy as np
import pytest

import systems
from posimp import core, delay, observer, sim

RANGE_DT = core.Range(0.3, 0.5)
FLOW = (("A", "C_yc"), ("Gc", "H_yc"), ("Ec", "F_yc"))
BLOCKS = ("Cc", "Hc", "Fc", "J", "Gd", "Ed", "Cd", "Hd", "Fd")


def _min_observer_run(gains, horizon=6.0):
    plant = systems.min_observer_plant()
    seq = sim.gen_sequence(core.Minimum(1.0), horizon, 2024)
    phi0 = lambda s: np.array([1.0, 2.0])
    return sim.simulate_with_observer(
        plant, gains, seq,
        w_c=lambda t: np.array([4.0 * np.sin(t)]),
        w_d=lambda k: np.array([0.5 * (-1.0) ** k]),
        phi0=phi0, phi0_minus=lambda s: phi0(s) - 0.5,
        phi0_plus=lambda s: phi0(s) + 0.5, horizon=horizon,
        w_c_bounds=(lambda t: np.array([-4.0]), lambda t: np.array([4.0])),
        w_d_bounds=(lambda k: np.array([-1.0]), lambda k: np.array([1.0])))


def test_bare_gain_is_the_pair_with_zero_jump_gain():
    plant = systems.min_observer_plant()
    L_c = np.array(systems.MIN_OBSERVER["L_c"])
    zero = np.zeros((plant.n, plant.qd))

    bare = observer.error_system(plant, L_c)
    pair = observer.error_system(plant, L_c, zero)
    for name, _ in FLOW:
        assert getattr(bare, name).coeffs[0].tolist() == getattr(pair, name).coeffs[0].tolist()
    for name in BLOCKS:
        assert np.array_equal(getattr(bare, name), getattr(pair, name))

    tr, ref = _min_observer_run(L_c), _min_observer_run((L_c, zero))
    for a, b in ((tr.x, ref.x), (tr.xminus, ref.xminus), (tr.xplus, ref.xplus)):
        assert np.array_equal(a, b)
    assert sim.check_enclosure(tr).holds


def test_exact_gain_error_system_follows_the_timer():
    plant = systems.range_observer_plant()
    g = observer.synthesize_range(plant, RANGE_DT, observer.CONSTANT)
    err = observer.error_system(plant, g)
    assert err.flow_degree == np.inf
    for tau in (0.0, 0.13, 0.37, 0.5, 0.9):
        L = g.L_c_at(tau)
        for name, meas in FLOW:
            expect = getattr(plant, name).eval(tau) - L @ getattr(plant, meas)
            assert np.array_equal(getattr(err, name).eval(tau), expect)
    assert np.array_equal(err.J, plant.J - g.L_d @ plant.C_yd)
    # an explicit jump gain wins over the one the gains carry
    assert np.array_equal(observer.error_system(plant, g, np.zeros((2, 1))).J, plant.J)


def test_delay_certificates_reject_an_exact_gain_error_system():
    plant = systems.range_observer_plant()
    g = observer.synthesize_range(plant, RANGE_DT, observer.CONSTANT)
    err = observer.error_system(plant, g)
    with pytest.raises(TypeError, match="exact observer gain"):
        delay.certify_delay_range(err, RANGE_DT)
    with pytest.raises(TypeError, match="exact observer gain"):
        delay.certify_delay_min(err, core.Minimum(0.3), delay.UNCONSTRAINED_PERIODIC)


def _switched_run(gains, seq):
    """Observer run on switched_toy; returns the times w_c was read at."""
    plant = systems.switched_toy()
    reads = []

    def w_c(t):
        reads.append(t)
        return np.array([0.5])

    with pytest.raises(ValueError) as err:
        sim.simulate_with_observer(
            plant, gains, seq, w_c=w_c,
            phi0=lambda s: np.ones(2), phi0_minus=lambda s: np.zeros(2),
            phi0_plus=lambda s: 2.0 * np.ones(2), horizon=2.0,
            w_c_bounds=(lambda t: np.array([-1.0]), lambda t: np.array([1.0])))
    assert all(t == 0.0 for t in reads)  # raised before integrating
    return str(err.value)


def test_switched_run_with_too_few_gain_sets_is_rejected():
    L = np.array(systems.SWITCHED_TOY["L_1"])
    seq = sim.DwellSequence.build([1.0, 1.0], modes=[0, 1])
    assert _switched_run([L], seq) == "got 1 gain sets for 2 modes"


def test_switched_run_with_an_unknown_mode_is_rejected():
    L = np.array(systems.SWITCHED_TOY["L_1"])
    seq = sim.DwellSequence.build([1.0, 1.0], modes=[0, 5])
    assert _switched_run([L, L], seq) == "seq uses mode 5 but only 2 systems were given"
