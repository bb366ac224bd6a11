"""Interval-observer gain synthesis: LP construction, gain recovery,
benchmark designs, and row-level agreement with the analysis programs.

Oracles: the analysis certifiers (whose own tests carry monodromy/expm
oracles) evaluated at the synthesized gains; exact variable transplants
checked with lp.verify; spectral-radius obstructions that no admissible
gain can remove.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import systems
from posimp import certify, core, delay, lp, observer, pwl

scipy_linalg = pytest.importorskip("scipy.linalg")

RANGE_DT = core.Range(0.3, 0.5)
MIN_DT = core.Minimum(1.0)


def no_measurement_plant() -> observer.ObservedPlant:
    """Positive, certifiable plant whose outputs carry no information
    (zero measurement maps); synthesis must reduce to plain analysis."""
    return observer.ObservedPlant.build(
        A=[[-3.0, 0.2], [0.1, -2.0]],
        Gc=[[0.3, 0.1], [0.2, 0.2]],
        Ec=[[0.5], [0.2]],
        C_yc=[[0.0, 0.0]], F_yc=[[0.0]],
        J=[[0.4, 0.0], [0.1, 0.3]],
        Gd=[[0.1, 0.0], [0.0, 0.1]],
        Ed=[[0.1], [0.3]],
        C_yd=[[0.0, 0.0]], F_yd=[[0.0]],
        h_c=2.0, h_d=1)


def assert_error_system_positive(plant, gains, horizon):
    """The recovered framer error dynamics must be internally positive:
    A - L_c(tau) C_yc Metzler and all other closed blocks nonnegative,
    at every timer node and at off-node timer samples."""
    def at(M, tau):
        return M.eval(tau) if hasattr(M, "eval") else np.asarray(M)

    taus = np.linspace(0.0, horizon, 41)
    for tau in taus:
        L = gains.L_c_at(tau)
        assert core.is_metzler(at(plant.A, tau) - L @ plant.C_yc, tol=1e-9)
        assert np.min(at(plant.Gc, tau) - L @ plant.H_yc) >= -1e-9
        assert np.min(at(plant.Ec, tau) - L @ plant.F_yc) >= -1e-9
    if gains.L_d is not None:
        Ld = gains.L_d
        assert np.min(plant.J - Ld @ plant.C_yd) >= -1e-9
        assert np.min(plant.Gd - Ld @ plant.H_yd) >= -1e-9
        assert np.min(plant.Ed - Ld @ plant.F_yd) >= -1e-9


# ---------------------------------------------------------------------------
# plant containers


def test_observed_plant_build_validates():
    good = dict(A=[[-1.0, 0.0], [0.5, -2.0]], C_yc=[[1.0, 0.0]], h_c=1.0)
    p = observer.ObservedPlant.build(**good)
    assert p.n == 2 and p.qc == 1 and p.qd == 0 and p.pc == 0
    assert np.array_equal(p.J, np.eye(2))
    assert np.array_equal(p.M_c, np.eye(2))

    with pytest.raises(ValueError, match="h_c"):
        observer.ObservedPlant.build(**{**good, "h_c": 0.0})
    with pytest.raises(ValueError, match="h_d"):
        observer.ObservedPlant.build(**{**good, "h_d": -1})
    with pytest.raises(ValueError, match="C_yc"):
        observer.ObservedPlant.build(**{**good, "C_yc": [[1.0, 0.0, 0.0]]})
    with pytest.raises(ValueError, match="nonnegative"):
        observer.ObservedPlant.build(**{**good, "M_c": [[-1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(ValueError, match="zero"):
        observer.ObservedPlant.build(**{**good, "M_d": np.zeros((2, 2))})


def test_switched_plant_build_validates():
    p = systems.switched_toy()
    assert p.n_modes == 2 and p.n == 2 and p.p == 1 and p.q == 1
    single = observer.SwitchedPlant.build(A=[[[-1.0]]], C_y=[[[1.0]]],
                                          h_c=1.0)
    with pytest.raises(ValueError, match="two modes"):
        observer.synthesize_switched(single, MIN_DT)
    with pytest.raises(ValueError, match=r"A\[1\]"):
        observer.SwitchedPlant.build(
            A=[[[-1.0]], [[-1.0, 0.0], [0.0, -1.0]]],
            C_y=[[[1.0]], [[1.0, 0.0]]], h_c=1.0)


# ---------------------------------------------------------------------------
# gain recovery


def test_recover_gains_divides_nodewise():
    nodes = np.array([0.0, 1.0])
    X = pwl.PwlArray(nodes, np.array([[2.0, 2.0], [4.0, 4.0]]))
    Y_c = pwl.PwlArray(nodes, np.array([[[1.0, 1.0]], [[2.0, 2.0]]]))
    Y_d = np.array([[1.0], [2.0]])
    L_c, L_d = observer.recover_gains(X, Y_c, Y_d)
    assert L_c.values == pytest.approx(
        np.array([[[0.5, 0.5]], [[0.5, 0.5]]]))
    assert L_d == pytest.approx(np.array([[0.5], [0.5]]))

    L_c0, L_d0 = observer.recover_gains(X, pwl.PwlArray(
        nodes, np.zeros((2, 1, 2))), None)
    assert not L_c0.values.any() and L_d0 is None

    bad = pwl.PwlArray(nodes, np.array([[2.0, 1e-9], [4.0, 4.0]]))
    with pytest.raises(RuntimeError, match="floor"):
        observer.recover_gains(bad, Y_c, Y_d)


def test_gains_satisfy_node_identities():
    """X(tau_k) L_c(tau_k) = Y_c(tau_k) exactly at nodes, and L_c_at
    evaluates the rational (not the interpolated) gain between nodes."""
    g = observer.synthesize_range(systems.range_observer_plant(),
                                  RANGE_DT, observer.CONSTANT)
    for k, tau in enumerate(g.X.nodes):
        lhs = g.X.values[:, k][:, None] * g.L_c.values[:, :, k]
        assert lhs == pytest.approx(g.Y_c.values[:, :, k], abs=1e-12)
    tau = 0.5 * (g.X.nodes[0] + g.X.nodes[1])
    expect = g.Y_c.eval(tau) / g.X.eval(tau)[:, None]
    assert g.L_c_at(tau) == pytest.approx(expect, abs=1e-14)


# ---------------------------------------------------------------------------
# range dwell-time benchmark: the design the reference gains came from


def test_range_synthesis_constant_recovers_reference_design():
    plant = systems.range_observer_plant()
    g = observer.synthesize_range(plant, RANGE_DT, observer.CONSTANT)
    assert isinstance(g, observer.ObserverGains)
    assert g.kind == "observer_range" and g.sound and g.restriction is None
    assert g.reverify() == []
    assert g.gamma == pytest.approx(1.952740, rel=1e-4)

    # the optimizer lands exactly on the reference design
    assert g.L_d == pytest.approx(np.array(systems.RANGE_OBSERVER["L_d"]),
                                  abs=1e-9)
    assert np.ptp(g.L_c.values) < 1e-9  # continuous gain is constant
    assert g.L_c_at(0.0) == pytest.approx(
        np.array(systems.RANGE_OBSERVER["L_c"]), abs=1e-7)

    assert g.U is not None and np.all(g.U > 0.0)
    assert g.alpha > 0.0 and g.eps > 0.0
    assert np.min(g.X.values) >= 1e-6 - 1e-15
    assert_error_system_positive(plant, g, RANGE_DT.tmax)


def test_range_synthesis_matches_analysis_at_synthesized_gains():
    """Closing the loop with the synthesized gains and re-certifying must
    reproduce gamma exactly, and the synthesis variables must transplant
    into the analysis program via zeta = X, mu = U."""
    plant = systems.range_observer_plant()
    g = observer.synthesize_range(plant, RANGE_DT, observer.CONSTANT)
    err = observer.error_system(plant, g.L_c_at(0.0), g.L_d)
    cert = delay.certify_delay_range(err, RANGE_DT, delay.CONSTANT)
    assert isinstance(cert, certify.Certificate)
    assert cert.gamma == pytest.approx(g.gamma, rel=1e-9)

    x = np.zeros(cert.program.num_vars)
    for j, nm in enumerate(cert.program.var_names):
        if nm == "gamma":
            x[j] = g.gamma
        elif nm == "eps":
            x[j] = g.eps
        elif nm.startswith("zeta["):
            i = int(nm[5:nm.index("]")])
            k = int(nm[nm.index("@n") + 2:])
            x[j] = g.X.values[i, k]
        else:
            assert nm.startswith("mu_c[")
            x[j] = g.U[int(nm[5:nm.index("]")])]
    assert lp.verify(cert.program, x, 1e-9) == []


def test_range_synthesis_periodic_scalings():
    plant = systems.range_observer_plant()
    g = observer.synthesize_range(plant, RANGE_DT,
                                  observer.UNCONSTRAINED_PERIODIC)
    assert isinstance(g, observer.ObserverGains)
    assert g.kind == "observer_range_periodic"
    assert g.U is None
    assert "periodic" in g.restriction and "h_c" in g.restriction
    assert g.reverify() == []
    # within +/-15% of the 1.7191 reference optimum for this scaling class
    assert 1.7191 * 0.85 <= g.gamma <= 1.7191 * 1.15
    assert g.gamma == pytest.approx(1.748176, rel=1e-4)
    assert_error_system_positive(plant, g, RANGE_DT.tmax)

    # analysis of the constant-scaling design under periodic scalings
    # achieves the same optimum: the synthesized gamma is tight
    g_const = observer.synthesize_range(plant, RANGE_DT, observer.CONSTANT)
    err = observer.error_system(plant, g_const.L_c_at(0.0), g_const.L_d)
    cert = delay.certify_delay_range(err, RANGE_DT,
                                     delay.UNCONSTRAINED_PERIODIC)
    assert cert.gamma == pytest.approx(g.gamma, rel=1e-9)


def test_scaling_classes_order_synthesized_gains():
    plant = systems.range_observer_plant()
    g_c = observer.synthesize_range(plant, RANGE_DT, observer.CONSTANT)
    g_p = observer.synthesize_range(plant, RANGE_DT,
                                    observer.UNCONSTRAINED_PERIODIC)
    assert g_p.gamma <= g_c.gamma + 1e-7

    sw = systems.switched_toy()
    opts = observer.SynthesisOptions(n_nodes=13)
    s_c = observer.synthesize_switched(sw, MIN_DT, observer.CONSTANT, opts)
    s_p = observer.synthesize_switched(sw, MIN_DT,
                                       observer.UNCONSTRAINED_PERIODIC, opts)
    assert s_p[0].gamma <= s_c[0].gamma + 1e-7


# ---------------------------------------------------------------------------
# minimum dwell-time benchmark: infeasibility is genuine


def test_min_synthesis_is_infeasible_for_every_admissible_gain():
    """No output injection can stabilize this plant at dwell time 1: the
    measurement only reaches the second column, so the (0,0) entries of
    the folded flow and jump matrices are fixed at -0.5 and 2.1, and
    internal positivity keeps the rest nonnegative, forcing the folded
    monodromy spectral radius >= 2.1 * exp(-0.5) > 1."""
    plant = systems.min_observer_plant()
    d = systems.MIN_OBSERVER

    rng = np.random.default_rng(7)
    for _ in range(32):
        L_c = rng.uniform(0.0, 4.0, size=(2, 1))
        L_d = rng.uniform(0.0, 2.0, size=(2, 1))
        Af = (d["A"] - L_c @ np.asarray(d["C_yc"])
              + d["Gc"] - L_c @ np.asarray(d["H_yc"]))
        Jf = (d["J"] - L_d @ np.asarray(d["C_yd"])
              + d["Gd"] - L_d @ np.asarray(d["H_yd"]))
        assert Af[0][0] == pytest.approx(-0.5)
        assert Jf[0][0] == pytest.approx(2.1)
    assert 2.1 * np.exp(-0.5) > 1.0

    for scalings in (observer.CONSTANT, observer.UNCONSTRAINED_PERIODIC):
        res = observer.synthesize_min(plant, MIN_DT, scalings)
        assert isinstance(res, observer.Infeasible)
        assert res.rows and all(w > 0 for _, w in res.rows)

    # the reference design from the same source is itself unstable there
    err = systems.min_observer_error()
    Jf = err.J + err.Gd
    Af = err.A.eval(0.0) + err.Gc.eval(0.0)
    rho = float(max(abs(np.linalg.eigvals(Jf @ scipy_linalg.expm(Af)))))
    assert rho == pytest.approx(1.323168, rel=1e-5)


def test_min_synthesis_succeeds_at_longer_dwell():
    plant = systems.min_observer_plant()
    g = observer.synthesize_min(plant, core.Minimum(5.0),
                                observer.UNCONSTRAINED_PERIODIC)
    assert isinstance(g, observer.ObserverGains)
    assert g.kind == "observer_minimum_periodic"
    assert g.reverify() == []
    assert g.gamma == pytest.approx(0.920832, rel=1e-3)
    assert_error_system_positive(plant, g, 5.0)
    # strictly better than analysis of the reference gains (0.949715)
    assert g.gamma <= 0.949715 + 1e-6


# ---------------------------------------------------------------------------
# switched plants


def test_switched_synthesis_reference_values():
    plant = systems.switched_toy()
    opts = observer.SynthesisOptions(n_nodes=13)

    gains = observer.synthesize_switched(plant, MIN_DT, observer.CONSTANT,
                                         opts)
    assert isinstance(gains, list) and len(gains) == 2
    g0, g1 = gains
    assert g0.kind == "observer_switched" and g0.mode == 0 and g1.mode == 1
    assert g0.gamma == g1.gamma == pytest.approx(1.333336, rel=1e-4)
    assert 1.3338 * 0.85 <= g0.gamma <= 1.3338 * 1.15
    assert g0.program is g1.program  # one LP decides all modes
    assert np.array_equal(g0.U, g1.U)  # timer-independent scalings shared
    assert g0.L_d is None and g1.L_d is None
    assert g0.reverify() == [] and g1.reverify() == []
    # mode-1 gain matches the reference design at the timer endpoints
    ref = np.array(systems.SWITCHED_TOY["L_1"])
    assert g0.L_c_at(0.0) == pytest.approx(ref, abs=1e-6)
    assert g0.L_c_at(1.0) == pytest.approx(ref, abs=1e-6)
    for mode, g in enumerate(gains):
        assert_error_system_positive(_mode_view(plant, mode), g, 1.0)

    per = observer.synthesize_switched(plant, MIN_DT,
                                       observer.UNCONSTRAINED_PERIODIC, opts)
    assert per[0].gamma == pytest.approx(0.800001, rel=1e-4)
    assert 0.8002 * 0.85 <= per[0].gamma <= 0.8002 * 1.15
    assert per[0].U is None and per[1].U is None
    assert per[0].kind == "observer_switched_periodic"
    assert "mode" in per[0].restriction and "h_c" in per[0].restriction


def _mode_view(plant, mode):
    """Adapter giving one switched mode the field names the positivity
    checker expects (the state is continuous across switches, so there is
    no discrete part to check)."""
    class View:
        A = plant.A[mode]
        Gc = plant.Gc[mode]
        Ec = plant.Ec[mode]
        C_yc = plant.C_y[mode]
        H_yc = plant.H_y[mode]
        F_yc = plant.F_y[mode]
    return View()


def test_switched_coupling_rows_connect_all_mode_pairs():
    plant = systems.switched_toy()
    syn = observer.switched_synthesis(plant, MIN_DT, observer.CONSTANT,
                                      observer.SynthesisOptions(n_nodes=5))
    text = lp.dump(syn.p)
    for s in range(plant.n):
        assert f"couple:m0.m1:x[{s}]" in text
        assert f"couple:m1.m0:x[{s}]" in text
    assert "m0:flow:x[0]" in text and "m1:flow:x[0]" in text


def test_power_control_design_needs_the_gain_box():
    plant = systems.power_control()
    dt = systems.POWER_CONTROL["dwell"]
    opts = observer.SynthesisOptions(n_nodes=9)

    gains = observer.synthesize_switched(
        plant, dt, observer.CONSTANT, opts,
        gain_box=systems.POWER_CONTROL["gain_box"])
    assert isinstance(gains, list)
    g = gains[0]
    assert g.gamma == pytest.approx(3.071857, rel=1e-4)
    assert 3.074 * 0.85 <= g.gamma <= 3.074 * 1.15
    ref = np.array(systems.POWER_CONTROL["L"])
    for gm in gains:
        assert gm.reverify() == []
        assert gm.L_c_at(0.0) == pytest.approx(ref, abs=1e-4)
        assert gm.L_c_at(dt.tbar) == pytest.approx(ref, abs=1e-4)
        # the box binds: the measured entry sits on the bound
        assert np.max(gm.L_c.values) == pytest.approx(10.0, abs=1e-4)
        assert_error_system_positive(_mode_view(plant, gm.mode), gm, dt.tbar)

    # without the box the LP exploits unboundedly large injections and
    # reports a smaller gain -- the box is a genuine design constraint
    free = observer.synthesize_switched(plant, dt, observer.CONSTANT, opts)
    assert free[0].gamma <= g.gamma + 1e-9
    assert np.max(np.abs(free[0].L_c.values)) > 1e3


# ---------------------------------------------------------------------------
# gain boxes


def test_gain_entry_box_edges():
    plant = systems.range_observer_plant()
    syn = observer.range_synthesis(plant, RANGE_DT, observer.CONSTANT)
    with pytest.raises(ValueError, match="box"):
        observer.gain_entry_box(syn, 2.0, 1.0)

    # an unbounded box adds nothing to the program
    plain = lp.dump(observer.range_synthesis(plant, RANGE_DT,
                                             observer.CONSTANT).p)
    boxed = lp.dump(observer.gain_entry_box(
        observer.range_synthesis(plant, RANGE_DT, observer.CONSTANT),
        -np.inf, np.inf).p)
    assert plain == boxed


def test_zero_gain_box_reduces_synthesis_to_analysis():
    """Forcing L = 0 must reproduce the open-loop analysis gamma."""
    plant = systems.range_observer_plant()
    g = observer.synthesize_range(plant, RANGE_DT, observer.CONSTANT,
                                  gain_box=(0.0, 0.0))
    assert isinstance(g, observer.ObserverGains)
    assert not g.L_c.values.any() and not g.L_d.any()
    cert = delay.certify_delay_range(observer.error_system(plant),
                                     RANGE_DT, delay.CONSTANT)
    assert g.gamma == pytest.approx(cert.gamma, rel=1e-9)
    assert g.gamma == pytest.approx(4.544568, rel=1e-4)


def test_no_measurement_plant_reduces_to_analysis():
    plant = no_measurement_plant()
    dt = core.Range(0.5, 1.5)
    g = observer.synthesize_range(plant, dt, observer.CONSTANT)
    assert isinstance(g, observer.ObserverGains)
    cert = delay.certify_delay_range(observer.error_system(plant), dt,
                                     delay.CONSTANT)
    assert g.gamma == pytest.approx(cert.gamma, rel=1e-9)


# ---------------------------------------------------------------------------
# argument validation


def test_synthesis_arguments_are_validated():
    plant = systems.range_observer_plant()
    with pytest.raises(ValueError, match="CONSTANT or UNCONSTRAINED_PERIODIC"):
        observer.synthesize_range(plant, RANGE_DT, "grouped")
    with pytest.raises(TypeError, match="Range"):
        observer.synthesize_range(plant, core.Minimum(1.0))
    with pytest.raises(TypeError, match="Minimum"):
        observer.synthesize_min(plant, RANGE_DT)
    with pytest.raises(TypeError, match="Minimum"):
        observer.synthesize_switched(systems.switched_toy(), RANGE_DT)
    with pytest.raises(ValueError, match="grid nodes"):
        observer.SynthesisOptions(n_nodes=1)
    with pytest.raises(ValueError, match="margin"):
        observer.SynthesisOptions(margin=0.0)


def test_periodic_constraints_check_delay_compatibility():
    plant = systems.range_observer_plant()  # h_c = 2
    ok = core.PeriodicRange(0.3, 0.5, q=5, alpha=1, h_c=2.0)
    g = observer.synthesize_range(plant, ok, observer.UNCONSTRAINED_PERIODIC)
    assert isinstance(g, observer.ObserverGains)
    bad = core.PeriodicRange(0.3, 0.5, q=5, alpha=1, h_c=2.4)
    with pytest.raises(ValueError, match="h_c"):
        observer.synthesize_range(plant, bad, observer.UNCONSTRAINED_PERIODIC)


# ---------------------------------------------------------------------------
# property: every feasible synthesis yields a verifiable, positive design


@st.composite
def random_measured_plants(draw):
    off = st.floats(0.0, 0.5)
    diag = st.floats(-4.0, -0.5)
    a01, a10 = draw(off), draw(off)
    d0, d1 = draw(diag), draw(diag)
    c = draw(st.floats(0.0, 1.0))
    jd = draw(st.floats(0.1, 0.9))
    return observer.ObservedPlant.build(
        A=[[d0, a01], [a10, d1]],
        Gc=[[0.1, 0.0], [0.0, 0.1]],
        Ec=[[0.2], [0.1]],
        C_yc=[[c, 1.0]], F_yc=[[0.05]],
        J=[[jd, 0.0], [0.0, jd]],
        C_yd=[[0.0, 1.0]], F_yd=[[0.05]],
        h_c=1.0, h_d=1)


@settings(max_examples=12, deadline=None)
@given(random_measured_plants())
def test_feasible_synthesis_always_verifies_and_stays_positive(plant):
    opts = observer.SynthesisOptions(n_nodes=5)
    res = observer.synthesize_range(plant, core.Range(0.4, 0.8),
                                    observer.CONSTANT, opts)
    if isinstance(res, observer.Infeasible):
        assert res.rows and all(w > 0 for _, w in res.rows)
        return
    assert res.gamma > 0.0
    assert res.reverify() == []
    assert np.min(res.X.values) >= 1e-6 - 1e-15
    assert_error_system_positive(plant, res, 0.8)
