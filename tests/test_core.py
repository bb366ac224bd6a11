import math
import os

import numpy as np
import pytest

import systems
from posimp import cli, core, observer
from systems import uncertain_impulsive, stable_toy

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def test_timer_matrix_eval_and_derivative():
    F = core.TimerMatrixFunction([[[1.0, 0.0], [0.0, 1.0]],
                                  [[0.0, 2.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [3.0, 0.0]]])
    assert F.degree == 2
    np.testing.assert_allclose(F.eval(0.0), np.eye(2))
    np.testing.assert_allclose(F.eval(2.0), [[1.0, 4.0], [12.0, 1.0]])
    dF = F.derivative()
    np.testing.assert_allclose(dF.eval(2.0), [[0.0, 2.0], [12.0, 0.0]])
    assert core.TimerMatrixFunction.constant(np.eye(2)).derivative().eval(1.0).max() == 0.0


def test_timer_matrix_algebra():
    A = core.TimerMatrixFunction([np.eye(2), 2 * np.eye(2)])  # I + 2 tau I
    B = A + np.ones((2, 2))
    np.testing.assert_allclose(B.eval(1.0), 3 * np.eye(2) + 1.0)
    C = A.mul_const([[1.0], [2.0]])
    assert C.shape == (2, 1)
    np.testing.assert_allclose(C.eval(0.5), [[2.0], [4.0]])


def test_timer_matrix_validation():
    with pytest.raises(ValueError):
        core.TimerMatrixFunction([])
    with pytest.raises(ValueError):
        core.TimerMatrixFunction([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        core.TimerMatrixFunction([np.eye(2)] * (core.MAX_DEGREE + 2))
    # trailing zero coefficients are trimmed, so this is fine
    F = core.TimerMatrixFunction([np.eye(1)] + [np.zeros((1, 1))] * 9)
    assert F.degree == 0


def _containers():
    """Every container kind: the fixtures as the CLI loads them, the shared
    test systems, a timer-polynomial flow and the error systems."""
    named = [(f"fixture:{f[:-5]}", cli.load(os.path.join(FIXTURES, f)).system)
             for f in sorted(os.listdir(FIXTURES))]
    named += [(f.__name__, f()) for f in (
        systems.uncertain_impulsive, systems.stable_toy, systems.range_observer_error,
        systems.min_observer_error, systems.range_observer_plant, systems.min_observer_plant,
        systems.switched_toy, systems.power_control)]
    poly = core.TimerMatrixFunction([-np.eye(2), np.zeros((2, 2)), 0.1 * np.eye(2)])
    ramp = core.TimerMatrixFunction([np.zeros((2, 1))] * 3 + [[[0.1], [0.0]]])
    named.append(("timer_polynomial", core.LftPositiveSystem.build(A=poly, Ec=ramp)))
    named.append(("timer_switched", observer.SwitchedPlant.build(
        A=[-np.eye(2), -np.eye(2)], Gc=[np.zeros((2, 2)), poly], Ec=[ramp, np.zeros((2, 1))])))
    named.append(("plant_error", observer.error_system(systems.range_observer_plant())))
    named += [(f"switched_error[{i}]", e)
              for i, e in enumerate(observer.error_system(systems.switched_toy()))]
    return [pytest.param(c, id=name) for name, c in named]


@pytest.mark.parametrize("c", _containers())
def test_containers_follow_their_tables(c):
    table = type(c).TABLE
    modes = c.n_modes if isinstance(c, observer.SwitchedPlant) else None
    for b in table:
        M = getattr(c, b.name)
        per_mode = M if isinstance(M, tuple) else (M,)
        assert len(per_mode) == (modes if isinstance(M, tuple) else 1)
        dims = (getattr(c, b.rows), getattr(c, b.cols))
        assert all(isinstance(d, int) for d in dims)
        for m in per_mode:
            assert core.shape_of(m) == dims, b.name
    if modes:
        for i in range(modes):
            assert c.flow_degree(i) == max(c.A[i].degree, c.Gc[i].degree, c.Ec[i].degree)
    else:
        assert c.flow_degree == max(c.A.degree, c.Gc.degree, c.Ec.degree)
    for attr in ("A", "n", "unknown"):
        with pytest.raises(AttributeError):
            setattr(c, attr, None)
    with pytest.raises(AttributeError):
        del c.A


def test_build_infers_dimensions_and_zero_fills():
    sys = stable_toy()
    assert (sys.n, sys.ncD, sys.pc, sys.qc) == (2, 0, 1, 1)
    assert (sys.ndD, sys.pd, sys.qd) == (0, 1, 1)
    assert sys.Gc.shape == (2, 0)
    assert sys.Hc.shape == (1, 0)
    assert sys.flow_degree == 0


def test_build_rejects_bad_shapes():
    with pytest.raises(ValueError, match="A"):
        core.LftPositiveSystem.build(A=[[1.0, 0.0]])
    with pytest.raises(ValueError, match="Ec"):
        core.LftPositiveSystem.build(A=np.eye(2), Ec=[[1.0], [1.0], [1.0]])
    with pytest.raises(ValueError, match="HcD"):
        core.LftPositiveSystem.build(A=np.eye(2), Gc=[[1.0], [1.0]], HcD=np.eye(2))


def test_channel_width_comes_from_gc_then_ccd_then_hcd():
    with pytest.raises(ValueError, match=r"CcD: expected shape \(1, 2\)"):
        core.LftPositiveSystem.build(A=np.eye(2), Gc=[[1.0], [1.0]], CcD=np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"HcD: expected shape \(1, 1\)"):
        core.LftPositiveSystem.build(A=np.eye(2), CcD=[[1.0, 0.0]], HcD=np.eye(2))
    assert core.LftPositiveSystem.build(A=np.eye(2), HcD=np.zeros((3, 3))).ncD == 3


def test_build_rejects_timer_polynomials_in_constant_blocks():
    poly = core.TimerMatrixFunction([[[0.5]], [[0.1]]])
    with pytest.raises(ValueError, match="J: only A, Gc, Ec may depend on the timer"):
        core.LftPositiveSystem.build(A=[[-1.0]], J=poly)
    assert core.LftPositiveSystem.build(A=poly).flow_degree == 1


def test_is_metzler():
    assert core.is_metzler([[-5.0, 0.0], [1.0, -2.0]])
    assert not core.is_metzler([[-5.0, -0.1], [1.0, -2.0]])
    assert core.is_metzler([[-5.0, -0.1], [1.0, -2.0]], tol=0.2)


def test_positivity_report_on_positive_system():
    rep = core.check_internal_positivity(uncertain_impulsive())
    assert rep.holds and not rep.sampled and rep.violations == ()


def test_positivity_report_names_the_offender():
    sys = core.LftPositiveSystem.build(
        A=[[-1.0, -0.5], [1.0, -3.0]],  # negative off-diagonal
        Ec=[[1.0], [0.0]], Cc=[[0.0, 1.0]],
        J=[[1.0, 0.0], [0.0, -0.2]],    # J may not be negative either
    )
    rep = core.check_internal_positivity(sys)
    assert not rep.holds
    names = {v.matrix for v in rep.violations}
    assert names == {"A", "J"}
    v = next(v for v in rep.violations if v.matrix == "A")
    assert v.index == (0, 1) and v.value == pytest.approx(-0.5)


def test_positivity_sampled_flag_for_timer_dependence():
    A = core.TimerMatrixFunction([[[-1.0, 0.0], [1.0, -3.0]],
                                  [[0.0, 1.0], [0.0, 0.0]]])
    sys = core.LftPositiveSystem.build(A=A, Ec=[[1.0], [0.0]], Cc=[[0.0, 1.0]])
    rep = core.check_internal_positivity(sys, horizon=2.0)
    assert rep.holds and rep.sampled


def test_worst_case_continuous_frozen_values():
    # derived by hand: K = (I - 0.5 I)^-1 = 2I, Gc K CcD = [[0,1],[0,0]]
    A_wc, E_wc, C_wc, F_wc = core.worst_case_continuous(uncertain_impulsive())
    np.testing.assert_allclose(A_wc.eval(0.0), [[-1.0, 1.0], [1.0, -3.0]])
    np.testing.assert_allclose(A_wc.eval(3.7), [[-1.0, 1.0], [1.0, -3.0]])
    np.testing.assert_allclose(E_wc.eval(0.0), [[1.0], [0.0]])
    np.testing.assert_allclose(C_wc, [[0.0, 1.0]])
    np.testing.assert_allclose(F_wc, [[0.0]])


def test_worst_case_discrete_empty_channel_is_identity_map():
    sys = uncertain_impulsive()
    J_wc, Ed_wc, Cd_wc, Fd_wc = core.worst_case_discrete(sys)
    np.testing.assert_allclose(J_wc, sys.J)
    np.testing.assert_allclose(Cd_wc, sys.Cd)


def test_worst_case_zero_feedthrough_reduces_to_direct_sum():
    sys = core.LftPositiveSystem.build(
        A=[[-2.0, 0.0], [0.5, -1.0]],
        Gc=[[0.3, 0.0], [0.0, 0.7]],
        CcD=np.eye(2),  # HcD = 0
        Ec=[[1.0], [0.0]], Cc=[[1.0, 0.0]],
    )
    A_wc, _, _, _ = core.worst_case_continuous(sys)
    np.testing.assert_allclose(A_wc.eval(0.0), sys.A.eval(0.0) + sys.Gc.eval(0.0) @ sys.CcD)


def test_well_posedness_errors():
    bad = core.LftPositiveSystem.build(
        A=[[-1.0]], Gc=[[1.0]], CcD=[[1.0]], HcD=[[1.5]])
    with pytest.raises(core.WellPosednessError, match="negative entries"):
        core.worst_case_continuous(bad)
    singular = core.LftPositiveSystem.build(
        A=[[-1.0]], Gc=[[1.0]], CcD=[[1.0]], HcD=[[1.0]])
    with pytest.raises(core.WellPosednessError, match="singular"):
        core.worst_case_continuous(singular)


def test_dwell_constraint_validation():
    core.Range(0.3, 0.5)
    with pytest.raises(ValueError):
        core.Range(0.5, 0.3)
    with pytest.raises(ValueError):
        core.Range(0.0, 0.5)
    with pytest.raises(ValueError):
        core.Minimum(0.0)
    c = core.PeriodicRange(0.5, 1.5, q=2, alpha=2, h_c=4.0)
    assert c.period_sum == pytest.approx(2.0)
    with pytest.raises(ValueError, match="sum"):
        core.PeriodicRange(0.5, 0.6, q=2, alpha=1, h_c=4.0)
    with pytest.raises(ValueError):
        core.PeriodicMinimum(3.0, q=2, alpha=1, h_c=4.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            core.Minimum(bad)
        with pytest.raises(ValueError, match="must be finite"):
            core.Range(1.0, bad)
        with pytest.raises(ValueError, match="must be finite"):
            core.Range(bad, bad)
        with pytest.raises(ValueError, match="must be finite"):
            core.PeriodicRange(0.5, 1.5, q=2, alpha=1, h_c=bad)
        with pytest.raises(ValueError, match="must be finite"):
            core.PeriodicMinimum(bad, q=2, alpha=1, h_c=4.0)
        with pytest.raises(ValueError, match="must be finite"):
            core.PeriodicMinimum(0.5, q=2, alpha=1, h_c=bad)


def test_scaling_structures():
    s = core.ScalingStructure.constant()
    assert s.continuous == "constant" and s.discrete == "constant"
    g = core.ScalingStructure.grouped([[0, 1]])
    assert g.continuous == ("grouped", ((0, 1),))
    core.validate_partition([[0, 1]], 2)
    with pytest.raises(ValueError):
        core.validate_partition([[0], [0, 1]], 2)
    with pytest.raises(ValueError):
        core.validate_partition([[0]], 2)
