"""Certificate builders: oracles, invariants, and regression values.

Independent oracles used here:
- resolvent formula for the jump-free L1 gain of a positive LTI system,
- monodromy spectral radius rho(J e^{A T}) for the exact periodic-dwell
  stability boundary (necessity side of the certificates),
- homogeneity of the certificate LP under input/output channel scaling.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posimp import certify, core, lp, pwl
from posimp.certify import Certificate, CertifyOptions, Infeasible
from systems import stable_toy, uncertain_impulsive

scipy_linalg = pytest.importorskip("scipy.linalg")


def no_jump():
    return core.LftPositiveSystem.build(
        A=[[-1.0, 0.5], [0.2, -2.0]],
        Ec=[[1.0], [0.5]],
        Cc=[[1.0, 1.0]],
    )


def symmetric_channels():
    """Two uncertainty channels that the swap 1<->2 maps onto each other,
    so tying them (grouped) loses nothing over leaving them free."""
    return core.LftPositiveSystem.build(
        A=[[-1.0, 0.2], [0.3, -2.0]],
        Gc=[[0.4, 0.4], [0.3, 0.3]],
        CcD=[[0.5, 0.2], [0.5, 0.2]],
        HcD=[[0.1, 0.1], [0.1, 0.1]],
        Ec=[[1.0], [0.2]],
        Cc=[[0.3, 0.6]],
        J=[[0.6, 0.0], [0.0, 0.7]],
        Ed=[[0.1], [0.1]],
        Cd=[[0.2, 0.2]],
    )


# ---------------------------------------------------------------------------
# oracle: jump-free gain equals the resolvent column sum

def test_no_jump_gain_matches_resolvent_oracle():
    # with J = I and no discrete outputs the hybrid gain reduces to the
    # plain L1 gain 1^T Cc (-A)^{-1} Ec of the positive LTI flow
    sysd = no_jump()
    A = np.array([[-1.0, 0.5], [0.2, -2.0]])
    oracle = float(np.ones(2) @ np.linalg.solve(-A, np.array([1.0, 0.5])))
    for tbar in (0.1, 1.0, 5.0):
        out = certify.certify_min(sysd, core.Minimum(tbar))
        assert isinstance(out, Certificate)
        assert out.gamma == pytest.approx(oracle, rel=5e-5)
    out = certify.certify_range(sysd, core.Range(0.2, 0.9))
    assert isinstance(out, Certificate)
    assert out.gamma == pytest.approx(oracle, rel=5e-5)


# ---------------------------------------------------------------------------
# oracle: monodromy boundary for the uncertain impulsive fixture

def test_min_free_boundary_brackets_monodromy_oracle():
    sysd = uncertain_impulsive()
    A_wc, _, _, _ = core.worst_case_continuous(sysd)
    J_wc, _, _, _ = core.worst_case_discrete(sysd)
    Awc = A_wc.eval(0.0)
    assert np.allclose(Awc, [[-1.0, 1.0], [1.0, -3.0]])

    # exact boundary of the worst-case periodic loop: rho(2 e^{Awc T}) = 1
    t_exact = np.log(2.0) / (2.0 - np.sqrt(2.0))
    rho = np.abs(np.linalg.eigvals(J_wc @ scipy_linalg.expm(Awc * t_exact))).max()
    assert rho == pytest.approx(1.0, abs=1e-12)

    lo, hi = 1.0, 1.5  # infeasible / feasible (checked below)
    assert isinstance(certify.certify_min_free(sysd, core.Minimum(lo)), Infeasible)
    assert isinstance(certify.certify_min_free(sysd, core.Minimum(hi)), Certificate)
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        try:
            out = certify.certify_min_free(sysd, core.Minimum(mid))
        except lp.SolverError:
            break  # probe landed on the knife edge; bracket is already tight
        if isinstance(out, Certificate):
            hi = mid
        else:
            lo = mid
    # sufficiency: every certified dwell time lies above the exact boundary;
    # tightness: the grid relaxation gives it away by under two percent
    assert lo >= t_exact - 1e-9
    assert 1.19 < hi < 1.21


def test_min_free_feasible_certificate_contents():
    sysd = uncertain_impulsive()
    out = certify.certify_min_free(sysd, core.Minimum(2.0))
    assert isinstance(out, Certificate)
    assert out.kind == "minimum_free"
    assert out.constraint == core.Minimum(2.0)
    assert out.sound  # all blocks are timer-constant
    assert out.restriction is None
    assert out.gamma == pytest.approx(2.845664, rel=1e-4)
    assert out.eps >= 1e-6
    assert np.all(out.zeta.eval(0.0) > 0)
    assert np.all(out.zeta.eval(2.0) > 0)
    assert out.reverify() == []
    # the fixture has no discrete uncertainty channel
    assert out.mu_d is None
    # eliminated continuous scalings are attached for cross-checking
    assert out.mu_c is not None

    also = certify.certify_min_free(sysd, core.Minimum(1.9))
    assert isinstance(also, Certificate)
    assert also.reverify() == []


def test_eliminated_scalings_equal_a_loop_over_eval():
    """The attached mu_c, bit for bit, as one zeta.eval per node gives it."""
    rng = np.random.default_rng(3)
    sysd = core.LftPositiveSystem.build(
        A=-np.eye(5), Gc=rng.uniform(0.0, 1.0, (5, 3)), CcD=rng.uniform(0.0, 1.0, (3, 5)),
        HcD=0.1 * np.eye(3), Cc=np.ones((1, 5)), Hc=[[0.2, 0.0, 0.1]])
    cert = certify.certify_range_free(uncertain_impulsive(), core.Range(1.5, 2.0),
                                      CertifyOptions(n_nodes=11))
    zeta = pwl.PwlArray(cert.zeta.nodes, rng.normal(size=(5, 11)))
    got = certify._attach_eliminated(dataclasses.replace(cert, zeta=zeta), sysd).mu_c.values
    K = np.linalg.solve(np.eye(3) - sysd.HcD, np.eye(3))
    want = np.stack([(zeta.eval(t) @ sysd.Gc.eval(t) + sysd.Hc.sum(axis=0)) @ K
                     for t in zeta.nodes], axis=1)
    assert got.tobytes() == want.tobytes()


def test_min_free_infeasible_reports_named_conditions():
    out = certify.certify_min_free(uncertain_impulsive(), core.Minimum(1.0))
    assert isinstance(out, Infeasible)
    assert out.rows
    for name, weight in out.rows:
        assert name.partition(":")[0] in ("flow", "stat", "jump")
        assert weight > 0
    msg = str(out)
    assert "no minimum_free certificate" in msg
    assert "conflicting conditions" in msg


# ---------------------------------------------------------------------------
# elimination equivalence (free <-> unconstrained scalings)

def test_elimination_equivalence_minimum():
    sysd = uncertain_impulsive()
    dt = core.Minimum(2.0)
    g_unc = certify.certify_min(sysd, dt).gamma
    free = certify.certify_min_free(sysd, dt)
    assert abs(g_unc - free.gamma) <= 1e-3 * free.gamma

    # attached scalings follow mu^T = (zeta^T Gc + 1^T Hc)(I - HcD)^{-1},
    # which for this fixture is (0, 2 zeta_0)
    vals = free.mu_c.values
    assert np.allclose(vals[0], 0.0, atol=1e-12)
    assert np.allclose(vals[1], 2.0 * free.zeta.values[0], rtol=1e-10)


def test_elimination_equivalence_range():
    sysd = uncertain_impulsive()
    dt = core.Range(1.9, 2.5)
    g_unc = certify.certify_range(sysd, dt).gamma
    g_free = certify.certify_range_free(sysd, dt).gamma
    assert abs(g_unc - g_free) <= 1e-3 * g_free


def test_eliminated_scalings_satisfy_constrained_rows():
    # plugging the free certificate plus its attached scalings into the
    # unconstrained-scalings program must satisfy every row (up to the
    # strict-positivity floor on mu, which we clip)
    sysd = uncertain_impulsive()
    dt = core.Minimum(2.0)
    free = certify.certify_min_free(sysd, dt)
    con = certify.certify_min(sysd, dt)
    prog = con.program
    col = {nm: j for j, nm in enumerate(prog.var_names)}
    x = np.zeros(prog.num_vars)
    x[col["gamma"]] = free.gamma
    x[col["eps"]] = free.eps
    n, N = free.zeta.values.shape
    for i in range(n):
        for k in range(N):
            x[col[f"zeta[{i}]@n{k}"]] = free.zeta.values[i, k]
    for r in range(free.mu_c.values.shape[0]):
        for k in range(N):
            x[col[f"mu_c[{r}]@n{k}"]] = max(free.mu_c.values[r, k], 1e-7)
    assert lp.verify(prog, x, feastol=1e-4) == []


def test_channels_absent_free_equals_constrained_program():
    toy = stable_toy()
    a = certify.certify_min(toy, core.Minimum(1.0))
    b = certify.certify_min_free(toy, core.Minimum(1.0))
    rows_a = lp.dump(a.program).splitlines()[1:]  # drop the name header
    rows_b = lp.dump(b.program).splitlines()[1:]
    assert rows_a == rows_b
    assert abs(a.gamma - b.gamma) <= 1e-9


# ---------------------------------------------------------------------------
# scaling-structure ordering

def test_scaling_class_chain_on_symmetric_fixture():
    sysd = symmetric_channels()
    assert core.check_internal_positivity(sysd).holds
    dt = core.Minimum(1.0)
    g_unc = certify.certify_min(sysd, dt).gamma
    g_grp = certify.certify_min(
        sysd, dt, scalings=core.ScalingStructure.grouped([[0, 1]])).gamma
    g_con = certify.certify_min(
        sysd, dt, scalings=core.ScalingStructure.constant()).gamma
    g_free = certify.certify_min_free(sysd, dt).gamma
    tol = 1e-7  # 10 * feastol
    assert g_con >= g_grp - tol
    assert g_grp >= g_unc - tol
    assert g_free <= g_unc + tol
    # channel symmetry makes tying the entries free of charge
    assert g_grp == pytest.approx(g_unc, rel=1e-5)
    # while giving up timer dependence costs something here
    assert g_con > g_grp + 1e-5


def test_scaling_variable_structure_is_respected():
    sysd = symmetric_channels()
    dt = core.Minimum(1.0)
    grp = certify.certify_min(sysd, dt, scalings=core.ScalingStructure.grouped([[0, 1]]))
    assert np.allclose(grp.mu_c.values[0], grp.mu_c.values[1])
    con = certify.certify_min(sysd, dt, scalings=core.ScalingStructure.constant())
    assert np.allclose(con.mu_c.values, con.mu_c.values[:, :1])
    assert np.all(con.mu_c.values >= 1e-7 - 1e-15)


# ---------------------------------------------------------------------------
# monotonicity invariants

def test_dwell_time_monotonicity_of_gamma():
    sysd = uncertain_impulsive()
    gammas = [certify.certify_min_free(sysd, core.Minimum(t)).gamma
              for t in (1.5, 1.75, 2.0, 2.5, 3.0)]
    for g1, g2 in zip(gammas, gammas[1:]):
        assert g2 <= g1 + 1e-7
    assert gammas[-1] < 0.5 * gammas[0]  # the sweep actually decreases


def test_grid_refinement_monotonicity():
    toy = stable_toy()
    g = [certify.certify_min(toy, core.Minimum(1.0),
                             options=CertifyOptions(n_nodes=N)).gamma
         for N in (11, 21, 41)]
    assert g[1] <= g[0] + 1e-7
    assert g[2] <= g[1] + 1e-7

    sysd = uncertain_impulsive()
    g = [certify.certify_min_free(sysd, core.Minimum(1.5),
                                  options=CertifyOptions(n_nodes=N)).gamma
         for N in (11, 21, 41)]
    assert g[1] <= g[0] + 1e-7
    assert g[2] <= g[1] + 1e-7


# ---------------------------------------------------------------------------
# stability-only corner cases with spectral oracles

def test_contractive_jumps_certify_with_margin_gamma():
    A = np.array([[-2.0, 0.1], [0.1, -1.0]])
    sysd = core.LftPositiveSystem.build(A=A.tolist(), J=(1.2 * np.eye(2)).tolist())
    # oracle: the periodic monodromy is a strict contraction on the window
    rho = max(np.abs(np.linalg.eigvals(1.2 * scipy_linalg.expm(A * t))).max()
              for t in np.linspace(0.3, 0.5, 21))
    assert rho < 0.95
    out = certify.certify_range(sysd, core.Range(0.3, 0.5))
    assert isinstance(out, Certificate)
    assert out.gamma <= 1e-5  # no performance channels: gamma sits at its floor
    assert out.reverify() == []


def test_doubling_jumps_are_infeasible():
    sysd = core.LftPositiveSystem.build(
        A=np.zeros((2, 2)).tolist(), J=(2.0 * np.eye(2)).tolist())
    assert isinstance(certify.certify_range(sysd, core.Range(0.3, 0.5)), Infeasible)
    assert isinstance(certify.certify_min(sysd, core.Minimum(1.0)), Infeasible)


def test_timer_dependent_flow_is_flagged_sampled():
    sysd = core.LftPositiveSystem.build(
        A=core.TimerMatrixFunction(([[-1.0, 0.5], [0.2, -2.0]],
                                    [[-0.1, 0.0], [0.0, -0.1]])),
        Ec=[[1.0], [0.5]], Cc=[[1.0, 1.0]],
        J=[[0.5, 0.0], [0.1, 0.4]], Ed=[[0.2], [0.2]], Cd=[[1.0, 0.0]])
    out = certify.certify_min(sysd, core.Minimum(1.0))
    assert isinstance(out, Certificate)
    assert not out.sound  # midpoint-sampled rows, not a proof
    assert out.reverify() == []
    assert np.isfinite(out.gamma)


# ---------------------------------------------------------------------------
# construction details

def test_range_jump_rows_cover_the_dwell_window():
    toy = stable_toy()
    dt = core.Range(0.55, 0.85)
    out = certify.certify_range(toy, dt)
    assert isinstance(out, Certificate)
    nodes = pwl.uniform_nodes(0.85, 21)
    thetas = pwl.window_points(nodes, 0.55, 0.85)
    text = lp.dump(out.program)
    got = [ln for ln in text.splitlines() if ln.startswith("jump:x[0]@")]
    assert len(got) == len(thetas)
    assert any(ln.startswith("jump:x[0]@0.55") for ln in got)
    assert any(ln.startswith("jump:x[0]@0.85") for ln in got)


def test_determinism_of_build_and_solve():
    toy = stable_toy()
    a = certify.certify_min(toy, core.Minimum(1.0))
    b = certify.certify_min(toy, core.Minimum(1.0))
    assert lp.dump(a.program) == lp.dump(b.program)
    assert a.gamma == b.gamma
    assert np.array_equal(a.assignment, b.assignment)


def test_options_validation():
    with pytest.raises(ValueError):
        CertifyOptions(n_nodes=1)
    with pytest.raises(ValueError):
        CertifyOptions(margin=0.0)
    with pytest.raises(ValueError):
        CertifyOptions(eps_min=-1.0)


@pytest.mark.parametrize("call, family, periodic", [
    (certify.certify_range, "Range", core.PeriodicRange(1.5, 2.0, q=2, alpha=1, h_c=3.5)),
    (certify.certify_range_free, "Range", core.PeriodicRange(1.5, 2.0, q=2, alpha=1, h_c=3.5)),
    (certify.certify_min, "Minimum", core.PeriodicMinimum(2.0, q=1, alpha=1, h_c=2.0)),
    (certify.certify_min_free, "Minimum", core.PeriodicMinimum(2.0, q=1, alpha=1, h_c=2.0)),
])
def test_constraint_family_is_checked(call, family, periodic):
    """A wrong family is a TypeError; the periodic subfamily certifies as
    its base family and the result records the constraint given."""
    sys = uncertain_impulsive()
    wrong = core.Minimum(2.0) if family == "Range" else core.Range(1.5, 2.0)
    with pytest.raises(TypeError, match=f"expected a {family} or Periodic{family}"):
        call(sys, wrong)
    res = call(sys, periodic)
    assert isinstance(res, Certificate) and res.constraint is periodic
    base = core.Range(1.5, 2.0) if family == "Range" else core.Minimum(2.0)
    assert res.gamma == call(sys, base).gamma


# ---------------------------------------------------------------------------
# homogeneity properties of the optimum

def _toy_scaled(c_in: float, c_out: float):
    return core.LftPositiveSystem.build(
        A=[[-1.0, 0.5], [0.2, -2.0]],
        Ec=[[c_in], [0.5 * c_in]], Cc=[[c_out, c_out]],
        J=[[0.5, 0.0], [0.1, 0.4]],
        Ed=[[0.2 * c_in], [0.2 * c_in]], Cd=[[c_out, 0.0]])


@settings(max_examples=12, deadline=None)
@given(c=st.floats(min_value=1.0, max_value=4.0))
def test_gamma_scales_exactly_with_input_channels(c):
    base = certify.certify_min(_toy_scaled(1.0, 1.0), core.Minimum(1.0)).gamma
    scaled = certify.certify_min(_toy_scaled(c, 1.0), core.Minimum(1.0)).gamma
    assert scaled == pytest.approx(c * base, rel=1e-6)


@settings(max_examples=12, deadline=None)
@given(c=st.floats(min_value=1.0, max_value=4.0))
def test_gamma_scales_with_output_channels(c):
    # near-exact: the strict-positivity floors on eps and the scalings do
    # not scale along, so allow a little slack
    base = certify.certify_min(_toy_scaled(1.0, 1.0), core.Minimum(1.0)).gamma
    scaled = certify.certify_min(_toy_scaled(1.0, c), core.Minimum(1.0)).gamma
    assert scaled == pytest.approx(c * base, rel=1e-4)
