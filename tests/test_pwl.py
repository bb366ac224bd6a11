import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posimp import core, pwl, rows


def test_uniform_nodes():
    n = pwl.uniform_nodes(2.0, 5)
    np.testing.assert_allclose(n, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        pwl.uniform_nodes(2.0, 1)
    with pytest.raises(ValueError):
        pwl.uniform_nodes(-1.0, 5)


def test_eval_interpolates_and_clamps():
    f = pwl.PwlArray([0.0, 1.0, 2.0], [[1.0, 3.0, 2.0]])
    assert f.eval(0.0) == [1.0]
    assert f.eval(0.5) == [2.0]
    assert f.eval(1.5) == [2.5]
    # freeze convention beyond the grid
    assert f.eval(5.0) == [2.0]
    assert f.eval(-1.0) == [1.0]


def test_hat_matrix_partition_of_unity():
    nodes = pwl.uniform_nodes(1.0, 4)
    W = pwl.hat_matrix(nodes, [0.0, 0.1, 1.0 / 3.0, 0.5, 0.99, 1.0])
    np.testing.assert_allclose(W.sum(axis=1), 1.0)
    assert (W >= 0).all()
    # at most two positive weights per row, on adjacent nodes
    for row in W:
        hit = np.flatnonzero(row)
        assert 1 <= hit.size <= 2 and np.ptp(hit) <= 1


def _scalar_hat_row(nodes, tau):
    """The clamped interpolation weights of one tau, branch by branch."""
    out = np.zeros(nodes.size)
    if tau <= nodes[0]:
        out[0] = 1.0
    elif tau >= nodes[-1]:
        out[-1] = 1.0
    else:
        k = min(max(int(np.searchsorted(nodes, tau, side="right")) - 1, 0), nodes.size - 2)
        s = (tau - nodes[k]) / (nodes[k + 1] - nodes[k])
        if s == 0.0:
            out[k] = 1.0
        elif s == 1.0:
            out[k + 1] = 1.0
        else:
            out[k], out[k + 1] = 1.0 - s, s
    return out


@pytest.mark.parametrize("seed", range(5))
def test_hat_matrix_equals_the_scalar_clamp_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        nodes = pwl.uniform_nodes(rng.uniform(0.1, 3.0), n) if rng.random() < 0.5 else \
            np.cumsum(rng.uniform(1e-3, 2.0, n)) - rng.uniform(0.0, 3.0)
        taus = np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:]),
                               np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
                               rng.uniform(nodes[0] - 1.0, nodes[-1] + 1.0, 10),
                               [-np.inf, np.inf, -0.0, 0.0]]).tolist()
        want = np.array([_scalar_hat_row(nodes, t) for t in taus])
        assert pwl.hat_matrix(nodes, taus).tobytes() == want.tobytes()  # signed zeros too


@settings(max_examples=150, deadline=None)
@given(
    vals=st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=9),
    t=st.floats(-1, 12, allow_nan=False),
)
def test_eval_stays_within_the_node_values(vals, t):
    nodes = pwl.uniform_nodes(3.0, len(vals))
    f = pwl.PwlArray(nodes, [vals])
    lo, hi = min(vals), max(vals)
    assert lo - 1e-12 <= f.eval(t)[0] <= hi + 1e-12


def _hat_eval(f, tau):
    """PwlArray.eval through the hat_matrix weights over all nodes."""
    weights = pwl.hat_matrix(f.nodes, [tau])[0]
    out = np.zeros(f.shape)
    for i in np.flatnonzero(weights):
        out += weights[i] * f.values[..., i]
    return out


@pytest.mark.parametrize("seed", range(5))
def test_eval_equals_the_hat_matrix_route_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        nodes = pwl.uniform_nodes(rng.uniform(0.1, 3.0), n) if rng.random() < 0.5 else \
            np.cumsum(rng.uniform(1e-3, 2.0, n)) - rng.uniform(0.0, 3.0)
        f = pwl.PwlArray(nodes, rng.choice([0.0, -0.0, 1.0, -2.5, 1 / 3], (2, 3, n))
                         * rng.normal(size=(2, 3, n)))
        taus = np.concatenate([nodes, rng.uniform(nodes[0], nodes[-1], 10),
                               rng.uniform(nodes[0] - 2.0, nodes[0], 3),
                               rng.uniform(nodes[-1], nodes[-1] + 2.0, 3),
                               [-np.inf, np.inf, -0.0, 0.0]]).tolist()
        for t in taus:
            assert f.eval(t).tobytes() == _hat_eval(f, t).tobytes(), t


def test_vector_and_matrix_wrappers():
    nodes = pwl.uniform_nodes(1.0, 3)
    v = pwl.PwlArray(nodes, [[0.0, 1.0, 2.0], [4.0, 2.0, 0.0]])
    assert v.shape == (2,)
    np.testing.assert_allclose(v.eval(0.5), [1.0, 2.0])

    m = pwl.PwlArray(nodes, np.arange(12, dtype=float).reshape(2, 2, 3))
    assert m.shape == (2, 2)
    np.testing.assert_allclose(m.eval(0.0), [[0.0, 3.0], [6.0, 9.0]])
    np.testing.assert_allclose(m.eval(0.25), 0.5 * (m.eval(0.0) + m.eval(0.5)))


def test_flow_plan_soundness():
    prog = rows.DecayProgram("plan", core.Range(0.5, 1.0), 3, 1e-7, 1e-6)
    plan0 = prog.flow_plan(degree=0)
    assert prog.sound
    assert plan0.tolist() == [[0.0, 0.5], [0.5, 1.0]]
    plan1 = prog.flow_plan(degree=1)
    assert not prog.sound
    assert plan1[0].tolist() == [0.0, 0.25, 0.5]
    prog.flow_plan(degree=0)  # a later sound block leaves the program sampled
    assert not prog.sound
    # the grid of a minimum dwell time ends at tbar
    assert rows.DecayProgram("plan", core.Minimum(2.0), 3, 1e-7, 1e-6).flow_plan(0)[-1, -1] == 2.0


def test_window_points():
    nodes = pwl.uniform_nodes(0.5, 6)  # step 0.1
    w = pwl.window_points(nodes, 0.25, 0.45)
    np.testing.assert_allclose(w, [0.25, 0.3, 0.4, 0.45])
    # degenerate window: single point
    np.testing.assert_allclose(pwl.window_points(nodes, 0.3, 0.3), [0.3])
    with pytest.raises(ValueError):
        pwl.window_points(nodes, 0.4, 0.3)


def test_bad_shapes_raise():
    with pytest.raises(ValueError):
        pwl.PwlArray([0.0, 0.0], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        pwl.PwlArray([0.0, 1.0], [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        pwl.PwlArray([0.0, 1.0], [1.0, 2.0])
