import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posimp import pwl


def test_uniform_nodes():
    n = pwl.uniform_nodes(2.0, 5)
    np.testing.assert_allclose(n, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        pwl.uniform_nodes(2.0, 1)
    with pytest.raises(ValueError):
        pwl.uniform_nodes(-1.0, 5)


def test_eval_interpolates_and_clamps():
    f = pwl.PwlVector([0.0, 1.0, 2.0], [[1.0, 3.0, 2.0]])
    assert f.eval(0.0) == [1.0]
    assert f.eval(0.5) == [2.0]
    assert f.eval(1.5) == [2.5]
    # freeze convention beyond the grid
    assert f.eval(5.0) == [2.0]
    assert f.eval(-1.0) == [1.0]


def test_hat_weights_partition_of_unity():
    nodes = pwl.uniform_nodes(1.0, 4)
    for tau in [0.0, 0.1, 1.0 / 3.0, 0.5, 0.99, 1.0]:
        ws = pwl.hat_weights(nodes, tau)
        assert sum(w for _, w in ws) == pytest.approx(1.0)
        assert all(w > 0 for _, w in ws)


@settings(max_examples=150, deadline=None)
@given(
    vals=st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=9),
    t=st.floats(-1, 12, allow_nan=False),
)
def test_eval_stays_within_the_node_values(vals, t):
    nodes = pwl.uniform_nodes(3.0, len(vals))
    f = pwl.PwlVector(nodes, [vals])
    lo, hi = min(vals), max(vals)
    assert lo - 1e-12 <= f.eval(t)[0] <= hi + 1e-12


def test_vector_and_matrix_wrappers():
    nodes = pwl.uniform_nodes(1.0, 3)
    v = pwl.PwlVector(nodes, [[0.0, 1.0, 2.0], [4.0, 2.0, 0.0]])
    np.testing.assert_allclose(v.eval(0.5), [1.0, 2.0])

    m = pwl.PwlMatrix(nodes, np.arange(12, dtype=float).reshape(2, 2, 3))
    assert m.shape == (2, 2)
    np.testing.assert_allclose(m.eval(0.0), [[0.0, 3.0], [6.0, 9.0]])
    np.testing.assert_allclose(m.eval(0.25), 0.5 * (m.eval(0.0) + m.eval(0.5)))


def test_flow_sample_plan_soundness():
    nodes = pwl.uniform_nodes(1.0, 3)
    plan0 = pwl.flow_sample_plan(nodes, degree=0)
    assert all(p.sound for p in plan0)
    assert [p.taus for p in plan0] == [(0.0, 0.5), (0.5, 1.0)]
    plan1 = pwl.flow_sample_plan(nodes, degree=1)
    assert not any(p.sound for p in plan1)
    assert plan1[0].taus == (0.0, 0.25, 0.5)


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
        pwl.PwlVector([0.0, 0.0], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        pwl.PwlVector([0.0, 1.0], [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        pwl.PwlVector([0.0, 1.0], [1.0, 2.0])
