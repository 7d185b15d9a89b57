import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from baryrom import (
    DuplicateNodesError,
    lagrange_weights,
    select_neighbors,
)


def test_lagrange_node_interpolation():
    np.testing.assert_array_equal(lagrange_weights([1.0, 2.0, 3.0], 2.0), [0.0, 1.0, 0.0])


def test_lagrange_hand_values():
    np.testing.assert_allclose(lagrange_weights([1.0, 2.0, 3.0], 1.5), [0.375, 0.75, -0.125],
                               atol=1e-15)


def test_partition_of_unity(rng):
    nodes = np.sort(rng.uniform(0.0, 1.0, size=5))
    for target in rng.uniform(-0.5, 1.5, size=20):
        assert abs(lagrange_weights(nodes, target).sum() - 1.0) < 1e-12


def test_node_reproduction_exact():
    nodes = np.array([0.3, 0.7, 1.1, 2.4])
    for h, node in enumerate(nodes):
        expected = np.zeros(4)
        expected[h] = 1.0
        np.testing.assert_array_equal(lagrange_weights(nodes, node), expected)


def test_lagrange_polynomial_exactness(rng):
    nodes = np.array([0.05, 0.07, 0.09, 0.11])
    for _ in range(10):
        coeffs = rng.standard_normal(4)  # random cubic
        poly = np.polynomial.Polynomial(coeffs)
        target = rng.uniform(0.0, 0.2)
        w = lagrange_weights(nodes, target)
        assert float(w @ poly(nodes)) == pytest.approx(
            float(poly(target)), rel=1e-10, abs=1e-12
        )


def array_lagrange(nodes, target):
    """The Lagrange weights as array products, np.prod((t - others) / (x_k
    - others)) per node: the oracle of lagrange_weights' float loop."""
    values = np.empty(nodes.size)
    for k in range(nodes.size):
        others = np.delete(nodes, k)
        values[k] = np.prod((target - others) / (nodes[k] - others))
    return values


@pytest.mark.parametrize("count", range(1, 7))
def test_lagrange_weights_are_bitwise_the_array_products(count, rng):
    for _ in range(40):
        nodes = rng.uniform(0.01, 0.2, count)
        lo, hi = nodes.min(), nodes.max()
        targets = [*rng.uniform(lo, hi, 4), *rng.uniform(hi, hi + 0.5, 2),
                   *rng.uniform(lo - 0.5, lo, 2), 1e3 * hi]
        for target in targets:
            got = lagrange_weights(nodes, target)
            assert got.tobytes() == array_lagrange(nodes, target).tobytes()
        for h, node in enumerate(nodes):
            assert lagrange_weights(nodes, node).tobytes() == np.eye(count)[h].tobytes()


def test_far_targets_overflow_to_inf_with_no_warning():
    # Python float products overflow silently; study_weights checks finiteness
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = lagrange_weights([0.05, 0.07, 0.09], 1e200)
    assert w.tolist() == [np.inf, -np.inf, np.inf]


def test_duplicate_nodes_rejected():
    with pytest.raises(DuplicateNodesError):
        lagrange_weights([1.0, 1.0, 2.0], 1.5)


INF, NAN = np.inf, np.nan


@pytest.mark.parametrize("nodes", [
    [3.0, 2.0, 3.0], [0.0, -0.0], [INF, 1.0, INF], [-INF, -INF],
    [NAN, NAN], [1.0, NAN, 2.0, NAN], [NAN, 1.0], [INF, -INF, NAN], [2.0, 1.0, 3.0],
    [1.0], [NAN], [5e-324, 0.0], [0.1, 0.1 + 2**-56],
])
def test_duplicate_nodes_are_the_ones_np_unique_merges(nodes):
    duplicate = np.unique(nodes).size != len(nodes)
    if duplicate:
        with pytest.raises(DuplicateNodesError):
            lagrange_weights(nodes, 0.5)
    else:
        assert lagrange_weights(nodes, 0.5).shape == (len(nodes),)


def test_weight_scheme_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, about 10 ms of a cold CLI call
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; from baryrom import lagrange_weights; "
            "lagrange_weights([0.05, 0.07, 0.09], 0.06); print('numpy.ma' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"


def test_select_neighbors_hand_example():
    sel = select_neighbors([90.0, 120.0, 150.0, 180.0], 100.0, 3)
    assert sel == [0, 1, 2]


def test_select_neighbors_at_node():
    assert select_neighbors([0.1, 0.2, 0.3], 0.2, 1) == [1]


def test_select_neighbors_tie_breaks_to_smaller():
    assert select_neighbors([0.0, 2.0], 1.0, 1) == [0]


def test_select_neighbors_ascending_order():
    sel = select_neighbors([5.0, 1.0, 3.0, 4.0], 3.4, 3)
    params = [5.0, 1.0, 3.0, 4.0]
    assert [params[i] for i in sel] == sorted(params[i] for i in sel)
    assert set(sel) == {2, 3, 0}


def test_select_neighbors_validates_m():
    with pytest.raises(ValueError):
        select_neighbors([1.0, 2.0], 1.5, 3)
