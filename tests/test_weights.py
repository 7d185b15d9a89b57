import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from baryrom import (
    DuplicateNodesError,
    WeightScheme,
    evaluate_weights,
    select_neighbors,
)


def test_lagrange_node_interpolation():
    scheme = WeightScheme("lagrange", [1.0, 2.0, 3.0])
    w = evaluate_weights(scheme, 2.0)
    np.testing.assert_array_equal(w.values, [0.0, 1.0, 0.0])


def test_lagrange_hand_values():
    scheme = WeightScheme("lagrange", [1.0, 2.0, 3.0])
    w = evaluate_weights(scheme, 1.5)
    np.testing.assert_allclose(w.values, [0.375, 0.75, -0.125], atol=1e-15)


def test_idw_symmetry():
    scheme = WeightScheme("inverse_distance", [0.0, 1.0], power=2.0)
    np.testing.assert_allclose(evaluate_weights(scheme, 0.5).values, [0.5, 0.5])


@pytest.mark.parametrize("kind,power", [("lagrange", 2.0),
                                        ("inverse_distance", 2.0),
                                        ("inverse_distance", 3.5)])
def test_partition_of_unity(kind, power, rng):
    nodes = np.sort(rng.uniform(0.0, 1.0, size=5))
    scheme = WeightScheme(kind, nodes, power=power)
    for target in rng.uniform(-0.5, 1.5, size=20):
        w = evaluate_weights(scheme, target)
        assert abs(w.values.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("kind", ["lagrange", "inverse_distance"])
def test_node_reproduction_exact(kind, rng):
    nodes = np.array([0.3, 0.7, 1.1, 2.4])
    scheme = WeightScheme(kind, nodes)
    for h, node in enumerate(nodes):
        w = evaluate_weights(scheme, node)
        expected = np.zeros(4)
        expected[h] = 1.0
        np.testing.assert_array_equal(w.values, expected)


def test_lagrange_polynomial_exactness(rng):
    nodes = np.array([0.05, 0.07, 0.09, 0.11])
    scheme = WeightScheme("lagrange", nodes)
    for _ in range(10):
        coeffs = rng.standard_normal(4)  # random cubic
        poly = np.polynomial.Polynomial(coeffs)
        target = rng.uniform(0.0, 0.2)
        w = evaluate_weights(scheme, target)
        assert float(w.values @ poly(nodes)) == pytest.approx(
            float(poly(target)), rel=1e-10, abs=1e-12
        )


def array_lagrange(nodes, target):
    """The Lagrange weights as array products, np.prod((t - others) / (x_k
    - others)) per node: the oracle of evaluate_weights' float loop."""
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
        scheme = WeightScheme("lagrange", nodes)
        targets = [*rng.uniform(lo, hi, 4), *rng.uniform(hi, hi + 0.5, 2),
                   *rng.uniform(lo - 0.5, lo, 2), 1e3 * hi]
        for target in targets:
            got = evaluate_weights(scheme, target).values
            assert got.tobytes() == array_lagrange(nodes, target).tobytes()
        for h, node in enumerate(nodes):
            assert evaluate_weights(scheme, node).values.tobytes() == np.eye(count)[h].tobytes()


def test_duplicate_nodes_rejected():
    with pytest.raises(DuplicateNodesError):
        WeightScheme("lagrange", [1.0, 1.0, 2.0])


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
            WeightScheme("lagrange", nodes)
    else:
        WeightScheme("lagrange", nodes)


def test_weight_scheme_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, about 10 ms of a cold CLI call
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; from baryrom import WeightScheme; "
            "WeightScheme('lagrange', [0.05, 0.07, 0.09]); print('numpy.ma' in sys.modules)")
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
