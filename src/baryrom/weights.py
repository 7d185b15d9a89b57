"""Scalar interpolation weights: partition of unity, exact at the nodes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateNodesError


@dataclass
class WeightVector:
    values: np.ndarray


def lagrange_weights(nodes, target: float) -> np.ndarray:
    """Lagrange polynomial weights of the pairwise distinct ``nodes`` at ``target``.

    A target that hits a node exactly short-circuits to the Kronecker
    vector, so node reproduction holds bit-exactly.  The weights sum to 1
    identically; far outside the nodes they overflow to +-inf, which
    callers check.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 1:
        raise ValueError("nodes must be a nonempty 1-D sequence")
    s = np.sort(nodes)  # equal neighbours, or two NaNs (they sort last)
    if (s[1:] == s[:-1]).any() or np.isnan(s[:-1]).any():
        raise DuplicateNodesError(f"nodes are not pairwise distinct: {nodes}")
    target = float(target)
    hit = np.nonzero(nodes == target)[0]
    values = np.zeros(nodes.size)
    if hit.size:
        values[hit[0]] = 1.0
    else:
        # over Python floats: the same IEEE operations, in the same order,
        # as np.prod((target - others) / (x_k - others)), with no numpy call
        xs = nodes.tolist()
        for k, xk in enumerate(xs):
            prod = 1.0
            for j, xj in enumerate(xs):
                if j != k:
                    prod *= (target - xj) / (xk - xj)
            values[k] = prod
    return values


def select_neighbors(params, target, m):
    """Indices of the m nodes nearest to ``target``.

    Distance ties go to the smaller parameter value; the selection is
    returned sorted by ascending parameter value.
    """
    params = np.asarray(params, dtype=float).tolist()  # Python floats sort faster
    if not 0 < m <= len(params):
        raise ValueError(f"m must lie in 1..{len(params)}, got {m}")
    order = sorted(range(len(params)), key=lambda k: (abs(params[k] - target), params[k]))
    return sorted(order[:m], key=lambda k: params[k])
