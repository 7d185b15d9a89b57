"""Scalar interpolation weights: partition of unity, exact at the nodes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateNodesError

KINDS = ("lagrange", "inverse_distance")


@dataclass
class WeightScheme:
    """A weight family over a fixed set of parameter nodes."""

    kind: str
    nodes: np.ndarray
    power: float = 2.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.size < 1:
            raise ValueError("nodes must be a nonempty 1-D sequence")
        s = np.sort(self.nodes)  # equal neighbours, or two NaNs (they sort last)
        if (s[1:] == s[:-1]).any() or np.isnan(s[:-1]).any():
            raise DuplicateNodesError(f"nodes are not pairwise distinct: {self.nodes}")
        if self.power <= 0:
            raise ValueError("power must be positive")


@dataclass
class WeightVector:
    values: np.ndarray
    target: float


def evaluate_weights(scheme: WeightScheme, target: float) -> WeightVector:
    """Evaluate the scheme at ``target``.

    A target that hits a node exactly short-circuits to the Kronecker
    vector, so node reproduction holds bit-exactly for every kind.
    Lagrange weights sum to 1 identically; inverse-distance weights are
    normalized so they do too.
    """
    nodes = scheme.nodes
    target = float(target)
    hit = np.nonzero(nodes == target)[0]
    values = np.zeros(nodes.size)
    with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
        if hit.size:
            values[hit[0]] = 1.0
        elif scheme.kind == "lagrange":
            # over Python floats: the same IEEE operations, in the same order,
            # as np.prod((target - others) / (x_k - others)), with no numpy call
            xs = nodes.tolist()
            for k, xk in enumerate(xs):
                prod = 1.0
                for j, xj in enumerate(xs):
                    if j != k:
                        prod *= (target - xj) / (xk - xj)
                values[k] = prod
        else:
            inv = np.abs(target - nodes) ** (-scheme.power)
            values = inv / inv.sum()
    return WeightVector(values, target)


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
