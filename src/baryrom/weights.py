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
        if np.unique(self.nodes).size != self.nodes.size:
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
    if hit.size:
        values[hit[0]] = 1.0
    elif scheme.kind == "lagrange":
        with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
            for k in range(nodes.size):
                others = np.delete(nodes, k)
                values[k] = np.prod((target - others) / (nodes[k] - others))
    else:
        inv = np.abs(target - nodes) ** (-scheme.power)
        values = inv / inv.sum()
    return WeightVector(values, target)


def select_neighbors(params, target, m):
    """Indices of the m nodes nearest to ``target``.

    Distance ties go to the smaller parameter value; the selection is
    returned sorted by ascending parameter value.
    """
    params = np.asarray(params, dtype=float)
    if not 0 < m <= params.size:
        raise ValueError(f"m must lie in 1..{params.size}, got {m}")
    order = sorted(range(params.size), key=lambda k: (abs(params[k] - target), params[k]))
    return sorted(order[:m], key=lambda k: params[k])
