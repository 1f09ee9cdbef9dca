"""Resource/layer factor graphs for overloaded sparse multiple access.

Each layer occupies N of the K shared resources. The graph is the K x J
binary matrix whose column j is the indicator of layer j's resource set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LayerSignature",
    "MappingMatrix",
    "FactorGraph",
    "build_full_graph",
    "build_subgraph",
    "overlap",
    "mapping_matrix",
]

MAX_RESOURCES = 16


@dataclass(frozen=True)
class LayerSignature:
    """Binary indicator of the resources one layer occupies."""

    indicator: tuple[int, ...]
    layer_index: int = 0

    def __post_init__(self) -> None:
        if any(v not in (0, 1) for v in self.indicator):
            raise ValueError("indicator entries must be 0 or 1")
        k, n = len(self.indicator), sum(self.indicator)
        if not 1 <= n < k:
            raise ValueError(f"need K > N >= 1, got K={k} N={n}")

    @property
    def n_resources(self) -> int:
        return len(self.indicator)

    @property
    def n_active(self) -> int:
        return sum(self.indicator)

    @property
    def support(self) -> tuple[int, ...]:
        """Occupied resource indices, ascending."""
        return tuple(i for i, v in enumerate(self.indicator) if v)


@dataclass(frozen=True)
class MappingMatrix:
    """K x N binary matrix spreading an N-dim point onto K resources.

    Row k is the n-th unit row vector when resource k carries local
    dimension n, and all-zero when the layer skips resource k.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.uint8)
        if m.ndim != 2:
            raise ValueError("mapping matrix must be 2-D")
        col_sums = m.sum(axis=0)
        row_sums = m.sum(axis=1)
        if not (np.all(col_sums == 1) and np.all(row_sums <= 1)):
            raise ValueError("each local dimension maps to exactly one resource")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_resources(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_dims(self) -> int:
        return self.matrix.shape[1]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(k) for k in np.flatnonzero(self.matrix.sum(axis=1)))


@dataclass(frozen=True)
class FactorGraph:
    """K x J binary incidence between resources (rows) and layers (columns)."""

    matrix: np.ndarray
    n_active: int

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2:
            raise ValueError("factor graph matrix must be 2-D")
        if np.any((m != 0) & (m != 1)):
            raise ValueError("factor graph entries must be 0 or 1")
        m = m.astype(np.uint8)
        if np.any(m.sum(axis=0) != self.n_active):
            raise ValueError("every column must have exactly N ones")
        cols = {tuple(int(v) for v in m[:, j]) for j in range(m.shape[1])}
        if len(cols) != m.shape[1]:
            raise ValueError("columns must be distinct")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_resources(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_layers(self) -> int:
        return self.matrix.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        """Per-resource degree vector (number of layers on each resource)."""
        return self.matrix.sum(axis=1).astype(np.int64)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n_layers else 0

    @property
    def overloading(self) -> float:
        """Layers per resource, J / K."""
        return self.n_layers / self.n_resources

    def signature(self, j: int) -> LayerSignature:
        return LayerSignature(tuple(int(v) for v in self.matrix[:, j]), layer_index=j)

    def layers_at(self, k: int) -> tuple[int, ...]:
        """Layers colliding on resource k, ascending layer index."""
        return tuple(int(j) for j in np.flatnonzero(self.matrix[k]))


def _check_kn(n_resources: int, n_active: int) -> None:
    if not 1 <= n_active < n_resources <= MAX_RESOURCES:
        raise ValueError(
            f"need 1 <= N < K <= {MAX_RESOURCES}, got K={n_resources} N={n_active}"
        )


def build_full_graph(n_resources: int, n_active: int) -> FactorGraph:
    """All C(K, N) distinct columns, in lexicographic order of support sets.

    Every resource then carries exactly C(K-1, N-1) layers.
    """
    _check_kn(n_resources, n_active)
    supports = list(itertools.combinations(range(n_resources), n_active))
    m = np.zeros((n_resources, len(supports)), dtype=np.uint8)
    for j, sup in enumerate(supports):
        m[list(sup), j] = 1
    return FactorGraph(m, n_active)


def build_subgraph(n_resources: int, n_active: int, n_layers: int) -> FactorGraph:
    """Pick J columns of the full graph, keeping resource degrees balanced.

    Columns are chosen greedily: each step takes the candidate that
    minimises the resulting maximum resource degree, breaking ties toward
    the lexicographically first support set. The selected columns are
    emitted in lexicographic order, so the full load reproduces
    build_full_graph exactly.
    """
    _check_kn(n_resources, n_active)
    full = math.comb(n_resources, n_active)
    if not 1 <= n_layers <= full:
        raise ValueError(f"need 1 <= J <= {full}, got J={n_layers}")
    if n_layers == full:
        return build_full_graph(n_resources, n_active)

    candidates = list(itertools.combinations(range(n_resources), n_active))
    degrees = np.zeros(n_resources, dtype=np.int64)
    chosen: list[tuple[int, ...]] = []
    remaining = list(candidates)
    for _ in range(n_layers):
        best = None
        best_score = None
        for sup in remaining:
            trial = degrees.copy()
            trial[list(sup)] += 1
            score = int(trial.max())
            if best_score is None or score < best_score:
                best, best_score = sup, score
        chosen.append(best)
        remaining.remove(best)
        degrees[list(best)] += 1

    chosen.sort()
    m = np.zeros((n_resources, n_layers), dtype=np.uint8)
    for j, sup in enumerate(chosen):
        m[list(sup), j] = 1
    return FactorGraph(m, n_active)


def overlap(a: LayerSignature, b: LayerSignature) -> int:
    """Number of resources shared by two distinct layers."""
    if a.n_resources != b.n_resources:
        raise ValueError("signatures live on different resource counts")
    if a.indicator == b.indicator:
        raise ValueError("overlap is defined for distinct signatures")
    return sum(x & y for x, y in zip(a.indicator, b.indicator))


def mapping_matrix(sig: LayerSignature) -> MappingMatrix:
    """Mapping matrix of a layer: K - N all-zero rows inserted into I_N."""
    m = np.zeros((sig.n_resources, sig.n_active), dtype=np.uint8)
    for n, k in enumerate(sig.support):
        m[k, n] = 1
    return MappingMatrix(m)
