"""Layer codebooks: mother constellation + per-layer operator + mapping.

A layer's codebook places the operated mother constellation onto its N
occupied resources; J such codebooks over a shared factor graph form the
multiple-access system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import (
    MotherConstellation,
    four_point_mother,
    low_projection_16point,
    repetition_qam_mother,
    t16qam,
)
from .factor_graph import (
    FactorGraph,
    MappingMatrix,
    build_subgraph,
    mapping_matrix,
)

__all__ = [
    "LayerOperator",
    "Codebook",
    "ScmaSystem",
    "apply_operator",
    "lds_phase_signatures",
    "build_codebook",
    "build_system",
    "build_lds_system",
    "build_named_system",
    "SCHEMES",
]

UNIT_PHASE_TOL = 1e-12
ENERGY_TOL = 1e-12


@dataclass(frozen=True)
class LayerOperator:
    """Per-dimension unit phases plus a layer power scale (1 by default)."""

    phases: np.ndarray
    power_scale: float = 1.0

    def __post_init__(self) -> None:
        ph = np.array(self.phases, dtype=np.complex128)
        if ph.ndim != 1:
            raise ValueError("phases must be a 1-D vector")
        if not np.abs(np.abs(ph) - 1.0).max() <= UNIT_PHASE_TOL:
            raise ValueError("phases must have unit modulus")
        if not 0 < self.power_scale < math.inf:
            raise ValueError("power_scale must be positive and finite")
        ph.setflags(write=False)
        object.__setattr__(self, "phases", ph)

    @property
    def n_dims(self) -> int:
        return self.phases.shape[0]

    @property
    def is_real(self) -> bool:
        """True when every phase is +1 or -1."""
        return bool(np.abs(self.phases.imag).max() <= UNIT_PHASE_TOL)


@dataclass(frozen=True)
class Codebook:
    """M sparse codewords of one layer over the K shared resources."""

    codewords: np.ndarray
    labels: np.ndarray
    mapping: MappingMatrix

    def __post_init__(self) -> None:
        cw = np.array(self.codewords, dtype=np.complex128)
        labels = np.array(self.labels, dtype=np.int64)
        if cw.ndim != 2 or cw.shape[1] != self.mapping.n_resources:
            raise ValueError("codewords must be a 2-D array with one column per resource")
        if not np.isfinite(cw).all():
            raise ValueError("codewords must be finite")
        off = [k for k in range(cw.shape[1]) if k not in self.mapping.support]
        if off and not np.abs(cw[:, off]).max() <= 1e-12:
            raise ValueError("codewords must vanish outside the layer support")
        cw.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "codewords", cw)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def n_resources(self) -> int:
        return self.codewords.shape[1]

    @property
    def support(self) -> tuple[int, ...]:
        return self.mapping.support


@dataclass(frozen=True)
class ScmaSystem:
    """Factor graph plus per-layer codebooks sharing one mother constellation."""

    graph: FactorGraph
    mother: MotherConstellation
    operators: tuple[LayerOperator, ...]
    codebooks: tuple[Codebook, ...]

    def __post_init__(self) -> None:
        if len(self.codebooks) != self.graph.n_layers:
            raise ValueError("one codebook per layer required")
        if len(self.operators) != self.graph.n_layers:
            raise ValueError("one operator per layer required")
        for j, cb in enumerate(self.codebooks):
            if cb.support != self.graph.signature(j).support:
                raise ValueError(f"codebook {j} support disagrees with the graph")
            energy = float(np.mean(np.sum(np.abs(cb.codewords) ** 2, axis=1)))
            if not abs(energy - 1.0) <= 1e-9:
                raise ValueError(f"layer {j} average energy {energy} != 1")

    @property
    def n_resources(self) -> int:
        return self.graph.n_resources

    @property
    def n_active(self) -> int:
        return self.graph.n_active

    @property
    def n_layers(self) -> int:
        return self.graph.n_layers

    @property
    def alphabet_size(self) -> int:
        return self.mother.size

    @property
    def is_separable(self) -> bool:
        """True when split detection applies: the mother factors into real and
        imaginary parts and every operator phase is +-1."""
        return self.mother.is_separable and all(op.is_real for op in self.operators)


def apply_operator(
    mother: MotherConstellation, op: LayerOperator
) -> MotherConstellation:
    """Scale each complex dimension by the operator phase (and power scale).

    Real +-1 phases keep the real/imaginary separable structure; complex
    phases mix the axes, so the separable parts are dropped.
    """
    if op.n_dims != mother.n_dims:
        raise ValueError("operator and constellation dimension counts differ")
    factor = op.phases * math.sqrt(op.power_scale)
    pts = mother.points * factor[None, :]
    if mother.is_separable and op.is_real:
        signs = factor.real[None, :]
        return MotherConstellation(
            pts,
            mother.labels,
            real_points=mother.real_points * signs,
            imag_points=mother.imag_points * signs,
        )
    return MotherConstellation(pts, mother.labels)


def lds_phase_signatures(graph: FactorGraph) -> tuple[LayerOperator, ...]:
    """Phase signatures spreading colliding layers over the half circle.

    On each resource the t-th colliding layer (in layer order, t = 1..d)
    gets phase exp(1j*pi*(t-1)/d_max) at its local dimension, where d_max
    is the maximum resource degree. No power offsets.
    """
    d_max = max(graph.max_degree, 1)
    phases = np.ones((graph.n_layers, graph.n_active), dtype=np.complex128)
    for k in range(graph.n_resources):
        for t, j in enumerate(graph.layers_at(k)):
            local = graph.signature(j).support.index(k)
            phases[j, local] = np.exp(1j * math.pi * t / d_max)
    return tuple(LayerOperator(phases[j]) for j in range(graph.n_layers))


def build_codebook(
    mother: MotherConstellation, op: LayerOperator, mapping: MappingMatrix
) -> Codebook:
    """Spread the operated mother constellation onto the layer's resources."""
    if mapping.n_dims != mother.n_dims:
        raise ValueError("mapping and constellation dimension counts differ")
    operated = apply_operator(mother, op)
    codewords = operated.points @ mapping.matrix.T.astype(np.float64)
    return Codebook(codewords, mother.labels, mapping)


def build_system(
    n_resources: int, n_active: int, n_layers: int, mother: MotherConstellation
) -> ScmaSystem:
    """Assemble graph, phase signatures and codebooks for J layers."""
    if mother.n_dims != n_active:
        raise ValueError("mother constellation dimension count must equal N")
    if not abs(mother.energy - 1.0) <= ENERGY_TOL:
        raise ValueError("mother constellation must have unit average energy")
    graph = build_subgraph(n_resources, n_active, n_layers)
    operators = lds_phase_signatures(graph)
    codebooks = tuple(
        build_codebook(mother, operators[j], mapping_matrix(graph.signature(j)))
        for j in range(n_layers)
    )
    return ScmaSystem(graph, mother, operators, codebooks)


def build_lds_system(
    n_resources: int, n_active: int, n_layers: int, qam_order: int
) -> ScmaSystem:
    """Repetition-QAM baseline on the same graph and phase signatures."""
    mother = repetition_qam_mother(qam_order, n_active)
    return build_system(n_resources, n_active, n_layers, mother)


SCHEMES = ("t16", "4pt", "lowproj", "lds")


def build_named_system(
    scheme: str, n_resources: int, n_active: int, n_layers: int, alphabet: int
) -> ScmaSystem:
    """Construct one of the shipped designs by name."""
    if scheme == "t16":
        if alphabet != 16:
            raise ValueError("t16 uses a 16-point alphabet")
        return build_system(n_resources, n_active, n_layers, t16qam())
    if scheme == "4pt":
        if alphabet != 4:
            raise ValueError("4pt uses a 4-point alphabet")
        return build_system(n_resources, n_active, n_layers, four_point_mother())
    if scheme == "lowproj":
        if alphabet != 16:
            raise ValueError("lowproj uses a 16-point alphabet")
        return build_system(n_resources, n_active, n_layers, low_projection_16point())
    if scheme == "lds":
        return build_lds_system(n_resources, n_active, n_layers, alphabet)
    raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
