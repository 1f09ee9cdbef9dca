"""JSON persistence for assembled multiple-access systems.

Complex numbers are stored as [re, im] pairs and floats rely on Python's
repr round-trip, so save -> load reproduces every array bit for bit. Keys
are sorted when dumping, which makes the files diffable.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .codebook import Codebook, LayerOperator, ScmaSystem, build_codebook
from .constellation import MotherConstellation
from .factor_graph import FactorGraph, mapping_matrix

__all__ = [
    "SYSTEM_KEYS",
    "system_to_dict",
    "system_from_dict",
    "save_system",
    "load_system",
]

SYSTEM_KEYS = (
    "K", "N", "J", "M",
    "factor_graph", "mother_constellation", "operators", "codebooks",
)


def _complex_out(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _complex_in(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def system_to_dict(system: ScmaSystem) -> dict:
    mother = system.mother
    mc = {
        "points": _complex_out(mother.points),
        "labels": mother.labels.tolist(),
        "real_part": None if mother.real_points is None else mother.real_points.tolist(),
        "imag_part": None if mother.imag_points is None else mother.imag_points.tolist(),
    }
    return {
        "K": system.n_resources,
        "N": system.n_active,
        "J": system.n_layers,
        "M": system.alphabet_size,
        "factor_graph": system.graph.matrix.tolist(),
        "mother_constellation": mc,
        "operators": [
            {"phases": _complex_out(op.phases), "power_scale": op.power_scale}
            for op in system.operators
        ],
        "codebooks": [_complex_out(cb.codewords) for cb in system.codebooks],
    }


def _require(data, keys: tuple[str, ...], where: str) -> None:
    """Reject a non-object or an object that lacks one of `keys`."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{where} lacks the required key {key!r}")


def system_from_dict(data: dict) -> ScmaSystem:
    _require(data, SYSTEM_KEYS, "system")
    _require(
        data["mother_constellation"], ("points", "labels"), "mother_constellation"
    )
    for op in data["operators"]:
        _require(op, ("phases", "power_scale"), "operator")
    graph = FactorGraph(
        np.asarray(data["factor_graph"], dtype=np.uint8), n_active=int(data["N"])
    )
    mc = data["mother_constellation"]
    real = mc.get("real_part")
    imag = mc.get("imag_part")
    mother = MotherConstellation(
        points=_complex_in(mc["points"]),
        labels=np.asarray(mc["labels"], dtype=np.int64),
        real_points=None if real is None else np.asarray(real, dtype=np.float64),
        imag_points=None if imag is None else np.asarray(imag, dtype=np.float64),
    )
    operators = tuple(
        LayerOperator(
            phases=_complex_in(op["phases"]), power_scale=float(op["power_scale"])
        )
        for op in data["operators"]
    )
    codebooks = []
    for j, cw in enumerate(data["codebooks"]):
        mapping = mapping_matrix(graph.signature(j))
        codebooks.append(
            Codebook(
                codewords=_complex_in(cw), labels=mother.labels.copy(), mapping=mapping
            )
        )
    system = ScmaSystem(
        graph=graph, mother=mother, operators=operators, codebooks=tuple(codebooks)
    )
    _check_consistency(system, data)
    return system


def _check_consistency(system: ScmaSystem, data: dict) -> None:
    if system.n_resources != int(data["K"]):
        raise ValueError("factor graph rows disagree with K")
    if system.n_layers != int(data["J"]):
        raise ValueError("factor graph columns disagree with J")
    if system.alphabet_size != int(data["M"]):
        raise ValueError("constellation size disagrees with M")
    for j, cb in enumerate(system.codebooks):
        rebuilt = build_codebook(system.mother, system.operators[j], cb.mapping)
        if np.abs(rebuilt.codewords - cb.codewords).max() > 1e-9:
            raise ValueError(f"codebook {j} does not match mother and operator")


def save_system(system: ScmaSystem, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(system_to_dict(system), sort_keys=True, indent=2) + "\n"
    )


def load_system(path: str | Path) -> ScmaSystem:
    return system_from_dict(json.loads(Path(path).read_text()))
