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


def _numbers(value, where: str, kinds: str = "iuf") -> np.ndarray:
    """value as a rectangular array of finite numbers of the given numpy
    kinds; strings, nulls, objects, ragged lists, NaN and inf raise."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ValueError(f"{where} must be a rectangular array") from None
    if arr.dtype.kind not in kinds:
        raise ValueError(f"{where} must hold {'integers' if kinds == 'iu' else 'numbers'}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{where} must be finite")
    return arr


def _scalar(value, where: str, types=int):
    """value itself when it is a JSON number of `types` (never a boolean)."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{where} must be {'an integer' if types is int else 'a number'}")
    return value


def _complex_in(pairs, where: str) -> np.ndarray:
    arr = _numbers(pairs, where).astype(np.float64)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError(f"{where} must hold [re, im] pairs")
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
    for key in ("operators", "codebooks"):
        if not isinstance(data[key], list):
            raise ValueError(f"{key} must be a JSON array")
    for op in data["operators"]:
        _require(op, ("phases", "power_scale"), "operator")
    graph = FactorGraph(
        _numbers(data["factor_graph"], "factor_graph", "iu"), n_active=_scalar(data["N"], "N")
    )
    if len(data["codebooks"]) != graph.n_layers:
        raise ValueError("one codebook per layer required")
    mc = data["mother_constellation"]
    real = mc.get("real_part")
    imag = mc.get("imag_part")
    mother = MotherConstellation(
        points=_complex_in(mc["points"], "points"),
        labels=_numbers(mc["labels"], "labels", "iu"),
        real_points=None if real is None else _numbers(real, "real_part"),
        imag_points=None if imag is None else _numbers(imag, "imag_part"),
    )
    operators = tuple(
        LayerOperator(
            phases=_complex_in(op["phases"], "phases"),
            power_scale=float(_scalar(op["power_scale"], "power_scale", (int, float))),
        )
        for op in data["operators"]
    )
    codebooks = []
    for j, cw in enumerate(data["codebooks"]):
        mapping = mapping_matrix(graph.signature(j))
        codebooks.append(
            Codebook(
                codewords=_complex_in(cw, "codebooks"),
                labels=mother.labels.copy(),
                mapping=mapping,
            )
        )
    system = ScmaSystem(
        graph=graph, mother=mother, operators=operators, codebooks=tuple(codebooks)
    )
    _check_consistency(system, data)
    return system


def _check_consistency(system: ScmaSystem, data: dict) -> None:
    if system.n_resources != _scalar(data["K"], "K"):
        raise ValueError("factor graph rows disagree with K")
    if system.n_layers != _scalar(data["J"], "J"):
        raise ValueError("factor graph columns disagree with J")
    if system.alphabet_size != _scalar(data["M"], "M"):
        raise ValueError("constellation size disagrees with M")
    for j, cb in enumerate(system.codebooks):
        rebuilt = build_codebook(system.mother, system.operators[j], cb.mapping)
        if rebuilt.codewords.shape != cb.codewords.shape or not (
            np.abs(rebuilt.codewords - cb.codewords).max() <= 1e-9
        ):
            raise ValueError(f"codebook {j} does not match mother and operator")


def save_system(system: ScmaSystem, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(system_to_dict(system), sort_keys=True, indent=2) + "\n"
    )


def load_system(path: str | Path) -> ScmaSystem:
    return system_from_dict(json.loads(Path(path).read_text()))
