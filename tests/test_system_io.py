import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scma.cli import main
from scma.codebook import build_named_system
from scma.system_io import (
    SYSTEM_KEYS,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
)

ALL_SYSTEMS = [
    ("4pt", 4, 2, 6, 4),
    ("lds", 4, 2, 6, 4),
    ("t16", 4, 2, 2, 16),
    ("lowproj", 4, 2, 6, 16),
]


@pytest.mark.parametrize("scheme,k,n,j,m", ALL_SYSTEMS)
def test_round_trip_is_lossless(tmp_path, scheme, k, n, j, m):
    system = build_named_system(scheme, k, n, j, m)
    path = tmp_path / "system.json"
    save_system(system, path)
    loaded = load_system(path)
    assert np.array_equal(loaded.graph.matrix, system.graph.matrix)
    assert np.array_equal(loaded.mother.points, system.mother.points)
    assert np.array_equal(loaded.mother.labels, system.mother.labels)
    for a, b in zip(loaded.operators, system.operators):
        assert np.array_equal(a.phases, b.phases)
        assert a.power_scale == b.power_scale
    for a, b in zip(loaded.codebooks, system.codebooks):
        assert np.array_equal(a.codewords, b.codewords)
        assert a.support == b.support


def test_required_keys_present():
    data = system_to_dict(build_named_system("t16", 4, 2, 2, 16))
    assert set(data) == {
        "K", "N", "J", "M", "factor_graph", "mother_constellation",
        "operators", "codebooks",
    }
    assert (data["K"], data["N"], data["J"], data["M"]) == (4, 2, 2, 16)
    mc = data["mother_constellation"]
    assert set(mc) == {"points", "labels", "real_part", "imag_part"}
    assert len(mc["points"]) == 16
    assert len(mc["points"][0]) == 2
    assert len(mc["points"][0][0]) == 2  # [re, im]
    assert len(data["operators"]) == 2
    assert "power_scale" in data["operators"][0]
    assert np.asarray(data["codebooks"]).shape == (2, 16, 4, 2)


def test_separable_parts_survive_round_trip(tmp_path):
    system = build_named_system("t16", 4, 2, 2, 16)
    path = tmp_path / "t16.json"
    save_system(system, path)
    loaded = load_system(path)
    assert loaded.mother.is_separable
    assert np.array_equal(loaded.mother.real_points, system.mother.real_points)
    assert np.array_equal(loaded.mother.imag_points, system.mother.imag_points)


def test_dump_is_deterministic(tmp_path):
    system = build_named_system("4pt", 4, 2, 6, 4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_system(system, p1)
    save_system(build_named_system("4pt", 4, 2, 6, 4), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_mismatched_header_rejected(tmp_path):
    system = build_named_system("4pt", 4, 2, 6, 4)
    data = system_to_dict(system)
    data["M"] = 8
    with pytest.raises(ValueError):
        system_from_dict(data)


@pytest.mark.parametrize("key", SYSTEM_KEYS)
def test_missing_key_rejected(key):
    data = system_to_dict(build_named_system("4pt", 4, 2, 6, 4))
    del data[key]
    with pytest.raises(ValueError, match=repr(key)):
        system_from_dict(data)


def test_missing_nested_key_rejected():
    data = system_to_dict(build_named_system("4pt", 4, 2, 6, 4))
    del data["operators"][2]["phases"]
    with pytest.raises(ValueError, match="'phases'"):
        system_from_dict(data)
    with pytest.raises(ValueError, match="JSON object"):
        system_from_dict([1, 2])


def test_tampered_codebook_rejected(tmp_path):
    system = build_named_system("4pt", 4, 2, 6, 4)
    data = system_to_dict(system)
    data["codebooks"][0][0][0][0] += 0.5
    with pytest.raises(ValueError):
        system_from_dict(data)


def test_json_is_plain_and_sorted(tmp_path):
    path = tmp_path / "sys.json"
    save_system(build_named_system("lds", 4, 2, 2, 16), path)
    text = path.read_text()
    data = json.loads(text)
    assert list(data) == sorted(data)
    # floats survive the text round trip bit for bit
    again = json.loads(json.dumps(data))
    assert again == data


def _with(data, path, value):
    """A deep copy of data with the node at `path` set to value."""
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _swap_real_rows(data):
    mc = data["mother_constellation"]
    return _with(data, ("mother_constellation", "real_part"),
                 [mc["real_part"][1], mc["real_part"][0], *mc["real_part"][2:]])


@pytest.mark.parametrize(
    "scheme,j,m,edit",
    [
        # a NaN fails every `err > tol` check, so each one must read `not err <= tol`
        ("4pt", 6, 4, lambda d: _with(d, ("codebooks", 0, 0, 0, 0), math.nan)),
        ("4pt", 6, 4, lambda d: _with(d, ("mother_constellation", "points", 0, 0, 0), math.nan)),
        ("4pt", 6, 4, lambda d: _with(d, ("operators", 0, "phases", 0, 1), math.nan)),
        ("4pt", 6, 4, lambda d: _with(d, ("operators", 0, "power_scale"), math.inf)),
        # split detection reads only the parts, so they must match the points
        ("t16", 2, 16, _swap_real_rows),
        ("t16", 2, 16, lambda d: _with(d, ("mother_constellation", "imag_part", 0, 0), math.nan)),
    ],
    ids=["codeword-nan", "point-nan", "phase-nan", "power-inf", "real-rows-swapped", "part-nan"],
)
def test_non_finite_and_inconsistent_files_rejected(scheme, j, m, edit):
    data = edit(system_to_dict(build_named_system(scheme, 4, 2, j, m)))
    with pytest.raises(ValueError):
        system_from_dict(data)


def _nodes(node, path=()):
    """(path, node) for every node of a JSON tree, depth first."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


VALID_DICTS = [
    system_to_dict(build_named_system("4pt", 4, 2, 6, 4)),
    system_to_dict(build_named_system("t16", 4, 2, 2, 16)),  # separable parts
]
BAD_LEAVES = [math.nan, math.inf, -math.inf, "1", None, [], {}, True, 2.5]


@st.composite
def perturbed_dicts(draw):
    """A valid system dict with one leaf replaced by NaN, inf or a wrong
    type, two entries of one list swapped, or one list entry dropped."""
    data = draw(st.sampled_from(VALID_DICTS))
    nodes = list(_nodes(data))
    kind = draw(st.sampled_from(["leaf", "swap", "drop"]))
    if kind == "leaf":
        path = draw(st.sampled_from([p for p, n in nodes if p and not isinstance(n, (dict, list))]))
        return _with(data, path, draw(st.sampled_from(BAD_LEAVES)))
    path, items = draw(st.sampled_from(
        [(p, n) for p, n in nodes if isinstance(n, list) and len(n) >= (2 if kind == "swap" else 1)]
    ))
    i = draw(st.integers(0, len(items) - 1))
    if kind == "drop":
        return _with(data, path, items[:i] + items[i + 1 :])
    k = draw(st.integers(0, len(items) - 1).filter(lambda k: k != i))
    swapped = list(items)
    swapped[i], swapped[k] = items[k], items[i]
    return _with(data, path, swapped)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(perturbed_dicts())
def test_perturbed_file_is_rejected_or_round_trips(tmp_path_factory, data):
    try:
        system = system_from_dict(data)
    except ValueError:
        pass
    else:
        assert system_to_dict(system) == data
    path = tmp_path_factory.mktemp("perturbed") / "system.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) in (0, 2)
