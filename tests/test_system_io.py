import json

import numpy as np
import pytest

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
