import json
import time
from pathlib import Path

import pytest

from scma.cli import main, parse_snr_grid

GOLDEN = Path(__file__).parent / "golden"


def test_parse_snr_grid_range():
    assert parse_snr_grid("4:8:2") == (4.0, 6.0, 8.0)
    assert parse_snr_grid("4:9:2") == (4.0, 6.0, 8.0)
    assert parse_snr_grid("5:5:1") == (5.0,)


def test_parse_snr_grid_list():
    assert parse_snr_grid("4,8,12") == (4.0, 8.0, 12.0)
    assert parse_snr_grid("7.5") == (7.5,)


def test_parse_snr_grid_rejects_garbage():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_snr_grid("4:8")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_snr_grid("4:8:0")
    # an infinite bound would otherwise never end the range loop
    for text in ("0:inf:1", "nan:8:1", "4:8:nan", "-inf:8:1"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_snr_grid(text)


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("snr", ["4:8:1e-300", "4:8:1e-7", "1e20:1e20:1"])
def test_snr_range_over_the_point_bound_fails_at_once(tmp_path, capsys, command, snr):
    # 4.0 + 1e-300 == 4.0 and 1e20 + 1 == 1e20, so without the bound these
    # ranges never end, and 4:8:1e-7 would hold 4e7 points
    start = time.perf_counter()
    args = (["simulate", "--system", str(tmp_path / "sys.json")] if command == "simulate"
            else ["compare", "--experiment", "power_variation"])
    with pytest.raises(SystemExit) as exc:
        main(args + ["--snr", snr, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1.0
    err = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(err) == 1 and err[0].endswith("a:b:step gives over 1000 points")


def test_parse_snr_grid_point_bound():
    import argparse

    assert parse_snr_grid("1:1000:1") == tuple(float(v) for v in range(1, 1001))
    with pytest.raises(argparse.ArgumentTypeError):
        parse_snr_grid("0:1000:1")


def test_design_writes_valid_json(tmp_path):
    out = tmp_path / "sys.json"
    assert main(["design", "--k", "4", "--n", "2", "--j", "6", "--m", "4",
                 "--scheme", "4pt", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["J"] == 6
    assert len(data["codebooks"]) == 6


def test_design_validates_scheme_alphabet(tmp_path, capsys):
    out = tmp_path / "sys.json"
    code = main(["design", "--scheme", "lowproj", "--m", "4", "--out", str(out)])
    assert code == 2
    assert "16-point" in capsys.readouterr().err


def test_analyze_prints_metrics(tmp_path, capsys):
    out = tmp_path / "sys.json"
    # plain mpa builds the 9 exact projections per edge, as collapsed does; at
    # J=2 the design is separable, and split builds 3 + 3 entries per resource
    for layers, counts, overloading in (("6", "4096 / 729 / 729 / -", "1.50"),
                                        ("2", "16 / 9 / 9 / 6", "0.50")):
        main(["design", "--scheme", "lowproj", "--m", "16", "--j", layers, "--out", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        text = capsys.readouterr().out
        assert "projections_per_dim (9, 9)" in text
        assert counts in text
        assert f"overloading={overloading}" in text


def test_simulate_round_trip_and_determinism(tmp_path):
    sysfile = tmp_path / "sys.json"
    main(["design", "--scheme", "4pt", "--out", str(sysfile)])
    args = ["simulate", "--system", str(sysfile), "--channel", "awgn",
            "--snr", "4:6:2", "--seed", "3", "--min-errors", "40",
            "--max-trials", "4096"]
    out1, out2, out3 = (tmp_path / f"r{i}.csv" for i in range(3))
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert main(args + ["--workers", "3", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()
    rows = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    assert rows[0].startswith("snr_db,")
    assert len(rows) == 3  # header + 2 points


def test_simulate_engine_choices(tmp_path):
    sysfile = tmp_path / "sys.json"
    main(["design", "--scheme", "t16", "--j", "2", "--m", "16", "--out", str(sysfile)])
    out = tmp_path / "r.csv"
    assert main(["simulate", "--system", str(sysfile), "--snr", "12",
                 "--engine", "split", "--snr-conv", "total", "--seed", "2",
                 "--min-errors", "20", "--max-trials", "2048",
                 "--out", str(out)]) == 0
    assert "# engine='split'" in out.read_text()


def test_simulate_precondition_error_is_clean(tmp_path, capsys):
    sysfile = tmp_path / "sys.json"
    main(["design", "--scheme", "4pt", "--out", str(sysfile)])
    code = main(["simulate", "--system", str(sysfile), "--snr", "8",
                 "--engine", "split", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "split" in capsys.readouterr().err


def test_simulate_rejects_non_finite_snr(tmp_path, capsys):
    sysfile = tmp_path / "sys.json"
    main(["design", "--scheme", "4pt", "--out", str(sysfile)])
    capsys.readouterr()
    for snr in ("nan", "8,inf"):
        out = tmp_path / "x.csv"
        code = main(["simulate", "--system", str(sysfile), "--snr", snr,
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: snr grid values must be finite"]
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("snr", ["-3100", "4,4000"])
def test_snr_without_a_noise_variance_fails_before_any_point(tmp_path, capsys, monkeypatch,
                                                             command, snr):
    # -3100 dB overflows 10**(-snr/10) and 4000 dB underflows it to 0; both
    # end in one error line before the first point runs, and write no CSV
    import scma.simulator

    calls = []
    monkeypatch.setattr(scma.simulator, "run_point", lambda *a, **kw: calls.append(a))
    monkeypatch.chdir(tmp_path)
    main(["design", "--scheme", "4pt", "--out", "4pt.json"])
    capsys.readouterr()
    args = (["simulate", "--system", "4pt.json"] if command == "simulate"
            else ["compare", "--experiment", "power_variation"])
    assert main(args + [f"--snr={snr}", "--out", "x.csv"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    bad = snr.split(",")[-1]
    assert err == [f"error: snr grid value {bad} dB: noise variance must be positive and finite"]
    assert calls == []
    assert not Path("x.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_negative_seed_fails_before_any_point(tmp_path, capsys, monkeypatch, command):
    import scma.simulator

    calls = []
    monkeypatch.setattr(scma.simulator, "run_point", lambda *a, **kw: calls.append(a))
    monkeypatch.chdir(tmp_path)
    main(["design", "--scheme", "4pt", "--out", "4pt.json"])
    capsys.readouterr()
    args = (["simulate", "--system", "4pt.json"] if command == "simulate"
            else ["compare", "--experiment", "power_variation"])
    assert main(args + ["--seed", "-3", "--snr", "8", "--out", "x.csv"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: seed must be non-negative, got -3"]
    assert calls == []
    assert not Path("x.csv").exists()


def test_damping_on_undamped_engine_fails_before_any_point(tmp_path, capsys, monkeypatch):
    import scma.simulator

    calls = []
    monkeypatch.setattr(scma.simulator, "run_point", lambda *a, **kw: calls.append(a))
    monkeypatch.chdir(tmp_path)
    main(["design", "--scheme", "4pt", "--out", "4pt.json"])
    capsys.readouterr()
    assert main(["simulate", "--system", "4pt.json", "--engine", "map", "--damping", "0.3",
                 "--snr", "8", "--out", "x.csv"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: engine 'map_oracle' runs undamped; damping must be 0"]
    assert calls == []
    assert not Path("x.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_out_naming_a_directory_fails_before_any_point(tmp_path, capsys, monkeypatch, command):
    import scma.simulator

    calls = []
    monkeypatch.setattr(scma.simulator, "run_point", lambda *a, **kw: calls.append(a))
    monkeypatch.chdir(tmp_path)
    main(["design", "--scheme", "4pt", "--out", "4pt.json"])
    Path("results").mkdir()
    capsys.readouterr()
    args = (["simulate", "--system", "4pt.json"] if command == "simulate"
            else ["compare", "--experiment", "power_variation"])
    for out, error in (
        ("results", "[Errno 21] Is a directory: 'results'"),
        # an empty path would write to '.', so it failed only after the sweep
        ("", "[Errno 2] No such file or directory: ''"),
    ):
        assert main(args + ["--snr", "8", "--out", out]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {error}"]
    assert calls == []


def test_analyze_missing_key_is_clean(tmp_path, capsys):
    sysfile = tmp_path / "sys.json"
    main(["design", "--scheme", "4pt", "--out", str(sysfile)])
    data = json.loads(sysfile.read_text())
    del data["J"]
    sysfile.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["analyze", str(sysfile)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: system lacks the required key 'J'"]


def test_power_variation_cli_pinned_csv(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--experiment", "power_variation", "--layers", "2",
                 "--snr", "5", "--seed", "1", "--min-errors", "25",
                 "--max-trials", "4096", "--out", str(out)]) == 0
    text = out.read_text()
    assert "# run=scma_4pt" in text
    assert "# run=lds_qpsk" in text
    assert text == (GOLDEN / "power_variation_2layers.csv").read_text()


def test_shaping_cli_pinned_csv(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--experiment", "shaping", "--snr", "16",
                 "--seed", "1", "--min-errors", "20", "--max-trials", "4096",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "# run=uplink_rayleigh/scma_t16" in text
    assert "# run=awgn/lds_16qam" in text
    assert text == (GOLDEN / "shaping.csv").read_text()


def test_map_simulate_cli_pinned_csv(tmp_path, monkeypatch):
    # a relative --system path keeps the design echo free of tmp_path
    monkeypatch.chdir(tmp_path)
    assert main(["design", "--scheme", "4pt", "--out", "4pt.json"]) == 0
    args = ["simulate", "--system", "4pt.json", "--engine", "map",
            "--channel", "uplink", "--snr", "8,12", "--min-errors", "50",
            "--max-trials", "1024", "--seed", "1"]
    golden = (GOLDEN / "map_uplink.csv").read_text()
    for workers in ("1", "2"):
        assert main(args + ["--workers", workers, "--out", "map.csv"]) == 0
        assert Path("map.csv").read_text() == golden


@pytest.mark.parametrize("engine", ["mpa", "mpa_collapsed"])
def test_lowproj_simulate_cli_pinned_csv(tmp_path, monkeypatch, engine):
    monkeypatch.chdir(tmp_path)
    assert main(["design", "--scheme", "lowproj", "--m", "16",
                 "--out", "lowproj.json"]) == 0
    assert main(["simulate", "--system", "lowproj.json", "--engine", engine,
                 "--channel", "uplink", "--snr", "16,20", "--min-errors", "50",
                 "--max-trials", "256", "--seed", "1", "--out", "lp.csv"]) == 0
    golden = GOLDEN / f"lowproj_uplink_{engine}.csv"
    assert Path("lp.csv").read_text() == golden.read_text()


def test_simulate_runs_a_file_with_rounded_values(tmp_path, capsys, monkeypatch):
    # a lowproj file saved from the plain rotation holds codeword values up
    # to 7.9e-16 apart: plain mpa builds a likelihood for each, and the run
    # exits 0 and writes its CSV with no note on stderr
    from scma.codebook import build_system
    from scma.constellation import (
        base_lattice, optimize_rotation_projections, rotate, shuffle_construct,
    )
    from scma.system_io import save_system

    monkeypatch.chdir(tmp_path)
    _, r = optimize_rotation_projections(base_lattice(2, 4), 9)
    u = rotate(base_lattice(2, 4), r)
    save_system(build_system(4, 2, 6, shuffle_construct(u, u)), "rounded.json")
    assert main(["simulate", "--system", "rounded.json", "--channel", "uplink",
                 "--snr", "16", "--min-errors", "20", "--max-trials", "128",
                 "--seed", "1", "--out", "rounded.csv"]) == 0
    rows = [line for line in Path("rounded.csv").read_text().splitlines() if line[0] != "#"]
    assert len(rows) == 2 and rows[1].startswith("16.0,128,")
    assert not [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("note:")]


def test_simulate_at_a_noise_variance_above_2k(tmp_path, monkeypatch):
    # at -16 dB per layer the 4-point system's noise variance passes 2K, so
    # the clamp on each table's ratio passes max_float: the run neither
    # warns nor fails (RuntimeWarnings are errors) and writes its row
    monkeypatch.chdir(tmp_path)
    assert main(["design", "--scheme", "4pt", "--out", "4pt.json"]) == 0
    assert main(["simulate", "--system", "4pt.json", "--snr=-16", "--min-errors", "20",
                 "--max-trials", "128", "--out", "low.csv"]) == 0
    rows = [line for line in Path("low.csv").read_text().splitlines() if line[0] != "#"]
    assert len(rows) == 2 and rows[1].startswith("-16.0,128,")


def test_split_rejected_before_first_block(tmp_path, capsys, monkeypatch):
    # a system without +-1 phases, or a channel with complex gains, fails
    # before the first block of trials is drawn
    import scma.simulator

    calls = []
    monkeypatch.setattr(scma.simulator, "_run_block", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    main(["design", "--scheme", "4pt", "--out", "4pt.json"])
    main(["design", "--scheme", "t16", "--j", "2", "--m", "16", "--out", "t16.json"])
    capsys.readouterr()
    for system, channel in (("4pt.json", "awgn"), ("t16.json", "uplink"),
                            ("t16.json", "downlink")):
        code = main(["simulate", "--system", system, "--channel", channel,
                     "--snr", "8", "--engine", "split", "--out", "x.csv"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: split")
    assert calls == []
    assert not Path("x.csv").exists()


@pytest.mark.parametrize("engine", ["mpa", "mpa_collapsed", "map"])
def test_oversized_tables_rejected_before_allocation(tmp_path, capsys, monkeypatch, engine):
    # degree-10 resources at M = 16: 16**10 table entries per resource and
    # trial, which would otherwise fail inside numpy with a traceback
    import scma.mpa_detector

    builds = []
    monkeypatch.setattr(scma.mpa_detector, "_resource_tables", lambda *a: builds.append(a))
    monkeypatch.chdir(tmp_path)
    main(["design", "--k", "6", "--n", "4", "--j", "15", "--m", "16",
          "--scheme", "lds", "--out", "big.json"])
    capsys.readouterr()
    code = main(["simulate", "--system", "big.json", "--snr", "10",
                 "--engine", engine, "--out", "x.csv"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert builds == []
    assert not Path("x.csv").exists()


def test_workers_above_bound_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["design", "--scheme", "4pt", "--out", "4pt.json"])
    capsys.readouterr()
    # 256 trials are two blocks, so even an unbounded pool starts two threads
    code = main(["simulate", "--system", "4pt.json", "--snr", "8",
                 "--max-trials", "256", "--workers", "100000000", "--out", "x.csv"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: workers")
    assert not Path("x.csv").exists()


def test_compare_layers_rejected_for_shaping(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--experiment", "shaping", "--layers", "4",
                 "--snr", "16", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: --layers applies to power_variation only"]
    assert not out.exists()


def test_compare_rejects_unsupported_layers(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--experiment", "power_variation", "--layers", "3",
              "--out", str(tmp_path / "cmp.csv")])
    assert exc.value.code == 2
    assert "--layers" in capsys.readouterr().err
    assert not (tmp_path / "cmp.csv").exists()


def test_missing_files_are_clean(tmp_path, capsys):
    sysfile = tmp_path / "sys.json"
    main(["design", "--scheme", "4pt", "--out", str(sysfile)])
    missing = str(tmp_path / "missing.json")
    no_dir = str(tmp_path / "no_dir" / "out")
    commands = [
        ["analyze", missing],
        ["simulate", "--system", missing, "--snr", "8",
         "--out", str(tmp_path / "x.csv")],
        ["design", "--scheme", "4pt", "--out", no_dir],
        ["simulate", "--system", str(sysfile), "--snr", "8", "--min-errors", "1",
         "--max-trials", "128", "--out", no_dir],
        ["compare", "--experiment", "power_variation", "--snr", "8",
         "--min-errors", "1", "--max-trials", "128", "--out", no_dir],
    ]
    capsys.readouterr()
    for argv in commands:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
        assert "No such file or directory" in err[0]
    # sweeps that would run for minutes stop before their first trial
    slow = ["--snr", "30", "--min-errors", "100000", "--max-trials", "10000000",
            "--out", no_dir]
    for argv in (["simulate", "--system", str(sysfile)] + slow,
                 ["compare", "--experiment", "power_variation"] + slow):
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "No such file or directory" in err[0], (argv, err)
