import json
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
    main(["design", "--scheme", "lowproj", "--m", "16", "--out", str(out)])
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 0
    text = capsys.readouterr().out
    assert "projections_per_dim (9, 9)" in text
    assert "4096 / 729" in text
    assert "overloading=1.50" in text


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
