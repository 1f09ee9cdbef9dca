import math

import pytest
from hypothesis import given, strategies as st

from scma.simulator import (
    EXPERIMENTS,
    SimConfig,
    csv_lines,
    run_experiment,
    run_point,
    run_sweep,
    wilson_halfwidth,
)


def qpsk_ser(snr_db: float, k: int = 4) -> float:
    """Closed-form symbol error rate of the single-layer QPSK repetition
    system under the per-layer convention: both bit axes carry distance
    1/sigma after matched filtering."""
    sigma = math.sqrt(10 ** (-snr_db / 10) / k)
    q = 0.5 * math.erfc(1.0 / sigma / math.sqrt(2.0))
    return 2.0 * q - q * q


# ---------------------------------------------------------------------------
# statistics helpers


def test_wilson_halfwidth_known_value():
    # 10 errors in 100 trials: hw = z/(1+z^2/n) * sqrt(p(1-p)/n + z^2/4n^2)
    z = 1.959963984540054
    n, p = 100, 0.1
    expected = (z / (1 + z * z / n)) * math.sqrt(p * 0.9 / n + z * z / (4 * n * n))
    assert wilson_halfwidth(10, 100) == pytest.approx(expected, rel=1e-12)


def test_wilson_halfwidth_validation():
    with pytest.raises(ValueError):
        wilson_halfwidth(1, 0)
    with pytest.raises(ValueError):
        wilson_halfwidth(5, 4)


@given(st.integers(0, 500), st.integers(1, 500))
def test_wilson_interval_contains_empirical_rate(errors, extra):
    trials = errors + extra
    z = 1.959963984540054
    p = errors / trials
    center = (p + z * z / (2 * trials)) / (1 + z * z / trials)
    hw = wilson_halfwidth(errors, trials)
    assert abs(center - p) <= hw + 1e-15


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    ok = dict(K=4, N=2, J=2, M=4, design="lds", snr_grid_db=(4.0,))
    SimConfig(**ok)
    with pytest.raises(ValueError):
        SimConfig(**{**ok, "snr_grid_db": ()})
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            SimConfig(**{**ok, "snr_grid_db": (4.0, bad)})
    with pytest.raises(ValueError):
        SimConfig(**{**ok, "min_errors": 0})
    with pytest.raises(ValueError):
        SimConfig(**{**ok, "max_trials": 10, "min_errors": 11})
    with pytest.raises(ValueError):
        SimConfig(**{**ok, "engine": "nope"})
    with pytest.raises(ValueError):
        SimConfig(**{**ok, "channel_mode": "nope"})
    with pytest.raises(ValueError):
        SimConfig(**{**ok, "damping": 1.0})
    with pytest.raises(ValueError):
        SimConfig(**{**ok, "workers": 0})


def test_config_system_mismatch_detected():
    config = SimConfig(K=4, N=2, J=2, M=4, design="lds", snr_grid_db=(4.0,))
    from scma.codebook import build_named_system

    other = build_named_system("lds", 4, 2, 6, 4)
    with pytest.raises(ValueError):
        run_sweep(config, other)


# ---------------------------------------------------------------------------
# run_point / run_sweep behaviour


def small_config(**overrides):
    base = dict(
        K=4, N=2, J=6, M=4, design="4pt",
        snr_grid_db=(4.0, 6.0), seed=9, min_errors=60, max_trials=8_000,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_repeat_runs_identical():
    config = small_config()
    a = run_sweep(config)
    b = run_sweep(config)
    assert a.points == b.points  # seconds excluded from comparison


def test_worker_count_does_not_change_results():
    a = run_sweep(small_config(workers=1))
    b = run_sweep(small_config(workers=4))
    assert a.points == b.points


def test_stop_rule_and_counts():
    config = small_config(snr_grid_db=(4.0,), min_errors=60, max_trials=8_000)
    point = run_point(config.build_system(), config, 4.0, 0)
    assert point.sym_errors >= 60 or point.trials == 8_000
    assert point.trials % 128 == 0 or point.trials == 8_000
    assert point.bit_errors <= point.sym_errors * 2
    assert 0.0 <= point.ser <= 1.0
    assert 0.0 <= point.ber <= 1.0


def test_max_trials_respected_when_error_starved():
    config = small_config(snr_grid_db=(60.0,), min_errors=100, max_trials=512)
    point = run_point(config.build_system(), config, 60.0, 0)
    assert point.trials == 512
    assert point.sym_errors == 0


def test_noiseless_map_engine_recovery():
    config = SimConfig(
        K=4, N=2, J=6, M=4, design="4pt", engine="map_oracle",
        snr_grid_db=(60.0,), seed=1, min_errors=1, max_trials=1_024,
    )
    result = run_sweep(config)
    assert result.points[0].trials == 1_024
    assert result.points[0].sym_errors == 0
    assert result.points[0].ser == 0.0


def test_qpsk_single_layer_matches_closed_form():
    config = SimConfig(
        K=4, N=2, J=1, M=4, design="lds",
        snr_grid_db=(0.0, 2.0), seed=17, min_errors=250, max_trials=40_000,
    )
    result = run_sweep(config)
    for point in result.points:
        target = qpsk_ser(point.snr_db)
        assert abs(point.ser - target) <= 3 * point.ser_ci95


def test_sweep_rows_and_empty_grid():
    config = small_config(snr_grid_db=(4.0, 5.0, 6.0), min_errors=30, max_trials=2_048)
    result = run_sweep(config)
    assert len(result.points) == 3
    lines = csv_lines(result)
    assert sum(1 for l in lines if not l.startswith("#")) == 4  # header + 3 rows
    with pytest.raises(ValueError):
        small_config(snr_grid_db=())


def test_ser_monotone_within_tolerance():
    config = small_config(
        snr_grid_db=(4.0, 6.0, 8.0), min_errors=100, max_trials=30_000
    )
    points = run_sweep(config).points
    for lo, hi in zip(points, points[1:]):
        assert hi.ser <= lo.ser + 3 * (lo.ser_ci95 + hi.ser_ci95)


def test_engine_cross_check_mpa_vs_map():
    shared = dict(
        K=4, N=2, J=6, M=4, design="4pt",
        snr_grid_db=(6.0,), seed=23, min_errors=100, max_trials=20_000,
    )
    mpa = run_sweep(SimConfig(engine="mpa", **shared)).points[0]
    oracle = run_sweep(SimConfig(engine="map_oracle", **shared)).points[0]
    assert abs(mpa.ser - oracle.ser) <= 3 * (mpa.ser_ci95 + oracle.ser_ci95)


def test_collapsed_engine_matches_plain_counts():
    base = dict(
        K=4, N=2, J=6, M=16, design="lowproj",
        snr_grid_db=(8.0,), seed=3, min_errors=40, max_trials=2_048,
    )
    plain = run_sweep(SimConfig(engine="mpa", **base)).points[0]
    fast = run_sweep(SimConfig(engine="mpa_collapsed", **base)).points[0]
    assert plain.sym_errors == fast.sym_errors
    assert plain.trials == fast.trials


def test_split_engine_matches_mpa():
    base = dict(
        K=4, N=2, J=2, M=16, design="t16",
        snr_grid_db=(12.0,), seed=5, min_errors=60, max_trials=8_000,
    )
    joint = run_sweep(SimConfig(engine="mpa", **base)).points[0]
    split = run_sweep(SimConfig(engine="split", **base)).points[0]
    assert joint.sym_errors == split.sym_errors


# ---------------------------------------------------------------------------
# CSV output


def test_csv_byte_determinism():
    a = csv_lines(run_sweep(small_config(min_errors=30, max_trials=2_048)))
    b = csv_lines(run_sweep(small_config(min_errors=30, max_trials=2_048)))
    assert a == b


def test_csv_workers_do_not_leak_into_bytes():
    a = csv_lines(run_sweep(small_config(min_errors=30, max_trials=2_048, workers=1)))
    b = csv_lines(run_sweep(small_config(min_errors=30, max_trials=2_048, workers=3)))
    assert a == b


def test_csv_format():
    result = run_sweep(small_config(snr_grid_db=(4.0,), min_errors=20, max_trials=1_024))
    lines = csv_lines(result)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "snr_db,trials,sym_errors,bit_errors,ser,ber,ser_ci95,ber_ci95,seconds"
    row = lines[-1].split(",")
    assert len(row) == 9
    assert row[-1] == "0.0"  # wall time pinned in files
    assert any(l.startswith("# seed=9") for l in lines)
    # measured wall time still available in memory
    assert result.points[0].seconds > 0.0


# ---------------------------------------------------------------------------
# paired experiments (thin smoke, full runs live in the acceptance suite)


def test_run_experiment_power_variation_shape():
    results = run_experiment(
        "power_variation", snr_grid_db=(5.0,), J=2, seed=1, min_errors=25,
        max_trials=4_096,
    )
    assert list(results) == ["scma_4pt", "lds_qpsk"]
    for result in results.values():
        assert result.config.J == 2
        assert len(result.points) == 1
    with pytest.raises(ValueError):
        run_experiment("no_such_experiment")


def test_run_experiment_shaping_shape():
    assert list(EXPERIMENTS["shaping"][1]) == [
        "uplink_rayleigh/scma_t16", "uplink_rayleigh/lds_16qam",
        "awgn/scma_t16", "awgn/lds_16qam",
    ]
    results = run_experiment(
        "shaping",
        labels=("uplink_rayleigh/scma_t16", "uplink_rayleigh/lds_16qam"),
        snr_grid_db=(16.0,), seed=1, min_errors=25, max_trials=4_096,
    )
    assert set(results) == {"uplink_rayleigh/scma_t16", "uplink_rayleigh/lds_16qam"}
    for result in results.values():
        assert result.config.snr_convention == "total"
        assert result.config.J == 2
