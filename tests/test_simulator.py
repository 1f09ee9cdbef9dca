import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scma import simulator
from scma.channel_model import sample_gains, sample_noise, superpose
from scma.codebook import build_named_system
from scma.mpa_detector import batch_mpa
from scma.simulator import (
    EXPERIMENTS,
    MAX_WORKERS,
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
    SimConfig(**{**ok, "K": np.int64(4), "seed": np.uint32(3)})  # numpy integers are integers
    with pytest.raises(ValueError):
        SimConfig(**{**ok, "snr_grid_db": ()})
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            SimConfig(**{**ok, "snr_grid_db": (4.0, bad)})
    for field in ("K", "N", "J", "M"):
        with pytest.raises(ValueError, match="must be positive"):
            SimConfig(**{**ok, field: 0})
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SimConfig(**{**ok, "seed": -1})
    # finite SNRs whose noise variance overflows or underflows to 0
    for bad in (-3100.0, 4000.0):
        for convention in ("per_layer", "total"):
            with pytest.raises(ValueError, match=f"snr grid value {bad:g} dB"):
                SimConfig(**{**ok, "snr_grid_db": (4.0, bad), "snr_convention": convention})
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
    # split and the MAP oracle run undamped
    for engine in ("split", "map_oracle"):
        with pytest.raises(ValueError, match=f"engine '{engine}' runs undamped"):
            SimConfig(**{**ok, "engine": engine, "damping": 0.3})
    # run_point keeps 2 * workers windows in flight
    assert SimConfig(**{**ok, "workers": MAX_WORKERS}).workers == MAX_WORKERS
    for workers in (0, MAX_WORKERS + 1, 10**6):
        with pytest.raises(ValueError, match="workers"):
            SimConfig(**{**ok, "workers": workers})
    # split detection needs real gains, and these draw complex ones
    for mode in ("downlink", "uplink_rayleigh"):
        with pytest.raises(ValueError):
            SimConfig(**{**ok, "engine": "split", "channel_mode": mode})


@pytest.mark.parametrize(
    "call,field",
    [
        (lambda: SimConfig(K=4.0), "K"),
        (lambda: SimConfig(max_iter=2.5), "max_iter"),
        (lambda: SimConfig(workers=1.5), "workers"),
        (lambda: SimConfig(min_errors=10.5), "min_errors"),
        (lambda: SimConfig(seed=True), "seed"),
        (lambda: batch_mpa(np.zeros((1, 4), complex), np.ones((1, 6, 4), complex),
                           build_named_system("4pt", 4, 2, 6, 4), 0.1, max_iter=2.5), "max_iter"),
    ],
    ids=["K", "max_iter", "workers", "min_errors", "seed", "batch_mpa-max_iter"],
)
def test_integer_fields_reject_non_integers(call, field):
    # a float or a bool in an integer field fails at the boundary, naming
    # the field, rather than deep inside a run or (workers, min_errors) not
    # at all
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        call()


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


def test_low_projection_loses_diversity_under_rayleigh():
    # lowproj shares coordinates between codewords (zero minimum product
    # distance), so one faded tone can erase a decision: diversity one, SER
    # falling about 0.1 decades per dB. t16 keeps every coordinate distinct
    # and falls about twice as fast. Measured slopes over seeds 0-3: lowproj
    # 0.109-0.121, t16 0.179-0.192 decades per dB.
    lo, hi = 12.0, 20.0
    slopes = {}
    for design in ("lowproj", "t16"):
        config = SimConfig(
            K=4, N=2, J=1, M=16, design=design, channel_mode="uplink_rayleigh",
            engine="map_oracle", snr_grid_db=(lo, hi), seed=0,
            min_errors=40, max_trials=200_000,
        )
        points = run_sweep(config).points
        assert all(p.sym_errors >= config.min_errors for p in points)
        slopes[design] = math.log10(points[0].ser / points[1].ser) / (hi - lo)
    assert slopes["t16"] >= slopes["lowproj"] + 0.04


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


def test_split_preconditions_checked_before_first_block(monkeypatch):
    # 4pt has e^{i pi/3} operator phases, so split detection cannot apply
    calls = []
    monkeypatch.setattr(simulator, "_run_block", lambda *args: calls.append(args))
    config = SimConfig(design="4pt", engine="split", snr_grid_db=(8.0,))
    with pytest.raises(ValueError, match="split"):
        run_sweep(config)
    with pytest.raises(ValueError, match="split"):
        run_point(config.build_system(), config, 8.0)
    assert calls == []


def test_split_engine_matches_mpa():
    base = dict(
        K=4, N=2, J=2, M=16, design="t16",
        snr_grid_db=(12.0,), seed=5, min_errors=60, max_trials=8_000,
    )
    joint = run_sweep(SimConfig(engine="mpa", **base)).points[0]
    split = run_sweep(SimConfig(engine="split", **base)).points[0]
    assert joint.sym_errors == split.sym_errors


# ---------------------------------------------------------------------------
# windows of blocks per detector call


def record_calls(monkeypatch):
    """Trials of every detector call run_point makes, in call order, recorded
    through the module attributes batch_mpa, batch_split and batch_map, the
    seam a tracer wraps after import."""
    sizes = []

    def recorder(engine):
        def recorded(y, *args):
            sizes.append(y.shape[0])
            return engine(y, *args)
        return recorded

    for name in ("batch_mpa", "batch_split", "batch_map"):
        monkeypatch.setattr(simulator, name, recorder(getattr(simulator, name)))
    return sizes


WINDOW_CASES = [
    dict(design="4pt", engine="mpa"),
    dict(design="lds", engine="mpa_collapsed"),
    dict(design="t16", J=2, M=16, engine="split"),
    dict(design="4pt", J=4, engine="map_oracle"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", WINDOW_CASES, ids=lambda c: c["engine"])
def test_windows_do_not_change_points(monkeypatch, case, workers):
    # with one worker mpa, mpa_collapsed and map_oracle each stop inside a
    # window at one of the first three points; the error-starved last point
    # ends on a partial block
    config = small_config(
        snr_grid_db=(2.0, 4.0, 6.0, 40.0), seed=1, min_errors=100, max_trials=3_000,
        workers=workers, **case,
    )
    sizes = record_calls(monkeypatch)
    windowed = run_sweep(config)
    assert max(sizes) > simulator.BLOCK_TRIALS
    sizes.clear()
    monkeypatch.setattr(simulator, "MAX_WINDOW_ENTRIES", 1)
    blockwise = run_sweep(config)
    assert max(sizes) == simulator.BLOCK_TRIALS
    assert windowed.points == blockwise.points


@pytest.mark.parametrize("workers", [1, 2])
def test_collapsed_sweep_collapses_projections_once_per_point(monkeypatch, workers):
    # the tracer wraps simulator.collapse_projections too: one call per point,
    # however many windows the point runs
    collapse, systems = simulator.collapse_projections, []

    def recorded(system):
        systems.append(system)
        return collapse(system)

    monkeypatch.setattr(simulator, "collapse_projections", recorded)
    sizes = record_calls(monkeypatch)
    config = small_config(design="lowproj", M=16, engine="mpa_collapsed",
                          snr_grid_db=(14.0, 16.0, 18.0), min_errors=500, max_trials=512,
                          workers=workers)
    run_sweep(config)
    assert len(sizes) > 3
    assert len(systems) == 3


# 16-symbol messages, collapsed edges summing several symbols each, and
# batch_map slices of 8 trials
EXTRA_CASES = [
    dict(design="lowproj", M=16, engine="mpa"),
    dict(design="lowproj", M=16, engine="mpa_collapsed"),
    dict(design="t16", J=4, M=16, engine="map_oracle"),
]


@pytest.mark.parametrize(
    "case", WINDOW_CASES + EXTRA_CASES,
    ids=lambda c: c["engine"] if c in WINDOW_CASES else f"{c['design']}-{c['engine']}",
)
def test_detectors_give_same_marginals_on_concatenated_blocks(case):
    # windows rely on every engine treating trials independently, bit for bit
    config = small_config(**case)
    system = config.build_system()
    rng = np.random.default_rng(11)
    blocks = []
    # a lone trial and 129 trials leave the kernels' last (trial) axis
    # trivial or odd in length; 17 trials leave t16 J=4 batch_map a
    # one-trial tail slice
    for size in (128, 128, 40, 129, 17, 1):
        tx = rng.integers(0, config.M, (size, config.J))
        cw = np.stack([system.codebooks[j].codewords[tx[:, j]]
                       for j in range(config.J)], axis=1)
        gains = sample_gains("awgn", config.J, config.K, rng, size=size)
        blocks.append((superpose(cw, gains, sample_noise(0.2, config.K, rng, size)), gains))

    detect = simulator._detector(system, config)[0]
    whole = detect(*(np.concatenate(a) for a in zip(*blocks)), 0.2)
    assert np.array_equal(whole, np.concatenate([detect(y, g, 0.2) for y, g in blocks]))


def entries_per_trial(system, engine):
    config = SimConfig(K=system.n_resources, N=system.n_active, J=system.n_layers,
                       M=system.alphabet_size, engine=engine)
    return simulator._detector(system, config)[1]


def test_split_windows_count_the_entries_split_builds():
    # each lowproj half shows 3 values per dimension: 3 + 3 per resource, and
    # the 4-point map oracle builds the joint table
    from scma.codebook import build_named_system

    system = build_named_system("lowproj", 4, 2, 2, 16)
    assert entries_per_trial(system, "split") == 4 * (3 + 3)
    system = build_named_system("4pt", 4, 2, 6, 4)
    assert entries_per_trial(system, "map_oracle") == 4**6


@pytest.mark.parametrize("design,n_layers,built,collapsed", [
    pytest.param("rotated", 4, 4 * 16**2, 4 * 9**2, id="4-1024-324"),
    pytest.param("rotated", 2, 4 * 16, 4 * 9, id="2-64-36"),
    pytest.param("4pt", 6, 4 * 4**3, 4 * 4**3, id="4pt-6-256-256"),
])
def test_mpa_windows_count_the_entries_mpa_builds(design, n_layers, built, collapsed):
    # the plain rotation's projections differ only by rounding, so plain mpa
    # builds over all 16 values per edge, and only mpa_collapsed over 9; no
    # 4-point edge repeats a value, so both build the symbol combinations
    from scma.codebook import build_named_system, build_system
    from scma.constellation import (
        base_lattice, optimize_rotation_projections, rotate, shuffle_construct,
    )

    if design == "rotated":
        _, r = optimize_rotation_projections(base_lattice(2, 4), 9)
        u = rotate(base_lattice(2, 4), r)
        system = build_system(4, 2, n_layers, shuffle_construct(u, u))
    else:
        system = build_named_system(design, 4, 2, n_layers, 4)
    assert entries_per_trial(system, "mpa") == built
    assert entries_per_trial(system, "mpa_collapsed") == collapsed


CAPPED_CASES = [
    # design, M, engine, table entries per trial, most trials per call
    ("4pt", 4, "mpa", 4 * 4**3, 512),
    # one block already exceeds the cap on these kernel-bound engines
    ("lowproj", 16, "mpa", 4 * 9**3, 128),
    ("lowproj", 16, "mpa_collapsed", 4 * 9**3, 128),
    ("4pt", 4, "map_oracle", 4**6, 128),
]


@pytest.mark.parametrize("design,m,engine,entries,most", CAPPED_CASES)
def test_detector_calls_stay_within_entry_cap(monkeypatch, design, m, engine, entries, most):
    config = SimConfig(
        K=4, N=2, J=6, M=m, design=design, engine=engine,
        channel_mode="uplink_rayleigh", snr_grid_db=(12.0,), seed=2,
        min_errors=1_000, max_trials=1_000,
    )
    sizes = record_calls(monkeypatch)
    point = run_sweep(config).points[0]
    assert sum(sizes) >= point.trials
    assert max(sizes) == most
    for size in sizes:
        assert size <= simulator.BLOCK_TRIALS or size * entries <= simulator.MAX_WINDOW_ENTRIES


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


def test_csv_echo_reads_python_numbers_for_numpy_inputs():
    typed = dict(J=np.int64(2), seed=np.int64(9), min_errors=np.int32(20),
                 damping=np.float64(0.0), snr_grid_db=[np.float64(4.0)])
    plain = dict(J=2, seed=9, min_errors=20, damping=0.0, snr_grid_db=(4.0,))
    a = csv_lines(run_sweep(small_config(**typed, max_trials=1_024)))
    b = csv_lines(run_sweep(small_config(**plain, max_trials=1_024)))
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
