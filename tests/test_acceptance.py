"""Acceptance checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion. Each test also prints its measured values (visible with
-s or on failure). The slow Monte Carlo criteria stay well inside their
stated runtime budgets on a laptop-class machine.
"""

import itertools
import math
import time

import numpy as np

from scma.channel_model import sample_gains, sample_noise
from scma.codebook import (
    LayerOperator,
    ScmaSystem,
    apply_operator,
    build_codebook,
    build_named_system,
)
from scma.constellation import (
    GOLDEN_ANGLE,
    MotherConstellation,
    RealConstellation,
    base_lattice,
    min_product_distance,
    optimize_rotation_product_distance,
    optimize_rotation_projections,
    projections_per_dim,
    rotate,
    rotation_2d,
    shuffle_construct,
)
from scma.factor_graph import build_full_graph, mapping_matrix, overlap
from scma.mpa_detector import (
    batch_map,
    batch_mpa,
    batch_split,
    collapse_projections,
    complexity_report,
)
from scma.simulator import (
    SimConfig,
    run_experiment,
    run_sweep,
    wilson_halfwidth,
)
from scma.cli import main as cli_main


def sorted_pairwise(points):
    pts = np.asarray(points)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((np.abs(diff) ** 2).sum(axis=2))
    iu = np.triu_indices(len(pts), k=1)
    return np.sort(d[iu])


def test_criterion_01_combinatorics_exact():
    start = time.perf_counter()
    g = build_full_graph(4, 2)
    assert g.n_layers == 6
    assert set(g.degrees) == {3}
    assert g.overloading == 1.5
    for k in range(2, 9):
        for n in range(1, k):
            graph = build_full_graph(k, n)
            j = math.comb(k, n)
            df = math.comb(k - 1, n - 1)
            assert graph.n_layers == j
            assert set(graph.degrees) == {df}
            assert df * k == j * n
            lo, hi = max(0, 2 * n - k), n - 1
            for a, b in itertools.combinations(range(j), 2):
                l = overlap(graph.signature(a), graph.signature(b))
                assert lo <= l <= hi
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: combinatorics exact over K<=8 in {elapsed:.2f}s")


def test_criterion_02_isometry_100_cases():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(50):  # rotate on random symmetric real sets
        half = rng.standard_normal((4 + case % 3, 2))
        pts = np.vstack([half, -half])
        base = RealConstellation(pts)
        angle = rng.uniform(0.05, math.pi / 2 - 0.05)
        r = rotation_2d(angle)
        if case % 2:
            r = r @ np.diag([1.0, -1.0])
        rotated = rotate(base, r)
        err = np.abs(
            sorted_pairwise(rotated.points) - sorted_pairwise(base.points)
        ).max()
        worst = max(worst, err)
    for case in range(50):  # unit-phase operators on random mothers
        m = 8
        pts = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        pts /= math.sqrt(np.mean(np.sum(np.abs(pts) ** 2, axis=1)))
        mother = MotherConstellation(points=pts, labels=np.arange(m))
        op = LayerOperator(phases=np.exp(1j * rng.uniform(0, 2 * math.pi, 2)))
        out = apply_operator(mother, op)
        err = np.abs(
            sorted_pairwise(out.points) - sorted_pairwise(mother.points)
        ).max()
        worst = max(worst, err)
    assert worst <= 1e-9
    print(f"\nPASS criterion 2: isometry over 100 cases, worst deviation {worst:.1e}")


def test_criterion_03_rotation_optimum_vs_grid_oracle():
    start = time.perf_counter()
    base = base_lattice(2, 4)
    angle, r = optimize_rotation_product_distance(base, grid_step=1e-3)
    achieved = min_product_distance(rotate(base, r).points.astype(complex))
    analytic = min_product_distance(
        rotate(base, rotation_2d(GOLDEN_ANGLE)).points.astype(complex)
    )
    # independent oracle: dense grid evaluated directly, no shared search code
    grid = np.arange(1e-4, math.pi / 2, 1e-4)
    cos, sin = np.cos(grid), np.sin(grid)
    pts = base.points  # (4, 2)
    rx = pts[:, 0][None, :] * cos[:, None] - pts[:, 1][None, :] * sin[:, None]
    ry = pts[:, 0][None, :] * sin[:, None] + pts[:, 1][None, :] * cos[:, None]
    iu, ju = np.triu_indices(4, k=1)
    prods = np.abs(
        (rx[:, iu] - rx[:, ju]) * (ry[:, iu] - ry[:, ju])
    )
    oracle = prods.min(axis=1).max()
    elapsed = time.perf_counter() - start
    assert abs(achieved - analytic) <= 1e-6
    assert achieved >= oracle - 1e-6
    assert elapsed < 5.0
    print(
        f"\nPASS criterion 3: optimizer {achieved:.8f} vs analytic {analytic:.8f} "
        f"vs 1e-4 grid oracle {oracle:.8f} in {elapsed:.2f}s"
    )


def test_criterion_04_projection_variant():
    base = base_lattice(2, 4)
    _, r = optimize_rotation_projections(base, 9, grid_step=1e-3)
    u = rotate(base, r)
    mother = shuffle_construct(u, u)
    proj = projections_per_dim(mother)
    dp = min_product_distance(mother.points)
    assert mother.size == 16
    assert proj == (9, 9)
    assert dp == 0.0
    report = complexity_report(build_named_system("lowproj", 4, 2, 6, 16))
    assert report.plain == (4096,) * 4
    assert report.collapsed == (729,) * 4
    print(
        f"\nPASS criterion 4: projections {proj}, product distance {dp}, "
        f"729 vs 4096 hypotheses per resource"
    )


def test_criterion_05_mpa_close_to_map():
    start = time.perf_counter()
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(55)
    draws = 150
    nv = 10 ** (-8.0 / 10) / 4  # 8 dB per-layer convention
    tx = rng.integers(0, 4, (draws, 6))
    cw = np.stack([system.codebooks[j].codewords[tx[:, j]] for j in range(6)], axis=1)
    gains = np.ones((draws, 6, 4), dtype=complex)
    noise = sample_noise(nv, 4, rng, size=draws)
    y = cw.sum(axis=1) + noise
    marg_mpa = batch_mpa(y, gains, system, nv, max_iter=8)
    marg_map = batch_map(y, gains, system, nv)
    tv = 0.5 * np.abs(marg_mpa - marg_map).sum(axis=2).mean()
    err_mpa = int((marg_mpa.argmax(axis=2) != tx).sum())
    err_map = int((marg_map.argmax(axis=2) != tx).sum())
    n_sym = draws * 6
    hw = wilson_halfwidth(err_mpa, n_sym) + wilson_halfwidth(err_map, n_sym)
    elapsed = time.perf_counter() - start
    assert tv <= 0.05
    assert abs(err_mpa - err_map) / n_sym <= 3 * hw
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 5: mean TV {tv:.5f} <= 0.05, SER gap "
        f"{abs(err_mpa - err_map) / n_sym:.5f} <= {3 * hw:.5f} over {draws} draws "
        f"in {elapsed:.1f}s"
    )


def identity_phase_t16_system():
    graph = build_full_graph(4, 2)
    mother = build_named_system("t16", 4, 2, 2, 16).mother
    ops = tuple(LayerOperator(phases=np.ones(2, dtype=complex)) for _ in range(6))
    cbs = tuple(
        build_codebook(mother, ops[j], mapping_matrix(graph.signature(j)))
        for j in range(6)
    )
    return ScmaSystem(graph=graph, mother=mother, operators=ops, codebooks=cbs)


def test_criterion_06_equivalence_suites():
    # collapsed projections vs plain enumeration on the 9-projection system
    system = build_named_system("lowproj", 4, 2, 6, 16)
    tables = collapse_projections(system)
    rng = np.random.default_rng(66)
    worst_collapse = 0.0
    for block in range(5):  # 5 batches of 20 = 100 random inputs
        tx = rng.integers(0, 16, (20, 6))
        cw = np.stack(
            [system.codebooks[j].codewords[tx[:, j]] for j in range(6)], axis=1
        )
        gains = sample_gains("uplink_rayleigh", 6, 4, rng, size=20)
        y = (gains * cw).sum(axis=1) + sample_noise(0.1, 4, rng, size=20)
        plain = batch_mpa(y, gains, system, 0.1, max_iter=5)
        fast = batch_mpa(y, gains, system, 0.1, max_iter=5, tables=tables)
        worst_collapse = max(
            worst_collapse, 0.5 * np.abs(plain - fast).sum(axis=2).max()
        )
    assert worst_collapse <= 1e-9

    # split vs joint on a fully loaded separable system with real gains
    sep = identity_phase_t16_system()
    worst_split = 0.0
    for block in range(5):
        tx = rng.integers(0, 16, (20, 6))
        cw = np.stack([sep.codebooks[j].codewords[tx[:, j]] for j in range(6)], axis=1)
        gains = np.abs(rng.standard_normal((20, 6, 1))) * np.ones((20, 6, 4))
        gains = gains.astype(complex)
        y = (gains * cw).sum(axis=1) + sample_noise(0.15, 4, rng, size=20)
        joint = batch_mpa(y, gains, sep, 0.15, max_iter=6)
        split = batch_split(y, gains, sep, 0.15, max_iter=6)
        worst_split = max(worst_split, 0.5 * np.abs(joint - split).sum(axis=2).max())
    assert worst_split <= 1e-9
    print(
        f"\nPASS criterion 6: collapsed==plain (worst TV {worst_collapse:.1e}), "
        f"split==joint (worst TV {worst_split:.1e}), 100 inputs each"
    )


def test_criterion_07_power_variation_ordering():
    start = time.perf_counter()
    grid = (4.0, 5.0, 6.0, 7.0)
    full = run_experiment(
        "power_variation",
        snr_grid_db=grid, J=6, seed=7, min_errors=200, max_trials=400_000,
    )
    scma = full["scma_4pt"].points
    lds = full["lds_qpsk"].points
    for a, b in zip(scma, lds):
        assert 1e-3 <= a.ser <= 1e-1, f"scma ser {a.ser} outside window at {a.snr_db}"
        assert 1e-3 <= b.ser <= 1e-1, f"lds ser {b.ser} outside window at {b.snr_db}"
        assert a.ser <= b.ser, f"ordering violated at {a.snr_db} dB"
    pair = run_experiment(
        "power_variation",
        snr_grid_db=(4.0, 5.0), J=2, seed=7, min_errors=200, max_trials=400_000,
    )
    for a, b in zip(pair["scma_4pt"].points, pair["lds_qpsk"].points):
        assert abs(a.ser - b.ser) <= 3 * (a.ser_ci95 + b.ser_ci95)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    gaps = ", ".join(
        f"{a.snr_db:g}dB {a.ser:.2e}<={b.ser:.2e}" for a, b in zip(scma, lds)
    )
    print(
        f"\nPASS criterion 7: 6-layer ordering holds ({gaps}); 2-layer curves "
        f"agree within 3 half-widths; {elapsed:.0f}s"
    )


def test_criterion_08_shaping_ordering():
    start = time.perf_counter()
    grid = (14.0, 18.0, 22.0)
    results = run_experiment(
        "shaping",
        labels=("uplink_rayleigh/scma_t16", "uplink_rayleigh/lds_16qam"),
        snr_grid_db=grid, seed=8, min_errors=200, max_trials=400_000,
    )
    t16 = results["uplink_rayleigh/scma_t16"].points
    lds = results["uplink_rayleigh/lds_16qam"].points
    for a, b in zip(t16, lds):
        assert a.ser <= b.ser, f"ordering violated at {a.snr_db} dB"
    from scma.constellation import dimensional_power_metrics, repetition_qam_mother, t16qam

    spread_t16 = dimensional_power_metrics(t16qam()).spread
    spread_lds = dimensional_power_metrics(repetition_qam_mother(16, 2)).spread
    assert spread_t16 > 1.0
    assert spread_lds == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    gaps = ", ".join(
        f"{a.snr_db:g}dB {a.ser:.2e}<={b.ser:.2e}" for a, b in zip(t16, lds)
    )
    print(
        f"\nPASS criterion 8: fading ordering holds ({gaps}); power spread "
        f"{spread_t16:.2f} > 1 = {spread_lds:.0f}; {elapsed:.0f}s"
    )


def test_criterion_09_single_user_closed_form():
    config = SimConfig(
        K=4, N=2, J=1, M=4, design="lds",
        snr_grid_db=(0.0, 2.0, 4.0), seed=9, min_errors=300, max_trials=200_000,
    )
    result = run_sweep(config)
    report = []
    for point in result.points:
        sigma = math.sqrt(10 ** (-point.snr_db / 10) / 4)
        q = 0.5 * math.erfc(1.0 / sigma / math.sqrt(2.0))
        target = 2.0 * q - q * q
        assert abs(point.ser - target) <= 3 * point.ser_ci95
        report.append(f"{point.snr_db:g}dB {point.ser:.2e}~{target:.2e}")
    print(f"\nPASS criterion 9: QPSK closed form matched ({'; '.join(report)})")


def test_criterion_10_byte_identical_csv(tmp_path):
    sysfile = tmp_path / "system.json"
    assert cli_main(["design", "--scheme", "4pt", "--out", str(sysfile)]) == 0
    base = [
        "simulate", "--system", str(sysfile), "--channel", "awgn",
        "--snr", "4:8:2", "--seed", "12", "--min-errors", "50",
        "--max-trials", "10000",
    ]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    assert cli_main(base + ["--out", str(paths[0])]) == 0
    assert cli_main(base + ["--out", str(paths[1])]) == 0
    assert cli_main(base + ["--workers", "4", "--out", str(paths[2])]) == 0
    b0, b1, b2 = (p.read_bytes() for p in paths)
    assert b0 == b1
    assert b0 == b2
    print(
        f"\nPASS criterion 10: byte-identical CSV across repeat runs and "
        f"worker counts ({len(b0)} bytes)"
    )
