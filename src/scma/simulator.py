"""Monte Carlo link-level simulation with seeded, schedule-independent runs.

Trials are partitioned into fixed blocks of 128; each block owns a counter
derived generator, so the random stream of a block depends only on
(seed, point index, block index). Workers may evaluate blocks in any
order and the sweep output stays bit-identical.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel_model import (
    CHANNEL_MODES,
    SNR_CONVENTIONS,
    sample_gains,
    sample_noise,
    snr_to_noise_variance,
)
from .codebook import ScmaSystem, build_named_system
from .mpa_detector import batch_map, batch_mpa, batch_split, collapse_projections

__all__ = [
    "BLOCK_TRIALS",
    "ENGINES",
    "SimConfig",
    "SimPoint",
    "SimResult",
    "wilson_halfwidth",
    "run_point",
    "run_sweep",
    "EXPERIMENTS",
    "run_experiment",
    "write_csv",
    "write_compare_csv",
]

BLOCK_TRIALS = 128
ENGINES = ("mpa", "mpa_collapsed", "split", "map_oracle")
WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a sweep, including every random draw."""

    K: int = 4
    N: int = 2
    J: int = 6
    M: int = 4
    design: str = "4pt"
    channel_mode: str = "awgn"
    snr_convention: str = "per_layer"
    snr_grid_db: tuple[float, ...] = (4.0, 8.0, 12.0)
    seed: int = 0
    min_errors: int = 100
    max_trials: int = 100_000
    max_iter: int = 8
    damping: float = 0.0
    engine: str = "mpa"
    workers: int = 1

    def __post_init__(self):
        # design is only an echo label for systems loaded from a file; it
        # must name one of SCHEMES when build_system is expected to work
        if not self.design:
            raise ValueError("design must be a nonempty string")
        if self.channel_mode not in CHANNEL_MODES:
            raise ValueError(f"channel_mode must be one of {CHANNEL_MODES}")
        if self.snr_convention not in SNR_CONVENTIONS:
            raise ValueError(f"snr_convention must be one of {SNR_CONVENTIONS}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if len(self.snr_grid_db) == 0:
            raise ValueError("snr grid must be nonempty")
        if not all(math.isfinite(v) for v in self.snr_grid_db):
            raise ValueError("snr grid values must be finite")
        if self.min_errors < 1:
            raise ValueError("min_errors must be at least 1")
        if self.max_trials < self.min_errors:
            raise ValueError("max_trials must be at least min_errors")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def build_system(self) -> ScmaSystem:
        return build_named_system(self.design, self.K, self.N, self.J, self.M)


@dataclass(frozen=True)
class SimPoint:
    """One SNR point of a sweep; `seconds` is wall time, excluded from
    equality so that identically seeded runs compare equal."""

    snr_db: float
    trials: int
    sym_errors: int
    bit_errors: int
    ser: float
    ber: float
    ser_ci95: float
    ber_ci95: float
    seconds: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    points: tuple[SimPoint, ...]


def wilson_halfwidth(errors: int, trials: int, z: float = WILSON_Z) -> float:
    """Half-width of the Wilson score interval for errors/trials."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    p = errors / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def _detect(engine, y, gains, system, noise_var, max_iter, damping, tables):
    if engine in ("mpa", "mpa_collapsed"):
        return batch_mpa(y, gains, system, noise_var, max_iter, damping, tables)
    if engine == "split":
        return batch_split(y, gains, system, noise_var, max_iter)
    if engine == "map_oracle":
        return batch_map(y, gains, system, noise_var)
    raise ValueError(f"engine must be one of {ENGINES}")


def _run_block(system, config, noise_var, point_index, block, size, tables):
    """Simulate one seeded block; returns (trials, sym_errors, bit_errors)."""
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, point_index, block])
    )
    j, k = system.n_layers, system.n_resources
    m = system.alphabet_size
    bits = system.mother.bits_per_symbol
    weights = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)
    tx_bits = rng.integers(0, 2, size=(size, j, bits), dtype=np.int64)
    tx_labels = tx_bits @ weights
    tx_sym = system.mother.encode(tx_labels)
    codewords = np.zeros((size, j, k), dtype=np.complex128)
    for layer in range(j):
        codewords[:, layer, :] = system.codebooks[layer].codewords[tx_sym[:, layer]]
    gains = sample_gains(config.channel_mode, j, k, rng, size=size)
    noise = sample_noise(noise_var, k, rng, size=size)
    y = (gains * codewords).sum(axis=1) + noise
    marginals = _detect(
        config.engine, y, gains, system, noise_var,
        config.max_iter, config.damping, tables,
    )
    hard = marginals.argmax(axis=2)
    sym_errors = int((hard != tx_sym).sum())
    rx_labels = system.mother.labels[hard]
    popcount = np.array([bin(v).count("1") for v in range(m)], dtype=np.int64)
    bit_errors = int(popcount[rx_labels ^ tx_labels].sum())
    return size, sym_errors, bit_errors


def run_point(
    system: ScmaSystem,
    config: SimConfig,
    snr_db: float,
    point_index: int = 0,
) -> SimPoint:
    """Simulate one SNR point until min_errors symbol errors or max_trials.

    The stopping rule is evaluated between blocks in block order, so the
    stopping trial count is a pure function of (config, snr point).
    """
    noise = snr_to_noise_variance(snr_db, system, config.snr_convention)
    tables = (
        collapse_projections(system) if config.engine == "mpa_collapsed" else None
    )
    start = time.perf_counter()
    trials = sym_errors = bit_errors = 0

    def block_size(b: int) -> int:
        return min(BLOCK_TRIALS, config.max_trials - b * BLOCK_TRIALS)

    def job(b: int):
        return _run_block(
            system, config, noise.variance, point_index, b, block_size(b), tables
        )

    n_blocks = math.ceil(config.max_trials / BLOCK_TRIALS)
    if config.workers == 1:
        for b in range(n_blocks):
            t, s, be = job(b)
            trials += t
            sym_errors += s
            bit_errors += be
            if sym_errors >= config.min_errors:
                break
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            pending = {}
            window = 2 * config.workers
            submitted = 0
            for b in range(n_blocks):
                while submitted < min(n_blocks, b + window):
                    pending[submitted] = pool.submit(job, submitted)
                    submitted += 1
                t, s, be = pending.pop(b).result()
                trials += t
                sym_errors += s
                bit_errors += be
                if sym_errors >= config.min_errors:
                    for f in pending.values():
                        f.cancel()
                    break

    j = system.n_layers
    bits = system.mother.bits_per_symbol
    n_sym = trials * j
    n_bit = trials * j * bits
    return SimPoint(
        snr_db=float(snr_db),
        trials=trials,
        sym_errors=sym_errors,
        bit_errors=bit_errors,
        ser=sym_errors / n_sym,
        ber=bit_errors / n_bit,
        ser_ci95=wilson_halfwidth(sym_errors, n_sym),
        ber_ci95=wilson_halfwidth(bit_errors, n_bit),
        seconds=time.perf_counter() - start,
    )


def run_sweep(config: SimConfig, system: ScmaSystem | None = None) -> SimResult:
    """Run every SNR point of the grid with per-point derived sub-seeds."""
    if system is None:
        system = config.build_system()
    else:
        _check_system_matches(system, config)
    points = tuple(
        run_point(system, config, snr_db, point_index=i)
        for i, snr_db in enumerate(config.snr_grid_db)
    )
    return SimResult(config=config, points=points)


def _check_system_matches(system: ScmaSystem, config: SimConfig) -> None:
    got = (system.n_resources, system.n_active, system.n_layers, system.alphabet_size)
    want = (config.K, config.N, config.J, config.M)
    if got != want:
        raise ValueError(f"system (K,N,J,M)={got} does not match config {want}")


# ---------------------------------------------------------------------------
# paired experiments


# Per experiment: the SimConfig fields its runs share, then each labelled
# run's own fields, in output order.
EXPERIMENTS = {
    # uneven-tone-power 4-point design against QPSK spreading
    "power_variation": (
        dict(K=4, N=2, J=6, M=4, channel_mode="awgn", snr_convention="per_layer",
             snr_grid_db=(4.0, 5.0, 6.0, 7.0), min_errors=200, max_trials=400_000),
        {"scma_4pt": dict(design="4pt"), "lds_qpsk": dict(design="lds")},
    ),
    # shaped 16-point two-tone design against repeated 16QAM, 2 disjoint layers
    "shaping": (
        dict(K=4, N=2, J=2, M=16, snr_convention="total",
             snr_grid_db=(14.0, 18.0, 22.0), min_errors=200, max_trials=400_000),
        {
            f"{mode}/{label}": dict(channel_mode=mode, design=design)
            for mode in ("uplink_rayleigh", "awgn")
            for label, design in (("scma_t16", "t16"), ("lds_16qam", "lds"))
        },
    ),
}


def run_experiment(
    name: str, labels: tuple[str, ...] | None = None, **fields
) -> dict[str, SimResult]:
    """Run the labelled runs of EXPERIMENTS[name] (all, or those in `labels`),
    with `fields` overriding SimConfig fields of every run."""
    if name not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {tuple(EXPERIMENTS)}")
    shared, runs = EXPERIMENTS[name]
    return {
        label: run_sweep(SimConfig(**{**shared, **runs[label], **fields}))
        for label in (runs if labels is None else labels)
    }


# ---------------------------------------------------------------------------
# CSV output

CSV_COLUMNS = (
    "snr_db", "trials", "sym_errors", "bit_errors",
    "ser", "ber", "ser_ci95", "ber_ci95", "seconds",
)


def _config_echo(config: SimConfig) -> list[str]:
    # workers only schedules blocks, it never changes results, so it stays
    # out of the echo and files match across worker counts
    items = sorted(dataclasses.asdict(config).items())
    return [f"# {key}={value!r}" for key, value in items if key != "workers"]


def _point_row(point: SimPoint) -> str:
    # wall time is pinned to 0.0 in files so equal configs give equal bytes;
    # the measured value stays on the SimPoint
    values = [
        repr(point.snr_db), str(point.trials),
        str(point.sym_errors), str(point.bit_errors),
        repr(point.ser), repr(point.ber),
        repr(point.ser_ci95), repr(point.ber_ci95),
        "0.0",
    ]
    return ",".join(values)


def csv_lines(result: SimResult) -> list[str]:
    lines = _config_echo(result.config)
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(_point_row(p) for p in result.points)
    return lines


def write_csv(result: SimResult, path: str | Path) -> None:
    Path(path).write_text("\n".join(csv_lines(result)) + "\n")


def compare_csv_lines(results: dict[str, SimResult]) -> list[str]:
    lines = [",".join(CSV_COLUMNS)]
    for label, result in results.items():
        lines.append(f"# run={label}")
        lines.extend(_config_echo(result.config))
        lines.extend(_point_row(p) for p in result.points)
    return lines


def write_compare_csv(results: dict[str, SimResult], path: str | Path) -> None:
    Path(path).write_text("\n".join(compare_csv_lines(results)) + "\n")
