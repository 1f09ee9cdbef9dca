"""Monte Carlo link-level simulation with seeded, schedule-independent runs.

Trials are partitioned into fixed blocks of 128; each block owns a counter
derived generator, so the random stream of a block depends only on
(seed, point index, block index). Consecutive blocks are detected in
windows, one detector call each, capped by the likelihood-table entries
the call builds; the stop is still decided block by block and the trials
past it are discarded. Workers may evaluate windows in any order, and
neither they nor the window sizes change a byte of the sweep output.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .channel_model import (
    CHANNEL_MODES,
    SNR_CONVENTIONS,
    sample_gains,
    sample_noise,
    snr_to_noise_variance,
    superpose,
)
from .codebook import ScmaSystem, build_named_system
from .mpa_detector import batch_map, batch_mpa, batch_split, collapse_projections, table_entries

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
# likelihood-table entries per detector call over a window of blocks (one
# block always runs); larger calls gain little speed and cost peak memory
MAX_WINDOW_ENTRIES = 1 << 17
MAX_WORKERS = 64  # thread-pool size; run_point keeps 2 * workers windows in flight
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
        ints = ("K", "N", "J", "M", "seed", "min_errors", "max_trials", "max_iter", "workers")
        for name in ints:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        if self.engine == "split" and self.channel_mode != "awgn":
            raise ValueError("split detection needs real gains: channel_mode 'awgn'")
        if len(self.snr_grid_db) == 0:
            raise ValueError("snr grid must be nonempty")
        if not all(math.isfinite(v) for v in self.snr_grid_db):
            raise ValueError("snr grid values must be finite")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if min(self.K, self.N, self.J, self.M) < 1:
            raise ValueError("K, N, J and M must be positive")
        # each point's noise variance, checked by NoiseModel before any point runs
        shape = SimpleNamespace(n_resources=self.K, n_layers=self.J)
        for v in self.snr_grid_db:
            try:
                snr_to_noise_variance(v, shape, self.snr_convention)
            except ValueError as exc:
                raise ValueError(f"snr grid value {v:g} dB: {exc}") from None
        if self.min_errors < 1:
            raise ValueError("min_errors must be at least 1")
        if self.max_trials < self.min_errors:
            raise ValueError("max_trials must be at least min_errors")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if self.damping and self.engine in ("split", "map_oracle"):
            raise ValueError(f"engine {self.engine!r} runs undamped; damping must be 0")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must lie in [1, {MAX_WORKERS}]")
        # Python numbers, so that the CSV echo reads the same for numpy inputs
        for name in ints:
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "damping", float(self.damping))
        object.__setattr__(self, "snr_grid_db", tuple(float(v) for v in self.snr_grid_db))

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


def _detector(system: ScmaSystem, config: SimConfig):
    """The engine's window call detect(y, gains, noise_var) and the table
    entries it builds per trial, as table_entries counts them (M**J for
    map_oracle). detect looks the batch engine up in this module when it
    runs, so a wrapper put over it after import sees every call."""
    it, damping = config.max_iter, config.damping
    if config.engine == "map_oracle":
        return (lambda y, g, nv: batch_map(y, g, system, nv)), system.alphabet_size**system.n_layers
    if config.engine == "split":
        return ((lambda y, g, nv: batch_split(y, g, system, nv, it)),
                sum(table_entries(system, split=True)))
    tables = collapse_projections(system) if config.engine == "mpa_collapsed" else None
    return ((lambda y, g, nv: batch_mpa(y, g, system, nv, it, damping, tables)),
            sum(table_entries(system, tables)))


def _run_block(system, config, noise_var, point_index, blocks, consts):
    """Simulate the seeded blocks `blocks` with one detector call; returns
    (trials, sym_errors, bit_errors) of each block, in block order."""
    weights, popcount, codebook, detect = consts
    j, k = system.n_layers, system.n_resources
    layers = np.arange(j)
    sizes, parts = [], []
    for b in blocks:
        seq = np.random.SeedSequence([config.seed, point_index, b])
        rng = np.random.default_rng(seq)
        size = min(BLOCK_TRIALS, config.max_trials - b * BLOCK_TRIALS)
        tx_bits = rng.integers(0, 2, size=(size, j, len(weights)), dtype=np.int64)
        tx_labels = tx_bits @ weights
        tx_sym = system.mother.encode(tx_labels)
        gains = sample_gains(config.channel_mode, j, k, rng, size=size)
        noise = sample_noise(noise_var, k, rng, size=size)
        y = superpose(codebook[layers, tx_sym], gains, noise)
        sizes.append(size)
        parts.append((tx_labels, tx_sym, gains, y))
    tx_labels, tx_sym, gains, y = (np.concatenate(a) for a in zip(*parts))
    del parts  # free the per-block arrays before the detector allocates its tables
    marginals = detect(y, gains, noise_var)
    hard = marginals.argmax(axis=2)
    sym_errors = (hard != tx_sym).sum(axis=1)
    bit_errors = popcount[system.mother.labels[hard] ^ tx_labels].sum(axis=1)
    starts = np.cumsum([0] + sizes[:-1])
    per_block = (np.add.reduceat(e, starts).tolist() for e in (sym_errors, bit_errors))
    return list(zip(sizes, *per_block))


def run_point(
    system: ScmaSystem,
    config: SimConfig,
    snr_db: float,
    point_index: int = 0,
) -> SimPoint:
    """Simulate one SNR point until min_errors symbol errors or max_trials.

    Blocks are detected in windows of consecutive blocks, one detector call
    each, but the stopping rule is evaluated between blocks in block order:
    the stopping trial count is a pure function of (config, snr point), and
    the trials of a window past the stop are discarded.
    """
    _check_system(system, config)
    noise = snr_to_noise_variance(snr_db, system, config.snr_convention)
    detect, entries_per_trial = _detector(system, config)
    bits = system.mother.bits_per_symbol
    consts = (
        1 << np.arange(bits - 1, -1, -1, dtype=np.int64),
        np.array([bin(v).count("1") for v in range(1 << bits)], dtype=np.int64),
        np.stack([cb.codewords for cb in system.codebooks]),
        detect,
    )
    start = time.perf_counter()
    trials = sym_errors = bit_errors = 0

    n_blocks = math.ceil(config.max_trials / BLOCK_TRIALS)
    cap = max(1, MAX_WINDOW_ENTRIES // (BLOCK_TRIALS * entries_per_trial))
    pool = ThreadPoolExecutor(config.workers) if config.workers > 1 else None
    in_flight = 2 * config.workers if pool else 1
    pending = deque()
    done = submitted = 0
    with pool or nullcontext():
        while sym_errors < config.min_errors and done < n_blocks:
            while len(pending) < in_flight and submitted < n_blocks:
                # the blocks the error rate so far says the point needs, less
                # those submitted; with no error yet, twice the blocks done
                need = (
                    math.ceil(done * config.min_errors / sym_errors)
                    if sym_errors else 3 * done
                ) - submitted
                # beyond one window per worker, speculate only on blocks the
                # estimate still asks for
                if need <= 0 and len(pending) >= config.workers:
                    break
                w = min(cap, n_blocks - submitted, max(1, need))
                job = (system, config, noise.variance, point_index,
                       range(submitted, submitted + w), consts)
                pending.append(pool.submit(_run_block, *job) if pool else job)
                submitted += w
            head = pending.popleft()
            for t, s, be in head.result() if pool else _run_block(*head):
                if sym_errors >= config.min_errors:
                    break
                trials += t
                sym_errors += s
                bit_errors += be
                done += 1
        for f in pending:
            f.cancel()

    j = system.n_layers
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
    points = tuple(
        run_point(system, config, snr_db, point_index=i)
        for i, snr_db in enumerate(config.snr_grid_db)
    )
    return SimResult(config=config, points=points)


def _check_system(system: ScmaSystem, config: SimConfig) -> None:
    got = (system.n_resources, system.n_active, system.n_layers, system.alphabet_size)
    want = (config.K, config.N, config.J, config.M)
    if got != want:
        raise ValueError(f"system (K,N,J,M)={got} does not match config {want}")
    if config.engine == "split" and not system.is_separable:
        raise ValueError("split detection needs a separable mother and +-1 phases")


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
    # every run's config is checked before the first run starts
    configs = {label: SimConfig(**{**shared, **runs[label], **fields})
               for label in (runs if labels is None else labels)}
    return {label: run_sweep(config) for label, config in configs.items()}


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
