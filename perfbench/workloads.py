"""The benchmark's workloads: CLI commands, set-up, and why each was chosen.

Every workload runs the user-facing `scma` command line in-process. Set-up
commands (`design`) and the systems loaded or built before the first trial
count toward `setup_s`; sweep commands (`simulate`, `compare`) count toward
`trials_per_s` and `point_s_p50`. Placeholders: `{dir}` is the repetition's
scratch directory, `{seed}` the CLI seed, `{workers}` the worker count.

This module imports nothing from numpy or scma, so the parent process can
read it without loading either.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    design: tuple[str, ...]  # `scma design` commands run during set-up
    build: tuple[tuple, ...]  # build_named_system args of systems a `compare` builds itself
    sweeps: tuple[str, ...]  # timed `simulate` / `compare` commands
    agree: tuple[str, ...] = ()  # CSVs whose rows must match the first one's
    moves: str = ""  # layer metrics a change should move here
    stays: str = ""  # layer metrics predicted not to move here

    @property
    def threaded(self) -> bool:
        """True when the sweeps take a worker count."""
        return any("{workers}" in s for s in self.sweeps)

    @property
    def csvs(self) -> tuple[str, ...]:
        """Names of the CSVs the sweeps write into `{dir}`."""
        return tuple(s.split("--out {dir}/")[1].split()[0] for s in self.sweeps)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="power_variation",
            why="paper's headline 4pt vs LDS-QPSK AWGN compare; 64 hypotheses per "
            "resource, so per-call overhead dominates and kernel arithmetic barely shows",
            design=(),
            build=(("4pt", 4, 2, 6, 4), ("lds", 4, 2, 6, 4)),
            sweeps=(
                "compare --experiment power_variation --snr 4:7:1 --min-errors 200 "
                "--max-trials 40000 --seed {seed} --out {dir}/power_variation.csv",
            ),
            moves="mpa_detector.mpa.call_ms_p50 (128-trial blocks) and "
            "simulator.self_s move trials_per_s and point_s_p50",
            stays="hypotheses_per_s and table_mb_per_call barely matter; "
            "channel_model.share stays below 1%",
        ),
        Workload(
            name="lowproj_uplink",
            why="9-projection lowproj design under uplink Rayleigh, plain vs collapsed "
            "MPA on identical trials; 4096 vs 729 hypotheses, kernel arithmetic dominates",
            design=("design --scheme lowproj --m 16 --out {dir}/lowproj.json",),
            build=(),
            sweeps=tuple(
                f"simulate --system {{dir}}/lowproj.json --engine {engine} "
                "--channel uplink --snr 12,16,20 --min-errors 200 --max-trials 1024 "
                f"--seed {{seed}} --out {{dir}}/lowproj_uplink.{engine}.csv"
                for engine in ("mpa", "mpa_collapsed")
            ),
            agree=("lowproj_uplink.mpa.csv", "lowproj_uplink.mpa_collapsed.csv"),
            moves="mpa_detector.*.hypotheses_per_s and table_mb_per_call move "
            "trials_per_s and peak_rss_mb; constellation.mother_s (rotation search) "
            "moves setup_s",
            stays="simulator.self_share and channel_model.share stay below 1%; "
            "per-call overhead does not show",
        ),
        Workload(
            name="map_oracle_threads",
            why="exhaustive 4096-hypothesis MAP oracle under uplink Rayleigh on the "
            "thread pool; the only path through batch_map and the block scheduler",
            design=("design --scheme 4pt --out {dir}/fourpt.json",),
            build=(),
            sweeps=(
                "simulate --system {dir}/fourpt.json --engine map --channel uplink "
                "--snr 8,12 --workers {workers} --min-errors 200 --max-trials 2048 "
                "--seed {seed} --out {dir}/map_oracle_threads.csv",
            ),
            moves="mpa_detector.map.busy_s, simulator.useful_trial_ratio, "
            "thread_busy_share and scaling_efficiency move trials_per_s",
            stays="mpa and mpa_collapsed counters stay 0; channel_model.share stays "
            "below 1%",
        ),
    )
}

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
# Reference rows are recorded for these CLI seeds, enough for every
# repetition of a run started at seeds 1..12 and of one started at the
# held-out seed. Tune no change on the held-out seeds, so that a claim can
# be re-checked there.
REFERENCE_SEEDS = tuple(range(DEFAULT_SEED, 21)) + tuple(range(HELD_OUT_SEED, HELD_OUT_SEED + 9))


def cli_seed(seed: int, rep: int) -> int:
    """CLI seed of repetition `rep` in a run started with `seed`. Later
    repetitions draw fresh trials, so the median point time depends less
    on one seed's stopping counts."""
    return seed + rep
