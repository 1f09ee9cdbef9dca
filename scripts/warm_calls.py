"""Warm detector calls of two source trees, timed in alternating fresh processes.

    python scripts/warm_calls.py OLD_SRC NEW_SRC [--rounds 10] [--json OUT]

Each argument is a directory that holds the `scma` package. A round runs
one fresh process per tree, the two in alternating order from round to
round. A process builds each system of a fixed matrix, draws its seeded
trials, makes one cold call and WARM warm calls of the engine, and records
per call its wall time and the minor page faults it took (from
`resource.getrusage` around the call). The matrix:

* 4pt J=6 `mpa`, 512 AWGN trials (the `power_variation` call shape);
* lowproj J=6 `mpa` and `mpa_collapsed`, 128 uplink trials;
* T16 and LDS M=16 J=6 `mpa`, 128 uplink trials;
* 4pt J=6 `map`, 128 uplink trials, and T16 J=4 `map` (M**J = 65536,
  so 8-trial slices), 128 uplink trials;
* lowproj J=2 `split`, 128 AWGN trials.

Per row and tree it prints the median and quartiles over rounds of each
process's median warm call (ms) and median warm faults (to one decimal:
a median over an even number of calls can end in .5), and the rounds
in which NEW_SRC's warm call was faster. Two copies of one tree should
read as a tie on every row: NEW_SRC wins 40-60% of the rounds, and each
median lies within the other tree's quartiles. With two copies every
round is a fair coin, so that check needs about 100 rounds: at 10 a row
falls outside 40-60% about a third of the time. `--json` writes the
per-round values and the summary. BLAS runs on one thread. Runtime: about
two and a half minutes for 10 rounds on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WARM = 8
# (row name, scheme, J, M, engine, channel, SNR dB per layer, trials)
MATRIX = (
    ("4pt-J6/mpa/awgn/512", "4pt", 6, 4, "mpa", "awgn", 6.0, 512),
    ("lowproj-J6/mpa/uplink/128", "lowproj", 6, 16, "mpa", "uplink_rayleigh", 16.0, 128),
    ("lowproj-J6/mpa_collapsed/uplink/128", "lowproj", 6, 16, "mpa_collapsed",
     "uplink_rayleigh", 16.0, 128),
    ("t16-J6/mpa/uplink/128", "t16", 6, 16, "mpa", "uplink_rayleigh", 16.0, 128),
    ("lds-J6-M16/mpa/uplink/128", "lds", 6, 16, "mpa", "uplink_rayleigh", 16.0, 128),
    ("4pt-J6/map/uplink/128", "4pt", 6, 4, "map", "uplink_rayleigh", 8.0, 128),
    ("t16-J4/map/uplink/128", "t16", 4, 16, "map", "uplink_rayleigh", 16.0, 128),
    ("lowproj-J2/split/awgn/128", "lowproj", 2, 16, "split", "awgn", 12.0, 128),
)


def child(src: str) -> None:
    """Run the matrix on the tree at `src`; print one JSON line
    {row: {"cold_ms", "cold_faults", "warm_ms", "warm_faults"}}."""
    import resource

    sys.path.insert(0, src)
    import numpy as np

    from scma import channel_model, codebook, mpa_detector as det

    def faults() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    out = {}
    for i, (name, scheme, j, m, engine, mode, snr_db, size) in enumerate(MATRIX):
        system = codebook.build_named_system(scheme, 4, 2, j, m)
        rng = np.random.default_rng(i)
        tx = rng.integers(0, m, (size, j))
        cw = np.stack([system.codebooks[l].codewords[tx[:, l]] for l in range(j)], axis=1)
        gains = channel_model.sample_gains(mode, j, 4, rng, size=size)
        nv = channel_model.snr_to_noise_variance(snr_db, system, "per_layer").variance
        y = (gains * cw).sum(axis=1) + channel_model.sample_noise(nv, 4, rng, size=size)
        if engine == "map":
            call = lambda: det.batch_map(y, gains, system, nv)  # noqa: E731
        elif engine == "split":
            call = lambda: det.batch_split(y, gains, system, nv)  # noqa: E731
        else:
            tables = det.collapse_projections(system) if engine == "mpa_collapsed" else None
            call = lambda: det.batch_mpa(y, gains, system, nv, 8, 0.0, tables)  # noqa: E731
        ms, flt = [], []
        for _ in range(1 + WARM):
            f0, t0 = faults(), time.perf_counter()
            call()
            ms.append(1e3 * (time.perf_counter() - t0))
            flt.append(faults() - f0)
        out[name] = {"cold_ms": ms[0], "cold_faults": flt[0],
                     "warm_ms": statistics.median(ms[1:]),
                     "warm_faults": statistics.median(flt[1:])}
    print(json.dumps(out))


def run(src: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, "--child", src], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarise(rounds: list[dict]) -> dict:
    """Per row: each tree's median and quartiles of warm ms and faults,
    NEW's wins and whether the row reads as a tie."""
    summary = {}
    for name, *_ in MATRIX:
        row = {}
        for side in ("old", "new"):
            for metric in ("warm_ms", "warm_faults"):
                q1, q2, q3 = quartiles([r[side][name][metric] for r in rounds])
                row[f"{side}_{metric}"] = {"median": q2, "q1": q1, "q3": q3}
        wins = sum(r["new"][name]["warm_ms"] < r["old"][name]["warm_ms"] for r in rounds)
        old, new = row["old_warm_ms"], row["new_warm_ms"]
        row["new_wins"] = f"{wins}/{len(rounds)}"
        row["tie"] = (0.4 <= wins / len(rounds) <= 0.6
                      and old["q1"] <= new["median"] <= old["q3"]
                      and new["q1"] <= old["median"] <= new["q3"])
        row["new_vs_old_pct"] = round(100 * (new["median"] / old["median"] - 1), 1)
        summary[name] = row
    return summary


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--json", help="write the rounds and the summary here")
    args = parser.parse_args()
    rounds = []
    for i in range(args.rounds):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        rounds.append({side: run(getattr(args, f"{side}_src")) for side in order})
        print(f"round {i + 1}/{args.rounds}", file=sys.stderr, flush=True)
    summary = summarise(rounds)
    print(f"{'row':38} {'old ms':>8} {'new ms':>8} {'change':>7} {'wins':>6} "
          f"{'old flt':>8} {'new flt':>8}  tie")
    for name, row in summary.items():
        print(f"{name:38} {row['old_warm_ms']['median']:8.2f} "
              f"{row['new_warm_ms']['median']:8.2f} {row['new_vs_old_pct']:+6.1f}% "
              f"{row['new_wins']:>6} {row['old_warm_faults']['median']:8.1f} "
              f"{row['new_warm_faults']['median']:8.1f}  {row['tie']}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"command": " ".join(sys.argv), "warm_calls_per_process": WARM,
                       "rounds": rounds, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
