"""Command line front end: design, analyze, simulate, compare."""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys

from .codebook import SCHEMES, build_named_system
from .constellation import measure
from .mpa_detector import complexity_report
from .simulator import (
    EXPERIMENTS,
    SimConfig,
    run_experiment,
    run_sweep,
    write_compare_csv,
    write_csv,
)
from .system_io import load_system, save_system

CHANNEL_FLAGS = {"awgn": "awgn", "downlink": "downlink", "uplink": "uplink_rayleigh"}
ENGINE_FLAGS = {"mpa": "mpa", "mpa_collapsed": "mpa_collapsed", "split": "split", "map": "map_oracle"}
# every shipped experiment runs at most 4 points and each point at least one
# detector call, so a longer a:b:step grid is a mistyped step; without a cap
# a step below the spacing of floats at a never moves the grid past b
MAX_SNR_POINTS = 1000


def parse_snr_grid(text: str) -> tuple[float, ...]:
    """Parse 'a:b:step' (inclusive of b up to float fuzz) or 'v1,v2,...'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("expected a:b:step")
        a, b, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (a, b, step)):
            raise argparse.ArgumentTypeError("a, b and step must be finite")
        if step <= 0:
            raise argparse.ArgumentTypeError("step must be positive")
        grid = []
        v = a
        while v <= b + 1e-9:
            if len(grid) == MAX_SNR_POINTS:
                raise argparse.ArgumentTypeError(f"a:b:step gives over {MAX_SNR_POINTS} points")
            grid.append(round(v, 10))
            v += step
        if not grid:
            raise argparse.ArgumentTypeError("empty grid")
        return tuple(grid)
    return tuple(float(p) for p in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scma",
        description="Sparse code multiple access design and simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="build a system and save it as JSON")
    p.add_argument("--k", type=int, default=4, help="number of resources")
    p.add_argument("--n", type=int, default=2, help="nonzero dimensions per layer")
    p.add_argument("--j", type=int, default=6, help="number of layers")
    p.add_argument("--m", type=int, default=4, help="codewords per layer")
    p.add_argument("--scheme", choices=SCHEMES, default="4pt")
    p.add_argument("--out", required=True, help="output system JSON path")

    p = sub.add_parser("analyze", help="print metrics of a saved system")
    p.add_argument("system", help="system JSON path")

    p = sub.add_parser("simulate", help="run an SNR sweep, write a CSV")
    p.add_argument("--system", required=True, help="system JSON path")
    p.add_argument("--channel", choices=sorted(CHANNEL_FLAGS), default="awgn")
    p.add_argument("--snr", type=parse_snr_grid, required=True,
                   help="a:b:step (inclusive) or comma list, in dB")
    p.add_argument("--snr-conv", choices=("per_layer", "total"), default="per_layer")
    p.add_argument("--engine", choices=sorted(ENGINE_FLAGS), default="mpa")
    p.add_argument("--iters", type=int, default=8)
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-errors", type=int, default=100)
    p.add_argument("--max-trials", type=int, default=100_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("compare", help="run a paired experiment, write a CSV")
    p.add_argument("--experiment", choices=tuple(EXPERIMENTS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snr", type=parse_snr_grid, default=None,
                   help="override the default grid")
    p.add_argument("--layers", type=int, default=None, choices=(2, 4, 6),
                   help="layer count J, power_variation only (default 6)")
    p.add_argument("--min-errors", type=int, default=200)
    p.add_argument("--max-trials", type=int, default=400_000)
    p.add_argument("--out", required=True, help="output CSV path")
    return parser


def _check_out_dir(path: str) -> None:
    """Fail before a sweep, not after it, when `path` is empty, its
    directory is missing or `path` itself is a directory."""
    parent = os.path.dirname(path) or "."
    if not (path and os.path.isdir(parent)):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path and parent)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _cmd_design(args) -> int:
    system = build_named_system(args.scheme, args.k, args.n, args.j, args.m)
    save_system(system, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    system = load_system(args.system)
    metrics = measure(system.mother)
    report = complexity_report(system)
    graph = system.graph
    print(
        f"K={system.n_resources} N={system.n_active} "
        f"J={system.n_layers} M={system.alphabet_size} "
        f"overloading={graph.overloading:.2f}"
    )
    print(f"resource degrees    {tuple(int(d) for d in graph.degrees)}")
    print(f"d_e_min             {metrics.d_e_min:.6f}")
    print(f"d_p_min             {metrics.d_p_min:.6f}")
    print(f"projections_per_dim {metrics.projections}")
    print(f"dim_power           {tuple(round(p, 6) for p in metrics.dim_power)}")
    print(f"dim_power_spread    {metrics.dim_power_spread:.6f}")
    print("detector hypotheses per resource (plain / mpa / collapsed / split):")
    for k, d in enumerate(report.degrees):
        split = "-" if report.split is None else str(report.split[k])
        print(
            f"  resource {k}: degree {d}  "
            f"{report.plain[k]} / {report.mpa[k]} / {report.collapsed[k]} / {split}"
        )
    return 0


def _cmd_simulate(args) -> int:
    system = load_system(args.system)
    _check_out_dir(args.out)
    config = SimConfig(
        K=system.n_resources,
        N=system.n_active,
        J=system.n_layers,
        M=system.alphabet_size,
        design=f"file:{args.system}",
        channel_mode=CHANNEL_FLAGS[args.channel],
        snr_convention=args.snr_conv,
        snr_grid_db=args.snr,
        seed=args.seed,
        min_errors=args.min_errors,
        max_trials=args.max_trials,
        max_iter=args.iters,
        damping=args.damping,
        engine=ENGINE_FLAGS[args.engine],
        workers=args.workers,
    )
    result = run_sweep(config, system)
    write_csv(result, args.out)
    for p in result.points:
        print(
            f"snr {p.snr_db:6.2f} dB  trials {p.trials:7d}  ser {p.ser:.3e} "
            f"+-{p.ser_ci95:.1e}  ber {p.ber:.3e}  [{p.seconds:.2f}s]",
            file=sys.stderr,
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_compare(args) -> int:
    fields = dict(seed=args.seed, min_errors=args.min_errors,
                  max_trials=args.max_trials)
    if args.snr is not None:
        fields["snr_grid_db"] = args.snr
    if args.layers is not None:
        if args.experiment != "power_variation":
            raise ValueError("--layers applies to power_variation only")
        fields["J"] = args.layers
    _check_out_dir(args.out)
    results = run_experiment(args.experiment, **fields)
    write_compare_csv(results, args.out)
    for label, result in results.items():
        sers = ", ".join(f"{p.snr_db:g}dB:{p.ser:.3e}" for p in result.points)
        print(f"{label}: {sers}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "design": _cmd_design,
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
