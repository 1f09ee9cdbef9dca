"""One repetition of one workload, in a fresh process.

Pins BLAS and OpenMP to one thread before numpy is imported, imports
`scma`, runs the workload's set-up (designing or loading every system it
uses), then runs its sweep commands through `scma.cli.main` and writes a
JSON result, plus the CSVs the commands wrote, to `--out`.

    python3 perfbench/rep.py --workload power_variation --seed 1 --out DIR
        [--workers N] [--trace SPANS.json] [--setup-only]
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)

    def command(template: str) -> list[str]:
        return shlex.split(template.format(dir=args.out, seed=args.seed, workers=args.workers))

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import scma.cli
    import scma.simulator

    tracer = None
    if args.trace is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def cli(argv: list[str]) -> None:
        span = tracer.open(f"cli.{argv[0]}") if tracer else None
        try:
            code = scma.cli.main(argv)
        finally:
            if span:
                tracer.close(span)
        if code != 0:
            raise SystemExit(f"scma {shlex.join(argv)} exited with {code}")

    for template in workload.design:
        argv = command(template)
        cli(argv)
        scma.cli.load_system(argv[argv.index("--out") + 1])
    for spec in workload.build:
        scma.cli.build_named_system(*spec)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}

    if not args.setup_only:
        point_s = []
        run_point = scma.simulator.run_point

        def timed_point(*a, **kw):
            point = run_point(*a, **kw)
            point_s.append(point.seconds)
            return point

        scma.simulator.run_point = timed_point
        sweep_s = []
        for template in workload.sweeps:
            argv = command(template)
            t0 = time.perf_counter()
            cli(argv)
            sweep_s.append(time.perf_counter() - t0)
        result.update(
            sweep_s=sweep_s,
            point_s=point_s,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(),
        )
        if tracer:
            from tracing import layer_metrics

            tracer.dump(args.trace)
            result["layers"] = layer_metrics(tracer, args.workers)

    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
