"""Spans around the public functions the scma modules call, bound from outside.

The wrappers replace module attributes (for example `scma.simulator.batch_mpa`)
so that every call the simulator, the CLI or the codebook module makes goes
through a timer; no file of the package changes. A span records its name,
start, end, parent span and thread. Spans stay in memory and are written out
once, after the run.

Inside `run_point` the block jobs may run on pool threads, whose own span
stack is empty; their spans take the open `run_point` span as parent, since
the simulator runs one point at a time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute, span name); the span name's prefix is the layer
TRACED = (
    ("scma.simulator", "sample_gains", "channel_model.sample_gains"),
    ("scma.simulator", "sample_noise", "channel_model.sample_noise"),
    ("scma.simulator", "batch_mpa", "mpa_detector.batch_mpa"),
    ("scma.simulator", "batch_map", "mpa_detector.batch_map"),
    ("scma.simulator", "batch_split", "mpa_detector.batch_split"),
    ("scma.simulator", "collapse_projections", "mpa_detector.collapse_projections"),
    ("scma.simulator", "run_point", "simulator.run_point"),
    ("scma.simulator", "build_named_system", "codebook.build_named_system"),
    ("scma.cli", "build_named_system", "codebook.build_named_system"),
    ("scma.cli", "load_system", "system_io.load_system"),
    ("scma.cli", "save_system", "system_io.save_system"),
    ("scma.cli", "write_csv", "system_io.write_csv"),
    ("scma.cli", "write_compare_csv", "system_io.write_compare_csv"),
    ("scma.codebook", "four_point_mother", "constellation.four_point_mother"),
    ("scma.codebook", "low_projection_16point", "constellation.low_projection_16point"),
    ("scma.codebook", "repetition_qam_mother", "constellation.repetition_qam_mother"),
    ("scma.codebook", "t16qam", "constellation.t16qam"),
)

ENGINES = ("mpa", "mpa_collapsed", "map")
SWEEP_SPANS = ("cli.simulate", "cli.compare")
COMPLEX_BYTES = 16


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; `install` binds the wrappers over TRACED."""

    def __init__(self):
        self.spans: list[Span] = []
        self.systems: dict[int, object] = {}  # keeps traced systems alive by id
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._point: int | None = None

    def open(self, name: str, attrs: dict | None = None) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._point
        span = Span(next(self._ids), name, parent, threading.get_ident(),
                    time.perf_counter(), attrs=attrs or {})
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def _wrap(self, fn, name):
        signature = inspect.signature(fn)
        is_point = name == "simulator.run_point"
        is_detector = name.startswith("mpa_detector.batch_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = self._detector_attrs(name, signature, args, kwargs) if is_detector else None
            span = self.open(name, attrs)
            outer_point = self._point
            if is_point:
                self._point = span.id
            try:
                result = fn(*args, **kwargs)
            finally:
                self._point = outer_point
                self.close(span)
            if is_point:
                span.attrs["trials"] = result.trials
            return result

        return traced

    def _detector_attrs(self, name, signature, args, kwargs) -> dict:
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        engine = name.removeprefix("mpa_detector.batch_")
        if engine == "mpa" and a.get("tables") is not None:
            engine = "mpa_collapsed"
        self.systems[id(a["system"])] = a["system"]
        return {
            "engine": engine,
            "trials": len(a["y"]),
            "max_iter": a.get("max_iter", 1),
            "system": id(a["system"]),
        }

    def dump(self, path) -> None:
        base = min((s.start for s in self.spans), default=0.0)
        threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in self.spans))}
        rows = [
            {
                "id": s.id, "name": s.name, "parent": s.parent,
                "thread": threads[s.thread],
                "start_s": s.start - base, "end_s": s.end - base,
                **{k: v for k, v in s.attrs.items() if k != "system"},
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


# ---------------------------------------------------------------------------
# analysis


def _merged(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def _length(merged) -> float:
    return sum(hi - lo for lo, hi in merged)


def _overlap(a, b) -> float:
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        total += max(0.0, min(a[i][1], b[j][1]) - max(a[i][0], b[j][0]))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile of a nonempty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_pct(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n))) if n else 50


def _hypothesis_counts(system, engine):
    """Per-resource hypothesis counts one detector call enumerates (computed)."""
    from scma.mpa_detector import complexity_report

    if engine == "map":
        return (system.alphabet_size ** system.n_layers,)
    report = complexity_report(system)
    return report.collapsed if engine == "mpa_collapsed" else report.plain


def span_cost_s(calls: int = 2000) -> float:
    """Seconds one traced detector call adds, timed on a no-op; the detector
    wrapper does the most work per span, so this bounds every span's cost."""
    probe = Tracer()

    def batch_mpa(y, gains, system, noise_var, max_iter=8, damping=0.0, tables=None):
        return None

    traced = probe._wrap(batch_mpa, "mpa_detector.batch_mpa")
    start = time.perf_counter()
    for _ in range(calls):
        traced((), None, probe, 1.0)
    return (time.perf_counter() - start) / calls


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = tracer.spans
    wall = sum(s.seconds for s in spans if s.name in SWEEP_SPANS)
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    points = [s for s in spans if s.name == "simulator.run_point"]

    # attribute run_point wall time: detector first, then channel, rest is self
    det_cover = chan_cover = self_s = 0.0
    engine_cover = defaultdict(float)
    for p in points:
        kids = children[p.id]
        det = _merged((k.start, k.end) for k in kids if k.layer == "mpa_detector")
        chan = _merged((k.start, k.end) for k in kids if k.layer == "channel_model")
        d, c = _length(det), _length(chan) - _overlap(chan, det)
        det_cover += d
        chan_cover += c
        self_s += p.seconds - d - c
        for engine in ENGINES:
            engine_cover[engine] += _length(_merged(
                (k.start, k.end) for k in kids if k.attrs.get("engine") == engine
            ))

    calls = [s for s in spans if "engine" in s.attrs]
    counts = {}

    def hyp_counts(span: Span, engine: str):
        key = (span.attrs["system"], engine)
        if key not in counts:
            counts[key] = _hypothesis_counts(tracer.systems[key[0]], engine)
        return counts[key]

    out: dict[str, float] = {"mpa_detector.share": det_cover / wall}
    for engine in ENGINES:
        mine = [s for s in calls if s.attrs["engine"] == engine]
        ms = [s.seconds * 1e3 for s in mine]
        busy = sum(s.seconds for s in mine)
        hyps = table = 0
        for s in mine:
            per_resource = hyp_counts(s, engine)
            iters = 1 if engine == "map" else s.attrs["max_iter"]
            hyps += s.attrs["trials"] * iters * sum(per_resource)
            table = max(table, s.attrs["trials"] * max(per_resource) * COMPLEX_BYTES)
        pct = tail_pct(len(ms))
        prefix = f"mpa_detector.{engine}."
        out.update({
            prefix + "calls": len(mine),
            prefix + "trials": sum(s.attrs["trials"] for s in mine),
            prefix + "busy_s": busy,
            prefix + "share": engine_cover[engine] / wall,
            prefix + "call_ms_p50": statistics.median(ms) if ms else 0.0,
            prefix + "call_ms_tail": percentile(ms, pct) if ms else 0.0,
            prefix + "tail_pct": pct,
            prefix + "hypotheses": hyps,
            prefix + "hypotheses_per_s": hyps / busy if busy else 0.0,
            prefix + "table_mb_per_call": table / 1e6,
        })

    plain = collapsed = 0
    for s in calls:
        if s.attrs["engine"] in ("mpa", "mpa_collapsed"):
            plain += s.attrs["trials"] * sum(hyp_counts(s, "mpa"))
            collapsed += s.attrs["trials"] * sum(hyp_counts(s, "mpa_collapsed"))
    out["mpa_detector.collapse_ratio"] = collapsed / plain if plain else 0.0
    m, c = (out[f"mpa_detector.{e}.trials"] for e in ("mpa", "mpa_collapsed"))
    out["mpa_detector.collapsed_speedup"] = (
        (out["mpa_detector.mpa.busy_s"] / m) / (out["mpa_detector.mpa_collapsed.busy_s"] / c)
        if m and c else 0.0
    )

    chan = [s for s in spans if s.layer == "channel_model"]
    det_busy = sum(s.seconds for s in calls)
    mothers = sum(s.seconds for s in spans if s.layer == "constellation")
    builds = sum(s.seconds for s in spans if s.layer == "codebook")
    reported = sum(p.attrs["trials"] for p in points)
    out.update({
        "simulator.points": len(points),
        "simulator.blocks": len(calls),
        "simulator.self_s": self_s,
        "simulator.self_share": self_s / wall,
        "simulator.useful_trial_ratio": reported / sum(s.attrs["trials"] for s in calls),
        "simulator.thread_busy_share": det_busy / (wall * workers),
        "channel_model.calls": len(chan),
        "channel_model.busy_s": sum(s.seconds for s in chan),
        "channel_model.share": chan_cover / wall,
        "codebook.build_s": builds - mothers,
        "constellation.mother_s": mothers,
        "system_io.busy_s": sum(s.seconds for s in spans if s.layer == "system_io"),
        "trace.wall_s": wall,
        "trace.spans": len(spans),
        "trace.span_cost_share": span_cost_s() * len(spans) / wall,
        "trace.unattributed_share": 1.0 - (det_cover + chan_cover + self_s) / wall,
    })
    return out
