"""Multiuser detection on the factor graph.

The workhorse is a flooding-schedule sum-product detector (MPA) whose
per-resource update marginalises a Gaussian likelihood over all colliding
symbol combinations. A brute-force joint MAP oracle, a collapsed-projection
variant and a real/imaginary split variant share its machinery.
"""

from __future__ import annotations

import math
import numbers
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .channel_model import ChannelRealization
from .codebook import ScmaSystem
from .constellation import PROJECTION_MERGE_TOL, merge_values

__all__ = [
    "DetectionResult",
    "ComplexityReport",
    "mpa_detect",
    "map_joint_oracle",
    "split_detect",
    "collapse_projections",
    "complexity_report",
    "batch_mpa",
    "batch_map",
    "batch_split",
]

MAX_JOINT_HYPOTHESES = 1 << 20
# exp arguments below this give an exact 0, so exp only sees arguments on
# numpy's SIMD fast path (it leaves it below about -707.7 and for -inf). The
# cut sits just above ln(2**-511), so a nonzero table entry times any message
# entry of at least 2**-511 is a normal float: subnormal products would cost
# a microcode assist each in the contractions over the tables.
EXP_FLUSH_ARG = -354.0
# ln of the smallest normal float64: a product of K factors, each 0 or at
# least exp(LOG_TINY / K), is 0 or a normal float
LOG_TINY = math.log(np.finfo(np.float64).tiny)
# table entries of one trial slice, over all its resources: 4 MB of float64,
# so with four resources a table and its scratch (1 MB each) stay within a
# 2 MB L2, and a 128-trial lowproj call (2916 entries per trial) is one slice
MAX_SLICE_ENTRIES = 1 << 19


@dataclass(frozen=True)
class DetectionResult:
    """Per-layer posteriors and the decisions read off them."""

    marginals: np.ndarray  # (J, M), rows sum to 1
    # (J,) argmax indices: an exact tie in the computed marginals goes to the lowest
    # index, but hypotheses that tie only in exact arithmetic can split by rounding
    hard_symbols: np.ndarray
    bits: np.ndarray  # (J, log2 M) decoded label bits, MSB first
    iterations_run: int


@dataclass(frozen=True)
class ComplexityReport:
    """Per-resource hypothesis counts: `plain` counts symbol combinations,
    M**degree; `mpa`, `collapsed` and `split` count the table entries one
    trial of those engines builds (plain `mpa` merges exact repeats only)."""

    degrees: tuple[int, ...]
    plain: tuple[int, ...]
    mpa: tuple[int, ...]
    collapsed: tuple[int, ...]
    split: tuple[int, ...] | None  # None when the system is not separable


# ---------------------------------------------------------------------------
# graph plumbing


def _edges(system: ScmaSystem):
    """Edge list, per-resource edge indices and the (J, N) layer edge array."""
    edges = []
    res_edges = [[] for _ in range(system.n_resources)]
    lay_edges = [[] for _ in range(system.n_layers)]
    for k in range(system.n_resources):
        for j in system.graph.layers_at(k):
            e = len(edges)
            edges.append((k, j))
            res_edges[k].append(e)
            lay_edges[j].append(e)
    return edges, res_edges, np.array(lay_edges)


def _passes(system: ScmaSystem, edges, tol: float = 0.0, split: bool = False):
    """Per MPA pass, each edge's (values, index) column from merge_values at
    `tol`, over layer j's codeword values on resource k. Plain MPA has one
    pass; split has two, over the real parts of symbols p*m_v (q = 0) and
    then the imaginary parts of symbols 0..m_v-1 (p = 0), in
    shuffle_construct's symbol order p*m_v + q."""
    columns = [system.codebooks[j].codewords[:, k] for k, j in edges]
    if not split:
        return [[merge_values(c, tol) for c in columns]]
    m_v = len(system.mother.imag_points)
    return [[merge_values(c[::m_v].real, tol) for c in columns],
            [merge_values(c[:m_v].imag, tol) for c in columns]]


def _entries(passes, res_edges) -> tuple[int, ...]:
    """Per resource, the table entries of one trial summed over the passes."""
    return tuple(sum(math.prod(len(columns[e][0]) for e in es) for columns in passes)
                 for es in res_edges)


class _Workspace:
    """One thread's buffers, by name; each grows to the largest request so
    far, so the slice cap bounds it as it bounds the arrays it holds."""

    def __init__(self):
        self.buffers = {}

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """A C-ordered array of `shape` and `dtype` on buffer `name`."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buf = self.buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = self.buffers[name] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


_idle = threading.local()  # .work: the thread's workspace while no engine holds it


@contextmanager
def _workspace():
    """The calling thread's workspace, lent to one engine call; a second
    user in the same thread meanwhile gets fresh buffers. A thread frees
    its workspace when it exits."""
    work = getattr(_idle, "work", None) or _Workspace()
    _idle.work = None
    try:
        yield work
    finally:
        _idle.work = work


def _normalise(msg: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Normalise (X, M, T) messages over the alphabet axis M, into `out`
    (which may be msg) or a fresh array; columns that sum to 0 (total
    underflow) fall back to uniform."""
    total = np.einsum("xmt->xt", msg)[:, None]
    full = total > 0
    if full.all():
        return np.divide(msg, total, out=out)
    out = np.divide(msg, np.where(full, total, 1.0), out=out)
    np.copyto(out, 1.0 / msg.shape[1], where=~full)
    return out


def _exp_flushed(a: np.ndarray, cut: float = EXP_FLUSH_ARG) -> np.ndarray:
    """exp(a) in place, with every entry whose argument is below `cut`
    (-inf included) set to an exact 0; with a cut of at least EXP_FLUSH_ARG
    exp itself only ever sees arguments on its fast path."""
    keep = a >= cut
    np.maximum(a, cut, out=a)
    np.exp(a, out=a)
    a *= keep
    return a


def _damped(new: np.ndarray, old: np.ndarray, damping: float) -> np.ndarray:
    """(1 - damping) * new + damping * old, into new; old is scratch after."""
    if damping:
        new *= 1.0 - damping
        old *= damping
        new += old
    return new


def _resource_tables(y, edge_values, res_edges, noise_var, work):
    """Per resource, yield the log table -(|y_k - s|^2 - min_s |y_k - s|^2) /
    noise_var over every sum s of its edges' values, or None without edges.
    The energy is shifted by its trial's best before the division, and
    clamped where the ratio would pass max_float / 2K, so that no ratio
    overflows, nor a sum of K of them; an entry that far behind the best
    weighs 0 next to it either way. The first d - 1 edges fold into a
    residual y_k - s; the energy against the last is real arithmetic, with
    no imaginary part when the residuals and values are real. A table is a
    C-ordered (rows, columns, T) array: rows over the value combinations of
    every edge but the last, columns over the last edge's values. The
    tables lie side by side in one buffer of the _Workspace `work`, and the
    residuals and the imaginary part in scratch buffers; a caller uses each
    table, in cache, before the next.
    """
    t_count = y.shape[-1]
    sizes = [math.prod(len(edge_values[e]) for e in es) * t_count if es else 0
             for es in res_edges]
    tables = work.get("tables", (sum(sizes),))
    # Python floats: above noise_var 2K the product is inf, with no overflow warning
    limit = float(noise_var) * (float(np.finfo(np.float64).max) / (2 * len(res_edges)))
    offset = 0
    for k, (es, size) in enumerate(zip(res_edges, sizes)):
        if not es:
            yield None
            continue
        r = y[k][None]
        for i, e in enumerate(es[:-1]):
            level = work.get(f"residual{i % 2}", (len(r), len(edge_values[e]), t_count),
                             np.result_type(r, edge_values[e]))
            r = np.subtract(r[:, None], edge_values[e], out=level).reshape(-1, t_count)
        last = edge_values[es[-1]]
        shape = (len(r), len(last), t_count)
        table = tables[offset : offset + size].reshape(shape)
        offset += size
        np.subtract(r.real[:, None], last.real, out=table)
        np.square(table, out=table)
        if np.iscomplexobj(r) or np.iscomplexobj(last):
            im = work.get("im", (max(sizes),))[:size].reshape(shape)
            np.subtract(r.imag[:, None], last.imag, out=im)
            np.add(table, np.square(im, out=im), out=table)
        table -= table.min(axis=(0, 1))
        np.minimum(table, limit, out=table)
        table /= -noise_var
        yield table


def _leave_one_out(table, msgs):
    """out[i][a_i, t]: the sum of a table's entries over every axis but i,
    weighted by the messages on those axes; the table holds the axes in
    order, then trials, and msgs hold one message per axis.

    Two contractions per level: the outer product of all but the last
    message against the table gives the last axis's output, and the table
    against the last message drops that axis for the next level.
    """
    t_count = table.shape[-1]
    if len(msgs) == 1:
        return [table.reshape(-1, t_count)]
    w = msgs[0]
    for m in msgs[1:-1]:
        w = (w[:, None] * m).reshape(-1, t_count)
    g = table.reshape(len(w), len(msgs[-1]), t_count)
    last = np.einsum("pat,pt->at", g, w)
    rest = np.einsum("pat,at->pt", g, msgs[-1])
    return _leave_one_out(rest, msgs[:-1]) + [last]


def _run_mpa(y, gains, edges, columns, res_edges, lay_edges, alphabet, noise_var, max_iter,
             damping, work):
    """Flooding sum-product over each edge's values; returns the (J,
    alphabet, T) marginals.

    y is (K, T) and gains (T, J, K), both real or complex; columns[e] is
    the (values, index) pair of edge e = (k, j): its A_e values and each
    symbol's value. Every MPA engine folds the channel in here (batch_map
    per symbol, on its own): edge e's (A_e, T) table is gains[:, j, k] *
    values. An index that maps each symbol to its own value, in order,
    counts as none. Otherwise the tables are built and contracted over the
    values, a message is summed onto them on its way into a resource, and
    the value's output is copied back to its symbols. Messages are (E,
    alphabet, T); lay_edges holds each layer's N edges. The edge values,
    the tables, the three message arrays and the layer update's gather are
    buffers of the _Workspace `work`; a new message is normalised and
    damped in place in `out`, which then trades places with the old one.
    """
    t_count = y.shape[-1]
    shape = (len(edges), alphabet, t_count)
    l2r, r2l, out = (work.get(name, shape) for name in ("l2r", "r2l", "out"))
    l2r.fill(1.0 / alphabet)
    r2l.fill(1.0 / alphabet)
    counts = [len(vals) for vals, _ in columns]
    flat = work.get("values", (sum(counts), t_count), np.result_type(gains, columns[0][0]))
    edge_values = np.split(flat, np.cumsum(counts)[:-1])
    for (k, j), (vals, _), values in zip(edges, columns, edge_values):
        np.multiply(gains[:, j, k], vals[:, None], out=values)
    edge_index = [None if idx.tolist() == list(range(len(vals))) else idx
                  for vals, idx in columns]
    # per edge with an index, the (A_e, alphabet) indicator of each symbol's value
    onto = [None if idx is None else np.eye(len(vals))[:, idx]
            for vals, idx in zip(edge_values, edge_index)]
    tables = [t if t is None else _exp_flushed(t)
              for t in _resource_tables(y, edge_values, res_edges, noise_var, work)]
    n = lay_edges.shape[1]  # mates[e]: the other edges of e's layer, in layer order
    mates = np.empty((len(edges), n - 1), dtype=np.intp)
    mates[lay_edges] = lay_edges[:, [[i2 for i2 in range(n) if i2 != i] for i in range(n)]]
    gather = work.get("gather", (len(edges), n - 1) + shape[1:])
    for it in range(max_iter):
        for k, es in enumerate(res_edges):
            if tables[k] is None:
                continue
            incoming = [m if onto[e] is None else np.einsum("am,mt->at", onto[e], m)
                        for e, m in zip(es, l2r[es])]
            for e, o in zip(es, _leave_one_out(tables[k], incoming)):
                out[e] = o if edge_index[e] is None else o[edge_index[e]]
        r2l, out = _damped(_normalise(out, out), r2l, damping), r2l
        if it == max_iter - 1:
            break  # the marginals read r2l only
        # mode="clip" (the indices are all valid) writes `out` directly:
        # the default mode takes a temporary copy of it
        np.take(r2l, mates, axis=0, out=gather, mode="clip").prod(axis=1, out=out)
        l2r, out = _damped(_normalise(out, out), l2r, damping), l2r

    beliefs = work.get("gather", lay_edges.shape + shape[1:])
    marginals = np.take(r2l, lay_edges, axis=0, out=beliefs, mode="clip").prod(axis=1)
    return _normalise(marginals, marginals)


# ---------------------------------------------------------------------------
# public batched engines (leading trial axis)


def _trial_slices(body, y, gains, system, counts) -> np.ndarray:
    """(T, J, M) marginals of an engine whose body(y, gains, work) maps the
    (K, T) received values and (T, J, K) gains of a slice of trials to
    their (J, M, T) marginals, on the calling thread's workspace `work`,
    borrowed once for the whole call. `counts` are the table entries the
    engine builds per trial: a trial over MAX_JOINT_HYPOTHESES is rejected
    before any is built, and a slice's tables hold at most
    MAX_SLICE_ENTRIES entries, or one trial's. y (one trial may be 1-D) and
    gains must match the system's shape and be finite.

    numpy runs a body's sums with the trial axis innermost, so a trial's
    terms add in axis order and get the same bits at any call size; a lone
    trial would leave a summed axis innermost, so a one-trial slice runs as
    two copies of it, unless every slice holds one trial (two would then
    exceed the cap). The result is a fresh C-ordered array, so that a
    caller's sums over M run along M at any call size.
    """
    total = sum(counts)
    if total > MAX_JOINT_HYPOTHESES:
        raise ValueError(
            f"one trial's likelihood tables hold {total} entries, "
            f"over the cap {MAX_JOINT_HYPOTHESES}"
        )
    step = max(1, MAX_SLICE_ENTRIES // total)
    y = np.atleast_2d(np.asarray(y, dtype=np.complex128))
    gains = np.asarray(gains, dtype=np.complex128)
    if not len(y):
        raise ValueError("detection needs at least one trial")
    j_count, k_count = system.n_layers, system.n_resources
    if y.ndim != 2 or y.shape[1] != k_count:
        raise ValueError(f"y must be (T, {k_count}) received values, got shape {y.shape}")
    if gains.shape != (len(y), j_count, k_count):
        raise ValueError(
            f"gains must be ({len(y)}, {j_count}, {k_count}) to match y, got shape {gains.shape}"
        )
    if not (np.isfinite(y).all() and np.isfinite(gains).all()):
        raise ValueError("y and gains must be finite")
    marginals = np.empty((len(y), j_count, system.alphabet_size))
    with _workspace() as work:
        for lo in range(0, len(y), step):
            y_s, g_s = y[lo : lo + step], gains[lo : lo + step]
            n = len(y_s)
            if n == 1 < step:
                y_s, g_s = y_s[[0, 0]], g_s[[0, 0]]
            marginals[lo : lo + n] = body(y_s.T, g_s, work)[..., :n].transpose(2, 0, 1)
    return marginals


def batch_mpa(
    y: np.ndarray,
    gains: np.ndarray,
    system: ScmaSystem,
    noise_var: float,
    max_iter: int = 8,
    damping: float = 0.0,
    tables: dict | None = None,
):
    """MPA marginals for a stack of trials; returns (T, J, M).

    Runs exactly max_iter flooding iterations (resource updates, then layer
    updates). Each edge's likelihoods are built over its distinct values:
    its symbols' codeword values with exact repeats merged (merge_values at
    tolerance 0), or with `tables` the projections merged within
    PROJECTION_MERGE_TOL (see collapse_projections), which changes nothing
    but cost.
    """
    _check_detect_args(noise_var, max_iter, damping)
    edges, res_edges, lay_edges = _edges(system)
    passes = _passes(system, edges) if tables is None else [[tables[e] for e in edges]]
    return _trial_slices(
        lambda y, gains, work: _run_mpa(y, gains, edges, passes[0], res_edges, lay_edges,
                                        system.alphabet_size, noise_var, max_iter, damping, work),
        y, gains, system, _entries(passes, res_edges),
    )


def _joint_marginals(terms, combine, work, shift=False) -> np.ndarray:
    """(J, M, T) unnormalised MAP marginals of the joint table that `combine`
    (np.multiply over weight factors, np.add over log terms) builds from
    `terms`, each on the J layer axes (M, or 1 where its resource lacks the
    layer) and then trials. The table is built one slab of the first layer
    axis at a time (the whole table when J = 1) in the buffer "joint" of
    `work`, and each slab is summed into two small tables that keep the
    first and the second half of the layer axes. With `shift` the slabs are
    log weights: a first pass finds each trial's best joint hypothesis, and
    each slab is shifted by it and exponentiated (flushed) before its sums.
    """
    shape = np.broadcast_shapes(*(t.shape for t in terms))
    j_count, m, t_count = len(shape) - 1, shape[0], shape[-1]
    slabbed = int(j_count > 1)
    half = j_count // 2
    below = tuple(range(half - slabbed))  # the first half's axes within a slab
    slab = work.get("joint", shape[slabbed:])
    first = work.get("first", shape[:half] + (t_count,))
    second = work.get("second", shape[half:])
    partial = work.get("partial", shape[half:])

    def slabs():
        for i in range(m) if slabbed else [None]:
            views = [t if i is None else t[min(i, len(t) - 1)] for t in terms]
            if len(views) == 1:
                np.copyto(slab, views[0])
            else:
                combine(views[0], views[1], out=slab)
            for view in views[2:]:
                combine(slab, view, out=slab)
            yield slab

    weights = slabs()
    if shift:
        top = np.full(t_count, -np.inf)
        for ll in weights:
            np.maximum(top, ll.max(axis=tuple(range(j_count - slabbed))), out=top)
        weights = (_exp_flushed(np.subtract(ll, top, out=ll)) for ll in slabs())
    for i, w in enumerate(weights):
        if half:
            w.sum(axis=tuple(range(half - 1, j_count - 1)), out=first[i])
        if i == 0:
            w.sum(axis=below, out=second)
        else:
            second += w.sum(axis=below, out=partial)
    marginals = np.empty((j_count, m, t_count))
    for part, layers in ((first, range(half)), (second, range(half, j_count))):
        for i, j in enumerate(layers):
            marginals[j] = part.sum(axis=tuple(a for a in range(len(layers)) if a != i))
    return marginals


def batch_map(
    y: np.ndarray, gains: np.ndarray, system: ScmaSystem, noise_var: float
) -> np.ndarray:
    """Exact joint-MAP marginals over all M**J hypotheses.

    The likelihood factorises over resources: resource k's factor is the
    exp of its MPA log table from _resource_tables, over every symbol's
    value on k's edges, laid on the axes of the layers at k and flushed
    below LOG_TINY / K, so that a product of the K factors is 0 or a normal
    float; _joint_marginals multiplies them one slab at a time. A trial
    whose weights sum below M**J * exp(cut) * 2**60 may have lost mass to
    flushed factors, so it is recomputed from the log terms; a lone such
    trial runs as two copies, as in _trial_slices, which caps a trial's
    joint table at MAX_JOINT_HYPOTHESES entries and a slice's at
    MAX_SLICE_ENTRIES, or one trial's.
    """
    _check_detect_args(noise_var, 1, 0.0)
    m, j_count = system.alphabet_size, system.n_layers
    edges, res_edges, _ = _edges(system)
    # each resource's table on its layers' axes, which _edges lists ascending
    shapes = [[m if j in system.graph.layers_at(k) else 1 for j in range(j_count)]
              for k in range(system.n_resources)]
    cut = max(EXP_FLUSH_ARG, math.ceil(LOG_TINY / sum(map(bool, res_edges))))
    floor = m**j_count * math.exp(cut) * 2.0**60

    def log_terms(y, gains, work):
        edge_values = [system.codebooks[j].codewords[:, k, None] * gains[:, j, k]
                       for k, j in edges]
        tables = _resource_tables(y, edge_values, res_edges, noise_var, work)
        return [t.reshape(shape + [y.shape[1]])
                for shape, t in zip(shapes, tables) if t is not None]

    def body(y, gains, work):
        factors = [_exp_flushed(t, cut) for t in log_terms(y, gains, work)]
        marginals = _joint_marginals(factors, np.multiply, work)
        redo = np.flatnonzero(marginals[0].sum(axis=0) < floor)
        if len(redo):
            run = redo[[0, 0]] if len(redo) == 1 < y.shape[1] else redo  # a lone trial twice
            exact = _joint_marginals(log_terms(y[:, run], gains[run], work), np.add, work,
                                     shift=True)
            marginals[..., redo] = exact[..., : len(redo)]
        return marginals

    marginals = _trial_slices(body, y, gains, system, [m**j_count])
    return marginals / marginals.sum(axis=2, keepdims=True)


def batch_split(
    y: np.ndarray,
    gains: np.ndarray,
    system: ScmaSystem,
    noise_var: float,
    max_iter: int = 8,
) -> np.ndarray:
    """Two real-alphabet MPA passes recombined by an outer product.

    Valid only when the mother factors into real and imaginary parts, all
    operator phases are +-1 and the channel gains are real: the Gaussian
    metric then splits into independent real and imaginary halves, each a
    real Gaussian of variance noise_var / 2. Each half's (values, index)
    columns are read once per call off the codewords batch_mpa reads (see
    _passes), so operator power scales count, with exact repeats merged as
    in batch_mpa; a slice's trials are capped by the table entries both
    halves build from them, which complexity_report counts as `split`.
    """
    _check_detect_args(noise_var, max_iter, 0.0)
    if not system.is_separable:
        raise ValueError("split detection needs a separable mother and +-1 phases")
    edges, res_edges, lay_edges = _edges(system)
    passes = _passes(system, edges, split=True)

    def body(y, gains, work):
        if np.abs(gains.imag).max() > 1e-12:
            raise ValueError("split detection needs real channel gains")
        marg_re, marg_im = (
            _run_mpa(part, gains.real, edges, columns, res_edges, lay_edges,
                     len(columns[0][1]), noise_var, max_iter, 0.0, work)
            for part, columns in zip((y.real, y.imag), passes)
        )
        combined = marg_re[:, :, None] * marg_im[:, None]
        return _normalise(combined.reshape(system.n_layers, -1, y.shape[1]))

    return _trial_slices(body, y, gains, system, _entries(passes, res_edges))


# ---------------------------------------------------------------------------
# single-shot API


def _check_detect_args(noise_var: float, max_iter: int, damping: float) -> None:
    if not (math.isfinite(noise_var) and noise_var > 0):
        raise ValueError("noise_var must be finite and positive")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")


def _label_bits(labels: np.ndarray, n_bits: int) -> np.ndarray:
    shifts = np.arange(n_bits - 1, -1, -1)
    return (labels[:, None] >> shifts[None, :]) & 1


def _detect_one(batch, iters, y, system, channel, noise_var, *args) -> DetectionResult:
    """Run the batch engine `batch` on one received vector and read off the
    decisions; `args` follow noise_var in the engine's signature."""
    marginals = batch(y, channel.gains[None], system, noise_var, *args)[0]
    hard = marginals.argmax(axis=1)
    labels = system.mother.labels[hard]
    bits = _label_bits(labels, system.mother.bits_per_symbol)
    return DetectionResult(marginals, hard, bits, iters)


def mpa_detect(
    y: np.ndarray,
    system: ScmaSystem,
    channel: ChannelRealization,
    noise_var: float,
    max_iter: int = 8,
    damping: float = 0.0,
    tables: dict | None = None,
) -> DetectionResult:
    """Sum-product detection of one received vector; see batch_mpa."""
    return _detect_one(
        batch_mpa, max_iter, y, system, channel, noise_var, max_iter, damping, tables
    )


def map_joint_oracle(
    y: np.ndarray,
    system: ScmaSystem,
    channel: ChannelRealization,
    noise_var: float,
) -> DetectionResult:
    """Exact per-layer marginals from full joint enumeration (M**J <= 2**20)."""
    return _detect_one(batch_map, 1, y, system, channel, noise_var)


def split_detect(
    y: np.ndarray,
    system: ScmaSystem,
    channel: ChannelRealization,
    noise_var: float,
    max_iter: int = 8,
) -> DetectionResult:
    """Real/imaginary split detection; see batch_split for the preconditions."""
    return _detect_one(batch_split, max_iter, y, system, channel, noise_var, max_iter)


def collapse_projections(system: ScmaSystem) -> dict:
    """Distinct projected codeword values per (resource, layer) edge, as
    {(k, j): (values, index)}: values are the projections of layer j's
    codewords on resource k merged within PROJECTION_MERGE_TOL, and index
    maps each symbol to its value. Symbols sharing a projection are
    interchangeable inside that resource update, so their message mass can
    be aggregated."""
    edges = _edges(system)[0]
    return dict(zip(edges, _passes(system, edges, PROJECTION_MERGE_TOL)[0]))


def complexity_report(system: ScmaSystem) -> ComplexityReport:
    """Hypothesis counts per resource of every MPA engine (see
    ComplexityReport); collapsed merges within PROJECTION_MERGE_TOL."""
    edges, res_edges, _ = _edges(system)
    degrees = tuple(int(d) for d in system.graph.degrees)
    plain = tuple(system.alphabet_size**d for d in degrees)
    mpa = _entries(_passes(system, edges), res_edges)
    collapsed = _entries(_passes(system, edges, PROJECTION_MERGE_TOL), res_edges)
    split = (_entries(_passes(system, edges, split=True), res_edges)
             if system.is_separable else None)
    return ComplexityReport(degrees, plain, mpa, collapsed, split)
