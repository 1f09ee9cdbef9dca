"""Multiuser detection on the factor graph.

The workhorse is a flooding-schedule sum-product detector (MPA) whose
per-resource update marginalises a Gaussian likelihood over all colliding
symbol combinations. A brute-force joint MAP oracle, a collapsed-projection
variant and a real/imaginary split variant share its machinery.
"""

from __future__ import annotations

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
# exp arguments below this give an exact 0. numpy's SIMD exp leaves its fast
# path below about -707.7 (near the smallest normal float, exp(-708.4)) and
# for -inf, and subnormal table entries would slow the matmuls over them.
EXP_FLUSH_ARG = -707.0


@dataclass(frozen=True)
class DetectionResult:
    """Per-layer posteriors and the decisions read off them."""

    marginals: np.ndarray  # (J, M), rows sum to 1
    hard_symbols: np.ndarray  # (J,) argmax indices, ties -> lowest index
    bits: np.ndarray  # (J, log2 M) decoded label bits, MSB first
    iterations_run: int


@dataclass(frozen=True)
class ComplexityReport:
    """Per-resource hypothesis counts of the detector variants."""

    degrees: tuple[int, ...]
    plain: tuple[int, ...]
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


def _normalise(msg: np.ndarray) -> np.ndarray:
    """Normalise (X, M, T) messages over the alphabet axis M; columns that
    sum to 0 (total underflow) fall back to uniform."""
    total = np.einsum("xmt->xt", msg)[:, None]
    if (total > 0).all():
        return msg / total
    return np.where(total > 0, msg / np.where(total > 0, total, 1.0), 1.0 / msg.shape[1])


def _exp_flushed(a: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """exp(a) in place, with every entry whose argument is below
    EXP_FLUSH_ARG (-inf included) set to an exact 0; exp itself only ever
    sees arguments on its fast path. A float `mask` holds the 0/1 keep mask."""
    keep = np.greater_equal(a, EXP_FLUSH_ARG, out=mask)
    np.maximum(a, EXP_FLUSH_ARG, out=a)
    np.exp(a, out=a)
    a *= keep
    return a


def _damped(new: np.ndarray, old: np.ndarray, damping: float) -> np.ndarray:
    """(1 - damping) * new + damping * old; new itself when undamped."""
    return (1.0 - damping) * new + damping * old if damping else new


def _resource_tables(y, edge_values, res_edges, noise_var):
    """Per resource, exp(-(|y_k - s|^2 - min_s |y_k - s|^2) / noise_var) over
    every sum s of its edges' values as an (A_1 * ... * A_{d-1}, A_d, T)
    array in edge order, or None without edges; entries whose exp argument is
    below EXP_FLUSH_ARG are 0. The first d - 1 edges fold into a complex
    residual y_k - s; the energy against the last is real arithmetic, its
    imaginary part and then the flush mask in one scratch buffer per call.
    """
    t_count = y.shape[-1]
    sizes = [np.prod([len(edge_values[e]) for e in es], dtype=int) for es in res_edges]
    scratch = np.empty(max(sizes) * t_count)
    tables = []
    for k, es in enumerate(res_edges):
        if not es:
            tables.append(None)
            continue
        r = y[k][None]
        for e in es[:-1]:
            r = (r[:, None] - edge_values[e]).reshape(-1, t_count)
        last = edge_values[es[-1]]
        re = r.real[:, None] - last.real
        im = scratch[: re.size].reshape(re.shape)
        np.subtract(r.imag[:, None], last.imag, out=im)
        energy = np.add(np.square(re, out=re), np.square(im, out=im), out=re)
        energy -= energy.min(axis=(0, 1))
        energy /= -noise_var
        tables.append(_exp_flushed(energy, im))
    return tables


def _leave_one_out(table, msgs):
    """out[i][a_i, t]: the sum of table[..., t] over every axis but i, weighted
    by the messages on those axes; table holds the axes of msgs in order,
    then trials, flattened in any way that keeps that order.

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
    g = table.reshape(len(w), -1, t_count)
    last = np.einsum("pat,pt->at", g, w)
    rest = np.einsum("pat,at->pt", g, msgs[-1])
    return _leave_one_out(rest, msgs[:-1]) + [last]


def _run_mpa(
    y: np.ndarray,
    edge_values: list[np.ndarray],
    edge_proj: list[np.ndarray | None],
    res_edges,
    lay_edges,
    alphabet: int,
    noise_var: float,
    max_iter: int,
    damping: float,
):
    """Flooding sum-product over precomputed per-edge value tables; returns
    the (J, alphabet, T) marginals.

    y is (K, T), real or complex; edge_values[e] is (A_e, T) with the
    channel already folded in. When edge_proj[e] is not None the edge works
    on A_e merged projections and edge_proj[e] is the (A_e, alphabet)
    indicator of each symbol's projection; messages still live on the full
    alphabet, summed onto the projections on the way into a resource.
    Messages are (E, alphabet, T); lay_edges holds each layer's N edges.
    """
    t_count = y.shape[-1]
    l2r = r2l = np.full((len(edge_values), alphabet, t_count), 1.0 / alphabet)
    tables = _resource_tables(y, edge_values, res_edges, noise_var)
    n = lay_edges.shape[1]  # others[i]: the positions of a layer's edges but its i-th
    others = [[i2 for i2 in range(n) if i2 != i] for i in range(n)]
    out = np.empty_like(r2l)
    for _ in range(max_iter):
        for k, es in enumerate(res_edges):
            if tables[k] is None:
                continue
            proj = [edge_proj[e] for e in es]
            incoming = [m if p is None else np.einsum("am,mt->at", p, m)
                        for p, m in zip(proj, l2r[es])]
            for e, p, o in zip(es, proj, _leave_one_out(tables[k], incoming)):
                out[e] = o if p is None else p.T @ o
        r2l = _damped(_normalise(out), r2l, damping)
        out[lay_edges] = r2l[lay_edges[:, others]].prod(axis=2)
        l2r = _damped(_normalise(out), l2r, damping)

    return _normalise(r2l[lay_edges].prod(axis=1))


# ---------------------------------------------------------------------------
# public batched engines (leading trial axis)


def _trial_slices(body, y, gains, step: int | None = None) -> np.ndarray:
    """(T, J, M) marginals of an engine whose body(y, gains) maps the (K, T)
    received values and (T, J, K) gains of a slice of at most `step` trials
    (all of them by default) to their (J, M, T) marginals.

    numpy runs a body's sums with the trial axis innermost, so a trial's
    terms add in axis order and get the same bits at any call size; a lone
    trial would leave a summed axis innermost, so a one-trial slice runs as
    two copies of it, unless every slice holds one trial. The result is
    C-ordered, so that a caller's sums over M run along M at any call size.
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.complex128))
    gains = np.asarray(gains, dtype=np.complex128)
    if not len(y):
        raise ValueError("detection needs at least one trial")
    step = step or len(y) + 1
    parts = []
    for lo in range(0, len(y), step):
        y_s, g_s = y[lo : lo + step], gains[lo : lo + step]
        n = len(y_s)
        if n == 1 < step:
            y_s, g_s = y_s[[0, 0]], g_s[[0, 0]]
        parts.append(body(y_s.T, g_s)[..., :n])
    return np.concatenate(parts, axis=2).transpose(2, 0, 1).copy()


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
    updates). With `tables` the per-resource enumeration runs over merged
    projections instead of raw symbols, which changes nothing but cost.
    """
    _check_detect_args(noise_var, max_iter, damping)
    edges, res_edges, lay_edges = _edges(system)

    def body(y, gains):
        # (A_e, T) value table of every edge with the channel folded in, and
        # its value-by-symbol indicator (None without `tables`)
        edge_values, edge_proj = [], []
        for k, j in edges:
            if tables is None:
                vals, proj = system.codebooks[j].codewords[:, k], None
            else:
                vals, idx = tables[(k, j)]
                proj = np.eye(len(vals))[:, idx]
            edge_values.append(gains[:, j, k] * vals[:, None])
            edge_proj.append(proj)
        return _run_mpa(
            y, edge_values, edge_proj, res_edges, lay_edges,
            system.alphabet_size, noise_var, max_iter, damping,
        )

    return _trial_slices(body, y, gains)


def batch_map(
    y: np.ndarray, gains: np.ndarray, system: ScmaSystem, noise_var: float
) -> np.ndarray:
    """Exact joint-MAP marginals over all M**J hypotheses, in one pass.

    Resource k's log-likelihood term depends only on the layers at k, so it
    is built over their axes alone and the K terms broadcast into one
    (M, ..., M, T) table. Trials go last, so the sums over layer axes add
    contiguous rows, and are sliced to keep the table within
    MAX_JOINT_HYPOTHESES entries. The table is summed twice, over the second
    and over the first half of the layer axes; each layer's marginal is read
    off the small sum that keeps its axis.
    """
    _check_detect_args(noise_var, 1, 0.0)
    m, j_count = system.alphabet_size, system.n_layers
    total = m**j_count
    if total > MAX_JOINT_HYPOTHESES:
        raise ValueError(
            f"M**J = {total} exceeds the enumeration cap {MAX_JOINT_HYPOTHESES}"
        )
    layer_axes = tuple(range(j_count))
    half = j_count // 2
    # (axes summed out of the table, layers whose axes the sum keeps)
    halves = [(layer_axes[half:], range(half)), (layer_axes[:half], range(half, j_count))]

    def body(y, gains):
        t_s = y.shape[1]
        ll = np.empty((m,) * j_count + (t_s,))
        for k in range(system.n_resources):
            s = 0j
            for j in system.graph.layers_at(k):
                shape = [1] * j_count + [t_s]
                shape[j] = m
                vals = system.codebooks[j].codewords[:, k, None] * gains[:, j, k]
                s = s + vals.reshape(shape)
            r = y[k] - s
            # scaled while the term still spans only the layers at k
            term = np.square(r.real) + np.square(r.imag)
            term /= -noise_var
            if k:
                ll += term
            else:
                ll[...] = term
        # shift each trial's best hypothesis to 0 so exp cannot underflow
        # all of a trial's hypotheses
        ll -= ll.max(axis=layer_axes)
        w = _exp_flushed(ll)
        marginals = np.empty((j_count, m, t_s))
        for summed, kept in halves:
            if not kept:
                continue
            part = w.sum(axis=summed)
            for i, j in enumerate(kept):
                others = tuple(a for a in range(len(kept)) if a != i)
                marginals[j] = part.sum(axis=others)
        return marginals

    marginals = _trial_slices(body, y, gains, max(1, MAX_JOINT_HYPOTHESES // total))
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
    real Gaussian of variance noise_var / 2.
    """
    _check_detect_args(noise_var, max_iter, 0.0)
    mother = system.mother
    if not system.is_separable:
        raise ValueError("split detection needs a separable mother and +-1 phases")
    edges, res_edges, lay_edges = _edges(system)

    def half(points: np.ndarray, y_part: np.ndarray, gains: np.ndarray) -> np.ndarray:
        vals = []
        for k, j in edges:
            local = system.codebooks[j].support.index(k)
            sign = system.operators[j].phases[local].real
            col = sign * points[:, local]
            vals.append(gains[:, j, k].real * col[:, None])
        return _run_mpa(
            y_part, vals, [None] * len(edges), res_edges, lay_edges,
            len(points), noise_var, max_iter, 0.0,
        )

    def body(y, gains):
        if np.abs(gains.imag).max() > 1e-12:
            raise ValueError("split detection needs real channel gains")
        marg_re = half(mother.real_points, y.real, gains)
        marg_im = half(mother.imag_points, y.imag, gains)
        combined = marg_re[:, :, None] * marg_im[:, None]
        return _normalise(combined.reshape(system.n_layers, -1, y.shape[1]))

    return _trial_slices(body, y, gains)


# ---------------------------------------------------------------------------
# single-shot API


def _check_detect_args(noise_var: float, max_iter: int, damping: float) -> None:
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
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


def collapse_projections(
    system: ScmaSystem, tol: float = PROJECTION_MERGE_TOL
) -> dict:
    """Distinct projected codeword values per (resource, layer) edge, as
    {(k, j): (values, index)}: values are the distinct projections of layer
    j's codewords on resource k and index maps each symbol to its value.
    Symbols sharing a projection are interchangeable inside that resource
    update, so their message mass can be aggregated."""
    tables = {}
    for k in range(system.n_resources):
        for j in system.graph.layers_at(k):
            vals, idx = merge_values(system.codebooks[j].codewords[:, k], tol)
            tables[(k, j)] = (vals, idx)
    return tables


def complexity_report(system: ScmaSystem) -> ComplexityReport:
    """Hypothesis counts per resource for plain, collapsed and split MPA."""
    tables = collapse_projections(system)
    degrees = tuple(int(d) for d in system.graph.degrees)
    m = system.alphabet_size
    plain = tuple(m**d for d in degrees)
    collapsed = []
    for k in range(system.n_resources):
        count = 1
        for j in system.graph.layers_at(k):
            count *= len(tables[(k, j)][0])
        collapsed.append(count)
    split = None
    if system.is_separable:
        m_u = system.mother.real_points.shape[0]
        m_v = system.mother.imag_points.shape[0]
        split = tuple(m_u**d + m_v**d for d in degrees)
    return ComplexityReport(degrees, plain, tuple(collapsed), split)
