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
    "ProjectionTables",
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


@dataclass(frozen=True)
class DetectionResult:
    """Per-layer posteriors and the decisions read off them."""

    marginals: np.ndarray  # (J, M), rows sum to 1
    hard_symbols: np.ndarray  # (J,) argmax indices, ties -> lowest index
    bits: np.ndarray  # (J, log2 M) decoded label bits, MSB first
    iterations_run: int


@dataclass(frozen=True)
class ProjectionTables:
    """Distinct per-resource codeword values of every edge.

    tables[(k, j)] = (values, index) with values the distinct projections
    of layer j's codewords on resource k and index the alphabet-to-value
    map; symbols sharing a projection are interchangeable inside that
    resource update, so their message mass can be aggregated.
    """

    tables: dict

    def counts(self, k: int, j: int) -> int:
        return len(self.tables[(k, j)][0])


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
    """Edge list plus per-resource and per-layer edge indices."""
    edges = []
    res_edges = [[] for _ in range(system.n_resources)]
    lay_edges = [[] for _ in range(system.n_layers)]
    for k in range(system.n_resources):
        for j in system.graph.layers_at(k):
            e = len(edges)
            edges.append((k, j))
            res_edges[k].append(e)
            lay_edges[j].append(e)
    return edges, res_edges, lay_edges


def _normalise(msg: np.ndarray) -> np.ndarray:
    """Row-normalise; all-zero rows (total underflow) fall back to uniform."""
    total = msg.sum(axis=1, keepdims=True)
    safe = np.where(total > 0, total, 1.0)
    out = msg / safe
    out[np.squeeze(total, axis=1) <= 0] = 1.0 / msg.shape[1]
    return out


def _resource_tables(y, edge_values, res_edges, noise_var):
    """Per resource, exp(-(|y_k - s|^2 - min_s |y_k - s|^2) / noise_var) over
    every sum s of its edges' values, one axis per edge after the trial axis;
    None for a resource with no edges. It depends only on y and the channel.
    """
    t_count = y.shape[0]
    tables = []
    for k, es in enumerate(res_edges):
        d = len(es)
        if d == 0:
            tables.append(None)
            continue
        s = np.zeros((t_count,) + (1,) * d, dtype=np.complex128)
        for i, e in enumerate(es):
            shape = (t_count,) + (1,) * i + (-1,) + (1,) * (d - 1 - i)
            s = s + edge_values[e].reshape(shape)
        energy = np.abs(y[:, k].reshape((t_count,) + (1,) * d) - s) ** 2
        energy -= energy.min(axis=tuple(range(1, d + 1)), keepdims=True)
        tables.append(np.exp(-energy / noise_var))
    return tables


# einsum subscripts for the hypothesis axes of a resource table; "t" is the
# trial axis
_AXES = "abcdefghijklmnopqrsuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _run_mpa(
    y: np.ndarray,
    edge_values: list[np.ndarray],
    edge_index: list[np.ndarray | None],
    res_edges,
    lay_edges,
    alphabet: int,
    noise_var: float,
    max_iter: int,
    damping: float,
):
    """Flooding sum-product over precomputed per-edge value tables; returns
    the (T, J, alphabet) marginals.

    y is (T, K); edge_values[e] is (T, A_e) with the channel already folded
    in. When edge_index[e] is not None the edge works on A_e merged
    projections and index maps each of the `alphabet` symbols onto its
    projection; messages still live on the full alphabet.

    Each resource-to-layer message contracts the resource's likelihood
    table with the outer product of the other incoming messages, which has
    at most prod(A_e) / A_e entries per trial.
    """
    t_count = y.shape[0]
    n_edges = len(edge_values)
    uniform = np.full((t_count, alphabet), 1.0 / alphabet)
    l2r = [uniform.copy() for _ in range(n_edges)]
    r2l = [uniform.copy() for _ in range(n_edges)]
    tables = _resource_tables(y, edge_values, res_edges, noise_var)

    for _ in range(max_iter):
        for k, es in enumerate(res_edges):
            gauss = tables[k]
            if gauss is None:
                continue
            incoming = []
            for e in es:
                idx = edge_index[e]
                if idx is None:
                    incoming.append(l2r[e])
                else:
                    agg = np.zeros((t_count, edge_values[e].shape[1]))
                    np.add.at(agg.T, idx, l2r[e].T)
                    incoming.append(agg)
            axes = _AXES[: len(es)]
            for i, e in enumerate(es):
                others = [i2 for i2 in range(len(es)) if i2 != i]
                if others:
                    w = incoming[others[0]]
                    for i2 in others[1:]:
                        w = w[..., None] * incoming[i2].reshape(
                            (t_count,) + (1,) * (w.ndim - 1) + (-1,)
                        )
                    sub = "".join(axes[i2] for i2 in others)
                    out = np.einsum(f"t{axes},t{sub}->t{axes[i]}", gauss, w)
                else:
                    out = gauss
                idx = edge_index[e]
                if idx is not None:
                    out = out[:, idx]
                out = _normalise(out)
                r2l[e] = (1.0 - damping) * out + damping * r2l[e]
        for j, es in enumerate(lay_edges):
            for i, e in enumerate(es):
                prod = np.ones((t_count, alphabet))
                for i2, e2 in enumerate(es):
                    if i2 != i:
                        prod = prod * r2l[e2]
                out = _normalise(prod)
                l2r[e] = (1.0 - damping) * out + damping * l2r[e]

    marginals = np.ones((t_count, len(lay_edges), alphabet))
    for j, es in enumerate(lay_edges):
        for e in es:
            marginals[:, j, :] *= r2l[e]
    return _normalise(marginals.reshape(-1, alphabet)).reshape(marginals.shape)


# ---------------------------------------------------------------------------
# public batched engines (leading trial axis)


def batch_mpa(
    y: np.ndarray,
    gains: np.ndarray,
    system: ScmaSystem,
    noise_var: float,
    max_iter: int = 8,
    damping: float = 0.0,
    tables: ProjectionTables | None = None,
):
    """MPA marginals for a stack of trials; returns (T, J, M).

    Runs exactly max_iter flooding iterations (resource updates, then layer
    updates). With `tables` the per-resource enumeration runs over merged
    projections instead of raw symbols, which changes nothing but cost.
    """
    _check_detect_args(noise_var, max_iter, damping)
    y = np.atleast_2d(np.asarray(y, dtype=np.complex128))
    gains = np.asarray(gains, dtype=np.complex128)
    edges, res_edges, lay_edges = _edges(system)
    # (T, A_e) value table of every edge with the channel folded in, and its
    # symbol-to-value index (None without `tables`)
    edge_values, edge_index = [], []
    for k, j in edges:
        if tables is None:
            vals, idx = system.codebooks[j].codewords[:, k], None
        else:
            vals, idx = tables.tables[(k, j)]
        edge_values.append(gains[:, j, k][:, None] * vals[None, :])
        edge_index.append(idx)
    return _run_mpa(
        y, edge_values, edge_index, res_edges, lay_edges,
        system.alphabet_size, noise_var, max_iter, damping,
    )


def batch_map(
    y: np.ndarray, gains: np.ndarray, system: ScmaSystem, noise_var: float
) -> np.ndarray:
    """Exact joint-MAP marginals over all M**J hypotheses, in one pass.

    Resource k's log-likelihood term depends only on the layers at k, so it
    is built over their axes alone and the K terms broadcast into one
    (M, ..., M, T) table. Trials go last, so the sums over layer axes add
    contiguous rows, and are sliced to keep the table within
    MAX_JOINT_HYPOTHESES entries.
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    m, j_count = system.alphabet_size, system.n_layers
    total = m**j_count
    if total > MAX_JOINT_HYPOTHESES:
        raise ValueError(
            f"M**J = {total} exceeds the enumeration cap {MAX_JOINT_HYPOTHESES}"
        )
    y = np.atleast_2d(np.asarray(y, dtype=np.complex128))
    gains = np.asarray(gains, dtype=np.complex128)
    t_count, k_count = y.shape
    layer_axes = tuple(range(j_count))
    step = max(1, MAX_JOINT_HYPOTHESES // total)
    marginals = np.empty((t_count, j_count, m))
    for lo in range(0, t_count, step):
        y_s, g_s = y[lo : lo + step], gains[lo : lo + step]
        t_s = y_s.shape[0]
        ll = np.zeros((m,) * j_count + (t_s,))
        for k in range(k_count):
            s = 0j
            for j in system.graph.layers_at(k):
                shape = [1] * j_count + [t_s]
                shape[j] = m
                vals = system.codebooks[j].codewords[:, k, None] * g_s[:, j, k]
                s = s + vals.reshape(shape)
            ll -= np.abs(y_s[:, k] - s) ** 2
        ll /= noise_var
        # shift each trial's best hypothesis to 0 so exp cannot underflow
        # all of a trial's hypotheses
        ll -= ll.max(axis=layer_axes)
        w = np.exp(ll, out=ll)
        for j in range(j_count):
            others = layer_axes[:j] + layer_axes[j + 1 :]
            marginals[lo : lo + t_s, j] = w.sum(axis=others).T
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
    y = np.atleast_2d(np.asarray(y, dtype=np.complex128))
    gains = np.asarray(gains, dtype=np.complex128)
    mother = system.mother
    if not mother.is_separable:
        raise ValueError("mother constellation has no separable structure")
    if not all(op.is_real for op in system.operators):
        raise ValueError("split detection needs +-1 operator phases")
    if np.abs(gains.imag).max() > 1e-12:
        raise ValueError("split detection needs real channel gains")

    m_u = mother.real_points.shape[0]
    m_v = mother.imag_points.shape[0]
    edges, res_edges, lay_edges = _edges(system)

    def half(points: np.ndarray, y_part: np.ndarray, alphabet: int) -> np.ndarray:
        vals = []
        for k, j in edges:
            local = system.codebooks[j].support.index(k)
            sign = system.operators[j].phases[local].real
            col = sign * points[:, local]
            vals.append(gains[:, j, k].real[:, None] * col[None, :])
        return _run_mpa(
            y_part.astype(np.complex128),
            [v.astype(np.complex128) for v in vals],
            [None] * len(edges),
            res_edges, lay_edges,
            alphabet, noise_var, max_iter, 0.0,
        )

    marg_re = half(mother.real_points, y.real, m_u)
    marg_im = half(mother.imag_points, y.imag, m_v)
    combined = np.einsum("tjp,tjq->tjpq", marg_re, marg_im)
    combined = combined.reshape(y.shape[0], system.n_layers, m_u * m_v)
    return combined / combined.sum(axis=2, keepdims=True)


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
    y = np.asarray(y, dtype=np.complex128).reshape(1, -1)
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
    tables: ProjectionTables | None = None,
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
) -> ProjectionTables:
    """Distinct projected codeword values per (resource, layer) edge."""
    tables = {}
    for k in range(system.n_resources):
        for j in system.graph.layers_at(k):
            vals, idx = merge_values(system.codebooks[j].codewords[:, k], tol)
            tables[(k, j)] = (vals, idx)
    return ProjectionTables(tables)


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
            count *= tables.counts(k, j)
        collapsed.append(count)
    split = None
    if system.mother.is_separable and all(op.is_real for op in system.operators):
        m_u = system.mother.real_points.shape[0]
        m_v = system.mother.imag_points.shape[0]
        split = tuple(m_u**d + m_v**d for d in degrees)
    return ComplexityReport(degrees, plain, tuple(collapsed), split)
