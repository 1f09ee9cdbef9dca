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
    "BeliefState",
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
class BeliefState:
    """Final message sets of one MPA run, keyed by (resource, layer)."""

    resource_to_layer: dict
    layer_to_resource: dict
    iterations: int


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


def _edge_tables(
    system: ScmaSystem, gains: np.ndarray, tables: ProjectionTables | None
):
    """Edge lists plus the (T, A_e) value table and symbol-to-value index
    (None without `tables`) of every edge, channel folded in; gains is (T, J, K).
    """
    edges, res_edges, lay_edges = _edges(system)
    edge_values, edge_index = [], []
    for k, j in edges:
        if tables is None:
            vals, idx = system.codebooks[j].codewords[:, k], None
        else:
            vals, idx = tables.tables[(k, j)]
        edge_values.append(gains[:, j, k][:, None] * vals[None, :])
        edge_index.append(idx)
    return edges, res_edges, lay_edges, edge_values, edge_index


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
    """Flooding sum-product over precomputed per-edge value tables.

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
    marginals = _normalise(marginals.reshape(-1, alphabet)).reshape(marginals.shape)
    return marginals, l2r, r2l


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
    """MPA marginals for a stack of trials; returns (T, J, M)."""
    _check_detect_args(noise_var, max_iter, damping)
    y = np.atleast_2d(np.asarray(y, dtype=np.complex128))
    gains = np.asarray(gains, dtype=np.complex128)
    _, res_edges, lay_edges, edge_values, edge_index = _edge_tables(
        system, gains, tables
    )
    marginals, _, _ = _run_mpa(
        y, edge_values, edge_index, res_edges, lay_edges,
        system.alphabet_size, noise_var, max_iter, damping,
    )
    return marginals


def batch_map(
    y: np.ndarray, gains: np.ndarray, system: ScmaSystem, noise_var: float
) -> np.ndarray:
    """Exact joint-MAP marginals by enumerating all M**J hypotheses."""
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

    chunk = max(1, min(total, (1 << 20) // max(1, t_count * k_count)))
    starts = range(0, total, chunk)
    # pass 1: per-trial max log-likelihood for a stable exponent shift
    max_ll = np.full(t_count, -np.inf)
    for start in starts:
        ll = _map_loglik_chunk(y, gains, system, noise_var, start, chunk, total)
        max_ll = np.maximum(max_ll, ll.max(axis=1))
    marginals = np.zeros((t_count, j_count, m))
    for start in starts:
        ll = _map_loglik_chunk(y, gains, system, noise_var, start, chunk, total)
        w = np.exp(ll - max_ll[:, None])
        idx = np.arange(start, min(start + chunk, total))
        for j in range(j_count):
            digits = (idx // m ** (j_count - 1 - j)) % m
            onehot = (digits[:, None] == np.arange(m)).astype(np.float64)
            marginals[:, j, :] += w @ onehot
    return marginals / marginals.sum(axis=2, keepdims=True)


def _map_loglik_chunk(y, gains, system, noise_var, start, chunk, total):
    m, j_count = system.alphabet_size, system.n_layers
    idx = np.arange(start, min(start + chunk, total))
    y_hat = np.zeros((y.shape[0], len(idx), y.shape[1]), dtype=np.complex128)
    for j in range(j_count):
        digits = (idx // m ** (j_count - 1 - j)) % m
        y_hat += gains[:, j, None, :] * system.codebooks[j].codewords[digits][None]
    return -np.sum(np.abs(y[:, None, :] - y_hat) ** 2, axis=2) / noise_var


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
        marg, _, _ = _run_mpa(
            y_part.astype(np.complex128),
            [v.astype(np.complex128) for v in vals],
            [None] * len(edges),
            res_edges, lay_edges,
            alphabet, noise_var, max_iter, 0.0,
        )
        return marg

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


def _result(system: ScmaSystem, marginals: np.ndarray, iters: int) -> DetectionResult:
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
    return_state: bool = False,
):
    """Sum-product detection of one received vector.

    Runs exactly max_iter flooding iterations (resource updates, then layer
    updates). With `tables` the per-resource enumeration runs over merged
    projections instead of raw symbols, which changes nothing but cost.
    """
    _check_detect_args(noise_var, max_iter, damping)
    y = np.asarray(y, dtype=np.complex128).reshape(1, -1)
    edges, res_edges, lay_edges, edge_values, edge_index = _edge_tables(
        system, channel.gains[None], tables
    )
    marginals, l2r, r2l = _run_mpa(
        y, edge_values, edge_index, res_edges, lay_edges,
        system.alphabet_size, noise_var, max_iter, damping,
    )
    result = _result(system, marginals[0], max_iter)
    if return_state:
        state = BeliefState(
            resource_to_layer={edges[e]: r2l[e][0] for e in range(len(edges))},
            layer_to_resource={edges[e]: l2r[e][0] for e in range(len(edges))},
            iterations=max_iter,
        )
        return result, state
    return result


def map_joint_oracle(
    y: np.ndarray,
    system: ScmaSystem,
    channel: ChannelRealization,
    noise_var: float,
) -> DetectionResult:
    """Exact per-layer marginals from full joint enumeration (M**J <= 2**20)."""
    marginals = batch_map(
        np.asarray(y, dtype=np.complex128).reshape(1, -1),
        channel.gains[None],
        system,
        noise_var,
    )
    return _result(system, marginals[0], 1)


def split_detect(
    y: np.ndarray,
    system: ScmaSystem,
    channel: ChannelRealization,
    noise_var: float,
    max_iter: int = 8,
) -> DetectionResult:
    """Real/imaginary split detection; see batch_split for the preconditions."""
    marginals = batch_split(
        np.asarray(y, dtype=np.complex128).reshape(1, -1),
        channel.gains[None],
        system,
        noise_var,
        max_iter,
    )
    return _result(system, marginals[0], max_iter)


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
