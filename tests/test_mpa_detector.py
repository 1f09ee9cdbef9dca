import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from scma import mpa_detector
from scma.channel_model import (
    ChannelRealization,
    sample_gains,
    sample_noise,
    snr_to_noise_variance,
)
from scma.codebook import LayerOperator, ScmaSystem, build_codebook, build_named_system
from scma.codebook import build_system
from scma.constellation import (
    MotherConstellation,
    base_lattice,
    four_point_mother,
    low_projection_16point,
    merge_values,
    optimize_rotation_projections,
    repetition_qam_mother,
    rotate,
    shuffle_construct,
    t16qam,
)
from scma.factor_graph import (
    FactorGraph, build_full_graph, build_subgraph, mapping_matrix,
)
from scma.mpa_detector import (
    MAX_JOINT_HYPOTHESES,
    batch_map,
    batch_mpa,
    batch_split,
    collapse_projections,
    complexity_report,
    map_joint_oracle,
    mpa_detect,
    split_detect,
)
from scma.system_io import load_system, save_system


def awgn_channel(system):
    return ChannelRealization(
        gains=np.ones((system.n_layers, system.n_resources), dtype=complex),
        mode="awgn",
    )


def random_received(system, snr_db, rng, mode="awgn"):
    tx = rng.integers(0, system.alphabet_size, system.n_layers)
    cw = np.stack(
        [system.codebooks[j].codewords[tx[j]] for j in range(system.n_layers)]
    )
    gains = sample_gains(mode, system.n_layers, system.n_resources, rng)
    nv = 10 ** (-snr_db / 10) / system.n_resources
    noise = sample_noise(nv, system.n_resources, rng)
    y = (gains * cw).sum(axis=0) + noise
    return y, ChannelRealization(gains=gains, mode=mode), nv, tx


def identity_phase_system(n_layers=6, mother=None):
    """Full graph with T16QAM (or `mother`) and all-ones phases: separable
    and real."""
    graph = build_full_graph(4, 2)
    if n_layers < 6:
        from scma.factor_graph import build_subgraph

        graph = build_subgraph(4, 2, n_layers)
    mother = mother or t16qam()
    ops = tuple(
        LayerOperator(phases=np.ones(2, dtype=complex)) for _ in range(n_layers)
    )
    cbs = tuple(
        build_codebook(mother, ops[j], mapping_matrix(graph.signature(j)))
        for j in range(n_layers)
    )
    return ScmaSystem(graph=graph, mother=mother, operators=ops, codebooks=cbs)


def random_batch(system, snr_db, rng, mode, size):
    """(y, gains, noise_var) for `size` independent trials."""
    tx = rng.integers(0, system.alphabet_size, (size, system.n_layers))
    cw = np.stack(
        [system.codebooks[j].codewords[tx[:, j]] for j in range(system.n_layers)],
        axis=1,
    )
    gains = sample_gains(mode, system.n_layers, system.n_resources, rng, size=size)
    nv = snr_to_noise_variance(snr_db, system, "per_layer").variance
    y = (gains * cw).sum(axis=1) + sample_noise(nv, system.n_resources, rng, size=size)
    return y, gains, nv


def reference_mpa(y, gains, system, nv, max_iter, damping=0.0, tables=None):
    """Flooding sum-product that rebuilds every resource's likelihood table
    on each iteration and marginalises by multiplying the whole table with
    each other incoming message, then summing; returns (T, J, M)."""
    t_count, m = y.shape[0], system.alphabet_size
    edges = [
        (k, j) for k in range(system.n_resources) for j in system.graph.layers_at(k)
    ]
    vals, index = [], []
    for k, j in edges:
        if tables is None:
            v, idx = system.codebooks[j].codewords[:, k], None
        else:
            v, idx = tables[(k, j)]
        vals.append(gains[:, j, k][:, None] * v[None, :])
        index.append(idx)
    res_edges = [[e for e, (k, _) in enumerate(edges) if k == kk]
                 for kk in range(system.n_resources)]
    lay_edges = [[e for e, (_, j) in enumerate(edges) if j == jj]
                 for jj in range(system.n_layers)]

    def norm(x):
        total = x.sum(axis=1, keepdims=True)
        safe = np.where(total > 0, total, 1.0)
        return np.where(total > 0, x / safe, 1.0 / x.shape[1])

    l2r = [np.full((t_count, m), 1.0 / m) for _ in edges]
    r2l = [np.full((t_count, m), 1.0 / m) for _ in edges]
    for _ in range(max_iter):
        for k, es in enumerate(res_edges):
            d = len(es)
            if d == 0:
                continue
            shape = lambda i: (t_count,) + (1,) * i + (-1,) + (1,) * (d - 1 - i)
            incoming = []
            for e in es:
                if index[e] is None:
                    incoming.append(l2r[e])
                else:
                    agg = np.zeros((t_count, vals[e].shape[1]))
                    np.add.at(agg.T, index[e], l2r[e].T)
                    incoming.append(agg)
            s = sum(vals[e].reshape(shape(i)) for i, e in enumerate(es))
            energy = np.abs(y[:, k].reshape((t_count,) + (1,) * d) - s) ** 2
            energy -= energy.min(axis=tuple(range(1, d + 1)), keepdims=True)
            gauss = np.exp(-energy / nv)
            for i, e in enumerate(es):
                w = gauss
                for i2 in range(d):
                    if i2 != i:
                        w = w * incoming[i2].reshape(shape(i2))
                out = w.sum(axis=tuple(a for a in range(1, d + 1) if a != i + 1))
                if index[e] is not None:
                    out = out[:, index[e]]
                r2l[e] = (1.0 - damping) * norm(out) + damping * r2l[e]
        for es in lay_edges:
            for e in es:
                prod = np.ones((t_count, m))
                for e2 in es:
                    if e2 != e:
                        prod = prod * r2l[e2]
                l2r[e] = (1.0 - damping) * norm(prod) + damping * l2r[e]
    marginals = np.ones((t_count, system.n_layers, m))
    for j, es in enumerate(lay_edges):
        for e in es:
            marginals[:, j, :] *= r2l[e]
    return norm(marginals.reshape(-1, m)).reshape(marginals.shape)


def reference_map(y, gains, system, nv):
    """Joint MAP that rebuilds the full K-resource superposition of every
    hypothesis, in hypothesis chunks, twice: once for each trial's maximum
    log-likelihood and once for the weights, which one-hot matmuls fold into
    the marginals; returns (T, J, M)."""
    m, j_count = system.alphabet_size, system.n_layers
    total = m**j_count
    t_count, k_count = y.shape
    chunk = max(1, min(total, (1 << 20) // max(1, t_count * k_count)))
    starts = range(0, total, chunk)

    def loglik(start):
        idx = np.arange(start, min(start + chunk, total))
        y_hat = np.zeros((t_count, len(idx), k_count), dtype=np.complex128)
        for j in range(j_count):
            digits = (idx // m ** (j_count - 1 - j)) % m
            y_hat += gains[:, j, None, :] * system.codebooks[j].codewords[digits][None]
        return -np.sum(np.abs(y[:, None, :] - y_hat) ** 2, axis=2) / nv

    max_ll = np.full(t_count, -np.inf)
    for start in starts:
        max_ll = np.maximum(max_ll, loglik(start).max(axis=1))
    marginals = np.zeros((t_count, j_count, m))
    for start in starts:
        w = np.exp(loglik(start) - max_ll[:, None])
        idx = np.arange(start, min(start + chunk, total))
        for j in range(j_count):
            digits = (idx // m ** (j_count - 1 - j)) % m
            onehot = (digits[:, None] == np.arange(m)).astype(np.float64)
            marginals[:, j, :] += w @ onehot
    return marginals / marginals.sum(axis=2, keepdims=True)


# ---------------------------------------------------------------------------
# exactness on simple graphs


def test_single_layer_mpa_equals_map():
    system = build_named_system("t16", 4, 2, 1, 16)
    rng = np.random.default_rng(0)
    for _ in range(10):
        y, ch, nv, _ = random_received(system, 6.0, rng)
        a = mpa_detect(y, system, ch, nv, max_iter=1)
        b = map_joint_oracle(y, system, ch, nv)
        assert np.allclose(a.marginals, b.marginals, atol=1e-12)
        assert np.array_equal(a.hard_symbols, b.hard_symbols)


def test_disjoint_layers_mpa_equals_map():
    system = build_named_system("t16", 4, 2, 2, 16)
    rng = np.random.default_rng(1)
    for _ in range(10):
        y, ch, nv, _ = random_received(system, 8.0, rng)
        a = mpa_detect(y, system, ch, nv, max_iter=1)
        b = map_joint_oracle(y, system, ch, nv)
        assert np.allclose(a.marginals, b.marginals, atol=1e-12)


def test_loopy_mpa_close_to_map():
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(2)
    tvs = []
    for _ in range(25):
        y, ch, nv, _ = random_received(system, 8.0, rng)
        a = mpa_detect(y, system, ch, nv, max_iter=8)
        b = map_joint_oracle(y, system, ch, nv)
        tvs.append(0.5 * np.abs(a.marginals - b.marginals).sum(axis=1).mean())
    assert np.mean(tvs) <= 0.05


@pytest.mark.parametrize("n_layers", [2, 3])
def test_mpa_exact_on_cycle_free_graphs(n_layers):
    # sum-product is exact on a factor graph without cycles once messages
    # have crossed its diameter
    system = build_named_system("4pt", 4, 2, n_layers, 4)
    rng = np.random.default_rng(20 + n_layers)
    for mode in ("awgn", "uplink_rayleigh"):
        y, gains, nv = random_batch(system, 6.0, rng, mode, 64)
        mpa = batch_mpa(y, gains, system, nv, max_iter=8)
        exact = batch_map(y, gains, system, nv)
        assert np.abs(mpa - exact).max() <= 1e-9


def pinned(scheme, n_res, n_layers, m, collapsed, trials=16):
    """A PINNED_SYSTEMS row; its id names K only where it is not 4 and the
    trial count only where it is not 16."""
    k = "" if n_res == 4 else f"K{n_res}-"
    t = "" if trials == 16 else f"-T{trials}"
    return pytest.param(
        scheme, n_res, n_layers, m, collapsed, trials,
        id=f"{scheme}-{k}{n_layers}-{m}-{collapsed}{t}",
    )


PINNED_SYSTEMS = [
    pinned("4pt", 4, 6, 4, False),
    pinned("lds", 4, 6, 4, False),
    pinned("lowproj", 4, 6, 16, False),
    pinned("lowproj", 4, 6, 16, True),
    pinned("t16", 4, 2, 16, False),
    pinned("4pt", 4, 4, 4, False),  # partial load: resource degrees 2
    pinned("4pt", 4, 3, 4, False),  # resource degrees 2, 1, 2, 1
    pinned("4pt", 4, 5, 4, False),  # resource degrees 3, 2, 2, 3
    pinned("lds", 5, 10, 4, False),  # resource degree 4
    # one trial, and one past a power of two, with trials the last axis
    pinned("4pt", 4, 6, 4, False, 1),
    pinned("4pt", 4, 6, 4, False, 129),
    pinned("lowproj", 4, 6, 16, True, 1),
    pinned("lowproj", 4, 6, 16, True, 129),
]


@pytest.mark.parametrize("damping", [0.0, 0.3])
@pytest.mark.parametrize("mode", ["awgn", "uplink_rayleigh"])
@pytest.mark.parametrize("scheme,n_res,n_layers,m,collapsed,trials", PINNED_SYSTEMS)
def test_batch_mpa_matches_reference_kernel(
    scheme, n_res, n_layers, m, collapsed, trials, mode, damping
):
    system = build_named_system(scheme, n_res, 2, n_layers, m)
    tables = collapse_projections(system) if collapsed else None
    rng = np.random.default_rng(30)
    y, gains, nv = random_batch(system, 8.0, rng, mode, trials)
    got = batch_mpa(y, gains, system, nv, 4, damping, tables)
    want = reference_mpa(y, gains, system, nv, 4, damping, tables)
    assert np.abs(got - want).max() <= 1e-9


@pytest.mark.parametrize("ratio", [1e-2, 1e-4, 1e-8])
def test_marginals_finite_under_noise_mismatch(ratio):
    # a detector noise variance far below the true one underflows the
    # product of incoming messages, and any unshifted joint likelihood, for
    # many trials
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(40)
    y, gains, nv = random_batch(system, 12.0, rng, "uplink_rayleigh", 512)
    for marg in (batch_mpa(y, gains, system, nv * ratio, 8),
                 batch_map(y, gains, system, nv * ratio)):
        assert np.isfinite(marg).all()
        assert np.allclose(marg.sum(axis=2), 1.0, atol=1e-12)


@pytest.mark.parametrize("engine", ["mpa", "mpa_collapsed", "map", "split"])
def test_engines_finite_over_every_noise_variance(engine):
    # ordinary y and gains, detected at noise variances across the float
    # range: above 2K the clamp on a table's ratio passes max_float and must
    # become inf without an overflow warning
    rng = np.random.default_rng(91)
    if engine == "split":
        systems, modes = [identity_phase_system(4, low_projection_16point())], ["awgn"]
    else:
        systems = [build_named_system(*a) for a in
                   (("4pt", 4, 2, 6, 4), ("lds", 4, 2, 6, 4), ("lowproj", 4, 2, 4, 16))]
        modes = ["awgn", "uplink_rayleigh"]
    for system in systems:
        tables = collapse_projections(system) if engine == "mpa_collapsed" else None
        for mode in modes:
            y, gains, _ = random_batch(system, 8.0, rng, mode, 8)
            for nv in np.logspace(-300, 300, 25):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    if engine == "map":
                        marg = batch_map(y, gains, system, nv)
                    elif engine == "split":
                        marg = batch_split(y, gains.real, system, nv)
                    else:
                        marg = batch_mpa(y, gains, system, nv, tables=tables)
                assert np.isfinite(marg).all()
                assert np.allclose(marg.sum(axis=2), 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "y_scale,gain_scale,nv",
    [
        # |y|^2 / noise_var overflows, and every hypothesis ties in float
        (1e150, 1.0, 1e-12),
        (1e150, 1.0, 1e-300),
        (1e100, 1.0, 1e-250),
        # the same ratio overflows, but the hypotheses' energies differ
        (1e150, 2.0**465, 1e-12),
    ],
)
def test_batch_map_finite_when_the_unshifted_ratio_overflows(y_scale, gain_scale, nv):
    # each resource's term is shifted by its trial's best hypothesis before
    # the division, so only the gaps between hypotheses reach the ratio
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(70)
    y = y_scale * (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))) / np.sqrt(2)
    gains = np.full((8, 6, 4), gain_scale, dtype=complex)
    got = batch_map(y, gains, system, nv)  # RuntimeWarnings are errors
    assert np.isfinite(got).all()
    assert np.allclose(got.sum(axis=2), 1.0, atol=1e-12)
    # brute force on y and gains scaled by 2**-500, which keeps the argmin
    hyp = np.indices((4,) * 6).reshape(6, -1).T
    codewords = np.stack([cb.codewords for cb in system.codebooks])[np.arange(6), hyp]
    s = (gains[:, None] * 2.0**-500 * codewords).sum(axis=2)
    energy = (np.abs(y[:, None] * 2.0**-500 - s) ** 2).sum(axis=2)
    assert np.array_equal(got.argmax(axis=2), hyp[energy.argmin(axis=1)])


def test_engines_finite_when_the_shifted_ratio_overflows():
    # entries far behind their trial's best overflow the ratio even after
    # the shift; clamped, they flush to 0, and a MAP trial whose
    # per-resource best hypotheses never meet in one joint hypothesis still
    # gets finite marginals (RuntimeWarnings are errors)
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(71)
    y = 1e150 * (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))) / np.sqrt(2)
    gains = np.full((8, 6, 4), 2.0**480, dtype=complex)
    for marg in (batch_mpa(y, gains, system, 1e-30), batch_map(y, gains, system, 1e-30)):
        assert np.isfinite(marg).all()
        assert np.allclose(marg.sum(axis=2), 1.0, atol=1e-12)


def test_map_weights_are_zero_or_normal(monkeypatch):
    # each resource's factor is flushed below LOG_TINY / K, so that every
    # product the two-group contraction forms is an exact 0 or a normal
    # float: each group's product of factors, its sum over its private
    # layers, that product times the other group's sum, and the two sums'
    # product; at 20 dB many of them are flushed
    contract = mpa_detector._group_marginals
    recorded = []

    def recording(groups, marginals, work):
        recorded.append([[(t.copy(), layers) for t, layers in terms] for terms in groups])
        return contract(groups, marginals, work)

    monkeypatch.setattr(mpa_detector, "_group_marginals", recording)
    system = build_named_system("4pt", 4, 2, 6, 4)
    y, gains, nv = random_batch(system, 20.0, np.random.default_rng(61), "uplink_rayleigh", 16)
    batch_map(y, gains, system, nv)
    ((terms_a, terms_b),) = recorded

    def product(terms, out):
        # the terms' product over the layers `out`, then trials (label 6)
        args = [x for t, layers in terms for x in (t, [*layers, 6])]
        return np.einsum(*args, [*out, 6])

    # resources 0-1 and 2-3 share layers 1-4; 0 is private to the first, 5
    # to the second
    w_a, w_b = product(terms_a, range(5)), product(terms_b, range(1, 6))
    a, b = w_a.sum(axis=0), w_b.sum(axis=-2)
    w_a_b, w_b_a = w_a * b, w_b * a[..., None, :]
    for weights in (w_a, w_b, a, b, w_a_b, w_b_a, a * b):
        assert ((weights == 0) | (weights >= np.finfo(np.float64).tiny)).all()
    for weights in (w_a, w_b, w_a_b, w_b_a):
        assert (weights == 0).mean() > 0.1


def test_likelihood_tables_hold_no_subnormals(monkeypatch):
    # at 20 dB most lowproj hypotheses lie far enough from y that exp
    # underflows; those entries must be an exact 0, and every other entry
    # at least 2**-511, so that its product with a message entry of at
    # least 2**-511 is never subnormal
    build = mpa_detector._resource_tables
    tables = []
    monkeypatch.setattr(
        mpa_detector, "_resource_tables", lambda *a: tables.extend(build(*a)) or tables
    )
    system = build_named_system("lowproj", 4, 2, 6, 16)
    rng = np.random.default_rng(60)
    y, gains, nv = random_batch(system, 20.0, rng, "uplink_rayleigh", 16)
    got = batch_mpa(y, gains, system, nv, 4)
    assert len(tables) == system.n_resources
    entries = np.concatenate([table.ravel() for table in tables])
    assert (entries == 0).mean() > 0.1
    assert ((entries == 0) | (entries >= 2.0**-511)).all()
    assert np.abs(got - reference_mpa(y, gains, system, nv, 4)).max() <= 1e-9


@pytest.mark.parametrize("trials", [1, 3, 17, 129])
def test_distinct_value_tables_equal_tables_over_every_symbol(trials):
    # a table built over each edge's distinct values holds, at each symbol
    # combination's values, the bits of the table built over every symbol
    system = build_named_system("lowproj", 4, 2, 6, 16)
    y, gains, nv = random_batch(system, 12.0, np.random.default_rng(trials), "uplink_rayleigh",
                                trials)
    edges, res_edges, _ = mpa_detector._edges(system)
    columns = [system.codebooks[j].codewords[:, k] for k, j in edges]
    distinct = [merge_values(col, 0.0) for col in columns]
    assert all(len(vals) == 9 for vals, _ in distinct)
    y_t = np.ascontiguousarray(y.T)
    # the two generators are live at once, so each builds in its own workspace
    full = mpa_detector._resource_tables(
        y_t, [gains[:, j, k] * col[:, None] for (k, j), col in zip(edges, columns)],
        res_edges, nv, mpa_detector._Workspace(),
    )
    tables = mpa_detector._resource_tables(
        y_t, [gains[:, j, k] * vals[:, None] for (k, j), (vals, _) in zip(edges, distinct)],
        res_edges, nv, mpa_detector._Workspace(),
    )
    for table, symbol_table, es in zip(tables, full, res_edges):
        assert table.shape == (81, 9, trials) and symbol_table.shape == (256, 16, trials)
        index = np.ix_(*(distinct[e][1] for e in es))
        expanded = table.reshape(9, 9, 9, trials)[index]
        assert np.array_equal(expanded.reshape(256, 16, trials), symbol_table)


def test_plain_lowproj_contracts_distinct_value_views(monkeypatch):
    # a lowproj resource's top-level contraction sees its (81, 9, T) table
    # over distinct values and three 9-value messages, not 4096 entries
    # and 16-symbol messages; a 4pt table has no repeats to merge
    contract = mpa_detector._leave_one_out
    seen = []

    def record(table, msgs):
        if len(msgs) == 3:
            seen.append((table.shape, [m.shape for m in msgs]))
        return contract(table, msgs)

    monkeypatch.setattr(mpa_detector, "_leave_one_out", record)
    system = build_named_system("lowproj", 4, 2, 6, 16)
    y, gains, nv = random_batch(system, 12.0, np.random.default_rng(19), "uplink_rayleigh", 5)
    batch_mpa(y, gains, system, nv, 2)
    assert seen == [((81, 9, 5), [(9, 5)] * 3)] * (2 * system.n_resources)
    seen.clear()
    system = build_named_system("4pt", 4, 2, 6, 4)
    y, gains, nv = random_batch(system, 12.0, np.random.default_rng(19), "awgn", 5)
    batch_mpa(y, gains, system, nv, 2)
    assert seen == [((16, 4, 5), [(4, 5)] * 3)] * (2 * system.n_resources)


def test_run_mpa_never_sees_a_lone_trial(monkeypatch):
    # a lone trial would leave a summed axis innermost in the kernel's
    # contractions, so batch_mpa and batch_split pass it on as two copies
    run = mpa_detector._run_mpa
    counts = []
    monkeypatch.setattr(
        mpa_detector, "_run_mpa", lambda y, *a: counts.append(y.shape[-1]) or run(y, *a)
    )
    system = build_named_system("lowproj", 4, 2, 2, 16)
    assert system.is_separable
    tables = collapse_projections(system)
    for trials in (1, 5):
        y, gains, nv = random_batch(system, 12.0, np.random.default_rng(trials), "awgn", trials)
        batch_mpa(y, gains, system, nv, 2)
        batch_mpa(y, gains, system, nv, 2, 0.0, tables)
        batch_split(y, gains, system, nv, 2)
        mpa_detect(y[0], system, awgn_channel(system), nv, 2)
    assert len(counts) == 2 * 5 and min(counts) == 2 and max(counts) == 5


@pytest.mark.parametrize("trials", [1, 2, 3, 17, 129])
@pytest.mark.parametrize(
    "symbols,values",
    [
        ((16,), (9,)),  # one edge
        ((16, 16), (9, 16)),  # repeats on the rows only
        ((32, 32), (5, 32)),  # repeats on the rows only, wider table
        ((32, 32), (32, 7)),  # repeats on the last edge only
        ((4, 4, 4), (3, 4, 2)),  # three levels
        ((16, 16, 16), (9, 9, 9)),  # lowproj: repeats on every edge
        ((16, 16, 16), (16, 9, 16)),  # repeats on a middle edge only
    ],
)
def test_leave_one_out_on_views_matches_the_expanded_table(symbols, values, trials):
    # the contraction seen over distinct values, as _run_mpa runs it (each
    # message summed onto an edge's values, each output copied back to the
    # symbols), matches the contraction of the table expanded to every
    # symbol combination; the sums group differently, so not to the bit
    rng = np.random.default_rng(sum(symbols) + sum(values) + trials)
    index = []
    for m, v in zip(symbols, values):  # each of the v values hit by some symbol
        extra = rng.integers(0, v, m - v)
        index.append(rng.permutation(np.concatenate([np.arange(v), extra])))
    table = rng.random((math.prod(values), trials))
    table[table < 0.2] = 0.0
    expanded = table.reshape(values + (trials,))[np.ix_(*index)]
    msgs = [rng.random((m, trials)) for m in symbols]
    want = mpa_detector._leave_one_out(expanded.reshape(-1, symbols[-1], trials), msgs)
    onto = [np.eye(v)[:, idx] for v, idx in zip(values, index)]
    got = mpa_detector._leave_one_out(
        table.reshape(-1, values[-1], trials),
        [np.einsum("am,mt->at", p, m) for p, m in zip(onto, msgs)],
    )
    assert len(got) == len(want) == len(symbols)
    for g, w, idx, m in zip(got, want, index, symbols):
        assert w.shape == (m, trials) and g.shape == (len(set(idx)), trials)
        assert np.allclose(g[idx], w, rtol=1e-12, atol=0)


@pytest.mark.parametrize("trials", [1, 17, 129, 512])
@pytest.mark.parametrize("damping", [0.0, 0.3])
def test_distinct_value_views_keep_the_marginals(monkeypatch, damping, trials):
    # plain lowproj MPA stays within 1e-12 of itself with no distinct-value
    # index; so does split on the identity-phase lowproj system
    system = build_named_system("lowproj", 4, 2, 6, 16)
    rng = np.random.default_rng(trials)
    y, gains, nv = random_batch(system, 12.0, rng, "uplink_rayleigh", trials)
    split = identity_phase_system(6, low_projection_16point())
    y_s, gains_s, nv_s = random_batch(split, 12.0, rng, "awgn", trials)
    gains_s = gains_s * np.abs(rng.standard_normal((trials, 6, 1)))
    got = batch_mpa(y, gains, system, nv, 6, damping)
    got_split = batch_split(y_s, gains_s, split, nv_s, 5)
    monkeypatch.setattr(mpa_detector, "merge_values",
                        lambda values, tol=None: (values, np.arange(len(values))))
    assert np.abs(got - batch_mpa(y, gains, system, nv, 6, damping)).max() <= 1e-12
    assert np.abs(got_split - batch_split(y_s, gains_s, split, nv_s, 5)).max() <= 1e-12


def test_distinct_value_split_tables_keep_the_marginals(monkeypatch):
    # the identity-phase lowproj system is separable, and each real part
    # shows 3 distinct values on each dimension
    system = identity_phase_system(6, low_projection_16point())
    assert all(len(merge_values(col, 0.0)[0]) == 3 for col in system.mother.real_points.T)
    rng = np.random.default_rng(17)
    y, gains, nv = random_batch(system, 12.0, rng, "awgn", 17)
    gains = gains * np.abs(rng.standard_normal((17, 6, 1)))
    got = batch_split(y, gains, system, nv, 5)
    monkeypatch.setattr(mpa_detector, "merge_values",
                        lambda values, tol=None: (values, np.arange(len(values))))
    assert np.abs(got - batch_split(y, gains, system, nv, 5)).max() <= 1e-12


@pytest.mark.parametrize("trials", [1, 17, 129])
@pytest.mark.parametrize("damping", [0.0, 0.3])
@pytest.mark.parametrize("n_layers", [6, 4, 2])
def test_mpa_and_mpa_collapsed_agree_bitwise_on_lowproj(n_layers, damping, trials):
    # a fresh lowproj design holds exact projections, so the exact repeats
    # plain mpa finds are the merged projections of mpa_collapsed, listed
    # in the same order: the two engines run the same arithmetic
    system = build_named_system("lowproj", 4, 2, n_layers, 16)
    tables = collapse_projections(system)
    y, gains, nv = random_batch(system, 12.0, np.random.default_rng(trials + n_layers),
                                "uplink_rayleigh", trials)
    got = batch_mpa(y, gains, system, nv, 4, damping)
    assert np.array_equal(got, batch_mpa(y, gains, system, nv, 4, damping, tables))


def test_merge_values_at_tolerance_zero_merges_only_equal_values():
    # plain mpa and split take an edge's exact repeats from merge_values at
    # tolerance 0: values one ulp apart stay apart, and merge at the default
    near = 1.0 + 2.0**-52
    values = np.array([2.0, 1.0, 2.0, near, 1.0])
    vals, idx = merge_values(values, 0.0)
    assert vals.tolist() == [2.0, 1.0, near] and idx.tolist() == [0, 1, 0, 2, 1]
    vals, idx = merge_values(values)
    assert vals.tolist() == [2.0, 1.0] and idx.tolist() == [0, 1, 0, 1, 1]
    column = np.array([1j, 2.0, 3.0])
    vals, idx = merge_values(column, 0.0)
    assert vals.dtype == column.dtype and np.array_equal(vals, column)
    assert idx.tolist() == [0, 1, 2]


@pytest.mark.parametrize("scheme,n_layers,m", [("4pt", 6, 4), ("t16", 2, 16)])
def test_collapsed_without_repeats_runs_plain_mpa(monkeypatch, scheme, n_layers, m):
    # collapse_projections gives each edge of these designs an identity
    # index, which counts as none: mpa_collapsed then sums no message onto
    # values through an indicator and copies no output back to symbols
    einsum, contract = np.einsum, mpa_detector._leave_one_out
    subscripts, gathers = [], []

    class Output(np.ndarray):
        def __getitem__(self, key):
            gathers.append(key)
            return super().__getitem__(key)

    monkeypatch.setattr(np, "einsum", lambda sub, *ops: subscripts.append(sub) or einsum(sub, *ops))
    monkeypatch.setattr(mpa_detector, "_leave_one_out",
                        lambda *a: [o.view(Output) for o in contract(*a)])
    system = build_named_system(scheme, 4, 2, n_layers, m)
    y, gains, nv = random_batch(system, 12.0, np.random.default_rng(m), "uplink_rayleigh", 33)
    got = batch_mpa(y, gains, system, nv, 4, 0.0, collapse_projections(system))
    assert "am,mt->at" not in subscripts and gathers == []
    assert np.array_equal(got, batch_mpa(y, gains, system, nv, 4))


def test_plain_lowproj_builds_each_distinct_likelihood_once(monkeypatch):
    # 9 distinct values on each of a resource's 3 edges: 729 likelihoods
    # per resource and trial, not 4096
    sizes = []
    flushed = mpa_detector._exp_flushed
    monkeypatch.setattr(
        mpa_detector, "_exp_flushed", lambda a, *m: sizes.append(a.size) or flushed(a, *m)
    )
    system = build_named_system("lowproj", 4, 2, 6, 16)
    y, gains, nv = random_batch(system, 12.0, np.random.default_rng(18), "awgn", 5)
    batch_mpa(y, gains, system, nv, 2)
    assert sum(sizes) == system.n_resources * 729 * 5


def test_lowproj_collapsed_projections_unchanged_by_exact_values():
    # the merged representatives are the first members of their clusters,
    # so the collapsed values and indices match those of the plain rotation
    _, r = optimize_rotation_projections(base_lattice(2, 4), 9)
    u = rotate(base_lattice(2, 4), r)
    rounded = build_system(4, 2, 6, shuffle_construct(u, u))
    exact = collapse_projections(build_named_system("lowproj", 4, 2, 6, 16))
    for (k, j), (vals, idx) in exact.items():
        want_vals, want_idx = merge_values(rounded.codebooks[j].codewords[:, k])
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(idx, want_idx)


def test_normalise_falls_back_to_uniform_only_on_empty_columns():
    rng = np.random.default_rng(70)
    msg = rng.random((3, 16, 5))
    assert np.array_equal(mpa_detector._normalise(msg), msg / msg.sum(axis=1, keepdims=True))
    msg[1, :, 2] = 0.0
    got = mpa_detector._normalise(msg)
    assert (got[1, :, 2] == 1 / 16).all()
    full = np.ones(msg.shape, dtype=bool)
    full[1, :, 2] = False
    with np.errstate(invalid="ignore"):
        want = msg / msg.sum(axis=1, keepdims=True)
    assert np.array_equal(got[full], want[full])


def test_exp_flushed_is_exp_or_exact_zero():
    cut = mpa_detector.EXP_FLUSH_ARG
    above = np.concatenate([[cut, -0.0, 0.0], np.linspace(cut, 0.0, 10001)])
    below = np.array(
        [-np.inf, -1e300, -800.0, -708.5, -708.0, -706.0, -400.0, np.nextafter(cut, -np.inf)]
    )
    a = np.concatenate([above, below])
    got = mpa_detector._exp_flushed(a.copy())
    assert np.array_equal(got[: above.size], np.exp(above))
    assert (got[above.size :] == 0).all()
    assert ((got == 0) | (got >= 2.0**-511)).all()


@pytest.mark.parametrize(
    "scheme,n_layers,engine,trials,step",
    [
        ("lowproj", 6, batch_mpa, 1000, 179),  # 4 * 9**3 entries per trial
        ("t16", 6, batch_mpa, 128, 32),  # 4 * 16**3
        ("t16", 4, batch_map, 20, 8),  # 16**4
        # 4 * 2 * 3**3: each real half shows 3 values per dimension, not 4
        ("lowproj_identity", 6, batch_split, 3000, 2427),
    ],
)
def test_trial_slices_stay_within_the_entry_cap(monkeypatch, scheme, n_layers, engine,
                                                trials, step):
    # every engine body sees at most MAX_SLICE_ENTRIES table entries, and a
    # trial gets the same bits in any call that holds it
    if engine is batch_split:
        system = identity_phase_system(n_layers, low_projection_16point())
        entries, mode = 4 * 2 * 3**3, "awgn"
    else:
        system = build_named_system(scheme, 4, 2, n_layers, 16)
        report = complexity_report(system)
        entries = 16**n_layers if engine is batch_map else sum(report.collapsed)
        mode = "uplink_rayleigh"
    y, gains, nv = random_batch(system, 12.0, np.random.default_rng(trials), mode, trials)
    sizes = []
    slices = mpa_detector._trial_slices

    def recording(body, *args):
        return slices(
            lambda y_s, g_s, work: sizes.append(y_s.shape[1]) or body(y_s, g_s, work), *args
        )

    monkeypatch.setattr(mpa_detector, "_trial_slices", recording)
    whole = engine(y, gains, system, nv)
    assert max(sizes) == step and sum(sizes) == trials
    assert step * entries <= mpa_detector.MAX_SLICE_ENTRIES < (step + 1) * entries
    cuts = [1, 18] + list(range(128, trials, 128))
    parts = [engine(y_c, g_c, system, nv) for y_c, g_c in zip(np.split(y, cuts),
                                                              np.split(gains, cuts))]
    assert np.array_equal(whole, np.concatenate(parts))


def map_case(scheme, n_layers, m, mode, size, snr_db=8.0, mismatch=1.0):
    """A MAP_SYSTEMS row; its id names the SNR only when it is not 8 dB, and
    the factor on the noise variance the detector is told only when it is
    not 1."""
    tail = "" if snr_db == 8.0 else f"-{snr_db:g}dB"
    tail += "" if mismatch == 1.0 else f"-nv{mismatch:g}"
    return pytest.param(
        scheme, n_layers, m, mode, size, snr_db, mismatch,
        id=f"{scheme}-{n_layers}-{m}-{mode}-{size}{tail}",
    )


MAP_SYSTEMS = [
    # resources {0, 1} and {2, 3} share layers 1-4; layer 0 is private to
    # the first group and layer 5 to the second
    map_case("4pt", 6, 4, "awgn", 32),
    map_case("4pt", 6, 4, "uplink_rayleigh", 32),
    # the groups share no layer
    map_case("t16", 2, 16, "uplink_rayleigh", 32),
    # 65536 hypotheses: 8 trials per slice, so 64 trials take eight slices
    map_case("t16", 4, 16, "uplink_rayleigh", 64),
    # mixed degrees (2, 1, 2, 1): the groups share layer 1 only
    map_case("4pt", 3, 4, "uplink_rayleigh", 32),
    # mixed degrees (3, 2, 2, 3): the groups share layers 1-3
    map_case("4pt", 5, 4, "uplink_rayleigh", 32),
    # J = 1: the one layer is shared, and neither group has a private layer
    map_case("t16", 1, 16, "uplink_rayleigh", 32),
    # the groups share no layer, so each sums to one number per trial
    map_case("lowproj", 2, 16, "uplink_rayleigh", 32),
    # most shifted log-likelihoods fall below EXP_FLUSH_ARG
    map_case("4pt", 6, 4, "uplink_rayleigh", 32, 20.0),
    # told 1/100 of the noise variance, trials take the log-domain recompute
    map_case("4pt", 3, 4, "uplink_rayleigh", 32, mismatch=1e-2),
    map_case("4pt", 5, 4, "uplink_rayleigh", 32, mismatch=1e-2),
    map_case("lowproj", 2, 16, "uplink_rayleigh", 32, mismatch=1e-2),
]


@pytest.mark.parametrize("scheme,n_layers,m,mode,size,snr_db,mismatch", MAP_SYSTEMS)
def test_batch_map_matches_reference_oracle(monkeypatch, scheme, n_layers, m, mode, size,
                                            snr_db, mismatch):
    contract = mpa_detector._group_marginals
    calls = []

    def recording(*args):
        calls.append(args)
        return contract(*args)

    monkeypatch.setattr(mpa_detector, "_group_marginals", recording)
    system = build_named_system(scheme, 4, 2, n_layers, m)
    rng = np.random.default_rng(50)
    y, gains, nv = random_batch(system, snr_db, rng, mode, size)
    got = batch_map(y, gains, system, nv * mismatch)
    want = reference_map(y, gains, system, nv * mismatch)
    assert np.abs(got - want).max() <= 1e-12
    # each case is one slice: a second contraction is the log-domain recompute
    assert len(calls) > 1 or mismatch == 1.0


@pytest.mark.parametrize("n_res,n_layers", [(2, 1), (4, 4)])
def test_batch_map_on_one_layer_per_resource(n_res, n_layers):
    # N = 1: every resource carries at most one layer, so the two groups
    # share no layer, and with a single active resource the first group is
    # empty and the second's table is that resource's factor alone
    system = build_named_system("lds", n_res, 1, n_layers, 4)
    y, gains, nv = random_batch(system, 8.0, np.random.default_rng(51), "uplink_rayleigh", 16)
    got = batch_map(y, gains, system, nv)
    assert np.abs(got - reference_map(y, gains, system, nv)).max() <= 1e-12


def test_map_fallback_trials_keep_their_bits_at_any_call_size(monkeypatch):
    # trials with 25 dB more noise than the detector is told of mostly sum
    # their product weights below the floor and are recomputed in the log
    # domain; mixed with ordinary trials, each gets the bits it gets in calls
    # of 1, 2 and 17 trials, and a lone such trial runs as two copies
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(80)
    y_a, g_a, nv = random_batch(system, 12.0, rng, "uplink_rayleigh", 20)
    y_b, g_b, _ = random_batch(system, -13.0, rng, "uplink_rayleigh", 20)
    order = rng.permutation(40)
    y, gains = np.concatenate([y_a, y_b])[order], np.concatenate([g_a, g_b])[order]
    contract = mpa_detector._group_marginals
    calls = []  # per contraction, its trials: a slice's, then its recomputed ones

    def recording(groups, marginals, work):
        calls.append(marginals.shape[-1])
        return contract(groups, marginals, work)

    monkeypatch.setattr(mpa_detector, "_group_marginals", recording)
    whole = batch_map(y, gains, system, nv)
    assert calls[0] == 40 and len(calls) == 2 and 10 <= calls[1] < 20
    assert np.abs(whole - reference_map(y, gains, system, nv)).max() <= 1e-12
    for size in (1, 2, 17):
        calls.clear()
        cuts = range(size, len(y), size)
        parts = [batch_map(y_c, g_c, system, nv)
                 for y_c, g_c in zip(np.split(y, cuts), np.split(gains, cuts))]
        assert np.array_equal(whole, np.concatenate(parts))
        if size == 1:
            assert set(calls) == {2} and len(calls) > 40


def random_tree_graph(rng, n_resources, n_active, n_layers):
    """Cycle-free factor graph of at most n_layers layers: each layer joins
    n_active resources from distinct connected components, so no cycle can
    close and no two columns coincide."""
    comp = np.arange(n_resources)
    cols = []
    while len(cols) < n_layers and len(np.unique(comp)) >= n_active:
        roots = rng.choice(np.unique(comp), n_active, replace=False)
        cols.append([rng.choice(np.flatnonzero(comp == c)) for c in roots])
        comp[np.isin(comp, roots)] = roots[0]
    m = np.zeros((n_resources, len(cols)), dtype=np.uint8)
    for j, sup in enumerate(cols):
        m[sup, j] = 1
    return FactorGraph(m, n_active)


def bipartite_diameter(graph):
    """Longest shortest path, in edges, between two connected nodes of the
    resource-layer graph: the steps until reachability stops growing."""
    k = graph.n_resources
    adj = np.zeros((k + graph.n_layers,) * 2, dtype=np.int64)
    adj[:k, k:] = graph.matrix
    adj += adj.T
    reach = np.eye(len(adj), dtype=np.int64)
    steps = 0
    while True:
        grown = ((reach + reach @ adj) > 0).astype(np.int64)
        if np.array_equal(grown, reach):
            return steps
        reach, steps = grown, steps + 1


@settings(max_examples=24, deadline=None)
@given(
    n_resources=st.integers(3, 6),
    n_active=st.sampled_from([2, 3]),
    m=st.sampled_from([4, 16]),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["awgn", "uplink_rayleigh"]),
    snr_db=st.floats(0.0, 20.0),
)
def test_mpa_equals_map_on_random_trees(n_resources, n_active, m, seed, mode, snr_db):
    # sum-product is exact on a cycle-free factor graph once messages have
    # crossed it, whatever the resource degrees and operator phases
    assume(n_active < n_resources)
    rng = np.random.default_rng(seed)
    # M**J stays within 2**16 hypotheses for the brute-force oracle
    graph = random_tree_graph(rng, n_resources, n_active, rng.integers(1, 9 if m == 4 else 5))
    if n_active == 2:
        mother = four_point_mother() if m == 4 else t16qam()
    else:
        mother = repetition_qam_mother(m, n_active)
    ops = tuple(
        LayerOperator(phases=np.exp(2j * np.pi * rng.random(n_active)))
        for _ in range(graph.n_layers)
    )
    cbs = tuple(
        build_codebook(mother, ops[j], mapping_matrix(graph.signature(j)))
        for j in range(graph.n_layers)
    )
    system = ScmaSystem(graph=graph, mother=mother, operators=ops, codebooks=cbs)
    y, gains, nv = random_batch(system, snr_db, rng, mode, 16)
    mpa = batch_mpa(y, gains, system, nv, max_iter=bipartite_diameter(graph))
    assert np.abs(mpa - batch_map(y, gains, system, nv)).max() <= 1e-9


# ---------------------------------------------------------------------------
# oracle behaviour


def test_map_recovers_noiseless_tuple():
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(3)
    tx = rng.integers(0, 4, 6)
    y = sum(system.codebooks[j].codewords[tx[j]] for j in range(6))
    res = map_joint_oracle(y, system, awgn_channel(system), 1e-4)
    assert np.array_equal(res.hard_symbols, tx)
    assert np.allclose(res.marginals.sum(axis=1), 1.0, atol=1e-12)


def test_mpa_recovers_noiseless_tuple():
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(4)
    tx = rng.integers(0, 4, 6)
    y = sum(system.codebooks[j].codewords[tx[j]] for j in range(6))
    res = mpa_detect(y, system, awgn_channel(system), 1e-4, max_iter=8)
    assert np.array_equal(res.hard_symbols, tx)


def test_map_capacity_error():
    system = build_named_system("lowproj", 4, 2, 6, 16)
    assert 16**6 > MAX_JOINT_HYPOTHESES
    y = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError):
        map_joint_oracle(y, system, awgn_channel(system), 0.1)


def test_bit_decisions_follow_labels():
    system = build_named_system("t16", 4, 2, 1, 16)
    rng = np.random.default_rng(5)
    y, ch, nv, _ = random_received(system, 20.0, rng)
    res = map_joint_oracle(y, system, ch, nv)
    label = system.mother.labels[res.hard_symbols[0]]
    expected = [(label >> b) & 1 for b in range(3, -1, -1)]
    assert res.bits[0].tolist() == expected


def test_argmax_ties_take_lowest_index():
    # zero gains erase all symbol information, so marginals are exactly
    # uniform and the tie rule decides
    system = build_named_system("4pt", 4, 2, 6, 4)
    ch = ChannelRealization(
        gains=np.zeros((6, 4), dtype=complex), mode="uplink_rayleigh"
    )
    res = mpa_detect(np.zeros(4, dtype=complex), system, ch, 0.5, max_iter=3)
    assert np.allclose(res.marginals, 0.25, atol=1e-15)
    assert np.array_equal(res.hard_symbols, np.zeros(6, dtype=np.int64))


# ---------------------------------------------------------------------------
# collapsed projections


def test_collapse_tables_lowproj_counts():
    system = build_named_system("lowproj", 4, 2, 6, 16)
    tables = collapse_projections(system)
    for k in range(4):
        for j in system.graph.layers_at(k):
            assert len(tables[(k, j)][0]) == 9


def test_collapsed_equivalence_lowproj():
    system = build_named_system("lowproj", 4, 2, 6, 16)
    tables = collapse_projections(system)
    rng = np.random.default_rng(6)
    for _ in range(20):
        y, ch, nv, _ = random_received(system, 10.0, rng, mode="uplink_rayleigh")
        plain = mpa_detect(y, system, ch, nv, max_iter=5)
        fast = mpa_detect(y, system, ch, nv, max_iter=5, tables=tables)
        tv = 0.5 * np.abs(plain.marginals - fast.marginals).sum(axis=1).max()
        assert tv <= 1e-9


def test_collapsed_equivalence_no_merge_case():
    system = build_named_system("4pt", 4, 2, 6, 4)
    tables = collapse_projections(system)
    rng = np.random.default_rng(7)
    y, ch, nv, _ = random_received(system, 6.0, rng)
    plain = mpa_detect(y, system, ch, nv, max_iter=8)
    fast = mpa_detect(y, system, ch, nv, max_iter=8, tables=tables)
    assert np.allclose(plain.marginals, fast.marginals, atol=1e-12)


# ---------------------------------------------------------------------------
# split detection


def test_split_equals_joint_on_separable_system(tmp_path):
    """Split matches plain MPA on T16 J=6 with all-ones phases, with +-1
    phases, and with +-1 phases at power scale 2 on a mother of energy 1/2
    read back from a file: split reads the codebooks, so the scale counts."""
    graph = build_full_graph(4, 2)
    signs = [np.array([(-1) ** j, (-1) ** (j // 2)], dtype=complex) for j in range(6)]
    t16, half = t16qam(), math.sqrt(0.5)
    low = MotherConstellation(t16.points * half, t16.labels,
                              t16.real_points * half, t16.imag_points * half)

    def signed(mother, power_scale):
        ops = tuple(LayerOperator(ph, power_scale) for ph in signs)
        cbs = tuple(build_codebook(mother, ops[j], mapping_matrix(graph.signature(j)))
                    for j in range(6))
        return ScmaSystem(graph, mother, ops, cbs)

    save_system(signed(low, 2.0), tmp_path / "scaled.json")
    systems = (identity_phase_system(6), signed(t16, 1.0), load_system(tmp_path / "scaled.json"))
    rng = np.random.default_rng(8)
    for system in systems:
        tx = rng.integers(0, 16, (15, 6))
        cw = np.stack([system.codebooks[j].codewords[tx[:, j]] for j in range(6)], axis=1)
        gains = np.abs(rng.standard_normal((15, 6, 1))) * np.ones((15, 6, 4))
        nv = 0.2
        y = (gains * cw).sum(axis=1) + sample_noise(nv, 4, rng, size=15)
        joint = batch_mpa(y, gains, system, nv, max_iter=6)
        split = batch_split(y, gains, system, nv, max_iter=6)
        assert np.abs(joint - split).max() <= 1e-12


def test_split_equals_joint_disjoint_lds():
    system = build_named_system("lds", 4, 2, 2, 16)
    rng = np.random.default_rng(9)
    for _ in range(10):
        y, ch, nv, _ = random_received(system, 12.0, rng)
        joint = mpa_detect(y, system, ch, nv, max_iter=4)
        split = split_detect(y, system, ch, nv, max_iter=4)
        assert np.allclose(joint.marginals, split.marginals, atol=1e-9)


def test_split_rejects_complex_gains():
    system = identity_phase_system(2)
    rng = np.random.default_rng(10)
    gains = sample_gains("uplink_rayleigh", 2, 4, rng)
    ch = ChannelRealization(gains=gains, mode="uplink_rayleigh")
    with pytest.raises(ValueError):
        split_detect(np.zeros(4, dtype=complex), system, ch, 0.1)


def test_split_rejects_complex_phases():
    system = build_named_system("4pt", 4, 2, 6, 4)  # e^{i pi/3} phases
    with pytest.raises(ValueError):
        split_detect(np.zeros(4, dtype=complex), system, awgn_channel(system), 0.1)


# ---------------------------------------------------------------------------
# complexity accounting


def test_complexity_plain_counts():
    report = complexity_report(build_named_system("4pt", 4, 2, 6, 4))
    assert report.plain == (64, 64, 64, 64)
    assert report.degrees == (3, 3, 3, 3)


def test_complexity_collapsed_lowproj():
    report = complexity_report(build_named_system("lowproj", 4, 2, 6, 16))
    assert report.plain == (4096,) * 4
    assert report.mpa == (729,) * 4  # the exact projections: plain mpa merges them
    assert report.collapsed == (729,) * 4


def test_complexity_degree_one():
    report = complexity_report(build_named_system("t16", 4, 2, 2, 16))
    assert report.plain == (16, 16, 16, 16)


def test_complexity_split_counts():
    report = complexity_report(identity_phase_system(6))
    assert report.split == (128, 128, 128, 128)  # two sub-detectors of 4^3
    # split counts the entries it builds: each lowproj half shows 3 values
    # per dimension, not 4
    assert complexity_report(build_named_system("lowproj", 4, 2, 2, 16)).split == (6,) * 4
    lowproj = identity_phase_system(6, low_projection_16point())
    assert complexity_report(lowproj).split == (54,) * 4  # 27 + 27
    no_split = complexity_report(build_named_system("4pt", 4, 2, 6, 4))
    assert no_split.split is None


@pytest.mark.parametrize(
    "scheme,k,n,m",
    [("4pt", 4, 2, 4), ("4pt", 5, 2, 4), ("t16", 4, 2, 16), ("t16", 5, 2, 16),
     ("lowproj", 4, 2, 16), ("lowproj", 5, 2, 16), ("lds", 4, 2, 4), ("lds", 4, 2, 16),
     ("lds", 5, 2, 4), ("lds", 5, 2, 16), ("lds", 6, 3, 4), ("lds", 6, 3, 16)],
)
def test_shipped_designs_hold_no_rounded_repeats(scheme, k, n, m):
    # every system `scma design` builds stores merged values exactly, so
    # plain mpa, which merges exact repeats only, builds the collapsed
    # tables, and a separable mother's halves merge alike at both
    # tolerances; only a hand-built or stale file can hold near-repeats
    for j in range(1, math.comb(k, n) + 1):
        system = build_named_system(scheme, k, n, j, m)
        report = complexity_report(system)
        assert report.mpa == report.collapsed
        mother = system.mother
        for part in (mother.real_points, mother.imag_points) if mother.is_separable else ():
            for dim in part.T:
                assert len(merge_values(dim, 0.0)[0]) == len(merge_values(dim)[0])


# ---------------------------------------------------------------------------
# behaviour over SNR and damping


def test_symbol_errors_monotone_in_snr():
    system = build_named_system("4pt", 4, 2, 6, 4)
    counts = {}
    for snr in (4.0, 8.0, 12.0):
        errors = 0
        rng = np.random.default_rng(11)
        for _ in range(60):
            y, ch, nv, tx = random_received(system, snr, rng)
            res = mpa_detect(y, system, ch, nv, max_iter=8)
            errors += int((res.hard_symbols != tx).sum())
        counts[snr] = errors
    assert counts[8.0] <= counts[4.0]
    assert counts[12.0] <= counts[8.0]


def test_damping_reaches_same_fixed_point():
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(10):
        y, ch, nv, _ = random_received(system, 10.0, rng)
        a60 = mpa_detect(y, system, ch, nv, max_iter=60)
        a61 = mpa_detect(y, system, ch, nv, max_iter=61)
        delta = np.abs(a60.marginals - a61.marginals).max()
        if delta > 1e-8:
            continue  # not converged, the contract does not apply
        damped = mpa_detect(y, system, ch, nv, max_iter=120, damping=0.3)
        tv = 0.5 * np.abs(a61.marginals - damped.marginals).sum(axis=1).max()
        assert tv <= 1e-6
        checked += 1
    assert checked >= 5


def test_exact_iteration_count_and_state():
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(13)
    y, ch, nv, _ = random_received(system, 8.0, rng)
    res = mpa_detect(y, system, ch, nv, max_iter=5)
    assert res.iterations_run == 5


def test_marginals_normalised():
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(14)
    y, ch, nv, _ = random_received(system, 2.0, rng)
    res = mpa_detect(y, system, ch, nv, max_iter=8)
    assert np.allclose(res.marginals.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(res.hard_symbols, res.marginals.argmax(axis=1))


def test_parameter_validation():
    system = build_named_system("4pt", 4, 2, 6, 4)
    ch = awgn_channel(system)
    y = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError):
        mpa_detect(y, system, ch, 0.0)
    for engine in (batch_mpa, batch_map, batch_split):
        for nv in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="noise_var"):
                engine(y[None], ch.gains[None], system, nv)
    with pytest.raises(ValueError):
        mpa_detect(y, system, ch, 0.1, max_iter=0)
    with pytest.raises(ValueError):
        mpa_detect(y, system, ch, 0.1, damping=1.0)


def test_batch_engines_match_single_shot():
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(15)
    ys, chs, txs = [], [], []
    nv = 0.25 * 10 ** (-0.6)
    for _ in range(6):
        y, ch, _, tx = random_received(system, 6.0, rng)
        ys.append(y)
        chs.append(ch.gains)
    y_b = np.stack(ys)
    g_b = np.stack(chs)
    marg = batch_mpa(y_b, g_b, system, nv, 8)
    marg_map = batch_map(y_b, g_b, system, nv)
    for t in range(6):
        single = mpa_detect(ys[t], system, ChannelRealization(gains=chs[t], mode="awgn"), nv, 8)
        assert np.array_equal(marg[t], single.marginals)
        oracle = map_joint_oracle(ys[t], system, ChannelRealization(gains=chs[t], mode="awgn"), nv)
        assert np.array_equal(marg_map[t], oracle.marginals)


def test_batch_split_matches_single_shot():
    system = build_named_system("lds", 4, 2, 2, 16)
    rng = np.random.default_rng(16)
    y, ch, nv, _ = random_received(system, 10.0, rng)
    single = split_detect(y, system, ch, nv, max_iter=4)
    batch = batch_split(y[None], ch.gains[None], system, nv, 4)
    assert np.array_equal(batch[0], single.marginals)


def test_batch_engines_reject_tables_over_the_cap(monkeypatch):
    # the check counts one trial's entries over every resource table, as
    # complexity_report does (map: its M**J joint hypotheses); the identity-phase
    # T16 and lowproj systems are separable, so split detection runs on
    # them, and plain mpa builds the exact lowproj projections
    for system in (identity_phase_system(), identity_phase_system(6, low_projection_16point())):
        tables = collapse_projections(system)
        report = complexity_report(system)
        y, gains, nv = random_batch(system, 8.0, np.random.default_rng(90), "awgn", 3)
        for run, counts in (
            (lambda: batch_mpa(y, gains, system, nv, 2), report.mpa),
            (lambda: batch_mpa(y, gains, system, nv, 2, 0.0, tables), report.collapsed),
            (lambda: batch_split(y, gains, system, nv, 2), report.split),
        ):
            monkeypatch.setattr(mpa_detector, "MAX_JOINT_HYPOTHESES", sum(counts))
            assert run().shape == (3, 6, 16)
            monkeypatch.setattr(mpa_detector, "MAX_JOINT_HYPOTHESES", sum(counts) - 1)
            with pytest.raises(ValueError, match="likelihood tables hold"):
                run()
    # map's joint hypotheses: 16**4 = 65536 on the four-layer T16 system
    system = identity_phase_system(4)
    y, gains, nv = random_batch(system, 8.0, np.random.default_rng(91), "awgn", 3)
    monkeypatch.setattr(mpa_detector, "MAX_JOINT_HYPOTHESES", 16**4)
    assert batch_map(y, gains, system, nv).shape == (3, 4, 16)
    monkeypatch.setattr(mpa_detector, "MAX_JOINT_HYPOTHESES", 16**4 - 1)
    with pytest.raises(ValueError, match="likelihood tables hold"):
        batch_map(y, gains, system, nv)


@pytest.mark.parametrize("engine", [batch_mpa, batch_map, batch_split])
def test_batch_engines_reject_malformed_or_non_finite_input(engine):
    # one check at the trial-slicing boundary: y must be (T, K), gains
    # (T, J, K), and both finite, for every engine
    system = build_named_system("lowproj", 4, 2, 2, 16)
    assert system.is_separable
    y, gains, nv = random_batch(system, 12.0, np.random.default_rng(22), "awgn", 3)
    assert engine(y, gains, system, nv).shape == (3, 2, 16)
    wide = np.concatenate([y, y[:, :1]], axis=1)
    for bad_y in (wide, y[:, :3], y[None]):
        with pytest.raises(ValueError, match="y must be"):
            engine(bad_y, gains, system, nv)
    for bad_gains in (np.concatenate([gains, gains[:, :1]], axis=1), gains[:2], gains[0]):
        with pytest.raises(ValueError, match="gains must be"):
            engine(y, bad_gains, system, nv)
    for value in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        for bad_y, bad_gains in ((y.copy(), gains), (y, gains.copy())):
            (bad_y if bad_y is not y else bad_gains)[1, 0] = value
            with pytest.raises(ValueError, match="finite"):
                engine(bad_y, bad_gains, system, nv)


def test_single_shot_detectors_reject_a_received_vector_of_the_wrong_length():
    system = build_named_system("lowproj", 4, 2, 2, 16)
    y, ch, nv, _ = random_received(system, 12.0, np.random.default_rng(23))
    for detect in (mpa_detect, map_joint_oracle, split_detect):
        assert detect(y, system, ch, nv).marginals.shape == (2, 16)
        for bad in (np.concatenate([y, y[:2]]), y[:3]):
            with pytest.raises(ValueError, match="y must be"):
                detect(bad, system, ch, nv)
        bad = y.copy()
        bad[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            detect(bad, system, ch, nv)


@pytest.mark.parametrize("engine", [batch_mpa, batch_map, batch_split])
def test_batch_engines_reject_empty_stacks(engine):
    system = build_named_system("lds", 4, 2, 2, 16)
    with pytest.raises(ValueError, match="at least one trial"):
        engine(np.zeros((0, 4)), np.ones((0, 2, 4)), system, 0.1)



def workspace_calls(seed):
    """(name, zero-argument call) per engine case that the per-thread
    workspace serves, on batches drawn from `seed`: batch_mpa on 4pt, on
    lowproj collapsed and damped, batch_split and batch_map."""
    rng = np.random.default_rng(seed)
    fourpt = build_named_system("4pt", 4, 2, 6, 4)
    lowproj = build_named_system("lowproj", 4, 2, 6, 16)
    separable = build_named_system("lowproj", 4, 2, 2, 16)
    tables = collapse_projections(lowproj)
    y_a, g_a, nv_a = random_batch(fourpt, 8.0, rng, "awgn", 64)
    y_b, g_b, nv_b = random_batch(lowproj, 16.0, rng, "uplink_rayleigh", 24)
    y_c, g_c, nv_c = random_batch(fourpt, 8.0, rng, "uplink_rayleigh", 40)
    y_d, g_d, nv_d = random_batch(separable, 12.0, rng, "awgn", 48)
    y_e, g_e, nv_e = random_batch(fourpt, 8.0, rng, "uplink_rayleigh", 16)
    return [
        ("mpa-4pt", lambda: batch_mpa(y_a, g_a, fourpt, nv_a, 4)),
        ("mpa-lowproj-collapsed", lambda: batch_mpa(y_b, g_b, lowproj, nv_b, 4, 0.0, tables)),
        ("mpa-damped", lambda: batch_mpa(y_c, g_c, fourpt, nv_c, 4, 0.3)),
        ("split", lambda: batch_split(y_d, g_d, separable, nv_d, 4)),
        ("map", lambda: batch_map(y_e, g_e, fourpt, nv_e)),
    ]


def in_fresh_thread(run):
    """run() in a new thread, whose workspace starts empty; returns its result."""
    box = []
    thread = threading.Thread(target=lambda: box.append(run()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return box[0]


@pytest.mark.parametrize("engine,scheme,mode,trials", [
    (batch_mpa, "4pt", "awgn", 512),
    (batch_map, "4pt", "uplink_rayleigh", 128),
])
def test_warm_calls_reuse_the_workspace(engine, scheme, mode, trials):
    # a warm call writes its tables, messages and (map) joint table into the
    # buffers the cold call grew, so it allocates under half as much on top
    # of what the thread already holds
    system = build_named_system(scheme, 4, 2, 6, 4)
    y, gains, nv = random_batch(system, 8.0, np.random.default_rng(trials), mode, trials)

    def peaks():
        got = []
        tracemalloc.start()
        try:
            for _ in range(3):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                engine(y, gains, system, nv)
                got.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        return got

    cold, *warm = in_fresh_thread(peaks)
    assert max(warm) < cold / 2


def test_map_workspace_holds_the_group_sums():
    # a 128-trial 4pt J=6 slice never forms its joint weights (4 MB) nor a
    # group's product (1 MB): the workspace of a thread that has run warm
    # map calls holds the likelihood tables and the two groups' 256 KB sums
    # over their private layers
    system = build_named_system("4pt", 4, 2, 6, 4)
    y, gains, nv = random_batch(system, 8.0, np.random.default_rng(90), "uplink_rayleigh", 128)

    def held():
        for _ in range(2):
            batch_map(y, gains, system, nv)
        with mpa_detector._workspace() as work:
            return sum(buf.nbytes for buf in work.buffers.values())

    assert 2 * 4**4 * 128 * 8 <= in_fresh_thread(held) < 2 * 10**6


def test_engines_on_two_threads_give_the_serial_bits():
    # each thread lends its own workspace to its calls: two threads running
    # every engine at once, on different batches and in opposite orders,
    # get the bits of a serial call
    calls = [workspace_calls(0), workspace_calls(1)[::-1]]
    serial = [[call() for _, call in cases] for cases in calls]
    start = threading.Barrier(2, timeout=60)
    got = [[], []]

    def run(i):
        for _ in range(20):
            start.wait()
            got[i].append([call() for _, call in calls[i]])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over often between numpy calls
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for cases, want, rounds in zip(calls, serial, got):
        assert len(rounds) == 20
        for results in rounds:
            for (name, _), w, g in zip(cases, want, results):
                assert np.array_equal(g, w), name


@pytest.mark.parametrize("case", range(5))
def test_results_belong_to_the_caller(case):
    # no engine returns a view of its workspace: a write into one call's
    # marginals leaves the next call's alone, and two calls share no memory
    name, call = workspace_calls(2)[case]
    first = call()
    want = first.copy()
    first[...] = -1.0
    second = call()
    assert np.array_equal(second, want), name
    assert not np.shares_memory(first, second)


def test_an_engine_inside_a_held_workspace_gets_its_own_buffers():
    # the thread's workspace is lent to one user at a time: an engine called
    # while it is held runs on fresh buffers and leaves the holder's intact
    name, call = workspace_calls(3)[0]
    want = call()  # grows this thread's workspace
    with mpa_detector._workspace() as held:
        assert held.buffers
        for buf in held.buffers.values():
            buf.fill(7)
        assert np.array_equal(call(), want)
        assert all((buf == 7).all() for buf in held.buffers.values())
