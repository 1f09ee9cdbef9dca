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
from scma.constellation import four_point_mother, repetition_qam_mother, t16qam
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


def identity_phase_system(n_layers=6):
    """Full graph with T16QAM and all-ones phases: separable and real."""
    graph = build_full_graph(4, 2)
    if n_layers < 6:
        from scma.factor_graph import build_subgraph

        graph = build_subgraph(4, 2, n_layers)
    mother = t16qam()
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
    entries = np.concatenate([t.ravel() for t in tables])
    assert (entries == 0).mean() > 0.1
    assert ((entries == 0) | (entries >= 2.0**-511)).all()
    assert np.abs(got - reference_mpa(y, gains, system, nv, 4)).max() <= 1e-9


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
    "rows,cols,want",
    [
        (16, 4, [(0, 16)]),  # 4pt: the whole table is one block
        (256, 16, [(lo, lo + 32) for lo in range(0, 256, 32)]),  # lowproj plain
        (81, 9, [(0, 56), (56, 81)]),  # lowproj collapsed
        (3, 4096, [(0, 1), (1, 2), (2, 3)]),  # a row wider than a block
    ],
)
def test_row_blocks_cover_the_rows_in_order(rows, cols, want):
    got = mpa_detector._row_blocks(rows, cols)
    assert [(b.start, b.stop) for b in got] == want


def map_case(scheme, n_layers, m, mode, size, snr_db=8.0):
    """A MAP_SYSTEMS row; its id names the SNR only when it is not 8 dB."""
    tail = "" if snr_db == 8.0 else f"-{snr_db:g}dB"
    return pytest.param(
        scheme, n_layers, m, mode, size, snr_db,
        id=f"{scheme}-{n_layers}-{m}-{mode}-{size}{tail}",
    )


MAP_SYSTEMS = [
    map_case("4pt", 6, 4, "awgn", 32),
    map_case("4pt", 6, 4, "uplink_rayleigh", 32),
    map_case("t16", 2, 16, "uplink_rayleigh", 32),
    # 65536 hypotheses: 16 trials per slice, so 64 trials take four slices
    map_case("t16", 4, 16, "uplink_rayleigh", 64),
    # odd J: the marginal sums keep one layer axis and then two
    map_case("4pt", 3, 4, "uplink_rayleigh", 32),
    # J = 1: the first half of the layer axes is empty
    map_case("t16", 1, 16, "uplink_rayleigh", 32),
    # most shifted log-likelihoods fall below EXP_FLUSH_ARG
    map_case("4pt", 6, 4, "uplink_rayleigh", 32, 20.0),
]


@pytest.mark.parametrize("scheme,n_layers,m,mode,size,snr_db", MAP_SYSTEMS)
def test_batch_map_matches_reference_oracle(scheme, n_layers, m, mode, size, snr_db):
    system = build_named_system(scheme, 4, 2, n_layers, m)
    rng = np.random.default_rng(50)
    y, gains, nv = random_batch(system, snr_db, rng, mode, size)
    got = batch_map(y, gains, system, nv)
    want = reference_map(y, gains, system, nv)
    assert np.abs(got - want).max() <= 1e-12


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


def test_split_equals_joint_on_separable_system():
    system = identity_phase_system(6)
    rng = np.random.default_rng(8)
    for _ in range(15):
        tx = rng.integers(0, 16, 6)
        cw = np.stack([system.codebooks[j].codewords[tx[j]] for j in range(6)])
        gains = np.abs(rng.standard_normal((6, 1))) * np.ones((6, 4))
        nv = 0.2
        noise = sample_noise(nv, 4, rng)
        y = (gains * cw).sum(axis=0) + noise
        ch = ChannelRealization(gains=gains.astype(complex), mode="uplink_rayleigh")
        joint = mpa_detect(y, system, ch, nv, max_iter=6)
        split = split_detect(y, system, ch, nv, max_iter=6)
        tv = 0.5 * np.abs(joint.marginals - split.marginals).sum(axis=1).max()
        assert tv <= 1e-9


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
    assert report.collapsed == (729,) * 4


def test_complexity_degree_one():
    report = complexity_report(build_named_system("t16", 4, 2, 2, 16))
    assert report.plain == (16, 16, 16, 16)


def test_complexity_split_counts():
    report = complexity_report(identity_phase_system(6))
    assert report.split == (128, 128, 128, 128)  # two sub-detectors of 4^3
    no_split = complexity_report(build_named_system("4pt", 4, 2, 6, 4))
    assert no_split.split is None


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
    # the check counts one trial's entries over every resource table; the
    # identity-phase T16 system is separable, so split detection runs on it
    system = identity_phase_system()
    tables = collapse_projections(system)
    report = complexity_report(system)
    y, gains, nv = random_batch(system, 8.0, np.random.default_rng(90), "awgn", 3)
    for run, counts in (
        (lambda: batch_mpa(y, gains, system, nv, 2), report.plain),
        (lambda: batch_mpa(y, gains, system, nv, 2, 0.0, tables), report.collapsed),
        (lambda: batch_split(y, gains, system, nv, 2), report.split),
    ):
        monkeypatch.setattr(mpa_detector, "MAX_JOINT_HYPOTHESES", sum(counts))
        assert run().shape == (3, 6, 16)
        monkeypatch.setattr(mpa_detector, "MAX_JOINT_HYPOTHESES", sum(counts) - 1)
        with pytest.raises(ValueError, match="likelihood tables hold"):
            run()


@pytest.mark.parametrize("engine", [batch_mpa, batch_map, batch_split])
def test_batch_engines_reject_empty_stacks(engine):
    system = build_named_system("lds", 4, 2, 2, 16)
    with pytest.raises(ValueError, match="at least one trial"):
        engine(np.zeros((0, 4)), np.ones((0, 2, 4)), system, 0.1)
