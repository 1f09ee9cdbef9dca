import numpy as np
import pytest

from scma.channel_model import (
    ChannelRealization,
    sample_gains,
    sample_noise,
    snr_to_noise_variance,
)
from scma.codebook import LayerOperator, ScmaSystem, build_codebook, build_named_system
from scma.constellation import t16qam
from scma.factor_graph import build_full_graph, mapping_matrix
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
            v, idx = tables.tables[(k, j)]
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


PINNED_SYSTEMS = [
    ("4pt", 6, 4, False),
    ("lds", 6, 4, False),
    ("lowproj", 6, 16, False),
    ("lowproj", 6, 16, True),
    ("t16", 2, 16, False),
    ("4pt", 4, 4, False),  # partial load: resource degrees 2
]


@pytest.mark.parametrize("damping", [0.0, 0.3])
@pytest.mark.parametrize("mode", ["awgn", "uplink_rayleigh"])
@pytest.mark.parametrize("scheme,n_layers,m,collapsed", PINNED_SYSTEMS)
def test_batch_mpa_matches_reference_kernel(
    scheme, n_layers, m, collapsed, mode, damping
):
    system = build_named_system(scheme, 4, 2, n_layers, m)
    tables = collapse_projections(system) if collapsed else None
    rng = np.random.default_rng(30)
    y, gains, nv = random_batch(system, 8.0, rng, mode, 16)
    got = batch_mpa(y, gains, system, nv, 4, damping, tables)
    want = reference_mpa(y, gains, system, nv, 4, damping, tables)
    assert np.abs(got - want).max() <= 1e-9


@pytest.mark.parametrize("ratio", [1e-2, 1e-4, 1e-8])
def test_marginals_finite_under_noise_mismatch(ratio):
    # a detector noise variance far below the true one underflows the
    # product of incoming messages for many trials
    system = build_named_system("4pt", 4, 2, 6, 4)
    rng = np.random.default_rng(40)
    y, gains, nv = random_batch(system, 12.0, rng, "uplink_rayleigh", 512)
    marg = batch_mpa(y, gains, system, nv * ratio, 8)
    assert np.isfinite(marg).all()
    assert np.allclose(marg.sum(axis=2), 1.0, atol=1e-12)


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
            assert tables.counts(k, j) == 9


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
        assert np.allclose(marg[t], single.marginals, atol=1e-12)
        oracle = map_joint_oracle(ys[t], system, ChannelRealization(gains=chs[t], mode="awgn"), nv)
        assert np.allclose(marg_map[t], oracle.marginals, atol=1e-12)


def test_batch_split_matches_single_shot():
    system = build_named_system("lds", 4, 2, 2, 16)
    rng = np.random.default_rng(16)
    y, ch, nv, _ = random_received(system, 10.0, rng)
    single = split_detect(y, system, ch, nv, max_iter=4)
    batch = batch_split(y[None], ch.gains[None], system, nv, 4)
    assert np.allclose(batch[0], single.marginals, atol=1e-12)
