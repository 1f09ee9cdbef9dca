import numpy as np
import pytest
from hypothesis import given, strategies as st

from scma.channel_model import (
    ChannelRealization,
    NoiseModel,
    sample_gains,
    sample_noise,
    snr_to_noise_variance,
    superpose,
)
from scma.codebook import build_named_system


def test_awgn_gains_are_unit():
    rng = np.random.default_rng(0)
    g = sample_gains("awgn", 6, 4, rng)
    assert np.array_equal(g, np.ones((6, 4), dtype=complex))


def test_downlink_gains_shared_across_layers():
    rng = np.random.default_rng(1)
    g = sample_gains("downlink", 6, 4, rng)
    for j in range(1, 6):
        assert np.array_equal(g[j], g[0])
    assert not np.allclose(g[0], 1.0)


def test_uplink_gains_unit_mean_power():
    rng = np.random.default_rng(2)
    g = sample_gains("uplink_rayleigh", 5, 4, rng, size=5000)  # 10^5 gains
    assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, rel=0.02)


def test_uplink_gains_independent_across_layers():
    rng = np.random.default_rng(3)
    g = sample_gains("uplink_rayleigh", 2, 4, rng)
    assert not np.allclose(g[0], g[1])


def test_sample_gains_shapes():
    rng = np.random.default_rng(4)
    assert sample_gains("awgn", 3, 4, rng).shape == (3, 4)
    assert sample_gains("downlink", 3, 4, rng, size=7).shape == (7, 3, 4)
    with pytest.raises(ValueError):
        sample_gains("nope", 3, 4, rng)


def test_sample_noise_statistics():
    rng = np.random.default_rng(5)
    n = sample_noise(0.3, 4, rng, size=50_000)
    assert n.shape == (50_000, 4)
    assert np.mean(np.abs(n) ** 2) == pytest.approx(0.3, rel=0.02)
    # variance split evenly between real and imaginary parts
    assert np.var(n.real) == pytest.approx(0.15, rel=0.03)


def test_superpose_single_layer_identity():
    system = build_named_system("t16", 4, 2, 1, 16)
    x = system.codebooks[0].codewords[3][None]
    ch = ChannelRealization(gains=np.ones((1, 4), dtype=complex), mode="awgn")
    y = superpose(x, ch, np.zeros(4, dtype=complex))
    assert np.allclose(y, x[0], atol=1e-15)


def test_superpose_disjoint_layers_unmixed():
    system = build_named_system("t16", 4, 2, 2, 16)
    cw = np.stack(
        [system.codebooks[0].codewords[5], system.codebooks[1].codewords[9]]
    )
    ch = ChannelRealization(gains=np.ones((2, 4), dtype=complex), mode="awgn")
    y = superpose(cw, ch, np.zeros(4, dtype=complex))
    s0, s1 = system.codebooks[0].support, system.codebooks[1].support
    assert np.allclose(y[list(s0)], cw[0, list(s0)])
    assert np.allclose(y[list(s1)], cw[1, list(s1)])


def test_superpose_full_system_counts_contributions():
    system = build_named_system("4pt", 4, 2, 6, 4)
    cw = np.stack([cb.codewords[0] for cb in system.codebooks])
    ch = ChannelRealization(gains=np.ones((6, 4), dtype=complex), mode="awgn")
    y = superpose(cw, ch, np.zeros(4, dtype=complex))
    for k in range(4):
        contributors = [j for j in range(6) if abs(cw[j, k]) > 0]
        assert len(contributors) == 3
        assert y[k] == pytest.approx(sum(cw[j, k] for j in contributors))


def test_superpose_linearity():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    g = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    ch = ChannelRealization(gains=g, mode="uplink_rayleigh")
    zero = np.zeros(4, dtype=complex)
    lhs = superpose(a + b, ch, zero)
    rhs = superpose(a, ch, zero) + superpose(b, ch, zero)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_superpose_shape_mismatch():
    ch = ChannelRealization(gains=np.ones((2, 4), dtype=complex), mode="awgn")
    with pytest.raises(ValueError):
        superpose(np.ones((3, 4), dtype=complex), ch, np.zeros(4, dtype=complex))


def test_snr_conversion_per_layer():
    system = build_named_system("4pt", 4, 2, 6, 4)
    noise = snr_to_noise_variance(0.0, system, "per_layer")
    assert noise.variance == pytest.approx(0.25)
    assert noise.snr_convention == "per_layer"


def test_snr_conversion_total_matches_per_layer_at_single_layer():
    system = build_named_system("lds", 4, 2, 1, 4)
    a = snr_to_noise_variance(7.0, system, "per_layer")
    b = snr_to_noise_variance(7.0, system, "total")
    assert a.variance == pytest.approx(b.variance)


def test_snr_conversion_total_scales_with_load():
    s6 = build_named_system("4pt", 4, 2, 6, 4)
    s2 = build_named_system("4pt", 4, 2, 2, 4)
    assert snr_to_noise_variance(5.0, s6, "total").variance == pytest.approx(
        3.0 * snr_to_noise_variance(5.0, s2, "total").variance
    )


def test_snr_conversion_rejects_variances_out_of_range():
    # 10**310 overflows a float and 10**-400 underflows to 0: both are a
    # ValueError from NoiseModel, never an OverflowError
    system = build_named_system("4pt", 4, 2, 6, 4)
    for snr in (-3100.0, 4000.0):
        for convention in ("per_layer", "total"):
            with pytest.raises(ValueError, match="noise variance"):
                snr_to_noise_variance(snr, system, convention)


@given(st.floats(-10, 30), st.floats(0.1, 10))
def test_snr_conversion_monotone(snr, delta):
    system = build_named_system("lds", 4, 2, 2, 4)
    lo = snr_to_noise_variance(snr, system, "per_layer").variance
    hi = snr_to_noise_variance(snr + delta, system, "per_layer").variance
    assert hi < lo


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(variance=0.0, snr_convention="per_layer")
    with pytest.raises(ValueError):
        NoiseModel(variance=1.0, snr_convention="nope")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            NoiseModel(variance=bad, snr_convention="per_layer")
        with pytest.raises(ValueError):
            sample_noise(bad, 4, np.random.default_rng(0))


def test_channel_realization_validation():
    with pytest.raises(ValueError):
        ChannelRealization(gains=np.ones((2, 4), dtype=complex), mode="nope")
