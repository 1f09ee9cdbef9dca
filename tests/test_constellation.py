import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scma import constellation
from scma.constellation import (
    FOUR_POINT_ANGLE,
    GOLDEN_ANGLE,
    MotherConstellation,
    RealConstellation,
    base_lattice,
    dimensional_power_metrics,
    four_point_mother,
    gray_code,
    low_projection_16point,
    measure,
    merge_values,
    min_euclidean_distance,
    min_product_distance,
    optimize_rotation_product_distance,
    optimize_rotation_projections,
    pam_levels,
    projections_per_dim,
    repetition_qam_mother,
    rotate,
    rotation_2d,
    shuffle_construct,
    t16qam,
)


def sorted_pairwise(points):
    pts = np.asarray(points)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((np.abs(diff) ** 2).sum(axis=2))
    iu = np.triu_indices(len(pts), k=1)
    return np.sort(d[iu])


# ---------------------------------------------------------------------------
# base lattice


def test_base_lattice_square():
    c = base_lattice(2, 4)
    assert sorted(map(tuple, c.points)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_base_lattice_4pam():
    c = base_lattice(1, 4)
    assert c.points.ravel().tolist() == [-3, -1, 1, 3]


def test_base_lattice_product_grid():
    c = base_lattice(2, 16)
    assert len(c.points) == 16
    expected = set(itertools.product([-3, -1, 1, 3], repeat=2))
    assert set(map(tuple, c.points)) == expected


def test_base_lattice_rejects_non_power():
    with pytest.raises(ValueError):
        base_lattice(2, 6)
    with pytest.raises(ValueError):
        base_lattice(3, 4)


def test_pam_levels():
    assert pam_levels(2).tolist() == [-1, 1]
    assert pam_levels(4).tolist() == [-3, -1, 1, 3]
    with pytest.raises(ValueError):
        pam_levels(1)


def test_real_constellation_invariants():
    with pytest.raises(ValueError):
        RealConstellation(np.array([[1.0, 1.0], [1.0, 1.0]]))  # duplicate
    with pytest.raises(ValueError):
        RealConstellation(np.array([[1.0, 0.0], [2.0, 0.0]]))  # off-center


# ---------------------------------------------------------------------------
# rotation


def test_rotate_identity():
    c = base_lattice(2, 4)
    r = rotate(c, np.eye(2))
    assert np.array_equal(r.points, c.points)


def test_rotate_preserves_distance_profile():
    c = base_lattice(2, 4)
    r = rotate(c, rotation_2d(0.7))
    assert np.allclose(sorted_pairwise(r.points), sorted_pairwise(c.points), atol=1e-10)
    assert np.allclose(sorted_pairwise(c.points), [2, 2, 2, 2, 2 * math.sqrt(2), 2 * math.sqrt(2)])


def test_rotate_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        rotate(base_lattice(2, 4), np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_golden_rotation_positive_coordinate_products():
    r = rotate(base_lattice(2, 4), rotation_2d(GOLDEN_ANGLE))
    pts = r.points
    for i, j in itertools.combinations(range(4), 2):
        dx, dy = np.abs(pts[i] - pts[j])
        assert dx * dy > 1e-6


@settings(max_examples=60)
@given(
    st.integers(2, 3),
    st.sampled_from([4, 16]),
    st.floats(0.01, 1.5),
    st.booleans(),
)
def test_rotation_isometry_property(n_dims_pick, size, angle, reflect):
    # random planar rotation embedded in the leading 2x2 block
    base = base_lattice(2, size)
    r = rotation_2d(angle)
    if reflect:
        r = r @ np.array([[1.0, 0.0], [0.0, -1.0]])
    rotated = rotate(base, r)
    assert np.allclose(
        sorted_pairwise(rotated.points), sorted_pairwise(base.points), atol=1e-9
    )


# ---------------------------------------------------------------------------
# distances


def test_min_euclidean_square():
    assert min_euclidean_distance(base_lattice(2, 4).points) == pytest.approx(2.0)


def test_min_euclidean_rotation_invariant():
    c = base_lattice(2, 16)
    r = rotate(c, rotation_2d(1.1))
    assert min_euclidean_distance(r.points) == pytest.approx(
        min_euclidean_distance(c.points), abs=1e-10
    )


def test_min_euclidean_t16():
    # adjacent points of the scaled 4PAM x 4PAM grid sit 2/sqrt(10) apart
    # per real axis pair, and shuffling pairs two axes -> 1.0 after scaling
    assert min_euclidean_distance(t16qam().points) == pytest.approx(1.0, abs=1e-12)


def test_min_product_distance_axis_aligned_square_is_zero():
    # shared coordinates zero the product: lost diversity is reported as 0
    assert min_product_distance(base_lattice(2, 4).points) == 0.0


def test_min_product_distance_shared_coordinate_is_zero():
    pts = np.array([[1.0 + 0j, 2.0], [1.0, 2.0 + 0.7j]])
    assert min_product_distance(pts) == 0.0


def test_min_product_distance_all_coordinates_differ():
    pts = np.array([[1.0 + 0j, 2.0 + 0j], [1.5 + 0j, 2.0 + 0.7j]])
    assert min_product_distance(pts) == pytest.approx(0.5 * 0.7)


def test_min_product_distance_golden_square():
    r = rotate(base_lattice(2, 4), rotation_2d(GOLDEN_ANGLE))
    # analytic optimum of min(2|sin 2t|, 4|cos 2t|) at tan 2t = -2
    assert min_product_distance(r.points) == pytest.approx(4.0 / math.sqrt(5.0), abs=1e-9)


def test_min_product_distance_permutation_invariant():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    base_val = min_product_distance(pts)
    for perm in itertools.permutations(range(3)):
        assert min_product_distance(pts[:, perm]) == pytest.approx(base_val, rel=1e-12)


# ---------------------------------------------------------------------------
# projections and powers


def test_projections_repetition_16qam():
    assert projections_per_dim(repetition_qam_mother(16, 2)) == (16, 16)


def test_projections_t16():
    assert projections_per_dim(t16qam()) == (16, 16)


def test_projections_low_projection_variant():
    assert projections_per_dim(low_projection_16point()) == (9, 9)


def test_merge_values():
    vals = np.array([0.0, 1.0, 1.0 + 1e-8, 2.0])
    reps, idx = merge_values(vals, tol=1e-6)
    assert len(reps) == 3
    assert idx.tolist() == [0, 1, 1, 2]


def test_power_spread_repetition_exactly_one():
    dp = dimensional_power_metrics(repetition_qam_mother(16, 2))
    assert dp.spread == 1.0


def test_power_spread_t16_above_one():
    dp = dimensional_power_metrics(t16qam())
    # constant-energy codewords with ratio (sqrt5 + 2)^2 between extreme tones
    assert dp.spread == pytest.approx((math.sqrt(5.0) + 2.0) ** 2, rel=1e-9)
    assert dp.spread > 1.0


def test_power_spread_single_dimension():
    mother = repetition_qam_mother(4, 1)
    assert dimensional_power_metrics(mother).spread == 1.0


# ---------------------------------------------------------------------------
# shuffle construction


def test_shuffle_t16_shape():
    mother = t16qam()
    assert mother.size == 16
    assert mother.n_dims == 2
    assert mother.energy == pytest.approx(1.0, abs=1e-12)


def test_shuffle_unrotated_square_gives_qpsk_grid():
    u = base_lattice(2, 4)
    mother = shuffle_construct(u, u)
    per_dim = {tuple(np.round(np.sort_complex(mother.points[:, n]), 9)) for n in range(2)}
    assert len(mother.points) == 16
    # each dimension carries the scaled {±1±1j} QPSK values, 4 each
    for n in range(2):
        vals = np.unique(np.round(mother.points[:, n], 9))
        assert len(vals) == 4
    assert len(per_dim) == 1


def test_shuffle_separability_multisets():
    u = rotate(base_lattice(2, 4), rotation_2d(0.3))
    v = rotate(base_lattice(2, 4), rotation_2d(1.2))
    mother = shuffle_construct(u, v)
    scale = math.sqrt(
        np.mean(np.sum(u.points**2, axis=1)) + np.mean(np.sum(v.points**2, axis=1))
    )
    re_rows = sorted(map(tuple, np.round(mother.points.real * scale, 9)))
    expected = sorted(map(tuple, np.round(np.repeat(u.points, 4, axis=0), 9)))
    assert re_rows == expected
    im_rows = sorted(map(tuple, np.round(mother.points.imag * scale, 9)))
    expected_v = sorted(map(tuple, np.round(np.tile(v.points, (4, 1)), 9)))
    assert im_rows == expected_v


def test_shuffle_real_part_depends_only_on_first_factor():
    mother = t16qam()
    for p in range(4):
        block = mother.points[p * 4 : (p + 1) * 4]
        assert np.allclose(block.real, block.real[0], atol=1e-12)


def test_shuffle_rejects_mismatch():
    with pytest.raises(ValueError):
        shuffle_construct(base_lattice(2, 4), base_lattice(3, 8))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.5), st.floats(0.0, 1.5))
def test_shuffle_energy_always_unit(a, b):
    u = rotate(base_lattice(2, 4), rotation_2d(a)) if a else base_lattice(2, 4)
    v = rotate(base_lattice(2, 4), rotation_2d(b)) if b else base_lattice(2, 4)
    mother = shuffle_construct(u, v)
    assert mother.energy == pytest.approx(1.0, abs=1e-12)


def test_gray_labeling_structure():
    assert [gray_code(i) for i in range(4)] == [0, 1, 3, 2]
    mother = t16qam()
    assert sorted(mother.labels.tolist()) == list(range(16))
    # consecutive construction-order points within a q-block differ by one bit
    for p in range(4):
        for q in range(3):
            a = mother.labels[p * 4 + q]
            b = mother.labels[p * 4 + q + 1]
            assert bin(a ^ b).count("1") == 1


def test_encode_inverts_labels():
    mother = t16qam()
    idx = mother.encode(mother.labels)
    assert idx.tolist() == list(range(16))


def test_mother_invariants():
    with pytest.raises(ValueError):
        MotherConstellation(
            points=np.array([[1.0 + 0j], [1.0 + 0j]]), labels=np.array([0, 1])
        )
    with pytest.raises(ValueError):
        MotherConstellation(
            points=np.array([[1.0 + 0j], [-1.0 + 0j]]), labels=np.array([0, 0])
        )


# ---------------------------------------------------------------------------
# rotation optimizers


def grid_oracle_product_distance(step=1e-4):
    base = base_lattice(2, 4)
    angles = np.arange(step, math.pi / 2, step)
    best = 0.0
    for a in angles:
        val = min_product_distance(rotate(base, rotation_2d(a)).points.astype(complex))
        best = max(best, val)
    return best


def test_optimize_product_distance_matches_analytic_and_grid():
    base = base_lattice(2, 4)
    angle, r = optimize_rotation_product_distance(base, grid_step=1e-3)
    achieved = min_product_distance(rotate(base, r).points.astype(complex))
    analytic = min_product_distance(
        rotate(base, rotation_2d(GOLDEN_ANGLE)).points.astype(complex)
    )
    assert achieved >= analytic - 1e-6
    # reflection-equivalent angle also optimal; optimizer returns one of them
    assert min(abs(angle - GOLDEN_ANGLE), abs(angle - (math.pi / 2 - GOLDEN_ANGLE))) < 1e-3
    oracle = grid_oracle_product_distance(1e-4)
    assert achieved >= oracle - 1e-6


def test_optimize_product_distance_stability():
    base = base_lattice(2, 4)
    _, r1 = optimize_rotation_product_distance(base, grid_step=2e-3)
    _, r2 = optimize_rotation_product_distance(base, grid_step=1e-3)
    v1 = min_product_distance(rotate(base, r1).points.astype(complex))
    v2 = min_product_distance(rotate(base, r2).points.astype(complex))
    assert abs(v1 - v2) < 1e-6


def test_optimize_product_distance_rejects_bad_input():
    with pytest.raises(ValueError):
        optimize_rotation_product_distance(base_lattice(1, 4), grid_step=1e-3)
    with pytest.raises(ValueError):
        optimize_rotation_product_distance(base_lattice(2, 4), grid_step=0.0)


def test_optimize_projections_nine():
    base = base_lattice(2, 4)
    angle, r = optimize_rotation_projections(base, 9, grid_step=1e-3)
    mother = shuffle_construct(rotate(base, r), rotate(base, r))
    assert projections_per_dim(mother) == (9, 9)
    assert min_product_distance(mother.points) == 0.0
    assert angle == pytest.approx(math.pi / 4, abs=1e-6)


def test_optimize_projections_sixteen_feasible():
    base = base_lattice(2, 4)
    angle, r = optimize_rotation_projections(base, 16, grid_step=1e-3)
    mother = shuffle_construct(rotate(base, r), rotate(base, r))
    assert max(projections_per_dim(mother)) <= 16


def test_optimize_projections_impossible_target():
    with pytest.raises(ValueError):
        optimize_rotation_projections(base_lattice(2, 4), 1, grid_step=1e-2)


def test_optimize_projections_excludes_unrotated_square():
    # this grid's last point lies within rounding of pi/2, where the square
    # is unrotated and shows 4 widely spaced values per dimension; the
    # search covers the open interval (0, pi/2) only
    step = math.pi / 4 / 785
    angle, _ = optimize_rotation_projections(base_lattice(2, 4), 9, grid_step=step)
    assert angle == round(math.pi / 4, 15)
    angle, _ = optimize_rotation_projections(base_lattice(2, 4), 16, grid_step=step)
    assert angle < math.pi / 2 - 1e-12


def reference_projection_search(size, targets, grid_step):
    """Brute force: every grid angle plus every collision angle, rebuilt and
    merged; per target, the first angle with the widest gap. A dimension
    without merges shows size**2 values, which no target below size**2
    admits, so an angle's merging stops there."""
    assert max(targets) < size**2
    base = base_lattice(2, size)
    cand = list(np.arange(grid_step, math.pi / 2, grid_step))
    cand.extend(constellation._pairwise_merge_angles(base.points))
    best = {t: (None, -math.inf) for t in targets}
    for angle in sorted(set(round(a, 15) for a in cand)):
        u = rotate(base, rotation_2d(angle))
        mother = shuffle_construct(u, u)
        count, gap = 0, math.inf
        for n in range(mother.n_dims):
            reps, _ = merge_values(mother.points[:, n])
            count = max(count, len(reps))
            if count == size**2:
                break
            if len(reps) > 1:
                d = np.abs(reps[:, None] - reps[None, :])
                np.fill_diagonal(d, np.inf)
                gap = min(gap, float(d.min()))
        for t in targets:
            if count <= t and gap > best[t][1]:
                best[t] = (angle, gap)
    return {t: angle for t, (angle, _) in best.items()}


@pytest.mark.parametrize(
    "size,targets,grid_step",
    [(4, (9, 12, 15), s) for s in (1e-3, 2e-3, 5e-4)] + [(16, (255,), 1e-2)],
)
def test_optimize_projections_matches_grid_reference(size, targets, grid_step):
    want = reference_projection_search(size, targets, grid_step)
    for target in targets:
        angle, r = optimize_rotation_projections(base_lattice(2, size), target, grid_step)
        assert angle == want[target]
        assert np.array_equal(r, rotation_2d(angle))


def test_low_projection_points_bit_identical():
    # sha256 of the little-endian complex128 points, with every rotated
    # coordinate replaced by its merge_values representative
    points = low_projection_16point().points.astype("<c16")
    assert hashlib.sha256(points.tobytes()).hexdigest() == (
        "85e0b31e77babfd68292af0678ffee7aa14bce13f354678e15f6e636c493e20e"
    )


def test_low_projection_values_are_exact_and_near_the_rotation():
    # the merged projections are one value exactly, and the points sit
    # within rounding of the plain rotation at the chosen angle
    mother = low_projection_16point()
    for n in range(mother.n_dims):
        assert len(np.unique(mother.points[:, n])) == 9
    _, r = optimize_rotation_projections(base_lattice(2, 4), 9)
    u = rotate(base_lattice(2, 4), r)
    assert np.abs(mother.points - shuffle_construct(u, u).points).max() <= 1e-15


# ---------------------------------------------------------------------------
# named designs


def test_four_point_mother_profile_matches_qpsk_repetition():
    four = four_point_mother()
    lds = repetition_qam_mother(4, 2)
    assert four.size == 4
    assert four.energy == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(
        sorted_pairwise(four.points), sorted_pairwise(lds.points), atol=1e-9
    )
    assert np.allclose(sorted_pairwise(four.points)[:4], math.sqrt(2.0), atol=1e-9)


def test_four_point_mother_uneven_tone_power():
    dp = dimensional_power_metrics(four_point_mother())
    assert dp.spread > 1.0
    assert FOUR_POINT_ANGLE == pytest.approx(math.atan(0.4))


def test_repetition_mother_equal_magnitudes():
    mother = repetition_qam_mother(16, 2)
    mags = np.abs(mother.points)
    assert np.allclose(mags[:, 0], mags[:, 1], atol=1e-12)
    with pytest.raises(ValueError):
        repetition_qam_mother(8, 2)  # not a square QAM


def test_measure_bundles_metrics():
    m = measure(t16qam())
    assert m.d_e_min == pytest.approx(1.0, abs=1e-12)
    assert m.d_p_min == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-9)
    assert m.projections == (16, 16)
    assert m.dim_power_spread > 1.0
    assert sum(m.dim_power) == pytest.approx(1.0, abs=1e-12)
