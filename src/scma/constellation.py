"""Multi-dimensional mother constellations.

Design flow: take a product-of-PAM base in 2N real dimensions, rotate it to
shape its distance profile, then interleave two real bases as the real and
imaginary parts of an N-dim complex constellation with Gray labeling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RealConstellation",
    "MotherConstellation",
    "ConstellationMetrics",
    "DimensionalPower",
    "GOLDEN_ANGLE",
    "FOUR_POINT_ANGLE",
    "pam_levels",
    "base_lattice",
    "rotation_2d",
    "rotate",
    "min_euclidean_distance",
    "min_product_distance",
    "merge_values",
    "projections_per_dim",
    "dimensional_power_metrics",
    "gray_code",
    "shuffle_construct",
    "t16qam",
    "four_point_mother",
    "low_projection_16point",
    "repetition_qam_mother",
    "optimize_rotation_product_distance",
    "optimize_rotation_projections",
    "measure",
]

# Rotation of the 4-point square base that maximises its minimum product
# distance: tan(2*theta) = -2, i.e. theta = atan((1 + sqrt(5)) / 2).
GOLDEN_ANGLE = math.atan((1.0 + math.sqrt(5.0)) / 2.0)

# Rotation used for the 4-point two-tone design. Chosen to maximise the
# minimum distance of the fully loaded six-layer superposition alphabet
# under the default phase signatures; scripts/tune_four_point_angle.py
# reproduces the selection. The optimum sits at atan(2/5).
FOUR_POINT_ANGLE = math.atan(0.4)

PROJECTION_MERGE_TOL = 1e-6
COORD_DIFF_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-10
SEPARABLE_TOL = 1e-9  # largest gap between a point and its recorded parts


@dataclass(frozen=True)
class RealConstellation:
    """Finite set of distinct points in real N-dim space, centred on the origin."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must form a non-empty 2-D array")
        if pts.shape[0] > 1:
            d = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((d**2).sum(axis=2))
            np.fill_diagonal(dist, np.inf)
            if dist.min() <= 1e-12:
                raise ValueError("points must be distinct")
        if np.abs(pts.mean(axis=0)).max() > 1e-12:
            raise ValueError("centroid must sit at the origin")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def n_dims(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class MotherConstellation:
    """M unit-average-energy points in complex N-dim space plus bit labels.

    labels[m] is the bit pattern carried by point m. real_points and
    imag_points, when present, are the scaled real sub-constellations such
    that point (p, q) equals real_points[p] + 1j * imag_points[q]; they
    record the separable structure needed by the split detector.
    """

    points: np.ndarray
    labels: np.ndarray
    real_points: np.ndarray | None = None
    imag_points: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.complex128)
        labels = np.array(self.labels, dtype=np.int64)
        if pts.ndim != 2 or len(pts) < 2:
            raise ValueError("need at least two points in a 2-D array")
        m = len(pts)
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if m & (m - 1):
            raise ValueError(f"point count must be a power of two, got {m}")
        if sorted(labels.tolist()) != list(range(m)):
            raise ValueError("labels must be a bijection onto range(M)")
        d = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
        np.fill_diagonal(d, np.inf)
        if not d.min() > 1e-12:
            raise ValueError("points must be distinct")
        pts.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)
        parts = (self.real_points, self.imag_points)
        missing = [part is None for part in parts]
        if all(missing):
            return
        if any(missing):
            raise ValueError("real_points and imag_points come together")
        re, im = (np.array(part, dtype=np.float64) for part in parts)
        if not (re.ndim == im.ndim == 2 and re.shape[1] == im.shape[1] == pts.shape[1]):
            raise ValueError("separable parts must be 2-D with one column per dimension")
        if len(re) * len(im) != m or not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError("separable parts must be finite, one pair per point")
        joined = (re[:, None, :] + 1j * im[None, :, :]).reshape(pts.shape)
        if not np.abs(joined - pts).max() <= SEPARABLE_TOL:
            raise ValueError("point (p, q) must equal real_points[p] + 1j * imag_points[q]")
        for name, part in zip(("real_points", "imag_points"), (re, im)):
            part.setflags(write=False)
            object.__setattr__(self, name, part)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def n_dims(self) -> int:
        return self.points.shape[1]

    @property
    def bits_per_symbol(self) -> int:
        return self.size.bit_length() - 1

    @property
    def energy(self) -> float:
        """Average squared norm over points."""
        return float(np.mean(np.sum(np.abs(self.points) ** 2, axis=1)))

    @property
    def is_separable(self) -> bool:
        return self.real_points is not None and self.imag_points is not None

    def encode(self, bit_patterns: np.ndarray) -> np.ndarray:
        """Map bit patterns to point indices (inverse of labels)."""
        inv = np.empty(self.size, dtype=np.int64)
        inv[self.labels] = np.arange(self.size)
        return inv[np.asarray(bit_patterns, dtype=np.int64)]


@dataclass(frozen=True)
class DimensionalPower:
    """Average power per complex dimension and per-codeword power spread."""

    per_dim: np.ndarray
    spread: float


@dataclass(frozen=True)
class ConstellationMetrics:
    d_e_min: float
    d_p_min: float
    projections: tuple[int, ...]
    dim_power: tuple[float, ...]
    dim_power_spread: float


def pam_levels(n_levels: int) -> np.ndarray:
    """Odd-integer amplitude grid -(L-1), ..., -1, +1, ..., +(L-1)."""
    if n_levels < 2:
        raise ValueError("need at least two levels")
    return np.arange(-(n_levels - 1), n_levels, 2, dtype=np.float64)


def base_lattice(n_dims: int, size: int) -> RealConstellation:
    """Cartesian product of L-PAM grids with L**n_dims == size.

    Points are listed in product order with each axis ascending.
    """
    if n_dims < 1 or size < 2:
        raise ValueError("need n_dims >= 1 and size >= 2")
    levels = None
    for cand in range(2, size + 1):
        if cand**n_dims == size:
            levels = cand
            break
        if cand**n_dims > size:
            break
    if levels is None:
        raise ValueError(f"{size} is not an integer power with exponent {n_dims}")
    axis = pam_levels(levels)
    pts = np.array(list(itertools.product(axis, repeat=n_dims)), dtype=np.float64)
    return RealConstellation(pts)


def rotation_2d(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotate(constellation: RealConstellation, r: np.ndarray) -> RealConstellation:
    """Apply an orthogonal matrix to every point."""
    r = np.asarray(r, dtype=np.float64)
    n = constellation.n_dims
    if r.shape != (n, n):
        raise ValueError(f"rotation must be {n}x{n}")
    if np.abs(r.T @ r - np.eye(n)).max() > ORTHOGONALITY_TOL:
        raise ValueError("matrix is not orthogonal")
    return RealConstellation(constellation.points @ r.T)


def min_euclidean_distance(points: np.ndarray) -> float:
    """Smallest pairwise Euclidean distance."""
    pts = np.asarray(points)
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    d = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((np.abs(d) ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def min_product_distance(points: np.ndarray, tol: float = COORD_DIFF_TOL) -> float:
    """Smallest pairwise product of per-coordinate distances.

    The product runs over all coordinates; a coordinate pair closer than
    tol counts as equal and contributes a zero factor, so the metric is
    zero exactly when some pair of points shares a coordinate (lost
    diversity).
    """
    pts = np.asarray(points)
    m = pts.shape[0]
    if m < 2:
        raise ValueError("need at least two points")
    d = np.abs(pts[:, None, :] - pts[None, :, :])
    d = np.where(d <= tol, 0.0, d)
    prod = d.prod(axis=2)
    iu = np.triu_indices(m, k=1)
    return float(prod[iu].min())


def merge_values(values: np.ndarray, tol: float = PROJECTION_MERGE_TOL):
    """Cluster scalars closer than tol; returns (representatives, index_map).

    representatives[index_map[i]] reproduces values[i] up to tol. The
    representative of a cluster is its first member in input order. At
    tol 0 only equal values merge.
    """
    vals = np.asarray(values).ravel()
    # each representative's position. A value equal to a representative
    # joins it, as no earlier one lies within tol of it; at tol 0 no other
    # value joins one
    reps: dict[complex, int] = {}
    index = []
    for v in vals.tolist():
        r = reps.get(v)
        if r is None and tol > 0:
            r = next((i for i, rep in enumerate(reps) if abs(v - rep) <= tol), None)
        if r is None:
            r = reps[v] = len(reps)
        index.append(r)
    return np.array(list(reps), dtype=vals.dtype), np.array(index, dtype=np.int64)


def projections_per_dim(mother: MotherConstellation) -> tuple[int, ...]:
    """Distinct point values, merged within PROJECTION_MERGE_TOL, seen on
    each complex dimension."""
    return tuple(len(merge_values(mother.points[:, n])[0]) for n in range(mother.n_dims))


def dimensional_power_metrics(mother: MotherConstellation) -> DimensionalPower:
    """Per-dimension average power and worst per-codeword max/min power ratio.

    The spread is inf when some codeword has a (numerically) dead dimension
    next to a live one.
    """
    p = np.abs(mother.points) ** 2
    per_dim = p.mean(axis=0)
    hi = p.max(axis=1)
    lo = p.min(axis=1)
    dead = lo <= 1e-24
    if np.any(dead & (hi > 1e-24)):
        spread = math.inf
    else:
        spread = float((hi / lo).max())
    return DimensionalPower(per_dim, spread)


def gray_code(i: int) -> int:
    return i ^ (i >> 1)


def _gray_labels(m_u: int, m_v: int) -> np.ndarray:
    bits_v = (m_v - 1).bit_length()
    labels = np.empty(m_u * m_v, dtype=np.int64)
    for p in range(m_u):
        for q in range(m_v):
            labels[p * m_v + q] = (gray_code(p) << bits_v) | gray_code(q)
    return labels


def shuffle_construct(u: RealConstellation, v: RealConstellation) -> MotherConstellation:
    """Interleave two real constellations as real and imaginary parts.

    Point (p, q) has coordinate n equal to u[p][n] + 1j * v[q][n]; the
    result is scaled to unit average energy. Labels put the bits selecting
    p ahead of the bits selecting q, each Gray-coded over construction
    order.
    """
    if u.n_dims != v.n_dims:
        raise ValueError("real and imaginary parts need equal dimension counts")
    m_u, m_v = u.size, v.size
    m = m_u * m_v
    if m < 2 or m & (m - 1):
        raise ValueError(f"combined size must be a power of two >= 2, got {m}")
    pts = (u.points[:, None, :] + 1j * v.points[None, :, :]).reshape(m, u.n_dims)
    scale = 1.0 / math.sqrt(float(np.mean(np.sum(np.abs(pts) ** 2, axis=1))))
    return MotherConstellation(
        pts * scale,
        _gray_labels(m_u, m_v),
        real_points=u.points * scale,
        imag_points=v.points * scale,
    )


def t16qam() -> MotherConstellation:
    """16-point two-dimensional constellation built from two copies of the
    product-distance-optimal rotated square. Constant per-codeword energy."""
    u = rotate(base_lattice(2, 4), rotation_2d(GOLDEN_ANGLE))
    return shuffle_construct(u, u)


def four_point_mother() -> MotherConstellation:
    """4-point two-tone design: a rotated square transmitted on the real
    axis only. Shares the QPSK repetition distance profile but spreads
    codeword power unevenly over the two tones."""
    u = rotate(base_lattice(2, 4), rotation_2d(FOUR_POINT_ANGLE))
    origin = RealConstellation(np.zeros((1, 2)))
    return shuffle_construct(u, origin)


def low_projection_16point() -> MotherConstellation:
    """16-point variant whose per-dimension projections collapse to nine
    values, trading diversity for detector complexity.

    The rotation sits at a collision angle, where two coordinates meet only
    up to rounding; each coordinate is replaced by its merge_values
    representative, so the merged projections are one value exactly."""
    base = base_lattice(2, 4)
    _, r = optimize_rotation_projections(base, 9)
    rotated = rotate(base, r).points
    merged = [reps[idx] for reps, idx in map(merge_values, rotated.T)]
    u = RealConstellation(np.stack(merged, axis=1))
    return shuffle_construct(u, u)


def repetition_qam_mother(order: int, n_dims: int) -> MotherConstellation:
    """Square-QAM symbol repeated across all dimensions (spread-spectrum
    style baseline), unit-normalised with per-axis Gray labels."""
    side = math.isqrt(order)
    if side * side != order or order < 4:
        raise ValueError(f"square QAM order required, got {order}")
    axis = pam_levels(side)
    rep = RealConstellation(np.repeat(axis[:, None], n_dims, axis=1))
    return shuffle_construct(rep, rep)


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Locate the maximiser of a unimodal f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def optimize_rotation_product_distance(
    base: RealConstellation, grid_step: float = 1e-3
) -> tuple[float, np.ndarray]:
    """Angle in (0, pi/2) maximising the rotated base's min product distance.

    Grid search at grid_step resolution, then golden-section refinement to
    1e-8; exact grid ties resolve toward the smaller angle.
    """
    if base.n_dims != 2:
        raise ValueError("rotation search is implemented for 2-D bases only")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")

    def score(angle: float) -> float:
        return min_product_distance(rotate(base, rotation_2d(angle)).points)

    angles = np.arange(grid_step, math.pi / 2, grid_step)
    if len(angles) == 0:
        raise ValueError("grid_step leaves no candidate angles")
    values = [score(a) for a in angles]
    k = int(np.argmax(values))  # first max = smaller angle on ties
    lo = max(angles[k] - grid_step, grid_step * 1e-3)
    hi = min(angles[k] + grid_step, math.pi / 2 - grid_step * 1e-3)
    best = _golden_section_max(score, lo, hi)
    return best, rotation_2d(best)


def _pairwise_merge_angles(points: np.ndarray) -> list[float]:
    """Angles in (0, pi/2) where two rotated points share a coordinate.

    For a 2-D rotation, coordinate collisions solve one linear equation in
    tan(theta) per point pair and axis.
    """
    out = []
    m = len(points)
    for i in range(m):
        for j in range(i + 1, m):
            dx = points[i, 0] - points[j, 0]
            dy = points[i, 1] - points[j, 1]
            # first axis: dx*cos = dy*sin ; second axis: dx*sin = -dy*cos
            for num, den in ((dx, dy), (-dy, dx)):
                if abs(den) > 1e-15:
                    ang = math.atan2(num, den) % math.pi
                    if 1e-12 < ang < math.pi / 2 - 1e-12:
                        out.append(ang)
    return out


def optimize_rotation_projections(
    base: RealConstellation, target: int, grid_step: float = 1e-3
) -> tuple[float, np.ndarray]:
    """Smallest-complexity rotation: find an angle whose shuffled square
    constellation shows at most `target` distinct values per complex
    dimension, maximising the minimum gap between the merged values.

    Projections merge only at the analytic coordinate-collision angles, and
    without a merge a dimension shows base.size**2 values. So for target <
    base.size**2 the candidates are the collision angles alone; otherwise
    the open (0, pi/2) grid joins them. Raises ValueError when none fits.
    """
    if base.n_dims != 2:
        raise ValueError("rotation search is implemented for 2-D bases only")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if target < 1:
        raise ValueError("target must be at least 1")

    cand = _pairwise_merge_angles(base.points)
    if target >= base.size**2:
        cand.extend(np.arange(grid_step, math.pi / 2 - 1e-12, grid_step))
    cand = sorted(set(round(a, 15) for a in cand))

    best_angle = None
    best_gap = -math.inf
    for angle in cand:
        u = rotate(base, rotation_2d(angle))
        mother = shuffle_construct(u, u)
        gap = math.inf
        feasible = True
        for n in range(mother.n_dims):
            reps, _ = merge_values(mother.points[:, n])
            if len(reps) > target:
                feasible = False
                break
            if len(reps) > 1:
                d = np.abs(reps[:, None] - reps[None, :])
                np.fill_diagonal(d, np.inf)
                gap = min(gap, float(d.min()))
        if feasible and gap > best_gap:
            best_angle, best_gap = angle, gap
    if best_angle is None:
        raise ValueError(f"no rotation reaches {target} projections per dimension")
    return best_angle, rotation_2d(best_angle)


def measure(mother: MotherConstellation) -> ConstellationMetrics:
    """Distance, projection and power summary of a mother constellation."""
    power = dimensional_power_metrics(mother)
    return ConstellationMetrics(
        d_e_min=min_euclidean_distance(mother.points),
        d_p_min=min_product_distance(mother.points),
        projections=projections_per_dim(mother),
        dim_power=tuple(float(x) for x in power.per_dim),
        dim_power_spread=power.spread,
    )
