"""Qubit state space as the unit sphere: embedding, hulls, retracts.

The projective qubit space embeds onto the sphere in R^3; great-circle
distance there is exactly twice the projective distance. On top of that live
the convex-geometry tools used to study fixed-point arguments numerically:
hulls of sampled state clouds, the radial homeomorphism onto the unit ball,
the closed-form retract of the ball onto the upper hemisphere, and a
statistical check for the one obstruction to that construction, namely a
sample set that already fills the whole boundary of its hull.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .linalg import PureState, _as_vector, _bloch_rows, _unit_norm, as_rng, fubini_study_distance

__all__ = [
    "bloch_embedding",
    "great_circle_distance",
    "IsometryReport",
    "isometry_check",
    "ConvexHull3D",
    "convex_hull",
    "ExtremePointsReport",
    "extreme_points",
    "support_radius",
    "ball_homeomorphism",
    "ball_homeomorphism_inverse",
    "hemisphere_retract",
    "CoincidenceReport",
    "boundary_coincidence_check",
    "sample_hull_boundary",
]


def bloch_embedding(state) -> np.ndarray:
    """Unit-sphere image (2 Re(a* b), 2 Im(a* b), |a|^2 - |b|^2) of a qubit state; a
    raw vector off the unit norm is refused as :class:`PureState` refuses it."""
    v = state.amplitudes if isinstance(state, PureState) else _as_vector(state)
    if v.size != 2:
        raise ValueError(f"the sphere embedding takes qubit states, got dimension {v.size}")
    return _bloch_rows(v if isinstance(state, PureState) else _unit_norm(v))[1:]


def great_circle_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Arc length between unit vectors in R^3; any other ``u`` or ``v`` is refused by name."""
    dot = float(np.clip(np.dot(_unit_vector(u, "u"), _unit_vector(v, "v")), -1.0, 1.0))
    return float(np.arccos(dot))


def _unit_vector(value, name: str) -> np.ndarray:
    """``value`` as a finite point of the unit sphere in R^3, refused by ``name`` otherwise."""
    x = _finite(value, name)
    if x.shape != (3,):
        raise ValueError(f"{name} must be a vector in R^3, got shape {x.shape}")
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > DEFAULT_TOLS.ball_slack:
        raise ValueError(f"{name} is not a unit vector: |{name}| = {norm!r}")
    return x


@dataclass(frozen=True)
class IsometryReport:
    """Worst observed gap between sphere distance and twice projective distance."""

    pairs_checked: int
    max_deviation: float


def isometry_check(pairs) -> IsometryReport:
    """Compare great-circle distance of embedded images with 2x projective distance."""
    gaps = [abs(great_circle_distance(bloch_embedding(p), bloch_embedding(q))
                - 2.0 * fubini_study_distance(p, q)) for p, q in pairs]
    return IsometryReport(pairs_checked=len(gaps), max_deviation=max(gaps, default=0.0))


@dataclass(frozen=True, eq=False)
class ConvexHull3D:
    """Triangulated hull: vertex coordinates, facet vertex triples, outward planes.

    ``normals[k] . x == offsets[k]`` on facet ``k``; every input point sits on
    the inner side of every facet plane within the containment tolerance.
    """

    vertices: np.ndarray
    facets: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    centroid: np.ndarray

    CONTAINMENT_BLOCK = 16   # points per containment-validation block

    def contains(self, point: np.ndarray) -> bool:
        heights = self.normals @ np.asarray(point, float) - self.offsets
        return bool(np.all(heights <= DEFAULT_TOLS.containment))


def _finite(value, name: str) -> np.ndarray:
    """``value`` as a float64 array, refused by ``name`` unless every entry is finite."""
    x = np.asarray(value, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite entries")
    return x


def _points(value, name: str) -> np.ndarray:
    """``value`` as a finite (n >= 1, 3) float64 array, refused by ``name`` otherwise."""
    x = _finite(value, name)
    if x.ndim != 2 or x.shape[1] != 3 or x.shape[0] == 0:
        raise ValueError(f"{name} must be an (n >= 1, 3) point array, got shape {x.shape}")
    return x


def _spatial():
    """``scipy.spatial``, imported on first use: only the hull and nearest-point tools need it."""
    import scipy.spatial
    return scipy.spatial


def _QHull(points):   # quickhull, under a name of its own so that tests can replace it
    return _spatial().ConvexHull(points)


def convex_hull(points) -> ConvexHull3D:
    """Hull of a 3-d point cloud (quickhull); raises on degenerate input.

    Exact duplicates are merged before the hull is built, so coincident
    samples yield a single vertex. Every point is checked against every facet
    plane in blocks of points, holding a block x facets array, never points x facets.
    """
    pts = np.unique(_points(points, "point cloud"), axis=0)
    if pts.shape[0] < 4:
        raise ValueError("a 3-d hull needs at least four distinct points")
    try:
        hull = _QHull(pts)
    except _spatial().QhullError as exc:
        raise ValueError(f"degenerate point cloud (coplanar or collinear): {exc}") from exc
    vertices = pts[hull.vertices]
    relabel = np.empty(pts.shape[0], dtype=np.intp)
    relabel[hull.vertices] = np.arange(hull.vertices.size)
    facets = relabel[hull.simplices]
    centroid = vertices.mean(axis=0)
    a, b, c = (vertices[facets[:, k]] for k in range(3))
    normals = np.cross(b - a, c - a)
    norms = np.linalg.norm(normals, axis=1)
    if norms.min() < DEFAULT_TOLS.flat:
        raise ValueError("hull facet is degenerate")
    normals /= norms[:, None]
    normals[np.einsum("ij,ij->i", normals, a - centroid) < 0] *= -1.0   # point outward
    offsets = np.einsum("ij,ij->i", normals, a)
    # [p, 1] @ [n; -offset] is each point's height above each facet plane
    lifted = np.hstack([pts, np.ones((pts.shape[0], 1))])
    planes = np.vstack([normals.T, -offsets])
    heights = np.empty((ConvexHull3D.CONTAINMENT_BLOCK, len(offsets)))
    worst = max(
        np.matmul(lifted[s:s + len(heights)], planes, out=heights[:len(pts) - s]).max()
        for s in range(0, len(pts), len(heights))
    )
    if worst > DEFAULT_TOLS.containment:
        raise ValueError(f"hull fails containment validation by {worst:.3e}")
    return ConvexHull3D(
        vertices=vertices,
        facets=facets,
        normals=normals,
        offsets=offsets,
        centroid=centroid,
    )


@dataclass(frozen=True, eq=False)
class ExtremePointsReport:
    """Which input points survive as hull vertices."""

    is_extreme: np.ndarray
    extreme_count: int
    fraction: float


def extreme_points(hull: ConvexHull3D, originals) -> ExtremePointsReport:
    """Flag each original point that coincides with a hull vertex."""
    pts = _points(originals, "originals")   # before the tree is built
    dists, _ = _spatial().cKDTree(hull.vertices).query(pts)
    flags = dists <= DEFAULT_TOLS.extreme_point
    return ExtremePointsReport(
        is_extreme=flags,
        extreme_count=int(flags.sum()),
        fraction=float(flags.mean()),
    )


def support_radius(hull: ConvexHull3D, direction: np.ndarray) -> float:
    """Distance from the hull centroid to the boundary along a unit direction."""
    d = _finite(direction, "direction")
    heights = hull.offsets - hull.normals @ hull.centroid   # all > 0: centroid is interior
    rates = hull.normals @ d
    ahead = rates > DEFAULT_TOLS.flat
    if not np.any(ahead):
        raise ValueError("direction escapes every facet plane; hull is degenerate")
    return float(np.min(heights[ahead] / rates[ahead]))


def ball_homeomorphism(hull: ConvexHull3D, point) -> np.ndarray:
    """Centroid-anchored radial rescaling of a hull point into the unit ball.

    The hull boundary lands exactly on the unit sphere; the centroid goes to
    the origin. Raises when the point lies outside the hull.
    """
    u = _finite(point, "point") - hull.centroid
    r = np.linalg.norm(u)
    if r < DEFAULT_TOLS.centered:
        return np.zeros(3)
    direction = u / r
    rho = support_radius(hull, direction)
    if r > rho * (1.0 + DEFAULT_TOLS.ball_slack):
        raise ValueError("point lies outside the hull")
    return u / rho


def ball_homeomorphism_inverse(hull: ConvexHull3D, point) -> np.ndarray:
    """Inverse radial rescaling: unit-ball point back into the hull."""
    y = _finite(point, "point")
    r = np.linalg.norm(y)
    if r > 1.0 + DEFAULT_TOLS.ball_slack:
        raise ValueError("point lies outside the closed unit ball")
    if r < DEFAULT_TOLS.centered:
        return hull.centroid.copy()
    rho = support_radius(hull, y / r)
    return hull.centroid + y * rho


def hemisphere_retract(point) -> np.ndarray:
    """Retract the closed unit ball onto the upper hemisphere of its boundary.

    Keeps all but the last coordinate and lifts the last to put the point on
    the unit sphere: (x_1, ..., x_{m-1}) |-> sqrt(1 - sum of squares). Fixes
    the upper hemisphere pointwise and is idempotent. Raises when the input
    leaves the closed ball.
    """
    x = _finite(point, "point")
    if x.ndim != 1 or x.size < 2:
        raise ValueError("expected a point in R^m with m >= 2")
    if np.linalg.norm(x) > 1.0 + DEFAULT_TOLS.ball_slack:
        raise ValueError("point lies outside the closed unit ball")
    head = x[:-1]
    slack = 1.0 - float(head @ head)
    out = np.empty_like(x)
    out[:-1] = head
    out[-1] = np.sqrt(max(slack, 0.0))
    return out


@dataclass(frozen=True)
class CoincidenceReport:
    """Fraction of the hull boundary lying within ``delta`` of the sample set.

    A fraction at or above the threshold means the samples already fill their
    hull's boundary, which is exactly the situation where no proper boundary
    piece is available as a retract target.
    """

    fraction: float
    delta: float
    num_boundary_samples: int
    threshold: float
    coincident: bool
    status: str


def sample_hull_boundary(
    hull: ConvexHull3D, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform boundary samples: facets weighted by area, uniform per triangle."""
    a, b, c = (hull.vertices[hull.facets[:, k]] for k in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    weights = areas / areas.sum()
    chosen = rng.choice(len(areas), size=count, p=weights)
    # sqrt trick: uniform point in a triangle
    r1 = np.sqrt(rng.uniform(size=count))[:, None]
    r2 = rng.uniform(size=count)[:, None]
    return (
        (1.0 - r1) * a[chosen]
        + r1 * (1.0 - r2) * b[chosen]
        + r1 * r2 * c[chosen]
    )


MAX_BOUNDARY_SAMPLES = 1_000_000   # about 105 bytes each at the coincidence check's peak


def _check_sampling(num_boundary_samples: int, delta: float) -> None:
    if not num_boundary_samples >= 1:
        raise ValueError(f"num_boundary_samples must be >= 1, got {num_boundary_samples!r}")
    if num_boundary_samples > MAX_BOUNDARY_SAMPLES:   # before anything is allocated
        raise ValueError(f"num_boundary_samples must be <= {MAX_BOUNDARY_SAMPLES}, "
                         f"got {num_boundary_samples!r}")
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be a finite real > 0, got {delta!r}")


def boundary_coincidence_check(
    samples,
    *,
    num_boundary_samples: int = 2000,
    delta: float = 0.05,
    threshold: float = 0.95,
    seed: int | np.random.Generator | None = 0,
    hull: ConvexHull3D | None = None,
) -> CoincidenceReport:
    """Estimate how much of the hull boundary the sample set itself covers.

    Draws area-weighted points on the hull of ``samples`` (``hull``, else built
    here) and reports the fraction within ``delta`` of the nearest sample. A
    covered boundary (fraction >= threshold) is flagged: the retract
    construction needs a boundary piece free of the set, and none is left.
    """
    _check_sampling(num_boundary_samples, delta)
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold!r}")
    pts = _points(samples, "samples")
    hull = convex_hull(pts) if hull is None else hull
    boundary = sample_hull_boundary(hull, num_boundary_samples, as_rng(seed))
    dists, _ = _spatial().cKDTree(pts).query(boundary)
    fraction = float((dists <= delta).mean())
    coincident = fraction >= threshold
    status = (
        "retract construction unavailable: samples cover their hull boundary"
        if coincident
        else "proper boundary piece available for a retract target"
    )
    return CoincidenceReport(
        fraction=fraction,
        delta=float(delta),
        num_boundary_samples=int(num_boundary_samples),
        threshold=float(threshold),
        coincident=coincident,
        status=status,
    )
