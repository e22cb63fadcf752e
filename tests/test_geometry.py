"""Sphere embedding, hulls, retracts, boundary coincidence."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.spatial import ConvexHull as QHull
from scipy.spatial import QhullError

from qugame import geometry as geo
from qugame.linalg import PureState, fubini_study_distance, haar_random_state


def sphere_cloud(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def hemisphere_cloud(n, seed):
    v = sphere_cloud(n, seed)
    v[:, 2] = np.abs(v[:, 2])
    return v


CUBE = np.array(
    [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
)


# ------------------------------------------------------------- embedding ---

def test_bloch_embedding_poles_and_equator():
    assert_allclose(geo.bloch_embedding(PureState([1, 0])), [0, 0, 1], atol=1e-15)
    assert_allclose(geo.bloch_embedding(PureState([0, 1])), [0, 0, -1], atol=1e-15)
    plus = PureState(np.array([1, 1]) / np.sqrt(2))
    assert_allclose(geo.bloch_embedding(plus), [1, 0, 0], atol=1e-15)


def test_bloch_embedding_is_unit_and_phase_free():
    rng = np.random.default_rng(40)
    for _ in range(50):
        s = haar_random_state(2, rng)
        b = geo.bloch_embedding(s)
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
        rotated = PureState(np.exp(0.9j) * s.amplitudes)
        assert_allclose(geo.bloch_embedding(rotated), b, atol=1e-12)


def scalar_bloch_embedding(v):
    """The embedding as first written, one numpy scalar at a time."""
    a, b = v[0], v[1]
    cross = a.conjugate() * b
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(a) ** 2 - abs(b) ** 2])


def test_bloch_rows_keep_the_scalar_embedding_bits():
    rng = np.random.default_rng(41)
    states = np.vstack([np.array([haar_random_state(2, rng).amplitudes for _ in range(2000)]),
                        rng.normal(size=(2000, 2)) + 1j * rng.normal(size=(2000, 2))])
    rows = geo._bloch_rows(states)
    assert np.all(rows[:, 0] == 1.0)
    for v, row in zip(states, rows):
        expected = scalar_bloch_embedding(v).tobytes()
        assert row[1:].tobytes() == expected
        if abs(np.linalg.norm(v) - 1.0) < 1e-12:
            assert geo.bloch_embedding(v).tobytes() == expected


def test_great_circle_distance_extremes():
    u = np.array([0.0, 0.0, 1.0])
    assert geo.great_circle_distance(u, u) == pytest.approx(0.0, abs=1e-12)
    assert geo.great_circle_distance(u, -u) == pytest.approx(np.pi, abs=1e-12)


def test_embedding_doubles_the_projective_metric():
    # sphere distance between images = 2x the projective distance upstairs
    rng = np.random.default_rng(2024)
    pairs = [(haar_random_state(2, rng), haar_random_state(2, rng)) for _ in range(100)]
    report = geo.isometry_check(pairs)
    assert report.pairs_checked == 100
    assert report.max_deviation <= 1e-12
    a, b = pairs[0]
    direct = geo.great_circle_distance(geo.bloch_embedding(a), geo.bloch_embedding(b))
    assert direct == pytest.approx(2 * fubini_study_distance(a, b), abs=1e-12)


# ------------------------------------------------------------------ hulls ---

def test_cube_hull_shape():
    hull = geo.convex_hull(CUBE)
    assert hull.vertices.shape == (8, 3)
    assert hull.facets.shape == (12, 3)
    assert hull.contains(np.zeros(3))
    assert not hull.contains(np.array([1.5, 0.0, 0.0]))
    assert_allclose(hull.centroid, np.zeros(3), atol=1e-12)


def oracle_hull(points) -> geo.ConvexHull3D:
    """Reference hull: per-facet planes and a points x facets containment check."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    hull = QHull(pts)
    vertices = pts[hull.vertices]
    relabel = {old: new for new, old in enumerate(hull.vertices)}
    facets = np.array([[relabel[v] for v in simplex] for simplex in hull.simplices])
    centroid = vertices.mean(axis=0)
    normals = np.empty((facets.shape[0], 3))
    offsets = np.empty(facets.shape[0])
    for k, tri in enumerate(facets):
        a, b, c = vertices[tri]
        n = np.cross(b - a, c - a)
        norm = np.linalg.norm(n)
        if norm < 1e-14:
            raise ValueError("hull facet is degenerate")
        n /= norm
        if np.dot(n, a - centroid) < 0:
            n = -n
        normals[k] = n
        offsets[k] = np.dot(n, a)
    inside = pts @ normals.T - offsets[None, :]
    if inside.max() > geo.ConvexHull3D.CONTAINMENT_TOL:
        raise ValueError("hull fails containment validation")
    return geo.ConvexHull3D(vertices, facets, normals, offsets, centroid)


def drawn_cloud(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "sphere":
        return sphere_cloud(n, seed)
    if kind == "cap":
        return hemisphere_cloud(n, seed)
    if kind == "blob":
        return rng.normal(size=(n, 3)) * [1.0, 0.1, 3.0]
    # points on a small integer grid: duplicates and coplanar facets
    return rng.integers(-2, 3, size=(n, 3)).astype(float)


def assert_matches_oracle(pts):
    try:
        expected = oracle_hull(pts)
    except (ValueError, QhullError):   # flat or too few distinct points: refuse too
        with pytest.raises(ValueError):
            geo.convex_hull(pts)
        return
    hull = geo.convex_hull(pts)
    assert np.array_equal(hull.vertices, expected.vertices)
    assert hull.facets.dtype == expected.facets.dtype
    assert np.array_equal(hull.facets, expected.facets)
    assert np.array_equal(hull.centroid, expected.centroid)
    assert_allclose(hull.normals, expected.normals, rtol=0, atol=1e-12)
    assert_allclose(hull.offsets, expected.offsets, rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["sphere", "cap", "blob", "grid"]),
    st.integers(min_value=8, max_value=200),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_convex_hull_matches_per_facet_oracle(kind, n, seed):
    assert_matches_oracle(drawn_cloud(kind, n, seed))


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(5, 40), st.just(3)),
              elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
def test_convex_hull_matches_oracle_on_arbitrary_clouds(pts):
    assert_matches_oracle(pts)


def test_convex_hull_matches_oracle_on_a_large_sphere():
    assert_matches_oracle(sphere_cloud(1000, 3))


def test_convex_hull_rejects_a_degenerate_facet(monkeypatch):
    # after deduplication the points sort as (0,0,0), (0,0,1), (0,1,0),
    # (1,0,0), (2,0,0); the first, fourth and fifth are collinear
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]])

    class CollinearFacetHull:
        def __init__(self, points):
            self.vertices = np.arange(len(points))
            self.simplices = np.vstack([QHull(points).simplices, [[0, 3, 4]]])

    monkeypatch.setattr(geo, "_QHull", CollinearFacetHull)
    with pytest.raises(ValueError, match="hull facet is degenerate"):
        geo.convex_hull(pts)


def test_convex_hull_containment_checks_every_block(monkeypatch):
    # a point outside the hull in the last, partial block must be caught
    pts = sphere_cloud(3 * geo.ConvexHull3D.CONTAINMENT_BLOCK + 5, 4)
    real = QHull

    class HullWithoutLastPoint:
        def __init__(self, points):
            hull = real(points[:-1])
            self.vertices = hull.vertices
            self.simplices = hull.simplices

    pts = np.vstack([pts, [[3.0, 3.0, 3.0]]])   # sorts last after deduplication
    monkeypatch.setattr(geo, "_QHull", HullWithoutLastPoint)
    with pytest.raises(ValueError, match="containment"):
        geo.convex_hull(pts)


def test_convex_hull_needs_full_dimension():
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        geo.convex_hull(flat)


def test_support_radius_on_cube():
    hull = geo.convex_hull(CUBE)
    assert geo.support_radius(hull, np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    diag = np.ones(3) / np.sqrt(3)
    assert geo.support_radius(hull, diag) == pytest.approx(np.sqrt(3), abs=1e-12)


def test_extreme_points_on_cube_with_interior_noise():
    rng = np.random.default_rng(41)
    pts = np.vstack([CUBE, rng.uniform(-0.8, 0.8, size=(30, 3))])
    hull = geo.convex_hull(pts)
    report = geo.extreme_points(hull, pts)
    assert report.extreme_count == 8
    assert report.fraction == pytest.approx(8 / 38, abs=1e-12)
    assert report.is_extreme[:8].all()
    assert not report.is_extreme[8:].any()


def test_sample_hull_boundary_lands_on_facets():
    hull = geo.convex_hull(CUBE)
    rng = np.random.default_rng(42)
    samples = geo.sample_hull_boundary(hull, 200, rng)
    assert samples.shape == (200, 3)
    # every sample sits on some supporting plane and inside the hull closure
    for p in samples:
        residuals = hull.normals @ p - hull.offsets
        assert residuals.max() <= 1e-9
        assert residuals.max() >= -1e-9 or np.any(np.abs(residuals) <= 1e-9)
        assert np.any(np.abs(residuals) <= 1e-9)


# --------------------------------------------------------- homeomorphism ---

def test_ball_homeomorphism_cube_boundary_to_sphere():
    hull = geo.convex_hull(CUBE)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        p = rng.uniform(-1, 1, size=3)
        p[rng.integers(3)] = rng.choice([-1.0, 1.0])
        worst = max(worst, abs(np.linalg.norm(geo.ball_homeomorphism(hull, p)) - 1.0))
    assert worst <= 1e-12


def test_ball_homeomorphism_round_trip():
    hull = geo.convex_hull(CUBE)
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(200):
        p = rng.uniform(-1, 1, size=3) * 0.999
        image = geo.ball_homeomorphism(hull, p)
        back = geo.ball_homeomorphism_inverse(hull, image)
        worst = max(worst, float(np.linalg.norm(back - p)))
    assert worst <= 1e-12


def test_ball_homeomorphism_centroid_to_origin():
    hull = geo.convex_hull(CUBE)
    assert_allclose(geo.ball_homeomorphism(hull, hull.centroid), np.zeros(3), atol=1e-12)


def test_ball_homeomorphism_irregular_hull_round_trip():
    rng = np.random.default_rng(44)
    hull = geo.convex_hull(rng.normal(size=(40, 3)))
    worst = 0.0
    checked = 0
    while checked < 100:
        q = hull.centroid + rng.uniform(-0.2, 0.2, size=3)
        if not hull.contains(q):
            continue
        image = geo.ball_homeomorphism(hull, q)
        assert np.linalg.norm(image) <= 1.0 + 1e-12
        back = geo.ball_homeomorphism_inverse(hull, image)
        worst = max(worst, float(np.linalg.norm(back - q)))
        checked += 1
    assert worst <= 1e-9


# ----------------------------------------------------------------- retract ---

def test_hemisphere_retract_fixes_upper_hemisphere():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        v[2] = abs(v[2])
        worst = max(worst, float(np.linalg.norm(geo.hemisphere_retract(v) - v)))
    assert worst <= 1e-12


def test_hemisphere_retract_maps_ball_onto_sphere():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        v = rng.normal(size=3)
        v *= rng.uniform() ** (1 / 3) / np.linalg.norm(v)
        worst = max(worst, abs(np.linalg.norm(geo.hemisphere_retract(v)) - 1.0))
    assert worst <= 1e-12


def test_hemisphere_retract_is_exactly_idempotent():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1:
            v /= n
        once = geo.hemisphere_retract(v)
        assert np.linalg.norm(geo.hemisphere_retract(once) - once) == 0.0


def test_hemisphere_retract_output_has_nonnegative_height():
    rng = np.random.default_rng(45)
    for _ in range(200):
        v = rng.normal(size=3)
        v /= max(np.linalg.norm(v), 1.0)
        assert geo.hemisphere_retract(v)[2] >= -1e-15


# ----------------------------------------------------------- coincidence ---

def test_full_sphere_cloud_covers_its_hull_boundary():
    report = geo.boundary_coincidence_check(
        sphere_cloud(8000, 5), num_boundary_samples=2000, delta=0.05, seed=99
    )
    assert report.fraction >= 0.95
    assert report.coincident
    assert report.status == "retract construction unavailable: samples cover their hull boundary"


def test_hemisphere_cloud_leaves_boundary_uncovered():
    report = geo.boundary_coincidence_check(
        hemisphere_cloud(1500, 5), num_boundary_samples=2000, delta=0.05, seed=99
    )
    assert report.fraction <= 0.7
    assert not report.coincident
    assert report.status == "proper boundary piece available for a retract target"


def test_sparse_sphere_cloud_fraction_is_low():
    # 500 points leave most of the hull boundary more than delta away; the
    # deterministic fraction for these seeds sits near a quarter, far from
    # the 0.95 coincidence threshold
    report = geo.boundary_coincidence_check(
        sphere_cloud(500, 5), num_boundary_samples=2000, delta=0.05, seed=99
    )
    assert report.fraction == pytest.approx(0.2605, abs=1e-12)
    assert not report.coincident


def test_coincidence_report_fields_round():
    report = geo.boundary_coincidence_check(
        sphere_cloud(200, 8), num_boundary_samples=500, delta=0.1, threshold=0.9, seed=1
    )
    assert report.delta == 0.1
    assert report.num_boundary_samples == 500
    assert report.threshold == 0.9
    assert 0.0 <= report.fraction <= 1.0


def test_coincidence_check_reuses_a_given_hull(monkeypatch):
    pts = sphere_cloud(300, 9)
    hull = geo.convex_hull(pts)
    expected = geo.boundary_coincidence_check(pts, num_boundary_samples=300, delta=0.1, seed=2)

    def no_rebuild(points):
        raise AssertionError("hull rebuilt although one was given")

    monkeypatch.setattr(geo, "convex_hull", no_rebuild)
    report = geo.boundary_coincidence_check(
        pts, num_boundary_samples=300, delta=0.1, seed=2, hull=hull
    )
    assert report == expected


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"delta": -1.0}, "delta"),
        ({"delta": 0.0}, "delta"),
        ({"delta": float("nan")}, "delta"),
        ({"delta": float("inf")}, "delta"),
        ({"num_boundary_samples": 0}, "num_boundary_samples"),
        ({"num_boundary_samples": -5}, "num_boundary_samples"),
        ({"threshold": 0.0}, "threshold"),
        ({"threshold": 1.5}, "threshold"),
        ({"threshold": float("nan")}, "threshold"),
    ],
)
def test_coincidence_check_rejects_bad_parameters_before_the_hull(monkeypatch, kwargs, name):
    def no_hull(points):
        raise AssertionError("hull built before the parameters were checked")

    monkeypatch.setattr(geo, "convex_hull", no_hull)
    with pytest.raises(ValueError, match=name):
        geo.boundary_coincidence_check(sphere_cloud(50, 1), **kwargs)
