import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapegplm import (
    DegenerateConfigurationError,
    InvalidArgumentError,
    KendallShapeBackend,
    OutOfChartError,
    PreShape,
    SphereBackend,
    density_exponent,
    helmert_submatrix,
    log_density_from_distance,
    preshape,
    procrustes_distance,
    procrustes_mean,
    tangent_coordinates,
)

from conftest import random_configuration, random_preshape, random_rotation


def centroid_size(x) -> float:
    """Frobenius norm of the configuration centred at its mean: the size that
    :func:`preshape` scales away, by another route than its Helmert product."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - x.mean(axis=0)))


def log_volume_density(a: PreShape, b: PreShape) -> float:
    """Log volume density of the shape manifold at ``b`` relative to ``a``."""
    return float(log_density_from_distance(procrustes_distance(a, b), a.k, a.m))


def exponential_map(pole: PreShape, v) -> PreShape:
    """Inverse of :func:`tangent_coordinates`: map a tangent vector back to a
    preshape on the sphere."""
    v = np.asarray(v, dtype=float).reshape(pole.z.shape)
    norm = float(np.linalg.norm(v))
    if norm < 1e-300:
        return pole
    z = np.cos(norm) * pole.z + np.sin(norm) * (v / norm)
    return PreShape(z / np.linalg.norm(z))


class TestHelmert:
    def test_k2_row(self):
        H = helmert_submatrix(2)
        np.testing.assert_allclose(H, [[-1 / np.sqrt(2), 1 / np.sqrt(2)]], atol=1e-15)

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_orthonormal_rows_and_translation_annihilation(self, k):
        H = helmert_submatrix(k)
        np.testing.assert_allclose(H @ H.T, np.eye(k - 1), atol=1e-12)
        np.testing.assert_allclose(H @ np.ones(k), 0.0, atol=1e-12)

    def test_rejects_k1(self):
        with pytest.raises(InvalidArgumentError):
            helmert_submatrix(1)


class TestCentroidSizeAndPreshape:
    def test_two_landmark_example(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert centroid_size(x) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        sample = preshape(x)
        np.testing.assert_allclose(sample.preshape.z, [[1.0, 0.0, 0.0]], atol=1e-12)
        assert sample.size == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_translation_invariance(self, rng):
        x = random_configuration(rng)
        shifted = x + rng.normal(size=(1, 3))
        assert centroid_size(shifted) == pytest.approx(centroid_size(x), rel=1e-12)

    def test_macaque_m1_size(self, macaque_bundle):
        i = macaque_bundle.ids.index("m1")
        assert macaque_bundle.sizes[i] == pytest.approx(113.9, abs=0.05)

    def test_degenerate_configuration(self):
        with pytest.raises(DegenerateConfigurationError):
            preshape(np.ones((4, 3)))

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_coincident_landmarks_off_the_origin(self, offset):
        # the Helmert transform of seven copies of (1, 1, 1) leaves a size of
        # rounding noise rather than zero
        x = np.ones((7, 3)) + offset
        assert 0.0 < np.linalg.norm(helmert_submatrix(7) @ x) < 1e-8
        with pytest.raises(DegenerateConfigurationError):
            preshape(x)

    def test_tiny_configuration_keeps_its_shape(self, rng):
        x = random_configuration(rng)
        tiny = preshape(1e-10 * x)
        np.testing.assert_allclose(tiny.preshape.z, preshape(x).preshape.z, atol=1e-12)
        assert tiny.size == pytest.approx(1e-10 * centroid_size(x), rel=1e-12)

    def test_unit_norm_and_similarity_invariance(self, rng):
        for _ in range(20):
            x = random_configuration(rng)
            z = preshape(x).preshape.z
            assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)
            a = rng.uniform(0.5, 3.0)
            t = rng.normal(size=3)
            z2 = preshape(a * x + t).preshape.z
            np.testing.assert_allclose(z2, z, atol=1e-12)

    def test_preshape_validation(self):
        with pytest.raises(InvalidArgumentError):
            PreShape(np.ones((3, 3)))           # not unit norm
        with pytest.raises(InvalidArgumentError):
            PreShape(np.full((2, 2), np.nan))


class TestProcrustesDistance:
    def test_self_distance_zero(self, rng):
        s = random_preshape(rng)
        assert procrustes_distance(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_quotient(self, rng):
        for _ in range(25):
            x = random_configuration(rng)
            R = random_rotation(rng)
            a = preshape(x).preshape
            b = preshape(x @ R).preshape
            assert procrustes_distance(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_full_similarity_invariance(self, rng):
        for _ in range(100):
            x = random_configuration(rng, k=int(rng.integers(3, 9)))
            R = random_rotation(rng)
            a = rng.uniform(0.5, 2.0)
            t = rng.normal(size=3)
            d = procrustes_distance(preshape(x).preshape,
                                    preshape(a * x @ R + t).preshape)
            assert abs(d) <= 1e-9

    def test_symmetry_and_range(self, rng):
        for _ in range(100):
            k = int(rng.integers(3, 9))
            a, b = random_preshape(rng, k), random_preshape(rng, k)
            d1, d2 = procrustes_distance(a, b), procrustes_distance(b, a)
            assert abs(d1 - d2) < 1e-12
            assert 0.0 <= d1 <= np.pi / 2

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidArgumentError):
            procrustes_distance(random_preshape(rng, 5), random_preshape(rng, 7))

    def test_brute_force_oracle(self, rng):
        from scipy.optimize import minimize

        def euler(angles):
            ca, cb, cc = np.cos(angles)
            sa, sb, sc = np.sin(angles)
            rz1 = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
            ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
            rz2 = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
            return rz1 @ ry @ rz2

        grid = np.linspace(0, 2 * np.pi, 13)[:-1]
        grid_b = np.linspace(0, np.pi, 7)

        for trial in range(100):
            k = int(rng.integers(3, 9))
            z1, z2 = random_preshape(rng, k), random_preshape(rng, k)
            M = z2.z.T @ z1.z

            def neg_inner(angles):
                return -np.trace(euler(angles).T @ M)

            best = None
            for a in grid:
                for b in grid_b:
                    for c in grid:
                        v = neg_inner((a, b, c))
                        if best is None or v < best[0]:
                            best = (v, (a, b, c))
            res = minimize(neg_inner, best[1], method="Nelder-Mead",
                           options=dict(xatol=1e-12, fatol=1e-14, maxiter=4000))
            oracle = np.arccos(min(max(-res.fun, -1.0), 1.0))
            assert procrustes_distance(z1, z2) == pytest.approx(oracle, abs=1e-6), \
                f"trial {trial}"


class TestVolumeDensity:
    def test_exponents(self):
        assert density_exponent(7, 3) == 13
        assert density_exponent(1423, 3) == 4261

    def test_zero_distance(self, rng):
        s = random_preshape(rng)
        assert log_volume_density(s, s) == 0.0

    def test_k7_quarter_pi(self):
        expected = 13 * np.log(np.sin(np.pi / 4) / (np.pi / 4))
        got = log_density_from_distance(np.pi / 4, 7, 3)
        assert got == pytest.approx(expected, rel=1e-12)
        assert np.exp(got) == pytest.approx(0.2554, abs=5e-4)

    def test_large_k_log_domain(self):
        got = log_density_from_distance(np.pi / 4, 1423, 3)
        assert got == pytest.approx(4261 * np.log(np.sin(np.pi / 4) / (np.pi / 4)),
                                    rel=1e-12)
        assert got == pytest.approx(-447.4, abs=0.5)
        # farther out the density underflows in linear domain, hence the log API
        assert np.exp(log_density_from_distance(1.5, 1423, 3)) == 0.0

    def test_bounds_and_monotonicity(self):
        rho = np.linspace(1e-4, np.pi / 2, 300)
        logtheta = log_density_from_distance(rho, 7, 3)
        theta = np.exp(logtheta)
        assert np.all(theta > 0) and np.all(theta <= 1)
        assert np.all(np.diff(theta) < 0)

    def test_series_branch_continuity(self):
        # both evaluation branches agree where they meet
        r = 1.01e-6
        series = -r ** 2 / 6.0 - r ** 4 / 180.0
        direct = np.log(np.sin(r) / r)
        assert 13 * series == pytest.approx(13 * direct, abs=1e-15)
        assert log_density_from_distance(r, 7, 3) == pytest.approx(
            13 * direct, abs=1e-15)


class TestProcrustesMean:
    def test_single_and_identical(self, rng):
        s = random_preshape(rng, 5)
        assert procrustes_distance(procrustes_mean([s]), s) == 0.0
        mean = procrustes_mean([s, s, s])
        assert procrustes_distance(mean, s) == pytest.approx(0.0, abs=1e-12)

    def test_frechet_objective_oracle(self, rng):
        from scipy.optimize import minimize

        shapes = [random_preshape(rng, 4) for _ in range(5)]

        def objective_from_vec(v):
            z = v.reshape(3, 3)
            z = z / np.linalg.norm(z)
            p = PreShape(z)
            return sum(np.sin(procrustes_distance(p, s)) ** 2 for s in shapes)

        mean = procrustes_mean(shapes)
        ours = sum(np.sin(procrustes_distance(mean, s)) ** 2 for s in shapes)
        best = np.inf
        for seed_shape in shapes:
            res = minimize(objective_from_vec, seed_shape.z.ravel(),
                           method="Nelder-Mead",
                           options=dict(xatol=1e-10, fatol=1e-12, maxiter=20000))
            best = min(best, res.fun)
        assert ours == pytest.approx(best, abs=1e-6)

    def test_fixed_point(self, rng):
        shapes = [random_preshape(rng, 6) for _ in range(7)]
        mean = procrustes_mean(shapes)
        again = procrustes_mean(shapes, initial=mean)
        assert np.linalg.norm(again.z - mean.z) < 1e-9

    def test_empty_list(self):
        with pytest.raises(InvalidArgumentError):
            procrustes_mean([])


class TestTangentCoordinates:
    def test_zero_at_pole(self, rng):
        s = random_preshape(rng)
        np.testing.assert_allclose(tangent_coordinates(s, s), 0.0, atol=1e-12)

    def test_norm_preserves_distance(self, rng):
        for _ in range(30):
            pole, s = random_preshape(rng), random_preshape(rng)
            v = tangent_coordinates(pole, s)
            assert np.linalg.norm(v) == pytest.approx(
                procrustes_distance(pole, s), abs=1e-9)

    def test_round_trip(self, rng):
        for _ in range(20):
            pole = random_preshape(rng)
            s = random_preshape(rng)
            v = tangent_coordinates(pole, s)
            back = exponential_map(pole, v)
            assert procrustes_distance(back, s) == pytest.approx(0.0, abs=1e-9)

    def test_out_of_chart(self):
        # orthogonal supports make the preshapes exactly pi/2 apart
        z1 = np.zeros((4, 3))
        z1[0, 0] = 1.0
        z2 = np.zeros((4, 3))
        z2[3, 2] = 1.0
        with pytest.raises(OutOfChartError):
            tangent_coordinates(PreShape(z1), PreShape(z2))


class TestSphereBackend:
    def test_antipodal(self):
        b = SphereBackend(d=2)
        assert b.distance([0, 0, 1.0], [0, 0, -1.0]) == pytest.approx(np.pi)

    def test_density(self):
        b = SphereBackend(d=2)
        assert b.log_density_at(np.array(0.0)) == 0.0
        got = b.log_volume_density([0, 0, 1.0], [1.0, 0, 0])
        assert np.exp(got) == pytest.approx(2 / np.pi, rel=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SphereBackend(d=2).distance([0, 0, 1.1], [0, 0, 1.0])
        with pytest.raises(InvalidArgumentError):
            SphereBackend(d=0)

    def test_injectivity_bound(self):
        assert SphereBackend(d=2).injectivity_bound == np.pi
        assert KendallShapeBackend(k=7).injectivity_bound == np.pi / 2


class TestBackendMatrices:
    def test_kendall_pairwise(self, rng):
        backend = KendallShapeBackend(k=5, m=3)
        pts = [random_preshape(rng, 5) for _ in range(6)]
        dist, logdens = backend.pairwise_matrices(pts)
        assert np.all(dist == dist.T) and np.all(dist.diagonal() == 0.0)
        assert np.all(logdens == logdens.T) and np.all(logdens.diagonal() == 0.0)
        i, j = 1, 4
        assert dist[i, j] == pytest.approx(procrustes_distance(pts[i], pts[j]),
                                           abs=1e-12)
        assert logdens[i, j] == pytest.approx(log_volume_density(pts[i], pts[j]),
                                              abs=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        backend = KendallShapeBackend(k=5, m=3)
        with pytest.raises(InvalidArgumentError):
            backend.pairwise_matrices([random_preshape(rng, 7)])

    @pytest.mark.parametrize("k,m", [(7, 3), (5, 2)])
    def test_distances_to_rejects_mismatched_dimensions(self, rng, k, m):
        backend = KendallShapeBackend(k=5, m=3)
        pts = [random_preshape(rng, 5) for _ in range(3)]
        other = random_preshape(rng, k, m)
        for query, points in ((other, pts), (pts[0], pts[1:] + [other])):
            with pytest.raises(InvalidArgumentError, match=r"kendall\(k=5, m=3\)"):
                backend.distances_to(query, points)
