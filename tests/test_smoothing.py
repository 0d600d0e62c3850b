import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapegplm import (
    BandwidthTooSmallError,
    InvalidArgumentError,
    KernelSpec,
    SmootherCache,
    SphereBackend,
    pelletier_estimate,
    smooth_all,
)

from shapegplm.smoothing import _log_weights

from conftest import sphere_points


def kernel_weight(d: float, spec: KernelSpec) -> float:
    """Unnormalised Gaussian kernel value ``exp(-d^2 / (2 h^2))``, from the
    log weights every smoother takes."""
    if d < 0:
        raise InvalidArgumentError(f"distance must be nonnegative, got {d}")
    return float(np.exp(_log_weights(d, 0.0, spec)))


@pytest.fixture()
def sphere_data(rng):
    backend = SphereBackend(d=2)
    pts = [p for p in sphere_points(rng, 20)]
    targets = rng.normal(size=(20, 2))
    cache = SmootherCache.from_points(pts, backend)
    return backend, pts, targets, cache


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            KernelSpec(bandwidth=0.0)

    def test_oversized_bandwidth_warns_not_errors(self, sphere_data):
        backend, pts, targets, cache = sphere_data
        with pytest.warns(UserWarning, match="injectivity"):
            smooth_all(pts, targets, KernelSpec(bandwidth=4.0), backend, cache)


class TestKernelWeight:
    def test_values(self):
        spec = KernelSpec(bandwidth=0.25)
        assert kernel_weight(0.0, spec) == 1.0
        assert kernel_weight(0.25, spec) == pytest.approx(np.exp(-0.5), rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.5), st.floats(min_value=1e-3, max_value=2.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing(self, d, h):
        spec = KernelSpec(bandwidth=h)
        assert kernel_weight(d + 1e-3, spec) < kernel_weight(d, spec) + 1e-300

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            kernel_weight(-0.1, KernelSpec(bandwidth=0.1))


class TestSmootherCache:
    def test_rejects_asymmetric(self):
        d = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(InvalidArgumentError):
            SmootherCache(dist=d, logdens=np.zeros((2, 2)))

    def test_rejects_nonzero_diagonal(self):
        d = np.eye(2) * 0.1
        with pytest.raises(InvalidArgumentError):
            SmootherCache(dist=d, logdens=np.zeros((2, 2)))


class TestPelletierEstimate:
    def test_constant_targets_exact(self, sphere_data):
        backend, pts, _, cache = sphere_data
        const = np.full(20, 3.7)
        spec = KernelSpec(bandwidth=0.2)
        got = pelletier_estimate(5, pts, const, spec, backend, cache)
        assert got == 3.7

    def test_single_point(self, rng):
        backend = SphereBackend(d=2)
        pts = [np.array([0.0, 0.0, 1.0])]
        for h in (1e-3, 0.1, 3.0):
            got = pelletier_estimate(pts[0], pts, np.array([2.5]),
                                     KernelSpec(bandwidth=h), backend)
            assert got == 2.5

    def test_direct_formula_oracle(self, sphere_data):
        backend, pts, targets, cache = sphere_data
        spec = KernelSpec(bandwidth=0.3)
        for i in (0, 7, 19):
            # straightforward linear-domain evaluation of the estimator
            d = np.array([backend.distance(pts[i], q) for q in pts])
            theta = np.exp(backend.log_density_at(d))
            w = np.exp(-d ** 2 / (2 * spec.bandwidth ** 2)) / theta
            expected = (w[:, None] * targets).sum(axis=0) / w.sum()
            got = pelletier_estimate(i, pts, targets, spec, backend, cache)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_underflow_raises_with_query(self, rng):
        backend = SphereBackend(d=2)
        pts = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])]
        far = np.array([1.0, 0.0, 0.0])
        with pytest.raises(BandwidthTooSmallError) as err:
            pelletier_estimate(far, pts, np.array([1.0, 2.0]),
                               KernelSpec(bandwidth=1e-200), backend)
        assert err.value.query is far

    def test_length_mismatch(self, sphere_data):
        backend, pts, _, cache = sphere_data
        with pytest.raises(InvalidArgumentError):
            pelletier_estimate(0, pts, np.zeros(7), KernelSpec(0.1), backend, cache)

    def test_cache_size_mismatch(self, rng):
        backend = SphereBackend(d=2)
        pts = list(sphere_points(rng, 60))
        cache = SmootherCache.from_points(pts[:50], backend)
        with pytest.raises(InvalidArgumentError, match="built for 50 points"):
            pelletier_estimate(3, pts, rng.normal(size=60), KernelSpec(0.3), backend, cache)


class TestSmoothAll:
    def test_constant_matrix(self, sphere_data):
        backend, pts, _, cache = sphere_data
        targets = np.full((20, 3), -1.25)
        got = smooth_all(pts, targets, KernelSpec(bandwidth=0.15), backend, cache)
        assert np.all(got == -1.25)

    def test_matches_per_point_estimates(self, sphere_data):
        backend, pts, targets, cache = sphere_data
        spec = KernelSpec(bandwidth=0.2)
        allrows = smooth_all(pts, targets, spec, backend, cache)
        for i in range(len(pts)):
            row = pelletier_estimate(i, pts, targets, spec, backend, cache)
            np.testing.assert_allclose(allrows[i], row, atol=1e-12)

    def test_wide_bandwidth_reaches_global_average(self, sphere_data):
        backend, pts, targets, cache = sphere_data
        with pytest.warns(UserWarning, match="injectivity"):
            got = smooth_all(pts, targets, KernelSpec(bandwidth=1e3), backend, cache)
        with np.errstate(all="ignore"):
            theta_inv = np.exp(-cache.logdens)
        rows = (theta_inv @ targets) / theta_inv.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, rows, atol=1e-6)

    def test_linearity(self, sphere_data, rng):
        backend, pts, _, cache = sphere_data
        spec = KernelSpec(bandwidth=0.25)
        u = rng.normal(size=20)
        v = rng.normal(size=20)
        a, b = 1.7, -0.9
        left = smooth_all(pts, a * u + b * v, spec, backend, cache)
        right = (a * smooth_all(pts, u, spec, backend, cache)
                 + b * smooth_all(pts, v, spec, backend, cache))
        np.testing.assert_allclose(left, right, atol=1e-10)

    def test_convex_hull_bound(self, sphere_data, rng):
        backend, pts, _, cache = sphere_data
        targets = rng.normal(size=(20, 4)) * 100
        for h in (0.05, 0.3, 2.0):
            got = smooth_all(pts, targets, KernelSpec(bandwidth=h), backend, cache)
            lo = targets.min(axis=0) - 1e-9 * np.abs(targets).max()
            hi = targets.max(axis=0) + 1e-9 * np.abs(targets).max()
            assert np.all(got >= lo) and np.all(got <= hi)

    def test_cache_reuse_identical(self, sphere_data):
        backend, pts, targets, cache = sphere_data
        spec = KernelSpec(bandwidth=0.2)
        with_cache = smooth_all(pts, targets, spec, backend, cache)
        without = smooth_all(pts, targets, spec, backend, None)
        np.testing.assert_allclose(with_cache, without, atol=1e-15, rtol=0)

    def test_cache_size_mismatch(self, sphere_data):
        backend, pts, targets, cache = sphere_data
        with pytest.raises(InvalidArgumentError):
            smooth_all(pts[:5], targets[:5], KernelSpec(0.1), backend, cache)
