import numpy as np
import pytest

from shapegplm import (
    FitConfig,
    InvalidArgumentError,
    KernelSpec,
    SmootherCache,
    SphereBackend,
    fit_logistic_plm,
    fit_ordinal_plm,
    fit_plm,
    ordinal_work_matrices,
    predict_logistic,
    predict_ordinal,
    preshape,
)

from conftest import random_configuration, sphere_points


def identical_shape_sample(rng, n):
    """n copies of one preshape: the manifold covariate carries no signal and
    every smoother weight is uniform."""
    s = preshape(random_configuration(rng, k=5)).preshape
    return [s] * n


def newton_logistic_mle(y, design, max_iter=200):
    """Plain Newton logistic regression oracle (design includes intercept)."""
    beta = np.zeros(design.shape[1])
    for _ in range(max_iter):
        eta = design @ beta
        p = 1 / (1 + np.exp(-eta))
        w = p * (1 - p)
        grad = design.T @ (y - p)
        hess = design.T @ (w[:, None] * design)
        step = np.linalg.solve(hess + 1e-12 * np.eye(len(beta)), grad)
        beta = beta + step
        if np.linalg.norm(step) < 1e-12:
            break
    return beta


@pytest.fixture()
def kendall_backend():
    from shapegplm import KendallShapeBackend
    return KendallShapeBackend(k=5, m=3)


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            FitConfig(threshold=0.0)
        with pytest.raises(InvalidArgumentError):
            FitConfig(max_iter=0)
        with pytest.raises(InvalidArgumentError):
            FitConfig(irls_variant="robust")


@pytest.mark.parametrize("fitter", [fit_plm, fit_logistic_plm, fit_ordinal_plm])
def test_cache_size_mismatch(fitter, rng):
    backend = SphereBackend(d=2)
    pts = list(sphere_points(rng, 60))
    cache = SmootherCache.from_points(pts[:50], backend)
    y = np.arange(60) % (2 if fitter is fit_logistic_plm else 3) + (fitter is fit_ordinal_plm)
    with pytest.raises(InvalidArgumentError, match="built for 50 points"):
        fitter(y.astype(float), rng.normal(size=(60, 1)), pts, KernelSpec(0.5),
               backend, cache=cache)


class TestGaussianPlm:
    def test_identical_shapes_reduce_to_ols(self, rng, kendall_backend):
        n = 40
        shapes = identical_shape_sample(rng, n)
        x = rng.normal(size=(n, 2))
        y = x @ np.array([1.5, -0.7]) + rng.normal(0, 0.3, n)
        fit = fit_plm(y, x, shapes, KernelSpec(bandwidth=0.1), kendall_backend)
        xc = x - x.mean(axis=0)
        ols = np.linalg.solve(xc.T @ xc, xc.T @ (y - y.mean()))
        np.testing.assert_allclose(fit.beta, ols, atol=1e-8)

    def test_sphere_recovery_within_3_se(self, rng):
        backend = SphereBackend(d=2)
        n = 200
        pts = [p for p in sphere_points(rng, n)]
        lat = np.array([np.arccos(p[2]) for p in pts])
        beta_true = 2.0
        x = (lat + rng.normal(0, 0.2, n))[:, None]
        g_true = np.sin(2 * lat)
        y = x[:, 0] * beta_true + g_true + rng.normal(0, 0.01, n)
        spec = KernelSpec(bandwidth=0.25)
        fit = fit_plm(y, x, pts, spec, backend)
        resid = (y - fit.phi0[:, 0]) - (x - fit.phi)[:, 0] * fit.beta[0]
        xc = x - fit.phi
        se = np.sqrt(resid @ resid / (n - 1) / (xc[:, 0] @ xc[:, 0]))
        assert abs(fit.beta[0] - beta_true) < 3 * se

    def test_g_identity(self, rng, kendall_backend):
        n = 25
        shapes = [preshape(random_configuration(rng, k=5)).preshape for _ in range(n)]
        x = rng.normal(size=(n, 1))
        y = rng.normal(size=n)
        fit = fit_plm(y, x, shapes, KernelSpec(bandwidth=0.3), kendall_backend)
        np.testing.assert_allclose(
            fit.g, fit.phi0 - (fit.phi @ fit.beta)[:, None], atol=1e-10)

    def test_needs_more_rows_than_columns(self, rng, kendall_backend):
        shapes = identical_shape_sample(rng, 2)
        with pytest.raises(InvalidArgumentError):
            fit_plm(np.zeros(2), np.zeros((2, 2)), shapes,
                    KernelSpec(0.1), kendall_backend)


class TestLogisticPlm:
    def test_degenerate_manifold_matches_newton_mle(self, rng, kendall_backend):
        # moderate effect sizes: the unweighted smoothing of the working
        # response is a (documented) deviation from local scoring, so the
        # agreement with the exact MLE is close but not sharp
        n = 300
        shapes = identical_shape_sample(rng, n)
        x = rng.normal(size=(n, 1))
        p_true = 1 / (1 + np.exp(-(0.2 + 0.6 * x[:, 0])))
        y = (rng.uniform(size=n) < p_true).astype(float)
        fit = fit_logistic_plm(y, x, shapes, KernelSpec(bandwidth=0.5),
                               kendall_backend)
        assert fit.converged
        design = np.hstack([np.ones((n, 1)), x])
        mle = newton_logistic_mle(y, design)
        p_fit = 1 / (1 + np.exp(-fit.fitted_eta(x)[:, 0]))
        p_mle = 1 / (1 + np.exp(-design @ mle))
        assert np.max(np.abs(p_fit - p_mle)) <= 1e-2

    def test_single_update_equals_wls_step(self, rng, kendall_backend):
        # uniform weights and a mean smoother: one sweep is one hand-rolled
        # weighted-least-squares update of the working response
        n = 30
        shapes = identical_shape_sample(rng, n)
        x = rng.normal(size=(n, 2))
        y = (rng.uniform(size=n) < 0.5).astype(float)
        cfg = FitConfig(max_iter=1)
        fit = fit_logistic_plm(y, x, shapes, KernelSpec(bandwidth=0.5),
                               kendall_backend, cfg=cfg)
        eta0 = np.full(n, -0.5)
        p0 = 1 / (1 + np.exp(-eta0))
        z = eta0 + (y - p0) / (p0 * (1 - p0))
        w = p0 * (1 - p0)
        xc = x - x.mean(axis=0)
        expected = np.linalg.solve(
            xc.T @ (w[:, None] * xc) + cfg.ridge * np.eye(2),
            xc.T @ (w * (z - z.mean())))
        np.testing.assert_allclose(fit.beta, expected, atol=1e-10)

    def test_invalid_responses(self, rng, kendall_backend):
        shapes = identical_shape_sample(rng, 10)
        x = rng.normal(size=(10, 1))
        with pytest.raises(InvalidArgumentError):
            fit_logistic_plm(np.full(10, 2.0), x, shapes, KernelSpec(0.1),
                             kendall_backend)
        with pytest.raises(InvalidArgumentError):
            fit_logistic_plm(np.zeros(10), x, shapes, KernelSpec(0.1),
                             kendall_backend)

    def test_e_trace_reproducible(self, macaque_bundle):
        spec = KernelSpec(bandwidth=np.pi / 100)
        kw = dict(cache=macaque_bundle.cache)
        b = macaque_bundle
        f1 = fit_logistic_plm(b.y, b.x, b.shapes, spec, b.backend, **kw)
        f2 = fit_logistic_plm(b.y, b.x, b.shapes, spec, b.backend, **kw)
        assert f1.e_trace == f2.e_trace
        assert np.array_equal(f1.beta, f2.beta)

    def test_subject_order_invariance(self, macaque_bundle, rng):
        b = macaque_bundle
        spec = KernelSpec(bandwidth=np.pi / 50)
        fit = fit_logistic_plm(b.y, b.x, b.shapes, spec, b.backend,
                               cache=b.cache)
        perm = rng.permutation(len(b.ids))
        shapes_p = [b.shapes[i] for i in perm]
        fit_p = fit_logistic_plm(b.y[perm], b.x[perm], shapes_p, spec,
                                 b.backend)
        np.testing.assert_allclose(fit_p.beta, fit.beta, atol=1e-9)
        np.testing.assert_allclose(fit_p.g[:, 0], fit.g[perm, 0], atol=1e-9)

    def test_g_identity_every_iteration(self, macaque_bundle):
        # the identity is enforced at exit; check it on the returned state
        b = macaque_bundle
        fit = fit_logistic_plm(b.y, b.x, b.shapes, KernelSpec(np.pi / 50),
                               b.backend, cache=b.cache)
        np.testing.assert_allclose(
            fit.g, fit.phi0 - (fit.phi @ fit.beta)[:, None], atol=1e-10)


class TestPredictLogistic:
    def test_training_point_consistency(self, macaque_bundle):
        b = macaque_bundle
        spec = KernelSpec(bandwidth=np.pi / 100)
        fit = fit_logistic_plm(b.y, b.x, b.shapes, spec, b.backend,
                               cache=b.cache)
        eta_in = fit.fitted_eta(b.x)[:, 0]
        p_in = 1 / (1 + np.exp(-eta_in))
        for i in (0, 5, 17):
            p = predict_logistic(fit, b.x[i], b.shapes[i], b.shapes, b.x,
                                 spec, b.backend)
            assert p == pytest.approx(p_in[i], abs=1e-8)

    def test_probability_range(self, macaque_bundle, rng):
        b = macaque_bundle
        spec = KernelSpec(bandwidth=np.pi / 25)
        fit = fit_logistic_plm(b.y, b.x, b.shapes, spec, b.backend,
                               cache=b.cache)
        s_new = preshape(random_configuration(rng, k=7)).preshape
        p = predict_logistic(fit, [110.0], s_new, b.shapes, b.x, spec, b.backend)
        assert 0.0 < p < 1.0


class TestOrdinalWorkMatrices:
    def test_equal_thirds(self):
        m = ordinal_work_matrices(1 / 3, 1 / 3, 1 / 3)
        np.testing.assert_allclose(m.W, [[6.0, -3.0], [-3.0, 6.0]], rtol=5e-15)
        np.testing.assert_allclose(m.Dinv, np.diag([2 / 9, 2 / 9]), rtol=5e-15)
        assert not m.clamped

    def test_symmetry_and_positive_determinant(self, rng):
        for _ in range(200):
            raw = rng.uniform(0.05, 1.0, 3)
            p1, p2, p3 = raw / raw.sum()
            m = ordinal_work_matrices(p1, p2, p3)
            assert m.W[0, 1] == m.W[1, 0]
            det = np.linalg.det(m.W)
            expected = (1 / p2 ** 2) * ((1 - p3) * (1 - p1) / (p1 * p3) - 1)
            assert det == pytest.approx(expected, rel=1e-9)
            assert det > 0

    def test_clamping_flagged(self):
        m = ordinal_work_matrices(1e-14, 0.5, 0.5 - 1e-14)
        assert m.clamped

    def test_invalid_sum(self):
        with pytest.raises(InvalidArgumentError):
            ordinal_work_matrices(0.5, 0.5, 0.5)


def make_ordinal_dataset(rng, n=120):
    x = rng.normal(size=(n, 1))
    a = np.array([-1.0, 1.0])
    eta1 = a[0] + 0.8 * x[:, 0]
    eta2 = a[1] + 0.8 * x[:, 0]
    g1 = 1 / (1 + np.exp(-eta1))
    g2 = 1 / (1 + np.exp(-eta2))
    u = rng.uniform(size=n)
    y = np.where(u < g1, 1, np.where(u < g2, 2, 3))
    return y, x


class TestOrdinalPlm:
    def test_rejects_bad_categories(self, rng, kendall_backend):
        shapes = identical_shape_sample(rng, 12)
        x = rng.normal(size=(12, 1))
        with pytest.raises(InvalidArgumentError):
            fit_ordinal_plm(np.array([1, 2, 3, 4] * 3), x, shapes,
                            KernelSpec(0.1), kendall_backend)
        with pytest.raises(InvalidArgumentError):
            fit_ordinal_plm(np.ones(12, dtype=int), x, shapes,
                            KernelSpec(0.1), kendall_backend)

    def test_degenerate_manifold_standard_matches_mle(self, rng, kendall_backend):
        from shapegplm import fit_cumulative_logit

        y, x = make_ordinal_dataset(rng)
        shapes = identical_shape_sample(rng, len(y))
        cfg = FitConfig(irls_variant="standard")
        fit = fit_ordinal_plm(y, x, shapes, KernelSpec(bandwidth=0.4),
                              kendall_backend, cfg=cfg)
        assert fit.converged
        alpha, beta = fit_cumulative_logit(y, x)
        eta_fit = fit.fitted_eta(x)
        gam_fit = 1 / (1 + np.exp(-eta_fit))
        eta_mle = x @ beta
        gam_mle = np.stack([1 / (1 + np.exp(-(alpha[0] + eta_mle))),
                            1 / (1 + np.exp(-(alpha[1] + eta_mle)))], axis=1)
        assert np.max(np.abs(gam_fit - gam_mle)) <= 2e-2

    def test_paper_variant_converges_nearby(self, rng, kendall_backend):
        y, x = make_ordinal_dataset(rng)
        shapes = identical_shape_sample(rng, len(y))
        fit = fit_ordinal_plm(y, x, shapes, KernelSpec(bandwidth=0.4),
                              kendall_backend, cfg=FitConfig(irls_variant="paper"))
        assert fit.converged
        assert fit.e_trace, "iteration trace must be recorded"
        np.testing.assert_allclose(
            fit.g, fit.phi0 - (fit.phi @ fit.beta)[:, None], atol=1e-10)

    def test_prediction_consistency_and_simplex(self, rng):
        backend = SphereBackend(d=2)
        n = 60
        pts = [p for p in sphere_points(rng, n)]
        lat = np.array([np.arccos(p[2]) for p in pts])
        y = np.digitize(lat, np.quantile(lat, [1 / 3, 2 / 3])) + 1
        x = (lat + rng.normal(0, 0.3, n))[:, None]
        spec = KernelSpec(bandwidth=0.4)
        fit = fit_ordinal_plm(y, x, pts, spec, backend)
        eta_in = fit.fitted_eta(x)
        gam_in = 1 / (1 + np.exp(-eta_in))
        probs_in = np.stack([gam_in[:, 0], gam_in[:, 1] - gam_in[:, 0],
                             1 - gam_in[:, 1]], axis=1)
        for i in (0, 17, 59):
            pred = predict_ordinal(fit, x[i], pts[i], pts, x, spec, backend)
            assert pred.probs.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(pred.probs, probs_in[i], atol=1e-8)
            assert not pred.monotone_repaired
