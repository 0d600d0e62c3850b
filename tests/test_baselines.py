import numpy as np
import pytest

from shapegplm import (
    InvalidArgumentError,
    NonConvergenceError,
    OutOfChartError,
    baseline_loocv,
    fit_cumulative_logit,
    geometry,
    predict_cumulative_logit,
    procrustes_distance,
    procrustes_mean,
    tangent_pca,
)
from shapegplm.baselines import _cumlogit_nll_grad_hess
from shapegplm.io import DatasetBundle
from shapegplm.smoothing import SmootherCache

from conftest import random_preshape
from test_reference_geometry import orthogonal_to


@pytest.fixture()
def shape_cloud(rng):
    """A tight cloud of preshapes around one anchor (well inside the chart)."""
    from shapegplm import PreShape

    anchor = random_preshape(rng, k=6)
    shapes = []
    for _ in range(24):
        z = anchor.z + rng.normal(0, 0.05, anchor.z.shape)
        shapes.append(PreShape(z / np.linalg.norm(z)))
    return shapes


class TestTangentPca:
    def test_variance_threshold_and_orthonormality(self, shape_cloud):
        model, scores = tangent_pca(shape_cloud, var_threshold=0.98)
        assert np.cumsum(model.explained_ratio)[model.retained - 1] >= 0.98
        # one fewer component must fall short (minimality)
        if model.retained > 1:
            assert np.cumsum(model.explained_ratio)[model.retained - 2] < 0.98
        q = model.components @ model.components.T
        np.testing.assert_allclose(q, np.eye(q.shape[0]), atol=1e-10)
        assert scores.shape == (24, model.retained)

    def test_full_rank_reconstruction(self, shape_cloud, rng):
        from shapegplm.geometry import tangent_coordinates

        model, _ = tangent_pca(shape_cloud, var_threshold=1.0)
        for s in shape_cloud[:5]:
            v = tangent_coordinates(model.pole, s)
            centered = v - model.center
            back = centered @ model.components.T @ model.components
            np.testing.assert_allclose(back, centered, atol=1e-9)

    def test_score_signs_deterministic(self, shape_cloud):
        m1, s1 = tangent_pca(shape_cloud)
        m2, s2 = tangent_pca(list(shape_cloud))
        np.testing.assert_array_equal(s1, s2)
        for row in m1.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_tangent_norm_preserves_distance_to_pole(self, shape_cloud):
        from shapegplm.geometry import tangent_coordinates

        model, _ = tangent_pca(shape_cloud)
        for s in shape_cloud:
            v = tangent_coordinates(model.pole, s)
            assert np.linalg.norm(v) == pytest.approx(
                procrustes_distance(model.pole, s), abs=1e-8)

    def test_needs_two_shapes(self, rng):
        with pytest.raises(InvalidArgumentError):
            tangent_pca([random_preshape(rng)])


class TestCumulativeLogit:
    def test_intercept_only_matches_empirical(self, rng):
        y = np.array([1] * 30 + [2] * 50 + [3] * 20)
        rng.shuffle(y)
        alpha, beta = fit_cumulative_logit(y, np.zeros((100, 0)))
        emp = np.array([0.3, 0.8])
        np.testing.assert_allclose(alpha, np.log(emp / (1 - emp)), atol=1e-8)
        assert beta.shape == (0,)

    def test_synthetic_recovery_within_3_se(self, rng):
        n = 2000
        x = rng.normal(size=(n, 2))
        alpha_true = np.array([-0.8, 0.9])
        beta_true = np.array([0.7, -0.4])
        eta = x @ beta_true
        u = rng.uniform(size=n)
        g1 = 1 / (1 + np.exp(-(alpha_true[0] + eta)))
        g2 = 1 / (1 + np.exp(-(alpha_true[1] + eta)))
        y = np.where(u < g1, 1, np.where(u < g2, 2, 3))
        alpha, beta, cov = fit_cumulative_logit(y, x, return_cov=True)
        est = np.concatenate([alpha, beta])
        true = np.concatenate([alpha_true, beta_true])
        se = np.sqrt(np.diag(cov))
        assert np.all(np.abs(est - true) < 3 * se)

    def test_gradient_small_and_locally_optimal(self, rng):
        n = 300
        x = rng.normal(size=(n, 1))
        u = rng.uniform(size=n)
        g1 = 1 / (1 + np.exp(-(-0.5 + 0.6 * x[:, 0])))
        g2 = 1 / (1 + np.exp(-(0.7 + 0.6 * x[:, 0])))
        y = np.where(u < g1, 1, np.where(u < g2, 2, 3))
        alpha, beta = fit_cumulative_logit(y, x)
        theta = np.concatenate([alpha, beta])
        nll, grad, _ = _cumlogit_nll_grad_hess(theta, y - 1, x, 3)
        assert np.linalg.norm(grad) < 1e-6 * n
        for _ in range(100):
            cand = theta + rng.normal(0, 0.05, theta.shape)
            if cand[0] >= cand[1]:
                continue
            cand_nll, _, _ = _cumlogit_nll_grad_hess(cand, y - 1, x, 3)
            assert nll <= cand_nll + 1e-9

    def test_alpha_strictly_increasing(self, rng):
        y = np.array([1, 2, 3] * 40)
        x = rng.normal(size=(120, 1))
        alpha, _ = fit_cumulative_logit(y, x)
        assert alpha[0] < alpha[1]

    def test_separation_reported(self):
        y = np.array([1] * 10 + [2] * 10 + [3] * 10)
        x = np.concatenate([np.zeros(10), np.ones(10), 2 * np.ones(10)])[:, None]
        with pytest.raises(NonConvergenceError) as err:
            fit_cumulative_logit(y, 1e3 * x)
        assert err.value.trace

    def test_bad_categories(self, rng):
        with pytest.raises(InvalidArgumentError):
            fit_cumulative_logit(np.array([1, 3, 3, 1]), np.zeros((4, 0)))

    def test_predict_probabilities(self):
        probs = predict_cumulative_logit([-1.0, 1.0], [0.5], [1.0])
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs > 0)


def cloud_bundle(rng, n_subjects=18, k=6):
    """Kendall-shape bundle with ordinal labels driven by a shape direction."""
    from shapegplm import KendallShapeBackend, PreShape

    anchor = random_preshape(rng, k=k)
    direction = rng.normal(size=anchor.z.shape)
    direction -= (direction * anchor.z).sum() * anchor.z
    direction /= np.linalg.norm(direction)
    shapes, amounts = [], []
    for i in range(n_subjects):
        t = (i / (n_subjects - 1) - 0.5) * 0.5
        z = anchor.z + t * direction + rng.normal(0, 0.01, anchor.z.shape)
        shapes.append(PreShape(z / np.linalg.norm(z)))
        amounts.append(t)
    amounts = np.asarray(amounts)
    y = (np.digitize(amounts, np.quantile(amounts, [1 / 3, 2 / 3])) + 1).astype(float)
    # scramble a third of the labels so no fold is perfectly separable
    noisy = rng.choice(n_subjects, size=n_subjects // 3, replace=False)
    y[noisy] = rng.integers(1, 4, size=len(noisy))
    x = (amounts * 2 + rng.normal(0, 0.4, n_subjects))[:, None]
    backend = KendallShapeBackend(k=k, m=3)
    dist, logdens = backend.pairwise_matrices(shapes)
    return DatasetBundle(
        ids=[f"s{i}" for i in range(n_subjects)],
        subjects=[f"s{i}" for i in range(n_subjects)],
        y=y, x=x, covariate_names=("drift",), response_type="ordinal3",
        samples=list(shapes), backend=backend,
        cache=SmootherCache(dist=dist, logdens=logdens),
        content_hash="cloud")


class TestBaselineLoocv:
    def test_shape_outside_a_fold_chart_names_its_row(self, rng):
        # row 5 sits pi/2 from the pole of the fold that holds it out
        bundle = cloud_bundle(rng, k=7)
        others = [s for i, s in enumerate(bundle.samples) if i != 5]
        bundle.samples[5] = orthogonal_to(procrustes_mean(others))
        with pytest.raises(OutOfChartError) as err:
            baseline_loocv(bundle)
        assert err.value.index == 5
        assert str(err.value).startswith("row s5: shape ")

    def test_runs_and_reports(self, rng):
        bundle = cloud_bundle(rng)
        rep = baseline_loocv(bundle, var_threshold=0.98)
        key = rep.bandwidths[0]
        assert 0.0 <= rep.accuracy[key] <= 100.0
        assert rep.n_evaluated[key] == 18 - 3 * 0 - len(rep.skipped_folds[key]) * 1

    def test_fold_pole_differs_from_full_pole(self, rng):
        bundle = cloud_bundle(rng)
        full_pole = procrustes_mean(bundle.shapes)
        fold_pole = procrustes_mean(bundle.shapes[1:])
        assert procrustes_distance(full_pole, fold_pole) > 0.0

    def test_zero_retained_equals_covariates_only(self, rng):
        bundle = cloud_bundle(rng)
        rep = baseline_loocv(bundle, var_threshold=0.0)
        # direct cumulative-logit LOOCV on the scalar covariates alone
        y = bundle.y.astype(int)
        correct = 0
        for i in range(18):
            idx = [j for j in range(18) if j != i]
            alpha, beta = fit_cumulative_logit(y[idx], bundle.x[idx])
            probs = predict_cumulative_logit(alpha, beta, bundle.x[i])
            correct += int(np.argmax(probs)) + 1 == y[i]
        key = rep.bandwidths[0]
        assert rep.n_correct[key] == correct

    def test_labels_need_not_start_at_one(self, rng):
        # the fitter sees categories 1..K; folds are skipped and scored on the
        # labels as given
        bundle = cloud_bundle(rng)
        rep = baseline_loocv(bundle, var_threshold=0.0)
        bundle.y = bundle.y - 1.0
        shifted = baseline_loocv(bundle, var_threshold=0.0)
        key = rep.bandwidths[0]
        assert shifted.n_correct[key] == rep.n_correct[key]
        assert shifted.skipped_folds == rep.skipped_folds
        assert [p.predicted for p in shifted.predictions] == \
            [p.predicted - 1 for p in rep.predictions]

    def test_threaded_folds_match_serial(self, rng, monkeypatch):
        bundle = cloud_bundle(rng)
        serial = baseline_loocv(bundle)
        # stacks of 4 of the 18 folds, so two workers share them
        monkeypatch.setattr(geometry, "MEAN_PAIRS", 4 * 17)
        monkeypatch.setenv("SHAPEGPLM_THREADS", "2")
        threaded = baseline_loocv(bundle)
        assert threaded.skipped_folds == serial.skipped_folds
        assert [(p.row_id, p.predicted, p.probs) for p in threaded.predictions] == \
            [(p.row_id, p.predicted, p.probs) for p in serial.predictions]
