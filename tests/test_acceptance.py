"""Acceptance suite: every release criterion, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line per
criterion. Numbered expected values for the crania study are frozen from the
published tables; everything else is checked against independent oracles
computed here.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from shapegplm import (
    FitConfig,
    KernelSpec,
    SmootherCache,
    SphereBackend,
    bandwidth_sweep,
    density_exponent,
    fit_cumulative_logit,
    fit_logistic_plm,
    fit_ordinal_plm,
    ingest,
    log_density_from_distance,
    ordinal_work_matrices,
    preshape,
    procrustes_distance,
    smooth_all,
)
from shapegplm.geometry import MATRIX_BUILD_COUNTS
from shapegplm.io import DatasetBundle, RunConfig, write_fit_report

from conftest import MACAQUE_MANIFEST, random_configuration, random_rotation, sphere_points

ARTIFACTS = Path(__file__).resolve().parent / "_artifacts"

# Published per-specimen values of the nonparametric part at h = pi/100,
# ordered m1..m9 then f1..f9.
CRANIA_G_TABLE = np.array([
    655.1, 616.4, 638.8, 682.5, 675.9, 675.4, 635.3, 659.3, 647.4,
    619.8, 565.5, 628.2, 647.3, 603.0, 620.6, 601.1, 619.3, 632.8,
])


def report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def macaque(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("acceptance-cache")
    return ingest(MACAQUE_MANIFEST, cache_dir=cache_dir)


def synthetic_sphere_ordinal(n=90, seed=7):
    """Balanced three-class dataset on S^2, classes ordered by latitude,
    one Euclidean covariate correlated with latitude."""
    rng = np.random.default_rng(seed)
    m = n // 3
    lats = np.concatenate([
        rng.uniform(0.15, 0.55, m),
        rng.uniform(0.75, 1.15, m),
        rng.uniform(1.35, 1.75, m),
    ])
    lons = rng.uniform(0, 2 * np.pi, n)
    pts = np.stack([np.sin(lats) * np.cos(lons),
                    np.sin(lats) * np.sin(lons),
                    np.cos(lats)], axis=1)
    y = np.repeat([1.0, 2.0, 3.0], m)
    x = (lats + rng.normal(0, 0.35, n))[:, None]
    perm = rng.permutation(n)
    pts, y, x = pts[perm], y[perm], x[perm]
    backend = SphereBackend(d=2)
    points = [p for p in pts]
    dist, logdens = backend.pairwise_matrices(points)
    return DatasetBundle(
        ids=[f"c{i}" for i in range(n)], subjects=[f"c{i}" for i in range(n)],
        y=y, x=x, covariate_names=("latitude_proxy",),
        response_type="ordinal3", samples=points, backend=backend,
        cache=SmootherCache(dist=dist, logdens=logdens),
        content_hash=f"sphere-ordinal-{seed}")


def test_criterion_1_crania_cv_table(macaque):
    grid = [np.pi / 100, np.pi / 50, np.pi / 25, np.pi / 10]
    start = time.perf_counter()
    rep = bandwidth_sweep(macaque, "logistic", grid)
    elapsed = time.perf_counter() - start

    h100 = np.pi / 100
    assert rep.n_evaluated[h100] == 18
    assert rep.n_correct[h100] == 18, \
        f"expected 18/18 at pi/100, got {rep.n_correct[h100]}"
    assert rep.accuracy[h100] == 100.0
    for h in (np.pi / 50, np.pi / 25, np.pi / 10):
        assert rep.n_correct[h] == 16, \
            f"expected 16/18 at h={h:.5f}, got {rep.n_correct[h]}"
        assert rep.accuracy[h] == pytest.approx(100 * 16 / 18, abs=5e-3)
    assert elapsed < 10.0, f"CV table took {elapsed:.2f}s, budget is 10s"
    report("criterion 1",
           f"crania CV accuracies 100%/88.89%/88.89%/88.89% in {elapsed:.2f}s")


def test_criterion_2_crania_full_fit(macaque, tmp_path):
    spec = KernelSpec(bandwidth=np.pi / 100)
    cfg = FitConfig(threshold=2e-4)
    fit = fit_logistic_plm(macaque.y, macaque.x, macaque.shapes, spec,
                           macaque.backend, cfg=cfg, cache=macaque.cache)
    try:
        assert fit.beta[0] == pytest.approx(-6.02, abs=0.05), \
            f"slope {fit.beta[0]:.4f} outside -6.02 +/- 0.05"
        assert 4 <= fit.iterations <= 10, f"iterations {fit.iterations}"
        rel = np.abs(fit.g[:, 0] - CRANIA_G_TABLE) / np.abs(CRANIA_G_TABLE)
        assert rel.max() <= 0.01, \
            f"worst g mismatch {rel.max():.4%} at {macaque.ids[int(rel.argmax())]}"
    except AssertionError:
        ARTIFACTS.mkdir(exist_ok=True)
        run = RunConfig(command="acceptance", model="logistic",
                        bandwidth=spec.bandwidth, grid=(), threshold=cfg.threshold,
                        max_iter=cfg.max_iter, ridge=cfg.ridge,
                        prob_floor=cfg.prob_floor,
                        separation_deviance=cfg.separation_deviance,
                        irls_variant=cfg.irls_variant, var_threshold=0.98,
                        use_disk_cache=False, manifest=str(MACAQUE_MANIFEST),
                        output_dir=str(ARTIFACTS))
        path = ARTIFACTS / "criterion2_fit_report.txt"
        write_fit_report(path, fit, macaque, run)
        print(f"[FAIL] criterion 2: diagnostic fit report written to {path}")
        raise
    report("criterion 2",
           f"slope {fit.beta[0]:.4f}, {fit.iterations} iterations, "
           f"worst g deviation {rel.max():.3%}")


def test_criterion_3_synthetic_ordinal_pipeline():
    bundle = synthetic_sphere_ordinal()
    grid = [np.pi / 20, np.pi / 40, np.pi / 80]
    cfg = FitConfig(max_iter=300)
    rep1 = bandwidth_sweep(bundle, "ordinal", grid, cfg=cfg)
    rep2 = bandwidth_sweep(bundle, "ordinal", grid, cfg=cfg)
    for h in grid:
        assert rep1.accuracy[h] >= 66.0, \
            f"accuracy {rep1.accuracy[h]:.2f}% at h={h:.5f} below 66%"
        assert rep1.accuracy[h] == rep2.accuracy[h], "rerun drifted"
    assert [p.predicted for p in rep1.predictions] == \
        [p.predicted for p in rep2.predictions]
    accs = ", ".join(f"{rep1.accuracy[h]:.2f}%" for h in sorted(grid))
    report("criterion 3", f"ordinal LOOCV accuracies ({accs}) >= 66%, "
                          "identical across reruns")


def test_criterion_4_geometry_property_suite():
    rng = np.random.default_rng(424242)
    # similarity invariance, symmetry, range
    worst_inv, worst_sym = 0.0, 0.0
    for _ in range(120):
        k = int(rng.integers(3, 9))
        x = random_configuration(rng, k=k)
        R = random_rotation(rng)
        a = float(rng.uniform(0.5, 2.5))
        t = rng.normal(size=3)
        s1 = preshape(x).preshape
        s2 = preshape(a * x @ R + t).preshape
        worst_inv = max(worst_inv, procrustes_distance(s1, s2))
        u = preshape(random_configuration(rng, k=k)).preshape
        v = preshape(random_configuration(rng, k=k)).preshape
        d_uv, d_vu = procrustes_distance(u, v), procrustes_distance(v, u)
        worst_sym = max(worst_sym, abs(d_uv - d_vu))
        assert 0.0 <= d_uv <= np.pi / 2
    assert worst_inv <= 1e-9, f"similarity invariance broke: {worst_inv:.2e}"
    assert worst_sym <= 1e-12, f"symmetry broke: {worst_sym:.2e}"

    # brute-force rotation-search agreement
    from scipy.optimize import minimize

    def euler(angles):
        ca, cb, cc = np.cos(angles)
        sa, sb, sc = np.sin(angles)
        rz1 = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
        ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
        rz2 = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
        return rz1 @ ry @ rz2

    grid_a = np.linspace(0, 2 * np.pi, 13)[:-1]
    grid_b = np.linspace(0, np.pi, 7)
    worst_oracle = 0.0
    for _ in range(100):
        k = int(rng.integers(3, 9))
        z1 = preshape(random_configuration(rng, k=k)).preshape
        z2 = preshape(random_configuration(rng, k=k)).preshape
        M = z2.z.T @ z1.z

        def neg_inner(angles):
            return -np.trace(euler(angles).T @ M)

        best = min(((neg_inner((a, b, c)), (a, b, c))
                    for a in grid_a for b in grid_b for c in grid_a),
                   key=lambda t: t[0])
        res = minimize(neg_inner, best[1], method="Nelder-Mead",
                       options=dict(xatol=1e-12, fatol=1e-14, maxiter=4000))
        oracle = np.arccos(min(max(-res.fun, -1.0), 1.0))
        worst_oracle = max(worst_oracle,
                           abs(procrustes_distance(z1, z2) - oracle))
    assert worst_oracle <= 1e-6, f"rotation-search gap {worst_oracle:.2e}"

    # density bounds and exponents
    assert density_exponent(7, 3) == 13
    assert density_exponent(1423, 3) == 4261
    rho = rng.uniform(1e-6, np.pi / 2, 100)
    theta = np.exp(log_density_from_distance(rho, 7, 3))
    assert np.all(theta > 0.0) and np.all(theta <= 1.0)
    assert log_density_from_distance(0.0, 7, 3) == 0.0
    report("criterion 4",
           f"120 invariance cases (worst {worst_inv:.1e}), 120 symmetry cases "
           f"(worst {worst_sym:.1e}), 100 rotation-search cases "
           f"(worst {worst_oracle:.1e}), density bounds and exponents 13/4261")


def test_criterion_5_smoother_suite():
    rng = np.random.default_rng(7117)
    backend = SphereBackend(d=2)
    pts = [p for p in sphere_points(rng, 25)]
    cache = SmootherCache.from_points(pts, backend)
    spec = KernelSpec(bandwidth=0.3)

    const = np.full((25, 2), 2.125)
    got = smooth_all(pts, const, spec, backend, cache)
    assert np.all(got == 2.125), "constant preservation must be exact"

    u, v = rng.normal(size=25), rng.normal(size=25)
    lin_gap = np.max(np.abs(
        smooth_all(pts, 1.3 * u - 0.4 * v, spec, backend, cache)
        - (1.3 * smooth_all(pts, u, spec, backend, cache)
           - 0.4 * smooth_all(pts, v, spec, backend, cache))))
    assert lin_gap <= 1e-10, f"linearity gap {lin_gap:.2e}"

    targets = rng.normal(size=(25, 3)) * 50
    sm = smooth_all(pts, targets, spec, backend, cache)
    pad = 1e-9 * np.abs(targets).max()
    assert np.all(sm >= targets.min(axis=0) - pad)
    assert np.all(sm <= targets.max(axis=0) + pad)

    worst = 0.0
    for i in range(25):
        d = np.array([backend.distance(pts[i], q) for q in pts])
        w = np.exp(-d ** 2 / (2 * spec.bandwidth ** 2) - backend.log_density_at(d))
        direct = (w[:, None] * targets).sum(axis=0) / w.sum()
        worst = max(worst, np.max(np.abs(sm[i] - direct)))
    assert worst <= 1e-10, f"direct-formula gap {worst:.2e}"
    report("criterion 5",
           f"constant exact, linearity {lin_gap:.1e}, hull bound, "
           f"direct-formula agreement {worst:.1e}")


def test_criterion_6_oracle_equivalences():
    from shapegplm import KendallShapeBackend
    from test_models import newton_logistic_mle

    rng = np.random.default_rng(5150)
    anchor = preshape(random_configuration(rng, k=5)).preshape
    backend = KendallShapeBackend(k=5, m=3)

    n = 300
    shapes = [anchor] * n
    x = rng.normal(size=(n, 1))
    p_true = 1 / (1 + np.exp(-(0.2 + 0.6 * x[:, 0])))
    y = (rng.uniform(size=n) < p_true).astype(float)
    fit = fit_logistic_plm(y, x, shapes, KernelSpec(0.5), backend)
    design = np.hstack([np.ones((n, 1)), x])
    mle = newton_logistic_mle(y, design)
    gap_logit = np.max(np.abs(
        1 / (1 + np.exp(-fit.fitted_eta(x)[:, 0]))
        - 1 / (1 + np.exp(-design @ mle))))
    assert gap_logit <= 1e-2, f"logistic oracle gap {gap_logit:.4f}"

    u = rng.uniform(size=n)
    g1 = 1 / (1 + np.exp(-(-1.0 + 0.8 * x[:, 0])))
    g2 = 1 / (1 + np.exp(-(1.0 + 0.8 * x[:, 0])))
    y3 = np.where(u < g1, 1, np.where(u < g2, 2, 3))
    ofit = fit_ordinal_plm(y3, x, shapes, KernelSpec(0.5), backend,
                           cfg=FitConfig(irls_variant="standard"))
    alpha, beta = fit_cumulative_logit(y3, x)
    eta_mle = x @ beta
    gam_mle = np.stack([1 / (1 + np.exp(-(alpha[0] + eta_mle))),
                        1 / (1 + np.exp(-(alpha[1] + eta_mle)))], axis=1)
    gam_fit = 1 / (1 + np.exp(-ofit.fitted_eta(x)))
    gap_ord = np.max(np.abs(gam_fit - gam_mle))
    assert gap_ord <= 2e-2, f"ordinal oracle gap {gap_ord:.4f}"

    m = ordinal_work_matrices(1 / 3, 1 / 3, 1 / 3)
    np.testing.assert_allclose(m.W, [[6.0, -3.0], [-3.0, 6.0]], rtol=5e-15)
    np.testing.assert_allclose(m.Dinv, np.diag([2 / 9, 2 / 9]), rtol=5e-15)
    report("criterion 6",
           f"logistic oracle gap {gap_logit:.4f} <= 1e-2, ordinal oracle gap "
           f"{gap_ord:.4f} <= 2e-2, closed-form matrices at equal thirds")


def test_criterion_7_cache_performance(tmp_path):
    bundle = ingest(MACAQUE_MANIFEST, use_disk_cache=False)
    assert MATRIX_BUILD_COUNTS.get(bundle.content_hash, 0) >= 1
    builds_before = MATRIX_BUILD_COUNTS[bundle.content_hash]

    grid = [np.pi / 100, np.pi / 50, np.pi / 25, np.pi / 10]
    bandwidth_sweep(bundle, "logistic", grid, use_cache=True)  # warm-up

    # the best of several sweeps each, interleaved, so that a burst of host
    # load slows sweeps of both kinds rather than every cached one
    best, reports = {True: np.inf, False: np.inf}, {}
    for _ in range(8):
        for use_cache in (True, False):
            start = time.perf_counter()
            reports[use_cache] = bandwidth_sweep(bundle, "logistic", grid,
                                                 use_cache=use_cache)
            best[use_cache] = min(best[use_cache], time.perf_counter() - start)
    t_cached, rep_cached = best[True], reports[True]
    t_uncached, rep_uncached = best[False], reports[False]

    for h in grid:
        assert rep_cached.accuracy[h] == rep_uncached.accuracy[h]
    assert MATRIX_BUILD_COUNTS[bundle.content_hash] == builds_before, \
        "the dataset distance matrix must be computed exactly once per process"
    speedup = t_uncached / t_cached
    assert speedup >= 3.0, f"cached sweep only {speedup:.2f}x faster"
    report("criterion 7",
           f"cached sweep {speedup:.1f}x faster ({t_cached:.2f}s vs "
           f"{t_uncached:.2f}s); dataset matrix built once")
