"""The logistic and ordinal fitters as two separate IRLS loops, kept as the
reference for the shared loop in :mod:`shapegplm.models`.

The arithmetic of each family is unchanged by the sharing, so every iterate,
the final state and the predictions must agree exactly, not to a tolerance.
"""

import numpy as np
import pytest

from shapegplm import FitConfig, KernelSpec
from shapegplm.errors import DivergenceError, InvalidArgumentError
from shapegplm.models import (
    GplmFit,
    OrdinalPrediction,
    _as_design,
    _binary_deviance_mean,
    _expit,
    _ordinal_category_probs,
    _ordinal_deviance_mean,
    _solve,
    fit_logistic_plm,
    fit_ordinal_plm,
    predict_logistic,
    predict_ordinal,
)
from shapegplm.smoothing import (
    SmootherCache,
    apply_weights,
    normalised_weight_matrix,
    smooth_at,
)

from test_acceptance import synthetic_sphere_ordinal


def ref_fit_logistic_plm(y, x, shapes, spec: KernelSpec, backend,
                         cfg: FitConfig | None = None,
                         cache: SmootherCache | None = None) -> GplmFit:
    """Logistic partially linear model by IRLS.

    Per sweep: evaluate fitted probabilities from the current state, build the
    working response ``z = eta + (y - p)/(p(1-p))`` and weights ``p(1-p)``
    (probabilities clamped to ``[prob_floor, 1 - prob_floor]``), smooth ``z``
    unweighted to refresh the nonparametric part, and solve the weighted
    normal equations for the slope. Stops on a relative slope change below
    ``cfg.threshold``, on the separation plateau, or at ``cfg.max_iter``.
    """
    cfg = cfg or FitConfig()
    y = np.asarray(y, dtype=float)
    n = len(shapes)
    if y.shape != (n,):
        raise InvalidArgumentError(f"response must have length {n}, got {y.shape}")
    uniq = np.unique(y)
    if not np.all(np.isin(uniq, (0.0, 1.0))):
        raise InvalidArgumentError(f"logistic response must be 0/1, got values {uniq}")
    if len(uniq) < 2:
        raise InvalidArgumentError("both response classes must be present")
    x = _as_design(x, n)
    p_dim = x.shape[1]
    if n <= p_dim:
        raise InvalidArgumentError("need more observations than covariates")
    if cache is None:
        cache = SmootherCache.from_points(shapes, backend)

    eps = cfg.prob_floor
    spec.check_against(backend)
    w_smooth = normalised_weight_matrix(cache, spec)
    beta = np.zeros(p_dim)
    phi0 = np.full(n, -0.5)
    phi = apply_weights(w_smooth, x)
    xc = x - phi
    z = np.zeros(n)
    e_trace: list[float] = []
    status, iterations = "max_iter", 0

    for it in range(1, cfg.max_iter + 1):
        g = phi0 - phi @ beta
        eta = x @ beta + g
        pr = _expit(eta)
        saturated = bool(np.any(pr == 0.0) or np.any(pr == 1.0))
        if it > 1 and (saturated
                       or _binary_deviance_mean(y, eta) < cfg.separation_deviance):
            status = "separation"
            break
        pc = np.clip(pr, eps, 1.0 - eps)
        z = eta + (y - pc) / (pc * (1.0 - pc))
        w = pc * (1.0 - pc)
        phi0 = apply_weights(w_smooth, z)
        beta_new = _solve(xc.T @ (w[:, None] * xc), xc.T @ (w * (z - phi0)),
                          cfg.ridge)
        e = float(np.linalg.norm(beta_new - beta)
                  / max(np.linalg.norm(beta_new), 1e-300))
        e_trace.append(e)
        beta = beta_new
        iterations = it
        if np.linalg.norm(beta) > cfg.divergence_norm:
            raise DivergenceError(
                f"slope norm exceeded {cfg.divergence_norm:g} at iteration {it}")
        if e < cfg.threshold:
            status = "converged"
            break

    g = phi0 - phi @ beta
    return GplmFit(model="logistic", beta=beta, phi0=phi0[:, None], phi=phi,
                   g=g[:, None], z_final=z[:, None], iterations=iterations,
                   converged=(status == "converged"), status=status,
                   bandwidth=spec.bandwidth, e_trace=e_trace)


def _query_rows(s_new, train_shapes, backend):
    dist = backend.distances_to(s_new, train_shapes)
    return dist, backend.log_density_at(dist)


def ref_predict_logistic(fit: GplmFit, x_new, s_new, train_shapes, train_x,
                         spec: KernelSpec | None = None, backend=None,
                         query_rows=None) -> float:
    """Class-1 probability at a new point.

    The nonparametric part at ``s_new`` is the kernel smooth of the stored
    working targets; the covariate smooth is re-evaluated the same way, so a
    query at a training point with its own covariates reproduces the
    in-sample fitted probability. ``query_rows`` may carry precomputed
    ``(distances, log_densities)`` from ``s_new`` to the training sample,
    e.g. rows sliced from a dataset-wide cache.
    """
    if fit.model != "logistic":
        raise InvalidArgumentError(f"expected a logistic fit, got {fit.model!r}")
    spec = spec or KernelSpec(bandwidth=fit.bandwidth)
    x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
    train_x = _as_design(train_x, len(train_shapes))
    dist, logdens = query_rows if query_rows is not None else _query_rows(
        s_new, train_shapes, backend)
    phi0_new = smooth_at(dist, logdens, fit.z_final[:, 0], spec, query=s_new)
    phi_new = smooth_at(dist, logdens, train_x, spec, query=s_new)
    eta = float(x_new @ fit.beta + phi0_new - phi_new @ fit.beta)
    return float(_expit(np.array([eta]))[0])


def ref_fit_ordinal_plm(y, x, shapes, spec: KernelSpec, backend,
                        cfg: FitConfig | None = None,
                        cache: SmootherCache | None = None) -> GplmFit:
    """Three-category cumulative-logit partially linear model.

    The response is expanded into cumulative indicators ``Y_k = 1{y <= k}``,
    ``k = 1, 2``, sharing one slope across both logits. Each sweep builds a
    two-column working response and per-subject 2x2 weight matrices, smooths
    the working columns unweighted, and solves the stacked weighted normal
    equations for the slope.

    ``cfg.irls_variant`` selects the residual scaling: ``"paper"`` multiplies
    the indicator residuals by ``diag(gam_k (1 - gam_k))`` and weights by the
    inverse indicator covariance alone; ``"standard"`` is the textbook
    multivariate-GLM working response (residuals divided by the link
    derivative, weights sandwiched by it). The two reach different finite
    estimators; only ``"standard"`` matches the plain cumulative-logit
    maximum likelihood fit when the manifold covariate is uninformative.

    Categories other than ``{1, 2, 3}`` are rejected: the closed 2x2 forms
    are specific to three categories and general ``K`` is not implemented.
    """
    cfg = cfg or FitConfig()
    y = np.asarray(y)
    n = len(shapes)
    if y.shape != (n,):
        raise InvalidArgumentError(f"response must have length {n}, got {y.shape}")
    if not np.all(np.isin(y, (1, 2, 3))):
        raise InvalidArgumentError(
            "ordinal response must take values in {1, 2, 3}; general K is unsupported")
    if len(np.unique(y)) < 3:
        raise InvalidArgumentError("all three categories must be present")
    x = _as_design(x, n)
    p_dim = x.shape[1]
    if n <= p_dim:
        raise InvalidArgumentError("need more observations than covariates")
    if cache is None:
        cache = SmootherCache.from_points(shapes, backend)

    eps = cfg.prob_floor
    y_idx = np.asarray(y, dtype=int) - 1
    Y = np.stack([(y <= 1).astype(float), (y <= 2).astype(float)], axis=1)
    cum = np.array([(y <= 1).mean(), (y <= 2).mean()])
    beta = np.zeros(p_dim)
    phi0 = np.tile(np.log(cum / (1.0 - cum)), (n, 1))
    spec.check_against(backend)
    w_smooth = normalised_weight_matrix(cache, spec)
    phi = apply_weights(w_smooth, x)
    xc = x - phi
    z = np.zeros((n, 2))
    e_trace: list[float] = []
    status, iterations = "max_iter", 0

    for it in range(1, cfg.max_iter + 1):
        g = phi0 - (phi @ beta)[:, None]
        eta = (x @ beta)[:, None] + g
        gam = _expit(eta)
        pimat = _ordinal_category_probs(gam)
        saturated = bool(np.any(gam == 0.0) or np.any(gam == 1.0))
        if it > 1 and (saturated
                       or _ordinal_deviance_mean(y_idx, pimat) < cfg.separation_deviance):
            status = "separation"
            break
        picl = np.clip(pimat, eps, 1.0 - eps)
        gamc = np.clip(gam, eps, 1.0 - eps)
        dlink = gamc * (1.0 - gamc)                  # n x 2, gam_k (1 - gam_k)
        resid = Y - gamc
        if cfg.irls_variant == "paper":
            z = eta + dlink * resid
        else:
            z = eta + resid / dlink
        # inverse indicator covariance, elementwise over subjects
        W11 = (1.0 - picl[:, 2]) / (picl[:, 0] * picl[:, 1])
        W12 = -1.0 / picl[:, 1]
        W22 = (1.0 - picl[:, 0]) / (picl[:, 2] * picl[:, 1])
        if cfg.irls_variant == "standard":
            W11 = dlink[:, 0] * W11 * dlink[:, 0]
            W12 = dlink[:, 0] * W12 * dlink[:, 1]
            W22 = dlink[:, 1] * W22 * dlink[:, 1]
        phi0 = apply_weights(w_smooth, z)
        r = z - phi0
        # The stacked design repeats each covariate row across both logits, so
        # the normal equations reduce to scalar weights 1^T W_i 1 per subject.
        wsum = W11 + 2.0 * W12 + W22
        rhs = W11 * r[:, 0] + W12 * (r[:, 0] + r[:, 1]) + W22 * r[:, 1]
        beta_new = _solve((xc * wsum[:, None]).T @ xc, xc.T @ rhs, cfg.ridge)
        e = float(np.linalg.norm(beta_new - beta)
                  / max(np.linalg.norm(beta_new), 1e-300))
        e_trace.append(e)
        beta = beta_new
        iterations = it
        if np.linalg.norm(beta) > cfg.divergence_norm:
            raise DivergenceError(
                f"slope norm exceeded {cfg.divergence_norm:g} at iteration {it}")
        if e < cfg.threshold:
            status = "converged"
            break

    g = phi0 - (phi @ beta)[:, None]
    return GplmFit(model="ordinal", beta=beta, phi0=phi0, phi=phi, g=g,
                   z_final=z, iterations=iterations,
                   converged=(status == "converged"), status=status,
                   bandwidth=spec.bandwidth, e_trace=e_trace)


def ref_predict_ordinal(fit: GplmFit, x_new, s_new, train_shapes, train_x,
                        spec: KernelSpec | None = None, backend=None,
                        query_rows=None) -> OrdinalPrediction:
    """Category probabilities and predicted class at a new point.

    ``query_rows`` works as in :func:`predict_logistic`.
    """
    if fit.model != "ordinal":
        raise InvalidArgumentError(f"expected an ordinal fit, got {fit.model!r}")
    spec = spec or KernelSpec(bandwidth=fit.bandwidth)
    x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
    train_x = _as_design(train_x, len(train_shapes))
    dist, logdens = query_rows if query_rows is not None else _query_rows(
        s_new, train_shapes, backend)
    phi0_new = smooth_at(dist, logdens, fit.z_final, spec, query=s_new)
    phi_new = smooth_at(dist, logdens, train_x, spec, query=s_new)
    eta = float(x_new @ fit.beta - phi_new @ fit.beta) + phi0_new
    gam = _expit(eta)
    repaired = bool(gam[0] > gam[1])
    if repaired:
        gam = np.sort(gam)
    probs = np.array([gam[0], gam[1] - gam[0], 1.0 - gam[1]])
    category = int(np.argmax(probs)) + 1
    return OrdinalPrediction(probs=probs, category=category,
                             monotone_repaired=repaired)


def assert_same_fit(fit, ref):
    assert fit.model == ref.model
    assert fit.status == ref.status
    assert fit.converged == ref.converged
    assert fit.iterations == ref.iterations
    assert np.array_equal(fit.e_trace, ref.e_trace)
    for name in ("beta", "phi0", "phi", "g", "z_final"):
        assert np.array_equal(getattr(fit, name), getattr(ref, name)), name


def held_out_split(n, n_held=3):
    return np.arange(n - n_held), np.arange(n - n_held, n)


@pytest.mark.parametrize("denom", [100, 50, 25, 10])
def test_logistic_matches_reference_on_macaque(macaque_bundle, denom):
    b = macaque_bundle
    spec = KernelSpec(bandwidth=np.pi / denom)
    fit = fit_logistic_plm(b.y, b.x, b.shapes, spec, b.backend, cache=b.cache)
    ref = ref_fit_logistic_plm(b.y, b.x, b.shapes, spec, b.backend, cache=b.cache)
    assert_same_fit(fit, ref)

    # fold-style: fit without the last rows, predict them from cached rows
    # and from freshly measured distances
    train, held = held_out_split(len(b.ids))
    shapes_tr = [b.shapes[i] for i in train]
    cache_tr = SmootherCache(dist=b.cache.dist[np.ix_(train, train)],
                             logdens=b.cache.logdens[np.ix_(train, train)])
    fit = fit_logistic_plm(b.y[train], b.x[train], shapes_tr, spec, b.backend,
                           cache=cache_tr)
    ref = ref_fit_logistic_plm(b.y[train], b.x[train], shapes_tr, spec,
                               b.backend, cache=cache_tr)
    assert_same_fit(fit, ref)
    for i in held:
        rows = (b.cache.dist[i, train], b.cache.logdens[i, train])
        for query_rows in (rows, None):
            p = predict_logistic(fit, b.x[i], b.shapes[i], shapes_tr, b.x[train],
                                 spec, b.backend, query_rows=query_rows)
            p_ref = ref_predict_logistic(ref, b.x[i], b.shapes[i], shapes_tr,
                                         b.x[train], spec, b.backend,
                                         query_rows=query_rows)
            assert p == p_ref


@pytest.mark.parametrize("variant", ["paper", "standard"])
@pytest.mark.parametrize("denom", [20, 80])
def test_ordinal_matches_reference_on_sphere(variant, denom):
    b = synthetic_sphere_ordinal()
    spec = KernelSpec(bandwidth=np.pi / denom)
    cfg = FitConfig(max_iter=300, irls_variant=variant)
    y = b.y.astype(int)
    train, held = held_out_split(len(b.ids))
    shapes_tr = [b.shapes[i] for i in train]
    cache_tr = SmootherCache(dist=b.cache.dist[np.ix_(train, train)],
                             logdens=b.cache.logdens[np.ix_(train, train)])
    for rows, shapes, cache in ((slice(None), b.shapes, b.cache),
                                (train, shapes_tr, cache_tr)):
        fit = fit_ordinal_plm(y[rows], b.x[rows], shapes, spec, b.backend,
                              cfg=cfg, cache=cache)
        ref = ref_fit_ordinal_plm(y[rows], b.x[rows], shapes, spec, b.backend,
                                  cfg=cfg, cache=cache)
        assert_same_fit(fit, ref)
    for i in held:
        got = predict_ordinal(fit, b.x[i], b.shapes[i], shapes_tr, b.x[train],
                              spec, b.backend)
        want = ref_predict_ordinal(ref, b.x[i], b.shapes[i], shapes_tr,
                                   b.x[train], spec, b.backend)
        assert np.array_equal(got.probs, want.probs)
        assert got.category == want.category
        assert got.monotone_repaired == want.monotone_repaired
