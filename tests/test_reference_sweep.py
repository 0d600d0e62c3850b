"""Bit-identity pins for the IRLS sweep's elementwise helpers.

The sweep's helpers were rewritten with fewer numpy calls: a branch-free
``_expit``, ``np.minimum(np.maximum(...))`` for ``np.clip``,
``np.add.reduce(...) / n`` for ``.mean`` (over an n-major copy for stacked
targets of several columns), a flat gather for the ordinal deviance and an
elementwise product for a one-covariate ``x @ b``. The reference forms they
replace are kept here verbatim, and every output must match them bit for bit,
signs of zeros and NaNs included, on the values where floating point is least
forgiving: signed zeros, infinities, NaNs, the edges of ``exp``'s range and
subnormals.

The sweep holds its working quantities logit-major, ``(L, G, n)``, where the
reference forms take ``(G, n, L)``: the pins hand the helpers transposed
copies of the same inputs and transpose their outputs back.
"""

import numpy as np
import pytest

from shapegplm.models import (
    FitConfig,
    _binary_deviance_mean,
    _expit,
    _logistic,
    _ordinal,
    _ordinal_category_probs,
    _ordinal_deviance_mean,
    _solve,
    _times,
)
from shapegplm.smoothing import _weighted_average


# --- reference forms --------------------------------------------------------

def ref_expit(eta):
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def ref_softplus(u):
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def ref_binary_deviance_mean(y, eta):
    sign = np.where(y > 0.5, 1.0, -1.0)
    return np.mean(ref_softplus(-sign * eta), axis=-1)


def ref_ordinal_deviance_mean(y_idx, pimat):
    pobs = pimat.reshape(-1, 3)[np.arange(y_idx.size), y_idx.ravel()]
    pobs = pobs.reshape(y_idx.shape)
    return -np.mean(np.log(np.clip(pobs, 1e-300, None)), axis=-1)


def ref_weighted_average(w, targets):
    tbar = targets.mean(axis=-2, keepdims=True)
    out = tbar + w @ (targets - tbar)
    return out[0] if w.ndim == 1 else out


def ref_solve(A, b, ridge):
    A = A + ridge * np.eye(A.shape[-1])
    if (A[..., 0, 0] == 0.0).any():
        raise AssertionError("singular")
    return b / A[..., 0]


def ref_logistic_step(y, eps, eta, pr):
    pc = np.clip(pr, eps, 1.0 - eps)
    w = pc * (1.0 - pc)
    return (ref_binary_deviance_mean(y, eta[..., 0]),
            eta + (y[..., None] - pc) / w, (w[..., 0],))


def ref_logistic_normal(xc, weights, r):
    w, = weights
    xt = xc.swapaxes(-1, -2)
    return xt @ (w[..., None] * xc), (xt @ (w * r[..., 0])[..., None])[..., 0]


def ref_ordinal_step(Y, y_idx, eps, variant, eta, gam):
    pimat = _ordinal_category_probs(gam)
    picl = np.clip(pimat, eps, 1.0 - eps)
    gamc = np.clip(gam, eps, 1.0 - eps)
    dlink = gamc * (1.0 - gamc)
    resid = Y - gamc
    W11 = (1.0 - picl[..., 2]) / (picl[..., 0] * picl[..., 1])
    W12 = -1.0 / picl[..., 1]
    W22 = (1.0 - picl[..., 0]) / (picl[..., 2] * picl[..., 1])
    if variant == "paper":
        z = eta + dlink * resid
    else:
        z = eta + resid / dlink
        W11 = dlink[..., 0] * W11 * dlink[..., 0]
        W12 = dlink[..., 0] * W12 * dlink[..., 1]
        W22 = dlink[..., 1] * W22 * dlink[..., 1]
    return ref_ordinal_deviance_mean(y_idx, pimat), z, (W11, W12, W22)


# --- inputs -----------------------------------------------------------------

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                    709.0, -709.0, 745.0, -745.0, 710.0, -710.0,
                    5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
                    36.0, -36.0, 37.0, -37.0, 1e-17, -1e-17])
N = 40
SHAPES = [(1, N, 1), (3, N, 2), (45, 88, 2)]


def filled(shape, seed):
    """An array of ``shape`` holding every special value (as far as it fits)
    among random normals of several scales, in random positions."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    pool = np.concatenate([SPECIAL, rng.standard_normal(size)
                           * 10.0 ** rng.integers(-3, 4, size)])[:size]
    return rng.permutation(pool).reshape(shape)


def logit_major(a):
    """A ``(G, n, L)`` array as the sweep holds it, ``(L, G, n)``."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def problem_major(a):
    """An ``(L, G, n)`` array of the sweep as ``(G, n, L)``."""
    return np.moveaxis(a, 0, -1)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def labels(shape, classes, seed):
    """Per-problem labels covering every class."""
    rng = np.random.default_rng(seed)
    y = np.resize(np.asarray(classes, dtype=float), shape[:2]).copy()
    for row in y:
        rng.shuffle(row)
    return y


# --- pins -------------------------------------------------------------------

@pytest.mark.parametrize("shape", SHAPES)
def test_expit(shape):
    eta = filled(shape, 1)
    with np.errstate(all="ignore"):
        assert_same_bits(_expit(eta), ref_expit(eta))
    assert_same_bits(_expit(SPECIAL), ref_expit(SPECIAL))


@pytest.mark.parametrize("shape", SHAPES)
def test_weighted_average(shape):
    G, n, _ = shape
    rng = np.random.default_rng(2)
    w = rng.random((G, n, n))
    w /= w.sum(axis=-1, keepdims=True)
    for t in (filled(shape, 3), rng.standard_normal(shape) * 1e3):
        with np.errstate(all="ignore"):
            assert_same_bits(_weighted_average(w, t), ref_weighted_average(w, t))
            assert_same_bits(problem_major(_weighted_average(w, logit_major(t), True)),
                             ref_weighted_average(w, t))
    # numpy sums over n pairwise when n is the contiguous axis
    t = np.asfortranarray(rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape))
    assert_same_bits(_weighted_average(w, t), ref_weighted_average(w, t))
    t = filled((n, 2), 4)
    with np.errstate(all="ignore"):
        assert_same_bits(_weighted_average(w[0], t), ref_weighted_average(w[0], t))
        assert_same_bits(_weighted_average(w[0, 0], t),
                         ref_weighted_average(w[0, 0], t))


@pytest.mark.parametrize("shape", SHAPES)
def test_logistic_step_and_normal(shape):
    G, n, _ = shape
    eta = filled((G, n, 1), 5)
    y = labels(shape, (0.0, 1.0), 6)
    cfg = FitConfig()
    _, data, step, normal = _logistic(y, cfg)
    xc = filled((G, n, 2), 7)
    with np.errstate(all="ignore"):
        pr = _expit(eta)
        dev, z, weights = step(data, logit_major(eta), logit_major(pr))
        rdev, rz, rweights = ref_logistic_step(y, cfg.prob_floor, eta, pr)
        assert_same_bits(dev, rdev)
        assert_same_bits(problem_major(z), rz)
        assert_same_bits(weights[0][0], rweights[0])
        r = filled((G, n, 1), 8)
        for got, want in zip(normal(xc, weights, logit_major(r)),
                             ref_logistic_normal(xc, rweights, r)):
            assert_same_bits(got, want)
        assert_same_bits(_binary_deviance_mean(y[0], eta[0, :, 0]),
                         ref_binary_deviance_mean(y[0], eta[0, :, 0]))


@pytest.mark.parametrize("variant", ["paper", "standard"])
@pytest.mark.parametrize("shape", SHAPES)
def test_ordinal_step(shape, variant):
    G, n, _ = shape
    eta = filled((G, n, 2), 9)
    y = labels(shape, (1.0, 2.0, 3.0), 10)
    cfg = FitConfig(irls_variant=variant)
    _, (Y, y_idx), step, _ = _ordinal(y, cfg)
    with np.errstate(all="ignore"):
        gam = _expit(eta)
        got = step((Y, y_idx), logit_major(eta), logit_major(gam))
        want = ref_ordinal_step(problem_major(Y), y_idx, cfg.prob_floor, variant, eta, gam)
        assert_same_bits(got[0], want[0])
        assert_same_bits(problem_major(got[1]), want[1])
        for a, b in zip(got[2], want[2]):
            assert_same_bits(a, b)
        pimat = _ordinal_category_probs(gam[0])
        assert_same_bits(_ordinal_deviance_mean(y_idx[0], pimat),
                         ref_ordinal_deviance_mean(y_idx[0], pimat))


@pytest.mark.parametrize("shape", [(1, 1), (1, 1, 1), (3, 1, 1)])
def test_one_covariate_solve(shape):
    rng = np.random.default_rng(11)
    A = rng.random(shape) * 10.0 ** rng.integers(-200, 200, shape)
    b = rng.standard_normal(shape[:-1]) * 10.0 ** rng.integers(-100, 100, shape[:-1])
    for ridge in (0.0, 1e-8):
        assert_same_bits(_solve(A, b, ridge), ref_solve(A, b, ridge))


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, N, 1), (45, 88, 1)])
def test_one_covariate_product(shape):
    # finite values: a one-term matmul adds the product to +0, which turns a
    # -0 product into +0 as the added 0.0 does
    finite = SPECIAL[np.isfinite(SPECIAL) & (np.abs(SPECIAL) < 1e300)]
    rng = np.random.default_rng(12)
    G, n, _ = shape
    pool = np.concatenate([finite, rng.standard_normal(G * n)
                           * 10.0 ** rng.integers(-150, 150, G * n)])
    x = rng.choice(pool, shape)
    x.flat[:len(finite)] = finite[:x.size]
    for b in (np.resize(rng.permutation(finite), (G, 1, 1)), rng.choice(pool, (G, 1, 1))):
        assert_same_bits(_times(x, b), x @ b)
    b = rng.standard_normal((G, 2, 1))
    x2 = rng.choice(pool, (G, n, 2))
    assert_same_bits(_times(x2, b), x2 @ b)
