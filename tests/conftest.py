import os
from pathlib import Path

import numpy as np
import pytest

from shapegplm import PreShape, ingest, preshape

REPO_ROOT = Path(__file__).resolve().parent.parent
MACAQUE_MANIFEST = REPO_ROOT / "data" / "macaque" / "manifest.csv"


def assert_no_child_left():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def random_configuration(rng, k=7, m=3, scale=1.0):
    return rng.normal(0.0, scale, (k, m))


def random_preshape(rng, k=7, m=3) -> PreShape:
    return preshape(random_configuration(rng, k, m)).preshape


def random_rotation(rng, m=3):
    """Haar-ish rotation from the QR of a Gaussian matrix, det +1."""
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def sphere_points(rng, n, d=2):
    v = rng.normal(size=(n, d + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.fixture(scope="session")
def macaque_bundle(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("macaque-cache")
    return ingest(MACAQUE_MANIFEST, cache_dir=cache_dir)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
