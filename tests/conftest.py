import math

import numpy as np
import pytest
import scipy.linalg

from slnfib.complexes import torus_complex
from slnfib.foliation import ga_suspension, product_foliation
from slnfib.groups import GAElement, iwasawa_sln_ank


@pytest.fixture(scope="session")
def t2_8():
    return torus_complex(2, 8)


@pytest.fixture(scope="session")
def product_spec():
    """SL(2) foliation on T^2 from the GA suspension with holonomy (2, 0)."""
    return product_foliation(ga_suspension(8, GAElement(2.0, 0.0)))


def random_sl(n: int, rng, scale: float = 0.4) -> np.ndarray:
    """Well-conditioned random SL(n) sample via exp of a traceless matrix."""
    x = rng.normal(size=(n, n)) * scale
    x -= np.trace(x) / n * np.eye(n)
    return scipy.linalg.expm(x)


def sup(a) -> float:
    """The largest absolute entry of a."""
    return float(np.abs(a).max())


def rotation(theta: float) -> np.ndarray:
    """The rotation matrix [[c, -s], [s, c]] by theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def ga_and_angle(g: np.ndarray):
    """(a, b, theta) with g = GA().matrix((a, b)) @ rotation(theta), theta in
    [0, 2 pi), for every matrix of a (..., 2, 2) stack: the AN-left factors
    of iwasawa_sln_ank, with R = [[sqrt(a), b / sqrt(a)], [0, 1 / sqrt(a)]]
    read off its chart (log sqrt(a), b / a)."""
    k, chart = iwasawa_sln_ank(g)
    a = np.exp(2.0 * chart[..., 0])
    theta = np.arctan2(k[..., 1, 0], k[..., 0, 0]) % (2.0 * math.pi)
    return a, chart[..., 1] * a, theta


def r_from_chart(n: int, chart) -> np.ndarray:
    """The upper-triangular R of an SL(n) vector chart: diagonal exp of the
    n - 1 log coordinates and the reciprocal of their product, then the
    strictly-upper entries, row-major, each its coordinate times its row
    diagonal."""
    diag = [math.exp(x) for x in chart[: n - 1]]
    diag.append(1.0 / math.prod(diag))
    r = np.diag(diag)
    i, j = np.triu_indices(n, 1)
    r[i, j] = np.asarray(chart[n - 1:]) * np.array(diag)[i]
    return r


def triangles_of_edge(complex, edge: int) -> list:
    """The triangles that have the edge with index edge on their boundary."""
    return np.flatnonzero((complex.triangle_edges == edge).any(axis=1)).tolist()


def bumped(cochain: np.ndarray, edge: int, bump) -> np.ndarray:
    """A copy of the edge array cochain with bump added to its value on the
    edge with index edge, in that edge's stored orientation."""
    values = cochain.copy()
    values[edge] += bump
    return values


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
