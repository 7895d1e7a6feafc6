"""Group decompositions of SL(n, R).

Shows the GA x S^1 factorization of an SL(2) matrix (the AN-left
decomposition g = R . K), the vector chart of the Iwasawa decomposition
g = K . R for n = 3, and its split into a leading block and the R^2
factor, the last two coordinates.
"""
import math

import numpy as np

from slnfib.groups import GA, iwasawa_sln, iwasawa_sln_ank
from slnfib.linalg import matrix_exp


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def r_from_chart(n, chart):
    """The triangular factor R of an SL(n) vector chart."""
    diag = np.exp(chart[: n - 1])
    diag = np.append(diag, 1.0 / np.prod(diag))
    r = np.diag(diag)
    i, j = np.triu_indices(n, 1)
    r[i, j] = chart[n - 1:] * diag[i]
    return r


def main():
    # an SL(2) element assembled from known factors: GA row (4, 1), angle 0.7
    g = GA().matrix(np.array([4.0, 1.0])) @ rotation(0.7)
    k, chart = iwasawa_sln_ank(g)
    a = math.exp(2.0 * chart[0])
    b, theta = chart[1] * a, math.atan2(k[1, 0], k[0, 0]) % (2.0 * math.pi)
    print(f"recovered GA factor: a = {a:.6f}, b = {b:.6f}")
    print(f"recovered angle:     theta = {theta:.6f}")
    recon = GA().matrix(np.array([a, b])) @ rotation(theta)
    print(f"reconstruction error: {np.abs(recon - g).max():.2e}")

    # SL(3): orthogonal factor plus a 5-dimensional vector chart
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 3)) * 0.4
    x -= np.eye(3) * np.trace(x) / 3
    g3 = matrix_exp(x)
    k, chart = iwasawa_sln(g3)
    print(f"\nSL(3) chart ({len(chart)} coordinates):")
    print("  " + ", ".join(f"{c:+.6f}" for c in chart))
    print(f"roundtrip error: {np.abs(k @ r_from_chart(3, chart) - g3).max():.2e}")

    length = len(chart)
    g1, g2 = tuple(range(length - 2)), (length - 2, length - 1)
    print(f"coordinate split: g1 = {g1}, g2 (abelian R^2) = {g2}")


if __name__ == "__main__":
    main()
