"""Group decompositions of SL(n, R).

Shows the GA x S^1 factorization of an SL(2) matrix, the vector chart of the
Iwasawa decomposition for n = 3, and the product-of-factors coordinate split.
"""
import numpy as np

from slnfib.groups import (
    GAElement,
    factor_split,
    ga_embed,
    iwasawa_recompose,
    iwasawa_sl2,
    iwasawa_sln,
    rotation,
    section,
)
from slnfib.linalg import FMatrix, matrix_exp


def main():
    # an SL(2) element assembled from known factors
    g = ga_embed(GAElement(4.0, 1.0)) @ rotation(0.7)
    b, ang = iwasawa_sl2(g)
    print(f"recovered GA factor: a = {b.a:.6f}, b = {b.b:.6f}")
    print(f"recovered angle:     theta = {ang.theta:.6f}")
    recon = ga_embed(b) @ section(ang)
    print(f"reconstruction error: {recon.dist(g):.2e}")

    # SL(3): orthogonal factor plus a 5-dimensional vector chart
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 3)) * 0.4
    x -= np.eye(3) * np.trace(x) / 3
    g3 = FMatrix(matrix_exp(x))
    f = iwasawa_sln(g3)
    print(f"\nSL(3) chart ({len(f.chart)} coordinates):")
    print("  " + ", ".join(f"{c:+.6f}" for c in f.chart))
    print(f"roundtrip error: {iwasawa_recompose(f).dist(g3):.2e}")

    s = factor_split(3)
    print(f"coordinate split: g1 = {s.g1_coords}, g2 (abelian) = {s.g2_coords}")


if __name__ == "__main__":
    main()
