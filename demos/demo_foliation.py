"""Discrete Lie-foliation data and its structural checks.

Builds the linear R^1 foliation with slope sqrt(2) on a triangulated torus,
then the SL(2)-valued product foliation over a GA suspension, and runs the
flatness, surjectivity, and equivariance checks on both.
"""
import math

from slnfib.foliation import (
    check_equivariance,
    check_mc,
    ga_suspension,
    linear_torus_spec,
    product_foliation,
    project_foliation,
)
from slnfib.groups import GAElement


def main():
    linear = linear_torus_spec(8, [[1.0, math.sqrt(2)]])
    mc = check_mc(linear)
    eq = check_equivariance(linear)
    print("linear foliation, slope sqrt(2):")
    print(f"  flat: {mc.flat}  surjective: {mc.surjective}")
    print(f"  equivariance deviation: {eq.max_deviation:.2e}")

    base = ga_suspension(8, GAElement(2.0, 0.0))
    spec = product_foliation(base)
    mc = check_mc(spec)
    eq = check_equivariance(spec)
    print("\nSL(2) product foliation over a GA suspension (m = 8):")
    print(f"  flat: {mc.flat}  surjective: {mc.surjective}")
    print(f"  max holonomy residual: {mc.max_flatness_residual:.2e}")
    print(f"  equivariance deviation: {eq.max_deviation:.2e}")
    print(f"  cochain/developing consistency: {spec.validate_consistency():.2e}")

    ga_part = project_foliation(spec, 1)
    ab_part = project_foliation(spec, 2)
    print("\nfactor projections:")
    print(f"  factor 1 group: {ga_part.group.tag}, consistency "
          f"{ga_part.validate_consistency():.2e}")
    print(f"  factor 2 group: {ab_part.group.tag}, "
          f"holonomy images {ab_part.holonomy.tolist()}")


if __name__ == "__main__":
    main()
