"""From a closed 1-cochain to an explicit circle fibration.

First the classical example by hand: dx + sqrt(2) dy on a triangulated
2-torus, rationalized at budget 0.01, integrated to a circle map, with a
fiber census.  Then the end-to-end pipeline on the SL(2) product foliation.
"""
import json
import math

from slnfib.complexes import coordinate_cochain, torus_complex
from slnfib.foliation import ga_suspension, product_foliation
from slnfib.groups import GAElement
from slnfib.tischler import RationalizeConfig, pipeline_sln, tischler_fibration


def main():
    k = torus_complex(2, 16)
    w = coordinate_cochain(k, 0).scale(1.0) + coordinate_cochain(k, 1).scale(
        math.sqrt(2)
    )
    cfg = RationalizeConfig(epsilon=0.01)
    cm, rz, sub, censuses = tischler_fibration(w, cfg)
    print("dx + sqrt(2) dy on T^2 (m = 16), epsilon = 0.01:")
    print(f"  rational periods: {[str(r) for r in rz.periods]}")
    print(f"  common denominator q = {rz.q}")
    print(f"  sup-norm perturbation: {rz.sup_change:.2e}")
    print(f"  integer pullback periods: {cm.periods}")
    print(f"  submersion: {'pass' if sub.passed() else 'FAIL'}")
    print(f"  fiber components at the 10 census levels: "
          f"{[c.component_count for c in censuses]}")

    spec = product_foliation(ga_suspension(8, GAElement(2.0, 0.0)))
    report = pipeline_sln(spec, cfg)
    print("\nfull pipeline on the SL(2) product foliation:")
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
