"""slnfib: from SL(n, R) Lie-foliation data to explicit circle fibrations.

Layers, bottom to top:

* linalg    - exact-rational and float dense matrix kernel
* algebra   - sl(n, R) basis, brackets, structure table
* groups    - GA, SL(2) = GA x S^1, SL(n) = SO(n) x R^{n(n+1)/2-1}
              and the target-group types GA, SL(n), R^k
* complexes - triangulated tori, scalar/Lie 1-cochains, flatness
* foliation - foliated cocycles, Maurer-Cartan and equivariance checks
* tischler  - rational-period perturbation and circle-map integration
"""

__version__ = "0.1.0"
