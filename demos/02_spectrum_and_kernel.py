"""Nondegeneracy at the discrete level.

The linearized curvature operator at an exact sphere has a nine-dimensional
kernel: six reparametrization directions and three translation-induced
normal modes.  This script prints the normal-perturbation spectrum (zero,
then a triple eigenvalue at 2k, then a gap) with each eigenvalue's
azimuthal order, and the singular-value profile of the full operator
showing the 9/10 jump.
"""

import numpy as np

from cmc_hyp import (HyperbolicPoint, assemble_linearized, build_grid,
                     kernel, make_params, spectrum_normal)

k = 2.0
grid = build_grid(24)
params = make_params(k)

print(f"== normal spectrum at k = {k} ==")
rep = spectrum_normal(params, grid, count=8)
for lam, res, m in zip(rep.eigenvalues, rep.residuals, rep.orders):
    print(f"  lambda = {lam:12.8f}   residual {res:.1e}   order m = {m}")
print(f"multiplicity pattern: {rep.multiplicities}   (2k = {2 * k})")

print("\n== kernel of the full linearized operator ==")
system = assemble_linearized(params, HyperbolicPoint(0, 0, 1), grid)
ker = kernel(system)
print(f"dimension {ker.dimension}, spectral gap {ker.gap:.3e}")
print(f"modes per azimuthal order |M|: {ker.to_json()['orders']}")
print("smallest singular values:")
for i, s in enumerate(ker.singular_values[:12]):
    marker = "  <- kernel" if i < ker.dimension else ""
    print(f"  sigma[{i}] = {s:.3e}{marker}")

print("\nnondegeneracy across curvatures:")
for kk in (1.5, 2.0, 5.0):
    pk = make_params(kk)
    sk = assemble_linearized(pk, HyperbolicPoint(0, 0, 1), grid)
    kr = kernel(sk)
    print(f"  k = {kk:3g}: dimension {kr.dimension}, gap {kr.gap:.2e}")
