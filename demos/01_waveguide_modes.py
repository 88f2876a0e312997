"""Vertical waveguide modes of the reference tank.

Builds the constant-N eigenfunction basis, checks orthonormality under
the N^2-weighted inner product, and projects the antisymmetric paddle
profile onto the first five even modes.
"""

import numpy as np

from wavetank import Stratification, build_constant_n_basis, project_profile, weighted_inner_product
from wavetank.modes import simpson_grid
from wavetank.scenario import mcewan_default

strat = Stratification(N=1.23, depth=0.25)
basis = build_constant_n_basis(strat, (2, 4, 6, 8, 10))

print("mode   c_n [m/s]     B_n")
for n, c, b in zip(basis.indices, basis.speeds, basis.amplitudes):
    print(f"{n:4d}   {c:.6f}   {b:.6f}")

zmat = basis.evaluate(simpson_grid(strat.depth)[0])
worst = max(
    abs(weighted_inner_product(zmat[i], zmat[j], strat) - (i == j))
    for i in range(5) for j in range(5)
)
print(f"\nworst orthonormality defect over all pairs: {worst:.3e}")

cfg = mcewan_default()
proj = project_profile(lambda zz: cfg.paddle.phi2(zz, strat), basis)
print("\npaddle-profile projection (Z^n, phi2):")
for n, c in zip(basis.indices, proj.coefficients):
    print(f"  mode {n:2d}: {c:+.6f}   energy fraction "
          f"{c**2 / proj.profile_norm2:.4f}")
print(f"five even modes capture {proj.captured_fraction * 100:.2f}% of the "
      f"paddle energy (residual {proj.residual_fraction:.2e})")

odd = build_constant_n_basis(strat, (1, 3, 5, 7, 9))
odd_proj = project_profile(lambda zz: cfg.paddle.phi2(zz, strat), odd)
print(f"odd modes vanish by symmetry: worst |coefficient| = "
      f"{np.max(np.abs(odd_proj.coefficients)):.2e}")
