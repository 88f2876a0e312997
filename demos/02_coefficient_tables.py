"""Coupled-KdV coefficients for the five-mode reference configuration.

Computes the dispersion vector and the nonlinear interaction tensor by
the closed-form resonance rule, then reconciles them against the
embedded reference tables entry by entry.
"""

import numpy as np

from wavetank import build_coefficients, reconcile_with_reference
from wavetank.modes import Stratification, build_constant_n_basis

basis = build_constant_n_basis(Stratification(N=1.23, depth=0.25),
                               (2, 4, 6, 8, 10))
coeffs = build_coefficients(basis)

print("mode   c_n [m/s]   d_n [m^3/s]")
for n, c, d in zip(coeffs.mode_indices, coeffs.c, coeffs.d):
    print(f"{n:4d}   {c:.6f}   {d:.3e}")

print("\ninteraction tensor g^n_{m,k} (nonzero entries):")
for i, n in enumerate(coeffs.mode_indices):
    for j, m in enumerate(coeffs.mode_indices):
        for l, k in enumerate(coeffs.mode_indices):
            if coeffs.g[i, j, l] != 0.0:
                print(f"  g[{n}][{m},{k}] = {coeffs.g[i, j, l]:+9.3f}")

rec = reconcile_with_reference(coeffs)
confirmed = sum(1 for e in rec.entries if e.status == "CONFIRMED")
print(f"\nreconciliation against the reference tables: "
      f"{confirmed}/{len(rec.entries)} CONFIRMED, zero mask match: "
      f"{rec.mask_matches}")
for e in rec.discrepant:
    print(f"  DISCREPANT {e.label}: computed {e.computed:.3e} vs "
          f"reference {e.reference:.3e} ({e.rel_diff * 100:.1f}% apart; "
          f"the reference list is printed at 1 significant figure)")
