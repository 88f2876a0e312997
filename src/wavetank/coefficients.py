"""Coupled-KdV coefficients of the mode-decomposed wave equations.

Each mode amplitude theta^n(x, t) obeys

    theta^n_t + c_n theta^n_x
        + sigma * sum_{m,k} g^n_{m,k} theta^m theta^k_x
        + beta2 * d_n theta^n_xxx = 0

with d_n = c_n^3 / (2 N^2) and an interaction tensor g^n_{m,k} built
from N^2-weighted triple products of eigenfunctions:

    g^n_{m,k} = (sigma N^2 c_n^2 / 2) *
        int_0^h [ (1/c_m^2 + 3/c_k^2) Z^k dZ^m/dz
                  + (4/c_m^2) Z^m dZ^k/dz ] Z^n dz

For the sine basis the triple-product trigonometric identities collapse
the integral to a two-branch resonance rule (n = m + k or n = |m - k|),
which is the closed-form path and the production default.  The
quadrature path evaluates the integral directly; the two must agree to
1e-8 relative, which is the internal-consistency check that keeps
either path falsifiable.  The
closed form reproduces every entry of the tabulated five-mode reference
tensors to a few tenths of a percent, including the sign pattern and
the accidental zero at (n, m, k) = (4, 6, 2) where 3k = m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import reference_tables as ref
from .modes import simpson_grid

__all__ = [
    "CoefficientSet",
    "ConsistencyError",
    "dispersion_coeffs",
    "nonlinear_coeffs",
    "nonlinear_coeff_closed_form",
    "build_coefficients",
    "ReconciliationEntry",
    "ReconciliationReport",
    "reconcile_with_reference",
]

CONSISTENCY_RTOL = 1e-8
CONFIRM_RTOL = 0.05


class ConsistencyError(RuntimeError):
    """Quadrature and closed-form coefficient paths disagree."""


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the coupled-KdV system for one mode list.

    g has shape (L, L, L) indexed [n, m, k] in mode-list order; d and c
    have shape (L,).  sigma scales the nonlinear tensor, beta2 the
    dispersion term; both default to 1 (the dimensional benchmark values
    are only reproduced at unit scales).  triad_scale is sigma K when g
    is the closed-form resonance tensor of mode_indices (K =
    `_resonance_scale`), which the stepper may then apply as a product
    in z; None for any other g.
    """

    mode_indices: tuple
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    sigma: float = 1.0
    beta2: float = 1.0
    triad_scale: float | None = None

    @property
    def n_modes(self):
        return len(self.mode_indices)

    def g_entry(self, n, m, k):
        """g^n_{m,k} looked up by mode numbers rather than positions."""
        idx = self.mode_indices.index
        return float(self.g[idx(n), idx(m), idx(k)])


def dispersion_coeffs(basis):
    """d_n = c_n^3 / (2 N^2) from the stored phase speeds."""
    return basis.speeds**3 / (2.0 * basis.strat.N**2)


def _resonance_scale(strat):
    """K = pi sqrt(2) / (4 N h^(3/2)), the scale of both resonance branches."""
    return np.pi * np.sqrt(2.0) / (4.0 * strat.N * strat.depth**1.5)


def nonlinear_coeff_closed_form(basis, n, m, k, sigma=1.0):
    """Single tensor entry from the resonance rule (exact).

    Nonzero only on the sum branch n = m + k, value K m (3k + m) / n,
    and the difference branch n = |m - k|, value K m (3k - m) / n, with
    K = pi sqrt(2) / (4 N h^(3/2)).
    """
    kappa = _resonance_scale(basis.strat)
    val = 0.0
    if n == m + k:
        val += kappa * m * (3 * k + m) / n
    if n == abs(m - k) and n != 0:
        val += kappa * m * (3 * k - m) / n
    return sigma * val


def _tensor_closed_form(basis, sigma):
    """The whole tensor from the resonance rule, bit-identical to
    `nonlinear_coeff_closed_form` entry by entry: each (m, k) pair is
    placed on its sum branch n = m + k and its difference branch
    n = |m - k| when that n is in the mode list (mode numbers are
    distinct and >= 1, so the two branches never meet and n = 0 never
    occurs)."""
    idx = np.asarray(basis.indices)
    L = idx.size
    kappa = _resonance_scale(basis.strat)
    order = np.argsort(idx)
    b, c_ = np.indices((L, L))
    m, k = idx[b], idx[c_]
    g = np.zeros((L, L, L))
    for n, weight in ((m + k, 3 * k + m), (np.abs(m - k), 3 * k - m)):
        a = order[np.searchsorted(idx, n, sorter=order).clip(max=L - 1)]
        hit = idx[a] == n
        g[a[hit], b[hit], c_[hit]] = kappa * m[hit] * weight[hit] / n[hit]
    return sigma * g


def _tensor_quadrature(basis, sigma):
    strat = basis.strat
    z, w, dz = simpson_grid(strat.depth)
    zeta = np.pi * z / strat.depth

    nidx = np.asarray(basis.indices, dtype=float)
    S = basis.amplitudes[:, None] * np.sin(nidx[:, None] * zeta[None, :])
    Sz = (basis.amplitudes * nidx * np.pi / strat.depth)[:, None] * np.cos(
        nidx[:, None] * zeta[None, :]
    )
    c = basis.speeds
    L = basis.n_modes
    g = np.zeros((L, L, L))
    size = np.zeros((L, L, L))
    for a in range(L):
        pref = sigma * strat.N**2 * c[a] ** 2 / 2.0
        for b in range(L):
            for c_ in range(L):
                integrand = (
                    (1.0 / c[b] ** 2 + 3.0 / c[c_] ** 2) * S[c_] * Sz[b]
                    + (4.0 / c[b] ** 2) * S[b] * Sz[c_]
                ) * S[a]
                terms = w * integrand
                g[a, b, c_] = pref * dz * np.sum(terms)
                size[a, b, c_] = abs(pref) * dz * np.sum(np.abs(terms))
    return g, size


def nonlinear_coeffs(basis, method="closed_form", sigma=1.0):
    """Interaction tensor g^n_{m,k}, shape (L, L, L) indexed [n, m, k].

    method is "closed_form" (resonance rule, the production path) or
    "quadrature" (`simpson_grid` over [0, h]).  The quadrature path
    cross-checks itself against the closed form and raises
    ConsistencyError beyond 1e-8 of each entry's own scale, |g| on
    resonance and the quadrature of the absolute integrand off it (the
    size its round-off scales with; max|g| is no scale when no triad of
    the mode list resonates), or when an off-resonance entry exceeds
    1e-12 of that size.
    """
    if method == "closed_form":
        return _tensor_closed_form(basis, sigma)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    g_quad, size = _tensor_quadrature(basis, sigma)
    g_closed = _tensor_closed_form(basis, sigma)
    exact_zero = g_closed == 0.0
    # each entry in g's own units, so that the check holds at any N and
    # depth: |g| on resonance, the size of its integrand off it
    scale = np.where(exact_zero, np.maximum(size, 1e-300), np.abs(g_closed))
    worst = float(np.max(np.abs(g_quad - g_closed) / scale))
    if worst > CONSISTENCY_RTOL:
        raise ConsistencyError(
            f"quadrature/closed-form tensor mismatch: worst relative "
            f"deviation {worst:.3e} exceeds {CONSISTENCY_RTOL:.0e}"
        )
    # off-resonance entries vanish identically; confirm the quadrature
    # only carries round-off there, then return the exact zeros
    stray = np.abs(g_quad[exact_zero]) / scale[exact_zero]
    worst = float(np.max(stray, initial=0.0))
    if worst > 1e-12:
        raise ConsistencyError(
            f"off-resonance quadrature entries reach {worst:.3e} of the "
            f"quadrature of their absolute integrand (limit 1e-12)"
        )
    g_quad[exact_zero] = 0.0
    return g_quad


def build_coefficients(basis, sigma=1.0, beta2=1.0, method="closed_form"):
    """CoefficientSet (c, d, g) for a basis at the given scale parameters;
    method="quadrature" builds g by the cross-checked quadrature and
    records no triad_scale."""
    return CoefficientSet(
        mode_indices=basis.indices,
        c=basis.speeds.copy(),
        d=dispersion_coeffs(basis),
        g=nonlinear_coeffs(basis, method=method, sigma=sigma),
        sigma=sigma,
        beta2=beta2,
        triad_scale=(float(sigma * _resonance_scale(basis.strat))
                     if method == "closed_form" else None),
    )


@dataclass(frozen=True)
class ReconciliationEntry:
    quantity: str          # "c", "d" or "g"
    label: str             # e.g. "c_2" or "g[2][4,6]"
    computed: float
    reference: float
    rel_diff: float        # |computed - reference| / max(|reference|, tiny)
    status: str            # "CONFIRMED" or "DISCREPANT"


@dataclass(frozen=True)
class ReconciliationReport:
    entries: tuple
    mask_matches: bool     # zero/nonzero pattern of g agrees everywhere
    mask_mismatches: tuple

    @property
    def discrepant(self):
        return tuple(e for e in self.entries if e.status == "DISCREPANT")

    def to_text(self):
        lines = ["quantity\tlabel\tcomputed\treference\trel_diff\tstatus"]
        for e in self.entries:
            lines.append(
                f"{e.quantity}\t{e.label}\t{e.computed:.17g}\t"
                f"{e.reference:.17g}\t{e.rel_diff:.3e}\t{e.status}"
            )
        lines.append(f"# zero/nonzero mask matches reference: {self.mask_matches}")
        for n, m, k, comp, refv in self.mask_mismatches:
            lines.append(f"# mask mismatch at g[{n}][{m},{k}]: computed {comp:.6g} vs reference {refv:.6g}")
        return "\n".join(lines) + "\n"


def _classify(quantity, label, computed, reference, rtol):
    denom = max(abs(reference), 1e-300)
    rel = abs(computed - reference) / denom
    status = "CONFIRMED" if rel <= rtol else "DISCREPANT"
    return ReconciliationEntry(quantity, label, float(computed), float(reference),
                               float(rel), status)


def reconcile_with_reference(coeffs, rtol=CONFIRM_RTOL):
    """Compare a computed CoefficientSet against the embedded reference
    tables for the McEwan configuration.

    Every table entry is classified CONFIRMED (within `rtol` relative)
    or DISCREPANT; discrepancies are documented, never raised.  Requires
    the five-mode benchmark mode list.
    """
    if tuple(coeffs.mode_indices) != ref.MCEWAN_MODES:
        raise ValueError(
            f"reference tables cover modes {ref.MCEWAN_MODES}, "
            f"got {tuple(coeffs.mode_indices)}"
        )
    entries = []
    for i, n in enumerate(coeffs.mode_indices):
        entries.append(_classify("c", f"c_{n}", coeffs.c[i], ref.REFERENCE_C[n], rtol))
    for i, n in enumerate(coeffs.mode_indices):
        entries.append(_classify("d", f"d_{n}", coeffs.d[i], ref.REFERENCE_D[n], rtol))

    mask_ok = True
    mismatches = []
    for i, n in enumerate(coeffs.mode_indices):
        table = ref.REFERENCE_G[n]
        for j, m in enumerate(coeffs.mode_indices):
            for l, k in enumerate(coeffs.mode_indices):
                comp = coeffs.g[i, j, l]
                refv = table[j][l]
                comp_zero = abs(comp) < 1e-9
                ref_zero = refv == 0.0
                if comp_zero != ref_zero:
                    mask_ok = False
                    mismatches.append((n, m, k, float(comp), float(refv)))
                if not ref_zero:
                    entries.append(_classify("g", f"g[{n}][{m},{k}]", comp, refv, rtol))
                elif not comp_zero:
                    entries.append(_classify("g", f"g[{n}][{m},{k}]", comp, 0.0, rtol))
    return ReconciliationReport(
        entries=tuple(entries),
        mask_matches=mask_ok,
        mask_mismatches=tuple(mismatches),
    )
