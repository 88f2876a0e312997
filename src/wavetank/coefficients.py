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
from .modes import Stratification, build_constant_n_basis, simpson_grid

__all__ = [
    "CoefficientSet",
    "ConsistencyError",
    "UnresolvedModesError",
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


class UnresolvedModesError(ConsistencyError, ValueError):
    """The paths disagree on a mode list that the quadrature grid aliases:
    the check cannot test the closed form there, so the list is an input
    the quadrature cannot take (a ValueError) rather than a failed
    check."""


def _aliased_triad(indices, q):
    """The terms (n, +-m, +-k) of the first triad of the mode list whose
    combination p = n +- m +- k is a nonzero multiple of q, else None.
    The quadrature's integrands are sums of cos(p pi z / h) over these p,
    and composite Simpson on an even number q of intervals sums
    cos(p pi j / q) to its integral, 0, unless p is a nonzero multiple
    of q.  The modes are Python ints, grouped by their residue mod q, so
    that the search is O(L^2)."""
    by_residue = {}
    for n in indices:
        by_residue.setdefault(n % q, []).append(n)
    for m in indices:
        for k in indices:
            for terms in ((m, k), (m, -k), (-m, k), (-m, -k)):
                u = sum(terms)
                for n in by_residue.get(-u % q, ()):
                    if n + u != 0:
                        return (n,) + terms
    return None


def _failed_check(indices, message):
    """The error a failed cross-check raises: UnresolvedModesError when
    `simpson_grid` aliases the mode list, else ConsistencyError with
    `message`."""
    q = simpson_grid(1.0)[0].size - 1
    terms = _aliased_triad(indices, q)
    if terms is None:
        return ConsistencyError(message)
    n, m, k = terms
    return UnresolvedModesError(
        f"the {q + 1}-node quadrature grid cannot resolve modes "
        f"{tuple(indices)}: {n} {'-' if m < 0 else '+'} {abs(m)} "
        f"{'-' if k < 0 else '+'} {abs(k)} = {n + m + k} is a nonzero "
        f"multiple of its {q} intervals")


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of the coupled-KdV system for one mode list: the
    integrated system is theta^n_t + c_n theta^n_x
    + sum_{m,k} g^n_{m,k} theta^m theta^k_x + d_n theta^n_xxx = 0, with
    any scale already applied to d and g.

    g has shape (L, L, L) indexed [n, m, k] in mode-list order; d and c
    have shape (L,).  triad_scale is sigma K when g is the nonzero
    closed-form resonance tensor of mode_indices scaled by sigma (K =
    `_resonance_scale`), which the stepper may then apply as a product
    in z; None for any other g.
    """

    mode_indices: tuple
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
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


def _closed_form_triads(basis):
    """((a, b, c), values): the positions [n, m, k] in the mode list of
    each triad on a branch of the resonance rule, and its value
    K m (3k +- m) / n at sigma = 1: O(L^2) numbers.  Each (m, k) pair
    lies on its sum branch n = m + k and its difference branch
    n = |m - k| when that n is in the mode list (mode numbers are
    distinct and >= 1, so the two branches never meet and n = 0 never
    occurs); the sum branch's triads come first."""
    idx = np.asarray(basis.indices)
    L = idx.size
    kappa = _resonance_scale(basis.strat)
    order = np.argsort(idx)
    b, c_ = np.indices((L, L))
    m, k = idx[b], idx[c_]
    positions, values = [], []
    for n, weight in ((m + k, 3 * k + m), (np.abs(m - k), 3 * k - m)):
        a = order[np.searchsorted(idx, n, sorter=order).clip(max=L - 1)]
        hit = idx[a] == n
        positions.append((a[hit], b[hit], c_[hit]))
        values.append(kappa * m[hit] * weight[hit] / n[hit])
    return (tuple(map(np.concatenate, zip(*positions))),
            np.concatenate(values))


def _tensor_closed_form(basis, sigma):
    """The whole tensor from the resonance rule, its triads
    (`_closed_form_triads`) scattered into zeros and scaled by sigma:
    bit-identical to `nonlinear_coeff_closed_form` entry by entry."""
    L = basis.n_modes
    positions, values = _closed_form_triads(basis)
    g = np.zeros((L, L, L))
    g[positions] = values
    g *= sigma
    return g


def _tensor_quadrature(basis, sigma):
    """(g, size) by Simpson quadrature (`simpson_grid`): g^n_{m,k} and
    the quadrature of its absolute integrand, the scale of its round-off.
    The integrand is the (m, k) factor
    F = (1/c_m^2 + 3/c_k^2) Z^k dZ^m/dz + (4/c_m^2) Z^m dZ^k/dz, formed
    once, times Z^n; each n sums the weighted terms of every (m, k) pair
    at once, as rows of one array.

    Mode n is sampled at node j of the q + 1 at its exact angle
    n pi j / q, reduced in integers to pi ((n mod 2q) j mod 2q) / q.
    The float angle n (pi z_j / h) is off by up to about n pi times the
    double epsilon, and at n = 2e5 left 1.4e-12 of the absolute
    integrand on entries that vanish exactly.  Each mode is reduced as
    a Python int, so that a mode past int64 never forms an array."""
    strat = basis.strat
    z, w, dz = simpson_grid(strat.depth)
    q = z.size - 1
    turns = np.array([n % (2 * q) for n in basis.indices])
    angle = np.pi * (turns[:, None] * np.arange(q + 1) % (2 * q)) / q

    nidx = np.asarray(basis.indices, dtype=float)
    S = basis.amplitudes[:, None] * np.sin(angle)
    Sz = ((basis.amplitudes * nidx * np.pi / strat.depth)[:, None]
          * np.cos(angle))
    c = basis.speeds
    cm, ck = c[:, None, None], c[None, :, None]
    pair = ((1.0 / cm**2 + 3.0 / ck**2) * S[None, :] * Sz[:, None]
            + (4.0 / cm**2) * S[:, None] * Sz[None, :])   # F, [m, k]
    L = basis.n_modes
    g = np.zeros((L, L, L))
    size = np.zeros((L, L, L))
    for a in range(L):
        pref = sigma * strat.N**2 * c[a] ** 2 / 2.0
        terms = w * (pair * S[a])
        g[a] = pref * dz * terms.sum(axis=-1)
        size[a] = abs(pref) * dz * np.abs(terms).sum(axis=-1)
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
    1e-12 of that size.  A nan deviation fails either check.  A failed
    check on a mode list that `simpson_grid` aliases (`_aliased_triad`)
    raises UnresolvedModesError, which is also a ValueError: there the
    check cannot test the closed form.

    The check runs on the unit tank (N = 1, depth = 1, the same mode
    list) at sigma = 1, and the checked tensor is then scaled as
    sigma * ((K / K_1) * g) with K = `_resonance_scale` of the basis's
    tank and K_1 that of the unit tank: every entry of g is K times a
    number of the mode list alone, in the quadrature as in the closed
    form.  On the tank itself the integrand's factors N^2 c^2 and Z^3
    leave the float range while g is in it (N = 1e80 or 1e-80 at
    depth 1, or N = 1e20 at depth 1e50), and a sigma far from 1,
    applied first, pushes both tensors past the float range or into
    subnormals; the ratio goes first, so that no finite sigma overflows
    where sigma g is finite.
    """
    if method == "closed_form":
        return _tensor_closed_form(basis, sigma)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    unit = build_constant_n_basis(Stratification(N=1.0, depth=1.0),
                                  basis.indices)
    g_quad, size = _tensor_quadrature(unit, 1.0)
    g_closed = _tensor_closed_form(unit, 1.0)
    exact_zero = g_closed == 0.0
    # each entry in g's own units, so that the check holds at any N and
    # depth: |g| on resonance, the size of its integrand off it
    scale = np.where(exact_zero, np.maximum(size, 1e-300), np.abs(g_closed))
    worst = float(np.max(np.abs(g_quad - g_closed) / scale))
    if not worst <= CONSISTENCY_RTOL:
        raise _failed_check(
            unit.indices,
            f"quadrature/closed-form tensor mismatch: worst relative "
            f"deviation {worst:.3e} exceeds {CONSISTENCY_RTOL:.0e}")
    # off-resonance entries vanish identically; confirm the quadrature
    # only carries round-off there, then return the exact zeros
    stray = np.abs(g_quad[exact_zero]) / scale[exact_zero]
    worst = float(np.max(stray, initial=0.0))
    if not worst <= 1e-12:
        raise _failed_check(
            unit.indices,
            f"off-resonance quadrature entries reach {worst:.3e} of the "
            f"quadrature of their absolute integrand (limit 1e-12)")
    g_quad[exact_zero] = 0.0
    g_quad *= _resonance_scale(basis.strat) / _resonance_scale(unit.strat)
    g_quad *= sigma
    return g_quad


def build_coefficients(basis, sigma=1.0, beta2=1.0, method="closed_form"):
    """CoefficientSet of the integrated system for a basis: c_n,
    d = beta2 d_n and g = sigma g^n_{m,k}, so that no engine applies a
    scale.  method="quadrature" builds g by the cross-checked quadrature
    and records no triad_scale, nor does a g = 0, which has no triad
    term to scale."""
    g = nonlinear_coeffs(basis, method=method, sigma=sigma)
    return CoefficientSet(
        mode_indices=basis.indices,
        c=basis.speeds.copy(),
        d=beta2 * dispersion_coeffs(basis),
        g=g,
        triad_scale=(float(sigma * _resonance_scale(basis.strat))
                     if method == "closed_form" and g.any() else None),
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
