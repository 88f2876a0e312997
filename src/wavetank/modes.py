"""Vertical waveguide modes of a uniformly stratified layer.

For constant buoyancy frequency N the rigid-lid eigenproblem

    Z'' + (N^2 / c_n^2) Z = 0,   Z(0) = Z(h) = 0

has the closed-form solutions Z^n(z) = B_n sin(n pi z / h) with phase
speeds c_n = N h / (n pi).  Modes are orthonormal under the
N^2-weighted inner product (f, g) = int_0^h N^2 f g dz, which is the
product used for projecting initial data onto the basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Stratification",
    "ModeBasis",
    "Projection",
    "build_constant_n_basis",
    "weighted_inner_product",
    "project_profile",
    "simpson_grid",
]

# nodes of the one composite-Simpson grid on [0, h] that every vertical
# integral uses; must be odd
QUAD_POINTS = 1025


@dataclass(frozen=True)
class Stratification:
    """Background state: buoyancy frequency N [1/s] and depth h [m]."""

    N: float
    depth: float

    def __post_init__(self):
        if not self.N > 0:
            raise ValueError(f"buoyancy frequency N must be positive, got {self.N}")
        if not self.depth > 0:
            raise ValueError(f"depth must be positive, got {self.depth}")


def simpson_grid(depth):
    """The vertical quadrature on [0, depth]: QUAD_POINTS uniform nodes
    z, their composite-Simpson weights w and the spacing dz, so that
    dz * sum(w * f(z)) approximates int_0^depth f dz."""
    z = np.linspace(0.0, depth, QUAD_POINTS)
    w = np.ones(QUAD_POINTS)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return z, w / 3.0, depth / (QUAD_POINTS - 1)


@dataclass(frozen=True)
class ModeBasis:
    """Ordered set of vertical eigenfunctions for one stratification.

    Attributes
    ----------
    strat : Stratification
    indices : tuple of int
        Mode numbers n >= 1, in the order used everywhere downstream.
    speeds : ndarray
        Linear phase speeds c_n = N h / (n pi), same order as `indices`.
    amplitudes : ndarray
        Normalisation factors B_n = sqrt(2 / (N^2 h)); unit N^2-weighted
        norm for every mode.
    """

    strat: Stratification
    indices: tuple
    speeds: np.ndarray = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)

    @property
    def n_modes(self):
        return len(self.indices)

    def evaluate(self, z):
        """Z^n(z) for all modes on [0, depth]; shape (n_modes, len(z)).

        The eigenfunctions vanish identically at both walls, so the wall
        rows are exact zeros rather than sin(n*pi) round-off.
        """
        z = np.atleast_1d(np.asarray(z, dtype=float))
        zeta = z / self.strat.depth
        n = np.asarray(self.indices, dtype=float)[:, None]
        vals = self.amplitudes[:, None] * np.sin(np.pi * n * zeta[None, :])
        on_wall = (zeta == 0.0) | (zeta == 1.0)
        vals[:, on_wall] = 0.0
        return vals

    def evaluate_mode(self, n, z):
        """Z^n(z) for a single mode index n (must be in the basis)."""
        pos = self.indices.index(n)
        return self.evaluate(z)[pos]

    def synthesize(self, coefficients, z):
        """Sum_n coeff_n Z^n(z) for coefficient vector matching the basis."""
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (self.n_modes,):
            raise ValueError(
                f"expected {self.n_modes} coefficients, got shape {coefficients.shape}"
            )
        return coefficients @ self.evaluate(z)


def build_constant_n_basis(strat, mode_indices):
    """Build the closed-form constant-N basis for the given mode numbers.

    Parameters
    ----------
    strat : Stratification
    mode_indices : iterable of int
        Distinct mode numbers >= 1.  Order is preserved.

    Returns
    -------
    ModeBasis
    """
    indices = tuple(int(n) for n in mode_indices)
    if len(indices) == 0:
        raise ValueError("mode list must not be empty")
    if any(n < 1 for n in indices):
        raise ValueError(f"mode indices must be >= 1, got {indices}")
    if len(set(indices)) != len(indices):
        raise ValueError(f"mode indices must be distinct, got {indices}")
    n = np.asarray(indices, dtype=float)
    speeds = strat.N * strat.depth / (n * np.pi)
    amplitude = np.sqrt(2.0 / (strat.N**2 * strat.depth))
    return ModeBasis(
        strat=strat,
        indices=indices,
        speeds=speeds,
        amplitudes=np.full(len(indices), amplitude),
    )


def weighted_inner_product(f, g, strat):
    """N^2-weighted inner product int_0^h N^2 f(z) g(z) dz.

    Composite Simpson on a uniform grid (O(dz^4); for the smooth
    trigonometric/sech integrands used here the boundary terms of the
    Euler-Maclaurin expansion cancel and the rule is far more accurate
    than its formal order).

    `f` and `g` may be callables of z or arrays already sampled on
    `simpson_grid(strat.depth)[0]`.
    """
    z, w, dz = simpson_grid(strat.depth)
    fv = f(z) if callable(f) else np.asarray(f, dtype=float)
    gv = g(z) if callable(g) else np.asarray(g, dtype=float)
    if fv.shape != z.shape or gv.shape != z.shape:
        raise ValueError("sampled profiles must match the quadrature grid")
    return float(dz * np.sum(w * strat.N**2 * fv * gv))


@dataclass(frozen=True)
class Projection:
    """Result of projecting a vertical profile onto a truncated basis."""

    coefficients: np.ndarray
    profile_norm2: float        # ||phi||^2 under the N^2 weight
    captured_fraction: float    # sum coeff^2 / ||phi||^2
    residual_fraction: float    # 1 - captured_fraction


def project_profile(phi, basis):
    """Project a z-profile onto the basis: coeff_j = (Z^j, phi).

    Returns a `Projection`; by orthonormality the re-synthesised profile
    carries energy sum(coeff^2), so `residual_fraction` measures what the
    truncated basis misses (Bessel: captured_fraction <= 1 up to
    quadrature error).
    """
    strat = basis.strat
    z, w, dz = simpson_grid(strat.depth)
    phiv = phi(z) if callable(phi) else np.asarray(phi, dtype=float)
    zv = basis.evaluate(z)
    coeffs = dz * (zv * (w * strat.N**2 * phiv)[None, :]).sum(axis=1)
    norm2 = float(dz * np.sum(w * strat.N**2 * phiv**2))
    captured = float(np.sum(coeffs**2))
    frac = captured / norm2 if norm2 > 0 else 1.0
    return Projection(
        coefficients=coeffs,
        profile_norm2=norm2,
        captured_fraction=frac,
        residual_fraction=1.0 - frac,
    )
