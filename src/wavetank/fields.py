"""Stream-function reconstruction and plot-ready data emission.

psi(z, x, t) = sum_n Z^n(z) theta^n(x, t).  Everything here is a pure
function of immutable inputs.  Every data file of a run (field, state,
mode and cross-section) goes through `write_table`: `#` header lines,
then rows of FMT (17 significant digits) values separated by single
spaces, so identical inputs give byte-identical files that
`np.loadtxt` reads back exactly.  Each row is formatted from Python
numbers with one `%`, not from numpy scalars as `np.savetxt` does, for
the same bytes at a lower cost per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldSnapshot",
    "CrossSection",
    "synthesize",
    "cross_section",
    "export",
    "write_state_file",
    "write_mode_file",
    "read_state_file",
    "write_table",
    "field_filename",
    "mode_filename",
    "xsec_filename",
    "state_filename",
]

FMT = "%.17g"


@dataclass(frozen=True)
class FieldSnapshot:
    """psi sampled on the (z, x) lattice at one instant."""

    time: float
    x: np.ndarray
    z: np.ndarray
    psi: np.ndarray  # shape (len(z), len(x))

    def __post_init__(self):
        if self.psi.shape != (len(self.z), len(self.x)):
            raise ValueError(
                f"psi shape {self.psi.shape} does not match grids "
                f"({len(self.z)}, {len(self.x)})"
            )


@dataclass(frozen=True)
class CrossSection:
    """Vertical profile psi(z) at (nearest grid column to) one x."""

    x_requested: float
    x_used: float
    z: np.ndarray
    values: np.ndarray
    rule: str = "nearest-grid-point"


def synthesize(basis, state, grid, z_points=129):
    """Assemble psi(z_q, x_i) = sum_n Z^n(z_q) theta^n(x_i).

    The wall rows z = 0 and z = depth are exact zeros because every
    eigenfunction vanishes there.  z defaults to 129 uniform points,
    which resolves the shortest half-wavelength of mode 10 with margin.
    """
    if state.n_modes != basis.n_modes:
        raise ValueError(
            f"state carries {state.n_modes} modes, basis {basis.n_modes}"
        )
    if z_points < 2:
        raise ValueError(f"z_points must be >= 2, got {z_points}")
    z = np.linspace(0.0, basis.strat.depth, z_points)
    zmat = basis.evaluate(z)                    # (L, nz)
    psi = zmat.T @ state.theta                  # (nz, nx)
    return FieldSnapshot(time=state.time, x=grid.x.copy(), z=z, psi=psi)


def cross_section(snapshot, x_fixed):
    """psi(., x) at the grid column nearest to x_fixed."""
    x = snapshot.x
    if x_fixed < x[0] or x_fixed > x[-1]:
        raise ValueError(
            f"x = {x_fixed} outside the sampled domain [{x[0]}, {x[-1]}]"
        )
    col = int(np.argmin(np.abs(x - x_fixed)))
    return CrossSection(
        x_requested=float(x_fixed),
        x_used=float(x[col]),
        z=snapshot.z.copy(),
        values=snapshot.psi[:, col].copy(),
    )


def write_table(path, header, rows):
    """Write the `header` lines verbatim, then one line per row of the
    2-D array `rows`: FMT values separated by single spaces, the same
    bytes as `np.savetxt(fh, rows, fmt=FMT)`.  Rows are written one at
    a time, so the file is never held whole in memory."""
    row_format = " ".join([FMT] * rows.shape[1]) + "\n"
    try:
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in header)
            for row in rows:
                fh.write(row_format % tuple(row.tolist()))
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def export(snapshot, path):
    """Write a snapshot as plot-ready text: header comments, a row
    labelled z\\x listing the x values, then one line per z level: z
    followed by psi(z, x_i)."""
    x = snapshot.x
    write_table(path, [
        f"# time = {FMT % snapshot.time}",
        f"# nz = {len(snapshot.z)} nx = {len(x)}",
        "# rows: z, columns: x; first row lists x, first column z",
        "z\\x " + " ".join([FMT] * len(x)) % tuple(x),
    ], np.column_stack([snapshot.z, snapshot.psi]))


def field_filename(run_id, t):
    return f"{run_id}_t{t:.6f}_field.dat"


def mode_filename(run_id, t, n):
    return f"{run_id}_t{t:.6f}_mode{n}.dat"


def xsec_filename(run_id, t):
    return f"{run_id}_t{t:.6f}_xsec.dat"


def state_filename(run_id, step, last_step):
    """Snapshot name by step index, zero-padded to the width of
    `last_step` so that names sort in step order."""
    return f"{run_id}_step{step:0{len(str(last_step))}d}_state.dat"


def write_state_file(path, state, grid, scheme, step):
    """Solver snapshot: one row per grid point, columns (x, theta^n...).

    Header records time, step, scheme and grid metadata; no wall-clock
    content, so identical runs produce identical bytes.
    """
    write_table(path, [
        f"# time = {FMT % state.time}",
        f"# step = {step}",
        f"# scheme = {scheme}",
        f"# grid: h_x = {FMT % grid.h_x} n_points = {grid.n_points} "
        f"x0 = {FMT % grid.x0} periodic = True",
        f"# columns: x theta^n for {state.n_modes} modes",
    ], np.column_stack([grid.x, state.theta.T]))


def write_mode_file(path, state, grid, pos, n):
    """Amplitude of mode n (row `pos` of state.theta): one row per grid
    point, columns (x, theta)."""
    write_table(path, [
        f"# time = {FMT % state.time}",
        f"# mode = {n}",
        "# columns: x theta",
    ], np.column_stack([grid.x, state.theta[pos]]))


def read_state_file(path):
    """Inverse of write_state_file; returns (time, x, theta)."""
    with open(path) as fh:
        t = next((float(line.split("=", 1)[1]) for line in fh
                  if line.startswith("# time =")), None)
    data = np.loadtxt(path, ndmin=2)
    return t, data[:, 0], data[:, 1:].T
