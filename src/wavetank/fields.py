"""Stream-function reconstruction and plot-ready data emission.

psi(z, x, t) = sum_n Z^n(z) theta^n(x, t).  Everything here is a pure
function of immutable inputs; exports are plain text with 17
significant digits so identical inputs give byte-identical files.
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
    "read_state_file",
    "field_filename",
    "mode_filename",
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


def _write_lines(path, lines):
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def export(snapshot, path, format="grid_text"):
    """Write a snapshot as plot-ready text.

    grid_text: header comments, one row of x values, then one line per
    z level: z followed by psi(z, x_i).  column_text: (x, z, psi)
    triples, x-major.  Both are bit-reproducible.
    """
    header = [
        f"# time = {FMT % snapshot.time}",
        f"# nz = {len(snapshot.z)} nx = {len(snapshot.x)}",
    ]
    if format == "grid_text":
        lines = header + ["# rows: z, columns: x; first row lists x, first column z"]
        lines.append("z\\x " + " ".join(FMT % v for v in snapshot.x))
        for q, zq in enumerate(snapshot.z):
            lines.append(FMT % zq + " " + " ".join(FMT % v for v in snapshot.psi[q]))
    elif format == "column_text":
        lines = header + ["# columns: x z psi"]
        for i, xi in enumerate(snapshot.x):
            for q, zq in enumerate(snapshot.z):
                lines.append(f"{FMT % xi} {FMT % zq} {FMT % snapshot.psi[q, i]}")
    else:
        raise ValueError(f"unknown export format {format!r}")
    _write_lines(path, lines)


def field_filename(run_id, t):
    return f"{run_id}_t{t:.6f}_field.dat"


def mode_filename(run_id, t, n):
    return f"{run_id}_t{t:.6f}_mode{n}.dat"


def state_filename(run_id, step, last_step):
    """Snapshot name by step index, zero-padded to the width of
    `last_step` so that names sort in step order."""
    return f"{run_id}_step{step:0{len(str(last_step))}d}_state.dat"


def write_state_file(path, state, grid, scheme, step):
    """Solver snapshot: one row per grid point, columns (x, theta^n...).

    Header records time, step, scheme and grid metadata; no wall-clock
    content, so identical runs produce identical bytes.
    """
    lines = [
        f"# time = {FMT % state.time}",
        f"# step = {step}",
        f"# scheme = {scheme}",
        f"# grid: h_x = {FMT % grid.h_x} n_points = {grid.n_points} "
        f"x0 = {FMT % grid.x0} periodic = {grid.periodic}",
        f"# columns: x theta^n for {state.n_modes} modes",
    ]
    x = grid.x
    for i in range(grid.n_points):
        row = [FMT % x[i]] + [FMT % state.theta[m, i] for m in range(state.n_modes)]
        lines.append(" ".join(row))
    _write_lines(path, lines)


def read_state_file(path):
    """Inverse of write_state_file; returns (time, x, theta)."""
    t = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if line.startswith("# time ="):
                    t = float(line.split("=", 1)[1])
                continue
            if line:
                rows.append([float(v) for v in line.split()])
    data = np.asarray(rows)
    return t, data[:, 0], data[:, 1:].T
