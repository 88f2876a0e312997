"""Stream-function reconstruction and plot-ready data emission.

psi(z, x, t) = sum_n Z^n(z) theta^n(x, t).  Everything here is a pure
function of immutable inputs.  Every data file (field, state, mode and
cross-section files, the `coeffs` tables and the rows of the run
sidecar) goes through `write_table`: `#` header lines, then rows of
FMT (17 significant digits) values separated by single spaces, so
identical inputs give byte-identical files that `np.loadtxt` reads
back exactly.

`write_table` turns _BLOCK (2048) values at a time into the bytes FMT
gives each (`_format_values`), with numpy instead of one `%` per value,
and writes those bytes to a file opened in binary mode: no block's text
passes through a str.
With X the decimal exponent of |v|, y = |v| 10^(16 - X) is formed as a
double-length product against a table of 10^k held as two doubles
(Dekker's TwoProduct, Numer. Math. 18, 1971), rounded to the 17-digit
integer D and set out as `%g` does: fixed notation for -4 <= X < 17,
else d.ddde+XX with at least two exponent digits, trailing zeros and a
bare point dropped, "-0" kept.  FMT itself formats, each in its place,
the values the product cannot prove: y within _TIE_BAND of a
half-integer, nonzero |v| outside [_FAST_MIN, _FAST_MAX], nan and inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

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
# the fewest uniform z points `synthesize` samples by default, which
# resolve the shortest half-wavelength of mode 10 with margin
Z_POINTS = 129
# values formatted per block by `write_table`, which bounds its memory
_BLOCK = 2048
# the |v| that `_format_values` formats by the double-length product:
# over them 10^(16 - X) and its Veltkamp halves stay normal and finite
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# the exponents X the tables cover: those of the values above, with one
# to spare each way for the rounding of log10
_X_MIN, _X_MAX = -282, 282
# the product's y errs by at most about 5e-15 (10^k held to 2^-106
# relative, y < 1e17, two roundings of terms below 20), so a fractional
# part this close to 1/2, exact ties included, is left to FMT
_TIE_BAND = 1e-12


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


def synthesize(basis, state, grid, z_points=None):
    """Assemble psi(z_q, x_i) = sum_n Z^n(z_q) theta^n(x_i) at z_points
    uniform z_q: by default max(Z_POINTS, 2 max(n) + 1), two levels or
    more per half-wavelength of every mode.  At 129 levels every z_q
    sits on a zero of mode 128, whose psi would read round-off.

    The wall rows z = 0 and z = depth are exact zeros because every
    eigenfunction vanishes there.
    """
    if state.n_modes != basis.n_modes:
        raise ValueError(
            f"state carries {state.n_modes} modes, basis {basis.n_modes}"
        )
    if z_points is None:
        z_points = max(Z_POINTS, 2 * max(basis.indices) + 1)
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


@functools.cache
def _tables():
    """Tables of `_format_values`, built on its first call.

    A value's text is laid out in six uint64 words, 48 bytes, whose
    zero bytes are then dropped: byte 0 the sign, bytes 1-5 the "0.000"
    of -4 <= X < 0, digit k of D at byte 6 + 2k with a slot for the
    point after it, the exponent "e+XXX" at bytes 40-44 and the
    separator at byte 45.

    Per X, at index X - _X_MIN: `powers` holds 10^(16 - X) as hi + lo,
    the doubles nearest it and nearest the rest by exact integer
    arithmetic, and hi's Veltkamp halves; the point shows when D is not
    a multiple of `point_mod`; `layout`, at that index plus len(xs) if
    the point shows, holds the six words less sign and digits: prefix,
    point, exponent, a space, and the "0" bits of the digits that fixed
    notation keeps in the integer part.  `lead` holds digit 0 and the
    sign, at index digit + 10 for "-"; `digits` a 4-digit group g, at
    g + 10000 if digits follow it, else at g with its trailing zeros
    dropped.
    """
    tens = [1]
    for _ in range(16 - _X_MIN):
        tens.append(tens[-1] * 10)
    hi, lo = [], []
    for k in range(16 - _X_MIN, 15 - _X_MAX, -1):
        # int to float and int / int both round correctly
        ten = tens[abs(k)]
        if k >= 0:
            hi.append(float(ten))
            lo.append(float(ten - int(hi[-1])))
        else:
            hi.append(1 / ten)
            num, den = hi[-1].as_integer_ratio()    # den = 2^E
            lo.append(math.ldexp((den - num * ten) / ten, 1 - den.bit_length()))
    hi, lo = np.array(hi), np.array(lo)
    big = hi * 134217729.0                      # 2^27 + 1
    hi_head = big - (big - hi)

    xs = np.arange(_X_MIN, _X_MAX + 1)
    sci = (xs < -4) | (xs >= 17)
    layout = np.zeros((2, len(xs), 48), np.uint8)
    for x in range(-4, 0):                      # "0." and -x - 1 zeros
        layout[:, x - _X_MIN, 1:2 - x] = ord("0")
        layout[:, x - _X_MIN, 2] = ord(".")
    for x in range(1, 17):
        layout[:, x - _X_MIN, 8:6 + 2 * x + 1:2] = ord("0")
        layout[1, x - _X_MIN, 7 + 2 * x] = ord(".")
    layout[1, sci | (xs == 0), 7] = ord(".")
    e = np.abs(xs[sci])
    layout[:, sci, 40] = ord("e")
    layout[:, sci, 41] = np.where(xs[sci] < 0, ord("-"), ord("+"))
    layout[:, sci, 42] = np.where(e >= 100, e // 100 + 48, 0)
    layout[:, sci, 43] = e // 10 % 10 + 48
    layout[:, sci, 44] = e % 10 + 48
    layout[..., 45] = ord(" ")
    point_mod = 10 ** np.select([sci, xs >= 0], [16, 16 - xs], 0)

    lead = np.zeros((2, 10, 8), np.uint8)
    lead[:, :, 6] = np.arange(48, 58)
    lead[1, :, 0] = ord("-")
    quad = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # digits of 0..9999
    kept = ((quad != 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
    digits = np.zeros((2, 10000, 8), np.uint8)
    digits[:, :, ::2] = (quad + 48).T
    digits[0, :, ::2] *= np.arange(4) < kept[:, None]
    newline = np.zeros(8, np.uint8)
    newline[5] = ord(" ") ^ ord("\n")
    return SimpleNamespace(
        powers=np.stack([hi, lo, hi_head, hi - hi_head]),
        point_mod=point_mod,
        layout=layout.reshape(-1, 48).view(np.uint64),
        lead=lead.reshape(-1, 8).view(np.uint64).ravel(),
        digits=digits.reshape(-1, 8).view(np.uint64).ravel(),
        newline=newline.view(np.uint64)[0])


def _scaled(a, row, powers):
    """y = a 10^(16 - X) as p + t for X = row + _X_MIN: p = fl(a hi),
    t the exact rounding error of that product (Dekker's TwoProduct)
    plus a lo."""
    hi, lo, hi_head, hi_tail = (col.take(row) for col in powers)
    p = a * hi
    big = a * 134217729.0
    a_head = big - (big - a)
    a_tail = a - a_head
    err = a_tail * hi_tail - (((p - a_head * hi_head) - a_tail * hi_head)
                              - a_head * hi_tail)
    return p, err + a * lo


def _rounded(a, powers):
    """(D, row, proven) for the magnitudes `a`: where `proven` holds, a
    rounds to the 17-digit integer D times 10^(X - 16), X = row +
    _X_MIN; elsewhere (0, nan, inf, out of range, too near a tie) D = 0
    and X = 0.  The three rare cases (a moved X, a carry, an unproven
    value) are applied by mask only where `any` finds one set: most
    blocks have none."""
    proven = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(proven, a, 1.0)
    row = np.floor(np.log10(a)).astype(np.intp) - _X_MIN
    p, t = _scaled(a, row, powers)
    # log10 may round across an integer: move X so that y is in [1e16, 1e17)
    low = (p < 1e16) | ((p == 1e16) & (t < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (t >= 0.0))
    moved = low | high
    if moved.any():
        row += high
        row -= low
        p[moved], t[moved] = _scaled(a[moved], row[moved], powers)
    whole = np.rint(t)
    d = p.astype(np.int64) + whole.astype(np.int64)
    carry = d == 10**17                         # 99..9.5 rounds to 10^17
    if carry.any():
        d[carry] = 10**16
        row += carry
    proven &= np.abs(t - whole) <= 0.5 - _TIE_BAND
    unproven = ~proven
    if unproven.any():
        d[unproven] = 0
        row[unproven] = -_X_MIN
    return d, row, proven


def _format_values(values, first, ncols):
    """The FMT text of each value of the 1-D float64 `values`, followed
    by a space, or by a newline where it ends a row of `ncols` values
    (`first` counts the values of the table before these), as bytes: the
    ASCII encoding of "".join of FMT % v and its separator.  The method
    is in the module docstring, the text layout in `_tables`."""
    tab = _tables()
    d, row, proven = _rounded(np.abs(values), tab.powers)
    lead = d // 10**16
    rest = d - lead * 10**16
    high8 = rest // 10**8
    low8 = rest - high8 * 10**8
    g1 = high8 // 10**4
    g2 = high8 - g1 * 10**4
    g3 = low8 // 10**4
    g4 = low8 - g3 * 10**4
    shown = d % tab.point_mod[row] != 0
    words = np.take(tab.layout, row + len(tab.point_mod) * shown, axis=0)
    words[:, 0] |= tab.lead[lead + 10 * np.signbit(values)]
    for col, (g, more) in enumerate(((g1, (g2 != 0) | (low8 != 0)),
                                     (g2, low8 != 0), (g3, g4 != 0),
                                     (g4, False)), 1):
        words[:, col] |= tab.digits[g + 10000 * more]
    words[ncols - 1 - first % ncols::ncols, 5] ^= tab.newline
    text = words.view(np.uint8)
    for i in np.flatnonzero(~proven & (values != 0.0)):
        fallback = (FMT % values[i]).encode()
        text[i, :45] = 0
        text[i, :len(fallback)] = np.frombuffer(fallback, np.uint8)
    return text.tobytes().translate(None, b"\0")


def write_table(path, header, rows):
    """Write the `header` lines verbatim, then one line per row of the
    2-D array `rows` (at least one column): FMT values separated by
    single spaces, the same bytes as `np.savetxt(fh, rows, fmt=FMT)`.
    The file is opened in binary mode and the header written UTF-8
    encoded.  The values are read from one C-contiguous float64 view of
    `rows` in row-major order (a copy only if `rows` is not one already),
    formatted by `_format_values` and written, as the bytes it returns,
    _BLOCK (2048) at a time, so only one block's text is ever held in
    memory and a row may span two blocks.  A block is a slice of that
    view: `np.asarray(rows.flat[a:b])` copied each one, at 13-16 us a
    block against 0.3 us for the slice (2-core Xeon, medians of 15
    rounds).  Values the kernel cannot prove (see the module docstring)
    are formatted by FMT one by one."""
    ncols = rows.shape[1]
    values = np.ascontiguousarray(rows, np.float64).reshape(-1)
    try:
        with open(path, "wb") as fh:
            fh.write("".join(line + "\n" for line in header).encode())
            for first in range(0, values.size, _BLOCK):
                fh.write(_format_values(values[first:first + _BLOCK], first,
                                        ncols))
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def export(snapshot, path):
    """Write a snapshot as plot-ready text: header comments, a row
    labelled z\\x listing the x values, then one line per z level: z
    followed by psi(z, x_i)."""
    x = np.asarray(snapshot.x, np.float64)
    write_table(path, [
        f"# time = {FMT % snapshot.time}",
        f"# nz = {len(snapshot.z)} nx = {len(x)}",
        "# rows: z, columns: x; first row lists x, first column z",
        "z\\x " + _format_values(x, 0, len(x))[:-1].decode(),
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
