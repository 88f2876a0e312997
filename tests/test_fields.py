import io
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from wavetank.cli import main
from wavetank.fields import (
    FMT,
    _BLOCK,
    cross_section,
    export,
    read_state_file,
    synthesize,
    write_state_file,
    write_table,
)
from wavetank.modes import Stratification, build_constant_n_basis, project_profile
from wavetank.scenario import build_initial_state, mcewan_default
from wavetank.solver import Grid, ModeState

MCEWAN = Stratification(N=1.23, depth=0.25)
MODES = (2, 4, 6, 8, 10)


@pytest.fixture(scope="module")
def basis():
    return build_constant_n_basis(MCEWAN, MODES)


@pytest.fixture
def grid():
    return Grid(h_x=0.5 / 64, n_points=64, x0=-0.25)


class TestSynthesize:
    def test_single_mode_separable(self, grid):
        b = build_constant_n_basis(MCEWAN, (2,))
        state = ModeState(0.0, np.ones((1, grid.n_points)))
        snap = synthesize(b, state, grid, z_points=65)
        expected = b.evaluate(snap.z)[0]
        for col in range(grid.n_points):
            np.testing.assert_allclose(snap.psi[:, col], expected, rtol=1e-14)

    def test_walls_exactly_zero(self, basis, grid):
        rng = np.random.default_rng(3)
        state = ModeState(0.0, rng.standard_normal((len(MODES), grid.n_points)))
        snap = synthesize(basis, state, grid)
        assert np.all(snap.psi[0] == 0.0)
        assert np.all(snap.psi[-1] == 0.0)

    def test_reprojection_recovers_amplitudes(self, basis, grid):
        rng = np.random.default_rng(4)
        theta = rng.standard_normal((len(MODES), grid.n_points))
        snap = synthesize(basis, ModeState(0.0, theta), grid, z_points=1025)
        for col in (0, 17, 40):
            proj = project_profile(
                lambda z, c=col: basis.evaluate(z).T @ snap.psi[:, c][
                    np.searchsorted(snap.z, z)] if False else np.interp(
                        z, snap.z, snap.psi[:, c]),
                basis,
            )
            np.testing.assert_allclose(proj.coefficients, theta[:, col],
                                       atol=2e-7)

    def test_reprojection_exact_from_callable(self, basis, grid):
        # exact column evaluation (no interpolation error path)
        rng = np.random.default_rng(5)
        theta = rng.standard_normal((len(MODES), grid.n_points))
        state = ModeState(0.0, theta)
        col = 11
        proj = project_profile(
            lambda z: basis.evaluate(z).T @ theta[:, col], basis)
        np.testing.assert_allclose(proj.coefficients, theta[:, col], atol=1e-9)

    def test_linearity(self, basis, grid):
        rng = np.random.default_rng(6)
        t1 = rng.standard_normal((len(MODES), grid.n_points))
        t2 = rng.standard_normal((len(MODES), grid.n_points))
        a = synthesize(basis, ModeState(0.0, 2.0 * t1 + t2), grid)
        b1 = synthesize(basis, ModeState(0.0, t1), grid)
        b2 = synthesize(basis, ModeState(0.0, t2), grid)
        np.testing.assert_allclose(a.psi, 2.0 * b1.psi + b2.psi, atol=1e-13)

    def test_mode_mismatch_rejected(self, basis, grid):
        state = ModeState(0.0, np.zeros((2, grid.n_points)))
        with pytest.raises(ValueError):
            synthesize(basis, state, grid)

    def test_parseval_consistency(self, basis, grid):
        # int int N^2 psi^2 dz dx == sum_n int (theta^n)^2 dx
        cfg = mcewan_default()
        state, _ = build_initial_state(cfg)
        snap = synthesize(basis, state, cfg.grid, z_points=1025)
        z = snap.z
        dz = z[1] - z[0]
        w = np.ones(len(z))
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w /= 3.0
        inner = dz * np.sum(w[:, None] * MCEWAN.N**2 * snap.psi**2, axis=0)
        lhs = np.sum(inner) * cfg.grid.h_x
        rhs = np.sum(state.theta**2) * cfg.grid.h_x
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_run_field_file_keeps_mode_128(self, tmp_path):
        # at the 129 default levels every z_q sat on a zero of
        # sin(128 pi z / h): the field file peaked at 5.3e-21, round-off,
        # where the mode file peaked at 5.4e-8
        assert main(["run", "--modes", "128", "--t-end", "0.0004",
                     "--out", str(tmp_path), "--run-id", "m"]) == 0
        theta = np.loadtxt(tmp_path / "m" / "m_t0.000400_mode128.dat")[:, 1]
        psi = np.loadtxt(tmp_path / "m" / "m_t0.000400_field.dat",
                         skiprows=4)[:, 1:]
        amplitude = build_constant_n_basis(MCEWAN, (128,)).amplitudes[0]
        assert np.max(np.abs(psi)) == pytest.approx(
            amplitude * np.max(np.abs(theta)), rel=1e-12)


class TestCrossSection:
    def test_nearest_column(self, basis, grid):
        state = ModeState(0.0, np.arange(len(MODES) * grid.n_points,
                                         dtype=float).reshape(len(MODES), -1))
        snap = synthesize(basis, state, grid)
        xs = cross_section(snap, grid.x[10] + 0.3 * grid.h_x)
        assert xs.x_used == grid.x[10]
        np.testing.assert_array_equal(xs.values, snap.psi[:, 10])
        assert xs.rule == "nearest-grid-point"

    def test_out_of_domain(self, basis, grid):
        snap = synthesize(basis, ModeState(0.0, np.zeros((5, 64))), grid)
        with pytest.raises(ValueError):
            cross_section(snap, 10.0)

    def test_mid_tank_matches_truncated_paddle(self):
        cfg = mcewan_default()
        basis = cfg.basis()
        state, projection = build_initial_state(cfg, basis)
        snap = synthesize(basis, state, cfg.grid, z_points=257)
        xs = cross_section(snap, 0.0)
        truncated = (basis.synthesize(projection.coefficients, xs.z)
                     * cfg.paddle.periodic_phi1(xs.x_used, cfg.grid.length))
        np.testing.assert_allclose(xs.values, truncated, atol=1e-15)


class TestExport:
    def test_grid_text_round_trip(self, basis, grid, tmp_path):
        rng = np.random.default_rng(8)
        state = ModeState(0.125, rng.standard_normal((len(MODES), grid.n_points)))
        snap = synthesize(basis, state, grid, z_points=17)
        path = tmp_path / "snap.dat"
        export(snap, path)
        label, xrow = path.read_text().splitlines()[3].split(" ", 1)
        assert label == "z\\x"
        assert xrow == " ".join(FMT % v for v in snap.x.tolist())
        np.testing.assert_array_equal(np.loadtxt([xrow]), snap.x)
        data = np.loadtxt(path, comments=("#", "z\\x"))
        assert data.shape == (17, grid.n_points + 1)
        np.testing.assert_array_equal(data[:, 0], snap.z)
        np.testing.assert_array_equal(data[:, 1:], snap.psi)

    def test_zero_field_rows_print_0(self, tmp_path):
        from wavetank.fields import FieldSnapshot

        snap = FieldSnapshot(0.0, np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                             np.zeros((2, 2)))
        path = tmp_path / "zero.dat"
        export(snap, path)
        rows = path.read_text().splitlines()[4:]
        assert rows == ["0 0 0", "1 0 0"]

    def test_grid_text_headers(self, basis, grid, tmp_path):
        snap = synthesize(basis, ModeState(0.5, np.ones((5, 64))), grid,
                          z_points=9)
        path = tmp_path / "grid.dat"
        export(snap, path)
        text = path.read_text()
        assert "# time = 0.5" in text
        data_rows = [l for l in text.splitlines()
                     if l and not l.startswith("#") and not l.startswith("z\\x")]
        assert len(data_rows) == 9

    def test_byte_identical_reexport(self, basis, grid, tmp_path):
        state = ModeState(0.25, np.full((5, 64), np.pi / 7))
        snap = synthesize(basis, state, grid)
        p1, p2 = tmp_path / "a.dat", tmp_path / "b.dat"
        export(snap, p1)
        export(snap, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_io_error_names_path(self, basis, grid, tmp_path):
        snap = synthesize(basis, ModeState(0.0, np.zeros((5, 64))), grid)
        bad = tmp_path / "nodir" / "x.dat"
        with pytest.raises(OSError, match="cannot write .*nodir"):
            export(snap, bad)


# values where a hand-rolled formatter could part from np.savetxt: signed
# zeros, non-finite values, subnormals, the ends of the double range and
# integers beyond 2**53
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
    2.2250738585072009e-308, 2.2250738585072014e-308, 1e308, -1e308,
    np.finfo(float).max, -np.finfo(float).max, 2.0**53 + 2, -(2.0**63)])
FLOAT_TABLES = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                 max_side=6).filter(lambda s: s[1] > 0),
    elements=st.one_of(EDGE_FLOATS, st.floats(),
                       st.integers(-2**63, 2**63).map(float)))
INT_TABLES = hnp.arrays(
    st.sampled_from([np.int64, np.int32]),
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                     max_side=6).filter(lambda s: s[1] > 0))


def exact_ties(rng):
    """Doubles N / 2^e, N odd, with 18 significant digits, the last a 5:
    FMT rounds them half to even.  They exist for exponents -7 to 15."""
    out = []
    for e in range(2, 25):
        x = 17 - e                              # 18 digits: e + x + 1
        lo = -(-(2**e * 10**max(x, 0)) // 10**max(-x, 0))
        hi = min(-(-(2**e * 10**max(x + 1, 0)) // 10**max(-x - 1, 0)), 2**53)
        for n in rng.integers(lo, hi, 40) | 1:
            if n < hi:
                out.append(math.ldexp(int(n), -e))
    return out


def near_ties():
    """Doubles v = M 2^s in [1e17, 1e45) whose y = v / 10^k, k = X - 16,
    lies |2e - 1| / (2 5^k) from a half-integer: M 2^(s - k) =
    (5^k - 1) / 2 + e modulo 5^k, for |e| up to 5^k / 2^54 (or 1).  The
    gap runs from 0.1 at k = 1 to below 2^-54 from k = 22 on, where a
    double holding y's fractional part rounds it to 1/2 itself."""
    out = []
    for k in range(1, 29):
        x, n = 16 + k, 5**k
        reach = max(1, n >> 54)
        for s in range((10**x).bit_length() - 53, (10**(x + 1)).bit_length() - 51):
            m_lo = max(2**52, -(-10**x // 2**s))
            m_hi = min(2**53, -(-10**(x + 1) // 2**s))
            inverse = pow(2**(s - k), -1, n)
            for e in range(-reach, reach + 1):
                m = ((n - 1) // 2 + e) * inverse % n
                m += -(-(m_lo - m) // n) * n      # the first one >= m_lo
                out.extend(math.ldexp(c, s) for c in range(m, m_hi, n)[:3])
    return out


def assert_table_matches_reference(tmp_path, rows):
    path = tmp_path / "sweep.dat"
    write_table(path, ["# sweep"], rows)
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == len(rows)
    for row, line in zip(rows.tolist(), lines):
        reference = " ".join(FMT % v for v in row)
        assert line == reference, (row, line, reference)


class TestWriteTable:
    @given(rows=st.one_of(FLOAT_TABLES, INT_TABLES))
    @example(rows=np.empty((0, 3)))
    @example(rows=np.empty((0, 1)))
    @example(rows=np.array([[-0.0], [5e-324], [np.nan], [-np.inf]]))
    @example(rows=np.array([[3, -2**63], [0, 2**53 + 1]]))
    # a transposed table, not C-contiguous, whose rows span three blocks
    @example(rows=(np.arange(-2050.0, 2050.0).reshape(2, -1) / 7.0).T)
    def test_bytes_equal_savetxt(self, tmp_path_factory, rows):
        # the format every byte-identity check of the run outputs relies on
        path = tmp_path_factory.getbasetemp() / "savetxt.dat"
        header = ["# time = 0", "z\\x 1 2"]
        write_table(path, header, rows)
        buf = io.StringIO()
        buf.writelines(line + "\n" for line in header)
        np.savetxt(buf, rows, fmt=FMT)
        assert path.read_bytes() == buf.getvalue().encode()

    def test_rows_match_per_value_reference(self, tmp_path):
        rows = np.array([[-0.0, 5e-324, 1e300],
                         [np.nan, np.inf, -np.inf],
                         [2.0, -7.0, 1e16],
                         [0.1, 1.0 / 3.0, -2.5e-17]])
        path = tmp_path / "t.dat"
        write_table(path, ["# a", "b"], rows)
        reference = ["# a", "b"] + [" ".join("%.17g" % v for v in row)
                                    for row in rows.tolist()]
        assert path.read_text() == "\n".join(reference) + "\n"
        assert reference[2:5] == ["-0 4.9406564584124654e-324 1.0000000000000001e+300",
                                  "nan inf -inf", "2 -7 10000000000000000"]
        back = np.loadtxt(path, skiprows=2)
        np.testing.assert_array_equal(back, rows)
        assert np.signbit(back[0, 0])

    def test_block_sweep_matches_per_value_reference(self, tmp_path):
        # tables of several blocks, 7 columns so rows straddle the block
        # boundaries, against FMT value by value, on the values where a
        # double-length digit kernel can go wrong
        rng = np.random.default_rng(15)
        below = above = 10.0 ** np.arange(-300, 301)
        neighbours = [below]
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            neighbours += [below, above]
        boundaries = np.array([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5,
                               9.99999999999999995e-5, 99999999999999999.0])
        boundaries = np.concatenate([boundaries,
                                     np.nextafter(boundaries, 0.0),
                                     np.nextafter(boundaries, np.inf)])
        specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                    -2.2250738585072009e-308, 2.2250738585072014e-308,
                    np.finfo(float).max, 1e-280, 1e280,
                    123456789012345.625, 1e-28, 1e-79]
        values = np.concatenate([
            rng.integers(0, 2**64, 30000, dtype=np.uint64).view(np.float64),
            rng.standard_normal(5000) * 10.0 ** rng.integers(-25, 25, 5000),
            *neighbours, boundaries, specials,
            exact_ties(rng), near_ties()])
        values = np.concatenate([values, -values])
        values = values[rng.permutation(len(values))]
        values = np.append(values, np.zeros(-len(values) % 7))
        assert len(values) > 4 * _BLOCK and _BLOCK % 7
        assert_table_matches_reference(tmp_path, values.reshape(-1, 7))
        # cases the kernel must get right: log10 of the double nearest 1e-28
        # rounds up to -28, and the double nearest 1e-79 lies below
        # 10^-79 but carries to it at 17 digits
        assert FMT % 1e-28 == "9.9999999999999997e-29"
        num, den = (1e-79).as_integer_ratio()
        assert num * 10**79 < den and FMT % 1e-79 == "1e-79"
        assert FMT % 123456789012345.625 == "123456789012345.62"

    def test_int_sweep_matches_per_value_reference(self, tmp_path):
        rng = np.random.default_rng(16)
        rows = np.concatenate([
            rng.integers(-2**63, 2**63, 3000, dtype=np.int64),
            rng.integers(2**53, 2**53 + 4096, 1000, dtype=np.int64),
            np.array([2**53 + 1, -(2**63), 2**63 - 1, 0, -1])])
        rows = np.append(rows, np.zeros(-len(rows) % 5, np.int64))
        assert len(rows) > _BLOCK and _BLOCK % 5
        assert_table_matches_reference(tmp_path, rows.reshape(-1, 5))


class TestStateFiles:
    def test_round_trip(self, grid, tmp_path):
        rng = np.random.default_rng(9)
        state = ModeState(0.75, rng.standard_normal((3, grid.n_points)))
        path = tmp_path / "state.dat"
        write_state_file(path, state, grid, "two-stage", step=42)
        t, x, theta = read_state_file(path)
        assert t == 0.75
        np.testing.assert_array_equal(x, grid.x)
        np.testing.assert_array_equal(theta, state.theta)
