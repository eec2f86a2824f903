"""The CSV layer: write_table formats cells exactly as the per-cell rule did,
a zero written 0, read_table gives back what was written to 9 significant
digits, and a malformed table fails with the file and line; BlockFile.write
writes a zero 0.0 by the same rule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microagc.textio import REAL, BlockFile, ConfigError, read_table, write_table


def reference_csv(names, columns) -> str:
    """The per-cell formatting rule the run logs are written with: a float
    plus 0.0, so that -0.0 is written 0."""
    lines = [",".join(names)]
    for k in range(len(columns[0])):
        parts = []
        for col in columns:
            v = col[k]
            if isinstance(v, str):
                parts.append(v)
            elif isinstance(v, (np.integer, int)):
                parts.append(str(int(v)))
            else:
                parts.append(f"{v + 0.0:.9g}")
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310,
                    2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
                    0.1, 1 / 3, -123456789.123, 1e16, 999999999.5])


@pytest.mark.parametrize("columns", [
    pytest.param([SPECIAL, SPECIAL[::-1].copy()], id="floats"),
    pytest.param([np.arange(15) * 0.005, SPECIAL,
                  np.array([0, -1, 7, 10**12, -(2**62), 3, 0, 1, 2, 4, 5, 6, 8, 9, 10]),
                  np.array(["optimal-z", "off"] * 7 + ["pi"], dtype=object),
                  np.arange(15) % 2 == 0], id="mixed"),
    pytest.param([np.zeros(0), np.zeros(0, dtype=int)], id="no-rows"),
    pytest.param([np.random.default_rng(3).normal(size=601) * 1e3, np.arange(601)],
                 id="several-blocks"),
    pytest.param([np.tile(SPECIAL, 40), np.tile(SPECIAL[::-1], 40)], id="zeros-in-every-block"),
])
def test_writer_matches_the_per_cell_rule(tmp_path, columns):
    names = [f"c{i}" for i in range(len(columns))]
    path = tmp_path / "table.csv"
    write_table(path, names, columns)
    assert path.read_bytes() == reference_csv(names, columns).encode()


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    floats = st.floats(allow_nan=False, allow_subnormal=True, width=64)
    ints = st.integers(-(10**9) + 1, 10**9 - 1)  # 9 digits: exact under %.9g
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=5))
    columns = [np.array(draw(st.lists(floats if is_float else ints,
                                      min_size=n_rows, max_size=n_rows)),
                        dtype=float if is_float else int)
               for is_float in kinds]
    return columns


@settings(max_examples=80, deadline=None, derandomize=True)
@given(columns=tables(), data=st.data())
def test_round_trip_at_nine_digits(tmp_path_factory, columns, data):
    names = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("rt") / "table.csv"
    write_table(path, names, columns)
    picked = data.draw(st.permutations(range(len(names))))
    header, back = read_table(path, [names[i] for i in picked])
    assert header == names
    assert back.shape == (len(columns[0]), len(names))
    for j, i in enumerate(picked):
        expected = [float(f"{v:.9g}") for v in columns[i].tolist()]
        assert back[:, j].tolist() == expected


@pytest.fixture()
def table(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["t", "x", "mode"],
                [np.array([0.0, 0.5, 1.0]), np.array([1.5, -2.0, 3.25]),
                 np.array(["on", "off", "on"], dtype=object)])
    return path


def test_reads_only_the_named_columns(table):
    header, data = read_table(table, ["x", "t"])
    assert header == ["t", "x", "mode"]
    np.testing.assert_array_equal(data, [[1.5, 0.0], [-2.0, 0.5], [3.25, 1.0]])


def test_header_only_and_blank_rows(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("t,x\n")
    header, data = read_table(path, ["x"])
    assert header == ["t", "x"] and data.shape == (0, 1)
    path.write_text("t,x\n\n0,1\n  \n2,3\n  ")
    np.testing.assert_array_equal(read_table(path)[1], [[0.0, 1.0], [2.0, 3.0]])


@pytest.mark.parametrize("rows, names, message", [
    ("0,1,on\n0.5,2\n", ["t"], "line 3: expected 3 fields, got 2"),
    ("0,1,on,9\n", ["t"], "line 2: expected 3 fields, got 4"),
    ("0,1,on\n0.5,two,off\n", ["x"], "line 3: could not convert string to float: 'two'"),
    ("0,1,on\n", ["t", "y"], "line 1: missing column 'y'"),
    ("0,1,on\n0.5,2,of", ["t"], "line 3: cut short (no newline)"),
])
def test_malformed_table_names_file_and_line(tmp_path, rows, names, message):
    path = tmp_path / "bad.csv"
    path.write_text("t,x,mode\n" + rows)
    with pytest.raises(ConfigError) as err:
        read_table(path, names)
    assert str(err.value) == f"{path}: {message}"


def test_unread_columns_are_not_converted(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t,x\n0,abc\n")
    np.testing.assert_array_equal(read_table(path, ["t"])[1], [[0.0]])


def test_block_file_writes_a_zero_as_0_0(tmp_path):
    """BlockFile.write writes -0.0 as 0.0, by write_table's rule, and every
    other value as repr gives it."""
    path = tmp_path / "b.txt"
    BlockFile.write(path, {"x": 1.5}, {"m": np.array([[-0.0, 0.0], [-2.5, 1e-300]]),
                                       "v": [-0.0]})
    assert path.read_text() == "x = 1.5\n[m]\n0.0 0.0\n-2.5 1e-300\n[v]\n0.0\n"
    f = BlockFile(path, {"x": REAL}, ("m", "v"))
    assert not np.signbit(f.block("m", 2, 2)[0]).any()


def test_missing_file_is_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_table(tmp_path / "absent.csv", ["t"])
