import numpy as np

from axiswirl._csvio import write_csv


def test_write_csv_bytes_match_the_per_value_16e_dialect(tmp_path):
    values = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308, 1.0 / 3.0]
    rows = np.array([values, values[::-1]])
    header = [f"c{i}" for i in range(len(values))]
    path = tmp_path / "dialect.csv"
    write_csv(str(path), header, rows)
    expected = ",".join(header) + "\n" + "".join(
        ",".join(f"{float(x):.16e}" for x in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()
    assert "-0.0000000000000000e+00" in expected


def test_write_csv_of_no_rows_is_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(str(path), ["a", "b"], np.empty((0, 2)))
    assert path.read_bytes() == b"a,b\n"
