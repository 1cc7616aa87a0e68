"""The row-diff helper of tests/rowdiff.py on two synthetic tables."""

from decimal import Decimal

import pytest
from rowdiff import compare_tables, units_of_12th_digit

from gaussbath.cli import main

ARGV = ["sweep", "--points", "3", "--temp-points", "2"]


def _table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(ARGV + ["--output", str(out)]) == 0
    capsys.readouterr()
    return out.read_text()


def _moved(printed, units):
    """printed, moved by the given units of its 12th significant digit."""
    value = Decimal(printed)
    return f"{float(value + Decimal(units).scaleb(value.adjusted() - 11)):.11e}"


def test_units_of_12th_digit():
    assert units_of_12th_digit("1.00000000000e+00", "1.00000000002e+00") == 2.0
    assert units_of_12th_digit("-2.50000000000e-03", "-2.50000000003e-03") == 3.0
    assert units_of_12th_digit("9.99999999999e-01", "1.00000000000e+00") == pytest.approx(0.1)
    assert units_of_12th_digit("0.00000000000e+00", "0.00000000000e+00") == 0.0


def test_compare_tables_reports_changed_rows_and_deviations(tmp_path, capsys):
    pytest.importorskip("mpmath")
    old = _table(tmp_path, capsys)
    lines = old.splitlines()
    fields = lines[5].split(",")  # data row 4: t = 10, T = 4
    fields[3] = _moved(fields[3], 3)
    lines[5] = ",".join(fields)
    new = "\n".join(lines) + "\n"

    diff = compare_tables(old, new, ARGV, every=1)
    assert (diff.rows, diff.changed, diff.max_units) == (6, [4], 3.0)
    old_dev, new_dev = diff.deviations
    # the unchanged table is off by its print rounding only: half a unit of
    # the 12th digit, at most 5e-12 for these values
    assert max(old_dev.values()) <= 6e-12
    assert new_dev["E_N"] == old_dev["E_N"]
    unit = float(Decimal(1).scaleb(Decimal(fields[3]).adjusted() - 11))
    assert new_dev["discord"] >= 2.0 * unit
    assert str(diff).startswith("changed rows: 1 of 6\nlargest change: 3 units")


def test_compare_tables_rejects_tables_off_the_grid(tmp_path, capsys):
    old = _table(tmp_path, capsys)
    header, *rows = old.splitlines()
    moved = [row.replace("0.00000000000e+00,", "1.00000000000e-03,", 1) for row in rows]
    shifted = "\n".join([header, *moved]) + "\n"
    with pytest.raises(ValueError, match="grid point"):
        compare_tables(old, shifted, ARGV)
    with pytest.raises(ValueError, match="row count"):
        compare_tables(old, old + rows[0] + "\n", ARGV)
