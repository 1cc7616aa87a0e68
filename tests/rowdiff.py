"""Row-by-row comparison of two CSV tables written by ``gaussbath evolve`` or ``sweep``.

For two runs of the same CLI arguments, say at two commits, ``compare_tables``
reports:

* the data rows whose text differs;
* the largest change of one value, in units of its 12th significant digit
  (the last printed digit);
* each table's largest deviation per measure column from the 50-digit
  parameter-side reference ``oracles.mp_param_measures``, on every
  ``every``-th row (needs ``mpmath``).  The reference is taken at the exact
  grid point of the row, so the deviation is that of the run plus the print
  rounding of the value, at most half a unit in its 12th digit.

For example, from the root of a checkout, with the default sweep of each
commit in ``old.csv`` and ``new.csv``::

    PYTHONPATH=src:tests python -c "
    from pathlib import Path
    from rowdiff import compare_tables
    old, new = (Path(p).read_text() for p in ('old.csv', 'new.csv'))
    print(compare_tables(old, new, ['sweep']))"
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np
from oracles import mp_param_measures

from gaussbath.cli import RunConfig, parse_config

# printed column -> index in the (E_N, D, nu_minus) triple of mp_param_measures
_MEASURES = {"E_N": 0, "discord": 1, "nu_minus": 2}


@dataclass(frozen=True)
class TableDiff:
    """What changed between two tables of one grid."""

    rows: int
    changed: list[int]  # indices of the data rows whose text differs
    max_units: float  # largest change of one value, in units of its 12th digit
    deviations: tuple[dict[str, float], ...]  # per table: column -> largest |deviation|

    def __str__(self) -> str:
        lines = [
            f"changed rows: {len(self.changed)} of {self.rows}",
            f"largest change: {self.max_units:g} units of the 12th digit",
        ]
        for name, deviation in zip(("old", "new"), self.deviations):
            worst = ", ".join(f"{col} {dev:.3g}" for col, dev in deviation.items())
            lines.append(f"{name} table, largest deviation from mp_param_measures: {worst}")
        return "\n".join(lines)


def units_of_12th_digit(old: str, new: str) -> float:
    """|new - old| in units of the 12th significant digit of the larger of the two."""
    a, b = Decimal(old), Decimal(new)
    if a == b:
        return 0.0
    exponent = max(x.adjusted() for x in (a, b) if x != 0)
    return float(abs(b - a).scaleb(11 - exponent))


def _grid(config: RunConfig) -> list[tuple[float, float]]:
    """(t, T) of each row, in the order and with the grids of cli._run_table."""
    t_grid = np.linspace(0.0, config.t_max, config.points)
    temperatures = [config.env.temperature]
    if config.command == "sweep":
        temperatures = np.linspace(0.0, config.temp_max, config.temp_points)
    return [(float(t), float(temperature)) for temperature in temperatures for t in t_grid]


def _deviations(
    columns: list[str], rows: list[list[str]], config: RunConfig, every: int
) -> dict[str, float]:
    state, env = config.state, config.env
    params = (state.n1, state.n2, state.r, env.m, env.omega1, env.omega2, env.lam)
    measured = [col for col in columns if col in _MEASURES]
    worst = dict.fromkeys(measured, 0.0)
    for row, (t, temperature) in list(zip(rows, _grid(config)))[::every]:
        want = mp_param_measures(*params, temperature, t, config.measured_mode)
        for col in measured:
            got = float(row[columns.index(col)])
            worst[col] = max(worst[col], abs(got - want[_MEASURES[col]]))
    return worst


def compare_tables(old: str, new: str, argv: list[str], every: int = 50) -> TableDiff:
    """Compare the CSV texts of two runs of ``gaussbath <argv>``.

    Raises ValueError if the tables differ in header or row count, or if a
    row's printed t or T is not the grid point of its position.
    """
    config = parse_config(argv)
    grid = _grid(config)
    (columns, *old_rows), (new_columns, *new_rows) = (
        [line.split(",") for line in text.splitlines()] for text in (old, new)
    )
    if columns != new_columns or not len(old_rows) == len(new_rows) == len(grid):
        raise ValueError("the tables differ in header or row count, or from the grid")
    keys = [columns.index(col) for col in ("t", "T") if col in columns]
    changed, max_units = [], 0.0
    for k, (a, b, cell) in enumerate(zip(old_rows, new_rows, grid)):
        printed = [f"{v:.11e}" for v in cell[: len(keys)]]
        if [a[i] for i in keys] != printed or [b[i] for i in keys] != printed:
            raise ValueError(f"row {k} is not at its grid point (t, T) = {cell}")
        if a != b:
            changed.append(k)
            max_units = max(max_units, *(units_of_12th_digit(x, y) for x, y in zip(a, b)))
    deviations = tuple(_deviations(columns, rows, config, every) for rows in (old_rows, new_rows))
    return TableDiff(len(grid), changed, max_units, deviations)
