"""Command-line front end.

Three subcommands drive the library:

* ``evolve``: correlation measures along a time grid at one temperature;
* ``sweep``: rectangular (time, temperature) grid of negativity and discord;
* ``esd``: search for the entanglement sudden-death time.

Values resolve in three layers: built-in defaults (the symmetric entangled
squeezed thermal state r=2, n1=n2=1 with lambda=0.1, omega1=omega2=1, m=1),
then a JSON config file given with --config, then explicit flags.  Output
is CSV or JSON with a fixed column order and 12 significant digits, so
identical configurations produce byte-identical files.

Exit codes: 0 success, 1 numerical failure (with the failing grid cell
named), 2 usage error (a bad flag or config value, or a parameter the
library rejects, such as a non-finite one).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .analysis import sudden_death_time, sweep, trajectory
from .dynamics import EnvironmentParams
from .errors import GaussBathError, InvalidParams
from .states import MeasuredMode, SqueezedThermalParams, build_squeezed_thermal


class UsageError(Exception):
    """Bad flag or config value; maps to exit code 2."""


@dataclass(frozen=True)
class _Flag:
    key: str  # long flag name without dashes; also the config-file key
    ftype: Callable[[Any], Any]
    default: Any
    help: str
    choices: tuple[str, ...] | None = None


_FLAGS = (
    _Flag("n1", float, 1.0, "mean thermal photon number of mode 1"),
    _Flag("n2", float, 1.0, "mean thermal photon number of mode 2"),
    _Flag("squeezing", float, 2.0, "two-mode squeezing parameter r"),
    _Flag("lambda", float, 0.1, "dissipation constant (must be positive)"),
    _Flag("mass", float, 1.0, "oscillator mass"),
    _Flag("omega1", float, 1.0, "frequency of mode 1"),
    _Flag("omega2", float, 1.0, "frequency of mode 2"),
    _Flag("temperature", float, 1.0, "bath temperature (evolve and esd)"),
    _Flag("t-max", float, 20.0, "largest time on the grid / search horizon"),
    _Flag("points", int, 200, "number of time grid points"),
    _Flag("temp-max", float, 4.0, "largest temperature on the sweep grid"),
    _Flag("temp-points", int, 40, "number of temperature grid points"),
    _Flag(
        "measured-mode", str, "mode2", "mode the discord measurement acts on", ("mode1", "mode2")
    ),
    _Flag("output", str, None, "output file path (default <command>.<format>)"),
    _Flag("format", str, "csv", "output format", choices=("csv", "json")),
)

_ESD_TOL = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration."""

    command: str
    state: SqueezedThermalParams
    env: EnvironmentParams
    t_max: float
    points: int
    temp_max: float
    temp_points: int
    measured_mode: MeasuredMode
    output: str | None
    format: str


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussbath",
        description="Two-mode Gaussian states in a thermal bath: negativity, "
        "sudden death and discord along the dissipative evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "evolve": "time series of E_N, discord and nu_minus at one temperature",
        "sweep": "rectangular (t, T) table of E_N and discord",
        "esd": "locate the entanglement sudden-death time",
    }
    for command, text in descriptions.items():
        p = sub.add_parser(command, help=text, description=text)
        for flag in _FLAGS:
            p.add_argument(
                f"--{flag.key}",
                dest=flag.key,
                type=flag.ftype,
                choices=flag.choices,
                help=flag.help,
            )
        p.add_argument(
            "--config", help="JSON file with flag-named keys; explicit flags take precedence"
        )
    return parser


def _load_config_file(path: str) -> dict[str, Any]:
    known = {flag.key: flag for flag in _FLAGS}
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"--config: {path} must hold a single JSON object")
    values: dict[str, Any] = {}
    for key, value in raw.items():
        flag = known.get(key)
        if flag is None:
            raise UsageError(f"--config: unknown key {key!r} in {path}")
        try:
            value = flag.ftype(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"--config: bad value for {key!r} in {path}: {exc}") from exc
        if flag.choices is not None and value not in flag.choices:
            raise UsageError(
                f"--config: {key!r} must be one of {', '.join(flag.choices)}, got {value!r}"
            )
        values[key] = value
    return values


def _require(condition: bool, flag: str, message: str) -> None:
    if not condition:
        raise UsageError(f"--{flag}: {message}")


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve defaults, config file and flags into a validated RunConfig."""
    args = _build_parser().parse_args(argv)

    merged = {flag.key: flag.default for flag in _FLAGS}
    if args.config is not None:
        merged.update(_load_config_file(args.config))
    for flag in _FLAGS:
        value = getattr(args, flag.key)
        if value is not None:
            merged[flag.key] = value

    # the occupation, mass and frequency rules live in the params dataclasses
    _require(merged["lambda"] > 0, "lambda", f"must be positive, got {merged['lambda']}")
    _require(
        merged["temperature"] >= 0,
        "temperature",
        f"must be non-negative, got {merged['temperature']}",
    )
    _require(
        0 < merged["t-max"] < math.inf,
        "t-max",
        f"must be positive and finite, got {merged['t-max']}",
    )
    _require(merged["points"] >= 1, "points", f"must be at least 1, got {merged['points']}")
    _require(
        0 <= merged["temp-max"] < math.inf,
        "temp-max",
        f"must be non-negative and finite, got {merged['temp-max']}",
    )
    _require(
        merged["temp-points"] >= 1,
        "temp-points",
        f"must be at least 1, got {merged['temp-points']}",
    )

    env = EnvironmentParams(
        lam=merged["lambda"],
        m=merged["mass"],
        omega1=merged["omega1"],
        omega2=merged["omega2"],
        temperature=merged["temperature"],
    )
    try:
        replace(env, temperature=merged["temp-max"])  # the bath's rule at the hottest grid cell
    except InvalidParams as exc:
        raise UsageError(f"--temp-max: {exc}") from exc

    return RunConfig(
        command=args.command,
        state=SqueezedThermalParams(n1=merged["n1"], n2=merged["n2"], r=merged["squeezing"]),
        env=env,
        t_max=merged["t-max"],
        points=merged["points"],
        temp_max=merged["temp-max"],
        temp_points=merged["temp-points"],
        measured_mode=MeasuredMode(merged["measured-mode"]),
        output=merged["output"],
        format=merged["format"],
    )


def _fmt(x: float) -> str:
    """Fixed scientific notation with 12 significant digits."""
    return f"{x:.11e}"


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with open(path, "w", newline="") as handle:
        handle.writelines(line + "\n" for line in lines)


def _write_table(
    config: RunConfig,
    out_path: Path,
    columns: tuple[str, ...],
    rows: Iterable[tuple[float, ...]],
) -> None:
    """Write rows, given in column order, as CSV or as JSON with run metadata.

    The JSON metadata echoes every parameter the command used: a sweep
    takes its temperatures from the grid, evolve from --temperature.
    """
    if config.format == "csv":
        body = (",".join(map(_fmt, row)) for row in rows)
        _write_lines(out_path, chain([",".join(columns)], body))
        return
    env = config.env
    env_meta = {"lambda": env.lam, "mass": env.m, "omega1": env.omega1, "omega2": env.omega2}
    grids = {"t_grid": {"min": 0.0, "max": config.t_max, "count": config.points}}
    if config.command == "sweep":
        grids["temperature_grid"] = {
            "min": 0.0,
            "max": config.temp_max,
            "count": config.temp_points,
        }
    else:
        env_meta["temperature"] = env.temperature
    payload = {
        "metadata": {
            "command": config.command,
            "state": {"n1": config.state.n1, "n2": config.state.n2, "r": config.state.r},
            "env": env_meta,
            **grids,
            "measured_mode": config.measured_mode.value,
        },
        "rows": [dict(zip(columns, row)) for row in rows],
    }
    _write_lines(out_path, [json.dumps(payload, indent=2)])


def _run_evolve(config: RunConfig, out_path: Path) -> None:
    s0 = build_squeezed_thermal(config.state)
    t_grid = np.linspace(0.0, config.t_max, config.points)
    points = trajectory(s0, config.env, t_grid, config.measured_mode)
    rows = ((pt.t, pt.e_n, pt.discord, pt.nu_minus) for pt in points)
    _write_table(config, out_path, ("t", "E_N", "discord", "nu_minus"), rows)


def _run_sweep(config: RunConfig, out_path: Path) -> None:
    s0 = build_squeezed_thermal(config.state)
    t_grid = np.linspace(0.0, config.t_max, config.points)
    temperature_grid = np.linspace(0.0, config.temp_max, config.temp_points)
    cells = sweep(s0, config.env, t_grid, temperature_grid, config.measured_mode)
    rows = ((row.t, row.temperature, row.e_n, row.discord) for row in cells)
    _write_table(config, out_path, ("t", "T", "E_N", "discord"), rows)


def _run_esd(config: RunConfig) -> None:
    s0 = build_squeezed_thermal(config.state)
    t_star = sudden_death_time(s0, config.env, config.t_max, tol=_ESD_TOL)
    line = "t_esd=" + (_fmt(t_star) if t_star is not None else "none")
    print(line)
    if config.output is not None:
        out_path = Path(config.output)
        if config.format == "json":
            line = json.dumps({"t_esd": t_star}, indent=2)
        _write_lines(out_path, [line])


def run(config: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    try:
        if config.command == "esd":
            _run_esd(config)
        else:
            out_path = Path(config.output or f"{config.command}.{config.format}")
            if config.command == "evolve":
                _run_evolve(config, out_path)
            else:
                _run_sweep(config, out_path)
            print(f"wrote {out_path}")
    except GaussBathError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except (UsageError, InvalidParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse errors (exit 2) and --help (exit 0)
        return int(exc.code or 0)
    return run(config)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
