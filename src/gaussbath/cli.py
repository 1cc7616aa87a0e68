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
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

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
    dest: str
    ftype: Callable[[Any], Any]
    help: str
    choices: tuple[str, ...] | None = None


_FLAGS = (
    _Flag("n1", "n1", float, "mean thermal photon number of mode 1"),
    _Flag("n2", "n2", float, "mean thermal photon number of mode 2"),
    _Flag("squeezing", "squeezing", float, "two-mode squeezing parameter r"),
    _Flag("lambda", "lam", float, "dissipation constant (must be positive)"),
    _Flag("mass", "mass", float, "oscillator mass"),
    _Flag("omega1", "omega1", float, "frequency of mode 1"),
    _Flag("omega2", "omega2", float, "frequency of mode 2"),
    _Flag("temperature", "temperature", float, "bath temperature (evolve and esd)"),
    _Flag("t-max", "t_max", float, "largest time on the grid / search horizon"),
    _Flag("points", "points", int, "number of time grid points"),
    _Flag("temp-max", "temp_max", float, "largest temperature on the sweep grid"),
    _Flag("temp-points", "temp_points", int, "number of temperature grid points"),
    _Flag(
        "measured-mode",
        "measured_mode",
        str,
        "mode the discord measurement acts on",
        choices=("mode1", "mode2"),
    ),
    _Flag("output", "output", str, "output file path (default <command>.<format>)"),
    _Flag("format", "format", str, "output format", choices=("csv", "json")),
)

_DEFAULTS: dict[str, Any] = {
    "n1": 1.0,
    "n2": 1.0,
    "squeezing": 2.0,
    "lambda": 0.1,
    "mass": 1.0,
    "omega1": 1.0,
    "omega2": 1.0,
    "temperature": 1.0,
    "t-max": 20.0,
    "points": 200,
    "temp-max": 4.0,
    "temp-points": 40,
    "measured-mode": "mode2",
    "format": "csv",
    "output": None,
}

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
                dest=flag.dest,
                type=flag.ftype,
                default=None,
                choices=flag.choices,
                help=flag.help,
            )
        p.add_argument(
            "--config",
            dest="config",
            default=None,
            help="JSON file with flag-named keys; explicit flags take precedence",
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

    merged = dict(_DEFAULTS)
    if args.config is not None:
        merged.update(_load_config_file(args.config))
    for flag in _FLAGS:
        value = getattr(args, flag.dest)
        if value is not None:
            merged[flag.key] = value

    _require(merged["n1"] >= 0, "n1", f"must be non-negative, got {merged['n1']}")
    _require(merged["n2"] >= 0, "n2", f"must be non-negative, got {merged['n2']}")
    _require(merged["lambda"] > 0, "lambda", f"must be positive, got {merged['lambda']}")
    _require(merged["mass"] > 0, "mass", f"must be positive, got {merged['mass']}")
    _require(merged["omega1"] > 0, "omega1", f"must be positive, got {merged['omega1']}")
    _require(merged["omega2"] > 0, "omega2", f"must be positive, got {merged['omega2']}")
    _require(
        merged["temperature"] >= 0,
        "temperature",
        f"must be non-negative, got {merged['temperature']}",
    )
    _require(merged["t-max"] > 0, "t-max", f"must be positive, got {merged['t-max']}")
    _require(merged["points"] >= 1, "points", f"must be at least 1, got {merged['points']}")
    _require(merged["temp-max"] >= 0, "temp-max", f"must be non-negative, got {merged['temp-max']}")
    _require(
        merged["temp-points"] >= 1,
        "temp-points",
        f"must be at least 1, got {merged['temp-points']}",
    )

    return RunConfig(
        command=args.command,
        state=SqueezedThermalParams(n1=merged["n1"], n2=merged["n2"], r=merged["squeezing"]),
        env=EnvironmentParams(
            lam=merged["lambda"],
            m=merged["mass"],
            omega1=merged["omega1"],
            omega2=merged["omega2"],
            temperature=merged["temperature"],
        ),
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


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _state_metadata(config: RunConfig) -> dict[str, Any]:
    return {"n1": config.state.n1, "n2": config.state.n2, "r": config.state.r}


def _env_metadata(config: RunConfig, with_temperature: bool) -> dict[str, Any]:
    env: dict[str, Any] = {
        "lambda": config.env.lam,
        "mass": config.env.m,
        "omega1": config.env.omega1,
        "omega2": config.env.omega2,
    }
    if with_temperature:
        env["temperature"] = config.env.temperature
    return env


def _run_evolve(config: RunConfig, out_path: Path) -> None:
    s0 = build_squeezed_thermal(config.state)
    t_grid = np.linspace(0.0, config.t_max, config.points)
    points = trajectory(s0, config.env, t_grid, config.measured_mode)
    if config.format == "csv":
        lines = ["t,E_N,discord,nu_minus"]
        lines += [
            ",".join((_fmt(pt.t), _fmt(pt.e_n), _fmt(pt.discord), _fmt(pt.nu_minus)))
            for pt in points
        ]
        _write_text(out_path, "\n".join(lines) + "\n")
    else:
        payload = {
            "metadata": {
                "command": "evolve",
                "state": _state_metadata(config),
                "env": _env_metadata(config, with_temperature=True),
                "t_grid": {"min": 0.0, "max": config.t_max, "count": config.points},
                "measured_mode": config.measured_mode.value,
            },
            "rows": [
                {"t": pt.t, "E_N": pt.e_n, "discord": pt.discord, "nu_minus": pt.nu_minus}
                for pt in points
            ],
        }
        _write_text(out_path, json.dumps(payload, indent=2) + "\n")


def _run_sweep(config: RunConfig, out_path: Path) -> None:
    t_grid = np.linspace(0.0, config.t_max, config.points)
    temperature_grid = np.linspace(0.0, config.temp_max, config.temp_points)
    table = sweep(config.state, config.env, t_grid, temperature_grid, config.measured_mode)
    if config.format == "csv":
        lines = ["t,T,E_N,discord"]
        lines += [
            ",".join((_fmt(row.t), _fmt(row.temperature), _fmt(row.e_n), _fmt(row.discord)))
            for row in table.rows
        ]
        _write_text(out_path, "\n".join(lines) + "\n")
    else:
        payload = {
            "metadata": {
                "command": "sweep",
                "state": _state_metadata(config),
                "env": _env_metadata(config, with_temperature=False),
                "t_grid": {"min": 0.0, "max": config.t_max, "count": config.points},
                "temperature_grid": {
                    "min": 0.0,
                    "max": config.temp_max,
                    "count": config.temp_points,
                },
                "measured_mode": config.measured_mode.value,
            },
            "rows": [
                {"t": row.t, "T": row.temperature, "E_N": row.e_n, "discord": row.discord}
                for row in table.rows
            ],
        }
        _write_text(out_path, json.dumps(payload, indent=2) + "\n")


def _run_esd(config: RunConfig) -> None:
    s0 = build_squeezed_thermal(config.state)
    t_star = sudden_death_time(s0, config.env, config.t_max, tol=_ESD_TOL)
    line = "t_esd=" + (_fmt(t_star) if t_star is not None else "none")
    print(line)
    if config.output is not None:
        out_path = Path(config.output)
        if config.format == "json":
            _write_text(out_path, json.dumps({"t_esd": t_star}, indent=2) + "\n")
        else:
            _write_text(out_path, line + "\n")


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
