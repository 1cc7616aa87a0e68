import hashlib
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import mp_param_measures

import gaussbath
from gaussbath.cli import _linspace, main, parse_config
from gaussbath.states import MeasuredMode

SCI_12 = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,}$")

GOLDEN = Path(__file__).with_name("golden")
_SWEEP_20X8 = ["sweep", "--points", "20", "--temp-points", "8"]
# golden file under tests/golden/ -> the CLI arguments that write it: tables
# go to --output, esd's stdout is the golden
GOLDENS = {
    "sweep_20x8.csv": _SWEEP_20X8,
    "sweep_20x8.json": _SWEEP_20X8 + ["--format", "json"],
    "sweep_20x8_mode1_omega2_1.7.csv": _SWEEP_20X8 + ["--measured-mode", "mode1", "--omega2", "1.7"],
    "evolve_50.csv": ["evolve", "--points", "50"],
    "esd.txt": ["esd"],
    "esd_T0.3_omega2_1.3.txt": ["esd", "--temperature", "0.3", "--omega2", "1.3"],
}


# SHA-256 of the default outputs: sweep on 200 x 40 cells and evolve on 200
# points, CSV and JSON.  Like the goldens, they depend on the platform's libm
# (exp and tanh).  When one moves, tests/rowdiff.py reports which rows did.
DEFAULT_DIGESTS = {
    ("sweep", "csv"): "6994e4f763f16755fe7f69235d276c9d59c2c4f04c4679936383444f01c1173b",
    ("sweep", "json"): "4e39b5fa62a7f3c9647e76a0764fef3e83ef2178f5e5e5d3082ffa667865453f",
    ("evolve", "csv"): "6e1a92f145b942e46dcf7b7cdb821202e2c8da1f4a37e85cafe4dacc2baf8634",
    ("evolve", "json"): "ef496e636ab70145c03371afe8833f9e8fac439b7e0fb82bc620a8850d2f2164",
}


def test_defaults_match_reference_parameters():
    config = parse_config(["sweep"])
    assert config.command == "sweep"
    assert config.state.n1 == 1.0
    assert config.state.n2 == 1.0
    assert config.state.r == 2.0
    assert config.env.lam == 0.1
    assert config.env.m == 1.0
    assert config.env.omega1 == 1.0
    assert config.env.omega2 == 1.0
    assert config.t_max == 20.0
    assert config.points == 200
    assert config.temp_max == 4.0
    assert config.temp_points == 40
    assert config.measured_mode is MeasuredMode.MODE2
    assert config.format == "csv"


def test_flag_overrides_config_file_overrides_default(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"squeezing": 0.3, "points": 17}))
    config = parse_config(["evolve", "--config", str(cfg)])
    assert config.state.r == 0.3
    assert config.points == 17
    config = parse_config(["evolve", "--config", str(cfg), "--squeezing", "0.5"])
    assert config.state.r == 0.5
    assert config.points == 17


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"squeeze": 0.3}))
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert "squeeze" in capsys.readouterr().err


def test_config_file_value_choice_checked(tmp_path, capsys):
    # a config value is read as the same text on the command line would be,
    # so a fractional or boolean count is rejected, not truncated or cast,
    # and a null has no such text
    cfg = tmp_path / "run.json"
    cases = [("format", "xml"), ("points", 2.5), ("points", True), ("n1", True), ("output", None)]
    for key, value in cases:
        cfg.write_text(json.dumps({key: value}))
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert f"{key!r}" in capsys.readouterr().err


def test_negative_temperature_is_usage_error(capsys):
    assert main(["evolve", "--temperature", "-1"]) == 2
    assert "--temperature" in capsys.readouterr().err


def test_zero_damping_is_usage_error(capsys):
    assert main(["sweep", "--lambda", "0"]) == 2
    assert "--lambda" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [(["esd", "--t-max", "inf"], "--t-max"), (["sweep", "--temp-max", "inf"], "--temp-max")],
)
def test_infinite_grid_bound_is_usage_error(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert "finite" in err


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_temp_max_outside_bath_rule_is_usage_error(value, capsys):
    # the hottest sweep cell is checked by the EnvironmentParams temperature rule
    assert main(["sweep", "--temp-max", value]) == 2
    assert capsys.readouterr().err.startswith("error: --temp-max: ")


def test_non_finite_squeezing_is_usage_error(capsys):
    assert main(["evolve", "--squeezing", "nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "r must be finite" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("n1", -1),
        ("n2", -1),
        ("mass", 0),
        ("omega1", 0),
        ("omega2", -1),
        ("squeezing", 400),
        ("squeezing", 355.2),
        ("omega1", 1e-300),
    ],
)
@pytest.mark.parametrize("via", ["flag", "config"])
def test_parameter_rejected_by_library_is_usage_error(key, value, via, tmp_path, capsys):
    argv = ["evolve", f"--{key}", str(value)]
    if via == "config":
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        argv = ["evolve", "--config", str(cfg)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["evolve", "--temperature", "1e308"], 2),
        (["esd", "--temperature", "1e308"], 2),
        (["sweep", "--temp-max", "1e308"], 2),
        (["sweep", "--temp-max", "1e308", "--points", "1"], 2),
        (["evolve", "--temperature", "1e200"], 1),
        (["evolve", "--temperature", "1e80"], 1),
    ],
    ids=[
        "evolve-1e308",
        "esd-1e308",
        "sweep-1e308",
        "sweep-1e308-one-point",
        "evolve-1e200",
        "evolve-1e80",
    ],
)
def test_huge_temperature_fails_with_one_error_line(argv, code, tmp_path, capsys):
    # tanh(w/2T) is 0 at T = 1e308, checked at the hottest sweep cell too (exit 2);
    # below that, down to about 1e77, an invariant overflows (exit 1)
    assert main(argv + ["--output", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " if code == 2 else "numerical failure: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sweep", "--squeezing", "400"], 2),
        (["esd", "--squeezing", "400"], 2),
        (["evolve", "--squeezing", "355"], 1),
        (["esd", "--squeezing", "355"], 1),
    ],
    ids=["sweep-400", "esd-400", "evolve-355", "esd-355"],
)
def test_huge_squeezing_fails_with_one_error_line(argv, code, tmp_path, capsys):
    # at r = 400 the entries overflow (exit 2); at r = 355 they are finite,
    # near 1.7e308, and an invariant overflows (exit 1), named at its cell
    assert main(argv + ["--output", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " if code == 2 else "numerical failure: at t=0, T=1: ")
    assert err.count("\n") == 1


def _reference_rows(out, argv):
    """Each printed row of a CLI table, and (t, T, E_N, D, nu_minus) from the
    50-digit reference at the row's printed t and T."""
    config = parse_config(argv)
    state, env = config.state, config.env
    params = (state.n1, state.n2, state.r, env.m, env.omega1, env.omega2, env.lam)
    header, *lines = out.read_text().splitlines()
    for line in lines:
        row = dict(zip(header.split(","), map(float, line.split(","))))
        t, temperature = row["t"], row.get("T", env.temperature)
        yield row, mp_param_measures(*params, temperature, t, config.measured_mode)


def test_huge_temperature_sweep_has_no_cancellation(tmp_path, capsys):
    # at t = 1e-300, x rounds to 1 but y = 1 - x = 2e-301 does not, and y times
    # a Gibbs state ~1e300 is of order 1: the cell is far from the initial state
    pytest.importorskip("mpmath")
    out = tmp_path / "out.csv"
    argv = ["sweep", "--temp-max", "1e300", "--t-max", "1e-300", "--points", "2"]
    argv += ["--temp-points", "2", "--output", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [
        ["0.00000000000e+00", "0.00000000000e+00"],
        ["1.00000000000e-300", "0.00000000000e+00"],
        ["0.00000000000e+00", "1.00000000000e+300"],
        ["1.00000000000e-300", "1.00000000000e+300"],
    ]
    assert rows[1][2:] == rows[2][2:] == rows[0][2:]
    assert rows[3][2:] == ["1.13622987382e+00", "6.83771781656e-01"]
    for row, (e_n, discord, _) in _reference_rows(out, argv):
        assert row["E_N"] == pytest.approx(e_n, rel=5e-12)
        assert row["discord"] == pytest.approx(discord, rel=5e-12)


def test_huge_temperature_evolve_matches_reference(tmp_path, capsys):
    # at T = 1e60 the Gibbs entries are ~1e60 and the invariants ~1e240, inside
    # the double range; every printed row matches the reference to its 12 digits
    pytest.importorskip("mpmath")
    out = tmp_path / "out.csv"
    argv = ["evolve", "--temperature", "1e60", "--output", str(out)]
    assert main(argv) == 0
    for row, (e_n, discord, nu_minus) in _reference_rows(out, argv):
        assert row["E_N"] == pytest.approx(e_n, rel=5e-12, abs=1e-300)
        assert row["discord"] == pytest.approx(discord, rel=5e-12, abs=1e-15)
        assert row["nu_minus"] == pytest.approx(nu_minus, rel=5e-12)


def test_unknown_flag_exits_two(capsys):
    assert main(["sweep", "--frequency", "2"]) == 2


def test_missing_command_exits_two(capsys):
    assert main([]) == 2


def test_evolve_csv_output(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        ["evolve", "--temperature", "1", "--t-max", "20", "--points", "5", "--output", str(out)]
    )
    assert code == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t,E_N,discord,nu_minus"
    assert len(lines) == 6
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        assert all(SCI_12.match(field) for field in fields)
    # t=0 row carries the initial-state measures
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(4.185817662834698, abs=1e-9)


def test_sweep_csv_output(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(
        [
            "sweep",
            "--points",
            "4",
            "--temp-points",
            "3",
            "--t-max",
            "6",
            "--temp-max",
            "2",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,T,E_N,discord"
    assert len(lines) == 1 + 4 * 3


def test_sweep_json_output(tmp_path, capsys):
    out = tmp_path / "table.json"
    code = main(
        [
            "sweep",
            "--points",
            "3",
            "--temp-points",
            "2",
            "--format",
            "json",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    meta = payload["metadata"]
    assert meta["command"] == "sweep"
    assert meta["state"] == {"n1": 1.0, "n2": 1.0, "r": 2.0}
    assert meta["env"] == {"lambda": 0.1, "mass": 1.0, "omega1": 1.0, "omega2": 1.0}
    assert meta["t_grid"] == {"min": 0.0, "max": 20.0, "count": 3}
    assert meta["temperature_grid"] == {"min": 0.0, "max": 4.0, "count": 2}
    assert len(payload["rows"]) == 6
    assert set(payload["rows"][0]) == {"t", "T", "E_N", "discord"}


def test_esd_prints_death_time(capsys):
    assert main(["esd", "--temperature", "1"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("t_esd=")
    assert float(line.removeprefix("t_esd=")) == pytest.approx(2.9719735717773443, abs=5e-6)


def test_esd_reports_none_at_zero_temperature(capsys):
    assert main(["esd", "--temperature", "0"]) == 0
    assert capsys.readouterr().out.strip() == "t_esd=none"


def test_esd_writes_output_file(tmp_path, capsys):
    out = tmp_path / "esd.txt"
    assert main(["esd", "--temperature", "1", "--output", str(out)]) == 0
    assert out.read_text().startswith("t_esd=")


def test_esd_separable_initial_state_is_numerical_failure(capsys):
    assert main(["esd", "--temperature", "1", "--squeezing", "0.3"]) == 1
    assert "separable" in capsys.readouterr().err


def test_identical_configs_give_byte_identical_output(tmp_path, capsys):
    args = ["sweep", "--points", "20", "--temp-points", "4", "--t-max", "10", "--temp-max", "2"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_default_output_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["evolve", "--points", "2", "--t-max", "1"]) == 0
    assert (tmp_path / "evolve.csv").exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_cli_output_matches_goldens(tmp_path, capsys):
    """The CLI's text equals the committed goldens, byte for byte.

    The goldens depend on the platform's libm: sweep and evolve rows on
    exp and tanh, and the esd lines also on sin and cos, because the
    sudden-death search scans sigma(t).  A change that moves any output
    shows here; write the new goldens with the arguments in GOLDENS and
    report the changed rows with the change.
    """
    mismatched = []
    for name, argv in GOLDENS.items():
        if argv[0] == "esd":
            code = main(argv)
            text = capsys.readouterr().out.encode()
        else:
            out = tmp_path / name
            code = main(argv + ["--output", str(out)])
            capsys.readouterr()
            text = out.read_bytes() if code == 0 else b""
        if code != 0 or text != (GOLDEN / name).read_bytes():
            mismatched.append(name)
    assert mismatched == []


def test_default_outputs_match_digests(tmp_path, capsys):
    mismatched = []
    for (command, fmt), digest in DEFAULT_DIGESTS.items():
        out = tmp_path / f"{command}.{fmt}"
        assert main([command, "--format", fmt, "--output", str(out)]) == 0
        if hashlib.sha256(out.read_bytes()).hexdigest() != digest:
            mismatched.append(out.name)
    capsys.readouterr()
    assert mismatched == []


# a fresh interpreter: parse, sweep and evolve, then report whether numpy was
# loaded, then run esd, which builds 4x4 matrices
_NO_NUMPY_RUN = """
import sys
from gaussbath.cli import main, parse_config
parse_config(["sweep"])
assert main(["sweep", "--points", "5", "--temp-points", "3", "--output", "s.csv"]) == 0
assert main(["evolve", "--points", "5", "--format", "json", "--output", "e.json"]) == 0
print("numpy" in sys.modules)
assert main(["esd"]) == 0
"""


def test_sweep_and_evolve_load_no_numpy(tmp_path):
    src = str(Path(gaussbath.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RUN],
        cwd=tmp_path,
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[2] == "False"
    assert lines[3] + "\n" == (GOLDEN / "esd.txt").read_text()


def _grid_cases():
    stops = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 0.1, 1 / 3, 1.0, 4.0, 20.0]
    stops += [1e300, 1.7976931348623157e308]
    rng = random.Random(26)
    stops += [rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-320, 307) for _ in range(60)]
    nums = [1, 2, 3, 7, 40, 200, 1001]
    return [(stop, num) for stop in stops for num in nums]


def test_grid_rule_is_numpy_linspace_bit_for_bit():
    # the CLI's t and T grids, against numpy.linspace(0, stop, num) by float.hex:
    # a single point, stop = 0, subnormal steps that underflow to 0, the
    # largest double, where numpy's own last i * step overflows before stop replaces it
    for stop, num in _grid_cases():
        with np.errstate(over="ignore"):
            want = [v.hex() for v in np.linspace(0.0, stop, num).tolist()]
        assert [v.hex() for v in _linspace(stop, num)] == want, (stop, num)
