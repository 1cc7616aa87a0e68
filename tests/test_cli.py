import json
import re

import pytest

from gaussbath.cli import main, parse_config
from gaussbath.states import MeasuredMode

SCI_12 = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,}$")


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
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert "format" in capsys.readouterr().err


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


def test_non_finite_squeezing_is_usage_error(capsys):
    assert main(["evolve", "--squeezing", "nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "r must be finite" in err


@pytest.mark.parametrize(
    "key, value", [("n1", -1), ("n2", -1), ("mass", 0), ("omega1", 0), ("omega2", -1)]
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
        (["evolve", "--temperature", "1e60"], 1),
    ],
    ids=[
        "evolve-1e308",
        "esd-1e308",
        "sweep-1e308",
        "sweep-1e308-one-point",
        "evolve-1e200",
        "evolve-1e60",
    ],
)
def test_huge_temperature_fails_with_one_error_line(argv, code, tmp_path, capsys):
    # tanh(w/2T) is 0 at T = 1e308, checked at the hottest sweep cell too (exit 2);
    # below that an invariant overflows (exit 1)
    assert main(argv + ["--output", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " if code == 2 else "numerical failure: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


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
