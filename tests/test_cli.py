"""CLI: artifact formats, exit codes, and determinism."""

import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from zetasums.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [
        shlex.split(line)[1:]
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("zetasums ")
    ]
    assert len(commands) == len(main.commands)
    for name, *args in commands:
        main.commands[name].make_context(name, args)  # raises a UsageError, runs nothing


def test_sumrule_table_row(runner):
    result = runner.invoke(main, ["sumrule", "--function", "xi", "--m", "1..6"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    m3 = [l for l in lines if l.startswith("3,")][0]
    cells = m3.split(",")
    assert cells[1] == "0.0000370527"
    assert cells[2] == "0.0000370527"


def test_sumrule_deterministic(runner):
    args = ["sumrule", "--function", "xi", "--m", "3..4"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.output == b.output


def test_interlace_json(runner):
    result = runner.invoke(main, ["interlace", "--pair", "tminus:xihalf", "--n", "1500"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["failures"] == [921, 995, 1307, 1495]
    assert payload["mode"] == "between"


def test_zeros_csv(runner, tmp_path):
    out = tmp_path / "z.csv"
    result = runner.invoke(
        main,
        ["zeros", "--function", "xi", "--t-max", "30", "--output", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "function,index,kind,t_or_x,residual"
    assert len(lines) == 4  # header + three zeros below t=30


def test_translate_json(runner):
    result = runner.invoke(
        main, ["translate", "--function", "xi", "--z0", "0.1", "--m", "4"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["route_difference"] <= 1e-9


def test_usage_error_exit_2(runner):
    result = runner.invoke(main, ["sumrule", "--function", "nosuch"])
    assert result.exit_code == 2


def test_bad_range_exit_2(runner):
    result = runner.invoke(main, ["sumrule", "--function", "xi", "--m", "6..3"])
    assert result.exit_code == 2


def test_computation_error_exit_1_with_json(runner):
    # z0 far outside the convergence disc triggers a computation error
    result = runner.invoke(
        main,
        ["translate", "--function", "xi", "--z0", "12.0", "--m", "3"],
        catch_exceptions=False,
    )
    assert result.exit_code == 1
    err = json.loads(result.stderr)
    assert "error" in err and "message" in err


def test_rhscan_beyond_datasets_exit_1_with_json(runner):
    # the T_plus / T_minus datasets end at t = 1000
    result = runner.invoke(main, ["rhscan", "--range", "1200..1300"])
    assert result.exit_code == 1
    err = json.loads(result.stderr)
    assert err["error"] == "DomainError"


def test_ystar_json(runner):
    result = runner.invoke(main, ["ystar", "--resolution", "0.01"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["y_star"] - 7.0555) < 0.02


def test_keiper_csv(runner):
    result = runner.invoke(main, ["keiper", "--function", "xi", "--order", "10"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "k,tau_k,lambda_k_plus_1"
    assert len(lines) == 11


def test_precision_report_appended(runner):
    result = runner.invoke(
        main,
        ["sumrule", "--function", "xi", "--m", "3..4", "--precision-report"],
    )
    assert result.exit_code == 0
    assert "# max |difference|" in result.output
