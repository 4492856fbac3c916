"""CLI: artifact formats, exit codes, and determinism."""

import csv
import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from zetasums.cli import main
from zetasums.special import FunctionId
from zetasums.sumrules import verify_sum_rule

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# the fields that hold text or flags; every other cell or value is a number
_TEXT_FIELDS = {"function", "kind", "condition_met", "pair", "mode"}


def _assert_numbers(output, fmt="csv"):
    """Every cell of a CSV table, or every value of a JSON table or object,
    outside _TEXT_FIELDS reads back as a number; returns the number of rows."""
    if fmt == "json":
        payload = json.loads(output)
        rows = payload.get("rows", [payload])
        for row in rows:
            for key, value in row.items():
                if key not in _TEXT_FIELDS:
                    for v in value if isinstance(value, list) else [value]:
                        assert type(v) in (int, float), (key, v)
        return len(rows)
    header, *rows = list(csv.reader(line for line in output.splitlines() if line[:1] != "#"))
    for row in rows:
        assert len(row) == len(header)
        for key, cell in zip(header, row):
            if key not in _TEXT_FIELDS:
                float(cell)
    return len(rows)


@pytest.fixture()
def runner():
    return CliRunner()


def test_readme_commands_run(runner):
    commands = [
        shlex.split(line)[1:]
        for block in re.findall(r"```sh\n(.*?)```", _README, re.S)
        for line in block.splitlines()
        if line.startswith("zetasums ")
    ]
    assert len(commands) == len(main.commands)
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
        table = any("--format" in p.opts for p in main.commands[args[0]].params)
        _assert_numbers(result.output, "csv" if table else "json")
        if table:
            result = runner.invoke(main, args + ["--format", "json"])
            assert result.exit_code == 0, (args, result.output)
            _assert_numbers(result.output, "json")


def test_readme_python_blocks_run(ds_xi, capsys):
    # ds_xi puts the default xi dataset, which the first block reads, in the cache
    blocks = re.findall(r"```python\n(.*?)```", _README, re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4  # one row per m in 3..6


def test_sumrule_table_row(runner, ds_xi):
    result = runner.invoke(main, ["sumrule", "--function", "xi", "--m", "1..6"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    m3 = [l for l in lines if l.startswith("3,")][0]
    cells = [float(c) for c in m3.split(",")]
    # every digit is printed, so the cells read back exactly
    assert cells == list(verify_sum_rule(FunctionId.XI, ds_xi, [3])[0])
    assert f"{cells[1]:.10f}" == f"{cells[2]:.10f}" == "0.0000370527"


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


@pytest.mark.parametrize(
    "args",
    [
        ["ystar", "--format", "csv"],
        ["translate", "--function", "xi", "--z0", "0.1", "--m", "4", "--format", "csv"],
        ["interlace", "--pair", "tminus:xihalf", "--format", "csv"],
        ["bell", "--function", "xi", "--precision-report"],
        ["translate", "--function", "xi", "--z0", "0.1", "--m", "4", "--precision-report"],
        ["interlace", "--pair", "tminus:xihalf", "--precision-report"],
        ["rhscan", "--range", "410..420", "--precision-report"],
        ["ystar", "--precision-report"],
    ],
)
def test_options_a_command_ignores_are_usage_errors(runner, args):
    # translate, interlace and ystar always print JSON; these commands write no precision report
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["zeros", "--function", "xi", "--t-max", "nan"],
        ["zeros", "--function", "xi", "--t-max", "inf"],
        ["zeros", "--function", "xi", "--t-max", "-5"],
        ["keiper", "--function", "xi", "--order", "0"],
        ["bell", "--function", "xi", "--order", "-1"],
        ["rhscan", "--range", "5..1"],
        ["rhscan", "--range", "nan..5"],
        ["interlace", "--pair", "tminus:xihalf", "--n", "0"],
        ["translate", "--function", "xi", "--z0", "0.1", "--m", "4", "--terms", "0"],
        ["ystar", "--resolution", "0"],
        ["ystar", "--resolution", "-1"],
        ["ystar", "--resolution", "nan"],
    ],
)
def test_bad_options_are_usage_errors(runner, args):
    # refused before any computation: exit 2 with click's message
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


def test_order_past_the_circle_exit_1_with_json(runner):
    # sigma_512 needs more Taylor orders than the 512-point circle holds
    result = runner.invoke(main, ["keiper", "--function", "xi", "--order", "511"])
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "DomainError"


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


@pytest.mark.parametrize(
    "args",
    [
        ["link", "--order", "14"],
        ["bell", "--function", "tminus", "--order", "14"],
        ["bell", "--function", "xi", "--order", "200"],
        ["bell", "--function", "tminus", "--order", "200"],
        ["link", "--order", "300"],
    ],
)
def test_bell_path_past_order_13_prints_real_numbers(runner, args):
    # the Newton recurrence carries no factorial, so no order overflows
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0
    assert _assert_numbers(result.output) == int(args[-1]) + 1


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
    assert _assert_numbers(result.output) == 10


def test_precision_report_appended(runner):
    result = runner.invoke(
        main,
        ["sumrule", "--function", "xi", "--m", "3..4", "--precision-report"],
    )
    assert result.exit_code == 0
    assert "# max |difference|" in result.output
