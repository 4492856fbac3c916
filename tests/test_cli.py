"""CLI: artifact formats, exit codes, and determinism."""

import csv
import json
import math
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasums.cli import main
from zetasums.datasets import dataset_rows
from zetasums.special import FunctionId
from zetasums.sumrules import verify_sum_rule

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# the fields that hold text or flags; every other cell or value is a number
_TEXT_FIELDS = {"function", "kind", "condition_met", "pair", "mode"}


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _assert_numbers(output, fmt="csv"):
    """Every cell of a CSV table, or every value of a JSON table or object,
    outside _TEXT_FIELDS reads back as a finite number; returns the number
    of rows."""
    if fmt == "json":
        payload = json.loads(output, parse_constant=_not_json)
        rows = payload.get("rows", [payload])
        for row in rows:
            for key, value in row.items():
                if key not in _TEXT_FIELDS:
                    for v in value if isinstance(value, list) else [value]:
                        assert type(v) in (int, float) and math.isfinite(v), (key, v)
        return len(rows)
    header, *rows = list(csv.reader(line for line in output.splitlines() if line[:1] != "#"))
    for row in rows:
        assert len(row) == len(header)
        for key, cell in zip(header, row):
            if key not in _TEXT_FIELDS:
                assert math.isfinite(float(cell)), (key, cell)
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


@pytest.mark.parametrize("f", ["xi", "tplus", "tminus", "l4c"])
def test_zeros_prints_the_default_dataset(runner, ds_xi, ds_tplus, ds_tminus, ds_l4, f):
    # real-axis rows come from the function table: only T_minus has them
    ds = {"xi": ds_xi, "tplus": ds_tplus, "tminus": ds_tminus, "l4c": ds_l4}[f]
    result = runner.invoke(main, ["zeros", "--function", f])
    assert result.exit_code == 0
    _, *rows = csv.reader(result.stdout.splitlines())
    assert rows == [[str(cell) for cell in row] for row in dataset_rows(ds)]
    assert sum(r[2] == "real_axis" for r in rows) == (2 if f == "tminus" else 0)


@pytest.mark.parametrize("f", ["xi", "tplus", "tminus", "l4c"])
def test_sumrule_prints_numbers_at_every_order(runner, f):
    # the zero route's tail used to form rho^m, which overflows from m = 90
    result = runner.invoke(main, ["sumrule", "--function", f, "--m", "1..511"])
    assert result.exit_code == 0
    assert _assert_numbers(result.stdout) == 511


def test_zeros_csv(runner, tmp_path):
    out = tmp_path / "z.csv"
    result = runner.invoke(
        main,
        ["zeros", "--function", "xi", "--t-max", "30", "--output", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "function,index,kind,t_or_x"
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
        ["zeros", "--function", "xi", "--t-max", "30", "--include-real-axis"],
        ["zeros", "--function", "xi", "--t-max", "30", "--grid-step", "0.02"],
        ["interlace", "--pair", "tminus:xihalf", "--mode", "between"],
    ],
)
def test_options_a_command_ignores_are_usage_errors(runner, args):
    # translate, interlace and ystar always print JSON; these commands write no
    # precision report; zeros reads real-axis zeros and its step from the
    # function table, and interlace takes its mode from the pair
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
        ["translate", "--function", "tminus", "--z0=nan", "--m", "4"],
        ["translate", "--function", "tminus", "--z0=inf", "--m", "4"],
        ["interlace", "--pair", "tminus:xihalf", "--t0", "nan"],
        ["interlace", "--pair", "tminus:xihalf", "--t0", "inf"],
        ["sumrule", "--function", "xi", "--m", "1..2", "--output", "/nonexistent/dir/x.json"],
        ["ystar", "--output", "."],
        # sigma_512 needs more Taylor orders than the 512-point circle holds
        ["keiper", "--function", "xi", "--order", "511"],
        ["link", "--order", "511"],
        ["translate", "--function", "xi", "--z0", "0.1", "--m", "500", "--terms", "40"],
    ],
)
def test_bad_options_are_usage_errors(runner, args):
    # refused before any computation: exit 2 with click's message
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


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


def test_keiper_precision_report_below_order_19(runner):
    # the identity residuals need sigma to order 20; --order 10 used to exit 1
    def run(*args):
        result = runner.invoke(main, ["keiper", "--function", "xi", *args])
        assert result.exit_code == 0, result.output
        return result.output.splitlines()

    report = run("--order", "10", "--precision-report")
    assert report[:-1] == run("--order", "10")
    assert report[-1].startswith("# identity residuals")
    assert report[-1] == run("--order", "19", "--precision-report")[-1]


def test_precision_report_appended(runner):
    result = runner.invoke(
        main,
        ["sumrule", "--function", "xi", "--m", "3..4", "--precision-report"],
    )
    assert result.exit_code == 0
    assert "# max |difference|" in result.output


@pytest.mark.parametrize(
    "f, line",
    [
        ("xi", "# 2004 zeros up to t = 2520.0, density model 2003.9"),
        ("tminus", "# 1517 zeros up to t = 1000.0, density model 1516.1"),
    ],
)
def test_zeros_precision_report_is_the_count_check(runner, ds_xi, ds_tminus, f, line):
    # the line zeros against the density model; T_minus's real-axis zeros are not counted
    result = runner.invoke(main, ["zeros", "--function", f, "--precision-report"])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[-1] == line


# ---------------------------------------------------------------------------
# fuzzed options: cheap valid values, with at most one option set to an edge

_EDGES = ["nan", "inf", "-inf", "0", "-1", "-1e300", "1e300", "1e-300", str(10**30), "x", ""]
_FUNCTION = st.sampled_from(["xi", "tplus", "tminus", "l4c"])
_FORMAT = st.sampled_from(["csv", "json"])


def _real(lo, hi):
    return st.floats(lo, hi).map(repr)


def _command(name, valid, extra_edges=()):
    """Arguments of one command: each option --key=value drawn from valid[key],
    then none or one of them replaced by an edge value (nan, +-inf, 0,
    negative, huge, not a number)."""
    edge = st.sampled_from(_EDGES + list(extra_edges))
    return st.tuples(st.fixed_dictionaries(valid), st.sampled_from([None, *valid]), edge).map(
        lambda t: [name] + [f"--{k}={t[2] if k == t[1] else v}" for k, v in t[0].items()]
    )


_ORDERS = st.integers(1, 40) | st.sampled_from([300, 510])
_FUZZ = {
    "zeros": _command("zeros", {"function": _FUNCTION, "t-max": _real(1e-3, 50.0), "format": _FORMAT}),
    "sumrule": _command(
        "sumrule",
        {
            "function": _FUNCTION,
            "m": st.tuples(st.integers(1, 511) | st.sampled_from([90, 200, 491]), st.integers(0, 20)).map(
                lambda t: f"{t[0]}..{t[0] + t[1]}"
            ),
            "format": _FORMAT,
        },
        ["600", "-3..2", "6..3", "1..2..3"],
    ),
    "keiper": _command("keiper", {"function": _FUNCTION, "order": _ORDERS, "format": _FORMAT}, ["512"]),
    "bell": _command("bell", {"function": _FUNCTION, "order": _ORDERS, "format": _FORMAT}, ["512"]),
    "link": _command("link", {"order": _ORDERS, "format": _FORMAT}, ["512"]),
    "translate": _command(
        "translate",
        {
            "function": _FUNCTION,
            "z0": st.complex_numbers(max_magnitude=0.3).map(repr),
            "m": st.integers(1, 40),
            "terms": st.integers(1, 40),
        },
        ["nan+1j", "1e300j", "3+3j", "12"],
    ),
    "interlace": _command(
        "interlace",
        {"pair": st.sampled_from(["tminus:xihalf", "tplus:xihalf"]), "n": st.integers(1, 1600), "t0": _real(-0.2, 0.2)},
    ),
    "rhscan": _command(
        "rhscan",
        {"range": st.integers(0, 1999).map(lambda k: f"{k / 2}..{k / 2 + 0.5}"), "format": _FORMAT},
        ["nan..5", "5..1", "5..5", "-5..-4", "-1e300..5", "0..1e300", "990..1010"],
    ),
    "ystar": _command("ystar", {"resolution": _real(1e-20, 1.0)}),
}


def test_fuzz_covers_every_command():
    assert set(_FUZZ) == set(main.commands)


# windows whose triplets the V' search misses warn; that is their result, not a failure
@pytest.mark.filterwarnings("ignore::zetasums.errors.NonConvergenceWarning")
@pytest.mark.parametrize("command", sorted(_FUZZ))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_options_end_in_a_result_or_an_error(command, data):
    # exit 0 prints finite numbers, exit 1 a JSON error, exit 2 a usage error;
    # never a traceback
    args = data.draw(_FUZZ[command])
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), (args, result.exception)
    assert "Traceback" not in result.output, args
    if result.exit_code == 1:
        err = json.loads(result.stderr)
        assert sorted(err) == ["error", "message"], (args, result.stderr)
    elif result.exit_code == 0:  # only the tables draw --format, and they print CSV by it
        _assert_numbers(result.stdout, "csv" if "--format=csv" in args else "json")
