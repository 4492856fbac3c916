"""Command-line front end: tables, zero datasets, and experiment runs.

Every subcommand validates its request, computes through the library
modules, and writes a deterministic CSV or JSON artifact to the requested
output (stdout by default). Every number in a table is a float written with
all its digits (repr), so it reads back exactly. Computation failures exit
with status 1 and a machine-readable JSON error on stderr; usage errors exit
with status 2.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple

import click

from . import bell as bell_mod
from . import rhscan as rhscan_mod
from . import sumrules as sr
from . import translate as tr
from .datasets import HEADER, cached_dataset, dataset_rows, default_dataset
from .errors import ZetasumsError
from .special import SPECS, FunctionId
from .zeros import count_check


# --function: one of the functions with a default dataset, passed on as a FunctionId
_function_option = click.option(
    "--function", "f", required=True, callback=lambda ctx, param, value: FunctionId(value),
    type=click.Choice([f.value for f, row in SPECS.items() if row.t_max is not None]),
)


class _FloatRange(click.FloatRange):
    """click.FloatRange that also refuses nan, which passes every comparison,
    and +-inf."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite number", param, ctx)
        return value


class _OutputPath(click.Path):
    """click.Path for the file --output writes: not a directory, and in a
    directory that exists, so that a bad path is refused before any
    computation rather than when the output is opened."""

    def __init__(self):
        super().__init__(dir_okay=False, writable=True)

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        folder = os.path.dirname(os.path.abspath(value))
        if not os.path.isdir(folder):
            self.fail(f"directory {folder!r} does not exist", param, ctx)
        return value


# Highest Taylor order of the circle samples behind every sigma series.
# keiper and link read one order more than --order, translate m + terms.
_MAX_ORDER = sr._RESOLUTION - 1
# Highest zero scan. Its cost grows about as t^2 (the Euler-Maclaurin
# cutoff is t/2 and the grid grows with t): xi to 1e4, 10,142 zeros, takes
# about 11 s on one AMD EPYC core.
_MAX_T = 1e4


def _parse_range(text: str, number=int) -> Tuple:
    """(lo, hi) from "lo..hi", both finite: integers with lo <= hi, where
    "lo" alone stands for "lo..lo", or floats with lo < hi."""
    parts = text.split("..")
    if number is int and len(parts) == 1:
        parts *= 2
    try:
        lo, hi = map(number, parts)
    except ValueError:  # a bad number, or not two of them
        lo = hi = math.nan
    if not (-math.inf < lo <= hi < math.inf and (number is int or lo < hi)):
        raise click.UsageError(f"cannot parse range {text!r}")
    return lo, hi


def _emit(
    rows: Sequence[Sequence],
    header: Sequence[str],
    fmt: str,
    output: Optional[str],
    precision_lines: Optional[List[str]] = None,
) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        if precision_lines:
            for line in precision_lines:
                buf.write(f"# {line}\n")
        text = buf.getvalue()
    else:
        payload = {"rows": [dict(zip(header, row)) for row in rows]}
        if precision_lines:
            payload["precision_report"] = precision_lines
        text = json.dumps(payload, indent=2) + "\n"
    _write(text, output)


def _emit_json(payload: dict, output: Optional[str]) -> None:
    _write(json.dumps(payload, indent=2) + "\n", output)


def _write(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _common(table: bool = True, precision: bool = True):
    """--output, plus --format where the output is a table and
    --precision-report where the command writes one."""

    def options(fn):
        if table:
            fn = click.option(
                "--format",
                "fmt",
                type=click.Choice(["csv", "json"]),
                default="csv",
                show_default=True,
            )(fn)
        fn = click.option("--output", type=_OutputPath(), default=None)(fn)
        if precision:
            fn = click.option("--precision-report", is_flag=True, default=False)(fn)
        return fn

    return options


class _Guarded(click.Group):
    """A group whose commands exit 1 with a JSON error line on stderr when
    the library raises a package error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ZetasumsError as exc:
            click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc)}), err=True)
            sys.exit(1)


@click.group(cls=_Guarded)
def main() -> None:
    """Zeros and zero-power sum rules for Riemann-zeta-type functions."""


@main.command()
@_function_option
@click.option(
    "--t-max", type=_FloatRange(min=0.0, max=_MAX_T, min_open=True), default=None,
    help="scan height (default per function)",
)
@_common()
def zeros(f, t_max, fmt, output, precision_report):
    """Critical-line zero dataset, with the real-axis zeros of a function that has them."""
    if t_max is None:
        t_max = SPECS[f].t_max
    ds = cached_dataset(f, t_max, None, bool(SPECS[f].real_axis))
    extra = None
    if precision_report:
        observed, predicted = count_check(ds)
        extra = [f"{observed} zeros up to t = {ds.t_max_scanned}, density model {predicted:.1f}"]
    _emit(dataset_rows(ds), HEADER, fmt, output, extra)


@main.command()
@_function_option
@click.option("--m", "m_text", default="1..6", show_default=True)
@_common()
def sumrule(f, m_text, fmt, output, precision_report):
    """Power sums over zeros: derivative route vs zero route."""
    lo, hi = _parse_range(m_text)
    m_range = list(range(lo, hi + 1))
    ds = default_dataset(f)
    table = sr.verify_sum_rule(f, ds, m_range)
    rows = [(m, float(lhs), float(rhs), float(diff)) for m, lhs, rhs, diff in table]
    extra = (
        [f"max |difference| {max(abs(d) for *_, d in table):.3e}"]
        if precision_report
        else None
    )
    _emit(rows, ["m", "derivative_route", "zero_route", "difference"], fmt, output, extra)


@main.command()
@_function_option
@click.option("--order", type=click.IntRange(1, _MAX_ORDER - 1), default=30, show_default=True)
@_common()
def keiper(f, order, fmt, output, precision_report):
    """tau and lambda coefficients from the sigma series."""
    # the identity residuals need sigma to order 20; the rows read only order + 1
    sig = sr.sigma_series_derivative(f, max(order + 1, 20))
    kc = sr.tau_lambda_from_sigma(sig, order)
    rows = [(k, float(kc.tau[k].real), float(kc.lam[k + 1].real)) for k in range(order)]
    extra = None
    if precision_report:
        r1, r2, r3 = sr.keiper_identity_residuals(sig)
        extra = [f"identity residuals {r1:.3e} {r2:.3e} {r3:.3e}"]
    _emit(rows, ["k", "tau_k", "lambda_k_plus_1"], fmt, output, extra)


@main.command()
@_function_option
@click.option("--order", type=click.IntRange(0, _MAX_ORDER), default=8, show_default=True)
@_common(precision=False)
def bell(f, order, fmt, output):
    """Taylor coefficients rebuilt from the sigma series by Newton's identities."""
    sig = sr.sigma_series_derivative(f, order)
    ps = bell_mod.series_from_sigma(sig, order)
    rows = [(k, float(ps.coeffs[k].real)) for k in range(order + 1)]
    _emit(rows, ["k", "coefficient"], fmt, output)


@main.command()
@click.option("--order", type=click.IntRange(0, _MAX_ORDER - 1), default=10, show_default=True)
@_common()
def link(order, fmt, output, precision_report):
    """Cross-function linkage residuals (xi vs T-tilde pair)."""
    reports = bell_mod.verify_link3(order)
    rows = [(r.order, float(r.lhs_coeff), float(r.rhs_coeff), float(r.residual)) for r in reports]
    extra = (
        [f"max residual {max(r.residual for r in reports):.3e}"]
        if precision_report
        else None
    )
    _emit(rows, ["k", "lhs", "rhs", "residual"], fmt, output, extra)


@main.command()
@_function_option
@click.option("--z0", type=str, required=True, help="complex center, e.g. 0.1+0.05j")
@click.option("--m", type=click.IntRange(1, _MAX_ORDER), required=True)
@click.option("--terms", type=click.IntRange(1, _MAX_ORDER), default=40, show_default=True)
@_common(table=False, precision=False)
def translate(f, z0, m, terms, output):
    """Translated zero-power sum at z0, both routes."""
    try:
        center = complex(z0)
        if not cmath.isfinite(center):
            raise ValueError
    except ValueError:
        raise click.UsageError(f"{z0!r} is not a finite complex number")
    if m + terms > _MAX_ORDER:
        raise click.UsageError(f"--m plus --terms must be at most {_MAX_ORDER}, got {m + terms}")
    sig = sr.sigma_series_derivative(f, m + terms)
    via_series = tr.translated_sigma_series(sig, center, m, terms)
    via_direct = tr.translated_sigma_direct(SPECS[f].series, center, m)
    payload = {
        "function": f.value,
        "z0": [center.real, center.imag],
        "m": m,
        "series_route": [via_series.value.real, via_series.value.imag],
        "derivative_route": [via_direct.value.real, via_direct.value.imag],
        "route_difference": abs(via_series.value - via_direct.value),
    }
    _emit_json(payload, output)


@main.command()
@click.option(
    "--pair",
    type=click.Choice(["tminus:xihalf", "tplus:xihalf"]),
    required=True,
)
@click.option("--n", "n_check", type=click.IntRange(min=1), default=1500, show_default=True)
@click.option("--t0", type=_FloatRange(), default=0.0, show_default=True)
@_common(table=False, precision=False)
def interlace(pair, n_check, t0, output):
    """Interlacing failures between a zero sequence and half-shifted xi zeros:
    T_minus zeros between them, T_plus zeros after them."""
    a_name = pair.split(":")[0]
    mode = "between" if a_name == "tminus" else "after"
    a = default_dataset(FunctionId(a_name)).ordinates()
    b = tr.xi_halfshift_ordinates(default_dataset(FunctionId.XI))
    report = tr.interlacing_report(
        a, b, mode, t0=t0, n_check=n_check, pair=(a_name, "xihalf")
    )
    _emit_json(report.as_dict(), output)


@main.command()
@click.option("--range", "range_text", required=True, help="t range, e.g. 410..420")
@_common(precision=False)
def rhscan(range_text, fmt, output):
    """Derivative zeros of V and the modulus condition over a t range."""
    t_lo, t_hi = _parse_range(range_text, float)
    reports = rhscan_mod.find_derivative_zeros(t_lo, t_hi)
    rows = [
        (
            float(r.centroid_t),
            float(r.s_d.real),
            float(r.s_d.imag),
            float(r.modulus),
            r.triplet_kind,
            r.condition_met,
        )
        for r in reports
    ]
    _emit(
        rows,
        ["t_centroid", "re_s_d", "im_s_d", "modulus", "kind", "condition_met"],
        fmt,
        output,
    )


@main.command()
@click.option(
    "--resolution", type=_FloatRange(min=0.0, min_open=True), default=1e-4, show_default=True
)
@_common(table=False, precision=False)
def ystar(resolution, output):
    """Collision parameter y* of the two-term xi_1 family."""
    value = rhscan_mod.lagarias_suzuki_y_star(resolution)
    _emit_json({"y_star": value, "resolution": resolution}, output)


if __name__ == "__main__":
    main()
