"""Deterministic command-line front end.

Commands
    eval       log f_n(1/y) with truncation diagnostics
    solve      both saddle roots and their gap quantities
    approx     approximation ingredients only (no evaluation; any n)
    compare    full comparison rows: f_n against both approximations
    quadcheck  quadrature oracles vs exact values, nonzero exit on drift
    monotone   exact certificate of iterated-difference positivity (JSON)

Output is byte-identical across runs for a fixed configuration: number
formatting depends only on the precision, grids are resolved up front,
and rows are emitted in ascending n.

Exit codes: 0 ok, 2 usage error, 3 domain error, 4 quadcheck tolerance
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, TextIO, Tuple, Union

from mpmath import mp, mpf

from . import __version__
from .asymptotics import approx_theorem, approximation_summary
from .numerics import (
    PRECISION_BITS_CAP,
    LacunaryError,
    PrecisionContext,
    as_real,
    brief,
    require_n,
)
from .polyeval import certify_absolute_monotonicity, eval_exact, eval_log
from .quadrature import DEFAULT_TARGET_EPS, integrate_original, integrate_shifted
from .solvers import residual_relations

DEFAULT_BITS = 128
BITS_ENV_VAR = "LACUNARY_BITS"

# quadcheck's n gate, sized for the default 128-bit precision
QUADCHECK_N_CAP = 60

# Most --n-factor steps a geometric grid may take: the work budget that
# keeps a factor close to 1 from looping for hours.
GRID_STEP_CAP = 10_000

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_TOLERANCE = 4

COMPARE_FIELDS = [
    "n",
    "y",
    "log_f",
    "w",
    "r",
    "w_minus_r",
    "log_bdm",
    "log_thm_prefactor",
    "theta_factor",
    "rho",
    "ratio_bdm",
    "ratio_thm",
]


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    y_raw: str
    y: Union[Fraction, Decimal]
    n_values: Tuple[int, ...]
    bits: int
    output_format: str
    output_path: Optional[str]
    N: Optional[int] = None
    R: Optional[int] = None

    @functools.cached_property
    def ctx(self) -> PrecisionContext:
        return PrecisionContext(bits=self.bits)


@functools.lru_cache(maxsize=None)
def _fixed_range(prec: int) -> Tuple[mpf, mpf]:
    """The bounds 1e-4 and 1e6 of fixed-point output, rounded at prec bits."""
    with mp.workprec(prec):
        return mpf("1e-4"), mpf("1e6")


def _format_real(x: mpf, sig: int) -> str:
    """Decimal with sig significant digits; fixed inside [1e-4, 1e6], the
    bounds rounded at the working precision."""
    if mp.isnan(x):
        return "nan"
    if mp.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0:
        return "0.0"
    lo, hi = _fixed_range(mp.prec)
    if lo <= abs(x) <= hi:
        return mp.nstr(x, sig, min_fixed=-(10**9), max_fixed=10**9)
    return mp.nstr(x, sig, min_fixed=0, max_fixed=0)


def _sig_digits(bits: int) -> int:
    return int(bits * math.log10(2)) - 2


def _resolve_n_grid(args: argparse.Namespace, floor: int) -> Tuple[int, ...]:
    has_list = args.n is not None
    has_range = args.n_from is not None or args.n_to is not None
    if has_list and has_range:
        raise UsageError("--n and --n-from/--n-to are mutually exclusive")
    if has_list:
        try:
            values = [int(part) for part in args.n.split(",") if part.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --n list {brief(args.n)}") from exc
        if not values:
            raise UsageError("--n list is empty")
    elif has_range:
        if args.n_from is None or args.n_to is None:
            raise UsageError("--n-from and --n-to must be given together")
        factor, n_from, n_to = args.n_factor, args.n_from, args.n_to
        if not (math.isfinite(factor) and factor > 1):
            raise UsageError("--n-factor must be a finite number above 1")
        if not 1 <= n_from <= n_to <= sys.float_info.max:
            raise UsageError("need 1 <= --n-from <= --n-to <= 1.8e308")
        if math.log(n_to / n_from) / math.log(factor) > GRID_STEP_CAP:
            raise UsageError(f"n grid longer than {GRID_STEP_CAP} steps; raise --n-factor")
        # the walk is in floats; beyond 2^53 float(n_from) can round off n_from
        values, current = [n_from], float(n_from) * factor
        while math.isfinite(current) and round(current) <= n_to:
            values.append(max(round(current), n_from))
            current *= factor
    else:
        raise UsageError("one of --n or --n-from/--n-to is required")
    for v in values:
        if v < floor:
            raise UsageError(f"n={v} out of range (minimum {floor})")
    return tuple(sorted(set(values)))


def _resolve_bits(args: argparse.Namespace) -> int:
    if args.bits is not None:
        bits = args.bits
    elif os.environ.get(BITS_ENV_VAR):
        try:
            bits = int(os.environ[BITS_ENV_VAR])
        except ValueError as exc:
            raise UsageError(
                f"bad {BITS_ENV_VAR} value {brief(os.environ[BITS_ENV_VAR])}"
            ) from exc
    else:
        bits = DEFAULT_BITS
    if not 53 <= bits <= PRECISION_BITS_CAP:
        raise UsageError(f"precision must be from 53 to {PRECISION_BITS_CAP} bits")
    return bits


def _eval_cells(config: RunConfig, n: int) -> Dict[str, object]:
    logv, report = eval_log(n, config.y, config.ctx)
    return {
        "log_f": logv.log_magnitude,
        "terms_used": report.terms_used,
        "omitted_tail_bound": report.omitted_tail_bound,
    }


def _solve_cells(config: RunConfig, n: int) -> Dict[str, object]:
    return vars(residual_relations(n, config.y, config.ctx))


def _approx_cells(config: RunConfig, n: int) -> Dict[str, object]:
    return vars(approximation_summary(n, config.y, config.ctx))


def _compare_cells(config: RunConfig, n: int) -> Dict[str, object]:
    rec = approx_theorem(n, config.y, config.ctx)
    with config.ctx.prec():
        gap = rec.w - rec.r
    return {**vars(rec), "log_f": rec.log_exact.log_magnitude, "w_minus_r": gap}


def _quadcheck_cells(config: RunConfig, n: int) -> Dict[str, object]:
    require_n(n, cap=QUADCHECK_N_CAP, cap_code="quad-cap")
    ctx = config.ctx
    tol = mpf(DEFAULT_TARGET_EPS)
    exact = eval_exact(n, config.y)
    orig = integrate_original(n, config.y, ctx)
    shift = integrate_shifted(n, config.y, ctx)
    with ctx.prec():
        f = as_real(exact)
        dev_o = abs(orig.value - f) / f
        dev_s = abs(shift.value - f) / f
        dev_x = abs(orig.value - shift.value) / f
    return {
        "f_exact": f,
        "dev_original": dev_o,
        "dev_shifted": dev_s,
        "dev_cross": dev_x,
        "status": "ok" if dev_o <= tol and dev_s <= tol else "FAIL",
    }


# The one description of every command, read by the parser, parse_config and
# run(): its help line and, for a row command, its output fields, the cells of
# one n and the smallest n it takes; monotone has no rows but a certificate.
# A row's y cell is the configured y unless the cells carry their own (the
# rounded y of a record).
class Command(NamedTuple):
    help: str
    fields: Sequence[str] = ()
    cells: Optional[Callable[[RunConfig, int], Dict[str, object]]] = None
    n_min: int = 1


_COMMANDS: Dict[str, Command] = {
    "eval": Command(
        "evaluate log f_n(1/y)",
        ("n", "y", "log_f", "terms_used", "omitted_tail_bound"),
        _eval_cells,
    ),
    "solve": Command(
        "saddle roots w(n), r(n) and gaps",
        ("n", "y", "w", "r", "w_minus_r", "w2_minus_r2", "w_over_r"),
        _solve_cells,
    ),
    "approx": Command(
        "approximation ingredients (no evaluation)",
        ("n", "y", "w", "r", "log_bdm", "log_thm_prefactor", "theta_factor", "rho"),
        _approx_cells,
    ),
    "compare": Command("f_n against both approximations", COMPARE_FIELDS, _compare_cells),
    "quadcheck": Command(
        "quadrature oracles vs exact values",
        ("n", "y", "f_exact", "dev_original", "dev_shifted", "dev_cross", "status"),
        _quadcheck_cells,
        n_min=0,
    ),
    "monotone": Command("exact difference-positivity certificate"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacunary-asym",
        description="High-precision diagnostics for the lacunary family f_n(1/y).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--y", required=True, help="base y (decimal or p/q), y > 1")
        if command.cells:
            p.add_argument("--n", help="comma-separated n values")
            p.add_argument("--n-from", type=int, help="geometric grid start")
            p.add_argument("--n-to", type=int, help="geometric grid end (inclusive)")
            p.add_argument(
                "--n-factor",
                type=float,
                default=10.0,
                help="geometric grid ratio (default 10)",
            )
            formats = ["csv", "json", "table"]
        else:
            p.add_argument("--N", type=int, required=True, help="max n")
            p.add_argument("--R", type=int, required=True, help="max difference order")
            formats = ["json"]
        p.add_argument("--bits", type=int, help="mantissa bits of row values (default 128)")
        p.add_argument("--format", dest="output_format", choices=formats, default=formats[-1])
        p.add_argument("--out", dest="output_path", help="write to file instead of stdout")
    return parser


# Built once: parse_args leaves a parser as it found it.
_PARSER = _build_parser()


def parse_config(argv: Sequence[str]) -> RunConfig:
    args = _PARSER.parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        # --y is only parsed here: a Decimal compares with 1 without building
        # 10^exponent (1.4 s for 1e2999999), and the library prices it
        if "/" in args.y:
            y = Fraction(args.y)
        else:
            y = Decimal(args.y)
            if not y.is_finite():
                raise ValueError("not finite")
    except (ValueError, ArithmeticError) as exc:
        raise UsageError(f"cannot parse rational number {brief(args.y)}") from exc
    if y <= 1:
        raise UsageError("y must exceed 1")
    bits = _resolve_bits(args)
    if not command.cells and (args.N < 0 or args.R < 0):
        raise UsageError("--N and --R must be non-negative")
    return RunConfig(
        command=args.command,
        y_raw=args.y,
        y=y,
        n_values=_resolve_n_grid(args, command.n_min) if command.cells else (),
        bits=bits,
        output_format=args.output_format,
        output_path=args.output_path,
        N=getattr(args, "N", None),
        R=getattr(args, "R", None),
    )


def _format_cell(value: object, sig: int) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return _format_real(value, sig)


def _emit_csv(fields: Sequence[str], rows: List[Dict[str, str]], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([row[f] for f in fields])


def _emit_table(fields: Sequence[str], rows: List[Dict[str, str]], stream: TextIO) -> None:
    widths = {f: max(len(f), *(len(r[f]) for r in rows)) if rows else len(f) for f in fields}
    stream.write("  ".join(f.ljust(widths[f]) for f in fields).rstrip() + "\n")
    for row in rows:
        stream.write(
            "  ".join(row[f].ljust(widths[f]) for f in fields).rstrip() + "\n"
        )


def _config_echo(config: RunConfig) -> Dict[str, object]:
    echo: Dict[str, object] = {
        "command": config.command,
        "y": config.y_raw,
        "bits": config.bits,
        "format": config.output_format,
    }
    if config.N is not None:
        echo["N"] = config.N
        echo["R"] = config.R
    else:
        echo["n"] = list(config.n_values)
    return echo


def _json_text(config: RunConfig, key: str, body: object) -> str:
    payload = {"config": _config_echo(config), key: body, "tool_version": __version__}
    return json.dumps(payload, indent=2) + "\n"


def _digits(value: int) -> str:
    """Decimal digits of an integer; unlike str(), not capped at
    sys.get_int_max_str_digits() (4300 by default)."""
    return str(Decimal(value))


# A certificate entry as json.dumps(indent=2) lays it out at its depth in the
# payload; its fields are ints and digit strings, so nothing needs escaping.
_ENTRY = '      {\n        "n": %d,\n        "r": %d,\n        "value": "%s/%s"\n      }'
_ENTRIES_SLOT = '"entries": "@entries@"'


def _run_monotone(config: RunConfig, stream: TextIO) -> int:
    cert = certify_absolute_monotonicity(config.N, config.R, config.y)
    dens: Dict[int, str] = {}  # the digits of p^C(m,2), the denominator at n + r = m
    entries = []
    for e in cert.entries:
        m = e.n + e.r
        if m not in dens:
            dens[m] = _digits(e.value.denominator)
        entries.append(_ENTRY % (e.n, e.r, _digits(e.value.numerator), dens[m]))
    certificate = {
        "y": config.y_raw,
        "N": cert.N,
        "R": cert.R,
        "entries": "@entries@",
        "verified_against_telescoping": True,
        "all_positive": True,
    }
    # the slot occurs once: every quote inside a JSON string is escaped
    head, tail = _json_text(config, "certificate", certificate).split(_ENTRIES_SLOT)
    stream.write(f'{head}"entries": [\n')
    stream.write(",\n".join(entries))
    stream.write(f"\n    ]{tail}")
    return EXIT_OK


def run(config: RunConfig, stream: TextIO) -> int:
    command = _COMMANDS[config.command]
    if not command.cells:
        return _run_monotone(config, stream)
    sig = _sig_digits(config.bits)
    with config.ctx.prec():
        ystr = _format_real(as_real(config.y), sig)
    rows = []
    for n in config.n_values:
        cells = {"n": n, "y": ystr, **command.cells(config, n)}
        rows.append({f: _format_cell(cells[f], sig) for f in command.fields})
    if config.output_format == "csv":
        _emit_csv(command.fields, rows, stream)
    elif config.output_format == "json":
        stream.write(_json_text(config, "rows", rows))
    else:
        _emit_table(command.fields, rows, stream)
    if any(row.get("status") == "FAIL" for row in rows):
        return EXIT_TOLERANCE
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if config.output_path:
            with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
                return run(config, fh)
        return run(config, sys.stdout)
    except LacunaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entrypoint() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``| head``).  Point stdout at devnull so the
        # interpreter's final flush cannot fail again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
