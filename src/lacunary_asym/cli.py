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
import json
import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from mpmath import mp, mpf

from . import __version__
from .asymptotics import approx_theorem, approximation_summary
from .numerics import DomainError, LacunaryError, PrecisionContext, as_real
from .polyeval import certify_absolute_monotonicity, eval_exact, eval_log
from .quadrature import integrate_original, integrate_shifted
from .solvers import residual_relations

DEFAULT_BITS = 128
BITS_ENV_VAR = "LACUNARY_BITS"

# quadcheck gates and target, sized for the default 128-bit precision
QUADCHECK_N_CAP = 60
QUADCHECK_TOL = "1e-20"

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
    y: Fraction
    n_values: Tuple[int, ...]
    bits: int
    output_format: str
    output_path: Optional[str]
    N: Optional[int] = None
    R: Optional[int] = None

    @property
    def ctx(self) -> PrecisionContext:
        return PrecisionContext(bits=self.bits)


def _format_real(x: mpf, sig: int) -> str:
    """Decimal with sig significant digits; fixed inside [1e-4, 1e6]."""
    if mp.isnan(x):
        return "nan"
    if mp.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0:
        return "0.0"
    ax = abs(x)
    if mpf("1e-4") <= ax <= mpf("1e6"):
        return mp.nstr(x, sig, min_fixed=-(10**9), max_fixed=10**9)
    return mp.nstr(x, sig, min_fixed=0, max_fixed=0)


def _sig_digits(bits: int) -> int:
    return int(bits * math.log10(2)) - 2


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational number {text!r}") from exc


def _resolve_n_grid(args: argparse.Namespace) -> Tuple[int, ...]:
    has_list = args.n is not None
    has_range = args.n_from is not None or args.n_to is not None
    if has_list and has_range:
        raise UsageError("--n and --n-from/--n-to are mutually exclusive")
    if has_list:
        try:
            values = [int(part) for part in args.n.split(",") if part.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --n list {args.n!r}") from exc
        if not values:
            raise UsageError("--n list is empty")
    elif has_range:
        if args.n_from is None or args.n_to is None:
            raise UsageError("--n-from and --n-to must be given together")
        factor = args.n_factor
        if factor <= 1:
            raise UsageError("--n-factor must exceed 1")
        values = []
        current = float(args.n_from)
        while round(current) <= args.n_to:
            values.append(int(round(current)))
            current *= factor
        if not values:
            raise UsageError("empty n range")
    else:
        raise UsageError("one of --n or --n-from/--n-to is required")
    floor = 0 if args.command == "quadcheck" else 1
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
                f"bad {BITS_ENV_VAR} value {os.environ[BITS_ENV_VAR]!r}"
            ) from exc
    else:
        bits = DEFAULT_BITS
    if bits < 53:
        raise UsageError("precision must be at least 53 bits")
    return bits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacunary-asym",
        description="High-precision diagnostics for the lacunary family f_n(1/y).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_grid: bool = True) -> None:
        p.add_argument("--y", required=True, help="base y (decimal or p/q), y > 1")
        if with_grid:
            p.add_argument("--n", help="comma-separated n values")
            p.add_argument("--n-from", type=int, help="geometric grid start")
            p.add_argument("--n-to", type=int, help="geometric grid end (inclusive)")
            p.add_argument(
                "--n-factor",
                type=float,
                default=10.0,
                help="geometric grid ratio (default 10)",
            )
        p.add_argument("--bits", type=int, help="mantissa bits (default 128)")
        p.add_argument(
            "--format",
            dest="output_format",
            choices=["csv", "json", "table"],
            default="table",
        )
        p.add_argument("--out", dest="output_path", help="write to file instead of stdout")

    for name, helptext in [
        ("eval", "evaluate log f_n(1/y)"),
        ("solve", "saddle roots w(n), r(n) and gaps"),
        ("approx", "approximation ingredients (no evaluation)"),
        ("compare", "f_n against both approximations"),
        ("quadcheck", "quadrature oracles vs exact values"),
    ]:
        add_common(sub.add_parser(name, help=helptext))

    mono = sub.add_parser("monotone", help="exact difference-positivity certificate")
    mono.add_argument("--y", required=True, help="base y (decimal or p/q), y > 1")
    mono.add_argument("--N", type=int, required=True, help="max n")
    mono.add_argument("--R", type=int, required=True, help="max difference order")
    mono.add_argument("--bits", type=int, help="mantissa bits (unused; accepted)")
    mono.add_argument(
        "--format",
        dest="output_format",
        choices=["json"],
        default="json",
        help="certificates are always JSON",
    )
    mono.add_argument("--out", dest="output_path")
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    args = build_parser().parse_args(argv)
    y = _parse_rational(args.y)
    if y <= 1:
        raise UsageError("y must exceed 1")
    bits = _resolve_bits(args)
    if args.command == "monotone":
        if args.N < 0 or args.R < 0:
            raise UsageError("--N and --R must be non-negative")
        return RunConfig(
            command="monotone",
            y_raw=args.y,
            y=y,
            n_values=(),
            bits=bits,
            output_format="json",
            output_path=args.output_path,
            N=args.N,
            R=args.R,
        )
    n_values = _resolve_n_grid(args)
    return RunConfig(
        command=args.command,
        y_raw=args.y,
        y=y,
        n_values=n_values,
        bits=bits,
        output_format=args.output_format,
        output_path=args.output_path,
    )


def _y_str(config: RunConfig, sig: int) -> str:
    with config.ctx.prec():
        return _format_real(as_real(config.y), sig)


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
    if n > QUADCHECK_N_CAP:
        raise DomainError("quad-cap", f"n={n} above quadcheck cap {QUADCHECK_N_CAP}")
    ctx = config.ctx
    tol = mpf(QUADCHECK_TOL)
    exact = eval_exact(n, config.y)
    orig = integrate_original(n, config.y, ctx, tol)
    shift = integrate_shifted(n, config.y, ctx, tol)
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


# command -> (output fields, cells of one n).  A row's y cell is the
# configured y unless the cells carry their own (the rounded y of a record).
_ROW_COMMANDS: Dict[str, Tuple[List[str], Callable[[RunConfig, int], Dict[str, object]]]] = {
    "eval": (["n", "y", "log_f", "terms_used", "omitted_tail_bound"], _eval_cells),
    "solve": (["n", "y", "w", "r", "w_minus_r", "w2_minus_r2", "w_over_r"], _solve_cells),
    "approx": (
        ["n", "y", "w", "r", "log_bdm", "log_thm_prefactor", "theta_factor", "rho"],
        _approx_cells,
    ),
    "compare": (COMPARE_FIELDS, _compare_cells),
    "quadcheck": (
        ["n", "y", "f_exact", "dev_original", "dev_shifted", "dev_cross", "status"],
        _quadcheck_cells,
    ),
}


def _format_cell(value: object, sig: int) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return _format_real(value, sig)


def _rows(config: RunConfig) -> Tuple[List[str], List[Dict[str, str]]]:
    fields, cells_of = _ROW_COMMANDS[config.command]
    sig = _sig_digits(config.bits)
    ystr = _y_str(config, sig)
    rows = []
    for n in config.n_values:
        cells = {"n": n, "y": ystr, **cells_of(config, n)}
        rows.append({f: _format_cell(cells[f], sig) for f in fields})
    return fields, rows


def _emit_csv(fields: List[str], rows: List[Dict[str, str]], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([row[f] for f in fields])


def _emit_table(fields: List[str], rows: List[Dict[str, str]], stream: TextIO) -> None:
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
    if config.command == "monotone":
        echo["N"] = config.N
        echo["R"] = config.R
    else:
        echo["n"] = list(config.n_values)
    return echo


def _emit_json(
    config: RunConfig, rows: List[Dict[str, str]], stream: TextIO
) -> None:
    payload = {
        "config": _config_echo(config),
        "rows": rows,
        "tool_version": __version__,
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _digits(value: int) -> str:
    """Decimal digits of an integer; unlike str(), not capped at
    sys.get_int_max_str_digits() (4300 by default)."""
    return str(Decimal(value))


def _run_monotone(config: RunConfig, stream: TextIO) -> int:
    cert = certify_absolute_monotonicity(config.N, config.R, config.y)
    rows = [
        {"n": e.n, "r": e.r, "value": f"{_digits(e.value.numerator)}/{_digits(e.value.denominator)}"}
        for e in cert.entries
    ]
    payload = {
        "config": _config_echo(config),
        "certificate": {
            "y": config.y_raw,
            "N": cert.N,
            "R": cert.R,
            "entries": rows,
            "verified_against_telescoping": True,
            "all_positive": True,
        },
        "tool_version": __version__,
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")
    return EXIT_OK


def run(config: RunConfig, stream: TextIO) -> int:
    if config.command == "monotone":
        return _run_monotone(config, stream)
    fields, rows = _rows(config)
    if config.output_format == "csv":
        _emit_csv(fields, rows, stream)
    elif config.output_format == "json":
        _emit_json(config, rows, stream)
    else:
        _emit_table(fields, rows, stream)
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
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
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
