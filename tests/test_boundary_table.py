"""What the input boundary decides for y, pinned as one table.

Every public callable that takes y, and every CLI command, meets the same
row of y values: non-finite and non-positive reals, 1, decimals whose
exponent or digit count passes exact mode's bit budget, decimals just above
1, p/q strings, junk, and the non-string types a caller may pass.  Each
cell records whether the call answered (``ok``) or the code of the
DomainError it raised; a CLI cell records the exit status.  A change to
how y is read shows up here as a changed cell.
"""

import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from lacunary_asym import (
    DomainError,
    PrecisionContext,
    approx_bdm,
    approx_theorem,
    approximation_summary,
    certify_absolute_monotonicity,
    cli,
    eval_exact,
    eval_float,
    eval_log,
    forward_difference,
    gaussian_fourier,
    integrand_original,
    integrate_original,
    integrate_shifted,
    proof_residuals,
    psi_exp,
    residual_relations,
    rho,
    saddle_data,
    solve_r,
    solve_w,
)

N = 5
DEFAULT = PrecisionContext()

# (row key, y), the rows of both tables.  The float callables run at 128
# bits, but at the bits after "@" for the last rows.  y = 1 + 1e-43 rounds
# to 1 at 53 bits plus the solvers' or the quadrature's guard bits; at
# y = 1 + 1e-310 and 1024 bits log y is below the smallest normal float.
Y_ROWS = [
    ("nan", math.nan),
    ("+inf", math.inf),
    ("-inf", -math.inf),
    ("0", 0),
    ("-2", -2),
    ("1", 1),
    ("'0.5'", "0.5"),
    ("1e+1e9", "1e1000000000"),
    ("1e-1e9", "1e-1000000000"),
    ("1e+3e6", "1e2999999"),
    ("1e-3e6", "1e-2999999"),
    ("-1e+3e6", "-1e2999999"),
    ("1+1e-5001", "1." + "0" * 5000 + "1"),
    ("1+1e-200001", "1." + "0" * 200_000 + "1"),
    ("'3/2'", "3/2"),
    ("'1/0'", "1/0"),
    ("'x'", "x"),
    ("F(3,2)", Fraction(3, 2)),
    ("2.5", 2.5),
    ("True", True),
    ("mpf(2)", mpf(2)),
    ("mp.e", mp.e),
    ("1j", 1j),
    ("None", None),
    ("sNaN", Decimal("sNaN")),
    ("1+1e-43@53", "1." + "0" * 42 + "1"),
    ("1+1e-310@1024", "1." + "0" * 309 + "1"),
]

# the columns of LIBRARY_TABLE
LIBRARY = {
    "flt": lambda y, ctx: eval_float(N, y, ctx),
    "log": lambda y, ctx: eval_log(N, y, ctx),
    "exa": lambda y, ctx: eval_exact(N, y),
    "fwd": lambda y, ctx: forward_difference(N, 1, y),
    "cert": lambda y, ctx: certify_absolute_monotonicity(3, 3, y),
    "w": lambda y, ctx: solve_w(N, y, ctx),
    "r": lambda y, ctx: solve_r(N, y, ctx),
    "rel": lambda y, ctx: residual_relations(N, y, ctx),
    "sum": lambda y, ctx: approximation_summary(N, y, ctx),
    "thm": lambda y, ctx: approx_theorem(N, y, ctx),
    "bdm": lambda y, ctx: approx_bdm(N, y, ctx),
    "rho": lambda y, ctx: rho(N, y, ctx),
    "sad": lambda y, ctx: saddle_data(N, y, ctx=ctx),
    "prf": lambda y, ctx: proof_residuals(N, y, ctx),
    "pt": lambda y, ctx: integrand_original(0.1, N, y, ctx),
    "psi": lambda y, ctx: psi_exp(0.1, N, y, 1, ctx),
    "io": lambda y, ctx: integrate_original(N, y, ctx),
    "is": lambda y, ctx: integrate_shifted(N, y, ctx),
    "gf": lambda y, ctx: gaussian_fourier(2, y, ctx),
}

# the columns of CLI_TABLE
COMMANDS = {
    "eval": ["eval", "--n", str(N)],
    "solve": ["solve", "--n", str(N)],
    "approx": ["approx", "--n", str(N)],
    "compare": ["compare", "--n", str(N)],
    "quadcheck": ["quadcheck", "--n", str(N)],
    "monotone": ["monotone", "--N", "3", "--R", "3"],
}

# A library cell is ok (answered) or the DomainError's code, shortened.
SHORT = {
    "y-out-of-domain": "y",
    "exact-bits-exceeded": "bits",
    "quad-work-exceeded": "quad",
    "saddle-hypothesis-violated": "hyp",
}

# flt eval_float, log eval_log, exa eval_exact, fwd forward_difference(n, 1),
# cert certify_absolute_monotonicity(3, 3), w solve_w, r solve_r,
# rel residual_relations, sum approximation_summary, thm approx_theorem,
# bdm approx_bdm, rho rho, sad saddle_data, prf proof_residuals,
# pt integrand_original(0.1), psi psi_exp(0.1, r=1), io integrate_original,
# is integrate_shifted, gf gaussian_fourier(k=2); n = 5
LIBRARY_TABLE = """
y           flt  log  exa  fwd  cert w    r    rel  sum  thm  bdm  rho  sad  prf  pt   psi  io   is   gf
nan         y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y
+inf        y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y
-inf        y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y
0           y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y
-2          y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y
1           y    y    ok   ok   ok   y    y    y    y    y    y    y    y    y    y    y    y    y    y
'0.5'       y    y    ok   ok   ok   y    y    y    y    y    y    y    y    y    y    y    y    y    y
1e+1e9      ok   ok   bits bits bits ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   hyp  quad quad quad
1e-1e9      y    y    bits bits bits y    y    y    y    y    y    y    y    y    y    y    y    y    y
1e+3e6      ok   ok   bits bits bits ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   hyp  quad quad quad
1e-3e6      y    y    bits bits bits y    y    y    y    y    y    y    y    y    y    y    y    y    y
-1e+3e6     y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y
1+1e-5001   ok   ok   ok   ok   ok   y    y    y    y    y    y    y    y    y    y    y    y    y    y
1+1e-200001 ok   ok   bits bits bits y    y    y    y    y    y    y    y    y    y    y    y    y    y
'3/2'       ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok
'1/0'       y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y
'x'         y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y
F(3,2)      ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok
2.5         ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok
True        y    y    ok   ok   ok   y    y    y    y    y    y    y    y    y    y    y    y    y    y
mpf(2)      ok   ok   y    y    y    ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok
mp.e        ok   ok   y    y    y    ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok
1j          y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y
None        y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y
sNaN        y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y    y
1+1e-43@53  ok   ok   ok   ok   ok   y    y    y    y    y    y    y    y    y    y    y    y    y    y
1+1e-310@1024 ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   ok   quad quad quad
"""

# A CLI cell is the exit status: 0 answered, 2 usage, 3 domain; - where
# no --y text stands for the value.  The CLI only parses --y and checks
# y > 1; the library decides the rest, so exact mode's size rule reaches
# only monotone and quadcheck (rows 1e+1e9 and 1+1e-200001).
CLI_TABLE = """
y           eval      solve     approx    compare   quadcheck monotone
nan         2         2         2         2         2         2
+inf        2         2         2         2         2         2
-inf        2         2         2         2         2         2
0           2         2         2         2         2         2
-2          2         2         2         2         2         2
1           2         2         2         2         2         2
'0.5'       2         2         2         2         2         2
1e+1e9      0         0         0         0         3         3
1e-1e9      2         2         2         2         2         2
1e+3e6      0         0         0         0         3         3
1e-3e6      2         2         2         2         2         2
-1e+3e6     2         2         2         2         2         2
1+1e-5001   0         3         3         3         3         0
1+1e-200001 0         3         3         3         3         3
'3/2'       0         0         0         0         0         0
'1/0'       2         2         2         2         2         2
'x'         2         2         2         2         2         2
F(3,2)      -         -         -         -         -         -
2.5         0         0         0         0         0         0
True        -         -         -         -         -         -
mpf(2)      -         -         -         -         -         -
mp.e        -         -         -         -         -         -
1j          -         -         -         -         -         -
None        -         -         -         -         -         -
sNaN        2         2         2         2         2         2
1+1e-43@53  0         3         3         3         3         0
1+1e-310@1024 0         0         0         0         3         0
"""


def cli_text(y):
    """The --y text of a y, or None where no text stands for the value."""
    if isinstance(y, bool) or not isinstance(y, (str, int, float, Decimal)):
        return None
    return str(y)


def library_cell(call, y, ctx, capsys) -> str:
    try:
        call(y, ctx)
    except DomainError as exc:
        return SHORT.get(exc.code, exc.code)
    return "ok"


def cli_cell(argv, y, ctx, capsys) -> str:
    text = cli_text(y)
    if text is None:
        return "-"
    status = cli.main([*argv, f"--y={text}", "--bits", str(ctx.bits), "--format", "json"])
    capsys.readouterr()
    return str(status)


def observed(columns, cell, capsys):
    """{(row key, column): (cell, seconds)} for every y row and column."""
    cells = {}
    for key, y in Y_ROWS:
        ctx = PrecisionContext(bits=int(key.split("@")[1])) if "@" in key else DEFAULT
        for name, case in columns.items():
            start = time.perf_counter()
            value = cell(case, y, ctx, capsys)
            cells[key, name] = value, time.perf_counter() - start
    return cells


def expected(table, columns):
    """{(row key, column): cell} read from a table."""
    header, *lines = [line.split() for line in table.strip().splitlines()]
    assert header[1:] == list(columns)
    assert [line[0] for line in lines] == [key for key, _ in Y_ROWS]
    return {(line[0], name): c for line in lines for name, c in zip(header[1:], line[1:])}


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize(
    "table, columns, cell",
    [(LIBRARY_TABLE, LIBRARY, library_cell), (CLI_TABLE, COMMANDS, cli_cell)],
    ids=["library", "cli"],
)
def test_every_y_reader_decides_as_the_table_says(table, columns, cell, capsys):
    want = expected(table, columns)
    got = observed(columns, cell, capsys)
    diffs = [
        f"{name} at y {key}: {got[key, name][0]}, table {cell}"
        for (key, name), cell in want.items()
        if got[key, name][0] != cell
    ]
    assert diffs == []
    # exact mode read a negative decimal's sign only after building it: 1.2-2 s
    slow = {key: seconds for key, (c, seconds) in got.items() if c not in ("ok", "0")}
    assert max(slow.values()) < 0.5, max(slow, key=slow.get)
