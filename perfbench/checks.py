"""Output checks: reference digests and cheap independent cross-checks.

Every check runs outside the timed region, once per distinct operation.

- Reference digests: a SHA-256 prefix of each operation's output,
  recorded by record_reference.py at a known-good commit for seeds 0-9.
  The CLI output must match byte for byte and eval_exact must return the
  same Fraction.
- Cross-checks, for any seed:
  * log f (eval and compare rows) against a float64 walk of the terms
    C(n,k) y^-C(k,2), and, for n <= SMALL_EXACT_N, against
    log(eval_exact) within 16 eps;
  * the roots w and r (solve, approx and compare rows) against their
    defining equations;
  * quadcheck exit 0 with every row "ok";
  * monotone certificates flagged as verified against telescoping, with
    (N+1)(R+1) positive entries;
  * library eval_exact against eval_log within 16 eps.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from mpmath import mp, mpf

from workloads import Op

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# eval_exact below this n costs at most a few ms, cheap enough to check
# every small-n row of a sweep against the exact rational.
SMALL_EXACT_N = 200

# The float64 walk of log f is good to ~1e-12 relative; this catches any
# wrong leading digit without flagging float round-off.
FLOAT_LOG_RTOL = 1e-9

# Relative residual for roots printed with 36 significant digits.
ROOT_RTOL = mpf("1e-30")

# Tolerance unit of the default PrecisionContext: 2^(guard - bits) = 2^(16 - 128).
EPS = mpf(2) ** -112
EPS_FACTOR = 16


def digest(output) -> str:
    """64-bit SHA-256 prefix of an output: CLI text, or a Fraction in hex."""
    if isinstance(output, Fraction):
        output = f"{output.numerator:x}/{output.denominator:x}"
    return hashlib.sha256(output.encode()).hexdigest()[:16]


def pool_digest(ops: Sequence[Op]) -> str:
    """Digest of a pool's operations, so references match only their pool."""
    return digest("\n".join(op.label for op in ops))


def load_reference(workload: str, seed: int) -> Optional[Dict[str, object]]:
    """{"pool": pool digest, "outputs": [digest, ...]} for this seed, or None."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def _option(argv: Sequence[str], name: str, default: Optional[str] = None) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else default


def parse_rows(text: str, fmt: str) -> List[Dict[str, str]]:
    if fmt == "json":
        return json.loads(text)["rows"]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    header, *lines = text.splitlines()
    fields = header.split()
    return [dict(zip(fields, line.split())) for line in lines]


def float_log_f(n: int, y: Fraction) -> float:
    """log f_n(1/y) by a float64 walk of log C(n,k) - C(k,2) log y.

    log C(n,k) is accumulated from log((n-j)/(j+1)), which stays accurate
    at n = 1e15 where lgamma differences cancel catastrophically.  The
    walk stops past the peak (term ratios only fall) once terms drop below
    e^-70 of the sum.
    """
    log_y = math.log1p(float(y - 1))
    log_term = 0.0
    total = 0.0
    for k in range(n):
        step = math.log((n - k) / (k + 1)) - k * log_y
        log_term += step
        hi, lo = max(total, log_term), min(total, log_term)
        total = hi + math.log1p(math.exp(lo - hi))
        if step < 0 and log_term < total - 70:
            break
    return total


def _log_exact(value: Fraction) -> mpf:
    return mp.log(mpf(value.numerator)) - mp.log(mpf(value.denominator))


def _check_log_f(n: int, y: Fraction, log_f: mpf, problems: List[str], exact=None) -> None:
    approx = float_log_f(n, y)
    if abs(float(log_f) - approx) > FLOAT_LOG_RTOL * max(1.0, abs(approx)):
        problems.append(f"log_f {log_f} vs float walk {approx!r} at n={n}")
    if exact is not None:
        tol = EPS_FACTOR * EPS * max(1, abs(log_f))
        if abs(log_f - _log_exact(exact)) > tol:
            problems.append(f"log_f {log_f} vs log(eval_exact) at n={n}")


def _check_roots(n: int, y: Fraction, row: Dict[str, str], problems: List[str]) -> None:
    ym = mpf(y.numerator) / y.denominator
    rhs = n * mp.sqrt(ym) * mp.log(ym)
    w, r = mpf(row["w"]), mpf(row["r"])
    if abs(w * mp.exp(w) - rhs) > ROOT_RTOL * rhs:
        problems.append(f"w={row['w']} misses w e^w = n sqrt(y) log y at n={n}")
    if abs(r * (mp.exp(r) + mp.sqrt(ym)) - rhs) > ROOT_RTOL * rhs:
        problems.append(f"r={row['r']} misses the shifted equation at n={n}")


def _check_cli(argv: Sequence[str], status: int, text: str, eval_exact) -> List[str]:
    command = argv[0]
    if status != 0:
        return [f"exit status {status}"]
    y = Fraction(_option(argv, "--y"))
    if command == "monotone":
        cert = json.loads(text)["certificate"]
        N, R = int(_option(argv, "--N")), int(_option(argv, "--R"))
        problems = []
        if not (cert["verified_against_telescoping"] and cert["all_positive"]):
            problems.append("certificate not verified")
        if len(cert["entries"]) != (N + 1) * (R + 1):
            problems.append(f"{len(cert['entries'])} entries, expected {(N + 1) * (R + 1)}")
        if any(Fraction(e["value"]) <= 0 for e in cert["entries"]):
            problems.append("non-positive certificate entry")
        return problems
    rows = parse_rows(text, _option(argv, "--format", "table"))
    expected_n = sorted({int(v) for v in _option(argv, "--n").split(",")})
    if [int(row["n"]) for row in rows] != expected_n:
        return [f"rows for n={[row['n'] for row in rows]}, expected {expected_n}"]
    problems = []
    with mp.workprec(160):
        for row in rows:
            n = int(row["n"])
            if command == "quadcheck" and row["status"] != "ok":
                problems.append(f"quadcheck row n={n} status {row['status']}")
            if command in ("eval", "compare"):
                exact = eval_exact(n, y) if n <= SMALL_EXACT_N else None
                _check_log_f(n, y, mpf(row["log_f"]), problems, exact)
            if command in ("solve", "approx", "compare"):
                _check_roots(n, y, row, problems)
    return problems


def check(op: Op, status: int, output, eval_exact, eval_log) -> List[str]:
    """Problems found in one operation's output; empty when it passes.

    ``eval_exact`` and ``eval_log`` are passed in so that the checks call
    the same package the benchmark measures.
    """
    if op.kind == "cli":
        return _check_cli(op.args, status, output, eval_exact)
    n, y = int(op.args[0]), Fraction(op.args[1])
    problems: List[str] = []
    with mp.workprec(160):
        log_f = eval_log(n, y)[0].log_magnitude
        _check_log_f(n, y, log_f, problems, output)
    return problems
