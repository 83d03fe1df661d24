"""Precision management, coded errors, the input boundary and the shared
value types.

All approximate arithmetic in this package runs on mpmath reals at a
context-fixed mantissa width.  A PrecisionContext with ``bits`` of working
precision promises results accurate to the relative tolerance

    eps = 2^-(bits - GUARD_BITS)

so the GUARD_BITS = 16 guard bits absorb summation-length round-off and
the occasional ill-conditioned subexpression; bits runs from 53 to
PRECISION_BITS_CAP.
Operations given the same context are deterministic: same inputs,
bit-identical outputs.

Every public entry point checks its real and integer inputs with the
require_* functions below.  They decide exactly, on the input's own value,
raise a coded DomainError and hand the value back unchanged: each layer
still applies as_real at its own precision (y_and_log: y, log y), and
derives what depends on y and the precision alone once per pair (y_memo).
Exact mode reads its rational y in polyeval._exact_args alone, and prices
it against EXACT_BITS_CAP before any big integer is built.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from typing import Optional, Union

from mpmath import mp, mpf

# Exact rational values (reduced, positive denominator) are carried by the
# stdlib Fraction type.  Fraction's constructor reduces by a gcd; the exact
# kernel skips it (coprime_fraction), since its proof gives lowest terms.
ExactRational = Fraction

# Most bits an exact value's numerator or denominator may be predicted to
# need: the work budget of exact mode.  eval_exact(3000, 2) needs ~9.0M.
EXACT_BITS_CAP = 10_000_000

# Most digits a decimal may carry into exact mode: turning them into an int
# is quadratic, 0.35 s at 100,000 digits on a 2-vCPU x86-64 box.
EXACT_DIGITS_CAP = 100_000

# Most bits of working precision a PrecisionContext may carry: every layer's
# cost grows with it.  The walk's budget counts terms x bits above 128 bits,
# so eval --y 1.0000023 --n 10000000 (994,654 predicted terms, 3.8-9.4 s at
# this cap on a shared 2-vCPU x86-64 box, 1.2-1.4 s at 128 bits) is refused
# here.  At the cap quadcheck --y 1e10 --n 60 --bits 1024 takes 1.1 s.
# approximation_summary(10, 2) took 73.6 s at 10^5 bits.  The tests do work
# at 400 bits at most.
PRECISION_BITS_CAP = 1024

# Bits of working precision that eps leaves to rounding: eps = 2^-(bits - GUARD_BITS).
GUARD_BITS = 16

# Most (y, precision) pairs a y_memo keeps (LRU): a command's few precisions, a sweep's few y.
Y_MEMO_SIZE = 16

Real = Union[int, float, str, Decimal, Fraction, mpf]


class LacunaryError(Exception):
    """Base class for coded errors; ``code`` is a stable machine-readable tag."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class DomainError(LacunaryError, ValueError):
    """Input outside an operation's documented domain."""


class ComputationError(LacunaryError, RuntimeError):
    """A computation failed to meet its own contract (signals a bug)."""


@dataclass(frozen=True)
class PrecisionContext:
    """Working mantissa precision in bits plus the derived tolerance policy."""

    bits: int = 128

    def __post_init__(self) -> None:
        code = "precision-out-of-domain"
        require_n(self.bits, lo=53, cap=PRECISION_BITS_CAP, cap_code=code, code=code, name="bits")

    @functools.cached_property
    def eps(self) -> mpf:
        """Target relative tolerance 2^-(bits - GUARD_BITS), exact."""
        return mp.ldexp(1, GUARD_BITS - self.bits)

    def prec(self, extra: int = 0):
        """Context manager setting mpmath working precision to bits + extra."""
        return mp.workprec(self.bits + extra)


def as_real(value: Real) -> mpf:
    """Convert to mpf at the currently active mpmath precision.

    mpf parses all digits of a decimal string (a Decimal is taken as its
    string) into one int, which Python refuses past 4300 digits: a longer
    string is first rounded, as a Decimal, to 20 digits more than the
    precision carries, or taken as a Fraction if it is p/q.  A Fraction is
    its numerator rounded, over its denominator taken exactly, with the
    latter's trailing zero bits moved into the numerator's exponent: mpf(int)
    and int operands take an int exactly first, and mpmath drops its
    trailing zero bits 8 at a time, quadratic in their number (1.6 s for
    10^400000, which a decimal y brings)."""
    if isinstance(value, Decimal):
        value = str(value)
    if isinstance(value, str) and len(value) > 4000:
        if "/" in value:
            value = Fraction(value)
        else:
            value = str(Context(prec=mp.dps + 20).plus(Decimal(value)))
    if isinstance(value, Fraction):
        den = value.denominator
        tz = (den & -den).bit_length() - 1
        return mpf((value.numerator, -tz)) / (den >> tz)
    return mpf(value)


def coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) without the gcd, for coprime num and den > 0."""
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+
        return Fraction._from_coprime_ints(num, den)
    return Fraction(num, den, _normalize=False)


def brief(value) -> str:
    """repr(value) for an error message, cut to its first 40 characters
    plus its length.  An int of more than 120 bits is described by its bit
    length, never turned into digits; a repr that Python refuses (an int
    part past sys.get_int_max_str_digits()) by its type."""
    if isinstance(value, int) and value.bit_length() > 120:
        return f"<{value.bit_length()}-bit int>"
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 40 else f"{text[:40]}... <{len(text)} chars>"


def _exact(value):
    """A real input as a value that compares exactly with 0 and 1, or
    TypeError/ValueError/ArithmeticError.

    A decimal (a string or a Decimal) becomes a Decimal and an mpf stays as
    it is: the side of 0 and 1, all a real domain asks, is decided without
    building 10^(10^9) or a million-digit int.
    """
    if isinstance(value, (numbers.Rational, float)) or (
        isinstance(value, str) and "/" in value
    ):
        return Fraction(value)
    if isinstance(value, (str, Decimal)):
        value = Decimal(value)
        if not value.is_finite():
            raise OverflowError("not finite")
    elif not hasattr(value, "_mpf_"):  # mpf, and mpmath constants such as mp.e
        raise TypeError(f"not a real number: {type(value).__name__}")
    elif not mp.isfinite(value):
        raise OverflowError("inf or nan")
    return value


def require_real(value, code: str, name: str, *, above: float = 0):
    """``value`` itself if it is a finite real above ``above``, else DomainError(code)."""
    try:
        q = _exact(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(code, f"{name} must be a finite real, got {brief(value)}") from exc
    if not q > above:
        raise DomainError(code, f"{name} must be a finite real > {above}, got {brief(value)}")
    return value


def require_resolved(value, code: str, name: str, bits: int):
    """``value`` itself if it is a finite real with |value| < 2^bits, else
    DomainError(code).  ``bits`` is the working precision at which the value
    enters expj, cos or exp.  From 2^bits on, bits-bit numbers lie 2 or more
    apart, so rounding the value alone can turn a phase e^{i value} by a
    radian: the result would keep no correct digit, while mpmath's argument
    reduction still spends time that grows with the exponent of the value."""
    require_real(value, code, name, above=-math.inf)
    if not abs(_exact(value)) < 2**bits:
        raise DomainError(code, f"|{name}| must be below 2^{bits}, got {brief(value)}")
    return value


def require_y(y):
    """y itself if it is a finite real > 1; exact mode reads y in polyeval._exact_args."""
    return require_real(y, "y-out-of-domain", "y", above=1)


Y_MEMOS = []  # every y_memo's lru_cache, for cache_info and cache_clear


def y_memo(fn):
    """fn(y, *args) at the active precision, memoized per (type(y), y, mp.prec,
    *args) once require_y passes y (Decimal("sNaN") cannot be hashed); a raise
    is not.  Types are never compared by value: Decimal("1e1200000") ==
    Fraction(10**1200000) builds 10^1200000."""
    cached = functools.lru_cache(Y_MEMO_SIZE)(lambda kind, y, prec, *args: fn(y, *args))
    Y_MEMOS.append(cached)
    return functools.wraps(fn)(lambda y, *args: cached(type(require_y(y)), y, mp.prec, *args))


@y_memo
def y_and_log(y):
    """(y, log y) at the active precision, y-out-of-domain where y rounds to 1."""
    ym = as_real(y)
    if ym == 1:
        raise DomainError("y-out-of-domain", f"y = {brief(y)} rounds to 1 at {mp.prec} bits")
    return ym, mp.log(ym)


def require_n(
    n,
    *,
    lo: int = 0,
    cap: Optional[int] = None,
    cap_code: str = "",
    name: str = "n",
    code: str = "n-out-of-domain",
):
    """n itself if it is an integer (not a bool) in [lo, cap], else
    DomainError(code); the cap error is coded ``cap_code``.  The solvers'
    real n goes through require_real."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < lo:
        raise DomainError(code, f"{name} must be an integer >= {lo}, got {brief(n)}")
    if cap is not None and n > cap:
        raise DomainError(cap_code, f"{name}={brief(n)} above the cap {cap}")
    return n


def require_eps(eps):
    """eps itself if it is a finite real > 0."""
    return require_real(eps, "eps-out-of-domain", "eps")


# Built after the require_* functions that PrecisionContext checks with.
DEFAULT_CTX = PrecisionContext()


@dataclass(frozen=True)
class LogValue:
    """A positive quantity stored as its natural log.

    mpf exponents are unbounded integers, so the representable range covers
    log f_n for any n this package will ever see.
    """

    log_magnitude: mpf
