"""Precision management, coded errors, the input boundary and the shared
value types.

All approximate arithmetic in this package runs on mpmath reals at a
context-fixed mantissa width.  A PrecisionContext with ``bits`` of working
precision promises results accurate to the relative tolerance

    eps = 2^-(bits - guard_bits)

so the guard bits absorb summation-length round-off and the occasional
ill-conditioned subexpression; bits runs from 53 to PRECISION_BITS_CAP.
Operations given the same context are deterministic: same inputs,
bit-identical outputs.

Every public entry point checks its real and integer inputs with the
require_* functions below.  They decide exactly, on the input's own value,
raise a coded DomainError and hand the value back unchanged (exact y as a
Fraction): each layer still applies as_real at its own precision.  Exact
work is bounded by EXACT_BITS_CAP, checked before any big integer is built.
"""

from __future__ import annotations

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
# here; the theta budget counts terms only.  At the cap quadcheck --y 1e10
# --n 60 --bits 1024 takes 3.7-3.8 s.
# approximation_summary(10, 2) took 73.6 s at 10^5 bits.  The tests do work
# at 400 bits at most.
PRECISION_BITS_CAP = 1024

Real = Union[int, float, str, Fraction, mpf]


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
    guard_bits: int = 16

    def __post_init__(self) -> None:
        code = "precision-out-of-domain"
        require_n(self.bits, lo=53, cap=PRECISION_BITS_CAP, cap_code=code, code=code, name="bits")
        require_n(self.guard_bits, lo=8, code=code, name="guard_bits")
        if self.guard_bits >= self.bits:
            raise DomainError(code, "guard_bits must be smaller than bits")

    @property
    def eps(self) -> mpf:
        """Target relative tolerance 2^-(bits - guard_bits)."""
        with mp.workprec(self.bits):
            return mpf(2) ** (self.guard_bits - self.bits)

    def prec(self, extra: int = 0):
        """Context manager setting mpmath working precision to bits + extra."""
        return mp.workprec(self.bits + extra)


def as_real(value: Real) -> mpf:
    """Convert to mpf at the currently active mpmath precision.

    mpf parses all digits of a decimal string into one int, which Python
    refuses past 4300 digits: a longer string is first rounded, as a
    Decimal, to 20 digits more than the precision carries.  A Fraction is
    its numerator rounded, over its denominator taken exactly, with the
    latter's trailing zero bits moved into the numerator's exponent: mpf(int)
    and int operands take an int exactly first, and mpmath drops its
    trailing zero bits 8 at a time, quadratic in their number (1.6 s for
    10^400000, which a decimal y brings)."""
    if isinstance(value, Fraction):
        den = value.denominator
        tz = (den & -den).bit_length() - 1
        return mpf((value.numerator, -tz)) / (den >> tz)
    if isinstance(value, str) and len(value) > 4000:
        value = str(Context(prec=mp.dps + 20).plus(Decimal(value)))
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


def require_exact_bits(value, name: str = "y"):
    """``value`` itself unless it is a decimal (str or Decimal) whose digits
    and exponent need more than EXACT_BITS_CAP bits, or whose digits number
    more than EXACT_DIGITS_CAP: DomainError ("exact-bits-exceeded"), decided
    before to_fraction builds 10^exponent."""
    if not isinstance(value, (str, Decimal)):
        return value
    try:
        _, digits, exp = Decimal(value).as_tuple()
    except ArithmeticError:
        return value  # not a decimal (say "3/2"); Fraction decides
    size = len(digits) + abs(exp) if isinstance(exp, int) else 0
    # 10/3 bits per digit, above log2(10)
    if 10 * size > 3 * EXACT_BITS_CAP or len(digits) > EXACT_DIGITS_CAP:
        raise DomainError(
            "exact-bits-exceeded",
            f"{name} has {len(digits)} digits and decimal exponent {exp}, "
            f"above the cap of {EXACT_BITS_CAP} bits or {EXACT_DIGITS_CAP} digits",
        )
    return value


def to_fraction(value) -> Fraction:
    """Fraction(value), a decimal string through Decimal.as_integer_ratio:
    Fraction(text) builds its ints with int(str), which Python refuses past
    4300 digits.  The ratio comes in lowest terms.  Callers bound the
    decimal's size first (require_exact_bits)."""
    if isinstance(value, str) and "/" not in value:
        return coprime_fraction(*Decimal(value).as_integer_ratio())
    return Fraction(value)


def _exact(value, exact: bool):
    """A real input as a value that compares exactly with 0 and 1, or
    TypeError/ValueError/ArithmeticError.

    Exact mode takes what to_fraction takes (not mpf); require_real has
    bounded a decimal's size first.  Otherwise a decimal string becomes a
    Decimal and an mpf stays as it is: the side of 0 and 1, all a real
    domain asks, is decided without building 10^(10^9) or a million-digit
    int.
    """
    if exact:
        return to_fraction(value)
    if isinstance(value, (numbers.Rational, float)) or (
        isinstance(value, str) and "/" in value
    ):
        return Fraction(value)
    if isinstance(value, str):
        value = Decimal(value)
        if not value.is_finite():
            raise OverflowError("not finite")
    elif not hasattr(value, "_mpf_"):  # mpf, and mpmath constants such as mp.e
        raise TypeError(f"not a real number: {type(value).__name__}")
    elif not mp.isfinite(value):
        raise OverflowError("inf or nan")
    return value


def require_real(value, code: str, name: str, *, above: float = 0, exact: bool = False):
    """``value`` itself if it is a finite real above ``above``; in exact mode
    its Fraction, if it is a rational above ``above``.  Else DomainError(code)."""
    kind = "rational" if exact else "finite real"
    if exact:
        require_exact_bits(value, name)
    try:
        q = _exact(value, exact)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(code, f"{name} must be a {kind}, got {brief(value)}") from exc
    if not q > above:
        raise DomainError(code, f"{name} must be a {kind} > {above}, got {brief(value)}")
    return q if exact else value


def require_resolved(value, code: str, name: str, bits: int):
    """``value`` itself if it is a finite real with |value| < 2^bits, else
    DomainError(code).  ``bits`` is the working precision at which the value
    enters expj, cos or exp.  From 2^bits on, bits-bit numbers lie 2 or more
    apart, so rounding the value alone can turn a phase e^{i value} by a
    radian: the result would keep no correct digit, while mpmath's argument
    reduction still spends time that grows with the exponent of the value."""
    require_real(value, code, name, above=-math.inf)
    if not abs(_exact(value, False)) < 2**bits:
        raise DomainError(code, f"|{name}| must be below 2^{bits}, got {brief(value)}")
    return value


def require_y(y, *, exact: bool = False):
    """y itself if it is a finite real > 1; in exact mode, y as a Fraction
    if it is a rational > 0."""
    return require_real(y, "y-out-of-domain", "y", above=0 if exact else 1, exact=exact)


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
