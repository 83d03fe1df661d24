"""Precision management, coded errors and the shared value types.

All approximate arithmetic in this package runs on mpmath reals at a
context-fixed mantissa width.  A PrecisionContext with ``bits`` of working
precision promises results accurate to the relative tolerance

    eps = 2^-(bits - guard_bits)

so the guard bits absorb summation-length round-off and the occasional
ill-conditioned subexpression.  Operations given the same context are
deterministic: same inputs, bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from mpmath import mp, mpf

# Exact rational values (reduced, positive denominator) are carried by the
# stdlib Fraction type; it already guarantees gcd(num, den) = 1 and den > 0.
ExactRational = Fraction

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
        if self.bits < 53:
            raise ValueError("bits must be at least 53")
        if self.guard_bits < 8:
            raise ValueError("guard_bits must be at least 8")
        if self.guard_bits >= self.bits:
            raise ValueError("guard_bits must be smaller than bits")

    @property
    def eps(self) -> mpf:
        """Target relative tolerance 2^-(bits - guard_bits)."""
        with mp.workprec(self.bits):
            return mpf(2) ** (self.guard_bits - self.bits)

    def prec(self, extra: int = 0):
        """Context manager setting mpmath working precision to bits + extra."""
        return mp.workprec(self.bits + extra)


DEFAULT_CTX = PrecisionContext()


def as_real(value: Real) -> mpf:
    """Convert to mpf at the currently active mpmath precision."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)


@dataclass(frozen=True)
class LogValue:
    """A positive quantity stored as its natural log.

    mpf exponents are unbounded integers, so the representable range covers
    log f_n for any n this package will ever see; the flag exists so an
    exact zero survives round trips through log space.
    """

    log_magnitude: mpf
    is_zero: bool = False

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(mpf("-inf"), True)

    def exp(self, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
        if self.is_zero:
            return mpf(0)
        with ctx.prec():
            return mp.exp(self.log_magnitude)
