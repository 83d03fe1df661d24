"""Evaluation of the lacunary binomial family

    f_n(z) = sum_{k=0}^{n} C(n,k) * z^{C(k,2)}

at z = 1/y: exactly over the rationals, and in high-precision floating
point by one linear term walk with adaptive truncation of the k-sum, whose
log gives log f_n (mpf exponents are unbounded).  Also computes the
iterated forward differences in n,

    D^r f_n(1/y) = sum_{k=0}^{n} C(n,k) * y^{-C(k+r,2)},

and certifies their positivity (absolute monotonicity) against independent
telescoping.

Domains (checked through the numerics boundary): integers n, r >= 0, not
bools (eval_log: n >= 1); exact mode takes a rational y > 0 and n + r <=
EXACT_MODE_CAP, the float and log paths a finite real y > 1, the regime
where the term-ratio truncation bound applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from mpmath import mp, mpf

from .numerics import (
    DEFAULT_CTX,
    ComputationError,
    ExactRational,
    LogValue,
    PrecisionContext,
    as_real,
    require_n,
    require_y,
)

# Beyond this the exact denominators y^C(n,2) grow into the multi-megabit
# range; float/log modes take over.
EXACT_MODE_CAP = 3000

# Extra mantissa bits for the linear term walk behind both the float and the
# log path, so the drift of its incremental recurrences stays far below the
# context tolerance even when the truncated sum runs long (y barely above 1).
# No log-sum-exp is needed: mpf exponents are unbounded.
_LOOP_GUARD = 32


@dataclass(frozen=True)
class TruncationReport:
    """How much of the k-sum was evaluated and a bound on what was dropped,
    absolute and relative to the sum (both 0 when nothing was dropped)."""

    terms_used: int
    first_omitted_index: Optional[int]
    omitted_tail_bound: mpf
    relative_tail_bound: mpf


def _exact_args(n: int, r: int, y) -> Fraction:
    """The exact-mode domain: integers n, r >= 0 with n + r within the cap
    and a rational y > 0, returned as a Fraction."""
    require_n(n)
    require_n(r, name="r")
    require_n(n + r, cap=EXACT_MODE_CAP, cap_code="exact-cap-exceeded", name="n+r")
    return require_y(y, exact=True)


def _exact_sum(n: int, r: int, y) -> ExactRational:
    """sum_k C(n,k) y^-C(k+r,2) exactly, for n, r >= 0 and rational y > 0.

    Summed over a common denominator p^C(n+r,2) (y = p/q in lowest terms)
    so the single final reduction is the only gcd on big integers.
    """
    yq = _exact_args(n, r, y)
    p, q = yq.numerator, yq.denominator
    top_exp = (n + r) * (n + r - 1) // 2  # C(n+r,2), the largest exponent
    base_exp = r * (r - 1) // 2  # C(r,2), the k=0 exponent
    total = 0
    c = 1  # C(n,k)
    qpow = q**base_exp  # q^C(k+r,2)
    ppow = p ** (top_exp - base_exp)  # p^(C(n+r,2) - C(k+r,2))
    for k in range(n + 1):
        total += c * qpow * ppow
        if k < n:
            c = c * (n - k) // (k + 1)
            qpow *= q ** (k + r)
            ppow //= p ** (k + r)
    return Fraction(total, p**top_exp)


def eval_exact(n: int, y) -> ExactRational:
    """Exact rational value of f_n(1/y), the r = 0 case of forward_difference."""
    return _exact_sum(n, 0, y)


def _term_walk(
    n: int, y, ctx: PrecisionContext, truncate: bool, n_min: int = 0
) -> Tuple[mpf, TruncationReport]:
    """Linear sum of t_k = C(n,k) y^{-C(k,2)} from k = 0, at ctx.prec(_LOOP_GUARD).

    Terms are unimodal: the ratio t_{k+1}/t_k = ((n-k)/(k+1)) y^{-k}
    decreases strictly in k.  Once it drops below 1 the tail is
    geometrically dominated by t_k * rho/(1 - rho); with ``truncate`` the
    walk stops at the first k where that bound is within eps of the
    running total.  The sum comes back unrounded, the report rounded.
    """
    require_n(n, lo=n_min)
    require_y(y)
    with ctx.prec(_LOOP_GUARD):
        eps = ctx.eps
        yinv = 1 / as_real(y)
        ypow = mpf(1)  # y^-k
        term = mpf(1)  # C(n,k) y^-C(k,2)
        total = mpf(0)
        for k in range(n):
            total += term
            ratio = (mpf(n - k) / (k + 1)) * ypow
            if truncate and ratio < 1:
                bound = term * ratio / (1 - ratio)
                if bound <= eps * total:
                    omitted = k + 1
                    break
            term *= ratio
            ypow *= yinv
        else:
            total += term  # the k = n term
            omitted, bound = None, mpf(0)
    with ctx.prec():
        return total, TruncationReport(omitted or n + 1, omitted, +bound, bound / total)


def eval_float(
    n: int, y, ctx: PrecisionContext = DEFAULT_CTX
) -> Tuple[mpf, TruncationReport]:
    """f_n(1/y) as a high-precision real, k-sum truncated by the ratio test.

    The report carries the rigorous bound t_k * rho/(1 - rho) on the
    dropped tail, absolute and relative to f.
    """
    total, report = _term_walk(n, y, ctx, truncate=True)
    with ctx.prec():
        return +total, report


def eval_log(
    n: int,
    y,
    ctx: PrecisionContext = DEFAULT_CTX,
    truncate: bool = True,
) -> Tuple[LogValue, TruncationReport]:
    """log f_n(1/y): the log of the same linear term walk as eval_float.

    mpf exponents are unbounded, so the linear sum never overflows however
    large log f_n grows.  ``truncate=False`` forces the full (n+1)-term
    summation, used as a cross-check of the truncation for moderate n.
    """
    total, report = _term_walk(n, y, ctx, truncate, n_min=1)
    with ctx.prec():
        return LogValue(mp.log(total)), report


def forward_difference(n: int, r: int, y) -> ExactRational:
    """Closed form of the r-fold forward difference D^r f_n at 1/y.

    D^r f_n(1/y) = sum_k C(n,k) y^-C(k+r,2); strictly positive for y > 0.
    """
    return _exact_sum(n, r, y)


@dataclass(frozen=True)
class MonotonicityEntry:
    n: int
    r: int
    value: ExactRational


@dataclass(frozen=True)
class MonotonicityCertificate:
    N: int
    R: int
    y: ExactRational
    entries: Tuple[MonotonicityEntry, ...]


def certify_absolute_monotonicity(N: int, R: int, y) -> MonotonicityCertificate:
    """Verify D^r f_n(1/y) > 0 for all 0 <= n <= N, 0 <= r <= R.

    Every closed-form value is checked exactly against the telescoped
    table T[r][n] = T[r-1][n+1] - T[r-1][n] built from plain evaluations,
    so the certificate rests on two independent computations.
    """
    yq = _exact_args(N, R, y)
    row = [eval_exact(m, yq) for m in range(N + R + 1)]
    entries = []
    for r in range(R + 1):
        for n in range(N + 1):
            value = forward_difference(n, r, yq)
            if value != row[n]:
                raise ComputationError(
                    "monotonicity-violation",
                    f"closed form disagrees with telescoping at (n={n}, r={r})",
                )
            if value <= 0:
                raise ComputationError(
                    "monotonicity-violation",
                    f"non-positive difference at (n={n}, r={r}): {value}",
                )
            entries.append(MonotonicityEntry(n, r, value))
        row = [b - a for a, b in zip(row, row[1:])]
    ordered = sorted(entries, key=lambda e: (e.n, e.r))
    return MonotonicityCertificate(N, R, yq, tuple(ordered))
