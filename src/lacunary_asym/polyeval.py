"""Evaluation of the lacunary binomial family

    f_n(z) = sum_{k=0}^{n} C(n,k) * z^{C(k,2)}

at z = 1/y: exactly over the rationals, in high-precision floating point,
and in log space with adaptive truncation of the k-sum.  Also computes the
iterated forward differences in n,

    D^r f_n(1/y) = sum_{k=0}^{n} C(n,k) * y^{-C(k+r,2)},

and certifies their positivity (absolute monotonicity) against independent
telescoping.

Exact mode works for any rational y > 0; the float and log paths require
y > 1, which is the regime where the term-ratio truncation bound applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from mpmath import mp, mpf

from .numerics import (
    DEFAULT_CTX,
    ComputationError,
    DomainError,
    ExactRational,
    LogValue,
    PrecisionContext,
    as_real,
)

# Beyond this the exact denominators y^C(n,2) grow into the multi-megabit
# range; float/log modes take over.
EXACT_MODE_CAP = 3000

# Extra mantissa bits for the incremental term recurrences, so their
# accumulated drift stays far below the context tolerance even when the
# truncated sum runs long (y barely above 1).
_LOOP_GUARD = 32


@dataclass(frozen=True)
class TruncationReport:
    """How much of the k-sum was evaluated and a bound on what was dropped."""

    terms_used: int
    first_omitted_index: Optional[int]
    omitted_tail_bound: mpf


def _validate_exact_y(y) -> Fraction:
    try:
        yq = Fraction(y)
    except (TypeError, ValueError) as exc:
        raise DomainError("y-out-of-domain", f"y must be rational, got {y!r}") from exc
    if yq <= 0:
        raise DomainError("y-out-of-domain", "exact evaluation needs y > 0")
    return yq


def _exact_sum(n: int, r: int, y) -> ExactRational:
    """sum_k C(n,k) y^-C(k+r,2) exactly, for n, r >= 0 and rational y > 0.

    Summed over a common denominator p^C(n+r,2) (y = p/q in lowest terms)
    so the single final reduction is the only gcd on big integers.
    """
    if n < 0 or r < 0:
        raise DomainError("n-out-of-domain", "n and r must be non-negative")
    if n + r > EXACT_MODE_CAP:
        raise DomainError(
            "exact-cap-exceeded",
            f"n+r={n + r} above exact mode cap {EXACT_MODE_CAP}; use float or log mode",
        )
    yq = _validate_exact_y(y)
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


def _require_y_above_1(ym: mpf) -> None:
    if not ym > 1:
        raise DomainError("y-out-of-domain", "float/log evaluation needs y > 1")


def eval_float(
    n: int, y, ctx: PrecisionContext = DEFAULT_CTX
) -> Tuple[mpf, TruncationReport]:
    """f_n(1/y) as a high-precision real, k-sum truncated by the ratio test.

    Terms t_k = C(n,k) y^{-C(k,2)} are unimodal: the ratio
    t_{k+1}/t_k = ((n-k)/(k+1)) y^{-k} decreases strictly in k.  Once it
    drops below 1 the tail is geometrically dominated, giving the rigorous
    bound t_k * rho/(1 - rho) recorded in the report.
    """
    if n < 0:
        raise DomainError("n-out-of-domain", "n must be a non-negative integer")
    with ctx.prec(_LOOP_GUARD):
        ym = as_real(Fraction(y) if isinstance(y, Fraction) else y)
        _require_y_above_1(ym)
        eps = ctx.eps
        yinv = 1 / ym
        ypow = mpf(1)  # y^-k
        term = mpf(1)  # C(n,k) y^-C(k,2)
        total = mpf(0)
        k = 0
        report = None
        while report is None:
            total += term
            if k == n:
                report = TruncationReport(k + 1, None, mpf(0))
                break
            ratio = (mpf(n - k) / (k + 1)) * ypow
            if ratio < 1:
                bound = term * ratio / (1 - ratio)
                if bound <= eps * total:
                    report = TruncationReport(k + 1, k + 1, bound)
                    break
            term *= ratio
            ypow *= yinv
            k += 1
    with ctx.prec():
        return +total, TruncationReport(
            report.terms_used, report.first_omitted_index, +report.omitted_tail_bound
        )


def eval_log(
    n: int,
    y,
    ctx: PrecisionContext = DEFAULT_CTX,
    truncate: bool = True,
) -> Tuple[LogValue, TruncationReport]:
    """log f_n(1/y) by log-sum-exp over log C(n,k) - C(k,2) log y.

    Same adaptive truncation as eval_float; ``truncate=False`` forces the
    full (n+1)-term summation, used as an independent cross-check for
    moderate n.  Binomials are carried as exact integers so each log-term
    costs one rounding.
    """
    if n < 1:
        raise DomainError("n-out-of-domain", "log evaluation needs n >= 1")
    with ctx.prec(_LOOP_GUARD):
        ym = as_real(Fraction(y) if isinstance(y, Fraction) else y)
        _require_y_above_1(ym)
        eps_log = mp.log(ctx.eps)
        logy = mp.log(ym)
        yinv = 1 / ym
        ypow = mpf(1)  # y^-k
        c = 1  # C(n,k)
        k = 0
        running = mpf("-inf")
        report = None
        while report is None:
            log_term = mp.log(mpf(c)) - (k * (k - 1) // 2) * logy
            if mp.isinf(running):
                running = log_term
            else:
                hi, lo = (running, log_term) if running >= log_term else (log_term, running)
                running = hi + mp.log1p(mp.exp(lo - hi))
            if k == n:
                report = TruncationReport(k + 1, None, mpf(0))
                break
            if truncate:
                ratio = (mpf(n - k) / (k + 1)) * ypow
                if ratio < 1:
                    bound_log = log_term + mp.log(ratio) - mp.log1p(-ratio)
                    if bound_log <= eps_log + running:
                        report = TruncationReport(k + 1, k + 1, mp.exp(bound_log))
                        break
            c = c * (n - k) // (k + 1)
            ypow *= yinv
            k += 1
    with ctx.prec():
        return LogValue(+running), TruncationReport(
            report.terms_used, report.first_omitted_index, +report.omitted_tail_bound
        )


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
    if N < 0 or R < 0:
        raise DomainError("n-out-of-domain", "N and R must be non-negative")
    if N + R > EXACT_MODE_CAP:
        raise DomainError(
            "exact-cap-exceeded",
            f"N+R={N + R} above exact mode cap {EXACT_MODE_CAP}",
        )
    yq = _validate_exact_y(y)
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
