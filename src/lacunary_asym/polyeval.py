"""Evaluation of the lacunary binomial family

    f_n(z) = sum_{k=0}^{n} C(n,k) * z^{C(k,2)}

at z = 1/y: exactly over the rationals, and in high-precision floating
point by one linear term walk with adaptive truncation of the k-sum, whose
log gives log f_n (mpf exponents are unbounded).  The walk runs in
fixed-point Python integers, 0.8-1.6 us per term on a 2-vCPU x86-64 box
(CPython 3.11, pure-Python mpmath), and reports a rigorous bound on its
own rounding error.  Also computes the iterated forward differences in n,

    D^r f_n(1/y) = sum_{k=0}^{n} C(n,k) * y^{-C(k+r,2)},

and certifies their positivity (absolute monotonicity) on a grid: an int
Pascal table in n, checked against telescoped exact evaluations.

Domains (checked through the numerics boundary): integers n, r >= 0, not
bools (eval_log: n >= 1); exact mode takes a rational y = p/q > 0 with
n + r <= EXACT_MODE_CAP and C(n+r,2) * max(bits of p, q) <= EXACT_BITS_CAP,
the float and log paths a finite real y > 1, the regime where the
term-ratio truncation bound applies, and a walk predicted to fit
WALK_TERMS_CAP terms, priced in terms x bits above 128 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isqrt, log, sqrt
from typing import Optional, Tuple

from mpmath import mp, mpf

from .numerics import (
    DEFAULT_CTX,
    EXACT_BITS_CAP,
    ComputationError,
    DomainError,
    ExactRational,
    GUARD_BITS,
    LogValue,
    PrecisionContext,
    as_real,
    brief,
    coprime_fraction,
    require_n,
    require_y,
)

# Beyond this the exact denominators y^C(n,2) grow into the multi-megabit
# range; float/log modes take over.
EXACT_MODE_CAP = 3000

# Extra bits for the fixed-point term walk behind both the float and the log
# path, so the drift of y^-k (at most 4 C(k,2) 2^-P on term k, P = bits + 32)
# stays below the context tolerance even when the truncated sum runs long (y
# barely above 1): 2^-127 at bits = 128 after the 50,684 terms of n = 1e5,
# y = 1 + 1e-6.  A term costs 0.8-1.6 us at bits = 128 on a 2-vCPU x86-64 box.
_LOOP_GUARD = 32

# Most terms the linear walk may be predicted to take at the default 128 bits:
# its work budget, about 1 s at the ~1 us per term of the fixed-point walk on
# a 2-vCPU x86-64 box.  A term's cost grows with the bits, so above 128 the
# budget is terms x (bits + _LOOP_GUARD): 151,515 terms at the 1024-bit cap,
# where eval --y 1.0000023 --n 10000000 (994,654 terms) took 3.8-9.4 s.  Below
# 128 bits a term costs about as much, so the term count stays the cap.  The
# largest prediction in the benchmark workloads is 17,584 (n = 1e5,
# y = 1.0001), in the tests 71,855 (n = 1e5, y = 1 + 1e-6, bits = 400).
WALK_TERMS_CAP = 1_000_000


@dataclass(frozen=True)
class TruncationReport:
    """How much of the k-sum was evaluated, a bound on what was dropped,
    absolute and relative to the sum (both 0 when nothing was dropped), and
    a bound on the walk's own rounding error relative to the sum."""

    terms_used: int
    first_omitted_index: Optional[int]
    omitted_tail_bound: mpf
    relative_tail_bound: mpf
    rounding_bound: mpf


def _exact_args(n: int, r: int, y, table: bool = False) -> Fraction:
    """The exact-mode domain: integers n, r >= 0 with n + r within the cap
    and a rational y = p/q > 0, returned as a Fraction, whose denominator
    p^C(n+r,2) (or numerator) is predicted to fit EXACT_BITS_CAP; with
    ``table``, the values at all n' <= n, r' <= r together."""
    require_n(n)
    require_n(r, name="r")
    require_n(n + r, cap=EXACT_MODE_CAP, cap_code="exact-cap-exceeded", name="n+r")
    yq = require_y(y, exact=True)
    y_bits = max(yq.numerator.bit_length(), yq.denominator.bit_length())
    bits = (n + r) * (n + r - 1) // 2 * y_bits
    if table:  # the min(m, n) - max(0, m - r) + 1 values with n' + r' = m share C(m,2)
        bits = sum((min(m, n) - max(0, m - r) + 1) * m * (m - 1) // 2 for m in range(n + r + 1))
        bits *= y_bits
    if bits > EXACT_BITS_CAP:
        raise DomainError(
            "exact-bits-exceeded",
            f"n+r={n + r} with a {y_bits}-bit y needs ~{bits} bits, above the cap {EXACT_BITS_CAP}",
        )
    return yq


def _exact_sum(n: int, r: int, y) -> ExactRational:
    """sum_k C(n,k) y^-C(k+r,2) exactly, for n, r >= 0 and rational y > 0.

    With y = p/q in lowest terms the sum is q^C(r,2) N / p^C(n+r,2),
    N = sum_k C(n,k) p^(C(n+r,2) - C(k+r,2)) q^(C(k+r,2) - C(r,2)).  N is
    summed by binary splitting (Haible & Papanikolaou 1998) over pure powers:
    the leaves are the C(n,k), built once by c_{k+1} = c_k (n-k) // (k+1),
    and the range [a, b) carries
    S(a,b) = sum_{k=a}^{b-1} C(n,k) p^(C(b-1+r,2) - C(k+r,2)) q^(C(k+r,2) - C(a+r,2)),
    merged at m as S(a,b) = S(a,m) p^sigma(m,b) + S(m,b) q^tau(a,m), with
    sigma(m,b) = sum_{k=m}^{b-1} (k-1+r) = (b-m)(m+b-3+2r)/2 and
    tau(a,m) = sum_{k=a}^{m-1} (k+r) = (m-a)(a+m-1+2r)/2.  A node's powers
    are products of its children's; the ones nothing reads (the p power on
    the left spine, the q power on the right) are skipped.

    Powers of two are shifts: p = 2^ep p', q = 2^eq q' with p', q' odd, the
    nodes carry only p'^sigma and q'^tau (a product by p' = 1 or q' = 1 is
    skipped), and each merge shifts left by ep sigma and eq tau, taken from
    the closed forms.  The denominator is p'^C(n+r,2) shifted by ep C(n+r,2).

    No gcd: for n + r >= 2 the k = n term of N is a power of q and every
    other term carries p^(n+r-1) or more, so N is prime to p, as q is;
    otherwise the denominator is 1.
    """
    yq = _exact_args(n, r, y)
    p, q = yq.numerator, yq.denominator
    ep, eq = (p & -p).bit_length() - 1, (q & -q).bit_length() - 1
    po, qo = p >> ep, q >> eq
    leaves = [1] * (n + 1)
    for k in range(n):
        leaves[k + 1] = leaves[k] * (n - k) // (k + 1)

    def split(a: int, b: int, need_p: bool, need_q: bool):
        """(S(a,b), p'^sigma(a,b), q'^tau(a,b)), a power nothing reads False."""
        if b - a == 1:
            return leaves[a], need_p and po ** (a - 1 + r), need_q and qo ** (a + r)
        # halves of equal bit size: the powers up to j sum to ~(j + r)^2/2
        m = min(max(isqrt(((a + r) ** 2 + (b + r) ** 2) // 2) - r, a + 1), b - 1)
        S1, P1, Q1 = split(a, m, need_p, True)
        S2, P2, Q2 = split(m, b, True, need_q)
        if po != 1:
            S1 *= P2
        if qo != 1:
            S2 *= Q1
        S = (S1 << ep * ((b - m) * (m + b - 3 + 2 * r) // 2)) + (
            S2 << eq * ((m - a) * (a + m - 1 + 2 * r) // 2)
        )
        return S, need_p and P1 * P2, need_q and Q1 * Q2

    N = split(0, n + 1, False, False)[0]
    E, Er = (n + r) * (n + r - 1) // 2, r * (r - 1) // 2
    return coprime_fraction(N * qo**Er << eq * Er, po**E << ep * E)


def eval_exact(n: int, y) -> ExactRational:
    """Exact rational value of f_n(1/y), the r = 0 case of forward_difference."""
    return _exact_sum(n, 0, y)


def _walk_terms(n: int, L: float, tol_bits: int) -> int:
    """Terms a truncated walk over t_k = C(n,k) e^{-L C(k,2)} is predicted to
    take, in float arithmetic: up to the peak k*, the first k >= 1 with
    log(n-k) - log(k+1) <= L k (the term ratio no longer above 1, so k* <=
    log(n+1)/L), then sqrt(2 tol_bits ln 2 / L) more, the distance past the
    peak over which e^{-L j^2/2} falls to 2^-tol_bits.  At most n + 1, and n + 1
    when L is 0 (y rounded to 1).  On y in {1+1e-2 .. 1+1e-6, 3/2, 2, 100},
    n in {10 .. 1e5} it is at least terms_used and at most 1.8 times it.
    """
    if not L > 0:
        return n + 1
    lo, hi = 1, min(n, int(log(n + 1) / L) + 1)
    while lo < hi:
        k = (lo + hi) // 2
        if log(n - k) - log(k + 1) > L * k:
            lo = k + 1
        else:
            hi = k
    return min(n + 1, lo + 1 + ceil(sqrt(2 * tol_bits * log(2) / L)))


def _term_walk(
    n: int, y, ctx: PrecisionContext, truncate: bool, n_min: int = 0
) -> Tuple[mpf, TruncationReport]:
    """Linear sum of t_k = C(n,k) y^{-C(k,2)} from k = 0, in P-bit fixed
    point, P = ctx.bits + _LOOP_GUARD.

    Terms are unimodal: the ratio t_{k+1}/t_k = ((n-k)/(k+1)) y^{-k}
    decreases strictly in k.  Once it drops below 1 the tail is
    geometrically dominated by t_k * rho/(1 - rho); with ``truncate`` the
    walk stops at the first k where that bound is within eps = 2^-tol of
    the running total.  The sum comes back as a P-bit mpf, the report
    rounded.  Walks predicted (_walk_terms; n + 1 untruncated) to take more
    than WALK_TERMS_CAP terms, times 160/(bits + _LOOP_GUARD) above 128
    bits, are refused before the first.

    term and total are Python ints times one shared 2^scale; total stays
    at least 2^(2P) (once it passes 2^(3P), both shift right until it has
    2P + 1 bits), so the last kept term still has about bits + 80 bits.
    y^-k = ypm 2^-sh, each step multiplying the P-bit mantissa ypm by that
    of the P-bit mpf 1/y and rounding to nearest.  The ratio is rho =
    num / ((k+1) 2^sh), num = (n-k) ypm; rho < 1 and the stop test are
    exact integer comparisons that only shift right by sh, which grows
    like k log2 y.

    The rounding bound, relative to the sum of the kept terms: y^-j drifts
    by at most 4 j 2^-P (1/y is at most three roundings off, each step one
    more), so t_k by 4 C(k,2) 2^-P; the final mpf rounds once more, 2^-P.
    Each floor of a term or a shift loses under one unit, at most 2^-2P of
    the total.  Up to the peak such a unit is at most (k+1) 2^-2P of the
    term; past it the ratios are below 1, so it reaches each later term as
    under one unit.  That sums to 2^-2P ((K+2)^2/2 + shifts (K+2)) for K
    the last index kept.  Second-order terms stay under the 2^-16 slack.
    """
    require_n(n, lo=n_min)
    require_y(y)
    P = ctx.bits + _LOOP_GUARD
    tol = ctx.bits - GUARD_BITS
    with ctx.prec(_LOOP_GUARD):
        ym = as_real(y)
        L = mp.log(ym)
        terms = _walk_terms(n, float(L), tol) if truncate else n + 1
        work_bits = max(ctx.bits, DEFAULT_CTX.bits) + _LOOP_GUARD
        if terms * work_bits > WALK_TERMS_CAP * (DEFAULT_CTX.bits + _LOOP_GUARD):
            raise DomainError(
                "walk-terms-exceeded",
                f"n={brief(n)} at log y = {mp.nstr(L, 6)} needs ~{brief(terms)} terms "
                f"at {ctx.bits} bits, above the cap {WALK_TERMS_CAP} at {DEFAULT_CTX.bits}",
            )
        _, yman, yexp, ybc = (1 / ym)._mpf_
    yinv, e0 = yman << (P - ybc), yexp - (P - ybc)  # 1/y = yinv 2^e0
    ypm, sh = 1 << (P - 1), P - 1  # y^-k = ypm 2^-sh
    term, total, scale, shifts = 1 << (2 * P), 0, -2 * P, 0  # value = int 2^scale
    top = 1 << (3 * P)
    omitted = None
    for k in range(n):
        total += term
        num = (n - k) * ypm
        tn = term * num
        if truncate and num >> sh <= k:  # rho < 1
            # term rho/(1 - rho) <= total 2^-tol, i.e. (tn 2^tol + total num) 2^-sh
            # <= total (k+1), with the ceiling of the left side: no shift left by sh
            if -(-((tn << tol) + total * num) >> sh) <= total * (k + 1):
                omitted = k + 1
                break
        term = (tn >> sh) // (k + 1)
        if total >= top:  # back to 2P bits: a ratio near n may add far more than P
            d = total.bit_length() - 2 * P
            term >>= d
            total >>= d
            scale += d
            shifts += 1
        prod = ypm * yinv
        b = prod.bit_length() - P
        ypm = ((prod >> (b - 1)) + 1) >> 1
        sh -= e0 + b
    else:
        total += term  # the k = n term
    used = omitted or n + 1
    K = used - 1
    # twice the rounding bound in units of 2^-2P
    units = (1 << (P + 1)) * (1 + 2 * K * (K - 1)) + (K + 2) * (K + 2 + 2 * shifts)
    with ctx.prec(_LOOP_GUARD):
        total_m = mpf((total, scale))
        bound = mpf(0)
        if omitted:
            ratio = mpf((num, -sh)) / (k + 1)
            bound = mpf((term, scale)) * ratio / (1 - ratio)
    with ctx.prec():
        rounding = mpf((units * ((1 << 16) + 1), -2 * P - 17))
        report = TruncationReport(used, omitted, +bound, bound / total_m, rounding)
    return total_m, report


def eval_float(
    n: int, y, ctx: PrecisionContext = DEFAULT_CTX
) -> Tuple[mpf, TruncationReport]:
    """f_n(1/y) as a high-precision real, k-sum truncated by the ratio test.

    The report carries the rigorous bound t_k * rho/(1 - rho) on the
    dropped tail, absolute and relative to f, and one on the walk's
    rounding error relative to f, before the final rounding to ctx.bits.
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
    """Verify D^r f_n(1/y) > 0 for all 0 <= n <= N, 0 <= r <= R, by two
    independent int tables of numerators over p^C(n+r,2) (y = p/q, the
    denominators of _exact_sum).  Pascal's rule in n (D C(n,k) = C(n,k-1)),
    A(n,r) = A(n-1,r) p^(n+r-1) + A(n-1,r+1) from A(0,r) = q^C(r,2), sums
    positive terms built from powers of p and q alone; telescoping, B(n,r+1)
    = B(n+1,r) - B(n,r) p^(n+r), starts from B(m,0), the numerator of
    eval_exact(m).  Every entry is kept: the sum over n <= N, r <= R of
    C(n+r,2) * max(bits of p, q) must fit EXACT_BITS_CAP.
    """
    yq = _exact_args(N, R, y, table=True)
    p, q = yq.numerator, yq.denominator
    pw = [p**m for m in range(N + R + 1)]
    row = [eval_exact(m, yq).numerator for m in range(N + R + 1)]
    B = [row[: N + 1]]
    for r in range(R):
        row = [b - a * pw[n + r] for n, (a, b) in enumerate(zip(row, row[1:]))]
        B.append(row[: N + 1])
    A = [q ** (r * (r - 1) // 2) for r in range(N + R + 1)]  # the column n = 0
    dens = [p ** (m * (m - 1) // 2) for m in range(N + R + 1)]
    entries = []
    for n in range(N + 1):
        A = [a * pw[n + r - 1] + b for r, (a, b) in enumerate(zip(A, A[1:]))] if n else A
        for r in range(R + 1):
            if not A[r] == B[r][n] > 0:
                msg = f"closed form and telescoping disagree or are not positive at (n={n}, r={r})"
                raise ComputationError("monotonicity-violation", msg)
            entries.append(MonotonicityEntry(n, r, coprime_fraction(A[r], dens[n + r])))
    return MonotonicityCertificate(N, R, yq, tuple(entries))
