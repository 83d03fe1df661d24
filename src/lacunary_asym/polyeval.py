"""Evaluation of the lacunary binomial family

    f_n(z) = sum_{k=0}^{n} C(n,k) * z^{C(k,2)}

at z = 1/y: exactly over the rationals, and in high-precision floating
point by one linear term walk with adaptive truncation of the k-sum, whose
log gives log f_n (mpf exponents are unbounded).  Where the terms climb
long to their peak k* ~ log n / log y (y near 1), the walk starts at k*
and walks out both ways by one step rule, over the Gaussian window of
width ~sqrt(1/log y) that holds the sum (de Bruijn, Asymptotic Methods in
Analysis, Ch. 5).
It runs in fixed-point Python integers, 0.8-1.6 us per term on a 2-vCPU
x86-64 box (CPython 3.11, pure-Python mpmath), from log y and 1/y read once
per (y, precision) (_walk_y), and reports a rigorous bound on its own
rounding error.  Also computes the iterated forward differences in n,

    D^r f_n(1/y) = sum_{k=0}^{n} C(n,k) * y^{-C(k+r,2)},

and certifies their positivity (absolute monotonicity) on a grid: an int
Pascal table in n, checked against telescoped exact evaluations.

Domains (checked through the numerics boundary): integers n, r >= 0, not
bools (eval_log: n >= 1); exact mode takes a rational y = p/q > 0, read
and priced in _exact_args (a decimal before it is built), with
n + r <= EXACT_MODE_CAP and C(n+r,2) * max(bits of p, q) <= EXACT_BITS_CAP,
the float and log paths a finite real y > 1, the regime where the
term-ratio truncation bound applies, and a walk predicted to fit
WALK_TERMS_CAP terms, priced in terms x bits above 128 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import ceil, isqrt, log, sqrt
from typing import Optional, Tuple

from mpmath import mp, mpf

from .numerics import (
    DEFAULT_CTX,
    EXACT_BITS_CAP,
    EXACT_DIGITS_CAP,
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
    y_memo,
)

# Beyond this the exact denominators y^C(n,2) grow into the multi-megabit
# range; float/log modes take over.
EXACT_MODE_CAP = 3000

# Most indices _exact_sum sums by one Horner loop instead of splitting them.
_LEAF_BLOCK = 12

# Extra bits for the fixed-point term walk behind both the float and the log
# path, so the drift of the y powers (about 2 m^2 2^-P on a term m steps from
# the start, P = bits + 32) stays below the context tolerance even when the
# truncated sum runs long (y barely above 1).  From the peak of n = 1e5,
# y = 1 + 1e-6 the walk evaluates 4,420 terms and bounds its rounding by
# 2^-138.1 at bits = 128; from k = 0 it took 50,684 terms and 2^-127.7.  A
# term costs 0.8-1.6 us at bits = 128 on a 2-vCPU x86-64 box.
_LOOP_GUARD = 32

# The walk left of a peak start stops once its geometric tail bound is within
# 2^-(P + _LEFT_CUT) of the running sum; the terms it drops go into the
# rounding bound, far below the context tolerance, so the reported tail keeps
# its meaning.
_LEFT_CUT = 32

# Terms a peak start must save, against a walk from k = 0, to pay for its
# start term: its three mp.loggamma and three mp.exp take 0.18-0.24 ms at
# bits = 53 and 128, the time of ~170 terms, and 0.25-0.8 ms at 400 and
# 1024 bits, where a term costs 2.5-10 us (_start_term).
_START_TERMS = 200

# A term below 2^-_HEAVY_BITS of the running sum is light: its drift is
# weighed into the rounding bound by 2^-_HEAVY_BITS, so the bound grows with
# the distance of the heavy terms from the start, not with the last index.
_HEAVY_BITS = 64

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
    """How much of the k-sum was evaluated, a bound on what was dropped past
    the last kept index, absolute and relative to the sum (both 0 when
    nothing was dropped), and a bound on the walk's own rounding error
    relative to the sum.  terms_used is one past the last kept index; the
    walk evaluates the indices first_kept_index .. terms_used - 1, and the
    terms below first_kept_index (0 for a walk from k = 0) are within the
    rounding bound."""

    terms_used: int
    first_kept_index: int
    first_omitted_index: Optional[int]
    omitted_tail_bound: mpf
    relative_tail_bound: mpf
    rounding_bound: mpf


def _exact_args(n: int, r: int, y, table: bool = False) -> Fraction:
    """The exact-mode domain: integers n, r >= 0 with n + r within the cap
    and a rational y = p/q > 0, returned as a Fraction, whose denominator
    p^C(n+r,2) (or numerator) is predicted to fit EXACT_BITS_CAP; with
    ``table``, the values at all n' <= n, r' <= r together.

    Exact mode's one reader of y.  A decimal (a str without "/", or a
    Decimal) is read from its sign, digits and exponent, and priced before
    Decimal.as_integer_ratio builds it: its digits and exponent must fit
    EXACT_BITS_CAP bits, its digits number at most EXACT_DIGITS_CAP, and
    the weight times |log2 y|, a lower bound on the bits of p and q, must
    fit EXACT_BITS_CAP.  Any other y goes through Fraction."""
    require_n(n)
    require_n(r, name="r")
    require_n(n + r, cap=EXACT_MODE_CAP, cap_code="exact-cap-exceeded", name="n+r")
    weight = (n + r) * (n + r - 1) // 2
    if table:  # the min(m, n) - max(0, m - r) + 1 values with n' + r' = m share C(m,2)
        weight = sum((min(m, n) - max(0, m - r) + 1) * m * (m - 1) // 2 for m in range(n + r + 1))
    decimal = isinstance(y, Decimal) or isinstance(y, str) and "/" not in y
    try:
        if decimal:
            yd = Decimal(y)
            sign, digits, exp = yd.as_tuple()
            positive = not sign and isinstance(exp, int) and any(digits)
        else:
            yq = Fraction(y)
            positive = yq > 0
    except (TypeError, ValueError, ArithmeticError):
        positive = False
    if not positive:
        raise DomainError("y-out-of-domain", f"y must be a rational > 0, got {brief(y)}")
    if decimal:
        # 10^a <= y < 10^(a+1), and 3.32 < log2(10) < 10/3 bits per digit
        a = len(digits) + exp - 1
        log2 = (a if a >= 0 else -a - 1) * 332 // 100
        size = 10 * (len(digits) + abs(exp))
        if max(size, 3 * weight * log2) > 3 * EXACT_BITS_CAP or len(digits) > EXACT_DIGITS_CAP:
            raise DomainError(
                "exact-bits-exceeded",
                f"y has {len(digits)} digits and decimal exponent {exp}, above the cap of "
                f"{EXACT_BITS_CAP} bits ({weight} x {log2} here) or {EXACT_DIGITS_CAP} digits",
            )
        yq = coprime_fraction(*yd.as_integer_ratio())
    y_bits = max(yq.numerator.bit_length(), yq.denominator.bit_length())
    bits = weight * y_bits
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
    summed by binary splitting (Haible & Papanikolaou 1998) over pure powers
    of the C(n,k), built once by c_{k+1} = c_k (n-k) // (k+1).  The range
    [a, b) carries
    S(a,b) = sum_{k=a}^{b-1} C(n,k) p^(C(b-1+r,2) - C(k+r,2)) q^(C(k+r,2) - C(a+r,2)),
    merged at m as S(a,b) = S(a,m) p^sigma(m,b) + S(m,b) q^tau(a,m), with
    sigma(m,b) = sum_{k=m}^{b-1} (k-1+r) = (b-m)(m+b-3+2r)/2 and
    tau(a,m) = sum_{k=a}^{m-1} (k+r) = (m-a)(a+m-1+2r)/2.  A range of at
    most _LEAF_BLOCK indices is one Horner loop, S(a,k+1) = S(a,k) p^(k-1+r)
    + C(n,k) q^tau(a,k), its powers p^sigma(a,b), q^tau(a,b) from the closed
    forms; a node's are its children's products, and those nothing reads (p
    on the left spine, q on the right) are skipped.

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
        if b - a <= _LEAF_BLOCK:
            S, tau, pe, qe, qt = leaves[a], 0, po ** (a + r), qo ** (a + r), 1
            for k in range(a + 1, b):  # pe = p'^e, qe = q'^e, qt = q'^tau(a,k)
                e, tau, qt = k - 1 + r, tau + k - 1 + r, qt * qe
                c = leaves[k] * qt if qo != 1 else leaves[k]
                S = ((S * pe if po != 1 else S) << ep * e) + (c << eq * tau)
                pe, qe = pe * po, qe * qo
            sigma, tau = (b - a) * (a + b - 3 + 2 * r) // 2, (b - a) * (a + b - 1 + 2 * r) // 2
            return S, need_p and po**sigma, need_q and qo**tau
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


def _peak_index(n: int, L: float) -> int:
    """The peak k* of t_k = C(n,k) e^{-L C(k,2)}, L > 0, by bisection in
    float arithmetic: the first k >= 1 with log(n-k) - log(k+1) <= L k, where
    the term ratio is no longer above 1, so k* <= log(n+1)/L.  A quotient
    past n (inf for a subnormal L) is taken as n before int() reads it."""
    lo, hi = 1, min(n, int(min(log(n + 1) / L, n)) + 1)
    while lo < hi:
        k = (lo + hi) // 2
        if log(n - k) - log(k + 1) > L * k:
            lo = k + 1
        else:
            hi = k
    return lo


def _walk_terms(n: int, L: float, tol_bits: int, peak: Optional[int] = None) -> int:
    """Terms a truncated walk from k = 0 over t_k = C(n,k) e^{-L C(k,2)} is
    predicted to take, in float arithmetic: up to the peak k* (``peak``, or
    _peak_index), then sqrt(2 tol_bits ln 2 / L) more, the distance past the
    peak over which e^{-L j^2/2} falls to 2^-tol_bits.  At most n + 1, and
    n + 1 when L is 0 (y rounded to 1).  On y in {1+1e-2 .. 1+1e-6, 3/2, 2,
    100}, n in {10 .. 1e5} it is at least terms_used and at most 1.8 times it.
    A walk from the peak evaluates fewer terms than this, so the budget prices
    it high.
    """
    if not L > 0:
        return n + 1
    if peak is None:
        peak = _peak_index(n, L)
    return min(n + 1, peak + 1 + ceil(min(sqrt(2 * tol_bits * log(2) / L), n)))


def _mantissa(x: mpf, bits: int) -> Tuple[int, int]:
    """x > 0 rounded to nearest as m 2^-s, m an int of exactly ``bits`` bits."""
    with mp.workprec(bits):
        _, man, exp, bc = (+x)._mpf_
    return man << (bits - bc), bits - bc - exp


def _start_term(n: int, ks: int, y, P: int) -> Tuple[int, int, int, int, int, int]:
    """t_ks = C(n,ks) y^-C(ks,2) as a (2P+1)-bit int times 2^-s, and y^-ks
    and y^(ks-1) as P-bit mantissas with their shifts, each rounded to
    nearest from a value computed at w = P + 64 + M bits, with 2^M above
    log n! < (n+1) bits(n+1), above C(ks,2) log y < ks P (the caller's
    (ks-1) log y < P ln 2 allows that) and above C(ks,2) itself.

    log t_ks = log n! - log ks! - log (n-ks)! - C(ks,2) log y from
    mp.loggamma.  Each part and each rounding of the sum is within a few
    units of 2^(M-w): log y is within 2^-w, absolute, of log of the exact
    y, so C(ks,2) log y within C(ks,2) 2^-w.  So the sum is within
    2^-(P+60) and t_ks within 2^-(P+59), before the rounding to 2P+1 bits;
    the walk's bound allows 2^-(P+48).  About 0.15-0.25 ms at bits = 128 on
    a 2-vCPU x86-64 box.
    """
    M = ((n + 1) * (n + 1).bit_length() + ks * (P + ks)).bit_length()
    with mp.workprec(P + 64 + M):
        L = mp.log(as_real(y))
        lt = mp.loggamma(n + 1) - mp.loggamma(ks + 1) - mp.loggamma(n - ks + 1)
        lt -= ks * (ks - 1) // 2 * L
        term, s = _mantissa(mp.exp(lt), 2 * P + 1)
        return (term, s, *_mantissa(mp.exp(-ks * L), P), *_mantissa(mp.exp((ks - 1) * L), P))


@y_memo
def _walk_y(y) -> Tuple[mpf, float, int, int]:
    """log y, its float and 1/y as a P-bit mantissa yinv 2^-ys, P the active
    precision: the walk's own reader, which takes a y that rounds to 1."""
    ym = as_real(y)
    L = mp.log(ym)
    return (L, float(L), *_mantissa(1 / ym, mp.prec))


def _term_walk(
    n: int, y, ctx: PrecisionContext, truncate: bool, n_min: int = 0
) -> Tuple[mpf, TruncationReport]:
    """Sum of t_k = C(n,k) y^{-C(k,2)} in P-bit fixed point, P = ctx.bits +
    _LOOP_GUARD, walked from a start index ks: first left, then right.

    Terms are unimodal: the ratio t_{k+1}/t_k = ((n-k)/(k+1)) y^{-k}
    decreases strictly in k.  The sum comes back as a P-bit mpf, the report
    rounded.  Walks predicted (_walk_terms from k = 0; n + 1 untruncated) to
    take more than WALK_TERMS_CAP terms, times 160/(bits + _LOOP_GUARD) above
    128 bits, are refused before the first.

    ks is the peak k* (_peak_index, the bisection the budget reads) if the
    walk is truncated, k* exceeds the predicted left walk, sqrt(2 (P +
    _LEFT_CUT) ln 2 / log y), by _START_TERMS, and y^(k*-1) < 2^(P-8), so
    that the left shift stays positive; else 0, where t_0 = y^0 = 1 and the
    left side is empty.

    One step rule walks both sides.  Let a = k, Y = y^(k-1) on the left and
    a = n - k, Y = y^-k on the right, and b = n + 1 - a: a step is
    t <- t rho, rho = a Y / b (t_{k-1}/t_k on the left, t_{k+1}/t_k on the
    right), after which a falls by one and Y takes one more factor 1/y.
    From ks on, rho is below 1 and falling on the left, and falls on the
    right, so a side's tail past t is geometrically dominated by
    t rho/(1 - rho).  A side stops at the first term where that bound is
    within 2^-cut of the running total: the left at cut = P + _LEFT_CUT
    (first_kept_index; the dropped terms go into the rounding bound), the
    right only with ``truncate``, at cut = tol (first_omitted_index).  The
    right side starts at ks on a total that holds the left sum, so
    terms_used, first_omitted_index and omitted_tail_bound keep their
    meaning.

    term and total are Python ints times one shared 2^scale; total stays
    at least 2^(2P) (t_ks has 2P + 1 bits; once total passes 2^(3P), both
    shift right until it has 2P + 1 bits), so the last kept term still has
    about bits + 80 bits.  Only the right side can rescale: the left terms
    fall from t_ks, so the left total is at most (steps + 1) 2^(2P+1),
    below 2^(3P) for any walk within the budget.  Y is a P-bit mantissa
    times 2^-sh, each step multiplying it by that of the P-bit mpf 1/y,
    rounded to nearest.  With num = a Y 2^sh, rho = num / (b 2^sh) < 1 and
    the stop test is an exact integer comparison that only shifts right by
    sh.  It can pass only if rho < 1/2 or term <= total 2^-cut, which bit
    lengths decide cheaply first.

    The rounding bound, relative to the sum of the kept terms.  A y power m
    steps from ks drifts by at most (4m + e) 2^-P (1/y is at most three
    roundings off, each step one more; e = 1 for a rounded y^-ks or
    y^(ks-1), 0 for ks = 0), so a term m steps out by W(m) 2^-P, W(m) =
    2m(m-1) + e m.  A term of at least 2^-_HEAVY_BITS of the running total
    is heavy.  On each side the terms fall and the total grows (from k = 0
    they rise first, but each is then at least 1/(k+1) of the total), so the
    heavy terms come first, and every term of at least 2^-_HEAVY_BITS of the
    sum is among them.  They weigh at most W(m_h) 2^-P, m_h the distance of
    the first light term (else the last) on either side, the light ones at
    most N W(m_end) 2^-(P + _HEAVY_BITS), for N terms evaluated and m_end
    the farthest distance.  The final mpf rounds once more, 2^-P.  A peak
    start adds its start term, within 2^-(P+48), and the left cut,
    2^-(P + _LEFT_CUT).  Each floor of a term or a shift loses under one
    unit, at most 2^-2P of the total; while the terms rise such a unit is at
    most N 2^-2P of the term, and where they fall it reaches each later term
    as under one unit.  That sums to 2^-2P ((N+1)^2/2 + shifts (N+1)).
    Second-order terms stay under the 2^-16 slack.
    """
    require_n(n, lo=n_min)
    P = ctx.bits + _LOOP_GUARD
    tol = ctx.bits - GUARD_BITS
    with ctx.prec(_LOOP_GUARD):
        L, Lf, yinv, ys = _walk_y(y)  # 1/y = yinv 2^-ys
        ks, terms = 0, n + 1
        if truncate and Lf > 0:
            peak = _peak_index(n, Lf)
            terms = _walk_terms(n, Lf, tol, peak)
            left = ceil(min(sqrt(2 * (P + _LEFT_CUT) * log(2) / Lf), n)) + 1
            if peak - left > _START_TERMS and (peak - 1) * Lf < (P - 8) * log(2):
                ks = peak
        work_bits = max(ctx.bits, DEFAULT_CTX.bits) + _LOOP_GUARD
        if terms * work_bits > WALK_TERMS_CAP * (DEFAULT_CTX.bits + _LOOP_GUARD):
            raise DomainError(
                "walk-terms-exceeded",
                f"n={brief(n)} at log y = {mp.nstr(L, 6)} needs ~{brief(terms)} terms "
                f"at {ctx.bits} bits, above the cap {WALK_TERMS_CAP} at {DEFAULT_CTX.bits}",
            )
    if ks:
        start, s, ypm, shm, ypl, shl = _start_term(n, ks, y, P)
    else:  # t_0 = y^0 = 1, and no left side
        start, s, ypm, shm, ypl, shl = 1 << (2 * P), 2 * P, 1 << (P - 1), P - 1, 0, 0
    scale, shifts, total, top = -s, 0, start, 1 << (3 * P)  # value = int 2^scale
    sides = ((ks, ypl, shl, P + _LEFT_CUT, True), (n - ks, ypm, shm, tol, truncate))
    reach, heavy = [], []  # per side: distance of the last kept term, of the first light one
    for a0, yp, sh, cut, stops in sides:
        term, light = start, None
        for a in range(a0, 0, -1):
            b = n + 1 - a
            gap = total.bit_length() - term.bit_length()
            if light is None and gap > _HEAVY_BITS:
                light = a0 - a
            num = a * yp
            tn = term * num
            # rho < 1, and rho < 1/2 or term below total 2^-cut: where rho >= 1/2
            # the test below needs term <= total 2^-cut
            if stops and (gap >= cut or num >> (sh - 1) < b) and num >> sh < b:
                # term rho/(1 - rho) <= total 2^-cut, i.e. (tn 2^cut + total num) 2^-sh
                # <= total b, with the ceiling of the left side: no shift left by sh
                if -(-((tn << cut) + total * num) >> sh) <= total * b:
                    break
            term = (tn >> sh) // b
            if total >= top:  # back to 2P bits: a ratio near n may add far more than P
                d = total.bit_length() - 2 * P
                term >>= d
                total >>= d
                scale += d
                shifts += 1
            total += term
            prod = yp * yinv
            d = prod.bit_length() - P
            yp = ((prod >> (d - 1)) + 1) >> 1
            sh += ys - d
        else:
            a = 0  # every term on this side kept
        reach.append(a0 - a)
        heavy.append(a0 - a if light is None else light)
    first, used = ks - reach[0], ks + reach[1] + 1
    omitted = used if a else None  # the right side stopped
    N, m_end, m_h = used - first, max(reach), max(heavy)
    e = 1 if ks else 0

    def W(m):  # the drift of a term m steps from ks, in units of 2^-P
        return 2 * m * (m - 1) + e * m

    # twice the rounding bound in units of 2^-2P; a peak start's start term
    # and left cut, 2^-(P+48) + 2^-(P+32), within 2^-(P+31)
    units = (1 << (P + 1)) * (1 + W(m_h)) + ((N * W(m_end) << (P + 1)) >> _HEAVY_BITS) + 1
    units += (N + 1) * (N + 1 + 2 * shifts) + (e << (P + 2 - _LEFT_CUT))
    with ctx.prec(_LOOP_GUARD):
        total_m = mpf((total, scale))
        bound = mpf(0)
        if omitted:
            ratio = mpf((num, -sh)) / b
            bound = mpf((term, scale)) * ratio / (1 - ratio)
    with ctx.prec():
        rounding = mpf((units * ((1 << 16) + 1), -2 * P - 17))
        report = TruncationReport(used, first, omitted, +bound, bound / total_m, rounding)
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
