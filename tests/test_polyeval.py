"""Tests for exact, float, and log evaluation of f_n(1/y) and its
forward differences.

Oracles: a per-term Fraction summation (independent of the common
denominator trick in eval_exact), exact binomial telescoping, and
frozen hand-computed rationals.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from lacunary_asym import (
    DomainError,
    ComputationError,
    EXACT_MODE_CAP,
    PrecisionContext,
    WALK_TERMS_CAP,
    as_real,
    certify_absolute_monotonicity,
    eval_exact,
    eval_float,
    eval_log,
    forward_difference,
)
from lacunary_asym import polyeval as pe


def brute_f(n: int, y: Fraction) -> Fraction:
    """Per-term reference sum, no shared-denominator shortcuts."""
    return sum(
        Fraction(math.comb(n, k)) * Fraction(1, 1) / y ** (k * (k - 1) // 2)
        for k in range(n + 1)
    )


def brute_diff(n: int, r: int, y: Fraction) -> Fraction:
    return sum(
        Fraction(math.comb(n, k)) / y ** ((k + r) * (k + r - 1) // 2)
        for k in range(n + 1)
    )


class TestEvalExact:
    def test_frozen_small_values(self):
        assert eval_exact(0, 2) == 1
        assert eval_exact(1, 2) == 2
        assert eval_exact(2, 2) == Fraction(7, 2)
        assert eval_exact(3, 2) == Fraction(45, 8)
        assert eval_exact(5, 2) == Fraction(12625, 1024)

    @pytest.mark.parametrize(
        "y", [Fraction(2), Fraction(3, 2), Fraction(7, 3), Fraction(1, 2), Fraction(5)]
    )
    def test_matches_per_term_sum(self, y):
        for n in range(26):
            assert eval_exact(n, y) == brute_f(n, y)

    def test_accepts_sub_unit_rational(self):
        # exact mode only needs y > 0; y = 1/2 turns the sum into integers
        assert eval_exact(3, Fraction(1, 2)) == 1 + 3 + 3 * 2 + 2**3

    def test_rejects_negative_n(self):
        with pytest.raises(DomainError) as exc:
            eval_exact(-1, 2)
        assert exc.value.code == "n-out-of-domain"

    def test_rejects_nonpositive_y(self):
        for bad in (0, Fraction(-1, 3)):
            with pytest.raises(DomainError) as exc:
                eval_exact(4, bad)
            assert exc.value.code == "y-out-of-domain"

    def test_rejects_irrational_y(self):
        with pytest.raises(DomainError) as exc:
            eval_exact(4, mpf("2.5"))
        assert exc.value.code == "y-out-of-domain"

    @pytest.mark.usefixtures("time_limit")
    def test_cap(self):
        with pytest.raises(DomainError) as exc:
            eval_exact(EXACT_MODE_CAP + 1, 2)
        assert exc.value.code == "exact-cap-exceeded"
        # just inside the cap still runs (value is astronomically long; only
        # positivity and integrality of the denominator are worth asserting)
        v = eval_exact(EXACT_MODE_CAP, 2)
        assert v > 0

    @given(
        n=st.integers(min_value=0, max_value=60),
        p=st.integers(min_value=1, max_value=9),
        q=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=40)
    def test_random_agreement(self, n, p, q):
        y = Fraction(p, q)
        assert eval_exact(n, y) == brute_f(n, y)

    @pytest.mark.parametrize(
        "n, r, y", [(500, 0, Fraction(2)), (300, 0, Fraction(3, 2)), (40, 7, Fraction(3, 2))]
    )
    def test_lowest_terms_without_a_gcd(self, n, r, y):
        # the kernel builds its Fraction unnormalised; its proof must hold
        v = pe._exact_sum(n, r, y)
        assert math.gcd(v.numerator, v.denominator) == 1
        assert v.denominator == y.numerator ** ((n + r) * (n + r - 1) // 2)

    @given(
        n=st.integers(min_value=0, max_value=40),
        r=st.integers(min_value=0, max_value=40),
        p=st.integers(min_value=1, max_value=12),
        q=st.integers(min_value=1, max_value=12),
    )
    @example(n=0, r=1, p=5, q=3)  # n + r <= 1: denominator 1
    @example(n=1, r=0, p=1, q=4)
    @example(n=9, r=4, p=1, q=1)  # y = 1
    @example(n=12, r=5, p=2, q=9)  # y < 1
    @example(n=40, r=40, p=12, q=11)
    @settings(max_examples=60)
    def test_kernel_matches_naive_reference(self, n, r, p, q):
        y = Fraction(p, q)
        got, want = pe._exact_sum(n, r, y), brute_diff(n, r, y)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


class TestEvalFloat:
    def test_matches_exact_exhaustively(self, ctx):
        for y in (2, Fraction(3, 2)):
            yq = Fraction(y)
            for n in range(0, 201, 7):
                val, _ = eval_float(n, y, ctx)
                with ctx.prec():
                    want = mpf(yq.numerator) / yq.denominator  # noqa: F841
                    exact = eval_exact(n, yq)
                    ref = mpf(exact.numerator) / exact.denominator
                    assert abs(val - ref) <= 4 * ctx.eps * ref

    def test_spot_check_n_1000(self, ctx):
        exact = eval_exact(1000, 2)
        val, rep = eval_float(1000, 2, ctx)
        with ctx.prec():
            ref = mpf(exact.numerator) / exact.denominator
            assert abs(val - ref) <= 4 * ctx.eps * ref
        assert rep.terms_used < 1001  # truncation must have kicked in

    def test_truncation_bound_is_sound(self, ctx):
        for n in (50, 100, 300, 500):
            val, rep = eval_float(n, 2, ctx)
            exact = eval_exact(n, 2)
            with ctx.prec(60):
                ref = mpf(exact.numerator) / exact.denominator
                err = abs(val - ref)
                # dropped tail plus final rounding
                assert err <= rep.omitted_tail_bound + 2 * ctx.eps * ref
            assert rep.first_omitted_index is not None
            assert rep.terms_used == rep.first_omitted_index

    def test_full_sum_report_when_no_truncation(self, ctx):
        _, rep = eval_float(10, 1000, ctx)
        assert rep.terms_used <= 11
        if rep.first_omitted_index is None:
            assert rep.omitted_tail_bound == 0

    def test_growth_in_n(self, ctx):
        prev = mpf(0)
        for n in range(0, 201, 10):
            val, _ = eval_float(n, 2, ctx)
            assert val > prev
            prev = val

    def test_rejects_y_at_or_below_1(self, ctx):
        for bad in (1, Fraction(9, 10)):
            with pytest.raises(DomainError) as exc:
                eval_float(5, bad, ctx)
            assert exc.value.code == "y-out-of-domain"

    def test_rejects_negative_n(self, ctx):
        with pytest.raises(DomainError):
            eval_float(-2, 2, ctx)

    def test_rejects_non_integer_n(self, ctx):
        # a fractional n used to return a value with a negative tail bound
        for bad in (10.5, True):
            with pytest.raises(DomainError) as exc:
                eval_float(bad, 2, ctx)
            assert exc.value.code == "n-out-of-domain"

    def test_rejects_infinite_y(self, ctx):
        # used to return 11, the value at y = inf of the truncated walk
        with pytest.raises(DomainError) as exc:
            eval_float(10, mp.inf, ctx)
        assert exc.value.code == "y-out-of-domain"

    def test_relative_tail_bound(self, ctx):
        val, rep = eval_float(500, 2, ctx)
        assert rep.first_omitted_index is not None
        with ctx.prec():
            want = rep.omitted_tail_bound / val
            assert 0 < rep.relative_tail_bound <= ctx.eps
            assert abs(rep.relative_tail_bound - want) <= 4 * ctx.eps * want

    def test_relative_tail_bound_zero_for_full_sum(self, ctx):
        _, rep = eval_log(10, 2, ctx, truncate=False)
        assert rep.first_omitted_index is None
        assert rep.omitted_tail_bound == 0 and rep.relative_tail_bound == 0

    @given(
        n=st.integers(min_value=0, max_value=60),
        num=st.integers(min_value=5, max_value=32),
    )
    @settings(max_examples=30)
    def test_random_rational_y(self, ctx, n, num):
        y = Fraction(num, 4)  # y in (1, 8]
        if y <= 1:
            return
        val, _ = eval_float(n, y, ctx)
        exact = eval_exact(n, y)
        with ctx.prec():
            ref = mpf(exact.numerator) / exact.denominator
            assert abs(val - ref) <= 4 * ctx.eps * ref


class TestEvalLog:
    def test_frozen_example(self, ctx):
        lv, _ = eval_log(5, 2, ctx)
        with ctx.prec():
            want = mp.log(mpf(12625) / 1024)
            assert abs(lv.log_magnitude - want) <= 4 * ctx.eps
        assert mp.nstr(lv.log_magnitude, 7) == "2.511962"

    def test_matches_float_path(self, ctx):
        for y in (2, Fraction(3, 2), 10):
            for n in (1, 2, 17, 100, 1000):
                lv, _ = eval_log(n, y, ctx)
                fv, _ = eval_float(n, y, ctx)
                with ctx.prec():
                    assert abs(lv.log_magnitude - mp.log(fv)) <= 8 * ctx.eps * max(
                        1, abs(mp.log(fv))
                    )

    def test_truncate_false_agreement(self, ctx):
        for n in (10, 60, 200):
            full, rep_full = eval_log(n, 2, ctx, truncate=False)
            trunc, rep_trunc = eval_log(n, 2, ctx, truncate=True)
            assert rep_full.terms_used == n + 1
            assert rep_full.first_omitted_index is None
            assert rep_trunc.terms_used <= rep_full.terms_used
            with ctx.prec():
                assert abs(full.log_magnitude - trunc.log_magnitude) <= 8 * ctx.eps * max(
                    1, abs(full.log_magnitude)
                )

    def test_large_n_cross_check(self, ctx):
        # 10^4 is beyond the exact-mode cap: check the two independent
        # floating paths against each other instead.
        lv, _ = eval_log(10**4, 2, ctx)
        fv, _ = eval_float(10**4, 2, ctx)
        with ctx.prec():
            assert abs(lv.log_magnitude - mp.log(fv)) <= 8 * ctx.eps * lv.log_magnitude

    def test_rejects_n_below_1(self, ctx):
        with pytest.raises(DomainError) as exc:
            eval_log(0, 2, ctx)
        assert exc.value.code == "n-out-of-domain"

    def test_rejects_y_at_or_below_1(self, ctx):
        with pytest.raises(DomainError) as exc:
            eval_log(5, 1, ctx)
        assert exc.value.code == "y-out-of-domain"

    def test_rejects_non_integer_n(self, ctx):
        # a fractional n used to raise a raw TypeError (complex ordering)
        for bad in (10.5, True):
            with pytest.raises(DomainError) as exc:
                eval_log(bad, 2, ctx)
            assert exc.value.code == "n-out-of-domain"

    def test_rejects_infinite_y(self, ctx):
        # used to return log f = nan
        with pytest.raises(DomainError) as exc:
            eval_log(10, mp.inf, ctx)
        assert exc.value.code == "y-out-of-domain"


class TestWalkBudget:
    @pytest.mark.parametrize(
        "y", ["1.01", "1.001", "1.0001", "1.00001", "1.000001", "3/2", "2", "100"]
    )
    def test_prediction_covers_the_walk(self, ctx, y):
        # eval_float and eval_log share the walk, so one report serves both
        with ctx.prec(pe._LOOP_GUARD):
            L = float(mp.log(as_real(Fraction(y))))
        for n in (10, 100, 1000, 10**4, 10**5):
            _, report = eval_float(n, Fraction(y), ctx)
            predicted = pe._walk_terms(n, L, ctx.bits - ctx.guard_bits)
            assert report.terms_used <= predicted <= 2 * report.terms_used

    def test_y_rounded_to_1_predicts_every_term(self, ctx):
        assert pe._walk_terms(10**7, 0.0, 112) == 10**7 + 1
        with pytest.raises(DomainError) as exc:
            eval_log(10**7, "1." + "0" * 60 + "1", ctx)
        assert exc.value.code == "walk-terms-exceeded"

    def test_untruncated_walk_counts_every_term(self, ctx):
        eval_log(1000, 2, ctx, truncate=False)
        # terms x (bits + 32) above 128 bits; the term count alone below
        for bits, n in ((128, WALK_TERMS_CAP), (53, WALK_TERMS_CAP), (1024, 151_515)):
            with pytest.raises(DomainError) as exc:
                eval_log(n, 2, PrecisionContext(bits=bits), truncate=False)
            assert exc.value.code == "walk-terms-exceeded"


def reference_walk(n: int, y, ctx: PrecisionContext, truncate: bool):
    """The mpf term walk that the fixed-point one replaced: the same k = 0
    start, term ratio and stopping test, every step rounded at
    ctx.bits + _LOOP_GUARD bits.  Returns the sum, terms_used,
    first_omitted_index and omitted_tail_bound, all unrounded."""
    with ctx.prec(pe._LOOP_GUARD):
        ym = as_real(y)
        eps = ctx.eps
        yinv = 1 / ym
        ypow = mpf(1)  # y^-k
        term = mpf(1)  # C(n,k) y^-C(k,2)
        total = mpf(0)
        for k in range(n):
            total += term
            ratio = (mpf(n - k) / (k + 1)) * ypow
            if truncate and ratio < 1:
                bound = term * ratio / (1 - ratio)
                if bound <= eps * total:
                    return total, k + 1, k + 1, bound
            term *= ratio
            ypow *= yinv
        return total + term, n + 1, None, mpf(0)


WALK_YS = ["1.01", "1.001", "1.0001", "1.00001", "1.000001", Fraction(3, 2), 2, 100, "1e1000"]
WALK_NS = [1, 10, 100, 1000, 10**4, 10**5]
# An untruncated reference walk over 10^5 + 1 terms takes ~1.5 s; n <= 10^4
# covers the untruncated walk past the peak down to terms that floor to 0.
WALK_CASES = [(n, t) for n in WALK_NS for t in (True, False) if t or n < 10**5]


def check_against_reference_walk(n: int, y, ctx: PrecisionContext, truncate: bool):
    total, rep = pe._term_walk(n, y, ctx, truncate)
    ref, used, omitted, bound = reference_walk(n, y, ctx, truncate)
    assert (rep.terms_used, rep.first_omitted_index) == (used, omitted)
    with ctx.prec():
        assert rep.omitted_tail_bound == +bound
    P = ctx.bits + pe._LOOP_GUARD
    with mp.workprec(2 * P):
        assert abs(total - ref) / ref <= rep.rounding_bound + mpf(2) ** -(ctx.bits + P // 2)


@pytest.mark.parametrize("bits", [53, 128, 400])
@pytest.mark.parametrize("n, truncate", WALK_CASES)
@pytest.mark.parametrize("y", WALK_YS)
def test_fixed_point_walk_matches_mpf_walk(y, n, truncate, bits):
    check_against_reference_walk(n, y, PrecisionContext(bits=bits), truncate)


@pytest.mark.usefixtures("time_limit")
def test_fixed_point_walk_for_huge_n(ctx):
    # the first ratios are near n = 2^2990: rescaling by P bits at a time
    # let the integers grow by thousands of bits a term (8.6 s at n = 10^600)
    check_against_reference_walk(10**900, 2, ctx, truncate=True)


def reference_log_f(n: int, y: Fraction, bits: int = 256) -> mpf:
    """log f_n(1/y) from exp(log C(n,k) - C(k,2) log y) term by term.

    Independent of the term walk behind eval_float and eval_log: every
    log-binomial comes from mp.loggamma and the terms are added by
    mp.fsum.  The terms are log-concave in k, so once one lies `cut`
    below the largest so far, the n or fewer after it sum to less than
    2^-bits of the total and are dropped.
    """
    with mp.workprec(bits):
        logy = mp.log(as_real(y))
        lg_n = mp.loggamma(n + 1)
        cut = bits * mp.log(2) + mp.log(n + 1)
        logs = []
        peak = mpf("-inf")
        for k in range(n + 1):
            lt = lg_n - mp.loggamma(k + 1) - mp.loggamma(n - k + 1) - (k * (k - 1) // 2) * logy
            logs.append(lt)
            peak = max(peak, lt)
            if lt < peak - cut:
                break
        return peak + mp.log(mp.fsum(mp.exp(lt - peak) for lt in logs))


@functools.lru_cache(maxsize=None)
def reference_log_f_400(n: int, y) -> mpf:
    return reference_log_f(n, y, bits=400)


# Leaves out the near-one walks whose 400-bit reference sums 6,000 to 72,000
# terms, 1 to 8 s each; TestEvalLogReference checks (10^5, 1.0001) against
# a 256-bit one.
LONG_WALKS = {(n, y) for n in (10**4, 10**5) for y in ("1.0001", "1.00001", "1.000001")}
REFERENCE_CASES = [
    (y, n, t) for y in WALK_YS for n, t in WALK_CASES if (n, y) not in LONG_WALKS
]


@pytest.mark.parametrize("bits", [53, 128, 400])
@pytest.mark.parametrize("y, n, truncate", REFERENCE_CASES)
def test_rounding_bound_covers_loggamma_reference(y, n, truncate, bits):
    total, rep = pe._term_walk(n, y, PrecisionContext(bits=bits), truncate)
    ref = reference_log_f_400(n, y)
    with mp.workprec(440):
        # the kept sum is within rounding_bound of total, the dropped tail
        # within relative_tail_bound; the reference is good to ~2^-380
        err = abs(mp.log(total) - ref)
        assert err <= (rep.rounding_bound + rep.relative_tail_bound) * (1 + mpf(2) ** -10) + (
            mpf(2) ** -360
        )


class TestEvalLogReference:
    @pytest.mark.parametrize(
        "n,y", [(10**4, Fraction(2)), (10**3, Fraction("1.01")), (10**5, Fraction("1.0001"))]
    )
    def test_matches_loggamma_reference(self, ctx, n, y):
        lv, _ = eval_log(n, y, ctx)
        ref = reference_log_f(n, y)
        total, rep = pe._term_walk(n, y, ctx, truncate=True)
        with mp.workprec(256):
            assert abs(lv.log_magnitude - ref) <= 8 * ctx.eps * abs(ref)
            bound = rep.rounding_bound + rep.relative_tail_bound
            assert abs(mp.log(total) - ref) <= bound * (1 + mpf(2) ** -10) + mpf(2) ** -220


class TestLogRatioTrend:
    """(log f_n) * (2 log y) / log^2 n drifts toward 1 from below for
    moderate y; for larger y it overshoots 1 and comes back down.  Only the
    verified direction on each verified range is asserted."""

    @staticmethod
    def ratio(n, y, ctx):
        lv, _ = eval_log(n, y, ctx)
        with ctx.prec():
            return lv.log_magnitude * 2 * mp.log(as_real(y)) / mp.log(n) ** 2

    def test_increasing_from_1e2_for_y_3_2(self, ctx):
        vals = [self.ratio(10**j, Fraction(3, 2), ctx) for j in range(2, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1

    def test_increasing_from_1e3_for_y_2(self, ctx):
        vals = [self.ratio(10**j, 2, ctx) for j in range(3, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1

    def test_decreasing_through_1_for_y_4(self, ctx):
        # larger y overshoots: the ratio starts above 1, crosses between
        # 10^2 and 10^3, and keeps falling on this grid
        vals = [self.ratio(10**j, 4, ctx) for j in range(2, 8)]
        assert vals[0] > 1 and vals[1] < 1
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestForwardDifference:
    def test_frozen_values(self):
        assert forward_difference(1, 1, 2) == Fraction(3, 2)
        assert forward_difference(3, 0, 2) == Fraction(45, 8)

    def test_r0_is_identity(self):
        for n in range(12):
            assert forward_difference(n, 0, Fraction(5, 2)) == eval_exact(
                n, Fraction(5, 2)
            )

    @pytest.mark.parametrize("y", [Fraction(2), Fraction(3, 2), Fraction(9, 4)])
    def test_telescopes_against_eval_exact(self, y):
        # D^r f_n == D^{r-1} f_{n+1} - D^{r-1} f_n, grounded at r = 0
        max_n, max_r = 50, 10
        table = [[eval_exact(m, y) for m in range(max_n + max_r + 1)]]
        for r in range(1, max_r + 1):
            prev = table[-1]
            table.append([b - a for a, b in zip(prev, prev[1:])])
        for r in range(max_r + 1):
            for n in range(0, max_n + 1, 7):
                assert forward_difference(n, r, y) == table[r][n]

    def test_matches_per_term_sum(self):
        y = Fraction(7, 5)
        for n in range(0, 21, 4):
            for r in range(6):
                assert forward_difference(n, r, y) == brute_diff(n, r, y)

    def test_cap_counts_n_plus_r(self):
        with pytest.raises(DomainError) as exc:
            forward_difference(EXACT_MODE_CAP, 1, 2)
        assert exc.value.code == "exact-cap-exceeded"

    def test_rejects_negative_args(self):
        for n, r in ((-1, 0), (0, -1)):
            with pytest.raises(DomainError):
                forward_difference(n, r, 2)


class TestCertificate:
    def test_trivial_certificate(self):
        cert = certify_absolute_monotonicity(0, 0, 2)
        assert len(cert.entries) == 1
        e = cert.entries[0]
        assert (e.n, e.r, e.value) == (0, 0, Fraction(1))

    def test_frozen_5_3_2(self):
        cert = certify_absolute_monotonicity(5, 3, 2)
        assert len(cert.entries) == 24  # (5+1) * (3+1)
        assert cert.N == 5 and cert.R == 3 and cert.y == 2
        assert all(e.value > 0 for e in cert.entries)
        # spot-check one interior entry by hand:
        # D^2 f_0 = y^{-C(2,2)} = 1/2,  D^2 f_1 = y^{-1} + y^{-3} = 5/8
        by_key = {(e.n, e.r): e.value for e in cert.entries}
        assert by_key[(0, 2)] == Fraction(1, 2)
        assert by_key[(1, 2)] == Fraction(5, 8)
        assert by_key[(5, 0)] == Fraction(12625, 1024)

    def test_entries_sorted_by_n_then_r(self):
        cert = certify_absolute_monotonicity(3, 2, Fraction(3, 2))
        keys = [(e.n, e.r) for e in cert.entries]
        assert keys == sorted(keys)

    def test_larger_grid(self):
        cert = certify_absolute_monotonicity(10, 5, 3)
        assert len(cert.entries) == 66
        assert all(e.value > 0 for e in cert.entries)

    @pytest.mark.parametrize("m", [2, 5])
    def test_detects_tampered_evaluation(self, monkeypatch, m):
        # f_m off by one on the telescoped side; m = N + R reaches only the
        # corner (N, R), through R subtractions
        real = pe.eval_exact

        def crooked(k, y):
            v = real(k, y)
            return v + 1 if k == m else v

        monkeypatch.setattr(pe, "eval_exact", crooked)
        with pytest.raises(ComputationError) as exc:
            pe.certify_absolute_monotonicity(3, 2, 2)
        assert exc.value.code == "monotonicity-violation"

    def test_violation_message_does_not_print_the_values(self, monkeypatch):
        # the numerators run past 4300 digits, where str(int) raises ValueError
        y = Fraction(10**40 + 1, 10**40)
        real = pe.eval_exact
        monkeypatch.setattr(pe, "eval_exact", lambda k, yq: real(k, yq) * (2 if k == 20 else 1))
        with pytest.raises(ComputationError) as exc:
            pe.certify_absolute_monotonicity(10, 10, y)
        assert exc.value.code == "monotonicity-violation"
        assert len(str(exc.value)) < 200

    def test_one_evaluation_per_m_and_no_per_entry_kernel_call(self, monkeypatch):
        calls = []
        real_sum = pe._exact_sum

        def counted(n, r, y):
            calls.append((n, r))
            return real_sum(n, r, y)

        monkeypatch.setattr(pe, "_exact_sum", counted)
        monkeypatch.setattr(pe, "forward_difference", None)
        pe.certify_absolute_monotonicity(6, 4, Fraction(3, 2))
        assert calls == [(m, 0) for m in range(11)]  # N + R + 1 values f_m

    @pytest.mark.parametrize(
        "y", [Fraction(2), Fraction(3, 2), Fraction(1, 3), Fraction(1), Fraction(9, 4)]
    )
    @pytest.mark.parametrize("N, R", [(0, 0), (0, 6), (7, 0), (5, 9), (11, 4)])
    def test_entries_equal_forward_difference(self, y, N, R):
        # the table against binary splitting, numerators and denominators
        cert = certify_absolute_monotonicity(N, R, y)
        assert [(e.n, e.r) for e in cert.entries] == [
            (n, r) for n in range(N + 1) for r in range(R + 1)
        ]
        for e in cert.entries:
            want = forward_difference(e.n, e.r, y)
            assert (e.value.numerator, e.value.denominator) == (
                want.numerator,
                want.denominator,
            )

    def test_cap(self):
        with pytest.raises(DomainError) as exc:
            certify_absolute_monotonicity(EXACT_MODE_CAP, 1, 2)
        assert exc.value.code == "exact-cap-exceeded"


class TestPrecisionIndependence:
    def test_value_stable_under_extra_bits(self):
        lo = PrecisionContext(bits=128)
        hi = PrecisionContext(bits=256)
        v_lo, _ = eval_float(123, Fraction(3, 2), lo)
        v_hi, _ = eval_float(123, Fraction(3, 2), hi)
        with hi.prec():
            assert abs(v_lo - v_hi) <= 4 * lo.eps * v_hi
