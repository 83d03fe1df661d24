"""Tests for exact, float, and log evaluation of f_n(1/y) and its
forward differences.

Oracles: a per-term Fraction summation (independent of the common
denominator trick in eval_exact), exact binomial telescoping, and
frozen hand-computed rationals.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from lacunary_asym import (
    DomainError,
    ComputationError,
    EXACT_MODE_CAP,
    PrecisionContext,
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


class TestEvalLogReference:
    @pytest.mark.parametrize(
        "n,y", [(10**4, Fraction(2)), (10**3, Fraction("1.01")), (10**5, Fraction("1.0001"))]
    )
    def test_matches_loggamma_reference(self, ctx, n, y):
        lv, _ = eval_log(n, y, ctx)
        ref = reference_log_f(n, y)
        with mp.workprec(256):
            assert abs(lv.log_magnitude - ref) <= 8 * ctx.eps * abs(ref)


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

    def test_detects_tampered_closed_form(self, monkeypatch):
        real = pe.forward_difference

        def crooked(n, r, y):
            v = real(n, r, y)
            return v + 1 if (n, r) == (2, 1) else v

        monkeypatch.setattr(pe, "forward_difference", crooked)
        with pytest.raises(ComputationError) as exc:
            pe.certify_absolute_monotonicity(3, 2, 2)
        assert exc.value.code == "monotonicity-violation"

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
