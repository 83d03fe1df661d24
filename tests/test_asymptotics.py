"""Tests for saddle data, Euler-Frobenius closed forms, theta_3, and the
two asymptotic approximations.

Oracles: the generating identity sum_l l^nu z^l = P_nu(z)/(1-z)^{nu+1}
checked coefficient-by-coefficient over the integers, 400-bit frozen digit
strings, and exact algebraic identities of the saddle equation.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from lacunary_asym import (
    ApproxRecord,
    DomainError,
    ORDER_CAP,
    PrecisionContext,
    approx_bdm,
    approx_theorem,
    approximation_summary,
    b_closed_form,
    euler_frobenius,
    eval_log,
    proof_residuals,
    rho,
    saddle_data,
    solve_r,
    solve_w,
    theta3,
)
from lacunary_asym import solvers

# 400-bit reference digits, frozen.
R_2_2 = "0.604312801713753697777079000676161532165267546"
X_2_2 = "0.772796742384422914788828353224401759179390931"
A_2_2 = "0.96724121523024682359686684014615373068984794"
PSI0_2_2 = "1.40854851922776455977430667349378307770368123"
THETA_0_01 = "1.200200002000000200000000200000000002"
THETA_HALFPI_01 = "0.800199998000000199999999800000000002"
RHO_10_100 = "0.0273274297892283212038991258038"
RHO_BOUND_100 = "0.027894756672245351465016663289"


def close(got, digits, ctx, factor=8):
    with mp.workprec(400):
        want = mpf(digits)
        return abs(got - want) <= factor * ctx.eps * abs(want)


class TestEulerFrobenius:
    def test_frozen_low_orders(self):
        assert euler_frobenius(0) == [1]
        assert euler_frobenius(1) == [0, 1]
        assert euler_frobenius(2) == [0, 1, 1]
        assert euler_frobenius(3) == [0, 1, 4, 1]
        assert euler_frobenius(4) == [0, 1, 11, 11, 1]

    def test_generating_identity(self):
        # sum_i p_i * C(l - i + nu, nu) == l^nu  for all l >= 1
        for nu in range(9):
            p = euler_frobenius(nu)
            for l in range(1, 11):
                acc = sum(
                    c * math.comb(l - i + nu, nu)
                    for i, c in enumerate(p)
                    if l - i >= 0
                )
                assert acc == l**nu, (nu, l)

    def test_palindromic_and_factorial_sum(self):
        for nu in range(1, 21):
            p = euler_frobenius(nu)
            assert p[0] == 0
            core = p[1:]
            assert core == core[::-1]
            assert sum(p) == math.factorial(nu)

    def test_rejects_negative(self):
        with pytest.raises(DomainError) as exc:
            euler_frobenius(-1)
        assert exc.value.code == "nu-out-of-domain"


class TestTheta3:
    def test_frozen_values(self, ctx):
        got = theta3(0, Fraction(1, 10), ctx=ctx)
        assert close(got.value, THETA_0_01, ctx)
        with ctx.prec(40):
            z = mp.pi / 2
        got2 = theta3(z, Fraction(1, 10), ctx=ctx)
        assert close(got2.value, THETA_HALFPI_01, ctx)

    def test_q_zero_is_1(self, ctx):
        for z in (0, 1, Fraction(-7, 3)):
            res = theta3(z, 0, ctx=ctx)
            assert res.value == 1
            assert res.K == 0

    def test_periodicity_in_pi(self, ctx):
        with ctx.prec(40):
            z = mpf("0.37")
            zpi = z + mp.pi
        a = theta3(z, Fraction(1, 5), ctx=ctx).value
        b = theta3(zpi, Fraction(1, 5), ctx=ctx).value
        with ctx.prec():
            assert abs(a - b) <= 8 * ctx.eps * abs(a)

    def test_evenness(self, ctx):
        a = theta3(Fraction(1, 3), Fraction(1, 5), ctx=ctx).value
        b = theta3(Fraction(-1, 3), Fraction(1, 5), ctx=ctx).value
        assert a == b

    def test_tail_bound_honored(self, ctx):
        # the direct side, q <= e^-pi: its K is the order of the cos sum
        for q in (Fraction(1, 100), Fraction(1, 50), Fraction(1, 25)):
            res = theta3(Fraction(1, 7), q, ctx=ctx)
            with ctx.prec(40):
                qm = mpf(q.numerator) / q.denominator
                tail = 2 * qm ** ((res.K + 1) ** 2) / (1 - qm)
                assert tail <= ctx.eps

    def test_terms_bounded_at_any_nome(self):
        # the direct sum took K = 9,599 terms at q = 1 - 1e-6 and kept no
        # digit (relative error 10^434284); either side now takes a bounded
        # number of terms
        for bits, most in ((128, 12), (1024, 32)):
            ctx = PrecisionContext(bits=bits)
            for q in ("0", "0.01", "0.0432", "0.0433", "0.5", "0.999999", "0.9999999999999999"):
                for z in (0, 1, "0.7853981633974483", "1.5707963267948966", "1e30"):
                    assert theta3(z, q, ctx=ctx).K <= most

    def test_regression_q_09(self, ctx):
        # the direct sum was 28.7 eps off
        got = theta3(1, "0.9", ctx=ctx).value
        with mp.workprec(3 * ctx.bits):
            want = mp.jtheta(3, 1, mpf("0.9"))
            assert abs(got - want) <= ctx.eps * want

    @pytest.mark.parametrize("bits", [128, 1024])
    @pytest.mark.parametrize("side", ["direct", "dual"])
    @settings(derandomize=True, max_examples=25)
    @given(z=st.floats(-1e30, 1e30), u=st.floats(0, 1))
    def test_within_eps_of_a_reference(self, dual_theta, side, bits, z, u):
        # q in [0, 0.0432] has a = -log q >= pi, q in [0.04322, 1 - 9.6e-17]
        # a < pi; q is a decimal, so that rounding it is part of the error.
        # The references run at over 3x the bits.
        if side == "direct":
            q = Decimal(repr(u * 0.0432))
        else:
            q = 1 - Decimal(repr(0.95678 * 10 ** (-16 * u)))
        ctx = PrecisionContext(bits=bits)
        got = theta3(z, str(q), ctx=ctx).value
        with mp.workprec(3 * bits + 64):
            qm = mpf(str(q))
            if q <= Decimal("0.9"):
                want = mp.jtheta(3, mpf(z), qm)
            else:
                want = dual_theta(z, -mp.log(qm), mp.prec)
            assert abs(got - want) <= ctx.eps * want

    def test_nome_domain(self, ctx):
        for bad in (1, Fraction(11, 10), Fraction(-1, 10)):
            with pytest.raises(DomainError) as exc:
                theta3(0, bad, ctx=ctx)
            assert exc.value.code == "nome-out-of-domain"


class TestSaddleData:
    def test_frozen_n2_y2(self, ctx):
        d = saddle_data(2, 2, ctx=ctx)
        assert d.n == 2 and d.y == 2
        assert close(d.r, R_2_2, ctx)
        assert close(d.x, X_2_2, ctx)
        assert close(d.a, A_2_2, ctx)
        assert close(d.psi0, PSI0_2_2, ctx, factor=16)

    def test_b_count_tracks_K(self, ctx):
        assert len(saddle_data(10, 2, ctx=ctx).b) == 6  # default K = 8
        assert len(saddle_data(10, 2, K=3, ctx=ctx).b) == 1
        assert len(saddle_data(10, 2, K=12, ctx=ctx).b) == 10

    def test_b_parity_gives_exact_purity(self, ctx):
        d = saddle_data(7, Fraction(5, 2), K=10, ctx=ctx)
        for nu, bv in zip(range(3, 11), d.b):
            if nu % 2:
                assert bv.real == 0 and bv.imag != 0
            else:
                assert bv.imag == 0 and bv.real != 0

    def test_b_series_matches_closed_form(self, ctx, b_series):
        # b is the closed form; the series, summed at raised precision, is the reference
        for n in (10, 100, 10**4):
            d = saddle_data(n, 2, K=10, ctx=ctx)
            with ctx.prec(40):
                for nu, bv in zip(range(3, 11), d.b):
                    ref = b_series(n, d.x, nu)
                    assert abs(bv - ref) <= mpf("1e-25") * abs(ref), (n, nu)

    def test_b_within_eps_at_the_order_cap(self, ctx):
        # at n = 2, x = 0.77: the series lost ~190 bits at nu = 64 (3.9e20
        # relative), 1.3e4 at n = 3 and 3.4e-10 at n = 5
        hi = PrecisionContext(bits=1024)
        for n in (2, 3, 5):
            lo_b = saddle_data(n, 2, K=ORDER_CAP, ctx=ctx).b
            hi_b = saddle_data(n, 2, K=ORDER_CAP, ctx=hi).b
            with hi.prec():
                for nu, a, b in zip(range(3, ORDER_CAP + 1), lo_b, hi_b):
                    assert abs(a - b) <= ctx.eps * abs(b), (n, nu)

    def test_b_closed_form_keeps_digits_at_a_zero(self, ctx):
        # b_4 = 0 at x = 2 - sqrt(3): a rounded Horner sum was off by 1.6e-2, relative
        with mp.workprec(ctx.bits):
            x = 2 - mp.sqrt(3)
        with ctx.prec():
            got = b_closed_form(10, x, 4)
        with mp.workprec(3000):
            ref = -10 * (-x + 4 * x**2 - x**3) / (24 * (1 + x) ** 4)
            assert abs(got - ref) <= ctx.eps * abs(ref)

    def test_b_closed_form_matches_the_polylog(self, ctx):
        # the sign of x was dropped, so P_{nu-1}(x) was summed for P_{nu-1}(-x):
        # b_3 at x = -0.5 read -3.333i for 10i; and b_1 summed from k = 0.
        # Reference: b_nu = (-n i^nu / nu!) Li_{1-nu}(-x).  |x| of 1e-60 and
        # 1e60 take the one-term branch at low nu, the others the exact sum
        xs = ("1e60", "3e45", "1e20", "2", "0.5", "1e-3", "1e-60")
        for x in xs + tuple("-" + x for x in xs):
            with ctx.prec():
                xm = mpf(x)
            for nu in (1, 2, 3, 4, 7, 16):
                got = b_closed_form(10, xm, nu, ctx)
                with mp.workprec(800):
                    ref = -10 * mp.j**nu / mp.factorial(nu) * mp.polylog(1 - nu, -xm)
                    assert abs(got - ref) <= ctx.eps * abs(ref), (x, nu)

    def test_prefactor_identity(self, ctx):
        # 2 a log y = 1 + r/(1+x) exactly, from the saddle equation
        for n in (2, 5, 10, 10**3, 10**6):
            for y in (Fraction(3, 2), 2, 4, 100):
                d = saddle_data(n, y, K=3, ctx=ctx)
                with ctx.prec(40):
                    L = mp.log(d.y)
                    err = abs(2 * d.a * L - 1 - d.r / (1 + d.x))
                    assert err <= 16 * ctx.eps, (n, y)

    def test_x_below_1_and_decreasing(self, ctx):
        xs = [saddle_data(n, 2, ctx=ctx).x for n in (2, 3, 5, 10, 100)]
        assert all(0 < x < 1 for x in xs)
        assert all(b < a for a, b in zip(xs, xs[1:]))

    def test_n1_violates_hypothesis(self, ctx):
        with pytest.raises(DomainError) as exc:
            saddle_data(1, 2, ctx=ctx)
        assert exc.value.code == "saddle-hypothesis-violated"
        assert "smallest admissible n is 2" in str(exc.value)

    def test_n0_fails_in_solver(self, ctx):
        with pytest.raises(DomainError) as exc:
            saddle_data(0, 2, ctx=ctx)
        assert exc.value.code == "n-out-of-domain"

    def test_K_domain(self, ctx):
        with pytest.raises(DomainError) as exc:
            saddle_data(5, 2, K=2, ctx=ctx)
        assert exc.value.code == "K-out-of-domain"

    def test_order_cap(self, ctx):
        # the cap is admitted by every order argument, one above it refused
        assert len(saddle_data(10, 2, K=ORDER_CAP, ctx=ctx).b) == ORDER_CAP - 2
        assert sum(euler_frobenius(ORDER_CAP)) == math.factorial(ORDER_CAP)
        b_closed_form(10, mpf("0.5"), ORDER_CAP)
        for call in (
            lambda: saddle_data(10, 2, K=ORDER_CAP + 1, ctx=ctx),
            lambda: euler_frobenius(ORDER_CAP + 1),
            lambda: b_closed_form(10, mpf("0.5"), ORDER_CAP + 1),
        ):
            with pytest.raises(DomainError) as exc:
                call()
            assert exc.value.code == "order-cap-exceeded"

    @given(
        n=st.integers(min_value=2, max_value=10**5),
        num=st.integers(min_value=5, max_value=40),
    )
    @settings(max_examples=25)
    def test_identity_random(self, ctx, n, num):
        y = Fraction(num, 4)
        if y <= 1:
            return
        d = saddle_data(n, y, K=3, ctx=ctx)
        with ctx.prec(40):
            L = mp.log(d.y)
            assert abs(2 * d.a * L - 1 - d.r / (1 + d.x)) <= 16 * ctx.eps


class TestRho:
    def test_tiny_for_y2(self, ctx):
        # nome e^{-2 pi^2 / log 2} ~ 4.3e-13 keeps the oscillation invisible
        for n in (2, 10, 1000):
            assert abs(rho(n, 2, ctx)) <= mpf("1e-12")

    def test_frozen_y100(self, ctx):
        got = rho(10, 100, ctx)
        with mp.workprec(400):
            want = mpf(RHO_10_100)
            assert abs(got - want) <= mpf("1e-28") * abs(want)

    def test_respects_uniform_bound(self, ctx):
        with mp.workprec(400):
            bound = mpf(RHO_BOUND_100)
        for n in (2, 7, 23, 10**4):
            assert abs(rho(n, 100, ctx)) <= bound

    def test_agrees_with_theta3(self, ctx):
        for n, y in ((5, 50), (12, 100)):
            r = solve_r(n, y, ctx).t
            with ctx.prec(40):
                L = mp.log(mpf(y))
                q = mp.exp(-2 * mp.pi**2 / L)
                z = mp.pi * r / L
            th = theta3(z, q, ctx=ctx).value
            with ctx.prec():
                assert abs((1 + rho(n, y, ctx)) - th) <= 8 * ctx.eps * th


class TestApproxBdm:
    def test_matches_formula(self, ctx):
        for n, y in ((5, 2), (1000, Fraction(3, 2))):
            w = solve_w(n, y, ctx).t
            got = approx_bdm(n, y, ctx)
            with ctx.prec(40):
                yq = Fraction(y)
                L = mp.log(mpf(yq.numerator) / yq.denominator)
                want = -mp.log(w) / 2 + (w * w + 2 * w) / (2 * L)
                assert abs(got - want) <= 8 * ctx.eps * abs(want)

    def test_within_factor_2_of_true_value_small_n(self, ctx):
        lv, _ = eval_log(5, 2, ctx)
        got = approx_bdm(5, 2, ctx)
        with ctx.prec():
            ratio = mp.exp(lv.log_magnitude - got)
            assert mpf("0.5") < ratio < 2

    def test_increasing_in_n(self, ctx):
        vals = [approx_bdm(10**j, 2, ctx) for j in range(1, 7)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_n0(self, ctx):
        with pytest.raises(DomainError) as exc:
            approx_bdm(0, 2, ctx)
        assert exc.value.code == "n-out-of-domain"


class TestApproximationSummary:
    def test_consistent_with_parts(self, ctx):
        n, y = 50, Fraction(5, 2)
        s = approximation_summary(n, y, ctx)
        with ctx.prec():
            assert s.w == solve_w(n, y, ctx).t
            assert s.r == solve_r(n, y, ctx).t
            bdm = approx_bdm(n, y, ctx)
            assert abs(s.log_bdm - bdm) <= 4 * ctx.eps * abs(bdm)
            assert s.rho == rho(n, y, ctx)
            assert abs(s.theta_factor - (1 + s.rho)) <= 4 * ctx.eps

    def test_prefactor_uses_r_in_same_formula(self, ctx):
        s = approximation_summary(40, 3, ctx)
        with ctx.prec(40):
            L = mp.log(mpf(3))
            want = -mp.log(s.r) / 2 + (s.r * s.r + 2 * s.r) / (2 * L)
            assert abs(s.log_thm_prefactor - want) <= 8 * ctx.eps * abs(want)

    def test_large_n_cheap(self, ctx):
        # no k-sum involved: 10^9 must be instant and ordered sensibly
        s = approximation_summary(10**9, 2, ctx)
        assert s.log_bdm > s.log_thm_prefactor > 0

    def test_theta_priced_before_the_roots(self, monkeypatch):
        # theta_3 takes a bounded number of terms at any y, so no theta order
        # is priced any more; invalid n and y still get their own codes, from
        # the solvers' checks, before any root is solved
        def no_roots(*args):
            raise AssertionError("a root was solved")

        monkeypatch.setattr(solvers, "lambert_w", no_roots)
        ctx = PrecisionContext(bits=1024)
        for n, y, code in (
            (0, "1e2999999", "n-out-of-domain"),
            (10, 1, "y-out-of-domain"),
        ):
            with pytest.raises(DomainError) as exc:
                approximation_summary(n, y, ctx)
            assert exc.value.code == code

    @pytest.mark.parametrize("n", [2, 10, 1000])
    def test_theta_within_eps_at_y_1e280(self, ctx, dual_theta, n):
        # the direct sum printed 2.316e-34 for 2.335e-34 at n = 2, and from
        # y = 1e290 on refused every row; the reference solves r at 3x the bits
        s = approximation_summary(n, "1e280", ctx)
        ref_ctx = PrecisionContext(bits=3 * ctx.bits)
        r = solve_r(n, "1e280", ref_ctx).t
        with ref_ctx.prec():
            L = mp.log(mpf("1e280"))
            want = dual_theta(mp.pi * r / L, 2 * mp.pi**2 / L, mp.prec)
            assert abs(s.theta_factor - want) <= ctx.eps * want
            assert abs(s.rho - (want - 1)) <= ctx.eps


class TestApproxTheorem:
    def test_record_shape_and_ratio_consistency(self, ctx):
        rec = approx_theorem(20, 2, ctx)
        assert isinstance(rec, ApproxRecord)
        with ctx.prec(40):
            lf = rec.log_exact.log_magnitude
            want_bdm = mp.exp(lf - rec.log_bdm)
            want_thm = mp.exp(lf - rec.log_thm_prefactor - mp.log(rec.theta_factor))
            assert abs(rec.ratio_bdm - want_bdm) <= 8 * ctx.eps * want_bdm
            assert abs(rec.ratio_thm - want_thm) <= 8 * ctx.eps * want_thm

    def test_theorem_ratio_near_1_large_n(self, ctx):
        # convergence is logarithmic: ~0.939 at 10^4, ~0.947 at 10^5
        rec4 = approx_theorem(10**4, 2, ctx)
        rec5 = approx_theorem(10**5, 2, ctx)
        with ctx.prec():
            assert abs(rec4.ratio_thm - 1) < mpf("0.1")
            assert abs(rec5.ratio_thm - 1) < abs(rec4.ratio_thm - 1)

    def test_truncate_false_agrees(self, ctx):
        a = approx_theorem(200, 2, ctx, truncate=True)
        b = approx_theorem(200, 2, ctx, truncate=False)
        with ctx.prec():
            assert abs(a.ratio_thm - b.ratio_thm) <= 16 * ctx.eps * a.ratio_thm

    def test_matches_summary_fields(self, ctx):
        n, y = 30, Fraction(3, 2)
        rec = approx_theorem(n, y, ctx)
        s = approximation_summary(n, y, ctx)
        assert rec.log_bdm == s.log_bdm
        assert rec.log_thm_prefactor == s.log_thm_prefactor
        assert rec.theta_factor == s.theta_factor
        assert rec.rho == s.rho


class TestProofResiduals:
    def test_identity_at_rounding_level(self, ctx):
        for n in (10, 100, 10**4, 10**6):
            pr = proof_residuals(n, 2, ctx)
            assert pr.prefactor_identity_err <= 16 * ctx.eps

    def test_psi0_residual_decays(self, ctx):
        vals = [proof_residuals(10**j, 2, ctx).psi0_residual for j in range(1, 7)]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_psi0_residual_log2n_over_n_scale(self, ctx):
        # n * residual / log^2 n stays in a narrow band on this grid
        for j in (2, 3, 4, 5, 6):
            pr = proof_residuals(10**j, 2, ctx)
            with ctx.prec():
                scaled = pr.psi0_residual * 10**j / mp.log(10**j) ** 2
                assert mpf("0.4") < scaled < mpf("0.9"), j

    def test_s_form_tracks_psi0(self, ctx):
        ratios = []
        for j in (2, 4, 6):
            pr = proof_residuals(10**j, 2, ctx)
            d = saddle_data(10**j, 2, K=3, ctx=ctx)
            with ctx.prec():
                ratios.append(pr.s_form_log / d.psi0)
        assert all(mpf("0.9") < v < 1 for v in ratios)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestPrecisionStability:
    def test_saddle_data_stable_under_extra_bits(self):
        lo = PrecisionContext(bits=128)
        hi = PrecisionContext(bits=256)
        d_lo = saddle_data(37, Fraction(7, 3), ctx=lo)
        d_hi = saddle_data(37, Fraction(7, 3), ctx=hi)
        with hi.prec():
            for f in ("r", "x", "a", "psi0"):
                a, b = getattr(d_lo, f), getattr(d_hi, f)
                assert abs(a - b) <= 8 * lo.eps * abs(b), f
