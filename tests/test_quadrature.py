"""Tests for the Gaussian-weight quadrature oracles.

Oracles: closed-form integrand values at special points, the integrand
written as one principal-log exponential at 300 bits, exact rational
f_n(1/y) from eval_exact, the Gaussian Fourier transform y^{-k^2/2},
agreement between the two independent contour representations, and the
mpc row evaluator that the integer one replaced (reference_row), summed as
the trapezoid summed its value lists (summed_rows).
"""

from fractions import Fraction
from functools import partial

import pytest
from mpmath import mp, mpc, mpf

from lacunary_asym import (
    ComputationError,
    DomainError,
    PrecisionContext,
    QuadratureResult,
    eval_exact,
    gaussian_fourier,
    integrand_original,
    integrate_original,
    integrate_shifted,
    psi_exp,
    saddle_data,
    solve_r,
)
from lacunary_asym import quadrature as qd


def rel_err(got, want_num, want_den=1, prec=300):
    with mp.workprec(prec):
        want = mpf(want_num) / want_den
        return abs(got - want) / abs(want)


def principal_log_integrand(s, n, y, r=0):
    """exp(-(s^2 + 2irs - r^2)/(2 log y) + n log(1 + sqrt(y) e^{-r} e^{is}))
    at 300 bits: the integrand on Im s = r (the real axis at r = 0) in the
    principal-log form, which equals the integer power for integer n."""
    with mp.workprec(300):
        s, y, r = (
            mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else mpf(v)
            for v in (s, y, r)
        )
        L = mp.log(y)
        return mp.exp(
            -(s * s + 2j * r * s - r * r) / (2 * L)
            + n * mp.log(1 + mp.sqrt(y) * mp.exp(-r) * mp.expj(s))
        )


with mp.workprec(128):
    PI_128 = +mp.pi


# s near pi, where |1 + c e^{is}| is smallest, as well as points away from it
@pytest.mark.parametrize("n,y", [(5, 2), (12, Fraction(3, 2)), (30, 4), (60, "1.00123")])
@pytest.mark.parametrize(
    "s", [Fraction(-7, 3), 0, Fraction(5, 4), PI_128, Fraction("3.1"), Fraction("-3.14159")]
)
def test_integrands_match_principal_log_reference(ctx, n, y, s):
    r = solve_r(n, y, ctx).t
    for got, want in (
        (integrand_original(s, n, y, ctx), principal_log_integrand(s, n, y)),
        (psi_exp(s, n, y, r, ctx), principal_log_integrand(s, n, y, r)),
    ):
        with mp.workprec(300):
            assert abs(got - want) <= 8 * ctx.eps * abs(want), (n, y, s)


class TestIntegrandOriginal:
    def test_center_value_is_binomial_sum_base(self, ctx):
        # s = 0: Gaussian weight 1, power (1 + sqrt(4))^3 = 27
        v = integrand_original(0, 3, 4, ctx)
        with ctx.prec():
            assert abs(v.real - 27) <= 27 * 8 * ctx.eps
            assert v.imag == 0

    def test_value_at_pi(self, ctx):
        # s = pi: phase flips the root, (1 - 2) = -1 times the Gaussian
        with ctx.prec(40):
            s = mp.pi
        v = integrand_original(s, 1, 4, ctx)
        with ctx.prec(40):
            want = -mp.exp(-mp.pi**2 / (2 * mp.log(mpf(4))))
            assert abs(v.real - want) <= 8 * ctx.eps * abs(want)
            assert abs(v.imag) <= 8 * ctx.eps * abs(want)

    def test_conjugate_symmetry(self, ctx):
        for s in (Fraction(1, 3), Fraction(7, 5), 2):
            a = integrand_original(s, 6, 2, ctx)
            b = integrand_original(-Fraction(s), 6, 2, ctx)
            assert a.real == b.real
            assert a.imag + b.imag == 0

    def test_rejects_bad_y(self, ctx):
        with pytest.raises(DomainError) as exc:
            integrand_original(0, 3, 1, ctx)
        assert exc.value.code == "y-out-of-domain"


class TestPsiExp:
    def test_center_equals_exp_psi0(self, ctx):
        d = saddle_data(12, 2, ctx=ctx)
        v = psi_exp(0, 12, 2, d.r, ctx)
        with ctx.prec(40):
            want = mp.exp(d.psi0)
            assert abs(v.real - want) <= 16 * ctx.eps * want
        assert v.imag == 0

    def test_center_is_modulus_maximum(self, ctx):
        d = saddle_data(9, 3, ctx=ctx)
        center = abs(psi_exp(0, 9, 3, d.r, ctx))
        for k in range(1, 13):
            s = Fraction(k, 2)  # covers (0, 6] and by symmetry [-6, 0)
            assert abs(psi_exp(s, 9, 3, d.r, ctx)) < center

    def test_shift_by_2pi_modulus_ratio(self, ctx):
        # the power factor is 2 pi periodic; only the Gaussian-line part
        # moves: |psi(s + 2 pi)| = |psi(s)| e^{-(4 pi s + 4 pi^2)/(2L)}
        n, y = 7, 2
        d = saddle_data(n, y, ctx=ctx)
        with ctx.prec(40):
            s = mpf("0.6")
            s2 = s + 2 * mp.pi
        a = psi_exp(s, n, y, d.r, ctx)
        b = psi_exp(s2, n, y, d.r, ctx)
        with ctx.prec(40):
            L = mp.log(mpf(y))
            want = abs(a) * mp.exp(-(4 * mp.pi * s + 4 * mp.pi**2) / (2 * L))
            assert abs(abs(b) - want) <= 16 * ctx.eps * want

    def test_rejects_x_at_or_above_1(self, ctx):
        with pytest.raises(DomainError) as exc:
            psi_exp(0, 5, 4, 0, ctx)  # r = 0 leaves x = 2
        assert exc.value.code == "saddle-hypothesis-violated"


class TestIntegrateOriginal:
    def test_n0_is_normalized_gaussian(self, ctx):
        res = integrate_original(0, 2, ctx)
        assert rel_err(res.value, 1) <= mpf("1e-20")

    def test_n1_is_2_for_any_y(self, ctx):
        for y in (2, Fraction(3, 2), 9):
            res = integrate_original(1, y, ctx)
            assert rel_err(res.value, 2) <= mpf("1e-20")

    @pytest.mark.parametrize("n,y", [(5, 2), (20, 2), (13, Fraction(3, 2)), (8, 4)])
    def test_matches_exact_series(self, ctx, n, y):
        res = integrate_original(n, y, ctx)
        exact = eval_exact(n, Fraction(y))
        assert rel_err(res.value, exact.numerator, exact.denominator) <= mpf("1e-20")

    def test_result_fields(self, ctx):
        res = integrate_original(6, 2, ctx)
        assert isinstance(res, QuadratureResult)
        assert res.panels >= 8
        assert res.step > 0
        assert res.truncation_bound > 0
        exact = eval_exact(6, 2)
        with mp.workprec(200):
            scale = mpf(exact.numerator) / exact.denominator
            assert res.imag_residual <= mpf("1e-20") * scale
            assert res.truncation_bound <= mpf("1e-20") * scale

    def test_last_halving_diff_is_the_stopping_evidence(self, ctx):
        # the step halving stopped once this difference met the target; it is
        # scaled like value, so with the tail bound it covers the distance to f
        for integrate in (integrate_original, integrate_shifted):
            res = integrate(6, 2, ctx)
            exact = eval_exact(6, 2)
            with mp.workprec(200):
                f = mpf(exact.numerator) / exact.denominator
                assert 0 < res.last_halving_diff <= mpf("1e-20") * abs(res.value)
                slack = 2 * res.last_halving_diff + res.truncation_bound
                assert abs(res.value - f) <= slack + mpf("1e-30") * f

    def test_tighter_target(self, ctx):
        res = integrate_original(10, 2, ctx, target_eps=Fraction(1, 10**30))
        exact = eval_exact(10, 2)
        assert rel_err(res.value, exact.numerator, exact.denominator) <= mpf("1e-30")

    def test_deterministic(self, ctx):
        a = integrate_original(9, 2, ctx)
        b = integrate_original(9, 2, ctx)
        assert a.value == b.value and a.panels == b.panels

    def test_domain_errors(self, ctx):
        with pytest.raises(DomainError) as exc:
            integrate_original(-1, 2, ctx)
        assert exc.value.code == "n-out-of-domain"
        with pytest.raises(DomainError) as exc:
            integrate_original(qd.QUAD_N_CAP + 1, 2, ctx)
        assert exc.value.code == "quad-cap"
        with pytest.raises(DomainError) as exc:
            integrate_original(3, Fraction(1, 2), ctx)
        assert exc.value.code == "y-out-of-domain"
        with pytest.raises(DomainError) as exc:
            integrate_original(3, 2, ctx, target_eps=0)
        assert exc.value.code == "eps-out-of-domain"


class TestIntegrateShifted:
    def test_small_n_including_degenerate_shifts(self, ctx):
        # n = 0 runs with shift 0; n = 1 has sqrt(y) e^{-r} = 1 exactly
        assert rel_err(integrate_shifted(0, 2, ctx).value, 1) <= mpf("1e-20")
        assert rel_err(integrate_shifted(1, 2, ctx).value, 2) <= mpf("1e-20")
        assert rel_err(integrate_shifted(1, 7, ctx).value, 2) <= mpf("1e-20")

    @pytest.mark.parametrize("n,y", [(2, 2), (5, 2), (20, 2), (13, Fraction(3, 2))])
    def test_matches_exact_series(self, ctx, n, y):
        res = integrate_shifted(n, y, ctx)
        exact = eval_exact(n, Fraction(y))
        assert rel_err(res.value, exact.numerator, exact.denominator) <= mpf("1e-20")

    def test_agrees_with_original_contour(self, ctx):
        for n, y in ((12, 2), (30, 4)):
            a = integrate_original(n, y, ctx)
            b = integrate_shifted(n, y, ctx)
            with mp.workprec(200):
                assert abs(a.value - b.value) <= mpf("2e-20") * abs(a.value)

    def test_domain_errors(self, ctx):
        with pytest.raises(DomainError) as exc:
            integrate_shifted(qd.QUAD_N_CAP + 1, 2, ctx)
        assert exc.value.code == "quad-cap"
        with pytest.raises(DomainError) as exc:
            integrate_shifted(-2, 2, ctx)
        assert exc.value.code == "n-out-of-domain"


class TestGaussianFourier:
    @pytest.mark.parametrize("k", list(range(9)))
    def test_matches_power_of_y(self, ctx, k):
        for y in (2, 4):
            res = gaussian_fourier(k, y, ctx)
            with mp.workprec(300):
                want = mpf(y) ** (-mpf(k * k) / 2)
                assert abs(res.value - want) <= mpf("1e-20") * want, (k, y)

    def test_deep_cancellation_k30(self, ctx):
        # answer ~ 2^-450 against an O(1) integrand; exercises the
        # precision elevation by ~450 bits
        res = gaussian_fourier(30, 2, ctx)
        with mp.workprec(600):
            want = mpf(2) ** mpf(-450)
            assert abs(res.value - want) <= mpf("1e-20") * want

    def test_caps_and_domains(self, ctx):
        with pytest.raises(DomainError) as exc:
            gaussian_fourier(qd.FOURIER_K_CAP + 1, 2, ctx)
        assert exc.value.code == "quad-cap"
        with pytest.raises(DomainError) as exc:
            gaussian_fourier(-1, 2, ctx)
        assert exc.value.code == "n-out-of-domain"
        with pytest.raises(DomainError) as exc:
            gaussian_fourier(3, 1, ctx)
        assert exc.value.code == "y-out-of-domain"


def reference_row(L, amp_log, beta, c, n, power=pow):
    """The mpc row evaluator that the integer one replaced: the same
    Gaussian recurrences, with e^{is} and the phase advanced in mpc and the
    power taken by mpc ** int (or by power), all at the active precision."""
    has_phase = beta != 0
    has_power = n != 0 and c != 0

    def row(s0, h, count):
        G = mp.exp(amp_log - s0 * s0 / (2 * L))
        M = mp.exp(-s0 * h / L - h * h / (2 * L))
        Q = mp.exp(-h * h / L)
        P = mp.expj(beta * s0) if has_phase else mpc(1)
        Pstep = mp.expj(beta * h) if has_phase else mpc(1)
        W = mp.expj(s0)
        Wstep = mp.expj(h)
        out = []
        for _ in range(count):
            v = G * P
            if has_power:
                v = v * power(1 + c * W, n)
            out.append(v)
            G *= M
            M *= Q
            if has_phase:
                P *= Pstep
            W *= Wstep
        return out

    return row


def summed_rows(factory):
    """factory with each row of values summed as the trapezoid summed the
    lists of reference_row: mp.fsum, less half of each end value when the
    ends are halved."""

    def make(*args):
        row = factory(*args)

        def total(s0, h, count, halve_ends=False):
            vals = row(s0, h, count)
            return mp.fsum(vals) - ((vals[0] + vals[-1]) / 2 if halve_ends else 0)

        return total

    return make


INTEGRATORS = {"original": integrate_original, "shifted": integrate_shifted}

# A spread of the grid y in {2, 3/2, 1.00123, 4, 100, 1.1} x n in 0..60 (plus
# 80, 120, 200 for y in {2, 3/2, 4, 100}) x both integrators, on which all
# 773 cases with the Fourier and 256-bit ones below gave identical results;
# the whole grid takes about 60 s with the reference row.
REFERENCE_GRID = [
    (name, n, y, 128)
    for y in (2, Fraction(3, 2), "1.00123", 4, 100, "1.1")
    for n in (0, 1, 2, 13, 60)
    for name in INTEGRATORS
] + [
    ("original", 200, 2, 128),
    ("shifted", 200, 100, 128),
    ("original", 20, 2, 256),
    ("shifted", 60, 2, 256),
    ("fourier", 0, 2, 128),
    ("fourier", 9, 4, 128),
    ("fourier", 30, 2, 128),
]


def run(name, n, y, bits):
    integrate = INTEGRATORS.get(name, gaussian_fourier)
    return integrate(n, y, PrecisionContext(bits=bits))


@pytest.mark.parametrize("name, n, y, bits", REFERENCE_GRID)
def test_integer_row_gives_the_reference_results(monkeypatch, name, n, y, bits):
    # arithmetic below the working precision leaves every rounded result as it was
    got = run(name, n, y, bits)
    monkeypatch.setattr(qd, "_row_factory", summed_rows(reference_row))
    want = run(name, n, y, bits)
    assert (got.value, got.step, got.panels, got.truncation_bound) == (
        want.value,
        want.step,
        want.panels,
        want.truncation_bound,
    )


def recorded_rows(monkeypatch, name, n, y):
    """Every row the quadrature (name, n, y) sums, with the factory's
    arguments, the precision it ran at and its sum."""
    rows = []
    factory = qd._row_factory

    def recording(*args):
        row = factory(*args)

        def record(s0, h, count, halve_ends=False):
            total = row(s0, h, count, halve_ends)
            rows.append((args, mp.prec, s0, h, count, halve_ends, total))
            return total

        return record

    monkeypatch.setattr(qd, "_row_factory", recording)
    run(name, n, y, 128)
    return rows


# the largest plan in the tests (200, 100), a huge c (1e10), c near 1 and a
# phase (shifted), a phase alone (fourier)
ROW_CASES = [
    ("original", 200, 100),
    ("original", 60, "1e10"),
    ("original", 60, "1.00123"),
    ("shifted", 30, 4),
    ("shifted", 200, 2),
    ("fourier", 30, 2),
]


def power_by_squaring(z, n):
    """z^n by binary powering in mpc at the active precision, relative error
    about n 2^-prec: mpc ** int takes exp and log, much slower, once n times
    the precision passes 10,000 bits."""
    out = mpc(1)
    while n:
        if n & 1:
            out *= z
        z *= z
        n >>= 1
    return out


@pytest.mark.parametrize("name, n, y", ROW_CASES)
def test_row_values_within_the_rounding_bound(monkeypatch, name, n, y):
    # each row sum is within sum_j 2^(1-p) G_j (1 + c)^n of the exact sum of
    # G_j e^{i beta s_j} (1 + c e^{is_j})^n, G_j the exact Gaussian, plus
    # 2^-p of the sum for its one rounding; p + 64 bits stand in for exact
    exact = summed_rows(partial(reference_row, power=power_by_squaring))
    for (L, amp_log, beta, c, n_), p, s0, h, count, halve_ends, total in recorded_rows(
        monkeypatch, name, n, y
    ):
        with mp.workprec(p + 64):
            want = exact(L, amp_log, beta, c, n_)(s0, h, count, halve_ends)
            gauss = exact(L, amp_log, 0, 0, 0)(s0, h, count).real
            bound = gauss * (1 + c) ** n_ * mpf(2) ** (1 - p) * (1 + mpf(2) ** -20)
            assert abs(total - want) <= bound + mpf(2) ** -p * abs(want), (s0, count)


@pytest.mark.parametrize("s", ["0", "0.5", "-1.3", "2.9", "17.25"])
def test_points_are_the_reference_value_rounded_twice(ctx, s):
    # _point rounds the row's exact value to ctx.bits + _GUARD bits, then to ctx
    r = mpf("1.2")
    for got, n, y, coefficients in (
        (integrand_original(s, 60, 2, ctx), 60, 2, qd._original),
        (psi_exp(s, 40, "1.5", r, ctx), 40, "1.5", qd._shifted(r)),
    ):
        with ctx.prec(qd._GUARD):
            p = mp.prec
            ym, sm = mpf(y), mpf(s)
            L = mp.log(ym)
            args = coefficients(ym, L)
        with mp.workprec(p + 64):
            want = reference_row(L, *args, n)(sm, 0, 1)[0]
        with mp.workprec(p):
            want = +want
        with ctx.prec():
            assert got == mpc(+want.real, +want.imag), (n, y, s)


class TestWorkBudget:
    def test_targets_outside_the_float_range(self, ctx):
        # math.log(0.0) and sqrt of a negative need: raw ValueError
        exact = eval_exact(5, 2)
        res = integrate_original(5, 2, ctx, target_eps="1e-400")
        assert 0 < res.last_halving_diff <= mpf("1e-400") * res.value
        assert rel_err(res.value, exact.numerator, exact.denominator) <= mpf(2) ** -ctx.bits
        res = integrate_original(5, 2, ctx, target_eps="1e10")
        assert rel_err(res.value, exact.numerator, exact.denominator) <= 1

    def test_refused_before_any_row(self, ctx, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(qd, "_row_factory", no_rows)
        for call in (
            lambda: integrate_original(60, "1e30", ctx),
            lambda: integrate_original(200, "1e6", ctx),
            lambda: gaussian_fourier(64, 100, ctx),
        ):
            with pytest.raises(DomainError) as exc:
                call()
            assert exc.value.code == "quad-work-exceeded"

    def test_extra_bits_cover_the_cancellation(self, ctx):
        assert integrate_original(0, 2, ctx).extra_bits == 8
        # the answer ~2^-450 against an O(1) integrand
        assert 458 <= gaussian_fourier(30, 2, ctx).extra_bits <= 459


class TestStallGuard:
    def test_exhausted_halvings_raise(self, ctx, monkeypatch):
        monkeypatch.setattr(qd, "MAX_HALVINGS", 0)
        with pytest.raises(ComputationError) as exc:
            integrate_original(5, 2, ctx)
        assert exc.value.code == "quadrature-stalled"

    @pytest.mark.usefixtures("time_limit")
    def test_every_halving_is_priced(self, ctx, monkeypatch):
        # adding 1 per point keeps each halving's difference near h/2, so the
        # rounds never converge: 20 of them doubled the row to 63 million points
        factory = qd._row_factory

        def never_converging(*args):
            row = factory(*args)
            return lambda s0, h, count, *ends: row(s0, h, count, *ends) + count

        monkeypatch.setattr(qd, "_row_factory", never_converging)
        with pytest.raises(DomainError) as exc:
            integrate_original(5, 2, ctx)
        assert exc.value.code == "quad-work-exceeded"
