"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each test prints one [ACCEPTANCE] line.  Checks 06 and 08 encode idealized
monotone-convergence trends; the measured drift at these scales is slower
and non-monotone, so they currently fail, and they are retained unmodified
rather than loosened.  The failure messages carry the measured values.
"""

import random
from fractions import Fraction

from mpmath import mp, mpf

from lacunary_asym import (
    PrecisionContext,
    approx_theorem,
    eval_exact,
    eval_log,
    forward_difference,
    gaussian_fourier,
    integrate_original,
    integrate_shifted,
    lambert_w,
    residual_relations,
    rho,
    saddle_data,
    solve_r,
)

CTX = PrecisionContext(bits=128)

Y_GRID = (Fraction(3, 2), Fraction(2), Fraction(4))


def report(num: int, name: str, passed: bool) -> None:
    print(f"[ACCEPTANCE] criterion {num:02d}: {'PASS' if passed else 'FAIL'} - {name}")


def test_criterion_01_oracle_triangle():
    tol = mpf("1e-20")
    worst = mpf(0)
    for y in Y_GRID:
        for n in range(41):
            exact = eval_exact(n, y)
            orig = integrate_original(n, y, CTX)
            shift = integrate_shifted(n, y, CTX)
            with mp.workprec(300):
                f = mpf(exact.numerator) / exact.denominator
                dev = max(abs(orig.value - f) / f, abs(shift.value - f) / f)
                worst = max(worst, dev)
    passed = worst <= tol
    report(1, f"oracle triangle, worst deviation {mp.nstr(worst, 4)}", passed)
    assert passed, f"worst quadrature deviation {worst} above 1e-20"


def test_criterion_02_gaussian_identity():
    tol = mpf("1e-20")
    worst = mpf(0)
    for k in range(31):
        res = gaussian_fourier(k, 2, CTX)
        with mp.workprec(700):
            want = mpf(2) ** (-mpf(k * k) / 2)
            worst = max(worst, abs(res.value - want) / want)
    passed = worst <= tol
    report(2, f"gaussian identity k<=30, worst {mp.nstr(worst, 4)}", passed)
    assert passed, f"worst relative error {worst} above 1e-20"


def test_criterion_03_prefactor_identity():
    tol = 16 * CTX.eps
    worst = mpf(0)
    for y in Y_GRID:
        for n in (10, 10**2, 10**4, 10**6):
            d = saddle_data(n, y, K=3, ctx=CTX)
            with CTX.prec(40):
                L = mp.log(d.y)
                err = abs(2 * d.a * L - 1 - d.r / (1 + d.x))
                worst = max(worst, err)
    passed = worst <= tol
    report(3, f"prefactor identity, worst {mp.nstr(worst, 4)} vs 16*eps", passed)
    assert passed, f"identity error {worst} above {tol}"


def test_criterion_04_series_vs_closed_form(b_series):
    # saddle_data's b is the closed form; the series is summed at raised precision
    tol = mpf("1e-25")
    worst = mpf(0)
    for n in (10, 10**2, 10**4):
        d = saddle_data(n, 2, K=10, ctx=CTX)
        with CTX.prec(40):
            for nu, bv in zip(range(3, 11), d.b):
                ref = b_series(n, d.x, nu)
                worst = max(worst, abs(bv - ref) / abs(ref))
    passed = worst <= tol
    report(4, f"b_nu series vs closed form, worst {mp.nstr(worst, 4)}", passed)
    assert passed, f"worst relative disagreement {worst} above 1e-25"


def test_criterion_05_rho_bounds():
    grid = sorted({int(round(10 ** (1 + 6 * j / 49))) for j in range(50)})
    assert len(grid) == 50
    worst2 = max(abs(rho(n, 2, CTX)) for n in grid)
    ok_small = worst2 <= mpf("1e-12")
    ok_uniform = True
    for y in (Fraction(3, 2), 2, 4, 100):
        with CTX.prec(40):
            yq = Fraction(y)
            L = mp.log(mpf(yq.numerator) / yq.denominator)
            bound = 2 / (mp.exp(2 * mp.pi**2 / L) - 1)
        for n in grid:
            if abs(rho(n, y, CTX)) > bound:
                ok_uniform = False
    passed = ok_small and ok_uniform
    report(5, f"rho bounds, max |rho_n(2)| = {mp.nstr(worst2, 4)}", passed)
    assert passed, f"|rho_n(2)| max {worst2}, uniform bound ok: {ok_uniform}"


def test_criterion_06_theorem_ratio_trend():
    decades = (10**2, 10**3, 10**4, 10**5, 10**6)
    devs = []
    for n in decades:
        rec = approx_theorem(n, 2, CTX, truncate=True)
        if n <= 10**4:
            full = approx_theorem(n, 2, CTX, truncate=False)
            with CTX.prec():
                agree = abs(rec.ratio_thm - full.ratio_thm) <= 16 * CTX.eps * rec.ratio_thm
            assert agree, f"truncated and full evaluation disagree at n={n}"
        with CTX.prec():
            devs.append(abs(rec.ratio_thm - 1))
    weakly_decreasing = all(b <= a for a, b in zip(devs, devs[1:]))
    halved = devs[-1] <= devs[0] / 2
    passed = weakly_decreasing and halved
    shown = [mp.nstr(d, 5) for d in devs]
    report(6, f"theorem ratio trend, |ratio-1| per decade = {shown}", passed)
    assert passed, (
        f"per-decade |ratio_thm - 1| = {shown}: "
        f"weakly decreasing: {weakly_decreasing}, final <= first/2: {halved}"
    )


def test_criterion_07_root_gap_monotonicity():
    passed = True
    detail = ""
    for y in Y_GRID:
        gaps, gaps2 = [], []
        for j in range(2, 8):
            rel = residual_relations(10**j, y, CTX)
            if not rel.w > rel.r:
                passed = False
                detail = f"w <= r at n=10^{j}, y={y}"
            gaps.append(rel.w_minus_r)
            gaps2.append(rel.w2_minus_r2)
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            passed = False
            detail = f"|w-r| not strictly decreasing for y={y}"
        if not all(b < a for a, b in zip(gaps2, gaps2[1:])):
            passed = False
            detail = f"|w^2-r^2| not strictly decreasing for y={y}"
    report(7, "root gap monotonicity across decades", passed)
    assert passed, detail


def test_criterion_08_log_asymptotic_trend():
    vals = []
    for j in range(2, 7):
        lv, _ = eval_log(10**j, 2, CTX)
        with CTX.prec():
            vals.append(lv.log_magnitude * 2 * mp.log(mpf(2)) / mp.log(10**j) ** 2)
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    in_band = mpf("0.5") < vals[-1] < mpf("1.0")
    passed = increasing and in_band
    shown = [mp.nstr(v, 6) for v in vals]
    report(8, f"log-asymptotic ratio per decade = {shown}", passed)
    assert passed, (
        f"normalized log f over decades = {shown}: "
        f"increasing: {increasing}, final in (0.5, 1.0): {in_band}"
    )


def test_criterion_09_absolute_monotonicity():
    passed = True
    detail = ""
    for y in (Fraction(2), Fraction(3), Fraction(7, 2)):
        row = [eval_exact(m, y) for m in range(41)]
        for r in range(41):
            for n in range(41 - r):
                v = forward_difference(n, r, y)
                if v != row[n] or v <= 0:
                    passed = False
                    detail = f"mismatch or non-positive at n={n}, r={r}, y={y}"
            row = [b - a for a, b in zip(row, row[1:])]
    report(9, "absolute monotonicity triangle n+r<=40", passed)
    assert passed, detail


def test_criterion_10_solver_contracts():
    rng = random.Random(20240817)
    worst_rt = mpf(0)
    for _ in range(1000):
        t = mpf(rng.uniform(0.001, 30.0))
        with CTX.prec(40):
            x = t * mp.exp(t)
        res = lambert_w(x, CTX)
        with CTX.prec(40):
            worst_rt = max(worst_rt, abs(res.t - t) / t)
    rt_ok = worst_rt <= 4 * CTX.eps

    worst_res = mpf(0)
    for y in (Fraction(101, 100), Fraction(2), Fraction(100)):
        for _ in range(60):
            n = mpf(10) ** rng.uniform(0.0, 9.0)
            res = solve_r(n, y, CTX)
            with CTX.prec(40):
                ym = mpf(y.numerator) / y.denominator
                rhs = n * mp.sqrt(ym) * mp.log(ym)
                worst_res = max(worst_res, abs(res.residual) / rhs)
    res_ok = worst_res <= 4 * CTX.eps

    passed = rt_ok and res_ok
    report(
        10,
        f"solver contracts, round-trip {mp.nstr(worst_rt, 4)}, "
        f"residual {mp.nstr(worst_res, 4)} (vs 4*eps)",
        passed,
    )
    assert passed, f"round-trip worst {worst_rt}, residual worst {worst_res}"
