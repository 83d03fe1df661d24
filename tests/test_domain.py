"""The input boundary: one row per call that used to escape the coded-error
contract (a raw TypeError/ValueError/OverflowError, a NaN, solver-diverged
for plain invalid input, or a hang), plus the CLI grid cases.

Every library row must raise DomainError with the named code; every CLI row
must exit with the named status (2 for usage, 3 for a domain error) and
print one ``error:`` line and no traceback.  The ``time_limit``
fixture turns a reintroduced hang (``integrate_original(5.5, 2)`` used to
run for hours) into a failure within seconds.
"""

import math
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from lacunary_asym import (
    DomainError,
    PrecisionContext,
    approx_bdm,
    approximation_summary,
    b_closed_form,
    certify_absolute_monotonicity,
    euler_frobenius,
    eval_exact,
    eval_float,
    eval_log,
    forward_difference,
    gaussian_fourier,
    integrand_original,
    integrate_original,
    integrate_shifted,
    lambert_w,
    psi_exp,
    rho,
    saddle_data,
    solve_r,
    solve_w,
    theta3,
)
from lacunary_asym import cli
from lacunary_asym.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE
from lacunary_asym.numerics import as_real, require_eps, require_n, require_y

INF = math.inf


def grid(*extra):
    return ["approx", "--y", "2", "--n-from", "10", "--n-to", "100", *extra]


CASES = [
    # y = inf used to end in solver-diverged (the "bug" code)
    pytest.param(lambda: solve_r(10, INF), "y-out-of-domain", id="solve_r(10, inf)"),
    pytest.param(lambda: solve_w(10, INF), "y-out-of-domain", id="solve_w(10, inf)"),
    pytest.param(
        lambda: approximation_summary(10, INF),
        "y-out-of-domain",
        id="approximation_summary(10, inf)",
    ),
    pytest.param(lambda: approx_bdm(10, INF), "y-out-of-domain", id="approx_bdm(10, inf)"),
    pytest.param(lambda: rho(10, INF), "y-out-of-domain", id="rho(10, inf)"),
    pytest.param(lambda: saddle_data(10, INF), "y-out-of-domain", id="saddle_data(10, inf)"),
    pytest.param(
        lambda: integrate_shifted(5, INF), "y-out-of-domain", id="integrate_shifted(5, inf)"
    ),
    # infinite n and x: solver-diverged
    pytest.param(lambda: solve_r(INF, 2), "n-out-of-domain", id="solve_r(inf, 2)"),
    pytest.param(lambda: lambert_w(INF), "x-out-of-domain", id="lambert_w(inf)"),
    # raw OverflowError
    pytest.param(lambda: eval_exact(10, INF), "y-out-of-domain", id="eval_exact(10, inf)"),
    pytest.param(
        lambda: certify_absolute_monotonicity(3, 3, INF),
        "y-out-of-domain",
        id="certify_absolute_monotonicity(3, 3, inf)",
    ),
    pytest.param(
        lambda: integrate_original(5, INF), "y-out-of-domain", id="integrate_original(5, inf)"
    ),
    pytest.param(
        lambda: gaussian_fourier(3, INF), "y-out-of-domain", id="gaussian_fourier(3, inf)"
    ),
    # raw TypeError
    pytest.param(lambda: eval_exact(10.5, 2), "n-out-of-domain", id="eval_exact(10.5, 2)"),
    pytest.param(
        lambda: certify_absolute_monotonicity(3.5, 1, 2),
        "n-out-of-domain",
        id="certify_absolute_monotonicity(3.5, 1, 2)",
    ),
    pytest.param(
        lambda: forward_difference(3, 1.5, 2),
        "n-out-of-domain",
        id="forward_difference(3, 1.5, 2)",
    ),
    # raw ValueError
    pytest.param(lambda: solve_r(10, "x"), "y-out-of-domain", id="solve_r(10, 'x')"),
    pytest.param(
        lambda: integrate_original(5, 2, target_eps=INF),
        "eps-out-of-domain",
        id="integrate_original(5, 2, target_eps=inf)",
    ),
    # returned nan
    pytest.param(
        lambda: integrand_original(0.1, 5, INF),
        "y-out-of-domain",
        id="integrand_original(0.1, 5, inf)",
    ),
    # returned 2 although eval_float rejects a bool n
    pytest.param(lambda: eval_exact(True, 2), "n-out-of-domain", id="eval_exact(True, 2)"),
    # ran until killed
    pytest.param(
        lambda: integrate_original(5.5, 2), "n-out-of-domain", id="integrate_original(5.5, 2)"
    ),
    # raw TypeError / uncoded ValueError
    pytest.param(lambda: euler_frobenius(2.5), "nu-out-of-domain", id="euler_frobenius(2.5)"),
    pytest.param(
        lambda: PrecisionContext(bits=10),
        "precision-out-of-domain",
        id="PrecisionContext(bits=10)",
    ),
    # exact work past the bit budget: 10^(10^9) built while parsing, or a
    # predicted 14.9M-bit denominator at (300, 10**100); all used to hang
    pytest.param(
        lambda: eval_exact(5, "1e1000000000"),
        "exact-bits-exceeded",
        id="eval_exact(5, '1e1000000000')",
    ),
    pytest.param(
        lambda: eval_exact(300, 10**100), "exact-bits-exceeded", id="eval_exact(300, 10**100)"
    ),
    pytest.param(
        ["eval", "--y", "1e1000000000", "--n", "5"], EXIT_USAGE, id="cli eval --y 1e1000000000"
    ),
    pytest.param(
        ["monotone", "--y", "1e1000000000", "--N", "3", "--R", "3"],
        EXIT_USAGE,
        id="cli monotone --y 1e1000000000",
    ),
    # inputs other than n, y and eps: raw ValueError / TypeError or nan
    pytest.param(lambda: theta3("x", 0.5), "z-out-of-domain", id="theta3('x', 0.5)"),
    pytest.param(lambda: theta3(0, "x"), "nome-out-of-domain", id="theta3(0, 'x')"),
    pytest.param(lambda: theta3(INF, 0.5), "z-out-of-domain", id="theta3(inf, 0.5)"),
    pytest.param(
        lambda: integrand_original(INF, 5, 2),
        "s-out-of-domain",
        id="integrand_original(inf, 5, 2)",
    ),
    pytest.param(lambda: psi_exp(0, 5, 2, INF), "r-out-of-domain", id="psi_exp(0, 5, 2, inf)"),
    pytest.param(
        lambda: b_closed_form(10, 0.5, "x"), "nu-out-of-domain", id="b_closed_form(10, 0.5, 'x')"
    ),
    pytest.param(
        lambda: b_closed_form(10, "x", 4), "x-out-of-domain", id="b_closed_form(10, 'x', 4)"
    ),
    pytest.param(
        lambda: b_closed_form("x", 0.5, 4), "n-out-of-domain", id="b_closed_form('x', 0.5, 4)"
    ),
    pytest.param(
        lambda: saddle_data(10, 2, K="x"), "K-out-of-domain", id="saddle_data(10, 2, K='x')"
    ),
    pytest.param(
        lambda: saddle_data(10, 2, K=3.5), "K-out-of-domain", id="saddle_data(10, 2, K=3.5)"
    ),
    pytest.param(
        lambda: PrecisionContext(bits="x"),
        "precision-out-of-domain",
        id="PrecisionContext(bits='x')",
    ),
    # a million-digit decimal: its mantissa was built into an int, ~25 s
    pytest.param(
        lambda: require_y("0." + "1" * 1_000_000),
        "y-out-of-domain",
        id="require_y('0.111...', 10^6 digits)",
    ),
    # each entry fits the bit budget, all of them together ~5.9e12 bits
    pytest.param(
        lambda: certify_absolute_monotonicity(1500, 1500, 2),
        "exact-bits-exceeded",
        id="certify_absolute_monotonicity(1500, 1500, 2)",
    ),
    pytest.param(
        ["monotone", "--y", "3/2", "--N", "100", "--R", "100"],
        EXIT_DOMAIN,
        id="cli monotone --y 3/2 --N 100 --R 100",
    ),
    # a term walk of ~4e8 terms, about an hour
    pytest.param(
        lambda: eval_log(10**9, "1.000000001"),
        "walk-terms-exceeded",
        id="eval_log(10**9, '1.000000001')",
    ),
    pytest.param(
        lambda: eval_float(10**9, "1.000000001"),
        "walk-terms-exceeded",
        id="eval_float(10**9, '1.000000001')",
    ),
    pytest.param(
        ["eval", "--y", "1.000000001", "--n", "1000000000"],
        EXIT_DOMAIN,
        id="cli eval --y 1.000000001 --n 1000000000",
    ),
    # priced in terms x bits above 128 bits: 994,654 terms at 1024 bits took
    # 3.8-9.4 s, and are admitted at 128 bits (1.2-1.4 s)
    pytest.param(
        ["eval", "--y", "1.0000023", "--n", "10000000", "--bits", "1024"],
        EXIT_DOMAIN,
        id="cli eval --y 1.0000023 --n 10000000 --bits 1024",
    ),
    pytest.param(
        ["compare", "--y", "1.000000001", "--n", "1000000000"],
        EXIT_DOMAIN,
        id="cli compare --y 1.000000001 --n 1000000000",
    ),
    # s, r and z far past their working precision: over 60 s of argument reduction
    pytest.param(
        lambda: integrand_original("1e100000", 5, 2),
        "s-out-of-domain",
        id="integrand_original('1e100000', 5, 2)",
    ),
    pytest.param(
        lambda: psi_exp(0, 5, 2, "1e100000"),
        "r-out-of-domain",
        id="psi_exp(0, 5, 2, '1e100000')",
    ),
    pytest.param(
        lambda: theta3("1e100000", 0.5), "z-out-of-domain", id="theta3('1e100000', 0.5)"
    ),
    # a repr of over 4300 digits in the message: raw ValueError
    pytest.param(
        lambda: eval_log(-(10**5000), 2), "n-out-of-domain", id="eval_log(-10**5000, 2)"
    ),
    pytest.param(
        lambda: eval_log(5, -(10**5000)), "y-out-of-domain", id="eval_log(5, -10**5000)"
    ),
    pytest.param(
        lambda: eval_exact(10**5000, 2), "exact-cap-exceeded", id="eval_exact(10**5000, 2)"
    ),
    pytest.param(
        lambda: eval_log(5, Fraction(-(10**5000), 3)),
        "y-out-of-domain",
        id="eval_log(5, Fraction(-10**5000, 3))",
    ),
    pytest.param(
        ["eval", "--y", "0." + "1" * 1_000_000, "--n", "3"],
        EXIT_USAGE,
        id="cli eval --y 0.111... (10^6 digits)",
    ),
    pytest.param(
        ["eval", "--y", "2", "--n", "1" * 100_000],
        EXIT_USAGE,
        id="cli eval --n 111... (10^5 digits)",
    ),
    # a quadrature past its work budget: 12,386 points at 3,158 bits ran past 90 s
    pytest.param(
        lambda: integrate_original(60, "1e30"),
        "quad-work-exceeded",
        id="integrate_original(60, '1e30')",
    ),
    pytest.param(
        # 3.3e9 working bits: raw ValueError from math.log(0.0) before the
        # budget; refused before any work at that precision since
        lambda: integrate_original(5, 2, target_eps="1e-1000000000"),
        "quad-work-exceeded",
        id="integrate_original(5, 2, target_eps='1e-1000000000')",
    ),
    pytest.param(
        ["quadcheck", "--y", "1e30", "--n", "60"],
        EXIT_DOMAIN,
        id="cli quadcheck --y 1e30 --n 60",
    ),
    # more digits than exact mode turns into an int in bounded time
    pytest.param(
        lambda: eval_exact(3, "1." + "0" * 200_000 + "1"),
        "exact-bits-exceeded",
        id="eval_exact(3, '1.000...01', 2*10^5 digits)",
    ),
    # working precision past its cap: approximation_summary(10, 2) took 73.6 s
    # at 10^5 bits, and eval at 10^6 bits ran past 60 s
    pytest.param(
        lambda: PrecisionContext(bits=10**5),
        "precision-out-of-domain",
        id="PrecisionContext(bits=10**5)",
    ),
    pytest.param(
        ["eval", "--y", "2", "--n", "10", "--bits", "1000000"],
        EXIT_USAGE,
        id="cli eval --bits 1000000",
    ),
    pytest.param(
        ["approx", "--y", "2", "--n", "10", "--bits", "1025"],
        EXIT_USAGE,
        id="cli approx --bits 1025",
    ),
    # series orders past their caps, each priced before its loop: theta_3 at
    # q = 1 - 1e-8 took 2.76 s (K = 98,359), saddle_data at K = 800 6.7 s,
    # euler_frobenius(2000) 4.0 s
    pytest.param(
        lambda: theta3(0, "0.99999999"), "theta-terms-exceeded", id="theta3(0, 1 - 1e-8)"
    ),
    pytest.param(
        lambda: theta3(0, "0.5", eps="1e-1000000000"),
        "theta-terms-exceeded",
        id="theta3(0, 0.5, eps=1e-1000000000)",
    ),
    pytest.param(
        lambda: approximation_summary(10, "1e1000000000"),
        "theta-terms-exceeded",
        id="approximation_summary(10, '1e1000000000')",
    ),
    pytest.param(
        lambda: rho(10, "1e1000000000"), "theta-terms-exceeded", id="rho(10, '1e1000000000')"
    ),
    pytest.param(
        ["approx", "--y", "1e2000000", "--n", "10", "--bits", "1024"],
        EXIT_DOMAIN,
        id="cli approx --y 1e2000000 --bits 1024",
    ),
    # theta is priced before the two root solves; the row's time is the parse of y
    pytest.param(
        ["approx", "--y", "1e2999999", "--n", "10", "--bits", "1024"],
        EXIT_DOMAIN,
        id="cli approx --y 1e2999999 --bits 1024",
    ),
    pytest.param(
        lambda: saddle_data(10, 2, K=800), "order-cap-exceeded", id="saddle_data(10, 2, K=800)"
    ),
    pytest.param(lambda: euler_frobenius(2000), "order-cap-exceeded", id="euler_frobenius(2000)"),
    pytest.param(
        lambda: b_closed_form(10, 0.5, 2000),
        "order-cap-exceeded",
        id="b_closed_form(10, 0.5, 2000)",
    ),
    # CLI grids: raw ValueError / OverflowError tracebacks, or endless loops
    pytest.param(grid("--n-factor", "nan"), EXIT_USAGE, id="cli --n-factor nan"),
    pytest.param(grid("--n-factor", "inf"), EXIT_USAGE, id="cli --n-factor inf"),
    pytest.param(
        ["approx", "--y", "2", "--n-from", "10", "--n-to", str(10**400)],
        EXIT_USAGE,
        id="cli --n-to 10^400",
    ),
    pytest.param(
        ["approx", "--y", "2", "--n-from", "10", "--n-to", "1000000", "--n-factor", "1.000001"],
        EXIT_USAGE,
        id="cli --n-factor 1.000001",
    ),
    pytest.param(
        ["quadcheck", "--y", "2", "--n-from", "0", "--n-to", "5"],
        EXIT_USAGE,
        id="cli --n-from 0",
    ),
]


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("case, expected", CASES)
def test_rejected_with_a_code(case, expected, capsys):
    # messages echo a bounded part of the input: one used to be 10^6 characters
    if callable(case):
        with pytest.raises(DomainError) as exc:
            case()
        assert exc.value.code == expected
        assert len(str(exc.value)) < 200
    else:
        assert cli.main(case) == expected
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert len(err) < 200


@pytest.mark.usefixtures("time_limit")
def test_long_decimal_y_is_rounded_not_parsed_whole():
    # mpf("1.000...01") with 5000 zeros raised a raw ValueError (4300-digit limit)
    near_one = "1." + "0" * 5000 + "1"
    assert eval_float(3, near_one)[0] == 8  # y rounds to 1 at any working precision
    with mp.workprec(100):
        assert as_real("0." + "3" * 10**6) == mpf(1) / 3


@pytest.mark.usefixtures("time_limit")
def test_long_decimal_y_is_exact_in_exact_mode_and_the_cli(capsys):
    # Fraction(text) hit the 4300-digit int-string limit: "y must be a
    # rational" and "cannot parse rational number"
    near_one = "1." + "0" * 5000 + "1"
    yq = Fraction(10**5001 + 1, 10**5001)
    assert eval_exact(3, near_one) == 4 + 3 / yq + 1 / yq**3
    assert cli.main(["eval", "--y", near_one, "--n", "3"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].split()[0] == "3"


@pytest.mark.usefixtures("time_limit")
def test_decimal_y_with_a_huge_exponent_converts_at_once(capsys):
    # mpmath stripped the 4M trailing zero bits of 10^1200000 eight at a
    # time on each of ~21 conversions: 33 s for one row
    start = time.perf_counter()
    assert cli.main(["approx", "--y", "1e1200000", "--n", "10", "--format", "csv"]) == EXIT_OK
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.splitlines()[1].startswith("10,1.0e+1200000,")


@pytest.mark.usefixtures("time_limit")
def test_quadrature_target_beyond_ctx_returns():
    # at 128 bits the floor was ~2^-160: 20 halvings, killed after 30 s
    # the sum meets the target; the value is rounded to ctx's 128 bits
    res = integrate_original(5, "2", target_eps="1e-55")
    assert 0 < res.last_halving_diff <= mpf("1e-55") * res.value
    exact = eval_exact(5, 2)
    with mp.workprec(300):
        want = mpf(exact.numerator) / exact.denominator
        assert abs(res.value - want) <= mpf(2) ** -128 * want


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("evaluate", [eval_log, eval_float])
def test_huge_y_returns_at_once(evaluate):
    # y^-k has a 332,000-bit exponent per step: the walk must not build it
    start = time.perf_counter()
    _, report = evaluate(5, "1e100000")
    assert time.perf_counter() - start < 0.5
    assert report.terms_used == 2


@pytest.mark.usefixtures("time_limit")
def test_factor_beyond_the_grid_gives_one_point(capsys):
    # --n-factor 1e308 overflowed the next grid point to inf
    assert cli.main(grid("--n-factor", "1e308", "--format", "csv")) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["10"]


@pytest.mark.usefixtures("time_limit")
def test_boundary_decides_exactly_and_hands_values_back():
    # just above 1 by less than any working precision resolves: still valid
    for near_one in ("1." + "0" * 60 + "1", "1." + "0" * 5000 + "1"):
        assert require_y(near_one) is near_one
    for y in (mpf("1e1000000000"), "1e1000000000", mp.e, Fraction(3, 2), 2.5):
        assert require_y(y) is y
    for bad in ("1e-1000000000", mpf(1), -mp.inf, mp.nan, "nan", 1j, None):
        with pytest.raises(DomainError) as exc:
            require_y(bad)
        assert exc.value.code == "y-out-of-domain"
    # exact mode: any rational y > 0, as a Fraction; an mpf is not exact
    assert require_y(1, exact=True) == 1 and require_y("1/2", exact=True) == Fraction(1, 2)
    with pytest.raises(DomainError):
        require_y(mpf(2), exact=True)
    # integer n within [lo, cap]; the cap error carries the caller's code
    assert require_n(5, lo=1, cap=5, cap_code="quad-cap") == 5
    with pytest.raises(DomainError) as exc:
        require_n(6, cap=5, cap_code="quad-cap")
    assert exc.value.code == "quad-cap"
    for bad in (True, 5.0, -1):
        with pytest.raises(DomainError) as exc:
            require_n(bad)
        assert exc.value.code == "n-out-of-domain"
    assert require_eps("1e-20") == "1e-20"
    with pytest.raises(DomainError) as exc:
        require_eps(0)
    assert exc.value.code == "eps-out-of-domain"
