"""Tests for the Lambert-form and shifted saddle-equation solvers.

Oracles: digit strings computed once at 400-bit precision from the
defining equations (checked into the assertions below), constructed
inputs with known closed-form roots, and round-trip identities.
"""

import hashlib
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from lacunary_asym import (
    DomainError,
    ComputationError,
    LacunaryError,
    PrecisionContext,
    RootResult,
    approx_theorem,
    approximation_summary,
    lambert_w,
    residual_relations,
    solve_r,
    solve_w,
)
from lacunary_asym import solvers as sv
from lacunary_asym.numerics import as_real

# 400-bit reference digits, frozen.
OMEGA = "0.567143290409783872999968662210355549753815787"  # W(1)
W_2E = "1.37482252818362338161783731711191034757803683"  # W(2e)
R_2_2 = "0.604312801713753697777079000676161532165267546"  # r: n=2, y=2
W_10_2 = "1.73286795139986327354308030364544142018875034"  # w: n=10, y=2
R_10_2 = "1.57259822145192937656005000965250394896062714"  # r: n=10, y=2


# Pinned roots: SHA-256 (first 16 hex digits) of the _mpf_ tuples that
# _saddle_roots returns for (w, r) over PIN_N, one digest per (bits, y), and
# of lambert_w over PIN_X per bits.  A root that cannot be certified enters
# as its error code.
PIN_N = (2, 3, 10, 10**3, 10**6, 10**15, Fraction(5, 2))
PIN_X = ("1e-400", "1e-9", 1, "e", "2e", "1e9", "1e30", "1e400")
PINNED_LAMBERT = {
    53: "f151c1969969724a",
    128: "9d2c6d8d21c3be8c",
    400: "d378f3e689a65fd0",
    1024: "0455f95c66294703",
}
PINNED_SADDLE = {
    (53, "1.0000000001"): "3334d18e76394ce0",
    (53, "1.000001"): "7fd089e1a77dc0fc",
    (53, "1.0001"): "27ebcdcd7020f6ec",
    (53, "3/2"): "40ca74ebacafe03b",
    (53, "2"): "bc9f131816ea3218",
    (53, "100"): "c618bae4c96edb6f",
    (53, "1e10"): "915ba751aba9fa0a",
    (53, "1e280"): "d142c642e799bc49",
    (53, "1e2999999"): "be89e039c1449474",
    (128, "1.0000000001"): "0b810ab741d44b87",
    (128, "1.000001"): "f2598d2110d5631c",
    (128, "1.0001"): "aa925339f7c182f8",
    (128, "3/2"): "29d9f1072bcebc6c",
    (128, "2"): "3325ed4961b00007",
    (128, "100"): "95e198c13e859d77",
    (128, "1e10"): "fd7265fc78d29ea6",
    (128, "1e280"): "24a1aa32d71a19b9",
    (128, "1e2999999"): "7f228cc42e8b4800",
    (400, "1.0000000001"): "bd1a99c896e218d7",
    (400, "1.000001"): "0fb051b18e45f688",
    (400, "1.0001"): "3968702491ec7dd2",
    (400, "3/2"): "a9ae9f92204807a0",
    (400, "2"): "f326cf8378cb28c1",
    (400, "100"): "4ff1bdb8691a21ec",
    (400, "1e10"): "4421736b52a12023",
    (400, "1e280"): "18f04274c1f4d05f",
    (400, "1e2999999"): "262e5a74dd3eff5b",
    (1024, "1.0000000001"): "5242641c813ca7d2",
    (1024, "1.000001"): "11bf90af023de103",
    (1024, "1.0001"): "131e8927f687d3ff",
    (1024, "3/2"): "079670d4d931c99e",
    (1024, "2"): "daa55e8298b85969",
    (1024, "100"): "469d8c8a6de64bba",
    (1024, "1e10"): "2be41fe8ad02042d",
    (1024, "1e280"): "6684cbd3b184554d",
    (1024, "1e2999999"): "04055b071cc98bbd",
}


def _pin_digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _pin_y(text):
    return Fraction(text) if "/" in text or text.isdigit() else text


def _pin_x(text):
    if text in ("e", "2e"):
        with mp.workprec(1100):
            return int(text[:-1] or 1) * mp.e
    return text


def close(got, digits, ctx, factor=8):
    with mp.workprec(400):
        want = mpf(digits)
        return abs(got - want) <= factor * ctx.eps * abs(want)


class TestLambertW:
    def test_omega_constant(self, ctx):
        res = lambert_w(1, ctx)
        assert close(res.t, OMEGA, ctx)

    def test_w_of_e_is_1(self, ctx):
        with ctx.prec(40):
            x = mp.e
        res = lambert_w(x, ctx)
        with ctx.prec():
            assert abs(res.t - 1) <= 8 * ctx.eps

    def test_w_of_2e_squared_is_2(self, ctx):
        with ctx.prec(40):
            x = 2 * mp.e**2
        res = lambert_w(x, ctx)
        with ctx.prec():
            assert abs(res.t - 2) <= 16 * ctx.eps

    def test_w_of_2e(self, ctx):
        with ctx.prec(40):
            x = 2 * mp.e
        res = lambert_w(x, ctx)
        assert close(res.t, W_2E, ctx)

    def test_residual_certificate(self, ctx):
        for x in (Fraction(1, 100), Fraction(1, 2), 1, 5, 10**6, 10**12):
            res = lambert_w(x, ctx)
            with ctx.prec(40):
                xm = mpf(Fraction(x).numerator) / Fraction(x).denominator
                assert abs(res.residual) <= 4 * ctx.eps * xm * (1 + mpf("1e-10"))
                # re-evaluate the defining equation independently
                direct = res.t * mp.exp(res.t) - xm
                assert abs(direct) <= 8 * ctx.eps * xm

    def test_tiny_and_huge_arguments(self, ctx):
        lo = lambert_w(Fraction(1, 10**9), ctx)
        hi = lambert_w(10**30, ctx)
        with ctx.prec():
            assert 0 < lo.t < mpf("1e-8")  # W(x) ~ x near 0
            assert hi.t > 60  # W(1e30) ~ ln(1e30) - ln ln(1e30) ~ 64.9

    def test_rejects_nonpositive(self, ctx):
        for bad in (0, -3):
            with pytest.raises(DomainError) as exc:
                lambert_w(bad, ctx)
            assert exc.value.code == "x-out-of-domain"

    def test_iteration_budget(self, ctx):
        res = lambert_w(10**9, ctx)
        assert 0 < res.iterations <= sv.MAX_ITER

    @given(t=st.floats(min_value=0.001, max_value=30.0))
    @settings(max_examples=40)
    def test_round_trip(self, ctx, t):
        with ctx.prec(60):
            tm = mpf(t)
            x = tm * mp.exp(tm)
        res = lambert_w(x, ctx)
        with ctx.prec():
            assert abs(res.t - tm) <= 8 * ctx.eps * tm


class TestSolveW:
    def test_frozen_n10_y2(self, ctx):
        res = solve_w(10, 2, ctx)
        assert close(res.t, W_10_2, ctx)

    def test_is_lambert_of_rhs(self, ctx):
        for n, y in ((3, 2), (1000, Fraction(3, 2)), (7, 50)):
            with ctx.prec(40):
                yq = Fraction(y)
                ym = mpf(yq.numerator) / yq.denominator
                rhs = n * mp.sqrt(ym) * mp.log(ym)
            direct = lambert_w(rhs, ctx)
            via = solve_w(n, y, ctx)
            with ctx.prec():
                assert abs(via.t - direct.t) <= 4 * ctx.eps * direct.t


class TestSolveR:
    def test_frozen_n2_y2(self, ctx):
        res = solve_r(2, 2, ctx)
        assert close(res.t, R_2_2, ctx)

    def test_frozen_n10_y2(self, ctx):
        res = solve_r(10, 2, ctx)
        assert close(res.t, R_10_2, ctx)

    def test_n1_root_is_half_log_y(self, ctx):
        # at n = 1 the equation t(e^t + sqrt(y)) = sqrt(y) log y is solved
        # exactly by t = log(y)/2, for every y > 1
        for y in (2, Fraction(3, 2), 4, 100):
            res = solve_r(1, y, ctx)
            with ctx.prec(40):
                yq = Fraction(y)
                half_log = mp.log(mpf(yq.numerator) / yq.denominator) / 2
                assert abs(res.t - half_log) <= 8 * ctx.eps * half_log

    def test_constructed_root_equal_1(self, ctx):
        # pick y = e and n = 1 + sqrt(e): then t = 1 solves
        # t (e^t + sqrt(e)) = (1 + sqrt(e)) sqrt(e) * 1
        with ctx.prec(60):
            y = mp.e
            n = 1 + mp.sqrt(mp.e)
        res = solve_r(n, y, ctx)
        with ctx.prec():
            assert abs(res.t - 1) <= 16 * ctx.eps

    def test_residual_certificate(self, ctx):
        for n in (1, 10, 10**3, 10**6, 10**9):
            for y in (Fraction(101, 100), 2, 100):
                res = solve_r(n, y, ctx)
                with ctx.prec(40):
                    yq = Fraction(y)
                    ym = mpf(yq.numerator) / yq.denominator
                    rhs = n * mp.sqrt(ym) * mp.log(ym)
                    assert abs(res.residual) <= 4 * ctx.eps * rhs * (1 + mpf("1e-10"))
                    direct = res.t * (mp.exp(res.t) + mp.sqrt(ym)) - rhs
                    assert abs(direct) <= 8 * ctx.eps * rhs

    def test_below_lambert_root(self, ctx):
        for n in (2, 5, 100, 10**5):
            w = solve_w(n, 2, ctx).t
            r = solve_r(n, 2, ctx).t
            assert 0 < r < w

    def test_log_window_at_large_n(self, ctx):
        n = 10**6
        res = solve_r(n, 2, ctx)
        with ctx.prec():
            ln_n = mp.log(n)
            assert ln_n - 3 * mp.log(ln_n) <= res.t <= ln_n

    def test_strictly_increasing_in_n(self, ctx):
        for y in (Fraction(3, 2), 2, 4):
            prev = mpf(0)
            for j in range(1, 8):
                t = solve_r(10**j, y, ctx).t
                assert t > prev
                prev = t

    def test_rejects_bad_args(self, ctx):
        with pytest.raises(DomainError) as exc:
            solve_r(0, 2, ctx)
        assert exc.value.code == "n-out-of-domain"
        with pytest.raises(DomainError) as exc:
            solve_r(5, 1, ctx)
        assert exc.value.code == "y-out-of-domain"
        with pytest.raises(DomainError) as exc:
            solve_w(-3, 2, ctx)
        assert exc.value.code == "n-out-of-domain"
        with pytest.raises(DomainError) as exc:
            solve_w(5, Fraction(1, 2), ctx)
        assert exc.value.code == "y-out-of-domain"

    @given(
        n=st.integers(min_value=1, max_value=10**6),
        num=st.integers(min_value=5, max_value=400),
    )
    @settings(max_examples=40)
    def test_random_residuals(self, ctx, n, num):
        y = Fraction(num, 4)
        if y <= 1:
            return
        res = solve_r(n, y, ctx)
        with ctx.prec(40):
            ym = mpf(y.numerator) / y.denominator
            rhs = n * mp.sqrt(ym) * mp.log(ym)
            direct = res.t * (mp.exp(res.t) + mp.sqrt(ym)) - rhs
            assert abs(direct) <= 8 * ctx.eps * rhs


class TestResidualRelations:
    def test_fields_consistent(self, ctx):
        rel = residual_relations(10, 2, ctx)
        w = solve_w(10, 2, ctx).t
        r = solve_r(10, 2, ctx).t
        with ctx.prec():
            assert rel.w == w and rel.r == r
            assert abs(rel.w_minus_r - (w - r)) <= 2 * ctx.eps * rel.w_minus_r
            assert abs(rel.w2_minus_r2 - (w * w - r * r)) <= 4 * ctx.eps * rel.w2_minus_r2
            assert abs(rel.w_over_r - w / r) <= 2 * ctx.eps * rel.w_over_r

    def test_gap_quantities_decrease(self, ctx):
        # w - r and w^2 - r^2 shrink as n grows: the sqrt(y) shift matters
        # less and less once e^t dominates
        for y in (Fraction(3, 2), 2, 4):
            gaps, gaps2 = [], []
            for j in range(2, 8):
                rel = residual_relations(10**j, y, ctx)
                assert rel.w > rel.r > 0
                assert rel.w_over_r > 1
                gaps.append(rel.w_minus_r)
                gaps2.append(rel.w2_minus_r2)
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
            assert all(b < a for a, b in zip(gaps2, gaps2[1:]))

    def test_ratio_tends_to_1(self, ctx):
        ratios = [residual_relations(10**j, 2, ctx).w_over_r for j in (2, 4, 6)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] - 1 < mpf("0.05")


class TestOneLambertSolve:
    def test_each_consumer_solves_w_once(self, ctx, monkeypatch):
        # w is solved once per (n, y) and reused as the bracket of r
        real = sv.lambert_w
        calls = []

        def counting(x, c=ctx):
            calls.append(x)
            return real(x, c)

        monkeypatch.setattr(sv, "lambert_w", counting)
        for consumer in (
            solve_r,
            residual_relations,
            approximation_summary,
            approx_theorem,
        ):
            calls.clear()
            consumer(100, 2, ctx)
            assert len(calls) == 1, consumer.__name__


class TestDivergenceGuard:
    def test_iteration_cap_raises(self, ctx, monkeypatch):
        monkeypatch.setattr(sv, "MAX_ITER", 0)
        with pytest.raises(ComputationError) as exc:
            lambert_w(10, ctx)
        assert exc.value.code == "solver-diverged"


class TestBracketSafeguard:
    def test_leaving_the_bracket_lands_then_bisects(self, ctx):
        # g is piecewise linear, slope 1 on [-1, 1] and 1/16 outside, so
        # Halley is Newton and overshoots from the flat parts: from the seed
        # 4 the candidate -15 leaves [-8, 4] below the open end -8 and lands
        # on it; from -8 the candidate 15 leaves it above the end 4, already
        # an iterate, so the next point is the midpoint -2, and from -2 the
        # midpoint 1; from 1 one exact step reaches the root 0
        points = []

        def g(T, F):
            # the kernel's g: (G, eg, D1, D2, ed) at t = T 2^-F
            points.append(Fraction(T, 2**F))
            if abs(T) <= 2**F:
                return T, -F, 1, 0, 0
            sign = 1 if T > 0 else -1
            return sign * (15 * 2**F + abs(T)), -F - 4, 1, 0, -4

        def raw(v):
            return mpf(v)._mpf_

        res = sv._halley_bracketed(g, raw(-8), raw(4), raw(4), raw(1), ctx)
        assert points[:5] == [4, -8, -2, 1, 0]
        assert res.t == 0 and res.iterations == 4
        assert abs(res.residual) <= sv.RESID_TOL_FACTOR * ctx.eps


# Far-out arguments where a fixed-point t meets operands many binades apart,
# pinned to the roots (digests of their _mpf_ tuples) or codes that an mpf
# Halley iteration at the same working precision gives.
HOSTILE_X = {
    "2^(2^40)": mpf(2) ** (2**40),
    "2^(2^60)": mpf(2) ** (2**60),
    "1e1000000000": "1e1000000000",
    "1e-100000": "1e-100000",
    "1e-320": 1e-320,
}
HOSTILE_NY = {"(2, 1e2999999)": (2, "1e2999999"), "(10**400, 2)": (10**400, 2)}
HOSTILE_ROOTS = {
    ("2^(2^40)", 53): "cfd2e1376aeac71d",
    ("2^(2^60)", 53): "root-unresolved",
    ("1e1000000000", 53): "62d37ebc5b072337",
    ("1e-100000", 53): "253451e3ab85ac61",
    ("1e-320", 53): "4251f3be84ebc92a",
    ("(2, 1e2999999)", 53): "99274872944dd7a0",
    ("(10**400, 2)", 53): "88aa12bbcaeab8d5",
    ("2^(2^40)", 128): "18ab144ff4d3dcfa",
    ("2^(2^60)", 128): "root-unresolved",
    ("1e1000000000", 128): "dbcf9cdd2528f1ad",
    ("1e-100000", 128): "ea49de032279c91f",
    ("1e-320", 128): "4251f3be84ebc92a",
    ("(2, 1e2999999)", 128): "66283ff6425b0a1c",
    ("(10**400, 2)", 128): "319969487bba4329",
    ("2^(2^40)", 1024): "0e8b7fd88aae803c",
    ("2^(2^60)", 1024): "root-unresolved",
    ("1e1000000000", 1024): "954644c2c376d7b2",
    ("1e-100000", 1024): "4769e1aa4604c0ee",
    ("1e-320", 1024): "4251f3be84ebc92a",
    ("(2, 1e2999999)", 1024): "5245be51e6d764b3",
    ("(10**400, 2)", 1024): "34cb85df74747a22",
}


@pytest.mark.usefixtures("time_limit")
class TestHostileArguments:
    @pytest.mark.parametrize("case, bits", sorted(HOSTILE_ROOTS))
    def test_same_root_or_code(self, case, bits):
        ctx = PrecisionContext(bits)
        try:
            if case in HOSTILE_X:
                got = _pin_digest(lambert_w(HOSTILE_X[case], ctx).t._mpf_)
            else:
                roots = sv._saddle_roots(*HOSTILE_NY[case], ctx)
                got = _pin_digest(tuple(res.t._mpf_ for res in roots))
        except LacunaryError as exc:
            got = exc.code
        assert got == HOSTILE_ROOTS[(case, bits)]


class TestPinnedRoots:
    """The roots themselves, bit for bit, across precisions and extreme y."""

    @pytest.mark.parametrize("bits", sorted(PINNED_LAMBERT))
    def test_lambert_w(self, bits):
        ctx = PrecisionContext(bits)
        roots = [lambert_w(_pin_x(x), ctx).t._mpf_ for x in PIN_X]
        assert _pin_digest(roots) == PINNED_LAMBERT[bits]

    @pytest.mark.parametrize("bits, y", sorted(PINNED_SADDLE))
    def test_saddle_roots(self, bits, y):
        ctx = PrecisionContext(bits)
        roots = []
        for n in PIN_N:
            try:
                roots.append(tuple(res.t._mpf_ for res in sv._saddle_roots(n, _pin_y(y), ctx)))
            except ComputationError as exc:
                roots.append(exc.code)
        assert _pin_digest(roots) == PINNED_SADDLE[(bits, y)]


# The sweep's y values and n log-uniform over [10, 1e15], 29 points.
SWEEP_YS = (Fraction(3, 2), 2, 4, 100)
SWEEP_NS = tuple(round(10 ** (1 + j / 2)) for j in range(29))


class TestIterationCounts:
    """Halley from a float64 seed: one step at 128 bits, at most three at
    1024 (53 seeded bits triple to 159, 477, 1431)."""

    @pytest.mark.parametrize("y", SWEEP_YS)
    def test_one_step_at_128_bits(self, y):
        ctx = PrecisionContext(128)
        for n in SWEEP_NS:
            w, r = sv._saddle_roots(n, y, ctx)
            assert (w.iterations, r.iterations) == (1, 1), n

    @pytest.mark.parametrize("y", SWEEP_YS)
    def test_at_most_three_steps_at_1024_bits(self, y):
        ctx = PrecisionContext(1024)
        for n in SWEEP_NS[::4]:
            w, r = sv._saddle_roots(n, y, ctx)
            assert 1 <= w.iterations <= 3 and 1 <= r.iterations <= 3, n

    @pytest.mark.parametrize("x", ["1e400", "1e-400", "1e-300", "1e308"])
    def test_lambert_seed_edges_converge(self, ctx, x):
        # x beyond float range, with log x inside it; x below 1e-300, where
        # the seed is x itself
        res = lambert_w(x, ctx)
        assert res.iterations <= sv.MAX_ITER
        with ctx.prec(40):
            assert abs(res.residual) <= 4 * ctx.eps * mpf(x) * (1 + mpf("1e-10"))

    @pytest.mark.parametrize("n", [2, 10, 10**6])
    def test_huge_y_converges(self, ctx, n):
        y = "1e2999999"
        res = solve_r(n, y, ctx)
        assert res.iterations <= sv.MAX_ITER
        with ctx.prec(40):
            ym = mpf(y)
            rhs = n * mp.sqrt(ym) * mp.log(ym)
            assert abs(res.residual) <= 4 * ctx.eps * rhs * (1 + mpf("1e-10"))


class TestKernelWork:
    """One exp per iterate: the work of a _saddle_roots call on the sweep
    grid, counted deterministically, and the w it shares with solve_w."""

    @pytest.mark.parametrize("bits, exps", [(128, 4), (1024, 8)])
    def test_exps_per_call(self, monkeypatch, bits, exps):
        ctx = PrecisionContext(bits)
        real = sv.libmp.mpf_exp
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sv.libmp, "mpf_exp", counting)
        for y in SWEEP_YS:
            for n in SWEEP_NS:
                calls.clear()
                sv._saddle_roots(n, y, ctx)
                assert len(calls) == exps, (n, y)

    def test_a_repeated_call_runs_the_kernel_again(self, monkeypatch):
        # y's constants are memoized, the roots of an (n, y) are not
        ctx = PrecisionContext(128)
        real = sv.libmp.mpf_exp
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sv.libmp, "mpf_exp", counting)
        for y in SWEEP_YS:
            calls.clear()
            sv._saddle_roots(10**6, y, ctx)
            sv._saddle_roots(10**6, y, ctx)
            assert len(calls) == 2 * 4, y

    def test_solve_w_is_the_w_of_saddle_roots(self, ctx):
        for y in SWEEP_YS:
            for n in SWEEP_NS:
                assert solve_w(n, y, ctx).t == sv._saddle_roots(n, y, ctx)[0].t


def _magnitude(lo_exp, hi_exp):
    """Decimal strings m e k, and the same as mpf, for k in [lo_exp, hi_exp]."""
    text = st.builds(
        lambda m, k: f"{m}e{k}",
        st.sampled_from(["1", "2.5", "3.7", "9.99"]),
        st.integers(lo_exp, hi_exp),
    )
    return st.one_of(text, text.map(mpf))


# y from 1 + 2^-200 (an exact rational, and a string) up to 1e3000
_Y = st.one_of(
    st.integers(1, 200).map(lambda k: 1 + Fraction(1, 2**k)),
    st.integers(1, 30).map(lambda k: "1." + "0" * k + "1"),
    _magnitude(0, 2999),
)


def _certified(call, rhs_of, ctx):
    """The root of call() with its residual within 4 eps rhs, or None
    where call() raised a coded error."""
    try:
        res = call()
    except LacunaryError:
        return None
    with ctx.prec(40):
        rhs = rhs_of()
        assert abs(res.residual) <= sv.RESID_TOL_FACTOR * ctx.eps * rhs * (1 + mpf("1e-10"))
    return res


def _saddle_rhs(n, y):
    ym = as_real(y)
    return as_real(n) * mp.sqrt(ym) * mp.log(ym)


class TestSolverContract:
    """Public solver entry points on hostile magnitudes: a certified root
    or a LacunaryError, never a raw float error from the seed."""

    @given(
        x=_magnitude(-400, 400),
        n=_magnitude(-400, 400),
        y=_Y,
        bits=st.sampled_from([53, 128]),
    )
    @example(x=mpf(2) ** (2**1030), n="1e400", y="1e2999", bits=128)
    @settings(derandomize=True, max_examples=300)
    def test_certified_root_or_coded_error(self, x, n, y, bits):
        ctx = PrecisionContext(bits)
        _certified(lambda: lambert_w(x, ctx), lambda: as_real(x), ctx)
        w = _certified(lambda: solve_w(n, y, ctx), lambda: _saddle_rhs(n, y), ctx)
        r = _certified(lambda: solve_r(n, y, ctx), lambda: _saddle_rhs(n, y), ctx)
        try:
            rel = residual_relations(n, y, ctx)
        except LacunaryError:
            assert w is None or r is None
        else:
            assert (rel.w, rel.r) == (w.t, r.t)
            assert 0 < rel.r <= rel.w


class TestRootResultShape:
    def test_dataclass_fields(self, ctx):
        res = solve_w(3, 2, ctx)
        assert isinstance(res, RootResult)
        assert set(res.__dataclass_fields__) == {"t", "residual", "iterations"}

    def test_precision_of_returned_values(self, ctx):
        hi_ctx = PrecisionContext(bits=256)
        res_lo = solve_r(17, 2, ctx)
        res_hi = solve_r(17, 2, hi_ctx)
        with hi_ctx.prec():
            assert abs(res_lo.t - res_hi.t) <= 8 * ctx.eps * res_hi.t

    def test_residual_is_that_of_the_working_iterate(self):
        # t e^t = 2^(2^45) at 53 bits: the returned t misses x by ~7.6e-5 x,
        # far past 4 eps x; the residual (-1.1e-11 x) is g at the 77-bit
        # iterate, which t rounds to 53 bits
        ctx = PrecisionContext(bits=53)
        x = mpf(2) ** (2**45)
        root = lambert_w(x, ctx)
        with mp.workprec(256):
            assert abs(root.residual) <= 4 * ctx.eps * x
            assert abs(root.t * mp.exp(root.t) - x) > 4 * ctx.eps * x
            # Newton on t e^t = x + residual from the returned t
            t = root.t
            for _ in range(6):
                e = mp.exp(t)
                t -= (t * e - x - root.residual) / ((1 + t) * e)
            half_ulp = mp.ldexp(1, mp.frexp(root.t)[1] - ctx.bits - 1)
            assert abs(root.t - t) <= half_ulp


def _sweep_pair():
    """(n, y): y in SWEEP_YS with n log-uniform in [10, 1e15]."""
    n = st.floats(1, 15).map(lambda e: round(10**e))
    return st.tuples(n, st.sampled_from(SWEEP_YS))


def _near_one_pair():
    """(n, y): y = 1 + 10^-u, u in [2, 5], as a decimal string with a
    three-digit mantissa, and n log-uniform in [1e3, 1e5]."""
    n = st.floats(3, 5).map(lambda e: round(10**e))
    y = st.floats(2, 5).map(
        lambda u: str(1 + Decimal(round(1000 * 10 ** (int(u) - u))).scaleb(-(int(u) + 3)))
    )
    return st.tuples(n, y)


class TestCorrectRounding:
    """Each root is the root of a run at twice the bits, rounded to ctx.bits:
    the returned t does not depend on the path the iteration took."""

    @given(pair=st.one_of(_sweep_pair(), _near_one_pair()), bits=st.sampled_from([53, 128]))
    @settings(derandomize=True, max_examples=300)
    # r within 0.0008 ulps of a midpoint, rounded the wrong way while log y
    # came from y rounded to bits + 24
    @example(pair=(55005, "1.0000182"), bits=53)
    @example(pair=(27408, "1.0000365"), bits=128)
    @example(pair=(4106, "1.00001000"), bits=53)
    def test_roots_round_like_a_run_at_twice_the_bits(self, pair, bits):
        n, y = pair
        ctx, wide = PrecisionContext(bits), PrecisionContext(2 * bits)

        def rounded(root):
            with ctx.prec():
                return (+root.t)._mpf_

        assert lambert_w(n, ctx).t._mpf_ == rounded(lambert_w(n, wide))
        assert solve_w(n, y, ctx).t._mpf_ == rounded(solve_w(n, y, wide))
        assert solve_r(n, y, ctx).t._mpf_ == rounded(solve_r(n, y, wide))
        w, r = sv._saddle_roots(n, y, ctx)
        w2, r2 = sv._saddle_roots(n, y, wide)
        assert (w.t._mpf_, r.t._mpf_) == (rounded(w2), rounded(r2))
