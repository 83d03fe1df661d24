"""Gaussian-weight quadrature oracles for f_n(1/y).

Two integral representations are evaluated independently of the series:

    f_n(1/y) = (2 pi log y)^{-1/2} Int exp(-s^2/(2 log y)) (1+sqrt(y) e^{is})^n ds
    f_n(1/y) = (2 pi log y)^{-1/2} Int exp(psi_n(s)) ds        (contour at i r)

plus the plain Gaussian Fourier transform underlying both,

    (2 pi log y)^{-1/2} Int exp(-s^2/(2 log y) + iks) ds = y^{-k^2/2}.

All integrands share the shape  A e^{-s^2/(2L)} e^{i beta s} (1 + c e^{is})^n,
with real log A, beta and c, so f(-s) = conj f(s).  They are summed with a
composite trapezoid rule under step halving over uniform grids symmetric
about 0, and each row evaluates only its nodes with s >= 0 and takes twice
the real part of their sum: a pass over P panels evaluates P/2 + 1 points
or fewer, against the P + 1 of the whole grid.  Each point runs in Python
ints (_row_factory), with no transcendental and no mpmath number: the
Gaussian advances by two block-floating-point multiplies, e^{is} and the
phase by one fixed-point complex multiply each, 1 + c e^{is} by one more,
and its n-th power by binary powering in block floating point.  A row is
summed exactly in ints, its end values halved by their exponents, and
rounded once.

Working precision is the larger of ctx.bits and ceil(-log2 target_eps),
raised per call by the known cancellation budget: the integrand mass can
exceed the result by a factor e^{mass_log - result_log} (worst at k = 30,
where the answer is ~2^-450 against an O(1) integrand), and flat roundoff
must stay below the relative target of the result.  One work budget per
call, QUAD_WORK_CAP, prices each point its rows evaluate: _plan the first
pass and first halving before any row, _integrate each later row before
it runs; it alone ends halving that does not converge (quad-work-exceeded).

The three integrators share one routine, _integrate, and one domain: an
integer n (k) >= 0, a finite y > 1 and a finite target_eps > 0.
Integrands take the same n, y and a finite real s (psi_exp: and r) of
magnitude below 2^(working bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .numerics import (
    DEFAULT_CTX,
    DomainError,
    PrecisionContext,
    as_real,
    require_eps,
    require_n,
    require_resolved,
    y_and_log,
)
from .solvers import solve_r

DEFAULT_TARGET_EPS = "1e-20"

_GUARD = 32

# Most work one quadrature call may do: the points its rows evaluate, each
# priced (bit_length(m) + 2) max(wp, 512)^2 at wp working bits, m the power
# of 1 + c e^{is} (0 for the Gaussian): a few wp-bit multiplies and two per
# bit of m, quadratic in wp below CPython's Karatsuba cutoff, and flat below
# 512 bits, where the interpreter's cost per operation dominates.  24 calls
# of 0.1-9 s (wp 804-6,065, n 60-30,000) took 4.3e-12 to 1.1e-11 s per unit
# on a shared 2-vCPU x86-64 box (CPython 3.11, pure-Python mpmath): at most
# ~1.8 s.  integrate_original(200, 100) at 1,024 bits costs 1.50e11.
QUAD_WORK_CAP = 160_000_000_000


@dataclass(frozen=True)
class QuadratureResult:
    value: mpf
    truncation_bound: mpf
    step: mpf
    panels: int
    last_halving_diff: mpf  # |T_h - T_2h| of the last step halving, scaled as value
    extra_bits: int  # bits above the working precision against cancellation


def _shifted(r: mpf) -> Callable[[mpf, mpf], Tuple[mpf, mpf, mpf]]:
    """(log A, beta, c) of the integrand on Im s = r, from s -> s + ir:
    A = e^{r^2/(2L)}, beta = -r/L, c = sqrt(y) e^{-r}; at r = 0 exactly the real axis's."""
    return lambda ym, L: (r * r / (2 * L), -r / L, mp.sqrt(ym) * mp.exp(-r))


def _point(s, n: int, y, ctx: PrecisionContext, coefficients) -> mpc:
    """The integrand with coefficients(ym, L) at the one point s, evaluated
    by the quadrature's own row evaluator and rounded to ctx."""
    require_n(n)
    require_resolved(s, "s-out-of-domain", "s", ctx.bits + _GUARD)
    with ctx.prec(_GUARD):
        ym, L = y_and_log(y)
        val = _row_factory(L, *coefficients(ym, L), n, imag=True)(as_real(s), 0, 1)
    with ctx.prec():
        return mpc(+val.real, +val.imag)


def integrand_original(s, n: int, y, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """exp(-s^2/(2 log y)) (1 + sqrt(y) e^{is})^n, the integrand that
    integrate_original sums, at a finite real s."""
    return _point(s, n, y, ctx, _shifted(mpf(0)))


def psi_exp(s, n: int, y, r, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Shifted-contour integrand exp(psi_n(s)) for a given saddle shift r:
    the integrand that integrate_shifted sums when r = r(n).

    Requires sqrt(y) e^{-r} < 1, the saddle hypothesis of exp(psi_n).
    """
    require_resolved(r, "r-out-of-domain", "r", ctx.bits + _GUARD)

    def coefficients(ym, L):
        amp_log, beta, x = _shifted(as_real(r))(ym, L)
        if not x < 1:
            raise DomainError(
                "saddle-hypothesis-violated",
                f"sqrt(y) e^(-r) = {mp.nstr(x, 8)} not < 1",
            )
        return amp_log, beta, x

    return _point(s, n, y, ctx, coefficients)


def _plan(
    L: float, band: float, power: int, mass_log: float, result_log: float, log_eps: float, bits: int
) -> Tuple[float, int, int, float, int]:
    """Grid geometry from the crude mass bound: the half width S, the first
    pass's panel count, the extra bits, the log of the Gaussian-tail
    truncation bound and the price of one point.

    band:       highest Fourier mode of the non-Gaussian factor
    power:      the power m of 1 + c e^{is} (0 for the Gaussian alone)
    mass_log:   log sup of the integrand modulus
    result_log: log of a lower bound on the result magnitude
    log_eps:    log of the relative target
    Tail cut: e^{mass_log - S^2/(2L)} <= eps_abs e^-5; alias cut: grid
    Nyquist 2 pi/h beyond band + Gaussian spectral width at eps_abs.

    The first pass and the halving that always follows it evaluate panels
    + 1 points, each priced (bit_length(power) + 2) max(wp, 512)^2, wp =
    bits + _GUARD + extra; above QUAD_WORK_CAP: quad-work-exceeded.
    """
    need = max(0.0, mass_log - (result_log + log_eps))  # a target above the mass needs no cut
    S = math.sqrt(2 * L * (need + 5))
    h0 = 2 * math.pi / (band + math.sqrt(2 * need / L) + 4)
    extra = max(0, math.ceil((mass_log - result_log) / math.log(2))) + 8
    panels = max(math.ceil(2 * S / h0), 8)
    unit = (power.bit_length() + 2) * max(bits + _GUARD + extra, 512) ** 2
    _price(0, panels + 1, unit)
    return S, panels, extra, mass_log - S * S / (2 * L), unit


def _fixed(z: mpc, wp: int) -> Tuple[int, int]:
    """z as a pair of wp-bit fixed-point ints, each part floored."""
    return to_fixed(z.real._mpf_, wp), to_fixed(z.imag._mpf_, wp)


def _row_factory(
    L: mpf, amp_log: mpf, beta: mpf, c: mpf, n: int, imag: bool = False
) -> Callable[..., Union[mpf, mpc]]:
    """Grid summer for A e^{-s^2/(2L)} e^{i beta s} (1 + c e^{is})^n at the
    active mpmath precision p: row(s0, h, count, halve_first, halve_last)
    gives the real part of the sum of the values at s_j = s0 + j h, j < count,
    with the first value, the last or both weighted 1/2 (the trapezoid's end
    weights); with ``imag`` (_point) the whole complex sum.
    With log A, beta and c real the integrand f has f(-s) = conj f(s), so
    _trapezoid asks only for the nodes s_j >= 0 of its grid, which is
    symmetric about 0, and doubles the real part.

    Every point runs in Python ints, u = 2^-wp, wp = p + g:
    - the Gaussian G_j = A e^{-s_j^2/(2L)} in block floating point, an int
      mantissa times 2^exponent: G_{j+1} = G_j M_j, M_{j+1} = M_j Q,
      Q = e^{-h^2/L}, from G_0, M_0 and Q by mp.exp at wp bits, each
      product shifted right until it has wp bits;
    - W_j = e^{is_j} and the phase e^{i beta s_j} are wp-bit fixed point,
      started from expj at wp bits and advanced by one complex multiply,
      floored;
    - z_j = 1 + c W_j is one multiply by the mantissa of c, floored to the
      unit 2^T u, 2^T >= max(1, c) the next power of two;
    - z_j^n comes from left-to-right binary powering in block floating
      point: both parts share one exponent and, after each bit of n, shift
      right until the larger has wp bits.  The ints stay at wp bits for any
      c, and the error stays relative to |z_j|^k, not to a fixed scale.
    The value G_j z_j^n e^{i beta s_j} is an exact int times 2^e, and the
    values are summed exactly: the accumulator shifts left to the lowest
    exponent it has met, and halving an end value lowers its exponent by
    one.  The sum is rounded once, to p bits.

    The error of each value, relative to G_j (1 + c)^n, which is at most
    e^{mass_log}, with R = |s0| + count h:
    - G_j: the three exp arguments, at wp bits, put at most
      3 (|log A| + R^2/L) u into the exponent of G_j; G_j then carries
      j^2 + j + 1 <= count^2 roundings of under 2 u each, the exps' and
      the shifts' (one exp and j shifts from the G steps, j exps from M_0,
      and C(j,2) exps and shifts from the M steps).
    - |W_j - e^{is_j}| <= 8 (j+1) u: expj at wp bits and the floor leave
      under 4.3 u on W_0 and on the step, and each step adds the step's
      error and under 1.5 u of floor.  The phase drifts the same, plus
      |beta| R u from rounding beta s0 and beta h.
    - z_j is off by at most c 8 (j+1) u plus 2.9 (1 + c) u of floor; the
      n-th power multiplies that by n (1 + c)^(n-1), and each of the
      bit_length(n) renormalisations adds under 2.9 u relative to |z_j|^k.
    With 3n + 3 log2(n+1) <= 8(n+1) and the second-order terms, the sum is
    at most E u, E = 8 (n+1) (count + 2) + 2 count^2
    + ceil(|beta| R + 3 |log A| + 3 R^2/L).  The guard bits g = bit_length(E)
    put it below 2^-p.  So the row is within sum_j 2^-p G_j (1 + c)^n of the
    exact sum at the exact Gaussian, and the final rounding adds 2^-p of the
    sum: inside the budget _GUARD + extra that _integrate reserves for
    roundoff.
    """
    has_phase = beta != 0
    has_power = n != 0 and c != 0
    tail_bits = bin(n)[3:]  # the bits after the leading one
    _, cm, ce, cbc = c._mpf_ if has_power else (0, 0, 0, 0)
    T = max(ce + cbc, 1)

    def row(
        s0: mpf, h: mpf, count: int, halve_first: bool = False, halve_last: bool = False
    ) -> Union[mpf, mpc]:
        p = mp.prec
        R = abs(s0) + count * h
        E = 8 * (n + 1) * (count + 2) + 2 * count * count
        E += int(mp.ceil(abs(beta) * R + 3 * abs(amp_log) + 3 * R * R / L))
        wp = p + E.bit_length()
        with mp.workprec(wp):
            _, gm, ge, _ = mp.exp(amp_log - s0 * s0 / (2 * L))._mpf_
            _, mm, me, _ = mp.exp(-s0 * h / L - h * h / (2 * L))._mpf_
            _, qm, qe, _ = mp.exp(-h * h / L)._mpf_
            wr, wi = _fixed(mp.expj(s0), wp)
            sr, si = _fixed(mp.expj(h), wp)
            pr, pi = _fixed(mp.expj(beta * s0), wp) if has_phase else (1, 0)
            qr, qi = _fixed(mp.expj(beta * h), wp) if has_phase else (1, 0)
        one = 1 << (wp - T) if wp >= T else 0  # 1 in units 2^T u
        zexp = T - wp
        ends = [j for j, halve in ((0, halve_first), (count - 1, halve_last)) if halve]
        acc_r = acc_i = 0
        acc_e = None  # the sum is (acc_r + i acc_i) 2^acc_e
        for j in range(count):
            re, im, e = 1, 0, 0
            if has_power:
                zr = one + (cm * wr >> (T - ce))
                zi = cm * wi >> (T - ce)
                re, im, e = zr, zi, zexp  # z^k = (re + i im) 2^e
                for bit in tail_bits:
                    re, im, e = (re + im) * (re - im), 2 * re * im, 2 * e
                    if bit == "1":
                        re, im, e = re * zr - im * zi, re * zi + im * zr, e + zexp
                    d = (abs(re) | abs(im)).bit_length() - wp
                    if d > 0:
                        re, im, e = re >> d, im >> d, e + d
            if has_phase:
                re, im, e = re * pr - im * pi, imag and re * pi + im * pr, e - wp
            e += ge
            if j in ends:
                e -= 1  # the trapezoid's end weight 1/2, exactly
            if acc_e is None:
                acc_e = e
            elif e < acc_e:
                acc_r, acc_i, acc_e = acc_r << (acc_e - e), acc_i << (acc_e - e), e
            acc_r += gm * re << (e - acc_e)
            if imag:
                acc_i += gm * im << (e - acc_e)
            gm, ge = gm * mm, ge + me
            d = gm.bit_length() - wp
            if d > 0:
                gm, ge = gm >> d, ge + d
            mm, me = mm * qm, me + qe
            d = mm.bit_length() - wp
            if d > 0:
                mm, me = mm >> d, me + d
            wr, wi = (wr * sr - wi * si) >> wp, (wr * si + wi * sr) >> wp
            if has_phase:
                pr, pi = (pr * qr - pi * qi) >> wp, (pr * qi + pi * qr) >> wp
        real = from_man_exp(acc_r, acc_e, p, round_nearest)
        if not imag:
            return mp.make_mpf(real)
        return mp.make_mpc((real, from_man_exp(acc_i, acc_e, p, round_nearest)))

    return row


def _price(spent: int, points: int, unit: int) -> int:
    """spent plus points at unit each: a call's work once they are
    evaluated.  Above QUAD_WORK_CAP: DomainError("quad-work-exceeded")."""
    work = spent + points * unit
    if work > QUAD_WORK_CAP:
        raise DomainError(
            "quad-work-exceeded",
            f"{points} more points at {unit} each bring the work to {work}, "
            f"above the cap {QUAD_WORK_CAP}",
        )
    return work


def _trapezoid(
    row: Callable[..., mpf], S: mpf, panels: int, rel_tol: mpf
) -> Tuple[mpf, mpf, int, mpf]:
    """Composite trapezoid over [-S, S] under step halving, at the active
    precision, until two rounds agree to rel_tol or the price of a row
    refuses it: m halvings of P >= 8 panels evaluate P 2^(m-1) + 1 points at
    2 512^2 or more each, above QUAD_WORK_CAP for m = 17: at most 16 run.

    The integrand is Hermitian, f(-s) = conj f(s) (real log A, beta and c),
    and every grid is symmetric about 0, so each row sums only the nodes
    s >= 0 and the round takes 2 Re of that sum; a node at 0 is its own
    mirror and weighs 1/2.  With P panels of width h = 2S/P, those nodes are
    - first pass, even P: 0, h, ..., S, both ends halved;
    - first pass, odd P: h/2, ..., S, S halved;
    - halving, even P: h/2, ..., S - h/2;
    - halving, odd P: 0, h, ..., S - h/2, 0 halved.
    P is even after the first halving.
    """
    h = 2 * S / panels
    odd, half = panels % 2, panels // 2
    T = 2 * h * row(h / 2 if odd else mpf(0), h, half + 1, not odd, True)
    while True:
        mid = row(mpf(0) if odd else h / 2, h, half + odd, bool(odd))
        T, T_prev = T / 2 + h * mid, T
        h, panels, odd, half = h / 2, 2 * panels, 0, panels
        if (diff := abs(T - T_prev)) <= rel_tol * abs(T):
            return T, h, panels, diff


def _integrate(n: int, y, ctx: PrecisionContext, target_eps, setup) -> QuadratureResult:
    """Validate, plan, elevate the precision and sum A e^{-s^2/(2L)} e^{i beta s}
    (1 + c e^{is})^n.  setup(ym, L) gives mass_log, result_log and
    coefficients(ym, L), which gives log A, beta and c at elevated precision.
    The sum runs at bits = max(ctx.bits, ceil(-log2 eps)) plus the
    elevation, so a target finer than ctx can be met; the result is rounded
    to ctx like every other value.  setup runs at ctx's precision: the plan
    reads only floats from it, so a target of 1e-1000000000 (3.3e9 bits),
    or an n or mass past the float range, is refused before any work.
    """
    require_n(n)
    eps = as_real(DEFAULT_TARGET_EPS if target_eps is None else require_eps(target_eps))
    # the plan rests on math.log of the float; mp.log only below the float range
    log_eps = math.log(float(eps)) if float(eps) > 0 else float(mp.log(eps))
    _, _, exp, bc = eps._mpf_  # 2^(exp+bc-1) <= eps < 2^(exp+bc)
    bits = max(ctx.bits, 1 - exp - bc)  # ceil(-log2 eps): the sum can meet the target
    with ctx.prec(_GUARD):
        ym, L = y_and_log(y)
        try:
            mass_log, result_log, coefficients = setup(ym, L)
            power = n if coefficients(ym, L)[2] else 0  # the row's has_power
            S, panels, extra_bits, trunc_log, unit = _plan(
                float(L), n, power, mass_log, result_log, log_eps, bits
            )
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError("quad-work-exceeded", "the plan overflows floats") from exc
    with mp.workprec(bits + _GUARD + extra_bits):
        ym_hi, L_hi = y_and_log(y)
        summed = _row_factory(L_hi, *coefficients(ym_hi, L_hi), n)
        spent = 0

        def row(s0: mpf, step: mpf, count: int, *ends: bool) -> mpf:
            nonlocal spent  # each row is priced before it runs
            spent = _price(spent, count, unit)
            return summed(s0, step, count, *ends)

        T, h, panels, diff = _trapezoid(row, mpf(S), panels, eps)
    with mp.workprec(bits + _GUARD):
        norm = mp.sqrt(2 * mp.pi * y_and_log(y)[1])
        value, diff = T / norm, diff / norm
        bound = mp.exp(mpf(trunc_log))
    with ctx.prec():
        return QuadratureResult(+value, +bound, +h, panels, +diff, extra_bits)


def integrate_original(
    n: int, y, ctx: PrecisionContext = DEFAULT_CTX, target_eps=None
) -> QuadratureResult:
    """Quadrature of the real-axis representation; value approximates f_n(1/y)."""

    def setup(ym, L):
        return n * float(mp.log1p(mp.sqrt(ym))), 0.0, _shifted(mpf(0))

    return _integrate(n, y, ctx, target_eps, setup)


def integrate_shifted(
    n: int, y, ctx: PrecisionContext = DEFAULT_CTX, target_eps=None
) -> QuadratureResult:
    """Quadrature along the shifted contour Im s = r(n); same value as original.

    The power factor is evaluated as an integer power, which is
    single-valued for every n, so the representation is usable down to
    n = 0 (shift 0) and n = 1 (where sqrt(y) e^{-r} = 1 exactly).
    """

    def setup(ym, L):
        r = solve_r(n, y, ctx).t if n > 0 else mpf(0)
        coefficients = _shifted(r)
        amp_log, _, c = coefficients(ym, L)
        return float(amp_log + n * mp.log1p(c)), 0.0, coefficients

    return _integrate(n, y, ctx, target_eps, setup)


def gaussian_fourier(
    k: int, y, ctx: PrecisionContext = DEFAULT_CTX, target_eps=None
) -> QuadratureResult:
    """Quadrature of (2 pi L)^{-1/2} Int e^{-s^2/(2L) + iks} ds = y^{-k^2/2}.

    The result shrinks like y^{-k^2/2} against an O(1) integrand, so the
    working precision is raised by ~ k^2 log2(y)/2 bits to keep flat
    roundoff below the relative target.
    """

    def setup(ym, L):
        return 0.0, -k * k * float(L) / 2, lambda ym, L: (mpf(0), mpf(k), mpf(0))

    return _integrate(k, y, ctx, target_eps, setup)
