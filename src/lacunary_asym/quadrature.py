"""Gaussian-weight quadrature oracles for f_n(1/y).

Two integral representations are evaluated independently of the series:

    f_n(1/y) = (2 pi log y)^{-1/2} Int exp(-s^2/(2 log y)) (1+sqrt(y) e^{is})^n ds
    f_n(1/y) = (2 pi log y)^{-1/2} Int exp(psi_n(s)) ds        (contour at i r)

plus the plain Gaussian Fourier transform underlying both,

    (2 pi log y)^{-1/2} Int exp(-s^2/(2 log y) + iks) ds = y^{-k^2/2}.

All integrands share the shape  A e^{-s^2/(2L)} e^{i beta s} (1 + c e^{is})^n,
evaluated over uniform grids and summed with a composite trapezoid rule
under step halving.  Each point runs in Python ints (_row_factory), with
no transcendental and no mpmath number: the Gaussian advances by two
block-floating-point multiplies, e^{is} and the phase by one fixed-point
complex multiply each, 1 + c e^{is} by one more, and its n-th power by
binary powering in block floating point.  A row of the grid is summed
exactly in ints, its end values halved by their exponents, and rounded
once.  On a shared 2-vCPU x86-64 box (CPython 3.11, pure-Python mpmath)
a point costs about 15 us over the quadcheck rows of the benchmark's
verify workload (n <= 60; 27 us with mpf Gaussians and fsum) and 56-72 us
at n = 200, y = 100 (86-91 us), setup included.

Working precision is the larger of ctx.bits and ceil(-log2 target_eps),
raised per call by the known cancellation budget: the integrand mass can
exceed the result by a factor e^{mass_log - result_log} (worst at k = 30,
where the answer is ~2^-450 against an O(1) integrand), and flat roundoff
must stay below the relative target of the result.  The plan (_plan)
predicts the first pass's points times working bits before any row is
built and refuses more than QUAD_WORK_CAP (quad-work-exceeded); each step
halving is priced the same way before its row.

The three integrators share one routine, _integrate, and one domain: an
integer n (k) in [0, QUAD_N_CAP] ([0, FOURIER_K_CAP]; above it: quad-cap),
a finite y > 1 and a finite target_eps > 0.  Integrands take the same n, y
and a finite real s (psi_exp: and r) of magnitude below 2^(working bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .numerics import (
    DEFAULT_CTX,
    ComputationError,
    DomainError,
    PrecisionContext,
    as_real,
    require_eps,
    require_n,
    require_resolved,
    require_y,
)
from .solvers import solve_r

# Desk-scale gate: S grows like sqrt(n) and the power like (1+sqrt(y))^n,
# so large-n verification belongs to eval_log, not quadrature.
QUAD_N_CAP = 200
FOURIER_K_CAP = 64

MAX_HALVINGS = 20
DEFAULT_TARGET_EPS = "1e-20"

_GUARD = 32

# Most points times working bits one pass of a quadrature may take: its work
# budget, priced for the first pass before any row and for each step halving
# before its row.  The largest plans in the tests are 4,937,270
# (integrate_original(60, "1e10"): 4,238 points at 1,165 bits, then 4,237 in
# its one halving) and 4,194,220 (integrate_original(200, 100): 4,877 points
# at 860 bits, then 4,876); on a shared 2-vCPU x86-64 box they take
# 0.99-1.12 s and 0.55-0.70 s in all, against 1.30-1.34 s and 0.84-0.89 s
# with mpf Gaussians and fsum.  In the benchmark workloads the largest is
# 76,195 (quadcheck, n = 60, y = 2).
QUAD_WORK_CAP = 10_000_000


@dataclass(frozen=True)
class QuadratureResult:
    value: mpf
    truncation_bound: mpf
    step: mpf
    panels: int
    imag_residual: mpf
    last_halving_diff: mpf  # |T_h - T_2h| of the last step halving, scaled as value
    extra_bits: int  # bits above the working precision against cancellation


def _original(ym: mpf, L: mpf) -> Tuple[mpf, mpf, mpf]:
    """(log A, beta, c) of the real-axis integrand: A = 1, no phase, c = sqrt(y)."""
    return mpf(0), mpf(0), mp.sqrt(ym)


def _shifted(r: mpf) -> Callable[[mpf, mpf], Tuple[mpf, mpf, mpf]]:
    """(log A, beta, c) of the integrand on Im s = r, from s -> s + ir:
    A = e^{r^2/(2L)}, beta = -r/L, c = sqrt(y) e^{-r}."""
    return lambda ym, L: (r * r / (2 * L), -r / L, mp.sqrt(ym) * mp.exp(-r))


def _point(s, n: int, y, ctx: PrecisionContext, coefficients) -> mpc:
    """The integrand with coefficients(ym, L) at the one point s, evaluated
    by the quadrature's own row evaluator and rounded to ctx."""
    require_n(n)
    require_y(y)
    require_resolved(s, "s-out-of-domain", "s", ctx.bits + _GUARD)
    with ctx.prec(_GUARD):
        ym = as_real(y)
        L = mp.log(ym)
        val = _row_factory(L, *coefficients(ym, L), n)(as_real(s), 0, 1)
    with ctx.prec():
        return mpc(+val.real, +val.imag)


def integrand_original(s, n: int, y, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """exp(-s^2/(2 log y)) (1 + sqrt(y) e^{is})^n, the integrand that
    integrate_original sums, at a finite real s."""
    return _point(s, n, y, ctx, _original)


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
    L: float, band: float, mass_log: float, result_log: float, log_eps: float, bits: int
) -> Tuple[float, int, int, float]:
    """Grid geometry from the crude mass bound: the half width S, the first
    pass's panel count, the extra bits and the log of the Gaussian-tail
    truncation bound.

    band:       highest Fourier mode of the non-Gaussian factor
    mass_log:   log sup of the integrand modulus
    result_log: log of a lower bound on the result magnitude
    log_eps:    log of the relative target
    Tail cut: e^{mass_log - S^2/(2L)} <= eps_abs e^-5; alias cut: grid
    Nyquist 2 pi/h beyond band + Gaussian spectral width at eps_abs.

    The first pass sums panels + 1 points at bits + _GUARD + extra bits;
    above QUAD_WORK_CAP of their product: DomainError("quad-work-exceeded").
    """
    need = max(0.0, mass_log - (result_log + log_eps))  # a target above the mass needs no cut
    S = math.sqrt(2 * L * (need + 5))
    h0 = 2 * math.pi / (band + math.sqrt(2 * need / L) + 4)
    extra = max(0, math.ceil((mass_log - result_log) / math.log(2))) + 8
    panels = max(math.ceil(2 * S / h0), 8)
    _price(panels + 1, bits + _GUARD + extra)
    return S, panels, extra, mass_log - S * S / (2 * L)


def _fixed(z: mpc, wp: int) -> Tuple[int, int]:
    """z as a pair of wp-bit fixed-point ints, each part floored."""
    return to_fixed(z.real._mpf_, wp), to_fixed(z.imag._mpf_, wp)


def _row_factory(L: mpf, amp_log: mpf, beta: mpf, c: mpf, n: int) -> Callable[..., mpc]:
    """Grid summer for A e^{-s^2/(2L)} e^{i beta s} (1 + c e^{is})^n at the
    active mpmath precision p: row(s0, h, count, halve_ends) gives the sum
    of the values at s_j = s0 + j h, j < count, with the first and the last
    halved when halve_ends (the trapezoid's end weights).

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

    def row(s0: mpf, h: mpf, count: int, halve_ends: bool = False) -> mpc:
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
        ends = (0, count - 1) if halve_ends else ()
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
                re, im, e = re * pr - im * pi, re * pi + im * pr, e - wp
            e += ge
            if j in ends:
                e -= 1  # the trapezoid's end weight 1/2, exactly
            if acc_e is None:
                acc_e = e
            elif e < acc_e:
                acc_r, acc_i, acc_e = acc_r << (acc_e - e), acc_i << (acc_e - e), e
            acc_r += gm * re << (e - acc_e)
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
        return mp.make_mpc((real, from_man_exp(acc_i, acc_e, p, round_nearest)))

    return row


def _price(points: int, wp: int) -> None:
    """Refuse a pass of points at wp bits above QUAD_WORK_CAP of their
    product (quad-work-exceeded)."""
    work = points * wp
    if work > QUAD_WORK_CAP:
        raise DomainError(
            "quad-work-exceeded",
            f"{points} points at {wp} bits, {work} bit-points above the cap {QUAD_WORK_CAP}",
        )


def _trapezoid(
    row: Callable[..., mpc], S: mpf, panels: int, rel_tol: mpf
) -> Tuple[mpc, mpf, int, mpf]:
    """Composite trapezoid over [-S, S] under step halving, at the active
    precision; each halving round is priced (_price) before its row."""
    h = 2 * S / panels
    T = h * row(-S, h, panels + 1, True)
    last_diff = mpf("inf")
    for _ in range(MAX_HALVINGS):
        _price(panels, mp.prec)
        Tn = T / 2 + (h / 2) * row(-S + h / 2, h, panels)
        h /= 2
        panels *= 2
        last_diff = abs(Tn - T)
        T = Tn
        if last_diff <= rel_tol * abs(T):
            return T, h, panels, last_diff
    raise ComputationError(
        "quadrature-stalled",
        f"step halving did not converge in {MAX_HALVINGS} rounds "
        f"(panels={panels}, last diff {mp.nstr(last_diff, 6)}, "
        f"target {mp.nstr(rel_tol * abs(T), 6)})",
    )


def _integrate(
    n: int, y, ctx: PrecisionContext, target_eps, cap: int, setup
) -> QuadratureResult:
    """Validate, plan, elevate the precision and sum A e^{-s^2/(2L)} e^{i beta s}
    (1 + c e^{is})^n.  setup(ym, L) gives mass_log, result_log and
    coefficients(ym, L), which gives log A, beta and c at elevated precision.
    The sum runs at bits = max(ctx.bits, ceil(-log2 eps)) plus the
    elevation, so a target finer than ctx can be met; the result is rounded
    to ctx like every other value.  setup runs at ctx's precision: the plan
    reads only floats from it, so a target of 1e-1000000000 (3.3e9 bits)
    is refused before any work at those bits.
    """
    require_n(n, cap=cap, cap_code="quad-cap")
    require_y(y)
    eps = as_real(DEFAULT_TARGET_EPS if target_eps is None else require_eps(target_eps))
    # the plan rests on math.log of the float; mp.log only below the float range
    log_eps = math.log(float(eps)) if float(eps) > 0 else float(mp.log(eps))
    _, _, exp, bc = eps._mpf_  # 2^(exp+bc-1) <= eps < 2^(exp+bc)
    bits = max(ctx.bits, 1 - exp - bc)  # ceil(-log2 eps): the sum can meet the target
    with ctx.prec(_GUARD):
        ym = as_real(y)
        L = mp.log(ym)
        mass_log, result_log, coefficients = setup(ym, L)
    S, panels, extra_bits, trunc_log = _plan(
        float(L), float(n), mass_log, result_log, log_eps, bits
    )
    with mp.workprec(bits + _GUARD + extra_bits):
        ym_hi = as_real(y)
        L_hi = mp.log(ym_hi)
        row = _row_factory(L_hi, *coefficients(ym_hi, L_hi), n)
        T, h, panels, diff = _trapezoid(row, mpf(S), panels, eps)
    with mp.workprec(bits + _GUARD):
        norm = mp.sqrt(2 * mp.pi * mp.log(as_real(y)))
        value, imag_res, diff = T.real / norm, abs(T.imag) / norm, diff / norm
        bound = mp.exp(mpf(trunc_log))
    with ctx.prec():
        return QuadratureResult(+value, +bound, +h, panels, +imag_res, +diff, extra_bits)


def integrate_original(
    n: int, y, ctx: PrecisionContext = DEFAULT_CTX, target_eps=None
) -> QuadratureResult:
    """Quadrature of the real-axis representation; value approximates f_n(1/y)."""

    def setup(ym, L):
        return n * float(mp.log1p(mp.sqrt(ym))), 0.0, _original

    return _integrate(n, y, ctx, target_eps, QUAD_N_CAP, setup)


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

    return _integrate(n, y, ctx, target_eps, QUAD_N_CAP, setup)


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

    return _integrate(k, y, ctx, target_eps, FOURIER_K_CAP, setup)
