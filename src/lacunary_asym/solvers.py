"""Root solvers for the two saddle-point equations

    t e^t           = n sqrt(y) log y        (Lambert W form, root w)
    t (e^t + sqrt(y)) = n sqrt(y) log y      (shifted form, root r)

Both left sides are smooth, strictly increasing and convex for t > 0.  Each
root is found by Halley's method (Corless et al., "On the Lambert W
function", 1996, section 5) from a float64 seed: the seed is the root of the
equation in logarithmic form, t + log t = log x for w and log t +
log(e^t + sqrt(y)) = log rhs for r, solved by Newton in floats.  Halley's
step triples the correct bits, so from 53 seeded bits one step reaches 128-bit
work.  Where floats do not resolve the seed (log x >= 2^53, or x < 1e-300, or
rhs or log rhs past 1e308) it falls back to log x - log log x, x or w.

The iteration runs on Python ints.  t and its bracket are ints at one scale
2^-F, fixed per solve so that t has wp = ctx.bits + 24 bits where it starts;
each iterate costs one mpmath.libmp.mpf_exp at wp bits, around which g, g'
and g'' are exact ints (a term more than 3 wp bits below the largest of its
sum is rounded), and the Halley candidate takes one integer division.
The iteration is bracketed: a step at or past an end of the given bracket
lands on that end once (the root may round to it), any other step leaving
the bracket is replaced by a bisection step, and the bracket shrinks
monotonically, so it cannot fail.  A step of relative size d leaves an error
of about d^3; when the last step was above 2^-(wp/3), or no step was taken
because the seed already met the tolerance, one Newton step polishes the
root and the smaller residual is kept.

Roots are certified: every RootResult carries the residual g of the
working-precision iterate, which t rounds to ctx.bits, and the advertised
bound |residual| <= 4 eps * rhs holds on return for that iterate.  Where no
t on the working grid meets it (t e^t = 2^(2^60)), the iteration ends once a
Halley step cannot move t or a state recurs, with
DomainError("root-unresolved"); MAX_ITER iterations without either end in
ComputationError("solver-diverged"), a bug.  sqrt(y) and log y are derived
once per (y, precision), the roots of every (n, y) anew.  Domain:
finite reals n > 0 (not only integers), y > 1 and Lambert argument x > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from mpmath import libmp, mp, mpf

from .numerics import (
    DEFAULT_CTX,
    GUARD_BITS,
    ComputationError,
    DomainError,
    PrecisionContext,
    as_real,
    require_real,
    y_and_log,
    y_memo,
)

RESID_TOL_FACTOR = 4
MAX_ITER = 200

# A few extra mantissa bits keep the final residual comparisons honest.
_SOLVER_GUARD = 24

# Float seeds need x (or rhs) and its log inside float range, with room.
_FLOAT_TINY = 1e-300
_FLOAT_HUGE = 1e308


@dataclass(frozen=True)
class RootResult:
    """residual is g at the working iterate (ctx.bits + _SOLVER_GUARD bits),
    exact and then rounded to ctx.bits, within 4 eps * rhs; t is that
    iterate rounded to ctx.bits, which may miss by more (t e^t = 2^(2^45)
    at 53 bits)."""

    t: mpf
    residual: mpf
    iterations: int


def _float_newton(f: Callable[[float], Tuple[float, float]], t: float, unit: float = 0.0) -> float:
    """Newton on f(t) -> (value, slope) in floats, until a step falls below
    2^-50 of max(|t|, unit): the next one would be lost to rounding.  unit
    = 1 suits a log variable, whose absolute steps are relative ones.  From
    the sides the seeds start on it converges monotonically, in a handful of
    steps; MAX_ITER bounds it all the same."""
    for _ in range(MAX_ITER):
        value, slope = f(t)
        step = value / slope
        t -= step
        if abs(step) <= 2.0**-50 * max(abs(t), unit):
            break
    return t


def _aligned(terms, span: int):
    """(exponent, ints): the (man, exp) terms at one binary exponent, exact
    unless that reaches more than span bits below the largest term; a term
    below that floor is rounded down to it, never the gap shifted in."""
    low = top = terms[0][1]
    for m, e in terms:
        if e < low:
            low = e
        if e + m.bit_length() > top:
            top = e + m.bit_length()
    if top - span > low:
        low = top - span
    ints = []
    for m, e in terms:
        ints.append(m << (e - low) if e >= low else m >> (low - e))
    return low, ints


def _equation(c, x, wp: int):
    """The kernel's g for g(t) = t (e^t + c) - x, raw mpfs c >= 0 and x > 0:
    (T, F) -> (G, eg, D1, D2, ed), g = G 2^eg, g' = D1 2^ed and g'' = D2 2^ed
    at t = T 2^-F >= 0, around one exp at wp bits."""
    _, cm, ce, _ = c
    _, xm, xe, _ = x
    span = 3 * wp  # a product's 2 wp bits, and wp more for t down to 2^-wp

    def g(T, F):
        # t as a normalized raw mpf (odd mantissa), as mpf_exp expects
        z = (T & -T).bit_length() - 1
        t = (0, T >> z, z - F, T.bit_length() - z) if T else libmp.fzero
        _, m, E, _ = libmp.mpf_exp(t, wp, "n")
        te = (T * m, E - F)
        eg, G = _aligned((te, (T * cm, ce - F), (-xm, xe)) if cm else (te, (-xm, xe)), span)
        ed, D = _aligned((te, (m, E), (cm, ce)) if cm else (te, (m, E)), span)
        return sum(G), eg, sum(D), D[0] + 2 * D[1], ed

    return g


def _exceeds(a: int, ea: int, b: int, eb: int) -> bool:
    """|a| 2^ea > b 2^eb, b >= 0: an int exceeds a real iff it exceeds its floor."""
    shift = eb - ea
    return abs(a) > (b << shift if shift >= 0 else b >> -shift)


def _div(num: int, den: int, k: int) -> int:
    """num 2^k / den rounded to nearest, den > 0: one integer division."""
    num, den = (num << k, den) if k >= 0 else (num, den << -k)
    return (2 * num + den) // (2 * den)


def _halley_bracketed(g, lo, hi, t0, scale, ctx: PrecisionContext) -> RootResult:
    """Safeguarded Halley on an increasing g with root in [lo, hi]; lo, hi,
    t0 and scale are raw mpfs.

    t and the bracket are ints T at one scale 2^-F, F fixed so that T has
    wp = ctx.bits + _SOLVER_GUARD bits at t0 (at hi where t0 is 0 or in a
    higher binade): the grid of a wp-bit float in that binade, on which t0
    is clamped to [lo, hi].  g(T, F) returns exact ints (G, eg, D1, D2, ed)
    for g, g' and g'' (see _equation).

    Stops at |g(t)| <= 4 eps * scale.  Stopping exactly at tolerance leaves
    a root error of ~4 eps / g'(t), which downstream identities amplify, so
    unless the last step was a Halley step small enough that its cubed size
    is below working precision, one Newton step polishes t and whichever of
    the two has the smaller residual is kept.  t and g return rounded to
    ctx.bits.
    """
    wp = ctx.bits + _SOLVER_GUARD
    top = t0 if t0[1] and t0[2] + t0[3] <= hi[2] + hi[3] else hi
    F = max(wp - top[2] - top[3], 0)
    t, lo, hi = libmp.to_fixed(t0, F), libmp.to_fixed(lo, F), libmp.to_fixed(hi, F)
    t = min(max(t, lo), hi)
    # 4 eps * scale = tol_m 2^tol_e
    tol_m, tol_e = RESID_TOL_FACTOR * scale[1], scale[2] + GUARD_BITS - ctx.bits
    gt, eg, d1, d2, ed = g(t, F)
    iterations = 0
    # the ends of the given bracket are not yet iterates: where the root
    # rounds to one of them, a step at or past it lands on it
    lo_open = hi_open = True
    settled = False
    seen = set()
    while _exceeds(gt, eg, tol_m, tol_e):
        if iterations >= MAX_ITER:
            residual = mp.make_mpf(libmp.from_man_exp(abs(gt), eg, 53, "n"))
            raise ComputationError(
                "solver-diverged",
                f"residual {mp.nstr(residual, 8)} above tolerance after {MAX_ITER} iterations",
            )
        iterations += 1
        if gt > 0:
            hi, hi_open = t, False
        else:
            lo, lo_open = t, False
        # Halley: t - 2 g g' / (2 g'^2 - g g''); of the denominator's two
        # terms the one at the finer exponent is rounded to the other's
        u = eg - ed
        if u <= 0:
            den, k = 2 * d1 * d1 - (gt * d2 >> -u), F + u
        else:
            den, k = (2 * d1 * d1 >> u) - gt * d2, F
        cand = t - _div(2 * gt * d1, den, k) if den > 0 else t
        # a step too small to move t leaves t the representable point nearest
        # the root; a state met before repeats its steps: no t meets tol
        state = (t, lo, hi, lo_open, hi_open)
        if (den > 0 and cand == t) or state in seen:
            raise DomainError(
                "root-unresolved",
                f"no t at {wp} bits meets the tolerance; stopped after {iterations} iterations",
            )
        seen.add(state)
        halley = lo < cand < hi
        if not halley:
            if cand >= hi and hi_open:
                cand = hi
            elif cand <= lo and lo_open:
                cand = lo
            else:
                cand = (lo + hi) >> 1
        # a step of relative size at most 2^(-wp/3)
        settled = halley and (abs(cand - t) ** 3 << wp) <= abs(cand) ** 3
        t = cand
        gt, eg, d1, d2, ed = g(t, F)
    if not settled:
        polished = t - _div(gt, d1, F + eg - ed)
        gp, egp = g(polished, F)[:2]
        if _exceeds(gt, eg, abs(gp), egp):
            t, gt, eg = polished, gp, egp
    t = mp.make_mpf(libmp.from_man_exp(t, -F, ctx.bits, "n"))
    return RootResult(t, mp.make_mpf(libmp.from_man_exp(gt, eg, ctx.bits, "n")), iterations)


def _lambert_seed(x, wp: int):
    """Bracket (lo, hi) and float64 seed of the t >= 0 with t e^t = x, as raw
    mpfs at wp bits."""
    # x < 2 or x >= 4 decides x <= e by the exponent alone
    top = x[2] + x[3]
    if top <= 1 or (top == 2 and libmp.mpf_cmp(x, libmp.mpf_e(wp, "n")) <= 0):
        # t <= x (e^t >= 1) and t <= 1 (t e^t increasing, value e at 1);
        # t e^t - x is convex, so Newton from t = min(x, 1) descends to the root
        lo, hi = libmp.fzero, x if libmp.mpf_cmp(x, libmp.fone) <= 0 else libmp.fone
        xf = libmp.to_float(x, rnd="n")
        if xf < _FLOAT_TINY:
            return lo, hi, x

        def f(t):
            et = math.exp(t)
            return t * et - xf, (1 + t) * et

        return lo, hi, libmp.from_float(_float_newton(f, min(xf, 1.0)))
    # t >= 1 here, hence e^t <= x gives t <= log x
    lnx = libmp.mpf_log(x, wp, "n")
    L = libmp.to_float(lnx, rnd="n")
    # from 2^53 on a float t is off by an ulp of L, over 1, which Halley
    # climbs by about 2 per step; L - log L is within log L / L of the root
    if not L < 2.0**53:
        return libmp.fone, lnx, libmp.mpf_sub(lnx, libmp.mpf_log(lnx, wp, "n"), wp, "n")
    # t + log t - log x is concave; Newton ascends to the root from
    # L - log L, which lies below it
    seed = _float_newton(lambda t: (t + math.log(t) - L, 1 + 1 / t), L - math.log(L))
    return libmp.fone, lnx, libmp.from_float(seed)


def lambert_w(x, ctx: PrecisionContext = DEFAULT_CTX) -> RootResult:
    """Positive-branch Lambert W: the t >= 0 with t e^t = x, for x > 0."""
    require_real(x, "x-out-of-domain", "x")
    with ctx.prec(_SOLVER_GUARD):
        xm = as_real(x)._mpf_
    wp = ctx.bits + _SOLVER_GUARD
    lo, hi, t0 = _lambert_seed(xm, wp)
    return _halley_bracketed(_equation(libmp.fzero, xm, wp), lo, hi, t0, xm, ctx)


@y_memo
def _sqrt_and_log(y):
    """sqrt(y) and log y, raw mpfs at the active precision wp, y from
    y_and_log.  log y is about y - 1, of which y rounded to wp bits keeps
    only about wp + mag(y - 1) bits; so for y - 1 below 1/2 the one log is
    taken from y read again at -mag(y - 1) more bits."""
    wp, ym = mp.prec, y_and_log(y)[0]
    y_log, near = ym, -mp.mag(ym - 1)
    if near > 0:
        with mp.workprec(wp + near):
            y_log = as_real(y)
    return libmp.mpf_sqrt(ym._mpf_, wp, "n"), libmp.mpf_log(y_log._mpf_, wp, "n")


def _rhs(n, y, ctx: PrecisionContext):
    """sqrt(y), log y (_sqrt_and_log) and the common right side n sqrt(y)
    log y, raw mpfs at guard precision wp = ctx.bits + _SOLVER_GUARD."""
    require_real(n, "n-out-of-domain", "n")
    wp = ctx.bits + _SOLVER_GUARD
    with ctx.prec(_SOLVER_GUARD):
        (sqrt_y, log_y), nm = _sqrt_and_log(y), as_real(n)._mpf_
    return sqrt_y, log_y, libmp.mpf_mul(libmp.mpf_mul(nm, sqrt_y, wp, "n"), log_y, wp, "n")


def _r_seed(w, log_y, rhs, wp: int):
    """Float64 seed of r: the root of log t + log(e^t + sqrt(y)) = log rhs,
    as a raw mpf.

    In u = log t the left side, u + log(e^{e^u} + sqrt(y)), is convex and
    increasing, so Newton from u = log w >= log r descends to the root.
    log(e^t + sqrt(y)) is summed as max(t, h) + log1p(e^-|t - h|), h =
    log sqrt(y), which cannot overflow.  w where floats do not reach."""
    r = libmp.to_float(rhs, rnd="n")
    if r < _FLOAT_TINY:
        return w
    lr = math.log(r) if r < _FLOAT_HUGE else libmp.to_float(libmp.mpf_log(rhs, wp, "n"), rnd="n")
    h = libmp.to_float(log_y, rnd="n") / 2
    if not (lr < _FLOAT_HUGE and h < _FLOAT_HUGE):
        return w

    def f(u):
        t = math.exp(u)
        z = t - h
        # e^t / (e^t + sqrt(y)), the logistic of z, without overflow
        share = 1 / (1 + math.exp(-z)) if z >= 0 else 1 - 1 / (1 + math.exp(z))
        return u + max(t, h) + math.log1p(math.exp(-abs(z))) - lr, 1 + t * share

    u = _float_newton(f, math.log(libmp.to_float(w, rnd="n")), unit=1.0)
    return libmp.from_float(math.exp(u))


def _saddle_roots(n, y, ctx: PrecisionContext) -> Tuple[RootResult, RootResult]:
    """Both roots (w, r) from one right side and one Lambert solve.

    Dropping the sqrt(y) term raises the root, so w bounds r from above,
    and w starts r's float seed.  w is rounded to ctx.bits, and for large w
    half its ulp can exceed w - r: [0, w (1 + 2^(1 - bits))] brackets r.
    So does [0, rhs / sqrt(y)], rounded up, since t e^t > 0: where it is
    the tighter, r lies within a factor 2 of its end however far below w.
    """
    sqrt_y, log_y, rhs = _rhs(n, y, ctx)
    w = lambert_w(mp.make_mpf(rhs), ctx)
    wp = ctx.bits + _SOLVER_GUARD
    ulps = libmp.from_man_exp((1 << (ctx.bits - 1)) + 1, 1 - ctx.bits)  # 1 + 2^(1 - bits)
    hi = libmp.mpf_mul(w.t._mpf_, ulps, wp, "n")
    below_w = libmp.mpf_div(rhs, sqrt_y, wp, "c")
    if libmp.mpf_cmp(below_w, hi) < 0:
        hi = below_w
    seed = _r_seed(w.t._mpf_, log_y, rhs, wp)
    return w, _halley_bracketed(_equation(sqrt_y, rhs, wp), libmp.fzero, hi, seed, rhs, ctx)


def solve_w(n, y, ctx: PrecisionContext = DEFAULT_CTX) -> RootResult:
    """Root w(n) of w e^w = n sqrt(y) log y."""
    return lambert_w(mp.make_mpf(_rhs(n, y, ctx)[2]), ctx)


def solve_r(n, y, ctx: PrecisionContext = DEFAULT_CTX) -> RootResult:
    """Root r(n) of t (e^t + sqrt(y)) = n sqrt(y) log y."""
    return _saddle_roots(n, y, ctx)[1]


@dataclass(frozen=True)
class ResidualRelations:
    w: mpf
    r: mpf
    w_minus_r: mpf
    w2_minus_r2: mpf
    w_over_r: mpf


def residual_relations(n, y, ctx: PrecisionContext = DEFAULT_CTX) -> ResidualRelations:
    """Both roots plus the gap quantities w - r, w^2 - r^2, w / r."""
    w_root, r_root = _saddle_roots(n, y, ctx)
    w, r = w_root.t, r_root.t
    with ctx.prec():
        return ResidualRelations(w, r, +(w - r), +(w * w - r * r), +(w / r))
