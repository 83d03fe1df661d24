"""Root solvers for the two saddle-point equations

    t e^t           = n sqrt(y) log y        (Lambert W form, root w)
    t (e^t + sqrt(y)) = n sqrt(y) log y      (shifted form, root r)

Both left sides are smooth, strictly increasing and convex for t > 0.  Each
root is found by Halley's method (Corless et al., "On the Lambert W
function", 1996, section 5) from a float64 seed: the seed is the root of the
equation in logarithmic form, t + log t = log x for w and log t +
log(e^t + sqrt(y)) = log rhs for r, solved by Newton in floats.  Halley's
step triples the correct bits, so from 53 seeded bits one step reaches 128-bit
work; g, g' and g'' come from one exp.  Where floats do not resolve the
seed (log x >= 2^53, or x < 1e-300, or rhs or log rhs past 1e308) it falls
back to log x - log log x, x or w.

The iteration is bracketed: a step at or past an end of the given bracket
lands on that end once (the root may round to it), any other step leaving
the bracket is replaced by a bisection step, and the bracket shrinks
monotonically, so it cannot fail.  A
step of relative size d leaves an error of about d^3; when the last step
was above 2^-(wp/3) at working precision wp, or no step was taken because
the seed already met the tolerance, one Newton step polishes the root and
the smaller residual is kept.

Roots are certified: every RootResult carries the residual g of the
working-precision iterate, which t rounds to ctx.bits, and the advertised
bound |residual| <= 4 eps * rhs holds on return for that iterate.  Where no
t at the working precision meets it (t e^t = 2^(2^60)), the iteration
ends once a Halley step cannot move t or a state recurs, with
DomainError("root-unresolved"); MAX_ITER iterations without either end in
ComputationError("solver-diverged"), a bug.  Domain:
finite reals n > 0 (not only integers), y > 1 and Lambert argument x > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from mpmath import mp, mpf

from .numerics import (
    DEFAULT_CTX,
    ComputationError,
    DomainError,
    PrecisionContext,
    as_real,
    require_real,
    y_and_log,
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
    """residual is g at the working-precision iterate (ctx.bits +
    _SOLVER_GUARD bits), within 4 eps * rhs; t is that iterate rounded to
    ctx.bits, which may miss by more (t e^t = 2^(2^45) at 53 bits)."""

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


def _halley_bracketed(
    g: Callable[[mpf], Tuple[mpf, mpf, mpf]],
    lo: mpf,
    hi: mpf,
    t0: mpf,
    scale: mpf,
    ctx: PrecisionContext,
) -> RootResult:
    """Safeguarded Halley on an increasing g with root in [lo, hi]; g(t)
    returns (g, g', g'').

    Stops at |g(t)| <= 4 eps * scale.  Stopping exactly at tolerance leaves
    a root error of ~4 eps / g'(t), which downstream identities amplify, so
    unless the last step was a Halley step small enough that its cubed size
    is below working precision, one Newton step polishes t and whichever of
    the two has the smaller residual is kept.
    """
    tol = RESID_TOL_FACTOR * ctx.eps * scale
    cube_cut = mpf(2.0 ** (-mp.prec / 3))
    t = min(max(t0, lo), hi)
    gt, d1, d2 = g(t)
    iterations = 0
    # the ends of the given bracket are not yet iterates: where the root
    # rounds to one of them, a step at or past it lands on it
    lo_open = hi_open = True
    settled = False
    seen = set()
    while abs(gt) > tol:
        if iterations >= MAX_ITER:
            raise ComputationError(
                "solver-diverged",
                f"residual {mp.nstr(abs(gt), 8)} above tolerance after {MAX_ITER} iterations",
            )
        iterations += 1
        if gt > 0:
            hi, hi_open = t, False
        else:
            lo, lo_open = t, False
        den = 2 * d1 * d1 - gt * d2
        cand = t - 2 * gt * d1 / den if den > 0 else t
        # a step too small to move t leaves t the representable point nearest
        # the root; a state met before repeats its steps: no t meets tol
        state = (t, lo, hi, lo_open, hi_open)
        if (den > 0 and cand == t) or state in seen:
            raise DomainError(
                "root-unresolved",
                f"no t at {mp.prec} bits meets the tolerance; "
                f"stopped after {iterations} iterations",
            )
        seen.add(state)
        halley = lo < cand < hi
        if not halley:
            if cand >= hi and hi_open:
                cand = hi
            elif cand <= lo and lo_open:
                cand = lo
            else:
                cand = (lo + hi) / 2
        settled = halley and abs(cand - t) <= abs(cand) * cube_cut
        t = cand
        gt, d1, d2 = g(t)
    if not settled:
        polished = t - gt / d1
        gp = g(polished)[0]
        if abs(gp) < abs(gt):
            t, gt = polished, gp
    return RootResult(t, gt, iterations)


def _lambert_seed(xm: mpf) -> Tuple[mpf, mpf, mpf]:
    """Bracket (lo, hi) and float64 seed of the t >= 0 with t e^t = x."""
    if xm <= mp.e:
        # t <= x (e^t >= 1) and t <= 1 (t e^t increasing, value e at 1);
        # t e^t - x is convex, so Newton from t = min(x, 1) descends to the root
        lo, hi = mpf(0), min(xm, mpf(1))
        x = float(xm)
        if x < _FLOAT_TINY:
            return lo, hi, xm

        def f(t):
            et = math.exp(t)
            return t * et - x, (1 + t) * et

        return lo, hi, mpf(_float_newton(f, min(x, 1.0)))
    # t >= 1 here, hence e^t <= x gives t <= log x
    lnx = mp.log(xm)
    lo, hi = mpf(1), lnx
    L = float(lnx)
    # from 2^53 on a float t is off by an ulp of L, over 1, which Halley
    # climbs by about 2 per step; L - log L is within log L / L of the root
    if not L < 2.0**53:
        return lo, hi, lnx - mp.log(lnx)
    # t + log t - log x is concave; Newton ascends to the root from
    # L - log L, which lies below it
    return lo, hi, mpf(_float_newton(lambda t: (t + math.log(t) - L, 1 + 1 / t), L - math.log(L)))


def lambert_w(x, ctx: PrecisionContext = DEFAULT_CTX) -> RootResult:
    """Positive-branch Lambert W: the t >= 0 with t e^t = x, for x > 0."""
    require_real(x, "x-out-of-domain", "x")
    with ctx.prec(_SOLVER_GUARD):
        xm = as_real(x)
        lo, hi, t0 = _lambert_seed(xm)

        def g(t):
            e = mp.exp(t)
            te = t * e
            return te - xm, te + e, te + 2 * e

        result = _halley_bracketed(g, lo, hi, t0, xm, ctx)
    with ctx.prec():
        return RootResult(+result.t, +result.residual, result.iterations)


def _rhs(n, y, ctx: PrecisionContext):
    """sqrt(y), log y and the common right side n sqrt(y) log y, at guard
    precision."""
    require_real(n, "n-out-of-domain", "n")
    with ctx.prec(_SOLVER_GUARD):
        ym, log_y = y_and_log(y)
        sqrt_y = mp.sqrt(ym)
        return sqrt_y, log_y, as_real(n) * sqrt_y * log_y


def _r_seed(w: mpf, log_y: mpf, rhs: mpf) -> mpf:
    """Float64 seed of r: the root of log t + log(e^t + sqrt(y)) = log rhs.

    In u = log t the left side, u + log(e^{e^u} + sqrt(y)), is convex and
    increasing, so Newton from u = log w >= log r descends to the root.
    log(e^t + sqrt(y)) is summed as max(t, h) + log1p(e^-|t - h|), h =
    log sqrt(y), which cannot overflow.  w where floats do not reach."""
    r = float(rhs)
    if r < _FLOAT_TINY:
        return w
    lr = math.log(r) if r < _FLOAT_HUGE else float(mp.log(rhs))
    h = float(log_y) / 2
    if not (lr < _FLOAT_HUGE and h < _FLOAT_HUGE):
        return w

    def f(u):
        t = math.exp(u)
        z = t - h
        # e^t / (e^t + sqrt(y)), the logistic of z, without overflow
        share = 1 / (1 + math.exp(-z)) if z >= 0 else 1 - 1 / (1 + math.exp(z))
        return u + max(t, h) + math.log1p(math.exp(-abs(z))) - lr, 1 + t * share

    return mpf(math.exp(_float_newton(f, math.log(float(w)), unit=1.0)))


def _saddle_roots(n, y, ctx: PrecisionContext) -> Tuple[RootResult, RootResult]:
    """Both roots (w, r) from one right side and one Lambert solve.

    Dropping the sqrt(y) term raises the root, so w bounds r from above,
    and w starts r's float seed.  w is rounded to ctx.bits, and for large w
    half its ulp can exceed w - r: [0, w (1 + 2^(1 - bits))] brackets r.
    """
    sqrt_y, log_y, rhs = _rhs(n, y, ctx)
    w = lambert_w(rhs, ctx)
    with ctx.prec(_SOLVER_GUARD):

        def g(t):
            e = mp.exp(t)
            te = t * e
            return t * (e + sqrt_y) - rhs, te + e + sqrt_y, te + 2 * e

        hi = w.t * (1 + mp.ldexp(1, 1 - ctx.bits))
        result = _halley_bracketed(g, mpf(0), hi, _r_seed(w.t, log_y, rhs), rhs, ctx)
    with ctx.prec():
        return w, RootResult(+result.t, +result.residual, result.iterations)


def solve_w(n, y, ctx: PrecisionContext = DEFAULT_CTX) -> RootResult:
    """Root w(n) of w e^w = n sqrt(y) log y."""
    return lambert_w(_rhs(n, y, ctx)[2], ctx)


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
