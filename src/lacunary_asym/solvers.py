"""Root solvers for the two saddle-point equations

    t e^t           = n sqrt(y) log y        (Lambert W form, root w)
    t (e^t + sqrt(y)) = n sqrt(y) log y      (shifted form, root r)

Both left sides are smooth, strictly increasing and convex for t > 0, so a
bracketed Newton iteration cannot fail: any step leaving the bracket is
replaced by a bisection step and the bracket shrinks monotonically.

Roots are certified: every RootResult carries the achieved residual, and
the advertised bound |residual| <= 4 eps * rhs holds on return.  Domain:
finite reals n > 0 (not only integers), y > 1 and Lambert argument x > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from mpmath import mp, mpf

from .numerics import (
    DEFAULT_CTX,
    ComputationError,
    PrecisionContext,
    as_real,
    require_real,
    require_y,
)

RESID_TOL_FACTOR = 4
MAX_ITER = 200

# Newton doubles correct digits per step; a few extra mantissa bits keep the
# final residual comparisons honest.
_SOLVER_GUARD = 24


@dataclass(frozen=True)
class RootResult:
    t: mpf
    residual: mpf
    iterations: int


def _newton_bracketed(
    g: Callable[[mpf], mpf],
    dg: Callable[[mpf], mpf],
    lo: mpf,
    hi: mpf,
    t0: mpf,
    scale: mpf,
    ctx: PrecisionContext,
) -> RootResult:
    """Safeguarded Newton on an increasing g with root in [lo, hi].

    Stops at |g(t)| <= 4 eps * scale, then applies two unguarded polish
    steps and keeps whichever iterate had the smallest residual.  The
    polish matters: stopping exactly at tolerance leaves a root error of
    ~4 eps / g'(t), which downstream identities amplify.
    """
    tol = RESID_TOL_FACTOR * ctx.eps * scale
    t = min(max(t0, lo), hi)
    gt = g(t)
    iterations = 0
    converged = abs(gt) <= tol
    while not converged:
        if iterations >= MAX_ITER:
            raise ComputationError(
                "solver-diverged",
                f"residual {mp.nstr(abs(gt), 8)} above tolerance after {MAX_ITER} iterations",
            )
        iterations += 1
        if gt > 0:
            hi = t
        else:
            lo = t
        step = gt / dg(t)
        cand = t - step
        if not (lo < cand < hi):
            cand = (lo + hi) / 2
        t = cand
        gt = g(t)
        converged = abs(gt) <= tol
    best_t, best_g = t, gt
    for _ in range(2):
        t = t - gt / dg(t)
        gt = g(t)
        if abs(gt) < abs(best_g):
            best_t, best_g = t, gt
    return RootResult(best_t, best_g, iterations)


def lambert_w(x, ctx: PrecisionContext = DEFAULT_CTX) -> RootResult:
    """Positive-branch Lambert W: the t >= 0 with t e^t = x, for x > 0."""
    require_real(x, "x-out-of-domain", "x")
    with ctx.prec(_SOLVER_GUARD):
        xm = as_real(x)
        e = mp.e
        if xm <= e:
            # t <= x (e^t >= 1) and t <= 1 (t e^t increasing, value e at 1)
            lo, hi = mpf(0), min(xm, mpf(1))
            t0 = xm
        else:
            # t >= 1 here, hence e^t <= x gives t <= log x
            lnx = mp.log(xm)
            lo, hi = mpf(1), lnx
            t0 = lnx - mp.log(lnx)
        result = _newton_bracketed(
            lambda t: t * mp.exp(t) - xm,
            lambda t: (1 + t) * mp.exp(t),
            lo,
            hi,
            t0,
            xm,
            ctx,
        )
    with ctx.prec():
        return RootResult(+result.t, +result.residual, result.iterations)


def _rhs(n, y, ctx: PrecisionContext):
    """sqrt(y) and the common right side n sqrt(y) log y, at guard precision."""
    require_real(n, "n-out-of-domain", "n")
    require_y(y)
    with ctx.prec(_SOLVER_GUARD):
        ym = as_real(y)
        sqrt_y = mp.sqrt(ym)
        return sqrt_y, as_real(n) * sqrt_y * mp.log(ym)


def _saddle_roots(n, y, ctx: PrecisionContext) -> Tuple[RootResult, RootResult]:
    """Both roots (w, r) from one right side and one Lambert solve.

    Dropping the sqrt(y) term raises the root, so w bounds r from above:
    [0, w] brackets r and w itself is the starting point.
    """
    sqrt_y, rhs = _rhs(n, y, ctx)
    w = lambert_w(rhs, ctx)
    with ctx.prec(_SOLVER_GUARD):
        result = _newton_bracketed(
            lambda t: t * (mp.exp(t) + sqrt_y) - rhs,
            lambda t: mp.exp(t) * (1 + t) + sqrt_y,
            mpf(0),
            w.t,
            w.t,
            rhs,
            ctx,
        )
    with ctx.prec():
        return w, RootResult(+result.t, +result.residual, result.iterations)


def solve_w(n, y, ctx: PrecisionContext = DEFAULT_CTX) -> RootResult:
    """Root w(n) of w e^w = n sqrt(y) log y."""
    return lambert_w(_rhs(n, y, ctx)[1], ctx)


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
