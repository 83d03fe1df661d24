"""Saddle-point data and the two asymptotic approximations for f_n(1/y).

The saddle parameter r = r(n) solves t(e^t + sqrt(y)) = n sqrt(y) log y.
Around the saddle the integrand exponent has the Taylor data

    psi0 = r^2/(2 log y) + n log(1 + x),          x = sqrt(y) e^{-r},
    a    = 1/(2 log y) + n x / (2 (1+x)^2),
    b_nu = (-n i^nu / nu!) sum_{k>=1} k^{nu-1} (-x)^k,   nu >= 3,

which defines b_nu.  Its value is the Euler-Frobenius closed form, with
P_{nu-1}(-x) summed exactly: b_nu = (-n i^nu / nu!) P_{nu-1}(-x) / (1+x)^nu.

The two approximations compared throughout: a Lambert-W form built from
w(n) (root of t e^t = n sqrt(y) log y) and the refined form built from
r(n) whose bounded oscillation is the Jacobi theta_3 factor

    theta_3(pi r / log y, e^{-2 pi^2 / log y}).

Everything here assumes x < 1, which holds exactly when n >= 2: at n = 1
the root is r = (log y)/2 for every y > 1, giving x = 1 on the nose.
Root-only functions take the solvers' real n > 0; approx_theorem also
evaluates f_n, so it needs an integer n >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from mpmath import mp, mpc, mpf

from .numerics import (
    DEFAULT_CTX,
    DomainError,
    LogValue,
    PrecisionContext,
    as_real,
    require_eps,
    require_n,
    require_real,
    require_resolved,
    require_y,
)
from .polyeval import eval_log
from .solvers import _saddle_roots, solve_r

_GUARD = 32

# Most terms the theta_3 sum may be predicted to take: its work budget, ~0.25 s
# at 128 bits and ~0.9 s at 1024 on a 2-vCPU x86-64 box.  The work grows like
# (1-q)^-1/2 as q -> 1: 98,359 terms and 2.8 s at q = 1 - 1e-8.  The nome of
# approximation_summary reaches the cap at y ~ 10^(1.2e6) at 1024 bits.
THETA_TERMS_CAP = 10_000

# Highest order K of saddle_data's b_K and nu of euler_frobenius and
# b_closed_form: saddle_data(10, 2, K=800) took 3.0 s and euler_frobenius(2000)
# 7.8 s.  At the cap saddle_data(2, 2, K=64) takes 5-7 ms at 128 bits and
# 56-95 ms at 1024, on a shared 2-vCPU x86-64 box.
ORDER_CAP = 64

@dataclass(frozen=True)
class SaddleData:
    n: int
    y: mpf
    r: mpf
    x: mpf
    a: mpf
    psi0: mpf
    b: Tuple[mpc, ...]  # b_3 ... b_K


@dataclass(frozen=True)
class Theta3Result:
    value: mpf
    K: int


@dataclass(frozen=True)
class ApproxSummary:
    """Both approximations' ingredients, no exact evaluation involved."""

    n: int
    y: mpf
    w: mpf
    r: mpf
    log_bdm: mpf
    log_thm_prefactor: mpf
    theta_factor: mpf
    rho: mpf


@dataclass(frozen=True)
class ApproxRecord(ApproxSummary):
    """The summary plus the evaluated log f_n and both ratios."""

    log_exact: LogValue
    ratio_bdm: mpf
    ratio_thm: mpf


@dataclass(frozen=True)
class ProofResiduals:
    prefactor_identity_err: mpf
    psi0_residual: mpf
    s_form_log: mpf


def _require_order(order, name: str, lo: int) -> int:
    """An integer order (K or nu) in [lo, ORDER_CAP], else DomainError coded
    <name>-out-of-domain, or order-cap-exceeded above the cap."""
    cap_code, code = "order-cap-exceeded", f"{name}-out-of-domain"
    return require_n(order, lo=lo, cap=ORDER_CAP, cap_code=cap_code, code=code, name=name)


def _euler_frobenius_rows(top: int) -> List[List[int]]:
    """P_0 ... P_top, where sum_{l>=1} l^nu z^l = P_nu(z)/(1-z)^{nu+1}: exact
    ints, in one pass of P_{m+1} = z(1-z) P_m' + (m+1) z P_m (z d/dz of it)."""
    rows = [[1]]
    for m in range(top):
        nxt = [0] * (m + 2)
        for j, c in enumerate(rows[-1]):
            nxt[j] += j * c  # z P'
            nxt[j + 1] += (m + 1 - j) * c  # (m+1) z P - z^2 P'
        rows.append(nxt)
    return rows


def euler_frobenius(nu: int) -> List[int]:
    """Coefficients of P_nu, where sum_{l>=1} l^nu z^l = P_nu(z)/(1-z)^{nu+1}."""
    _require_order(nu, "nu", lo=0)
    return _euler_frobenius_rows(nu)[-1]


def _b_closed_form(n, x, orders: range, ctx: PrecisionContext) -> List[mpc]:
    """b_nu, nu in orders, by the closed form at x != -1 (else x-out-of-domain)
    rounded to W = ctx.bits + _GUARD bits.  P_m(-x), m = nu - 1, is rounded once:
    where 2^-W m! <= |x| <= 2^W / m! it is summed exactly in ints; outside, -x
    or (-x)^m is within 2^-W of it, as c_1 = c_m = 1 and the c_j sum to m!.
    n, 1+x, its power, nu! and three products add under nu + 8 roundings at W
    bits: each b_nu is within eps of the closed form at x, zeros included."""
    with ctx.prec(_GUARD):
        n_m, xm = as_real(n), as_real(x)
        if xm == -1:
            raise DomainError("x-out-of-domain", "x = -1 is the pole of b_nu")
        man, exp = xm.man_exp
        mag = exp + abs(man).bit_length()  # 2^(mag-1) <= |x| < 2^mag
        s, N = max(-exp, 0), -man << max(exp, 0)  # -x = N 2^-s
        rows, b = _euler_frobenius_rows(orders[-1] - 1), []
        for nu in orders:
            m = nu - 1
            if m and abs(mag) > mp.prec + math.factorial(m).bit_length() + 1:
                p = -xm if mag < 0 else (-xm) ** m
            else:
                acc = 0
                for j, c in enumerate(reversed(rows[m])):  # 2^(s m) P_m(-x), Horner
                    acc = acc * N + (c << s * j)
                p = mpf((acc, -s * m))
            b.append(mp.j**nu * -n_m * p / (mp.factorial(nu) * (1 + xm) ** nu))
    with ctx.prec():
        return [mpc(+bv.real, +bv.imag) for bv in b]


def b_closed_form(n_m: mpf, x: mpf, nu: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """b_nu within eps, relative, of its closed form at x rounded to ctx.bits
    + 32 bits, zeros of b_nu included (_b_closed_form); real n_m, x != -1."""
    require_real(n_m, "n-out-of-domain", "n", above=-math.inf)
    require_real(x, "x-out-of-domain", "x", above=-math.inf)
    _require_order(nu, "nu", lo=1)
    return _b_closed_form(n_m, x, range(nu, nu + 1), ctx)[0]


def saddle_data(
    n: int, y, K: int = 8, ctx: PrecisionContext = DEFAULT_CTX
) -> SaddleData:
    """Saddle root, Taylor data psi0 and a, and coefficients b_3..b_K."""
    _require_order(K, "K", lo=3)
    root = solve_r(n, y, ctx)
    with ctx.prec(_GUARD):
        ym = as_real(y)
        L = mp.log(ym)
        r = root.t
        x = mp.sqrt(ym) * mp.exp(-r)
        # x(n) decreases strictly in n and x(1) = 1 identically (the n=1
        # root is exactly (log y)/2), so the hypothesis x < 1 is n >= 2.
        if n < 2 or x >= 1:
            raise DomainError(
                "saddle-hypothesis-violated",
                f"sqrt(y) e^(-r) = {mp.nstr(x, 8)} not < 1 at n={n}; "
                "smallest admissible n is 2",
            )
        psi0 = r * r / (2 * L) + n * mp.log1p(x)
        a = 1 / (2 * L) + n * x / (2 * (1 + x) ** 2)
    with ctx.prec():
        x = +x  # b is within eps of the closed form at the returned x
        b = tuple(_b_closed_form(n, x, range(3, K + 1), ctx))
        return SaddleData(n=n, y=+ym, r=+r, x=x, a=+a, psi0=+psi0, b=b)


def _price_theta(q: mpf, eps: mpf) -> None:
    """Refuse a theta_3 sum at nome q and tolerance eps whose order K, the
    least with (K+1)^2 >= log(eps (1-q)/2) / log q, is above
    THETA_TERMS_CAP (theta-terms-exceeded).  The price is taken in floats,
    or in mpf where a float underflows or q rounds to 0 or 1."""
    try:
        need = math.log(eps * (1 - q) / 2) / math.log(q)
    except (ValueError, ZeroDivisionError):
        need = mp.log(eps * (1 - q) / 2) / mp.log(q)  # 0 at q = 0
    if need > (THETA_TERMS_CAP + 1) ** 2:
        raise DomainError(
            "theta-terms-exceeded",
            f"nome 1 - {mp.nstr(1 - q, 3)} needs ~{mp.nstr(mp.sqrt(need), 3)} terms, "
            f"above the cap {THETA_TERMS_CAP}",
        )


def _theta_oscillation(z: mpf, q: mpf, eps: mpf) -> Tuple[mpf, int]:
    """2 sum_{k=1}^K q^{k^2} cos(2kz) with 2 q^{(K+1)^2}/(1-q) <= eps.

    The loop finds K exactly; callers price it first (_price_theta)."""
    K = 0
    tail = 2 * q / (1 - q)  # bound for the sum from k = K+1 on
    while tail > eps:
        K += 1
        tail = 2 * q ** ((K + 1) ** 2) / (1 - q)
    total = mpf(0)
    qp = mpf(1)  # q^{k^2}
    qodd = q  # q^{2k-1}
    q2 = q * q
    for k in range(1, K + 1):
        qp *= qodd
        qodd *= q2
        total += qp * mp.cos(2 * k * z)
    return 2 * total, K


def theta3(z, q, eps=None, ctx: PrecisionContext = DEFAULT_CTX) -> Theta3Result:
    """theta_3(z, q) = 1 + 2 sum q^{k^2} cos(2kz), real z and q in [0, 1), truncated below eps."""
    require_resolved(z, "z-out-of-domain", "z", ctx.bits + _GUARD)
    require_real(q, "nome-out-of-domain", "q", above=-math.inf)
    with ctx.prec(_GUARD):
        zm = as_real(z)
        qm = as_real(q)
        if not (0 <= qm < 1):
            raise DomainError("nome-out-of-domain", "need nome q in [0, 1)")
        epsm = ctx.eps if eps is None else as_real(require_eps(eps))
        _price_theta(qm, epsm)
        osc, K = _theta_oscillation(zm, qm, epsm)
    with ctx.prec():
        return Theta3Result(+(1 + osc), K)


def _lambert_form(t: mpf, L: mpf) -> mpf:
    """-log(t)/2 + (t^2+2t)/(2L): the log approximation at root t."""
    return -mp.log(t) / 2 + (t * t + 2 * t) / (2 * L)


def rho(n: int, y, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """The oscillation rho_n(y) = theta_3(pi r/log y, e^{-2 pi^2/log y}) - 1.

    Summed directly (without the leading 1) so the tiny value keeps full
    relative accuracy; satisfies |rho| <= 2/(e^{2 pi^2/log y} - 1).
    """
    return approximation_summary(n, y, ctx).rho


def approx_bdm(n: int, y, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """log of the Lambert-W approximation: -log(w)/2 + (w^2+2w)/(2 log y)."""
    return approximation_summary(n, y, ctx).log_bdm


def approximation_summary(
    n: int, y, ctx: PrecisionContext = DEFAULT_CTX
) -> ApproxSummary:
    """Roots, approximation logs, and theta factor, skipping evaluation.

    Cheap at any n (the k-sum of f_n is never touched), which is what the
    command line uses for large-n sweeps.  The theta order depends on y
    alone, so it is priced before the roots are solved.
    """
    require_real(n, "n-out-of-domain", "n")
    require_y(y)
    with ctx.prec(_GUARD):
        ym = as_real(y)
        L = mp.log(ym)
        q = mp.exp(-2 * mp.pi**2 / L)
        _price_theta(q, ctx.eps)
    w_root, r_root = _saddle_roots(n, y, ctx)
    with ctx.prec(_GUARD):
        w, r = w_root.t, r_root.t
        log_bdm = _lambert_form(w, L)
        log_pref = _lambert_form(r, L)
        z = mp.pi * r / L
        osc, K = _theta_oscillation(z, q, ctx.eps)
        # The sum is absolutely accurate only: its tail is below eps, and at
        # the computed z, with u = 2^-prec, q^(k^2) carries k^2 roundings,
        # cos(2kz) 1 + 2kz, and the K additions K each: below 8 K^2 (K+z+1) u.
        err = ctx.eps + mp.ldexp(8 * K * K * (K + z + 1), -mp.prec)
        if not 1 + osc > err:
            raise DomainError(
                "theta-unresolved",
                f"theta_3 = {mp.nstr(1 + osc, 3)} is not above its error bound {mp.nstr(err, 3)}",
            )
    with ctx.prec():
        return ApproxSummary(
            n=n,
            y=+ym,
            w=w,
            r=r,
            log_bdm=+log_bdm,
            log_thm_prefactor=+log_pref,
            theta_factor=+(1 + osc),
            rho=+osc,
        )


def approx_theorem(
    n: int,
    y,
    ctx: PrecisionContext = DEFAULT_CTX,
    truncate: bool = True,
) -> ApproxRecord:
    """Both approximations against the evaluated log f_n(1/y), as one record.

    ratio_bdm and ratio_thm are the respective ratios f_n / approximation;
    the theorem ratio divides out the theta_3 factor as well.  ``truncate``
    is forwarded to eval_log (full summation is the slow cross-check mode).
    """
    s = approximation_summary(n, y, ctx)
    log_exact, _ = eval_log(n, y, ctx, truncate=truncate)
    with ctx.prec(_GUARD):
        lf = log_exact.log_magnitude
        ratio_bdm = mp.exp(lf - s.log_bdm)
        ratio_thm = mp.exp(lf - s.log_thm_prefactor - mp.log(s.theta_factor))
    with ctx.prec():
        return ApproxRecord(
            **vars(s), log_exact=log_exact, ratio_bdm=+ratio_bdm, ratio_thm=+ratio_thm
        )


def proof_residuals(n: int, y, ctx: PrecisionContext = DEFAULT_CTX) -> ProofResiduals:
    """Residuals of the closing identities behind the refined approximation.

    prefactor_identity_err: |2 a log y - 1 - r/(1+x)|, an exact algebraic
    consequence of the saddle equation, so it must sit at rounding level.
    psi0_residual: psi0 - (r^2+2r)/(2 log y), the quantity replaced in the
    final form (decays like log^2 n / n).
    s_form_log: psi0 - log(2 a log y)/2, the log of the Gaussian-step
    prefactor before the replacement.
    """
    data = saddle_data(n, y, K=3, ctx=ctx)
    with ctx.prec(_GUARD):
        L = mp.log(data.y)
        r, x, a = data.r, data.x, data.a
        ident = 2 * a * L - 1 - r / (1 + x)
        psi0_res = data.psi0 - (r * r + 2 * r) / (2 * L)
        s_form = data.psi0 - mp.log(2 * a * L) / 2
    with ctx.prec():
        return ProofResiduals(+abs(ident), +psi0_res, +s_form)
