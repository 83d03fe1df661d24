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

theta_3(z, e^-a) is summed directly for a >= pi (for the factor above,
log y <= 2 pi) and by Jacobi's imaginary transformation (Whittaker & Watson
21.51) below, so that it takes a bounded number of terms at any a (_theta);
the factor's z-free part (_nome) is derived once per (y, precision).

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
    require_n,
    require_real,
    require_resolved,
    y_and_log,
    y_memo,
)
from .polyeval import eval_log
from .solvers import _saddle_roots, solve_r

_GUARD = 32

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
    """P_0 ... P_top, where sum_{l>=0} l^nu z^l = P_nu(z)/(1-z)^{nu+1}, 0^0 = 1:
    exact ints, in one pass of P_{m+1} = z(1-z) P_m' + (m+1) z P_m (z d/dz of
    it)."""
    rows = [[1]]
    for m in range(top):
        nxt = [0] * (m + 2)
        for j, c in enumerate(rows[-1]):
            nxt[j] += j * c  # z P'
            nxt[j + 1] += (m + 1 - j) * c  # (m+1) z P - z^2 P'
        rows.append(nxt)
    return rows


def euler_frobenius(nu: int) -> List[int]:
    """Coefficients of P_nu, where sum_{l>=0} l^nu z^l = P_nu(z)/(1-z)^{nu+1},
    taking 0^0 = 1.  For nu >= 1 the l = 0 term is 0, so this is also the
    l >= 1 sum; for nu = 0 it gives P_0 = 1, where the l >= 1 sum would give
    z."""
    _require_order(nu, "nu", lo=0)
    return _euler_frobenius_rows(nu)[-1]


def _b_closed_form(n, x, orders: range, ctx: PrecisionContext) -> List[mpc]:
    """b_nu, nu in orders, by the closed form at x != -1 (else x-out-of-domain)
    rounded to W = ctx.bits + _GUARD bits.  P_m(-x), m = nu - 1, is rounded once:
    where 2^-W m! <= |x| <= 2^W / m! it is summed exactly in ints; outside, -x
    or (-x)^m is within 2^-W of it, as c_1 = c_m = 1 and the c_j sum to m!.
    n, 1+x, its power, nu! and three products add under nu + 8 roundings at W
    bits: each b_nu is within eps of the closed form at x, zeros included.
    At nu = 1 the numerator is -x exactly: P_0 = 1 also counts k = 0."""
    with ctx.prec(_GUARD):
        n_m, xm = as_real(n), as_real(x)
        if xm == -1:
            raise DomainError("x-out-of-domain", "x = -1 is the pole of b_nu")
        sign, man, exp, _ = xm._mpf_  # x = (-1)^sign man 2^exp
        mag = exp + man.bit_length()  # 2^(mag-1) <= |x| < 2^mag
        s, N = max(-exp, 0), (man if sign else -man) << max(exp, 0)  # -x = N 2^-s
        rows, b = _euler_frobenius_rows(orders[-1] - 1), []
        for nu in orders:
            m = nu - 1
            if not m or abs(mag) > mp.prec + math.factorial(m).bit_length() + 1:
                p = -xm if not m or mag < 0 else (-xm) ** m
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
        ym, L = y_and_log(y)
        n_m, r = as_real(n), root.t
        x = mp.sqrt(ym) * mp.exp(-r)
        # x(n) decreases strictly in n and x(1) = 1 identically (the n=1
        # root is exactly (log y)/2), so the hypothesis x < 1 is n >= 2.
        if n_m < 2 or x >= 1:
            raise DomainError(
                "saddle-hypothesis-violated",
                f"sqrt(y) e^(-r) = {mp.nstr(x, 8)} not < 1 at n={n}; "
                "smallest admissible n is 2",
            )
        psi0 = r * r / (2 * L) + n_m * mp.log1p(x)
        a = 1 / (2 * L) + n_m * x / (2 * (1 + x) ** 2)
    with ctx.prec():
        x = +x  # b is within eps of the closed form at the returned x
        b = tuple(_b_closed_form(n, x, range(3, K + 1), ctx))
        return SaddleData(n=n, y=+ym, r=+r, x=x, a=+a, psi0=+psi0, b=b)


def _nome(a: mpf, eps: mpf):
    """_theta's z-free part at the working precision: for a >= pi the powers
    q^{k^2}, k = 1 ... K, q = e^-a; below, (a, the stop ratio, sqrt(pi/a))."""
    if a < mp.pi:
        qd = mp.exp(-mp.pi**2 / a)
        return None, (a, eps * (1 - qd) / (2 * qd), mp.sqrt(mp.pi / a))
    q = mp.exp(-a)
    K, tail = 0, 2 * q / (1 - q)  # bound for the sum from k = K+1 on
    while tail > eps:
        K += 1
        tail = 2 * q ** ((K + 1) ** 2) / (1 - q)
    powers, qp, qodd, q2 = [], mpf(1), q, q * q  # qp = q^{k^2}, qodd = q^{2k-1}
    for _ in range(K):
        qp, qodd = qp * qodd, qodd * q2
        powers.append(qp)
    return tuple(powers), None


def _theta(z: mpf, nome) -> Tuple[mpf, mpf, int]:
    """theta_3(z, e^-a), theta_3 - 1 and the number K of terms summed, at the
    working precision, truncated below eps relative; nome = _nome(a, eps).

    For a >= pi the direct series 1 + 2 sum_{k=1}^K q^{k^2} cos(2kz), q = e^-a,
    with K the least such that 2 q^{(K+1)^2}/(1-q) <= eps: q <= e^-pi gives
    theta_3 >= 1 - 2q/(1-q) > 0.909, so the absolute bound is a relative one.
    For a < pi Jacobi's sqrt(pi/a) sum_k e^{-(z-k pi)^2/a}, positive terms
    walked outward from k0 = nint(z/pi): past its first term each side falls
    by q' = e^{-pi^2/a} < e^-pi or faster, so it stops at a term t with
    2t q'/(1-q') <= eps * sum."""
    powers, dual = nome
    if dual is None:
        total = mpf(0)
        for k, qp in enumerate(powers, 1):
            total += qp * mp.cos(2 * k * z)
        return 1 + 2 * total, 2 * total, len(powers)
    a, stop, scale = dual
    k0 = int(mp.nint(z / mp.pi))
    total, K = mp.exp(-((z - k0 * mp.pi) ** 2) / a), 1
    for step in (1, -1):
        k = k0
        while k == k0 or t > stop * total:  # a first term may equal the k0 one
            k += step
            t = mp.exp(-((z - k * mp.pi) ** 2) / a)
            total, K = total + t, K + 1
    theta = scale * total
    return theta, theta - 1, K


@y_memo
def _y_nome(y, eps: mpf):
    """y, log y and _nome(2 pi^2 / log y, eps) at the active precision."""
    ym, L = y_and_log(y)
    return ym, L, _nome(2 * mp.pi**2 / L, eps)


def theta3(z, q, ctx: PrecisionContext = DEFAULT_CTX) -> Theta3Result:
    """theta_3(z, q) = 1 + 2 sum q^{k^2} cos(2kz), real z and q in [0, 1) once
    rounded to bits + 32 bits, within eps relative; K counts its terms (_theta).

    Near q = 1 theta_3's relative error is ~1/(1-q) times that of a = -log q,
    itself ~2^-P/(1-q) for q rounded to P bits: q is re-rounded, a taken and
    the sum run at a precision raised by 2 log2(1/(1-q)), and z reduced mod
    pi at one raised by log2|z| more."""
    require_resolved(z, "z-out-of-domain", "z", ctx.bits + _GUARD)
    require_real(q, "nome-out-of-domain", "q", above=-math.inf)
    with ctx.prec(_GUARD):
        qm = as_real(q)
        if not (0 <= qm < 1):
            raise DomainError("nome-out-of-domain", "need nome q in [0, 1)")
        extra = _GUARD + 2 * max(0, -mp.mag(1 - qm))
        zmag = max(0, mp.mag(as_real(z)))
    with ctx.prec(extra + zmag):
        zm = as_real(z)
        zm = abs(zm - mp.nint(zm / mp.pi) * mp.pi)
    with ctx.prec(extra):
        theta, _, K = _theta(+zm, _nome(-mp.log(as_real(q)), ctx.eps))
    with ctx.prec():
        return Theta3Result(+theta, K)


def _lambert_form(t: mpf, L: mpf) -> mpf:
    """-log(t)/2 + (t^2+2t)/(2L): the log approximation at root t."""
    return -mp.log(t) / 2 + (t * t + 2 * t) / (2 * L)


def rho(n: int, y, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """The oscillation rho_n(y) = theta_3(pi r/log y, e^{-2 pi^2/log y}) - 1.

    Up to log y = 2 pi it is summed directly (without the leading 1), so
    the tiny value keeps full relative accuracy; satisfies |rho| <=
    2/(e^{2 pi^2/log y} - 1).  Above, it is the dual sum minus 1, within
    eps * max(1, theta_3) absolutely.
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
    command line uses for large-n sweeps.  theta_3 is summed by _theta at
    a = 2 pi^2 / log y: directly up to log y = 2 pi, dually above.
    """
    w_root, r_root = _saddle_roots(n, y, ctx)
    with ctx.prec(_GUARD):
        ym, L, nome = _y_nome(y, ctx.eps)
        w, r = w_root.t, r_root.t
        log_bdm = _lambert_form(w, L)
        log_pref = _lambert_form(r, L)
        theta, osc, _ = _theta(mp.pi * r / L, nome)
    with ctx.prec():
        return ApproxSummary(
            n=n,
            y=+ym,
            w=w,
            r=r,
            log_bdm=+log_bdm,
            log_thm_prefactor=+log_pref,
            theta_factor=+theta,
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
        L = y_and_log(y)[1]
        r, x, a = data.r, data.x, data.a
        ident = 2 * a * L - 1 - r / (1 + x)
        psi0_res = data.psi0 - (r * r + 2 * r) / (2 * L)
        s_form = data.psi0 - mp.log(2 * a * L) / 2
    with ctx.prec():
        return ProofResiduals(+abs(ident), +psi0_res, +s_form)
