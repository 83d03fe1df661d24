"""Gaussian-weight quadrature oracles for f_n(1/y).

Two integral representations are evaluated independently of the series:

    f_n(1/y) = (2 pi log y)^{-1/2} Int exp(-s^2/(2 log y)) (1+sqrt(y) e^{is})^n ds
    f_n(1/y) = (2 pi log y)^{-1/2} Int exp(psi_n(s)) ds        (contour at i r)

plus the plain Gaussian Fourier transform underlying both,

    (2 pi log y)^{-1/2} Int exp(-s^2/(2 log y) + iks) ds = y^{-k^2/2}.

All integrands share the shape  A e^{-s^2/(2L)} e^{i beta s} (1 + c e^{is})^n,
evaluated over uniform grids by multiplicative recurrences (two real, two
complex multiplies per point instead of fresh transcendentals), then summed
with a composite trapezoid rule under step halving.

Working precision is raised per call by the known cancellation budget: the
integrand mass can exceed the result by a factor e^{mass_log - result_log}
(worst at k = 30, where the answer is ~2^-450 against an O(1) integrand),
and flat roundoff must stay below the relative target of the result.

The three integrators share one routine, _integrate, and one domain: an
integer n (k) in [0, QUAD_N_CAP] ([0, FOURIER_K_CAP]; above it: quad-cap),
a finite y > 1 and a finite target_eps > 0.  Integrands take the same n, y
and a finite real s (psi_exp: and r) of magnitude below 2^(working bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

from mpmath import mp, mpc, mpf

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


@dataclass(frozen=True)
class QuadratureResult:
    value: mpf
    truncation_bound: mpf
    step: mpf
    panels: int
    imag_residual: mpf
    last_halving_diff: mpf  # |T_h - T_2h| of the last step halving, scaled as value


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
        val = _row_factory(L, *coefficients(ym, L), n)(as_real(s), 0, 1)[0]
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
    L: float, band: float, mass_log: float, result_log: float, eps: float
) -> Tuple[float, float, int, float]:
    """Grid geometry from the crude mass bound: the half width S, the step
    h0, the extra bits and the log of the Gaussian-tail truncation bound.

    band:       highest Fourier mode of the non-Gaussian factor
    mass_log:   log sup of the integrand modulus
    result_log: log of a lower bound on the result magnitude
    Tail cut: e^{mass_log - S^2/(2L)} <= eps_abs e^-5; alias cut: grid
    Nyquist 2 pi/h beyond band + Gaussian spectral width at eps_abs.
    """
    need = mass_log - (result_log + math.log(eps))
    S = math.sqrt(2 * L * (need + 5))
    h0 = 2 * math.pi / (band + math.sqrt(2 * need / L) + 4)
    extra = max(0, math.ceil((mass_log - result_log) / math.log(2))) + 8
    return S, h0, extra, mass_log - S * S / (2 * L)


def _row_factory(
    L: mpf, amp_log: mpf, beta: mpf, c: mpf, n: int
) -> Callable[[mpf, mpf, int], List[mpc]]:
    """Grid evaluator for A e^{-s^2/(2L)} e^{i beta s} (1 + c e^{is})^n.

    Gaussian and phase factors advance by multiplicative recurrences:
    e^{-(s+h)^2/(2L)} = e^{-s^2/(2L)} * M,  M stepping by e^{-h^2/L}.
    """
    has_phase = beta != 0
    has_power = n != 0 and c != 0

    def row(s0: mpf, h: mpf, count: int) -> List[mpc]:
        G = mp.exp(amp_log - s0 * s0 / (2 * L))
        M = mp.exp(-s0 * h / L - h * h / (2 * L))
        Q = mp.exp(-h * h / L)
        P = mp.expj(beta * s0) if has_phase else mpc(1)
        Pstep = mp.expj(beta * h) if has_phase else mpc(1)
        W = mp.expj(s0)
        Wstep = mp.expj(h)
        out = []
        for _ in range(count):
            v = G * P
            if has_power:
                v = v * (1 + c * W) ** n
            out.append(v)
            G *= M
            M *= Q
            if has_phase:
                P *= Pstep
            W *= Wstep
        return out

    return row


def _trapezoid(
    row: Callable[[mpf, mpf, int], List[mpc]],
    S: mpf,
    h0: float,
    rel_tol: mpf,
) -> Tuple[mpc, mpf, int, mpf]:
    panels = max(int(math.ceil(2 * S / h0)), 8)
    h = 2 * S / panels
    vals = row(-S, h, panels + 1)
    T = h * (mp.fsum(vals) - (vals[0] + vals[-1]) / 2)
    last_diff = mpf("inf")
    for _ in range(MAX_HALVINGS):
        mids = row(-S + h / 2, h, panels)
        Tn = T / 2 + (h / 2) * mp.fsum(mids)
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
    """
    require_n(n, cap=cap, cap_code="quad-cap")
    require_y(y)
    eps = as_real(DEFAULT_TARGET_EPS if target_eps is None else require_eps(target_eps))
    with ctx.prec(_GUARD):
        ym = as_real(y)
        L = mp.log(ym)
        mass_log, result_log, coefficients = setup(ym, L)
    S, h0, extra_bits, trunc_log = _plan(float(L), float(n), mass_log, result_log, float(eps))
    with ctx.prec(_GUARD + extra_bits):
        ym_hi = as_real(y)
        L_hi = mp.log(ym_hi)
        row = _row_factory(L_hi, *coefficients(ym_hi, L_hi), n)
        T, h, panels, diff = _trapezoid(row, mpf(S), h0, eps)
    with ctx.prec(_GUARD):
        norm = mp.sqrt(2 * mp.pi * L)
        value, imag_res, diff = T.real / norm, abs(T.imag) / norm, diff / norm
        bound = mp.exp(mpf(trunc_log))
    with ctx.prec():
        return QuadratureResult(+value, +bound, +h, panels, +imag_res, +diff)


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
