"""The memos of y's constants (numerics.y_memo) change no value and no code.

Each memo keeps, per (type(y), y, precision), what depends on y and the
precision alone.  A call that meets a filled memo must return what a call
that meets empty ones returns, bit for bit; a refused y is refused on every
call; and no memo grows past Y_MEMO_SIZE entries.
"""

from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from lacunary_asym import (
    DomainError,
    PrecisionContext,
    approx_theorem,
    approximation_summary,
    eval_log,
    integrate_original,
    residual_relations,
)
from lacunary_asym import solvers as sv
from lacunary_asym.numerics import Y_MEMO_SIZE, Y_MEMOS

# the y types of the boundary table's answered rows
Y_TYPES = [3, 2.5, Fraction(3, 2), Decimal("1.5"), "1.25", "7/4", mpf(2), mp.e]

CALLS = {
    "eval_log": lambda y, ctx: eval_log(5, y, ctx),
    "_saddle_roots": lambda y, ctx: sv._saddle_roots(5, y, ctx),
    "approximation_summary": lambda y, ctx: approximation_summary(5, y, ctx),
    "approx_theorem": lambda y, ctx: approx_theorem(5, y, ctx),
    "integrate_original": lambda y, ctx: integrate_original(5, y, ctx),
}


def clear_memos():
    for memo in Y_MEMOS:
        memo.cache_clear()


def exact_repr(value) -> str:
    """repr with enough digits to tell apart any two 1024-bit values."""
    with mp.workprec(4000):
        return repr(value)


def code_of(call, y, ctx) -> str:
    try:
        call(y, ctx)
    except DomainError as exc:
        return exc.code
    return "ok"


@pytest.mark.parametrize("bits", [53, 128, 400])
@pytest.mark.parametrize("name", list(CALLS))
def test_a_cold_call_equals_a_warm_one(name, bits):
    ctx, call = PrecisionContext(bits), CALLS[name]
    for y in Y_TYPES:
        clear_memos()
        cold = exact_repr(call(y, ctx))
        assert exact_repr(call(y, ctx)) == cold, (name, y)
    # and warm after every reader has filled the memos at every precision
    for y in Y_TYPES:
        for other in CALLS.values():
            for other_bits in (53, 128, 400):
                other(y, PrecisionContext(other_bits))
    for y in Y_TYPES:
        warm = exact_repr(call(y, ctx))
        clear_memos()
        assert exact_repr(call(y, ctx)) == warm, (name, y)


@pytest.mark.parametrize(
    "y, bits, call, code",
    [
        # rounds to 1 at the solvers' 77 bits, which the walk accepts first
        ("1." + "0" * 42 + "1", 53, CALLS["_saddle_roots"], "y-out-of-domain"),
        ("1." + "0" * 42 + "1", 53, CALLS["approximation_summary"], "y-out-of-domain"),
        ("1e1000000000", 128, CALLS["integrate_original"], "quad-work-exceeded"),
        (Decimal("sNaN"), 128, CALLS["eval_log"], "y-out-of-domain"),
        ("x", 128, CALLS["_saddle_roots"], "y-out-of-domain"),
    ],
)
def test_a_refused_y_is_refused_again(y, bits, call, code):
    ctx = PrecisionContext(bits)
    clear_memos()
    assert code_of(CALLS["eval_log"], y, ctx) in ("ok", code)
    assert code_of(call, y, ctx) == code
    assert code_of(call, y, ctx) == code


@pytest.mark.usefixtures("time_limit")
def test_a_decimal_is_never_compared_with_an_equal_fraction():
    # Decimal("1e1200000") == Fraction(10**1200000) builds the 1.2M-digit int
    # (25 s); the type, first in every key, keeps them apart
    clear_memos()
    by_fraction = residual_relations(10, Fraction(10**1200000))
    by_decimal = residual_relations(10, Decimal("1e1200000"))
    assert exact_repr(by_decimal) == exact_repr(by_fraction)


def test_every_memo_is_bounded():
    clear_memos()
    ctx = PrecisionContext(53)
    for k in range(10 * Y_MEMO_SIZE):
        approx_theorem(5, Fraction(3 + k, 2), ctx)
    sizes = [memo.cache_info().currsize for memo in Y_MEMOS]
    assert len(sizes) == 4
    assert sizes == [Y_MEMO_SIZE] * len(sizes)
