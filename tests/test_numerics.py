from fractions import Fraction

import pytest
from mpmath import mp, mpf

from lacunary_asym import (
    PrecisionContext,
    as_real,
)
from lacunary_asym.numerics import GUARD_BITS


class TestPrecisionContext:
    def test_defaults(self):
        ctx = PrecisionContext()
        assert ctx.bits == 128
        assert GUARD_BITS == 16

    def test_eps_is_two_to_guard_minus_bits(self):
        assert PrecisionContext(bits=128).eps == mpf(2) ** -112
        assert PrecisionContext(bits=53).eps == mpf(2) ** -37

    def test_eps_is_built_once_and_exact(self):
        ctx = PrecisionContext(bits=400)
        with mp.workprec(53):
            eps = ctx.eps
        assert ctx.eps is eps and eps == mpf(2) ** -384

    def test_rejects_low_bits(self):
        with pytest.raises(ValueError):
            PrecisionContext(bits=52)

    def test_prec_scopes_working_precision(self):
        ctx = PrecisionContext(bits=100)
        before = mp.prec
        with ctx.prec(20):
            assert mp.prec == 120
        assert mp.prec == before


class TestAsReal:
    def test_fraction_roundtrip(self, ctx):
        with ctx.prec():
            v = as_real(Fraction(1, 3))
            assert abs(v - mpf(1) / 3) == 0

    def test_string_and_int(self, ctx):
        with ctx.prec():
            assert as_real("1.5") == mpf("1.5")
            assert as_real(7) == 7

