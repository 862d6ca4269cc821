import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meandrics.partitions import catalan, enumerate_interval, enumerate_nc
from meandrics.transforms import (
    A,
    B,
    LaurentPoly,
    ONE,
    OrderMismatchError,
    TruncSeries,
    Y,
    ZERO,
    boolean_inverse,
    boolean_transform,
    coefficient,
    compose,
    evaluate,
    free_inverse,
    free_transform,
    last_block_sum,
    one_plus_shift,
    poly_from_json,
    poly_to_json,
    semi_meander_series,
    series_to_json,
    shallow_top_series,
    thin_series,
)

small_polys = st.dictionaries(
    st.tuples(st.integers(-2, 4), st.integers(-2, 4), st.integers(-2, 4)),
    st.integers(-20, 20), max_size=4).map(LaurentPoly)


class TestLaurentPoly:
    def test_arithmetic(self):
        p = ONE + A * B
        q = Y - A
        assert p * q == Y + A * B * Y - A - A * A * B
        assert p - p == ZERO
        assert (p + q) * ONE == p + q
        assert 3 * p == p + p + p

    def test_pow(self):
        assert (A + B) ** 2 == A * A + 2 * A * B + B * B
        assert (Y + ONE) ** 0 == ONE

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=50)
    def test_ring_laws(self, p, q, r):
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    def test_laurent_exponents(self):
        inv_y = LaurentPoly.monomial(1, ey=-1)
        assert (inv_y * Y) == ONE
        assert not inv_y.is_polynomial()
        assert (Y * A * B).is_polynomial()

    def test_exponent_field_bounds(self):
        # exponents are packed in 10-bit fields holding -256..767; outside
        # them packing used to wrap silently (ea=800 read back as -224)
        for e in (-256, 767):
            assert LaurentPoly.monomial(1, ea=e).terms() == [((0, e, 0), 1)]
        with pytest.raises(OverflowError):
            LaurentPoly.monomial(1, ea=800)
        with pytest.raises(OverflowError):
            LaurentPoly({(0, 0, -257): 1})
        with pytest.raises(OverflowError):
            poly_from_json([{"eY": 768, "eA": 0, "eB": 0, "coeff": "1"}])

    def test_substitute_and_evaluate(self):
        p = Y * Y * A + 2 * B
        assert p.substitute(y=1) == A + 2 * B
        assert p.substitute(y=1, a=1, b=1) == LaurentPoly.constant(3)
        assert p.evaluate(2, 3, 5) == 22
        assert p.evaluate(Fraction(1, 2), 4, 0) == 1
        inv_y = LaurentPoly.monomial(3, ey=-1)
        assert inv_y.evaluate(2, 1, 1) == Fraction(3, 2)

    def test_serialization(self):
        p = Y * A - 7 * B
        terms = poly_to_json(p)
        assert terms == [{"eY": 0, "eA": 0, "eB": 1, "coeff": "-7"},
                         {"eY": 1, "eA": 1, "eB": 0, "coeff": "1"}]
        assert poly_from_json(terms) == p
        json.dumps(terms)


class TestTruncSeries:
    def test_mul(self):
        x = TruncSeries.x(5)
        x2 = x * x
        assert x2.coefficient(2) == ONE
        assert all(x2.coefficient(i) == ZERO for i in (1, 3, 4, 5))

    def test_compose_identity(self):
        geo = TruncSeries.from_function(9, lambda n: ONE)   # X/(1-X)
        assert compose(geo, TruncSeries.x(9)) == geo

    def test_compose_geometric_shift(self):
        # (X/(1-X)) o (X/(1-X)) = X/(1-2X)
        geo = TruncSeries.from_function(8, lambda n: ONE)
        out = compose(geo, geo)
        for n in range(1, 9):
            assert out.coefficient(n) == LaurentPoly.constant(2 ** (n - 1))

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            TruncSeries.x(3) * TruncSeries.x(4)

    def test_coefficient_bounds(self):
        s = TruncSeries.x(3)
        with pytest.raises(IndexError):
            s.coefficient(0)
        with pytest.raises(IndexError):
            s.coefficient(4)

    def test_one_plus_shift(self):
        g = TruncSeries.from_function(4, lambda n: LaurentPoly.constant(n))
        w = one_plus_shift(g)
        assert w.coefficient(1) == ONE
        assert w.coefficient(3) == LaurentPoly.constant(2)


def _random_series(order, rng):
    def poly(_):
        return LaurentPoly({(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)):
                            rng.randint(-9, 9) for _ in range(3)})
    return TruncSeries.from_function(order, poly)


class TestTransforms:
    def test_boolean_geometric(self):
        m = boolean_transform(TruncSeries.x(10))
        assert all(m.coefficient(n) == ONE for n in range(1, 11))

    def test_boolean_counts_intervals(self):
        geo = TruncSeries.from_function(10, lambda n: ONE)
        m = boolean_transform(geo)
        for n in range(1, 11):
            want = sum(1 for _ in enumerate_interval(n))
            assert m.coefficient(n) == LaurentPoly.constant(want)

    def test_free_counts_catalan(self):
        geo = TruncSeries.from_function(10, lambda n: ONE)
        m = free_transform(geo)
        for n in range(1, 11):
            assert m.coefficient(n) == LaurentPoly.constant(catalan(n))

    def test_round_trips_exact_order_12(self):
        rng = random.Random(99)
        for _ in range(5):
            s = _random_series(12, rng)
            assert boolean_inverse(boolean_transform(s)) == s
            assert free_inverse(free_transform(s)) == s

    def test_definition_oracle(self):
        rng = random.Random(41)
        order = 8
        s = _random_series(order, rng)
        kappas = {i: s.coefficient(i) for i in range(1, order + 1)}
        mb, mf = boolean_transform(s), free_transform(s)
        for n in range(1, order + 1):
            for series, enum in ((mb, enumerate_interval), (mf, enumerate_nc)):
                total = ZERO
                for p in enum(n):
                    prod = ONE
                    for blk in p.blocks:
                        prod = prod * kappas[len(blk)]
                    total = total + prod
                assert series.coefficient(n) == total


class TestLastBlockSum:
    def test_zero_inner(self):
        assert last_block_sum(TruncSeries.x(8), TruncSeries.zero(8)) == TruncSeries.x(8)

    def test_all_singletons(self):
        out = last_block_sum(TruncSeries.x(8), TruncSeries.x(8))
        assert all(out.coefficient(n) == ONE for n in range(1, 9))

    def test_matches_direct_block_sum_at_order_4(self):
        # manual last-block expansion over NC(n), n <= 4
        from meandrics.transforms import _shallow_top_g, _shallow_top_h
        g, h = _shallow_top_g(4), _shallow_top_h(4)
        out = last_block_sum(h, g)
        for n in range(1, 5):
            total = ZERO
            for p in enumerate_nc(n):
                term = ONE
                for blk in p.blocks:
                    if n - 1 in blk:
                        term = term * h.coefficient(len(blk))
                    else:
                        term = term * g.coefficient(len(blk))
                total = total + term
            assert out.coefficient(n) == total


class TestThinSeries:
    def test_first_coefficient(self):
        m, _ = thin_series(6)
        assert m.coefficient(1) == ONE

    def test_third_coefficient_closed_form(self):
        m, _ = thin_series(6)
        assert m.coefficient(3) == (ONE + A * B + (A + B) * Y) ** 2

    def test_counts_at_ones(self):
        m, _ = thin_series(12)
        for n in range(1, 13):
            assert m.coefficient(n).evaluate(1, 1, 1) == 4 ** (n - 1)

    def test_cumulants(self):
        _, k = thin_series(10)
        kernel = A * B + (A + B) * Y
        for n in range(1, 11):
            assert k.coefficient(n) == kernel ** (n - 1)

    def test_boolean_transform_connects_them(self):
        m, k = thin_series(10)
        assert boolean_transform(k) == m
        assert boolean_inverse(m) == k


class TestShallowTopSeries:
    def test_first_coefficient(self):
        m, _ = shallow_top_series(5)
        assert m.coefficient(1) == ONE

    def test_pair_counts_at_ones(self):
        m, _ = shallow_top_series(8)
        for n in range(1, 9):
            assert m.coefficient(n).evaluate(1, 1, 1) == 2 ** (n - 1) * catalan(n)

    def test_g_specialization(self):
        from meandrics.transforms import _shallow_top_g
        g = _shallow_top_g(8)
        for n in range(1, 9):
            assert g.coefficient(n).evaluate(1, 1, 1) == 2 ** n

    def test_matches_bruteforce_small(self):
        from meandrics.meanders import MeanderClass, generating_coefficient
        m, _ = shallow_top_series(6)
        for n in range(1, 7):
            assert m.coefficient(n) == generating_coefficient(MeanderClass.SHALLOW_TOP, n)

    def test_polynomial_coefficients(self):
        m, k = shallow_top_series(9)
        for n in range(1, 10):
            assert m.coefficient(n).is_polynomial()
            assert k.coefficient(n).is_polynomial()


class TestSemiSeries:
    def test_second_coefficient(self):
        s = semi_meander_series(6)
        assert s.coefficient(2) == Y + A

    def test_counts_at_ones(self):
        s = semi_meander_series(14)
        for n in range(1, 15):
            assert s.coefficient(n).evaluate(1, 1, 1) == 2 ** (n - 1)

    def test_third_coefficient_at_a1(self):
        s = semi_meander_series(6)
        assert s.coefficient(3).substitute(a=1) == 2 * Y + 2 * Y * Y

    def test_matches_bruteforce_small(self):
        from meandrics.meanders import MeanderClass, generating_coefficient
        s = semi_meander_series(8)
        for n in range(1, 9):
            brute = generating_coefficient(MeanderClass.SEMI, n).substitute(b=1)
            assert s.coefficient(n) == brute


class TestCoefficientEvaluate:
    def test_coefficient(self):
        m, _ = thin_series(5)
        assert coefficient(m, 1) == ONE
        with pytest.raises(IndexError):
            coefficient(m, 6)

    def test_evaluate_known_values(self):
        m, _ = thin_series(3)
        assert evaluate(m.coefficient(3), 1, 1, 1) == 16
        s = semi_meander_series(4)
        for y in (1, 2, Fraction(1, 3)):
            assert evaluate(s.coefficient(2), y, 1, 9) == y + 1

    def test_series_json(self):
        doc = series_to_json(semi_meander_series(2))
        assert doc[0] == {"n": 1, "terms": [{"eY": 0, "eA": 0, "eB": 0, "coeff": "1"}]}
        assert {t["coeff"] for t in doc[1]["terms"]} == {"1"}
