import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meandrics import transforms
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
    compose,
    free_inverse,
    free_transform,
    last_block_sum,
    one_plus_shift,
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
        # exponents used to be packed in 10-bit fields holding -256..767;
        # they are int64 rows now and round-trip exactly well outside that
        assert LaurentPoly.monomial(1, ea=800).terms() == [((0, 800, 0), 1)]
        assert LaurentPoly({(0, 0, -257): 1}).terms() == [((0, 0, -257), 1)]
        assert LaurentPoly({(768, 0, 0): 1}).terms() == [((768, 0, 0), 1)]
        # beyond |e| < 2**20 a flat box index could wrap: raise instead
        bound = 1 << 20
        LaurentPoly.monomial(1, ey=bound - 1, eb=1 - bound)
        with pytest.raises(OverflowError):
            LaurentPoly.monomial(1, ea=bound)
        with pytest.raises(OverflowError):
            LaurentPoly({(0, 0, -bound): 1})
        with pytest.raises(OverflowError):
            LaurentPoly.monomial(1, ey=bound // 2) ** 2

    def test_product_has_no_carry(self):
        # packed keys used to carry between fields: this read back as Y A^-24
        assert (LaurentPoly.monomial(1, ea=500) ** 2).terms() == [((0, 1000, 0), 1)]

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


def _sparse_series(order, rng):
    # about a third of the coefficients are zero, so the zero skips run
    def poly(_):
        if rng.random() < 1 / 3:
            return ZERO
        return LaurentPoly({(rng.randint(-1, 3), rng.randint(0, 3), rng.randint(0, 3)):
                            rng.randint(-9, 9) for _ in range(3)})
    return TruncSeries.from_function(order, poly)


def _product(p, q):
    """[X^n] of P Q for n = 0..len(p) - 1, from coefficient lists p, q."""
    return [sum((p[i] * q[n - i] for i in range(n + 1)), ZERO) for n in range(len(p))]


class TestRandomSeries:
    @pytest.mark.parametrize("seed", range(10))
    def test_mul_is_the_truncated_product(self, seed):
        rng = random.Random(seed)
        order = 1 + seed
        a, b = _sparse_series(order, rng), _sparse_series(order, rng)
        want = _product([ZERO, *a.coefficients()], [ZERO, *b.coefficients()])
        assert (a * b).coefficients() == tuple(want[1:])

    @pytest.mark.parametrize("seed", range(10))
    def test_compose_is_the_sum_of_scaled_powers(self, seed):
        # outer(inner) = sum_s c_s inner^s, each power a truncated product
        rng = random.Random(100 + seed)
        order = 1 + seed
        outer, inner = _sparse_series(order, rng), _sparse_series(order, rng)
        c, p = [ZERO, *outer.coefficients()], [ZERO, *inner.coefficients()]
        want, power = [ZERO] * (order + 1), p
        for s in range(1, order + 1):
            want = [w + c[s] * x for w, x in zip(want, power)]
            power = _product(power, p)
        assert compose(outer, inner).coefficients() == tuple(want[1:])


class TestPowerColumns:
    @pytest.mark.parametrize("seed", range(5))
    def test_a_column_reads_no_coefficient_past_its_own(self, seed):
        # free_transform sets p[i + 1] only after it takes column i; a
        # read of a coefficient not yet set fails on its None
        rng = random.Random(200 + seed)
        order = 1 + 2 * seed
        whole = [ZERO, *_sparse_series(order, rng).coefficients()]
        *_, want = transforms._power_columns(whole, order)
        ahead = whole[:2] + [None] * (order - 1)
        for i, got in enumerate(transforms._power_columns(ahead, order), 1):
            if i < order:
                ahead[i + 1] = whole[i + 1]
        assert got == want

    def test_product_counts_are_pinned(self, monkeypatch):
        # the LaurentPoly products each builder makes, so that a rewrite
        # of how the powers are built cannot change the work unnoticed
        calls = 0
        real = LaurentPoly.__mul__

        def counted(self, other):
            nonlocal calls
            calls += 1
            return real(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
        s = _random_series(12, random.Random(7))
        for build, args, want in ((thin_series, (40,), 78), (free_transform, (s,), 364),
                                  (free_inverse, (s,), 352), (compose, (s, s), 364)):
            calls = 0
            build(*args)
            assert calls == want, build.__name__


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
        assert m.coefficient(1) == ONE
        with pytest.raises(IndexError):
            m.coefficient(6)

    def test_evaluate_known_values(self):
        m, _ = thin_series(3)
        assert m.coefficient(3).evaluate(1, 1, 1) == 16
        s = semi_meander_series(4)
        for y in (1, 2, Fraction(1, 3)):
            assert s.coefficient(2).evaluate(y, 1, 9) == y + 1

    def test_series_json(self):
        doc = series_to_json(semi_meander_series(2))
        assert doc[0] == {"n": 1, "terms": [{"eY": 0, "eA": 0, "eB": 0, "coeff": "1"}]}
        assert {t["coeff"] for t in doc[1]["terms"]} == {"1"}


# ---------------------------------------------------------------------------
# The coefficient-array kernel pinned against the dict-of-terms kernel
# ---------------------------------------------------------------------------

class DictPoly:
    """Reference kernel: a dict from exponent triples to Python-int
    coefficients, multiplied one term pair at a time (LaurentPoly's
    product and sum before the coefficient arrays, minus the packing)."""

    def __init__(self, terms=None):
        self.d = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def monomial(cls, coeff, ey=0, ea=0, eb=0):
        return cls({(ey, ea, eb): coeff})

    @classmethod
    def constant(cls, c):
        return cls.monomial(c)

    def terms(self):
        return sorted(self.d.items())

    def is_zero(self):
        return not self.d

    def is_polynomial(self):
        return all(e >= 0 for k in self.d for e in k)

    def __add__(self, other):
        out = dict(self.d)
        for k, c in other.d.items():
            out[k] = out.get(k, 0) + c
        return DictPoly(out)

    def __neg__(self):
        return DictPoly({k: -c for k, c in self.d.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return DictPoly({k: c * other for k, c in self.d.items()})
        out = {}
        for (y1, a1, b1), c1 in self.d.items():
            for (y2, a2, b2), c2 in other.d.items():
                k = (y1 + y2, a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return DictPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        out = DictPoly.constant(1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        return self.d == other.d

    def substitute(self, y=None, a=None, b=None):
        out = {}
        for (ey, ea, eb), c in self.d.items():
            for v, e in ((y, ey), (a, ea), (b, eb)):
                if v is not None:
                    c *= Fraction(v) ** e
            k = (0 if y is not None else ey, 0 if a is not None else ea,
                 0 if b is not None else eb)
            out[k] = out.get(k, 0) + c
        return DictPoly(out)

    def evaluate(self, yv, av, bv):
        total = sum(Fraction(c) * Fraction(yv) ** ey * Fraction(av) ** ea
                    * Fraction(bv) ** eb for (ey, ea, eb), c in self.d.items())
        return int(total) if total.denominator == 1 else total


_BIG = 1 << 70
_coeffs = st.one_of(
    st.integers(-9, 9), st.integers(-_BIG, _BIG),
    st.sampled_from([(1 << 63) - 1, -(1 << 63) + 1, 1 << 63, -(1 << 63), 1 << 62, 3 << 61]))
_wide = st.integers(-3, 40)
_narrow = st.integers(-1, 2)     # a dense bounding box: the scatter path
poly_terms = st.one_of(
    st.dictionaries(st.tuples(_wide, _wide, _wide), _coeffs, max_size=12),
    st.dictionaries(st.tuples(_narrow, _narrow, _narrow), _coeffs, max_size=12))


def _pair(terms):
    return LaurentPoly(terms), DictPoly(terms)


class TestAgainstDictKernel:
    @given(poly_terms, poly_terms)
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, d1, d2):
        (p, rp), (q, rq) = _pair(d1), _pair(d2)
        assert p.terms() == rp.terms()
        assert (p * q).terms() == (rp * rq).terms()
        assert (p + q).terms() == (rp + rq).terms()
        assert (p - q).terms() == (rp - rq).terms()
        assert (p - p).is_zero()
        for k in (-(1 << 40), -3, 7, 1 << 62):
            assert (p * k).terms() == (rp * k).terms()
            assert (k * q).terms() == (k * rq).terms()
        assert (p == q) == (rp == rq)
        if p == q:
            assert hash(p) == hash(q)
        rebuilt = LaurentPoly(dict(reversed(list(d1.items()))))
        assert p == rebuilt and hash(p) == hash(rebuilt)
        assert p * q == q * p and hash(p * q) == hash(q * p)
        assert p.is_polynomial() == rp.is_polynomial()

    @given(st.dictionaries(
        st.tuples(st.integers(-3, 40), st.integers(-3, 40), st.integers(-3, 40)),
        st.integers(-_BIG, _BIG), max_size=5), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_powers(self, d, e):
        p, rp = _pair(d)
        assert (p ** e).terms() == (rp ** e).terms()

    @given(poly_terms, st.sampled_from([None, 1, -1, 2, -3]),
           st.sampled_from([None, 1, -1, 2]), st.sampled_from([None, 1, -1]),
           st.sampled_from([1, -2, Fraction(1, 3)]))
    @settings(max_examples=100, deadline=None)
    def test_substitute_and_evaluate(self, d, y, a, b, v):
        p, rp = _pair(d)
        assert p.substitute(y=y, a=a, b=b).terms() == rp.substitute(y=y, a=a, b=b).terms()
        assert p.evaluate(v, 2, -1) == rp.evaluate(v, 2, -1)

    def test_int64_operands_with_a_product_bound_past_2_63(self):
        # ||p||_1 ||q||_1 = 2**64 forces the object path although every
        # operand and the product itself fit int64
        d1 = {(0, 0, 0): 1 << 31, (1, 0, 0): 1 << 31}
        d2 = {(0, 0, 0): 1 << 31, (1, 0, 0): -(1 << 31)}
        (p, rp), (q, rq) = _pair(d1), _pair(d2)
        assert p._coeffs.dtype == np.int64 and q._coeffs.dtype == np.int64
        assert (p * q).terms() == (rp * rq).terms() == [
            ((0, 0, 0), 1 << 62), ((2, 0, 0), -(1 << 62))]
        assert (p * q)._coeffs.dtype == np.int64     # back to int64: it fits
        # a product that really leaves int64
        assert (p * p).terms() == (rp * rp).terms() == [
            ((0, 0, 0), 1 << 62), ((1, 0, 0), 1 << 63), ((2, 0, 0), 1 << 62)]
        assert (p * p)._coeffs.dtype == object
        # and a sum
        big = LaurentPoly({(0, 0, 0): 3 << 61})
        assert (big + big).terms() == [((0, 0, 0), 3 << 62)]

    @pytest.mark.parametrize("build", [
        lambda n: thin_series(n)[0], lambda n: thin_series(n)[1],
        lambda n: shallow_top_series(n)[0], lambda n: shallow_top_series(n)[1],
        semi_meander_series],
        ids=["thin-M", "thin-K", "shallow-top-M", "shallow-top-K", "semi"])
    def test_series_match_the_dict_kernel(self, monkeypatch, build):
        want = {}
        with monkeypatch.context() as m:
            for name, poly in (("_ZERO", ZERO), ("_ONE", ONE), ("Y", Y), ("A", A), ("B", B),
                               ("_THIN_KERNEL", A * B + (A + B) * Y),
                               ("_THIN_KERNEL1", ONE + A * B + (A + B) * Y)):
                m.setattr(transforms, name, DictPoly(dict(poly.terms())))
            m.setattr(transforms, "LaurentPoly", DictPoly)
            for order in (1, 2, 5, 10):
                coeffs = build(order).coefficients()
                assert all(isinstance(c, DictPoly) for c in coeffs)
                want[order] = [c.terms() for c in coeffs]
        for order, terms in want.items():
            assert [c.terms() for c in build(order).coefficients()] == terms
