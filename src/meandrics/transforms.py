"""Truncated power series over exact Laurent polynomials in (Y, A, B).

The series engine backs the closed-form generating functions for the
meandric-system classes: the boolean transform K -> M = K / (1 - K), the
free transform defined by the implicit relation M(X) = K(X (1 + M(X))),
and the last-block composition identity used to assemble the shallow-top
cumulant series.  Everything is exact integer (or Fraction) arithmetic;
no floating point enters this module.

A :class:`LaurentPoly` is two parallel numpy arrays: the exponent rows
(eY, eA, eB) of its nonzero terms in lexicographic order, and their
coefficients.  A product adds every pair of exponent rows and multiplies
every pair of coefficients in one vectorised step, then sums the
coefficients of equal rows; a sum does the same with the two operands'
terms side by side.  Coefficients are int64 only while a bound in Python
ints proves that no partial sum can wrap (||p||_1 ||q||_1 < 2**63 for a
product, max|p| + max|q| < 2**63 for a sum); otherwise they are object
arrays of Python ints, which never overflow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

# int64 coefficients hold |c| < 2**63 only (never -2**63, so negation and
# abs cannot wrap).  Exponents satisfy |e| < 2**20, so a product's exponent
# sums cannot wrap and the flat index of its bounding box (each side
# < 2**21) fits an int64; an exponent outside that range raises
# OverflowError.
_INT64_BOUND = 1 << 63
_EXP_BOUND = 1 << 20
# A reduction scatters into the dense bounding box when it has at most
# this many cells per coefficient being summed; sparser keys are sorted.
# The scatter costs O(cells) and the sort O(n log n) in the n summands.
# Measured on outer-sum keys of 256 to 65,536 summands (2 cores, numpy
# 2.4.6), the scatter is faster at up to 8 cells per summand and the sort
# from 16 on; a wide box (up to 2**63 cells) fits in memory only sorted.
# Reductions that scatter: 99 % of 8,252 in `series shallow-top 22`, 62 %
# of 78 in `series thin 40`, 40 % of 22,520 in `verify all`.
_DENSE_CELLS = 8


def _coefficients(values) -> np.ndarray:
    """The canonical coefficient array of values: int64 when each one is
    an integer of magnitude below 2**63, an object array otherwise."""
    obj = np.array(values, dtype=object)
    try:
        fixed = obj.astype(np.int64)
    except OverflowError:
        return obj
    if (fixed == obj).all() and (fixed != -_INT64_BOUND).all():
        return fixed
    return obj


class _Stats(NamedTuple):
    lo: np.ndarray          # per-variable minimum and maximum exponent
    hi: np.ndarray
    abs_max: int | None     # max |c| and ||c||_1 of int64 coefficients;
    l1: int | None          # None for an object array


class LaurentPoly:
    """Exact Laurent polynomial in Y, A, B with integer coefficients.

    Immutable.  Negative exponents are legal (they occur inside the
    shallow-top cumulant algebra) but every final series coefficient
    produced by this module is an ordinary polynomial.
    """

    # _terms: (N, 3) int64 exponent rows in strictly increasing
    # lexicographic order; _coeffs: the N nonzero coefficients, in the
    # dtype _coefficients picks; _cache: the _Stats, made on first use.
    __slots__ = ("_terms", "_coeffs", "_cache")

    def __init__(self, terms: Mapping[tuple[int, int, int], int] | None = None):
        items = [(e, c) for e, c in terms.items() if c] if terms else []
        exps = np.array([e for e, _ in items], dtype=np.int64).reshape(-1, 3)
        order = np.lexsort(exps.T[::-1])
        self._terms = exps[order]
        self._coeffs = _coefficients([c for _, c in items])[order]
        self._cache = None
        if items:
            stats = self._stats()
            _box(stats.lo, stats.hi)     # raises for an exponent out of range

    @classmethod
    def _raw(cls, terms: np.ndarray, coeffs: np.ndarray) -> "LaurentPoly":
        out = object.__new__(cls)
        out._terms = terms
        out._coeffs = coeffs
        out._cache = None
        return out

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls.monomial(c)

    @classmethod
    def monomial(cls, coeff: int, ey: int = 0, ea: int = 0, eb: int = 0) -> "LaurentPoly":
        return cls({(ey, ea, eb): coeff})

    def _stats(self) -> _Stats:
        if self._cache is None:
            c = self._coeffs
            abs_max = l1 = None
            if c.dtype != object:
                a = np.abs(c)
                abs_max = int(a.max())
                # the int64 sum is exact while len * max stays below 2**63
                l1 = int(a.sum()) if len(a) * abs_max < _INT64_BOUND else sum(a.tolist())
            self._cache = _Stats(self._terms.min(axis=0), self._terms.max(axis=0),
                                 abs_max, l1)
        return self._cache

    def terms(self) -> list[tuple[tuple[int, int, int], int]]:
        """Canonically sorted (exponent-triple, coefficient) pairs."""
        return list(zip(map(tuple, self._terms.tolist()), self._coeffs.tolist()))

    def is_zero(self) -> bool:
        return not len(self._coeffs)

    def is_polynomial(self) -> bool:
        """True when no variable appears with a negative exponent."""
        return self._terms.min(initial=0) >= 0

    def __bool__(self) -> bool:
        return bool(len(self._coeffs))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        s, t = self._stats(), other._stats()
        exact = (s.abs_max is not None and t.abs_max is not None
                 and s.abs_max + t.abs_max < _INT64_BOUND)
        lo = np.minimum(s.lo, t.lo)
        strides, offset, dims = _box(lo, np.maximum(s.hi, t.hi))
        keys = np.concatenate([self._terms, other._terms]) @ strides - offset
        coeffs = np.concatenate([self._coeffs, other._coeffs])
        return _collect(keys, coeffs if exact else coeffs.astype(object), lo, dims)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self._terms, -self._coeffs)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if not other or not self:
                return _ZERO
            abs_max = self._stats().abs_max
            if abs_max is not None and abs_max * abs(other) < _INT64_BOUND:
                return LaurentPoly._raw(self._terms, self._coeffs * other)
            return LaurentPoly._raw(
                self._terms, _coefficients(self._coeffs.astype(object) * other))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self or not other:
            return _ZERO
        s, t = self._stats(), other._stats()
        exact = s.l1 is not None and t.l1 is not None and s.l1 * t.l1 < _INT64_BOUND
        lo = s.lo + t.lo
        strides, offset, dims = _box(lo, s.hi + t.hi)
        keys = np.add.outer(self._terms @ strides - offset, other._terms @ strides)
        p, q = self._coeffs, other._coeffs
        if not exact:
            p, q = p.astype(object), q.astype(object)
        return _collect(keys.ravel(), np.multiply.outer(p, q).ravel(), lo, dims)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "LaurentPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LaurentPoly)
                and np.array_equal(self._terms, other._terms)
                and np.array_equal(self._coeffs, other._coeffs))

    def __hash__(self) -> int:
        return hash((self._terms.tobytes(), tuple(self._coeffs.tolist())))

    def substitute(self, y: Scalar | None = None, a: Scalar | None = None,
                   b: Scalar | None = None) -> "LaurentPoly":
        """Substitute integer values for some variables (Laurent-safe only
        for values +-1; use :meth:`evaluate` for general rationals)."""
        out: dict[tuple[int, int, int], Scalar] = {}
        for (ey, ea, eb), c in self.terms():
            coeff = c
            if y is not None:
                coeff *= _int_pow(y, ey)
                ey = 0
            if a is not None:
                coeff *= _int_pow(a, ea)
                ea = 0
            if b is not None:
                coeff *= _int_pow(b, eb)
                eb = 0
            out[ey, ea, eb] = out.get((ey, ea, eb), 0) + coeff
        return LaurentPoly(out)

    def evaluate(self, yv: Scalar, av: Scalar, bv: Scalar) -> Scalar:
        """Exact evaluation; returns an int when the result is integral."""
        total = Fraction(0)
        for (ey, ea, eb), c in self.terms():
            total += Fraction(c) * Fraction(yv) ** ey * Fraction(av) ** ea * Fraction(bv) ** eb
        return int(total) if total.denominator == 1 else total

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for (ey, ea, eb), c in self.terms():
            mono = "".join(
                f"{v}^{e}" if e not in (0, 1) else (v if e == 1 else "")
                for v, e in (("Y", ey), ("A", ea), ("B", eb))
            )
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(bits)


def _box(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, int, tuple[int, int, int]]:
    """Strides, offset and shape of the C-ordered box of exponent rows
    lo..hi: row @ strides - offset is a row's flat index in the box.
    Raises OverflowError unless every exponent in it is below 2**20 in
    magnitude."""
    (ly, la, lb), (hy, ha, hb) = lo.tolist(), hi.tolist()
    if min(ly, la, lb) <= -_EXP_BOUND or max(hy, ha, hb) >= _EXP_BOUND:
        raise OverflowError(f"exponents {(ly, la, lb)}..{(hy, ha, hb)} outside "
                            f"{1 - _EXP_BOUND}..{_EXP_BOUND - 1}")
    dims = hy - ly + 1, ha - la + 1, hb - lb + 1
    strides = dims[1] * dims[2], dims[2], 1
    return np.array(strides), ly * strides[0] + la * strides[1] + lb, dims


def _collect(keys: np.ndarray, coeffs: np.ndarray, lo: np.ndarray,
             dims: tuple[int, int, int]) -> LaurentPoly:
    """The polynomial whose coefficient at the exponent row of flat index
    k in the box of shape dims from lo is the sum of coeffs[keys == k]."""
    cells = dims[0] * dims[1] * dims[2]
    if cells <= _DENSE_CELLS * len(keys):
        sums = np.zeros(cells, dtype=coeffs.dtype)
        np.add.at(sums, keys, coeffs)
        flat = sums.nonzero()[0]
        sums = sums[flat]
    else:
        order = keys.argsort(kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        sums = np.add.reduceat(coeffs[order], starts)
        nonzero = sums.nonzero()[0]
        flat, sums = keys[starts[nonzero]], sums[nonzero]
    if sums.dtype == object:
        sums = _coefficients(sums)
    return LaurentPoly._raw(np.array(np.unravel_index(flat, dims)).T + lo, sums)


def _int_pow(base: Scalar, e: int) -> Scalar:
    if e >= 0:
        return base ** e
    if base in (1, -1):
        return base ** (-e)
    return Fraction(1, base ** (-e))  # type: ignore[arg-type]


_ZERO = LaurentPoly.constant(0)
_ONE = LaurentPoly.constant(1)
Y = LaurentPoly.monomial(1, ey=1)
A = LaurentPoly.monomial(1, ea=1)
B = LaurentPoly.monomial(1, eb=1)
ONE = _ONE
ZERO = _ZERO


def _dot(acc: LaurentPoly, pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """acc plus the sum of p * q over the pairs whose factors are both
    nonzero, added in the order given."""
    for p, q in pairs:
        if not p.is_zero() and not q.is_zero():
            acc = acc + p * q
    return acc


class OrderMismatchError(ValueError):
    """Series of different truncation orders were combined."""


class TruncSeries:
    """Formal power series a_1 X + ... + a_N X^N, truncated at order N.

    There is never a constant term, which makes composition well defined.
    Coefficients are :class:`LaurentPoly` values.
    """

    __slots__ = ("order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[LaurentPoly]):
        if order < 1:
            raise ValueError("order must be >= 1")
        coeffs = tuple(coeffs)
        if len(coeffs) != order:
            raise ValueError(f"expected {order} coefficients, got {len(coeffs)}")
        self.order = order
        self._coeffs = (_ZERO,) + coeffs

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls(order, (_ZERO,) * order)

    @classmethod
    def x(cls, order: int) -> "TruncSeries":
        return cls(order, (_ONE,) + (_ZERO,) * (order - 1))

    @classmethod
    def from_function(cls, order: int, fn) -> "TruncSeries":
        """Coefficients fn(n) for n = 1..order."""
        return cls(order, tuple(fn(n) for n in range(1, order + 1)))

    def coefficient(self, n: int) -> LaurentPoly:
        if not 1 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 1..{self.order}")
        return self._coeffs[n]

    def coefficients(self) -> tuple[LaurentPoly, ...]:
        return self._coeffs[1:]

    def _check(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"orders differ: {self.order} != {other.order}")

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        a, b = self._coeffs, other._coeffs
        return TruncSeries.from_function(self.order, lambda n: _dot(
            _ZERO, ((a[i], b[n - i]) for i in range(1, n))))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TruncSeries)
                and self.order == other.order and self._coeffs == other._coeffs)

    def __repr__(self) -> str:
        parts = [f"({self._coeffs[n]!r})*X^{n}"
                 for n in range(1, self.order + 1) if not self._coeffs[n].is_zero()]
        return " + ".join(parts) if parts else "0 (series)"


def compose(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """outer(inner(X)) truncated; inner has no constant term by type."""
    outer._check(inner)
    return TruncSeries(outer.order, [
        _dot(_ZERO, ((outer._coeffs[s], pw[s][n]) for s in range(1, n + 1)))
        for n, pw in enumerate(_power_columns(inner._coeffs, outer.order), 1)])


def one_plus_shift(g: TruncSeries) -> TruncSeries:
    """X * (1 + g(X)) at the same truncation order."""
    n = g.order
    return TruncSeries(n, (_ONE,) + tuple(g.coefficient(i) for i in range(1, n)))


# ---------------------------------------------------------------------------
# Moment-cumulant transforms
# ---------------------------------------------------------------------------

def boolean_transform(k: TruncSeries) -> TruncSeries:
    """M = K / (1 - K), via m_n = kappa_n + sum_j kappa_j m_(n-j)."""
    n = k.order
    m = [_ZERO] * (n + 1)
    for i in range(1, n + 1):
        m[i] = _dot(k.coefficient(i), ((k.coefficient(j), m[i - j]) for j in range(1, i)))
    return TruncSeries(n, tuple(m[1:]))


def boolean_inverse(m: TruncSeries) -> TruncSeries:
    """K = M / (1 + M), via kappa_n = m_n - sum_j kappa_j m_(n-j)."""
    n = m.order
    k = [_ZERO] * (n + 1)
    for i in range(1, n + 1):
        k[i] = m.coefficient(i) - _dot(
            _ZERO, ((k[j], m.coefficient(i - j)) for j in range(1, i)))
    return TruncSeries(n, tuple(k[1:]))


def _power_columns(p: Sequence[LaurentPoly], n: int) -> Iterator[list[list[LaurentPoly]]]:
    """Yield the table pw with pw[s][i] = [X^i] P(X)^s (zero for s > i)
    once for each i = 1..n, as soon as its column i is filled, where
    p[j] = [X^j] P and P has no constant term.  Column i reads p[1..i]
    only, so the caller may set p[i + 1] from the table it is given."""
    pw = [[_ZERO] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        pw[1][i] = p[i]
        for s in range(2, i + 1):
            pw[s][i] = _dot(_ZERO, ((p[j], pw[s - 1][i - j]) for j in range(1, i - s + 2)))
        yield pw


def _powers(base: LaurentPoly, count: int) -> list[LaurentPoly]:
    """[base**0, ..., base**(count - 1)], each one product from the last."""
    pows = [_ONE]
    for _ in range(count - 1):
        pows.append(pows[-1] * base)
    return pows


def free_transform(k: TruncSeries) -> TruncSeries:
    """Solve M(X) = K(X (1 + M(X))) coefficient by coefficient.

    Writing P = X (1 + M), the coefficient m_n = sum_s kappa_s [X^n] P^s
    involves only m_(<n), so a single lower-triangular pass fills the
    series; this is the fixed-point iteration with each coefficient
    frozen as soon as it stabilizes.
    """
    n = k.order
    p = [_ZERO, _ONE] + [_ZERO] * n         # P = X (1 + M): p[i + 1] = m_i
    for i, pw in enumerate(_power_columns(p, n), 1):
        p[i + 1] = _dot(_ZERO, ((k.coefficient(s), pw[s][i]) for s in range(1, i + 1)))
    return TruncSeries(n, p[2:])


def free_inverse(m: TruncSeries) -> TruncSeries:
    """Recover K from M = K(X(1+M)) by forward substitution."""
    n = m.order
    k = [_ZERO] * (n + 1)
    for i, pw in enumerate(_power_columns(one_plus_shift(m)._coeffs, n), 1):
        # m_i = sum_(s <= i) kappa_s pw[s][i] and pw[i][i] == 1
        k[i] = m.coefficient(i) - _dot(_ZERO, ((k[s], pw[s][i]) for s in range(1, i)))
    return TruncSeries(n, tuple(k[1:]))


def last_block_sum(h: TruncSeries, g: TruncSeries) -> TruncSeries:
    """h(X (1 + g_hat(X))) with g_hat the free transform of g.

    Equals the sum over non-crossing partitions weighting the block of n
    by h and every other block by g.
    """
    h._check(g)
    return compose(h, one_plus_shift(free_transform(g)))


# ---------------------------------------------------------------------------
# Closed-form series for the three shallow classes
# ---------------------------------------------------------------------------

_THIN_KERNEL = A * B + (A + B) * Y          # AB + (A+B)Y
_THIN_KERNEL1 = _ONE + _THIN_KERNEL         # 1 + AB + (A+B)Y


def thin_series(order: int) -> tuple[TruncSeries, TruncSeries]:
    """(M, K) for interval x interval systems:
    M = X / (1 - X(1 + AB + (A+B)Y)), K = X / (1 - X(AB + (A+B)Y))."""
    m = TruncSeries(order, _powers(_THIN_KERNEL1, order))
    k = TruncSeries(order, _powers(_THIN_KERNEL, order))
    _assert_polynomial(m)
    return m, k


def _shallow_top_g(order: int) -> TruncSeries:
    # g_n = BY(1+AY)^n + B A^n Y^(n-1) - B A^n Y^(n+1), already expanded so
    # that no negative exponent is stored.
    coeffs = []
    one_ay_pows = _powers(_ONE + A * Y, order + 1)
    for n in range(1, order + 1):
        an = LaurentPoly.monomial(1, ea=n)
        g_n = B * Y * one_ay_pows[n] + B * an * LaurentPoly.monomial(1, ey=n - 1) \
            - B * an * LaurentPoly.monomial(1, ey=n + 1)
        coeffs.append(g_n)
    return TruncSeries(order, coeffs)


def _shallow_top_h(order: int) -> TruncSeries:
    return TruncSeries(order, tuple(
        LaurentPoly.monomial(1, ey=n - 1, ea=n - 1) for n in range(1, order + 1)))


def shallow_top_series(order: int) -> tuple[TruncSeries, TruncSeries]:
    """(M, K) for interval x non-crossing systems.

    K = h(X(1 + g_hat)) with g_hat the free transform of g, then
    M = K / (1 - K); K has no closed form, the fixed point is the
    construction.
    """
    g = _shallow_top_g(order)
    h = _shallow_top_h(order)
    k = last_block_sum(h, g)
    m = boolean_transform(k)
    _assert_polynomial(k)
    _assert_polynomial(m)
    return m, k


def semi_meander_series(order: int) -> TruncSeries:
    """M for interval x rainbow systems:
    (X + X^2 (Y + A)) / (1 - X^2 Y (1 + 2AY + A^2)), in Y and A only."""
    ring = Y * (_ONE + 2 * A * Y + A * A)
    even_head = Y + A
    coeffs = []
    # [X^(2m+1)] M = ring^m and [X^(2m+2)] M = (Y + A) ring^m
    for rpow in _powers(ring, (order + 1) // 2):
        coeffs.append(rpow)
        if len(coeffs) < order:
            coeffs.append(even_head * rpow)
    s = TruncSeries(order, coeffs)
    _assert_polynomial(s)
    return s


def _assert_polynomial(s: TruncSeries) -> None:
    # Safety net for the Laurent intermediates: final series coefficients
    # must be ordinary polynomials.
    for n in range(1, s.order + 1):
        if not s.coefficient(n).is_polynomial():
            raise AssertionError(f"negative exponent leaked into coefficient {n}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def poly_to_json(poly: LaurentPoly) -> list[dict]:
    """Terms as {eY, eA, eB, coeff} with decimal-string coefficients."""
    return [
        {"eY": ey, "eA": ea, "eB": eb, "coeff": str(c)}
        for (ey, ea, eb), c in poly.terms()
    ]


def series_to_json(series: TruncSeries) -> list[dict]:
    return [
        {"n": n, "terms": poly_to_json(series.coefficient(n))}
        for n in range(1, series.order + 1)
    ]
