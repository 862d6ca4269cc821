"""Truncated power series over exact Laurent polynomials in (Y, A, B).

The series engine backs the closed-form generating functions for the
meandric-system classes: the boolean transform K -> M = K / (1 - K), the
free transform defined by the implicit relation M(X) = K(X (1 + M(X))),
and the last-block composition identity used to assemble the shallow-top
cumulant series.  Everything is exact integer (or Fraction) arithmetic;
no floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

# Exponent triples are packed into a single int: three 10-bit fields with
# offset 256, so products add keys (minus the base) without carries as long
# as exponents stay within a few hundred, far beyond any truncation order
# used here.  Packing an exponent outside the field raises.
_OFF = 256
_BASE = (_OFF << 20) | (_OFF << 10) | _OFF


def _pack(ey: int, ea: int, eb: int) -> int:
    if not -_OFF <= min(ey, ea, eb) <= max(ey, ea, eb) < 1024 - _OFF:
        raise OverflowError(f"exponents ({ey}, {ea}, {eb}) outside "
                            f"{-_OFF}..{1023 - _OFF}")
    return ((ey + _OFF) << 20) | ((ea + _OFF) << 10) | (eb + _OFF)


def _unpack(key: int) -> tuple[int, int, int]:
    return (key >> 20) - _OFF, ((key >> 10) & 0x3FF) - _OFF, (key & 0x3FF) - _OFF


class LaurentPoly:
    """Exact Laurent polynomial in Y, A, B with integer coefficients.

    Immutable.  Negative exponents are legal (they occur inside the
    shallow-top cumulant algebra) but every final series coefficient
    produced by this module is an ordinary polynomial.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int], int] | None = None):
        packed: dict[int, int] = {}
        if terms:
            for (ey, ea, eb), c in terms.items():
                if c:
                    k = _pack(ey, ea, eb)
                    packed[k] = packed.get(k, 0) + c
        self._terms = {k: v for k, v in packed.items() if v}

    @classmethod
    def _raw(cls, packed: dict[int, int]) -> "LaurentPoly":
        out = object.__new__(cls)
        out._terms = packed
        return out

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls._raw({_BASE: c} if c else {})

    @classmethod
    def monomial(cls, coeff: int, ey: int = 0, ea: int = 0, eb: int = 0) -> "LaurentPoly":
        return cls._raw({_pack(ey, ea, eb): coeff} if coeff else {})

    def terms(self) -> list[tuple[tuple[int, int, int], int]]:
        """Canonically sorted (exponent-triple, coefficient) pairs."""
        return sorted((_unpack(k), v) for k, v in self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_polynomial(self) -> bool:
        """True when no variable appears with a negative exponent."""
        return all(e >= 0 for k in self._terms for e in _unpack(k))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return LaurentPoly._raw(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return _ZERO
            return LaurentPoly._raw({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if len(self._terms) > len(other._terms):
            self, other = other, self
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in self._terms.items():
            base = k1 - _BASE
            for k2, c2 in other._terms.items():
                k = base + k2
                v = get(k, 0) + c1 * c2
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        return LaurentPoly._raw(out)

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
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def substitute(self, y: Scalar | None = None, a: Scalar | None = None,
                   b: Scalar | None = None) -> "LaurentPoly":
        """Substitute integer values for some variables (Laurent-safe only
        for values +-1; use :meth:`evaluate` for general rationals)."""
        out: dict[int, int] = {}
        for k, c in self._terms.items():
            ey, ea, eb = _unpack(k)
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
            if coeff:
                kk = _pack(ey, ea, eb)
                v = out.get(kk, 0) + coeff
                if v:
                    out[kk] = v
                elif kk in out:
                    del out[kk]
        return LaurentPoly._raw(out)

    def evaluate(self, yv: Scalar, av: Scalar, bv: Scalar) -> Scalar:
        """Exact evaluation; returns an int when the result is integral."""
        total = Fraction(0)
        for k, c in self._terms.items():
            ey, ea, eb = _unpack(k)
            total += Fraction(c) * Fraction(yv) ** ey * Fraction(av) ** ea * Fraction(bv) ** eb
        return int(total) if total.denominator == 1 else total

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for (ey, ea, eb), c in self.terms():
            mono = "".join(
                f"{v}^{e}" if e not in (0, 1) else (v if e == 1 else "")
                for v, e in (("Y", ey), ("A", ea), ("B", eb))
            )
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(bits)


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

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(self.order, tuple(
            a + b for a, b in zip(self._coeffs[1:], other._coeffs[1:])))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(self.order, tuple(
            a - b for a, b in zip(self._coeffs[1:], other._coeffs[1:])))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        out = [_ZERO] * (self.order + 1)
        for i in range(1, self.order):
            ai = self._coeffs[i]
            if ai.is_zero():
                continue
            for j in range(1, self.order - i + 1):
                bj = other._coeffs[j]
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
        return TruncSeries(self.order, tuple(out[1:]))

    def scale(self, poly: LaurentPoly | int) -> "TruncSeries":
        return TruncSeries(self.order, tuple(c * poly for c in self._coeffs[1:]))

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
    n = outer.order
    acc = TruncSeries.zero(n)
    power = inner
    for s in range(1, n + 1):
        if s > 1:
            power = power * inner
        cs = outer.coefficient(s)
        if not cs.is_zero():
            acc = acc + power.scale(cs)
    return acc


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
        acc = k.coefficient(i)
        for j in range(1, i):
            kj = k.coefficient(j)
            if not kj.is_zero() and not m[i - j].is_zero():
                acc = acc + kj * m[i - j]
        m[i] = acc
    return TruncSeries(n, tuple(m[1:]))


def boolean_inverse(m: TruncSeries) -> TruncSeries:
    """K = M / (1 + M), via kappa_n = m_n - sum_j kappa_j m_(n-j)."""
    n = m.order
    k = [_ZERO] * (n + 1)
    for i in range(1, n + 1):
        acc = m.coefficient(i)
        for j in range(1, i):
            if not k[j].is_zero():
                mij = m.coefficient(i - j)
                if not mij.is_zero():
                    acc = acc - k[j] * mij
        k[i] = acc
    return TruncSeries(n, tuple(k[1:]))


def _powers_column(p: list[LaurentPoly], pw: list[list[LaurentPoly]], n: int) -> None:
    # Fill pw[s][n] = [X^n] P(X)^s for s = 2..n, where pw[1][*] = p[*] and
    # all pw[.][<n] entries are already present.
    for s in range(2, n + 1):
        acc = _ZERO
        for j in range(1, n - s + 2):
            pj = p[j]
            if pj.is_zero():
                continue
            prev = pw[s - 1][n - j]
            if not prev.is_zero():
                acc = acc + pj * prev
        pw[s][n] = acc


def free_transform(k: TruncSeries) -> TruncSeries:
    """Solve M(X) = K(X (1 + M(X))) coefficient by coefficient.

    Writing P = X (1 + M), the coefficient m_n = sum_s kappa_s [X^n] P^s
    involves only m_(<n), so a single lower-triangular pass fills the
    series; this is the fixed-point iteration with each coefficient
    frozen as soon as it stabilizes.
    """
    n = k.order
    m = [_ZERO] * (n + 1)
    p = [_ZERO] * (n + 1)
    p[1] = _ONE
    pw = [[_ZERO] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        if i >= 2:
            p[i] = m[i - 1]
        pw[1][i] = p[i]
        _powers_column(p, pw, i)
        acc = _ZERO
        for s in range(1, i + 1):
            ks = k.coefficient(s)
            if not ks.is_zero() and not pw[s][i].is_zero():
                acc = acc + ks * pw[s][i]
        m[i] = acc
    return TruncSeries(n, tuple(m[1:]))


def free_inverse(m: TruncSeries) -> TruncSeries:
    """Recover K from M = K(X(1+M)) by forward substitution."""
    n = m.order
    p = [_ZERO] * (n + 1)
    p[1] = _ONE
    for i in range(2, n + 1):
        p[i] = m.coefficient(i - 1)
    pw = [[_ZERO] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        pw[1][i] = p[i]
        _powers_column(p, pw, i)
    k = [_ZERO] * (n + 1)
    for i in range(1, n + 1):
        acc = m.coefficient(i)
        for s in range(1, i):
            if not k[s].is_zero() and not pw[s][i].is_zero():
                acc = acc - k[s] * pw[s][i]
        k[i] = acc  # pw[i][i] == 1
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
    mcs, kcs = [], []
    mpow, kpow = _ONE, _ONE
    for n in range(1, order + 1):
        mcs.append(mpow)
        kcs.append(kpow)
        if n < order:
            mpow = mpow * _THIN_KERNEL1
            kpow = kpow * _THIN_KERNEL
    m = TruncSeries(order, mcs)
    k = TruncSeries(order, kcs)
    _assert_polynomial(m)
    return m, k


def _shallow_top_g(order: int) -> TruncSeries:
    # g_n = BY(1+AY)^n + B A^n Y^(n-1) - B A^n Y^(n+1), already expanded so
    # that no negative exponent is stored.
    coeffs = []
    one_ay_pow = _ONE + A * Y
    cur = one_ay_pow
    for n in range(1, order + 1):
        an = LaurentPoly.monomial(1, ea=n)
        g_n = B * Y * cur + B * an * LaurentPoly.monomial(1, ey=n - 1) \
            - B * an * LaurentPoly.monomial(1, ey=n + 1)
        coeffs.append(g_n)
        cur = cur * one_ay_pow
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
    coeffs = [_ZERO] * (order + 1)
    rpow = _ONE
    m = 0
    while 2 * m + 1 <= order:
        coeffs[2 * m + 1] = rpow
        if 2 * m + 2 <= order:
            coeffs[2 * m + 2] = even_head * rpow
        rpow = rpow * ring
        m += 1
    s = TruncSeries(order, tuple(coeffs[1:]))
    _assert_polynomial(s)
    return s


def _assert_polynomial(s: TruncSeries) -> None:
    # Safety net for the Laurent intermediates: final series coefficients
    # must be ordinary polynomials.
    for n in range(1, s.order + 1):
        if not s.coefficient(n).is_polynomial():
            raise AssertionError(f"negative exponent leaked into coefficient {n}")


def coefficient(series: TruncSeries, n: int) -> LaurentPoly:
    return series.coefficient(n)


def evaluate(poly: LaurentPoly, yv: Scalar, av: Scalar, bv: Scalar) -> Scalar:
    return poly.evaluate(yv, av, bv)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def poly_to_json(poly: LaurentPoly) -> list[dict]:
    """Terms as {eY, eA, eB, coeff} with decimal-string coefficients."""
    return [
        {"eY": ey, "eA": ea, "eB": eb, "coeff": str(c)}
        for (ey, ea, eb), c in poly.terms()
    ]


def poly_from_json(terms: list[dict]) -> LaurentPoly:
    return LaurentPoly({
        (t["eY"], t["eA"], t["eB"]): int(t["coeff"]) for t in terms
    })


def series_to_json(series: TruncSeries) -> list[dict]:
    return [
        {"n": n, "terms": poly_to_json(series.coefficient(n))}
        for n in range(1, series.order + 1)
    ]
