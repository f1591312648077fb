"""Exact arithmetic in cyclotomic fields.

Values of all characters in this package are roots of unity, kept as
RootOfUnity.  Genuine sums of them (a Gauss sum's coset histogram, the
coefficients of a zeta integral) live in Q(zeta_N) for a modest N and are
kept as CycloNumber: rational combinations of powers of a fixed primitive
N-th root of unity, whose canonical form is the remainder modulo the N-th
cyclotomic polynomial, so equality is decidable and exact.

match_root turns a sum that is a root of unity times a rational back into
that pair.  Its guess of the root is the only use of floating point in the
package, and one exact == confirms it before it is returned.

Roots are canonical objects: one RootOfUnity per value, handed out by
_root from a dict keyed by the reduced (num, order), so == is identity,
and each product is computed once and then read from a dict keyed by the
pair of operands.  The values are few: after acceptance criteria 1-5 in
one process the two dicts held 584 roots and 5,232 products.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import LLCError

Rational = int | Fraction


def _largest_prime_factor(n: int) -> int:
    p, out = 2, 1
    while p * p <= n:
        while n % p == 0:
            n //= p
            out = p
        p += 1
    return n if n > 1 else out


def _poly_divmod_int(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials, ascending coefficients."""
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise LLCError("divisor must be monic")
    live = [(j, c) for j, c in enumerate(den) if c]
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        base = i - dd
        for j, pc in live:
            num[base + j] -= c * pc
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree.

    With p the largest prime factor of n = m p: Phi_n(x) = Phi_m(x^p)
    when p | m, and Phi_n(x) = Phi_m(x^p) / Phi_m(x) otherwise, an exact
    division whose divisor has the smallest degree on offer."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    p = _largest_prime_factor(n)
    m = n // p
    inner = cyclotomic_polynomial(m)
    spread = [0] * (p * (len(inner) - 1) + 1)
    for i, c in enumerate(inner):
        spread[p * i] = c
    if m % p == 0:
        return tuple(spread)
    quot, rem = _poly_divmod_int(spread, inner)
    if rem:
        raise LLCError(f"Phi_{m}(x^{p}) is not divisible by Phi_{m}")
    return tuple(quot)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


class RootOfUnity:
    """exp(2*pi*i * num / order) in lowest terms, one object per value.

    Every construction path ends in _root, which hands out the interned
    object for the reduced pair, so == and hash work by identity, and a
    product is computed once per pair of operands and then looked up.
    The fields are read-only; copy, deepcopy and pickle rebuild through
    the constructor and so return the interned object."""

    __slots__ = ("num", "order")

    def __new__(cls, num: int, order: int) -> RootOfUnity:
        if order <= 0:
            raise ValueError("order must be positive")
        return _root(num, order)

    def __setattr__(self, name, value):
        raise AttributeError("RootOfUnity is immutable")

    def __delattr__(self, name):
        raise AttributeError("RootOfUnity is immutable")

    def __reduce__(self):
        return RootOfUnity, (self.num, self.order)

    @classmethod
    def one(cls) -> RootOfUnity:
        return _root(0, 1)

    @classmethod
    def minus_one(cls) -> RootOfUnity:
        return _root(1, 2)

    def __mul__(self, other: RootOfUnity) -> RootOfUnity:
        if other.__class__ is not RootOfUnity:
            # sums and graded values scale by a root through their __rmul__
            return NotImplemented
        key = (self, other)
        out = _ROOT_PRODUCTS.get(key)
        if out is None:
            a, b = self.order, other.order
            n = lcm(a, b)
            out = _ROOT_PRODUCTS[key] = _root(self.num * (n // a) + other.num * (n // b), n)
        return out

    def __pow__(self, k: int) -> RootOfUnity:
        return _root(self.num * k, self.order)

    def inverse(self) -> RootOfUnity:
        return _root(-self.num, self.order)

    def is_one(self) -> bool:
        return self.num == 0

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RootOfUnity:
            return NotImplemented
        return self is other

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"RootOfUnity({self.num}/{self.order})"

    def as_cyclo(self) -> CycloNumber:
        return CycloNumber(self.order, {self.num: 1})

    def complex_value(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.num / self.order)

    @classmethod
    def parse(cls, text: str) -> RootOfUnity:
        """Parse 'a/N', integers a and N > 0, as exp(2*pi*i*a/N)."""
        a, _, n = text.partition("/")
        try:
            return cls(int(a), int(n))
        except ValueError:
            raise ValueError(f'a root of unity is written "a/N" with integers a and N > 0, got {text!r}') from None

    def as_fraction_of_turn(self) -> str:
        return f"{self.num}/{self.order}"


# the interned roots, keyed by their reduced (num, order), and the memoised
# products, keyed by the pair of operands; neither is ever cleared
_ROOTS: dict[tuple[int, int], RootOfUnity] = {}
_ROOT_PRODUCTS: dict[tuple[RootOfUnity, RootOfUnity], RootOfUnity] = {}
_SET_NUM = RootOfUnity.num.__set__
_SET_ORDER = RootOfUnity.order.__set__


def _root(num: int, order: int) -> RootOfUnity:
    """RootOfUnity(num, order) for an order the library computed, so known
    positive: one gcd to lowest terms, no validation, and the interned
    object for the reduced pair.  Every root is built here."""
    num %= order
    g = gcd(num, order)
    key = (num // g, order // g)
    out = _ROOTS.get(key)
    if out is None:
        out = object.__new__(RootOfUnity)
        _SET_NUM(out, key[0])
        _SET_ORDER(out, key[1])
        _ROOTS[key] = out
    return out


@lru_cache(maxsize=None)
def _reduce_mod_phi(order: int, items: tuple) -> tuple:
    """Shared reduction modulo Phi_order for a sparse exponent sum.

    Scaling by the common denominator keeps the elimination loop in plain
    integers; the cache pays off because grid computations keep producing
    the same handful of values over and over.
    """
    deg = euler_phi(order)
    phi = cyclotomic_polynomial(order)
    den = 1
    for _, c in items:
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    arr = [0] * order
    for e, c in items:
        arr[e] += int(c * den)
    for i in range(order - 1, deg - 1, -1):
        c = arr[i]
        if c == 0:
            continue
        arr[i] = 0
        base = i - deg
        for j in range(deg):
            pc = phi[j]
            if pc:
                arr[base + j] -= c * pc
    if den == 1:
        return tuple((e, c) for e, c in enumerate(arr[:deg]) if c != 0)
    return tuple(
        (e, _norm_rat(Fraction(c, den))) for e, c in enumerate(arr[:deg]) if c != 0
    )


class CycloNumber:
    """Element of Q(zeta_N) stored as a sparse sum of powers of zeta_N.

    The exponent dictionary is only reduced modulo x^N - 1 on construction;
    full reduction modulo Phi_N happens lazily (and is cached) the first
    time a canonical form is needed.  This keeps large character sums cheap:
    accumulation is pure dictionary arithmetic.
    """

    __slots__ = ("order", "terms", "_canon")

    def __init__(self, order: int, terms: dict[int, Rational] | None = None):
        self.order = order
        clean: dict[int, Rational] = {}
        if terms:
            for e, c in terms.items():
                if c == 0:
                    continue
                e %= order
                acc = clean.get(e, 0) + c
                if acc == 0:
                    clean.pop(e, None)
                else:
                    clean[e] = acc
        self.terms = clean
        self._canon: tuple | None = None

    @classmethod
    def from_rational(cls, c: Rational, order: int = 1) -> CycloNumber:
        return cls(order, {0: c})

    @classmethod
    def zero(cls, order: int = 1) -> CycloNumber:
        return cls(order, {})

    @classmethod
    def one(cls, order: int = 1) -> CycloNumber:
        return cls(order, {0: 1})

    def lift(self, order: int) -> CycloNumber:
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot lift from order {self.order} to {order}")
        k = order // self.order
        return CycloNumber._from_clean(order, {e * k: c for e, c in self.terms.items()})

    @classmethod
    def _from_clean(cls, order: int, terms: dict[int, Rational]) -> CycloNumber:
        """Wrap terms whose exponents already lie in 0..order-1 and whose
        coefficients are all nonzero, skipping the cleaning pass."""
        out = object.__new__(cls)
        out.order = order
        out.terms = terms
        out._canon = None
        return out

    def _pair(self, other) -> tuple[CycloNumber, CycloNumber]:
        if not isinstance(other, CycloNumber):
            if isinstance(other, RootOfUnity):
                other = other.as_cyclo()
            elif isinstance(other, (int, Fraction)):
                other = CycloNumber.from_rational(other)
            else:
                raise TypeError(type(other))
        n = lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def _rotate(self, root: RootOfUnity) -> CycloNumber:
        """Product with a root of unity: one shift of the exponents in the
        lcm order.  The shift is a bijection on exponents, so no two terms
        merge and nothing cancels."""
        n = lcm(self.order, root.order)
        k = n // self.order
        shift = root.num * (n // root.order)
        return CycloNumber._from_clean(
            n, {(e * k + shift) % n: c for e, c in self.terms.items()}
        )

    def __add__(self, other) -> CycloNumber:
        a, b = self._pair(other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            acc = out.get(e, 0) + c
            if acc == 0:
                out.pop(e, None)
            else:
                out[e] = acc
        return CycloNumber(a.order, out)

    __radd__ = __add__

    def __neg__(self) -> CycloNumber:
        return CycloNumber(self.order, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> CycloNumber:
        a, b = self._pair(other)
        return a + (-b)

    def __mul__(self, other) -> CycloNumber:
        if isinstance(other, RootOfUnity):
            return self._rotate(other)
        if not isinstance(other, CycloNumber):
            if not isinstance(other, (int, Fraction)):
                # graded values scale by a sum through their __rmul__
                return NotImplemented
            if other == 0:
                return CycloNumber.zero(self.order)
            return CycloNumber._from_clean(
                self.order, {e: c * other for e, c in self.terms.items()}
            )
        a, b = self._pair(other)
        out: dict[int, Rational] = {}
        n = a.order
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = (e1 + e2) % n
                acc = out.get(e, 0) + c1 * c2
                if acc == 0:
                    out.pop(e, None)
                else:
                    out[e] = acc
        return CycloNumber._from_clean(n, out)

    __rmul__ = __mul__

    def conj(self) -> CycloNumber:
        return CycloNumber(self.order, {-e: c for e, c in self.terms.items()})

    def canonical(self) -> tuple:
        """Tuple of (exponent, coefficient) pairs in the power basis
        1, x, ..., x^(phi(N)-1) after reduction modulo Phi_N."""
        if self._canon is not None:
            return self._canon
        n = self.order
        deg = euler_phi(n)
        if all(e < deg for e in self.terms):
            canon = tuple(sorted((e, _norm_rat(c)) for e, c in self.terms.items()))
        else:
            canon = _reduce_mod_phi(n, tuple(sorted(self.terms.items())))
        self._canon = canon
        return canon

    def is_zero(self) -> bool:
        return not self.canonical()

    def compact(self) -> CycloNumber:
        """Rewrite through the canonical form.  Character sums carry one
        sparse term per summand; collapsing them keeps later products
        from convolving hundreds of dead exponents."""
        out = CycloNumber(self.order, dict(self.canonical()))
        out._canon = self._canon
        return out

    def rational_value(self) -> Fraction:
        canon = self.canonical()
        if not canon:
            return Fraction(0)
        if len(canon) == 1 and canon[0][0] == 0:
            return Fraction(canon[0][1])
        raise ValueError("not a rational number")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycloNumber) and other.order == self.order:
            # reduction modulo Phi_N is unique for a fixed N
            return self.terms == other.terms or self.canonical() == other.canonical()
        if isinstance(other, (int, Fraction, RootOfUnity, CycloNumber)):
            a, b = self._pair(other)
            return (a - b).is_zero()
        return NotImplemented

    __hash__ = None  # mixed-order representatives make hashing a trap

    def complex_value(self) -> complex:
        z = 2j * cmath.pi / self.order
        return sum((float(c) * cmath.exp(z * e) for e, c in self.terms.items()), 0j)

    def __repr__(self) -> str:
        if not self.terms:
            return "Cyclo(0)"
        body = " + ".join(f"{c}*z{self.order}^{e}" for e, c in sorted(self.terms.items()))
        return f"Cyclo({body})"

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": {str(e): str(Fraction(c)) for e, c in self.canonical()},
        }


def _norm_rat(c: Rational) -> Rational:
    """A rational in normal form: an int when it is whole, else a Fraction.

    Canonical tuples and unit rationals then compare field by field, and
    whole values stay in int arithmetic; since 5 == Fraction(5) with equal
    hashes, == and hash see no difference."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def match_root(c: CycloNumber) -> tuple[RootOfUnity, Fraction]:
    """c as (root, r) with c = root * r and r a positive rational, else
    LLCError.

    |c|^2 = c * conj(c) must be the rational square r^2, and a root of unity
    in Q(zeta_N) lies in mu_lcm(2, N).  The root is read off the phase of
    c's canonical form and confirmed with one exact ==; only when that check fails are all
    candidates compared exactly, so no verdict rests on floating point."""
    reduced = c.compact()
    try:
        sq = (reduced * reduced.conj()).rational_value()
    except ValueError:
        raise LLCError("|c|^2 is not rational, so c is no root times a rational") from None
    if sq == 0:
        raise LLCError("zero is not a root times a rational")
    num, den = isqrt(sq.numerator), isqrt(sq.denominator)
    if num * num != sq.numerator or den * den != sq.denominator:
        raise LLCError(f"|c|^2 = {sq} is not a rational square")
    r = Fraction(num, den)
    order = lcm(2, c.order)
    want = reduced.lift(order).canonical()
    try:
        guess = round(cmath.phase(reduced.complex_value()) / (2 * cmath.pi) * order)
    except (OverflowError, ValueError):
        # r beyond float range: no phase to read, only the exact scan
        guess = 0
    for k in (guess, *range(order)):
        if CycloNumber(order, {k: r}).canonical() == want:
            return RootOfUnity(k, order), r
    raise LLCError("c is not a root of unity times a rational")
