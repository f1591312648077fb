"""Epsilon-factor values as exact symbolic monomials.

An epsilon factor here is a unit times an exact power q^(a + b*s).  The unit
is a root of unity times a positive rational times a single formal power of
the Langlands constant Lambda attached to the ramified degree-n extension,
the shape lam(-1)^(n-1) lam(pi) zeta q^(1/2-s) of every epsilon factor in
the theory.  We never evaluate Lambda numerically, we only track its
exponent; reduce_lambda collapses Lambda^n to the value kappa(pi) = +-1 of
the quadratic discriminant character at the uniformizer.  A cyclotomic
coefficient enters a unit through match_root, which splits it into a root
and a rational.

Units are canonical objects, as roots are in cyclotomic: one LambdaGraded
per value, handed out by _unit from a dict keyed by the normal (grade,
root, rational), so == is identity, and each product with a unit or a root,
each int power and each Lambda reduction is computed once and then read
from a dict keyed by the operands.  After acceptance criteria 1-5 in one
process the two dicts held 3,866 units and 8,572 products, powers and
reductions; interned_counts reads all four sizes, and those of the tame
characters' intern dict and memo.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .cyclotomic import _ROOT_PRODUCTS, _ROOTS, CycloNumber, RootOfUnity, _norm_rat, match_root
from .errors import LLCError
from .finitefield import odd_prime_power

_Scalar = int | Fraction | RootOfUnity | CycloNumber


class LambdaGraded:
    """The unit root * rational * Lambda^grade, immutable, in normal form
    and one object per value.

    The rational is positive, its sign folded into the root, and kept as
    an int when it is whole and as a Fraction otherwise (see cyclotomic._norm_rat).
    Every construction path ends in _unit, which hands out the interned
    object for the normal fields, so == and hash work by identity, a
    product with a unit or a root, an int power and a Lambda reduction are
    each computed once per tuple of operands, and products, inverses and
    powers never touch a cyclotomic sum.  Zero is not a unit and building
    it raises LLCError.
    """

    __slots__ = ("grade", "root", "rational")

    def __new__(cls, grade: int, root: RootOfUnity, rational: int | Fraction = 1) -> LambdaGraded:
        rational = _norm_rat(rational)
        if rational.numerator <= 0:
            if rational.numerator == 0:
                raise LLCError("zero is not a unit")
            root, rational = root * RootOfUnity.minus_one(), -rational
        return _unit(grade, root, rational)

    @classmethod
    def from_cyclo(cls, c: _Scalar) -> LambdaGraded:
        return cls.lambda_power(0, c)

    @classmethod
    def lambda_power(cls, a: int, coeff: _Scalar = 1) -> LambdaGraded:
        if isinstance(coeff, CycloNumber):
            return cls(a, *match_root(coeff))
        if isinstance(coeff, RootOfUnity):
            return cls(a, coeff)
        return cls(a, RootOfUnity.one(), coeff)

    @classmethod
    def one(cls) -> LambdaGraded:
        return cls(0, RootOfUnity.one())

    @property
    def terms(self) -> dict[int, CycloNumber]:
        """Read-only {grade: root * rational} view, the coefficient as a
        one-term sum; perfbench's microbench multiplies its values."""
        return {self.grade: CycloNumber(self.root.order, {self.root.num: self.rational})}

    def __setattr__(self, name, value):
        raise AttributeError("LambdaGraded is immutable")

    def __delattr__(self, name):
        raise AttributeError("LambdaGraded is immutable")

    def __reduce__(self):
        return LambdaGraded, (self.grade, self.root, self.rational)

    def __mul__(self, other) -> LambdaGraded:
        cls = other.__class__
        if cls is LambdaGraded or cls is RootOfUnity:
            key = (self, other)
            out = _UNIT_PRODUCTS.get(key)
            if out is None:
                if cls is RootOfUnity:
                    out = _unit(self.grade, self.root * other, self.rational)
                else:
                    # in the Gauss checks one rational is always 1: reuse the other
                    a, b = self.rational, other.rational
                    out = _unit(self.grade + other.grade, self.root * other.root,
                                b if a == 1 else a if b == 1 else _norm_rat(a * b))
                _UNIT_PRODUCTS[key] = out
            return out
        if isinstance(other, (int, Fraction)):
            return LambdaGraded(self.grade, self.root, self.rational * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LambdaGraded:
            return NotImplemented
        return self is other

    __hash__ = object.__hash__

    def inverse(self) -> LambdaGraded:
        r = self.rational
        inv = _norm_rat(Fraction(r.denominator, r.numerator))
        return _unit(-self.grade, self.root.inverse(), inv)

    def __pow__(self, k: int) -> LambdaGraded:
        key = (self, k)
        out = _UNIT_PRODUCTS.get(key)
        if out is None or k.__class__ is not int:
            r = self.rational
            if k < 0:
                r = Fraction(r.denominator, r.numerator)
            out = _unit(self.grade * k, self.root**k, _norm_rat(r ** abs(k)))
            if k.__class__ is int:
                _UNIT_PRODUCTS[key] = out
        return out

    def reduce_lambda(self, n: int, kappa_pi: int) -> LambdaGraded:
        """Rewrite Lambda^n -> kappa_pi (+-1), folding the grade into 0..n-1."""
        if kappa_pi not in (1, -1):
            raise LLCError(f"kappa(pi) must be 1 or -1, not {kappa_pi!r}")
        key = (self, n, kappa_pi)
        out = _UNIT_PRODUCTS.get(key)
        if out is None or n.__class__ is not int or kappa_pi.__class__ is not int:
            folds, r = divmod(self.grade, n)
            out = LambdaGraded(r, self.root, self.rational * (kappa_pi if folds % 2 else 1))
            if n.__class__ is int and kappa_pi.__class__ is int:
                _UNIT_PRODUCTS[key] = out
        return out

    def __repr__(self) -> str:
        return f"LambdaGraded({self.rational}*{self.root!r}*L^{self.grade})"

    def to_json(self) -> dict:
        return {"unit": self.terms[self.grade].to_json(), "lambda": self.grade}


# the interned units, keyed by their normal (grade, root, rational), and the
# memoised operations on them: products with a unit or a root, keyed by the
# pair of operands, int powers keyed (unit, k), and Lambda reductions keyed
# (unit, n, kappa_pi); neither dict is ever cleared
_UNITS: dict[tuple, LambdaGraded] = {}
_UNIT_PRODUCTS: dict[tuple, LambdaGraded] = {}
_SET_GRADE = LambdaGraded.grade.__set__
_SET_ROOT = LambdaGraded.root.__set__
_SET_RATIONAL = LambdaGraded.rational.__set__


def _unit(grade: int, root: RootOfUnity, rational: int | Fraction) -> LambdaGraded:
    """The interned LambdaGraded with these fields, which must already be
    in normal form: the rational positive, and an int when it is whole,
    so that Fraction(3) never becomes a key.  Every unit is built here."""
    key = (grade, root, rational)
    out = _UNITS.get(key)
    if out is None:
        out = object.__new__(LambdaGraded)
        _SET_GRADE(out, grade)
        _SET_ROOT(out, root)
        _SET_RATIONAL(out, rational)
        _UNITS[key] = out
    return out


def interned_counts() -> dict[str, int]:
    """Sizes of the intern and product dicts of cyclotomic and this
    module: roots, root products, units, and unit products (powers and
    Lambda reductions included); and of characters' tame characters and
    the values they keep.  They only grow, so a criterion's report shows
    the process's totals so far."""
    # characters builds on this module, so its dict is read at call time
    from .characters import _TAME

    return {
        "roots": len(_ROOTS),
        "root_products": len(_ROOT_PRODUCTS),
        "units": len(_UNITS),
        "unit_products": len(_UNIT_PRODUCTS),
        "tame_chars": len(_TAME),
        "tame_values": sum(len(lam._values) for lam in _TAME.values()),
    }


def _same_q(x, y) -> None:
    if x.q != y.q:
        raise LLCError(f"monomials over different residue sizes {x.q} and {y.q}")


@lru_cache(maxsize=None)
def _half_power(q: int) -> int | None:
    """q^(1/2) as an integer, or None when q is not a square; the one rule
    for which half powers of q fold into a rational coefficient."""
    root = isqrt(q)
    return root if root * root == q else None


@lru_cache(maxsize=None)
def _normal_q_power(q: int, unit: LambdaGraded, twice: int) -> tuple[LambdaGraded, int]:
    """unit * q^(twice/2) rewritten in EpsMonomial's normal form, the
    exponent kept as the integer twice/2 doubled; memoised, as units are
    interned and hash by identity."""
    p, f = odd_prime_power(q)
    num, den = unit.rational.numerator, unit.rational.denominator
    half = _half_power(q)
    folded = half is not None and twice % 2
    if folded:
        num, twice = num * half, twice - 1
    elif num % p and den % p:
        return unit, twice
    v = 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    shift, rest = divmod(v, f)
    if not (shift or folded):
        return unit, twice
    rational = _norm_rat(Fraction(num * p**rest, den))
    return _unit(unit.grade, unit.root, rational), twice + 2 * shift


class EpsMonomial:
    """unit * q^(q_const + s_coeff * s) for a fixed residue size q.

    Normal form, q = p^f: the unit's rational has p-adic valuation in
    0..f-1, every whole power of q moved into q_const, and for square q
    (f even) a half-integer q_const is folded into the rational through
    the integer q^(1/2) = p^(f/2) first.  The half-integer q_const is kept
    doubled, as the int _twice, so equal values have equal int fields,
    which == and hash compare; the q_const property reads it as a Fraction.
    """

    __slots__ = ("q", "unit", "_twice", "s_coeff")

    def __init__(self, q: int, unit: LambdaGraded, q_const: Fraction, s_coeff: int):
        q_const = Fraction(q_const)
        if 2 % q_const.denominator:
            raise ValueError("q-exponents are half-integers in this theory")
        self.q = q
        self.unit, self._twice = _normal_q_power(
            q, unit, q_const.numerator * (2 // q_const.denominator)
        )
        self.s_coeff = s_coeff

    @classmethod
    def _of_twice(cls, q: int, unit: LambdaGraded, twice: int, s_coeff: int) -> EpsMonomial:
        """unit * q^(twice/2 + s_coeff * s): the q-exponent given doubled,
        as an int, so there is nothing to check or convert."""
        out = object.__new__(cls)
        out.q = q
        out.unit, out._twice = _normal_q_power(q, unit, twice)
        out.s_coeff = s_coeff
        return out

    @property
    def q_const(self) -> Fraction:
        return Fraction(self._twice, 2)

    def __truediv__(self, other: EpsMonomial) -> EpsMonomial:
        _same_q(self, other)
        return EpsMonomial._of_twice(self.q, self.unit * other.unit.inverse(),
                                     self._twice - other._twice, self.s_coeff - other.s_coeff)

    def scale(self, c) -> EpsMonomial:
        return EpsMonomial._of_twice(self.q, self.unit * c, self._twice, self.s_coeff)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpsMonomial):
            return NotImplemented
        return (
            self.unit is other.unit
            and self._twice == other._twice
            and self.s_coeff == other.s_coeff
            and self.q == other.q
        )

    def __hash__(self) -> int:
        return hash((self.q, self.s_coeff, self._twice, self.unit))

    def __repr__(self) -> str:
        return f"EpsMonomial({self.unit!r} * {self.q}^({self.q_const} + {self.s_coeff}*s))"

    def to_json(self) -> dict:
        return {**self.unit.to_json(), "q_exp": {"const": str(self.q_const), "s": self.s_coeff}}
