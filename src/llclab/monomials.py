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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .cyclotomic import CycloNumber, RootOfUnity, _norm_rat, match_root
from .errors import LLCError
from .finitefield import odd_prime_power

_Scalar = int | Fraction | RootOfUnity | CycloNumber


class LambdaGraded:
    """The unit root * rational * Lambda^grade, immutable and in normal form.

    The rational is positive, its sign folded into the root, and kept as
    an int when it is whole and as a Fraction otherwise (see cyclotomic._norm_rat),
    so equal values have equal fields: == and hash compare them directly,
    and products, inverses and powers never touch a cyclotomic sum.  Zero
    is not a unit and building it raises LLCError.
    """

    __slots__ = ("grade", "root", "rational")

    def __init__(self, grade: int, root: RootOfUnity, rational: int | Fraction = 1):
        rational = _norm_rat(rational)
        if rational.numerator <= 0:
            if rational.numerator == 0:
                raise LLCError("zero is not a unit")
            root, rational = root * RootOfUnity.minus_one(), -rational
        _unit(grade, root, rational, self)

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

    def __mul__(self, other) -> LambdaGraded:
        if isinstance(other, LambdaGraded):
            # in the Gauss checks one rational is always 1: reuse the other
            a, b = self.rational, other.rational
            return _unit(self.grade + other.grade, self.root * other.root,
                         b if a == 1 else a if b == 1 else _norm_rat(a * b))
        if isinstance(other, RootOfUnity):
            return _unit(self.grade, self.root * other, self.rational)
        if isinstance(other, (int, Fraction)):
            return LambdaGraded(self.grade, self.root, self.rational * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LambdaGraded):
            return NotImplemented
        return (self.grade, self.root, self.rational) == (other.grade, other.root, other.rational)

    def __hash__(self) -> int:
        return hash((self.grade, self.root, self.rational))

    def inverse(self) -> LambdaGraded:
        r = self.rational
        inv = _norm_rat(Fraction(r.denominator, r.numerator))
        return _unit(-self.grade, self.root.inverse(), inv)

    def __pow__(self, k: int) -> LambdaGraded:
        r = self.rational
        if k < 0:
            r = Fraction(r.denominator, r.numerator)
        return _unit(self.grade * k, self.root**k, _norm_rat(r ** abs(k)))

    def reduce_lambda(self, n: int, kappa_pi: int) -> LambdaGraded:
        """Rewrite Lambda^n -> kappa_pi (+-1), folding the grade into 0..n-1."""
        if kappa_pi not in (1, -1):
            raise LLCError(f"kappa(pi) must be 1 or -1, not {kappa_pi!r}")
        folds, r = divmod(self.grade, n)
        return LambdaGraded(r, self.root, self.rational * (kappa_pi if folds % 2 else 1))

    def __repr__(self) -> str:
        return f"LambdaGraded({self.rational}*{self.root!r}*L^{self.grade})"

    def to_json(self) -> dict:
        return {"unit": self.terms[self.grade].to_json(), "lambda": self.grade}


_SET_GRADE = LambdaGraded.grade.__set__
_SET_ROOT = LambdaGraded.root.__set__
_SET_RATIONAL = LambdaGraded.rational.__set__


def _unit(grade: int, root: RootOfUnity, rational: int | Fraction, out=None) -> LambdaGraded:
    """Fill out, or a fresh LambdaGraded, with fields already in normal
    form, past the immutability guard."""
    if out is None:
        out = object.__new__(LambdaGraded)
    _SET_GRADE(out, grade)
    _SET_ROOT(out, root)
    _SET_RATIONAL(out, rational)
    return out


def _same_q(x, y) -> None:
    if x.q != y.q:
        raise LLCError(f"monomials over different residue sizes {x.q} and {y.q}")


@lru_cache(maxsize=None)
def _half_power(q: int) -> int | None:
    """q^(1/2) as an integer, or None when q is not a square; the one rule
    for which half powers of q fold into a rational coefficient."""
    root = isqrt(q)
    return root if root * root == q else None


def _normal_q_power(q: int, unit: LambdaGraded, twice: int) -> tuple[LambdaGraded, int]:
    """unit * q^(twice/2) rewritten in EpsMonomial's normal form, the
    exponent kept as the integer twice/2 doubled."""
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

    def __mul__(self, other: EpsMonomial) -> EpsMonomial:
        _same_q(self, other)
        return EpsMonomial._of_twice(self.q, self.unit * other.unit,
                                     self._twice + other._twice, self.s_coeff + other.s_coeff)

    def __truediv__(self, other: EpsMonomial) -> EpsMonomial:
        _same_q(self, other)
        return EpsMonomial._of_twice(self.q, self.unit * other.unit.inverse(),
                                     self._twice - other._twice, self.s_coeff - other.s_coeff)

    def scale(self, c) -> EpsMonomial:
        return EpsMonomial._of_twice(self.q, self.unit * c, self._twice, self.s_coeff)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpsMonomial):
            return NotImplemented
        return (self.q, self.s_coeff, self._twice, self.unit) == (
            other.q, other.s_coeff, other._twice, other.unit
        )

    def __hash__(self) -> int:
        return hash((self.q, self.s_coeff, self._twice, self.unit))

    def __repr__(self) -> str:
        return f"EpsMonomial({self.unit!r} * {self.q}^({self.q_const} + {self.s_coeff}*s))"

    def to_json(self) -> dict:
        return {**self.unit.to_json(), "q_exp": {"const": str(self.q_const), "s": self.s_coeff}}
