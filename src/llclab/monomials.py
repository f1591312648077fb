"""Epsilon-factor values as exact symbolic monomials.

An epsilon factor here is a unit times an exact power q^(a + b*s).  The unit
is one grade per value: a cyclotomic number times a single formal power of
the Langlands constant Lambda attached to the ramified degree-n extension.
We never evaluate Lambda numerically, we only track its exponent;
reduce_lambda collapses Lambda^n to the value kappa(pi) = +-1 of the
quadratic discriminant character at the uniformizer.  Zeta integrals
produce polynomials in q^(-s) with such units as coefficients; the closed
forms assert they collapse back to a single monomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .cyclotomic import CycloNumber, RootOfUnity
from .errors import LLCError, NotMonomial

_CoeffLike = int | Fraction | RootOfUnity | CycloNumber


def _as_cyclo(c: _CoeffLike) -> CycloNumber:
    if isinstance(c, CycloNumber):
        return c
    if isinstance(c, RootOfUnity):
        return c.as_cyclo()
    return CycloNumber.from_rational(c)


class LambdaGraded:
    """One term c * Lambda^a: an exact cyclotomic coefficient at one grade.

    Every value on the Galois side is a single power of Lambda times a
    cyclotomic number, so a product adds grades and multiplies coefficients
    once.  Zero is zero at every grade; a sum of nonzero values at two
    different grades is outside the theory and raises LLCError.
    """

    __slots__ = ("grade", "coeff")

    def __init__(self, grade: int, coeff: CycloNumber):
        self.grade = grade
        self.coeff = coeff

    @classmethod
    def from_cyclo(cls, c: _CoeffLike) -> LambdaGraded:
        return cls(0, _as_cyclo(c))

    @classmethod
    def lambda_power(cls, a: int, coeff: _CoeffLike = 1) -> LambdaGraded:
        return cls(a, _as_cyclo(coeff))

    @classmethod
    def zero(cls) -> LambdaGraded:
        return cls(0, CycloNumber.zero())

    @classmethod
    def one(cls) -> LambdaGraded:
        return cls(0, CycloNumber.one())

    @property
    def terms(self) -> dict[int, CycloNumber]:
        """Read-only {grade: coeff} view, empty for zero; perfbench's
        microbench reads its values."""
        return {} if self.is_zero() else {self.grade: self.coeff}

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def is_lambda_free(self) -> bool:
        return self.grade == 0 or self.is_zero()

    def constant_part(self) -> CycloNumber:
        """The Lambda^0 coefficient; errors if the value carries Lambda."""
        if not self.is_lambda_free():
            raise ValueError(f"value still carries Lambda^{self.grade}")
        return self.coeff

    def __add__(self, other: LambdaGraded) -> LambdaGraded:
        if self.grade == other.grade:
            return LambdaGraded(self.grade, self.coeff + other.coeff)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        raise LLCError(f"sum of Lambda^{self.grade} and Lambda^{other.grade} terms")

    def __neg__(self) -> LambdaGraded:
        return LambdaGraded(self.grade, -self.coeff)

    def __sub__(self, other: LambdaGraded) -> LambdaGraded:
        return self + (-other)

    def __mul__(self, other) -> LambdaGraded:
        if isinstance(other, LambdaGraded):
            return LambdaGraded(self.grade + other.grade, self.coeff * other.coeff)
        if isinstance(other, (CycloNumber, RootOfUnity, int, Fraction)):
            return LambdaGraded(self.grade, self.coeff * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LambdaGraded):
            return NotImplemented
        if self.grade == other.grade:
            return self.coeff == other.coeff
        return self.is_zero() and other.is_zero()

    __hash__ = None

    def inverse(self) -> LambdaGraded:
        if self.is_zero():
            raise ValueError("zero has no inverse")
        return LambdaGraded(-self.grade, self.coeff.inverse())

    def __pow__(self, k: int) -> LambdaGraded:
        base = self.inverse() if k < 0 else self
        return LambdaGraded(base.grade * abs(k), base.coeff ** abs(k))

    def reduce_lambda(self, n: int, kappa_pi: int) -> LambdaGraded:
        """Rewrite Lambda^n -> kappa_pi (+-1), folding the grade into 0..n-1."""
        if kappa_pi not in (1, -1):
            raise LLCError(f"kappa(pi) must be 1 or -1, not {kappa_pi!r}")
        folds, r = divmod(self.grade, n)
        return LambdaGraded(r, self.coeff * (kappa_pi if folds % 2 else 1))

    def __repr__(self) -> str:
        return f"LambdaGraded(({self.coeff!r})*L^{self.grade})"

    def to_json(self) -> dict:
        return {"unit": self.coeff.to_json(), "lambda": self.grade}


def _same_q(x, y) -> None:
    if x.q != y.q:
        raise LLCError(f"monomials over different residue sizes {x.q} and {y.q}")


class EpsMonomial:
    """unit * q^(q_const + s_coeff * s) for a fixed residue size q."""

    __slots__ = ("q", "unit", "q_const", "s_coeff")

    def __init__(self, q: int, unit: LambdaGraded, q_const: Fraction, s_coeff: int):
        self.q = q
        self.unit = unit
        self.q_const = Fraction(q_const)
        if 2 % self.q_const.denominator:
            raise ValueError("q-exponents are half-integers in this theory")
        self.s_coeff = s_coeff

    def __mul__(self, other: EpsMonomial) -> EpsMonomial:
        _same_q(self, other)
        return EpsMonomial(self.q, self.unit * other.unit,
                           self.q_const + other.q_const, self.s_coeff + other.s_coeff)

    def __truediv__(self, other: EpsMonomial) -> EpsMonomial:
        _same_q(self, other)
        return EpsMonomial(self.q, self.unit * other.unit.inverse(),
                           self.q_const - other.q_const, self.s_coeff - other.s_coeff)

    def scale(self, c) -> EpsMonomial:
        return EpsMonomial(self.q, self.unit * c, self.q_const, self.s_coeff)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpsMonomial):
            return NotImplemented
        if self.q != other.q:
            return False
        if self.unit.is_zero() and other.unit.is_zero():
            return True
        if self.s_coeff != other.s_coeff:
            return False
        delta = self.q_const - other.q_const
        if delta.denominator == 1:
            return self.unit * (Fraction(self.q) ** delta.numerator) == other.unit
        root = isqrt(self.q)
        if root * root == self.q:
            # q^(1/2) is the honest integer root, so half-integer offsets fold
            return self.unit * (Fraction(root) ** (2 * delta).numerator) == other.unit
        return False

    __hash__ = None

    def __repr__(self) -> str:
        return f"EpsMonomial({self.unit!r} * {self.q}^({self.q_const} + {self.s_coeff}*s))"

    def to_json(self) -> dict:
        return {**self.unit.to_json(), "q_exp": {"const": str(self.q_const), "s": self.s_coeff}}


class EpsPolynomial:
    """Exact polynomial in X = q^(-s) with LambdaGraded q-power coefficients.

    Terms are keyed by the power of X together with the fractional class of
    the accompanying q-exponent; like terms merge by rebasing to the smaller
    exponent.  For square q the half powers of q are integers and fold away
    at insertion, so canonical forms stay comparable across all grid sizes.
    """

    __slots__ = ("q", "terms")

    def __init__(self, q: int):
        self.q = q
        self.terms: dict[tuple[int, Fraction], tuple[LambdaGraded, Fraction]] = {}

    def add_term(self, x_power: int, coeff: LambdaGraded, q_exp: Fraction) -> None:
        q_exp = Fraction(q_exp)
        if 2 % q_exp.denominator:
            raise ValueError("q-exponents are half-integers in this theory")
        root = isqrt(self.q)
        if root * root == self.q and q_exp.denominator == 2:
            coeff = coeff * root
            q_exp = q_exp - Fraction(1, 2)
        frac = q_exp - (q_exp.numerator // q_exp.denominator)
        key = (x_power, frac)
        if key not in self.terms:
            self.terms[key] = (coeff, q_exp)
            return
        c0, e0 = self.terms[key]
        e = min(e0, q_exp)
        c = c0 * (Fraction(self.q) ** int(e0 - e)) + coeff * (Fraction(self.q) ** int(q_exp - e))
        self.terms[key] = (c, e)

    def cleaned(self) -> dict[tuple[int, Fraction], tuple[LambdaGraded, Fraction]]:
        return {k: v for k, v in self.terms.items() if not v[0].is_zero()}

    def is_zero(self) -> bool:
        return not self.cleaned()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpsPolynomial):
            return NotImplemented
        if self.q != other.q:
            return False
        a, b = self.cleaned(), other.cleaned()
        if set(a) != set(b):
            return False
        for key in a:
            ca, ea = a[key]
            cb, eb = b[key]
            delta = ea - eb
            if delta.denominator != 1:
                raise LLCError(f"q-exponents of one term differ by {delta}")
            if ca * (Fraction(self.q) ** delta.numerator) != cb:
                return False
        return True

    __hash__ = None

    def scale(self, c) -> EpsPolynomial:
        out = EpsPolynomial(self.q)
        for (v, _), (coeff, e) in self.terms.items():
            out.add_term(v, coeff * c, e)
        return out

    def collapse_to_monomial(self) -> EpsMonomial:
        """The value as a single monomial; NotMonomial if zero or spread out."""
        live = self.cleaned()
        if len(live) != 1:
            raise NotMonomial(f"{len(live)} surviving terms")
        (v, _), (coeff, e) = next(iter(live.items()))
        return EpsMonomial(self.q, coeff, e, -v)

    def __repr__(self) -> str:
        body = ", ".join(f"X^{v}: {c!r}*q^{e}" for (v, _), (c, e) in sorted(self.terms.items()))
        return f"EpsPolynomial(q={self.q}; {body})"

    def to_json(self) -> dict:
        out = []
        for (v, _), (c, e) in sorted(self.cleaned().items()):
            out.append({"x_power": v, "coeff": c.to_json(), "q_exp": str(e)})
        return {"q": self.q, "terms": out}
