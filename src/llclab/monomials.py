"""Epsilon-factor values as exact symbolic monomials.

An epsilon factor here is a unit times an exact power q^(a + b*s).  The unit
may carry a formal power of the Langlands constant Lambda attached to the
ramified degree-n extension: we never evaluate Lambda numerically, we only
track its exponent, and an opt-in rewrite collapses Lambda^n to the value
kappa(pi) = +-1 of the quadratic discriminant character at the uniformizer.
Zeta integrals produce polynomials in q^(-s) with such units as coefficients;
the closed forms assert they collapse back to a single monomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .cyclotomic import CycloNumber, Rational, RootOfUnity
from .errors import LLCError, NotMonomial

_CoeffLike = int | Fraction | RootOfUnity | CycloNumber


def _as_cyclo(c: _CoeffLike) -> CycloNumber:
    if isinstance(c, CycloNumber):
        return c
    if isinstance(c, RootOfUnity):
        return c.as_cyclo()
    return CycloNumber.from_rational(c)


class LambdaGraded:
    """Finite sum of terms c * Lambda^a with exact cyclotomic c."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, CycloNumber] | None = None):
        clean: dict[int, CycloNumber] = {}
        if terms:
            for a, c in terms.items():
                if not c.is_zero():
                    clean[a] = c
        self.terms = clean

    @classmethod
    def _from_clean(cls, terms: dict[int, CycloNumber]) -> LambdaGraded:
        """Wrap grades whose coefficients are all nonzero, skipping the
        zero-cleaning pass."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def from_cyclo(cls, c: _CoeffLike) -> LambdaGraded:
        return cls({0: _as_cyclo(c)})

    @classmethod
    def lambda_power(cls, a: int, coeff: _CoeffLike = 1) -> LambdaGraded:
        return cls({a: _as_cyclo(coeff)})

    @classmethod
    def zero(cls) -> LambdaGraded:
        return cls({})

    @classmethod
    def one(cls) -> LambdaGraded:
        return cls.from_cyclo(1)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.terms.values())

    def is_lambda_free(self) -> bool:
        return all(a == 0 or c.is_zero() for a, c in self.terms.items())

    def constant_part(self) -> CycloNumber:
        """The Lambda^0 coefficient; errors if other grades survive."""
        extra = [a for a, c in self.terms.items() if a != 0 and not c.is_zero()]
        if extra:
            raise ValueError(f"value still carries Lambda^{extra}")
        return self.terms.get(0, CycloNumber.zero())

    def __add__(self, other: LambdaGraded) -> LambdaGraded:
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out[a] + c if a in out else c
        return LambdaGraded(out)

    def __neg__(self) -> LambdaGraded:
        return LambdaGraded({a: -c for a, c in self.terms.items()})

    def __sub__(self, other: LambdaGraded) -> LambdaGraded:
        return self + (-other)

    def __mul__(self, other) -> LambdaGraded:
        if isinstance(other, LambdaGraded):
            out: dict[int, CycloNumber] = {}
            for a1, c1 in self.terms.items():
                for a2, c2 in other.terms.items():
                    a = a1 + a2
                    c = c1 * c2
                    out[a] = out[a] + c if a in out else c
            return LambdaGraded(out)
        if isinstance(other, CycloNumber):
            if other.is_zero():
                return LambdaGraded.zero()
        elif isinstance(other, (int, Fraction)):
            if other == 0:
                return LambdaGraded.zero()
        elif not isinstance(other, RootOfUnity):
            return NotImplemented
        # a product of nonzero field elements is nonzero: no grade clears
        return LambdaGraded._from_clean({a: c * other for a, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LambdaGraded):
            return NotImplemented
        mine, theirs = self.terms, other.terms
        for a, c in mine.items():
            d = theirs.get(a)
            if d is None:
                if not c.is_zero():
                    return False
            elif c != d:
                return False
        return all(a in mine or c.is_zero() for a, c in theirs.items())

    __hash__ = None

    def inverse(self) -> LambdaGraded:
        live = [(a, c) for a, c in self.terms.items() if not c.is_zero()]
        if len(live) != 1:
            raise ValueError("only graded monomials are invertible here")
        a, c = live[0]
        return LambdaGraded({-a: c.inverse()})

    def __pow__(self, k: int) -> LambdaGraded:
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        out = LambdaGraded.one()
        acc = base
        while k:
            if k & 1:
                out = out * acc
            acc = acc * acc
            k >>= 1
        return out

    def reduce_lambda(self, n: int, kappa_pi: int) -> LambdaGraded:
        """Rewrite Lambda^n -> kappa_pi (+-1), folding exponents into 0..n-1."""
        if kappa_pi not in (1, -1):
            raise LLCError(f"kappa(pi) must be 1 or -1, not {kappa_pi!r}")
        out: dict[int, CycloNumber] = {}
        for a, c in self.terms.items():
            r = a % n
            sign = 1 if kappa_pi == 1 or ((a - r) // n) % 2 == 0 else -1
            c = c * sign
            out[r] = out[r] + c if r in out else c
        return LambdaGraded(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "LambdaGraded(0)"
        body = " + ".join(f"({c!r})*L^{a}" for a, c in sorted(self.terms.items()))
        return f"LambdaGraded({body})"

    def to_json(self) -> dict:
        return {"terms": {str(a): c.to_json() for a, c in sorted(self.terms.items())}}


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

    def reduce_lambda(self, n: int, kappa_pi: int) -> EpsMonomial:
        return EpsMonomial(self.q, self.unit.reduce_lambda(n, kappa_pi),
                           self.q_const, self.s_coeff)

    def __repr__(self) -> str:
        return f"EpsMonomial({self.unit!r} * {self.q}^({self.q_const} + {self.s_coeff}*s))"

    def to_json(self) -> dict:
        live = [(a, c) for a, c in self.unit.terms.items() if not c.is_zero()]
        qexp = {"const": str(self.q_const), "s": self.s_coeff}
        if not live:
            return {"unit": CycloNumber.zero().to_json(), "lambda": 0, "q_exp": qexp}
        if len(live) == 1:
            a, c = live[0]
            return {"unit": c.to_json(), "lambda": a, "q_exp": qexp}
        return {"unit_terms": self.unit.to_json(), "q_exp": qexp}


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
