import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from llclab.cyclotomic import CycloNumber, RootOfUnity, match_root
from llclab.errors import LLCError
from llclab.finitefield import odd_prime_power
from llclab.monomials import (
    _UNIT_PRODUCTS,
    _UNITS,
    EpsMonomial,
    LambdaGraded,
    _half_power,
    _normal_q_power,
    _unit,
)


# Oracle: the per-point integrals of test_zeta.py sum into a polynomial in
# q^(-s), which must collapse to the one monomial the library computes.


class NotMonomial(LLCError):
    """A polynomial in q^(-s) was expected to collapse to a single term."""


class EpsPolynomial:
    """{(power of X, fractional part f of the q-exponent): c}, the term
    c * q^f * X^power with c a cyclotomic sum; for square q the integer
    q^(1/2) folds into c, so equal values have equal terms."""

    def __init__(self, q):
        self.q = q
        self.terms = {}

    def add_term(self, x_power, coeff, q_exp):
        """Add coeff * q^q_exp * X^x_power."""
        q_exp = Fraction(q_exp)
        coeff = CycloNumber.one() * coeff
        half = _half_power(self.q)
        if half is not None and q_exp.denominator == 2:
            coeff, q_exp = coeff * half, q_exp - Fraction(1, 2)
        key = (x_power, q_exp % 1)
        coeff = coeff * Fraction(self.q) ** int(q_exp - key[1])
        self.terms[key] = self.terms[key] + coeff if key in self.terms else coeff

    def cleaned(self):
        return {k: c for k, c in self.terms.items() if not c.is_zero()}

    def __eq__(self, other):
        return self.q == other.q and self.cleaned() == other.cleaned()

    def scale(self, c):
        out = EpsPolynomial(self.q)
        out.terms = {k: coeff * c for k, coeff in self.terms.items()}
        return out

    def collapse_to_monomial(self):
        """The value as a single monomial; NotMonomial if zero or spread out."""
        live = self.cleaned()
        if len(live) != 1:
            raise NotMonomial(f"{len(live)} surviving terms")
        (((v, frac), coeff),) = live.items()
        return EpsMonomial(self.q, LambdaGraded.from_cyclo(coeff), frac, -v)


def mono(q, unit, const, s):
    return EpsMonomial(q, LambdaGraded.from_cyclo(unit), Fraction(const), s)


def test_lambda_cubed_reduces_to_sign():
    x = LambdaGraded.lambda_power(3)
    assert x.reduce_lambda(3, -1) == LambdaGraded.from_cyclo(-1)
    assert x.reduce_lambda(3, 1) == LambdaGraded.one()


def test_lambda_square_stays_formal():
    x = LambdaGraded.lambda_power(2)
    red = x.reduce_lambda(3, -1)
    assert red == LambdaGraded.lambda_power(2)
    assert red.grade != 0


def test_negative_lambda_exponent_reduction():
    # Lambda^(-1) = Lambda^2 * (Lambda^3)^(-1) -> -Lambda^2 when kappa(pi) = -1
    x = LambdaGraded.lambda_power(-1)
    assert x.reduce_lambda(3, -1) == LambdaGraded.lambda_power(2, -1)


def test_lambda_arithmetic():
    a = LambdaGraded.lambda_power(1, RootOfUnity(1, 4))
    b = LambdaGraded.lambda_power(-1, RootOfUnity(3, 4))
    assert a * b == LambdaGraded.one()
    assert a * a.inverse() == LambdaGraded.one()
    assert a ** 2 == LambdaGraded.lambda_power(2, -1)
    assert a.grade != 0 and (a * b).grade == 0


def test_malformed_operands_raise_llc_errors():
    # explicit raises, so the checks hold under python -O as well
    with pytest.raises(LLCError):
        LambdaGraded.lambda_power(3).reduce_lambda(3, 0)
    with pytest.raises(LLCError):
        mono(5, 1, Fraction(1, 2), -1) * mono(7, 1, Fraction(1, 2), -1)
    with pytest.raises(LLCError):
        mono(5, 1, Fraction(1, 2), -1) / mono(7, 1, Fraction(1, 2), -1)


def test_eps_monomial_equality_folds_q_powers():
    a = mono(5, 1, Fraction(3, 2), -1)
    b = mono(5, 5, Fraction(1, 2), -1)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != mono(5, 1, Fraction(1, 2), -1)
    assert a != mono(5, 1, Fraction(3, 2), 0)
    # normal form: every factor of a prime q leaves the rational
    for unit, const in [(5, Fraction(1, 2)), (Fraction(1, 25), Fraction(7, 2)), (Fraction(2, 5), Fraction(5, 2))]:
        c = mono(5, unit, const, -1)
        assert (c.unit.rational, c.q_const) == (unit * 5 ** (const - Fraction(3, 2)), Fraction(3, 2))
        assert c.to_json() == mono(5, c.unit.rational, Fraction(3, 2), -1).to_json()


def test_eps_monomial_square_q_half_powers():
    # over q = 9 the half powers of q are honest integers: 9^(1/2) = 3
    a = mono(9, 1, Fraction(1, 2), -1)
    b = mono(9, 3, Fraction(0), -1)
    assert a == b
    c = mono(7, 1, Fraction(1, 2), -1)
    assert c != mono(7, 3, Fraction(0), -1)
    # normal form: the half power folds into the rational through p = 3,
    # then whole powers of 9 leave it, so 3^0 or 3^1 stays behind
    for unit, const, rational, q_const in [
        (1, Fraction(1, 2), 3, 0),
        (27, Fraction(1, 2), 1, 2),
        (Fraction(1, 3), Fraction(1, 2), 1, 0),
        (Fraction(2, 27), Fraction(-1), 6, -3),
    ]:
        m = mono(9, unit, const, -1)
        assert (m.unit.rational, m.q_const) == (rational, q_const)
        assert m == mono(9, rational, q_const, -1)
    # every even f folds through q^(1/2) = p^(f/2): 81^(1/2) = 9 and
    # 729^(1/2) = 27, while 9 = 3^2 is a valid remainder at q = 81
    assert mono(81, 9, Fraction(0), -1) == mono(81, 1, Fraction(1, 2), -1)
    assert hash(mono(81, 9, Fraction(0), -1)) == hash(mono(81, 1, Fraction(1, 2), -1))
    assert mono(729, 27, Fraction(0), -1) == mono(729, 1, Fraction(1, 2), -1)
    for q, unit, const, rational, q_const in [
        (81, 1, Fraction(1, 2), 9, 0),
        (81, 3, Fraction(1, 2), 27, 0),
        (81, 81, Fraction(1, 2), 9, 1),
        (729, 1, Fraction(-1, 2), 27, -1),
        (729, 81, Fraction(1, 2), 3, 1),
        # odd f keeps its half power: 27^(1/2) is not rational
        (27, 1, Fraction(1, 2), 1, Fraction(1, 2)),
        (27, 81, Fraction(1, 2), 3, Fraction(3, 2)),
    ]:
        m = mono(q, unit, const, -1)
        assert (m.unit.rational, m.q_const) == (rational, q_const)
        assert m == mono(q, rational, q_const, -1)
    # a polynomial folds its half powers the same way, so what it
    # collapses to equals the monomial built directly
    for q in (9, 81, 729, 27):
        p = EpsPolynomial(q)
        p.add_term(1, 1, Fraction(1, 2))
        got = p.collapse_to_monomial()
        want = mono(q, 1, Fraction(1, 2), -1)
        assert got == want and got.to_json() == want.to_json()
        assert hash(got) == hash(want) and len({got, want}) == 1


class FractionEpsMonomial:
    """EpsMonomial with q_const kept as a Fraction and folded by Fraction
    arithmetic: the oracle for the library's doubled int exponent.  Its
    normal form is the library's: for square q a half-integer exponent
    folds into the rational through q^(1/2), then every whole power of q
    leaves the rational."""

    def __init__(self, q, unit, q_const, s_coeff):
        p, f = odd_prime_power(q)
        r, q_const = Fraction(unit.rational), Fraction(q_const)
        assert q_const.denominator in (1, 2)
        half = _half_power(q)
        if half is not None and q_const.denominator == 2:
            r, q_const = r * half, q_const - Fraction(1, 2)
        v, x = 0, r
        while x.numerator % p == 0:
            x, v = x / p, v + 1
        while x.denominator % p == 0:
            x, v = x * p, v - 1
        shift = v // f
        self.q = q
        self.unit = LambdaGraded(unit.grade, unit.root, r / Fraction(q) ** shift)
        self.q_const = q_const + shift
        self.s_coeff = s_coeff

    def __mul__(self, other):
        return FractionEpsMonomial(self.q, self.unit * other.unit,
                                   self.q_const + other.q_const, self.s_coeff + other.s_coeff)

    def __truediv__(self, other):
        return FractionEpsMonomial(self.q, self.unit * other.unit.inverse(),
                                   self.q_const - other.q_const, self.s_coeff - other.s_coeff)

    def scale(self, c):
        return FractionEpsMonomial(self.q, self.unit * c, self.q_const, self.s_coeff)

    def __eq__(self, other):
        return (self.q, self.s_coeff, self.q_const, self.unit) == (
            other.q, other.s_coeff, other.q_const, other.unit
        )

    def __hash__(self):
        return hash((self.q, self.s_coeff, self.q_const, self.unit))

    def __repr__(self):
        return f"EpsMonomial({self.unit!r} * {self.q}^({self.q_const} + {self.s_coeff}*s))"

    def to_json(self):
        return {**self.unit.to_json(), "q_exp": {"const": str(self.q_const), "s": self.s_coeff}}


def _agrees_with_oracle(got, want) -> bool:
    return (
        type(got.q_const) is Fraction
        and (got.q, got.unit, got.q_const, got.s_coeff) == (want.q, want.unit, want.q_const, want.s_coeff)
        and repr(got) == repr(want)
        and got.to_json() == want.to_json()
    )


@pytest.mark.parametrize("q", [3, 9, 25])
def test_eps_monomial_int_exponent_matches_fraction_oracle(q):
    # every half-integer exponent from -3 to 3 against units whose rational
    # carries powers of p on either side; ==, hash and the set of distinct
    # values must come out as with the Fraction exponent
    p = odd_prime_power(q)[0]
    rationals = (1, 2, p, q, p * q, Fraction(1, p), Fraction(2, q), Fraction(p * p, 4), Fraction(q * q, 7))
    units = [LambdaGraded(g, RootOfUnity(k, 6), r) for r in rationals for g, k in ((0, 0), (1, 5))]
    built = []
    for unit in units:
        for k in range(-6, 7):
            for s in (-1, 0):
                got = EpsMonomial(q, unit, Fraction(k, 2), s)
                want = FractionEpsMonomial(q, unit, Fraction(k, 2), s)
                assert _agrees_with_oracle(got, want), (got, want)
                built.append((got, want))
    for a, oa in built:
        for b, ob in built:
            assert (a == b) == (oa == ob)
            if a == b:
                assert hash(a) == hash(b)
    assert len({a for a, _ in built}) == len({oa for _, oa in built})
    rng = random.Random(q)
    for (a, oa), (b, ob) in rng.sample([(x, y) for x in built for y in built], 400):
        assert _agrees_with_oracle(a * b, oa * ob)
        assert _agrees_with_oracle(a / b, oa / ob)
        assert _agrees_with_oracle(a.scale(b.unit), oa.scale(ob.unit))
        assert _agrees_with_oracle(a.scale(Fraction(p, 4)), oa.scale(Fraction(p, 4)))


def test_normal_q_power_memo_reads_what_it_computes():
    # the memo is keyed by (q, unit, twice); units are interned, so a key
    # hashes by identity, and a second read returns the first result
    for q in (3, 9, 25):
        p = odd_prime_power(q)[0]
        for r in (1, p, q * p, Fraction(1, p), Fraction(2, q)):
            unit = LambdaGraded(1, RootOfUnity(1, 4), r)
            for twice in range(-3, 4):
                got = _normal_q_power(q, unit, twice)
                assert got == _normal_q_power.__wrapped__(q, unit, twice)
                assert _normal_q_power(q, unit, twice) is got


def test_eps_monomial_mul_div():
    a = mono(5, RootOfUnity(1, 3), Fraction(1, 2), -1)
    b = mono(5, RootOfUnity(2, 3), Fraction(-1), 0)
    p = a * b
    assert p == mono(5, 1, Fraction(-1, 2), -1)
    assert p / b == a


def test_eps_polynomial_merge_and_collapse():
    p = EpsPolynomial(5)
    p.add_term(1, 1, Fraction(1, 2))
    p.add_term(1, 4, Fraction(-1, 2))
    # 1*q^(1/2) + 4*q^(-1/2) at the same X-power merge into one coefficient
    m = p.collapse_to_monomial()
    assert m == mono(5, 9, Fraction(-1, 2), -1)


def test_eps_polynomial_not_monomial():
    p = EpsPolynomial(5)
    p.add_term(0, 1, Fraction(0))
    p.add_term(1, RootOfUnity.one(), Fraction(0))
    with pytest.raises(NotMonomial):
        p.collapse_to_monomial()
    empty = EpsPolynomial(5)
    with pytest.raises(NotMonomial):
        empty.collapse_to_monomial()


def test_eps_polynomial_cancellation():
    p = EpsPolynomial(3)
    z = RootOfUnity(1, 3)
    p.add_term(2, z, Fraction(1))
    p.add_term(2, z.as_cyclo() * -1, Fraction(1))
    p.add_term(0, Fraction(1), Fraction(1, 2))
    assert p.collapse_to_monomial() == mono(3, 1, Fraction(1, 2), 0)


def test_eps_polynomial_square_q_folding():
    p = EpsPolynomial(9)
    p.add_term(1, 1, Fraction(1, 2))
    q = EpsPolynomial(9)
    q.add_term(1, 3, Fraction(0))
    assert p == q


def test_monomial_json_shape():
    m = EpsMonomial(7, LambdaGraded.lambda_power(-1, RootOfUnity(1, 3)), Fraction(1, 2), -1)
    data = m.to_json()
    assert data["lambda"] == -1
    assert data["q_exp"] == {"const": "1/2", "s": -1}
    assert data["unit"]["order"] == 3
    for unit in (LambdaGraded.one(), LambdaGraded.from_cyclo(Fraction(-3, 2)),
                 LambdaGraded.lambda_power(2, 5)):
        assert set(EpsMonomial(7, unit, Fraction(0), 0).to_json()) == {"unit", "lambda", "q_exp"}


def _assert_normal_rational(r):
    # an int exactly when the denominator is 1, a Fraction otherwise, and
    # positive either way: never a float and never a whole Fraction
    assert type(r) in (int, Fraction) and r > 0
    assert (type(r) is int) == (r.denominator == 1)


def _assert_same_value(fast, generic):
    assert fast == generic and generic == fast and hash(fast) == hash(generic)
    assert (fast.grade, fast.root, fast.rational) == (generic.grade, generic.root, generic.rational)
    _assert_normal_rational(fast.rational)


def test_graded_scaling_matches_generic_product():
    values = [LambdaGraded.lambda_power(0, CycloNumber(3, {0: Fraction(-2, 3), 2: Fraction(-2, 3)})),
              LambdaGraded.lambda_power(-1, RootOfUnity(1, 9)),
              LambdaGraded.lambda_power(2, CycloNumber(10, {7: 10**20}))]
    factors = [RootOfUnity(-1, 4), RootOfUnity(10**12 + 1, 7), RootOfUnity.one(),
               Fraction(-3, 2), 7, -1]
    for g in values:
        for f in factors:
            generic = g * LambdaGraded.from_cyclo(f)  # the graded product
            for fast in (g * f, f * g):
                _assert_same_value(fast, generic)
        # sums are no units: scaling by one, or by zero, is refused
        for bad in (CycloNumber(4, {0: 1, 3: -2}), CycloNumber.one()):
            with pytest.raises(TypeError):
                g * bad
            with pytest.raises(TypeError):
                bad * g
        for zero in (0, Fraction(0)):
            with pytest.raises(LLCError):
                g * zero


def test_graded_equality_grade_on_one_side_only():
    z = RootOfUnity(1, 6).as_cyclo()
    one = LambdaGraded.one()
    other = LambdaGraded.lambda_power(1, z)
    for a, b in ((one, other), (other, one)):
        assert a != b and not (a == b)
    # equal grades stored at different orders meet in one normal form
    z3 = RootOfUnity(2, 3).as_cyclo()
    lp = LambdaGraded.lambda_power
    assert lp(-1, z) == lp(-1, z3 * -1) and hash(lp(-1, z)) == hash(lp(-1, z3 * -1))
    assert lp(-1, z) != lp(-1, z3)
    assert lp(2, z) != lp(-2, z) and lp(0, z) != lp(1, z)


def test_sum_across_two_grades_raises():
    # sums live in the polynomial oracle's cyclotomic coefficients, never in a unit
    a, b = LambdaGraded.one(), LambdaGraded.lambda_power(1, RootOfUnity(1, 4))
    for x, y in ((a, b), (b, a), (b, b)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y


def test_zero_equals_zero_at_every_grade():
    """Every spelling of zero is the same cyclotomic zero and vanishes from a
    polynomial, while at every grade it is refused as a unit."""
    w_sum = CycloNumber(3, {0: 1, 1: 1, 2: 1})  # a zero with three terms
    zeros = (0, Fraction(0), CycloNumber.zero(7), w_sum)
    p = EpsPolynomial(5)
    for v, zero in enumerate(zeros):
        assert CycloNumber.one() * zero == CycloNumber.zero(5) == CycloNumber.one() * zero
        p.add_term(v, zero, Fraction(1, 2))
        for a in (2, -1, 0):
            with pytest.raises(LLCError):
                LambdaGraded.lambda_power(a, zero)
    assert p.cleaned() == {} and p == EpsPolynomial(5) and EpsPolynomial(5) == p
    for a in (2, -1, 0):
        with pytest.raises(LLCError):
            LambdaGraded(a, RootOfUnity(1, 3), 0)


def test_inverse_of_zero_raises_value_error():
    """A zero unit is refused where it would be built, so no inverse of zero
    is ever reached; the inverse and powers of units stay exact."""
    w_sum = CycloNumber(3, {0: 1, 1: 1, 2: 1})
    g = LambdaGraded.lambda_power(2, RootOfUnity(1, 5))
    for build in (lambda: LambdaGraded.lambda_power(3, w_sum), lambda: g * 0,
                  lambda: Fraction(0) * g, lambda: LambdaGraded(-1, RootOfUnity.one(), 0)):
        with pytest.raises(LLCError):
            build()
    assert g ** -3 == LambdaGraded.lambda_power(-6, RootOfUnity(-3, 5))
    assert g ** -1 == g.inverse() and g * g.inverse() == LambdaGraded.one()
    assert g ** 0 == LambdaGraded.one()


def test_sign_folds_into_the_root():
    a = LambdaGraded(1, RootOfUnity(1, 3), Fraction(-2, 5))
    assert (a.root, a.rational) == (RootOfUnity(5, 6), Fraction(2, 5))
    assert a == LambdaGraded.lambda_power(1, RootOfUnity(5, 6).as_cyclo() * Fraction(2, 5))
    with pytest.raises(AttributeError):
        a.rational = Fraction(1)


def test_root_times_rational_unit_oracle():
    """Product, inverse, power and == of units against the same arithmetic
    on root.as_cyclo() * rational, the cyclotomic-sum representation."""
    rng = random.Random(2015)

    def draw():
        order = rng.randint(1, 60)
        rational = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 12))
        return LambdaGraded(rng.randint(-3, 3), RootOfUnity(rng.randrange(order), order), rational)

    def old(x):
        return x.grade, x.root.as_cyclo() * x.rational

    def old_eq(x, y):
        return x[0] == y[0] and x[1] == y[1]

    units = [draw() for _ in range(80)]
    # the same values again, with the sign moved out of the root
    units += [LambdaGraded(x.grade, x.root * RootOfUnity.minus_one(), -x.rational) for x in units[:20]]
    one = (0, CycloNumber.one())
    for _ in range(300):
        x, y = rng.choice(units), rng.choice(units)
        ox, oy = old(x), old(y)
        assert old_eq(old(x * y), (ox[0] + oy[0], ox[1] * oy[1]))
        assert old_eq((ox[0] + old(x.inverse())[0], ox[1] * old(x.inverse())[1]), one)
        k = rng.randint(-3, 3)
        want = one
        for _ in range(abs(k)):
            step = ox if k > 0 else old(x.inverse())
            want = (want[0] + step[0], want[1] * step[1])
        assert old_eq(old(x ** k), want)
        assert (x == y) == old_eq(ox, oy)
        if x == y:
            assert hash(x) == hash(y)
    assert sum(x == y for x in units for y in units) > len(units)


def _field_unit(grade, num, order, rational):
    # the fields of num/order * rational * Lambda^grade in normal form,
    # computed on the spot as the units were before they were interned:
    # the sign moved into the root by adding half a turn, both reduced
    rational = Fraction(rational)
    if rational < 0:
        num, order, rational = 2 * num + order, 2 * order, -rational
    num %= order
    g = gcd(num, order)
    whole = rational.numerator if rational.denominator == 1 else rational
    return grade, num // g, order // g, whole


def _field_product(x, y):
    # x * y for a unit x and a unit, root, int or Fraction y, on fields
    if isinstance(y, RootOfUnity):
        y = LambdaGraded(0, y)
    elif not isinstance(y, LambdaGraded):
        return _field_unit(x.grade, x.root.num, x.root.order, x.rational * y)
    a, b = x.root.order, y.root.order
    n = a * b // gcd(a, b)
    return _field_unit(x.grade + y.grade, x.root.num * (n // a) + y.root.num * (n // b), n,
                       x.rational * y.rational)


def _is_field_unit(got, fields) -> bool:
    grade, num, order, rational = fields
    return (
        type(got) is LambdaGraded
        and (got.grade, got.root.num, got.root.order, got.rational) == fields
        and type(got.rational) is type(rational)
        and got is _unit(grade, RootOfUnity(num, order), rational)
    )


def test_interned_unit_products_match_the_field_oracle():
    # graded products with a root, an int, a Fraction or a unit carry the
    # fields computed on the spot and are the one interned unit with them,
    # and repeating a product hands back the same object
    roots = [RootOfUnity(num, order) for order in (1, 2, 3, 4, 6, 9, 12, 25) for num in (-7, 1, 5)]
    rationals = (1, 2, Fraction(1, 3), Fraction(-4, 9), -6)
    units = [LambdaGraded(grade, root, r)
             for grade, root, r in zip((0, 1, -2, 3, 0, 5), roots[::4], rationals * 2)]
    for x in units:
        assert _is_field_unit(x, _field_unit(x.grade, x.root.num, x.root.order, x.rational))
        for y in (*roots, *units, 3, -1, Fraction(5, 2), Fraction(-2, 5), Fraction(4, 2)):
            got = x * y
            assert _is_field_unit(got, _field_product(x, y)), (x, y)
            assert x * y is got and y * x is got


def test_every_construction_path_returns_the_interned_unit():
    z = RootOfUnity(1, 6)
    want = LambdaGraded(2, z, Fraction(3, 2))
    made = [
        LambdaGraded(2, RootOfUnity(7, 6), Fraction(6, 4)),
        LambdaGraded(2, RootOfUnity(2, 3), Fraction(-3, 2)),
        LambdaGraded.lambda_power(2, z.as_cyclo() * Fraction(3, 2)),
        LambdaGraded.lambda_power(2, RootOfUnity(2, 3).as_cyclo() * Fraction(-3, 2)),
        LambdaGraded(2, *match_root(z.as_cyclo() * Fraction(3, 2))),
        _unit(2, z, Fraction(3, 2)),
        LambdaGraded.lambda_power(1, z) * LambdaGraded.lambda_power(1, Fraction(3, 2)),
        want.inverse().inverse(), (want**3) * want.inverse() ** 2,
        copy.copy(want), copy.deepcopy(want),
        *(pickle.loads(pickle.dumps(want, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    assert [x is want for x in made] == [True] * len(made)
    # a whole rational is stored, and keyed, as an int
    three = LambdaGraded(0, z, Fraction(6, 2))
    assert type(three.rational) is int and LambdaGraded(0, z, 3) is three
    size = len(_UNITS)
    assert LambdaGraded(0, z, Fraction(3)) is three and len(_UNITS) == size
    # the grade is part of the key
    assert LambdaGraded(1, z, 3) is not three and LambdaGraded(1, z, 3).grade == 1


def test_epsilon_values_are_root_times_rational():
    # every unit the engines hand out carries a root and a positive
    # rational, and no cyclotomic sum
    from llclab.galois import build_parameter, det_parameter, epsilon_galois, gauss_sum_bruteforce
    from llclab.matching import twist_char
    from llclab.supercuspidal import SSCDatum
    from llclab.zeta import closed_form_epsilon, gamma_automorphic

    zeta = RootOfUnity(2, 9)
    d = SSCDatum(5, 3, zeta, omega_exp=1, omega_at_pi=zeta**3, pi_unit=2)
    P = build_parameter(d)
    lam = twist_char(d.F, 1, 1)
    units = [
        gauss_sum_bruteforce(P.xi),
        gauss_sum_bruteforce(P.xi.twist_by_base(lam), m=3),
        epsilon_galois(P, lam).unit,
        closed_form_epsilon(d, lam).unit,
        gamma_automorphic(d, lam).unit,
        det_parameter(P).at_pi,
    ]
    for u in units:
        assert type(u) is LambdaGraded
        assert type(u.root) is RootOfUnity
        _assert_normal_rational(u.rational)
        assert not any(isinstance(getattr(u, f), CycloNumber) for f in LambdaGraded.__slots__)


@pytest.mark.parametrize("q,p", [(9, 3), (25, 5)])
def test_rationals_stay_in_normal_form(q, p):
    """Products, inverses, powers of either sign, Lambda reduction and
    EpsMonomial's q-power normalization keep every rational an int when
    whole and a Fraction otherwise, with the value Fraction arithmetic
    gives."""
    rng = random.Random(q)
    rats = [1, 2, p, q, p**3, Fraction(1, p), Fraction(1, q), Fraction(p, 2),
            Fraction(-q, 4), -1, Fraction(2, 3), Fraction(4, 2), Fraction(q * q, 1)]
    units = [LambdaGraded(rng.randint(-4, 4), RootOfUnity(rng.randrange(12), 12), r) for r in rats]
    for x, r in zip(units, rats):
        assert x.rational == abs(Fraction(r))
    seen = []
    for x in units:
        fx = Fraction(x.rational)
        inv = x.inverse()
        assert inv.rational == 1 / fx
        seen += [inv, x.reduce_lambda(3, -1), x.reduce_lambda(2, 1)]
        for k in range(-3, 4):
            assert (x**k).rational == fx**k
            seen.append(x**k)
        for y in units:
            assert (x * y).rational == fx * Fraction(y.rational)
            seen += [x * y, x * y.inverse(), x * y.rational, y.rational * x]
        for const in (0, Fraction(1, 2), Fraction(-3, 2), 2, -1):
            m = EpsMonomial(q, x, Fraction(const), -1)
            m2 = EpsMonomial(q, x.inverse(), Fraction(const), 1)
            seen += [m.unit, (m * m2).unit, (m / m2).unit, m.scale(Fraction(p, 7)).unit]
            assert m * m2 == EpsMonomial(q, LambdaGraded.one(), 2 * Fraction(const), 0)
    assert any(type(u.rational) is int for u in seen)
    assert any(type(u.rational) is Fraction for u in seen)
    for u in seen:
        _assert_normal_rational(u.rational)


def test_sqrt_q_is_not_a_unit():
    # the quadratic Gauss sum of F_5 is sqrt(5): no root times a rational,
    # so it cannot pose as one and break the half-integer branch of ==
    sqrt5 = CycloNumber(5, {1: 1, 2: -1, 3: -1, 4: 1})
    assert sqrt5 * sqrt5 == CycloNumber.from_rational(5)
    with pytest.raises(LLCError):
        LambdaGraded.from_cyclo(sqrt5)
    assert EpsMonomial(5, LambdaGraded.one(), Fraction(1, 2), -1) != EpsMonomial(
        5, LambdaGraded.one(), Fraction(0), -1
    )


def _dict_fold(terms, n, kappa_pi):
    """Oracle: the grade-by-grade fold of a dict {grade: coeff}."""
    out = {}
    for a, c in terms.items():
        r = a % n
        sign = 1 if kappa_pi == 1 or ((a - r) // n) % 2 == 0 else -1
        c = c * sign
        out[r] = out[r] + c if r in out else c
    return out


def test_reduce_lambda_matches_dict_fold():
    c = RootOfUnity(1, 6).as_cyclo() * Fraction(-1, 3)
    for n in range(2, 7):
        for kappa_pi in (1, -1):
            for a in range(-2 * n, 2 * n + 1):
                got = LambdaGraded.lambda_power(a, c).reduce_lambda(n, kappa_pi)
                ((want_grade, want_coeff),) = _dict_fold({a: c}, n, kappa_pi).items()
                assert 0 <= got.grade < n
                assert got.grade == want_grade, (n, kappa_pi, a)
                assert got.root.as_cyclo() * got.rational == want_coeff, (n, kappa_pi, a)
                assert got == LambdaGraded.lambda_power(want_grade, want_coeff)


def test_powers_and_reductions_are_computed_once():
    # an int power is the interned product of its factors, and a second
    # call reads the memo; a reduction is the interned unit of its fold
    roots = [RootOfUnity(num, order) for order in (1, 4, 9, 12) for num in (1, 5)]
    units = [LambdaGraded(grade, root, r)
             for grade, root, r in zip((0, 1, -2, 3, -1, 5, 2, -4), roots, (1, 2, Fraction(1, 3), -6) * 2)]
    for x in units:
        for k in range(-4, 5):
            want = LambdaGraded.one()
            for _ in range(abs(k)):
                want = want * (x if k > 0 else x.inverse())
            got = x**k
            assert got is want and x**k is got and _UNIT_PRODUCTS[(x, k)] is got, (x, k)
        for n in range(1, 7):
            for kappa_pi in (1, -1):
                got = x.reduce_lambda(n, kappa_pi)
                folds, r = divmod(x.grade, n)
                sign = kappa_pi if folds % 2 else 1
                assert got is LambdaGraded(r, x.root, x.rational * sign)
                assert x.reduce_lambda(n, kappa_pi) is got
                assert _UNIT_PRODUCTS[(x, n, kappa_pi)] is got
        size = len(_UNIT_PRODUCTS)
        for bad in (0, 2, -2):
            for _ in range(2):
                with pytest.raises(LLCError):
                    x.reduce_lambda(3, bad)
        # a bool exponent or sign is computed afresh and never stored
        assert x ** True is x**1 and x.reduce_lambda(2, True) is x.reduce_lambda(2, 1)
        assert len(_UNIT_PRODUCTS) == size
