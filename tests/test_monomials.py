from fractions import Fraction

import pytest

from llclab.cyclotomic import CycloNumber, RootOfUnity
from llclab.errors import LLCError, NotMonomial
from llclab.monomials import EpsMonomial, EpsPolynomial, LambdaGraded


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
    assert not red.is_lambda_free()


def test_negative_lambda_exponent_reduction():
    # Lambda^(-1) = Lambda^2 * (Lambda^3)^(-1) -> -Lambda^2 when kappa(pi) = -1
    x = LambdaGraded.lambda_power(-1)
    assert x.reduce_lambda(3, -1) == LambdaGraded.lambda_power(2, -1)


def test_lambda_arithmetic():
    a = LambdaGraded.lambda_power(1, RootOfUnity(1, 4))
    b = LambdaGraded.lambda_power(-1, RootOfUnity(3, 4))
    assert a * b == LambdaGraded.one()
    assert a * a.inverse() == LambdaGraded.one()
    assert (a - a).is_zero()
    with pytest.raises(ValueError):
        a.constant_part()


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
    assert a == b
    assert a != mono(5, 1, Fraction(1, 2), -1)
    assert a != mono(5, 1, Fraction(3, 2), 0)


def test_eps_monomial_square_q_half_powers():
    # over q = 9 the half powers of q are honest integers: 9^(1/2) = 3
    a = mono(9, 1, Fraction(1, 2), -1)
    b = mono(9, 3, Fraction(0), -1)
    assert a == b
    c = mono(7, 1, Fraction(1, 2), -1)
    assert c != mono(7, 3, Fraction(0), -1)


def test_eps_monomial_mul_div():
    a = mono(5, RootOfUnity(1, 3), Fraction(1, 2), -1)
    b = mono(5, RootOfUnity(2, 3), Fraction(-1), 0)
    p = a * b
    assert p == mono(5, 1, Fraction(-1, 2), -1)
    assert p / b == a


def test_eps_polynomial_merge_and_collapse():
    p = EpsPolynomial(5)
    p.add_term(1, LambdaGraded.from_cyclo(1), Fraction(1, 2))
    p.add_term(1, LambdaGraded.from_cyclo(4), Fraction(-1, 2))
    # 1*q^(1/2) + 4*q^(-1/2) at the same X-power merge into one coefficient
    m = p.collapse_to_monomial()
    assert m == mono(5, 9, Fraction(-1, 2), -1)


def test_eps_polynomial_not_monomial():
    p = EpsPolynomial(5)
    p.add_term(0, LambdaGraded.one(), Fraction(0))
    p.add_term(1, LambdaGraded.one(), Fraction(0))
    with pytest.raises(NotMonomial):
        p.collapse_to_monomial()
    empty = EpsPolynomial(5)
    with pytest.raises(NotMonomial):
        empty.collapse_to_monomial()


def test_eps_polynomial_cancellation():
    p = EpsPolynomial(3)
    z = RootOfUnity(1, 3)
    p.add_term(2, LambdaGraded.from_cyclo(z), Fraction(1))
    p.add_term(2, LambdaGraded.from_cyclo(z.as_cyclo() * -1), Fraction(1))
    p.add_term(0, LambdaGraded.one(), Fraction(1, 2))
    assert p.collapse_to_monomial() == mono(3, 1, Fraction(1, 2), 0)


def test_eps_polynomial_square_q_folding():
    p = EpsPolynomial(9)
    p.add_term(1, LambdaGraded.one(), Fraction(1, 2))
    q = EpsPolynomial(9)
    q.add_term(1, LambdaGraded.from_cyclo(3), Fraction(0))
    assert p == q


def test_monomial_json_shape():
    m = EpsMonomial(7, LambdaGraded.lambda_power(-1, RootOfUnity(1, 3)), Fraction(1, 2), -1)
    data = m.to_json()
    assert data["lambda"] == -1
    assert data["q_exp"] == {"const": "1/2", "s": -1}
    assert data["unit"]["order"] == 3


def _graded(grades):
    out = LambdaGraded.zero()
    for a, c in grades.items():
        out = out + LambdaGraded.lambda_power(a, c)
    return out


def _assert_same_value(fast, generic):
    assert fast == generic and generic == fast
    assert (fast - generic).is_zero()
    assert set(fast.terms) == set(generic.terms)
    for a, c in fast.terms.items():
        assert c.order == generic.terms[a].order
        assert abs(c.complex_value() - generic.terms[a].complex_value()) < 1e-9


def test_graded_scaling_matches_generic_product():
    w_sum = CycloNumber(3, {0: 1, 1: 1, 2: 1})  # a zero with three terms
    g = _graded({0: CycloNumber(6, {1: 2, 5: Fraction(-1, 3)}),
                 -1: RootOfUnity(1, 9), 2: CycloNumber(10, {7: 10**20})})
    factors = [RootOfUnity(-1, 4), RootOfUnity(10**12 + 1, 7), RootOfUnity.one(),
               CycloNumber(4, {0: 1, 3: -2}), w_sum, CycloNumber.zero(5),
               Fraction(-3, 2), 0, 7]
    for f in factors:
        generic = g * LambdaGraded.from_cyclo(f)  # convolution with init cleaning
        fast_products = [g * f, f * g] if isinstance(f, (int, Fraction)) else [g * f]
        for fast in fast_products:
            _assert_same_value(fast, generic)
            assert all(not c.is_zero() for c in fast.terms.values())
    assert (g * w_sum).terms == {} and (g * 0).terms == {}


def test_graded_equality_grade_on_one_side_only():
    z = RootOfUnity(1, 6).as_cyclo()
    one_grade = _graded({0: 1})
    two_grades = _graded({0: 1, 1: z})
    for a, b in ((one_grade, two_grades), (two_grades, one_grade)):
        assert a != b and not (a == b)
        assert not (a - b).is_zero()
    # the extra grade is zero in disguise: construction clears it
    assert _graded({0: 1, 1: CycloNumber(3, {0: 1, 1: 1, 2: 1})}) == one_grade
    # equal grades stored at different orders compare through the lcm route
    z3 = RootOfUnity(2, 3).as_cyclo()
    assert _graded({-1: z}) == _graded({-1: z3 * -1})
    assert (_graded({-1: z}) - _graded({-1: z3 * -1})).is_zero()
    assert _graded({-1: z}) != _graded({-1: z3})
    assert _graded({2: z}) != _graded({-2: z})
