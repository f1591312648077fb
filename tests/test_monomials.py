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
    for unit in (LambdaGraded.one(), LambdaGraded.zero(), LambdaGraded.lambda_power(2, 5)):
        assert set(EpsMonomial(7, unit, Fraction(0), 0).to_json()) == {"unit", "lambda", "q_exp"}


def _assert_same_value(fast, generic):
    assert fast == generic and generic == fast
    assert (fast - generic).is_zero()
    assert fast.grade == generic.grade
    assert fast.coeff.order == generic.coeff.order
    assert abs(fast.coeff.complex_value() - generic.coeff.complex_value()) < 1e-9


def test_graded_scaling_matches_generic_product():
    w_sum = CycloNumber(3, {0: 1, 1: 1, 2: 1})  # a zero with three terms
    values = [LambdaGraded.lambda_power(0, CycloNumber(6, {1: 2, 5: Fraction(-1, 3)})),
              LambdaGraded.lambda_power(-1, RootOfUnity(1, 9)),
              LambdaGraded.lambda_power(2, CycloNumber(10, {7: 10**20}))]
    factors = [RootOfUnity(-1, 4), RootOfUnity(10**12 + 1, 7), RootOfUnity.one(),
               CycloNumber(4, {0: 1, 3: -2}), w_sum, CycloNumber.zero(5),
               Fraction(-3, 2), 0, 7]
    for g in values:
        for f in factors:
            generic = g * LambdaGraded.from_cyclo(f)  # the graded product
            for fast in (g * f, f * g):
                _assert_same_value(fast, generic)
                assert fast.is_zero() == (f == 0)
        assert (g * w_sum).is_zero() and (g * 0).is_zero()
        assert g * w_sum == LambdaGraded.zero() and LambdaGraded.zero() == 0 * g


def test_graded_equality_grade_on_one_side_only():
    z = RootOfUnity(1, 6).as_cyclo()
    w_sum = CycloNumber(3, {0: 1, 1: 1, 2: 1})
    one = LambdaGraded.one()
    other = LambdaGraded.lambda_power(1, z)
    for a, b in ((one, other), (other, one)):
        assert a != b and not (a == b)
        with pytest.raises(LLCError):
            a - b
    # a zero in disguise at another grade is zero, and adds as zero
    hidden = LambdaGraded.lambda_power(1, w_sum)
    assert hidden == LambdaGraded.zero() and LambdaGraded.zero() == hidden
    assert hidden != one and one != hidden
    assert one + hidden == one and hidden + one == one
    # equal grades stored at different orders compare through the lcm route
    z3 = RootOfUnity(2, 3).as_cyclo()
    lp = LambdaGraded.lambda_power
    assert lp(-1, z) == lp(-1, z3 * -1)
    assert (lp(-1, z) - lp(-1, z3 * -1)).is_zero()
    assert lp(-1, z) != lp(-1, z3)
    assert lp(2, z) != lp(-2, z) and lp(0, z) != lp(1, z)


def test_sum_across_two_grades_raises():
    c = CycloNumber(6, {1: 2, 5: Fraction(-1, 3)})
    with pytest.raises(LLCError):
        LambdaGraded.from_cyclo(c) + LambdaGraded.lambda_power(1, RootOfUnity(1, 4))
    with pytest.raises(LLCError):
        LambdaGraded.lambda_power(-2, 1) - LambdaGraded.lambda_power(3, c)
    assert (LambdaGraded.lambda_power(2, c) + LambdaGraded.lambda_power(2, c)
            == LambdaGraded.lambda_power(2, c * 2))


def test_zero_equals_zero_at_every_grade():
    w_sum = CycloNumber(3, {0: 1, 1: 1, 2: 1})
    zeros = [LambdaGraded.lambda_power(2, 0), LambdaGraded.lambda_power(-1, CycloNumber.zero(7)),
             LambdaGraded.lambda_power(-1, w_sum), LambdaGraded.zero()]
    for a in zeros:
        assert a.is_zero() and a.is_lambda_free()
        assert a.constant_part().is_zero()
        for b in zeros:
            assert a == b
        assert a != LambdaGraded.lambda_power(2, 1) and a != LambdaGraded.lambda_power(-1, 1)


def test_inverse_of_zero_raises_value_error():
    w_sum = CycloNumber(3, {0: 1, 1: 1, 2: 1})
    for z in (LambdaGraded.zero(), LambdaGraded.lambda_power(3, w_sum)):
        with pytest.raises(ValueError):
            z.inverse()
        with pytest.raises(ValueError):
            z ** -1
    g = LambdaGraded.lambda_power(2, RootOfUnity(1, 5))
    assert g ** -3 == LambdaGraded.lambda_power(-6, RootOfUnity(-3, 5))
    assert g ** 0 == LambdaGraded.one()


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
    c = CycloNumber(6, {1: 2, 5: Fraction(-1, 3)})
    for n in range(2, 7):
        for kappa_pi in (1, -1):
            for a in range(-2 * n, 2 * n + 1):
                got = LambdaGraded.lambda_power(a, c).reduce_lambda(n, kappa_pi)
                ((want_grade, want_coeff),) = _dict_fold({a: c}, n, kappa_pi).items()
                assert 0 <= got.grade < n
                assert got.grade == want_grade and got.coeff == want_coeff, (n, kappa_pi, a)
                assert got == LambdaGraded.lambda_power(want_grade, want_coeff)
