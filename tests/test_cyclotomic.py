import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

import llclab
from llclab.cyclotomic import (
    _ROOTS,
    CycloNumber,
    RootOfUnity,
    _root,
    cyclotomic_polynomial,
    euler_phi,
    match_root,
)
from llclab.errors import LLCError
from llclab.monomials import LambdaGraded


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(468) == 144


def test_root_of_unity_canonical():
    assert RootOfUnity(2, 4) == RootOfUnity(1, 2)
    assert RootOfUnity(5, 10) == RootOfUnity(1, 2)
    assert RootOfUnity(0, 7) == RootOfUnity.one()
    z = RootOfUnity(3, 7)
    assert z * z.inverse() == RootOfUnity.one()
    assert (z ** 7).is_one()


def _same_root(got: RootOfUnity, want: RootOfUnity) -> bool:
    return type(got) is RootOfUnity and (got.num, got.order, hash(got)) == (
        want.num, want.order, hash(want)
    )


def test_unchecked_roots_match_the_checked_constructor():
    # the unchecked constructor and the products, powers and inverses built
    # through it against RootOfUnity.__init__ on the lcm formula: orders 1,
    # equal and coprime, negative numerators and numerators past the order
    orders = (1, 2, 3, 4, 6, 9, 12, 25)
    nums = (-13, -7, -1, 0, 1, 2, 5, 8, 30)
    for order in orders:
        for num in nums:
            assert _same_root(_root(num, order), RootOfUnity(num, order))
    roots = [RootOfUnity(num, order) for order in orders for num in nums]
    for a in roots:
        for k in (-3, -1, 0, 1, 2, 7):
            assert _same_root(a**k, RootOfUnity(a.num * k, a.order))
        assert _same_root(a.inverse(), RootOfUnity(-a.num, a.order))
        for b in roots:
            n = a.order * b.order // gcd(a.order, b.order)
            want = RootOfUnity(a.num * (n // a.order) + b.num * (n // b.order), n)
            assert _same_root(a * b, want)
            assert a * b == b * a


# the grid of the test above
ORACLE_ORDERS = (1, 2, 3, 4, 6, 9, 12, 25)
ORACLE_NUMS = (-13, -7, -1, 0, 1, 2, 5, 8, 30)


def field_root(num: int, order: int) -> tuple[int, int]:
    # the fields of exp(2 pi i num/order) in lowest terms, computed on the
    # spot as the roots were before they were interned
    num %= order
    g = gcd(num, order)
    return num // g, order // g


def field_product(a: RootOfUnity, b: RootOfUnity) -> tuple[int, int]:
    n = a.order * b.order // gcd(a.order, b.order)
    return field_root(a.num * (n // a.order) + b.num * (n // b.order), n)


def _is_field_root(got: RootOfUnity, fields: tuple[int, int]) -> bool:
    return type(got) is RootOfUnity and (got.num, got.order) == fields and got is _root(*fields)


def test_interned_products_match_the_field_oracle():
    # a memoised product, power or inverse carries the fields the lcm
    # formula computes, is the one interned root with them, and a second
    # product of the same operands is the same object again
    roots = [RootOfUnity(num, order) for order in ORACLE_ORDERS for num in ORACLE_NUMS]
    for a in roots:
        assert _is_field_root(a, (a.num % a.order, a.order))
        for k in (-3, -1, 0, 1, 2, 7):
            assert _is_field_root(a**k, field_root(a.num * k, a.order))
        assert _is_field_root(a.inverse(), field_root(-a.num, a.order))
        for b in roots:
            got = a * b
            assert _is_field_root(got, field_product(a, b))
            assert a * b is got and b * a is got


def test_every_construction_path_returns_the_interned_root():
    want = RootOfUnity(3, 8)
    made = [
        RootOfUnity(3, 8), RootOfUnity(-5, 8), RootOfUnity(6, 16), _root(11, 8), _root(-10, 16),
        RootOfUnity.parse("3/8"), RootOfUnity.parse("-26/16"),
        match_root(want.as_cyclo() * Fraction(-5, 3))[0] * RootOfUnity.minus_one(),
        match_root(want.as_cyclo() * 7)[0],
        copy.copy(want), copy.deepcopy(want), copy.deepcopy({"z": [want]})["z"][0],
        *(pickle.loads(pickle.dumps(want, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    assert [x is want for x in made] == [True] * len(made)
    assert RootOfUnity.one() is RootOfUnity(5, 5) and RootOfUnity.minus_one() is _root(3, 6)


def test_a_root_of_large_order_adds_one_entry():
    # one dict keyed by the reduced pair, so no table per order is built
    size = len(_ROOTS)
    z = RootOfUnity(1, 10**12)
    assert len(_ROOTS) == size + 1
    assert RootOfUnity(10**12 + 1, 10**12) is z and RootOfUnity(2, 2 * 10**12) is z
    assert len(_ROOTS) == size + 1


OPTIMIZED_IMMUTABLE = """
from llclab.cyclotomic import RootOfUnity
from llclab.monomials import LambdaGraded
z = RootOfUnity(1, 4)
for obj, field, value in ((z, "num", 3), (z, "order", 8), (z, "other", 1),
                          (LambdaGraded(1, z, 2), "rational", 5),
                          (LambdaGraded(1, z, 2), "grade", 0)):
    for name, act in (("set", setattr), ("del", lambda o, f, v: delattr(o, f))):
        try:
            act(obj, field, value)
        except AttributeError:
            print("refused", name, type(obj).__name__, field)
        else:
            print("accepted", name, type(obj).__name__, field)
print(z.num, z.order, RootOfUnity(1, 4) is z)
"""


def test_roots_and_units_are_immutable_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(llclab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_IMMUTABLE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    fields = [("RootOfUnity", "num"), ("RootOfUnity", "order"), ("RootOfUnity", "other"),
              ("LambdaGraded", "rational"), ("LambdaGraded", "grade")]
    assert out.stdout.splitlines() == [
        f"refused {name} {kind} {field}" for kind, field in fields for name in ("set", "del")
    ] + ["1 4 True"], out.stdout


def test_roots_compare_by_identity_and_only_with_roots():
    z = RootOfUnity(1, 3)
    assert z.__eq__(z.as_cyclo()) is NotImplemented and z.__eq__((1, 3)) is NotImplemented
    assert z == z.as_cyclo() and z != (1, 3) and z != 1
    assert hash(z) == object.__hash__(z)
    with pytest.raises(ValueError):
        RootOfUnity(1, 0)


def test_i_times_i_is_minus_one():
    i = RootOfUnity(1, 4).as_cyclo()
    assert i * i == CycloNumber.from_rational(-1)


def test_cube_root_sum_vanishes():
    w = RootOfUnity(1, 3).as_cyclo()
    assert (1 + w + w * w).is_zero()


def test_conjugate_cancels():
    z = RootOfUnity(3, 7).as_cyclo()
    assert z.conj() * z == CycloNumber.from_rational(1)


def test_mixed_order_equality():
    # zeta_6 = -zeta_3^2 across different stored orders
    z6 = RootOfUnity(1, 6).as_cyclo()
    z3 = RootOfUnity(2, 3).as_cyclo()
    assert z6 == -1 * z3 * CycloNumber.from_rational(-1) * -1
    assert z6 == z3 * Fraction(-1)


def test_canonical_matches_numerics():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([5, 8, 12, 21, 36])
        a = CycloNumber(n, {rng.randrange(n): rng.randint(-4, 4) for _ in range(5)})
        b = CycloNumber(n, {rng.randrange(n): rng.randint(-4, 4) for _ in range(5)})
        lhs = (a * b - b * a).is_zero()
        assert lhs  # commutativity sanity
        diff = a * b + a - (b * a + a)
        assert abs(diff.complex_value()) < 1e-9
        canon_zero = CycloNumber(n, dict(a.terms))
        canon_zero = canon_zero - a
        assert canon_zero.is_zero() and abs(canon_zero.complex_value()) < 1e-9


def test_reduction_mod_phi_nontrivial():
    # zeta_4^2 has exponent above phi(4) and must reduce to -1
    x = CycloNumber(4, {2: 1})
    assert x == CycloNumber.from_rational(-1)
    assert x.rational_value() == -1
    # full-orbit sum over the primitive 5th roots is -1... plus 1 gives 0
    s = CycloNumber(5, {1: 1, 2: 1, 3: 1, 4: 1})
    assert s.rational_value() == -1


def test_inverse_random():
    # a unit root * r inverts as root^-1 / r; the sum representation agrees
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice([4, 5, 12])
        r = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        x = RootOfUnity(rng.randrange(n), n).as_cyclo().lift(n) * r * rng.choice([-1, 1])
        root, rat = match_root(x)
        assert x * (root.inverse().as_cyclo() * (1 / rat)) == CycloNumber.from_rational(1)


def test_galois_and_conj():
    # complex conjugation is the Galois automorphism zeta_12 -> zeta_12^11
    z = CycloNumber(12, {1: 1, 5: 2})
    assert CycloNumber(12, {11: 1, 55: 2}) == z.conj()
    assert z.conj().conj() == z
    root, r = match_root(RootOfUnity(5, 12).as_cyclo() * 3)
    assert match_root((RootOfUnity(5, 12).as_cyclo() * 3).conj()) == (root.inverse(), r)


def test_json_round_trip():
    z = CycloNumber(12, {7: Fraction(3, 2), 2: -1})
    data = z.to_json()
    again = CycloNumber(data["order"], {int(e): Fraction(c) for e, c in data["coeffs"].items()})
    assert z == again


def test_parse_root():
    assert RootOfUnity.parse("3/8") == RootOfUnity(3, 8)
    assert RootOfUnity.parse("0/1").is_one()


def _generic_equal(x, y):
    a, b = x._pair(y)
    return (a - b).is_zero()


@pytest.mark.parametrize("order, root_order", [(6, 4), (15, 9), (10, 4), (12, 8), (7, 1)])
def test_root_rotation_matches_generic_product(order, root_order):
    big = 10**30 + 7
    nums = [-1, -root_order - 3, 0, 1, root_order - 1, 10**12 + 5, -(10**15)]
    numbers = [
        CycloNumber(order, {0: 3, 1: -2, order - 1: Fraction(7, 3), order // 2: big}),
        CycloNumber(order, {e: 1 for e in range(order)}),  # Phi-multiple, value 0 if order > 1
        CycloNumber(order, {order - 1: -big}),
    ]
    for x in numbers:
        for num in nums:
            r = RootOfUnity(num, root_order)
            prod = x * r
            # the product written out by hand, sharing no code with it: at
            # L = lcm(order, r.order) exponent e moves to e L/order + num
            # L/r.order, and distinct exponents stay distinct
            L = order * r.order // gcd(order, r.order)
            generic = CycloNumber(L, {(e * L // order + r.num * L // r.order) % L: c
                                      for e, c in x.terms.items()})
            assert prod.order == generic.order == L
            assert prod.terms == generic.terms
            assert prod.canonical() == generic.canonical()
            assert prod == generic and _generic_equal(prod, generic)
            assert len(prod.terms) == len(x.terms)  # a rotation merges nothing
            assert prod.is_zero() == x.is_zero()
            expect = x.complex_value() * r.as_cyclo().complex_value()
            assert abs(prod.complex_value() - expect) <= 1e-9 * max(1.0, abs(expect))


def test_same_order_equality_matches_generic():
    # 1 + z3 + z3^2 against zero, at one order with different representatives
    w_sum = CycloNumber(3, {0: 1, 1: 1, 2: 1})
    zero = CycloNumber.zero(3)
    assert w_sum == zero and zero == w_sum and _generic_equal(w_sum, zero)
    one = CycloNumber.from_rational(1, 3)
    assert w_sum != one and not _generic_equal(w_sum, one)
    # exponents >= phi(N) against the reduced representative
    assert CycloNumber(4, {2: 1, 3: 5}) == CycloNumber(4, {0: -1, 1: -5})
    assert CycloNumber(4, {2: Fraction(4, 2)}) == CycloNumber(4, {0: -2})
    rng = random.Random(3)
    for _ in range(60):
        n = rng.choice([5, 8, 9, 12, 15, 36])
        phi = cyclotomic_polynomial(n)
        x = CycloNumber(n, {rng.randrange(n): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in range(6)})
        # add c * z^j * Phi_n(z), which is zero, with exponents above phi(n)
        j = rng.randrange(n)
        c = rng.randint(1, 5)
        disguised = x + CycloNumber(n, {j + i: c * p for i, p in enumerate(phi) if p})
        reduced = CycloNumber(n, dict(x.canonical()))
        for y in (disguised, reduced):
            assert y.order == x.order
            assert (y == x) and _generic_equal(y, x)
            assert abs(y.complex_value() - x.complex_value()) < 1e-9
        other = disguised + CycloNumber(n, {rng.randrange(n): 1})
        assert (other == x) == _generic_equal(other, x)
        assert (other == x) == (abs(other.complex_value() - x.complex_value()) < 1e-9)


def test_mixed_products_match_reflected_order():
    z = RootOfUnity(5, 12)
    c = CycloNumber(6, {0: 2, 1: -1, 5: Fraction(1, 3)})
    assert z * c == c * z
    assert (z * c).complex_value() == pytest.approx(z.as_cyclo().complex_value() * c.complex_value())
    for g in (LambdaGraded.lambda_power(2, RootOfUnity(1, 6).as_cyclo() * 3),
              LambdaGraded.lambda_power(-1, RootOfUnity(1, 4))):
        for f in (z, Fraction(-3, 2), 7):
            assert f * g == g * f
            assert (f * g).grade == g.grade
        with pytest.raises(TypeError):
            c * g
    for x in (z, c):
        with pytest.raises(TypeError):
            x * "not a number"


# ----- the recogniser: a sum as root * rational --------------------------


def test_root_recognition_does_not_rest_on_floating_point():
    # zeta_6 plus a huge multiple of 1 + zeta_3 + zeta_3^2 = 0: the complex
    # value of the raw input is noise, so the root must come from exact work
    big = 10**20
    c = CycloNumber(6, {1: 1, 0: big, 2: big, 4: big})
    assert abs(c.complex_value() - RootOfUnity(1, 6).as_cyclo().complex_value()) > 1
    assert match_root(c) == (RootOfUnity(1, 6), 1)
    assert match_root(c.lift(12)) == (RootOfUnity(1, 6), 1)
    assert match_root(c * 2) == (RootOfUnity(1, 6), 2)
    with pytest.raises(LLCError):
        match_root(c + 1)
    # the same disguised zero beyond float range
    huge = 10**400
    c = CycloNumber(6, {1: 1, 0: huge, 2: huge, 4: huge})
    with pytest.raises(OverflowError):
        c.complex_value()
    assert match_root(c) == (RootOfUnity(1, 6), 1)
    # a rational beyond float range leaves no phase to read: the exact scan
    # finds the root
    assert match_root(CycloNumber(6, {5: -huge})) == (RootOfUnity(1, 3), huge)


def test_recogniser_cases():
    # a root whose canonical form has several terms: Phi_9 has degree 6
    z97 = RootOfUnity(7, 9).as_cyclo()
    assert len(z97.canonical()) > 1
    assert match_root(z97) == (RootOfUnity(7, 9), 1)
    # a negative non-integral rational folds its sign into the root
    root, r = match_root(RootOfUnity(5, 12).as_cyclo() * Fraction(-3, 2))
    assert (root, r) == (RootOfUnity(11, 12), Fraction(3, 2))
    assert type(r) is Fraction
    # a rational alone lives at order 2
    assert match_root(CycloNumber.from_rational(-7)) == (RootOfUnity.minus_one(), 7)
    # zero and non-units are refused
    sqrt5 = CycloNumber(5, {1: 1, 2: -1, 3: -1, 4: 1})
    for c in (CycloNumber.zero(6), CycloNumber(3, {0: 1, 1: 1, 2: 1}),
              CycloNumber(5, {0: 1, 1: 1}), sqrt5, CycloNumber(4, {0: 3, 1: 4})):
        with pytest.raises(LLCError):
            match_root(c)
    # (3 + 4i)/5 has |c|^2 = 1 and still is no root of unity
    with pytest.raises(LLCError):
        match_root(CycloNumber(4, {0: Fraction(3, 5), 1: Fraction(4, 5)}))


@lru_cache(maxsize=None)
def _phi_by_divisor_division(n):
    """Oracle: x^n - 1 divided exactly by Phi_d for every proper divisor d."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = _phi_by_divisor_division(d)
        deg = len(den) - 1
        quot = [0] * (len(num) - deg)
        for i in range(len(num) - 1, deg - 1, -1):
            c = num[i]
            quot[i - deg] = c
            for j, p in enumerate(den):
                num[i - deg + j] -= c * p
        assert not any(num), f"x^{n}-1 not divisible by Phi_{d}"
        num = quot
    return tuple(num)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def test_cyclotomic_polynomial_matches_divisor_division():
    for n in list(range(1, 401)) + [1950, 3900]:
        phi = cyclotomic_polynomial(n)
        assert phi == _phi_by_divisor_division(n), n
        assert all(type(c) is int for c in phi)
        assert euler_phi(n) == len(phi) - 1 == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_cyclotomic_polynomials_multiply_to_x_n_minus_one():
    for n in list(range(1, 121)) + [210, 360, 1950]:
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n
