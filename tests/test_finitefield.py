import random
from itertools import product

import pytest

from llclab import finitefield
from llclab.finitefield import MAX_FIELD_SIZE, FiniteField, field_of_size, is_prime

GRID_Q = [3, 5, 7, 9, 11, 13]

# odd prime powers of residue degree 3 and 4, and a square beyond the grid
WIDE_Q = [27, 81, 125, 49]


def all_fields():
    return [field_of_size(q) for q in GRID_Q]


class PrimeOrQuadratic:
    """Oracle: F_p and F_(p^2) built with code of their own for each
    degree, a quadratic modulus found by root search, and the generator
    found from the multiplication table."""

    def __init__(self, p, f):
        assert f in (1, 2)
        self.p, self.f, self.q = p, f, p**f
        self.modulus = None
        if f == 2:
            self.modulus = next(
                (c0, c1) for c1 in range(p) for c0 in range(p)
                if all((x * x + c1 * x + c0) % p for x in range(p))
            )
        q = self.q
        self._add = [[self._digitwise(a, b) for b in range(q)] for a in range(q)]
        self._neg = [self._digitwise(0, a, sign=-1) for a in range(q)]
        self._mul = [[self._raw_mul(a, b) for b in range(q)] for a in range(q)]
        self.gen = next(g for g in range(2, q) if self._order(g) == q - 1)
        self.exp = [1]
        for _ in range(q - 2):
            self.exp.append(self._mul[self.exp[-1]][self.gen])
        self._dlog = [None] * q
        for i, x in enumerate(self.exp):
            self._dlog[x] = i
        self._inv = [None] + [self.exp[(q - 1 - self._dlog[x]) % (q - 1)] for x in range(1, q)]
        if f == 1:
            self._trace = list(range(q))
        else:
            # Tr(x) = x + x^p
            frob = [self.exp[(self._dlog[x] * p) % (q - 1)] if x else 0 for x in range(q)]
            self._trace = [self._add[x][frob[x]] for x in range(q)]

    def _digitwise(self, a, b, sign=1):
        p = self.p
        return (a % p + sign * (b % p)) % p + ((a // p + sign * (b // p)) % p) * p

    def _raw_mul(self, a, b):
        p = self.p
        if self.f == 1:
            return a * b % p
        (a0, a1), (b0, b1), (c0, c1) = divmod(a, p)[::-1], divmod(b, p)[::-1], self.modulus
        # (a0 + a1 x)(b0 + b1 x) mod x^2 + c1 x + c0
        hi = a1 * b1
        return (a0 * b0 - hi * c0) % p + ((a0 * b1 + a1 * b0 - hi * c1) % p) * p

    def _order(self, g):
        x, order = g, 1
        while x != 1:
            x, order = self._mul[x][g], order + 1
        return order


TABLES = ("_add", "_neg", "_mul", "gen", "exp", "_dlog", "_inv", "_trace")


def test_tables_match_the_prime_and_quadratic_oracle():
    # one polynomial-basis construction gives, at every odd prime power up
    # to 25, the tables, generator and modulus of the per-degree code
    qs = [q for q in range(3, 26) if q in (9, 25) or (q % 2 and is_prime(q))]
    assert qs == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25]
    for q in qs:
        ff = field_of_size(q)
        oracle = PrimeOrQuadratic(ff.p, ff.f)
        for name in TABLES:
            assert getattr(ff, name) == getattr(oracle, name), (q, name)
        want = (0,) if ff.f == 1 else oracle.modulus
        assert ff.modulus == want, q


def test_field_of_size_factors_correctly():
    ff = field_of_size(9)
    assert (ff.p, ff.f, ff.q) == (3, 2, 9)
    ff = field_of_size(7)
    assert (ff.p, ff.f, ff.q) == (7, 1, 7)
    for bad in (2, 4, 8, 12, 15):
        with pytest.raises(ValueError):
            field_of_size(bad)


def test_is_prime_small():
    primes = [n for n in range(2, 30) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_modulus_is_irreducible_for_f9():
    ff = field_of_size(9)
    c0, c1 = ff.modulus
    # no root in F_3 means irreducible for a quadratic
    for x in range(3):
        assert (x * x + c1 * x + c0) % 3 != 0


def test_field_axioms_random():
    rng = random.Random(20240801)
    for ff in all_fields():
        for _ in range(60):
            a = rng.randrange(ff.q)
            b = rng.randrange(ff.q)
            c = rng.randrange(ff.q)
            assert ff.add(a, b) == ff.add(b, a)
            assert ff.mul(a, b) == ff.mul(b, a)
            assert ff.add(ff.add(a, b), c) == ff.add(a, ff.add(b, c))
            assert ff.mul(ff.mul(a, b), c) == ff.mul(a, ff.mul(b, c))
            assert ff.mul(a, ff.add(b, c)) == ff.add(ff.mul(a, b), ff.mul(a, c))
            assert ff.add(a, ff.neg(a)) == 0
            if a:
                assert ff.mul(a, ff.inv(a)) == 1


def test_frobenius_fixes_field():
    for ff in all_fields():
        for a in range(ff.q):
            assert ff.pow(a, ff.q) == a


def test_dlog_inverts_exp():
    for ff in all_fields():
        assert ff.dlog(ff.gen) == 1
        assert sorted(ff.exp) == list(range(1, ff.q))
        for a in ff.units():
            assert ff.exp[ff.dlog(a)] == a
        with pytest.raises(ZeroDivisionError):
            ff.dlog(0)


def test_trace_against_frobenius_formula():
    ff = field_of_size(9)
    for a in range(9):
        expected = ff.add(a, ff.pow(a, 3))
        assert expected < 3  # trace lands in the prime field
        assert ff.trace(a) == expected
    # prime field: trace is the identity
    ff = field_of_size(7)
    assert [ff.trace(a) for a in range(7)] == list(range(7))


def test_trace_is_additive_and_surjective():
    for ff in all_fields():
        p = ff.p
        for a in range(ff.q):
            for b in range(0, ff.q, max(1, ff.q // 5)):
                assert ff.trace(ff.add(a, b)) == (ff.trace(a) + ff.trace(b)) % p
        assert set(ff.trace(a) for a in range(ff.q)) == set(range(p))


def test_square_census():
    for ff in all_fields():
        squares = {ff.mul(a, a) for a in range(ff.q)}
        assert sum(1 for a in ff.units() if ff.is_square(a)) == (ff.q - 1) // 2
        for a in ff.units():
            assert ff.is_square(a) == (a in squares)


def test_scalar_embedding():
    for ff in all_fields():
        assert ff.scalar(0) == 0
        assert ff.scalar(1) == 1
        assert ff.scalar(ff.p) == 0
        a = 2 % ff.q
        total = 0
        for _ in range(5):
            total = ff.add(total, a)
        assert ff.scalar_mul(5, a) == total


def test_minus_one():
    for ff in all_fields():
        assert ff.add(1, ff.minus_one()) == 0


def test_even_characteristic_rejected():
    with pytest.raises(ValueError):
        FiniteField(2)
    with pytest.raises(ValueError):
        FiniteField(6)
    # every residue degree f >= 1 is a field; f = 0 is not
    with pytest.raises(ValueError):
        FiniteField(5, 0)


def test_sizes_above_the_bound_are_rejected_before_any_work(monkeypatch):
    # the bound admits every q the grid, the tests and the README use
    assert max(GRID_Q + WIDE_Q + [343]) <= MAX_FIELD_SIZE
    assert field_of_size(343).q == 343

    def no_work(*args):
        raise AssertionError("factored q or built a table")

    monkeypatch.setattr(finitefield, "odd_prime_power", no_work)
    monkeypatch.setattr(finitefield, "is_prime", no_work)
    monkeypatch.setattr(FiniteField, "_build_tables", no_work)
    for make in (lambda: field_of_size(2187), lambda: FiniteField(3, 7), lambda: FiniteField(1031)):
        with pytest.raises(ValueError, match=r"MAX_FIELD_SIZE = 512: .* entries each"):
            make()
    with pytest.raises(ValueError, match="4,782,969 entries"):
        field_of_size(2187)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_wide_modulus_has_no_factor():
    # brute factor search: no product of two monic polynomials of positive
    # degree is x^f + modulus
    for q in WIDE_Q:
        ff = field_of_size(q)
        p, f = ff.p, ff.f
        target = [*ff.modulus, 1]
        for k in range(1, f):
            for lo in product(range(p), repeat=k):
                for hi in product(range(p), repeat=f - k):
                    assert _poly_mul([*lo, 1], [*hi, 1], p) != target, (q, lo, hi)


def _power(ff, a, k):
    # repeated multiplication, independent of the log tables
    out = 1
    for _ in range(k):
        out = ff.mul(out, a)
    return out


def test_wide_fields_axioms_frobenius_and_trace():
    rng = random.Random(27)
    for q in WIDE_Q:
        ff = field_of_size(q)
        assert (ff.p ** ff.f, ff.q) == (q, q)
        for _ in range(200):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert ff.add(a, b) == ff.add(b, a)
            assert ff.mul(a, b) == ff.mul(b, a)
            assert ff.add(ff.add(a, b), c) == ff.add(a, ff.add(b, c))
            assert ff.mul(ff.mul(a, b), c) == ff.mul(a, ff.mul(b, c))
            assert ff.mul(a, ff.add(b, c)) == ff.add(ff.mul(a, b), ff.mul(a, c))
            assert ff.add(a, ff.neg(a)) == 0
            if a:
                assert ff.mul(a, ff.inv(a)) == 1
        for a in range(q):
            frob = [a]
            for _ in range(ff.f - 1):
                frob.append(_power(ff, frob[-1], ff.p))
            assert _power(ff, frob[-1], ff.p) == a
            total = 0
            for y in frob:
                total = ff.add(total, y)
            assert ff.trace(a) == total < ff.p
            for b in range(0, q, 7):
                assert ff.trace(ff.add(a, b)) == (ff.trace(a) + ff.trace(b)) % ff.p
        assert {ff.trace(a) for a in range(q)} == set(range(ff.p))
        assert sorted(ff.exp) == list(range(1, q))
