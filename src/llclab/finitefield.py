"""Residue field arithmetic with full lookup tables.

Residue sizes in this laboratory never exceed a few dozen, so every
operation table (addition, multiplication, inverse, discrete log against a
fixed generator, trace to the prime field) is precomputed at construction.
Elements are plain ints in range(q) encoding polynomial coefficients in
base p; for prime q that is just the integer itself.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import LLCError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteField:
    """F_q with q = p^f, p an odd prime, f in {1, 2}."""

    def __init__(self, p: int, f: int = 1):
        if not is_prime(p) or p == 2:
            raise ValueError(f"p = {p} must be an odd prime")
        if f not in (1, 2):
            raise ValueError("only residue degrees 1 and 2 are supported")
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = self._find_modulus() if f == 2 else None
        self._build_tables()

    def _find_modulus(self) -> tuple[int, int]:
        # x^2 + c1*x + c0, first irreducible in lexicographic order
        p = self.p
        for c1 in range(p):
            for c0 in range(p):
                if all((x * x + c1 * x + c0) % p for x in range(p)):
                    return (c0, c1)
        raise LLCError("no irreducible quadratic found")

    def _digits(self, a: int) -> tuple[int, int]:
        return a % self.p, a // self.p

    def _raw_mul(self, a: int, b: int) -> int:
        p = self.p
        if self.f == 1:
            return (a * b) % p
        a0, a1 = self._digits(a)
        b0, b1 = self._digits(b)
        c0, c1 = self.modulus
        # (a0 + a1 x)(b0 + b1 x) mod x^2 + c1 x + c0
        hi = a1 * b1
        lo = a0 * b0 - hi * c0
        mid = a0 * b1 + a1 * b0 - hi * c1
        return (lo % p) + (mid % p) * p

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        if self.f == 1:
            self._add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self._neg = [(-a) % p for a in range(q)]
        else:
            def add2(a, b):
                a0, a1 = self._digits(a)
                b0, b1 = self._digits(b)
                return (a0 + b0) % p + ((a1 + b1) % p) * p
            self._add = [[add2(a, b) for b in range(q)] for a in range(q)]
            self._neg = [((p - a % p) % p) + ((p - a // p) % p) * p for a in range(q)]
        self._mul = [[self._raw_mul(a, b) for b in range(q)] for a in range(q)]
        self.gen = self._find_generator()
        self.exp = [1]
        for _ in range(q - 2):
            self.exp.append(self._mul[self.exp[-1]][self.gen])
        self._dlog = [None] * q
        for i, x in enumerate(self.exp):
            self._dlog[x] = i
        self._inv = [None] * q
        for x in range(1, q):
            self._inv[x] = self.exp[(q - 1 - self._dlog[x]) % (q - 1)]
        # absolute trace to F_p: Tr(x) = x + x^p for f = 2
        if self.f == 1:
            self._trace = list(range(q))
        else:
            self._trace = [self._add[x][self.pow(x, p)] % p for x in range(q)]

    def _find_generator(self) -> int:
        q = self.q
        for g in range(2, q):
            x, order = g, 1
            while x != 1:
                x = self._mul[x][g]
                order += 1
            if order == q - 1:
                return g
        raise LLCError("no generator found")

    # element operations -------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv[a]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ZeroDivisionError
            return 0 if k else 1
        return self.exp[(self._dlog[a] * k) % (self.q - 1)]

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("dlog of 0")
        return self._dlog[a]

    def trace(self, a: int) -> int:
        """Absolute trace to the prime field, as an int modulo p."""
        return self._trace[a]

    def scalar(self, k: int) -> int:
        """Image of the rational integer k in the field."""
        k %= self.p
        return k

    def scalar_mul(self, k: int, a: int) -> int:
        return self._mul[self.scalar(k)][a]

    def units(self) -> range:
        return range(1, self.q)

    def is_square(self, a: int) -> bool:
        if a == 0:
            return True
        return self._dlog[a] % 2 == 0

    def minus_one(self) -> int:
        return self._neg[1]

    def __repr__(self) -> str:
        return f"FiniteField({self.p}^{self.f})"


@lru_cache(maxsize=None)
def finite_field(p: int, f: int = 1) -> FiniteField:
    return FiniteField(p, f)


@lru_cache(maxsize=None)
def odd_prime_power(q: int) -> tuple[int, int]:
    """(p, f) with q = p^f for an odd prime p, for any f >= 1."""
    for p in range(3, q + 1, 2):
        if is_prime(p):
            f = 0
            m = q
            while m % p == 0 and m > 1:
                m //= p
                f += 1
            if m == 1 and f >= 1:
                return p, f
    raise ValueError(f"q = {q} is not an odd prime power")


@lru_cache(maxsize=None)
def field_of_size(q: int) -> FiniteField:
    """F_q from its size, factoring q as an odd prime power."""
    return finite_field(*odd_prime_power(q))
