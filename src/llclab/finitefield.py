"""Residue field arithmetic with full lookup tables.

F_q with q = p^f is F_p[x]/(m) for a monic irreducible m of degree f.
Every operation table (addition, multiplication, inverse, discrete log
against a fixed generator, trace to the prime field) is precomputed at
construction, q^2 entries each for addition and multiplication, so q
is bounded by MAX_FIELD_SIZE and checked before anything is factored or
built.  Elements are plain ints in range(q) whose base-p digits,
constant first, are the coefficients of a polynomial in x; for prime q
that is just the integer itself.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product

from .errors import LLCError

# Largest q built: its addition and multiplication tables hold q^2 =
# 262,144 entries each.  The cost grows as q^2: q = 2187 would need
# 4,782,969 entries per table, a few hundred MB.
MAX_FIELD_SIZE = 512


def _check_size(q: int) -> None:
    """Raise ValueError for a q above MAX_FIELD_SIZE, naming the size of
    the tables it would need."""
    if q > MAX_FIELD_SIZE:
        raise ValueError(
            f"q = {q} is above MAX_FIELD_SIZE = {MAX_FIELD_SIZE}: F_q would need "
            f"addition and multiplication tables of q^2 = {q * q:,} entries each"
        )


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _rem(c: list[int], d: tuple[int, ...], p: int) -> list[int]:
    """c modulo the monic polynomial whose coefficients below its leading 1
    are d, over F_p; coefficients constant first."""
    c, k = list(c), len(d)
    for top in range(len(c) - 1, k - 1, -1):
        for i, di in enumerate(d):
            c[top - k + i] -= c[top] * di
    return [x % p for x in c[:k]]


def _product(a: tuple[int, ...], b: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a * b in F_p[x]/(m), on coefficient tuples constant first."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    return tuple(_rem(conv, m, p))


def _irreducible(m: tuple[int, ...], p: int) -> bool:
    # trial division by every monic polynomial of degree at most f/2
    return all(
        any(_rem([*m, 1], d, p))
        for k in range(1, len(m) // 2 + 1)
        for d in product(range(p), repeat=k)
    )


class FiniteField:
    """F_q with q = p^f, p an odd prime, f >= 1 and q at most
    MAX_FIELD_SIZE, as F_p[x]/(m).

    m is the first monic irreducible of degree f, its coefficients read
    from x^(f-1) down to the constant in lexicographic order: x at f = 1.
    modulus holds the f coefficients below its leading 1, constant first."""

    def __init__(self, p: int, f: int = 1):
        if f < 1:
            raise ValueError(f"residue degree f = {f} must be at least 1")
        _check_size(p ** f)
        if not is_prime(p) or p == 2:
            raise ValueError(f"p = {p} must be an odd prime")
        self.p = p
        self.f = f
        self.q = p ** f
        self._build_tables()

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        # each element's coefficient tuple, constant first, in the order of
        # the ints: that is the modulus search order too
        digits = [d[::-1] for d in product(range(p), repeat=self.f)]
        index = {d: a for a, d in enumerate(digits)}
        self.modulus = next(m for m in digits if _irreducible(m, p))
        # digitwise addition, one more digit each round: a = low + n * top
        self._add = [[0]]
        for _ in range(self.f):
            n = len(self._add)
            self._add = [[row[bl] + n * ((at + bt) % p) for bt in range(p) for bl in range(n)]
                         for at in range(p) for row in self._add]
        self._neg = [row.index(0) for row in self._add]
        # the generator is the smallest g of order q - 1, and its powers are exp
        for g in range(2, q):
            exp, x = [1], digits[g]
            while x != digits[1]:
                exp.append(index[x])
                x = _product(x, digits[g], self.modulus, p)
            if len(exp) == q - 1:
                break
        else:
            raise LLCError("no generator found")
        self.gen, self.exp = g, exp
        self._dlog = [None] * q
        for i, x in enumerate(self.exp):
            self._dlog[x] = i
        log, exp2 = self._dlog, self.exp * 2
        self._mul = [[0] * q] + [[0] + [exp2[log[a] + log[b]] for b in range(1, q)] for a in range(1, q)]
        self._inv = [None] + [self.exp[-log[a] % (q - 1)] for a in range(1, q)]
        # absolute trace to F_p: Tr(x) = x + x^p + ... + x^(p^(f-1))
        self._trace = [reduce(self.add, (self.pow(a, p ** i) for i in range(self.f))) for a in range(q)]

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
def odd_prime_power(q: int) -> tuple[int, int]:
    """(p, f) with q = p^f for an odd prime p, for any f >= 1."""
    for p in range(3, q + 1, 2):
        if is_prime(p):
            f = 0
            m = q
            while m % p == 0 and m > 1:
                m //= p
                f += 1
            if m == 1:
                return p, f
    raise ValueError(f"q = {q} is not an odd prime power")


@lru_cache(maxsize=None)
def field_of_size(q: int) -> FiniteField:
    """F_q from its size, factoring q as an odd prime power."""
    _check_size(q)
    return FiniteField(*odd_prime_power(q))
