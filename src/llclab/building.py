"""Facet combinatorics of the standard apartment and the graded quotients
attached to its points.

Conventions.  The closed fundamental alcove is cut out by

    x_1 >= x_2 >= ... >= x_n >= x_1 - 1,

and a facet is recorded by which of the n walls are equalities: the
composition m = (m_1..m_k) lists the sizes of the maximal runs of equal
coordinates, and the flag t says whether the wrap-around wall
x_n = x_1 - 1 is an equality too.  t = 1 with a single block is the
empty facet.  The first positive jump r(x) of the filtration at x is the
smallest positive value of alpha(x) + m over affine roots, with the
integer grades of the diagonal torus always contributing 1.

At a point the grade-zero group is a product of general linear groups,
one per class of coordinates that agree modulo 1 (an equality on the
wrap-around wall merges the outer two runs into one class), and the
grade-r piece is a cyclic quiver on those classes.  An arrow is present
exactly when the spacing to the next class equals r; for barycenters all
arrows are present, and a single class gives the full matrix algebra as
a loop, diagonal included.

A point is stored as integer numerators over their least common
denominator, and every kernel here works on those integers.  Fractions are
built only in the read-outs that return them (ApartmentPoint.coords,
GradedQuotient.r, FacetSpec.dim_gap, and the reprs that print
them) and when a point is made from arbitrary rationals
(ApartmentPoint(coords), ApartmentPoint.parse).

Points, facets and graded quotients are immutable, and points and facets
keep the values computed from them: facet_of and graded_quotient store
their result on the point, and FacetSpec.barycenter on the facet, the
first time they are called, and hand the same object back afterwards.
A point outside the closed alcove stores nothing and raises on every
call.  The memo lives on the object, so it goes when the object goes; a
module-level cache keyed by the point would keep every point ever asked
about alive for the life of the process.  GradedQuotient holds the
denominator and not the point, so a point and its quotient form no
reference cycle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import EmptyFacet

# The largest n the facet census and the two parsers admit.  The census
# lists 2^n - 1 facets, and a facet's root counts cost the square of its
# largest block, so n = 16 already takes seconds and hundreds of MB.
# Kernels that take a point or a facet already built do not check it.
MAX_N = 12


def _check_size(n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the facet census bound {MAX_N}")


class FacetSpec:
    """A facet of the closed alcove: wall pattern (t, composition).

    Immutable; barycenter() is computed on the first call and kept in
    _bary."""

    __slots__ = ("t", "blocks", "_bary")

    def __init__(self, t: int, blocks):
        blocks = tuple(int(m) for m in blocks)
        if t not in (0, 1):
            raise ValueError("t must be 0 or 1")
        if not blocks or any(m < 1 for m in blocks):
            raise ValueError("blocks must be positive")
        _SET_T(self, t)
        _SET_BLOCKS(self, blocks)
        _SET_BARY(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("FacetSpec is immutable")

    def __delattr__(self, name):
        raise AttributeError("FacetSpec is immutable")

    def __reduce__(self):
        return FacetSpec, (self.t, self.blocks)

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    def is_empty(self) -> bool:
        return self.t == 1 and self.k == 1

    def is_alcove(self) -> bool:
        return self.t == 0 and all(m == 1 for m in self.blocks)

    def effective_blocks(self) -> tuple[int, ...]:
        """Class sizes after merging the outer runs when t = 1."""
        if self.is_empty():
            raise EmptyFacet(f"{self} has no points")
        if self.t == 0:
            return self.blocks
        m = self.blocks
        return (m[0] + m[-1],) + m[1:-1]

    def barycenter(self) -> ApartmentPoint:
        """The equal-spacing point of the facet, normalized so the block
        values are -i/k (t = 0) resp. -i/(k-1) (t = 1); the same object on
        every call."""
        b = self._bary
        if b is None:
            if self.is_empty():
                raise EmptyFacet(f"{self} has no points")
            den = self.k if self.t == 0 else self.k - 1
            nums = []
            for i, m in enumerate(self.blocks, start=1):
                nums.extend([-i] * m)
            b = ApartmentPoint._of_ints(nums, den)
            _SET_BARY(self, b)
        return b

    def dim_gap(self) -> Fraction:
        """dim G - dim V at the barycenter, via the class-size differences."""
        sizes = self.effective_blocks()
        K = len(sizes)
        total = sum((sizes[a] - sizes[(a + 1) % K]) ** 2 for a in range(K))
        return Fraction(total, 2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FacetSpec):
            return NotImplemented
        return self.t == other.t and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash((self.t, self.blocks))

    def __repr__(self) -> str:
        return f"FacetSpec(t={self.t}, m={','.join(str(m) for m in self.blocks)})"

    @classmethod
    def parse(cls, text: str) -> FacetSpec:
        """Parse the CLI form "t=0;m=2,2"."""
        form = f'a facet spec is written "t=0;m=2,2", got {text!r}'
        fields = {}
        for part in text.replace(" ", "").split(";"):
            key, _, val = part.partition("=")
            if key not in ("t", "m"):
                raise ValueError(f"unknown facet field {key!r}: {form}")
            fields[key] = val
        if len(fields) < 2:
            raise ValueError(f"facet spec needs both t=... and m=...: {form}")
        try:
            t = int(fields["t"])
            blocks = tuple(int(s) for s in fields["m"].split(","))
        except ValueError:
            raise ValueError(form) from None
        _check_size(sum(blocks))
        return cls(t, blocks)


class ApartmentPoint:
    """A point of the standard apartment with exact rational coordinates.

    It stores only integer numerators over their least common denominator,
    coords[i] == nums[i] / den, so (den, nums) is canonical: two points are
    equal exactly when their coordinates are.  Every kernel below works on
    those integers; coords builds the Fractions when a caller reads them.

    Immutable; facet_of, graded_quotient and is_barycenter keep their
    results in _facet, _gq and _is_bary."""

    __slots__ = ("den", "nums", "_facet", "_gq", "_is_bary")

    def __init__(self, coords):
        coords = [Fraction(c) for c in coords]
        if not coords:
            raise ValueError("need at least one coordinate")
        den = lcm(*(c.denominator for c in coords))
        _set_point(self, den, tuple(c.numerator * (den // c.denominator) for c in coords))

    @classmethod
    def _of_ints(cls, nums, den: int) -> ApartmentPoint:
        """The point with coordinates nums[i] / den, for den >= 1; dividing
        by the gcd of den and the numerators leaves the least common
        denominator."""
        if den < 1 or not nums:
            raise ValueError("need a positive denominator and at least one numerator")
        g = gcd(den, *nums)
        x = cls.__new__(cls)
        _set_point(x, den // g, tuple(v // g for v in nums))
        return x

    def __setattr__(self, name, value):
        raise AttributeError("ApartmentPoint is immutable")

    def __delattr__(self, name):
        raise AttributeError("ApartmentPoint is immutable")

    def __reduce__(self):
        return ApartmentPoint._of_ints, (self.nums, self.den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def n(self) -> int:
        return len(self.nums)

    def in_closed_alcove(self) -> bool:
        x = self.nums
        descending = all(a >= b for a, b in zip(x, x[1:]))
        return descending and x[-1] >= x[0] - self.den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ApartmentPoint):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def __repr__(self) -> str:
        return f"ApartmentPoint({', '.join(str(c) for c in self.coords)})"

    @classmethod
    def parse(cls, text: str) -> ApartmentPoint:
        parts = text.replace(" ", "").split(",")
        _check_size(len(parts))
        return cls([Fraction(s) for s in parts])


_SET_T = FacetSpec.t.__set__
_SET_BLOCKS = FacetSpec.blocks.__set__
_SET_BARY = FacetSpec._bary.__set__
_SET_DEN = ApartmentPoint.den.__set__
_SET_NUMS = ApartmentPoint.nums.__set__
_SET_FACET = ApartmentPoint._facet.__set__
_SET_GQ = ApartmentPoint._gq.__set__
_SET_IS_BARY = ApartmentPoint._is_bary.__set__


def _set_point(x: ApartmentPoint, den: int, nums: tuple) -> None:
    """Fill a new point's slots, the memo slots empty."""
    _SET_DEN(x, den)
    _SET_NUMS(x, nums)
    _SET_FACET(x, None)
    _SET_GQ(x, None)
    _SET_IS_BARY(x, None)


def jump_numerator(x: ApartmentPoint) -> int:
    """r(x) * x.den: the smallest positive (x_i - x_j) modulo 1 over all
    pairs of coordinates, in units of 1/x.den, the torus grades capping it
    at x.den.

    That is the smallest gap between cyclically consecutive residues of
    the numerators mod x.den: any other pair spans one of those gaps.  The
    gap from the largest residue round to the smallest is D minus their
    difference, and D itself when there is one residue."""
    D = x.den
    rs = sorted({v % D for v in x.nums})
    return min(b - a for a, b in zip(rs, [*rs[1:], rs[0] + D]))


def facet_of(x: ApartmentPoint) -> FacetSpec:
    """The facet of the closed alcove containing x, the same object on
    every call."""
    f = x._facet
    if f is None:
        if not x.in_closed_alcove():
            raise ValueError(f"{x} is outside the closed fundamental alcove")
        blocks = []
        run = 1
        for a, b in zip(x.nums, x.nums[1:]):
            if a == b:
                run += 1
            else:
                blocks.append(run)
                run = 1
        blocks.append(run)
        t = 1 if x.nums[-1] == x.nums[0] - x.den else 0
        f = FacetSpec(t, blocks)
        _SET_FACET(x, f)
    return f


def is_barycenter(x: ApartmentPoint) -> bool:
    """Whether x matches its facet's barycenter up to a global shift, that
    is, whether consecutive runs of equal coordinates are 1/k apart for a
    facet with k runs (1/(k-1) when the wrap-around wall holds).  The
    answer is kept on x."""
    bary = x._is_bary
    if bary is None:
        f = facet_of(x)
        step = f.k if f.t == 0 else f.k - 1
        bary = all(step * (a - b) == x.den for a, b in zip(x.nums, x.nums[1:]) if a != b)
        _SET_IS_BARY(x, bary)
    return bary


class GradedQuotient:
    """The grade-zero group and grade-r piece at a point, in cyclic-quiver
    normal form.

    sizes lists the coordinate classes modulo 1 in descending value order
    starting from the class of x_1; arrows lists the present quiver arrows
    as ordered node pairs (a, a+1 mod K).  A single class carries a loop
    arrow whose space is the full matrix algebra.  gaps lists the spacings
    to the next class in units of 1/den, den the point's denominator.

    Immutable, as graded_quotient hands the same object to every caller.
    """

    __slots__ = ("den", "sizes", "arrows", "gaps")

    def __init__(self, den, sizes, arrows, gaps):
        for setter, value in zip(_SET_QUOTIENT, (den, sizes, arrows, gaps)):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("GradedQuotient is immutable")

    def __delattr__(self, name):
        raise AttributeError("GradedQuotient is immutable")

    def __reduce__(self):
        return GradedQuotient, (self.den, self.sizes, self.arrows, self.gaps)

    @property
    def r(self) -> Fraction:
        return Fraction(min(self.gaps), self.den)

    @property
    def num_nodes(self) -> int:
        return len(self.sizes)

    @property
    def dim_g(self) -> int:
        return sum(m * m for m in self.sizes)

    @property
    def dim_v(self) -> int:
        return sum(self.sizes[a] * self.sizes[b] for a, b in self.arrows)

    def arrow_shape(self, arrow) -> tuple[int, int]:
        a, b = arrow
        return (self.sizes[a], self.sizes[b])

    def missing_arrows(self) -> tuple[tuple[int, int], ...]:
        K = self.num_nodes
        return tuple(
            (a, (a + 1) % K) for a in range(K) if (a, (a + 1) % K) not in self.arrows
        )

    def __repr__(self) -> str:
        return (
            f"GradedQuotient(r={self.r}, sizes={self.sizes}, "
            f"arrows={self.arrows})"
        )


_SET_QUOTIENT = tuple(getattr(GradedQuotient, name).__set__ for name in GradedQuotient.__slots__)


def graded_quotient(x: ApartmentPoint) -> GradedQuotient:
    """The graded quotient at x, the same object on every call."""
    gq = x._gq
    if gq is None:
        if not x.in_closed_alcove():
            raise ValueError(f"{x} is outside the closed fundamental alcove")
        # class key: distance below x_1 modulo 1 in units of 1/den, so key 0
        # is the class of x_1 and ascending keys walk the classes in
        # descending value order
        D = x.den
        first = x.nums[0]
        keys = [(first - v) % D for v in x.nums]
        distinct = sorted(set(keys))
        sizes = tuple(keys.count(kappa) for kappa in distinct)
        K = len(distinct)
        gaps = [b - a for a, b in zip(distinct, distinct[1:])]
        gaps.append(D - distinct[-1])
        r = min(gaps)
        arrows = tuple((a, (a + 1) % K) for a in range(K) if gaps[a] == r)
        gq = GradedQuotient(D, sizes, arrows, tuple(gaps))
        _SET_GQ(x, gq)
    return gq


def compositions(n: int):
    """Every composition of n >= 1, once each: bit i of the mask cuts after
    the (i+1)-th unit, masks in increasing order."""
    for mask in range(1 << (n - 1)):
        cuts = [i + 1 for i in range(n - 1) if mask >> i & 1]
        yield tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))


def enumerate_facets(n: int) -> list[FacetSpec]:
    """All nonempty facets of the closed alcove: every composition with
    t = 0, every composition into at least two parts with t = 1."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_size(n)
    comps = list(compositions(n))
    out = [FacetSpec(0, c) for c in comps]
    out.extend(FacetSpec(1, c) for c in comps if len(c) > 1)
    return out


def _alcove_pool_size(n: int, max_den: int) -> int:
    """How many distinct points sample_alcove_points(n, ..., max_den) can
    draw: the points of the closed alcove with x_1 = 0 and denominator at
    most max_den.

    At denominator D they are the C(D+n-1, n-1) descending choices of
    -x_2..-x_n in {0, 1/D, ..., 1}.  That grid holds the points of every
    exact denominator dividing D, so taking away the counts of the proper
    divisors (Moebius inversion, unrolled) leaves exact denominator D."""
    exact = [0] * (max_den + 1)
    for D in range(1, max_den + 1):
        exact[D] = comb(D + n - 1, n - 1) - sum(exact[d] for d in range(1, D) if D % d == 0)
    return sum(exact)


def sample_alcove_points(n: int, count: int, max_den: int = 12, seed: int = 20240815):
    """Seeded sample of count rational points of the closed alcove with
    bounded denominators, deduplicated modulo the center direction by
    pinning x_1 = 0.  Raises ValueError before the first draw when the
    alcove holds fewer than count such points, and when 200 * count draws
    find fewer."""
    if n < 1:
        raise ValueError("n must be positive")
    if max_den < 1:
        raise ValueError("max_den must be positive")
    pool = _alcove_pool_size(n, max_den)
    if count > pool:
        raise ValueError(
            f"sample_alcove_points(n={n}, max_den={max_den}) can draw only {pool} "
            f"distinct points, fewer than the {count} asked for"
        )
    rng = random.Random(seed)
    seen = set()
    out = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        den = rng.randint(1, max_den)
        rest = sorted((-rng.randint(0, den) for _ in range(n - 1)), reverse=True)
        x = ApartmentPoint._of_ints((0, *rest), den)
        if x in seen:
            continue
        seen.add(x)
        out.append(x)
    if len(out) < count:
        raise ValueError(
            f"sample_alcove_points(n={n}, max_den={max_den}) found only {len(out)} "
            f"distinct points of the {count} asked for in {attempts} draws"
        )
    return out
