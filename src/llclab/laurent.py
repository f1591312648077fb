"""Truncated Laurent series over a finite residue field.

Two flavours of local field live here: the base field, formal Laurent
series in t over F_q, and a totally ramified extension of degree n whose
variable u satisfies u^n = u0*t for a fixed residue unit u0.  Carrying u0
in the defining relation (instead of insisting on u^n = t) lets the
extension be generated by an n-th root of an arbitrary uniformizer u0*t
of the base field.

Precision is absolute and explicit.  An element knows its coefficients at
all exponents below ``prec``; ``prec=None`` means exact.  Any operation
that would have to read an unknown coefficient raises
InsufficientPrecision instead of guessing.

Representation and kernels.  An element stores the dense tuple of its
coefficients from its valuation ``val`` up to its last nonzero term, with
no zero at either end and nothing at or beyond ``prec``.  The arithmetic
lives in kernels on bare (val, coeffs, prec) triples, the same three
fields without the field: ``add_t``, ``neg_t``, ``mul_t``, ``inverse_t``,
``dot_t``, the fused ``addmul_t`` (z + c*y in one list), ``cancel_t``
(the zero z + c*y is when c = -z * y^-1), ``truncate_t``,
``coeff_at_t``, ``val_at_least_t``, ``minors_t`` and ``det_t``, and
``digits_t`` builds an exact triple from drawn digits.  They hold the
one copy of the window and precision rules, and the library computes
on them alone.  ``LaurentElem`` is a value: construction, reading,
``==``, ``repr`` and JSON.  Its ``+``, ``*`` and ``inverse`` wrap
``add_t``, ``mul_t`` and ``inverse_t`` only because the benchmark's
per-layer timings call them; nothing in the library does.  ``MatG`` stores its entries as triples, so its
product calls ``dot_t`` per entry on the stored rows, its determinant
and the norm to the base field call ``det_t`` on rows of triples, and
``bruhat.decompose`` eliminates those rows as they are and returns its u
and k as triples too: no element is built on the way in or out.
Sums and products work on one mutable list over the exponent window of
the result, [lo, hi), sized from the operands and cut at the result's
precision before any coefficient is computed.  Residue arithmetic reads
the FiniteField lookup tables directly: a product takes the row
``_mul[a]`` once per coefficient a of the shorter factor and adds it
along the longer one through ``_add``; a difference reads ``_neg``.  A
factor with a single coefficient scales the other instead, in ``mul_t``
and in a ``dot_t`` of one product: one row read along it, with no
additions.  ``dot_t`` skips pairs with an exact zero, which add neither
digits nor precision.  One kernel, ``minors_t``, gives the minors on
the bottom rows of a matrix by the bitmask of their columns, each
computed once, when first asked for, as one ``dot_t`` with no
division.  ``det_t`` reads its full minor, at most n*(2^(n-1) - 1)
products against the n!*n of the sum over permutations, and the
selftest's class reader reads the rest.
``inverse_t`` runs its one-unit recurrence forward, pushing each new
digit along the series with one row, as a product does.  The result
is normalized once, by scanning the list ends for zeros.
"""

from __future__ import annotations

from .errors import InsufficientPrecision, ZeroInput
from .finitefield import FiniteField, field_of_size

# Relative series precision used when inverting an exact element that is
# not a monomial.  The result is reported with a finite precision, so the
# truncation stays visible downstream.
DEFAULT_REL_PREC = 16


def _min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# ----- triple kernels ----------------------------------------------------
# A triple (val, coeffs, prec) holds exactly the normalized fields of a
# LaurentElem, without its field.  These kernels are the one copy of the
# window and precision rules; MatG stores its entries as triples, which
# bruhat eliminates directly.

ZERO_T = (0, (), None)
ONE_T = (0, (1,), None)


def _product_prec(x: tuple, y: tuple) -> int | None:
    """Precision of x*y: each factor's prec shifted by a lower bound for
    the other's valuation (its first visible exponent, else its prec), the
    smaller of the two."""
    xv, xc, xp = x
    yv, yc, yp = y
    if xp is None:
        if yp is None or not xc:
            return None
        return yp + xv
    p = None if not yc and yp is None else xp + (yv if yc else yp)
    if yp is None:
        return p
    r = yp + (xv if xc else xp)
    return r if p is None or r < p else p


def _cut(lo: int, out: list, prec: int | None) -> tuple:
    """Triple whose coefficient at lo + i is out[i]; out is already cut at
    prec, zeros at either end are stripped here."""
    i, j = 0, len(out)
    while i < j and not out[i]:
        i += 1
    if i == j:
        return (0, (), prec)
    while not out[j - 1]:
        j -= 1
    return (lo + i, tuple(out[i:j]), prec)


def digits_t(lo: int, digits: list) -> tuple:
    """The exact series whose digits from t^lo are digits, normalized as
    LaurentElem(F, lo, digits) stores it."""
    return _cut(lo, digits, None)


def _convolve_into(out: list, start: int, a: tuple, b: tuple, mul, add) -> None:
    """Add the product of coefficient tuples a and b into out, with a[0]*b[0]
    landing at out[start]; terms at or beyond len(out) are dropped.

    The shorter tuple is the outer loop, one table row per coefficient:
    F_q is commutative and start indexes the product, so which factor
    runs outside changes nothing but the count of rows read.  Plain loops
    on purpose: at these lengths a comprehension per row costs more than
    it saves.
    """
    if len(a) > len(b):
        a, b = b, a
    n = len(out)
    for s, x in enumerate(a, start):
        if s >= n:
            break
        if x:
            row = mul[x]
            k = s
            for y in b:
                if k >= n:
                    break
                out[k] = add[out[k]][row[y]]
                k += 1


def _scaled(mul, lo: int, a: tuple, b: tuple, n: int, prec: int | None) -> tuple:
    """The product of coefficient tuples a and b at lo + i for i < n, cut
    at prec, where a or b has a single coefficient: one table row read
    along the other.  A zero digit of the other factor at the cut is
    stripped by _cut."""
    if len(a) != 1:
        a, b = b, a
    row = mul[a[0]]
    return _cut(lo, [row[c] for c in b[:n]], prec)


def add_t(ff: FiniteField, x: tuple, y: tuple, bmap: list | None = None) -> tuple:
    """x + bmap(y) coefficientwise; bmap None is the identity, the
    negation table gives the difference."""
    av, a, ap = x
    bv, b, bp = y
    prec = _min_prec(ap, bp)
    if a:
        lo, hi = av, av + len(a)
        if b:
            if bv < lo:
                lo = bv
            if bv + len(b) > hi:
                hi = bv + len(b)
    elif b:
        lo, hi = bv, bv + len(b)
    else:
        return (0, (), prec)
    if prec is not None and hi > prec:
        hi = prec
        if hi <= lo:
            return (0, (), prec)
    n = hi - lo
    out = [0] * n
    i = av - lo
    if a and i < n:
        out[i : i + len(a)] = a[: n - i]
    add = ff._add
    i = bv - lo
    if bmap is None:
        for c in b:
            if i >= n:
                break
            out[i] = add[out[i]][c]
            i += 1
    else:
        for c in b:
            if i >= n:
                break
            out[i] = add[out[i]][bmap[c]]
            i += 1
    return _cut(lo, out, prec)


def neg_t(ff: FiniteField, x: tuple) -> tuple:
    neg = ff._neg
    return (x[0], tuple([neg[c] for c in x[1]]), x[2])


def mul_t(ff: FiniteField, x: tuple, y: tuple) -> tuple:
    prec = _product_prec(x, y)
    xv, a, _ = x
    yv, b, _ = y
    if not a or not b:
        return (0, (), prec)
    lo = xv + yv
    la, lb = len(a), len(b)
    n = la + lb - 1
    if prec is not None and prec - lo < n:
        n = prec - lo
        if n <= 0:
            return (0, (), prec)
    if la == 1 or lb == 1:
        return _scaled(ff._mul, lo, a, b, n, prec)
    out = [0] * n
    _convolve_into(out, 0, a, b, ff._mul, ff._add)
    return _cut(lo, out, prec)


def addmul_t(ff: FiniteField, z: tuple, c: tuple, y: tuple) -> tuple:
    """z + c*y in one list: the coefficients and precision of z + (c*y),
    without building the product first.  Where c*y has no visible term
    the sum is z cut at the product's precision."""
    p = _product_prec(c, y)
    zv, a, zp = z
    prec = zp if p is None else p if zp is None or p < zp else zp
    cv, cc, _ = c
    yv, yc, _ = y
    if not cc or not yc:
        return z if prec == zp else truncate_t(z, prec)
    lo = cv + yv
    hi = lo + len(cc) + len(yc) - 1
    start = 0
    if a:
        if zv < lo:
            start, lo = lo - zv, zv
        if zv + len(a) > hi:
            hi = zv + len(a)
    if prec is not None and hi > prec:
        hi = prec
        if hi <= lo:
            return (0, (), prec)
    n = hi - lo
    out = [0] * n
    if a:
        i = zv - lo
        if i < n:
            out[i : i + len(a)] = a[: n - i]
    _convolve_into(out, start, cc, yc, ff._mul, ff._add)
    return _cut(lo, out, prec)


def cancel_t(z: tuple, c: tuple, y: tuple) -> tuple:
    """z + c*y where c = -z * y^-1, by inverse_t and mul_t: the sum
    cancels below its precision, so it is the zero addmul_t would
    compute, at that precision, without the product.  Only c's
    valuation and precision are read, which negation keeps, so a caller
    may pass z * y^-1 itself."""
    return (0, (), _min_prec(z[2], _product_prec(c, y)))


def inverse_t(ff: FiniteField, x: tuple, var: str) -> tuple:
    """Multiplicative inverse, by LaurentElem.inverse's rules; var only
    names the variable in the error messages."""
    v, cs, p = x
    if not cs:
        if p is None:
            raise ZeroInput("exact zero has no leading term")
        raise InsufficientPrecision(f"no visible term below O({var}^{p})")
    inv0 = ff.inv(cs[0])
    if len(cs) == 1 and p is None:
        return (-v, (inv0,), None)
    rel = p - v if p is not None else DEFAULT_REL_PREC
    # write x = c0 * var^v * (1 + w), invert the one-unit by the
    # recurrence b_0 = 1, b_k = -sum_{j>=1} w_j b_{k-j}, run forward:
    # acc[k] collects that sum, and each new digit b_k is pushed along
    # w with one table row, as _convolve_into does; w_j = 0 past the
    # stored coefficients
    mul, add, neg = ff._mul, ff._add, ff._neg
    row0 = mul[inv0]
    w = [row0[c] for c in cs[1:rel]]
    acc = [0, *w] + [0] * (rel - 1 - len(w))  # b_0 = 1, already pushed
    out = [inv0]
    for k in range(1, rel):
        b = neg[acc[k]]
        out.append(row0[b])
        if b:
            row = mul[b]
            m = k + 1
            for c in w:
                if m >= rel:
                    break
                acc[m] = add[acc[m]][row[c]]
                m += 1
    return _cut(-v, out, -v + rel)


def dot_t(ff: FiniteField, xs, ys) -> tuple:
    """Sum of x*y over the pairs of xs and ys.

    The result carries the precision a chain of additions of the products
    would give, the minimum of the products' precisions, and is built in
    one coefficient list over the window of all products.  A pair with
    an exact zero adds nothing, not even a precision, and is skipped.
    """
    prec = None
    terms = []
    lo = hi = 0
    for x, y in zip(xs, ys):
        a = x[1]
        b = y[1]
        if not a and x[2] is None or not b and y[2] is None:
            continue
        p = _product_prec(x, y)
        if p is not None and (prec is None or p < prec):
            prec = p
        if a and b:
            v = x[0] + y[0]
            top = v + len(a) + len(b) - 1
            if not terms:
                lo, hi = v, top
            else:
                if v < lo:
                    lo = v
                if top > hi:
                    hi = top
            terms.append((v, a, b))
    if not terms:
        return (0, (), prec)
    if prec is not None and hi > prec:
        hi = prec
    if hi <= lo:
        return (0, (), prec)
    mul = ff._mul
    if len(terms) == 1:
        _, a, b = terms[0]
        if len(a) == 1 or len(b) == 1:
            return _scaled(mul, lo, a, b, hi - lo, prec)
    out = [0] * (hi - lo)
    add = ff._add
    for v, a, b in terms:
        _convolve_into(out, v - lo, a, b, mul, add)
    return _cut(lo, out, prec)


def truncate_t(x: tuple, prec: int) -> tuple:
    """x known only below prec, in LaurentElem.truncate's normal form; a
    zero comes back as (0, (), p) whatever val it was given."""
    v, cs, p = x
    if not cs:
        return (0, (), prec if p is None or p > prec else p)
    if p is not None and p <= prec:
        return x
    hi = prec - v
    if hi >= len(cs):
        return (v, cs, prec)
    if hi <= 0:
        return (0, (), prec)
    # cs[0] is nonzero, so the scan stops at hi = 1
    while not cs[hi - 1]:
        hi -= 1
    return (v, cs[:hi], prec)


def coeff_at_t(x: tuple, k: int, var: str) -> int:
    """The coefficient at var^k, or raise if it lies beyond the precision."""
    v, cs, p = x
    if p is not None and k >= p:
        raise InsufficientPrecision(f"coefficient at {var}^{k} lies beyond O({var}^{p})")
    i = k - v
    return cs[i] if 0 <= i < len(cs) else 0


def val_at_least_t(x: tuple, k: int, var: str) -> bool:
    """Decide val >= k, or raise if the known digits cannot decide."""
    v, cs, p = x
    if cs:
        return v >= k
    if p is None or p >= k:
        return True
    raise InsufficientPrecision(f"cannot decide valuation >= {k} from O({var}^{p})")


def wrap(field: LocalField, t: tuple) -> LaurentElem:
    """The element of field with the triple t, already normalized."""
    out = object.__new__(LaurentElem)
    out.field = field
    out.val, out.coeffs, out.prec = t
    return out


class LaurentElem:
    """One Laurent series, normalized so coeffs has no leading or trailing
    zeros and stores nothing at or beyond prec."""

    __slots__ = ("field", "val", "coeffs", "prec")

    def __init__(self, field: LocalField, val: int, coeffs, prec: int | None = None):
        cs = tuple(coeffs)
        hi = len(cs)
        if prec is not None and prec - val < hi:
            hi = max(prec - val, 0)
        lo = 0
        while lo < hi and cs[lo] == 0:
            lo += 1
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        self.field = field
        self.val = val + lo if lo < hi else 0
        self.coeffs = cs[lo:hi]
        self.prec = prec

    # ----- inspection ---------------------------------------------------
    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.prec is None

    def leading(self) -> tuple[int, int]:
        if self.coeffs:
            return self.val, self.coeffs[0]
        if self.prec is None:
            raise ZeroInput("exact zero has no leading term")
        raise InsufficientPrecision(
            f"no visible term below O({self.field.var}^{self.prec})"
        )

    def valuation(self) -> int:
        return self.leading()[0]

    # ----- arithmetic ---------------------------------------------------
    # __add__, __mul__ and inverse serve the benchmark's layer timings only
    def __add__(self, other: LaurentElem) -> LaurentElem:
        field = self.field
        if not isinstance(other, LaurentElem) or other.field is not field:
            raise TypeError("operands live in different fields")
        return wrap(field, add_t(
            field.residue, (self.val, self.coeffs, self.prec), (other.val, other.coeffs, other.prec)
        ))

    def __mul__(self, other: LaurentElem) -> LaurentElem:
        field = self.field
        if not isinstance(other, LaurentElem) or other.field is not field:
            raise TypeError("operands live in different fields")
        return wrap(field, mul_t(
            field.residue, (self.val, self.coeffs, self.prec), (other.val, other.coeffs, other.prec)
        ))

    def inverse(self) -> LaurentElem:
        """Multiplicative inverse.

        Exact monomials invert exactly.  Otherwise the result carries
        finite precision: all the input offers, or DEFAULT_REL_PREC
        relative digits for exact input.
        """
        field = self.field
        return wrap(field, inverse_t(field.residue, (self.val, self.coeffs, self.prec), field.var))

    # ----- comparison ---------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentElem):
            return NotImplemented
        return (
            self.field is other.field
            and self.val == other.val
            and self.coeffs == other.coeffs
            and self.prec == other.prec
        )

    __hash__ = None  # precision semantics make hashing a trap

    def __repr__(self) -> str:
        var = self.field.var
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for i, c in enumerate(self.coeffs):
                if c == 0:
                    continue
                e = self.val + i
                if e == 0:
                    parts.append(f"{c}")
                elif e == 1:
                    parts.append(f"{c}*{var}" if c != 1 else var)
                else:
                    parts.append(f"{c}*{var}^{e}" if c != 1 else f"{var}^{e}")
            body = " + ".join(parts)
        tail = "" if self.prec is None else f" + O({var}^{self.prec})"
        return f"<{body}{tail}>"


def minors_t(ff: FiniteField, rows):
    """The minors of a square matrix of (val, coeffs, prec) triples on
    its bottom rows: minor(mask), for 0 < mask < 2^n, is the minor on
    the last popcount(mask) rows and the columns in mask.

    Each is computed when first asked for and kept: one dot_t of its top
    row, expanded with no division, against the minors one row further
    down, skipping the row's exact zeros and what lies under them.
    Exact entries give exact minors; otherwise a sum carries the
    smallest precision of its products, as in the chain of products and
    sums.
    """
    n = len(rows)
    signed = [(row, [neg_t(ff, x) for x in row]) for row in rows[:-1]]
    # minors[mask]: None until computed; the last row's entries seed it
    minors: list = [None] * (1 << n)
    for j, x in enumerate(rows[-1]):
        minors[1 << j] = x

    def expand(k: int, mask: int) -> tuple:
        row, negs = signed[k]
        xs, ys = [], []
        odd = False
        for j in range(n):
            bit = 1 << j
            if mask & bit:
                x = row[j]
                if x[1] or x[2] is not None:
                    rest = mask ^ bit
                    xs.append(negs[j] if odd else x)
                    ys.append(minors[rest] or expand(k + 1, rest))
                odd = not odd
        out = minors[mask] = dot_t(ff, xs, ys)
        return out

    return lambda mask: minors[mask] or expand(n - mask.bit_count(), mask)


def det_t(ff: FiniteField, rows) -> tuple:
    """Determinant of a square matrix of triples: minors_t's full minor."""
    return minors_t(ff, rows)((1 << len(rows)) - 1)


class LocalField:
    """Either the Laurent series field over F_q or one fixed totally
    ramified extension of it.

    The extension of degree n is F[u] with u^n = u0*t, available only for
    n prime to the residue characteristic.
    """

    def __init__(
        self,
        residue: FiniteField,
        degree: int = 1,
        pi_unit: int = 1,
        base: LocalField | None = None,
        name: str | None = None,
    ):
        self.residue = residue
        self.degree = degree
        self.pi_unit = pi_unit
        self.base = base
        self.name = name or ("F" if base is None else "E")
        self.var = "t" if base is None else "u"
        self._extensions: dict[tuple[int, int], LocalField] = {}

    # fields are immutable configuration, so constructors hand out shared
    # instances; element ownership checks then agree across call sites
    _base_fields: dict[int, LocalField] = {}

    @classmethod
    def base_field(cls, q: int) -> LocalField:
        out = cls._base_fields.get(q)
        if out is None:
            out = cls._base_fields[q] = cls(field_of_size(q))
        return out

    def extension(self, n: int, pi_unit: int = 1) -> LocalField:
        if self.base is not None:
            raise ValueError("towers of extensions are not supported")
        if n < 1:
            raise ValueError("degree must be positive")
        if n % self.residue.p == 0:
            raise ValueError("residue characteristic must not divide the degree")
        if not 1 <= pi_unit < self.residue.q:
            raise ValueError("pi_unit must be a nonzero residue element")
        out = self._extensions.get((n, pi_unit))
        if out is None:
            out = LocalField(self.residue, n, pi_unit, base=self, name="E")
            self._extensions[(n, pi_unit)] = out
        return out

    # ----- element constructors ----------------------------------------
    def elem(self, val: int, coeffs, prec: int | None = None) -> LaurentElem:
        return LaurentElem(self, val, coeffs, prec)

    def _from_dict(self, terms: dict[int, int], prec: int | None) -> LaurentElem:
        live = {e: c for e, c in terms.items() if c != 0}
        if not live:
            return LaurentElem(self, 0, (), prec)
        lo = min(live)
        hi = max(live)
        coeffs = [live.get(e, 0) for e in range(lo, hi + 1)]
        return LaurentElem(self, lo, coeffs, prec)

    def zero(self, prec: int | None = None) -> LaurentElem:
        return LaurentElem(self, 0, (), prec)

    def one(self) -> LaurentElem:
        return LaurentElem(self, 0, (1,))

    def scalar(self, c: int) -> LaurentElem:
        """Constant series with residue coefficient c (already encoded)."""
        if not 0 <= c < self.residue.q:
            raise ValueError(f"{c} is not a residue element")
        return LaurentElem(self, 0, (c,))

    def from_int(self, k: int) -> LaurentElem:
        return self.scalar(self.residue.scalar(k))

    def variable(self) -> LaurentElem:
        return LaurentElem(self, 1, (1,))

    # ----- extension structure ------------------------------------------
    def trace_to_base(self, x: LaurentElem) -> LaurentElem:
        """Trace to the base field via the regular representation.

        In the basis 1, u, ..., u^{n-1} only coefficients of x at
        exponents divisible by n hit the diagonal, each contributing on
        all n basis lines, so the diagonal never has to be materialized.
        """
        if self.base is None:
            return x
        if x.field is not self:
            raise TypeError("argument does not live in this field")
        ff, n, u0 = self.residue, self.degree, self.pi_unit
        terms: dict[int, int] = {}
        for k, c in enumerate(x.coeffs):
            e = x.val + k
            if c and e % n == 0:
                m = e // n
                contrib = ff.mul(c, ff.pow(u0, m))
                terms[m] = ff.add(terms.get(m, 0), ff.scalar_mul(n, contrib))
        prec = None if x.prec is None else -(-x.prec // n)
        return self.base._from_dict(terms, prec)

    def mult_matrix(self, x: LaurentElem) -> list[list[tuple]]:
        """Matrix of multiplication by x on the basis 1, u, ..., u^{n-1},
        as rows of (val, coeffs, prec) triples over the base field.

        x * u^j puts the digit c_k of x at u^(v+k+j) = u0^m t^m u^r, so
        entry (r, j) reads every n-th digit of x, from the one with
        v + k + j = r mod n on, at consecutive powers t^m, each times
        u0^m."""
        if self.base is None:
            raise ValueError("multiplication matrices live over the base field")
        if x.field is not self:
            raise TypeError("argument does not live in this field")
        ff, n, u0 = self.residue, self.degree, self.pi_unit
        v, cs, p = x.val, x.coeffs, x.prec
        mul, power = ff._mul, ff.pow
        rows = []
        for r in range(n):
            row = []
            for j in range(n):
                k = (r - j - v) % n
                m0 = (v + k + j - r) // n
                digits = [mul[power(u0, m)][c] for m, c in enumerate(cs[k::n], m0)]
                row.append(_cut(m0, digits, None if p is None else -(-(p + j - r) // n)))
            rows.append(row)
        return rows

    def norm_to_base(self, x: LaurentElem) -> LaurentElem:
        """Norm to the base field: determinant of the regular representation."""
        if self.base is None:
            return x
        return wrap(self.base, det_t(self.residue, self.mult_matrix(x)))

    # ----- serialization -------------------------------------------------
    def elem_to_json(self, x: LaurentElem) -> dict:
        data = {
            "field": self.name,
            "n": self.degree,
            "val": x.val,
            "coeffs": list(x.coeffs),
        }
        if x.prec is not None:
            data["prec"] = x.prec
        return data

    def elem_from_json(self, data: dict) -> LaurentElem:
        """The element elem_to_json encodes.  val and prec are JSON
        integers and coeffs a list of residues 0..q-1, since a coefficient
        indexes the residue tables: a bool, float or string stands in for
        none of them."""
        tag = (data.get("field"), data.get("n"))
        if tag != (self.name, self.degree) or type(tag[1]) is not int:
            raise ValueError("element encoding does not match this field")
        val, coeffs, prec = data.get("val"), data.get("coeffs"), data.get("prec")
        if type(val) is not int or not (prec is None or type(prec) is int):
            raise ValueError(f"val and prec must be JSON integers, got {val!r} and {prec!r}")
        q = self.residue.q
        if type(coeffs) is not list or not all(type(c) is int and 0 <= c < q for c in coeffs):
            raise ValueError(f"coeffs must be a list of residues 0..{q - 1}, got {coeffs!r}")
        return self.elem(val, coeffs, prec)

    def __repr__(self) -> str:
        if self.base is None:
            return f"LocalField(F_{self.residue.q}(({self.var})))"
        return (
            f"LocalField(F_{self.residue.q}((t))[u]/"
            f"(u^{self.degree} - {self.pi_unit}*t))"
        )
