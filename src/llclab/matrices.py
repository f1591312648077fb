"""Small dense matrices over a local field.

Group elements in this laboratory are n-by-n with n at most 6.  A
matrix stores each entry once, as the normalized (val, coeffs, prec)
triple laurent's kernels read: the product, truncation and determinant
run on the stored rows, the determinant as laurent.det_t's expansion
into minors each computed once, with no division, and bruhat
eliminates them as they are and tests k for Iwahori membership with
in_iplus_t.  MatG(field, rows) is the checked constructor from series;
wrap_matrix builds a matrix from kernel triples without it, and
entry(i, j) gives one entry as a series.  Precision rides along on the
entries.
"""

from __future__ import annotations

from .laurent import (
    ONE_T,
    LaurentElem,
    LocalField,
    add_t,
    det_t,
    dot_t,
    truncate_t,
    val_at_least_t,
    wrap,
)


class MatG:
    """An n-by-n matrix with Laurent series entries, rows of triples."""

    __slots__ = ("field", "rows")

    def __init__(self, field: LocalField, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if not n:
            raise ValueError("matrix must have at least one row")
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
            for x in r:
                if not isinstance(x, LaurentElem) or x.field is not field:
                    raise TypeError("entries must be series over the given field")
        self.field = field
        self.rows = tuple(tuple([(x.val, x.coeffs, x.prec) for x in r]) for r in rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> LaurentElem:
        return wrap(self.field, self.rows[i][j])

    def __mul__(self, other: MatG) -> MatG:
        if not isinstance(other, MatG) or other.field is not self.field:
            raise TypeError("matrix product requires matching fields")
        if other.n != self.n:
            raise ValueError("size mismatch")
        ff = self.field.residue
        cols = list(zip(*other.rows))
        return wrap_matrix(self.field, [[dot_t(ff, row, col) for col in cols] for row in self.rows])

    def truncate(self, prec: int) -> MatG:
        return wrap_matrix(self.field, [[truncate_t(e, prec) for e in row] for row in self.rows])

    def det(self) -> LaurentElem:
        return wrap(self.field, det_t(self.field.residue, self.rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatG):
            return NotImplemented
        return self.field is other.field and self.rows == other.rows

    __hash__ = None

    def agrees(self, other: MatG) -> bool:
        """Equality of every digit both sides claim to know, entry by entry."""
        if self.n != other.n:
            return False
        if other.field is not self.field:
            raise TypeError("operands live in different fields")
        ff = self.field.residue
        neg = ff._neg
        return all(
            not add_t(ff, a, b, neg)[1]
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def __repr__(self) -> str:
        field = self.field
        body = "\n ".join(
            "[" + ", ".join(repr(wrap(field, e)) for e in row) + "]" for row in self.rows
        )
        return f"MatG(\n {body})"

    def to_json(self) -> dict:
        field = self.field
        return {
            "size": self.n,
            "entries": [[field.elem_to_json(wrap(field, e)) for e in row] for row in self.rows],
        }


def wrap_matrix(field: LocalField, rows) -> MatG:
    """The matrix over field whose entries are the (val, coeffs, prec)
    triples of rows, square and already normalized: like laurent.wrap,
    it skips the constructor's checks, for matrices built from kernel
    results."""
    out = object.__new__(MatG)
    out.field = field
    out.rows = tuple(tuple(row) for row in rows)
    return out


def in_iplus_t(ff, rows, var: str) -> bool:
    """Membership of a square list of rows of (val, coeffs, prec) triples
    in the pro-unipotent Iwahori subgroup: diagonal in 1+p, above-diagonal
    entries integral, below in p, checked in row-major order.  Raises
    InsufficientPrecision when the known digits cannot decide."""
    neg = ff._neg
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if i == j:
                if not val_at_least_t(add_t(ff, e, ONE_T, neg), 1, var):
                    return False
            elif not val_at_least_t(e, 0 if i < j else 1, var):
                return False
    return True
