"""Small dense matrices over a local field.

Group elements in this laboratory are n-by-n with n at most 6, so the
representation is a plain tuple of tuples of series and every algorithm
is the naive one.  Precision rides along on the entries.
"""

from __future__ import annotations

from .laurent import (
    ONE_T,
    LaurentElem,
    LocalField,
    add_t,
    dot_t,
    leibniz_det,
    truncate_t,
    val_at_least_t,
    wrap,
)


class MatG:
    """An n-by-n matrix with Laurent series entries."""

    __slots__ = ("field", "rows")

    def __init__(self, field: LocalField, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
            for x in r:
                if not isinstance(x, LaurentElem) or x.field is not field:
                    raise TypeError("entries must be series over the given field")
        self.field = field
        self.rows = rows

    @classmethod
    def identity(cls, field: LocalField, n: int) -> MatG:
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> LaurentElem:
        return self.rows[i][j]

    def __mul__(self, other: MatG) -> MatG:
        if not isinstance(other, MatG) or other.field is not self.field:
            raise TypeError("matrix product requires matching fields")
        if other.n != self.n:
            raise ValueError("size mismatch")
        field = self.field
        ff = field.residue
        rows = [[(e.val, e.coeffs, e.prec) for e in row] for row in self.rows]
        cols = [[(e.val, e.coeffs, e.prec) for e in col] for col in zip(*other.rows)]
        return wrap_matrix(field, [[dot_t(ff, row, col) for col in cols] for row in rows])

    def scale(self, x: LaurentElem) -> MatG:
        return MatG(self.field, [[x * e for e in row] for row in self.rows])

    def truncate(self, prec: int) -> MatG:
        return wrap_matrix(
            self.field, [[truncate_t((e.val, e.coeffs, e.prec), prec) for e in row] for row in self.rows]
        )

    def det(self) -> LaurentElem:
        return leibniz_det(self.field, self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatG):
            return NotImplemented
        return self.field is other.field and self.rows == other.rows

    __hash__ = None

    def agrees(self, other: MatG) -> bool:
        return self.n == other.n and all(
            a.agrees(b) for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    # ----- membership tests ---------------------------------------------
    def in_pro_unipotent_iwahori(self) -> bool:
        """Diagonal in 1+p, above-diagonal entries integral, below in p.

        Raises InsufficientPrecision when the known digits cannot decide.
        """
        field = self.field
        rows = [[(e.val, e.coeffs, e.prec) for e in row] for row in self.rows]
        return in_iplus_t(field.residue, rows, field.var)

    def superdiagonal_residues(self) -> list[int]:
        return [self.rows[i][i + 1].coeff_at(0) for i in range(self.n - 1)]

    def __repr__(self) -> str:
        body = "\n ".join("[" + ", ".join(repr(e) for e in row) + "]" for row in self.rows)
        return f"MatG(\n {body})"

    def to_json(self) -> dict:
        return {
            "size": self.n,
            "entries": [[self.field.elem_to_json(e) for e in row] for row in self.rows],
        }


def wrap_matrix(field: LocalField, rows) -> MatG:
    """The matrix over field whose entries are the (val, coeffs, prec)
    triples of rows, square and already normalized: like laurent.wrap,
    it skips the constructor's checks, for matrices built from kernel
    results."""
    out = object.__new__(MatG)
    out.field = field
    out.rows = tuple(tuple([wrap(field, t) for t in row]) for row in rows)
    return out


def in_iplus_t(ff, rows, var: str) -> bool:
    """MatG.in_pro_unipotent_iwahori on a square list of rows of
    (val, coeffs, prec) triples, entries checked in row-major order."""
    neg = ff._neg
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if i == j:
                if not val_at_least_t(add_t(ff, e, ONE_T, neg), 1, var):
                    return False
            elif not val_at_least_t(e, 0 if i < j else 1, var):
                return False
    return True

