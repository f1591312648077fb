"""Factorization g = u * M * k against the pro-unipotent Iwahori.

Every invertible matrix over the local field factors with u unipotent
upper triangular, M monomial with entries unit * t^a, and k in the
pro-unipotent Iwahori subgroup.  The permutation, exponents and residue
units of M are invariants of the double coset U g I+, which is what the
Whittaker support tests consume.

Pivot rule: working through the rows bottom-up, the pivot of a row is
the leftmost entry of minimal valuation among the columns not yet used.
Clearing a column to the right of the pivot divides by an entry of no
larger valuation (integral coefficient), clearing to the left divides by
one of strictly larger valuation (coefficient in the maximal ideal);
those are precisely the constraints Iwahori membership of k puts on the
column operations, so no other pivot choice closes.

The elimination, _eliminate, runs on laurent's (val, coeffs, prec)
triples, the rows a MatG stores: each row's pivot is inverted once,
each column op is one fused z + c*y update per entry (skipped where y is
an exact zero), u's off-diagonal entries are the row-op coefficients,
and decompose wraps the triple rows of u and k as they come, with no
LaurentElem built.  What cancels is not computed: c is an entry times
the pivot's inverse, so the entry a column op clears in the pivot row,
and the pivot-column entry of each row op, are laurent.cancel_t's zero
at the precision the update would carry.  Once its columns are cleared
the pivot row is its pivot and zeros, so the rest of a row op only cuts
precisions where the row holds a zero known to a precision; row ops
read only c's valuation and precision, so they never negate it.
k is not a matrix product: the column ops are recorded and replayed, the
last one first, on the columns of M^-1 times the eliminated matrix, one
fused update each.  The Iwahori checks on the column factors and on the
final k both go through laurent.val_at_least_t, so they raise
InsufficientPrecision when the known digits cannot decide.

On its support the Whittaker value is psi(residue) zeta^r omega(s t^d).
WhittakerInvariant reads what that needs once, for every datum; solve()
then fits M = rotation^r * central(s, d) for one uniformizer through a
per-(field, n, pi_unit) table of rotation powers.  Where a point's
factorization is known by construction (the monomial lead matrices of
the zeta integrals, the upper unipotent points of the mirabolic
enumeration) its invariant is built directly; every other matrix is
read with WhittakerInvariant.read(g), which eliminates g cut one digit
past its last stored digit, exact zeros kept exact.  An exact pivot
that is not a monomial then inverts to the few digits the window holds,
where decompose inverts it to DEFAULT_REL_PREC digits for the u and k
it returns.  Precision tracking makes the window's reading that of
decompose(g), as g agrees with its cut; where the window cannot decide,
g is eliminated once more as given.  One reader,
WhittakerInvariant._of_rows, takes the digits off the triple rows of u
and k, for a read and for WhittakerInvariant.of alike.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import InsufficientPrecision, LLCError, ZeroInput
from .laurent import (
    ONE_T,
    ZERO_T,
    LocalField,
    addmul_t,
    cancel_t,
    coeff_at_t,
    inverse_t,
    mul_t,
    neg_t,
    truncate_t,
    val_at_least_t,
)
from .matrices import MatG, in_iplus_t, wrap_matrix


class MonomialClass:
    """Invariant data of U g I+: row i of the monomial representative has
    its single entry units[i] * t^exps[i] in column cols[i]."""

    __slots__ = ("field", "cols", "exps", "units")

    def __init__(self, field: LocalField, cols, exps, units):
        cols = tuple(cols)
        exps = tuple(exps)
        units = tuple(units)
        n = len(cols)
        if sorted(cols) != list(range(n)) or len(exps) != n or len(units) != n:
            raise ValueError("not a monomial shape")
        if any(not 1 <= c < field.residue.q for c in units):
            raise ValueError("units must be nonzero residues")
        self.field = field
        self.cols = cols
        self.exps = exps
        self.units = units

    @classmethod
    def _of_checked(
        cls, field: LocalField, cols: tuple, exps: tuple, units: tuple
    ) -> MonomialClass:
        """A class whose tuples are already known to pass __init__'s checks."""
        out = cls.__new__(cls)
        out.field = field
        out.cols = cols
        out.exps = exps
        out.units = units
        return out

    @property
    def n(self) -> int:
        return len(self.cols)

    @classmethod
    def identity(cls, field: LocalField, n: int) -> MonomialClass:
        return cls(field, range(n), [0] * n, [1] * n)

    @classmethod
    def central(cls, field: LocalField, n: int, unit: int, exp: int) -> MonomialClass:
        return cls(field, range(n), [exp] * n, [unit] * n)

    @classmethod
    def rotation(cls, field: LocalField, n: int, pi_unit: int) -> MonomialClass:
        """The affine rotation: e_{i+1} -> e_i and e_1 -> (pi_unit t) e_n."""
        cols = [(i + 1) % n for i in range(n)]
        exps = [0] * (n - 1) + [1]
        units = [1] * (n - 1) + [pi_unit]
        return cls(field, cols, exps, units)

    def compose(self, other: MonomialClass) -> MonomialClass:
        if other.field is not self.field or other.n != self.n:
            raise ValueError("size or field mismatch")
        ff = self.field.residue
        cols, exps, units = [], [], []
        for i in range(self.n):
            c = self.cols[i]
            cols.append(other.cols[c])
            exps.append(self.exps[i] + other.exps[c])
            units.append(ff.mul(self.units[i], other.units[c]))
        return MonomialClass._of_checked(self.field, tuple(cols), tuple(exps), tuple(units))

    def __pow__(self, k: int) -> MonomialClass:
        base = self if k >= 0 else self.inverse()
        out = MonomialClass.identity(self.field, self.n)
        for _ in range(abs(k)):
            out = out.compose(base)
        return out

    def inverse(self) -> MonomialClass:
        ff = self.field.residue
        cols = [0] * self.n
        exps = [0] * self.n
        units = [1] * self.n
        for i in range(self.n):
            cols[self.cols[i]] = i
            exps[self.cols[i]] = -self.exps[i]
            units[self.cols[i]] = ff.inv(self.units[i])
        return MonomialClass._of_checked(self.field, tuple(cols), tuple(exps), tuple(units))

    def as_matrix(self) -> MatG:
        rows = [[ZERO_T] * self.n for _ in range(self.n)]
        for i in range(self.n):
            rows[i][self.cols[i]] = (self.exps[i], (self.units[i],), None)
        return wrap_matrix(self.field, rows)

    def match_rotation_times_central(self, pi_unit: int) -> tuple[int, int, int] | None:
        """Solve self = rotation^r * central(s, d); None when impossible."""
        hit = _rotation_table(self.field, self.n, pi_unit).get(self.cols)
        if hit is None:
            return None
        r, exps, units = hit
        ff = self.field.residue
        d = self.exps[0] - exps[0]
        s = ff.mul(self.units[0], ff.inv(units[0]))
        for i in range(1, self.n):
            if self.exps[i] - exps[i] != d or ff.mul(s, units[i]) != self.units[i]:
                return None
        return r, s, d

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialClass):
            return NotImplemented
        return (
            self.field is other.field
            and self.cols == other.cols
            and self.exps == other.exps
            and self.units == other.units
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.exps, self.units))

    def __repr__(self) -> str:
        return f"MonomialClass(cols={self.cols}, exps={self.exps}, units={self.units})"

    def to_json(self) -> dict:
        return {"perm": list(self.cols), "exps": list(self.exps), "units": list(self.units)}


@lru_cache(maxsize=None)
def _rotation_table(field: LocalField, n: int, pi_unit: int) -> dict:
    """cols of rotation^r -> (r, exps, units), for 0 <= r < n; the n
    powers shift the columns by distinct amounts."""
    rot = MonomialClass.rotation(field, n, pi_unit)
    cur = MonomialClass.identity(field, n)
    table = {}
    for r in range(n):
        table[cur.cols] = (r, cur.exps, cur.units)
        cur = cur.compose(rot)
    return table


# (r, s, d, residue): the Whittaker value there is psi(residue) zeta^r omega(s t^d)
SolvedInvariant = namedtuple("SolvedInvariant", "rot central_unit central_val residue")


class WhittakerInvariant(namedtuple("WhittakerInvariant", "mono residue corner")):
    """What the Whittaker value of any datum reads off g = u * M * k: the
    monomial class M, the summed superdiagonal residues of u and k, and
    the digit of k[n-1][0] at t^1.  It does not see the uniformizer, so
    one invariant serves data with different pi_unit.

    M is an invariant of the double coset U g I+; the two digits are read
    off this factorization and can move under another one, but on the
    support of a datum their combination affine_residue(pi_unit) cannot.
    """

    __slots__ = ()

    @classmethod
    def of(cls, u: MatG | None, mono: MonomialClass, k: MatG | None) -> WhittakerInvariant:
        """Read the invariant of u * mono * k; None stands for the identity."""
        return cls._of_rows(None if u is None else u.rows, mono, None if k is None else k.rows)

    @classmethod
    def read(cls, g: MatG) -> WhittakerInvariant:
        """The invariant of decompose(g), eliminated at the precision g
        carries; a caller that wants g cut at t^prec reads g.truncate(prec).

        g is first cut one digit past its last stored digit, exact zeros
        kept exact, so exact non-monomial pivots invert to a few digits
        instead of DEFAULT_REL_PREC.  Precision tracking makes what that
        window reads exact, since g agrees with its cut.  Where the window
        cannot decide a pivot or a digit it raises InsufficientPrecision,
        and g is eliminated once more as given, unless the cut left g as
        it was.
        """
        rows = g.rows
        cut = _window(rows)
        if cut != rows:
            try:
                return cls._of_rows(*_eliminate(g.field, cut))
            except InsufficientPrecision:
                pass
        return cls._of_rows(*_eliminate(g.field, rows))

    @classmethod
    def _of_rows(cls, u_rows, mono: MonomialClass, k_rows) -> WhittakerInvariant:
        """The invariant of u * mono * k from the triple rows of u and k:
        their summed superdiagonal t^0 digits and k's corner digit at t^1.
        None stands for the identity."""
        field = mono.field
        ff, var = field.residue, field.var
        total = 0
        for rows in (u_rows, k_rows):
            if rows is not None:
                for i in range(len(rows) - 1):
                    total = ff.add(total, coeff_at_t(rows[i][i + 1], 0, var))
        corner = 0 if k_rows is None else coeff_at_t(k_rows[-1][0], 1, var)
        return cls(mono, total, corner)

    def affine_residue(self, pi_unit: int) -> int:
        """The residue psi reads once the corner is divided by pi_unit."""
        ff = self.mono.field.residue
        return ff.add(self.residue, ff.mul(self.corner, ff.inv(pi_unit)))

    def solve(self, pi_unit: int) -> SolvedInvariant | None:
        """The invariant for one uniformizer; None off the Whittaker support."""
        hit = self.mono.match_rotation_times_central(pi_unit)
        if hit is None:
            return None
        return SolvedInvariant(*hit, self.affine_residue(pi_unit))

    def to_json(self) -> dict:
        return {"class": self.mono.to_json(), "residue": self.residue, "corner": self.corner}


def decompose(g: MatG) -> tuple[MatG, MonomialClass, MatG]:
    """Factor g = u * M * k; raises when the precision cannot support it.
    A caller that wants g cut at t^prec decomposes g.truncate(prec).

    u comes back exactly unipotent upper triangular, k verified inside
    the pro-unipotent Iwahori at the precision the entries carry.
    """
    u_rows, mono, k_rows = _eliminate(g.field, g.rows)
    return wrap_matrix(g.field, u_rows), mono, wrap_matrix(g.field, k_rows)


def _window(rows: tuple) -> tuple:
    """rows, a tuple of tuples of triples, known only below one digit past
    the last digit any entry stores, in the same shape, so that it
    compares equal to rows where the cut changes nothing.  Exact zeros
    stay exact: the elimination skips them, and a row of them is exactly
    zero."""
    top = max((v + len(cs) for row in rows for v, cs, _ in row if cs), default=None)
    if top is None:
        return rows
    return tuple(
        tuple([x if not x[1] and x[2] is None else truncate_t(x, top + 1) for x in row])
        for row in rows
    )


def _eliminate(field: LocalField, rows: list) -> tuple[list, MonomialClass, list]:
    """decompose on triples: the rows of u and k as triples, and M.  rows
    is left as it was."""
    n = len(rows)
    ff, var = field.residue, field.var
    A = [list(row) for row in rows]
    u_rows = [[ONE_T if i == j else ZERO_T for j in range(n)] for i in range(n)]
    col_ops = []
    used: set[int] = set()
    cols = [0] * n

    for i in range(n - 1, -1, -1):
        row = A[i]
        best_val, piv = None, None
        fuzzy = []
        for j in range(n):
            if j in used:
                continue
            v, cs, p = row[j]
            if cs:
                if best_val is None or v < best_val:
                    best_val, piv = v, j
            elif p is not None:
                fuzzy.append((p, j))
        if piv is None:
            if fuzzy:
                raise InsufficientPrecision(
                    f"row {i} has no visible entry below O(t^{min(fuzzy)[0]})"
                )
            raise ZeroInput(f"row {i} is exactly zero; not invertible here")
        for bound, j in fuzzy:
            if bound <= best_val:
                raise InsufficientPrecision(
                    f"entry ({i},{j}) is O(t^{bound}) and could undercut the "
                    f"pivot of valuation {best_val}"
                )
        # the pivot entry stays fixed while its row and column are cleared;
        # c is an entry times pinv, so the entry c clears cancels to zero
        pivot = row[piv]
        pinv = inverse_t(ff, pivot, var)
        for j in range(n):
            if j == piv or j in used or not row[j][1]:
                continue
            c = mul_t(ff, row[j], pinv)
            if not val_at_least_t(c, 1 if j < piv else 0, var):
                raise LLCError(
                    f"internal: clearing column {j} against pivot column {piv} "
                    "needs a factor outside the Iwahori subgroup"
                )
            minus_c = neg_t(ff, c)
            for r in A:
                y = r[piv]
                if r is not row and (y[1] or y[2] is not None):
                    r[j] = addmul_t(ff, r[j], minus_c, y)
            row[j] = cancel_t(row[j], minus_c, pivot)
            # column op was R = I - c E(piv,j); k gets R^-1 = I + c E(piv,j)
            col_ops.append((piv, j, c))
        # the row is now its pivot and zeros: a row op cancels the pivot
        # column and only cuts the precision where the row holds a zero.
        # Both read only the valuation and precision of the row op's
        # factor -c, which c shares, so c is passed unnegated
        cuts = [m for m in range(n) if m != piv and row[m][2] is not None]
        for i2 in range(i):
            r2 = A[i2]
            e = r2[piv]
            if not e[1]:
                continue
            c = mul_t(ff, e, pinv)
            r2[piv] = cancel_t(e, c, pivot)
            for m in cuts:
                r2[m] = addmul_t(ff, r2[m], c, row[m])
            # row op was L = I - c E(i2,i), and u gets L^-1 = I + c E(i2,i)
            # from the right: column i += c * column i2.  Rows pivot
            # bottom-up, so column i2 < i of u is still a unit vector and
            # column i still zero off the diagonal: the sum is c itself
            u_rows[i2][i] = c
        used.add(piv)
        cols[i] = piv

    exps, units = [], []
    # row cols[i] of mono^-1 * A is row i of A over its pivot's leading term
    k2 = [None] * n
    for i in range(n):
        v, cs, _ = A[i][cols[i]]
        exps.append(v)
        units.append(cs[0])
        lead_inv = (-v, (ff.inv(cs[0]),), None)
        k2[cols[i]] = [mul_t(ff, lead_inv, y) for y in A[i]]
    mono = MonomialClass._of_checked(field, tuple(cols), tuple(exps), tuple(units))
    # whatever tail the pivots carry beyond their leading term belongs to
    # k, which is k2 times R^-1 of every column op, the last op's first:
    # replayed on k2's columns in reverse order, column j += c * column piv
    for piv, j, c in reversed(col_ops):
        for r in k2:
            y = r[piv]
            if y[1] or y[2] is not None:
                r[j] = addmul_t(ff, r[j], c, y)
    if not in_iplus_t(ff, k2, var):
        raise LLCError("internal: k factor left the Iwahori subgroup")
    return u_rows, mono, k2
