"""Rankin-Selberg integrals of the explicit Whittaker function against
tame characters, and the resulting gamma and epsilon factors.

Both integrals reduce to finite sums over coset representatives once a
depth m is fixed: multiplicative cosets h(1 + p^m) carry volume q^-m
(so the one-units have volume 1/q), additive cosets x + p^m carry volume
q^(1/2 - m) (so the integers have volume sqrt(q)).

The principal integral runs over diag(h, 1, ..., 1), the dual integral
over the matrices with superdiagonal identity block and bottom row
(1/h, 0, -x_{n-2}/h, ..., -x_1/h).  Write h = a0 t^v w with a0 a
residue unit and w a one-unit.  Then diag(h, 1, ..., 1) is
diag(a0 t^v, 1, ..., 1) diag(w, 1, ..., 1), and the dual variable is
A(a0 t^v) diag(1/w, 1, ..., 1) N(x), where A(h) is its value at x = 0
and N(x) is upper unipotent with first row (1, 0, -x_{n-2}, ..., -x_1).
For integral x each right factor lies in the pro-unipotent Iwahori with
zero simple-root residues and a zero corner digit, and right translation
by such a factor keeps the Whittaker invariant of u M k.  So each
integral has the invariant of one lead matrix per shell v and leading
digit a0, whatever the depth.  Both lead matrices are monomial, their
own M with u = k = 1, so that invariant is named, residue and corner 0,
without an elimination, and cached as an unsolved row weighted by the
points it stands for.  Only the non-integral audit below eliminates, one
exact matrix per valuation chain.
One solver turns the rows into those of a pi_unit, dropping the rows
off its support.

Each integral is then one stable row.  The support is rotation times
centre times I+, which one lead shell meets per integral, so a pi_unit
has exactly one solved row at depth m, and depth m + 1 must give the
same row: argument, solved invariant and weight.  Both are checked once
per (q, n, pi_unit, m) and raise instead of averaging away.
A call evaluates the datum's character at the row's invariant and the
twist at its argument, which makes each integral one monomial in q^(-s).
Gamma is the quotient of the two rows, kept the same way, so it costs
the same two character values.  The one bound is on the working depth,
2..MAX_DEPTH, checked before any row is built, and there is no second
path: the point-by-point integrals are oracles in the tests.

The dual integrand's vanishing for non-integral x is checked exactly,
once per (q, n), on the whole region the shells cover: v(h) in
-SHELL_BOUND..SHELL_BOUND and each x_j of valuation -SHELL_BOUND..-1 or
integral.  The monomial class of a dual matrix, read off the minors of
its bottom rows, has cols and exps that depend only on v(h) and the
valuation chain of its bottom row (_chain_classes), so one exact
representative per (v(h), chain) is read, 5 (2(n-2) + C(n-2, 2)) of
them, and reused at every depth and pi_unit.  rotation^r times
central(s, d) has the cols of rotation^r and its exps shifted by d,
whatever s and pi_unit, so a class that misses every such shape is off
the support for every coset of its chain; one that fits raises.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .bruhat import MonomialClass, SolvedInvariant, WhittakerInvariant, _rotation_table
from .cyclotomic import RootOfUnity
from .characters import TameChar, norm_of_variable
from .errors import LLCError, PrecisionNotStabilized
from .laurent import ONE_T, ZERO_T, LaurentElem, LocalField, inverse_t, mul_t, neg_t
from .matrices import MatG, wrap_matrix
from .monomials import EpsMonomial, LambdaGraded
from .supercuspidal import SSCDatum

# lead shells -SHELL_BOUND..SHELL_BOUND of both integrals; the support
# meets only shells 0 and -1
SHELL_BOUND = 2
# the deepest working depth an integral accepts: a call builds rows at m
# and m + 1, whose cost grows about as m^2 (gamma at q = 5, n = 3 took
# 0.47 s at depth 200 and 14.5 s at 1,000); the library and its tests
# use depths 2 and 3
MAX_DEPTH = 100


def _check_depth(m: int) -> None:
    """Reject a working depth outside 2..MAX_DEPTH before any row is built."""
    if m < 2:
        raise ValueError("need depth m >= 2")
    if m > MAX_DEPTH:
        raise ValueError(f"depth {m} is above MAX_DEPTH = {MAX_DEPTH}")


def zeta_psi(d: SSCDatum, lam: TameChar, m: int = 2) -> EpsMonomial:
    """The principal integral: W on diag(h, 1, ..., 1) against lam(h)|h|^(s-(n-1)/2).

    A row is one lead shell (v, a0), and diag(a0 t^v, 1, ..., 1) lies in
    rotation times centre times I+ only for (v, a0) = (0, 1), so the one
    row is the one-units.  Another row count raises LLCError; depths m
    and m + 1 disagreeing raises PrecisionNotStabilized.
    """
    _check_depth(m)
    return _value(d, lam, _principal_row(d.q, d.n, d.pi_unit, m))


@lru_cache(maxsize=None)
def _psi_points(q: int, n: int, m: int) -> Counter:
    """The principal integral's unsolved rows at depth m.

    diag(h, 1, ..., 1) has the invariant of diag(a0 t^v, 1, ..., 1), so
    the row of (v, a0) stands for the q^(m-1) unit cosets with that
    leading digit.  The twist enters as lam(h) = lam(1/h)^-1, so the rows
    carry 1/h and are evaluated exactly like the dual integral's."""
    F = LocalField.base_field(q)
    ff = F.residue
    points = Counter()
    for v in range(-SHELL_BOUND, SHELL_BOUND + 1):
        for a0 in ff.units():
            inv = _principal_lead_invariant(F, n, v, a0)
            points[ZetaRow(v, Fraction(v * (n - 1), 2) - m, -v, ff.inv(a0), inv)] = q ** (m - 1)
    return points


@lru_cache(maxsize=None)
def _psi_rows(q: int, n: int, pi_unit: int, m: int) -> Counter:
    """The principal integral's support rows for one uniformizer at depth m."""
    return _solve_rows(_psi_points(q, n, m), pi_unit)


def dual_matrix(F: LocalField, xs, h: LaurentElem) -> MatG:
    """The integration variable of the dual integral, for x list of length n-2."""
    n = len(xs) + 2
    ff = F.residue
    hinv = inverse_t(ff, (h.val, h.coeffs, h.prec), F.var)
    rows = [[ONE_T if j == i + 1 else ZERO_T for j in range(n)] for i in range(n - 1)]
    rows.append(
        [hinv, ZERO_T]
        + [neg_t(ff, mul_t(ff, (x.val, x.coeffs, x.prec), hinv)) for x in reversed(xs)]
    )
    return wrap_matrix(F, rows)


def zeta_psi_tilde(d: SSCDatum, lam: TameChar, m: int = 2) -> EpsMonomial:
    """The dual integral as a monomial in q^(-s), already rewritten in s.

    A row is one lead shell (v, a0), and A(a0 t^v) lies in rotation
    times centre times I+ only for h in pi^-1 (1 + p), the shell
    (-1, 1/pi_unit), so the one row is that shell with every integral x.
    Another row count raises LLCError; depths m and m + 1 disagreeing
    raises PrecisionNotStabilized.
    """
    _check_depth(m)
    return _value(d, lam, _dual_row(d.q, d.n, d.pi_unit, m))


# ----- shared row tables ----------------------------------------------
#
# A lead invariant sees neither the datum nor the uniformizer.  Whether
# its row lies on the Whittaker support depends on pi_unit, and zeta,
# omega and the twist enter afterwards as characters of the solved
# invariants, so evaluating an integral for a datum and twist is a quick
# pass of root-of-unity arithmetic over the rows of its pi_unit.
#
# A row contributes its count times q^(-s x_power) q^q_exp times the
# datum's root at the solved `invariant` times lam(t^arg_val arg_lead)^-1.
# arg is h in the dual integral and 1/h in the principal one.  An
# unsolved row holds the WhittakerInvariant itself; the rows of one
# pi_unit hold what it solves to.

ZetaRow = namedtuple("ZetaRow", "x_power q_exp arg_val arg_lead invariant")


def _principal_lead_invariant(F: LocalField, n: int, v: int, a0: int) -> WhittakerInvariant:
    """The invariant of diag(a0 t^v, 1, ..., 1), which is its own M."""
    mono = MonomialClass(F, range(n), [v] + [0] * (n - 1), [a0] + [1] * (n - 1))
    return WhittakerInvariant(mono, 0, 0)


def _dual_lead_invariant(F: LocalField, n: int, v: int, a0: int) -> WhittakerInvariant:
    """The invariant of A(a0 t^v), which is its own M: row i < n - 1 is
    e_(i+1) and the bottom row is t^-v / a0 in column 0."""
    units = [1] * (n - 1) + [F.residue.inv(a0)]
    mono = MonomialClass(F, [*range(1, n), 0], [0] * (n - 1) + [-v], units)
    return WhittakerInvariant(mono, 0, 0)


def _solve_rows(points: Counter, pi_unit: int) -> Counter:
    """The rows of one uniformizer: each distinct unsolved row solved once,
    the points off its support dropped."""
    rows = Counter()
    for p, count in points.items():
        solved = p.invariant.solve(pi_unit)
        if solved is not None:
            rows[p._replace(invariant=solved)] += count
    return rows


@lru_cache(maxsize=None)
def _dual_points(q: int, n: int, m: int) -> Counter:
    """The dual integral's unsolved rows at depth m, for every pi_unit.

    Every integral x has the invariant of A(a0 t^v), so the row of
    (v, a0) stands for the q^(m-1) unit cosets with that leading digit,
    and its q-exponent carries the whole integral-x volume q^((n-2)/2).
    Non-integral x are audited in cached_dual_table, on _chain_classes."""
    F = LocalField.base_field(q)
    points = Counter()
    for v in range(-SHELL_BOUND, SHELL_BOUND + 1):
        # |h|^(1-s-(n-1)/2) at val(h) = v, unit coset volume q^-m, x volume
        q_exp = Fraction(v * (n - 3) + n - 2, 2) - m
        for a0 in F.residue.units():
            points[ZetaRow(-v, q_exp, v, a0, _dual_lead_invariant(F, n, v, a0))] = q ** (m - 1)
    return points


def _chains(n: int):
    """The valuation chains of the dual matrix's bottom row, as tuples of
    (column, valuation of x there): columns falling, valuations rising
    through -SHELL_BOUND..-1, so one or two links."""
    for k in range(1, SHELL_BOUND + 1):
        for cols in combinations(range(n - 1, 1, -1), k):
            for vals in combinations(range(-SHELL_BOUND, 0), k):
                yield tuple(zip(cols, vals))


@lru_cache(maxsize=None)
def _chain_classes(q: int, n: int) -> dict:
    """(v(h), chain) -> the cols and exps of the class of the dual matrix
    at h = t^v, with x = t^val on each (column, val) of the chain and
    x = 0 elsewhere, read once for every depth and pi_unit.

    Rows 0..n-2 of a dual matrix are e_1..e_(n-1), so a minor on its
    bottom r rows is nonzero only on columns n-r+1..n-1 and one more
    column s, where it is +-b_s, b the bottom row: 1/h at s = 0, 0 at
    s = 1 and -x/h at s >= 2.  The class takes the columns that minimize
    n v(b_s) + s, so its cols and exps see v(h) and the chain alone: the
    non-integral column of least weight, then the least-weight
    non-integral column left of the last link, while there is one.  An
    integral x never beats column 0, and along a chain the valuations
    rise, so _chains lists every chain of the region."""
    F = LocalField.base_field(q)
    classes = {}
    for v in range(-SHELL_BOUND, SHELL_BOUND + 1):
        for chain in _chains(n):
            xs = [F.zero()] * (n - 2)
            for col, val in chain:
                xs[n - 1 - col] = F.elem(val, (1,))
            mono = WhittakerInvariant.read(dual_matrix(F, xs, F.elem(v, (1,)))).mono
            classes[v, chain] = (mono.cols, mono.exps)
    return classes


def _table_rows(q: int, n: int, pi_unit: int, m: int) -> Counter:
    """The dual integral's rows for one uniformizer at depth m: every
    integral x summed exactly, solved for this pi_unit."""
    return _solve_rows(_dual_points(q, n, m), pi_unit)


# Solved support of the dual integral for one (q, n, pi_unit): the rows
# at the working depth m and at m + 1, and the points they stand for.
DualSupportTable = namedtuple("DualSupportTable", "q n pi_unit m agg agg_next row_count")


@lru_cache(maxsize=None)
def cached_dual_table(q: int, n: int, pi_unit: int, m: int = 2) -> DualSupportTable:
    """The dual integral's rows for one uniformizer choice, solved from
    lead invariants named once for every uniformizer, once no
    non-integral chain class can lie on the support."""
    _check_depth(m)
    # support and invariants do not see zeta or omega, so a throwaway
    # datum with trivial choices only validates (q, n, pi_unit)
    SSCDatum(q, n, RootOfUnity.one(), 0, None, pi_unit)
    # rotation^r central(s, d) has the cols of rotation^r and its exps
    # shifted by d; no unit moves either, so a class missing that shape
    # is off the support for every coset of its chain
    table = _rotation_table(LocalField.base_field(q), n, pi_unit)
    shapes = {cols: exps for cols, (_, exps, _) in table.items()}
    for (v, chain), (cols, exps) in _chain_classes(q, n).items():
        rot = shapes.get(cols)
        if rot is not None and len({a - b for a, b in zip(exps, rot)}) == 1:
            raise LLCError(
                f"table audit failed: non-integral x contributed at (q, n, v(h), chain) "
                f"= ({q}, {n}, {v}, {chain})"
            )
    rows = _table_rows(q, n, pi_unit, m)
    rows_next = _table_rows(q, n, pi_unit, m + 1)
    return DualSupportTable(q, n, pi_unit, m, rows, rows_next, sum(rows.values()))


# What an integral, or gamma, is evaluated from: every datum's value at
# `invariant` times lam(t^arg_val arg_lead)^-1 times `weight`.
StableRow = namedtuple("StableRow", "invariant arg_val arg_lead weight")


def _single_row(q: int, rows: Counter, what: str, m: int) -> StableRow:
    """The one solved row of an integral at depth m, with its weight
    count * q^q_exp * q^(-s x_power) as a monomial in normal form."""
    if len(rows) != 1:
        raise LLCError(f"{what} has {len(rows)} solved rows at depth {m}, not one")
    (row, count), = rows.items()
    weight = EpsMonomial(q, LambdaGraded.lambda_power(0, count), row.q_exp, -row.x_power)
    return StableRow(row.invariant, row.arg_val, row.arg_lead, weight)


def _stable_row(q: int, rows: Counter, rows_next: Counter, what: str, m: int) -> StableRow:
    """The single row at depth m once depth m + 1 has the same row: the
    same argument, solved invariant and weight, which make the integral
    equal at both depths for every datum and twist at once."""
    row = _single_row(q, rows, what, m)
    if row != _single_row(q, rows_next, what, m + 1):
        raise PrecisionNotStabilized(f"{what} moved between depths {m} and {m + 1}")
    return row


@lru_cache(maxsize=None)
def _principal_row(q: int, n: int, pi_unit: int, m: int) -> StableRow:
    rows = _psi_rows(q, n, pi_unit, m)
    return _stable_row(q, rows, _psi_rows(q, n, pi_unit, m + 1), "psi integral", m)


@lru_cache(maxsize=None)
def _dual_row(q: int, n: int, pi_unit: int, m: int) -> StableRow:
    T = cached_dual_table(q, n, pi_unit, m)
    return _stable_row(q, T.agg, T.agg_next, "dual integral", m)


def _value(d: SSCDatum, lam: TameChar, row: StableRow) -> EpsMonomial:
    """The one evaluator: row.weight times the datum's root at the solved
    invariant times lam at the argument, inverted, all in one scale."""
    if lam.field is not d.F:
        raise TypeError("twisting character must live on the datum's base field")
    root = d.invariant_root(row.invariant) * lam.of_leading(row.arg_val, row.arg_lead).inverse()
    return row.weight.scale(LambdaGraded(0, root))


@lru_cache(maxsize=None)
def _gamma_row(q: int, n: int, pi_unit: int, m: int = 2) -> StableRow:
    """gamma_automorphic's ratio row for one uniformizer.

    Both characters of a row are multiplicative: the datum's value is a
    character of the solved invariant (r, s, d, residue), and lam of the
    argument (val, lead).  So the quotient of the dual row by the
    principal one, with lam(-1)^(n-1) folded into the argument, is again
    a row, evaluated like an integral's.
    """
    dual = _dual_row(q, n, pi_unit, m)
    psi = _principal_row(q, n, pi_unit, m)
    ff = LocalField.base_field(q).residue
    a, b = dual.invariant, psi.invariant
    invariant = SolvedInvariant(
        a.rot - b.rot,
        ff.mul(a.central_unit, ff.inv(b.central_unit)),
        a.central_val - b.central_val,
        ff.sub(a.residue, b.residue),
    )
    # lam(dual arg)^-1 / lam(psi arg)^-1 is lam(dual arg / psi arg)^-1,
    # and lam(-1)^(n-1) is its own inverse
    lead = ff.mul(dual.arg_lead, ff.inv(psi.arg_lead))
    if (n - 1) % 2:
        lead = ff.neg(lead)
    return StableRow(invariant, dual.arg_val - psi.arg_val, lead, dual.weight / psi.weight)


def gamma_automorphic(d: SSCDatum, lam: TameChar, m: int = 2) -> EpsMonomial:
    """lam(-1)^(n-1) times the ratio of the dual to the principal integral.

    With the L-factor identically 1 this is also the epsilon factor.  Both
    integrals are single rows, checked at depths m and m + 1 once per
    uniformizer; a call evaluates the datum at the quotient invariant and
    lam at the quotient argument.
    """
    _check_depth(m)
    return _value(d, lam, _gamma_row(d.q, d.n, d.pi_unit, m))


def closed_form_epsilon(d: SSCDatum, lam: TameChar) -> EpsMonomial:
    """The epsilon factor without integration:
    lam(-1)^(n-1) lam(pi) zeta q^(1/2 - s).

    lam is multiplicative, so lam(-1)^(n-1) lam(pi) is lam at
    (-1)^(n-1) pi, the norm of the extension's variable: the unit is one
    character value times zeta, with no power of lam(-1).  omega does
    not enter, so the value is _closed_form's, once per (extension,
    zeta, lam)."""
    if lam.field is not d.F:
        raise TypeError("twisting character must live on the datum's base field")
    return _closed_form(d.extension_field(), d.zeta, lam)


@lru_cache(maxsize=None)
def _closed_form(efield: LocalField, zeta: RootOfUnity, lam: TameChar) -> EpsMonomial:
    """closed_form_epsilon behind its field check.  LocalField.extension
    hands out one object per extension, and roots and tame characters
    are interned, so each key is three shared objects.  Every caller of
    a key gets the same EpsMonomial, which nothing mutates."""
    unit = lam.of_leading(*norm_of_variable(efield)) * zeta
    return EpsMonomial._of_twice(efield.residue.q, LambdaGraded(0, unit), 1, -1)
