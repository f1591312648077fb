"""Rankin-Selberg integrals of the explicit Whittaker function against
tame characters, and the resulting gamma and epsilon factors.

Both integrals reduce to finite sums over coset representatives once a
depth m is fixed: multiplicative cosets h(1 + p^m) carry volume q^-m
(so the one-units have volume 1/q), additive cosets x + p^m carry volume
q^(1/2 - m) (so the integers have volume sqrt(q)).  Every evaluation is
repeated at depth m+1; a mismatch raises instead of averaging away.

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
integral decomposes one lead matrix per shell v and leading digit a0,
whatever the depth, and caches it as an unsolved row weighted by the
points it stands for.  The rows of every shell are summed; one solver
turns them into the rows of a pi_unit, dropping those off its support,
and one assembly routine evaluates a datum's character of the
invariants and the twist on them, which is each integral as a
polynomial in q^(-s).

Gamma does not assemble.  Each integral has a single solved row per
pi_unit, so the ratio of the two integrals is one monomial times the
datum's character at a quotient invariant and the twist at a quotient
argument.  _gamma_row builds that ratio row once per (q, n, pi_unit),
checking there that both rows agree at depths m and m+1, and a call
evaluates the two character values.

The dual integrand's vanishing for non-integral x is the one claim still
spot-checked, on fixed-seed random points, for every pi_unit.  Up to a
size cap the direct dual integrator enumerates every point, non-integral
x included, and evaluates the Whittaker function there, which checks all
of this pointwise.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

from .bruhat import SolvedInvariant, WhittakerInvariant, decompose
from .cyclotomic import CycloNumber, RootOfUnity
from .characters import TameChar
from .errors import LLCError, PrecisionNotStabilized
from .laurent import LaurentElem, LocalField
from .matrices import MatG, diagonal
from .monomials import EpsMonomial, EpsPolynomial, LambdaGraded
from .supercuspidal import SSCDatum

# above this many integrand evaluations the dual integral switches from
# full enumeration to the lead-matrix rows
FULL_ENUM_CAP = 20000
SPOT_CHECKS = 40
# fixed seeds of the non-integral-x audits: AUDIT_SEED at the working depth,
# AUDIT_SEED + 1 one depth higher
AUDIT_SEED = 71


def zeta_psi(
    d: SSCDatum,
    lam: TameChar,
    m: int = 2,
    shell_bound: int = 2,
    measure_scale: Fraction = Fraction(1),
) -> EpsPolynomial:
    """The principal integral: W on diag(h, 1, ..., 1) against lam(h)|h|^(s-(n-1)/2).

    Raises PrecisionNotStabilized when depths m and m+1 disagree.
    """
    if m < 2 or shell_bound < 1:
        raise ValueError("need depth m >= 2 and a positive shell bound")
    return _two_depths(
        lambda k: _assemble_rows(d, lam, _psi_rows(d.q, d.n, d.pi_unit, k, shell_bound)),
        m,
        "psi integral",
        measure_scale,
    )


def _two_depths(at_depth, m: int, what: str, measure_scale: Fraction) -> EpsPolynomial:
    """at_depth(m), scaled, once it equals at_depth(m + 1)."""
    out = at_depth(m)
    if out != at_depth(m + 1):
        raise PrecisionNotStabilized(f"{what} moved between depths {m} and {m + 1}")
    return out.scale(measure_scale)


@lru_cache(maxsize=None)
def _psi_points(q: int, n: int, m: int, B: int) -> Counter:
    """The principal integral's unsolved rows at depth m.

    diag(h, 1, ..., 1) has the invariant of diag(a0 t^v, 1, ..., 1), so
    the row of (v, a0) stands for the q^(m-1) unit cosets with that
    leading digit.  The twist enters as lam(h) = lam(1/h)^-1, so the rows
    carry 1/h and assemble exactly like the dual integral's."""
    ff = LocalField.base_field(q).residue
    points = Counter()
    for (v, a0), inv in _lead_invariants(q, n, B, _principal_lead).items():
        points[ZetaRow(v, Fraction(v * (n - 1), 2) - m, -v, ff.inv(a0), inv)] = q ** (m - 1)
    return points


@lru_cache(maxsize=None)
def _psi_rows(q: int, n: int, pi_unit: int, m: int, B: int) -> Counter:
    """The principal integral's support rows for one uniformizer at depth m."""
    return _solve_rows(_psi_points(q, n, m, B), pi_unit)


def dual_matrix(F: LocalField, xs, h: LaurentElem) -> MatG:
    """The integration variable of the dual integral, for x list of length n-2."""
    n = len(xs) + 2
    hinv = h.inverse()
    rows = [[F.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = F.one()
    rows[n - 1][0] = hinv
    for j in range(2, n):
        rows[n - 1][j] = -(xs[n - j - 1] * hinv)
    return MatG(F, rows)


def zeta_psi_tilde(
    d: SSCDatum,
    lam: TameChar,
    m: int = 2,
    shell_bound: int = 2,
    measure_scale: Fraction = Fraction(1),
) -> EpsPolynomial:
    """The dual integral as a polynomial in q^(-s), already rewritten in s.

    Raises PrecisionNotStabilized when depths m and m+1 disagree.
    """
    if m < 2 or shell_bound < 1:
        raise ValueError("need depth m >= 2 and a positive shell bound")
    F, n, B = d.F, d.n, shell_bound
    if not _enumerates_fully(F, n, m, B):
        return cached_dual_table(d.q, n, d.pi_unit, m, B).assemble(d, lam, measure_scale)

    def at_depth(k: int) -> EpsPolynomial:
        if _enumerates_fully(F, n, k, B):
            return _tilde_points(d, lam, k, B)
        # depth m enumerates but m + 1 does not: the audited lead-matrix rows
        return _assemble_rows(d, lam, _table_rows(d.q, n, d.pi_unit, k, B, AUDIT_SEED + 1))

    return _two_depths(at_depth, m, "dual integral", measure_scale)


def _point_weight(n: int, m: int, v: int) -> Fraction:
    # q-exponent of |h|^(1-s-(n-1)/2) at val(h)=v, times both coset volumes
    return Fraction(-v) + Fraction(v * (n - 1), 2) - m + (n - 2) * (Fraction(1, 2) - m)


def _enumerates_fully(F: LocalField, n: int, m: int, B: int) -> bool:
    count = (2 * B + 1) * len(F.unit_reps(m)) * F.residue.q ** ((B + m) * (n - 2))
    return count <= FULL_ENUM_CAP


def _tilde_points(d: SSCDatum, lam: TameChar, m: int, B: int) -> EpsPolynomial:
    """The independent oracle: the Whittaker function at every point."""
    F, n = d.F, d.n
    out = EpsPolynomial(d.q)
    x_reps = F.integer_reps(-B, m)
    for v in range(-B, B + 1):
        for w in F.unit_reps(m):
            h = w.shift(v)
            lam_h = lam(h).inverse()
            for xs in itertools.product(x_reps, repeat=n - 2):
                wv = d.whittaker_root(dual_matrix(F, xs, h))
                if wv is None:
                    continue
                out.add_term(-v, wv * lam_h, _point_weight(n, m, v))
    return out


# ----- shared-decomposition tables ------------------------------------
#
# A lead invariant sees neither the datum nor the uniformizer.  Whether
# its row lies on the Whittaker support depends on pi_unit, and zeta,
# omega and the twist enter afterwards as characters of the solved
# invariants, so assembling an integral for a datum and twist is a quick
# pass of root-of-unity arithmetic over the rows of its pi_unit.
#
# A row contributes its count times q^(-s x_power) q^q_exp times the
# datum's root at the solved `invariant` times lam(t^arg_val arg_lead)^-1.
# arg is h in the dual integral and 1/h in the principal one.  An
# unsolved row holds the WhittakerInvariant itself; the rows of one
# pi_unit hold what it solves to.

ZetaRow = namedtuple("ZetaRow", "x_power q_exp arg_val arg_lead invariant")


def _dual_lead(F: LocalField, n: int, h: LaurentElem) -> MatG:
    return dual_matrix(F, [F.zero()] * (n - 2), h)


def _principal_lead(F: LocalField, n: int, h: LaurentElem) -> MatG:
    return diagonal(F, [h] + [F.one()] * (n - 1))


@lru_cache(maxsize=None)
def _lead_invariants(q: int, n: int, B: int, lead) -> dict:
    """(v, a0) -> the invariant of lead(F, n, a0 t^v) for every shell v
    in -B..B and residue unit a0: one decomposition each, which every
    depth shares."""
    F = LocalField.base_field(q)
    return {
        (v, a0): WhittakerInvariant.of(*decompose(lead(F, n, F.elem(v, (a0,)))))
        for v in range(-B, B + 1)
        for a0 in F.residue.units()
    }


def _solve_rows(points: Counter, pi_unit: int) -> Counter:
    """The rows of one uniformizer: each distinct unsolved row solved once,
    the points off its support dropped."""
    rows = Counter()
    for p, count in points.items():
        solved = p.invariant.solve(pi_unit)
        if solved is not None:
            rows[p._replace(invariant=solved)] += count
    return rows


# the dual integral's unsolved rows at one depth, and the invariants of
# its audit points, each with a non-integral x
DualPoints = namedtuple("DualPoints", "points non_integral")


def _random_elem(rng: random.Random, F: LocalField, lo: int, hi: int) -> LaurentElem:
    return F.elem(lo, [rng.randrange(F.residue.q) for _ in range(hi - lo)])


@lru_cache(maxsize=None)
def _dual_points(q: int, n: int, m: int, B: int, seed: int) -> DualPoints:
    """The dual integral's unsolved rows at depth m, for every pi_unit.

    Every integral x has the invariant of A(a0 t^v), so the row of
    (v, a0) stands for the q^(m-1) unit cosets with that leading digit
    times the q^(m(n-2)) integral x-cosets.  The audit points, with a
    non-integral x, are drawn from random.Random(seed)."""
    F = LocalField.base_field(q)
    # the count holds the integral x as classes mod p at depth 2 and as
    # one class deeper, the rest of their volume rides in q_exp; row_count
    # is read in these units
    x_digits = 1 if m == 2 else 0
    count = q ** (m - 1 + x_digits * (n - 2))
    points = Counter()
    for (v, a0), inv in _lead_invariants(q, n, B, _dual_lead).items():
        q_exp = _point_weight(n, m, v) + (m - x_digits) * (n - 2)
        points[ZetaRow(-v, q_exp, v, a0, inv)] = count

    non_integral = []
    if n > 2:
        rng = random.Random(seed)
        unit_rs = F.unit_reps(m)
        for _ in range(SPOT_CHECKS):
            h = rng.choice(unit_rs).shift(rng.randrange(-B, B + 1))
            xs = [_random_elem(rng, F, 0, m) for _ in range(n - 2)]
            j = rng.randrange(n - 2)
            bad_val = rng.randrange(-B, 0)
            xs[j] = F.elem(
                bad_val,
                [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(m - bad_val - 1)],
            )
            non_integral.append(WhittakerInvariant.of(*decompose(dual_matrix(F, xs, h))))
    return DualPoints(points, tuple(non_integral))


def _table_rows(q: int, n: int, pi_unit: int, m: int, B: int, seed: int) -> Counter:
    """The dual integral's rows for one uniformizer at depth m.

    The rows sum every integral x exactly.  That the integrand vanishes
    for non-integral x is audited on the invariants solved for this
    pi_unit, which certifies the rows for every datum and twist at once."""
    pts = _dual_points(q, n, m, B, seed)
    if any(inv.solve(pi_unit) is not None for inv in pts.non_integral):
        raise LLCError("table audit failed: non-integral x contributed")
    return _solve_rows(pts.points, pi_unit)


def _assemble_rows(d: SSCDatum, lam: TameChar, agg: Counter) -> EpsPolynomial:
    out = EpsPolynomial(d.q)
    for row, count in agg.items():
        lam_arg = lam.of_leading(row.arg_val, row.arg_lead).inverse()
        root = d.invariant_root(row.invariant) * lam_arg
        out.add_term(row.x_power, CycloNumber(root.order, {root.num: count}), row.q_exp)
    return out


class DualSupportTable:
    """Solved support of the dual integral for one (q, n, pi_unit).

    Holds aggregated rows at the working depth and at depth + 1; every
    assembly replays the two-depth stabilization contract of the direct
    integrator on the cached rows.
    """

    def __init__(self, q, n, pi_unit, m, shell_bound, agg, agg_next, row_count):
        self.q = q
        self.n = n
        self.pi_unit = pi_unit
        self.m = m
        self.shell_bound = shell_bound
        self.agg = agg
        self.agg_next = agg_next
        self.row_count = row_count

    def assemble(
        self, d: SSCDatum, lam: TameChar, measure_scale: Fraction = Fraction(1)
    ) -> EpsPolynomial:
        """The dual integral for d twisted by lam, from the cached rows."""
        if (d.q, d.n, d.pi_unit) != (self.q, self.n, self.pi_unit):
            raise ValueError("table was built for a different residue field or uniformizer")
        by_depth = {self.m: self.agg, self.m + 1: self.agg_next}
        return _two_depths(
            lambda k: _assemble_rows(d, lam, by_depth[k]), self.m, "dual integral", measure_scale
        )


def dual_support_table(
    q: int, n: int, pi_unit: int, m: int = 2, shell_bound: int = 2
) -> DualSupportTable:
    """The dual integral's rows for one uniformizer choice, solved from
    lead matrices decomposed once for every uniformizer."""
    if m < 2 or shell_bound < 1:
        raise ValueError("need depth m >= 2 and a positive shell bound")
    # support and invariants do not see zeta or omega, so a throwaway
    # datum with trivial choices only validates (q, n, pi_unit)
    SSCDatum(q, n, RootOfUnity.one(), 0, None, pi_unit)
    rows = _table_rows(q, n, pi_unit, m, shell_bound, AUDIT_SEED)
    rows_next = _table_rows(q, n, pi_unit, m + 1, shell_bound, AUDIT_SEED + 1)
    return DualSupportTable(q, n, pi_unit, m, shell_bound, rows, rows_next, sum(rows.values()))


@lru_cache(maxsize=None)
def cached_dual_table(q: int, n: int, pi_unit: int, m: int = 2, shell_bound: int = 2) -> DualSupportTable:
    return dual_support_table(q, n, pi_unit, m, shell_bound)


# The ratio of the dual to the principal integral, for one uniformizer:
# every datum's value at `invariant` times lam at `arg` times `ratio`.
GammaRow = namedtuple("GammaRow", "invariant arg ratio")


def _single_row(q: int, rows: Counter, what: str, m: int) -> tuple[ZetaRow, EpsMonomial]:
    """The one solved row of an integral at depth m, and its weight
    count * q^q_exp * q^(-s x_power) as a monomial in normal form."""
    if len(rows) != 1:
        raise LLCError(f"{what} has {len(rows)} solved rows at depth {m}, not one")
    (row, count), = rows.items()
    return row, EpsMonomial(q, LambdaGraded.lambda_power(0, count), row.q_exp, -row.x_power)


def _stable_row(
    q: int, rows: Counter, rows_next: Counter, what: str, m: int
) -> tuple[ZetaRow, EpsMonomial]:
    """The single row at depth m once depth m + 1 has the same row: the
    same argument, solved invariant and weight, which make the integral
    equal at both depths for every datum and twist at once."""
    row, weight = _single_row(q, rows, what, m)
    nxt, weight_next = _single_row(q, rows_next, what, m + 1)
    if (row.arg_val, row.arg_lead, row.invariant, weight) != (
        nxt.arg_val, nxt.arg_lead, nxt.invariant, weight_next
    ):
        raise PrecisionNotStabilized(f"{what} moved between depths {m} and {m + 1}")
    return row, weight


@lru_cache(maxsize=None)
def _gamma_row(q: int, n: int, pi_unit: int, m: int = 2, shell_bound: int = 2) -> GammaRow:
    """gamma_automorphic's ratio row for one uniformizer.

    Each integral has exactly one solved row.  A row is one lead shell
    (v, a0), and the support is rotation times centre times I+: in the
    principal integral only the one-units (v, a0) = (0, 1) meet it, in
    the dual integral only h in pi^-1 (1 + p), the shell (-1, 1/pi_unit).
    A table with any other number of rows raises LLCError; depths m and
    m + 1 must agree row for row, or PrecisionNotStabilized is raised.

    Both characters of a row are multiplicative: the datum's value is a
    character of the solved invariant (r, s, d, residue), and lam of the
    argument (val, lead).  So the quotient of the two rows, with
    lam(-1)^(n-1) folded into the argument, costs one value of each.
    """
    T = cached_dual_table(q, n, pi_unit, m, shell_bound)
    dual, dual_weight = _stable_row(q, T.agg, T.agg_next, "dual integral", m)
    psi, psi_weight = _stable_row(
        q,
        _psi_rows(q, n, pi_unit, m, shell_bound),
        _psi_rows(q, n, pi_unit, m + 1, shell_bound),
        "psi integral",
        m,
    )
    ff = LocalField.base_field(q).residue
    a, b = dual.invariant, psi.invariant
    invariant = SolvedInvariant(
        a.rot - b.rot,
        ff.mul(a.central_unit, ff.inv(b.central_unit)),
        a.central_val - b.central_val,
        ff.sub(a.residue, b.residue),
    )
    # a row contributes lam(arg)^-1: the quotient is lam(psi arg / dual arg)
    lead = ff.mul(psi.arg_lead, ff.inv(dual.arg_lead))
    if (n - 1) % 2:
        lead = ff.neg(lead)
    arg = (psi.arg_val - dual.arg_val, lead)
    return GammaRow(invariant, arg, dual_weight / psi_weight)


def gamma_automorphic(d: SSCDatum, lam: TameChar, m: int = 2, shell_bound: int = 2) -> EpsMonomial:
    """lam(-1)^(n-1) times the ratio of the dual to the principal integral.

    With the L-factor identically 1 this is also the epsilon factor.  Both
    integrals are single rows, checked at depths m and m + 1 once per
    uniformizer (_gamma_row); a call evaluates the datum at the quotient
    invariant and lam at the quotient argument.
    """
    row = _gamma_row(d.q, d.n, d.pi_unit, m, shell_bound)
    return row.ratio.scale(d.invariant_root(row.invariant) * lam.of_leading(*row.arg))


def closed_form_epsilon(d: SSCDatum, lam: TameChar) -> EpsMonomial:
    """The epsilon factor without integration:
    lam(-1)^(n-1) lam(pi) zeta q^(1/2 - s)."""
    unit = (lam.at_minus_one() ** (d.n - 1)) * lam.of_leading(1, d.pi_unit) * d.zeta
    return EpsMonomial(d.q, LambdaGraded.from_cyclo(unit), Fraction(1, 2), -1)
