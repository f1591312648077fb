"""Rankin-Selberg integrals of the explicit Whittaker function against
tame characters, and the resulting gamma and epsilon factors.

Both integrals reduce to finite sums over coset representatives once a
depth m is fixed: multiplicative cosets h(1 + p^m) carry volume q^-m
(so the one-units have volume 1/q), additive cosets x + p^m carry volume
q^(1/2 - m) (so the integers have volume sqrt(q)).  Every evaluation is
repeated at depth m+1; a mismatch raises instead of averaging away.

The points of an integral, their Bruhat invariants and whether they lie
on the Whittaker support depend only on (q, n, pi_unit, depth, shell
bound).  Both integrals are therefore cached as aggregated rows, solved
invariants with multiplicities, and one assembly routine evaluates a
datum's character of the invariants and the twist on them.

The principal integral runs over diag(h, 1, ..., 1); its rows are the
points of the support at each depth.  The dual integral runs over the
matrices with superdiagonal identity block and bottom row
(1/h, 0, -x_{n-2}/h, ..., -x_1/h).  Its integrand vanishes unless every
x_i is integral and 1/h is in pi(1+p).  Up to a size cap the direct
integrator enumerates every point and evaluates the Whittaker function
there, which checks this pointwise.  Above the cap it assembles the
cached shared support table, which sums the surviving region in coarse
x-classes and spot-checks both the claimed vanishing and the claimed
class-constancy on fixed-seed random points.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

from .bruhat import WhittakerInvariant, decompose
from .cyclotomic import CycloNumber, RootOfUnity
from .characters import TameChar
from .errors import LLCError, PrecisionNotStabilized
from .laurent import LaurentElem, LocalField
from .matrices import MatG, diagonal
from .monomials import EpsMonomial, EpsPolynomial, LambdaGraded
from .supercuspidal import SSCDatum

# above this many integrand evaluations the dual integral switches from
# full enumeration to the support-pruned sum
FULL_ENUM_CAP = 20000
SPOT_CHECKS = 40
# fixed seeds of the support audits: AUDIT_SEED at the working depth,
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
def _psi_points(q: int, n: int, m: int, B: int):
    """Integration points (v, h, invariant) of the principal integral.

    The invariant of diag(h, 1, ..., 1) sees neither the datum nor the
    uniformizer, so one decomposition per point serves every pi_unit;
    _psi_rows solves it once per pi_unit."""
    F = LocalField.base_field(q)
    one = F.one()
    out = []
    for v in range(-B, B + 1):
        for w in F.unit_reps(m):
            h = w.shift(v)
            g = diagonal(F, [h] + [one] * (n - 1))
            out.append((v, h, WhittakerInvariant.of(*decompose(g))))
    return tuple(out)


@lru_cache(maxsize=None)
def _psi_rows(q: int, n: int, pi_unit: int, m: int, B: int) -> Counter:
    """The principal integral's support rows for one uniformizer at depth m.

    The twist enters as lam(h) = lam(1/h)^-1, so the rows carry 1/h and
    assemble exactly like the dual integral's."""
    ff = LocalField.base_field(q).residue
    rows = Counter()
    for v, h, inv in _psi_points(q, n, m, B):
        solved = inv.solve(pi_unit)
        if solved is not None:
            q_exp = Fraction(v * (n - 1), 2) - m
            rows[ZetaRow(v, q_exp, -v, ff.inv(h.coeff_at(v)), solved)] += 1
    return rows


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
        # depth m enumerates but m + 1 does not: audited, class-pruned rows
        return _assemble_rows(d, lam, Counter(_table_rows(F, n, d.pi_unit, k, B, AUDIT_SEED + 1)))

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
# The Bruhat decomposition of an integration point, and whether it lies
# on the Whittaker support at all, depend only on (q, n, pi_unit).  The
# choices of zeta, omega and the twist enter afterwards, as characters of
# the decomposition invariants.  A table decomposes every contributing
# point once and solves its invariant for the table's uniformizer;
# assembling the integral for a particular datum and twist is then a
# quick pass of root-of-unity arithmetic over the rows.
#
# A row contributes q^(-s x_power) q^q_exp times the datum's root at
# `solved` times lam(t^arg_val arg_lead)^-1.  arg is h in the dual
# integral and 1/h in the principal one.

ZetaRow = namedtuple("ZetaRow", "x_power q_exp arg_val arg_lead solved")


def _solved_point(F: LocalField, pi_unit: int, xs, h: LaurentElem):
    return WhittakerInvariant.of(*decompose(dual_matrix(F, xs, h))).solve(pi_unit)


def _table_rows(F: LocalField, n: int, pi_unit: int, m: int, B: int, seed: int) -> list[ZetaRow]:
    unit_rs = F.unit_reps(m)
    rows = []
    if _enumerates_fully(F, n, m, B):
        x_reps = F.integer_reps(-B, m)
        for v in range(-B, B + 1):
            for w in unit_rs:
                h = w.shift(v)
                for xs in itertools.product(x_reps, repeat=n - 2):
                    solved = _solved_point(F, pi_unit, xs, h)
                    if solved is not None:
                        rows.append(ZetaRow(-v, _point_weight(n, m, v), v, h.coeff_at(v), solved))
        return rows
    delta = 1 if m <= 2 else 0
    class_reps = F.integer_reps(0, delta)
    q_exp = _point_weight(n, m, -1) + (m - delta) * (n - 2)
    for w in unit_rs:
        h = w.shift(-1)
        for xs in itertools.product(class_reps, repeat=n - 2):
            solved = _solved_point(F, pi_unit, xs, h)
            if solved is not None:
                rows.append(ZetaRow(1, q_exp, -1, h.coeff_at(-1), solved))
    _audit_table(F, n, pi_unit, m, B, delta, seed)
    return rows


def _random_elem(rng: random.Random, F: LocalField, lo: int, hi: int) -> LaurentElem:
    return F.elem(lo, [rng.randrange(F.residue.q) for _ in range(hi - lo)])


def _audit_table(F: LocalField, n: int, pi_unit: int, m: int, B: int, delta: int, seed: int) -> None:
    """Spot-check the two facts the pruned rows rest on, vanishing off the
    proven support and x-class constancy on it, on the solved invariants
    themselves, so they certify the rows for every datum and twist at once."""
    rng = random.Random(seed)
    q = F.residue.q
    unit_rs = F.unit_reps(m)
    other_shells = [v for v in range(-B, B + 1) if v != -1]
    for _ in range(SPOT_CHECKS):
        v = rng.choice(other_shells)
        h = rng.choice(unit_rs).shift(v)
        xs = [_random_elem(rng, F, -B, m) for _ in range(n - 2)]
        if _solved_point(F, pi_unit, xs, h) is not None:
            raise LLCError(f"table audit failed: val(h) = {v} contributed")
    if n > 2:
        for _ in range(SPOT_CHECKS):
            h = rng.choice(unit_rs).shift(-1)
            xs = [_random_elem(rng, F, 0, m) for _ in range(n - 2)]
            j = rng.randrange(n - 2)
            bad_val = rng.randrange(-B, 0)
            xs[j] = F.elem(
                bad_val,
                [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(m - bad_val - 1)],
            )
            if _solved_point(F, pi_unit, xs, h) is not None:
                raise LLCError("table audit failed: non-integral x contributed")
        for _ in range(SPOT_CHECKS // 2):
            # digits below the class depth must not move the invariants
            h = rng.choice(unit_rs).shift(-1)
            base = [_random_elem(rng, F, 0, delta) if delta else F.zero() for _ in range(n - 2)]
            refined = [b + _random_elem(rng, F, delta, m) for b in base]
            if _solved_point(F, pi_unit, base, h) != _solved_point(F, pi_unit, refined, h):
                raise LLCError("table audit failed: invariants moved inside an x-class")


def _assemble_rows(d: SSCDatum, lam: TameChar, agg: Counter) -> EpsPolynomial:
    out = EpsPolynomial(d.q)
    for row, count in agg.items():
        lam_arg = lam.of_leading(row.arg_val, row.arg_lead).inverse()
        root = d.invariant_root(row.solved) * lam_arg
        out.add_term(row.x_power, CycloNumber(root.order, {root.num: count}), row.q_exp)
    return out


class DualSupportTable:
    """Decomposed support of the dual integral for one (q, n, pi_unit).

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
    """Decompose the dual integral's support once for a uniformizer choice."""
    if m < 2 or shell_bound < 1:
        raise ValueError("need depth m >= 2 and a positive shell bound")
    # support and invariants do not see zeta or omega, so a throwaway
    # datum with trivial choices only validates (q, n, pi_unit)
    F = SSCDatum(q, n, RootOfUnity.one(), 0, None, pi_unit).F
    rows = _table_rows(F, n, pi_unit, m, shell_bound, AUDIT_SEED)
    rows_next = _table_rows(F, n, pi_unit, m + 1, shell_bound, AUDIT_SEED + 1)
    return DualSupportTable(
        q, n, pi_unit, m, shell_bound, Counter(rows), Counter(rows_next), len(rows)
    )


@lru_cache(maxsize=None)
def cached_dual_table(q: int, n: int, pi_unit: int, m: int = 2, shell_bound: int = 2) -> DualSupportTable:
    return dual_support_table(q, n, pi_unit, m, shell_bound)


def gamma_automorphic(d: SSCDatum, lam: TameChar, m: int = 2, shell_bound: int = 2) -> EpsMonomial:
    """lam(-1)^(n-1) times the ratio of the dual to the principal integral.

    With the L-factor identically 1 this is also the epsilon factor.  Both
    integrals assemble from cached support rows.
    """
    num = cached_dual_table(d.q, d.n, d.pi_unit, m, shell_bound).assemble(d, lam)
    den = zeta_psi(d, lam, m, shell_bound)
    ratio = num.collapse_to_monomial() / den.collapse_to_monomial()
    sign = lam.at_minus_one() ** (d.n - 1)
    return ratio.scale(sign)


def closed_form_epsilon(d: SSCDatum, lam: TameChar) -> EpsMonomial:
    """The epsilon factor without integration:
    lam(-1)^(n-1) lam(pi) zeta q^(1/2 - s)."""
    unit = (lam.at_minus_one() ** (d.n - 1)) * lam(d.pi_elem()) * d.zeta
    return EpsMonomial(d.q, LambdaGraded.from_cyclo(unit), Fraction(1, 2), -1)
