"""Special-pair checks for two supercuspidal data on the same group.

Words in the group generated by both affine rotations, the center and
the pro-unipotent Iwahori are kept in the form M * k with M a monomial
class and k an Iwahori matrix mod t^N (N = PRECISION), which is exact
in the congruence quotient the Whittaker value reads; the inverse word
is carried along in the same form, and each word is its own witness of
membership.  KWalk holds k and k^-1 as flat lists of laurent's
(val, coeffs, prec) triples, each cut at t^N by truncate_t after the
kernel that computes it, so its matrices equal the series ones: a
conjugation by a monomial permutes, scales and shifts entries, an I+
generator is one addmul_t (or mul_t on the diagonal) per touched entry,
and the Iwahori test reads the low terms of the entries a step moved.
Series and matrices are built only where a word leaves the walk.

Both checks read the WhittakerInvariant of bruhat, which does not see
zeta, omega or the uniformizer unit.  Every matrix the checks
eliminate (the audited walk prefixes, the mirabolic blocks and their
refinements, the support draws) is read by WhittakerInvariant.read, at
the precision it carries and again as given where that cannot decide; a
singular draw raises what decompose would, so the seeded redraws are
those of decompose.  On the support the value
psi(residue) zeta^r omega(s t^d) is a character of the solved tuple
(r, s, d, residue).  So each check sums over a few keys computed once:
a walk counts its prefixes per unit under (fwd on support, inv on
support, product of the two solved tuples, uses the other unit, uses
both), and W(k) W(k^-1) is a datum's value at the product; a mirabolic
point embed(h) u(x) equals u(h x) embed(h), so one decomposition per
GL_{n-1} block serves every last column, whose t^0 digit only shifts the
residue.  Deeper digits are spot-checked to leave the invariant alone.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, namedtuple
from functools import lru_cache

from .bruhat import MonomialClass, SolvedInvariant, WhittakerInvariant
from .cyclotomic import RootOfUnity
from .errors import InsufficientPrecision, LLCError, ZeroInput
from .laurent import (
    ONE_T,
    ZERO_T,
    LocalField,
    add_t,
    addmul_t,
    coeff_at_t,
    inverse_t,
    mul_t,
    truncate_t,
)
from .matrices import MatG, wrap_matrix
from .supercuspidal import SSCDatum

# KWalk keeps its state mod t^PRECISION, and the mirabolic and support
# checks draw PRECISION random t-adic digits per entry, SHELL_BOUND more
# where an entry may have a pole down to t^-SHELL_BOUND; every
# AUDIT_STRIDE-th walk prefix is decomposed afresh
PRECISION = 2
SHELL_BOUND = 1
AUDIT_STRIDE = 503


class PairConfig:
    """Two data with the same size, residue field and central character."""

    def __init__(self, d1: SSCDatum, d2: SSCDatum):
        if (d1.q, d1.n) != (d2.q, d2.n):
            raise ValueError("pair must share q and n")
        if d1.omega_exp != d2.omega_exp or d1.omega.at_var != d2.omega.at_var:
            raise ValueError("pair must share the central character")
        self.d1 = d1
        self.d2 = d2

    def __repr__(self) -> str:
        return f"PairConfig(d1={self.d1!r}, d2={self.d2!r})"


# ----- words in the joint compact group --------------------------------

KWord = namedtuple("KWord", "uses1 uses2 fwd inv")
# tables: pi-unit -> ((fwd on support, inv on support, product of the two
# solved invariants, uses the other unit, uses both), (words, first word))
# pairs; audit_misses: pi-unit -> audited words whose decomposition solves
# apart from the kept invariant
WalkSamples = namedtuple(
    "WalkSamples", "q n u1 u2 seed steps audited tables audit_misses"
)


_LEFT_IWAHORI = "walk state left the Iwahori subgroup"


class KWalk:
    """One growing word; every prefix can be snapshotted as a sample.

    Appending a monomial generator g sends (M, k) to (Mg, g^-1 k g) and
    the inverse pair (Mi, ki) to (g^-1 Mi, ki); appending an Iwahori
    element h sends k to kh and ki to (Mi^-1 h^-1 Mi) ki.  All monomials
    reachable here normalize the Iwahori subgroup, so both k-parts stay
    inside it.

    M and Mi are MonomialClass objects.  k and ki are flat lists of n*n
    (val, coeffs, prec) triples, entry (i, j) at index i*n + j.  An entry
    no step has touched is exact; every other one is cut at t^N by
    truncate_t, in the normal form LaurentElem.truncate(N) gives, after
    the laurent kernel that computes it, so the k and ki views are == to
    the matrices a walk on series computes.

    The Iwahori test runs on the triples after every push, over the
    entries the push can move: all of k after a conjugation, the touched
    column of k and row of ki after an I+ push, nothing after a central
    push.  A nonzero coefficient below t^0, or a bad t^0 digit, raises
    LLCError; a precision too low to decide raises InsufficientPrecision.
    """

    def __init__(self, q: int, n: int, u1: int, u2: int, precision: int = 2, seed: int = 0):
        if n < 2:
            raise ValueError(f"the walk needs matrix size n >= 2, not {n}")
        if precision < 2:
            raise ValueError("need precision at least 2 to read affine residues")
        self.F = LocalField.base_field(q)
        self.q, self.n, self.u1, self.u2 = q, n, u1, u2
        self.N = precision
        self.rng = random.Random(seed)
        self.rot = {
            1: MonomialClass.rotation(self.F, n, u1),
            2: MonomialClass.rotation(self.F, n, u2),
        }
        self._rot_moves = {w: self._monomial_move(cls) for w, cls in self.rot.items()}
        self._central_moves: dict[tuple[int, int], tuple] = {}
        self.M = MonomialClass.identity(self.F, n)
        self.Mi = MonomialClass.identity(self.F, n)
        self._k = [ONE_T if i == j else ZERO_T for i in range(n) for j in range(n)]
        self._ki = list(self._k)
        # per entry: the lowest precision that decides its Iwahori test,
        # and the t^0 digit it needs (None when any digit will do)
        self._shape = [
            (1, 1) if i == j else (0, None) if i < j else (1, 0)
            for i in range(n)
            for j in range(n)
        ]
        self._superdiag = [i * n + i + 1 for i in range(n - 1)]
        self._corner = (n - 1) * n
        self.used1 = False
        self.used2 = False

    # ----- views at the boundary ----------------------------------------
    @property
    def k(self) -> MatG:
        n = self.n
        return wrap_matrix(self.F, [self._k[i : i + n] for i in range(0, n * n, n)])

    @property
    def ki(self) -> MatG:
        n = self.n
        return wrap_matrix(self.F, [self._ki[i : i + n] for i in range(0, n * n, n)])

    def forward_matrix(self) -> MatG:
        return self.M.as_matrix() * self.k

    def inverse_matrix(self) -> MatG:
        return self.Mi.as_matrix() * self.ki

    # ----- the entry test -----------------------------------------------
    def _check(self, entries: list, idxs) -> None:
        """The Iwahori test of the entries idxs, in row-major order."""
        shape = self._shape
        for idx in idxs:
            v, cs, p = entries[idx]
            if cs and v < 0:
                raise LLCError(_LEFT_IWAHORI)
            floor, lead = shape[idx]
            if p is not None and p < floor:
                raise InsufficientPrecision(f"cannot decide valuation >= {floor} from O(t^{p})")
            if lead is not None and (cs[0] if cs and v == 0 else 0) != lead:
                raise LLCError(_LEFT_IWAHORI)

    # ----- monomial generators ------------------------------------------
    def _monomial_move(self, cls: MonomialClass) -> tuple:
        """(cls, its inverse, conjugation plan): the plan sends entry (i, j)
        to (cols_i, cols_j) with the _mul row of units_j / units_i and
        the shift exps_j - exps_i."""
        ff, n = self.F.residue, self.n
        cols, exps, units = cls.cols, cls.exps, cls.units
        plan = [
            (i * n + j, cols[i] * n + cols[j], ff._mul[ff.mul(units[j], ff.inv(units[i]))],
             exps[j] - exps[i])
            for i in range(n)
            for j in range(n)
        ]
        return cls, cls.inverse(), plan

    def _push_monomial(self, move) -> None:
        """move is (cls, its inverse, conjugation plan or None for a scalar);
        k becomes cls^-1 k cls by the plan."""
        cls, inv, plan = move
        self.M = self.M.compose(cls)
        self.Mi = inv.compose(self.Mi)
        # ki is untouched and a scalar leaves k alone: nothing new to test
        if plan is None:
            return
        k, N = self._k, self.N
        out = [ZERO_T] * len(k)
        for src, dst, row, s in plan:
            v, cs, p = k[src]
            # an exact zero stays exact; truncate_t normalizes a zero's val
            if cs or p is not None:
                out[dst] = truncate_t(
                    (v + s, tuple([row[c] for c in cs]), None if p is None else p + s), N
                )
        self._k = out
        self._check(out, range(len(out)))

    def push_rotation(self, which: int) -> None:
        self._push_monomial(self._rot_moves[which])
        if which == 1:
            self.used1 = True
        else:
            self.used2 = True

    def push_central(self, s: int, d: int) -> None:
        # scalars commute: the k-part conjugation is the identity map
        move = self._central_moves.get((s, d))
        if move is None:
            cls = MonomialClass.central(self.F, self.n, s, d)
            move = self._central_moves[s, d] = (cls, cls.inverse(), None)
        self._push_monomial(move)

    # ----- pro-unipotent Iwahori generators -------------------------------
    def push_elementary(self, a: int, b: int, x) -> None:
        """Append I + x E_ab (a != b); x must respect the Iwahori shape."""
        self._push_elementary(a, b, (x.val, x.coeffs, x.prec))

    def _push_elementary(self, a: int, b: int, x: tuple) -> None:
        n, N, ff = self.n, self.N, self.F.residue
        # inverse generator I - x E_ab conjugated through Mi, applied left
        cols, exps, units = self.Mi.cols, self.Mi.exps, self.Mi.units
        c = ff.neg(ff.mul(units[b], ff.inv(units[a])))
        xi = mul_t(ff, (exps[b] - exps[a], (c,), None), x)
        k, ki = self._k, self._ki
        k_col = range(b, n * n, n)
        for dst in k_col:
            k[dst] = truncate_t(addmul_t(ff, k[dst], k[dst - b + a], x), N)
        ap, bp = cols[a] * n, cols[b] * n
        ki_row = range(ap, ap + n)
        for dst in ki_row:
            ki[dst] = truncate_t(addmul_t(ff, ki[dst], xi, ki[dst - ap + bp]), N)
        self._check(k, k_col)
        self._check(ki, ki_row)

    def push_one_unit_diag(self, a: int, e) -> None:
        """Append the diagonal matrix with one-unit e in slot a."""
        e = (e.val, e.coeffs, e.prec)
        self._push_one_unit_diag(a, e, inverse_t(self.F.residue, e, self.N + 1, self.F.var))

    def _push_one_unit_diag(self, a: int, e: tuple, einv: tuple) -> None:
        n, N, ff = self.n, self.N, self.F.residue
        k, ki = self._k, self._ki
        k_col = range(a, n * n, n)
        for idx in k_col:
            k[idx] = truncate_t(mul_t(ff, k[idx], e), N)
        # units cancel in the conjugation of a diagonal, only the slot moves
        ap = self.Mi.cols[a] * n
        ki_row = range(ap, ap + n)
        for idx in ki_row:
            ki[idx] = truncate_t(mul_t(ff, ki[idx], einv), N)
        self._check(k, k_col)
        self._check(ki, ki_row)

    def push_random_iplus(self) -> None:
        rng, n, q, N = self.rng, self.n, self.q, self.N
        kind = rng.randrange(3)
        if kind == 0:
            a = rng.randrange(n)
            j = rng.randrange(1, N)
            self._push_one_unit_diag(a, *_one_units(self.F, N)[j, rng.randrange(1, q)])
            return
        if kind == 1:
            a = rng.randrange(n - 1)
            b = rng.randrange(a + 1, n)
            j = rng.randrange(0, N)
        else:
            b = rng.randrange(n - 1)
            a = rng.randrange(b + 1, n)
            j = rng.randrange(1, N)
        self._push_elementary(a, b, (j, (rng.randrange(1, q),), None))

    def random_step(self) -> None:
        roll = self.rng.randrange(6)
        if roll == 0:
            self.push_rotation(1)
        elif roll == 1:
            self.push_rotation(2)
        elif roll == 2:
            self.push_central(self.rng.randrange(1, self.q), self.rng.choice((-1, 0, 1)))
        else:
            self.push_random_iplus()

    # ----- samples ------------------------------------------------------
    def _invariant(self, mono: MonomialClass, entries: list) -> WhittakerInvariant:
        """The invariant of mono * k read off k's entries: the superdiagonal
        t^0 digits summed, and the t^1 digit of the corner entry."""
        add = self.F.residue._add
        total = 0
        for idx in self._superdiag:
            total = add[total][coeff_at_t(entries[idx], 0, "t")]
        return WhittakerInvariant(mono, total, coeff_at_t(entries[self._corner], 1, "t"))

    def snapshot(self) -> KWord:
        fwd = self._invariant(self.M, self._k)
        inv = self._invariant(self.Mi, self._ki)
        return KWord(self.used1, self.used2, fwd, inv)


@lru_cache(maxsize=None)
def _one_units(F: LocalField, N: int) -> dict:
    """(j, c) -> the one-unit 1 + c t^j and its inverse to relative
    precision N + 1, as (val, coeffs, prec): the random I+ diagonal
    generators, built once per field and precision."""
    out = {}
    for j in range(1, N):
        for c in F.residue.units():
            e = (0, (1,) + (0,) * (j - 1) + (c,), None)
            out[j, c] = e, inverse_t(F.residue, e, N + 1, F.var)
    return out


def solved_product(ff, a: SolvedInvariant, b: SolvedInvariant) -> SolvedInvariant:
    """The solved invariant at which every datum's value is its value at a
    times its value at b: psi(residue) zeta^r omega(s t^d) is a character
    of (r, s, d, residue)."""
    return SolvedInvariant(
        a.rot + b.rot,
        ff.mul(a.central_unit, b.central_unit),
        a.central_val + b.central_val,
        ff.add(a.residue, b.residue),
    )


def sample_k_words(
    q: int,
    n: int,
    u1: int,
    u2: int,
    steps: int = 10_000,
    seed: int = 2024,
) -> WalkSamples:
    """Every prefix of one long random word, tabulated per pi-unit.

    Each prefix is solved once for each unit of the walk and counted under
    its key; every AUDIT_STRIDE-th prefix is also decomposed afresh, and
    the prefixes whose fresh invariant solves apart from the kept one are
    listed per unit.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    walk = KWalk(q, n, u1, u2, PRECISION, seed)
    ff = walk.F.residue
    units = sorted({u1, u2})
    tables: dict[int, dict] = {u: {} for u in units}
    misses: dict[int, list] = {u: [] for u in units}
    for idx in range(steps):
        walk.random_step()
        w = walk.snapshot()
        read = None
        if (idx + 1) % AUDIT_STRIDE == 0:
            read = WhittakerInvariant.read(walk.forward_matrix())
        for u in units:
            a, b = w.fwd.solve(u), w.inv.solve(u)
            key = (
                a is not None,
                b is not None,
                None if a is None or b is None else solved_product(ff, a, b),
                (w.uses1 and u1 != u) or (w.uses2 and u2 != u),
                w.uses1 and w.uses2,
            )
            count, first = tables[u].get(key, (0, idx))
            tables[u][key] = (count + 1, first)
            if read is not None and read.solve(u) != a:
                misses[u].append(idx)
    # frozen, since cached walks are shared by every datum that reads them
    tables = {u: tuple(t.items()) for u, t in tables.items()}
    misses = {u: tuple(v) for u, v in misses.items()}
    return WalkSamples(q, n, u1, u2, seed, steps, steps // AUDIT_STRIDE, tables, misses)


@lru_cache(maxsize=None)
def cached_k_words(q: int, n: int, u1: int, u2: int, steps: int = 10_000) -> WalkSamples:
    return sample_k_words(q, n, u1, u2, steps)


def k_special_check(d: SSCDatum, samples: WalkSamples) -> dict:
    """Conjugation symmetry W(k^-1) = conj(W(k)) over the sampled words.

    W(k) W(k^-1) is the datum's value at the product of the two solved
    invariants, so one value per key of the walk's table for the datum's
    unit decides every word under that key.  Violations land in the
    report, one per key with its word count and first word; none are
    expected.
    """
    if (d.q, d.n) != (samples.q, samples.n):
        raise ValueError("datum does not match the sampled group")
    if d.pi_unit not in (samples.u1, samples.u2):
        raise ValueError("datum's uniformizer is not one of the walk's")
    one = RootOfUnity.one()
    violations = []
    nonzero = zero = mixed_zero = 0
    pure_nonzero = True
    table = samples.tables[d.pi_unit]
    for (fwd_on, inv_on, product, uses_other, uses_both), (count, first) in table:
        reason = None
        if fwd_on != inv_on:
            reason = "support asymmetry"
        elif fwd_on:
            if d.invariant_root(product) == one:
                nonzero += count
            else:
                reason = "conjugation mismatch"
        else:
            zero += count
            if uses_both:
                mixed_zero += count
            if not uses_other:
                pure_nonzero = False
                reason = "vanished inside the datum's own group"
        if reason is not None:
            violations.append({"word": first, "reason": reason, "count": count})
    for idx in samples.audit_misses[d.pi_unit]:
        violations.append({"word": idx, "reason": "state evaluation disagrees", "count": 1})
    return {
        "q": d.q,
        "n": d.n,
        "pi_unit": d.pi_unit,
        "words": samples.steps,
        "nonzero": nonzero,
        "zero": zero,
        "mixed_zero": mixed_zero,
        "pure_words_all_nonzero": pure_nonzero,
        "audited": samples.audited,
        "ok": not violations,
        "violations": violations,
    }


# ----- mirabolic agreement ---------------------------------------------

# decomposed points of the mirabolic subgroup, counted by the invariants
# the Whittaker value reads: classes holds the enumeration and the member
# dense blocks, nonmember_classes the other dense blocks
MirabolicTable = namedtuple(
    "MirabolicTable", "q n classes nonmember_classes row_count spot_checks"
)


def _embed(F: LocalField, g: MatG) -> MatG:
    rows = [[(e.val, e.coeffs, e.prec) for e in row] + [ZERO_T] for row in g.rows]
    rows.append([ZERO_T] * g.n + [ONE_T])
    return wrap_matrix(F, rows)


def _identity_rows(n: int) -> list:
    return [[ONE_T if i == j else ZERO_T for j in range(n)] for i in range(n)]


def _column_unipotent(F: LocalField, n: int, xs) -> MatG:
    rows = _identity_rows(n)
    for i, x in enumerate(xs):
        rows[i][n - 1] = (x.val, x.coeffs, x.prec)
    return wrap_matrix(F, rows)


def _polar_block(F: LocalField, m: int, polar, k_res) -> MatG:
    """The identity with the t^-1 digit polar[i, j] at each slot (i, j)
    and the residues k_res added on the superdiagonal."""
    rows = _identity_rows(m)
    for (i, j), c in polar.items():
        rows[i][j] = (-1, (c,), None) if c else ZERO_T
    for i, c in enumerate(k_res):
        if c:
            rows[i][i + 1] = add_t(F.residue, rows[i][i + 1], (0, (c,), None))
    return wrap_matrix(F, rows)


# dense GL_{n-1} blocks per table, deep refinements checked per table,
# and the seed of both draws
MIRABOLIC_EXTRAS = 40
MIRABOLIC_SPOT_CHECKS = 30
MIRABOLIC_SEED = 9


@lru_cache(maxsize=None)
def mirabolic_table(q: int, n: int) -> MirabolicTable:
    """Count the invariants of mirabolic points once per residue field.

    The value-relevant coordinates run in full: polar digits of the
    GL_{n-1} unipotent coset, superdiagonal residues of its Iwahori
    factor, and the last column's digits down to shell -SHELL_BOUND; one
    decomposition per GL_{n-1} block serves all its last columns.
    Deeper digits are checked to leave the invariants unchanged on random
    refinements, and random dense GL_{n-1} blocks feed the support claim.
    """
    rng = random.Random(MIRABOLIC_SEED)
    F = LocalField.base_field(q)
    ff = F.residue
    m = n - 1
    polar_slots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    classes: Counter = Counter()
    nonmember: Counter = Counter()

    # a point is embed(h) u(x) = u(h x) embed(h) with h unipotent, and the
    # one superdiagonal entry of u(h x) is x_last: its invariant is that of
    # embed(h) with the t^0 digit of x_last added to the residue
    x_reps = F.integer_reps(-SHELL_BOUND, 1)
    shifts = Counter(x.coeff_at(0) for x in x_reps)
    blocks = []
    for polar_digits in itertools.product(range(q), repeat=len(polar_slots)):
        polar = {
            slot: c for slot, c in zip(polar_slots, polar_digits) if c
        }
        for k_res in itertools.product(range(q), repeat=m - 1):
            inv = WhittakerInvariant.read(_embed(F, _polar_block(F, m, polar, k_res)))
            for digit, count in shifts.items():
                classes[inv._replace(residue=ff.add(inv.residue, digit))] += count
            blocks.append((polar, k_res))
    rows = len(blocks) * len(x_reps)

    # the reps stand for double cosets: multiplying on the left by a
    # unipotent with zero superdiagonal residues, or on the right by an
    # Iwahori element with zero affine residues, must not move a class
    def _deep_left() -> MatG:
        rows = [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lo = 1 if j == i + 1 else 0
                rows[i][j] = F.elem(lo, [rng.randrange(q) for _ in range(PRECISION)])
        return MatG(F, rows)

    def _deep_right() -> MatG:
        rows = [[F.zero() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    rows[i][j] = F.one() + F.elem(1, [rng.randrange(q) for _ in range(PRECISION)])
                elif i < j:
                    lo = 1 if j == i + 1 else 0
                    rows[i][j] = F.elem(lo, [rng.randrange(q) for _ in range(PRECISION)])
                else:
                    lo = 2 if (i, j) == (n - 1, 0) else 1
                    rows[i][j] = F.elem(lo, [rng.randrange(q) for _ in range(PRECISION)])
        return MatG(F, rows)

    for _ in range(MIRABOLIC_SPOT_CHECKS):
        block, x_index = divmod(rng.randrange(rows), len(x_reps))
        polar, k_res = blocks[block]
        x_elems = [F.zero()] * (m - 1) + [x_reps[x_index]]
        base = _embed(F, _polar_block(F, m, polar, k_res)) * _column_unipotent(F, n, x_elems)
        refined = _deep_left() * base * _deep_right()
        if WhittakerInvariant.read(refined) != WhittakerInvariant.read(base):
            raise LLCError("mirabolic invariants moved under a deep refinement")

    # dense blocks for the support containment claim
    for _ in range(MIRABOLIC_EXTRAS):
        while True:
            g_rows = [
                [
                    F.elem(-SHELL_BOUND, [rng.randrange(q) for _ in range(PRECISION + SHELL_BOUND)])
                    for _ in range(m)
                ]
                for _ in range(m)
            ]
            try:
                cls = WhittakerInvariant.read(_embed(F, MatG(F, g_rows)))
            # a singular draw, exactly or at the precision of its entries
            except (ZeroInput, InsufficientPrecision):
                continue
            break
        rows += 1
        # the block lies in U I+ of its own size iff the embedding's class
        # is trivial, since the elimination settles the last row first and alone
        if cls.mono == MonomialClass.identity(F, n):
            classes[cls] += 1
        else:
            nonmember[cls] += 1

    return MirabolicTable(q, n, classes, nonmember, rows, MIRABOLIC_SPOT_CHECKS)


def mirabolic_agreement(cfg: PairConfig) -> dict:
    """Both Whittaker functions, compared point by point on the mirabolic
    enumeration; also witnesses the support containment for dense blocks."""
    d1, d2 = cfg.d1, cfg.d2
    T = mirabolic_table(d1.q, d1.n)
    mismatches = []
    support_violations = []
    nonzero = zero = 0
    for member, classes in ((True, T.classes), (False, T.nonmember_classes)):
        for cls, count in classes.items():
            v1, v2 = (d.invariant_root(cls.solve(d.pi_unit)) for d in (d1, d2))
            if v1 != v2:
                mismatches.append({"class": cls.to_json(), "count": count})
            if not member:
                for d, v in ((d1, v1), (d2, v2)):
                    if v is not None:
                        support_violations.append({"class": cls.to_json(), "pi_unit": d.pi_unit})
            elif v1 == v2:
                if v1 is None:
                    zero += count
                else:
                    nonzero += count
    return {
        "q": d1.q,
        "n": d1.n,
        "points": T.row_count,
        "classes": len(T.classes) + len(T.nonmember_classes),
        "nonzero_points": nonzero,
        "zero_points": zero,
        "deep_refinements_checked": T.spot_checks,
        "all_equal": not mismatches,
        "support_ok": not support_violations,
        "mismatches": mismatches,
        "support_violations": support_violations,
    }


# ----- support of a single Whittaker function ---------------------------


def support_check(d: SSCDatum, samples: int = 200, seed: int = 17) -> dict:
    """Random matrices over the shells: every nonzero value must come with
    a located decomposition into U times the supporting group."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    F, n, q = d.F, d.n, d.q
    nonzero = zero = 0
    witnesses = []
    violations = []
    planted = planted_located = 0
    # dense sampling almost never hits the support once n > 2, so a
    # quarter of the budget goes to constructed points u * g^r * z * k
    # that are in the support by construction and must be found there
    for _ in range(samples // 4):
        rows = [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = F.elem(-SHELL_BOUND, [rng.randrange(q) for _ in range(PRECISION + SHELL_BOUND)])
        u = MatG(F, rows)
        r = rng.randrange(2 * n)
        mono = d.rotation_class(r).compose(
            MonomialClass.central(F, n, 1 + rng.randrange(q - 1), rng.randrange(-1, 2))
        )
        krows = [
            [
                F.elem(1 if i > j or (i == n - 1 and j == 0) else 0,
                       [rng.randrange(q) for _ in range(PRECISION)])
                for j in range(n)
            ]
            for i in range(n)
        ]
        for i in range(n):
            krows[i][i] = F.one() + F.elem(1, [rng.randrange(q) for _ in range(PRECISION)])
        g = u * mono.as_matrix() * MatG(F, krows)
        planted += 1
        solved = WhittakerInvariant.read(g).solve(d.pi_unit)
        if solved is None:
            violations.append({"reason": "constructed support point valued zero", "power": r})
            continue
        planted_located += 1
        if len(witnesses) < 5:
            witnesses.append({"rotation_power": solved.rot,
                              "central": [solved.central_unit, solved.central_val]})
    for _ in range(samples - samples // 4):
        while True:
            rows = [
                [
                    F.elem(-SHELL_BOUND, [rng.randrange(q) for _ in range(PRECISION + SHELL_BOUND)])
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            try:
                solved = WhittakerInvariant.read(MatG(F, rows)).solve(d.pi_unit)
            # a singular draw, exactly or at the precision of its entries
            except (ZeroInput, InsufficientPrecision):
                continue
            break
        # the value is nonzero exactly where the solve locates a coset
        if solved is None:
            zero += 1
        else:
            nonzero += 1
            if len(witnesses) < 5:
                witnesses.append({"rotation_power": solved.rot,
                                  "central": [solved.central_unit, solved.central_val]})
    return {
        "q": q,
        "n": n,
        "pi_unit": d.pi_unit,
        "sampled": samples,
        "planted": planted,
        "planted_located": planted_located,
        "nonzero": nonzero,
        "zero": zero,
        "ok": not violations,
        "witness_examples": witnesses,
        "violations": violations,
    }
