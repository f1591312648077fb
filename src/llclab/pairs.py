"""Special-pair checks for two supercuspidal data on the same group.

Words in the group generated by both affine rotations, the center and
the pro-unipotent Iwahori I+ are kept as M * k, M monomial and k in I+,
the inverse word in the same form, so each word is its own witness of
membership.  A simple supercuspidal is induced from a character trivial
on I++, which every monomial here normalizes, so KWalk keeps only the
images of k and of the inverse's k in I+/I++ = F_q^n; no step builds a
series or a matrix, and a prefix becomes one only as the lift M * k(r).

Both checks read the WhittakerInvariant of bruhat, which does not see
zeta, omega or the uniformizer unit.  Every matrix the checks
eliminate (the audited walk lifts, the mirabolic dense blocks, the
support draws) is read by WhittakerInvariant.read, at the precision it
carries and again as given where that cannot decide; a singular draw
raises what decompose would, so the seeded redraws are those of
decompose.  On the support the value
psi(residue) zeta^r omega(s t^d) is a character of the solved tuple
(r, s, d, residue).  So each check sums over a few keys computed once:
a walk counts its prefixes per state (class of M, summed superdiagonal
residues, corner digit, rotations used), and after the walk derives once
per distinct state and unit the key (fwd on support, inv on support,
product of the two solved tuples, uses the other unit, uses both), and
W(k) W(k^-1) is a datum's value at the product; an enumerated mirabolic
point embed(h) u(x), h upper unipotent, is itself upper unipotent, so
its invariant is the identity class with its summed superdiagonal
residues and is counted per residue without an elimination.  Deeper
digits leave the invariant alone, since the value is invariant under U
with zero superdiagonal residues on the left and I++ on the right; the
reader's tests check that generator by generator.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from functools import lru_cache

from .bruhat import MonomialClass, SolvedInvariant, WhittakerInvariant
from .cyclotomic import RootOfUnity
from .errors import InsufficientPrecision, LLCError, ZeroInput
from .laurent import ONE_T, ZERO_T, LocalField
from .matrices import MatG, wrap_matrix
from .supercuspidal import SSCDatum

# the walk draws its I+ generators to t-adic depth PRECISION, and the
# mirabolic dense blocks and support draws take PRECISION random t-adic
# digits per entry, SHELL_BOUND more where an entry may have a pole down to
# t^-SHELL_BOUND; every AUDIT_STRIDE-th walk prefix is decomposed afresh
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

    Appending a monomial g sends (M, k) to (Mg, g^-1 k g) and the inverse
    pair (Mi, ki) to (g^-1 Mi, ki); appending h in I+ sends k to kh and ki
    to (Mi^-1 h^-1 Mi) ki.  The walk keeps r and ri, the images of k and
    ki in I+/I++: coordinate i < n-1 is the t^0 digit at (i, i+1), n-1
    the t^1 digit at (n-1, 0).  A monomial permutes and scales them by a
    plan read off its class; h adds its digit at its simple affine root,
    and a one-unit diagonal or a non-simple root lies in I++.

    M is (class, unit, exp): classes[class] * central(unit, exp), each
    class normalized to exps[0] = 0, units[0] = 1; Mi = M^-1 is read off
    the inverse class.  The class times each rotation, the inverse class
    and the rotation solves per pi-unit are tables filled as reached.

    A pushed generator is tested for I+ from its digits, which decides
    the new k since the old one lies in I+: a digit outside the shape
    raises LLCError, digits too coarse to decide the shape or the digit
    the generator adds raise InsufficientPrecision, and nothing moves.
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
        self._ff = self.F.residue
        # the coordinates of I+/I++ as (row, column, t-adic depth)
        self._coords = [(i, i + 1, 0) for i in range(n - 1)] + [(n - 1, 0, 1)]
        self._simple = {(a, b): i for i, (a, b, _) in enumerate(self._coords)}
        self.rot = {w: MonomialClass.rotation(self.F, n, u) for w, u in ((1, u1), (2, u2))}
        self._rot_plans = {w: self._plan(cls, 1) for w, cls in self.rot.items()}
        self.classes: list[MonomialClass] = []
        self._index: dict[tuple, int] = {}
        self._locate(MonomialClass.identity(self.F, n))
        self._times: dict[int, dict] = {1: {}, 2: {}}
        self._inverses: dict[int, tuple] = {}
        self._solves: dict[tuple, tuple | None] = {}
        self._pairs: dict[tuple, tuple] = {}
        self.M = (0, 1, 0)
        self.r, self.ri = [0] * n, [0] * n
        self.used1 = self.used2 = False

    # ----- the tables ---------------------------------------------------
    def _plan(self, cls: MonomialClass, sign: int) -> list:
        """Per coordinate, where k -> cls^-1 k cls sends it and the _mul
        row of its scale times sign.  Every monomial the walk reaches
        normalizes I+, so it sends simple affine roots to simple ones."""
        ff = self._ff
        return [
            (self._simple[cls.cols[a], cls.cols[b]],
             ff._mul[ff.mul(sign, ff.mul(cls.units[b], ff.inv(cls.units[a])))])
            for a, b, _ in self._coords
        ]

    def _locate(self, cls: MonomialClass) -> tuple[int, int, int]:
        """(index, unit, exp) with cls = classes[index] * central(unit, exp)."""
        ff = self._ff
        unit, exp = cls.units[0], cls.exps[0]
        row = ff._mul[ff._inv[unit]]
        key = (cls.cols, tuple([e - exp for e in cls.exps]), tuple([row[u] for u in cls.units]))
        idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = len(self.classes)
            self.classes.append(MonomialClass(self.F, *key))
        return idx, unit, exp

    def _inverse(self, c: int) -> tuple:
        """classes[c]^-1 located, and the plan that conjugates h^-1 by it."""
        hit = self._inverses.get(c)
        if hit is None:
            inv = self.classes[c].inverse()
            hit = self._inverses[c] = (*self._locate(inv), self._plan(inv, self._ff.neg(1)))
        return hit

    # ----- monomial generators ------------------------------------------
    def push_rotation(self, which: int) -> None:
        plan = self._rot_plans[which]
        c, unit, exp = self.M
        step = self._times[which].get(c)
        if step is None:
            step = self._times[which][c] = self._locate(self.classes[c].compose(self.rot[which]))
        self.M = (step[0], self._ff._mul[unit][step[1]], exp + step[2])
        r = [0] * self.n
        for x, (dst, row) in zip(self.r, plan):
            r[dst] = row[x]
        self.r = r
        if which == 1:
            self.used1 = True
        else:
            self.used2 = True

    def push_central(self, s: int, d: int) -> None:
        # scalars commute with k: only the central part of M moves
        if not 1 <= s < self.q:
            raise ValueError("units must be nonzero residues")
        c, unit, exp = self.M
        self.M = (c, self._ff._mul[unit][s], exp + d)

    # ----- pro-unipotent Iwahori generators -------------------------------
    def push_elementary(self, a: int, b: int, x) -> None:
        """Append I + x E_ab (a != b); x must respect the Iwahori shape."""
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise ValueError(f"no entry ({a}, {b}) at matrix size n = {self.n}")
        _test_entry(x, *((0, None) if a < b else (1, 0)))
        coord = self._simple.get((a, b))
        if coord is None:
            return
        depth, (v, cs, p) = self._coords[coord][2], (x.val, x.coeffs, x.prec)
        if p is not None and p <= depth:
            raise InsufficientPrecision(f"cannot read the t^{depth} digit from O(t^{p})")
        if 0 <= depth - v < len(cs):
            self._add_digit(coord, cs[depth - v])

    def push_one_unit_diag(self, a: int, e) -> None:
        """Append the diagonal matrix with one-unit e in slot a."""
        if not 0 <= a < self.n:
            raise ValueError(f"no diagonal slot {a} at matrix size n = {self.n}")
        _test_entry(e, 1, 1)

    def _add_digit(self, i: int, c: int) -> None:
        """Append the element of I+ with digit c at coordinate i and none
        at the others."""
        add = self._ff._add
        self.r[i] = add[self.r[i]][c]
        dst, row = self._inverse(self.M[0])[3][i]
        self.ri[dst] = add[self.ri[dst]][row[c]]

    def push_random_iplus(self) -> None:
        # a one-unit diagonal, an entry above or one below the diagonal:
        # each is drawn in full, and only a simple root at its depth moves
        rng, n, q, N = self.rng, self.n, self.q, self.N
        kind = rng.randrange(3)
        if kind == 0:
            rng.randrange(n), rng.randrange(1, N), rng.randrange(1, q)
            return
        if kind == 1:
            a = rng.randrange(n - 1)
            b = rng.randrange(a + 1, n)
            j = rng.randrange(0, N)
            coord = a if (b, j) == (a + 1, 0) else None
        else:
            b = rng.randrange(n - 1)
            a = rng.randrange(b + 1, n)
            j = rng.randrange(1, N)
            coord = n - 1 if (a, b, j) == (n - 1, 0, 1) else None
        c = rng.randrange(1, q)
        if coord is not None:
            self._add_digit(coord, c)

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
    def _residue(self, r: list) -> int:
        """The superdiagonal digits of k(r), summed."""
        add = self._ff._add
        total = 0
        for x in r[:-1]:
            total = add[total][x]
        return total

    def _solve(self, c: int, pi_unit: int) -> tuple | None:
        hit = self._solves.get((c, pi_unit), False)
        if hit is False:
            hit = self._solves[c, pi_unit] = self.classes[c].match_rotation_times_central(pi_unit)
        return hit

    def _pair(self, c: int, pi_unit: int) -> tuple:
        """For M of class c: whether M and M^-1 solve for pi_unit, and the
        product of their solves at central part 1 and digits 0, or None."""
        hit = self._pairs.get((c, pi_unit))
        if hit is None:
            ic, iunit, iexp, _ = self._inverse(c)
            a, b = self._solve(c, pi_unit), self._solve(ic, pi_unit)
            product = None
            if a is not None and b is not None:
                # M^-1 = classes[ic] * central(iunit, iexp) when M = classes[c]
                inv = SolvedInvariant(b[0], self._ff.mul(b[1], iunit), b[2] + iexp, 0)
                product = solved_product(self._ff, SolvedInvariant(*a, 0), inv)
            hit = self._pairs[c, pi_unit] = (a is not None, b is not None, product)
        return hit

    def state(self) -> tuple:
        """What the keys of the current prefix read: the class index of M,
        the superdiagonal digits of k(r) and k(ri) summed, the corner
        r[-1] + ri[-1], and whether each rotation was used."""
        add, r, ri = self._ff._add, self.r, self.ri
        total = 0
        for x in r[:-1] + ri[:-1]:
            total = add[total][x]
        return self.M[0], total, add[r[-1]][ri[-1]], self.used1, self.used2

    def keys(self, state: tuple, units) -> list[tuple]:
        """Per pi-unit in units, the table key of a prefix in state: whether
        snapshot().fwd and snapshot().inv solve, solved_product of their
        solves (None unless both do), whether the prefix uses the other
        unit's rotation, and whether it uses both.  The central parts of M
        and Mi cancel in the product, which reads only the class of M and
        the digits."""
        c, total, corner, uses1, uses2 = state
        ff = self._ff
        out = []
        for u in units:
            fwd_on, inv_on, product = self._pair(c, u)
            if product is not None:
                product = SolvedInvariant(*product[:3], ff._add[total][ff._mul[corner][ff._inv[u]]])
            uses_other = (uses1 and self.u1 != u) or (uses2 and self.u2 != u)
            out.append((fwd_on, inv_on, product, uses_other, uses1 and uses2))
        return out

    def _monomial(self) -> MonomialClass:
        c, unit, exp = self.M
        return self.classes[c].compose(MonomialClass.central(self.F, self.n, unit, exp))

    def snapshot(self) -> KWord:
        M = self._monomial()
        fwd = WhittakerInvariant(M, self._residue(self.r), self.r[-1])
        inv = WhittakerInvariant(M.inverse(), self._residue(self.ri), self.ri[-1])
        return KWord(self.used1, self.used2, fwd, inv)

    # ----- lifts at the boundary ----------------------------------------
    def forward_matrix(self) -> MatG:
        """The lift M k(r) of the prefix."""
        return _lift(self._monomial(), self.r)

    def inverse_matrix(self) -> MatG:
        """The lift Mi k(ri) of the inverse prefix."""
        return _lift(self._monomial().inverse(), self.ri)


def _test_entry(x, floor: int, lead: int | None) -> None:
    """x has no digit below t^0, is known below t^floor, and has t^0
    digit lead (any, for None): the I+ test of a generator's entry."""
    v, cs, p = x.val, x.coeffs, x.prec
    if cs and v < 0:
        raise LLCError(_LEFT_IWAHORI)
    if p is not None and p < floor:
        raise InsufficientPrecision(f"cannot decide valuation >= {floor} from O(t^{p})")
    if lead is not None and (cs[0] if cs and v == 0 else 0) != lead:
        raise LLCError(_LEFT_IWAHORI)


def _lift(mono: MonomialClass, r: list) -> MatG:
    """mono * k(r), k(r) = I + sum_i r_i E_(i,i+1) + r_(n-1) t E_(n-1,0)."""
    n = len(r)
    rows = _identity_rows(n)
    for i in range(n - 1):
        if r[i]:
            rows[i][i + 1] = (0, (r[i],), None)
    if r[-1]:
        rows[-1][0] = (1, (r[-1],), None)
    return mono.as_matrix() * wrap_matrix(mono.field, rows)


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

    The walk counts its prefixes per state (KWalk.state), which is all a
    key reads; after the walk, each distinct state's keys are derived
    once per unit of the walk, and each key gets the summed count and the
    first prefix of its states, in order of first occurrence.  Every
    AUDIT_STRIDE-th prefix's lift is also decomposed afresh during the
    walk, and the prefixes whose fresh invariant solves apart from the
    kept one are listed per unit.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    walk = KWalk(q, n, u1, u2, PRECISION, seed)
    units = sorted({u1, u2})
    # state -> [prefixes in it, first prefix], in order of first occurrence
    states: dict[tuple, list] = {}
    misses: dict[int, list] = {u: [] for u in units}
    for idx in range(steps):
        walk.random_step()
        state = walk.state()
        seen = states.get(state)
        if seen is None:
            states[state] = [1, idx]
        else:
            seen[0] += 1
        if (idx + 1) % AUDIT_STRIDE == 0:
            read, kept = WhittakerInvariant.read(walk.forward_matrix()), walk.snapshot().fwd
            for u in units:
                if read.solve(u) != kept.solve(u):
                    misses[u].append(idx)
    tables: dict[int, dict] = {u: {} for u in units}
    # states come in order of first prefix, so a key's first state is the
    # one with its first prefix
    for state, (count, first) in states.items():
        for u, key in zip(units, walk.keys(state, units)):
            words, key_first = tables[u].get(key, (0, first))
            tables[u][key] = (words + count, key_first)
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
MirabolicTable = namedtuple("MirabolicTable", "q n classes nonmember_classes row_count")


def _embed(F: LocalField, g: MatG) -> MatG:
    rows = [row + (ZERO_T,) for row in g.rows]
    rows.append((ZERO_T,) * g.n + (ONE_T,))
    return wrap_matrix(F, rows)


def _identity_rows(n: int) -> list:
    return [[ONE_T if i == j else ZERO_T for j in range(n)] for i in range(n)]


# dense GL_{n-1} blocks per table, and the seed of their draw
MIRABOLIC_EXTRAS = 40
MIRABOLIC_SEED = 9


@lru_cache(maxsize=None)
def mirabolic_table(q: int, n: int) -> MirabolicTable:
    """Count the invariants of mirabolic points once per residue field.

    The value-relevant coordinates run in full: polar digits of the
    GL_{n-1} unipotent coset, superdiagonal residues of its Iwahori
    factor, and the last column's digits down to shell -SHELL_BOUND.
    Every such point is upper unipotent, so its invariant is counted, not
    read: each residue of F_q gets rows / q points of the identity class.
    Random dense GL_{n-1} blocks feed the support claim; only these draws
    are eliminated.
    """
    rng = random.Random(MIRABOLIC_SEED)
    F = LocalField.base_field(q)
    m = n - 1
    classes: Counter = Counter()
    nonmember: Counter = Counter()

    # a point is embed(h) u(x) = u(h x) embed(h) with h upper unipotent,
    # so it is itself upper unipotent: class identity, corner 0, and the
    # residue the sum of k_res and the t^0 digit of x_last, which the last
    # column's digits make uniform over F_q; a point is m(m-1)/2 polar
    # digits, m - 1 residues in k_res and SHELL_BOUND + 1 digits of x_last
    rows = q ** (m * (m - 1) // 2 + m - 1 + SHELL_BOUND + 1)
    identity = MonomialClass.identity(F, n)
    for r in range(q):
        classes[WhittakerInvariant(identity, r, 0)] = rows // q

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
        if cls.mono == identity:
            classes[cls] += 1
        else:
            nonmember[cls] += 1

    return MirabolicTable(q, n, classes, nonmember, rows)


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
            krows[i][i] = F.elem(0, [1, *(rng.randrange(q) for _ in range(PRECISION))])
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
