"""Special-pair checks for two supercuspidal data on the same group.

Words in the group generated by both affine rotations, the center and
the pro-unipotent Iwahori are kept in the form M * k with M a monomial
class and k an Iwahori matrix truncated at the working precision; this
is exact arithmetic in the congruence quotient, and the Whittaker value
only reads residues at depths 0 and 1, so precision 2 already evaluates
every word faithfully.  The inverse word is carried along in the same
form, which turns the conjugation-symmetry check into integer work per
sample.  Membership of a word in the group is constructive: the word is
its own witness, no decision procedure for arbitrary matrices is
attempted.

Both checks keep, per word or per point, the WhittakerInvariant of
bruhat: the monomial class, the summed superdiagonal residues and the
corner digit.  It does not see zeta, omega or the uniformizer unit, so
one walk serves both data of a pair and one mirabolic table serves every
pair over the same residue field; each datum solves the rotation for its
own uniformizer and reads its value off the solved invariant.  The
mirabolic enumeration covers the coordinates the value actually reads
(polar digits of the unipotent coset, superdiagonal residues, the last
column's leading digits) and spot-checks that deeper digits leave the
invariant alone.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, namedtuple
from functools import lru_cache

from .bruhat import MonomialClass, WhittakerInvariant, decompose
from .cyclotomic import RootOfUnity
from .errors import LLCError, ZeroInput
from .laurent import LocalField
from .matrices import MatG
from .supercuspidal import SSCDatum


class PairConfig:
    """Two data with the same size, residue field and central character."""

    def __init__(self, d1: SSCDatum, d2: SSCDatum, precision: int = 2, shell_bound: int = 1):
        if (d1.q, d1.n) != (d2.q, d2.n):
            raise ValueError("pair must share q and n")
        if precision < 2 or shell_bound < 1:
            raise ValueError("need precision >= 2 and a positive shell bound")
        if d1.omega_exp != d2.omega_exp or d1.omega.at_var != d2.omega.at_var:
            raise ValueError("pair must share the central character")
        self.d1 = d1
        self.d2 = d2
        self.precision = precision
        self.shell_bound = shell_bound

    def __repr__(self) -> str:
        return f"PairConfig(d1={self.d1!r}, d2={self.d2!r}, precision={self.precision})"


# ----- words in the joint compact group --------------------------------

KWord = namedtuple("KWord", "length uses1 uses2 fwd inv fwd_mat")
WalkSamples = namedtuple("WalkSamples", "q n u1 u2 precision tags words")


class KWalk:
    """One growing word; every prefix can be snapshotted as a sample.

    Appending a monomial generator g sends (M, k) to (Mg, g^-1 k g) and
    the inverse pair (Mi, ki) to (g^-1 Mi, ki); appending an Iwahori
    element h sends k to kh and ki to (Mi^-1 h^-1 Mi) ki.  All monomials
    reachable here normalize the Iwahori subgroup, so both k-parts stay
    inside it; this is asserted after every step.
    """

    def __init__(self, q: int, n: int, u1: int, u2: int, precision: int = 2, seed: int = 0):
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
        ident = MatG.identity(self.F, n)
        self.M = MonomialClass.identity(self.F, n)
        self.k = ident
        self.Mi = MonomialClass.identity(self.F, n)
        self.ki = ident
        self.tags: list[str] = []
        self.used1 = False
        self.used2 = False

    def _check_iwahori(self) -> None:
        if not self.k.in_pro_unipotent_iwahori() or not self.ki.in_pro_unipotent_iwahori():
            raise LLCError("walk state left the Iwahori subgroup")

    def _conj_by(self, cls: MonomialClass, A: MatG) -> MatG:
        """cls^-1 A cls in O(n^2): entry (i,j) moves to (cols_i, cols_j)
        scaled by units_j/units_i and shifted by exps_j - exps_i."""
        F, ff, n, N = self.F, self.F.residue, self.n, self.N
        cols, exps, units = cls.cols, cls.exps, cls.units
        rows = [[F.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                e = A.entry(i, j)
                if e.is_exact_zero():
                    continue
                c = ff.mul(units[j], ff.inv(units[i]))
                rows[cols[i]][cols[j]] = e.scale(c).shift(exps[j] - exps[i]).truncate(N)
        return MatG(F, rows)

    def _push_monomial(self, cls: MonomialClass, tag: str, conj_is_trivial: bool = False) -> None:
        if not conj_is_trivial:
            self.k = self._conj_by(cls, self.k)
        self.M = self.M.compose(cls)
        self.Mi = cls.inverse().compose(self.Mi)
        self.tags.append(tag)
        self._check_iwahori()

    def push_rotation(self, which: int) -> None:
        self._push_monomial(self.rot[which], f"g{which}")
        if which == 1:
            self.used1 = True
        else:
            self.used2 = True

    def push_central(self, s: int, d: int) -> None:
        # scalars commute: the k-part conjugation is the identity map
        self._push_monomial(MonomialClass.central(self.F, self.n, s, d), "z", conj_is_trivial=True)

    def push_elementary(self, a: int, b: int, x) -> None:
        """Append I + x E_ab (a != b); x must respect the Iwahori shape."""
        n, N, ff = self.n, self.N, self.F.residue
        krows = [list(r) for r in self.k.rows]
        for i in range(n):
            krows[i][b] = (krows[i][b] + krows[i][a] * x).truncate(N)
        self.k = MatG(self.F, krows)
        # inverse generator I - x E_ab conjugated through Mi, applied left
        cols, exps, units = self.Mi.cols, self.Mi.exps, self.Mi.units
        xi = (-x).scale(ff.mul(units[b], ff.inv(units[a]))).shift(exps[b] - exps[a])
        ap, bp = cols[a], cols[b]
        kirows = [list(r) for r in self.ki.rows]
        for j in range(n):
            kirows[ap][j] = (kirows[ap][j] + xi * kirows[bp][j]).truncate(N)
        self.ki = MatG(self.F, kirows)
        self.tags.append("ip-elem")
        self._check_iwahori()

    def push_one_unit_diag(self, a: int, e) -> None:
        """Append the diagonal matrix with one-unit e in slot a."""
        n, N = self.n, self.N
        einv = e.inverse(rel_prec=N + 1)
        krows = [list(r) for r in self.k.rows]
        for i in range(n):
            krows[i][a] = (krows[i][a] * e).truncate(N)
        self.k = MatG(self.F, krows)
        # units cancel in the conjugation of a diagonal, only the slot moves
        ap = self.Mi.cols[a]
        kirows = [list(r) for r in self.ki.rows]
        for j in range(n):
            kirows[ap][j] = (kirows[ap][j] * einv).truncate(N)
        self.ki = MatG(self.F, kirows)
        self.tags.append("ip-diag")
        self._check_iwahori()

    def push_random_iplus(self) -> None:
        rng, F, n, q, N = self.rng, self.F, self.n, self.q, self.N
        kind = rng.randrange(3)
        if kind == 0:
            a = rng.randrange(n)
            j = rng.randrange(1, N)
            self.push_one_unit_diag(a, F.one() + F.elem(j, (rng.randrange(1, q),)))
            return
        if kind == 1:
            a = rng.randrange(n - 1)
            b = rng.randrange(a + 1, n)
            j = rng.randrange(0, N)
        else:
            b = rng.randrange(n - 1)
            a = rng.randrange(b + 1, n)
            j = rng.randrange(1, N)
        self.push_elementary(a, b, F.elem(j, (rng.randrange(1, q),)))

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

    def snapshot(self, with_matrix: bool = False) -> KWord:
        fwd = WhittakerInvariant.of(None, self.M, self.k)
        inv = WhittakerInvariant.of(None, self.Mi, self.ki)
        mat = (self.M.as_matrix() * self.k) if with_matrix else None
        return KWord(len(self.tags), self.used1, self.used2, fwd, inv, mat)

    def forward_matrix(self) -> MatG:
        return self.M.as_matrix() * self.k

    def inverse_matrix(self) -> MatG:
        return self.Mi.as_matrix() * self.ki


def sample_k_words(
    q: int,
    n: int,
    u1: int,
    u2: int,
    steps: int = 10_000,
    precision: int = 2,
    seed: int = 2024,
    audit_stride: int = 503,
) -> WalkSamples:
    """Every prefix of one long random word, as evaluation-ready samples."""
    walk = KWalk(q, n, u1, u2, precision, seed)
    words = []
    for i in range(1, steps + 1):
        walk.random_step()
        words.append(walk.snapshot(with_matrix=(i % audit_stride == 0)))
    return WalkSamples(q, n, u1, u2, precision, tuple(walk.tags), tuple(words))


@lru_cache(maxsize=None)
def cached_k_words(
    q: int, n: int, u1: int, u2: int, steps: int = 10_000, precision: int = 2, seed: int = 2024
) -> WalkSamples:
    return sample_k_words(q, n, u1, u2, steps, precision, seed)


def k_special_check(d: SSCDatum, samples: WalkSamples) -> dict:
    """Conjugation symmetry W(k^-1) = conj(W(k)) over the sampled words.

    Violations land in the report rather than raising; none are expected.
    """
    if (d.q, d.n) != (samples.q, samples.n):
        raise ValueError("datum does not match the sampled group")
    if d.pi_unit not in (samples.u1, samples.u2):
        raise ValueError("datum's uniformizer is not one of the walk's")
    one = RootOfUnity.one()
    # the words' digits differ far more often than their solved invariants
    # do, so the per-pair verdict is memoized on the solved pair
    verdicts: dict[tuple, str | None] = {}
    violations = []
    nonzero = zero = mixed_zero = audited = 0
    pure_nonzero = True
    for idx, w in enumerate(samples.words):
        key = (w.fwd.solve(d.pi_unit), w.inv.solve(d.pi_unit))
        if key in verdicts:
            verdict = verdicts[key]
        else:
            a, b = d.invariant_root(key[0]), d.invariant_root(key[1])
            if (a is None) != (b is None):
                verdict = "support asymmetry"
            elif a is not None and a * b != one:
                verdict = "conjugation mismatch"
            else:
                verdict = None if a is not None else "zero"
            verdicts[key] = verdict
        if verdict == "zero":
            zero += 1
            uses_other = (w.uses1 and samples.u1 != d.pi_unit) or (
                w.uses2 and samples.u2 != d.pi_unit
            )
            if w.uses1 and w.uses2:
                mixed_zero += 1
            if not uses_other:
                pure_nonzero = False
                violations.append({"word": idx, "reason": "vanished inside the datum's own group"})
        elif verdict is None:
            nonzero += 1
        else:
            violations.append({"word": idx, "reason": verdict})
        if w.fwd_mat is not None:
            direct = d.whittaker_root(w.fwd_mat)
            if direct != d.invariant_root(key[0]):
                violations.append({"word": idx, "reason": "state evaluation disagrees"})
            audited += 1
    return {
        "q": d.q,
        "n": d.n,
        "pi_unit": d.pi_unit,
        "words": len(samples.words),
        "nonzero": nonzero,
        "zero": zero,
        "mixed_zero": mixed_zero,
        "pure_words_all_nonzero": pure_nonzero,
        "audited": audited,
        "ok": not violations,
        "violations": violations,
    }


# ----- mirabolic agreement ---------------------------------------------

class MirabolicTable:
    """Decomposed points of the mirabolic subgroup, aggregated by the
    invariants the Whittaker value reads."""

    def __init__(self, q, n, precision, shell_bound, classes, nonmember_classes, row_count, spot_checks):
        self.q = q
        self.n = n
        self.precision = precision
        self.shell_bound = shell_bound
        self.classes = classes  # Counter over WhittakerInvariant: enumerated + member extras
        self.nonmember_classes = nonmember_classes  # Counter over WhittakerInvariant
        self.row_count = row_count
        self.spot_checks = spot_checks


def _embed(F: LocalField, g: MatG) -> MatG:
    n = g.n + 1
    rows = [[F.zero() for _ in range(n)] for _ in range(n)]
    for i in range(g.n):
        for j in range(g.n):
            rows[i][j] = g.entry(i, j)
    rows[n - 1][n - 1] = F.one()
    return MatG(F, rows)


def _column_unipotent(F: LocalField, n: int, xs) -> MatG:
    rows = [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
    for i, x in enumerate(xs):
        rows[i][n - 1] = x
    return MatG(F, rows)


def _mirabolic_point(F: LocalField, n: int, polar, k_res, x_elems) -> MatG:
    m = n - 1
    g_rows = [[F.one() if i == j else F.zero() for j in range(m)] for i in range(m)]
    for (i, j), c in polar.items():
        g_rows[i][j] = F.elem(-1, (c,))
    for i, c in enumerate(k_res):
        g_rows[i][i + 1] = g_rows[i][i + 1] + F.scalar(c)
    return _embed(F, MatG(F, g_rows)) * _column_unipotent(F, n, x_elems)


def _is_member(g: MatG) -> bool:
    # g in U I+ of its own size iff its monomial invariant is trivial
    _, mono, _ = decompose(g)
    n = g.n
    return (
        mono.cols == tuple(range(n))
        and mono.exps == (0,) * n
        and mono.units == (1,) * n
    )


# dense GL_{n-1} blocks per table, deep refinements checked per table,
# and the seed of both draws
MIRABOLIC_EXTRAS = 40
MIRABOLIC_SPOT_CHECKS = 30
MIRABOLIC_SEED = 9


@lru_cache(maxsize=None)
def mirabolic_table(q: int, n: int, precision: int = 2, shell_bound: int = 1) -> MirabolicTable:
    """Enumerate and decompose mirabolic points once per residue field.

    The value-relevant coordinates run in full: polar digits of the
    GL_{n-1} unipotent coset, superdiagonal residues of its Iwahori
    factor, and the last column's digits down to shell -shell_bound.
    Deeper digits are checked to leave the invariants unchanged on random
    refinements, and random dense GL_{n-1} blocks feed the support claim.
    """
    rng = random.Random(MIRABOLIC_SEED)
    F = LocalField.base_field(q)
    m = n - 1
    polar_slots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    classes: Counter = Counter()
    nonmember: Counter = Counter()
    rows = 0

    x_reps = F.integer_reps(-shell_bound, 1)
    base_points = []
    for polar_digits in itertools.product(range(q), repeat=len(polar_slots)):
        polar = {
            slot: c for slot, c in zip(polar_slots, polar_digits) if c
        }
        for k_res in itertools.product(range(q), repeat=max(m - 1, 0)):
            for x_last in x_reps:
                xs = [F.zero()] * (m - 1) + [x_last] if m >= 1 else []
                point = _mirabolic_point(F, n, polar, k_res, xs)
                classes[WhittakerInvariant.of(*decompose(point))] += 1
                base_points.append((polar, k_res, x_last))
                rows += 1

    # the reps stand for double cosets: multiplying on the left by a
    # unipotent with zero superdiagonal residues, or on the right by an
    # Iwahori element with zero affine residues, must not move a class
    def _deep_left() -> MatG:
        rows = [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lo = 1 if j == i + 1 else 0
                rows[i][j] = F.elem(lo, [rng.randrange(q) for _ in range(precision)])
        return MatG(F, rows)

    def _deep_right() -> MatG:
        rows = [[F.zero() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    rows[i][j] = F.one() + F.elem(1, [rng.randrange(q) for _ in range(precision)])
                elif i < j:
                    lo = 1 if j == i + 1 else 0
                    rows[i][j] = F.elem(lo, [rng.randrange(q) for _ in range(precision)])
                else:
                    lo = 2 if (i, j) == (n - 1, 0) else 1
                    rows[i][j] = F.elem(lo, [rng.randrange(q) for _ in range(precision)])
        return MatG(F, rows)

    for _ in range(MIRABOLIC_SPOT_CHECKS):
        polar, k_res, x_last = base_points[rng.randrange(len(base_points))]
        base = _mirabolic_point(F, n, polar, k_res, [F.zero()] * (m - 1) + [x_last])
        refined = _deep_left() * base * _deep_right()
        if WhittakerInvariant.of(*decompose(refined)) != WhittakerInvariant.of(*decompose(base)):
            raise LLCError("mirabolic invariants moved under a deep refinement")

    # dense blocks for the support containment claim
    for _ in range(MIRABOLIC_EXTRAS):
        while True:
            g_rows = [
                [
                    F.elem(-shell_bound, [rng.randrange(q) for _ in range(precision + shell_bound)])
                    for _ in range(m)
                ]
                for _ in range(m)
            ]
            g = MatG(F, g_rows)
            try:
                member = _is_member(g)
            except ZeroInput:
                continue
            break
        cls = WhittakerInvariant.of(*decompose(_embed(F, g)))
        rows += 1
        if member:
            classes[cls] += 1
        else:
            nonmember[cls] += 1

    return MirabolicTable(q, n, precision, shell_bound, classes, nonmember, rows, MIRABOLIC_SPOT_CHECKS)


def mirabolic_agreement(cfg: PairConfig) -> dict:
    """Both Whittaker functions, compared point by point on the mirabolic
    enumeration; also witnesses the support containment for dense blocks."""
    d1, d2 = cfg.d1, cfg.d2
    T = mirabolic_table(d1.q, d1.n, cfg.precision, cfg.shell_bound)
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


def support_check(
    d: SSCDatum, samples: int = 200, shell_bound: int = 1, depth: int = 2, seed: int = 17
) -> dict:
    """Random matrices over the shells: every nonzero value must come with
    a located decomposition into U times the supporting group."""
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
                rows[i][j] = F.elem(-shell_bound, [rng.randrange(q) for _ in range(depth + shell_bound)])
        u = MatG(F, rows)
        r = rng.randrange(2 * n)
        mono = d.rotation_class(r).compose(
            MonomialClass.central(F, n, 1 + rng.randrange(q - 1), rng.randrange(-1, 2))
        )
        krows = [
            [
                F.elem(1 if i > j or (i == n - 1 and j == 0) else 0,
                       [rng.randrange(q) for _ in range(depth)])
                for j in range(n)
            ]
            for i in range(n)
        ]
        for i in range(n):
            krows[i][i] = F.one() + F.elem(1, [rng.randrange(q) for _ in range(depth)])
        g = u * mono.as_matrix() * MatG(F, krows)
        planted += 1
        w = d.whittaker_root(g)
        if w is None:
            violations.append({"reason": "constructed support point valued zero", "power": r})
            continue
        planted_located += 1
        if len(witnesses) < 5:
            hit = decompose(g)[1].match_rotation_times_central(d.pi_unit)
            witnesses.append({"rotation_power": hit[0], "central": [hit[1], hit[2]]})
    for _ in range(samples - samples // 4):
        while True:
            rows = [
                [
                    F.elem(-shell_bound, [rng.randrange(q) for _ in range(depth + shell_bound)])
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            g = MatG(F, rows)
            try:
                u, mono, k = decompose(g)
            except ZeroInput:
                continue
            break
        w = d.whittaker_root(g)
        hit = mono.match_rotation_times_central(d.pi_unit)
        if w is None:
            zero += 1
            if hit is not None:
                violations.append({"reason": "located but valued zero", "hit": hit})
        else:
            nonzero += 1
            if hit is None:
                violations.append({"reason": "nonzero value without a located coset"})
            elif len(witnesses) < 5:
                witnesses.append({"rotation_power": hit[0], "central": [hit[1], hit[2]]})
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
