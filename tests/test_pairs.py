"""Two data sharing a central character: conjugation symmetry on walk
words and pointwise agreement on the mirabolic slice."""

import itertools
import json
import random
from collections import Counter

import pytest

from llclab import pairs, selftest
from llclab.bruhat import MonomialClass, SolvedInvariant, WhittakerInvariant, decompose
from llclab.cyclotomic import RootOfUnity
from llclab.errors import InsufficientPrecision, LLCError, ZeroInput
from llclab.laurent import LocalField
from llclab.matrices import MatG
from llclab.pairs import (
    KWalk,
    PairConfig,
    k_special_check,
    mirabolic_agreement,
    sample_k_words,
    solved_product,
    support_check,
)

from test_bruhat import random_iplus, random_unipotent
from test_supercuspidal import _datum


def test_config_validation():
    with pytest.raises(ValueError):
        PairConfig(_datum(3, 2), _datum(5, 2))
    with pytest.raises(ValueError):
        PairConfig(_datum(5, 2), _datum(5, 4))
    # different tame exponents mean different central characters
    with pytest.raises(ValueError):
        PairConfig(_datum(5, 2, zeta_num=1, omega_exp=0), _datum(5, 2, zeta_num=1, omega_exp=1))
    # distinct roots over the same central character are the point of the pair
    cfg = PairConfig(_datum(5, 2, zeta_num=1), _datum(5, 2, zeta_num=3))
    assert cfg.d1.zeta != cfg.d2.zeta


def test_rotation_word_and_its_inverse():
    # the generator itself: value zeta forward, conj(zeta) backward
    for q, n, u0 in [(3, 2, 1), (5, 3, 2), (5, 4, 1)]:
        walk = KWalk(q, n, u0, u0)
        walk.push_rotation(1)
        d = _datum(q, n, zeta_num=1, u0=u0)
        assert d.whittaker_root(walk.forward_matrix()) == d.zeta
        assert d.whittaker_root(walk.inverse_matrix()) == d.zeta.inverse()


def test_one_unit_diagonal_word_is_one():
    walk = KWalk(5, 3, 1, 2)
    F = walk.F
    walk.push_one_unit_diag(1, F.one() + F.elem(1, (3, 2)))
    d = _datum(5, 3, zeta_num=2, u0=1)
    assert d.whittaker_root(walk.forward_matrix()) == RootOfUnity.one()
    assert d.whittaker_root(walk.inverse_matrix()) == RootOfUnity.one()


def test_mixed_uniformizer_word_vanishes_for_both():
    # g_1 g_2 leaves each K_i, so both Whittaker functions drop it
    walk = KWalk(5, 2, u1=1, u2=2)
    walk.push_rotation(1)
    walk.push_rotation(2)
    for u0 in (1, 2):
        d = _datum(5, 2, zeta_num=1, u0=u0)
        assert d.whittaker_root(walk.forward_matrix()) is None
        assert d.whittaker_root(walk.inverse_matrix()) is None


def test_tracked_inverse_is_exact():
    # the inverse word must multiply back to the identity; at precision 3
    # every value-relevant digit of the product is known
    for seed in (1, 5):
        walk = KWalk(5, 3, 1, 2, precision=3, seed=seed)
        for _ in range(20):
            walk.random_step()
        prod = walk.forward_matrix() * walk.inverse_matrix()
        u, mono, k = decompose(prod)
        assert mono == mono.identity(walk.F, 3)
        assert all(r == 0 for r in u.superdiagonal_residues())
        assert all(r == 0 for r in k.superdiagonal_residues())
        assert k.entry(2, 0).coeff_at(1) == 0
        d = _datum(5, 3, zeta_num=1, u0=1)
        assert d.whittaker_root(prod) == RootOfUnity.one()


def test_walk_invariants_match_decomposition():
    # every prefix, forward and inverse: the invariant the walk keeps and
    # the one read off decompose() share the monomial class and solve to
    # the same (r, s, d, residue) for both walk units.  The two digits
    # alone may differ, since another factorization of the same matrix
    # may move them; where the class is on the support of every unit
    # they are pinned, and there the whole invariant agrees
    q, n, u1, u2 = 5, 3, 1, 2
    supported = pinned = 0
    for seed in (0, 1):
        walk = KWalk(q, n, u1, u2, seed=seed)
        for _ in range(120):
            walk.random_step()
            word = walk.snapshot()
            for kept, mat in ((word.fwd, walk.forward_matrix()), (word.inv, walk.inverse_matrix())):
                read = WhittakerInvariant.of(*decompose(mat))
                assert kept.mono == read.mono
                for u0 in (u1, u2):
                    assert kept.solve(u0) == read.solve(u0)
                    supported += kept.solve(u0) is not None
                if all(kept.solve(u0) is not None for u0 in range(1, q)):
                    assert kept == read
                    pinned += 1
    assert supported > 0 and pinned > 0


class ReferenceWalk:
    """The walk on series: k and ki as MatGs of LaurentElem, each entry
    truncated at t^N, the whole of both tested for Iwahori membership
    after every step.  KWalk's digit state must match it step for step,
    the random stream included."""

    def __init__(self, q, n, u1, u2, precision=2, seed=0):
        self.F = LocalField.base_field(q)
        self.q, self.n, self.u1, self.u2 = q, n, u1, u2
        self.N = precision
        self.rng = random.Random(seed)
        self.rot = {1: MonomialClass.rotation(self.F, n, u1), 2: MonomialClass.rotation(self.F, n, u2)}
        ident = MatG.identity(self.F, n)
        self.M = MonomialClass.identity(self.F, n)
        self.k = ident
        self.Mi = MonomialClass.identity(self.F, n)
        self.ki = ident
        self.used1 = False
        self.used2 = False

    def _check_iwahori(self):
        if not self.k.in_pro_unipotent_iwahori() or not self.ki.in_pro_unipotent_iwahori():
            raise LLCError("walk state left the Iwahori subgroup")

    def _conj_by(self, cls, A):
        F, ff, n, N = self.F, self.F.residue, self.n, self.N
        rows = [[F.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                e = A.entry(i, j)
                if e.is_exact_zero():
                    continue
                c = ff.mul(cls.units[j], ff.inv(cls.units[i]))
                shifted = e.scale(c).shift(cls.exps[j] - cls.exps[i]).truncate(N)
                rows[cls.cols[i]][cls.cols[j]] = shifted
        return MatG(F, rows)

    def _push_monomial(self, cls, conj_is_trivial=False):
        if not conj_is_trivial:
            self.k = self._conj_by(cls, self.k)
        self.M = self.M.compose(cls)
        self.Mi = cls.inverse().compose(self.Mi)
        self._check_iwahori()

    def push_rotation(self, which):
        self._push_monomial(self.rot[which])
        if which == 1:
            self.used1 = True
        else:
            self.used2 = True

    def push_central(self, s, d):
        self._push_monomial(MonomialClass.central(self.F, self.n, s, d), conj_is_trivial=True)

    def push_elementary(self, a, b, x):
        n, N, ff = self.n, self.N, self.F.residue
        krows = [list(r) for r in self.k.rows]
        for i in range(n):
            krows[i][b] = (krows[i][b] + krows[i][a] * x).truncate(N)
        self.k = MatG(self.F, krows)
        cols, exps, units = self.Mi.cols, self.Mi.exps, self.Mi.units
        xi = (-x).scale(ff.mul(units[b], ff.inv(units[a]))).shift(exps[b] - exps[a])
        ap, bp = cols[a], cols[b]
        kirows = [list(r) for r in self.ki.rows]
        for j in range(n):
            kirows[ap][j] = (kirows[ap][j] + xi * kirows[bp][j]).truncate(N)
        self.ki = MatG(self.F, kirows)
        self._check_iwahori()

    def push_one_unit_diag(self, a, e):
        n, N = self.n, self.N
        einv = e.inverse(rel_prec=N + 1)
        krows = [list(r) for r in self.k.rows]
        for i in range(n):
            krows[i][a] = (krows[i][a] * e).truncate(N)
        self.k = MatG(self.F, krows)
        ap = self.Mi.cols[a]
        kirows = [list(r) for r in self.ki.rows]
        for j in range(n):
            kirows[ap][j] = (kirows[ap][j] * einv).truncate(N)
        self.ki = MatG(self.F, kirows)
        self._check_iwahori()

    def push_random_iplus(self):
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

    def random_step(self):
        roll = self.rng.randrange(6)
        if roll == 0:
            self.push_rotation(1)
        elif roll == 1:
            self.push_rotation(2)
        elif roll == 2:
            self.push_central(self.rng.randrange(1, self.q), self.rng.choice((-1, 0, 1)))
        else:
            self.push_random_iplus()

    def snapshot(self):
        fwd = WhittakerInvariant.of(None, self.M, self.k)
        inv = WhittakerInvariant.of(None, self.Mi, self.ki)
        return pairs.KWord(self.used1, self.used2, fwd, inv)

    def forward_matrix(self):
        return self.M.as_matrix() * self.k

    def inverse_matrix(self):
        return self.Mi.as_matrix() * self.ki


def _assert_same_state(walk, ref):
    assert walk.snapshot() == ref.snapshot()
    assert walk.forward_matrix() == ref.forward_matrix()
    assert walk.inverse_matrix() == ref.inverse_matrix()
    # == on matrices of series compares every entry's precision too
    assert walk.k == ref.k and walk.ki == ref.ki


@pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (5, 3), (3, 4), (5, 4), (7, 3)])
def test_walk_matches_reference_walk(q, n):
    # every unordered unit pair, u1 = u2 included, both precisions, two
    # seeds: the digit state equals the series walk at every prefix
    for u1 in range(1, q):
        for u2 in range(u1, q):
            for N in (2, 3):
                for seed in (0, 1):
                    walk, ref = KWalk(q, n, u1, u2, N, seed), ReferenceWalk(q, n, u1, u2, N, seed)
                    for _ in range(80):
                        walk.random_step()
                        ref.random_step()
                        _assert_same_state(walk, ref)


@pytest.mark.parametrize("N", [2, 3])
def test_hand_built_words_match_reference_walk(N):
    # generators the random steps never draw: multi-digit x above and
    # below the diagonal, an x with finite precision, a multi-digit
    # one-unit e and one with finite precision, around rotations
    q, n = 5, 3
    walk, ref = KWalk(q, n, 1, 2, N), ReferenceWalk(q, n, 1, 2, N)
    F = walk.F
    word = [
        ("push_elementary", 0, 2, F.elem(0, (2, 3, 4))),
        ("push_rotation", 1),
        ("push_elementary", 2, 1, F.elem(1, (4, 0, 1))),
        ("push_one_unit_diag", 1, F.one() + F.elem(1, (3, 2, 1))),
        ("push_rotation", 2),
        ("push_central", 3, -1),
        ("push_elementary", 1, 2, F.elem(0, (1, 1), prec=2)),
        ("push_one_unit_diag", 0, F.one() + F.elem(1, (4,), prec=2)),
        ("push_rotation", 1),
        ("push_elementary", 2, 0, F.elem(2, (3, 3))),
        ("push_rotation", 2),
        ("push_elementary", 1, 0, F.elem(1, (2,), prec=3)),
        ("push_one_unit_diag", 2, F.one() + F.elem(2, (1, 4))),
        ("push_rotation", 1),
    ]
    for name, *args in word:
        getattr(walk, name)(*args)
        getattr(ref, name)(*args)
        _assert_same_state(walk, ref)


@pytest.mark.parametrize("a,b,prec", [(2, 0, 0), (0, 2, -1)])
def test_undecidable_push_raises_like_reference_walk(a, b, prec):
    # an x known only below t^prec leaves the touched entries too coarse
    # for the Iwahori test: both walks refuse to guess
    for cls in (KWalk, ReferenceWalk):
        walk = cls(5, 3, 1, 2)
        walk.push_rotation(1)
        with pytest.raises(InsufficientPrecision):
            walk.push_elementary(a, b, walk.F.zero(prec=prec))


def test_sampler_matches_reference_walk(monkeypatch):
    samples = sample_k_words(5, 4, 1, 2, steps=2000)
    monkeypatch.setattr(pairs, "KWalk", ReferenceWalk)
    ref = sample_k_words(5, 4, 1, 2, steps=2000)
    assert samples.tables == ref.tables
    assert samples.audit_misses == ref.audit_misses
    assert samples == ref


@pytest.mark.parametrize("warmup", [0, 30])
@pytest.mark.parametrize("side", ["k", "ki"])
@pytest.mark.parametrize("a,b,val", [(2, 0, 0), (0, 2, -1)])
def test_push_outside_iwahori_raises(monkeypatch, warmup, side, a, b, val):
    # below the diagonal with a unit x, above it with a pole: the step
    # leaves I+ on both sides, and the entry test of each side alone,
    # the other switched off, must catch it.  From the identity the pole
    # lands in one entry only, whose t^0 digit is free: only the term
    # pushed below t^0 shows it
    walk = KWalk(5, 3, 1, 2, seed=3)
    for _ in range(warmup):
        walk.random_step()
    check = KWalk._check

    def one_side(self, entries, idxs):
        if (entries is self._k) == (side == "k"):
            check(self, entries, idxs)

    monkeypatch.setattr(KWalk, "_check", one_side)
    with pytest.raises(LLCError) as err:
        walk.push_elementary(a, b, walk.F.elem(val, (3, 1)))
    assert type(err.value) is LLCError
    assert str(err.value) == "walk state left the Iwahori subgroup"


def test_sampler_shapes():
    steps = 3 * pairs.AUDIT_STRIDE
    samples = sample_k_words(3, 2, 1, 2, steps=steps, seed=7)
    assert (samples.steps, samples.seed, samples.audited) == (steps, 7, 3)
    assert sorted(samples.tables) == sorted(samples.audit_misses) == [1, 2]
    for table in samples.tables.values():
        assert sum(count for _, (count, _) in table) == steps
        assert all(0 <= first < steps for _, (_, first) in table)
    # one table when both rotations share the uniformizer unit
    same = sample_k_words(3, 2, 2, 2, steps=100, seed=7)
    assert list(same.tables) == [2] and same.audited == 0
    assert sum(count for _, (count, _) in same.tables[2]) == 100


def test_sample_sizes_must_be_positive():
    # an empty or negative walk would report a clean check of no words
    for steps in (0, -3):
        with pytest.raises(ValueError):
            sample_k_words(3, 2, 1, 2, steps=steps)
    d = _datum(5, 2, zeta_num=1)
    for samples in (0, -3):
        with pytest.raises(ValueError):
            support_check(d, samples=samples)
    assert sample_k_words(3, 2, 1, 2, steps=1).audited == 0
    assert support_check(d, samples=1)["sampled"] == 1


def test_walk_rejects_size_below_two():
    # n = 1 has no I+ entry to push; the walk must say so, not fail
    # inside the sampler's random draw
    for n in (1, 0, -2):
        with pytest.raises(ValueError, match="n >= 2"):
            sample_k_words(5, n, 1, 2, steps=50)
        with pytest.raises(ValueError, match="n >= 2"):
            KWalk(5, n, 1, 2)


def _k_check_per_word(d, words, u1, u2):
    """The per-word conjugation check: every word solved for the datum,
    its verdict taken from the two values, and each audited word's stored
    value compared with the value of its decomposed matrix."""
    one = RootOfUnity.one()
    nonzero = zero = mixed_zero = audited = 0
    pure_nonzero, ok = True, True
    for w, fwd_mat in words:
        a = d.invariant_root(w.fwd.solve(d.pi_unit))
        b = d.invariant_root(w.inv.solve(d.pi_unit))
        if (a is None) != (b is None) or (a is not None and a * b != one):
            ok = False
        elif a is None:
            zero += 1
            mixed_zero += w.uses1 and w.uses2
            if not ((w.uses1 and u1 != d.pi_unit) or (w.uses2 and u2 != d.pi_unit)):
                pure_nonzero = ok = False
        else:
            nonzero += 1
        if fwd_mat is not None:
            audited += 1
            ok = ok and d.whittaker_root(fwd_mat) == a
    return {
        "q": d.q, "n": d.n, "pi_unit": d.pi_unit, "words": len(words),
        "nonzero": nonzero, "zero": zero, "mixed_zero": mixed_zero,
        "pure_words_all_nonzero": pure_nonzero, "audited": audited, "ok": ok,
    }


@pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (5, 3), (3, 4)])
def test_k_check_matches_per_word_loop(q, n):
    # every unordered unit pair, u1 = u2 included, several data per unit
    steps, seed = 2000, 11
    rng = random.Random(q * 10 + n)
    for u1 in range(1, q):
        for u2 in range(u1, q):
            walk = KWalk(q, n, u1, u2, seed=seed)
            words = []
            for i in range(1, steps + 1):
                walk.random_step()
                words.append((walk.snapshot(), walk.forward_matrix() if i % 503 == 0 else None))
            samples = sample_k_words(q, n, u1, u2, steps=steps, seed=seed)
            for u0 in {u1, u2}:
                for _ in range(3):
                    d = _datum(q, n, zeta_num=rng.randrange(n * n),
                               omega_exp=rng.randrange(q - 1), u0=u0)
                    rep = k_special_check(d, samples)
                    assert rep.pop("violations") == []
                    assert rep == _k_check_per_word(d, words, u1, u2)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_solved_product_is_a_character(q):
    rng = random.Random(q)
    for n in (2, 3, 4):
        if n % q == 0:
            continue
        ff = LocalField.base_field(q).residue
        for _ in range(40):
            d = _datum(q, n, zeta_num=rng.randrange(n * n),
                       omega_exp=rng.randrange(q - 1), u0=rng.randrange(1, q))
            a, b = (
                SolvedInvariant(rng.randrange(2 * n), rng.randrange(1, q),
                                rng.randrange(-2, 3), rng.randrange(q))
                for _ in range(2)
            )
            assert d.invariant_root(solved_product(ff, a, b)) == (
                d.invariant_root(a) * d.invariant_root(b)
            )


@pytest.mark.parametrize(
    "q,n,u1,u2,zeta_num,omega_exp",
    [(3, 2, 1, 2, 1, 1), (5, 3, 1, 2, 2, 0), (5, 2, 2, 3, 1, 1)],
)
def test_k_special_reports_clean(q, n, u1, u2, zeta_num, omega_exp):
    samples = sample_k_words(q, n, u1, u2, steps=1500)
    for u0 in (u1, u2):
        d = _datum(q, n, zeta_num=zeta_num, omega_exp=omega_exp, u0=u0)
        rep = k_special_check(d, samples)
        assert rep["ok"] and rep["violations"] == []
        assert rep["words"] == 1500
        assert rep["nonzero"] > 0 and rep["audited"] > 0
        assert rep["pure_words_all_nonzero"]
        json.dumps(rep)


def test_k_special_counts_mixed_vanishing():
    samples = sample_k_words(5, 2, 1, 2, steps=1500)
    rep = k_special_check(_datum(5, 2, zeta_num=1, u0=1), samples)
    # once both rotations entered, the word usually sits outside K_1
    assert rep["mixed_zero"] > 0
    assert rep["zero"] >= rep["mixed_zero"]


def test_k_special_rejects_foreign_datum():
    samples = sample_k_words(5, 2, 1, 2, steps=50)
    with pytest.raises(ValueError):
        k_special_check(_datum(3, 2, zeta_num=1), samples)
    with pytest.raises(ValueError):
        k_special_check(_datum(5, 2, zeta_num=1, u0=3), samples)


def _rechecked(F, g):
    """g rebuilt through the checked constructor, every entry normalized
    afresh from its fields."""
    return MatG(F, [[F.elem(e.val, e.coeffs, e.prec) for e in row] for row in g.rows])


@pytest.mark.parametrize("q,n", [(3, 4), (5, 3)])
def test_mirabolic_builders_match_the_checked_constructor(q, n):
    # the blocks skip MatG's checks: each must be a square matrix over F
    # whose entries carry the fields a fresh series would
    F = LocalField.base_field(q)
    m = n - 1
    slots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for digits in itertools.product(range(q), repeat=len(slots)):
        polar = dict(zip(slots, digits))
        for k_res in itertools.product(range(q), repeat=m - 1):
            block = pairs._polar_block(F, m, polar, k_res)
            want = [[F.one() if i == j else F.zero() for j in range(m)] for i in range(m)]
            for (i, j), c in polar.items():
                want[i][j] = F.elem(-1, (c,))
            for i, c in enumerate(k_res):
                want[i][i + 1] = want[i][i + 1] + F.scalar(c)
            assert block == _rechecked(F, block) == MatG(F, want)
            embedded = pairs._embed(F, block)
            assert embedded == _rechecked(F, embedded)
            assert [e.is_exact_zero() for e in embedded.rows[-1][:-1]] == [True] * m
    xs = [F.zero()] * (m - 1) + [F.elem(-1, (1, 2))]
    col = pairs._column_unipotent(F, n, xs)
    assert col == _rechecked(F, col) and col.entry(m - 1, m) == xs[-1]


def test_mirabolic_identity_and_pure_column():
    d1 = _datum(5, 3, zeta_num=1)
    d2 = _datum(5, 3, zeta_num=4)
    F = d1.F
    ident = MatG.identity(F, 3)
    assert d1.whittaker_root(ident) == d2.whittaker_root(ident) == RootOfUnity.one()
    # a bare last column: only the residue of its bottom entry matters
    rows = [[F.one(), F.zero(), F.elem(-1, (2, 1))],
            [F.zero(), F.one(), F.elem(-1, (4, 3))],
            [F.zero(), F.zero(), F.one()]]
    p = MatG(F, rows)
    assert d1.whittaker_root(p) == d1.psi.of_residue(3)
    assert d2.whittaker_root(p) == d1.whittaker_root(p)


def test_mirabolic_point_outside_block_group_vanishes():
    d1 = _datum(5, 3, zeta_num=1)
    d2 = _datum(5, 3, zeta_num=4)
    F = d1.F
    # embedded diag(t, 1) is not in U_2 I+, and the point stays unsupported
    rows = [[F.elem(1, (1,)), F.zero(), F.zero()],
            [F.zero(), F.one(), F.scalar(2)],
            [F.zero(), F.zero(), F.one()]]
    p = MatG(F, rows)
    assert d1.whittaker_root(p) is None
    assert d2.whittaker_root(p) is None


@pytest.mark.parametrize("q,n", [(3, 2), (5, 3)])
def test_mirabolic_agreement_distinct_roots(q, n):
    rep = mirabolic_agreement(PairConfig(_datum(q, n, zeta_num=1), _datum(q, n, zeta_num=1 + n)))
    enumerated = q ** ((n - 1) * (n - 2) // 2 + (n - 2) + 2)
    assert rep["all_equal"] and rep["support_ok"]
    assert rep["mismatches"] == [] and rep["support_violations"] == []
    assert rep["points"] >= enumerated
    assert rep["nonzero_points"] >= enumerated
    assert rep["deep_refinements_checked"] > 0
    json.dumps(rep)


def test_mirabolic_agreement_distinct_uniformizers():
    rep = mirabolic_agreement(PairConfig(_datum(5, 4, zeta_num=1, u0=2), _datum(5, 4, zeta_num=1, u0=3)))
    assert rep["all_equal"] and rep["support_ok"]


def _mirabolic_point(F, n, polar, k_res, x_last):
    m = n - 1
    x_elems = [F.zero()] * (m - 1) + [x_last]
    return pairs._embed(F, pairs._polar_block(F, m, polar, k_res)) * pairs._column_unipotent(F, n, x_elems)


def _mirabolic_table_per_point(q, n, precision=2, shell_bound=1):
    """The mirabolic table with every enumerated point decomposed on its
    own, and each dense block's membership read off its own decomposition;
    the audits and dense blocks draw from the same seeded stream."""
    rng = random.Random(pairs.MIRABOLIC_SEED)
    F = LocalField.base_field(q)
    m = n - 1
    slots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    classes, nonmember, base_points = Counter(), Counter(), []
    for digits in itertools.product(range(q), repeat=len(slots)):
        polar = dict(zip(slots, digits))
        for k_res in itertools.product(range(q), repeat=m - 1):
            for x_last in F.integer_reps(-shell_bound, 1):
                point = _mirabolic_point(F, n, polar, k_res, x_last)
                classes[WhittakerInvariant.of(*decompose(point))] += 1
                base_points.append((polar, k_res, x_last))
    rows = len(base_points)

    def deep(lower):
        out = [[F.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    out[i][j] = F.one() + (
                        F.elem(1, [rng.randrange(q) for _ in range(precision)]) if lower else F.zero()
                    )
                elif i < j:
                    lo = 1 if j == i + 1 else 0
                    out[i][j] = F.elem(lo, [rng.randrange(q) for _ in range(precision)])
                elif lower:
                    lo = 2 if (i, j) == (n - 1, 0) else 1
                    out[i][j] = F.elem(lo, [rng.randrange(q) for _ in range(precision)])
        return MatG(F, out)

    for _ in range(pairs.MIRABOLIC_SPOT_CHECKS):
        polar, k_res, x_last = base_points[rng.randrange(rows)]
        base = _mirabolic_point(F, n, polar, k_res, x_last)
        left = deep(False)
        refined = left * base * deep(True)
        assert WhittakerInvariant.of(*decompose(refined)) == WhittakerInvariant.of(*decompose(base))
    for _ in range(pairs.MIRABOLIC_EXTRAS):
        while True:
            g = MatG(F, [[F.elem(-shell_bound, [rng.randrange(q) for _ in range(precision + shell_bound)])
                          for _ in range(m)] for _ in range(m)])
            try:
                mono = decompose(g)[1]
            except (ZeroInput, InsufficientPrecision):
                continue
            break
        member = mono == MonomialClass.identity(F, m)
        (classes if member else nonmember)[WhittakerInvariant.of(*decompose(pairs._embed(F, g)))] += 1
        rows += 1
    return classes, nonmember, rows


@pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (5, 3), (3, 4)])
def test_mirabolic_table_matches_per_point_loop(q, n):
    T = pairs.mirabolic_table(q, n)
    assert (T.classes, T.nonmember_classes, T.row_count) == _mirabolic_table_per_point(q, n)


@pytest.mark.parametrize("q,n,blocks", [(3, 2, 1), (3, 4, 243), (5, 3, 25)])
def test_mirabolic_enumeration_reads_only_the_unipotent_group(q, n, blocks):
    # pins a known gap: every block the enumeration decomposes is upper
    # unipotent, so it reads the identity class, the summed superdiagonal
    # residues and a zero corner, and the enumeration compares the two
    # Whittaker functions only on U, where they agree by construction
    F = LocalField.base_field(q)
    m = n - 1
    identity = MonomialClass.identity(F, n)
    slots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    seen = 0
    for digits in itertools.product(range(q), repeat=len(slots)):
        polar = dict(zip(slots, digits))
        for k_res in itertools.product(range(q), repeat=m - 1):
            block = pairs._embed(F, pairs._polar_block(F, m, polar, k_res))
            assert all(not e.coeffs for i, row in enumerate(block.rows) for e in row[:i])
            assert all(block.entry(i, i) == F.one() for i in range(n))
            residue = 0
            for c in k_res:
                residue = F.residue.add(residue, c)
            assert WhittakerInvariant.read(block) == (identity, residue, 0)
            seen += 1
    assert seen == blocks


def test_pair_failure_records_replay(monkeypatch):
    # a failing report must carry what reruns it: the walk's seed and
    # steps with the first violation, and the first mismatching class
    violation = {"word": 7, "reason": "conjugation mismatch", "count": 3}
    mismatch = {"class": {"perm": [0, 1]}, "count": 2}
    monkeypatch.setattr(
        selftest, "k_special_check", lambda d, words: {"ok": False, "violations": [violation]}
    )
    monkeypatch.setattr(
        selftest, "mirabolic_agreement",
        lambda cfg: {"all_equal": False, "support_ok": True,
                     "mismatches": [mismatch], "support_violations": []},
    )
    rep = selftest.criterion_pairs("small")
    assert not rep["ok"] and rep["conjugation_runs"] == 2 * rep["checked"]
    mira = [f for f in rep["failures"] if f["reason"] == "mirabolic disagreement"]
    conj = [f for f in rep["failures"] if f["reason"] == "conjugation symmetry violated"]
    assert mira and all(f["first_class"] == mismatch for f in mira)
    assert conj and all(
        (f["seed"], f["steps"], f["first_violation"]) == (2024, 2000, violation) for f in conj
    )
    json.dumps(rep)


def test_pair_criterion_reports_phases():
    rep = selftest.criterion_pairs("small")
    assert rep["ok"]
    phases = rep["phases"]
    assert set(phases) == {"walks", "mirabolic", "k_check"}
    assert all(v >= 0 for v in phases.values())
    # whole milliseconds rounded down; the tolerance is float summation's
    assert sum(phases.values()) <= rep["seconds"] + 1e-9
    json.dumps(rep)


def test_support_report_random_and_planted():
    for q, n, u0 in [(5, 3, 2), (3, 2, 1)]:
        d = _datum(q, n, zeta_num=1, u0=u0)
        rep = support_check(d)
        assert rep["ok"] and rep["violations"] == []
        assert rep["planted"] == rep["planted_located"] > 0
        assert len(rep["witness_examples"]) == 5
        assert rep["planted"] + rep["nonzero"] + rep["zero"] == rep["sampled"]
        json.dumps(rep)


def test_support_pins():
    rng = random.Random(3)
    for q, n, u0 in [(5, 2, 1), (5, 3, 2)]:
        d = _datum(q, n, zeta_num=1, u0=u0)
        F = d.F
        # squared rotation sits at power two
        rot = d.rotation_class().as_matrix()
        sq = rot * rot
        assert d.whittaker_root(sq) == d.zeta**2
        # a permutation that is not a cyclic shift is off the support
        if n == 3:
            rows = [[F.zero(), F.one(), F.zero()],
                    [F.one(), F.zero(), F.zero()],
                    [F.zero(), F.zero(), F.one()]]
            assert d.whittaker_root(MatG(F, rows)) is None
        # dressed generator: the value factors through the three pieces
        u = random_unipotent(rng, F, n)
        k = random_iplus(rng, F, n)
        got = d.whittaker_root(u * rot * k)
        total = 0
        for i in range(n - 1):
            total = F.residue.add(total, u.entry(i, i + 1).coeff_at(0))
        assert got == d.psi.of_residue(total) * d.zeta * d.extended_char(0, 1, 0, k)
