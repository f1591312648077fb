"""Two data sharing a central character: conjugation symmetry on walk
words and pointwise agreement on the mirabolic slice."""

import itertools
import json
import random
from collections import Counter, defaultdict
from functools import lru_cache

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

from reference_walk import ReferenceWalk
from test_bruhat import mirabolic_point, polar_block, random_iplus, random_unipotent
from test_laurent import integer_reps
from test_matrices import assert_one_representation, coeff_at, entries, in_iplus
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
    # the lifts of a word and of its inverse multiply to an element of
    # I++: the identity class, with every value-relevant digit zero
    for seed in (1, 5):
        walk = KWalk(5, 3, 1, 2, precision=3, seed=seed)
        for _ in range(20):
            walk.random_step()
        prod = walk.forward_matrix() * walk.inverse_matrix()
        u, mono, k = decompose(prod)
        assert mono == mono.identity(walk.F, 3)
        assert all(coeff_at(entries(m)[i][i + 1], 0) == 0 for m in (u, k) for i in range(2))
        assert coeff_at(entries(k)[2][0], 1) == 0
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


@pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (5, 3), (3, 4), (5, 4), (7, 3)])
def test_walk_matches_reference_walk(q, n):
    # every unordered unit pair, u1 = u2 included, both precisions, two
    # seeds: the quotient state reads what the series walk reads, at
    # every prefix
    for u1 in range(1, q):
        for u2 in range(u1, q):
            for N in (2, 3):
                for seed in (0, 1):
                    walk, ref = KWalk(q, n, u1, u2, N, seed), ReferenceWalk(q, n, u1, u2, N, seed)
                    for _ in range(80):
                        walk.random_step()
                        ref.random_step()
                        assert walk.snapshot() == ref.snapshot()


@pytest.mark.parametrize("N", [2, 3])
def test_hand_built_words_match_reference_walk(N):
    # generators the random steps never draw: multi-digit x above and
    # below the diagonal, on simple roots and off them, an x with finite
    # precision, a multi-digit one-unit e and one with finite precision,
    # around rotations
    q, n = 5, 3
    walk, ref = KWalk(q, n, 1, 2, N), ReferenceWalk(q, n, 1, 2, N)
    F = walk.F
    word = [
        ("push_elementary", 0, 2, F.elem(0, (2, 3, 4))),
        ("push_elementary", 0, 1, F.elem(0, (3, 1, 2))),
        ("push_rotation", 1),
        ("push_elementary", 2, 0, F.elem(1, (4, 2))),
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
        assert walk.snapshot() == ref.snapshot()


@pytest.mark.parametrize("a,b,prec", [(2, 0, 0), (0, 2, -1), (0, 1, 0), (2, 0, 1)])
def test_undecidable_push_raises_like_reference_walk(a, b, prec):
    # an x known only below t^prec leaves the touched entries too coarse
    # for the Iwahori test, or on a simple root leaves unknown the digit
    # the prefix's invariant reads: the series walk raises at the push or
    # at the snapshot, KWalk at the push, which leaves its state as it was
    walk, ref = KWalk(5, 3, 1, 2), ReferenceWalk(5, 3, 1, 2)
    for w in (walk, ref):
        w.push_rotation(1)
    before = walk.snapshot()
    assert before == ref.snapshot()
    for w in (walk, ref):
        with pytest.raises(InsufficientPrecision):
            w.push_elementary(a, b, w.F.zero(prec=prec))
            w.snapshot()
    assert walk.snapshot() == before


def test_push_rejects_slots_outside_the_matrix():
    # a slot index past either end would read as a non-simple root of I++
    walk = KWalk(5, 3, 1, 2)
    x = walk.F.elem(1, (2,))
    for a, b in [(3, 0), (0, 3), (-1, 0), (1, -2)]:
        with pytest.raises(ValueError, match=rf"no entry \({a}, {b}\) at matrix size n = 3"):
            walk.push_elementary(a, b, x)
    for a in (3, -1):
        with pytest.raises(ValueError, match=f"no diagonal slot {a} at matrix size n = 3"):
            walk.push_one_unit_diag(a, walk.F.one() + x)
    assert walk.snapshot() == KWalk(5, 3, 1, 2).snapshot()


def _sample_per_step(walk, steps, seed):
    """sample_k_words as a loop over snapshots: every prefix solved off
    its two invariants, and every AUDIT_STRIDE-th prefix's matrix read
    afresh."""
    ff, u1, u2 = walk.F.residue, walk.u1, walk.u2
    units = sorted({u1, u2})
    tables = {u: {} for u in units}
    misses = {u: [] for u in units}
    for idx in range(steps):
        walk.random_step()
        w = walk.snapshot()
        audit = (idx + 1) % pairs.AUDIT_STRIDE == 0
        read = WhittakerInvariant.read(walk.forward_matrix()) if audit else None
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
    return pairs.WalkSamples(
        walk.q, walk.n, u1, u2, seed, steps, steps // pairs.AUDIT_STRIDE,
        {u: tuple(t.items()) for u, t in tables.items()},
        {u: tuple(v) for u, v in misses.items()},
    )


def test_sampler_matches_reference_walk():
    # the sampler's keys, read off the quotient state, against a per-step
    # sampler over the series walk, whose audits read the series prefix
    for q, n, u1, u2, steps in [(5, 4, 1, 2, 2000), (3, 4, 2, 2, 1100)]:
        samples = sample_k_words(q, n, u1, u2, steps=steps, seed=2024)
        ref = _sample_per_step(ReferenceWalk(q, n, u1, u2, pairs.PRECISION, 2024), steps, 2024)
        assert samples.tables == ref.tables
        assert samples.audit_misses == ref.audit_misses
        assert samples == ref


@pytest.mark.parametrize("q,n", selftest.PAIR_CELLS)
def test_sampler_matches_per_step_oracle(q, n):
    # every walk of a criterion-7 cell, whose cells hold the four of the
    # integral-pairs benchmark, at 400 steps and at 1,006, where the audit
    # reads two prefixes: counted per state, the tables equal the per-step
    # oracle's, order included, and keys come in order of first prefix
    for u1 in range(1, q):
        for u2 in range(u1, q):
            for steps in (400, 1006):
                for seed in (1, 7, 2024):
                    samples = sample_k_words(q, n, u1, u2, steps=steps, seed=seed)
                    ref = _sample_per_step(KWalk(q, n, u1, u2, pairs.PRECISION, seed), steps, seed)
                    assert samples == ref
                    for table in samples.tables.values():
                        firsts = [first for _, (_, first) in table]
                        assert firsts == sorted(set(firsts)) and firsts[0] == 0
                        assert sum(count for _, (count, _) in table) == steps
                    assert samples.audited == steps // pairs.AUDIT_STRIDE


def test_sampler_derives_keys_once_per_state(monkeypatch):
    # the walk only counts its states; each distinct (state, unit) gets
    # its key once, after the walk, and the class solves behind the keys
    # run once per state and unit
    keyed, paired = Counter(), Counter()
    keys, pair = KWalk.keys, KWalk._pair

    def counted_keys(self, state, units):
        keyed.update((state, u) for u in units)
        return keys(self, state, units)

    def counted_pair(self, c, pi_unit):
        paired[c, pi_unit] += 1
        return pair(self, c, pi_unit)

    monkeypatch.setattr(KWalk, "keys", counted_keys)
    monkeypatch.setattr(KWalk, "_pair", counted_pair)
    for q, n, u1, u2, steps in [(5, 4, 1, 2, 10_000), (3, 4, 2, 2, 1006), (5, 3, 3, 4, 400)]:
        keyed.clear()
        paired.clear()
        walk = KWalk(q, n, u1, u2, pairs.PRECISION, 2024)
        states = set()
        for _ in range(steps):
            walk.random_step()
            states.add(walk.state())
        sample_k_words(q, n, u1, u2, steps=steps, seed=2024)
        units = sorted({u1, u2})
        assert set(keyed) == {(state, u) for state in states for u in units}
        assert max(keyed.values()) == 1
        assert sum(paired.values()) == len(keyed) < steps * len(units)


@pytest.mark.parametrize("q,n", [(3, 2), (3, 4), (5, 3), (5, 4)])
def test_lift_reads_solve_like_the_kept_keys(q, n):
    # the lift M k(r) differs from the series prefix M k by an element
    # of I++, where every datum's character is trivial: read afresh, the
    # lifts solve like the series prefixes and like the snapshot, and
    # their solves make the walk's key, for every unit
    units = range(1, q)
    ff = LocalField.base_field(q).residue
    walk, ref = KWalk(q, n, 1, 2, seed=5), ReferenceWalk(q, n, 1, 2, seed=5)
    supported = 0
    for step in range(160):
        walk.random_step()
        ref.random_step()
        if step % 4:
            continue
        word = walk.snapshot()
        lifts = [WhittakerInvariant.read(walk.forward_matrix()), WhittakerInvariant.read(walk.inverse_matrix())]
        series = [WhittakerInvariant.read(ref.forward_matrix()), WhittakerInvariant.read(ref.inverse_matrix())]
        for u, key in zip(units, walk.keys(walk.state(), units)):
            a, b = (m.solve(u) for m in lifts)
            assert [a, b] == [m.solve(u) for m in series] == [word.fwd.solve(u), word.inv.solve(u)]
            product = None if a is None or b is None else solved_product(ff, a, b)
            uses_other = (word.uses1 and u != 1) or (word.uses2 and u != 2)
            assert key == (a is not None, b is not None, product, uses_other, word.uses1 and word.uses2)
            supported += product is not None
    assert supported > 0


def test_walk_tables_fill_once_per_class(monkeypatch):
    # the rotation solve runs at most once per (class mod centre, unit),
    # and classes are built per class reached, not per step
    solves, built = Counter(), Counter()
    match = MonomialClass.match_rotation_times_central

    def counted(self, pi_unit):
        solves[self, pi_unit] += 1
        return match(self, pi_unit)

    monkeypatch.setattr(MonomialClass, "match_rotation_times_central", counted)
    for name in ("__init__", "compose", "inverse"):
        def wrapped(self, *args, _orig=getattr(MonomialClass, name), _name=name):
            built[_name] += 1
            return _orig(self, *args)

        monkeypatch.setattr(MonomialClass, name, wrapped)
    walk = KWalk(5, 4, 1, 2, seed=2024)
    for _ in range(2000):
        walk.random_step()
        walk.keys(walk.state(), (1, 2))
    assert max(solves.values()) == 1
    assert {cls for cls, _ in solves} <= set(walk.classes) and len(walk.classes) > 20
    assert sum(built.values()) <= 4 * len(walk.classes) + 3


@pytest.mark.parametrize("warmup", [0, 30])
@pytest.mark.parametrize("side", ["k", "ki"])
@pytest.mark.parametrize("a,b,val", [(2, 0, 0), (0, 2, -1)])
def test_push_outside_iwahori_raises(monkeypatch, warmup, side, a, b, val):
    # below the diagonal with a unit x, above it with a pole: the step
    # leaves I+ on both sides, and the series walk's test of each side
    # alone, the other switched off, catches it.  KWalk tests the
    # generator's digits, raises the same error and moves nothing
    def one_side(self):
        if not in_iplus(getattr(self, side)):
            raise LLCError("walk state left the Iwahori subgroup")

    monkeypatch.setattr(ReferenceWalk, "_check_iwahori", one_side)
    walk, ref = KWalk(5, 3, 1, 2, seed=3), ReferenceWalk(5, 3, 1, 2, seed=3)
    for _ in range(warmup):
        walk.random_step()
        ref.random_step()
        assert walk.snapshot() == ref.snapshot()
    before = walk.snapshot()
    for w in (walk, ref):
        with pytest.raises(LLCError) as err:
            w.push_elementary(a, b, w.F.elem(val, (3, 1)))
        assert type(err.value) is LLCError
        assert str(err.value) == "walk state left the Iwahori subgroup"
    assert walk.snapshot() == before


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


@pytest.mark.parametrize("q,n", [(3, 4), (5, 3)])
def test_mirabolic_builders_match_the_checked_constructor(q, n):
    # the embedding skips MatG's checks: it must give a square matrix over
    # F whose entries carry the fields a fresh series would
    F = LocalField.base_field(q)
    m = n - 1
    slots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rng = random.Random(q * n)
    dense = [
        MatG(F, [[F.elem(-1, [rng.randrange(q) for _ in range(3)]) for _ in range(m)] for _ in range(m)])
        for _ in range(10)
    ]
    for digits in itertools.product(range(q), repeat=len(slots)):
        for k_res in itertools.product(range(q), repeat=m - 1):
            dense.append(polar_block(F, m, dict(zip(slots, digits)), k_res))
    for block in dense:
        embedded = pairs._embed(F, block)
        assert_one_representation(embedded)
        assert [e.is_exact_zero() for e in entries(embedded)[-1][:-1]] == [True] * m
        assert [row[m] for row in entries(embedded)] == [F.zero()] * m + [F.one()]
        assert [row[:m] for row in entries(embedded)[:m]] == entries(block)


def test_mirabolic_identity_and_pure_column():
    d1 = _datum(5, 3, zeta_num=1)
    d2 = _datum(5, 3, zeta_num=4)
    F = d1.F
    ident = MonomialClass.identity(F, 3).as_matrix()
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
    json.dumps(rep)


def test_mirabolic_agreement_distinct_uniformizers():
    rep = mirabolic_agreement(PairConfig(_datum(5, 4, zeta_num=1, u0=2), _datum(5, 4, zeta_num=1, u0=3)))
    assert rep["all_equal"] and rep["support_ok"]


def _mirabolic_agreement_per_class(cfg):
    """The report with every class of the table solved afresh for each
    datum on every call."""
    d1, d2 = cfg.d1, cfg.d2
    T = pairs.mirabolic_table(d1.q, d1.n)
    mismatches, support_violations = [], []
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


def _fresh_solved_mirabolic(monkeypatch):
    """An empty cache for the solved classes, so no earlier call hides work."""
    monkeypatch.setattr(
        pairs, "_solved_mirabolic", lru_cache(maxsize=None)(pairs._solved_mirabolic.__wrapped__)
    )


def _count_solves(monkeypatch) -> list:
    """The (invariant, pi_unit) of every WhittakerInvariant.solve call."""
    real = WhittakerInvariant.solve
    calls = []

    def counted(self, pi_unit):
        calls.append((self, pi_unit))
        return real(self, pi_unit)

    monkeypatch.setattr(WhittakerInvariant, "solve", counted)
    return calls


@pytest.mark.parametrize("q,n", selftest.PAIR_CELLS)
def test_mirabolic_agreement_matches_per_class_loop(q, n):
    # every ordered pair of data sharing a central character, a datum with
    # itself included, so every ordered pair of units, equal ones too
    groups = defaultdict(list)
    for d in selftest.datum_grid(q, n):
        groups[(d.omega_exp, d.omega.at_var)].append(d)
    units = set()
    for ds in groups.values():
        for d1, d2 in itertools.product(ds, repeat=2):
            cfg = PairConfig(d1, d2)
            assert mirabolic_agreement(cfg) == _mirabolic_agreement_per_class(cfg)
            units.add((d1.pi_unit, d2.pi_unit))
    assert units == set(itertools.product(range(1, q), repeat=2))


@pytest.mark.parametrize("q,n", selftest.PAIR_CELLS)
def test_mirabolic_classes_solve_once_per_uniformizer(monkeypatch, q, n):
    T = pairs.mirabolic_table(q, n)
    classes = len(T.classes) + len(T.nonmember_classes)
    _fresh_solved_mirabolic(monkeypatch)
    calls = _count_solves(monkeypatch)
    # data with trivial zeta and omega share the central character for
    # every uniformizer
    data = {u: _datum(q, n, u0=u) for u in range(1, q)}
    seen = set()
    for u1, u2 in itertools.product(data, repeat=2):
        before = len(calls)
        mirabolic_agreement(PairConfig(data[u1], data[u2]))
        assert len(calls) - before == classes * len({u1, u2} - seen)
        seen |= {u1, u2}
        before = len(calls)
        mirabolic_agreement(PairConfig(data[u1], data[u2]))
        assert len(calls) == before
    assert sorted(Counter(calls).values()) == [1] * classes * (q - 1)


@pytest.mark.parametrize("q,n,u1,u2", [(5, 3, 1, 2), (5, 3, 2, 2), (3, 4, 1, 2)])
def test_mirabolic_agreement_reports_planted_mismatches(monkeypatch, q, n, u1, u2):
    # the real table never reaches these branches: its members solve to
    # the identity rotation for every unit and its nonmembers never solve;
    # a planted table holds a member and a nonmember that d1's unit solves
    # to a rotation, and a member and a nonmember no unit solves
    F = LocalField.base_field(q)
    real = pairs.mirabolic_table(q, n)
    unsolved = next(iter(real.nonmember_classes))
    assert all(unsolved.solve(u) is None for u in range(1, q))
    rotation = WhittakerInvariant(MonomialClass.rotation(F, n, u1), 1, 0)
    assert rotation.solve(u1) is not None
    planted = pairs.MirabolicTable(
        q, n,
        Counter({WhittakerInvariant(MonomialClass.identity(F, n), 1, 0): 5, rotation: 3, unsolved: 2}),
        Counter({unsolved: 7, rotation: 1}),
        18,
    )
    monkeypatch.setattr(pairs, "mirabolic_table", lambda q, n: planted)
    _fresh_solved_mirabolic(monkeypatch)
    d1 = _datum(q, n, zeta_num=1, u0=u1)
    d2 = _datum(q, n, zeta_num=1 + n, u0=u2)
    for cfg in (PairConfig(d1, d2), PairConfig(d2, d1)):
        rep = mirabolic_agreement(cfg)
        assert rep == _mirabolic_agreement_per_class(cfg)
        assert rep["mismatches"] and rep["support_violations"]
        assert rep["nonzero_points"] == 5 and rep["zero_points"] == 2
        assert rep["classes"] == 5 and rep["points"] == 18


def _mirabolic_table_per_point(q, n, precision=2, shell_bound=1):
    """The mirabolic table with every enumerated point decomposed on its
    own, and each dense block's membership read off its own decomposition;
    the dense blocks draw from the table's seeded stream."""
    rng = random.Random(pairs.MIRABOLIC_SEED)
    F = LocalField.base_field(q)
    m = n - 1
    slots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    classes, nonmember, rows = Counter(), Counter(), 0
    for digits in itertools.product(range(q), repeat=len(slots)):
        polar = dict(zip(slots, digits))
        for k_res in itertools.product(range(q), repeat=m - 1):
            for x_last in integer_reps(F, -shell_bound, 1):
                point = mirabolic_point(F, n, polar, k_res, x_last)
                classes[WhittakerInvariant.of(*decompose(point))] += 1
                rows += 1
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


@pytest.mark.parametrize("q,n,blocks", [(3, 2, 1), (3, 4, 243), (5, 3, 25), (5, 4, 3125)])
def test_mirabolic_enumeration_reads_only_the_unipotent_group(q, n, blocks):
    # pins a known gap: every block the enumeration counts is upper
    # unipotent, so it reads the identity class, the summed superdiagonal
    # residues and a zero corner, and the enumeration compares the two
    # Whittaker functions only on U, where they agree by construction;
    # (5, 4) is criterion 7's largest cell, which the per-point loop skips
    F = LocalField.base_field(q)
    m = n - 1
    identity = MonomialClass.identity(F, n)
    slots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    seen = 0
    for digits in itertools.product(range(q), repeat=len(slots)):
        polar = dict(zip(slots, digits))
        for k_res in itertools.product(range(q), repeat=m - 1):
            block = pairs._embed(F, polar_block(F, m, polar, k_res))
            assert all(not e.coeffs for i, row in enumerate(entries(block)) for e in row[:i])
            assert all(row[i] == F.one() for i, row in enumerate(entries(block)))
            residue = 0
            for c in k_res:
                residue = F.residue.add(residue, c)
            assert WhittakerInvariant.read(block) == (identity, residue, 0)
            seen += 1
    assert seen == blocks


@pytest.mark.parametrize("q,n", selftest.PAIR_CELLS)
def test_mirabolic_dense_nonmembers_fix_the_last_basis_vector(q, n):
    # pins the second gap: an embedded GL_{n-1} block fixes e_n, so each
    # dense nonmember class keeps row n-1 in column n-1 with exponent 0,
    # unit 1 and a zero corner; not the identity, it is no rotation power
    # times a central class, so no pi-unit solves it and support_ok
    # cannot fail on these blocks
    T = pairs.mirabolic_table(q, n)
    assert T.nonmember_classes
    for cls in T.nonmember_classes:
        mono = cls.mono
        assert (mono.cols[-1], mono.exps[-1], mono.units[-1], cls.corner) == (n - 1, 0, 1, 0)
        assert all(cls.solve(u) is None for u in range(1, q))


@pytest.mark.parametrize("q,n", [(3, 4), (5, 4)])
def test_mirabolic_table_reads_only_its_draws(monkeypatch, q, n):
    # the enumerated points are counted, not read: the table eliminates
    # each dense draw once, a singular draw and its redraw each once
    real = WhittakerInvariant.read
    reads, raised = [], []

    def counted(cls, g):
        reads.append(g)
        try:
            return real(g)
        except (ZeroInput, InsufficientPrecision):
            raised.append(g)
            raise

    monkeypatch.setattr(WhittakerInvariant, "read", classmethod(counted))
    T = pairs.mirabolic_table.__wrapped__(q, n)
    enumerated = q ** ((n - 1) * (n - 2) // 2 + (n - 2) + 2)
    assert T.row_count == enumerated + pairs.MIRABOLIC_EXTRAS
    assert len(reads) == pairs.MIRABOLIC_EXTRAS + len(raised)


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
            total = F.residue.add(total, coeff_at(entries(u)[i][i + 1], 0))
        assert got == d.psi.of_residue(total) * d.zeta * d.extended_char(0, 1, 0, k)
