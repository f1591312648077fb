"""Two data sharing a central character: conjugation symmetry on walk
words and pointwise agreement on the mirabolic slice."""

import json
import random

import pytest

from llclab.bruhat import WhittakerInvariant, decompose
from llclab.cyclotomic import RootOfUnity
from llclab.matrices import MatG
from llclab.pairs import (
    KWalk,
    PairConfig,
    k_special_check,
    mirabolic_agreement,
    sample_k_words,
    support_check,
)
from llclab.supercuspidal import SSCDatum

from test_bruhat import random_iplus, random_unipotent


def _datum(q, n, zeta_num=0, omega_exp=0, u0=1):
    zeta = RootOfUnity(zeta_num, n * n)
    return SSCDatum(q, n, zeta, omega_exp=omega_exp, omega_at_pi=zeta**n, pi_unit=u0)


def test_config_validation():
    with pytest.raises(ValueError):
        PairConfig(_datum(3, 2), _datum(5, 2))
    with pytest.raises(ValueError):
        PairConfig(_datum(5, 2), _datum(5, 4))
    with pytest.raises(ValueError):
        PairConfig(_datum(5, 2), _datum(5, 2), precision=1)
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


def test_sampler_shapes():
    samples = sample_k_words(3, 2, 1, 2, steps=300, seed=7, audit_stride=97)
    assert len(samples.words) == 300 == len(samples.tags)
    assert samples.words[-1].length == 300
    with_mat = [w for w in samples.words if w.fwd_mat is not None]
    assert len(with_mat) == 3


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
        sq = d.rotation_matrix() * d.rotation_matrix()
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
        got = d.whittaker_root(u * d.rotation_matrix() * k)
        total = 0
        for i in range(n - 1):
            total = F.residue.add(total, u.entry(i, i + 1).coeff_at(0))
        assert got == d.psi.of_residue(total) * d.zeta * d.affine_generic(k)
