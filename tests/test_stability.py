import ast
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import llclab
from llclab import selftest, stability
from llclab.building import (
    ApartmentPoint,
    FacetSpec,
    GradedQuotient,
    enumerate_facets,
    facet_of,
    graded_quotient,
    is_barycenter,
    jump_numerator,
    sample_alcove_points,
)
from llclab.errors import EmptyFacet, LLCError, NotNonBarycenter, SizeGuardExceeded
from llclab.finitefield import field_of_size
from llclab.stability import (
    FunctionalOverFq,
    UnstableCocharacter,
    contracts_functional,
    destabilizing_cocharacter,
    enumerate_functionals,
    root_count_dims,
    stability_certificate,
    verify_certificate,
)

from test_building import translate


def _stabilizer_count_by_product(q, gq, f):
    """Oracle: unpruned enumeration of diagonal-torus stabilizers."""
    ff = field_of_size(q)
    entries = [(a, b, v) for (a, b), mat in f.mats.items() for row in mat for v in row]
    return sum(
        all(ff.mul(assign[a], v) == ff.mul(v, assign[b]) for a, b, v in entries)
        for assign in itertools.product(range(1, q), repeat=gq.num_nodes)
    )


def _fraction_root_count_dims(x):
    """Oracle: the Fraction form of the affine-root count."""
    n = x.n
    jumps = {Fraction(1)}
    for i in range(n):
        for j in range(n):
            d = (x.coords[i] - x.coords[j]) % 1
            if d != 0:
                jumps.add(d)
    r = min(jumps)
    g = sum(
        1
        for i in range(n)
        for j in range(n)
        if i != j and (x.coords[i] - x.coords[j]) % 1 == 0
    ) + n
    v = sum(
        1
        for i in range(n)
        for j in range(n)
        if i != j and (x.coords[i] - x.coords[j] - r) % 1 == 0
    )
    if r.denominator == 1:
        v += n
    return g, v


def _entrywise_functionals(gq, q):
    """Oracle: every functional entry by entry, each matrix cut out of one
    flat tuple of all dim_v entries, through the public constructor."""
    shapes = [(a, *gq.arrow_shape(a)) for a in gq.arrows]
    for entries in itertools.product(range(q), repeat=gq.dim_v):
        mats = {}
        pos = 0
        for a, rows, cols in shapes:
            mats[a] = tuple(
                tuple(entries[pos + r * cols + c] for c in range(cols)) for r in range(rows)
            )
            pos += rows * cols
        yield FunctionalOverFq(gq, q, mats)


def _contracts_by_loop(cert, lam):
    """Oracle: the per-functional loop over every arrow's matrix, testing
    the weight count and each arrow's weights on every call."""
    b = cert.weights
    if len(b) != len(lam.gq.sizes):
        raise LLCError("certificate rejected: one weight per node")
    for (a, bb), M in lam.mats.items():
        if b[a] <= b[bb] and any(map(any, M)):
            return False
    return True


def _oracle_points():
    for n in range(2, 9):
        yield from sample_alcove_points(n, 120, max_den=40, seed=400 + n)


def test_alcove_certificates_small():
    for n in (2, 3, 4):
        f = FacetSpec(0, (1,) * n)
        cert = stability_certificate(f, 3)
        assert cert.kind == "stable-exists"
        assert cert.stab_count_q == 2
        assert cert.stab_count_q2 == 8
        verify_certificate(cert)


def test_alcove_stabilizer_counts_match_oracle():
    for q in (3, 5):
        for n in (2, 3):
            f = FacetSpec(0, (1,) * n)
            cert = stability_certificate(f, q)
            gq = graded_quotient(f.barycenter())
            func = FunctionalOverFq(gq, q, dict(cert.functional.mats))
            assert cert.stab_count_q == _stabilizer_count_by_product(q, gq, func)
            gq2 = graded_quotient(f.barycenter())
            func2 = FunctionalOverFq(gq2, q * q, dict(cert.functional.mats))
            assert cert.stab_count_q2 == _stabilizer_count_by_product(q * q, gq2, func2)


def test_torus_search_matches_product_oracle_with_zero_values():
    # a zero value drops its arrow's condition; with arrow i < K - 1 zero,
    # only the closing arrow K - 1 ties g_(K-1) back to g_0, which the
    # chain of equalities of an all-nonzero functional already implies
    rng = random.Random(46)
    closing = 0
    for K in range(1, 7):
        gq = graded_quotient(FacetSpec(0, (1,) * K).barycenter())
        assert gq.arrows == tuple((i, (i + 1) % K) for i in range(K))
        for q in (3, 5, 9):
            draws = [[0] + [1] * (K - 1), [1] * K]
            draws += [[rng.choice((0, rng.randrange(1, q))) for _ in range(K)] for _ in range(3)]
            for values in draws:
                lam = FunctionalOverFq(gq, q, {a: ((v,),) for a, v in zip(gq.arrows, values)})
                count = stability._torus_stabilizer_count(q, values)
                assert count == _stabilizer_count_by_product(q, gq, lam), (K, q, values)
                closing += K > 1 and values[-1] != 0 and 0 in values[:-1]
    # at least the first draw at every K > 1 and q leans on the closing arrow
    assert closing >= 5 * 3


def test_alcove_certificate_names_the_q_it_was_given(monkeypatch):
    # over F_23 the stabilizer is also counted over F_529, above the
    # bound on table sizes; the q given is refused before any count
    def no_count(q, values):
        raise AssertionError(f"stabilizer counted over F_{q}")

    monkeypatch.setattr(stability, "_torus_stabilizer_count", no_count)
    for n in (2, 3):
        with pytest.raises(ValueError, match=r"q = 23\b.*q\^2 = 529 .* MAX_FIELD_SIZE = 512"):
            stability_certificate(FacetSpec(0, (1,) * n), 23)
    # facets without a stabilizer count certify at q = 23
    for spec in ((0, (2, 1)), (0, (2, 2)), (1, (1, 1, 1))):
        assert verify_certificate(stability_certificate(FacetSpec(*spec), 23))


def test_dim_gap_certificates():
    cert = stability_certificate(FacetSpec(0, (1, 2)), 3)
    assert cert.kind == "no-stable-dim-gap"
    assert cert.gap == 1
    verify_certificate(cert)
    cert = stability_certificate(FacetSpec(0, (3, 1)), 3)
    assert cert.gap == 4
    verify_certificate(cert)


def test_jordan_witness_certificates():
    cert = stability_certificate(FacetSpec(0, (2, 2)), 3)
    assert cert.kind == "no-stable-jordan"
    verify_certificate(cert)
    # vertex: single class of size n, witness lives on the loop
    cert = stability_certificate(FacetSpec(0, (4,)), 5)
    assert cert.kind == "no-stable-jordan"
    verify_certificate(cert)
    cert = stability_certificate(FacetSpec(1, (1, 1)), 3)
    assert cert.kind == "no-stable-jordan"
    verify_certificate(cert)


def test_every_proper_facet_gets_a_no_stable_certificate():
    for n in range(2, 7):
        for f in enumerate_facets(n):
            cert = stability_certificate(f, 3)
            if f.is_alcove():
                assert cert.kind == "stable-exists"
            else:
                assert cert.kind in ("no-stable-dim-gap", "no-stable-jordan")
            verify_certificate(cert)


def test_empty_facet_rejected():
    with pytest.raises(EmptyFacet):
        stability_certificate(FacetSpec(1, (3,)), 3)


def test_destabilizer_middle_arrow_missing():
    x = ApartmentPoint.parse("0,-1/4,-3/4")
    gq = graded_quotient(x)
    assert gq.missing_arrows() == ((1, 2),)
    cert = destabilizing_cocharacter(x)
    assert cert.missing_arrow == (1, 2)
    assert cert.weights == (0, -1, 1)
    verify_certificate(cert)


def test_destabilizer_wrap_arrow_missing():
    x = ApartmentPoint.parse("0,-1/3")
    gq = graded_quotient(x)
    assert gq.missing_arrows() == ((1, 0),)
    cert = destabilizing_cocharacter(x)
    assert cert.weights == (1, 0)
    verify_certificate(cert)


def test_destabilizer_rejects_barycenters():
    with pytest.raises(NotNonBarycenter):
        destabilizing_cocharacter(FacetSpec(0, (1, 1, 1)).barycenter())


def test_destabilizer_on_sampled_points():
    for n in (2, 3, 4):
        for x in sample_alcove_points(n, 40, seed=31 + n):
            gq = graded_quotient(x)
            if not gq.missing_arrows():
                continue
            cert = destabilizing_cocharacter(x)
            verify_certificate(cert)


def test_destabilizer_contracts_every_functional():
    x = ApartmentPoint.parse("0,-1/4,-3/4")
    cert = destabilizing_cocharacter(x)
    gq = graded_quotient(x)
    seen = 0
    for lam in enumerate_functionals(gq, 3):
        assert contracts_functional(cert, lam)
        seen += 1
    assert seen == 9


def test_functional_enumeration_guard():
    # 7^8 functionals exceed BRUTE_FORCE_GUARD
    gq = graded_quotient(FacetSpec(0, (1,) * 8).barycenter())
    assert 7**gq.dim_v > stability.BRUTE_FORCE_GUARD
    with pytest.raises(SizeGuardExceeded):
        list(enumerate_functionals(gq, 7))


def test_verifier_rejects_tampered_weights():
    x = ApartmentPoint.parse("0,-1/3")
    cert = destabilizing_cocharacter(x)
    bad = type(cert)(cert.point, cert.missing_arrow, (0, 1))
    with pytest.raises(LLCError):
        verify_certificate(bad)


def test_verifier_rejects_tampered_witness():
    cert = stability_certificate(FacetSpec(0, (2, 2)), 3)
    bad = type(cert)(cert.facet, cert.q, cert.x_blocks, cert.x_blocks)
    with pytest.raises(LLCError):
        verify_certificate(bad)


OPTIMIZED_VERIFIER = """
from llclab.building import ApartmentPoint, FacetSpec
from llclab.errors import LLCError
from llclab.stability import NoStableDimGap, destabilizing_cocharacter, verify_certificate

assert False, "assert statements must be stripped in this interpreter"
good = destabilizing_cocharacter(ApartmentPoint.parse("0,-1/3"))
zero_weights = type(good)(good.point, good.missing_arrow, (0,) * len(good.weights))
no_gap = NoStableDimGap(FacetSpec.parse("t=0;m=2,1"), dim_g=99, dim_v=1)
for cert in (zero_weights, no_gap):
    try:
        verify_certificate(cert)
    except LLCError as exc:
        print("rejected", cert.kind, exc)
    else:
        print("verified", cert.kind)
"""


def test_verifier_survives_optimize():
    # under python -O the assert statements of a verifier would vanish
    # and both tampered certificates would come back verified
    src = os.path.dirname(os.path.dirname(os.path.abspath(llclab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_VERIFIER],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2, out.stdout
    assert lines[0].startswith("rejected unstable-cocharacter"), out.stdout
    assert lines[1].startswith("rejected no-stable-dim-gap"), out.stdout


# Oracles: the matrix kernels written with the field's element methods,
# against which the library's kernels on its operation tables must agree.


def _method_mmul(ff, A, B):
    out = []
    for row in A:
        new = []
        for c in range(len(B[0])):
            acc = 0
            for j in range(len(B)):
                acc = ff.add(acc, ff.mul(row[j], B[j][c]))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def _method_rank(ff, rows):
    mat = [list(r) for r in rows]
    rank = col = 0
    while mat and rank < len(mat) and col < len(mat[0]):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = ff.inv(mat[rank][col])
        mat[rank] = [ff.mul(inv, v) for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                c0 = mat[r][col]
                mat[r] = [ff.sub(v, ff.mul(c0, w)) for v, w in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def _method_det(ff, A):
    mat = [list(r) for r in A]
    det = 1
    for col in range(len(mat)):
        pivot = next((r for r in range(col, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = ff.neg(det)
        det = ff.mul(det, mat[col][col])
        inv = ff.inv(mat[col][col])
        for r in range(col + 1, len(mat)):
            if mat[r][col] != 0:
                c0 = ff.mul(mat[r][col], inv)
                mat[r] = [ff.sub(v, ff.mul(c0, w)) for v, w in zip(mat[r], mat[col])]
    return det


def test_table_kernels_match_method_oracles():
    rng = random.Random(23)
    for q in (3, 5, 7, 9, 25):
        ff = field_of_size(q)
        for m in range(1, 6):
            for _ in range(40):
                # sparse draws make singular matrices and row swaps common
                A, B = (
                    tuple(tuple(rng.choice((0, 0, rng.randrange(q))) for _ in range(m)) for _ in range(m))
                    for _ in range(2)
                )
                assert stability._mmul(ff, A, B) == _method_mmul(ff, A, B)
                assert stability._rank_det(ff, A) == (_method_rank(ff, A), _method_det(ff, A))
                # one elimination gives both; off the square the determinant is 0
                tall = A + B
                wide = tuple(a + b for a, b in zip(A, B))
                for M in (tall, wide):
                    assert stability._rank_det(ff, M) == (_method_rank(ff, M), 0)
        # rectangular r x k times k x c, as the arrow shapes of a cycle
        # product are: rows or columns of zeros, and k = 1
        for _ in range(150):
            r, k, c = (rng.randint(1, 5) for _ in range(3))
            A = tuple(tuple(rng.choice((0, 0, rng.randrange(q))) for _ in range(k)) for _ in range(r))
            B = tuple(tuple(rng.choice((0, 0, rng.randrange(q))) for _ in range(c)) for _ in range(k))
            assert stability._mmul(ff, A, B) == _method_mmul(ff, A, B)


def test_jordan_witnesses_keep_their_profiles():
    # every witness criterion 6 builds, with the determinants and rank
    # profiles the method oracles give its block products
    witnesses = 0
    for q in (3, 5):
        ff = field_of_size(q)
        for n in range(2, 9):
            for f in enumerate_facets(n):
                cert = stability_certificate(f, q)
                if cert.kind != "no-stable-jordan":
                    continue
                witnesses += 1
                assert verify_certificate(cert)
                for blocks in (cert.x_blocks, cert.w_blocks):
                    P = oracle = blocks[0]
                    for X in blocks[1:]:
                        P = stability._mmul(ff, P, X)
                        oracle = _method_mmul(ff, oracle, X)
                    assert P == oracle
                    assert stability._rank_det(ff, P)[1] == _method_det(ff, P)
                    profile = []
                    power = oracle
                    for _ in range(len(oracle)):
                        profile.append(_method_rank(ff, power))
                        power = _method_mmul(ff, power, oracle)
                    assert stability._rank_profile(ff, P) == tuple(profile)
    assert witnesses == 2 * 48


def test_root_count_matches_fraction_oracle():
    seen = 0
    for x in _oracle_points():
        for y in (x, translate(x, Fraction(2, 7)), translate(x, Fraction(-5, 3))):
            assert root_count_dims(y) == _fraction_root_count_dims(y)
            seen += 1
    for n in range(2, 9):
        for f in enumerate_facets(n):
            b = f.barycenter()
            assert root_count_dims(b) == _fraction_root_count_dims(b)
            seen += 1
    assert seen == 3 * 840 + sum(2**n - 1 for n in range(2, 9))


def test_functionals_match_entrywise_oracle():
    points = functionals = 0
    for x in _oracle_points():
        gq = graded_quotient(x)
        if 3**gq.dim_v > 3**8:
            continue
        points += 1
        got = [lam.mats for lam in enumerate_functionals(gq, 3)]
        assert got == [lam.mats for lam in _entrywise_functionals(gq, 3)]
        for mats in got:
            assert FunctionalOverFq(gq, 3, mats).mats == mats
        functionals += len(got)
    assert (points, functionals) == (792, 103_908)


SMALL_QUOTIENTS = ("0,-1/4,-3/4", "0,0,-1/3", "0,-1/2,-1/2,-3/4")


def test_enumerated_matrices_passed_the_check(monkeypatch):
    checked = []

    def spy(*args):
        M = real(*args)
        checked.append(M)
        return M

    real = stability._residue_matrix
    monkeypatch.setattr(stability, "_residue_matrix", spy)
    stability._all_matrices.cache_clear()
    shapes = set()
    for x in SMALL_QUOTIENTS:
        gq = graded_quotient(ApartmentPoint.parse(x))
        lams = list(enumerate_functionals(gq, 3))
        assert len(lams) == 3**gq.dim_v
        ids = {id(M) for M in checked}
        assert all(id(M) in ids for lam in lams for M in lam.mats.values())
        # a second enumeration at the same shapes reads the cached lists
        # and checks nothing new
        before, info = len(checked), stability._all_matrices.cache_info()
        again = list(enumerate_functionals(gq, 3))
        after = stability._all_matrices.cache_info()
        assert len(checked) == before
        assert (after.hits, after.misses) == (info.hits + len(gq.arrows), info.misses)
        assert [lam.mats for lam in again] == [lam.mats for lam in lams]
        shapes.update(map(gq.arrow_shape, gq.arrows))
    # each matrix of each shape is checked once per process
    assert len(checked) == sum(3 ** (r * c) for r, c in shapes)


def test_cached_matrices_are_keyed_by_the_field():
    # the same shapes at q = 3, 5, 9 and 3 again: a list cached without
    # its q would hand the first field's matrices to the others
    for q in (3, 5, 9, 3):
        for x in SMALL_QUOTIENTS:
            gq = graded_quotient(ApartmentPoint.parse(x))
            got = [lam.mats for lam in enumerate_functionals(gq, q)]
            assert got == [lam.mats for lam in _entrywise_functionals(gq, q)]
            assert len(got) == q**gq.dim_v


def test_guard_fires_before_any_list_is_built():
    # quotients of dimension 7 and 8 over F_7, one to seven arrows, all
    # past BRUTE_FORCE_GUARD
    stability._all_matrices.cache_clear()
    for m in ((1, 4), (1, 1, 3), (1, 1, 1, 1, 2), (1,) * 7):
        gq = graded_quotient(FacetSpec(0, m).barycenter())
        assert 7**gq.dim_v > stability.BRUTE_FORCE_GUARD
        with pytest.raises(SizeGuardExceeded):
            next(enumerate_functionals(gq, 7))
    assert stability._all_matrices.cache_info().currsize == 0


def test_contraction_fails_on_a_fixed_arrow():
    # weights that leave one present arrow without a positive exponent:
    # exactly the functionals that vanish on that arrow are contracted
    x = ApartmentPoint.parse("0,-1/2,-1/2,-3/4")
    gq = graded_quotient(x)
    missing = gq.missing_arrows()[0]
    assert gq.arrows == ((1, 2), (2, 0))
    lams = list(enumerate_functionals(gq, 3))
    for weights, arrow in (
        ((0, 1, 1), (1, 2)),
        ((0, 1, 2), (1, 2)),
        ((1, 2, 1), (2, 0)),
        ((2, 2, 1), (2, 0)),
    ):
        cert = UnstableCocharacter(x, missing, weights)
        got = [lam.mats for lam in lams if contracts_functional(cert, lam)]
        want = [lam.mats for lam in lams if not any(map(any, lam.mats[arrow]))]
        rows, cols = gq.arrow_shape(arrow)
        assert got == want
        assert len(got) == 3 ** (gq.dim_v - rows * cols)


def test_functional_rejects_malformed_matrices():
    gq = graded_quotient(FacetSpec(0, (1, 2)).barycenter())
    assert gq.arrows == ((0, 1), (1, 0))
    good = {(0, 1): ((1, 2),), (1, 0): ((0,), (2,))}
    assert FunctionalOverFq(gq, 3, good).mats == good
    bad = [
        ({(1, 1): ((1, 1), (1, 1))}, "not present"),
        ({(0, 1): ((1,), (2,))}, "must be 1x2"),
        ({(0, 1): ((1, 2, 0),)}, "must be 1x2"),
        ({(1, 0): ((0, 1), (2, 0))}, "must be 2x1"),
        ({(0, 1): ((1, 3),)}, "residue representatives"),
        ({(1, 0): ((-1,), (0,))}, "residue representatives"),
    ]
    for mats, message in bad:
        with pytest.raises(ValueError, match=message):
            FunctionalOverFq(gq, 3, good | mats)
    # an arrow missing at a nonbarycenter
    x = graded_quotient(ApartmentPoint.parse("0,-1/4,-3/4"))
    assert x.missing_arrows() == ((1, 2),)
    with pytest.raises(ValueError, match="not present"):
        FunctionalOverFq(x, 3, {(1, 2): ((1,),)})


def test_verifier_rejects_weights_of_the_wrong_length():
    x = ApartmentPoint.parse("0,-1/4,-3/4")
    c = destabilizing_cocharacter(x)
    for weights in (c.weights[:1], c.weights + (0,)):
        with pytest.raises(LLCError, match="certificate rejected"):
            verify_certificate(UnstableCocharacter(x, c.missing_arrow, weights))


def test_contraction_rejects_weights_of_the_wrong_length():
    x = ApartmentPoint.parse("0,-1/4,-3/4")
    c = destabilizing_cocharacter(x)
    lams = list(enumerate_functionals(graded_quotient(x), 3))
    bad = [UnstableCocharacter(x, c.missing_arrow, w) for w in (c.weights[:1], c.weights + (0,))]
    # on every call, also right after a valid call on the same quotient
    for lam in lams:
        for cert in bad:
            assert contracts_functional(c, lam)
            for _ in range(2):
                with pytest.raises(LLCError, match="one weight per node"):
                    contracts_functional(cert, lam)


def test_contraction_memo_follows_alternating_pairs():
    # the weights of test_contraction_fails_on_a_fixed_arrow on two
    # quotients, called in turn: a memo keyed by the quotient alone, or
    # by the weights alone, hands one pair's stuck arrows to another
    x = ApartmentPoint.parse("0,-1/2,-1/2,-3/4")
    gx = graded_quotient(x)
    gy = graded_quotient(ApartmentPoint.parse("0,-1/4,-3/4"))
    assert (gx.arrows, gy.arrows) == (((1, 2), (2, 0)), ((0, 1), (2, 0)))
    missing = gx.missing_arrows()[0]
    fixed_1, fixed_0 = (UnstableCocharacter(x, missing, b) for b in ((1, 2, 1), (0, 1, 1)))
    lx = list(enumerate_functionals(gx, 3))
    ly = list(enumerate_functionals(gy, 3))
    pairs = ((fixed_1, lx), (fixed_0, lx), (fixed_1, ly))
    counts = [0, 0, 0]
    for i in range(len(lx)):
        for k, (cert, lams) in enumerate(pairs):
            lam = lams[i % len(lams)]
            got = contracts_functional(cert, lam)
            assert got == _contracts_by_loop(cert, lam)
            counts[k] += got
    # zero on the 1x1 arrow (2, 0) of gx, zero on its 2x1 arrow (1, 2),
    # and the zero functional of gy, met three times in 27 calls
    assert counts == [9, 3, 3]


def test_contraction_memo_reads_equal_weights_alike():
    x = ApartmentPoint.parse("0,-1/2,-1/2,-3/4")
    gq = graded_quotient(x)
    missing = gq.missing_arrows()[0]
    lams = list(enumerate_functionals(gq, 3))
    for b in ([1, 2, 1], [0, 1, 1], [0, 2, 1]):
        one, two = UnstableCocharacter(x, missing, b), UnstableCocharacter(x, missing, list(b))
        assert one.weights == two.weights and one.weights is not two.weights
        for lam in lams:
            want = _contracts_by_loop(one, lam)
            assert contracts_functional(one, lam) == contracts_functional(two, lam) == want


def test_certificate_keeps_the_weights_it_was_given():
    # a list changed in place after the certificate is built reaches
    # neither the verifier nor the contraction memo
    x = ApartmentPoint.parse("0,-1/2,-1/2,-3/4")
    gx = graded_quotient(x)
    gy = graded_quotient(ApartmentPoint.parse("0,-1/4,-3/4"))
    c = destabilizing_cocharacter(x)
    b = list(c.weights)
    cert = UnstableCocharacter(x, c.missing_arrow, b)
    lx = list(enumerate_functionals(gx, 3))
    ly = list(enumerate_functionals(gy, 3))
    assert all(contracts_functional(cert, lam) for lam in lx)
    b[:] = [0] * len(b)
    assert cert.weights == c.weights
    assert verify_certificate(cert)
    # another quotient in between, so the next call decides afresh
    assert [contracts_functional(cert, lam) for lam in ly] == [
        _contracts_by_loop(c, lam) for lam in ly
    ]
    assert all(contracts_functional(cert, lam) for lam in lx)


def test_functional_repr_names_its_arrows():
    gq = graded_quotient(ApartmentPoint.parse("0,-1/2,-1/2,-3/4"))
    lam = list(enumerate_functionals(gq, 3))[7]
    text = repr(lam)
    assert text.startswith("FunctionalOverFq(q=3, ")
    assert lam.mats == {(1, 2): ((0,), (2,)), (2, 0): ((1,),)}
    for arrow, M in lam.mats.items():
        assert f"{arrow!r}: {M!r}" in text
    # the label replays: the matrices read back rebuild the functional
    mats = ast.literal_eval(text[text.index("{"):text.rindex("}") + 1])
    assert FunctionalOverFq(gq, 3, mats).matrices == lam.matrices


def test_left_out_arrows_read_as_zero():
    gq = graded_quotient(FacetSpec(0, (1, 2)).barycenter())
    assert gq.arrows == ((0, 1), (1, 0))
    lam = FunctionalOverFq(gq, 3, {(0, 1): ((1, 2),)})
    assert lam.mats == {(0, 1): ((1, 2),), (1, 0): ((0,), (0,))}
    assert lam.arrow_matrix((1, 0)) == ((0,), (0,))
    assert lam.arrow_matrix((0, 1)) == ((1, 2),)
    empty = FunctionalOverFq(gq, 3, {})
    assert empty.mats == {(0, 1): ((0, 0),), (1, 0): ((0,), (0,))}
    # an arrow that is not present reads as zero too
    x = graded_quotient(ApartmentPoint.parse("0,-1/4,-3/4"))
    lam = FunctionalOverFq(x, 3, {(0, 1): ((2,),)})
    assert lam.arrow_matrix((1, 2)) == ((0,),)
    assert lam.arrow_matrix((2, 0)) == ((0,),)
    assert lam.mats == {(0, 1): ((2,),), (2, 0): ((0,),)}


def test_stability_criterion_small_counts_and_digest():
    rep = selftest.criterion_stability("small")
    assert rep["ok"]
    # one all-arrows point per facet, and every type with a missing arrow
    assert (rep["checked"], rep["nonbarycenter_points"]) == (25, 64)
    assert rep["digest"] == SMALL_CRITERION_6_DIGEST


# criterion 6's answer digest at small scale, computed before its
# certificate kernels read only nonzero entries
SMALL_CRITERION_6_DIGEST = "7531d0a3230c4239dc24c4b5bd48210509c6b3d060ee6e6f6634f7f90628c4ce"


def test_stability_digest_ignores_the_hash_seed():
    # the records are tuples of ints and strings, so neither the string
    # hash seed nor any set or dict order reaches the digest
    src = os.path.dirname(os.path.dirname(os.path.abspath(llclab.__file__)))
    code = "from llclab import selftest; print(selftest.criterion_stability('small')['digest'])"
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == SMALL_CRITERION_6_DIGEST


def test_answer_digest_reads_records_in_order():
    a, b = (1, (2, 3), "stable-exists"), ((0, 1), ((1, 0),))
    assert selftest.answer_digest([a, b]) == selftest.answer_digest(iter([a, b]))
    assert selftest.answer_digest([a, b]) != selftest.answer_digest([b, a])
    assert len(selftest.answer_digest([])) == 64


def test_quotient_types_cover_every_type_once():
    # 2 * 3^(n-1) - 2^n types with a missing arrow, each at sizes[0]
    # points, one per split of the first class; the all-arrows points are
    # the barycenters of the 2^n - 1 facets, each once
    nonbary = []
    for n in range(2, 9):
        points = list(selftest._quotient_types(n))
        types = {(sizes, arrows) for sizes, arrows, _ in points}
        full = [facet_of(x) for sizes, arrows, x in points if len(arrows) == len(sizes)]
        nonbary.append(len(points) - len(full))
        assert len(types) == 2 * 3 ** (n - 1) - 2**n + 2 ** (n - 1)
        assert len({x for _, _, x in points}) == len(points)
        assert len(full) == len(set(full)) == 2**n - 1 and set(full) == set(enumerate_facets(n))
    assert nonbary == [2, 12, 50, 180, 602, 1932, 6050]


def test_stability_criterion_replays_its_failures(monkeypatch):
    # an is_barycenter that ignores the wrap-around wall misses exactly the
    # barycenters of facets with t = 1, which only a first class split
    # across that wall reaches; each failure names its point as llclab
    # facet --point reads it
    def no_wall(x):
        k = facet_of(x).k
        return all(k * (a - b) == x.den for a, b in zip(x.nums, x.nums[1:]) if a != b)

    monkeypatch.setattr(selftest, "is_barycenter", no_wall)
    rep = selftest.criterion_stability("small")
    assert rep["failure_count"] == sum(2 ** (n - 1) - 1 for n in (2, 3, 4))
    for rec in rep["failures"]:
        assert set(rec) == {"n", "point", "reason"}
        x = ApartmentPoint.parse(rec["point"])
        assert x.n == rec["n"] and facet_of(x).t == 1 and is_barycenter(x)
        assert "is_barycenter" in rec["reason"]


def _pairwise_root_count_dims(x):
    """Oracle: the count over every ordered pair of numerators, as
    root_count_dims made it before it grouped them by residue class."""
    D = x.den
    R = jump_numerator(x)
    nums = x.nums
    g = sum(1 for a in nums for b in nums if (a - b) % D == 0)
    v = sum(1 for a in nums for b in nums if (a - b - R) % D == 0)
    return g, v


def test_root_count_by_residue_class_matches_pairwise_count():
    seen = 0
    for n in range(2, 9):
        points = [x for _, _, x in selftest._quotient_types(n)]
        points += [f.barycenter() for f in enumerate_facets(n)]
        for x in points:
            assert root_count_dims(x) == _pairwise_root_count_dims(x), x
            seen += 1
    assert seen == 9329 + 501


def test_stability_criterion_builds_one_quotient_per_point(monkeypatch):
    # one GradedQuotient per quotient-type point and one per facet
    # barycenter, however many checks read it
    built = []
    init = GradedQuotient.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(GradedQuotient, "__init__", counting_init)
    rep = selftest.criterion_stability("small")
    assert rep["ok"]
    points = sum(1 for n in (2, 3, 4) for _ in selftest._quotient_types(n))
    facets = sum(len(enumerate_facets(n)) for n in (2, 3, 4))
    assert (points, facets) == (rep["checked"] + rep["nonbarycenter_points"], rep["checked"])
    assert len(built) == points + facets == 114
