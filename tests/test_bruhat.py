import itertools
import os
import random
import subprocess
import sys

import pytest

import llclab
from llclab.bruhat import MonomialClass, decompose
from llclab.cyclotomic import RootOfUnity
from llclab.errors import InsufficientPrecision, ZeroInput
from llclab.laurent import LocalField
from llclab.matrices import MatG, diagonal, upper_unipotent
from llclab.supercuspidal import SSCDatum


def random_unipotent(rng, F, n):
    q = F.residue.q
    above = {}
    for i in range(n):
        for j in range(i + 1, n):
            val = rng.randrange(-2, 2)
            coeffs = [rng.randrange(q) for _ in range(3)]
            above[(i, j)] = F.elem(val, coeffs)
    return upper_unipotent(F, n, above)


def random_iplus(rng, F, n):
    q = F.residue.q
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(F.elem(0, (1, rng.randrange(q), rng.randrange(q))))
            elif i < j:
                row.append(F.elem(0, [rng.randrange(q) for _ in range(3)]))
            else:
                row.append(F.elem(1, [rng.randrange(q) for _ in range(2)]))
        rows.append(row)
    m = MatG(F, rows)
    assert m.in_pro_unipotent_iwahori()
    return m


def random_monomial(rng, F, n):
    cols = list(range(n))
    rng.shuffle(cols)
    exps = [rng.randrange(-2, 3) for _ in range(n)]
    units = [rng.randrange(1, F.residue.q) for _ in range(n)]
    return MonomialClass(F, cols, exps, units)


def test_monomial_class_validation():
    F = LocalField.base_field(5)
    with pytest.raises(ValueError):
        MonomialClass(F, (0, 0), (0, 0), (1, 1))
    with pytest.raises(ValueError):
        MonomialClass(F, (0, 1), (0, 0), (1, 0))


def test_compose_matches_matrix_product():
    rng = random.Random(2718)
    for q, n in [(3, 2), (5, 3), (7, 4)]:
        F = LocalField.base_field(q)
        for _ in range(10):
            a = random_monomial(rng, F, n)
            b = random_monomial(rng, F, n)
            prod = a.as_matrix() * b.as_matrix()
            composed = a.compose(b).as_matrix()
            assert prod == composed


def test_inverse_matrix_really_inverts():
    rng = random.Random(281)
    F = LocalField.base_field(7)
    for _ in range(10):
        m = random_monomial(rng, F, 4)
        assert m.as_matrix() * m.inverse_matrix() == MatG.identity(F, 4)


def test_rotation_nth_power_is_central():
    for q, n, u0 in [(5, 2, 3), (7, 3, 2), (3, 4, 1), (13, 6, 5)]:
        F = LocalField.base_field(q)
        rot = MonomialClass.rotation(F, n, u0)
        assert rot**n == MonomialClass.central(F, n, u0, 1)


def test_match_rotation_round_trip():
    rng = random.Random(31415)
    for q, n, u0 in [(5, 2, 3), (7, 3, 2), (3, 4, 2)]:
        F = LocalField.base_field(q)
        for _ in range(10):
            r = rng.randrange(n)
            s = rng.randrange(1, q)
            d = rng.randrange(-2, 3)
            M = (MonomialClass.rotation(F, n, u0) ** r).compose(
                MonomialClass.central(F, n, s, d)
            )
            assert M.match_rotation_times_central(u0) == (r, s, d)


def test_match_rotation_rejects_off_support_classes():
    F = LocalField.base_field(5)
    # unequal diagonal exponents
    assert MonomialClass(F, (0, 1), (1, 0), (1, 1)).match_rotation_times_central(1) is None
    # a transposition is not a 3-cycle power other than for matching shapes
    assert (
        MonomialClass(F, (1, 0, 2), (0, 0, 0), (1, 1, 1)).match_rotation_times_central(1)
        is None
    )
    # right permutation, inconsistent units
    assert (
        MonomialClass(F, (1, 2, 0), (0, 0, 1), (1, 2, 1)).match_rotation_times_central(1)
        is None
    )


def _compose_loop_solve(M, pi_unit):
    # reference solve without the table: rebuild rotation^r by repeated
    # composition for every r and compare exponents and units
    ff = M.field.residue
    n = M.n
    for r in range(n):
        rot = MonomialClass.rotation(M.field, n, pi_unit) ** r
        if rot.cols != M.cols:
            continue
        ds = {M.exps[i] - rot.exps[i] for i in range(n)}
        ss = {ff.mul(M.units[i], ff.inv(rot.units[i])) for i in range(n)}
        if len(ds) == 1 and len(ss) == 1:
            return r, ss.pop(), ds.pop()
        return None
    return None


def test_rotation_solve_table_matches_compose_loop():
    hits = misses = 0
    for q in (5, 7):
        F = LocalField.base_field(q)
        ff = F.residue
        for n in range(2, 6):
            classes = [
                MonomialClass(F, perm, [0] * n, [1] * n)
                for perm in itertools.permutations(range(n))
            ]
            for built_u0, r, s, d in itertools.product(range(1, q), range(n), (1, 2), (-1, 1)):
                M = (MonomialClass.rotation(F, n, built_u0) ** r).compose(
                    MonomialClass.central(F, n, s, d)
                )
                classes.append(M)
                # off the support: one exponent or one unit out of step
                for i in range(n):
                    exps = list(M.exps)
                    exps[i] += 1
                    units = list(M.units)
                    units[i] = ff.mul(units[i], ff.gen)
                    classes.append(MonomialClass(F, M.cols, exps, M.units))
                    classes.append(MonomialClass(F, M.cols, M.exps, units))
            for M in classes:
                twin = MonomialClass(F, list(M.cols), list(M.exps), list(M.units))
                assert twin == M and hash(twin) == hash(M)
                for u0 in range(1, q):
                    want = _compose_loop_solve(M, u0)
                    assert M.match_rotation_times_central(u0) == want
                    hits += want is not None
                    misses += want is None
    assert hits > 0 and misses > 0


def test_monomial_class_hash_follows_equality():
    F = LocalField.base_field(7)
    for n, u0 in [(2, 3), (3, 5), (4, 2)]:
        rot = MonomialClass.rotation(F, n, u0)
        a, b = rot**n, MonomialClass.central(F, n, u0, 1)
        assert a == b and hash(a) == hash(b)
        assert {a: "hit"}[b] == "hit"
        assert len({rot**r for r in range(2 * n)}) == 2 * n


def test_decompose_identity_and_hand_case():
    F = LocalField.base_field(3)
    u, mono, k = decompose(MatG.identity(F, 3))
    assert mono == MonomialClass.identity(F, 3)
    assert u == MatG.identity(F, 3) and k == MatG.identity(F, 3)

    # antidiagonal [[0,1],[t,0]] is the affine rotation for pi = t
    g = MatG(F, [[F.zero(), F.one()], [F.variable(), F.zero()]])
    u, mono, k = decompose(g)
    assert mono == MonomialClass.rotation(F, 2, 1)
    assert u == MatG.identity(F, 2) and k == MatG.identity(F, 2)


def test_decompose_sandwich_and_uniqueness():
    rng = random.Random(987)
    for q, n in [(3, 2), (5, 3), (7, 4), (3, 5)]:
        F = LocalField.base_field(q)
        for _ in range(8):
            u0 = random_unipotent(rng, F, n)
            m0 = random_monomial(rng, F, n)
            k0 = random_iplus(rng, F, n)
            g = u0 * m0.as_matrix() * k0
            u, mono, k = decompose(g)
            assert mono == m0  # the class is an invariant
            assert u.is_upper_unipotent()
            assert k.in_pro_unipotent_iwahori()
            assert (u * mono.as_matrix() * k).agrees(g)


def test_decompose_invariance_under_sandwiching():
    rng = random.Random(654)
    F = LocalField.base_field(5)
    n = 3
    for _ in range(6):
        g = None
        while g is None:
            cand = MatG(
                F,
                [
                    [F.elem(rng.randrange(-1, 2), [rng.randrange(5) for _ in range(3)]) for _ in range(n)]
                    for _ in range(n)
                ],
            )
            if not cand.det().is_zero_at_prec():
                g = cand
        _, mono, _ = decompose(g)
        u1 = random_unipotent(rng, F, n)
        k1 = random_iplus(rng, F, n)
        _, mono2, _ = decompose(u1 * g * k1)
        assert mono2 == mono


def test_decompose_with_finite_precision():
    rng = random.Random(321)
    F = LocalField.base_field(5)
    n = 3
    u0 = random_unipotent(rng, F, n)
    m0 = random_monomial(rng, F, n)
    k0 = random_iplus(rng, F, n)
    g = u0 * m0.as_matrix() * k0
    u, mono, k = decompose(g, prec=9)
    assert mono == m0
    assert (u * mono.as_matrix() * k).agrees(g.truncate(9))


def test_decompose_raises_on_undecidable_pivot():
    F = LocalField.base_field(3)
    fuzzy = F.zero(0)  # O(t^0): could hide a unit
    g = MatG(F, [[fuzzy, F.one()], [F.one(), F.zero()]])
    with pytest.raises(InsufficientPrecision):
        decompose(g)


def test_decompose_rejects_visibly_singular():
    F = LocalField.base_field(3)
    g = MatG(F, [[F.one(), F.one()], [F.one(), F.one()]])
    with pytest.raises(ZeroInput):
        decompose(g)


@pytest.mark.parametrize("n", [2, 3])
def test_decompose_row_zero_only_at_precision_is_undecidable(n):
    # a diagonal t^k cut below t^k leaves a row that reads zero only to
    # the working precision: the matrix is invertible, its pivot unknown
    F = LocalField.base_field(5)
    zeta = RootOfUnity(1, n * n)
    d = SSCDatum(5, n, zeta, omega_exp=0, omega_at_pi=zeta**n, pi_unit=1)
    for i in range(n):
        for prec in (1, 2, 3):
            for k in (prec, prec + 1):
                entries = [F.one()] * n
                entries[i] = F.elem(k, (1,))
                g = diagonal(F, entries)
                with pytest.raises(InsufficientPrecision):
                    decompose(g, prec)
                with pytest.raises(InsufficientPrecision):
                    d.whittaker_root(g, prec)
                assert decompose(g, k + 1)[1] == MonomialClass(
                    F, range(n), [k if j == i else 0 for j in range(n)], [1] * n
                )


def random_invertible(rng, F, n):
    q = F.residue.q
    while True:
        rows = [
            [F.elem(-1, [rng.randrange(q) for _ in range(4)]) for _ in range(n)]
            for _ in range(n)
        ]
        g = MatG(F, rows)
        if not g.det().is_exact_zero():
            return g


def _flipped_order_class(F, g):
    """Re-derives the monomial invariants with every traversal choice
    flipped: the pivot search runs right to left (ties replace, landing on
    the same forced column through the dual rule), rows above the pivot are
    cleared before the pivot row, clears run in descending index order, and
    the class is read off only once the whole matrix is monomial.  Every
    column-side coefficient is re-checked for Iwahori admissibility."""
    n = g.n
    A = [[g.entry(i, j) for j in range(n)] for i in range(n)]
    used = set()
    piv_of_row = {}
    for i in range(n - 1, -1, -1):
        best = None
        for j in range(n - 1, -1, -1):
            if j in used:
                continue
            e = A[i][j]
            if e.is_zero_at_prec():
                continue
            v = e.valuation()
            if best is None or v <= best[0]:
                best = (v, j)
        assert best is not None, "no usable pivot in an invertible matrix"
        piv = best[1]
        pe = A[i][piv]
        used.add(piv)
        piv_of_row[i] = piv
        for r in range(i - 1, -1, -1):
            e = A[r][piv]
            if e.is_zero_at_prec():
                continue
            c = e / pe
            A[r] = [A[r][j2] - c * A[i][j2] for j2 in range(n)]
        for j in range(n - 1, -1, -1):
            if j == piv or j in used:
                continue
            e = A[i][j]
            if e.is_zero_at_prec():
                continue
            c = e / pe
            assert c.has_val_at_least(1 if j < piv else 0)
            for r in range(n):
                A[r][j] = A[r][j] - c * A[r][piv]
    cols = [piv_of_row[i] for i in range(n)]
    lead = [A[i][cols[i]].leading() for i in range(n)]
    return MonomialClass(F, cols, [v for v, _ in lead], [u for _, u in lead])


def test_pivot_search_and_operation_order_independence():
    for q, n, seed in [(3, 2, 101), (5, 3, 102), (3, 4, 103)]:
        F = LocalField.base_field(q)
        rng = random.Random(seed)
        for trial in range(1000):
            g = random_invertible(rng, F, n)
            u, mono, k = decompose(g)
            assert _flipped_order_class(F, g) == mono
            if trial % 97 == 0:
                assert (u * (mono.as_matrix() * k)).agrees(g)


OPTIMIZED_IWAHORI_CHECK = """
from llclab.bruhat import decompose
from llclab.errors import LLCError
from llclab.laurent import LaurentElem, LocalField
from llclab.matrices import MatG

assert False, "assert statements must be stripped in this interpreter"
F = LocalField.base_field(5)
g = MatG(F, [[F.one(), F.one()], [F.one(), F.variable()]])
LaurentElem.has_val_at_least = lambda self, k: False
try:
    decompose(g)
except LLCError as exc:
    print("raised", type(exc).__name__, exc)
else:
    print("returned")
"""


def test_iwahori_check_on_column_factors_survives_optimize():
    # under python -O an assert would vanish and the bad factor would pass
    src = os.path.dirname(os.path.dirname(os.path.abspath(llclab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_IWAHORI_CHECK],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised LLCError internal: clearing column"), out.stdout
