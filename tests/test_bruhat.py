import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import llclab
from llclab import bruhat, laurent, matrices, pairs, selftest, zeta
from llclab.bruhat import MonomialClass, WhittakerInvariant, decompose
from llclab.characters import TameChar
from llclab.cyclotomic import RootOfUnity
from llclab.errors import InsufficientPrecision, LLCError, ZeroInput
from llclab.laurent import (
    ONE_T,
    ZERO_T,
    LaurentElem,
    LocalField,
    addmul_t,
    inverse_t,
    mul_t,
    neg_t,
    val_at_least_t,
)
from llclab.matrices import MatG, in_iplus_t
from llclab.supercuspidal import SSCDatum

from reference_walk import ReferenceWalk
from test_matrices import entries, in_iplus, sub


def diagonal(F, entries):
    """The diagonal matrix with these entries."""
    entries = list(entries)
    n = len(entries)
    return MatG(F, [[entries[i] if i == j else F.zero() for j in range(n)] for i in range(n)])


def upper_unipotent(F, n, above):
    """Unipotent upper triangular matrix with given above-diagonal entries."""
    one, zero = F.one(), F.zero()
    return MatG(F, [[above.get((i, j), one if i == j else zero) for j in range(n)] for i in range(n)])


def polar_block(F, m, polar, k_res):
    """A GL_{n-1} block of the mirabolic enumeration: the identity with the
    t^-1 digit polar[i, j] at each slot (i, j) and the residues k_res added
    on the superdiagonal."""
    above = {slot: F.elem(-1, (c,)) for slot, c in polar.items()}
    for i, c in enumerate(k_res):
        above[(i, i + 1)] = above.get((i, i + 1), F.zero()) + F.scalar(c)
    return upper_unipotent(F, m, above)


def mirabolic_point(F, n, polar, k_res, x_last):
    """A point of the mirabolic enumeration: the embedded polar block
    times the unipotent with x_last just above the corner."""
    m = n - 1
    column = upper_unipotent(F, n, {(m - 1, m): x_last})
    return pairs._embed(F, polar_block(F, m, polar, k_res)) * column


def random_unipotent(rng, F, n):
    q = F.residue.q
    above = {}
    for i in range(n):
        for j in range(i + 1, n):
            val = rng.randrange(-2, 2)
            coeffs = [rng.randrange(q) for _ in range(3)]
            above[(i, j)] = F.elem(val, coeffs)
    return upper_unipotent(F, n, above)


def _is_upper_unipotent(g):
    """Exactly unipotent upper triangular."""
    one, n = g.field.one(), g.n
    A = entries(g)
    for i in range(n):
        if sub(A[i][i], one).coeffs:
            return False
        for j in range(i):
            if A[i][j].coeffs:
                return False
    return True


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
    assert in_iplus(m)
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
        assert m.as_matrix() * m.inverse().as_matrix() == MonomialClass.identity(F, 4).as_matrix()


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
    ident = MonomialClass.identity(F, 3).as_matrix()
    u, mono, k = decompose(ident)
    assert mono == MonomialClass.identity(F, 3)
    assert u == ident and k == ident

    # antidiagonal [[0,1],[t,0]] is the affine rotation for pi = t
    g = MatG(F, [[F.zero(), F.one()], [F.variable(), F.zero()]])
    u, mono, k = decompose(g)
    assert mono == MonomialClass.rotation(F, 2, 1)
    assert u == k == MonomialClass.identity(F, 2).as_matrix()


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
            assert _is_upper_unipotent(u)
            assert in_iplus(k)
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
            if cand.det().coeffs:
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
    u, mono, k = decompose(g.truncate(9))
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
                    decompose(g.truncate(prec))
                with pytest.raises(InsufficientPrecision):
                    d.whittaker_root(g.truncate(prec))
                assert decompose(g.truncate(k + 1))[1] == MonomialClass(
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


def test_pivot_search_and_operation_order_independence():
    for q, n, seed in [(3, 2, 101), (5, 3, 102), (3, 4, 103)]:
        F = LocalField.base_field(q)
        rng = random.Random(seed)
        for trial in range(1000):
            g = random_invertible(rng, F, n)
            u, mono, k = decompose(g)
            assert selftest._reversed_scan_class(F, g) == mono
            if trial % 97 == 0:
                assert (u * (mono.as_matrix() * k)).agrees(g)


OPTIMIZED_IWAHORI_CHECK = """
import sys

from llclab import bruhat, matrices
from llclab.errors import LLCError
from llclab.laurent import LocalField
from llclab.matrices import MatG

assert False, "assert statements must be stripped in this interpreter"
F = LocalField.base_field(5)
if sys.argv[1] == "column":
    g = MatG(F, [[F.one(), F.one()], [F.one(), F.variable()]])
else:
    g = MatG(F, [[F.one(), F.zero()], [F.zero(), F.variable()]])
bruhat.val_at_least_t = matrices.val_at_least_t = lambda x, k, var: False
try:
    if sys.argv[2] == "decompose":
        bruhat.decompose(g)
    else:
        bruhat.WhittakerInvariant.read(g)
except LLCError as exc:
    print("raised", type(exc).__name__, exc)
else:
    print("returned")
"""


def _optimized_decompose(seam: str, entry: str = "decompose") -> str:
    # under python -O an assert would vanish and the bad factor would pass
    src = os.path.dirname(os.path.dirname(os.path.abspath(llclab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_IWAHORI_CHECK, seam, entry],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_iwahori_check_on_column_factors_survives_optimize():
    out = _optimized_decompose("column")
    assert out.startswith("raised LLCError internal: clearing column"), out


def test_iwahori_check_on_final_k_survives_optimize():
    # the diagonal input has no column to clear, so only the final check runs
    out = _optimized_decompose("final")
    assert out.startswith("raised LLCError internal: k factor left the Iwahori subgroup"), out


def test_reader_keeps_both_iwahori_checks_under_optimize():
    # an internal LLCError is not InsufficientPrecision: the reader passes
    # it on from its window instead of eliminating again
    out = _optimized_decompose("column", "read")
    assert out.startswith("raised LLCError internal: clearing column"), out
    out = _optimized_decompose("final", "read")
    assert out.startswith("raised LLCError internal: k factor left the Iwahori subgroup"), out


def _series_decompose(g, prec=None):
    """The elimination on series: every clear divides by the pivot
    afresh, k is mono^-1 * A times the folded column operations, and the
    Iwahori test is MatG's."""
    field = g.field
    n = g.n
    if prec is not None:
        g = g.truncate(prec)
    A = entries(g)
    one, zero = field.one(), field.zero()
    u_rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    k_rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    used = set()
    pivots = {}
    for i in range(n - 1, -1, -1):
        best_val, piv = None, None
        fuzzy = []
        for j in range(n):
            if j in used:
                continue
            e = A[i][j]
            if e.coeffs:
                if best_val is None or e.val < best_val:
                    best_val, piv = e.val, j
            elif e.prec is not None:
                fuzzy.append((e.prec, j))
        if piv is None:
            if fuzzy:
                raise InsufficientPrecision(f"row {i}")
            raise ZeroInput(f"row {i}")
        for bound, j in fuzzy:
            if bound <= best_val:
                raise InsufficientPrecision(f"entry ({i},{j})")
        pe = A[i][piv]
        for j in range(n):
            if j == piv or j in used:
                continue
            e = A[i][j]
            if not e.coeffs:
                continue
            c = e * pe.inverse()
            if not val_at_least_t((c.val, c.coeffs, c.prec), 1 if j < piv else 0, field.var):
                raise LLCError("internal: clearing column")
            for r2 in range(n):
                A[r2][j] = sub(A[r2][j], c * A[r2][piv])
            k_rows[piv] = [k_rows[piv][m] + c * k_rows[j][m] for m in range(n)]
        for i2 in range(i):
            e = A[i2][piv]
            if not e.coeffs:
                continue
            c = e * pe.inverse()
            for m in range(n):
                A[i2][m] = sub(A[i2][m], c * A[i][m])
            for r2 in range(n):
                u_rows[r2][i] = u_rows[r2][i] + c * u_rows[r2][i2]
        used.add(piv)
        pivots[i] = piv
    cols = [pivots[i] for i in range(n)]
    lead = [A[i][cols[i]].leading() for i in range(n)]
    mono = MonomialClass(field, cols, [v for v, _ in lead], [c for _, c in lead])
    k_total = mono.inverse().as_matrix() * MatG(field, A) * MatG(field, k_rows)
    if not in_iplus(k_total):
        raise LLCError("internal: k factor left the Iwahori subgroup")
    return MatG(field, u_rows), mono, k_total


def _assert_matches_series(g, prec=None):
    """decompose of g cut at t^prec, if given, is == to the series
    elimination, entry precisions included, or raises the same exception
    type."""
    cut = g if prec is None else g.truncate(prec)
    try:
        want = _series_decompose(g, prec)
    except LLCError as exc:
        with pytest.raises(LLCError) as got:
            decompose(cut)
        assert type(got.value) is type(exc)
        return False
    got = decompose(cut)
    assert got == want
    assert all(
        a.prec == b.prec
        for mg, mw in ((got[0], want[0]), (got[2], want[2]))
        for ra, rb in zip(entries(mg), entries(mw))
        for a, b in zip(ra, rb)
    )
    return True


def _shell(rng, F):
    # an entry over the shells t^-1 .. t^1, as the Whittaker benchmark draws
    return F.elem(-1, [rng.randrange(F.residue.q) for _ in range(3)])


def _planted_point(rng, F, n):
    q = F.residue.q
    above = {(i, j): _shell(rng, F) for i in range(n) for j in range(i + 1, n)}
    u0 = upper_unipotent(F, n, above)
    mono = (MonomialClass.rotation(F, n, rng.randrange(1, q)) ** rng.randrange(2 * n)).compose(
        MonomialClass.central(F, n, rng.randrange(1, q), rng.randrange(-1, 2))
    )
    k_rows = [
        [F.elem(1 if i > j else 0, [rng.randrange(q) for _ in range(2)]) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        k_rows[i][i] = F.one() + F.elem(1, [rng.randrange(q) for _ in range(2)])
    return u0 * mono.as_matrix() * MatG(F, k_rows)


def _dense_point(rng, F, n):
    while True:
        g = MatG(F, [[_shell(rng, F) for _ in range(n)] for _ in range(n)])
        if not g.det().is_exact_zero():
            return g


def test_decompose_matches_series_oracle_on_whittaker_points():
    rng = random.Random(1414)
    for q, n in [(3, 4), (5, 3), (5, 4)]:
        F = LocalField.base_field(q)
        for _ in range(25):
            assert _assert_matches_series(_planted_point(rng, F, n))
            g = _dense_point(rng, F, n)
            assert _assert_matches_series(g)
            _assert_matches_series(g, rng.randrange(0, 4))


def test_decompose_matches_series_oracle_on_sandwiches():
    rng = random.Random(1415)
    for q in (3, 5, 7, 9, 13, 25):
        F = LocalField.base_field(q)
        for n in range(2, 7):
            for _ in range(3):
                g = random_unipotent(rng, F, n) * random_monomial(rng, F, n).as_matrix()
                g = g * random_iplus(rng, F, n)
                assert _assert_matches_series(g)
                _assert_matches_series(g, rng.randrange(1, 8))


def test_decompose_matches_series_oracle_on_table_matrices():
    from llclab import pairs, zeta

    rng = random.Random(1416)
    for q, n in [(3, 2), (3, 4), (5, 3), (7, 3), (5, 5)]:
        F = LocalField.base_field(q)
        for v in range(-2, 3):
            for a0 in F.residue.units():
                for h in (F.elem(v, (a0,)), F.elem(v, (a0, rng.randrange(q), 1))):
                    assert _assert_matches_series(zeta.dual_matrix(F, [F.zero()] * (n - 2), h))
                    assert _assert_matches_series(diagonal(F, [h] + [F.one()] * (n - 1)))
        for _ in range(10):
            block = _dense_point(rng, F, n - 1)
            assert _assert_matches_series(pairs._embed(F, block))
            polar = {(i, j): rng.randrange(q) for i in range(n - 1) for j in range(i)}
            k_res = [rng.randrange(q) for _ in range(n - 2)]
            block = polar_block(F, n - 1, polar, k_res)
            assert _assert_matches_series(pairs._embed(F, block))


def test_decompose_raises_as_the_series_oracle():
    F = LocalField.base_field(5)
    raising = [
        (MatG(F, [[F.zero(0), F.one()], [F.one(), F.zero()]]), None),
        (MatG(F, [[F.one(), F.one()], [F.one(), F.one()]]), None),
        (MatG(F, [[F.zero(), F.zero()], [F.one(), F.one()]]), None),
    ]
    for n in (2, 3):
        for i in range(n):
            for prec in (1, 2, 3):
                for k in (prec, prec + 1):
                    entries = [F.one()] * n
                    entries[i] = F.elem(k, (1,))
                    raising.append((diagonal(F, entries), prec))
    for g, prec in raising:
        assert not _assert_matches_series(g, prec)


def _count_series_arithmetic(monkeypatch) -> list:
    """The names of LaurentElem's operators, __add__, __mul__ and
    inverse, each time one is called, in call order."""
    calls = []
    for name in ("__add__", "__mul__", "inverse"):
        method = getattr(LaurentElem, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(LaurentElem, name, counted)
    return calls


def test_decompose_does_no_series_arithmetic(monkeypatch):
    F = LocalField.base_field(5)
    g = _dense_point(random.Random(1417), F, 4)
    calls = _count_series_arithmetic(monkeypatch)
    u, mono, k = decompose(g)
    assert calls == []
    monkeypatch.undo()
    assert (u * mono.as_matrix() * k).agrees(g)
    # a pivot with a tail was inverted: the elimination did series work
    assert any(len(e.coeffs) > 3 for row in entries(k) for e in row)


def test_decompose_forms_k_without_a_matrix_product(monkeypatch):
    # k is the replay of the recorded column operations on the columns of
    # M^-1 times the eliminated matrix, not a product of two matrices
    F = LocalField.base_field(5)
    g = _dense_point(random.Random(1419), F, 4)
    want = _series_decompose(g)

    def no_dot(*args):
        raise AssertionError("decompose formed a matrix product")

    for module in (bruhat, laurent, matrices):
        monkeypatch.setattr(module, "dot_t", no_dot, raising=False)
    got = decompose(g)
    monkeypatch.undo()
    assert got == want


def _all_products_eliminate(field, rows):
    """bruhat._eliminate with every update a full z + c*y: the pivot
    row's own entry in each column clear, and every entry of each row op,
    the pivot column and the pivot row's zeros included."""
    n = len(rows)
    ff, var = field.residue, field.var
    A = [list(row) for row in rows]
    u_rows = [[ONE_T if i == j else ZERO_T for j in range(n)] for i in range(n)]
    col_ops = []
    used = set()
    cols = [0] * n
    for i in range(n - 1, -1, -1):
        row = A[i]
        best_val, piv = None, None
        fuzzy = []
        for j in range(n):
            if j in used:
                continue
            v, cs, p = row[j]
            if cs:
                if best_val is None or v < best_val:
                    best_val, piv = v, j
            elif p is not None:
                fuzzy.append((p, j))
        if piv is None:
            if fuzzy:
                raise InsufficientPrecision(
                    f"row {i} has no visible entry below O(t^{min(fuzzy)[0]})"
                )
            raise ZeroInput(f"row {i} is exactly zero; not invertible here")
        for bound, j in fuzzy:
            if bound <= best_val:
                raise InsufficientPrecision(
                    f"entry ({i},{j}) is O(t^{bound}) and could undercut the "
                    f"pivot of valuation {best_val}"
                )
        pinv = inverse_t(ff, row[piv], var)
        for j in range(n):
            if j == piv or j in used or not row[j][1]:
                continue
            c = mul_t(ff, row[j], pinv)
            if not val_at_least_t(c, 1 if j < piv else 0, var):
                raise LLCError(
                    f"internal: clearing column {j} against pivot column {piv} "
                    "needs a factor outside the Iwahori subgroup"
                )
            minus_c = neg_t(ff, c)
            for r in A:
                y = r[piv]
                if y[1] or y[2] is not None:
                    r[j] = addmul_t(ff, r[j], minus_c, y)
            col_ops.append((piv, j, c))
        for i2 in range(i):
            e = A[i2][piv]
            if not e[1]:
                continue
            c = mul_t(ff, e, pinv)
            minus_c = neg_t(ff, c)
            A[i2] = [
                addmul_t(ff, z, minus_c, y) if y[1] or y[2] is not None else z
                for z, y in zip(A[i2], row)
            ]
            for r in u_rows:
                y = r[i2]
                if y[1] or y[2] is not None:
                    r[i] = addmul_t(ff, r[i], c, y)
        used.add(piv)
        cols[i] = piv
    exps, units = [], []
    k2 = [None] * n
    for i in range(n):
        v, cs, _ = A[i][cols[i]]
        exps.append(v)
        units.append(cs[0])
        lead_inv = (-v, (ff.inv(cs[0]),), None)
        k2[cols[i]] = [mul_t(ff, lead_inv, y) for y in A[i]]
    mono = MonomialClass(field, cols, exps, units)
    for piv, j, c in reversed(col_ops):
        for r in k2:
            y = r[piv]
            if y[1] or y[2] is not None:
                r[j] = addmul_t(ff, r[j], c, y)
    if not in_iplus_t(ff, k2, var):
        raise LLCError("internal: k factor left the Iwahori subgroup")
    return u_rows, mono, k2


def _eliminates_as_all_products(field, rows):
    """bruhat._eliminate(field, rows) is == to the all-products loop, or
    raises the same error with the same message; the error type or None."""
    try:
        want = _all_products_eliminate(field, rows)
    except LLCError as exc:
        with pytest.raises(type(exc)) as got:
            bruhat._eliminate(field, rows)
        assert str(got.value) == str(exc)
        return type(exc)
    assert bruhat._eliminate(field, rows) == want
    return None


def test_elimination_matches_all_products_on_points_and_cuts():
    # planted and dense points, whole, cut by the reader's window, and
    # truncated at t^0 .. t^3 with their windows
    rng = random.Random(3131)
    outcomes = []
    for q, n in [(3, 4), (5, 3), (5, 4), (9, 2), (25, 3)]:
        F = LocalField.base_field(q)
        for _ in range(12):
            for g in (_planted_point(rng, F, n), _dense_point(rng, F, n)):
                for prec in (None, 0, 1, 2, 3):
                    rows = (g if prec is None else g.truncate(prec)).rows
                    outcomes.append(_eliminates_as_all_products(F, rows))
                    outcomes.append(_eliminates_as_all_products(F, bruhat._window(rows)))
    assert outcomes.count(None) > len(outcomes) // 2
    assert outcomes.count(InsufficientPrecision) >= 50


def test_elimination_matches_all_products_on_raising_inputs():
    F = LocalField.base_field(5)
    one, zero = F.one(), F.zero()
    cases = [
        MatG(F, [[F.zero(0), one], [one, zero]]),
        MatG(F, [[one, one], [one, one]]),
        MatG(F, [[zero, zero], [one, one]]),
        MatG(F, [[one, F.elem(0, (1,), 1)], [one, one]]),
    ]
    for n in (2, 3):
        for i in range(n):
            for prec in (1, 2, 3):
                for k in (prec, prec + 1):
                    entries = [one] * n
                    entries[i] = F.elem(k, (1,))
                    cases.append(diagonal(F, entries).truncate(prec))
    errors = [_eliminates_as_all_products(F, g.rows) for g in cases]
    # a cancellation leaves an O(t) alone in the last row of the fourth;
    # every cut diagonal has a pivot its precision cannot see
    assert errors == [InsufficientPrecision, ZeroInput, ZeroInput] + [InsufficientPrecision] * 31


def test_elimination_matches_all_products_on_walk_and_mirabolic_matrices():
    runs = 0
    for q, n in [(3, 4), (5, 3), (5, 4)]:
        F = LocalField.base_field(q)
        walk = ReferenceWalk(q, n, 1, 2, pairs.PRECISION, 7)
        for step in range(300):
            walk.random_step()
            if step % 15 == 0:
                assert _eliminates_as_all_products(F, walk.forward_matrix().rows) is None
                runs += 1
        rng = random.Random(q * n + 1)
        m = n - 1
        for _ in range(10):
            polar = {(i, j): rng.randrange(q) for i in range(m) for j in range(i + 1, m)}
            k_res = [rng.randrange(q) for _ in range(m - 1)]
            point = mirabolic_point(F, n, polar, k_res, F.elem(-1, [rng.randrange(q) for _ in range(2)]))
            block = MatG(F, [
                [F.elem(-1, [rng.randrange(q) for _ in range(pairs.PRECISION + 1)]) for _ in range(m)]
                for _ in range(m)
            ])
            for g in (point, pairs._embed(F, block)):
                for rows in (g.rows, bruhat._window(g.rows)):
                    _eliminates_as_all_products(F, rows)
                    runs += 1
    assert runs == 3 * 20 + 3 * 10 * 4


def test_decompose_skips_the_products_that_cancel(monkeypatch):
    # one dense 4x4 point over F_5: the pivot row's own entries and each
    # row op's pivot column cancel, so decompose convolves less than the
    # all-products loop on the same rows; products by a single-coefficient
    # factor (a pivot's lead inverse, a one-digit entry) scale without
    # convolving on both sides
    F = LocalField.base_field(5)
    g = _dense_point(random.Random(1417), F, 4)
    calls = [0]
    real = laurent._convolve_into

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(laurent, "_convolve_into", counted)
    decompose(g)
    got = calls[0]
    calls[0] = 0
    _all_products_eliminate(F, g.rows)
    assert (got, calls[0]) == (31, 49)


def test_unchecked_monomial_results_equal_validated_ones():
    rng = random.Random(1418)
    for q in (3, 7):
        F = LocalField.base_field(q)
        for n in range(1, 6):
            for perm in itertools.permutations(range(n)):
                a = MonomialClass(
                    F, perm, [rng.randrange(-3, 4) for _ in range(n)],
                    [rng.randrange(1, q) for _ in range(n)],
                )
                b = random_monomial(rng, F, n)
                for got in (a.compose(b), b.compose(a), a.inverse(), a**3, a**-2):
                    twin = MonomialClass(F, got.cols, got.exps, got.units)
                    assert got == twin and hash(got) == hash(twin)


# ----- the invariant reader ---------------------------------------------


def _count_eliminations(monkeypatch):
    """The list every elimination in bruhat appends to."""
    calls = []
    real = bruhat._eliminate
    monkeypatch.setattr(bruhat, "_eliminate", lambda *a: calls.append(a) or real(*a))
    return calls


def _read_as_decompose(calls, g, prec=None):
    """WhittakerInvariant.read of g cut at t^prec, if given, is the
    invariant of decompose of that cut, or raises the same exception type;
    the number of eliminations the read ran, 1 or 2."""
    cut = g if prec is None else g.truncate(prec)
    try:
        want = WhittakerInvariant.of(*decompose(cut))
    except LLCError as exc:
        want = exc
    before = len(calls)
    if isinstance(want, LLCError):
        with pytest.raises(LLCError) as got:
            WhittakerInvariant.read(cut)
        assert type(got.value) is type(want)
    else:
        assert WhittakerInvariant.read(cut) == want
    runs = len(calls) - before
    assert runs in (1, 2)
    return runs


def test_read_is_decompose_on_whittaker_points(monkeypatch):
    # planted and dense points as the Whittaker benchmark draws them, also
    # over F_9 and F_25, read whole and cut at t^prec, also through
    # whittaker_root; the window decides all but the pinned few, which
    # the elimination of g as given then reads
    calls = _count_eliminations(monkeypatch)
    rng = random.Random(2121)
    retried = []
    for q, n in [(3, 4), (5, 3), (5, 4), (9, 2), (9, 4), (25, 3)]:
        F = LocalField.base_field(q)
        root = RootOfUnity(1, n * n)
        d = SSCDatum(q, n, root, omega_exp=0, omega_at_pi=root**n, pi_unit=rng.randrange(1, q))
        for i in range(20):
            for kind, g in (("planted", _planted_point(rng, F, n)), ("dense", _dense_point(rng, F, n))):
                prec = rng.randrange(0, 4)
                for p in (None, prec):
                    if _read_as_decompose(calls, g, p) == 2:
                        retried.append((q, n, kind, i, p))
                try:
                    want = WhittakerInvariant.of(*decompose(g.truncate(prec))).solve(d.pi_unit)
                except InsufficientPrecision:
                    with pytest.raises(InsufficientPrecision):
                        d.whittaker_root(g.truncate(prec))
                else:
                    assert d.whittaker_root(g.truncate(prec)) == d.invariant_root(want)
    # the window cannot read a corner digit that g as given decides
    assert retried == [(3, 4, "dense", 11, None)]


def test_read_is_decompose_on_walk_and_table_matrices(monkeypatch):
    # series walk prefixes M * k carry inexact entries; the zeta lead
    # matrices and the embedded mirabolic blocks carry exact zeros, which
    # the window keeps exact, so each reads in one elimination
    calls = _count_eliminations(monkeypatch)
    runs = []
    for q, n in [(3, 4), (5, 3), (5, 4)]:
        F = LocalField.base_field(q)
        walk = ReferenceWalk(q, n, 1, 2, pairs.PRECISION, 7)
        for step in range(300):
            walk.random_step()
            if step % 15 == 0:
                runs.append(_read_as_decompose(calls, walk.forward_matrix()))
        for v in range(-2, 3):
            for a0 in F.residue.units():
                h = F.elem(v, (a0,))
                runs.append(_read_as_decompose(calls, zeta.dual_matrix(F, [F.zero()] * (n - 2), h)))
                runs.append(_read_as_decompose(calls, diagonal(F, [h] + [F.one()] * (n - 1))))
        rng = random.Random(q * n)
        for _ in range(10):
            polar = {(i, j): rng.randrange(q) for i in range(n - 1) for j in range(i + 1, n - 1)}
            k_res = [rng.randrange(q) for _ in range(n - 2)]
            block = polar_block(F, n - 1, polar, k_res)
            runs.append(_read_as_decompose(calls, pairs._embed(F, block)))
            runs.append(_read_as_decompose(calls, pairs._embed(F, _dense_point(rng, F, n - 1))))
    assert len(runs) == 3 * 20 + 2 * 5 * (2 + 4 + 4) + 3 * 20 and set(runs) == {1}


def test_read_raises_as_decompose(monkeypatch):
    # an exactly zero row is exactly singular in the window too; a
    # cancellation the window sees only to O(t^k) is read again as given,
    # which finds it exact; undecidable inputs raise after both
    calls = _count_eliminations(monkeypatch)
    F = LocalField.base_field(5)
    one, zero, t = F.one(), F.zero(), F.variable()
    cases = [
        (MatG(F, [[zero, zero], [one, one]]), None, ZeroInput, 1),
        (MatG(F, [[one, t], [zero, zero]]), None, ZeroInput, 1),
        (MatG(F, [[one, one], [one, one]]), None, ZeroInput, 2),
        (MatG(F, [[one + t, t], [one, zero]]) * MatG(F, [[one, one], [zero, zero]]), None, ZeroInput, 2),
        (MatG(F, [[F.zero(0), one], [one, zero]]), None, InsufficientPrecision, 2),
    ]
    for n in (2, 3):
        for i in range(n):
            for prec in (1, 2, 3):
                for k in (prec, prec + 1):
                    entries = [one] * n
                    entries[i] = F.elem(k, (1,))
                    # a cut at t^3 is cut again to the window's t^2, so the
                    # reader eliminates twice
                    runs = 1 if prec < 3 else 2
                    cases.append((diagonal(F, entries), prec, InsufficientPrecision, runs))
    for g, prec, exc, runs in cases:
        with pytest.raises(exc):
            decompose(g if prec is None else g.truncate(prec))
        assert _read_as_decompose(calls, g, prec) == runs


def _deep_slots(n):
    """The least t-adic depth of each entry of I++ off 1: t^1 on the
    diagonal, the superdiagonal and below it, t^2 at the corner (n-1, 0),
    t^0 elsewhere above.  Its upper entries are also those of the
    unipotents with zero superdiagonal residues."""
    out = {}
    for i in range(n):
        for j in range(n):
            out[(i, j)] = 0 if j > i + 1 else 1
    out[(n - 1, 0)] = 2
    return out


def _elementary(F, n, i, j, x):
    """The identity with x added at (i, j)."""
    rows = [[F.one() if a == b else F.zero() for b in range(n)] for a in range(n)]
    rows[i][j] = rows[i][j] + x
    return MatG(F, rows)


@pytest.mark.parametrize("q,n", selftest.PAIR_CELLS)
def test_read_is_invariant_under_deep_generators(q, n):
    # W(u g k) = psi(u) W(g) for k in I++, and psi(u) = 1 for u upper
    # unipotent with zero superdiagonal residues; so on one U point per
    # residue, every elementary generator of either group, at every
    # nonzero c, must leave the read invariant alone
    F = LocalField.base_field(q)
    m = n - 1
    polar = {(i, j): 1 for i in range(m) for j in range(i + 1, m)}
    slots = _deep_slots(n)
    reads = 0
    for r in range(q):
        p = mirabolic_point(F, n, polar, [0] * (m - 1), F.elem(-1, (1, r)))
        base = WhittakerInvariant.read(p)
        for c in F.residue.units():
            for (i, j), depth in slots.items():
                g = _elementary(F, n, i, j, F.elem(depth, (c,)))
                products = (g * p, p * g) if i < j else (p * g,)
                for h in products:
                    assert WhittakerInvariant.read(h) == base, (r, c, i, j)
                    reads += 1
        assert base == (MonomialClass.identity(F, n), r, 0)
    assert reads == q * (q - 1) * (n * n + n * (n - 1) // 2)


@pytest.mark.parametrize("q,n", selftest.PAIR_CELLS)
def test_read_is_invariant_under_deep_products(q, n):
    # products of the generators above, every entry drawn to the working
    # depth: a unipotent with zero superdiagonal residues on the left of a
    # random enumerated point, an I++ element on its right
    F = LocalField.base_field(q)
    m = n - 1
    rng = random.Random(q * n)
    slots = _deep_slots(n)

    def digits():
        return [rng.randrange(q) for _ in range(pairs.PRECISION)]

    def deep(upper):
        rows = [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
        for (i, j), depth in slots.items():
            if i < j or not upper:
                rows[i][j] = rows[i][j] + F.elem(depth, digits())
        return MatG(F, rows)

    for _ in range(30):
        polar = {(i, j): rng.randrange(q) for i in range(m) for j in range(i + 1, m)}
        k_res = [rng.randrange(q) for _ in range(m - 1)]
        p = mirabolic_point(F, n, polar, k_res, F.elem(-1, digits()))
        assert WhittakerInvariant.read(deep(True) * p * deep(False)) == WhittakerInvariant.read(p)


def test_oracle_criterion_reports_phases():
    rep = selftest.criterion_oracles("small")
    assert rep["ok"]
    phases = rep["phases"]
    assert set(phases) == {
        "gauss_modulus", "trace_norm", "draws", "decompose", "reversed_scan", "gamma_ratio"
    }
    assert all(v >= 0 for v in phases.values())
    # whole milliseconds rounded down; the tolerance is float summation's
    assert sum(phases.values()) <= rep["seconds"] + 1e-9
    json.dumps(rep)


def test_oracles_and_support_check_do_no_series_arithmetic(monkeypatch):
    # criterion 8 and the support sampler run on the kernels: the
    # operators LaurentElem keeps serve the benchmark alone
    calls = _count_series_arithmetic(monkeypatch)
    assert selftest.criterion_oracles("small")["ok"]
    assert pairs.support_check(SSCDatum(5, 3, RootOfUnity.one(), pi_unit=2), samples=40)["ok"]
    assert calls == []


def test_pivot_order_failure_replays_from_its_record(monkeypatch):
    # the mutant the kernel oracle must catch: decompose reports one
    # draw's class with one unit negated; the record's matrix, seed and
    # draw index rebuild the draw and its true class
    real_decompose, calls = decompose, []

    def one_unit_negated(g):
        u, mono, k = real_decompose(g)
        calls.append(g)
        if len(calls) == 160:
            units = [g.field.residue.neg(mono.units[0]), *mono.units[1:]]
            mono = MonomialClass(g.field, mono.cols, mono.exps, units)
        return u, mono, k

    monkeypatch.setattr(selftest, "decompose", one_unit_negated)
    rep = selftest.criterion_oracles("small")
    assert not rep["ok"] and rep["failure_count"] == 1
    bad = json.loads(json.dumps(rep["failures"][0]))
    # 150 draws a cell at small scale: the 160th is draw 9 of the second
    assert {k: bad[k] for k in ("check", "q", "n", "seed", "draw")} == {
        "check": "pivot order", "q": 3, "n": 3, "seed": 4002, "draw": 9
    }
    F = LocalField.base_field(bad["q"])
    g = MatG(F, [[F.elem_from_json(e) for e in row] for row in bad["matrix"]["entries"]])
    assert g == calls[159]
    monkeypatch.undo()
    prng = random.Random(bad["seed"])
    phases = dict.fromkeys(("draws", "decompose"), 0.0)
    draws = [selftest._random_decomposed(prng, F, bad["n"], phases) for _ in range(bad["draw"] + 1)]
    assert draws[-1][0] == g
    assert selftest._reversed_scan_class(F, g) == decompose(g)[1] == draws[-1][1]


@pytest.mark.parametrize("check,target,index", [
    ("trace", (LocalField, "trace_to_base"), 11),
    ("norm", (LocalField, "norm_to_base"), 11),
    ("gamma ratio", (selftest, "gamma_automorphic"), 2),
])
def test_oracle_failures_replay_from_their_records(monkeypatch, check, target, index):
    # the library's value disagrees once with the oracle's; the record
    # rebuilds the failing input: the cell (q, n, u0) and x for the trace
    # and the norm, the datum key and twist (e, av) for gamma
    real, calls = getattr(*target), []

    def disagree_once(*args):
        calls.append(args)
        return None if len(calls) == index else real(*args)

    monkeypatch.setattr(*target, disagree_once)
    rep = selftest.criterion_oracles("small")
    assert rep["failure_count"] == 1
    bad = json.loads(json.dumps(rep["failures"][0]))
    q, n = bad["q"], bad["n"]
    assert bad["check"] == check
    if check == "gamma ratio":
        zeta = RootOfUnity.parse(bad["zeta"])
        d = SSCDatum(q, n, zeta, bad["omega_exp"], zeta**n, bad["pi_unit"])
        e, av = bad["twist"]
        got, lam = calls[index - 1]
        want = (selftest._datum_key(d), TameChar(d.F, e, RootOfUnity(av, q - 1)))
        assert (selftest._datum_key(got), lam) == want
    else:
        # 8 draws a cell at small scale: the 11th is draw 2 of (5, 4, 2)
        assert (q, n, bad["u0"], bad["draw"]) == (5, 4, 2, 2)
        E = LocalField.base_field(q).extension(n, bad["u0"])
        assert (E, E.elem_from_json(bad["x"])) == calls[index - 1]
