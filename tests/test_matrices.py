import random

import pytest

from llclab import pairs, zeta
from llclab.bruhat import decompose
from llclab.errors import LLCError
from llclab.laurent import LocalField
from llclab.matrices import MatG, in_iplus_t
from llclab.pairs import KWalk


def entries(g):
    """The entries of g as series, row by row."""
    return [[g.entry(i, j) for j in range(g.n)] for i in range(g.n)]


def in_iplus(g):
    """g lies in the pro-unipotent Iwahori subgroup; raises where its
    digits cannot decide."""
    return in_iplus_t(g.field.residue, g.rows, g.field.var)


def rechecked(g):
    """g rebuilt through the checked constructor, every entry normalized
    afresh from its stored triple."""
    F = g.field
    return MatG(F, [[F.elem(*t) for t in row] for row in g.rows])


def assert_one_representation(g):
    """g stores what the checked constructor would, and each entry reads
    back as the series of its triple."""
    assert g == rechecked(g)
    F = g.field
    assert all(g.entry(i, j) == F.elem(*g.rows[i][j]) for i in range(g.n) for j in range(g.n))


def random_entry(rng, F):
    q = F.residue.q
    val = rng.randrange(-3, 3)
    coeffs = [rng.randrange(q) for _ in range(rng.randrange(5))]
    kind = rng.randrange(3)
    if kind == 0:
        return F.elem(val, coeffs)
    if kind == 1:
        return F.zero(val + rng.randrange(4))
    return F.elem(val, coeffs, val + rng.randrange(-1, 7))


def test_product_matches_entrywise_sum_of_series_products():
    rng = random.Random(6060)
    fields = [LocalField.base_field(5), LocalField.base_field(9), LocalField.base_field(7).extension(3, 3)]
    mixed = 0
    for F in fields:
        for n in (2, 3, 4, 5):
            for _ in range(6):
                A = MatG(F, [[random_entry(rng, F) for _ in range(n)] for _ in range(n)])
                B = MatG(F, [[random_entry(rng, F) for _ in range(n)] for _ in range(n)])
                C = A * B
                a, b, c = entries(A), entries(B), entries(C)
                for i in range(n):
                    for j in range(n):
                        expect = F.zero()
                        for k in range(n):
                            expect = expect + a[i][k] * b[k][j]
                        got = c[i][j]
                        # == compares valuation, coefficients and precision
                        assert got == expect, (n, i, j, got, expect)
                        precs = {(a[i][k] * b[k][j]).prec for k in range(n)}
                        mixed += len(precs) > 1
    assert mixed >= 100


def test_constructor_checks_entries_and_shape():
    # products and decompositions build their matrices unchecked from
    # kernel results; the public constructor still checks what it gets
    F, E = LocalField.base_field(5), LocalField.base_field(7)
    with pytest.raises(TypeError):
        MatG(F, [[F.one(), F.zero()], [F.zero(), E.one()]])
    with pytest.raises(TypeError):
        MatG(F, [[F.one(), 0], [F.zero(), F.one()]])
    with pytest.raises(ValueError):
        MatG(F, [[F.one(), F.zero()], [F.zero()]])
    with pytest.raises(ValueError):
        MatG(F, [[F.one(), F.zero(), F.zero()], [F.zero(), F.one(), F.zero()]])
    with pytest.raises(ValueError):
        MatG(F, [])
    A = MatG(F, [[F.one(), F.variable()], [F.zero(), F.one()]])
    assert (A * A).entry(0, 1) == F.elem(1, (2,))
    assert (A * A).truncate(1) == MatG(F, [[F.elem(0, (1,), 1), F.zero(1)], [F.zero(1), F.elem(0, (1,), 1)]])


def test_every_builder_stores_normalized_triples():
    # one representation: whatever builds a matrix, checked or from
    # kernel triples, stores the tuples of normalized triples the checked
    # constructor would, and entry() reads each back as its series
    rng = random.Random(3737)
    built, decomposed = [], 0
    for q, n in [(3, 4), (5, 3), (7, 2)]:
        F = LocalField.base_field(q)
        for _ in range(10):
            A = MatG(F, [[random_entry(rng, F) for _ in range(n)] for _ in range(n)])
            B = MatG(F, [[random_entry(rng, F) for _ in range(n)] for _ in range(n)])
            shell = [[F.elem(-1, [rng.randrange(q) for _ in range(4)]) for _ in row] for row in A.rows]
            g = MatG(F, shell)
            built += [A, A * B, A.truncate(rng.randrange(-1, 4)), g, pairs._embed(F, g)]
            for h in (g, g.truncate(2)):
                try:
                    u, mono, k = decompose(h)
                except LLCError:
                    continue
                built += [u, k, mono.as_matrix(), mono.inverse().as_matrix()]
                decomposed += 1
        if n > 2:
            h = F.elem(rng.randrange(-1, 2), [1 + rng.randrange(q - 1), rng.randrange(q)], 4)
            built.append(zeta.dual_matrix(F, [random_entry(rng, F) for _ in range(n - 2)], h))
        walk = KWalk(q, n, 1, q - 1, seed=n)
        for _ in range(20):
            walk.random_step()
            built += [walk.forward_matrix(), walk.inverse_matrix()]
    assert decomposed >= 40 and len(built) >= 400
    for g in built:
        assert_one_representation(g)
