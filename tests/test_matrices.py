import random

import pytest

from llclab import pairs, zeta
from llclab.bruhat import decompose
from llclab.errors import LLCError
from llclab.laurent import LaurentElem, LocalField, add_t, coeff_at_t, truncate_t, wrap
from llclab.matrices import MatG, in_iplus_t
from llclab.pairs import KWalk


def entries(g):
    """The entries of g as series, row by row."""
    F = g.field
    return [[wrap(F, e) for e in row] for row in g.rows]


def shift(x, k):
    """x times t^k.  The library multiplies no series by a power of the
    variable, so LaurentElem has no such method."""
    return LaurentElem(x.field, x.val + k, x.coeffs, None if x.prec is None else x.prec + k)


def coeff_at(x, k):
    """The digit of x at t^k, by laurent's kernel; raises past x's
    precision."""
    return coeff_at_t((x.val, x.coeffs, x.prec), k, x.field.var)


def truncate(x, prec):
    """x cut at t^prec, by laurent's kernel."""
    return wrap(x.field, truncate_t((x.val, x.coeffs, x.prec), prec))


def scale(x, c):
    """x times the residue c.  The library scales series only inside its
    kernels, so LaurentElem has no such method."""
    ff = x.field.residue
    return LaurentElem(x.field, x.val, [ff.mul(c, a) for a in x.coeffs], x.prec)


def sub(x, y):
    """x - y for series over one field, by laurent's kernel: LaurentElem
    is a value without a difference.  x and y agree at every digit both
    know exactly when sub(x, y) has no visible term."""
    ff = x.field.residue
    return wrap(x.field, add_t(ff, (x.val, x.coeffs, x.prec), (y.val, y.coeffs, y.prec), ff._neg))


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
    """g stores the normalized triples the checked constructor would."""
    assert g == rechecked(g)


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
    assert entries(A * A)[0][1] == F.elem(1, (2,))
    assert (A * A).truncate(1) == MatG(F, [[F.elem(0, (1,), 1), F.zero(1)], [F.zero(1), F.elem(0, (1,), 1)]])


def test_every_builder_stores_normalized_triples():
    # one representation: whatever builds a matrix, checked or from
    # kernel triples, stores the tuples of normalized triples the checked
    # constructor would
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
