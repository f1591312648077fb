import random

import pytest

from llclab.laurent import LocalField
from llclab.matrices import MatG


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
                for i in range(n):
                    for j in range(n):
                        expect = F.zero()
                        for k in range(n):
                            expect = expect + A.rows[i][k] * B.rows[k][j]
                        got = C.rows[i][j]
                        # == compares valuation, coefficients and precision
                        assert got == expect, (n, i, j, got, expect)
                        precs = {(A.rows[i][k] * B.rows[k][j]).prec for k in range(n)}
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
    A = MatG(F, [[F.one(), F.variable()], [F.zero(), F.one()]])
    assert (A * A).rows[0][1] == F.elem(1, (2,))
    assert (A * A).truncate(1) == MatG(F, [[F.elem(0, (1,), 1), F.zero(1)], [F.zero(1), F.elem(0, (1,), 1)]])
