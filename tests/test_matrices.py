import random

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
