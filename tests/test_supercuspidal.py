import random

import pytest

from llclab.bruhat import MonomialClass
from llclab.cyclotomic import RootOfUnity
from llclab.laurent import LocalField
from llclab.matrices import MatG
from llclab.supercuspidal import SSCDatum

from test_bruhat import random_iplus, random_unipotent, upper_unipotent
from test_matrices import in_iplus


def _datum(q, n, zeta_num=0, omega_exp=0, u0=1):
    zeta = RootOfUnity(zeta_num, n * n)
    return SSCDatum(q, n, zeta, omega_exp=omega_exp, omega_at_pi=zeta**n, pi_unit=u0)


def test_datum_validation():
    with pytest.raises(ValueError):
        # zeta^n does not match the declared central value
        SSCDatum(5, 2, RootOfUnity(1, 4), omega_at_pi=RootOfUnity(1, 3))
    with pytest.raises(ValueError):
        SSCDatum(9, 3, RootOfUnity(1, 9))  # p divides n
    with pytest.raises(ValueError):
        SSCDatum(5, 1, RootOfUnity.one())
    with pytest.raises(ValueError):
        SSCDatum(5, 2, RootOfUnity(1, 4), omega_at_pi=RootOfUnity.minus_one(), pi_unit=0)


def test_omega_value_at_pi():
    d = _datum(7, 3, zeta_num=2, omega_exp=3, u0=4)
    assert d.omega(d.pi_elem()) == d.omega_at_pi
    # tame exponent shows up on units
    ff = d.F.residue
    c = 3
    assert d.omega(d.F.scalar(c)) == RootOfUnity(3 * ff.dlog(c), 6)


def test_affine_generic_on_elementary_one_units():
    # the affine generic character, extended_char at (r, s, d) = (0, 1, 0),
    # reads each simple affine residue once
    for q, n, u0 in [(5, 2, 3), (7, 3, 2), (3, 4, 2)]:
        d = _datum(q, n, zeta_num=1, u0=u0)
        F, ff = d.F, d.F.residue
        for i in range(n - 1):
            for c in range(q):
                k = upper_unipotent(F, n, {(i, i + 1): F.scalar(c)})
                assert d.extended_char(0, 1, 0, k) == d.psi.of_residue(c)
        # bottom-left corner reads the coefficient of t divided by pi_unit
        for c in range(1, q):
            rows = [[F.one() if a == b else F.zero() for b in range(n)] for a in range(n)]
            rows[n - 1][0] = F.elem(1, (c,))
            k = MatG(F, rows)
            assert in_iplus(k)
            expect = d.psi.of_residue(ff.mul(c, ff.inv(u0)))
            assert d.extended_char(0, 1, 0, k) == expect


def test_affine_generic_is_a_character():
    rng = random.Random(42)
    d = _datum(5, 3, zeta_num=2, u0=2)
    for _ in range(12):
        a = random_iplus(rng, d.F, 3)
        b = random_iplus(rng, d.F, 3)
        chi = d.extended_char
        assert chi(0, 1, 0, a * b) == chi(0, 1, 0, a) * chi(0, 1, 0, b)


def test_whittaker_at_identity_is_one():
    for q, n in [(3, 2), (5, 3), (7, 4)]:
        d = _datum(q, n, zeta_num=1, u0=1)
        ident = MonomialClass.identity(d.F, n).as_matrix()
        assert d.whittaker_root(ident) == RootOfUnity.one()


def test_whittaker_on_built_support_elements():
    # g = rotation^r * (s t^e) * k evaluates to zeta^r omega(s t^e) chi(k),
    # with every factor assembled as an honest matrix product first
    rng = random.Random(777)
    for q, n, u0, znum, oexp in [(5, 2, 3, 1, 2), (7, 3, 2, 4, 1), (3, 4, 2, 3, 0)]:
        d = _datum(q, n, zeta_num=znum, omega_exp=oexp, u0=u0)
        F = d.F
        for _ in range(8):
            r = rng.randrange(2 * n)
            s = rng.randrange(1, q)
            e = rng.randrange(-2, 3)
            k = random_iplus(rng, F, n)
            z = F.elem(e, (s,))
            rot_r = d.rotation_class(r).as_matrix()
            g = rot_r * MonomialClass.central(F, n, s, e).as_matrix() * k
            expect = d.zeta**r * d.omega(z) * d.extended_char(0, 1, 0, k)
            assert d.whittaker_root(g) == expect


def test_whittaker_left_unipotent_equivariance():
    rng = random.Random(888)
    d = _datum(5, 3, zeta_num=7, omega_exp=1, u0=2)
    F = d.F
    for _ in range(8):
        r = rng.randrange(3)
        k = random_iplus(rng, F, 3)
        g = d.rotation_class(r).as_matrix() * k
        u = random_unipotent(rng, F, 3)
        assert d.whittaker_root(u * g) == d.psi_u(u) * d.whittaker_root(g)


def test_whittaker_vanishes_off_support():
    d = _datum(5, 2, zeta_num=1, u0=3)
    F = d.F
    t = F.variable()
    g = MatG(F, [[t, F.zero()], [F.zero(), F.one()]])
    assert d.whittaker_root(g) is None

    d3 = _datum(5, 3, zeta_num=1, u0=1)
    F = d3.F
    rows = [
        [F.zero(), F.one(), F.zero()],
        [F.one(), F.zero(), F.zero()],
        [F.zero(), F.zero(), F.one()],
    ]
    assert d3.whittaker_root(MatG(F, rows)) is None


def test_whittaker_central_twist():
    # multiplying by a central s t^e multiplies the value by omega(s t^e)
    rng = random.Random(999)
    d = _datum(7, 2, zeta_num=3, omega_exp=4, u0=5)
    F = d.F
    for _ in range(6):
        k = random_iplus(rng, F, 2)
        g = d.rotation_class(1).as_matrix() * k
        s = rng.randrange(1, 7)
        e = rng.randrange(-1, 2)
        z = F.elem(e, (s,))
        assert d.whittaker_root(MonomialClass.central(F, 2, s, e).as_matrix() * g) == (
            d.omega(z) * d.whittaker_root(g)
        )


def test_rotation_power_consistency():
    # zeta^n = omega(pi) makes the two readings of rotation^n agree
    d = _datum(5, 4, zeta_num=3, omega_exp=2, u0=2)
    g = d.rotation_class(4).as_matrix()
    # as rotation^4 with r = 4: not reduced; the matcher reads r = 0, z = pi
    assert d.whittaker_root(g) == d.omega(d.pi_elem())
    assert d.whittaker_root(g) == d.zeta**4
