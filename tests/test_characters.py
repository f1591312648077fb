import copy
import os
import random
import subprocess
import sys

import pytest

import llclab
from llclab.characters import AdditiveCharPsi, LevelOneCharE, TameChar, norm_of_variable
from llclab.cyclotomic import CycloNumber, RootOfUnity, _root
from llclab.errors import InsufficientPrecision, ZeroInput
from llclab.galois import build_parameter, kappa_char
from llclab.laurent import LocalField
from llclab.matching import twist_char
from llclab.monomials import LambdaGraded
from llclab.selftest import datum_grid, gauss_cells
from llclab.supercuspidal import SSCDatum

GRID_Q = [3, 5, 7, 9, 11, 13]


def test_additive_char_trivial_on_maximal_ideal():
    F = LocalField.base_field(7)
    psi = AdditiveCharPsi(F)
    assert psi(F.elem(1, (3, 5, 1))).is_one()
    assert psi(F.zero()).is_one()
    assert not psi(F.one()).is_one()


def test_additive_char_is_additive():
    rng = random.Random(112)
    for q in (5, 9):
        F = LocalField.base_field(q)
        psi = AdditiveCharPsi(F)
        for _ in range(25):
            x = F.elem(rng.randrange(-2, 2), [rng.randrange(q) for _ in range(4)])
            y = F.elem(rng.randrange(-2, 2), [rng.randrange(q) for _ in range(4)])
            assert psi(x + y) == psi(x) * psi(y)


def test_additive_char_needs_the_constant_digit():
    F = LocalField.base_field(3)
    psi = AdditiveCharPsi(F)
    with pytest.raises(InsufficientPrecision):
        psi(F.zero(0))
    # a one-digit window around 0 is enough
    assert psi(F.elem(0, (2,), 1)) == RootOfUnity(2, 3)


def test_additive_char_nontrivial_on_integers():
    # conductor check: some residue has nonzero absolute trace
    for q in GRID_Q:
        F = LocalField.base_field(q)
        psi = AdditiveCharPsi(F)
        assert any(not psi.of_residue(c).is_one() for c in range(F.residue.q))


def test_additive_char_keeps_the_value_of_every_residue():
    # the values kept on the shared instance are the ones computed from
    # the trace on the spot, and a residue out of range still raises
    for q in (*GRID_Q, 27):
        F = LocalField.base_field(q)
        ff = F.residue
        shared = AdditiveCharPsi.of_field(F)
        for psi in (shared, AdditiveCharPsi(F)):
            for c in range(q):
                assert psi.of_residue(c) is _root(ff.trace(c), ff.p), (q, c)
                assert psi(F.elem(0, (c, 1))) is psi.of_residue(c)
            for c in (-1, -q, q, q + 1, 2 * q):
                with pytest.raises(ValueError):
                    psi.of_residue(c)
        assert AdditiveCharPsi.of_field(F) is shared


def gauss_sum(F, psi, e):
    """Residue-level Gauss sum of the unit character c -> zeta_{q-1}^(e dlog c)."""
    ff = F.residue
    chi = TameChar(F, e)
    total = CycloNumber.zero(1)
    for c in ff.units():
        total = total + (chi.of_unit(c) * psi.of_residue(c)).as_cyclo()
    return total


def test_classical_gauss_sum_magnitude():
    # |g(chi, psi)|^2 = q for every nontrivial chi: the calibration oracle
    # for every Gauss sum computed later against the ramified extension
    for q in GRID_Q:
        F = LocalField.base_field(q)
        psi = AdditiveCharPsi(F)
        for e in range(1, q - 1):
            g = gauss_sum(F, psi, e)
            assert g * g.conj() == CycloNumber.from_rational(q), (q, e)


def test_trivial_char_gauss_sum_is_minus_one():
    for q in (3, 7, 9):
        F = LocalField.base_field(q)
        psi = AdditiveCharPsi(F)
        assert gauss_sum(F, psi, 0) == CycloNumber.from_rational(-1)


def test_tame_char_is_multiplicative():
    rng = random.Random(223)
    for q in (5, 9, 13):
        F = LocalField.base_field(q)
        lam = TameChar(F, rng.randrange(1, q - 1), RootOfUnity(1, 8))
        for _ in range(25):
            x = F.elem(rng.randrange(-2, 3), [rng.randrange(q) for _ in range(3)])
            y = F.elem(rng.randrange(-2, 3), [rng.randrange(q) for _ in range(3)])
            if not (x.coeffs and y.coeffs):
                continue
            assert lam(x * y) == lam(x) * lam(y)


def test_tame_char_kernel_contains_one_units():
    F = LocalField.base_field(7)
    lam = TameChar(F, 3, RootOfUnity(1, 5))
    for tail in [(1, 2), (1, 0, 6), (1, 6, 6, 1)]:
        assert lam(F.elem(0, tail)) == RootOfUnity.one() * lam.of_unit(1)
        assert lam(F.elem(0, tail)).is_one()


def test_tame_char_value_at_minus_one():
    for q in GRID_Q:
        F = LocalField.base_field(q)
        for e in range(q - 1):
            lam = TameChar(F, e)
            # dlog(-1) = (q-1)/2 since -1 is the unique element of order 2
            assert lam.at_minus_one() == RootOfUnity(e * ((q - 1) // 2), q - 1)
            sq = lam.at_minus_one() * lam.at_minus_one()
            assert sq.is_one()


def test_quadratic_char_matches_square_census():
    for q in (5, 9, 11):
        F = LocalField.base_field(q)
        ff = F.residue
        eta = TameChar(F, (q - 1) // 2)
        for c in ff.units():
            expect = RootOfUnity.one() if ff.is_square(c) else RootOfUnity.minus_one()
            assert eta.of_unit(c) == expect


def test_tame_char_group_ops():
    F = LocalField.base_field(5)
    a = TameChar(F, 1, RootOfUnity(1, 3))
    b = TameChar(F, 3, RootOfUnity(1, 2))
    assert (a * b).exp_unit == 0  # 1 + 3 = 4 = q - 1
    trivial = a * a.inverse()
    assert trivial.exp_unit == 0 and trivial.at_var.is_one()
    assert a**2 == a * a
    x = F.elem(1, (2, 1))
    assert (a * b)(x) == a(x) * b(x)
    with pytest.raises(ZeroInput):
        a(F.zero())


def test_of_leading_matches_power_times_unit_value():
    # one root per value, against at_var^v times the unit value
    # zeta_{q-1}^(exp_unit * dlog c) as three roots;
    # omega of a datum with zeta of order n^2 has an at_var whose order
    # does not divide q - 1
    for q, n in ((5, 3), (9, 5), (13, 5)):
        F = LocalField.base_field(q)
        zeta = RootOfUnity(1, n * n)
        omega = SSCDatum(q, n, zeta, omega_exp=1, omega_at_pi=zeta**n, pi_unit=2).omega
        assert (q - 1) % omega.at_var.order
        chars = [TameChar(F, e, RootOfUnity(b, q - 1)) for e in range(q - 1) for b in range(q - 1)]
        for lam in chars + [omega]:
            for v in range(-2, 3):
                for c in F.residue.units():
                    unit = RootOfUnity(lam.exp_unit * F.residue.dlog(c), q - 1)
                    assert lam.of_leading(v, c) == lam.at_var**v * unit
                    assert lam.of_unit(c) == unit
            with pytest.raises(ZeroInput):
                lam.of_leading(1, 0)


def test_every_construction_path_returns_the_interned_tame_char():
    # one object per (field, exp_unit mod q-1, at_var), however it is built
    q = 5
    F = LocalField.base_field(q)
    at = RootOfUnity(1, 4)
    a = TameChar(F, 1, at)
    b = TameChar(F, 3, RootOfUnity(1, 6))
    assert TameChar(F, 1, at) is a and TameChar(F, 1 + q - 1, at) is a
    assert TameChar(F, 1 - 3 * (q - 1), RootOfUnity(5, 4)) is a
    assert TameChar(F, 2) is TameChar(F, 2, RootOfUnity.one())
    assert a * b is TameChar(F, 4, at * RootOfUnity(1, 6)) and b * a is a * b
    assert a.inverse() is TameChar(F, -1, at.inverse())
    assert a * a.inverse() is TameChar(F, 0)
    for k in (-3, -1, 0, 1, 2, 5):
        assert a**k is TameChar(F, k, at**k)
    assert twist_char(F, 3, 2) is TameChar(F, 3, RootOfUnity(2, q - 1))
    E = F.extension(3, 2)
    kappa = kappa_char(E)
    assert kappa_char(E) is kappa
    assert TameChar(F, kappa.exp_unit, kappa.at_var) is kappa
    zeta = RootOfUnity(1, 9)
    d1, d2 = (SSCDatum(q, 3, zeta, omega_exp=1, omega_at_pi=zeta**3, pi_unit=2) for _ in range(2))
    assert d1 is not d2 and d1.omega is d2.omega
    assert d1.omega is TameChar(F, 1, d1.omega.at_var)
    assert d1.psi is d2.psi is AdditiveCharPsi.of_field(F)
    # the other residue field's character is another object
    assert TameChar(LocalField.base_field(7), 1) is not TameChar(F, 1)


def test_tame_chars_are_immutable_and_hash_by_identity():
    F = LocalField.base_field(5)
    lam = TameChar(F, 1, RootOfUnity(1, 4))
    assert copy.copy(lam) is lam and copy.deepcopy(lam) is lam
    assert copy.deepcopy({"lam": [lam]})["lam"][0] is lam
    for name, value in (("exp_unit", 2), ("at_var", RootOfUnity.one()), ("field", None), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(lam, name, value)
    with pytest.raises(AttributeError):
        del lam.exp_unit
    assert lam.exp_unit == 1 and lam.at_var is RootOfUnity(1, 4)
    assert {lam: 1}[TameChar(F, 5, RootOfUnity(1, 4))] == 1
    assert lam != TameChar(F, 1) and lam != 1
    # the field, the exponent and the value at t are still checked
    with pytest.raises(ValueError):
        TameChar(F.extension(2, 1), 1)
    with pytest.raises(TypeError):
        TameChar(F, 1.0)
    with pytest.raises(TypeError):
        TameChar(F, 1, 2)


def test_memoised_values_raise_as_the_computation_does():
    # after of_leading(1, 3) is kept, every call below behaves as it does
    # without a memo: (1, 3.0) and (1.0, 3) hash like (1, 3) but are no
    # argument, zero and integers off the residues raise, and a bool is
    # the int it stands for
    F = LocalField.base_field(5)
    lam = TameChar(F, 1, RootOfUnity(1, 4))
    value = lam.of_leading(1, 3)
    assert lam._values[(1, 3)] is value and lam.of_leading(1, 3) is value
    for v, c in ((1, 3.0), (1.0, 3)):
        with pytest.raises(TypeError):
            lam.of_leading(v, c)
    lam.of_leading(0, 1)
    with pytest.raises(ZeroInput):
        lam.of_leading(0, 0)
    for c in (5, -1):
        with pytest.raises(ValueError):
            lam.of_leading(0, c)
    assert lam.of_leading(1, True) is lam.of_leading(1, 1)
    assert lam.of_leading(True, 1) is lam.of_leading(1, 1)
    # a rejected argument leaves nothing behind
    assert {(0, 0), (0, 5), (0, -1)}.isdisjoint(lam._values)


def test_of_leading_against_its_formula_on_the_grid():
    # every twist (e, b) on the q <= 13 grid and every (v, c), fresh and
    # then read back, against at_var^v * zeta_{q-1}^(e dlog c) built here
    for q in GRID_Q:
        F = LocalField.base_field(q)
        ff = F.residue
        for e in range(q - 1):
            for b in range(q - 1):
                at = RootOfUnity(b, q - 1)
                lam = TameChar(F, e, at)
                for v in range(-2, 3):
                    for c in ff.units():
                        want = at**v * RootOfUnity(e * ff.dlog(c), q - 1)
                        assert lam.of_leading(v, c) is want, (q, e, b, v, c)
                        assert lam.of_leading(v, c) is want
                        assert (v, c) in lam._values


# integers that are no residue of F_5: negative ones once read as other
# residues through a negative table index, and q and beyond once raised
# IndexError
OUT_OF_RANGE = (-1, -4, 5, 6, 25)


@pytest.mark.parametrize("c", OUT_OF_RANGE)
def test_characters_reject_residues_outside_the_units(c):
    lam = TameChar(LocalField.base_field(5), 1, RootOfUnity(1, 4))
    _, xi = make_xi(5, 3, 2)
    for call in (
        lam.of_unit,
        lambda c: lam.of_leading(2, c),
        xi.psi.of_residue,
        lambda c: xi.of_unit_part(c, 0),
        lambda c: xi.of_unit_part(1, c),
    ):
        with pytest.raises(ValueError):
            call(c)


def test_characters_reject_zero_as_zero_input():
    lam = TameChar(LocalField.base_field(5), 1, RootOfUnity(1, 4))
    _, xi = make_xi(5, 3, 2)
    for call in (
        lam.of_unit,
        lambda c: lam.of_leading(-1, c),
        lambda c: xi.of_unit_part(c, 0),
    ):
        with pytest.raises(ZeroInput):
            call(0)
    # every unit still has its value
    ff = lam.field.residue
    for c in ff.units():
        assert lam.of_unit(c) == RootOfUnity(ff.dlog(c), 4)


OPTIMIZED_RESIDUES = f"""
from llclab.characters import LevelOneCharE, TameChar
from llclab.cyclotomic import RootOfUnity
from llclab.laurent import LocalField
from llclab.matching import twist_char
from llclab.monomials import LambdaGraded
try:
    assert False
except AssertionError:
    raise SystemExit("assert statements must be stripped in this interpreter")
F = LocalField.base_field(5)
lam = TameChar(F, 1, RootOfUnity(1, 4))
xi = LevelOneCharE(F.extension(3, 2), LambdaGraded.one(), 0)
reads = (
    ("tame", lam.of_unit),
    ("psi", xi.psi.of_residue),
    ("unit", lambda c: xi.of_unit_part(c, 0)),
    ("wild", lambda c: xi.of_unit_part(1, c)),
)
for name, call in reads:
    for c in {OUT_OF_RANGE!r}:
        try:
            call(c)
        except ValueError:
            print("rejected", name, c)
        except Exception as exc:
            print("raised", type(exc).__name__, name, c)
        else:
            print("accepted", name, c)
"""


def test_characters_reject_residues_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(llclab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RESIDUES],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"rejected {name} {c}"
        for name in ("tame", "psi", "unit", "wild")
        for c in OUT_OF_RANGE
    ], out.stdout


def make_xi(q, n, u0, e_xi=0, lam_exp=-1):
    F = LocalField.base_field(q)
    E = F.extension(n, u0)
    at_pi = LambdaGraded.lambda_power(lam_exp, RootOfUnity(1, n * n).as_cyclo())
    return E, LevelOneCharE(E, at_pi, e_xi)


def test_level_one_char_wild_part():
    # on 1 + c1 u the value is psi(n c1): the trace pairing against u^-1
    for q, n, u0 in [(5, 2, 3), (7, 3, 2), (3, 4, 1), (13, 6, 5)]:
        E, xi = make_xi(q, n, u0)
        ff = E.residue
        psi = AdditiveCharPsi(E.base)
        for c1 in range(q):
            x = E.elem(0, (1, c1))
            val = xi(x)
            expect = LambdaGraded.from_cyclo(psi.of_residue(ff.scalar_mul(n, c1)).as_cyclo())
            assert val == expect


def test_level_one_char_conductor():
    # trivial once the depth-one digit vanishes, nontrivial at depth one
    E, xi = make_xi(7, 3, 2)
    for c2 in range(1, 7):
        assert xi(E.elem(0, (1, 0, c2))) == LambdaGraded.one()
    assert any(xi(E.elem(0, (1, c1))) != LambdaGraded.one() for c1 in range(1, 7))


def test_level_one_char_is_multiplicative():
    rng = random.Random(334)
    for q, n, u0 in [(5, 2, 3), (7, 3, 2)]:
        E, xi = make_xi(q, n, u0, e_xi=2)
        for _ in range(20):
            x = E.elem(rng.randrange(-2, 3), [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(3)])
            y = E.elem(rng.randrange(-2, 3), [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(3)])
            assert xi(x * y) == xi(x) * xi(y)


def test_level_one_char_at_pi_powers():
    E, xi = make_xi(5, 4, 2, e_xi=1)
    u = E.variable()
    assert xi(u) == xi.at_pi
    assert xi(E.elem(-1, (1,))) * xi(u) == LambdaGraded.one()
    assert xi(E.elem(3, (1,))) == xi.at_pi * xi.at_pi * xi.at_pi


def test_twist_by_base_character():
    # twisting moves the value at u by lam(N(u)) with N(u) = (-1)^(n-1) u0 t,
    # and shifts the tame exponent by n * e_lam
    for q, n, u0 in [(5, 2, 3), (7, 3, 2), (13, 4, 7)]:
        E, xi = make_xi(q, n, u0, e_xi=1)
        F = E.base
        ff = E.residue
        lam = TameChar(F, 2, RootOfUnity(1, 7))
        tw = xi.twist_by_base(lam)
        sign_u0 = u0 if (n - 1) % 2 == 0 else ff.neg(u0)
        expect_ratio = lam(F.elem(1, (sign_u0,)))
        assert tw.at_pi == xi.at_pi * expect_ratio
        assert tw.exp_unit == (1 + n * 2) % (q - 1)
        # the wild part is untouched: one-units of the base are in ker(lam)
        for c1 in range(q):
            assert tw(E.elem(0, (1, c1))) == xi(E.elem(0, (1, c1)))


def test_twist_by_base_matches_the_checked_constructor():
    # the twist is built from its parent's checked fields; against the
    # character LevelOneCharE.__init__ builds, for every datum and every
    # tame twist of the small grid
    for q, n in gauss_cells("small"):
        F = LocalField.base_field(q)
        lams = [TameChar(F, e, RootOfUnity(b, q - 1)) for e in range(q - 1) for b in range(q - 1)]
        for d in datum_grid(q, n):
            xi = build_parameter(d).xi
            move = norm_of_variable(xi.efield)
            for lam in lams:
                got = xi.twist_by_base(lam)
                want = LevelOneCharE(
                    xi.efield, xi.at_pi * lam.of_leading(*move), xi.exp_unit + n * lam.exp_unit
                )
                assert type(got) is LevelOneCharE
                assert got.efield is want.efield and got.psi is want.psi
                assert got.exp_unit == want.exp_unit
                assert got.at_pi == want.at_pi and hash(got.at_pi) == hash(want.at_pi)


def test_norm_of_variable_closed_form_matches_determinant():
    # every extension of degree 2..5 prime to p over these residue fields,
    # for every uniformizer unit: the closed form against the Leibniz norm
    seen = 0
    for q in (3, 5, 7, 9, 11, 13, 25):
        F = LocalField.base_field(q)
        for n in range(2, 6):
            if n % F.residue.p == 0:
                continue
            for u0 in range(1, q):
                E = F.extension(n, u0)
                assert norm_of_variable(E) == E.norm_to_base(E.variable()).leading()
                seen += 1
    assert seen == 226


def test_level_one_char_needs_two_digits():
    E, xi = make_xi(5, 2, 3)
    with pytest.raises(InsufficientPrecision):
        xi(E.elem(0, (2,), 1))
    assert xi(E.elem(0, (2, 1), 2)) is not None
