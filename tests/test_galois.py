"""Galois-side parameter data: discriminant character, Gauss sums, epsilon."""

import random
from fractions import Fraction

import pytest

from llclab import characters, galois, selftest
from llclab.characters import AdditiveCharPsi, LevelOneCharE, TameChar
from llclab.cyclotomic import CycloNumber, RootOfUnity
from llclab.errors import ZeroInput
from llclab.galois import (
    ParameterDatum,
    _gauss_histogram,
    _gauss_inner,
    _gauss_rows,
    build_parameter,
    det_parameter,
    disc_unit_residue,
    epsilon_galois,
    gauss_sum_bruteforce,
    kappa_char,
    kappa_eval,
)
from llclab.laurent import LaurentElem, LocalField
from llclab.monomials import EpsMonomial, LambdaGraded
from llclab.zeta import closed_form_epsilon

from test_laurent import from_base, integer_reps, unit_reps
from test_matrices import shift, sub
from test_supercuspidal import _datum


# ----- quadratic discriminant character ----------------------------------


def _conic_solvable(F, a, b):
    """Decides whether a x^2 + b y^2 = z^2 has a nonzero solution.

    A solution scales so its lowest-valuation coordinate is exactly 1.
    With val(a), val(b) in {0, 1} the derivative of the form at a pinned
    unit coordinate has valuation at most 1, so by Newton lifting the
    congruence modulo p^3 decides the equation exactly; the search runs
    over digit vectors modulo p^3 with each coordinate pinned in turn.
    """
    reps = integer_reps(F, 0, 3)
    one = F.one()
    for pinned in range(3):
        for s1 in reps:
            for s2 in reps:
                x, y, z = [(one, s1, s2), (s1, one, s2), (s1, s2, one)][pinned]
                e = sub(a * x * x + b * y * y, z * z)
                if not e.truncate(3).coeffs:
                    return True
    return False


def _symbol_product_form(ff, va, ra, vb, rb):
    """(-1)^(v(a)v(b)(q-1)/2) chi2(ra)^v(b) chi2(rb)^v(a), chi2 the residue
    square character.  Independent of the packaged single-chi2 form."""
    s = 1
    if (va * vb) % 2 and not ff.is_square(ff.minus_one()):
        s = -s
    if vb % 2 and not ff.is_square(ra):
        s = -s
    if va % 2 and not ff.is_square(rb):
        s = -s
    return s


def test_symbol_formula_against_conic_oracle():
    # exhaustive over square classes at q = 3: the symbol is +1 exactly
    # when the corresponding conic has a point
    F = LocalField.base_field(3)
    ff = F.residue
    g = next(u for u in ff.units() if not ff.is_square(u))
    classes = [(0, 1), (0, g), (1, 1), (1, g)]
    for va, ra in classes:
        for vb, rb in classes:
            a = F.elem(va, (ra,))
            b = F.elem(vb, (rb,))
            want = 1 if _conic_solvable(F, a, b) else -1
            assert _symbol_product_form(ff, va, ra, vb, rb) == want


def test_kappa_matches_product_form_symbol():
    for q, n, u0 in [(3, 2, 2), (5, 3, 3), (7, 4, 2), (9, 2, 5)]:
        F = LocalField.base_field(q)
        E = F.extension(n, u0)
        ff = F.residue
        du = disc_unit_residue(E)
        rng = random.Random(5)
        for _ in range(40):
            v = rng.randrange(-3, 4)
            r = rng.randrange(1, q)
            x = F.elem(v, (r,) + tuple(rng.randrange(q) for _ in range(2)))
            assert kappa_eval(E, x) == _symbol_product_form(ff, v, r, n - 1, du)


def test_kappa_kills_squares_and_multiplies():
    F = LocalField.base_field(7)
    E = F.extension(2, 3)
    rng = random.Random(9)
    for _ in range(30):
        x = F.elem(rng.randrange(-2, 3), (rng.randrange(1, 7), rng.randrange(7)))
        y = F.elem(rng.randrange(-2, 3), (rng.randrange(1, 7), rng.randrange(7)))
        assert kappa_eval(E, x * x) == 1
        assert kappa_eval(E, x) * kappa_eval(E, y) == kappa_eval(E, x * y)
    with pytest.raises(ZeroInput):
        kappa_eval(E, F.zero())


def test_kappa_on_units_by_parity_of_degree():
    # odd degree leaves the units alone; even degree sees the square class
    for q, n, u0 in [(5, 3, 2), (7, 5, 1), (5, 2, 1), (3, 4, 2)]:
        F = LocalField.base_field(q)
        E = F.extension(n, u0)
        ff = F.residue
        for a in ff.units():
            got = kappa_eval(E, F.scalar(a))
            if n % 2 == 1:
                assert got == 1
            else:
                assert got == (1 if ff.is_square(a) else -1)


def test_kappa_char_packaging():
    for q, n, u0 in [(3, 2, 2), (5, 4, 2), (7, 3, 4), (9, 4, 3)]:
        F = LocalField.base_field(q)
        E = F.extension(n, u0)
        kappa = kappa_char(E)
        assert kappa.exp_unit in (0, (q - 1) // 2)
        assert (2 * kappa.exp_unit) % (q - 1) == 0 and (kappa.at_var**2).is_one()
        rng = random.Random(11)
        for _ in range(25):
            x = F.elem(rng.randrange(-2, 3), (rng.randrange(1, q), rng.randrange(q)))
            want = kappa_eval(E, x)
            got = kappa(x)
            assert got.is_one() == (want == 1)


# ----- the induced character datum ---------------------------------------


def test_parameter_datum_invariants():
    for q, n, znum, e_om, u0 in [(5, 2, 1, 1, 2), (7, 3, 2, 4, 3), (3, 4, 3, 1, 2)]:
        d = _datum(q, n, znum, e_om, u0)
        P = build_parameter(d)
        E = P.efield
        assert P.xi(E.variable()) == LambdaGraded.lambda_power(-1, d.zeta)
        ff = d.F.residue
        for a in ff.units():
            want = d.omega.of_unit(a) * P.kappa.of_unit(a).inverse()
            assert P.xi.of_unit_part(a, 0) == want


def test_build_parameter_reference_case():
    d = _datum(5, 2, zeta_num=0)
    P = build_parameter(d)
    assert P.xi.at_pi == LambdaGraded.lambda_power(-1)
    assert P.xi.exp_unit == (-P.kappa.exp_unit) % 4


def test_xi_at_embedded_uniformizer():
    for q, n, znum, e_om, u0 in [(5, 2, 3, 2, 1), (7, 3, 4, 1, 2), (5, 4, 5, 3, 3)]:
        d = _datum(q, n, znum, e_om, u0)
        P = build_parameter(d)
        emb = from_base(P.efield, d.pi_elem())
        want = LambdaGraded.lambda_power(-n, d.omega(d.pi_elem()))
        assert P.xi(emb) == want


def test_xi_wild_part():
    for q, n in [(5, 3), (7, 2), (9, 4)]:
        d = _datum(q, n, zeta_num=1)
        P = build_parameter(d)
        E, ff = P.efield, d.F.residue
        psi = AdditiveCharPsi(d.F)
        got = P.xi(E.elem(0, (1, 1)))
        assert got == LambdaGraded.from_cyclo(psi.of_residue(ff.scalar(n)))


# ----- Gauss sums --------------------------------------------------------


def test_gauss_sum_twenty_term_oracle():
    # direct 20-term sum for q = 5, n = 3, trivial central data, using the
    # closed trace value Tr(u^-1 a0(1 + c1 u)) = 3 a0 c1 rather than the
    # series engine
    d = _datum(5, 3, zeta_num=0)
    P = build_parameter(d)
    assert P.xi.exp_unit == 0
    ff = d.F.residue
    psi = AdditiveCharPsi(d.F)
    total = CycloNumber.zero()
    for a0 in ff.units():
        for c1 in range(5):
            inv_unit = psi.of_residue(ff.scalar_mul(-3, c1))
            tr = psi.of_residue(ff.scalar_mul(3, ff.mul(a0, c1)))
            total = total + (inv_unit * tr).as_cyclo()
    oracle = P.xi.at_pi * LambdaGraded.from_cyclo(total)
    assert oracle == LambdaGraded.lambda_power(-1, 5)
    assert gauss_sum_bruteforce(P.xi) == oracle


def test_gauss_sum_closed_formula_on_grid():
    # the brute-force sum reproduces xi(pi_E) * q for every datum tried
    cases = [
        (3, 2, 2, 1, 1),
        (5, 2, 1, 3, 2),
        (5, 3, 2, 0, 4),
        (7, 3, 3, 2, 1),
        (9, 2, 7, 4, 3),
        (5, 4, 1, 1, 7),
        (11, 5, 2, 3, 2),
    ]
    for q, n, u0, e_om, znum in cases:
        d = _datum(q, n, znum, e_om, u0)
        P = build_parameter(d)
        assert gauss_sum_bruteforce(P.xi) == P.xi.at_pi * q


def _closed_form_oracle(q, n):
    """Oracle: criterion 1's check at every datum of the (q, n) cell, each
    root zeta included.  Returns the number of data whose brute-force
    Gauss sum is not xi(pi_E) * q."""
    failures = 0
    for u0 in range(1, q):
        for e_om in range(q - 1):
            for znum in range(n * n):
                xi = build_parameter(_datum(q, n, znum, e_om, u0)).xi
                failures += gauss_sum_bruteforce(xi) != xi.at_pi * q
    return failures


def _criterion_1_failures(monkeypatch, cell):
    monkeypatch.setattr(selftest, "gauss_cells", lambda scale: [cell])
    return selftest.criterion_gauss_closed_form("small")["failure_count"]


def test_closed_form_criterion_and_per_datum_oracle_pass(monkeypatch):
    # criterion 1 compares at zeta = 1 only; the oracle keeps every zeta
    for cell in selftest.gauss_cells("full"):
        assert _closed_form_oracle(*cell) == 0, cell
        assert _criterion_1_failures(monkeypatch, cell) == 0, cell


def test_closed_form_oracle_fails_n_squared_times_per_criterion_failure(monkeypatch):
    # the inner sum of the trivial unit exponent read one depth too deep,
    # q times too large: each key the criterion fails is n^2 failing
    # data, whatever zeta
    real = galois._gauss_inner
    monkeypatch.setattr(galois, "_gauss_inner", lambda q, e, m: real(q, e, m + (e == 0)))
    caught = 0
    for q, n in selftest.gauss_cells("small"):
        got = _criterion_1_failures(monkeypatch, (q, n))
        assert _closed_form_oracle(q, n) == n * n * got, (q, n)
        caught += got
    assert caught


def test_gauss_sum_deeper_depth_scales():
    d = _datum(5, 2, zeta_num=1, u0=2)
    P = build_parameter(d)
    assert gauss_sum_bruteforce(P.xi, m=3) == gauss_sum_bruteforce(P.xi) * 5


def test_gauss_sum_below_the_conductor_is_rejected():
    # xi has conductor p_E^2: summed over depth-1 cosets its wild part
    # averages out, leaving q - 1 at one unit exponent and 0 at the others
    for q, n, u0 in [(7, 2, 3), (5, 3, 2), (9, 2, 1)]:
        for znum in (0, 1):
            P = build_parameter(_datum(q, n, zeta_num=znum, u0=u0))
            for lam in (TameChar(P.ssc.F, 0), TameChar(P.ssc.F, 1)):
                with pytest.raises(ValueError, match="depth m >= 2"):
                    gauss_sum_bruteforce(P.xi.twist_by_base(lam), m=1)
                with pytest.raises(ValueError, match="depth m >= 2"):
                    gauss_sum_bruteforce(P.xi.twist_by_base(lam), m=0)
    assert [_gauss_histogram(7, e, 1) for e in range(6)] == [6, 0, 0, 0, 0, 0]


def test_inner_sum_vanishing():
    # for fixed a0 != 1 the a1-sum of psi(-n a1/a0) psi(n a1) cancels
    for q, n in [(3, 2), (5, 3), (9, 2), (7, 5)]:
        ff = LocalField.base_field(q).residue
        psi = AdditiveCharPsi(LocalField.base_field(q))
        for a0 in ff.units():
            if a0 == 1:
                continue
            s = CycloNumber.zero()
            for a1 in range(q):
                c = psi.of_residue(
                    ff.scalar_mul(-n, ff.mul(a1, ff.inv(a0)))
                ) * psi.of_residue(ff.scalar_mul(n, a1))
                s = s + c.as_cyclo()
            assert s.is_zero()


def test_gauss_sum_twist_ratio():
    cases = [
        (5, 2, 1, 1, 2, (1, 1)),
        (7, 3, 2, 0, 3, (2, 5)),
        (5, 4, 3, 2, 2, (1, 3)),
        (9, 2, 5, 3, 4, (3, 2)),
    ]
    for q, n, znum, e_om, u0, (e, av) in cases:
        d = _datum(q, n, znum, e_om, u0)
        P = build_parameter(d)
        lam = TameChar(d.F, e, RootOfUnity(av, q - 1))
        base = gauss_sum_bruteforce(P.xi)
        tw = gauss_sum_bruteforce(P.xi.twist_by_base(lam))
        ff = d.F.residue
        signed_pi = d.F.elem(1, (u0 if (n - 1) % 2 == 0 else ff.neg(u0),))
        assert tw == base * lam(signed_pi)


def _twist_ratio_oracle(q, n):
    """Oracle: criterion 2's check at every datum of the (q, n) cell, each
    root zeta included, against every tame twist.  Returns the number of
    (datum, twist) pairs whose twisted Gauss sum is not the untwisted one
    times the twist at the signed uniformizer (-1)^(n-1) u0 t."""
    F = LocalField.base_field(q)
    ff = F.residue
    lams = [TameChar(F, e, RootOfUnity(b, q - 1)) for e in range(q - 1) for b in range(q - 1)]
    failures = 0
    for u0 in range(1, q):
        signed_pi = F.elem(1, (u0 if (n - 1) % 2 == 0 else ff.neg(u0),))
        for e_om in range(q - 1):
            for znum in range(n * n):
                xi = build_parameter(_datum(q, n, znum, e_om, u0)).xi
                base = gauss_sum_bruteforce(xi)
                for lam in lams:
                    tw = gauss_sum_bruteforce(xi.twist_by_base(lam))
                    failures += tw != base * lam(signed_pi)
    return failures


def _criterion_2_failures(monkeypatch, cell):
    monkeypatch.setattr(selftest, "gauss_cells", lambda scale: [cell])
    return selftest.criterion_gauss_twist("small")["failure_count"]


def test_twist_ratio_criterion_and_per_datum_oracle_pass(monkeypatch):
    # criterion 2 compares at zeta = 1 only; the oracle keeps every zeta
    for cell in selftest.gauss_cells("small"):
        assert _twist_ratio_oracle(*cell) == 0, cell
        assert _criterion_2_failures(monkeypatch, cell) == 0, cell


def test_twist_ratio_oracle_fails_n_squared_times_per_criterion_failure(monkeypatch):
    # a twist reading lam at u0 t in place of the norm (-1)^(n-1) u0 t of u
    # is wrong at even n: each key the criterion fails is n^2 failing data
    monkeypatch.setattr(characters, "norm_of_variable", lambda E: (1, E.pi_unit))
    caught = 0
    for q, n in selftest.gauss_cells("small"):
        got = _criterion_2_failures(monkeypatch, (q, n))
        assert _twist_ratio_oracle(q, n) == n * n * got, (q, n)
        caught += got
    assert caught


def _gauss_inner_term_by_term(q, n, pi_unit, exp_unit, m):
    """Oracle: the inner Gauss sum built one CycloNumber term per coset,
    every term read from the character and psi directly."""
    E = LocalField.base_field(q).extension(n, pi_unit)
    unitchar = LevelOneCharE(E, LambdaGraded.one(), exp_unit)
    psi = AdditiveCharPsi(E.base)
    ff = E.residue
    total = CycloNumber.zero()
    for x in unit_reps(E, m):
        y = shift(x, -1)
        v, a0 = y.leading()
        c1 = ff.mul(y.coeff_at(v + 1), ff.inv(a0))
        term = unitchar.of_unit_part(a0, c1).inverse() * psi(E.trace_to_base(y))
        total = total + term.as_cyclo()
    return total.compact()


def _check_inner_against_oracle(q, n, exp_unit, m, u0s=None):
    # the one value shared by every degree and uniformizer class, against
    # the term-by-term sum at degree n and each u0 in turn
    got = _gauss_histogram(q, exp_unit, m)
    for u0 in range(1, q) if u0s is None else u0s:
        want = _gauss_inner_term_by_term(q, n, u0, exp_unit, m)
        key = (q, n, u0, exp_unit, m)
        assert got.order == want.order, key
        assert got.canonical() == want.canonical(), key
        assert got.terms == want.terms, key
        if m >= 2:
            # at and above the conductor the cached unit is the same value
            assert _gauss_inner(q, exp_unit, m) == LambdaGraded.from_cyclo(want), key


def _degrees(q):
    p = LocalField.base_field(q).residue.p
    return [n for n in range(2, 6) if n % p]


def test_gauss_inner_matches_term_by_term_sum():
    # every cell of the selftest grid, every uniformizer unit and unit
    # exponent: depths 1 to 3 at q <= 9 and n <= 5, depth 2 on the rest
    for q, n in selftest.gauss_cells("full"):
        for k in range(q - 1):
            for m in (1, 2, 3) if q <= 9 and n <= 5 else (2,):
                _check_inner_against_oracle(q, n, k, m)


def test_gauss_inner_matches_term_by_term_sum_q25():
    # at q = 25 the oracle's full grid is 27M terms at depth 3, so depth 1
    # is covered completely and the deeper depths on a seeded sample that
    # still reaches every uniformizer unit and every unit exponent
    q = 25
    rng = random.Random(25)
    for n in _degrees(q):
        for k in range(q - 1):
            _check_inner_against_oracle(q, n, k, 1)
        for k in rng.sample(range(q - 1), 2):
            _check_inner_against_oracle(q, n, k, 2)
        u0 = rng.randrange(1, q)
        for k in range(q - 1):
            _check_inner_against_oracle(q, n, k, 2, [u0])
        _check_inner_against_oracle(q, n, rng.randrange(q - 1), 3, [rng.randrange(1, q)])


def test_gauss_rows_build_no_series(monkeypatch):
    # the rows come from residue integers alone, with no series element and
    # no coset enumeration; they count every coset once, and the sum they
    # give is the term-by-term sum at a degree and uniformizer unit
    q, m = 13, 3
    _gauss_rows.cache_clear()

    def banned(*args, **kwargs):
        raise AssertionError("the Gauss rows must not build series")

    monkeypatch.setattr(LaurentElem, "__init__", banned)
    rows = _gauss_rows(q, m)
    monkeypatch.undo()
    assert sum(rows) == (q - 1) * q ** (m - 1)
    for k in (0, 5):
        _check_inner_against_oracle(q, 4, k, m, [3])


# ----- epsilon and determinant -------------------------------------------


def test_epsilon_galois_untwisted():
    for q, n, znum, u0 in [(5, 2, 1, 1), (7, 3, 5, 2), (3, 4, 7, 2)]:
        d = _datum(q, n, znum, omega_exp=1, u0=u0)
        P = build_parameter(d)
        got = epsilon_galois(P, TameChar(d.F, 0))
        assert got == EpsMonomial(q, LambdaGraded.from_cyclo(d.zeta), Fraction(1, 2), -1)
        assert got.unit.grade == 0


def test_epsilon_galois_matches_closed_form():
    cases = [
        (5, 2, 1, 1, 2, (1, 1)),
        (7, 3, 2, 4, 3, (2, 5)),
        (5, 4, 3, 0, 2, (3, 1)),
        (9, 2, 5, 6, 7, (5, 3)),
        (11, 5, 7, 2, 2, (1, 4)),
    ]
    for q, n, znum, e_om, u0, (e, av) in cases:
        d = _datum(q, n, znum, e_om, u0)
        P = build_parameter(d)
        lam = TameChar(d.F, e, RootOfUnity(av, q - 1))
        got = epsilon_galois(P, lam)
        assert got == closed_form_epsilon(d, lam)
        assert got.unit.grade == 0


def test_det_parameter_reduced_is_central_character():
    for q, n, znum, e_om, u0 in [(5, 2, 1, 2, 2), (7, 3, 4, 3, 1), (3, 4, 5, 1, 2)]:
        d = _datum(q, n, znum, e_om, u0)
        det = det_parameter(build_parameter(d))
        assert det.exp_unit == d.omega_exp % (q - 1)
        assert det.at_pi == LambdaGraded.from_cyclo(d.omega(d.pi_elem()))


def test_twisted_det_parameter_is_central_character_times_twist_power():
    # det(Ind(xi * lam o N)) = omega * lam^n: in its unit exponent and its
    # value at pi, for every twist (e, b); the trivial twist is det
    for q, n, znum, e_om, u0 in [(5, 2, 1, 2, 2), (7, 3, 4, 3, 1), (3, 4, 5, 1, 2)]:
        d = _datum(q, n, znum, e_om, u0)
        P = build_parameter(d)
        untwisted = det_parameter(P)
        trivial = det_parameter(P, TameChar(d.F, 0))
        assert (trivial.exp_unit, trivial.at_pi) == (untwisted.exp_unit, untwisted.at_pi)
        for e in range(q - 1):
            for b in range(q - 1):
                want = d.omega * TameChar(d.F, e, RootOfUnity(b, q - 1)) ** n
                det = det_parameter(P, TameChar(d.F, e, RootOfUnity(b, q - 1)))
                assert det.exp_unit == want.exp_unit
                assert det.at_pi == LambdaGraded.from_cyclo(want(d.pi_elem()))
