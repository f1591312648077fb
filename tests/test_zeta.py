"""Integral factors: principal and dual integrals, gamma, closed form."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from llclab import selftest, zeta
from llclab.bruhat import MonomialClass, SolvedInvariant, WhittakerInvariant, decompose
from llclab.characters import TameChar
from llclab.cyclotomic import CycloNumber, RootOfUnity
from llclab.errors import LLCError, PrecisionNotStabilized
from llclab.laurent import LocalField
from llclab.monomials import EpsMonomial, LambdaGraded
from llclab.selftest import ZETA_TWISTS, gauss_cells
from llclab.zeta import (
    cached_dual_table,
    closed_form_epsilon,
    dual_matrix,
    gamma_automorphic,
    zeta_psi,
    zeta_psi_tilde,
)

from test_bruhat import _count_eliminations, diagonal
from test_laurent import integer_reps, unit_reps
from test_monomials import EpsPolynomial
from test_matrices import coeff_at, entries, shift, sub
from test_supercuspidal import _datum


def _const_poly(q, value_exp):
    out = EpsPolynomial(q)
    out.add_term(0, 1, Fraction(value_exp))
    return out


def _dual_expected(d, lam):
    # zeta * lam(pi) * q^(-1/2) * q^(-s)
    out = EpsPolynomial(d.q)
    out.add_term(1, d.zeta * lam(d.pi_elem()), Fraction(-1, 2))
    return out


def _assert_collapses_to(got, oracle):
    # an integral is one monomial: the oracle's sum must collapse to it,
    # equal in value and in printed form; NotMonomial if it is spread out
    want = oracle.collapse_to_monomial()
    assert got == want and repr(got) == repr(want)


def _sum_rows(d, lam, rows):
    """An integral at one depth as the sum over its solved rows."""
    out = EpsPolynomial(d.q)
    for row, count in rows.items():
        lam_arg = lam.of_leading(row.arg_val, row.arg_lead).inverse()
        root = d.invariant_root(row.invariant) * lam_arg
        out.add_term(row.x_power, CycloNumber(root.order, {root.num: count}), row.q_exp)
    return out


def _rows_oracle(d, lam, rows, rows_next):
    """An integral summed over its rows for this datum and twist, at
    depth m and again at m + 1, which must agree on every call."""
    out = _sum_rows(d, lam, rows)
    assert out == _sum_rows(d, lam, rows_next)
    return out


# ----- principal integral ------------------------------------------------


def test_principal_integral_trivial_twist():
    for q, n in [(5, 2), (3, 4), (7, 3)]:
        d = _datum(q, n, zeta_num=1)
        lam = TameChar(d.F, 0)
        _assert_collapses_to(zeta_psi(d, lam), _const_poly(q, -1))


def test_principal_integral_tame_twist():
    # the twisted unit sums still telescope to the one-unit volume
    d = _datum(5, 3, zeta_num=2, omega_exp=1, u0=2)
    lam = TameChar(d.F, 1, RootOfUnity(1, 4))
    _assert_collapses_to(zeta_psi(d, lam), _const_poly(5, -1))


def test_principal_integral_ignores_zeta():
    lam = None
    vals = []
    for zeta_num in (0, 1, 3):
        d = _datum(5, 2, zeta_num=zeta_num)
        lam = TameChar(d.F, 2, RootOfUnity(3, 4))
        vals.append(zeta_psi(d, lam))
    assert vals[0] == vals[1] == vals[2]


def test_depth_and_mode_guards():
    d = _datum(3, 2, zeta_num=1)
    lam = TameChar(d.F, 0)
    with pytest.raises(ValueError):
        zeta_psi(d, lam, m=1)


def test_depth_bound_is_checked_before_any_row_is_built(monkeypatch):
    # depth 100,000 once ran without end; every integral entry point now
    # refuses a depth outside 2..MAX_DEPTH with no row builder called
    def build(*args, **kwargs):
        raise AssertionError("a row was built for a rejected depth")

    for name in ("_psi_points", "_psi_rows", "_dual_points", "_chain_classes", "_table_rows",
                 "_principal_row", "_dual_row", "_gamma_row", "_stable_row", "_solve_rows"):
        monkeypatch.setattr(zeta, name, build)
    d = _datum(5, 3, zeta_num=1)
    lam = TameChar(d.F, 1)
    calls = (
        lambda m: zeta_psi(d, lam, m),
        lambda m: zeta_psi_tilde(d, lam, m),
        lambda m: gamma_automorphic(d, lam, m),
        lambda m: zeta.cached_dual_table(5, 3, 1, m),
    )
    for call in calls:
        for m in (1, zeta.MAX_DEPTH + 1, 100_000):
            with pytest.raises(ValueError, match="depth"):
                call(m)
    # the bound admits every depth the library and its tests use
    zeta._check_depth(zeta.MAX_DEPTH)
    assert zeta.MAX_DEPTH >= 3


@lru_cache(maxsize=None)
def _principal_points(q, n, m, B=2):
    """The principal integral's points (v, h, invariant), each decomposed
    here, independently of the library's cached rows."""
    F = LocalField.base_field(q)
    one = F.one()
    out = []
    for v in range(-B, B + 1):
        for w in unit_reps(F, m):
            h = shift(w, v)
            out.append((v, h, WhittakerInvariant.of(*decompose(diagonal(F, [h] + [one] * (n - 1))))))
    return tuple(out)


def _psi_per_point(d, lam, m, points):
    """The principal integral at one depth, point by point: solve every
    invariant for the datum's uniformizer and twist by lam(h)."""
    n = d.n
    out = EpsPolynomial(d.q)
    for v, h, inv in points:
        wv = d.invariant_root(inv.solve(d.pi_unit))
        if wv is None:
            continue
        out.add_term(v, wv * lam(h), Fraction(v * (n - 1), 2) - m)
    return out


def _oracle_twists(F, q):
    # the selftest twists, plus one with a value at t of order q - 1
    out = [TameChar(F, e, RootOfUnity(b, q - 1)) for e, b in ZETA_TWISTS]
    return out + [TameChar(F, 1, RootOfUnity(1, q - 1))]


def _assert_matches_oracle(d, lam, m):
    want = _psi_per_point(d, lam, m, _principal_points(d.q, d.n, m))
    _assert_collapses_to(zeta_psi(d, lam, m=m), want)


@pytest.mark.parametrize("q,n", [(3, 2), (3, 4), (5, 2), (5, 3), (5, 4)])
def test_principal_rows_match_per_point_oracle(q, n):
    for u0 in range(1, q):
        for zeta_num, e_om in [(0, 0), (1, 1), (n + 1, 0)]:
            d = _datum(q, n, zeta_num=zeta_num, omega_exp=e_om, u0=u0)
            for lam in _oracle_twists(d.F, q):
                for m in (2, 3):
                    _assert_matches_oracle(d, lam, m)


@pytest.mark.parametrize("q,n", [(5, 3), (7, 2)])
def test_principal_rows_carry_the_inverse_of_h(q, n):
    # a principal row stores arg = 1/h: rebuilding h from it must give
    # back the lead matrix whose invariant the row names.  Storing the
    # leading digit of h itself swaps a0 and 1/a0, which these residue
    # fields tell apart, and every shell is covered, not just a0 = 1
    F = LocalField.base_field(q)
    for m in (2, 3):
        rows = zeta._psi_points(q, n, m)
        assert {row.arg_lead for row in rows} == set(F.residue.units())
        for row in rows:
            h = F.elem(row.arg_val, (row.arg_lead,)).inverse()
            lead = diagonal(F, [h] + [F.one()] * (n - 1))
            assert WhittakerInvariant.of(*decompose(lead)) == row.invariant


def _fresh_stable_rows(monkeypatch):
    # the integrals' stable rows and gamma's ratio rows are cached per
    # uniformizer: rebuild them from whatever rows the test planted
    for name in ("_principal_row", "_dual_row", "_gamma_row"):
        fresh = lru_cache(maxsize=None)(getattr(zeta, name).__wrapped__)
        monkeypatch.setattr(zeta, name, fresh)


def test_principal_two_depth_check_fires(monkeypatch):
    real = zeta._psi_rows

    def drop_one_row_above(q, n, pi_unit, m):
        rows = real(q, n, pi_unit, m)
        if m == 2:
            return rows
        thinner = Counter(rows)
        thinner[next(iter(rows))] -= 1
        return +thinner

    monkeypatch.setattr(zeta, "_psi_rows", drop_one_row_above)
    _fresh_stable_rows(monkeypatch)
    d = _datum(5, 3, zeta_num=2, omega_exp=1, u0=2)
    lam = TameChar(d.F, 1, RootOfUnity(1, 4))
    with pytest.raises(PrecisionNotStabilized):
        zeta_psi(d, lam)
    with pytest.raises(PrecisionNotStabilized):
        gamma_automorphic(d, lam)


# ----- dual integral -----------------------------------------------------


def test_dual_matrix_layout():
    d = _datum(5, 4)
    F = d.F
    x1, x2 = F.scalar(2), F.scalar(3)
    h = F.scalar(2)
    Y = entries(dual_matrix(F, [x1, x2], h))
    assert Y[0][1] == F.one() and Y[1][2] == F.one() and Y[2][3] == F.one()
    hinv = F.scalar(3)  # 2 * 3 = 6 = 1 in F_5
    assert Y[3][0] == hinv
    assert Y[3][1].is_exact_zero()
    assert Y[3][2] == sub(F.zero(), x2 * hinv)
    assert Y[3][3] == sub(F.zero(), x1 * hinv)


def _rank2_shell_oracle(d, lam, m, B):
    """Independent evaluation of the rank-2 dual integral.

    For n = 2 the integration matrix is ((0,1),(1/h,0)).  With h in
    pi^(-1)(1+p), writing h = a/pi with a a one-unit, the matrix factors
    as (rotation) * diag(1/a, 1), a one-unit diagonal on which the
    affine generic character is 1; the integrand is then exactly zeta.
    For every other h the matrix sits outside the supporting double
    coset.  Membership only constrains the residue digit of h, so the
    shell sum reduces to counting cosets.
    """
    F, ff = d.F, d.F.residue
    want_res = ff.inv(d.pi_unit)
    out = EpsPolynomial(d.q)
    for v in range(-B, B + 1):
        if v != -1:
            continue
        for w in unit_reps(F, m):
            if coeff_at(w, 0) != want_res:
                continue
            h = shift(w, -1)
            out.add_term(1, d.zeta * lam(h).inverse(), Fraction(1, 2) - m)
    return out


def test_dual_integral_rank_two_against_shell_oracle():
    for q, zeta_num, u0, (e, av) in [
        (5, 1, 1, (0, 0)),
        (5, 3, 2, (1, 1)),
        (7, 2, 3, (4, 5)),
    ]:
        d = _datum(q, 2, zeta_num=zeta_num, omega_exp=e % 2, u0=u0)
        lam = TameChar(d.F, e, RootOfUnity(av, q - 1))
        got = zeta_psi_tilde(d, lam)
        _assert_collapses_to(got, _rank2_shell_oracle(d, lam, 2, 2))
        _assert_collapses_to(got, _rank2_shell_oracle(d, lam, 3, 2))


def test_dual_integral_trivial_twist():
    d = _datum(5, 2, zeta_num=1)
    lam = TameChar(d.F, 0)
    _assert_collapses_to(zeta_psi_tilde(d, lam), _dual_expected(d, lam))


def test_dual_integral_tame_twist():
    d = _datum(7, 2, zeta_num=3, omega_exp=2, u0=3)
    lam = TameChar(d.F, 2, RootOfUnity(1, 6))
    _assert_collapses_to(zeta_psi_tilde(d, lam), _dual_expected(d, lam))


def _zeta_collapse_oracle(q, n):
    """Oracle: criterion 3's checks at every datum of the (q, n) cell, each
    root zeta included, against its three twists.  Returns the number of
    (datum, twist) pairs whose principal integral at depth 2 or 3, or
    whose dual integral, misses its value."""
    F = LocalField.base_field(q)
    principal = EpsMonomial(q, LambdaGraded.one(), Fraction(-1), 0)
    failures = 0
    for u0 in range(1, q):
        for znum in range(n * n):
            for e_om in (0, 1):
                d = _datum(q, n, znum, e_om, u0)
                for e, b in ZETA_TWISTS:
                    lam = TameChar(F, e, RootOfUnity(b, q - 1))
                    dual = _dual_expected(d, lam).collapse_to_monomial()
                    failures += (zeta_psi(d, lam) != principal or zeta_psi(d, lam, m=3) != principal
                                 or zeta_psi_tilde(d, lam) != dual)
    return failures


def _criterion_3(monkeypatch, cell):
    monkeypatch.setattr(selftest, "gauss_cells", lambda scale: [cell])
    return selftest.criterion_zeta_collapse("small")


@pytest.mark.parametrize("q,n", [*gauss_cells("small"), (7, 3), (5, 4)])
def test_zeta_enters_the_integrals_only_as_a_factor(q, n):
    # criterion 3 compares at zeta = 1 only: at every datum and twist the
    # principal integral is the one at zeta = 1, and the dual integral is
    # the one at zeta = 1 times zeta
    F = LocalField.base_field(q)
    for u0 in range(1, q):
        for e_om in (0, 1):
            one = _datum(q, n, 0, e_om, u0)
            for e, b in ZETA_TWISTS:
                lam = TameChar(F, e, RootOfUnity(b, q - 1))
                principal, dual = zeta_psi(one, lam), zeta_psi_tilde(one, lam)
                for znum in range(1, n * n):
                    d = _datum(q, n, znum, e_om, u0)
                    assert zeta_psi(d, lam) == principal
                    assert zeta_psi_tilde(d, lam) == dual.scale(d.zeta)


def test_zeta_collapse_criterion_and_per_datum_oracle_pass(monkeypatch):
    checked = stands_for = 0
    for cell in gauss_cells("small"):
        assert _zeta_collapse_oracle(*cell) == 0, cell
        rep = _criterion_3(monkeypatch, cell)
        assert rep["failure_count"] == 0, cell
        checked += rep["checked"]
        stands_for += rep["stands_for"]
    assert (checked, stands_for) == (60, 360)


def test_zeta_collapse_oracle_fails_n_squared_times_per_criterion_failure(monkeypatch):
    # integrals reading lam(h) in place of lam(h)^-1 at their argument are
    # wrong at some twists whatever zeta is: each key the criterion fails
    # is n^2 failing data
    value = zeta._value
    monkeypatch.setattr(zeta, "_value", lambda d, lam, row: value(d, lam**-1, row))
    caught = 0
    for q, n in gauss_cells("small"):
        got = _criterion_3(monkeypatch, (q, n))["failure_count"]
        assert _zeta_collapse_oracle(q, n) == n * n * got, (q, n)
        caught += got
    assert caught


def _point_weight(n, m, v):
    # q-exponent of |h|^(1-s-(n-1)/2) at val(h)=v, times both coset volumes
    return Fraction(-v) + Fraction(v * (n - 1), 2) - m + (n - 2) * (Fraction(1, 2) - m)


@lru_cache(maxsize=None)
def _dual_grid_points(q, n, m, B):
    """Every point (v, h, invariant) of the dual integral at depth m:
    shells -B..B, unit cosets, and x-tuples with digits from -B up,
    non-integral x included, each decomposed here."""
    F = LocalField.base_field(q)
    x_reps = integer_reps(F, -B, m)
    out = []
    for v in range(-B, B + 1):
        for w in unit_reps(F, m):
            h = shift(w, v)
            for xs in itertools.product(x_reps, repeat=n - 2):
                out.append((v, h, WhittakerInvariant.of(*decompose(dual_matrix(F, xs, h)))))
    return tuple(out)


@lru_cache(maxsize=None)
def _dual_grid_support(q, n, m, B, pi_unit):
    # the grid points where the Whittaker function of pi_unit is nonzero
    solved = ((v, h, inv.solve(pi_unit)) for v, h, inv in _dual_grid_points(q, n, m, B))
    return tuple(p for p in solved if p[2] is not None)


def _tilde_per_point(d, lam, m, B):
    """The independent oracle: the dual integral summed point by point,
    the Whittaker function (the datum's root at the solved invariant) at
    every point of the grid."""
    out = EpsPolynomial(d.q)
    for v, h, solved in _dual_grid_support(d.q, d.n, m, B, d.pi_unit):
        out.add_term(-v, d.invariant_root(solved) * lam(h).inverse(), _point_weight(d.n, m, v))
    return out


def test_dual_full_and_pruned_agree():
    # at shell bound 1 and depth 2 the oracle enumerates every point;
    # the rows, over shells -2..2, must reproduce it
    d = _datum(5, 3, zeta_num=2, omega_exp=1, u0=2)
    lam = TameChar(d.F, 1, RootOfUnity(1, 4))
    full = _tilde_per_point(d, lam, 2, 1)
    assert full == _dual_expected(d, lam)
    _assert_collapses_to(zeta_psi_tilde(d, lam), full)


@pytest.mark.parametrize("q", [q for q, n in gauss_cells("full") if n == 2])
def test_dual_integral_matches_per_point_oracle(q):
    # rank 2 has no x: every shell and unit coset at depths 2 and 3
    for u0 in range(1, q):
        d = _datum(q, 2, zeta_num=1 + u0 % 3, omega_exp=u0 % 2, u0=u0)
        for lam in _oracle_twists(d.F, q):
            for m in (2, 3):
                _assert_collapses_to(zeta_psi_tilde(d, lam, m=m), _tilde_per_point(d, lam, m, 2))


def test_dual_integral_rank_four_pruned():
    d = _datum(3, 4, zeta_num=5, omega_exp=1, u0=2)
    lam = TameChar(d.F, 1, RootOfUnity(1, 2))
    _assert_collapses_to(zeta_psi_tilde(d, lam), _dual_expected(d, lam))


def test_dual_support_census():
    # exhaustive at depth 2: the integrand survives exactly when the x
    # coordinate is integral and 1/h lies in pi(1+p)
    d = _datum(5, 3, zeta_num=1, u0=2)
    F, ff = d.F, d.F.residue
    want_res = ff.inv(d.pi_unit)
    hits = 0
    for v in range(-2, 2):
        for w in unit_reps(F, 2):
            h = shift(w, v)
            on_h = v == -1 and coeff_at(w, 0) == want_res
            for x in integer_reps(F, -1, 2):
                on_x = x.is_exact_zero() or x.valuation() >= 0
                got = d.whittaker_root(dual_matrix(F, [x], h))
                assert (got is not None) == (on_h and on_x)
                hits += got is not None
    assert hits == 5 * 25  # one-unit cosets times integral x residues


# ----- shared-decomposition tables ---------------------------------------


def test_table_matches_direct_integrator():
    # one decomposition pass, summed over its rows for several data and
    # twists, must collapse to the integral's one stable row
    for q, n, u0 in [(5, 2, 2), (5, 3, 2), (3, 4, 2)]:
        T = cached_dual_table(q, n, u0)
        for zeta_num, e_om, (e, av) in [(0, 0, (0, 0)), (1, 0, (1, 1)), (3, 1, (2, 1))]:
            d = _datum(q, n, zeta_num=zeta_num, omega_exp=e_om, u0=u0)
            lam = TameChar(d.F, e, RootOfUnity(av, q - 1))
            _assert_collapses_to(zeta_psi_tilde(d, lam), _rows_oracle(d, lam, T.agg, T.agg_next))


def test_table_row_budget_matches_support():
    # pruned depth-2 support: the one-unit cosets of shell -1; the
    # integral x ride in the q-exponent
    T = cached_dual_table(5, 3, 2)
    assert T.row_count == 5
    assert sum(T.agg.values()) == T.row_count


def test_table_cache_is_shared():
    a = cached_dual_table(5, 2, 1)
    b = cached_dual_table(5, 2, 1)
    assert a is b


def test_dual_integral_reads_the_cached_table(monkeypatch):
    # every dual integral, at n = 2 as at n = 4, reads the cached table:
    # once it is built, no call eliminates a point again, in zeta or
    # through a Whittaker value
    cells = [(3, 4, 5, 2), (5, 2, 1, 2)]
    tables = [cached_dual_table(q, n, u0) for q, n, _, u0 in cells]
    calls = _count_eliminations(monkeypatch)
    for (q, n, zeta_num, u0), T in zip(cells, tables):
        d = _datum(q, n, zeta_num=zeta_num, omega_exp=1, u0=u0)
        for lam in (TameChar(d.F, 0), TameChar(d.F, 1, RootOfUnity(1, q - 1))):
            got = zeta_psi_tilde(d, lam)
            _assert_collapses_to(got, _rows_oracle(d, lam, T.agg, T.agg_next))
            _assert_collapses_to(got, _dual_expected(d, lam))
    assert calls == []


@lru_cache(maxsize=None)
def _dual_class_points(q, n, m, B):
    """(v, h, invariants) for every shell and unit coset at depth m: the
    invariants of every integral x class mod p at depth 2, and of x = 0
    deeper, each decomposed here."""
    F = LocalField.base_field(q)
    x_reps = integer_reps(F, 0, 1 if m == 2 else 0)
    out = []
    for v in range(-B, B + 1):
        for w in unit_reps(F, m):
            h = shift(w, v)
            invs = [WhittakerInvariant.of(*decompose(dual_matrix(F, xs, h)))
                    for xs in itertools.product(x_reps, repeat=n - 2)]
            out.append((v, h, invs))
    return tuple(out)


def _per_unit_dual_rows(q, n, pi_unit, m, B):
    """The dual table's rows built point by point for one uniformizer:
    every unit coset counted once, its x classes required to solve
    alike, and the whole integral-x volume in the q-exponent."""
    rows = Counter()
    for v, h, invs in _dual_class_points(q, n, m, B):
        (s,) = {inv.solve(pi_unit) for inv in invs}
        if s is not None:
            q_exp = _point_weight(n, m, v) + m * (n - 2)
            rows[zeta.ZetaRow(-v, q_exp, v, coeff_at(h, v), s)] += 1
    return rows


def _per_unit_psi_rows(q, n, pi_unit, m, B=2):
    """The principal rows built point by point for one uniformizer."""
    ff = LocalField.base_field(q).residue
    rows = Counter()
    for v, h, inv in _principal_points(q, n, m, B):
        s = inv.solve(pi_unit)
        if s is not None:
            rows[zeta.ZetaRow(v, Fraction(v * (n - 1), 2) - m, -v, ff.inv(coeff_at(h, v)), s)] += 1
    return rows


@pytest.mark.parametrize("q,n", [(3, 2), (3, 4), (5, 2), (5, 3), (7, 3), (3, 5)])
def test_rows_match_per_uniformizer_oracle(q, n):
    for u in range(1, q):
        T = cached_dual_table(q, n, u)
        want = _per_unit_dual_rows(q, n, u, 2, 2)
        assert T.agg == want and T.row_count == sum(want.values())
        assert T.agg_next == _per_unit_dual_rows(q, n, u, 3, 2)
        for m in (2, 3):
            assert zeta._psi_rows(q, n, u, m) == _per_unit_psi_rows(q, n, u, m)


def _count_decompositions(monkeypatch):
    """Fresh caches for every cached function of zeta, so no earlier call
    hides work, and the list of the reader's eliminations."""
    for name, fn in vars(zeta).items():
        if hasattr(fn, "cache_clear"):
            monkeypatch.setattr(zeta, name, lru_cache(maxsize=None)(fn.__wrapped__))
    return _count_eliminations(monkeypatch)


def test_each_dual_point_decomposes_once(monkeypatch):
    # fresh caches: the first uniformizer eliminates only the 10
    # non-integral chain representatives, once for both depths, since
    # each lead matrix A(a0 t^v) is monomial and its invariant is named;
    # the other three only solve the rows and audit the same classes
    calls = _count_decompositions(monkeypatch)
    per_unit = []
    for u in range(1, 5):
        before = len(calls)
        zeta.cached_dual_table(5, 3, u)
        per_unit.append(len(calls) - before)
    assert per_unit == [10, 0, 0, 0]


def test_each_principal_lead_decomposes_once(monkeypatch):
    # diag(a0 t^v, 1, 1) is monomial: its invariant is named, not read,
    # at both depths and for every uniformizer
    calls = _count_decompositions(monkeypatch)
    per_unit = []
    for u in range(1, 5):
        before = len(calls)
        for m in (2, 3):
            assert zeta._psi_rows(5, 3, u, m)
        per_unit.append(len(calls) - before)
    assert per_unit == [0, 0, 0, 0]


@pytest.mark.parametrize("q,n,depths", [(3, 2, (2, 3)), (5, 2, (2, 3)), (3, 4, (2,)), (5, 3, (2,))])
def test_every_integral_point_has_its_lead_invariant(q, n, depths):
    # right translation by I+: every point with integral x, at every
    # shell and unit coset, solves like the invariant the library names
    # for A(a0 t^v) for every uniformizer, so x-class constancy and the
    # vanishing off shell -1 need no audit
    F = LocalField.base_field(q)
    for m in depths:
        rows = zeta._dual_points(q, n, m)
        lead = {(row.arg_val, row.arg_lead): row.invariant for row in rows}
        assert len(lead) == len(rows) == 5 * (q - 1)
        x_reps = integer_reps(F, 0, m)
        for v in range(-2, 3):
            for w in unit_reps(F, m):
                h = shift(w, v)
                want = [lead[v, coeff_at(w, 0)].solve(u) for u in range(1, q)]
                for xs in itertools.product(x_reps, repeat=n - 2):
                    inv = WhittakerInvariant.of(*decompose(dual_matrix(F, xs, h)))
                    assert [inv.solve(u) for u in range(1, q)] == want


def test_every_principal_point_has_its_lead_invariant():
    # the row of (v, a0) carries 1/h, so its argument is (-v, 1/a0)
    ff = LocalField.base_field(5).residue
    rows = zeta._psi_points(5, 3, 3)
    lead = {(-row.arg_val, ff.inv(row.arg_lead)): row.invariant for row in rows}
    assert len(lead) == len(rows) == 5 * 4
    for v, h, inv in _principal_points(5, 3, 3):
        want = lead[v, coeff_at(h, v)]
        assert [inv.solve(u) for u in range(1, 5)] == [want.solve(u) for u in range(1, 5)]


# cosets the seeded oracle draws per depth
AUDIT_DRAWS = 40


def _materialising_audit(q, n, m, seed):
    """The non-integral cosets the dual table's audit once drew, by
    random.choice over the whole list of unit cosets: (h, xs, invariant),
    one x of valuation -2 or -1 and the others integral."""
    F = LocalField.base_field(q)
    rng = random.Random(seed)
    unit_rs = unit_reps(F, m)
    out = []
    for _ in range(AUDIT_DRAWS):
        h = shift(rng.choice(unit_rs), rng.randrange(-zeta.SHELL_BOUND, zeta.SHELL_BOUND + 1))
        xs = [F.elem(0, [rng.randrange(q) for _ in range(m)]) for _ in range(n - 2)]
        j = rng.randrange(n - 2)
        bad_val = rng.randrange(-zeta.SHELL_BOUND, 0)
        xs[j] = F.elem(
            bad_val, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(m - bad_val - 1)]
        )
        out.append((h, xs, WhittakerInvariant.read(dual_matrix(F, xs, h))))
    return tuple(out)


def _chain_of(n, h, xs):
    """The valuation chain of the dual matrix's bottom row at h and xs,
    worked out here from the weights n v(b_s) + s of its non-integral
    columns s, b_s = -x/h: the least-weight column, then the
    least-weight one left of the last link, while there is one."""
    weights = {}
    for i, x in enumerate(xs):
        if not x.is_exact_zero() and x.valuation() < 0:
            col = n - 1 - i
            weights[col] = (n * (x.valuation() - h.valuation()) + col, x.valuation())
    chain = []
    while weights:
        col = min(weights, key=weights.get)
        chain.append((col, weights[col][1]))
        weights = {c: w for c, w in weights.items() if c < col}
    return tuple(chain)


@pytest.mark.parametrize("q,n", [(5, 3), (3, 4), (5, 4), (7, 5), (5, 6)])
def test_every_valuation_pattern_has_its_chain_class(q, n):
    # every shell and every valuation pattern of x, -2, -1 or integral,
    # with at least one x non-integral: the class of a coset with random
    # digits has the cols and exps the library read off its chain's
    # representative, and that chain is one the library enumerates
    F = LocalField.base_field(q)
    rng = random.Random(q * 100 + n)
    classes = zeta._chain_classes(q, n)
    assert len(classes) == 5 * (2 * (n - 2) + (n - 2) * (n - 3) // 2)

    def digits(val, lead):
        return F.elem(val, [lead] + [rng.randrange(q) for _ in range(3)])

    seen = 0
    for v in range(-2, 3):
        for pattern in itertools.product((-2, -1, None), repeat=n - 2):
            if pattern.count(None) == n - 2:
                continue
            xs = [digits(0, rng.randrange(q)) if val is None else digits(val, rng.randrange(1, q))
                  for val in pattern]
            h = digits(v, rng.randrange(1, q))
            mono = decompose(dual_matrix(F, xs, h))[1]
            assert (mono.cols, mono.exps) == classes[v, _chain_of(n, h, xs)], (v, pattern)
            seen += 1
    assert seen == 5 * (3 ** (n - 2) - 1)


def test_drawn_non_integral_cosets_are_off_the_support_and_match_their_chain():
    # the seeded audit's cosets, at criterion 3's cells and depths: each
    # solves to None for every uniformizer, and its class has the cols and
    # exps of its chain's representative
    seen = 0
    for q, n in gauss_cells("full"):
        if n == 2:
            continue
        classes = zeta._chain_classes(q, n)
        for m, seed in ((2, 71), (3, 72)):
            for h, xs, inv in _materialising_audit(q, n, m, seed):
                assert [inv.solve(u) for u in range(1, q)] == [None] * (q - 1)
                assert (inv.mono.cols, inv.mono.exps) == classes[h.valuation(), _chain_of(n, h, xs)]
                seen += 1
    assert seen == 2 * 19 * AUDIT_DRAWS


def test_planted_rotation_shaped_class_fails_every_uniformizer(monkeypatch):
    # one chain class given the cols of rotation^2 and its exps shifted by
    # -1: it fits rotation^2 central(s, -1) for some s, so every
    # uniformizer's table must refuse, naming the chain
    rot2 = MonomialClass.rotation(LocalField.base_field(5), 3, 1) ** 2
    cols, exps = rot2.cols, rot2.exps
    classes = dict(zeta._chain_classes(5, 3))
    key = (1, ((2, -1),))
    classes[key] = (cols, tuple(e - 1 for e in exps))
    monkeypatch.setattr(zeta, "_chain_classes", lambda q, n: classes)
    named = r"non-integral x contributed at .* = \(5, 3, 1, \(\(2, -1\),\)\)"
    for u in range(1, 5):
        with pytest.raises(LLCError, match=named):
            cached_dual_table.__wrapped__(5, 3, u)
    # the shape test reads the exps only up to a common shift
    classes[key] = (cols, (exps[0] - 1, exps[1], exps[2]))
    assert cached_dual_table.__wrapped__(5, 3, 1).row_count == 5


def test_chain_audit_grows_polynomially(monkeypatch):
    # 5 (2(n-2) + C(n-2, 2)) representatives, one elimination each: 945 at
    # n = 20, where a representative per valuation pattern would be
    # 5 (3^18 - 1)
    calls = _count_decompositions(monkeypatch)
    T = zeta.cached_dual_table(3, 20, 1)
    assert T.row_count == 3
    assert len(zeta._chain_classes(3, 20)) == len(calls) == 945


# ----- gamma and the closed form ----------------------------------------


def test_closed_form_values():
    d = _datum(5, 2, zeta_num=0)
    lam = TameChar(d.F, 0)
    assert closed_form_epsilon(d, lam) == EpsMonomial(
        5, LambdaGraded.one(), Fraction(1, 2), -1
    )
    d = _datum(5, 2, zeta_num=1)
    assert closed_form_epsilon(d, TameChar(d.F, 0)) == EpsMonomial(
        5, LambdaGraded.from_cyclo(RootOfUnity(1, 4)), Fraction(1, 2), -1
    )
    d = _datum(5, 3, zeta_num=2, omega_exp=0, u0=2)
    lam = TameChar(d.F, 1, RootOfUnity(1, 4))
    expect = lam.at_minus_one() ** 2 * lam(d.pi_elem()) * d.zeta
    assert closed_form_epsilon(d, lam) == EpsMonomial(
        5, LambdaGraded.from_cyclo(expect), Fraction(1, 2), -1
    )


def _four_factor_closed_form(d, lam):
    """The closed form as the product of its four roots lam(-1)^(n-1),
    lam(t), lam(pi_unit) and zeta."""
    unit = lam.at_minus_one() ** (d.n - 1) * lam.at_var * lam.of_unit(d.pi_unit) * d.zeta
    return EpsMonomial(d.q, LambdaGraded.from_cyclo(unit), Fraction(1, 2), -1)


@pytest.mark.parametrize("q,n", gauss_cells("full"))
def test_closed_form_matches_four_factor_oracle(q, n):
    for u0 in range(1, q):
        for zeta_num, e_om in [(0, 0), (1, 1), (n + 1, q - 2)]:
            d = _datum(q, n, zeta_num=zeta_num, omega_exp=e_om, u0=u0)
            for e in range(q - 1):
                for b in range(q - 1):
                    lam = TameChar(d.F, e, RootOfUnity(b, q - 1))
                    got, want = closed_form_epsilon(d, lam), _four_factor_closed_form(d, lam)
                    assert got == want and repr(got) == repr(want)


def _gamma_oracle(d, lam, m=2):
    """gamma as the ratio of the two collapsed integrals, each summed
    over its rows as a polynomial and checked at depths m and m + 1 for
    this datum and twist."""
    q, n, u = d.q, d.n, d.pi_unit
    T = cached_dual_table(q, n, u, m)
    num = _rows_oracle(d, lam, T.agg, T.agg_next)
    den = _rows_oracle(d, lam, zeta._psi_rows(q, n, u, m), zeta._psi_rows(q, n, u, m + 1))
    ratio = num.collapse_to_monomial() / den.collapse_to_monomial()
    return ratio.scale(lam.at_minus_one() ** (d.n - 1))


@pytest.mark.parametrize("q,n", gauss_cells("full"))
def test_gamma_matches_integral_ratio_oracle(q, n):
    for u0 in range(1, q):
        for zeta_num, e_om in [(0, 0), (1, 1), (n + 1, q - 2)]:
            d = _datum(q, n, zeta_num=zeta_num, omega_exp=e_om, u0=u0)
            for e, b in ZETA_TWISTS:
                lam = TameChar(d.F, e, RootOfUnity(b, q - 1))
                for m in (2, 3):
                    got = gamma_automorphic(d, lam, m)
                    want = _gamma_oracle(d, lam, m)
                    assert got == want and repr(got) == repr(want)


def _other_arg_lead(row):
    ff = LocalField.base_field(5).residue
    return {"arg_lead": ff.mul(row.arg_lead, 2)}


def _other_invariant(row):
    ff = LocalField.base_field(5).residue
    return {"invariant": row.invariant._replace(residue=ff.add(row.invariant.residue, 1))}


def _plant_rows(monkeypatch, side, plant):
    """Route one integral's solved rows of (5, 3, pi_unit 2) through
    plant(rows, m), with fresh stable and gamma rows.  Returns a call of
    that side's integral on a datum and twist of the cell."""
    if side == "psi":
        real = zeta._psi_rows
        monkeypatch.setattr(zeta, "_psi_rows", lambda q, n, u, m: plant(real(q, n, u, m), m))
    else:
        real = zeta.cached_dual_table(5, 3, 2)
        planted = zeta.DualSupportTable(
            5, 3, 2, 2, plant(real.agg, 2), plant(real.agg_next, 3), real.row_count
        )
        monkeypatch.setattr(zeta, "cached_dual_table", lambda *a: planted)
    _fresh_stable_rows(monkeypatch)
    d = _datum(5, 3, zeta_num=2, omega_exp=1, u0=2)
    lam = TameChar(d.F, 1, RootOfUnity(1, 4))
    integral = zeta_psi if side == "psi" else zeta_psi_tilde
    return lambda: integral(d, lam)


@pytest.mark.parametrize("side", ["psi", "dual"])
@pytest.mark.parametrize("change", [_other_arg_lead, _other_invariant])
def test_gamma_row_depth_check_sees_more_than_the_weight(monkeypatch, side, change):
    # the row above differs only in its argument or its solved invariant,
    # and keeps its count, so the weight does not move
    def plant(rows, m):
        if m == 2:
            return rows
        (row, count), = rows.items()
        return Counter({row._replace(**change(row)): count})

    integral = _plant_rows(monkeypatch, side, plant)
    for call in (lambda: zeta._gamma_row(5, 3, 2), integral):
        with pytest.raises(PrecisionNotStabilized):
            call()


def _no_rows(rows, m):
    return Counter()


def _two_rows(rows, m):
    # the solved row and a copy on another leading digit
    (row, count), = rows.items()
    return Counter({row: count, row._replace(arg_lead=(row.arg_lead % 4) + 1): count})


@pytest.mark.parametrize("side", ["psi", "dual"])
@pytest.mark.parametrize("plant", [_no_rows, _two_rows])
def test_gamma_row_needs_exactly_one_row(monkeypatch, side, plant):
    integral = _plant_rows(monkeypatch, side, plant)
    for call in (lambda: zeta._gamma_row(5, 3, 2), integral):
        with pytest.raises(LLCError, match="solved rows at depth 2, not one"):
            call()


@pytest.mark.parametrize("q,n", [(5, 3), (9, 2)])
def test_characters_read_without_series(q, n):
    # the datum's value and the closed form take characters at (val, lead)
    # pairs; building the series element first gives the same value
    for u0 in range(1, q):
        d = _datum(q, n, zeta_num=1, omega_exp=1, u0=u0)
        F, ff = d.F, d.F.residue
        for s in ff.units():
            for v in range(-2, 3):
                for r, res in [(0, 0), (1, s)]:
                    old = d.zeta**r * d.omega(F.elem(v, (s,))) * d.psi.of_residue(res)
                    assert d.invariant_root(SolvedInvariant(r, s, v, res)) == old
        for e in range(q - 1):
            lam = TameChar(F, e, RootOfUnity(1, q - 1))
            old = lam.at_minus_one() ** (n - 1) * lam(d.pi_elem()) * d.zeta
            assert closed_form_epsilon(d, lam) == EpsMonomial(
                q, LambdaGraded.from_cyclo(old), Fraction(1, 2), -1
            )


def _uncached_closed_form(d, lam):
    """The closed form's formula, computed afresh: lam at the norm
    (-1)^(n-1) u0 t of u, times zeta, times q^(1/2 - s)."""
    ff = d.F.residue
    lead = d.pi_unit if d.n % 2 else ff.neg(d.pi_unit)
    unit = LambdaGraded(0, lam.of_leading(1, lead) * d.zeta)
    return EpsMonomial(d.q, unit, Fraction(1, 2), -1)


@pytest.mark.parametrize("q,n", [*gauss_cells("small"), (7, 3), (11, 6)])
def test_cached_closed_form_matches_its_formula(q, n):
    # one value per (extension, zeta, twist): every datum and twist of
    # the cell gets the formula's value, and data that differ only in
    # omega get the very same object
    F = LocalField.base_field(q)
    m = q - 1
    lams = [TameChar(F, e, RootOfUnity(b, m)) for e in range(m) for b in range(m)]
    for u0 in range(1, q):
        for znum in range(n * n):
            first = [closed_form_epsilon(selftest._datum(q, n, znum, 0, u0), lam) for lam in lams]
            for e_om in range(m):
                d = selftest._datum(q, n, znum, e_om, u0)
                for lam, shared in zip(lams, first):
                    got, want = closed_form_epsilon(d, lam), _uncached_closed_form(d, lam)
                    assert got is shared
                    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("other_q", [3, 7, 25])
@pytest.mark.parametrize("entry", [closed_form_epsilon, gamma_automorphic, zeta_psi, zeta_psi_tilde])
def test_twist_over_another_base_field_raises(entry, other_q):
    # as on the Galois side: a twist over F_3, F_7 or F_25 once gave a
    # q = 5 datum a monomial, or an IndexError; the check runs before
    # any cache, so it raises right after a cached call on the datum too
    d = _datum(5, 3, zeta_num=2, omega_exp=1, u0=2)
    entry(d, TameChar(d.F, 1, RootOfUnity(1, 4)))
    lam = TameChar(LocalField.base_field(other_q), 1, RootOfUnity(1, other_q - 1))
    with pytest.raises(TypeError, match="base field"):
        entry(d, lam)


def test_gamma_equals_closed_form():
    cases = [
        (5, 2, 1, 1, 2, (2, 3)),
        (7, 3, 2, 2, 3, (1, 1)),
        (3, 4, 5, 1, 2, (1, 1)),
    ]
    for q, n, zeta_num, e_om, u0, (e, av) in cases:
        d = _datum(q, n, zeta_num=zeta_num, omega_exp=e_om, u0=u0)
        lam = TameChar(d.F, e, RootOfUnity(av, q - 1))
        assert gamma_automorphic(d, lam) == closed_form_epsilon(d, lam)


def test_gamma_trivial_data_value():
    d = _datum(3, 2, zeta_num=0)
    lam = TameChar(d.F, 0)
    assert gamma_automorphic(d, lam) == EpsMonomial(
        3, LambdaGraded.one(), Fraction(1, 2), -1
    )


def test_gamma_is_the_ratio_of_the_two_integrals():
    # each integral at its own row, the ratio times lam(-1)^(n-1), which is
    # -1 here, against gamma's one quotient row
    d = _datum(5, 2, zeta_num=3, omega_exp=1, u0=2)
    lam = TameChar(d.F, 1, RootOfUnity(1, 4))
    assert lam.at_minus_one() ** (d.n - 1) != RootOfUnity.one()
    ratio = (zeta_psi_tilde(d, lam) / zeta_psi(d, lam)).scale(lam.at_minus_one() ** (d.n - 1))
    assert ratio == gamma_automorphic(d, lam)


def test_oracle_criterion_catches_gamma_without_the_sign(monkeypatch):
    # negating gamma's argument at even n drops the lam(-1)^(n-1) fold;
    # criterion 8's ratio check must fail at both of its small cells
    real = zeta._gamma_row

    def unfolded(q, n, pi_unit, m=2):
        row = real(q, n, pi_unit, m)
        if n % 2:
            return row
        return row._replace(arg_lead=LocalField.base_field(q).residue.neg(row.arg_lead))

    monkeypatch.setattr(zeta, "_gamma_row", unfolded)
    rep = selftest.criterion_oracles("small")
    assert [(f["check"], f["q"], f["n"]) for f in rep["failures"]] == [
        ("gamma ratio", 3, 2),
        ("gamma ratio", 5, 2),
    ]
