from fractions import Fraction
from math import gcd

import pytest

from llclab import matching, selftest
from llclab.characters import TameChar
from llclab.cyclotomic import RootOfUnity
from llclab.errors import InconsistentTable
from llclab.galois import build_parameter, epsilon_galois
from llclab.laurent import LocalField
from llclab.matching import (
    EpsilonTable,
    determine_from_table,
    twist_char,
    verify_matching,
)
from llclab.monomials import EpsMonomial
from llclab.supercuspidal import SSCDatum
from llclab.zeta import closed_form_epsilon, gamma_automorphic

from test_supercuspidal import _datum


def test_round_trip_reference_case():
    # n = 3, q = 7, uniformizer unit 3, trivial central character, zeta = 1
    d = _datum(7, 3, 0, 0, 3)
    T = EpsilonTable.of_datum(d)
    res = determine_from_table(T, d.omega, 3, 7)
    assert res.complete
    assert res.zeta == RootOfUnity.one()
    assert res.pi_unit == 3
    got = res.datum
    assert (got.q, got.n, got.zeta, got.pi_unit) == (7, 3, d.zeta, 3)
    assert got.omega_exp == d.omega_exp and got.omega_at_pi == d.omega_at_pi


def test_round_trip_small_grid():
    for q, n in [(5, 2), (5, 3), (7, 2)]:
        for u0 in range(1, q):
            for zeta_num in range(n * n):
                for omega_exp in (0, 1):
                    d = _datum(q, n, zeta_num, omega_exp, u0)
                    res = determine_from_table(EpsilonTable.of_datum(d), d.omega, n, q)
                    assert res.complete
                    assert res.zeta == d.zeta
                    assert res.pi_unit == u0


def test_trivial_only_table_is_partial():
    d = _datum(5, 2, zeta_num=1, u0=3)
    T = EpsilonTable(5, 2, {(0, 0): closed_form_epsilon(d, TameChar(d.F, 0))})
    res = determine_from_table(T, d.omega, 2, 5)
    assert not res.complete
    assert res.zeta == RootOfUnity(1, 4)
    assert res.pi_unit is None and res.datum is None


def test_table_read_with_another_size_or_field_raises():
    # the (5, 2) table read as n = 4 once came back complete with an
    # n = 4 datum; the table's (q, n) and omega's field must match
    d = _datum(5, 2)
    T = EpsilonTable.of_datum(d)
    assert determine_from_table(T, d.omega, 2, 5).complete
    other = TameChar(LocalField.base_field(7), 0)
    for omega, n, q in [(d.omega, 4, 5), (d.omega, 2, 7), (other, 2, 5), (other, 2, 7)]:
        with pytest.raises(ValueError):
            determine_from_table(T, omega, n, q)


def test_corrupted_entry_raises():
    d = _datum(5, 2, 1, 0, 2)
    T = EpsilonTable.of_datum(d)
    bad = dict(T.entries)
    e = bad[(2, 0)]
    bad[(2, 0)] = e.scale(RootOfUnity(1, 4))
    with pytest.raises(InconsistentTable):
        determine_from_table(EpsilonTable(5, 2, bad), d.omega, 2, 5)

    bad = dict(T.entries)
    e = bad[(0, 0)]
    bad[(0, 0)] = EpsMonomial(5, e.unit, Fraction(3, 2), e.s_coeff)
    with pytest.raises(InconsistentTable):
        determine_from_table(EpsilonTable(5, 2, bad), d.omega, 2, 5)

    bad = dict(T.entries)
    bad[(0, 0)] = bad[(0, 0)].scale(2)
    with pytest.raises(InconsistentTable):
        determine_from_table(EpsilonTable(5, 2, bad), d.omega, 2, 5)

    # the twisted ratio must be a root of unity of order dividing q - 1
    bad = dict(T.entries)
    bad[(1, 0)] = bad[(1, 0)].scale(RootOfUnity(1, 3))
    with pytest.raises(InconsistentTable, match="order dividing 4"):
        determine_from_table(EpsilonTable(5, 2, bad), d.omega, 2, 5)


def test_mismatched_central_character_raises():
    d = _datum(5, 2, zeta_num=1, u0=2)  # omega(pi) = -1
    T = EpsilonTable.of_datum(d)
    with pytest.raises(InconsistentTable):
        determine_from_table(T, TameChar(d.F, 0), 2, 5)


def test_tables_separate_distinct_data():
    q, n = 5, 2
    data = [
        _datum(q, n, zeta_num, 0, u0)
        for u0 in range(1, q)
        for zeta_num in (0, 2)  # the two square roots of omega(pi) = 1
    ]
    tables = [EpsilonTable.of_datum(d) for d in data]
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            assert tables[i] != tables[j]


def test_zeta_difference_shows_in_standard_entry():
    d1 = _datum(5, 2, 0, 0, 1)
    d2 = _datum(5, 2, 2, 0, 1)  # other square root of 1
    t1 = EpsilonTable.of_datum(d1)
    t2 = EpsilonTable.of_datum(d2)
    assert t1.entries[(0, 0)] != t2.entries[(0, 0)]


def test_uniformizer_difference_shows_in_twisted_entry_only():
    d1 = _datum(5, 2, 1, 0, 1)
    d2 = _datum(5, 2, 1, 0, 2)
    t1 = EpsilonTable.of_datum(d1)
    t2 = EpsilonTable.of_datum(d2)
    assert t1.entries[(0, 0)] == t2.entries[(0, 0)]
    assert any(t1.entries[(e, 0)] != t2.entries[(e, 0)] for e in range(1, 4))


def test_verify_matching_all_equal_report():
    d = _datum(5, 2, 1, 0, 2)
    report = verify_matching(d)
    assert report["all_equal"]
    assert report["central_character_matches"]
    assert len(report["twists"]) == 4
    for row in report["twists"]:
        assert row["equal"]
        assert "automorphic" in row  # integral path included at this size
        # the rows carry the compared values themselves, no JSON
        closed = closed_form_epsilon(d, twist_char(d.F, row["twist"]["e"], row["twist"]["at_t"]))
        for side in ("closed", "galois", "automorphic"):
            assert type(row[side]) is EpsMonomial and row[side] == closed


def test_verify_matching_with_t_valued_twists():
    d = _datum(3, 2, 1)
    report = verify_matching(d, twists=[(0, 0), (1, 1)])
    assert report["all_equal"]


def test_verify_matching_runs_integral_when_large():
    # the integral path runs on every datum unless switched off
    d = _datum(11, 2, 1, 0, 7)
    report = verify_matching(d, twists=[(0, 0), (3, 0)])
    assert report["all_equal"]
    assert all(row["automorphic"] == row["closed"] for row in report["twists"])
    report = verify_matching(d, twists=[(0, 0), (3, 0)], include_integral=False)
    assert report["all_equal"]
    assert all("automorphic" not in row for row in report["twists"])


def test_table_must_contain_trivial_twist():
    with pytest.raises(ValueError):
        EpsilonTable(5, 2, {})


def test_round_trip_zeta_of_order_n_times_q_minus_one():
    # zeta of order n(q-1) = 18: matching holds, and determination once
    # looked for zeta among the 9th roots of unity only
    d = SSCDatum(7, 3, RootOfUnity(1, 18), omega_exp=1, omega_at_pi=RootOfUnity(1, 6), pi_unit=3)
    assert verify_matching(d)["all_equal"]
    res = determine_from_table(EpsilonTable.of_datum(d), d.omega, 3, 7)
    assert res.complete
    assert (res.zeta, res.pi_unit) == (RootOfUnity(1, 18), 3)
    assert res.datum.omega_exp == 1 and res.datum.omega_at_pi == RootOfUnity(1, 6)


def test_round_trip_every_zeta_order():
    # every divisor order of n^2 and of n(q-1), every primitive numerator
    for q, n in [(7, 3), (5, 4), (11, 5)]:
        orders = sorted({k for m in (n * n, n * (q - 1)) for k in range(1, m + 1) if m % k == 0})
        i = 0
        for order in orders:
            for num in range(order):
                if gcd(num, order) != 1:
                    continue
                zeta = RootOfUnity(num, order)
                u0 = 1 + i % (q - 1)
                d = SSCDatum(q, n, zeta, omega_exp=i, omega_at_pi=zeta**n, pi_unit=u0)
                at_t = (0, 1) if i % 3 == 0 else (0,)
                entries = {
                    (e, b): closed_form_epsilon(d, twist_char(d.F, e, b))
                    for e in range(q - 1)
                    for b in at_t
                }
                res = determine_from_table(EpsilonTable(q, n, entries), d.omega, n, q)
                assert res.complete, (q, n, zeta)
                assert (res.zeta, res.pi_unit) == (zeta, u0), (q, n, zeta)
                assert res.datum.omega_at_pi == d.omega_at_pi
                assert res.datum.omega_exp == d.omega_exp
                i += 1


def test_matching_failure_names_each_unequal_twist(monkeypatch):
    # the closed form is off by a sign on one twist of one datum: the
    # criterion's record names that twist and gives its three values
    target = list(selftest.datum_grid(5, 2))[3]
    closed_form = matching.closed_form_epsilon

    def wrong_once(d, lam):
        out = closed_form(d, lam)
        if d is target and lam.exp_unit == 2:
            return out.scale(RootOfUnity.minus_one())
        return out

    monkeypatch.setattr(matching, "closed_form_epsilon", wrong_once)
    rep = selftest.criterion_matching("small")
    lam = twist_char(target.F, 2, 0)
    assert rep["failures"] == [{
        "q": 5, "n": 2, "pi_unit": target.pi_unit, "omega_exp": target.omega_exp,
        "zeta": target.zeta.as_fraction_of_turn(), "central_character_matches": True,
        "twists": [{
            "twist": {"e": 2, "at_t": 0},
            "closed": closed_form(target, lam).scale(RootOfUnity.minus_one()).to_json(),
            "galois": epsilon_galois(build_parameter(target), lam).to_json(),
            "automorphic": gamma_automorphic(target, lam).to_json(),
        }],
    }]
