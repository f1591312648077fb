"""The library at residue degree 3: q = 27, beyond the selftest grid.

The selftest grid stops at q = 13.  Here the Gauss closed form, the zeta
collapse, the matching of the three epsilon computations and the
determination round trip run at (27, 2) on every datum, and at (27, 4)
on every datum or on the data at two uniformizer classes.
"""

import json
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from llclab import cli, selftest
from llclab.characters import TameChar
from llclab.cyclotomic import RootOfUnity
from llclab.finitefield import field_of_size
from llclab.matching import EpsilonTable, determine_from_table, verify_matching
from llclab.monomials import EpsMonomial, LambdaGraded
from llclab.supercuspidal import SSCDatum
from llclab.zeta import zeta_psi, zeta_psi_tilde

from test_galois import _check_inner_against_oracle, _degrees

Q = 27


def _criterion(monkeypatch, criterion, n):
    # the selftest runner itself, on the one cell (27, n)
    monkeypatch.setattr(selftest, "gauss_cells", lambda scale: [(Q, n)])
    rep = criterion("full")
    assert rep["ok"], rep["failures"]
    assert rep["cells"] == [(Q, n)]
    return rep


def _collapse_failures(data) -> list:
    """Criterion 3's identities on each datum and each of its twists."""
    principal = EpsMonomial(Q, LambdaGraded.one(), Fraction(-1), 0)
    bad = []
    for d in data:
        pi = d.pi_elem()
        for e, b in selftest.ZETA_TWISTS:
            lam = TameChar(d.F, e, RootOfUnity(b, Q - 1))
            dual = EpsMonomial(Q, LambdaGraded.from_cyclo(d.zeta * lam(pi)), Fraction(-1, 2), -1)
            if not (zeta_psi(d, lam) == zeta_psi(d, lam, m=3) == principal
                    and zeta_psi_tilde(d, lam) == dual):
                bad.append((d, e, b))
    return bad


def _matching_failures(data) -> list:
    """Criterion 4 on each datum, with the integral path on every twist."""
    bad = []
    for d in data:
        rep = verify_matching(d)
        if not (rep["all_equal"] and all("automorphic" in row for row in rep["twists"])):
            bad.append(d)
    return bad


def _determination_failures(data) -> list:
    """Criterion 5 on the data: each table gives its datum back, and data
    sharing a central character have pairwise distinct tables."""
    bad, tables, sizes = [], defaultdict(set), defaultdict(int)
    for d in data:
        T = EpsilonTable.of_datum(d)
        res = determine_from_table(T, d.omega, d.n, Q)
        got = res.datum
        if not (res.complete and res.zeta == d.zeta and res.pi_unit == d.pi_unit
                and got is not None and (got.omega_exp, got.omega_at_pi) == (d.omega_exp, d.omega_at_pi)):
            bad.append(d)
        key = (d.omega_exp, d.omega.at_var)
        sizes[key] += 1
        tables[key].add(tuple(sorted(T.entries.items())))
    bad += [key for key, count in sizes.items() if len(tables[key]) != count]
    return bad


def test_every_odd_prime_power_is_a_residue_size():
    # residue degrees 3, 4 and 3 are legal; even and composite sizes are not
    for q, pf in ((27, (3, 3)), (81, (3, 4)), (125, (5, 3))):
        ff = field_of_size(q)
        assert (ff.p, ff.f) == pf
        assert SSCDatum(q, 2, RootOfUnity(0, 1)).F.residue is ff
    for bad in (2, 4, 8, 15):
        with pytest.raises(ValueError):
            field_of_size(bad)
        with pytest.raises(ValueError):
            SSCDatum(bad, 2, RootOfUnity(0, 1))


def test_criteria_at_27_2_on_every_datum(monkeypatch):
    size = (Q - 1) ** 2 * 2 * 2
    assert _criterion(monkeypatch, selftest.criterion_gauss_closed_form, 2)["checked"] == size
    rep = _criterion(monkeypatch, selftest.criterion_matching, 2)
    assert rep["checked"] == rep["with_integral_path"] == size
    # criterion 5 also requires distinct tables within each central
    # character class and classes that cover the cell
    assert _criterion(monkeypatch, selftest.criterion_determination, 2)["checked"] == size
    data = list(selftest.datum_grid(Q, 2))
    assert len(data) == size
    assert _collapse_failures(data) == []


def test_criteria_at_27_4(monkeypatch):
    size = (Q - 1) ** 2 * 4 * 4
    assert _criterion(monkeypatch, selftest.criterion_gauss_closed_form, 4)["checked"] == size
    data = list(selftest.datum_grid(Q, 4))
    assert len(data) == size
    assert _collapse_failures(data) == []
    # matching and determination at two uniformizer classes
    units = {1, field_of_size(Q).gen}
    some = [d for d in data if d.pi_unit in units]
    assert len(some) == len(units) * (Q - 1) * 16
    assert _matching_failures(some) == []
    assert _determination_failures(some) == []


def test_gauss_inner_matches_term_by_term_sum_q27():
    # as at q = 25: depth 1 on every degree, unit exponent and uniformizer
    # unit; depth 2 on a seeded pairing of the unit exponents with the
    # uniformizer units, which reaches each of them once per degree
    rng = random.Random(27)
    assert _degrees(Q) == [2, 4, 5]
    for n in _degrees(Q):
        for k in range(Q - 1):
            _check_inner_against_oracle(Q, n, k, 1)
        for k, u0 in zip(range(Q - 1), rng.sample(range(1, Q), Q - 1)):
            _check_inner_against_oracle(Q, n, k, 2, [u0])


def test_cli_epsilon_at_27(capsys):
    assert cli.main(["epsilon", "--q", "27", "--n", "4", "--u0", "2", "--side", "all"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is True and sorted(payload["sides"]) == ["automorphic", "closed", "galois"]
    for bad in ("15", "8"):
        assert cli.main(["epsilon", "--q", bad, "--n", "2"]) == 2
