"""Acceptance gate: the eight headline checks at full scale.

Each test replays one criterion over its complete grid with exact
equality and asserts the runtime stays inside the stated budget.  The
check counts are pinned so a silently shrunken grid fails loudly.
"""

from llclab import selftest
from llclab.building import FacetSpec

# selftest.answer_digest of criterion 6's answers, computed on the tree
# before its certificate kernels read only nonzero entries: the kernels
# changed, the answers did not
CRITERION_6_DIGEST = "1baba9321ad020c793289931e7a0dc7fbcb7df1a756af69cf124e55abd5d6682"

# selftest.answer_digest of the class of each pivot-order draw criterion 8
# confirms, computed when the digest was added
CRITERION_8_DIGEST = "127ecc93268a0c1fd7e9ac3979667bc6d3b1a10b508202ce9b7e22bbc48c23b6"


def _gate(fn, budget=None):
    rep = fn("full")
    verdict = "PASS" if rep["ok"] else "FAIL"
    print(
        f"criterion {rep['criterion']} ({rep['name']}): {verdict} "
        f"[{rep['checked']} checks, {round(rep['seconds'], 2)}s]"
    )
    assert rep["ok"], rep["failures"]
    if budget is not None:
        assert rep["seconds"] < budget, f"over budget: {rep['seconds']}s >= {budget}s"
    return rep


def _assert_interned(rep):
    # the intern and product dicts only grow within a process, so only
    # their presence is pinned, not their sizes
    sizes = rep["interned"]
    assert set(sizes) == {"roots", "root_products", "units", "unit_products",
                          "tame_chars", "tame_values"}
    assert all(v > 0 for v in sizes.values()), sizes


def test_criterion_1_gauss_closed_form():
    rep = _gate(selftest.criterion_gauss_closed_form, budget=60)
    assert rep["checked"] == 29300
    # distinct (left, right) value pairs, not the 42 (q, e) inner-sum keys
    assert rep["distinct"] == 344
    _assert_interned(rep)


def test_criterion_2_twisted_gauss_ratio():
    rep = _gate(selftest.criterion_gauss_twist, budget=120)
    # one comparison per (q, n, u0, omega exponent, twist) key, at zeta = 1
    assert rep["checked"] == 173_520
    # the (datum, twist) pairs those comparisons cover, n^2 per key
    assert rep["stands_for"] == 3_084_560
    # distinct (left, right) value pairs, not the input keys
    assert rep["distinct"] == 42
    _assert_interned(rep)


def test_criterion_3_zeta_integral_collapse():
    rep = _gate(selftest.criterion_zeta_collapse, budget=60)
    assert rep["checked"] == 19380


def test_criterion_4_epsilon_matching():
    rep = _gate(selftest.criterion_matching, budget=300)
    assert rep["checked"] == 29300
    assert rep["with_integral_path"] == 29300
    # det(Ind(xi * lam o N)) == omega * lam^n for every datum and twist:
    # the sum of q - 1 over the 29,300 data
    assert rep["twisted_determinants"] == 292_520
    _assert_interned(rep)


def test_criterion_5_determination_round_trip():
    rep = _gate(selftest.criterion_determination, budget=60)
    assert rep["checked"] == 29300
    _assert_interned(rep)


def test_criterion_6_facets_and_stability():
    rep = _gate(selftest.criterion_stability, budget=60)
    assert rep["checked"] == 501
    assert rep["nonbarycenter_points"] == 8828
    assert rep["digest"] == CRITERION_6_DIGEST


def test_criterion_6_digest_covers_the_root_counts(monkeypatch):
    # one facet's root counts moved by (1, 1), gap unchanged: the census
    # rejects the facet, and the digest changes
    target = FacetSpec(0, (2, 1, 2, 1, 2))
    count = selftest.root_count_dims

    def moved(b):
        g, v = count(b)
        return (g + 1, v + 1) if selftest.facet_of(b) == target else (g, v)

    monkeypatch.setattr(selftest, "root_count_dims", moved)
    rep = selftest.criterion_stability("full")
    assert rep["failure_count"] == 1 and rep["digest"] != CRITERION_6_DIGEST
    # the same move past the census check: every check passes, and the
    # digest still changes, since each facet's record holds its counts
    monkeypatch.undo()
    census = selftest._census

    def moved_after_check(f):
        (g, v), reason = census(f)
        return ((g + 1, v + 1) if f == target else (g, v)), reason

    monkeypatch.setattr(selftest, "_census", moved_after_check)
    rep = selftest.criterion_stability("full")
    assert rep["ok"] and rep["digest"] != CRITERION_6_DIGEST


def test_criterion_7_whittaker_pair_invariance():
    rep = _gate(selftest.criterion_pairs, budget=120)
    assert rep["checked"] == 2688


def test_criterion_8_independent_oracles():
    rep = _gate(selftest.criterion_oracles, budget=60)
    assert rep["checked"] == 6214
    assert rep["digest"] == CRITERION_8_DIGEST
