"""The shape every criterion report shares, pinned once for all eight."""

import json

import pytest

from llclab import selftest

COMMON = ["criterion", "name", "ok", "checked", "failure_count", "failures", "seconds"]

# per criterion: its runner, the keys after the common ones, and its phases
SHAPES = [
    (selftest.criterion_gauss_closed_form, ["cells", "stands_for", "distinct", "interned"], []),
    (selftest.criterion_gauss_twist, ["cells", "stands_for", "distinct", "interned"], []),
    (selftest.criterion_zeta_collapse, ["cells", "stands_for", "non_integral_chains", "phases"],
     ["principal", "dual"]),
    (selftest.criterion_matching,
     ["cells", "with_integral_path", "twisted_determinants", "interned"], []),
    (selftest.criterion_determination, ["cells", "classes", "interned"], []),
    (selftest.criterion_stability, ["degrees", "nonbarycenter_points", "phases", "digest"],
     ["barycenters", "nonbarycenters"]),
    (selftest.criterion_pairs, ["cells", "steps", "conjugation_runs", "phases"],
     ["walks", "mirabolic", "k_check"]),
    (selftest.criterion_oracles, ["phases", "digest"],
     ["gauss_modulus", "trace_norm", "draws", "decompose", "minor_read", "gamma_ratio"]),
]


@pytest.mark.parametrize("num", range(1, len(SHAPES) + 1))
def test_report_shape(num):
    fn, extras, phases = SHAPES[num - 1]
    rep = fn("small")
    assert rep["ok"], rep["failures"]
    assert rep["criterion"] == num
    assert list(rep) == COMMON + extras
    assert rep["failure_count"] == len(rep["failures"]) == 0
    if phases:
        assert list(rep["phases"]) == phases
        assert all(v >= 0 for v in rep["phases"].values())
        # whole milliseconds rounded down; the tolerance is float summation's
        assert sum(rep["phases"].values()) <= rep["seconds"] + 1e-9
    if "digest" in extras:
        assert len(rep["digest"]) == 64
    json.dumps(rep)
