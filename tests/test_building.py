import copy
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import llclab
from llclab import building, selftest
from llclab.building import (
    ApartmentPoint,
    FacetSpec,
    compositions,
    enumerate_facets,
    facet_of,
    graded_quotient,
    is_barycenter,
    jump_numerator,
    sample_alcove_points,
)
from llclab.errors import EmptyFacet


def translate(x, a):
    """x shifted by a in every coordinate."""
    return ApartmentPoint([c + Fraction(a) for c in x.coords])


# Oracles: the kernels written on the Fraction coordinates, against which
# the library's kernels on integer numerators must agree with ==.


def _fraction_r_of_x(x):
    jumps = {Fraction(1)}
    for i, xi in enumerate(x.coords):
        for j, xj in enumerate(x.coords):
            if i != j:
                d = (xi - xj) % 1
                if d != 0:
                    jumps.add(d)
    return min(jumps)


def _fraction_graded_quotient(x):
    """(r, sizes, arrows, spacings) from Fraction class keys."""
    keys = [(x.coords[0] - c) % 1 for c in x.coords]
    distinct = sorted(set(keys))
    sizes = tuple(keys.count(kappa) for kappa in distinct)
    K = len(distinct)
    spacings = tuple(
        (distinct[a + 1] - distinct[a]) if a + 1 < K else (1 - distinct[K - 1])
        for a in range(K)
    )
    r = min(spacings)
    arrows = tuple((a, (a + 1) % K) for a in range(K) if spacings[a] == r)
    return r, sizes, arrows, spacings


def _fraction_facet_of(x):
    blocks = []
    run = 1
    for i in range(1, len(x.nums)):
        if x.coords[i] == x.coords[i - 1]:
            run += 1
        else:
            blocks.append(run)
            run = 1
    blocks.append(run)
    t = 1 if x.coords[-1] == x.coords[0] - 1 else 0
    return FacetSpec(t, blocks)


def _fraction_is_barycenter(x):
    b = _fraction_facet_of(x).barycenter()
    shift = x.coords[0] - b.coords[0]
    return all(xc == bc + shift for xc, bc in zip(x.coords, b.coords))


def _fraction_sample_alcove_points(n, count, max_den=12, seed=20240815):
    """The sampler written on Fraction coordinates: the same draws, sorted
    and deduplicated as Fraction tuples."""
    rng = random.Random(seed)
    seen = set()
    out = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        den = rng.randint(1, max_den)
        rest = sorted((Fraction(-rng.randint(0, den), den) for _ in range(n - 1)), reverse=True)
        coords = (Fraction(0), *rest)
        if coords in seen:
            continue
        seen.add(coords)
        out.append(ApartmentPoint(coords))
    return out


def oracle_points():
    """Sampled points of every n = 2..8 and their translates by
    non-integer shifts, which change the common denominator."""
    for n in range(2, 9):
        for x in sample_alcove_points(n, 120, max_den=40, seed=400 + n):
            yield x
            for shift in (Fraction(2, 7), Fraction(-5, 3), Fraction(13, 40)):
                yield translate(x, shift)


def _scan_r(x):
    """Independent jump oracle: sweep explicit integer offsets."""
    vals = [Fraction(1)]
    for i, xi in enumerate(x.coords):
        for j, xj in enumerate(x.coords):
            if i == j:
                continue
            for m in range(-3, 4):
                v = xi - xj + m
                if v > 0:
                    vals.append(v)
    return min(vals)


def _scan_dims(x):
    """Independent dimension oracle by counting root values directly."""
    r = _scan_r(x)
    n = len(x.nums)
    zero_hits = 0
    r_hits = 0
    for i, xi in enumerate(x.coords):
        for j, xj in enumerate(x.coords):
            if i == j:
                continue
            for m in range(-3, 4):
                v = xi - xj + m
                if v == 0:
                    zero_hits += 1
                if v == r:
                    r_hits += 1
    dim_g = zero_hits + n
    dim_v = r_hits + (n if r.denominator == 1 else 0)
    return dim_g, dim_v


def test_jump_at_reference_points():
    alcove3 = FacetSpec(0, (1, 1, 1)).barycenter()
    assert Fraction(jump_numerator(alcove3), alcove3.den) == Fraction(1, 3)
    half = FacetSpec(0, (2, 2)).barycenter()
    assert Fraction(jump_numerator(half), half.den) == Fraction(1, 2)
    origin = ApartmentPoint([0, 0, 0])
    assert Fraction(jump_numerator(origin), origin.den) == 1


def test_jump_matches_scan_oracle_on_samples():
    for n in (2, 3, 4, 5):
        for x in sample_alcove_points(n, 40, seed=7 + n):
            assert Fraction(jump_numerator(x), x.den) == _scan_r(x)


def _all_pairs_jump_numerator(x):
    """Oracle: the smallest (a - b) mod x.den over every pair of distinct
    residues, as jump_numerator took it before it read cyclic gaps."""
    D = x.den
    residues = {v % D for v in x.nums}
    return min(((a - b) % D for a in residues for b in residues if a != b), default=D)


def test_jump_numerator_matches_all_pairs_oracle():
    seen = one_class = 0
    for n in range(1, 9):
        points = sample_alcove_points(n, 1 if n == 1 else 120, max_den=40, seed=900 + n)
        points += [translate(x, Fraction(3, 11)) for x in points]
        # one residue class: equal coordinates, or coordinates an integer apart
        points += [ApartmentPoint([Fraction(2, 5)] * n),
                   ApartmentPoint([Fraction(2, 5) - i % 3 for i in range(n)])]
        points += [FacetSpec(0, (1,) * n).barycenter()]
        for x in points:
            assert jump_numerator(x) == _all_pairs_jump_numerator(x), x
            seen += 1
            one_class += len({v % x.den for v in x.nums}) == 1
    assert seen == 2 * (1 + 7 * 120) + 3 * 8
    # the sample of n = 1, its translate, GL_1's barycenter and the two
    # one-class points of every n
    assert one_class >= 3 + 2 * 8


def test_barycenter_coordinates():
    assert FacetSpec(0, (1, 1, 1)).barycenter().coords == (
        Fraction(-1, 3),
        Fraction(-2, 3),
        Fraction(-1),
    )
    assert FacetSpec(0, (2, 1)).barycenter().coords == (
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-1),
    )
    with pytest.raises(EmptyFacet):
        FacetSpec(1, (3,)).barycenter()


def test_graded_quotient_alcove_n3():
    gq = graded_quotient(FacetSpec(0, (1, 1, 1)).barycenter())
    assert gq.sizes == (1, 1, 1)
    assert gq.dim_g == 3
    assert len(gq.arrows) == 3
    assert all(gq.arrow_shape(a) == (1, 1) for a in gq.arrows)
    assert gq.dim_v == 3


def test_graded_quotient_two_two():
    gq = graded_quotient(FacetSpec(0, (2, 2)).barycenter())
    assert gq.dim_g == 8
    assert gq.dim_v == 8
    assert FacetSpec(0, (2, 2)).dim_gap() == 0


def test_graded_quotient_one_two():
    f = FacetSpec(0, (1, 2))
    gq = graded_quotient(f.barycenter())
    assert gq.dim_g == 5
    assert gq.dim_v == 4
    assert f.dim_gap() == 1


def test_dim_gap_examples():
    assert FacetSpec(0, (3, 1)).dim_gap() == 4
    assert FacetSpec(0, (1, 2)).dim_gap() == 1
    assert FacetSpec(0, (2, 2)).dim_gap() == 0


def test_merged_blocks_for_wrap_wall():
    # wall x_n = x_1 - 1 merges the outer runs into one class
    f = FacetSpec(1, (1, 1, 1))
    assert f.effective_blocks() == (2, 1)
    gq = graded_quotient(f.barycenter())
    assert gq.sizes == (2, 1)
    assert gq.dim_g == 5
    assert gq.dim_v == 4
    assert f.dim_gap() == 1


def test_vertex_points_carry_the_full_matrix_loop():
    gq = graded_quotient(ApartmentPoint([0, 0, 0]))
    assert gq.sizes == (3,)
    assert gq.arrows == ((0, 0),)
    assert gq.dim_g == 9 and gq.dim_v == 9
    merged = graded_quotient(FacetSpec(1, (2, 1)).barycenter())
    assert merged.sizes == (3,)
    assert merged.dim_g == 9 and merged.dim_v == 9


def test_dims_match_scan_oracle_all_facets():
    for n in range(2, 7):
        for f in enumerate_facets(n):
            gq = graded_quotient(f.barycenter())
            assert (gq.dim_g, gq.dim_v) == _scan_dims(f.barycenter())
            assert f.dim_gap() == gq.dim_g - gq.dim_v
            sizes = f.effective_blocks()
            if f.dim_gap() == 0:
                assert all(m == sizes[0] for m in sizes)
            else:
                assert any(m != sizes[0] for m in sizes)


def test_enumerate_facets_small():
    n2 = enumerate_facets(2)
    assert set(n2) == {FacetSpec(0, (2,)), FacetSpec(0, (1, 1)), FacetSpec(1, (1, 1))}
    assert len(enumerate_facets(3)) == 7
    for n in range(2, 9):
        assert len(enumerate_facets(n)) == 2**n - 1
        assert len(set(enumerate_facets(n))) == 2**n - 1
        assert not any(f.is_empty() for f in enumerate_facets(n))


def test_census_bound_is_checked_before_anything_is_built(monkeypatch):
    # the grid, the tests and the benchmark stay at or below n = 10
    assert building.MAX_N >= 10

    def boom(*args, **kwargs):
        raise AssertionError("built past the census bound")

    monkeypatch.setattr(building, "compositions", boom)
    monkeypatch.setattr(building, "Fraction", boom)
    monkeypatch.setattr(building.FacetSpec, "__init__", boom)
    big = building.MAX_N + 1
    builds = [
        lambda: enumerate_facets(big),
        lambda: FacetSpec.parse(f"t=1;m=1,{big - 1}"),
        lambda: FacetSpec.parse("t=0;m=4000"),
        lambda: ApartmentPoint.parse(",".join("0" * big)),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="census bound"):
            build()


def test_compositions_yield_each_composition_once():
    for n in range(1, 11):
        comps = list(compositions(n))
        # a composition is the gaps between the cuts, a subset of 1..n-1
        want = {
            tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))
            for k in range(n)
            for cuts in itertools.combinations(range(1, n), k)
        }
        assert len(comps) == len(set(comps)) == 2 ** (n - 1)
        assert set(comps) == want


def _inline_enumerate_facets(n):
    """enumerate_facets as it was written before it shared compositions."""
    comps = []
    for mask in range(1 << (n - 1)):
        parts = []
        run = 1
        for i in range(n - 1):
            if mask & (1 << i):
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        comps.append(tuple(parts))
    out = [FacetSpec(0, c) for c in comps]
    out.extend(FacetSpec(1, c) for c in comps if len(c) > 1)
    return out


def test_enumerate_facets_keeps_its_order():
    # llclab facet --list and the building census read this order
    for n in range(1, 11):
        assert enumerate_facets(n) == _inline_enumerate_facets(n)


def test_facet_round_trip():
    for n in range(2, 7):
        for f in enumerate_facets(n):
            b = f.barycenter()
            assert facet_of(b) == f
            assert is_barycenter(b)
            assert is_barycenter(translate(b, Fraction(2, 7)))


def test_nonbarycenters_lose_arrows():
    # n = 2 holds only 47 points of denominator at most 12: all of them
    for n, count in ((2, 47), (3, 60), (4, 60), (5, 60)):
        for x in sample_alcove_points(n, count, seed=100 + n):
            if is_barycenter(x):
                continue
            gq = graded_quotient(x)
            bq = graded_quotient(facet_of(x).barycenter())
            assert gq.sizes == bq.sizes
            assert set(gq.arrows) < set(bq.arrows)
            assert gq.dim_v < bq.dim_v
            assert gq.dim_g == bq.dim_g
            assert (gq.dim_g, gq.dim_v) == _scan_dims(x)


def test_parsers():
    assert FacetSpec.parse("t=0;m=2,2") == FacetSpec(0, (2, 2))
    assert FacetSpec.parse("t=1; m=1,2,1") == FacetSpec(1, (1, 2, 1))
    p = ApartmentPoint.parse("0,-1/4,-2/3")
    assert p.coords == (0, Fraction(-1, 4), Fraction(-2, 3))
    with pytest.raises(ValueError):
        FacetSpec.parse("m=2,2")


def test_sampler_stays_in_alcove():
    pts = sample_alcove_points(4, 50, max_den=12, seed=5)
    assert len(pts) == 50
    assert pts == sample_alcove_points(4, 50, max_den=12, seed=5)
    for x in pts:
        assert x.in_closed_alcove()
        assert x.coords[0] == 0
        assert all(c.denominator <= 12 for c in x.coords)
    assert len(set(pts)) == 50


def test_integer_kernels_match_fraction_oracles():
    seen = 0
    for x in oracle_points():
        seen += 1
        y = ApartmentPoint(x.coords)
        assert (y.den, y.nums) == (x.den, x.nums)
        assert x.in_closed_alcove()
        assert Fraction(jump_numerator(x), x.den) == _fraction_r_of_x(x)
        gq = graded_quotient(x)
        r, sizes, arrows, spacings = _fraction_graded_quotient(x)
        assert (Fraction(min(gq.gaps), gq.den), gq.sizes, gq.arrows) == (r, sizes, arrows)
        assert tuple(Fraction(g, x.den) for g in gq.gaps) == spacings
        assert repr(gq) == f"GradedQuotient(r={r}, sizes={sizes}, arrows={arrows})"
        assert facet_of(x) == _fraction_facet_of(x)
        assert is_barycenter(x) == _fraction_is_barycenter(x)
    assert seen == 7 * 120 * 4


def test_alcove_test_on_integers():
    assert ApartmentPoint.parse("1/2,0,-1/2").in_closed_alcove()
    assert not ApartmentPoint.parse("1/2,0,-2/3").in_closed_alcove()
    assert not ApartmentPoint.parse("0,1/3,-1/2").in_closed_alcove()
    with pytest.raises(ValueError):
        graded_quotient(ApartmentPoint.parse("0,1/3,-1/2"))


# seeded pool sizes per n of the building benchmark's point queries
POOL_SIZES = {2: 30, 3: 150, 4: 300, 5: 300, 6: 600, 7: 600, 8: 600}


def test_sampler_matches_fraction_oracle():
    for n, count in POOL_SIZES.items():
        for max_den in (12, 40):
            for seed in (0, 1, 2, 20240815):
                got = sample_alcove_points(n, count, max_den=max_den, seed=seed)
                want = _fraction_sample_alcove_points(n, count, max_den=max_den, seed=seed)
                assert [x.coords for x in got] == [x.coords for x in want]
                assert [(x.den, x.nums) for x in got] == [(x.den, x.nums) for x in want]


def test_integer_constructor_normalizes():
    x = ApartmentPoint._of_ints((0, -2), 4)
    y = ApartmentPoint([0, Fraction(-1, 2)])
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y) == "ApartmentPoint(0, -1/2)"
    assert (x.den, x.nums) == (2, (0, -1))
    origin = ApartmentPoint._of_ints((0, 0, 0), 6)
    assert (origin.den, origin.nums) == (1, (0, 0, 0))
    assert origin == ApartmentPoint([0, 0, 0])
    # a coordinate need not be reduced over the common denominator
    z = ApartmentPoint._of_ints((3, 2, -6), 12)
    assert z == ApartmentPoint([Fraction(1, 4), Fraction(1, 6), Fraction(-1, 2)])
    assert repr(z) == "ApartmentPoint(1/4, 1/6, -1/2)"
    assert x != ApartmentPoint([0, Fraction(-1, 4)])
    for nums, den in (((0, 1), 0), ((0, 1), -3), ((), 5)):
        with pytest.raises(ValueError):
            ApartmentPoint._of_ints(nums, den)


def test_sampler_rejects_bad_arguments():
    for n in (0, -2):
        with pytest.raises(ValueError, match="n must be positive"):
            sample_alcove_points(n, 3)
    for max_den in (0, -1):
        with pytest.raises(ValueError, match="max_den must be positive"):
            sample_alcove_points(3, 3, max_den=max_den)


OPTIMIZED_SAMPLER = """
from llclab.building import sample_alcove_points

assert False, "assert statements must be stripped in this interpreter"
for args in ((0, 3), (-2, 3), (3, 3, 0)):
    try:
        sample_alcove_points(*args)
    except ValueError as exc:
        print("rejected", exc)
    else:
        print("accepted", args)
"""


def test_sampler_rejects_bad_arguments_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(llclab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SAMPLER],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "rejected n must be positive",
        "rejected n must be positive",
        "rejected max_den must be positive",
    ], out.stdout


# (n, count, max_den, points the closed alcove holds at that denominator)
SHORT_POOLS = ((1, 2, 12, 1), (2, 50, 2, 3), (3, 40, 2, 6))


def test_sampler_rejects_a_short_pool():
    # the closed alcove holds finitely many points of bounded denominator:
    # asking for more must fail, not return fewer
    for n, count, max_den, found in SHORT_POOLS:
        with pytest.raises(ValueError) as err:
            sample_alcove_points(n, count, max_den=max_den)
        assert str(err.value) == (
            f"sample_alcove_points(n={n}, max_den={max_den}) can draw only {found} "
            f"distinct points, fewer than the {count} asked for"
        )


def test_sampler_rejects_a_short_pool_under_optimize():
    script = (
        "from llclab.building import sample_alcove_points\n"
        "assert False, 'assert statements must be stripped in this interpreter'\n"
        f"for n, count, max_den, _ in {SHORT_POOLS!r}:\n"
        "    try:\n"
        "        print('accepted', len(sample_alcove_points(n, count, max_den=max_den)))\n"
        "    except ValueError as exc:\n"
        "        print('rejected', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(llclab.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"rejected sample_alcove_points(n={n}, max_den={max_den}) can draw only {found} "
        f"distinct points, fewer than the {count} asked for"
        for n, count, max_den, found in SHORT_POOLS
    ], out.stdout


def _enumerated_pool(n, max_den):
    """Oracle: every point the sampler can draw, listed grid by grid."""
    points = set()
    for den in range(1, max_den + 1):
        for ks in itertools.combinations_with_replacement(range(den + 1), n - 1):
            points.add(ApartmentPoint._of_ints((0, *(-k for k in ks)), den))
    return points


def test_pool_size_matches_enumeration():
    for n in range(1, 5):
        for max_den in range(1, 9):
            assert building._alcove_pool_size(n, max_den) == len(_enumerated_pool(n, max_den))
    assert [building._alcove_pool_size(n, m) for n, _, m, _ in SHORT_POOLS] == [
        found for *_, found in SHORT_POOLS
    ]
    assert building._alcove_pool_size(2, 12) == 47


class _CountingRandom(random.Random):
    draws = 0

    def randint(self, a, b):
        type(self).draws += 1
        return super().randint(a, b)


def test_short_pool_rejected_before_any_draw(monkeypatch):
    monkeypatch.setattr(building, "random", SimpleNamespace(Random=_CountingRandom))
    _CountingRandom.draws = 0
    with pytest.raises(ValueError, match="can draw only 1 distinct points"):
        sample_alcove_points(1, 600)
    assert _CountingRandom.draws == 0
    assert len(sample_alcove_points(2, 47)) == 47
    assert _CountingRandom.draws > 0


class _StuckRandom(random.Random):
    def randint(self, a, b):
        return a


def test_sampler_still_rejects_draws_that_fall_short(monkeypatch):
    # a pool large enough for count, but draws that keep repeating one
    # point: the sampler stops after 200 * count draws
    monkeypatch.setattr(building, "random", SimpleNamespace(Random=_StuckRandom))
    with pytest.raises(ValueError) as err:
        sample_alcove_points(2, 2)
    assert str(err.value) == (
        "sample_alcove_points(n=2, max_den=12) found only 1 "
        "distinct points of the 2 asked for in 400 draws"
    )


def test_sampler_unchanged_wherever_the_pool_suffices():
    for n in range(1, 5):
        for max_den in range(1, 9):
            pool = building._alcove_pool_size(n, max_den)
            for count in sorted({1, (pool + 1) // 2, pool}):
                for seed in (0, 1):
                    want = _fraction_sample_alcove_points(n, count, max_den=max_den, seed=seed)
                    assert len(want) == count
                    got = sample_alcove_points(n, count, max_den=max_den, seed=seed)
                    assert [(x.den, x.nums) for x in got] == [(x.den, x.nums) for x in want]


def _quotient_fields(gq):
    return gq.den, gq.sizes, gq.arrows, gq.gaps


def _memo_points():
    for n in range(2, 7):
        yield from sample_alcove_points(n, 30, max_den=20, seed=700 + n)
        for f in enumerate_facets(n):
            yield f.barycenter()


def test_point_values_are_computed_once_per_object():
    # a second call hands back the object the first stored; an equal point
    # built afresh computes an equal value of its own
    for x in _memo_points():
        f, gq = facet_of(x), graded_quotient(x)
        assert facet_of(x) is f and graded_quotient(x) is gq
        assert x._facet is f and x._gq is gq
        y = ApartmentPoint(x.coords)
        assert y == x and y._facet is None and y._gq is None and y._is_bary is None
        assert facet_of(y) == f and facet_of(y) is not f
        assert _quotient_fields(graded_quotient(y)) == _quotient_fields(gq)
        assert graded_quotient(y) is not gq
        assert is_barycenter(y) == is_barycenter(x)


def test_barycenter_is_computed_once_per_facet():
    for n in range(1, 7):
        for f in enumerate_facets(n):
            b = f.barycenter()
            assert f.barycenter() is b and f._bary is b
            g = FacetSpec(f.t, f.blocks)
            assert g._bary is None and g.barycenter() == b and g.barycenter() is not b
    empty = FacetSpec(1, (3,))
    for _ in range(3):
        with pytest.raises(EmptyFacet):
            empty.barycenter()
    assert empty._bary is None


def test_points_outside_the_alcove_raise_on_every_call():
    for text in ("0,1/3,-1/2", "1/2,0,-2/3", "0,-3/2"):
        x = ApartmentPoint.parse(text)
        for _ in range(3):
            for call in (facet_of, graded_quotient, is_barycenter):
                with pytest.raises(ValueError, match="outside the closed fundamental alcove"):
                    call(x)
        assert x._facet is None and x._gq is None and x._is_bary is None


def _scan_is_barycenter(x):
    """is_barycenter as a scan of the point's numerators on every call."""
    f = facet_of(x)
    step = f.k if f.t == 0 else f.k - 1
    return all(step * (a - b) == x.den for a, b in zip(x.nums, x.nums[1:]) if a != b)


def test_is_barycenter_is_kept_and_matches_the_scan():
    # every graded-quotient type point of criterion 6 and every facet
    # barycenter for n = 2..8: the first call stores the scan's answer on
    # the point, later calls read it back, and a fresh equal point starts
    # empty
    seen = set()
    for n in range(2, 9):
        points = [x for _, _, x in selftest._quotient_types(n)]
        points += [f.barycenter() for f in enumerate_facets(n)]
        for x in points:
            want = _scan_is_barycenter(x)
            assert x._is_bary in (None, want)
            assert is_barycenter(x) is want and x._is_bary is want
            assert is_barycenter(x) is want
            y = ApartmentPoint._of_ints(x.nums, x.den)
            assert y._is_bary is None and is_barycenter(y) is want
            seen.add(want)
    assert seen == {True, False}


def test_quotient_does_not_hold_its_point():
    # the quotient keeps the denominator, so point and quotient form no
    # reference cycle and go together
    x = ApartmentPoint.parse("0,-1/5,-1/2,-3/4")
    gq = graded_quotient(x)
    assert gq.den == x.den and not hasattr(gq, "point")
    assert x not in gc.get_referents(gq)
    assert repr(gq).startswith(f"GradedQuotient(r={Fraction(min(gq.gaps), x.den)}, ")


def _fresh_values(x):
    return facet_of(x), _quotient_fields(graded_quotient(x)), is_barycenter(x)


def test_points_facets_and_quotients_are_immutable():
    x = ApartmentPoint.parse("0,-1/3,-2/3")
    f = facet_of(x)
    b = f.barycenter()
    gq = graded_quotient(x)
    for obj in (x, ApartmentPoint._of_ints((0, -1), 2), f, FacetSpec(0, (2, 1)), b, gq):
        for name in (*type(obj).__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert (x.den, x.nums) == (3, (0, -1, -2)) and facet_of(x) is f
    assert (f.t, f.blocks) == (0, (1, 1, 1)) and f.barycenter() is b
    assert _quotient_fields(gq) == (3, (1, 1, 1), ((0, 1), (1, 2), (2, 0)), (1, 1, 1))
    for clone in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))):
        assert _quotient_fields(clone(gq)) == _quotient_fields(gq)


def test_points_and_facets_copy_and_pickle_to_equal_objects():
    points = [ApartmentPoint.parse("0,-1/3,-2/3"), ApartmentPoint._of_ints((0, 0, -1, -4), 6)]
    facets = [FacetSpec(0, (2, 2)), FacetSpec(1, (1, 2, 1))]
    # with their memo slots empty and filled
    points += [ApartmentPoint.parse("0,-1/4,-1")]
    facet_of(points[-1])
    graded_quotient(points[-1])
    is_barycenter(points[-1])
    facets += [FacetSpec(0, (1, 3))]
    facets[-1].barycenter()
    clones = [copy.copy, copy.deepcopy]
    clones += [lambda o, p=p: pickle.loads(pickle.dumps(o, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for obj in (*points, *facets):
        for clone in clones:
            c = clone(obj)
            assert type(c) is type(obj) and c == obj and hash(c) == hash(obj)
            assert repr(c) == repr(obj)
            with pytest.raises(AttributeError):
                c.other = 1
    for x in points:
        for clone in clones:
            c = clone(x)
            assert (c.den, c.nums) == (x.den, x.nums)
            assert _fresh_values(c) == _fresh_values(x)
    for f in facets:
        for clone in clones:
            c = clone(f)
            assert (c.t, c.blocks) == (f.t, f.blocks) and c.barycenter() == f.barycenter()
