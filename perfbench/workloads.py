"""Seeded inputs and checked queries for the four benchmark workloads.

Every workload turns (seed, rounds) into a fixed list of queries.  A
round is one query per cell of the workload, so the number of queries
per cell, and the set of lazily built tables a run touches, do not
depend on the seed.  Each query calls the library only through ``ops``
(see tracing.py) and reports every check it makes to a ``Checks``
object.  The number of checks a query makes is fixed by its inputs and
recorded when the inputs are generated; a run whose count differs fails.
"""

from __future__ import annotations

import random
from math import gcd

import llclab as L
from llclab.stability import BRUTE_FORCE_GUARD

# ----- shared pieces ------------------------------------------------------


class Checks:
    """Attempted and failed checks, plus replayable failure records.

    A check fails when the value it compares is wrong or when the call
    producing it raises; only the first kind makes a run incorrect."""

    MAX_RECORDS = 200

    def __init__(self, workload: str, seed: int, seconds: int):
        self.context = {"workload": workload, "seed": seed, "seconds": seconds}
        self.attempted = 0
        self.wrong = 0
        self.raised = 0
        self.records: list[dict] = []

    def check(self, ok: bool, qid: int, key: dict, what: str, twist=None) -> None:
        self.attempted += 1
        if not ok:
            self.wrong += 1
            self._record(qid, key, what, twist, "wrong value")

    def error(self, exc: Exception, count: int, qid: int, key: dict, what: str, twist=None) -> None:
        """``count`` checks could not complete because a call raised."""
        self.attempted += count
        self.raised += count
        self._record(qid, key, what, twist, repr(exc), count)

    def tally(self, count: int, bad: int, qid: int, key: dict, what: str) -> None:
        """``count`` checks made in bulk, ``bad`` of them wrong."""
        self.attempted += count
        self.wrong += bad
        if bad:
            self._record(qid, key, what, None, "wrong value", bad)

    @property
    def failed(self) -> int:
        return self.wrong + self.raised

    def _record(self, qid, key, what, twist, outcome, count=1) -> None:
        if len(self.records) < self.MAX_RECORDS:
            rec = dict(self.context, query=qid, datum=key, check=what, outcome=outcome)
            rec["twist"] = twist
            if count != 1:
                rec["checks"] = count
            self.records.append(rec)


def datum_key(d) -> dict:
    return {
        "q": d.q,
        "n": d.n,
        "pi_unit": d.pi_unit,
        "omega_exp": d.omega_exp,
        "omega_at_pi": d.omega_at_pi.as_fraction_of_turn(),
        "zeta": d.zeta.as_fraction_of_turn(),
    }


def zeta_orders(q: int, n: int) -> list[int]:
    """Orders a zeta may have at (q, n): the divisors of n^2 (the grid the
    selftest covers) and of n(q-1) (every n-th root of a value of a tame
    character at the uniformizer)."""
    return sorted({k for m in (n * n, n * (q - 1)) for k in range(1, m + 1) if m % k == 0})


def legal_datum(rng: random.Random, q: int, n: int, u0: int, slot: int):
    """A datum whose zeta has exact order zeta_orders(q, n)[slot mod len]
    and a seeded primitive numerator; the central character's unit
    exponent is seeded too.  Cycling ``slot`` walks every order, so each
    seed covers the same orders the same number of times."""
    orders = zeta_orders(q, n)
    order = orders[slot % len(orders)]
    num = rng.choice([k for k in range(order) if gcd(k, order) == 1])
    zeta = L.RootOfUnity(num, order)
    return L.SSCDatum(
        q, n, zeta, omega_exp=rng.randrange(q - 1), omega_at_pi=zeta**n, pi_unit=u0
    )


def unit_cycle(rng: random.Random, q: int) -> list[int]:
    """A seeded order of the residue units; round r of a workload uses
    entry r mod (q-1), so every unit is used once per q-1 rounds."""
    units = list(range(1, q))
    rng.shuffle(units)
    return units


def valid_cells(qs, ns):
    return [(q, n) for q in qs for n in ns if n % L.field_of_size(q).p]


# ----- twist-sweep ------------------------------------------------------------

TWIST_CELLS = valid_cells((7, 9, 11, 13), (3, 4, 5))


class TwistQuery:
    __slots__ = ("d", "lams", "key")

    def __init__(self, d, lams):
        self.d = d
        self.lams = lams
        self.key = datum_key(d)

    def expected_checks(self) -> int:
        # closed Gauss value, every twisted ratio, matching, determination
        return 1 + len(self.lams) + 2


def gen_twist_sweep(rng: random.Random, rounds: int) -> list[TwistQuery]:
    lams = {}
    for q in sorted({q for q, _ in TWIST_CELLS}):
        F = L.LocalField.base_field(q)
        lams[q] = [
            (e, b, L.TameChar(F, e, L.RootOfUnity(b, q - 1)))
            for e in range(q - 1)
            for b in range(q - 1)
        ]
    cycles = {cell: unit_cycle(rng, cell[0]) for cell in TWIST_CELLS}
    out = []
    for r in range(rounds):
        for q, n in TWIST_CELLS:
            u0 = cycles[(q, n)][r % (q - 1)]
            out.append(TwistQuery(legal_datum(rng, q, n, u0, r), lams[q]))
    return out


def run_twist(ops, qid: int, t: TwistQuery, chk: Checks) -> None:
    d, key = t.d, t.key
    q, n = d.q, d.n
    ff = d.F.residue
    try:
        P = ops.build_parameter(d)
        xi = P.xi
        base = ops.gauss_sum(xi)
        chk.check(ops.graded_eq(base, ops.graded_mul(xi.at_pi, q)), qid, key, "gauss closed form")
        signed = ops.elem(d.F, 1, (d.pi_unit if (n - 1) % 2 == 0 else ff.neg(d.pi_unit),))
    except Exception as exc:
        chk.error(exc, 1 + len(t.lams), qid, key, "gauss base")
    else:
        for e, b, lam in t.lams:
            try:
                tw = ops.gauss_sum(ops.twist_by_base(xi, lam))
                ok = ops.graded_eq(tw, ops.graded_mul(base, ops.tame_call(lam, signed)))
            except Exception as exc:
                chk.error(exc, 1, qid, key, "twisted gauss ratio", [e, b])
            else:
                chk.check(ok, qid, key, "twisted gauss ratio", [e, b])
    try:
        rep = ops.verify_matching(d, include_integral=False)
        ok = rep["all_equal"] and rep["central_character_matches"]
    except Exception as exc:
        chk.error(exc, 1, qid, key, "epsilon matching")
    else:
        chk.check(ok, qid, key, "epsilon matching")
    try:
        T = ops.table_of_datum(d)
        res = ops.determine(T, d.omega, n, q)
        got = res.datum
        ok = (
            res.complete
            and res.zeta == d.zeta
            and res.pi_unit == d.pi_unit
            and got is not None
            and got.omega_exp == d.omega_exp
            and got.omega_at_pi == d.omega_at_pi
        )
    except Exception as exc:
        chk.error(exc, 1, qid, key, "determination round trip")
    else:
        chk.check(ok, qid, key, "determination round trip")


# ----- whittaker-eval -------------------------------------------------------

WHITTAKER_CELLS = ((3, 4), (5, 3), (5, 4))
SHELL_BOUND = 1
DEPTH = 2


class WhittakerQuery:
    """One evaluation point.  ``planted`` is (u, r, s, dv, k) when g was
    built as u * rotation^r * (s t^dv) * k, else None."""

    __slots__ = ("d", "g", "planted", "key")

    def __init__(self, d, g, planted):
        self.d = d
        self.g = g
        self.planted = planted
        self.key = datum_key(d)

    def expected_checks(self) -> int:
        # multiply-back, then value (planted) or support consistency (dense)
        return 2


def _shell_elem(rng, F, q):
    return F.elem(-SHELL_BOUND, [rng.randrange(q) for _ in range(DEPTH + SHELL_BOUND)])


def planted_point(rng: random.Random, d):
    """u * rotation^r * central(s, dv) * k with u upper unipotent over the
    shells and k in the pro-unipotent Iwahori, as in support_check."""
    F, n, q = d.F, d.n, d.q
    rows = [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = _shell_elem(rng, F, q)
    u = L.MatG(F, rows)
    r = rng.randrange(2 * n)
    s = 1 + rng.randrange(q - 1)
    dv = rng.randrange(-1, 2)
    mono = d.rotation_class(r).compose(L.MonomialClass.central(F, n, s, dv))
    krows = [
        [
            F.elem(1 if i > j else 0, [rng.randrange(q) for _ in range(DEPTH)])
            for j in range(n)
        ]
        for i in range(n)
    ]
    for i in range(n):
        krows[i][i] = F.one() + F.elem(1, [rng.randrange(q) for _ in range(DEPTH)])
    k = L.MatG(F, krows)
    return u * mono.as_matrix() * k, (u, r, s, dv, k)


def dense_point(rng: random.Random, d):
    """A matrix with every entry drawn over the shells, redrawn until its
    determinant is nonzero so that it lies in GL_n."""
    F, n, q = d.F, d.n, d.q
    while True:
        g = L.MatG(F, [[_shell_elem(rng, F, q) for _ in range(n)] for _ in range(n)])
        if not g.det().is_exact_zero():
            return g


def gen_whittaker_eval(rng: random.Random, rounds: int) -> list[WhittakerQuery]:
    cycles = {cell: unit_cycle(rng, cell[0]) for cell in WHITTAKER_CELLS}
    out = []
    for r in range(rounds):
        for q, n in WHITTAKER_CELLS:
            d = legal_datum(rng, q, n, cycles[(q, n)][r % (q - 1)], r)
            if r % 2 == 0:
                g, planted = planted_point(rng, d)
            else:
                g, planted = dense_point(rng, d), None
            out.append(WhittakerQuery(d, g, planted))
    return out


def run_whittaker(ops, qid: int, w: WhittakerQuery, chk: Checks) -> None:
    d, g, key = w.d, w.g, w.key
    try:
        val = ops.whittaker_root(d, g)
        u, mono, k = ops.decompose(g)
        back = ops.mat_mul(ops.mat_mul(u, ops.as_matrix(mono)), k)
        ok = ops.mat_agrees(back, g)
    except Exception as exc:
        chk.error(exc, 2, qid, key, "whittaker value")
        return
    chk.check(ok, qid, key, "u*M*k multiplies back to g")
    try:
        if w.planted is not None:
            pu, r, s, dv, pk = w.planted
            expected = ops.root_mul(ops.psi_u(d, pu), ops.extended_char(d, r, s, dv, pk))
            ok = val is not None and val == expected
            what = "planted value"
        else:
            hit = ops.match_rotation(mono, d.pi_unit)
            ok = (val is None) == (hit is None)
            what = "support consistency"
    except Exception as exc:
        chk.error(exc, 1, qid, key, "whittaker expected value")
    else:
        chk.check(ok, qid, key, what)


# ----- integral-pairs -------------------------------------------------------

PAIR_CELLS = ((3, 2), (3, 4), (5, 2), (5, 3))
PAIR_TWISTS = 3
K_WORD_STEPS = 400


class PairQuery:
    __slots__ = ("d", "d2", "twists", "words_key", "word_seed", "key")

    def __init__(self, d, d2, twists, word_seed):
        self.d = d
        self.d2 = d2
        self.twists = twists
        self.words_key = (d.q, d.n, *sorted((d.pi_unit, d2.pi_unit)))
        self.word_seed = word_seed
        self.key = datum_key(d)
        self.key["partner"] = datum_key(d2)

    def expected_checks(self) -> int:
        # three-way epsilon per twist, mirabolic agreement, two k-checks
        return len(self.twists) + 3


def partner_datum(rng: random.Random, d, u2: int):
    """A datum at uniformizer unit u2 sharing d's central character; its
    zeta is a seeded n-th root of omega(u2 * t)."""
    at_pi = d.omega(d.F.elem(1, (u2,)))
    zeta = L.RootOfUnity(at_pi.num + at_pi.order * rng.randrange(d.n), d.n * at_pi.order)
    return L.SSCDatum(d.q, d.n, zeta, omega_exp=d.omega_exp, omega_at_pi=at_pi, pi_unit=u2)


def gen_integral_pairs(rng: random.Random, rounds: int) -> list[PairQuery]:
    cycles = {cell: unit_cycle(rng, cell[0]) for cell in PAIR_CELLS}
    word_seed = rng.randrange(1 << 30)
    out = []
    for r in range(rounds):
        for q, n in PAIR_CELLS:
            units = cycles[(q, n)]
            d = legal_datum(rng, q, n, units[r % (q - 1)], r)
            d2 = partner_datum(rng, d, units[(r + 1) % (q - 1)])
            F = d.F
            twists = []
            for _ in range(PAIR_TWISTS):
                e, b = rng.randrange(q - 1), rng.randrange(q - 1)
                twists.append((e, b, L.TameChar(F, e, L.RootOfUnity(b, q - 1))))
            out.append(PairQuery(d, d2, twists, word_seed))
    return out


def run_pairs(ops, qid: int, p: PairQuery, chk: Checks, words_memo: dict) -> None:
    """``words_memo`` is the benchmark's own table of sampled k-words, one
    walk per unordered pair of uniformizer units in a cell."""
    d, key = p.d, p.key
    try:
        P = ops.build_parameter(d)
    except Exception as exc:
        chk.error(exc, len(p.twists), qid, key, "galois parameter")
    else:
        for e, b, lam in p.twists:
            try:
                a = ops.gamma(d, lam)
                g = ops.epsilon_galois(P, lam)
                c = ops.closed_form(d, lam)
                ok = ops.eps_eq(a, g) and ops.eps_eq(g, c)
            except Exception as exc:
                chk.error(exc, 1, qid, key, "three-way epsilon", [e, b])
            else:
                chk.check(ok, qid, key, "three-way epsilon", [e, b])
    try:
        rep = ops.mirabolic_agreement(ops.pair_config(d, p.d2))
        ok = rep["all_equal"] and rep["support_ok"]
    except Exception as exc:
        chk.error(exc, 1, qid, key, "mirabolic agreement")
    else:
        chk.check(ok, qid, key, "mirabolic agreement")
    try:
        words = words_memo.get(p.words_key)
        if words is None:
            words = ops.sample_k_words(*p.words_key, steps=K_WORD_STEPS, seed=p.word_seed)
            words_memo[p.words_key] = words
    except Exception as exc:
        chk.error(exc, 2, qid, key, "k-special words")
        return
    for x in (d, p.d2):
        try:
            ok = ops.k_special_check(x, words)["ok"]
        except Exception as exc:
            chk.error(exc, 1, qid, key, "k-special check")
        else:
            chk.check(ok, qid, key, "k-special check")


# ----- building-census ------------------------------------------------------

CENSUS_NS = tuple(range(2, 9))
CENSUS_Q = 3
# brute-force contraction runs where q^dim_v stays at or below this; the
# certificate itself is verified at every point
BRUTE_CAP = CENSUS_Q**7
# seeded candidates per n; few distinct points exist at small n
POINT_POOL = {2: 30, 3: 150, 4: 300, 5: 300}
POINT_POOL_DEFAULT = 600
MAX_POINT_DIM = 16


class CensusQuery:
    """kind is 'census' (every facet of GL_n, one query per n) or 'point'
    (point, dim_v)."""

    __slots__ = ("kind", "n", "item", "dim_v", "key")

    def __init__(self, kind, n, item=None, dim_v=0):
        self.kind = kind
        self.n = n
        self.item = item
        self.dim_v = dim_v
        self.key = {"n": n, kind: repr(item) if item is not None else None}

    def brute(self) -> bool:
        return self.kind == "point" and CENSUS_Q**self.dim_v <= min(BRUTE_CAP, BRUTE_FORCE_GUARD)

    def expected_checks(self) -> int:
        if self.kind == "census":
            return 1 + 3 * (2**self.n - 1)
        return 1 + (CENSUS_Q**self.dim_v if self.brute() else 0)


def gen_building_census(rng: random.Random, rounds: int) -> list[CensusQuery]:
    """The facet census of each n = 2..8 as one query, then per n and per
    dim_v up to MAX_POINT_DIM, ``rounds`` seeded nonbarycenter points of
    that dimension (fewer where the seeded pool has fewer).

    One query per facet would add some 500 cheap queries and push the
    tail percentile down to the cheapest of the largest brute-force
    points, whose cost varies threefold from point to point; then the
    tail would depend on the seed more than on the code."""
    out = [CensusQuery("census", n) for n in CENSUS_NS]
    for n in CENSUS_NS:
        by_dim: dict[int, list] = {}
        size = POINT_POOL.get(n, POINT_POOL_DEFAULT)
        pool = L.sample_alcove_points(n, size, seed=rng.randrange(1 << 30))
        for x in pool:
            if L.is_barycenter(x):
                continue
            dv = L.graded_quotient(x).dim_v
            if dv <= MAX_POINT_DIM:
                by_dim.setdefault(dv, []).append(x)
        for dv in sorted(by_dim):
            out.extend(CensusQuery("point", n, x, dv) for x in by_dim[dv][:rounds])
    return out


def check_facet(ops, qid: int, key: dict, f, chk: Checks) -> None:
    steps = ("barycenter round trip", "dimension formulas", "facet certificate")
    done = 0
    try:
        b = ops.barycenter(f)
        chk.check(ops.facet_of(b) == f, qid, key, steps[0])
        done += 1
        gq = ops.graded_quotient(b)
        dims = ops.root_count_dims(b)
        ok = (gq.dim_g, gq.dim_v) == dims and f.dim_gap() == dims[0] - dims[1]
        chk.check(ok, qid, key, steps[1])
        done += 1
        cert = ops.stability_certificate(f, CENSUS_Q)
        ok = isinstance(cert, L.StableExists) == f.is_alcove() and ops.verify_certificate(cert)
    except Exception as exc:
        chk.error(exc, 3 - done, qid, key, steps[done])
    else:
        chk.check(ok, qid, key, steps[2])


def run_census(ops, qid: int, c: CensusQuery, chk: Checks) -> None:
    key = c.key
    if c.kind == "census":
        try:
            facets = ops.enumerate_facets(c.n)
            ok = len(facets) == 2**c.n - 1 and len(set(facets)) == len(facets)
        except Exception as exc:
            chk.error(exc, c.expected_checks(), qid, key, "facet census")
            return
        chk.check(ok, qid, key, "facet census")
        for f in facets:
            check_facet(ops, qid, dict(key, facet=repr(f)), f, chk)
        return
    x = c.item
    try:
        cert = ops.destabilize(x)
        ok = ops.verify_certificate(cert)
    except Exception as exc:
        chk.error(exc, c.expected_checks(), qid, key, "destabilizing cocharacter")
        return
    chk.check(ok, qid, key, "destabilizing cocharacter")
    if not c.brute():
        return
    want = CENSUS_Q**c.dim_v
    seen = bad = 0
    try:
        gq = ops.graded_quotient(x)
        for lam in ops.enumerate_functionals(gq, CENSUS_Q):
            seen += 1
            if not ops.contracts_functional(cert, lam):
                bad += 1
    except Exception as exc:
        chk.error(exc, max(want - seen, 0), qid, key, "functional contraction")
    # one check per functional enumerated; a short or long enumeration
    # shows up as a check count that differs from the expected one
    chk.tally(seen, bad, qid, key, "functional contraction")


# ----- registry -----------------------------------------------------------------

GENERATORS = {
    "twist-sweep": gen_twist_sweep,
    "whittaker-eval": gen_whittaker_eval,
    "integral-pairs": gen_integral_pairs,
    "building-census": gen_building_census,
}

# rounds per second of requested run length, fitted so that the
# repetitions of one run (see run.py) take about --seconds together on a
# 2-core x86-64 machine, and up to 1.5 times that while other tenants
# slow its CPU down
ROUNDS_PER_SECOND = {
    "twist-sweep": 0.6,
    "whittaker-eval": 5.0,
    "integral-pairs": 0.35,
    "building-census": 0.4,
}


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(ROUNDS_PER_SECOND[workload] * seconds))


def generate(workload: str, seed: int, seconds: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, rounds_for(workload, seconds))


def make_runner(workload: str, ops, chk: Checks):
    """Return run(qid, query) for the workload, closing over its state."""
    if workload == "twist-sweep":
        return lambda qid, x: run_twist(ops, qid, x, chk)
    if workload == "whittaker-eval":
        return lambda qid, x: run_whittaker(ops, qid, x, chk)
    if workload == "integral-pairs":
        words_memo: dict = {}
        return lambda qid, x: run_pairs(ops, qid, x, chk, words_memo)
    if workload == "building-census":
        return lambda qid, x: run_census(ops, qid, x, chk)
    raise KeyError(workload)
