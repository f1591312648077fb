"""Full-grid selftest: every headline identity replayed over the grid it
is claimed for, with exact equality everywhere.

A criterion is declared once, by _criterion(num, name, phases=...,
digest=...) on a body body(scale, tally).  The body only runs checks:
it counts them in tally.checked, appends failure records to
tally.failures and answer records to tally.answers, times its phases
with "with tally.phase(name):", and returns its extra report keys.  The
runner the declaration returns, criterion_*(scale=None), keeps the
clock and writes the report: criterion, name, ok, checked,
failure_count, failures (the first MAX_REPORTED_FAILURES) and seconds,
then the extras, phases (whole milliseconds) and digest.  CRITERIA is
the tuple of the runners; the CLI and the acceptance tests call them.

The environment variable LLC_SELFTEST_SCALE (or the scale argument)
switches between "full" (the default, minutes) and "small", which cuts
every grid to a smoke version exercising the same code paths in
seconds.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from collections import defaultdict
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import combinations

from .bruhat import MonomialClass, decompose
from .building import (
    ApartmentPoint,
    compositions,
    enumerate_facets,
    facet_of,
    graded_quotient,
    is_barycenter,
)
from .characters import AdditiveCharPsi, TameChar
from .cyclotomic import CycloNumber, RootOfUnity
from .errors import InsufficientPrecision, LLCError, ZeroInput
from .finitefield import field_of_size
from .galois import build_parameter, det_parameter, gauss_sum_bruteforce
from .laurent import ZERO_T, LocalField, add_t, minors_t, mul_t, wrap
from .matching import EpsilonTable, determine_from_table, twist_char, verify_matching
from .matrices import MatG
from .monomials import EpsMonomial, LambdaGraded, interned_counts
from .pairs import PairConfig, cached_k_words, k_special_check, mirabolic_agreement
from .stability import (
    NoStableDimGap,
    StableExists,
    _mmul,
    _rank_profile,
    destabilizing_cocharacter,
    root_count_dims,
    stability_certificate,
    verify_certificate,
)
from .supercuspidal import SSCDatum
from .zeta import gamma_automorphic, zeta_psi, zeta_psi_tilde

SCALE_ENV = "LLC_SELFTEST_SCALE"

MAX_REPORTED_FAILURES = 10


def resolve_scale(scale: str | None = None) -> str:
    if scale is None:
        scale = os.environ.get(SCALE_ENV, "full")
    if scale not in ("small", "full"):
        raise ValueError(f"selftest scale must be 'small' or 'full', got {scale!r}")
    return scale


def _valid_cells(qs, ns):
    out = []
    for q in qs:
        p = field_of_size(q).p
        out.extend((q, n) for n in ns if n % p)
    return out


# the headline grid: every odd prime power q up to 13 against every
# degree up to 6 coprime to the residue characteristic
GAUSS_QS = (3, 5, 7, 9, 11, 13)
GAUSS_NS = (2, 3, 4, 5, 6)


def gauss_cells(scale: str) -> list[tuple[int, int]]:
    if scale == "full":
        return _valid_cells(GAUSS_QS, GAUSS_NS)
    return _valid_cells((3, 5), (2, 3))


@lru_cache(maxsize=None)
def _datum(q: int, n: int, znum: int, e_om: int, u0: int) -> SSCDatum:
    zeta = RootOfUnity(znum, n * n)
    return SSCDatum(q, n, zeta, omega_exp=e_om, omega_at_pi=zeta**n, pi_unit=u0)


def datum_grid(q: int, n: int):
    """All data at (q, n): uniformizer class x central character exponent
    x root of unity, with omega(pi) read off from the root."""
    for u0 in range(1, q):
        for e_om in range(q - 1):
            for znum in range(n * n):
                yield _datum(q, n, znum, e_om, u0)


@lru_cache(maxsize=None)
def _parameter(q: int, n: int, znum: int, e_om: int, u0: int):
    return build_parameter(_datum(q, n, znum, e_om, u0))


def _datum_key(d: SSCDatum) -> dict:
    return {
        "q": d.q,
        "n": d.n,
        "pi_unit": d.pi_unit,
        "omega_exp": d.omega_exp,
        "zeta": d.zeta.as_fraction_of_turn(),
    }


def answer_digest(records) -> str:
    """SHA-256, as hex, of records in order.  Each record is a compact
    tuple of ints, strings and such tuples: their repr depends on neither
    PYTHONHASHSEED nor the order of any dict, so equal answers give equal
    digests in every process.  The whole sequence is written out once
    and hashed in one call."""
    return hashlib.sha256(repr(tuple(records)).encode()).hexdigest()


def _whole_ms(phases: dict) -> dict:
    # whole milliseconds, rounded down, so they sum to at most seconds
    return {name: math.floor(v * 1000) / 1000 for name, v in phases.items()}


class _Tally:
    """What a criterion body records, as the module docstring describes.
    Phases do not nest."""

    def __init__(self, phases):
        self.checked = 0
        self.failures: list = []
        self.phases = dict.fromkeys(phases, 0.0)
        self.answers: list = []

    def phase(self, name: str) -> _Tally:
        self._open = name
        return self

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.phases[self._open] += time.perf_counter() - self._start


def _criterion(num: int, name: str, phases: tuple = (), digest: bool = False):
    """Declare criterion num as the module docstring describes; the runner
    keeps the body's name and docstring."""
    def declare(body):
        def run(scale: str | None = None) -> dict:
            scale = resolve_scale(scale)
            t0 = time.perf_counter()
            tally = _Tally(phases)
            extra = body(scale, tally)
            if phases:
                extra["phases"] = _whole_ms(tally.phases)
            if digest:
                extra["digest"] = answer_digest(tally.answers)
            return {
                "criterion": num,
                "name": name,
                "ok": not tally.failures,
                "checked": tally.checked,
                "failure_count": len(tally.failures),
                "failures": tally.failures[:MAX_REPORTED_FAILURES],
                "seconds": round(time.perf_counter() - t0, 3),
                **extra,
            }
        run.num = num
        run.__name__, run.__qualname__, run.__doc__ = body.__name__, body.__qualname__, body.__doc__
        return run

    return declare


# ----- 1: Gauss sums against the closed value ----------------------------


@_criterion(1, "gauss closed form")
def criterion_gauss_closed_form(scale: str, tally: _Tally) -> dict:
    """Brute-force character sum == (value at the uniformizer) * q, for
    every datum on the full grid.

    distinct counts the (left, right) value pairs compared, 344 on the
    full grid; values are interned, so a pair is two object identities.
    It is a different quantity from the 42 (q, e) keys of the cached
    inner sum that the checks read."""
    cells = gauss_cells(scale)
    compared = set()
    for q, n in cells:
        for u0 in range(1, q):
            for e_om in range(q - 1):
                for znum in range(n * n):
                    P = _parameter(q, n, znum, e_om, u0)
                    tally.checked += 1
                    left, right = gauss_sum_bruteforce(P.xi), P.xi.at_pi * q
                    compared.add((left, right))
                    if left != right:
                        tally.failures.append(_datum_key(P.ssc))
    return {"cells": cells, "distinct": len(compared), "interned": interned_counts()}


# ----- 2: twisted Gauss sums ---------------------------------------------


@_criterion(2, "twisted gauss ratio")
def criterion_gauss_twist(scale: str, tally: _Tally) -> dict:
    """Twisting the inducing character by a tame character multiplies the
    Gauss sum by the twist at the signed uniformizer.

    It compares once per key (q, n, u0, omega's exponent, twist), at
    zeta = 1.  The root zeta enters both sides only as the common factor
    of xi(pi_E) = Lambda^-1 zeta, and unit products are exact, so the
    comparison at zeta is the one at zeta = 1 times zeta: it holds at
    every zeta or at none.  Omega's exponent is no such factor: it moves
    xi's tame exponent, and so the inner sum.

    checked counts the comparisons made, 173,520 on the full grid;
    stands_for counts the (datum, twist) pairs they cover, n^2 per
    comparison, 3,084,560.  distinct counts the (left, right) value pairs
    compared, as in criterion 1: 42 on the full grid."""
    cells = gauss_cells(scale)
    compared = set()
    stands_for = 0
    for q, n in cells:
        F = LocalField.base_field(q)
        lams = [
            TameChar(F, e, RootOfUnity(b, q - 1))
            for e in range(q - 1)
            for b in range(q - 1)
        ]
        for u0 in range(1, q):
            # the signed uniformizer (-1)^(n-1) u0 t, as the norm of the
            # ramified variable u, a root of X^n - u0 t
            E = F.extension(n, u0)
            signed = E.norm_to_base(E.variable())
            at_signed = [(lam, lam(signed)) for lam in lams]
            for e_om in range(q - 1):
                P = _parameter(q, n, 0, e_om, u0)
                base = gauss_sum_bruteforce(P.xi)
                tally.checked += len(at_signed)
                stands_for += n * n * len(at_signed)
                for lam, move in at_signed:
                    tw, want = gauss_sum_bruteforce(P.xi.twist_by_base(lam)), base * move
                    compared.add((tw, want))
                    if tw != want:
                        bad = _datum_key(P.ssc)
                        bad["twist"] = [lam.exp_unit, lam.at_var.as_fraction_of_turn()]
                        tally.failures.append(bad)
    return {"cells": cells, "stands_for": stands_for, "distinct": len(compared),
            "interned": interned_counts()}


# ----- 3: zeta integrals collapse to monomials ---------------------------

# unit exponent and value at t generate the tame twists appearing in the
# epsilon tables; (0,0) is the untwisted case
ZETA_TWISTS = ((0, 0), (1, 0), (0, 1))


@_criterion(3, "zeta integral collapse", phases=("principal", "dual"))
def criterion_zeta_collapse(scale: str, tally: _Tally) -> dict:
    """Principal integral == q^-1 at working depths 2 and 3, and dual
    integral == zeta * lam(pi) * q^(-1/2) q^(-s) at depth 2; the dual's
    depth 3 is compared inside _dual_row's stable-row check.

    phases splits the time between the zeta_psi calls (principal) and the
    zeta_psi_tilde calls (dual), the table builds each call triggers
    included."""
    cells = gauss_cells(scale)
    for q, n in cells:
        F = LocalField.base_field(q)
        principal = EpsMonomial(q, LambdaGraded.one(), Fraction(-1), 0)
        for u0 in range(1, q):
            for znum in range(n * n):
                for e_om in (0, 1):
                    d = _datum(q, n, znum, e_om, u0)
                    pi = d.pi_elem()
                    for e, b in ZETA_TWISTS:
                        lam = TameChar(F, e, RootOfUnity(b, q - 1))
                        unit = LambdaGraded.from_cyclo(d.zeta * lam(pi))
                        dual = EpsMonomial(q, unit, Fraction(-1, 2), -1)
                        tally.checked += 1
                        bad = []
                        with tally.phase("principal"):
                            if zeta_psi(d, lam) != principal:
                                bad.append("principal depth 2")
                            if zeta_psi(d, lam, m=3) != principal:
                                bad.append("principal depth 3")
                        with tally.phase("dual"):
                            if zeta_psi_tilde(d, lam) != dual:
                                bad.append("dual")
                        if bad:
                            entry = _datum_key(d)
                            entry["twist"] = [e, b]
                            entry["parts"] = bad
                            tally.failures.append(entry)
    return {"cells": cells}


# ----- 4: the two epsilon computations agree -----------------------------


@_criterion(4, "epsilon matching")
def criterion_matching(scale: str, tally: _Tally) -> dict:
    """Galois-side epsilon == closed form == integral path, and the reduced
    determinant character equals the central character, for every datum
    and every unit twist.

    twisted_determinants counts the checks that the determinant of each
    twisted parameter, det(Ind(xi * lam o N)), is omega * lam^n in its
    unit exponent and its value at pi: 292,520 on the full grid, one per
    datum and twist.  A Gauss sum of a depth-one character does not see
    its tame unit exponent, so this is the check that sees a twist which
    leaves that exponent alone."""
    cells = gauss_cells(scale)
    with_integral, twisted = 0, 0
    for q, n in cells:
        F = LocalField.base_field(q)
        # every unit twist, each with its n-th power
        twists = [(e, 0) for e in range(q - 1)]
        lams = [twist_char(F, e, b) for e, b in twists]
        powers = [lam**n for lam in lams]
        for d in datum_grid(q, n):
            rep = verify_matching(d, twists)
            tally.checked += 1
            if any("automorphic" in row for row in rep["twists"]):
                with_integral += 1
            if not (rep["all_equal"] and rep["central_character_matches"]):
                bad = _datum_key(d)
                bad["central_character_matches"] = rep["central_character_matches"]
                bad["twists"] = [
                    {"twist": row["twist"],
                     **{side: row[side].to_json() for side in ("closed", "galois", "automorphic")
                        if side in row}}
                    for row in rep["twists"]
                    if not row["equal"]
                ]
                tally.failures.append(bad)
            P = build_parameter(d)
            for twist, lam, lam_n in zip(twists, lams, powers):
                want, det = d.omega * lam_n, det_parameter(P, lam)
                twisted += 1
                if (det.exp_unit != want.exp_unit
                        or det.at_pi != LambdaGraded(0, want.of_leading(1, d.pi_unit))):
                    bad = _datum_key(d)
                    bad["twist"] = list(twist)
                    bad["check"] = "twisted determinant"
                    tally.failures.append(bad)
    return {"cells": cells, "with_integral_path": with_integral,
            "twisted_determinants": twisted, "interned": interned_counts()}


# ----- 5: tables determine the datum -------------------------------------


@_criterion(5, "determination round trip")
def criterion_determination(scale: str, tally: _Tally) -> dict:
    """Round trip datum -> twisted-epsilon table -> datum, and pairwise
    distinctness of the tables among the data sharing a central
    character."""
    cells = gauss_cells(scale)
    failures = tally.failures
    tables: dict[tuple, set] = defaultdict(set)
    sizes: dict[tuple, int] = defaultdict(int)
    for q, n in cells:
        for d in datum_grid(q, n):
            T = EpsilonTable.of_datum(d)
            tally.checked += 1
            try:
                res = determine_from_table(T, d.omega, n, q)
            except Exception as exc:
                entry = _datum_key(d)
                entry["error"] = repr(exc)
                failures.append(entry)
                continue
            got = res.datum
            round_ok = (
                res.complete
                and res.zeta == d.zeta
                and res.pi_unit == d.pi_unit
                and got is not None
                and got.omega_exp == d.omega_exp
                and got.omega_at_pi == d.omega_at_pi
            )
            if not round_ok:
                failures.append(_datum_key(d))
            at_t = d.omega.at_var
            ckey = (q, n, d.omega_exp, at_t.num, at_t.order)
            sizes[ckey] += 1
            tables[ckey].add(tuple(sorted(T.entries.items())))
    per_cell: dict[tuple, int] = defaultdict(int)
    for ckey, count in sizes.items():
        per_cell[(ckey[0], ckey[1])] += count
        distinct = len(tables[ckey])
        if distinct != count:
            failures.append(
                {"class": list(ckey), "data": count, "distinct_tables": distinct}
            )
    for (q, n), total in per_cell.items():
        if total != (q - 1) ** 2 * n * n:
            failures.append({"q": q, "n": n, "reason": "class sizes do not cover the grid"})
    return {"cells": cells, "classes": len(sizes), "interned": interned_counts()}


# ----- 6: facets, dimensions, stability certificates ---------------------


def _census(f) -> tuple[tuple[int, int], str | None]:
    """The root counts (dim G, dim V) at f's barycenter, and why f fails
    its barycenter round trip or its dimension counts, or None."""
    b = f.barycenter()
    dims = root_count_dims(b)
    if facet_of(b) != f:
        return dims, "barycenter round trip"
    gq = graded_quotient(b)
    if (gq.dim_g, gq.dim_v) != dims:
        return dims, "dimension formulas disagree with root count"
    if f.dim_gap() != dims[0] - dims[1]:
        return dims, "gap formula disagrees with dimension difference"
    return dims, None


def _carried(cert) -> tuple:
    """What a barycenter certificate carries besides its facet: the
    stabilizer counts, the two dimensions, or the witness blocks."""
    if isinstance(cert, StableExists):
        return cert.q, cert.stab_count_q, cert.stab_count_q2
    if isinstance(cert, NoStableDimGap):
        return cert.dim_g, cert.dim_v
    return cert.q, cert.x_blocks, cert.w_blocks


def _quotient_types(n: int):
    """(sizes, arrows, point) for every graded-quotient type of GL_n: class
    sizes a composition of n, a nonempty set of present cyclic arrows, and
    j = 1..sizes[0] of the first class at x_1, the rest at x_1 - 1 across
    the wrap-around wall; spacing 1 after a present arrow, 2 after a
    missing one."""
    for sizes in compositions(n):
        K = len(sizes)
        for mask in range(1, 1 << K):
            arrows = tuple((a, (a + 1) % K) for a in range(K) if mask >> a & 1)
            gaps = [1 if mask >> a & 1 else 2 for a in range(K)]
            middle = [-sum(gaps[:a]) for a in range(1, K) for _ in range(sizes[a])]
            D = sum(gaps)
            for j in range(1, sizes[0] + 1):
                nums = [0] * j + middle + [-D] * (sizes[0] - j)
                yield sizes, arrows, ApartmentPoint._of_ints(nums, D)


def _cycle_is_nilpotent(gq) -> bool:
    """Whether E_00 on every arrow of an all-arrows quotient has a nilpotent
    cycle product over F_3.  A product that is not nilpotent has a nonzero
    invariant, so no cocharacter contracts that functional."""
    ff = field_of_size(3)
    shapes = map(gq.arrow_shape, gq.arrows)
    e00 = [tuple(tuple(int(i == j == 0) for j in range(c)) for i in range(r)) for r, c in shapes]
    return _rank_profile(ff, reduce(partial(_mmul, ff), e00))[-1] == 0


@_criterion(6, "facets and stability", phases=("barycenters", "nonbarycenters"), digest=True)
def criterion_stability(scale: str, tally: _Tally) -> dict:
    """Every graded-quotient type for n = 2..8 (2..4 at small scale), at
    each split of its first class: graded_quotient gives the type back,
    is_barycenter holds exactly when every arrow is present, and a point
    missing an arrow has a destabilizing cocharacter that verifies.  An
    all-arrows point is a facet barycenter: its facet passes the census,
    its certificate verifies, and E_00 on every arrow witnesses that no
    cocharacter contracts it.  The facets reached are enumerate_facets(n).

    digest is answer_digest over one record per point that passes, in
    grid order: a facet's t, blocks, root counts, certificate kind and
    what the certificate carries; a missing-arrow point's weights and
    missing arrow.  phases splits the time between all-arrows points,
    their facet census included, and points with a missing arrow."""
    ns = range(2, 9) if scale == "full" else range(2, 5)
    points_checked = 0
    for n in ns:
        reached = []
        for sizes, arrows, x in _quotient_types(n):
            full = len(arrows) == len(sizes)
            tally.checked += full
            points_checked += not full
            with tally.phase("barycenters" if full else "nonbarycenters"):
                try:
                    if full:
                        f = facet_of(x)
                        reached.append(f)
                    gq = graded_quotient(x)
                    if (gq.sizes, gq.arrows) != (sizes, arrows):
                        raise ValueError(f"wrong type {gq!r}")
                    if is_barycenter(x) != full:
                        raise ValueError("is_barycenter disagrees with the arrows")
                    # verify_certificate raises LLCError unless it accepts
                    if not full:
                        cert = destabilizing_cocharacter(x)
                        verify_certificate(cert)
                        tally.answers.append((cert.weights, cert.missing_arrow))
                    else:
                        dims, reason = _census(f)
                        if reason is not None:
                            raise ValueError(reason)
                        cert = stability_certificate(f, 3)
                        if isinstance(cert, StableExists) != f.is_alcove():
                            raise ValueError("stable certificate on the wrong facet kind")
                        verify_certificate(cert)
                        if _cycle_is_nilpotent(gq):
                            raise ValueError("cycle product of E_00 is nilpotent")
                        tally.answers.append((f.t, f.blocks, dims, cert.kind, _carried(cert)))
                except Exception as exc:
                    # the point as llclab facet --point reads it
                    tally.failures.append(
                        {"n": n, "point": ",".join(map(str, x.coords)), "reason": repr(exc)}
                    )
        facets = enumerate_facets(n)
        distinct = set(reached)
        if not len(distinct) == len(reached) == len(facets) == 2**n - 1 or distinct != set(facets):
            tally.failures.append(
                {"n": n, "reason": f"reached {len(reached)} of {len(facets)} facets"})
    return {"degrees": list(ns), "nonbarycenter_points": points_checked}


# ----- 7: equal-central-character pairs ----------------------------------

PAIR_CELLS = ((3, 2), (3, 4), (5, 2), (5, 3), (5, 4))


@_criterion(7, "whittaker pair invariance", phases=("walks", "mirabolic", "k_check"))
def criterion_pairs(scale: str, tally: _Tally) -> dict:
    """For every pair of data sharing a central character: the Whittaker
    functions agree on the mirabolic subgroup (full depth-2 enumeration)
    and conjugation symmetry holds along sampled words in the compact
    group generated by both rotations.  phases times the walks, the
    mirabolic tables and agreement, and the conjugation checks."""
    cells = PAIR_CELLS if scale == "full" else ((3, 2), (5, 2))
    steps = 10_000 if scale == "full" else 2_000
    k_runs = 0
    for q, n in cells:
        # central characters agree as characters of the base field, so
        # the grouping key is the unit exponent plus the value at t
        groups: dict[tuple, list] = defaultdict(list)
        for d in datum_grid(q, n):
            groups[(d.omega_exp, d.omega.at_var)].append(d)
        # every class carries at least the n data refining one omega(pi),
        # and the classes partition the grid
        if sum(len(v) for v in groups.values()) != (q - 1) ** 2 * n * n or any(
            len(v) < n for v in groups.values()
        ):
            tally.failures.append(
                {"q": q, "n": n, "reason": "grid does not partition into classes"})
        for ds in groups.values():
            for i in range(len(ds)):
                for j in range(i + 1, len(ds)):
                    d1, d2 = ds[i], ds[j]
                    tally.checked += 1
                    with tally.phase("mirabolic"):
                        rep = mirabolic_agreement(PairConfig(d1, d2))
                    if not (rep["all_equal"] and rep["support_ok"]):
                        tally.failures.append(
                            {"first": _datum_key(d1), "second": _datum_key(d2),
                             "reason": "mirabolic disagreement",
                             "first_class": (rep["mismatches"] + rep["support_violations"])[0]}
                        )
                    ulo, uhi = sorted((d1.pi_unit, d2.pi_unit))
                    with tally.phase("walks"):
                        words = cached_k_words(q, n, ulo, uhi, steps=steps)
                    for d in (d1, d2):
                        with tally.phase("k_check"):
                            krep = k_special_check(d, words)
                        k_runs += 1
                        if not krep["ok"]:
                            tally.failures.append(
                                {"datum": _datum_key(d), "walk_units": [ulo, uhi],
                                 "seed": words.seed, "steps": words.steps,
                                 "first_violation": krep["violations"][0],
                                 "reason": "conjugation symmetry violated"}
                            )
    return {"cells": list(cells), "steps": steps, "conjugation_runs": k_runs}


# ----- 8: independent oracles --------------------------------------------


def _random_decomposed(
    rng: random.Random, F: LocalField, n: int, tally: _Tally
) -> tuple[MatG, MonomialClass]:
    """A random invertible matrix over the shells and its class.  A
    singular draw, exactly or at the precision of its entries, raises in
    decompose and is drawn again; the tally's draws and decompose phases
    gain the seconds spent drawing and decomposing."""
    q = F.residue.q
    while True:
        with tally.phase("draws"):
            rows = [
                [F.elem(-1, [rng.randrange(q) for _ in range(4)]) for _ in range(n)]
                for _ in range(n)
            ]
            g = MatG(F, rows)
        with tally.phase("decompose"):
            try:
                return g, decompose(g)[1]
            except (ZeroInput, InsufficientPrecision):
                continue


def _minor_class(F: LocalField, g: MatG) -> MonomialClass:
    """The class of g in U\\GL_n/I+ read off the minors P_S of g on its
    bottom r rows and the r-sets S of columns, numbered from 0, with no
    elimination.  For g = u M k, P_S does not see u and, by Cauchy-Binet,
    is M's minor on those rows times a minor of k; n*v(P_S) + sum(S) is
    least exactly at T_r, the columns of M's bottom r rows.  T_r adds
    the column of row n - r to T_(r-1), with exponent v(P_T_r) -
    v(P_T_(r-1)) and unit the ratio of their leading digits, negated
    when an odd number of T_r's columns lie left of it.  A minor known
    only to be O(t^p) weighs at least n*p + sum(S); where that or a tie
    leaves the least set undecided, InsufficientPrecision is raised."""
    ff, n = F.residue, g.n
    minor = minors_t(ff, g.rows)
    cols, exps, units = [0] * n, [0] * n, [0] * n
    low, low_val, low_lead = 0, 0, 1
    for r in range(1, n + 1):
        ranked = []
        for S in combinations(range(n), r):
            mask = sum(1 << j for j in S)
            v, cs, p = minor(mask)
            if cs or p is not None:
                ranked.append((n * (v if cs else p) + sum(S), not cs, mask, v, cs))
        if not ranked:
            raise ZeroInput(f"the bottom {r} rows of g are dependent")
        ranked.sort()
        weight, fuzzy, mask, v, cs = ranked[0]
        if fuzzy or ranked[1:] and ranked[1][0] <= weight:
            raise InsufficientPrecision(f"the least minor on the bottom {r} rows is undecided")
        if mask & low != low:
            raise LLCError(f"the least column sets on the bottom {r - 1} and {r} rows do not nest")
        new = mask ^ low
        unit = ff.mul(cs[0], ff.inv(low_lead))
        i = n - r
        cols[i], exps[i] = new.bit_length() - 1, v - low_val
        units[i] = ff.neg(unit) if (low & (new - 1)).bit_count() % 2 else unit
        low, low_val, low_lead = mask, v, cs[0]
    return MonomialClass(F, cols, exps, units)


def _conjugate_by_scaling(ff, x: tuple, c: int) -> tuple:
    """Image of the triple x under the field map scaling the ramified
    variable by a root of unity c of the residue field."""
    out = ZERO_T
    for k, coeff in enumerate(x[1]):
        if coeff:
            e = x[0] + k
            out = add_t(ff, out, (e, (ff.mul(coeff, ff.pow(c, e)),), None))
    return out


def _descend_to_base(F: LocalField, E: LocalField, y: tuple):
    """Rewrite an extension triple supported on powers of the base
    variable as a base element, or None if some exponent obstructs."""
    n, u0, ff = E.degree, E.pi_unit, E.residue
    out = ZERO_T
    for k, coeff in enumerate(y[1]):
        if not coeff:
            continue
        e = y[0] + k
        if e % n:
            return None
        m = e // n
        out = add_t(ff, out, (m, (ff.mul(coeff, ff.pow(u0, m)),), None))
    return wrap(F, out)


@_criterion(8, "independent oracles", digest=True, phases=(
    "gauss_modulus", "trace_norm", "draws", "decompose", "minor_read", "gamma_ratio"))
def criterion_oracles(scale: str, tally: _Tally) -> dict:
    """Cross-checks against independently derived values: Gauss-sum
    modulus over the residue field, trace and norm via explicit
    conjugates, the class decompose reports against the one read off
    the bottom-row minors, and gamma as the ratio of the two zeta
    integrals.  phases times (a), (b), the draws, decompose calls
    (singular draws included) and minor reads of (c), and (d); digest
    reads (q, n, cols, exps, units) of each class (c) confirms, in draw
    order."""
    full = scale == "full"
    failures = tally.failures

    # (a) |tau|^2 = q for every nontrivial residue character
    with tally.phase("gauss_modulus"):
        for q in GAUSS_QS if full else (3, 5, 7):
            F = LocalField.base_field(q)
            ff = F.residue
            psi = AdditiveCharPsi(F)
            for e in range(1, q - 1):
                tau = CycloNumber.zero()
                for a in ff.units():
                    chi = RootOfUnity((e * ff.dlog(a)) % (q - 1), q - 1)
                    tau = tau + chi.as_cyclo() * psi.of_residue(a).as_cyclo()
                tally.checked += 1
                diff = tau * tau.conj() - CycloNumber.from_rational(Fraction(q))
                if not diff.is_zero():
                    failures.append({"check": "gauss modulus", "q": q, "exp": e})

    # (b) trace and norm against the conjugate sum and product; needs the
    # degree to divide q - 1 so the conjugating roots live downstairs
    tn_cells = (
        ((3, 2, 2), (5, 2, 2), (5, 4, 2), (7, 2, 3), (7, 3, 2), (9, 2, 4), (9, 4, 2))
        if full
        else ((3, 2, 2), (5, 4, 2))
    )
    rng = random.Random(20240823)
    with tally.phase("trace_norm"):
        for q, n, u0 in tn_cells:
            F = LocalField.base_field(q)
            E = F.extension(n, u0)
            ff = F.residue
            zroot = ff.pow(ff.gen, (q - 1) // n)
            for draw in range(25 if full else 8):
                x = E.elem(rng.randrange(-2, 3), [rng.randrange(q) for _ in range(4)])
                conjs = [
                    _conjugate_by_scaling(ff, (x.val, x.coeffs, x.prec), ff.pow(zroot, i))
                    for i in range(n)
                ]
                tr = prod = conjs[0]
                for y in conjs[1:]:
                    tr = add_t(ff, tr, y)
                    prod = mul_t(ff, prod, y)
                tally.checked += 1
                # a failure record replays: E from (q, n, u0), x as
                # elem_to_json prints it, and the draw's index in the cell
                for check, got, want in (("trace", tr, E.trace_to_base),
                                         ("norm", prod, E.norm_to_base)):
                    if _descend_to_base(F, E, got) != want(x):
                        failures.append({"check": check, "q": q, "n": n, "u0": u0,
                                         "draw": draw, "x": E.elem_to_json(x)})

    # (c) the class decompose eliminates is the one the minors read
    pivot_cells = [(q, n) for q in (3, 5) for n in (2, 3, 4)]
    trials = 1000 if full else 150
    # a failure record replays: the cell's seed, the draw's index among
    # the cell's draws and the matrix as to_json prints it
    for index, (q, n) in enumerate(pivot_cells):
        F = LocalField.base_field(q)
        seed = 4001 + index
        prng = random.Random(seed)
        for draw in range(trials):
            g, mono = _random_decomposed(prng, F, n, tally)
            tally.checked += 1
            error = None
            with tally.phase("minor_read"):
                try:
                    alt = _minor_class(F, g)
                except Exception as exc:
                    error = repr(exc)
            if error is None and alt == mono:
                tally.answers.append((q, n, mono.cols, mono.exps, mono.units))
                continue
            bad = {"check": "minor class", "q": q, "n": n, "seed": seed, "draw": draw,
                   "matrix": g.to_json()}
            if error is not None:
                bad["error"] = error
            failures.append(bad)

    # (d) gamma is the ratio of the two integrals, each at its own row,
    # against gamma_automorphic's one quotient row
    gamma_cases = [
        (3, 2, 1, 0, 1, (1, 1)),
        (5, 2, 3, 1, 2, (1, 1)),
        (5, 3, 2, 1, 2, (2, 3)),
    ]
    with tally.phase("gamma_ratio"):
        for q, n, znum, e_om, u0, (e, av) in gamma_cases if full else gamma_cases[:2]:
            d = _datum(q, n, znum, e_om, u0)
            lam = TameChar(d.F, e, RootOfUnity(av, q - 1))
            tally.checked += 1
            ratio = (zeta_psi_tilde(d, lam) / zeta_psi(d, lam)).scale(lam.at_minus_one() ** (n - 1))
            if ratio != gamma_automorphic(d, lam):
                failures.append({"check": "gamma ratio", **_datum_key(d), "twist": [e, av]})
    return {}


# ----- driver ------------------------------------------------------------

CRITERIA = (criterion_gauss_closed_form, criterion_gauss_twist, criterion_zeta_collapse,
            criterion_matching, criterion_determination, criterion_stability, criterion_pairs,
            criterion_oracles)


def run_all(scale: str | None = None, criteria: Iterable[int] | None = None) -> dict:
    """Run the grid, or only the criteria numbered in `criteria`, each once
    and in grid order; a number outside 1..8 raises ValueError."""
    scale = resolve_scale(scale)
    nums = {run.num for run in CRITERIA}
    wanted = nums if criteria is None else set(criteria)
    unknown = sorted(wanted - nums)
    if unknown:
        raise ValueError(f"no criterion {unknown[0]}: criteria are numbered 1..{len(CRITERIA)}")
    t0 = time.perf_counter()
    reports = [run(scale) for run in CRITERIA if run.num in wanted]
    return {
        "scale": scale,
        "ok": all(r["ok"] for r in reports),
        "seconds": round(time.perf_counter() - t0, 3),
        "criteria": reports,
    }


def format_lines(summary: dict) -> list[str]:
    out = []
    for rep in summary["criteria"]:
        word = "PASS" if rep["ok"] else "FAIL"
        out.append(
            f"criterion {rep['criterion']} ({rep['name']}): {word} "
            f"[{rep['checked']} checks, {rep['seconds']}s]"
        )
    word = "PASS" if summary["ok"] else "FAIL"
    out.append(f"selftest at scale {summary['scale']}: {word} [{summary['seconds']}s]")
    return out
