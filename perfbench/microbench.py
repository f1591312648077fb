"""Per-layer cost per operation on fixed operands.

Operands come from the workloads' own generators and cells, drawn with
one fixed seed so that every run times the same operations.  Each
figure is the median of several timed samples after one warm-up pass,
so lazy tables are built before timing starts; each sample is scaled to
the reference CPU speed by the speed probes taken around it.
"""

from __future__ import annotations

import random
import statistics
import time

import llclab as L
import workloads as W
from llclab.pairs import mirabolic_table
from run import REFERENCE_PROBE_S, speed_probe

MICRO_SEED = 4242
SAMPLES = 5
SAMPLE_BUDGET_S = 0.03


def per_op(fn, count: int, scale: float) -> float:
    """Median time of one operation, times ``scale`` (1e9 for ns and so
    on), at the reference CPU speed of run.py; ``fn`` performs ``count``
    operations per call."""
    fn()
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= SAMPLE_BUDGET_S:
            break
        reps *= 2
    vals = []
    for _ in range(SAMPLES):
        probe = speed_probe()
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        t1 = time.perf_counter()
        probe = (probe + speed_probe()) / 2
        vals.append((t1 - t0) / (reps * count) * REFERENCE_PROBE_S / probe)
    return statistics.median(vals) * scale


def _loop(op, items):
    def fn():
        for args in items:
            op(*args)

    return fn


NS, US, MS = 1e9, 1e6, 1e3


def run_all() -> dict:
    """Every microbench figure as {name: (value, unit)}."""
    rng = random.Random(MICRO_SEED)
    out = {}

    def put(name, unit, op, items):
        scale = {"ns": NS, "us": US, "ms": MS}[unit]
        out[name] = (per_op(_loop(op, items), len(items), scale), unit)

    # finitefield: the residue field of the building census
    ff = L.field_of_size(W.CENSUS_Q)
    put("finitefield.mul_ns", "ns", ff.mul, [(rng.randrange(ff.q), rng.randrange(ff.q)) for _ in range(64)])

    # cyclotomic: roots met in integral-pairs, sums met in twist-sweep
    pairs = W.gen_integral_pairs(random.Random(MICRO_SEED), 1)
    roots = []
    for p in pairs:
        roots += [p.d.zeta, p.d2.zeta, p.d.omega_at_pi, p.d.psi.of_residue(1)]
    put("cyclotomic.root_mul_ns", "ns", L.RootOfUnity.__mul__,
        [(rng.choice(roots), rng.choice(roots)) for _ in range(64)])
    twists = W.gen_twist_sweep(random.Random(MICRO_SEED), 1)
    t74 = next(t for t in twists if (t.d.q, t.d.n) == (7, 4))
    P74 = L.build_parameter(t74.d)
    sums = []
    for e, b, lam in t74.lams[:8]:
        g = L.gauss_sum_bruteforce(P74.xi.twist_by_base(lam))
        sums += list(g.terms.values())
    put("cyclotomic.cyclo_mul_ns", "ns", L.CycloNumber.__mul__,
        [(rng.choice(sums), rng.choice(sums)) for _ in range(16)])

    # laurent: shell entries of the whittaker-eval cells
    F5 = L.LocalField.base_field(5)
    elems = [W._shell_elem(rng, F5, 5) for _ in range(64)]
    elems = [x for x in elems if x.coeffs]
    put("laurent.add_ns", "ns", L.LaurentElem.__add__, list(zip(elems, reversed(elems))))
    put("laurent.mul_ns", "ns", L.LaurentElem.__mul__, list(zip(elems, reversed(elems))))
    put("laurent.inverse_ns", "ns", L.LaurentElem.inverse, [(x,) for x in elems])

    # matrices, bruhat, supercuspidal: whittaker-eval points
    wq = W.gen_whittaker_eval(random.Random(MICRO_SEED), 4)
    g54 = [w.g for w in wq if (w.d.q, w.d.n) == (5, 4)]
    put("matrices.mul_us", "us", L.MatG.__mul__, list(zip(g54, reversed(g54))))
    for n in (2, 3, 4):
        d = W.legal_datum(rng, 5, n, 2, 0)
        gs = [W.dense_point(rng, d) for _ in range(8)]
        put(f"bruhat.decompose_us.n{n}", "us", L.decompose, [(g,) for g in gs])
    put("supercuspidal.whittaker_us", "us", L.SSCDatum.whittaker_root,
        [(w.d, w.g) for w in wq if (w.d.q, w.d.n) == (5, 3)])

    # characters and monomials: the twist-sweep inner loop
    q = t74.d.q
    signed = t74.d.F.elem(1, (t74.d.pi_unit if (t74.d.n - 1) % 2 == 0 else t74.d.F.residue.neg(t74.d.pi_unit),))
    lams = [lam for _, _, lam in t74.lams]
    put("characters.tame_call_ns", "ns", L.TameChar.__call__, [(lam, signed) for lam in lams])
    base = L.gauss_sum_bruteforce(P74.xi)
    put("monomials.graded_mul_ns", "ns", L.LambdaGraded.__mul__, [(base, lam(signed)) for lam in lams[:16]])
    p53 = next(p for p in pairs if (p.d.q, p.d.n) == (5, 3))
    P53 = L.build_parameter(p53.d)
    eps = [
        (L.closed_form_epsilon(p53.d, lam), L.epsilon_galois(P53, lam)) for _, _, lam in p53.twists
    ]
    put("monomials.eps_eq_ns", "ns", L.EpsMonomial.__eq__, eps)

    # galois and matching: twist-sweep cell (11, 4), caches warm
    t114 = next(t for t in twists if (t.d.q, t.d.n) == (11, 4))
    d114 = W.legal_datum(rng, 11, 4, t114.d.pi_unit, 2)
    P114 = L.build_parameter(d114)
    lams114 = [lam for _, _, lam in t114.lams[::7]]
    put("galois.gauss_sum_us", "us", L.gauss_sum_bruteforce,
        [(P114.xi.twist_by_base(lam),) for lam in lams114])
    put("galois.epsilon_us", "us", L.epsilon_galois, [(P114, lam) for lam in lams114])
    put("matching.verify_ms", "ms", L.verify_matching, [(d114, None, False)])
    put("matching.table_us", "us", L.EpsilonTable.of_datum, [(d114,)])
    T114 = L.EpsilonTable.of_datum(d114)
    put("matching.determine_us", "us", L.determine_from_table, [(T114, d114.omega, 4, 11)])

    # zeta and pairs: integral-pairs cell (5, 3), tables warm
    put("zeta.gamma_ms", "ms", L.gamma_automorphic, [(p53.d, lam) for _, _, lam in p53.twists])
    put("zeta.closed_form_us", "us", L.closed_form_epsilon, [(p53.d, lam) for _, _, lam in p53.twists])
    mirabolic_table(5, 3)
    cfg = L.PairConfig(p53.d, p53.d2)
    put("pairs.mirabolic_ms", "ms", L.mirabolic_agreement, [(cfg,)])
    wkey = p53.words_key
    put("pairs.k_words_ms", "ms",
        lambda: L.sample_k_words(*wkey, steps=W.K_WORD_STEPS, seed=p53.word_seed), [()])
    words = L.sample_k_words(*wkey, steps=W.K_WORD_STEPS, seed=p53.word_seed)
    put("pairs.k_check_ms", "ms", L.k_special_check, [(p53.d, words), (p53.d2, words)])

    # stability: the n = 6 slice of the building census
    facets = L.enumerate_facets(6)
    put("stability.certificate_ms", "ms", L.stability_certificate, [(f, W.CENSUS_Q) for f in facets])
    certs = [L.stability_certificate(f, W.CENSUS_Q) for f in facets]
    put("stability.verify_ms", "ms", L.verify_certificate, [(c,) for c in certs])
    points = [
        x for x in L.sample_alcove_points(6, 40, seed=MICRO_SEED) if not L.is_barycenter(x)
    ]
    put("stability.destabilize_ms", "ms", L.destabilizing_cocharacter, [(x,) for x in points])
    return out
