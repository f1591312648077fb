"""Command-line surface: exact epsilon factors, Gauss sums, building
certificates, affine decomposition, pair checks, and the selftest.

Conventions: roots of unity are written "a/N" for the point a/N of a
turn; characters of the residue units are given by their exponent
against the stored generator; exit code 0 means computed and, where an
identity was checked, equal; 2 means a precondition was violated; 3
means the computation ran but a checked identity failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bruhat import decompose
from .building import ApartmentPoint, FacetSpec, enumerate_facets, facet_of, is_barycenter
from .characters import norm_of_variable
from .cyclotomic import RootOfUnity
from .errors import LLCError
from .finitefield import field_of_size
from .galois import build_parameter, epsilon_galois, gauss_sum_bruteforce
from .laurent import LocalField
from .matching import EpsilonTable, determine_from_table, twist_char, verify_matching
from .matrices import MatG
from .monomials import EpsMonomial
from .pairs import PairConfig, k_special_check, mirabolic_agreement, sample_k_words, support_check
from .stability import destabilizing_cocharacter, root_count_dims, stability_certificate, verify_certificate
from .supercuspidal import SSCDatum
from .zeta import closed_form_epsilon, gamma_automorphic
from . import selftest as selftest_mod

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_MISMATCH = 3

# the longest walk and the most support samples `pair` runs: at (13, 6)
# about 2 s of walk and 9 s of support checks per datum; criterion 7
# walks 10,000 steps
MAX_STEPS = 100_000
MAX_SUPPORT_SAMPLES = 10_000


def _datum(args: argparse.Namespace) -> SSCDatum:
    """The datum the arithmetic subcommands' shared options name."""
    zeta = RootOfUnity.parse(args.zeta)
    at_pi = zeta**args.n if args.omega_at_pi is None else RootOfUnity.parse(args.omega_at_pi)
    return SSCDatum(args.q, args.n, zeta, omega_exp=args.omega_exp, omega_at_pi=at_pi, pi_unit=args.u0)


# ----- output ------------------------------------------------------------


def _rows(value, path: str):
    if isinstance(value, dict):
        if not value:
            yield path, "{}"
        for k, v in value.items():
            yield from _rows(v, f"{path}.{k}" if path else str(k))
    elif isinstance(value, (list, tuple)):
        if value and all(not isinstance(x, (dict, list, tuple)) for x in value):
            yield path, ", ".join(str(x) for x in value)
        elif not value:
            yield path, "[]"
        else:
            for i, v in enumerate(value):
                yield from _rows(v, f"{path}[{i}]")
    else:
        yield path, str(value)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
        return
    rows = list(_rows(payload, ""))
    width = max(len(p) for p, _ in rows)
    for p, v in rows:
        print(f"{p.ljust(width)}  {v}")


# ----- subcommands -------------------------------------------------------


def cmd_epsilon(args: argparse.Namespace) -> int:
    d = _datum(args)
    lam = twist_char(d.F, args.twist_e, args.twist_t)
    sides = {}
    if args.side in ("auto", "all"):
        sides["automorphic"] = gamma_automorphic(d, lam, m=args.depth)
    if args.side in ("galois", "all"):
        sides["galois"] = epsilon_galois(build_parameter(d), lam)
    if args.side in ("closed", "all"):
        sides["closed"] = closed_form_epsilon(d, lam)
    values = list(sides.values())
    equal = all(v == values[0] for v in values)
    payload = {
        "q": d.q,
        "n": d.n,
        "pi_unit": d.pi_unit,
        "zeta": d.zeta.as_fraction_of_turn(),
        "twist": {"e": args.twist_e, "at_t": args.twist_t},
        "sides": {k: v.to_json() for k, v in sides.items()},
    }
    if args.side == "all":
        payload["equal"] = equal
    _emit(payload, args.format)
    return EXIT_OK if equal else EXIT_MISMATCH


def cmd_gauss(args: argparse.Namespace) -> int:
    d = _datum(args)
    P = build_parameter(d)
    tau = gauss_sum_bruteforce(P.xi, m=args.depth)
    formula = P.xi.at_pi * d.q ** (args.depth - 1)
    ok = tau == formula
    payload = {
        "q": d.q,
        "n": d.n,
        "pi_unit": d.pi_unit,
        "zeta": d.zeta.as_fraction_of_turn(),
        "depth": args.depth,
        "tau": tau.to_json(),
        "formula": formula.to_json(),
        "equal": ok,
    }
    if args.twist_e or args.twist_t:
        lam = twist_char(d.F, args.twist_e, args.twist_t)
        tw = gauss_sum_bruteforce(P.xi.twist_by_base(lam), m=args.depth)
        ratio = lam.of_leading(*norm_of_variable(d.extension_field()))
        matches = tw == tau * ratio
        payload["twist"] = {
            "e": args.twist_e,
            "at_t": args.twist_t,
            "tau": tw.to_json(),
            "expected_ratio": ratio.as_fraction_of_turn(),
            "matches": matches,
        }
        ok = ok and matches
    _emit(payload, args.format)
    return EXIT_OK if ok else EXIT_MISMATCH


def _facet_string(f: FacetSpec) -> str:
    return f"t={f.t};m={','.join(str(b) for b in f.blocks)}"


def _facet_info(f: FacetSpec) -> dict:
    b = f.barycenter()
    dims = root_count_dims(b)
    return {
        "spec": _facet_string(f),
        "n": f.n,
        "alcove": f.is_alcove(),
        "barycenter": [str(c) for c in b.coords],
        "dim_group": dims[0],
        "dim_rep": dims[1],
        "dim_gap": str(f.dim_gap()),
    }


def cmd_facet(args: argparse.Namespace) -> int:
    # a flag the chosen mode would not read exits 2, naming the flag
    modes = [f"--{m}" for m in ("list", "spec", "point") if getattr(args, m) not in (None, False)]
    if len(modes) > 1:
        raise ValueError(f"{modes[1]} cannot go with {modes[0]}")
    for flag, mode in (("certify", "--spec"), ("destabilize", "--point")):
        if getattr(args, flag) and modes != [mode]:
            raise ValueError(f"--{flag} needs {mode}")
    if args.fq is not None and not args.certify:
        raise ValueError("--fq needs --certify")
    fq = 3 if args.fq is None else args.fq
    field_of_size(fq)  # odd prime power guard
    if args.list:
        if args.n is None:
            raise ValueError("--list needs --n")
        facets = enumerate_facets(args.n)
        payload = {
            "n": args.n,
            "count": len(facets),
            "facets": [_facet_info(f) for f in facets],
        }
        _emit(payload, args.format)
        return EXIT_OK
    if args.spec is not None:
        f = FacetSpec.parse(args.spec)
        if args.n is not None and f.n != args.n:
            raise ValueError(f"facet has size {f.n}, --n says {args.n}")
        payload = _facet_info(f)
        code = EXIT_OK
        if args.certify:
            cert = stability_certificate(f, fq)
            verified = verify_certificate(cert)
            payload["certificate"] = {
                "kind": type(cert).__name__,
                "detail": repr(cert),
                "verified": verified,
            }
            code = EXIT_OK if verified else EXIT_MISMATCH
        _emit(payload, args.format)
        return code
    if args.point is not None:
        x = ApartmentPoint.parse(args.point)
        if args.n is not None and len(x.nums) != args.n:
            raise ValueError(f"point has size {len(x.nums)}, --n says {args.n}")
        dims = root_count_dims(x)
        payload = {
            "point": [str(c) for c in x.coords],
            "facet": _facet_string(facet_of(x)),
            "barycenter": is_barycenter(x),
            "dim_group": dims[0],
            "dim_rep": dims[1],
        }
        code = EXIT_OK
        if args.destabilize:
            cert = destabilizing_cocharacter(x)
            verified = verify_certificate(cert)
            payload["certificate"] = {
                "kind": type(cert).__name__,
                "weights": list(cert.weights),
                "missing_arrow": list(cert.missing_arrow),
                "verified": verified,
            }
            code = EXIT_OK if verified else EXIT_MISMATCH
        _emit(payload, args.format)
        return code
    raise ValueError("facet needs one of --list, --spec, --point")


def _matrix_entry(F: LocalField, e):
    """One --matrix entry: a JSON integer, [val, coeffs], or the object
    MatG.to_json prints, read as strictly as LocalField.elem_from_json."""
    if type(e) is int:
        return F.from_int(e)
    if isinstance(e, list) and len(e) == 2:
        e = {"field": F.name, "n": F.degree, "val": e[0], "coeffs": e[1]}
    elif not isinstance(e, dict):
        raise ValueError(f"matrix entries are integers, [val, coeffs] or element objects, got {e!r}")
    return F.elem_from_json(e)


def cmd_bruhat(args: argparse.Namespace) -> int:
    F = LocalField.base_field(args.q)
    data = json.loads(args.matrix)
    if not isinstance(data, list) or not data or not all(isinstance(row, list) for row in data):
        raise ValueError("--matrix must be a non-empty JSON list of rows, each a list of entries")
    g = MatG(F, [[_matrix_entry(F, e) for e in row] for row in data])
    u, mono, k = decompose(g if args.prec is None else g.truncate(args.prec))
    payload = {
        "q": args.q,
        "unipotent": u.to_json(),
        "monomial": mono.to_json(),
        "iwahori": k.to_json(),
        "product_matches": (u * (mono.as_matrix() * k)).agrees(g),
    }
    _emit(payload, args.format)
    return EXIT_OK if payload["product_matches"] else EXIT_MISMATCH


def cmd_match(args: argparse.Namespace) -> int:
    d = _datum(args)
    payload = verify_matching(d)
    payload["twists"] = [
        {k: v.to_json() if isinstance(v, EpsMonomial) else v for k, v in row.items()}
        for row in payload["twists"]
    ]
    T = EpsilonTable.of_datum(d)
    res = determine_from_table(T, d.omega, d.n, d.q)
    matches = bool(res.complete and res.zeta == d.zeta and res.pi_unit == d.pi_unit)
    payload["determination"] = {
        "zeta": res.zeta.as_fraction_of_turn(),
        "pi_unit": res.pi_unit,
        "complete": res.complete,
        "matches_input": matches,
    }
    _emit(payload, args.format)
    return EXIT_OK if payload["all_equal"] and matches else EXIT_MISMATCH


def cmd_pair(args: argparse.Namespace) -> int:
    for flag, value, bound in (("--steps", args.steps, MAX_STEPS),
                               ("--support-samples", args.support_samples, MAX_SUPPORT_SAMPLES)):
        if not 1 <= value <= bound:
            raise ValueError(f"{flag} must lie in 1..{bound:,}, got {value}")
    d1 = _datum(args)
    zeta2 = RootOfUnity.parse(args.zeta2)
    d2 = SSCDatum(
        args.q,
        args.n,
        zeta2,
        omega_exp=args.omega_exp,
        omega_at_pi=zeta2**args.n,
        pi_unit=args.u0_2,
    )
    cfg = PairConfig(d1, d2)
    mira = mirabolic_agreement(cfg)
    ulo, uhi = sorted((d1.pi_unit, d2.pi_unit))
    words = sample_k_words(args.q, args.n, ulo, uhi, steps=args.steps, seed=args.seed)
    conj = [k_special_check(d, words) for d in (d1, d2)]
    supp = [support_check(d, samples=args.support_samples, seed=args.seed) for d in (d1, d2)]
    ok = (
        mira["all_equal"]
        and mira["support_ok"]
        and all(c["ok"] for c in conj)
        and all(s["ok"] for s in supp)
    )
    payload = {"ok": ok, "mirabolic": mira, "conjugation": conj, "support": supp}
    _emit(payload, args.format)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_selftest(args: argparse.Namespace) -> int:
    summary = selftest_mod.run_all(args.scale, args.criterion)
    if args.format == "json":
        _emit(summary, "json")
    else:
        for line in selftest_mod.format_lines(summary):
            print(line)
    return EXIT_OK if summary["ok"] else EXIT_MISMATCH


# ----- wiring ------------------------------------------------------------


def _add_datum_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--q", type=int, required=True, help="residue field size, odd prime power")
    sp.add_argument("--n", type=int, required=True, help="matrix size, coprime to the characteristic")
    sp.add_argument("--u0", type=int, default=1, help="uniformizer unit (default 1)")
    sp.add_argument("--omega-exp", type=int, default=0, dest="omega_exp",
                    help="central character exponent on residue units")
    sp.add_argument("--zeta", default="0/1", help='root of unity "a/N", an n-th root of the central value at pi')
    sp.add_argument("--omega-at-pi", default=None, dest="omega_at_pi",
                    help='central value at the uniformizer, "a/N"; default zeta^n')


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json",
                        help="output as JSON (default) or aligned text")

    parser = argparse.ArgumentParser(prog="llclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("epsilon", parents=[common],
                        help="epsilon factor of a datum, by any engine or all")
    _add_datum_args(sp)
    sp.add_argument("--twist-e", type=int, default=0, dest="twist_e")
    sp.add_argument("--twist-t", type=int, default=0, dest="twist_t",
                    help="twist value at t as an exponent over q-1")
    sp.add_argument("--side", choices=("auto", "galois", "closed", "all"), default="auto")
    sp.add_argument("--depth", type=int, default=2, help="working precision of the integrals")
    sp.set_defaults(func=cmd_epsilon)

    sp = sub.add_parser("gauss", parents=[common],
                        help="brute-force Gauss sum against the closed value")
    _add_datum_args(sp)
    sp.add_argument("--twist-e", type=int, default=0, dest="twist_e")
    sp.add_argument("--twist-t", type=int, default=0, dest="twist_t")
    sp.add_argument("--depth", type=int, default=2)
    sp.set_defaults(func=cmd_gauss)

    sp = sub.add_parser("facet", parents=[common],
                        help="facet census, stability certificates, destabilizers")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--list", action="store_true")
    sp.add_argument("--spec", default=None, help='facet spec "t=0;m=2,2"')
    sp.add_argument("--point", default=None, help='apartment point "0,-1/4,-2/3"')
    sp.add_argument("--certify", action="store_true")
    sp.add_argument("--destabilize", action="store_true")
    sp.add_argument("--fq", type=int, default=None,
                    help="finite field for --certify's certificate (default 3)")
    sp.set_defaults(func=cmd_facet)

    sp = sub.add_parser("bruhat", parents=[common],
                        help="affine decomposition of a JSON matrix")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--matrix", required=True,
                    help='JSON rows; entries are integers, [val, [coeffs]] or '
                         '{"field": "F", "n": 1, "val": v, "coeffs": [...], "prec": p} '
                         'as the output prints them, prec optional')
    sp.add_argument("--prec", type=int, default=None)
    sp.set_defaults(func=cmd_bruhat)

    sp = sub.add_parser("match", parents=[common],
                        help="full matching report plus determination round trip")
    _add_datum_args(sp)
    sp.set_defaults(func=cmd_match)

    sp = sub.add_parser("pair", parents=[common],
                        help="mirabolic, conjugation and support checks for a pair")
    _add_datum_args(sp)
    sp.add_argument("--u0-2", type=int, required=True, dest="u0_2")
    sp.add_argument("--zeta-2", required=True, dest="zeta2")
    sp.add_argument("--steps", type=int, default=2000,
                    help=f"sampled word length, 1..{MAX_STEPS:,}")
    sp.add_argument("--support-samples", type=int, default=120, dest="support_samples",
                    help=f"random matrices per support check, 1..{MAX_SUPPORT_SAMPLES:,}")
    sp.add_argument("--seed", type=int, default=2024)
    sp.set_defaults(func=cmd_pair)

    sp = sub.add_parser("selftest", parents=[common],
                        help="replay the acceptance grid; exit 0 iff it passes")
    sp.add_argument("--scale", choices=("small", "full"), default=None,
                    help=f"grid size; default from {selftest_mod.SCALE_ENV} or full")
    sp.add_argument("--criterion", type=int, action="append", default=None,
                    help="run only this criterion, 1..8; repeat for several (default all)")
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LLCError, ValueError, ZeroDivisionError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
