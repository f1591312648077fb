"""Spans around the benchmark's own calls into llclab, and the counters
the library already exposes.

The benchmark never calls a library function by name inside a query; it
calls an attribute of an ``Ops`` object.  Untraced, each attribute is
the library callable itself, so tracing off costs nothing.  Traced, each
attribute is a wrapper that records one span: name, start, end, parent
span and query id.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict


def layer_calls(L) -> dict:
    """Attribute name -> (span name, library callable).  The span name is
    ``<module>.<function>``; its first component is the layer."""
    from llclab.stability import contracts_functional

    def enumerate_functionals(gq, q):
        # a generator: consume it inside the call, so that the enumeration
        # is timed in its own span and not in the query's
        return list(L.enumerate_functionals(gq, q))

    return {
        # galois
        "build_parameter": ("galois.build_parameter", L.build_parameter),
        "gauss_sum": ("galois.gauss_sum_bruteforce", L.gauss_sum_bruteforce),
        "epsilon_galois": ("galois.epsilon_galois", L.epsilon_galois),
        # characters
        "twist_by_base": ("characters.twist_by_base", L.LevelOneCharE.twist_by_base),
        "tame_call": ("characters.tame_call", L.TameChar.__call__),
        # monomials
        "graded_mul": ("monomials.graded_mul", L.LambdaGraded.__mul__),
        "graded_eq": ("monomials.graded_eq", L.LambdaGraded.__eq__),
        "eps_eq": ("monomials.eps_eq", L.EpsMonomial.__eq__),
        # matching
        "verify_matching": ("matching.verify_matching", L.verify_matching),
        "table_of_datum": ("matching.table_of_datum", L.EpsilonTable.of_datum),
        "determine": ("matching.determine_from_table", L.determine_from_table),
        # supercuspidal
        "whittaker_root": ("supercuspidal.whittaker_root", L.SSCDatum.whittaker_root),
        "psi_u": ("supercuspidal.psi_u", L.SSCDatum.psi_u),
        "extended_char": ("supercuspidal.extended_char", L.SSCDatum.extended_char),
        # bruhat
        "decompose": ("bruhat.decompose", L.decompose),
        "as_matrix": ("bruhat.as_matrix", L.MonomialClass.as_matrix),
        "match_rotation": (
            "bruhat.match_rotation_times_central",
            L.MonomialClass.match_rotation_times_central,
        ),
        # matrices
        "mat_mul": ("matrices.mul", L.MatG.__mul__),
        "mat_agrees": ("matrices.agrees", L.MatG.agrees),
        # cyclotomic
        "root_mul": ("cyclotomic.root_mul", L.RootOfUnity.__mul__),
        # laurent
        "elem": ("laurent.elem", L.LocalField.elem),
        # zeta
        "gamma": ("zeta.gamma_automorphic", L.gamma_automorphic),
        "closed_form": ("zeta.closed_form_epsilon", L.closed_form_epsilon),
        # pairs
        "pair_config": ("pairs.PairConfig", L.PairConfig),
        "mirabolic_agreement": ("pairs.mirabolic_agreement", L.mirabolic_agreement),
        "k_special_check": ("pairs.k_special_check", L.k_special_check),
        "sample_k_words": ("pairs.sample_k_words", L.sample_k_words),
        # building
        "enumerate_facets": ("building.enumerate_facets", L.enumerate_facets),
        "barycenter": ("building.barycenter", L.FacetSpec.barycenter),
        "facet_of": ("building.facet_of", L.facet_of),
        "graded_quotient": ("building.graded_quotient", L.graded_quotient),
        # stability
        "root_count_dims": ("stability.root_count_dims", L.root_count_dims),
        "stability_certificate": ("stability.stability_certificate", L.stability_certificate),
        "verify_certificate": ("stability.verify_certificate", L.verify_certificate),
        "destabilize": ("stability.destabilizing_cocharacter", L.destabilizing_cocharacter),
        "enumerate_functionals": ("stability.enumerate_functionals", enumerate_functionals),
        "contracts_functional": ("stability.contracts_functional", contracts_functional),
    }


# layers that receive spans, in the order of the stack from the bottom up
TRACED_LAYERS = (
    "cyclotomic",
    "laurent",
    "matrices",
    "bruhat",
    "characters",
    "monomials",
    "supercuspidal",
    "galois",
    "zeta",
    "matching",
    "pairs",
    "building",
    "stability",
)


class Ops:
    """Namespace of library callables used inside queries."""


def make_ops(L, tracer: "Tracer | None" = None) -> Ops:
    ops = Ops()
    for attr, (span, fn) in layer_calls(L).items():
        setattr(ops, attr, fn if tracer is None else tracer.wrap(span, fn))
    return ops


class Tracer:
    """In-memory span recorder.  A span is [name, start_ns, end_ns,
    parent_index, query_id]; parent_index is -1 at the root."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.query = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1], self.query]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def run_query(self, qid: int, fn, *args):
        """Run one query under a root span named 'query'."""
        self.query = qid
        return self.wrap("query", fn)(*args)

    def self_times(self) -> dict[str, int]:
        """Self time in ns per layer: each span's duration minus the part
        its direct children cover.  Children of one span never overlap in
        a single-threaded run, so covered time is the sum of their
        durations.  The root 'query' spans count under 'query'."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child_ns[i]
        return dict(out)

    def query_ns(self) -> int:
        return sum(end - start for name, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path) -> None:
        """Dump every span as one JSON document, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "query"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def cache_infos() -> dict[str, dict]:
    """cache_info() of every lru_cache-wrapped function in llclab."""
    import importlib
    import pkgutil

    import llclab

    out = {}
    for mod in pkgutil.iter_modules(llclab.__path__):
        module = importlib.import_module(f"llclab.{mod.name}")
        for attr, obj in sorted(vars(module).items()):
            info = getattr(obj, "cache_info", None)
            if callable(info) and getattr(obj, "__module__", None) == module.__name__:
                ci = info()
                out[f"{mod.name}.{attr}"] = {
                    "hits": ci.hits,
                    "misses": ci.misses,
                    "currsize": ci.currsize,
                }
    return out
