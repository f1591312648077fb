"""Every library function runs under an entry point.

The entry points are the command line's subcommands and selftest's eight
criteria. One subprocess installs a profile hook before it imports the
package, since selftest's criterion decorators run at import, then calls
the command line in-process for each call below and prints the
(file, first line) of every library function it entered. Here each
function definition of the package is keyed the same way, from its
syntax tree, and the ones never entered must be exactly ALLOWLIST.
"""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "llclab"

README_CALLS = [
    shlex.split(line, comments=True)
    for line in re.findall(r"^llclab (.*)$", (ROOT / "README.md").read_text(), re.M)
]
DATUM = ["--q", "5", "--n", "2", "--zeta", "1/4"]
CALLS = [
    *README_CALLS,
    *([*argv, "--format", "table"] for argv in README_CALLS if argv[0] != "selftest"),
    ["epsilon", *DATUM, "--side", "galois", "--twist-e", "1", "--twist-t", "1"],
    ["epsilon", *DATUM, "--side", "closed", "--twist-e", "2", "--twist-t", "3"],
    ["gauss", "--q", "5", "--n", "2", "--zeta", "1/4", "--depth", "3", "--twist-t", "1"],
    ["facet", "--n", "3", "--point", "0,-1/3,-2/3", "--certify"],
    ["bruhat", "--q", "5", "--matrix", "[[[0,[1,2]],[1,[2]]],[[-1,[3]],[0,[4,1]]]]", "--prec", "4"],
    ["bruhat", "--q", "3", "--matrix", "[[1,[1,[2]]],[[-1,[1]],1]]"],
    ["pair", *DATUM, "--u0-2", "2", "--zeta-2", "3/4", "--steps", "50",
     "--support-samples", "5", "--seed", "7"],
    ["selftest", "--scale", "small", "--format", "table"],
    ["selftest", "--scale", "small", "--criterion", "3"],
]
# each is rejected with exit code 2: an even q, p | n, a singular matrix
# and a malformed facet spec
REJECTED = [
    ["epsilon", "--q", "6", "--n", "2"],
    ["epsilon", "--q", "3", "--n", "3"],
    ["bruhat", "--q", "3", "--matrix", "[[0,0],[0,0]]"],
    ["facet", "--spec", "t=0;m=2;k=1"],
]

TRACER = r"""
import contextlib, io, json, sys

package, root, calls = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
entered = set()


def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(root):
        entered.add((code.co_filename[len(root):].lstrip("/"), code.co_firstlineno))


sys.setprofile(hook)
cli = __import__(package + ".cli", fromlist=["main"])
codes = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _definitions(src: Path) -> dict[tuple[str, int], str]:
    """(file name, first line) -> dotted name of each function defined in
    the package at src, at any depth; the first line is the first
    decorator's, as a code object's co_firstlineno has it."""
    out = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
                if not isinstance(child, ast.ClassDef):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path.name, line)] = ".".join(inner)
                visit(child, path, inner)
            else:
                visit(child, path, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path, (path.stem,))
    return out


def _never_entered(src: Path, calls) -> tuple[list[int], set[str]]:
    """The exit codes of src's package's cli.main on each call, traced
    from before the package's import, and the package's functions that
    no call entered."""
    out = subprocess.run(
        [sys.executable, "-c", TRACER, src.name, str(src), json.dumps(calls)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src.parent)},
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    entered = {tuple(key) for key in report["entered"]}
    return report["codes"], {name for key, name in _definitions(src).items() if key not in entered}


GUARD = "immutability guard: no entry point sets, deletes, pickles or copies a value"
REPR = "a read-out for debugging; no output or check prints this repr"
EQ = "value equality the tests compare with; without it a != assert would pass on identity"
WALK = "the walk's generator API, which only the tests drive; it goes with the walk (ROADMAP item 1)"
FAILURE = "runs only in a failure record, which a passing run never writes"
PERFBENCH = "only perfbench/ runs it; it goes with the benchmark's next change (ROADMAP item 5)"

ALLOWLIST = {
    **dict.fromkeys([
        "building.ApartmentPoint.__delattr__", "building.ApartmentPoint.__reduce__",
        "building.ApartmentPoint.__setattr__", "building.FacetSpec.__delattr__",
        "building.FacetSpec.__reduce__", "building.FacetSpec.__setattr__",
        "building.GradedQuotient.__delattr__", "building.GradedQuotient.__reduce__",
        "building.GradedQuotient.__setattr__", "characters.TameChar.__copy__",
        "characters.TameChar.__deepcopy__", "characters.TameChar.__delattr__",
        "characters.TameChar.__setattr__", "cyclotomic.RootOfUnity.__delattr__",
        "cyclotomic.RootOfUnity.__reduce__", "cyclotomic.RootOfUnity.__setattr__",
        "monomials.LambdaGraded.__delattr__", "monomials.LambdaGraded.__reduce__",
        "monomials.LambdaGraded.__setattr__",
    ], GUARD),
    **dict.fromkeys([
        "bruhat.MonomialClass.__repr__", "building.GradedQuotient.__repr__",
        "characters.LevelOneCharE.__repr__", "characters.TameChar.__repr__",
        "cyclotomic.CycloNumber.__repr__", "cyclotomic.RootOfUnity.__repr__",
        "finitefield.FiniteField.__repr__", "galois.DetCharacter.__repr__",
        "galois.ParameterDatum.__repr__", "laurent.LaurentElem.__repr__",
        "laurent.LocalField.__repr__", "matching.DeterminationResult.__repr__",
        "matrices.MatG.__repr__", "monomials.EpsMonomial.__repr__",
        "monomials.LambdaGraded.__repr__", "pairs.PairConfig.__repr__",
        "stability.FunctionalOverFq.__repr__", "stability.NoStableDimGap.__repr__",
        "stability.StableExists.__repr__", "stability.UnstableCocharacter.__repr__",
        "supercuspidal.SSCDatum.__repr__",
    ], REPR),
    **dict.fromkeys(["cyclotomic.CycloNumber.__eq__", "matching.EpsilonTable.__eq__",
                     "matrices.MatG.__eq__"], EQ),
    **dict.fromkeys(["pairs.KWalk.inverse_matrix", "pairs.KWalk.push_elementary",
                     "pairs.KWalk.push_one_unit_diag", "pairs._test_entry"], WALK),
    **dict.fromkeys(["bruhat.WhittakerInvariant.to_json", "selftest._datum_key"], FAILURE),
    **dict.fromkeys([
        "bruhat.WhittakerInvariant.of", "building.ApartmentPoint.__eq__",
        "building.ApartmentPoint.__hash__", "building.ApartmentPoint.__repr__",
        "building._alcove_pool_size", "building.sample_alcove_points",
        "laurent.LaurentElem.__add__", "laurent.LaurentElem.__mul__",
        "laurent.LaurentElem.inverse", "laurent.LocalField.one", "matrices.MatG.det",
        "stability._all_matrices", "stability._stuck_arrows", "stability.contracts_functional",
        "stability.enumerate_functionals", "supercuspidal.SSCDatum.extended_char",
        "supercuspidal.SSCDatum.psi_u", "supercuspidal.SSCDatum.whittaker_root",
    ], PERFBENCH),
}


def test_every_library_function_runs_under_an_entry_point():
    codes, never = _never_entered(SRC, CALLS + REJECTED)
    assert codes == [0] * len(CALLS) + [2] * len(REJECTED)
    assert sorted(never) == sorted(ALLOWLIST) and all(ALLOWLIST.values())


def test_trace_flags_a_method_whose_name_is_called_elsewhere(tmp_path):
    # a rule matching names counts B.of_unit as reached because A.of_unit,
    # a method of the same name, is called; the trace sees it never run
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "units.py").write_text(
        "class A:\n    def of_unit(self, c):\n        return c\n\n\n"
        "class B:\n    def of_unit(self, c):\n        return -c\n"
    )
    (pkg / "cli.py").write_text("from .units import A\n\n\ndef main(argv):\n    return A().of_unit(len(argv))\n")
    assert _never_entered(pkg, [[], ["x", "y"]]) == ([0, 2], {"units.B.of_unit"})
