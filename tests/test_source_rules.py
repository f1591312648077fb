"""Rules the library source keeps, checked on its syntax trees and signatures."""

import ast
import inspect
import subprocess
import sys
from collections import Counter
from functools import reduce
from pathlib import Path

import llclab
from llclab import bruhat, laurent, matching, pairs, stability, supercuspidal, zeta

SRC = Path(__file__).resolve().parents[1] / "src" / "llclab"


def _library_nodes():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_import_leaves_the_acceptance_grid_and_cli_unloaded():
    # importing the package compiles and runs only the library modules;
    # the command line and the acceptance grid load when asked for
    code = "import sys, llclab; print(sorted(m for m in sys.modules if m in ('llclab.cli', 'llclab.selftest')))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(SRC.parent), "PATH": ""},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_assert_statements_in_library():
    # python -O strips assert statements; every check that guards a
    # result must raise explicitly so it survives optimized runs
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assertion_errors_raised_in_library():
    # the command line turns LLCError into a JSON error record and exit
    # code 2; an AssertionError would escape it as a bare traceback
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes() if _raises_assertion_error(node)]
    assert found == []


def _imports(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module]
    return []


def test_only_the_recogniser_module_imports_cmath():
    # floating point serves one purpose: match_root's guess of a root,
    # which an exact == confirms before anything is returned
    found = sorted({name for name, node in _library_nodes() if "cmath" in _imports(node)})
    assert found == ["cyclotomic.py"]


def _callee(call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _names(node) -> set[str]:
    """The callees and plain names that node mentions."""
    out = set()
    for c in ast.walk(node):
        if isinstance(c, ast.Call):
            out.add(_callee(c))
        elif isinstance(c, ast.Name):
            out.add(c.id)
    return out


# the callees that eliminate a matrix: decompose, and the invariant reader
# WhittakerInvariant.read
DECOMPOSERS = {"decompose", "read"}


def test_zeta_decomposes_no_point_in_a_point_loop():
    # right translation by the pro-unipotent Iwahori gives every point the
    # invariant of its lead matrix, one per (shell, leading digit): no
    # decompose in zeta.py, direct or through a zeta function that calls
    # it, may sit in a loop over unit cosets, digit windows or x-tuples,
    # which would decompose point by point again
    tree = ast.parse((SRC / "zeta.py").read_text())
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    decomposers = set(DECOMPOSERS)
    while more := {f.name for f in functions if decomposers & _names(f)} - decomposers:
        decomposers |= more
    point_loops = {"unit_reps", "integer_reps", "product"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and point_loops & _names(node.value):
            point_loops |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters = [g.iter for g in node.generators]
        else:
            continue
        if any(point_loops & _names(it) for it in iters) and decomposers & _names(node):
            found.append(f"zeta.py:{node.lineno}")
    assert found == []


def test_zeta_decomposes_no_point_per_uniformizer():
    # a point's decomposition does not see the uniformizer: zeta decomposes
    # once per (q, n) and solves per pi_unit, so no function that takes a
    # pi_unit may call decompose
    tree = ast.parse((SRC / "zeta.py").read_text())
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        if "pi_unit" not in [a.arg for a in fn.args.args + fn.args.kwonlyargs]:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and _callee(node) in DECOMPOSERS:
                found.append(f"zeta.py:{node.lineno}")
    assert found == []


def _decompose_calls(node) -> bool:
    return isinstance(node, ast.Call) and _callee(node) == "decompose"


def test_invariants_are_read_not_decomposed():
    # WhittakerInvariant.read eliminates at the precision a matrix carries;
    # decompose keeps DEFAULT_REL_PREC digits for the u and k it returns,
    # so no invariant is read off its factors, and it is called only by the
    # command line and by selftest's cross-check of decompose itself
    found = [
        f"{name}:{node.lineno}"
        for name, node in _library_nodes()
        if isinstance(node, ast.Call)
        and _callee(node) == "of"
        and any(isinstance(a, ast.Starred) and _decompose_calls(a.value) for a in node.args)
    ]
    callers = {name for name, node in _library_nodes() if _decompose_calls(node)}
    assert found == [] and callers == {"cli.py", "selftest.py"}


def test_zeta_evaluates_no_point_and_assembles_no_polynomial():
    # each integral is one stable row evaluated as a monomial: zeta.py
    # neither calls the Whittaker function point by point nor sums a
    # polynomial in q^(-s), so neither name may come back
    tree = ast.parse((SRC / "zeta.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    assert {"whittaker_root", "EpsPolynomial"} & names == set()


def test_matching_serializes_nothing():
    # the library compares and the command line serializes: no code in
    # matching.py calls to_json except a to_json method handing its
    # entries to theirs
    tree = ast.parse((SRC / "matching.py").read_text())
    serializers = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "to_json"]
    allowed = {id(c) for f in serializers for c in ast.walk(f)}
    found = [
        f"matching.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) == "to_json" and id(node) not in allowed
    ]
    assert found == []


def _series_builders() -> set[str]:
    """The names through which code calls a laurent kernel or builds a
    MatG or a LaurentElem: laurent's public module functions, the
    LocalField methods that return elements, the two classes, and the
    matrix builders wrap_matrix and MonomialClass.as_matrix."""
    tree = ast.parse((SRC / "laurent.py").read_text())
    names = {f.name for f in tree.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    field = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "LocalField")
    names |= {
        f.name for f in field.body
        if isinstance(f, ast.FunctionDef) and f.returns is not None and "LaurentElem" in ast.unparse(f.returns)
    }
    return names | {"LaurentElem", "MatG", "wrap_matrix", "as_matrix"}


def _uses(node, names: set[str]) -> set[str]:
    """Which of names node mentions, as a plain name or an attribute."""
    out = set()
    for c in ast.walk(node):
        if isinstance(c, ast.Name) and c.id in names:
            out.add(c.id)
        elif isinstance(c, ast.Attribute) and c.attr in names:
            out.add(c.attr)
    return out


def test_walk_steps_build_no_series():
    # KWalk keeps its state on the quotient I+/I++: no method but the two
    # lifts calls a laurent kernel or builds a MatG or a LaurentElem,
    # directly, through a module function of pairs.py that does, or by
    # calling a lift
    builders = _series_builders()
    assert {"mul_t", "truncate_t", "coeff_at_t", "elem", "one", "LaurentElem", "MatG"} <= builders
    tree = ast.parse((SRC / "pairs.py").read_text())
    helpers = {f.name for f in tree.body if isinstance(f, ast.FunctionDef) and _uses(f, builders)}
    walk = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "KWalk")
    lifts = {"forward_matrix", "inverse_matrix"}
    methods = [fn for fn in walk.body if isinstance(fn, ast.FunctionDef)]
    found = [
        f"KWalk.{fn.name}: {sorted(used)}"
        for fn in methods
        if fn.name not in lifts and (used := _uses(fn, builders | helpers | lifts))
    ]
    assert found == []
    # the rule sees the lifts build their matrices
    assert all(_uses(fn, builders | helpers) for fn in methods if fn.name in lifts)
    assert lifts <= {fn.name for fn in methods}


# what turns a walk state into its keys: the key function, the class
# solves behind it, and the solved invariants and products they build
KEY_FUNCTIONS = {"keys", "_pair", "_solve", "solved_product", "SolvedInvariant",
                 "match_rotation_times_central"}


def _reached(tree, root) -> set[str]:
    """The callees that the calls under root reach, by their own calls or
    through the functions and methods of the module that they call, by
    name.  An lru_cache'd function runs once per key, not once per call,
    so the search does not enter it."""
    callees = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and not any(
            "lru_cache" in ast.unparse(dec) for dec in node.decorator_list
        ):
            callees.setdefault(node.name, set()).update(
                _callee(c) for c in ast.walk(node) if isinstance(c, ast.Call)
            )
    reached = {_callee(c) for c in ast.walk(root) if isinstance(c, ast.Call)}
    todo = list(reached)
    while todo:
        for name in callees.get(todo.pop(), set()) - reached:
            reached.add(name)
            todo.append(name)
    return reached


def _step_loop_key_functions(source: str) -> set[str]:
    """The key functions that the step loop of sample_k_words reaches."""
    tree = ast.parse(source)
    sampler = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "sample_k_words")
    loops = [node for node in sampler.body if isinstance(node, ast.For)]
    assert len(loops) == 2 and ast.unparse(loops[0].iter) == "range(steps)"
    return _reached(tree, loops[0]) & KEY_FUNCTIONS


def test_walk_step_loop_derives_no_keys():
    # a walk step only moves the state and counts it; keys are derived per
    # distinct state after the loop, where the rule sees the key function
    source = (SRC / "pairs.py").read_text()
    assert _step_loop_key_functions(source) == set()
    # the rule sees a step loop that derives keys, directly or through a
    # walk method that builds a solved invariant
    step = "        walk.random_step()\n"
    assert source.count(step) == 1
    mutant = source.replace(step, step + "        walk.keys(walk.state(), units)\n")
    assert _step_loop_key_functions(mutant) == {"keys", "_pair", "_solve", "SolvedInvariant",
                                               "solved_product", "match_rotation_times_central"}
    state = "        return self.M[0], total, "
    assert source.count(state) == 1
    mutant = source.replace(state, "        self._pair(self.M[0], self.u1)\n" + state)
    assert _step_loop_key_functions(mutant) == {"_pair", "_solve", "SolvedInvariant",
                                               "solved_product", "match_rotation_times_central"}


def _agreement_solves(source: str) -> set[str]:
    """The class solves that mirabolic_agreement reaches."""
    tree = ast.parse(source)
    fn = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "mirabolic_agreement")
    return _reached(tree, fn) & {"solve", "match_rotation_times_central"}


def test_mirabolic_agreement_solves_no_class():
    # each class of the mirabolic table is solved once per uniformizer, by
    # the cached _solved_mirabolic; a call only evaluates solved classes
    source = (SRC / "pairs.py").read_text()
    assert _agreement_solves(source) == set()
    # the rule sees a solve in the loop, and one behind an uncached builder
    values = "        v1, v2 = d1.invariant_root(s1), d2.invariant_root(s2)\n"
    assert source.count(values) == 1
    mutant = source.replace(
        values, "        v1, v2 = (d.invariant_root(cls.solve(d.pi_unit)) for d in (d1, d2))\n"
    )
    assert _agreement_solves(mutant) == {"solve"}
    cached = "@lru_cache(maxsize=None)\ndef _solved_mirabolic("
    assert source.count(cached) == 1
    assert _agreement_solves(source.replace(cached, "def _solved_mirabolic(")) == {"solve"}


ELIMINATION = {"_eliminate", "decompose", "inverse_t", "addmul_t"}


def _reader_eliminations(selftest_source: str) -> set[str]:
    """The elimination names selftest._minor_class reaches, through the
    functions of selftest and of the modules it reads the minors from."""
    trees = [ast.parse(selftest_source)] + [
        ast.parse((SRC / f"{stem}.py").read_text()) for stem in ("laurent", "matrices", "bruhat")
    ]
    merged = ast.Module(body=[stmt for tree in trees for stmt in tree.body], type_ignores=[])
    reader = next(f for f in trees[0].body if isinstance(f, ast.FunctionDef) and f.name == "_minor_class")
    return _reached(merged, reader) & ELIMINATION


def test_minor_reader_shares_no_code_with_the_elimination():
    # criterion 8(c) checks decompose's class against the minors; an
    # oracle that eliminated, or inverted, could share decompose's defect
    source = (SRC / "selftest.py").read_text()
    assert _reader_eliminations(source) == set()
    # the rule sees a reader that calls decompose, and through it the rest
    line = "    minor = minors_t(ff, g.rows)\n"
    assert source.count(line) == 1
    assert _reader_eliminations(source.replace(line, line + "    decompose(g)\n")) == ELIMINATION


def test_only_laurent_uses_its_private_names():
    # laurent's kernels are its interface on triples; what it keeps
    # private (the convolution, the precision rule) has one copy, there
    found = [
        f"{name}:{node.lineno}"
        for name, node in _library_nodes()
        if name != "laurent.py"
        and isinstance(node, ast.ImportFrom)
        and node.module == "laurent"
        and any(alias.name.startswith("_") for alias in node.names)
    ]
    assert found == []


def _mod_one(node) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 1
    )


def test_building_kernels_take_no_fraction_modulus():
    # points keep integer numerators over one common denominator, and the
    # building and stability kernels reduce those modulo the denominator;
    # "% 1" is the Fraction idiom those integer kernels replace
    found = [
        f"{name}:{node.lineno}"
        for name, node in _library_nodes()
        if name in ("building.py", "stability.py") and _mod_one(node)
    ]
    assert found == []


def _builders(tree, callee: str = "Fraction") -> list[tuple[str, int]]:
    """(qualified name of the enclosing function, line) of each call to
    callee, such as Fraction(...) or random.Random(...), in a module tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call) and _callee(child) == callee:
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return found


def test_building_builds_fractions_only_in_read_outs():
    # a point is its integer numerators over one denominator; Fractions are
    # built only where a caller reads them, and where a point is made from
    # arbitrary rationals
    read_outs = {
        "ApartmentPoint.__init__",
        "ApartmentPoint.parse",
        "ApartmentPoint.coords",
        "GradedQuotient.r",
        "FacetSpec.dim_gap",
    }
    found = _builders(ast.parse((SRC / "building.py").read_text()))
    assert "ApartmentPoint.coords" in {scope for scope, _ in found}
    assert [f"building.py:{line} in {scope}" for scope, line in found if scope not in read_outs] == []


# the library functions that construct a random.Random; each enumeration
# that replaces a seeded sample takes its function off, and none may join
SEEDED = {
    "building.sample_alcove_points",
    "pairs.KWalk.__init__",
    "pairs.mirabolic_table",
    "pairs.support_check",
    "selftest.criterion_oracles",
    "zeta._dual_points",
}


def test_seeded_draws_only_shrink():
    found = {
        f"{path.stem}.{scope}"
        for path in SRC.glob("*.py")
        for scope, _ in _builders(ast.parse(path.read_text()), "Random")
    }
    assert found <= SEEDED
    # the rule sees a seeded draw inside a method
    bad = ast.parse("class W:\n    def __init__(self):\n        self.rng = random.Random(1)\n")
    assert _builders(bad, "Random") == [("W.__init__", 3)]
    # criterion 6 enumerates every graded-quotient type: it draws no point
    # and contracts no functional by brute force
    tree = ast.parse((SRC / "selftest.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    gone = {"sample_alcove_points", "contracts_functional", "enumerate_functionals", "BRUTE_FORCE_GUARD"}
    assert names & gone == set()


def _selftest_frame(tree) -> tuple[set[str], list[str]]:
    """The top-level names in selftest's tree that read the clock, and the
    lines where a criterion_* body names the seconds or failure_count key."""
    clocks, keys = set(), []
    for stmt in tree.body:
        name = getattr(stmt, "name", "")
        for node in ast.walk(stmt):
            if "perf_counter" in (getattr(node, "attr", None), getattr(node, "id", None)):
                clocks.add(name)
            key = node.value if isinstance(node, ast.Constant) else getattr(node, "arg", None)
            if name.startswith("criterion_") and key in {"seconds", "failure_count"}:
                keys.append(f"{name}:{node.lineno}")
    return clocks, keys


def test_only_the_runner_keeps_the_clock():
    # a criterion body counts checks, records failures and answers and
    # names its phases; the runner, its tally and run_all read the clock,
    # and the runner alone writes a report's seconds and failure_count
    clocks, keys = _selftest_frame(ast.parse((SRC / "selftest.py").read_text()))
    assert clocks == {"_Tally", "_criterion", "run_all"} and keys == []
    # the rule sees a body that times itself or writes a common key
    bad = ast.parse(
        "def criterion_x(scale, tally):\n    t0 = time.perf_counter()\n"
        "    return {'seconds': 0, 'failure_count': 0}\n"
    )
    assert _selftest_frame(bad) == ({"criterion_x"}, ["criterion_x:3", "criterion_x:3"])


def _scope_calls(path: Path) -> dict[str, set[str]]:
    """Qualified function name -> the callees of the calls in its body."""
    out = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = (*scope, child.name)
                if isinstance(child, ast.FunctionDef):
                    out[".".join(inner)] = {
                        _callee(c) for c in ast.walk(child) if isinstance(c, ast.Call)
                    }
                visit(child, inner)

    visit(ast.parse(path.read_text()), ())
    return out


def test_graded_values_are_built_in_normal_form():
    # the twist path builds every value already reduced: roots through the
    # one unchecked constructor, the twisted character from its parent's
    # checked fields, and epsilon monomials on their doubled int exponent,
    # whose Fraction form is built only by the q_const read-out and taken
    # only by the public constructor
    calls = {}
    for name in ("cyclotomic.py", "characters.py", "galois.py", "monomials.py"):
        calls.update(_scope_calls(SRC / name))
    builders = {"Fraction", "RootOfUnity", "LevelOneCharE", "EpsMonomial"}
    hot = [
        "RootOfUnity.__mul__",
        "RootOfUnity.__pow__",
        "RootOfUnity.inverse",
        "_root",
        "AdditiveCharPsi.of_residue",
        "TameChar.of_leading",
        "TameChar._at",
        "LevelOneCharE.of_unit_part",
        "LevelOneCharE.twist_by_base",
        "EpsMonomial._of_twice",
        "EpsMonomial.__mul__",
        "EpsMonomial.__truediv__",
        "EpsMonomial.scale",
        "EpsMonomial.__eq__",
        "EpsMonomial.__hash__",
        "epsilon_galois",
    ]
    assert [f"{scope}: {sorted(calls[scope] & builders)}" for scope in hot
            if calls[scope] & builders] == []
    assert "_root" in calls["RootOfUnity.__mul__"]
    assert "Fraction" in calls["EpsMonomial.q_const"]


INTERNED = ("RootOfUnity", "LambdaGraded", "TameChar")


def _raw_allocations(tree) -> list[tuple[str, str]]:
    """(function, class) for every X.__new__(C) call with C an interned
    class, also as cls inside its own class, and ("<alias>", name) for
    every __new__ taken without being called, which could allocate one."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope, child.name)
                continue
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name, owner)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "__new__":
                call = calls.get(id(child))
                if call is None:
                    out.append(("<alias>", ast.unparse(child)))
                elif call.args and isinstance(call.args[0], ast.Name):
                    name = call.args[0].id
                    name = owner if name == "cls" else name
                    if name in INTERNED:
                        out.append((scope, name))
            visit(child, scope, owner)

    visit(tree, "<module>", None)
    return out


def test_roots_and_units_are_allocated_only_where_they_are_interned():
    # one object per value: a RootOfUnity is allocated only in _root, a
    # LambdaGraded only in _unit and a TameChar only in _tame, each behind
    # its intern dict, and no module that names one of the classes keeps
    # __new__ under another name
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        if any(name in text for name in INTERNED):
            found += [(path.stem, *hit) for hit in _raw_allocations(ast.parse(text))]
    assert sorted(found) == [
        ("characters", "_tame", "TameChar"),
        ("cyclotomic", "_root", "RootOfUnity"),
        ("monomials", "_unit", "LambdaGraded"),
    ]
    # the rule sees an alias and a classmethod's own allocation
    bad = ast.parse(
        "_NEW = object.__new__\n"
        "class RootOfUnity:\n    @classmethod\n    def one(cls):\n        return object.__new__(cls)\n"
    )
    assert _raw_allocations(bad) == [("<alias>", "object.__new__"), ("one", "RootOfUnity")]


def test_single_value_options_stay_constants():
    # each of these took an option that every caller left at its default;
    # the value is a module constant now, and no parameter or table field
    # may bring a second value back
    shells = {"shell_bound", "B"}
    removed = {
        zeta.zeta_psi: shells | {"measure_scale"},
        zeta.zeta_psi_tilde: shells | {"measure_scale"},
        zeta._value: {"measure_scale"},
        zeta.gamma_automorphic: shells,
        zeta.cached_dual_table: shells,
        zeta._gamma_row: shells,
        zeta._principal_row: shells,
        zeta._dual_row: shells,
        zeta._psi_points: shells,
        zeta._psi_rows: shells,
        zeta._dual_points: shells,
        zeta._table_rows: shells,
        pairs.PairConfig: {"precision", "shell_bound"},
        pairs.mirabolic_table: {"precision", "shell_bound"},
        pairs.support_check: {"shell_bound", "depth"},
        pairs.sample_k_words: {"precision", "audit_stride"},
        pairs.cached_k_words: {"precision", "seed"},
        stability.verify_certificate: {"recheck_brute_force"},
        stability.enumerate_functionals: {"cap"},
        laurent.LaurentElem.inverse: {"rel_prec"},
        laurent.inverse_t: {"rel_prec"},
        bruhat.WhittakerInvariant.read: {"prec"},
        bruhat.decompose: {"prec"},
        supercuspidal.SSCDatum.whittaker_root: {"prec"},
        matching.EpsilonTable.of_datum: {"at_t_nums", "exponents"},
    }
    found = [
        f"{fn.__qualname__}({name})"
        for fn, names in removed.items()
        for name in inspect.signature(fn).parameters
        if name in names
    ]
    for table in (zeta.DualSupportTable, pairs.MirabolicTable, pairs.WalkSamples):
        found += [f"{table.__name__}.{f}" for f in table._fields if f in {"shell_bound", "precision"}]
    if hasattr(zeta, "dual_support_table"):
        found.append("zeta.dual_support_table")
    assert found == []


def test_test_only_helpers_stay_out_of_the_library():
    # each of these had no caller in src/, the command line or perfbench/:
    # the helpers the remaining API covers are gone, and the oracles live
    # in the test modules that use them; none may be defined or exported
    removed = {"LaurentElem.val_bound", "LocalField.from_base", "upper_unipotent", "r_of_x",
               "MonomialClass.inverse_matrix", "LambdaGraded.is_lambda_free", "EpsPolynomial",
               "NotMonomial", "ApartmentPoint.translate", "SSCDatum.rotation_matrix",
               "SSCDatum.affine_generic", "SSCDatum.whittaker", "LocalField.unit_reps",
               "kernel_of_action", "KernelIsScalars", "group_size", "probe_matrices",
               "FunctionalOverFq.is_zero", "diagonal", "central", "_lead_invariants", "_dual_lead",
               "_principal_lead", "_mirabolic_block", "_polar_block", "_column_unipotent",
               "MatG.identity", "MatG.scale", "MatG.superdiagonal_residues", "_triples",
               "LocalField.integer_reps", "TameChar.trivial", "MatG.in_pro_unipotent_iwahori",
               "GradedQuotient.spacings", "leibniz_det", "LaurentElem.__sub__",
               "LaurentElem.__neg__", "LaurentElem.__truediv__", "LaurentElem.__pow__",
               "LaurentElem.agrees", "LaurentElem.is_zero_at_prec",
               "LaurentElem.has_val_at_least", "MatG.entry", "_dot"}
    defined = set(llclab.__all__)
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            defined.add(getattr(node, "name", None))
            if isinstance(node, ast.ClassDef):
                defined |= {f"{node.name}.{f.name}" for f in node.body if isinstance(f, ast.FunctionDef)}
    assert removed & defined == set()


def test_library_sums_over_no_permutations():
    # a determinant expands into shared minors; the n! sum over
    # permutations is the oracle in tests/test_laurent.py
    found = [
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if "permutations" in (getattr(node, "attr", None), getattr(node, "id", None),
                              getattr(node, "name", None))
    ]
    assert found == []


def _perfbench_names(tree) -> set[str]:
    """The llclab names a benchmark module reads, without the "llclab."
    prefix: the attribute chains off the package, which it binds to L
    (also as tracing's parameter) or llclab, and the names it imports
    from the package's modules."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "llclab":
            out |= {".".join([*node.module.split(".")[1:], a.name]) for a in node.names}
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.insert(0, base.attr)
            base = base.value
        if chain and isinstance(base, ast.Name) and base.id in ("L", "llclab"):
            out.add(".".join(chain))
    return out


def test_perfbench_names_resolve_on_the_package():
    # the benchmark's files change only with the benchmark; a name removed
    # from the library that one of them reads fails here, before a run
    names = set()
    for path in SRC.parents[1].glob("perfbench/*.py"):
        names |= _perfbench_names(ast.parse(path.read_text()))
    assert {"FacetSpec.barycenter", "pairs.mirabolic_table", "SSCDatum.whittaker_root"} <= names
    missing = []
    for name in names:
        try:
            reduce(getattr, name.split("."), llclab)
        except AttributeError:
            missing.append(name)
    assert missing == []


def _module_names(tree, stems: set[str]) -> set[str]:
    """The names a module tree binds to a module: L and llclab, which the
    benchmark uses for the package, import aliases, and the package's
    modules imported by name, as in "from . import selftest as selftest_mod"."""
    out = {"L", "llclab"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            out |= {a.asname or a.name for a in node.names if a.name in stems}
    return out


def _mentions(tree, modules: set[str], stems: set[str]) -> set[str]:
    """The names a tree mentions: Name ids, import aliases, and the
    attributes taken off a module, such as L.pairs.mirabolic_table.  An
    attribute of anything else, such as MonomialClass.central, names a
    method or field, not a top-level function that shares its name."""

    def is_module(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in modules
        return isinstance(node, ast.Attribute) and node.attr in stems and is_module(node.value)

    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and is_module(node.value):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _attributes(tree) -> Counter:
    """How often each attribute name is taken in a tree."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _unreached(src: Path) -> list[str]:
    """The top-level functions and classes of the package at src that
    nothing names: neither the package outside their own definition and
    __init__'s re-exports, nor a benchmark module beside the package.
    Then the public methods of its classes that nothing takes as an
    attribute, by name, outside their own body or in a benchmark module."""
    stems = {path.stem for path in src.glob("*.py")}
    defined, mentions, methods = [], [], []
    attributes = Counter()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        attributes += _attributes(tree)
        modules = _module_names(tree, stems)
        for stmt in tree.body:
            if path.name == "__init__.py" and isinstance(stmt, ast.ImportFrom):
                continue
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.stem, stmt.name)
                defined.append(owner)
            if isinstance(stmt, ast.ClassDef):
                methods += [
                    (f"{path.stem}.{stmt.name}.{f.name}", f)
                    for f in stmt.body
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                ]
            mentions.append((owner, _mentions(stmt, modules, stems)))
    for path in src.parents[1].glob("perfbench/*.py"):
        tree = ast.parse(path.read_text())
        attributes += _attributes(tree)
        mentions.append((None, _mentions(tree, _module_names(tree, stems), stems)))
    return [
        f"{module}.{name}"
        for module, name in defined
        if not any(name in names for owner, names in mentions if owner != (module, name))
    ] + [
        name for name, f in methods if attributes[f.name] <= _attributes(f)[f.name]
    ]


# the walk's generator API, which only the tests drive; it goes with the
# walk, once criterion 7 enumerates its finite quotient instead of walking
WALK_GENERATORS = {"pairs.KWalk.push_elementary", "pairs.KWalk.push_one_unit_diag",
                   "pairs.KWalk.inverse_matrix"}


def test_every_library_name_is_reached():
    # a function, class or public method that only the tests reach
    # certifies nothing the library claims: it goes, or its oracle moves
    # into the tests
    assert set(_unreached(SRC)) == WALK_GENERATORS


def test_reachability_rule_flags_an_orphan(tmp_path):
    # a re-export and a recursive call inside its own body reach nothing
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .a import orphan, used\n")
    (pkg / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef orphan(k):\n    return orphan(k - 1) if k else used()\n"
    )
    assert _unreached(pkg) == ["a.orphan"]
    # a method of the same name reaches nothing either, called in the
    # package or off a class the benchmark takes from the package
    other = tmp_path / "other"
    pkg = other / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .a import central\nfrom .b import Mono\n")
    (pkg / "a.py").write_text("def central(n):\n    return [n]\n")
    (pkg / "b.py").write_text(
        "class Mono:\n    @classmethod\n    def central(cls):\n        return cls()\n\n"
        "    def twice(self):\n        return Mono.central(), self.central()\n"
    )
    (other / "perfbench").mkdir()
    (other / "perfbench" / "bench.py").write_text("import pkg as L\n\nL.Mono.central().twice()\n")
    assert _unreached(pkg) == ["a.central"]
    # a public method is reached only as an attribute outside its own
    # body: a recursive call, or a top-level function of its name, is not
    (pkg / "b.py").write_text(
        "class Mono:\n    @classmethod\n    def central(cls):\n        return cls()\n\n"
        "    def twice(self):\n        return Mono.central(), self.twice()\n\n"
        "    def _private(self):\n        return 0\n"
    )
    (pkg / "c.py").write_text("from .a import central\n\n\ndef twice():\n    return central(2)\n")
    (pkg / "__init__.py").write_text("from .b import Mono\nfrom .c import twice\n")
    (other / "perfbench" / "bench.py").write_text(
        "import pkg as L\nfrom pkg.c import twice\n\nL.Mono.central()\ntwice()\n"
    )
    assert _unreached(pkg) == ["b.Mono.twice"]


def _degree_comparisons(tree) -> list[str]:
    """Every comparison of the residue degree, f or self.f, with a
    literal or a tuple, list or set of literals."""

    def is_degree(node) -> bool:
        return (isinstance(node, ast.Name) and node.id == "f") or (
            isinstance(node, ast.Attribute) and node.attr == "f"
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        )

    def is_literal(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return all(isinstance(e, ast.Constant) for e in node.elts)
        return isinstance(node, ast.Constant)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_degree, operands)) and any(map(is_literal, operands)):
                found.append(ast.unparse(node))
    return found


def test_residue_field_does_not_branch_on_its_degree():
    # one polynomial-basis construction serves every residue degree: the
    # only comparison of f with a literal is the rejection of f < 1
    tree = ast.parse((SRC / "finitefield.py").read_text())
    assert _degree_comparisons(tree) == ["f < 1"]
    # the rule sees a degree branch and a degree whitelist
    bad = ast.parse(
        "if f not in (1, 2):\n    raise ValueError\n"
        "class K:\n    def m(self):\n        return 1 if self.f == 1 else 2\n"
    )
    assert _degree_comparisons(bad) == ["f not in (1, 2)", "self.f == 1"]
