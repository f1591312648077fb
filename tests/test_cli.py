"""Exit codes and payload shapes of the command line."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from llclab import cli
from llclab.building import MAX_N
from llclab.matching import twist_char
from llclab.zeta import closed_form_epsilon


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_epsilon_twist_integers_read_mod_q_minus_one(capsys):
    # the command line passes --twist-e and --twist-t through as given:
    # at q = 5, (7, -1) is the twist (3, 3), and the report echoes (7, -1)
    base = ["epsilon", "--q", "5", "--n", "2", "--zeta", "1/4", "--side", "all"]
    code, wrapped = run_json(capsys, [*base, "--twist-e", "7", "--twist-t", "-1"])
    assert code == 0 and wrapped["twist"] == {"e": 7, "at_t": -1}
    code, reduced = run_json(capsys, [*base, "--twist-e", "3", "--twist-t", "3"])
    assert code == 0 and wrapped["sides"] == reduced["sides"]


def test_epsilon_all_engines_agree(capsys):
    code, payload = run_json(
        capsys, ["epsilon", "--q", "7", "--n", "3", "--zeta", "0/1", "--side", "all"]
    )
    assert code == 0
    assert payload["equal"] is True
    assert sorted(payload["sides"]) == ["automorphic", "closed", "galois"]


@pytest.mark.parametrize("q,n,zeta", [("7", "3", "0/1"), ("9", "2", "1/4")])
def test_epsilon_sides_print_one_normal_form(capsys, q, n, zeta):
    # equal values print equal fields: the automorphic ratio comes out as
    # q * q^(-1/2 - s), which must print as q^(1/2 - s) like the other
    # sides, and at square q as q^(1/2) = 3 folded into the unit
    code, payload = run_json(
        capsys, ["epsilon", "--q", q, "--n", n, "--zeta", zeta, "--side", "all"]
    )
    assert code == 0 and payload["equal"] is True
    shown = [(side["unit"], side["q_exp"]) for side in payload["sides"].values()]
    assert len(shown) == 3 and shown.count(shown[0]) == 3


def test_epsilon_all_sides_at_thirteen_six(capsys):
    # the automorphic side at (13, 6) decomposes one lead matrix per shell
    # and leading digit, not the millions of x-classes of the cell
    code, payload = run_json(
        capsys,
        ["epsilon", "--q", "13", "--n", "6", "--u0", "7", "--zeta", "5/36", "--twist-e", "3",
         "--side", "all"],
    )
    assert code == 0 and payload["equal"] is True
    assert sorted(payload["sides"]) == ["automorphic", "closed", "galois"]
    shown = [(side["unit"], side["q_exp"]) for side in payload["sides"].values()]
    assert shown.count(shown[0]) == 3


def test_epsilon_single_engine(capsys):
    code, payload = run_json(
        capsys, ["epsilon", "--q", "5", "--n", "2", "--u0", "3", "--zeta", "1/4", "--side", "closed"]
    )
    assert code == 0
    assert "equal" not in payload
    assert list(payload["sides"]) == ["closed"]


def test_epsilon_even_q_rejected(capsys):
    assert cli.main(["epsilon", "--q", "4", "--n", "3"]) == 2


def test_epsilon_p_divides_n_rejected(capsys):
    assert cli.main(["epsilon", "--q", "3", "--n", "3"]) == 2


def test_epsilon_incompatible_central_value_rejected(capsys):
    # zeta^2 = -1 contradicts omega(pi) = 1
    code = cli.main(
        ["epsilon", "--q", "7", "--n", "2", "--zeta", "1/4", "--omega-at-pi", "0/1"]
    )
    assert code == 2


def test_gauss_matches_formula(capsys):
    code, payload = run_json(capsys, ["gauss", "--q", "7", "--n", "2", "--u0", "3", "--zeta", "1/4"])
    assert code == 0
    assert payload["equal"] is True


def test_gauss_twist_ratio(capsys):
    code, payload = run_json(
        capsys,
        ["gauss", "--q", "7", "--n", "2", "--u0", "3", "--zeta", "1/4", "--twist-e", "1"],
    )
    assert code == 0
    assert payload["twist"]["matches"] is True


def test_gauss_deeper_depth(capsys):
    code, payload = run_json(
        capsys, ["gauss", "--q", "5", "--n", "2", "--zeta", "1/4", "--depth", "3"]
    )
    assert code == 0
    assert payload["equal"] is True


def test_gauss_deep_depth_at_thirteen(capsys):
    # depth 6 at q = 13 stands for 13^5 * 12 cosets; the sum reads only
    # their leading residue pairs
    code, payload = run_json(
        capsys,
        ["gauss", "--q", "13", "--n", "4", "--u0", "3", "--zeta", "1/16", "--depth", "6"],
    )
    assert code == 0
    assert payload["equal"] is True


def test_gauss_p_divides_n_rejected(capsys):
    assert cli.main(["gauss", "--q", "5", "--n", "5"]) == 2


def test_gauss_below_conductor_depth_rejected(capsys):
    # at depth 1 the sum is no Gauss sum: a precondition, not a mismatch
    argv = ["gauss", "--q", "7", "--n", "2", "--u0", "3", "--zeta", "1/4", "--depth", "1"]
    assert cli.main(argv) == 2
    assert "depth m >= 2" in json.loads(capsys.readouterr().err)["error"]


def test_epsilon_depth_above_the_bound_rejected(capsys):
    # the integrals' cost grows about as depth^2, and depth 100,000 never
    # returned: a precondition, refused before any row is built
    argv = ["epsilon", "--q", "5", "--n", "3", "--side", "auto", "--depth", "100000"]
    assert cli.main(argv) == 2
    assert "MAX_DEPTH" in json.loads(capsys.readouterr().err)["error"]


def test_facet_list(capsys):
    code, payload = run_json(capsys, ["facet", "--n", "4", "--list"])
    assert code == 0
    assert payload["count"] == 15
    assert len(payload["facets"]) == 15
    alcoves = [f for f in payload["facets"] if f["alcove"]]
    assert len(alcoves) == 1


def test_facet_certify_proper_facet(capsys):
    code, payload = run_json(
        capsys, ["facet", "--n", "4", "--spec", "t=0;m=2,2", "--certify", "--fq", "3"]
    )
    assert code == 0
    assert payload["certificate"]["kind"] == "NoStableJordanWitness"
    assert payload["certificate"]["verified"] is True


def test_facet_certify_alcove(capsys):
    code, payload = run_json(
        capsys, ["facet", "--n", "3", "--spec", "t=0;m=1,1,1", "--certify", "--fq", "3"]
    )
    assert code == 0
    assert payload["certificate"]["kind"] == "StableExists"


def test_facet_destabilize(capsys):
    code, payload = run_json(
        capsys, ["facet", "--n", "3", "--point", "0,-1/4,-2/3", "--destabilize"]
    )
    assert code == 0
    assert payload["certificate"]["kind"] == "UnstableCocharacter"
    assert payload["certificate"]["verified"] is True


def test_facet_destabilize_barycenter_rejected(capsys):
    # barycenters have no destabilizing cocharacter
    code = cli.main(["facet", "--n", "2", "--point", "0,-1/2", "--destabilize"])
    assert code == 2


def test_facet_even_fq_rejected(capsys):
    assert cli.main(["facet", "--n", "4", "--spec", "t=0;m=2,2", "--certify", "--fq", "8"]) == 2
    assert "odd prime power" in json.loads(capsys.readouterr().err)["error"]


def test_residue_fields_above_the_bound_exit_2(capsys):
    # F_2187 would need two tables of 2187^2 entries; it is refused instead
    for argv in (["epsilon", "--q", "2187", "--n", "2"], ["facet", "--n", "4", "--spec", "t=0;m=2,2", "--certify", "--fq", "2187"]):
        code = cli.main(argv)
        err = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and "4,782,969 entries" in err


def test_alcove_certificate_above_nineteen_names_the_given_q(capsys):
    # the stabilizer is counted over F_(q^2) too, and 23^2 = 529 is above
    # the bound: the refusal names the q given as well as q^2
    code = cli.main(["facet", "--n", "3", "--spec", "t=0;m=1,1,1", "--certify", "--fq", "23"])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert re.search(r"\bq = 23\b", err) and "q^2 = 529" in err, err


def test_facet_needs_a_mode(capsys):
    assert cli.main(["facet", "--n", "4"]) == 2


@pytest.mark.parametrize("argv,flag", [
    (["--n", "3", "--point", "0,-1/3,-2/3", "--certify"], "--certify"),
    (["--n", "4", "--spec", "t=0;m=2,2", "--destabilize"], "--destabilize"),
    (["--n", "4", "--list", "--spec", "t=0;m=2,2"], "--spec"),
    (["--n", "3", "--list", "--point", "0,-1/3,-2/3"], "--point"),
    (["--spec", "t=0;m=1,1,1", "--point", "0,-1/3,-2/3"], "--point"),
    (["--n", "4", "--point", "0,-1/3,-2/3"], "--n"),
    (["--n", "4", "--list", "--fq", "3"], "--fq"),
    (["--n", "4", "--spec", "t=0;m=2,2", "--fq", "5"], "--fq"),
    (["--n", "3", "--point", "0,-1/4,-2/3", "--destabilize", "--fq", "7"], "--fq"),
], ids=["certify-point", "destabilize-spec", "list-spec", "list-point", "spec-point", "n-point",
        "fq-list", "fq-spec", "fq-destabilize"])
def test_facet_rejects_a_flag_its_mode_does_not_read(capsys, argv, flag):
    # each of these once exited 0, the flag ignored: --n 4 with a point of
    # size 3 printed that point's report
    assert cli.main(["facet", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in json.loads(captured.err)["error"]


def test_facet_above_the_census_bound_rejected(capsys):
    # 2^13 - 1 facets, or one block of 4,000, would take seconds to
    # minutes and gigabytes: each is refused before it is built
    n = str(MAX_N + 1)
    point = ",".join(["0"] * (MAX_N + 1))
    for argv in (["--list", "--n", n], ["--spec", f"t=0;m={n}"], ["--spec", "t=0;m=4000"],
                 ["--spec", "t=1;m=" + ",".join(["1"] * (MAX_N + 1))], ["--point", point]):
        assert cli.main(["facet", *argv]) == 2, argv
        assert "census bound" in json.loads(capsys.readouterr().err)["error"]
    code, payload = run_json(capsys, ["facet", "--spec", f"t=0;m={MAX_N}"])
    assert code == 0 and payload["n"] == MAX_N


def test_bruhat_round_trip(capsys):
    mat = json.dumps([[[0, [1]], [1, [2]]], [[-1, [3]], [0, [4]]]])
    code, payload = run_json(capsys, ["bruhat", "--q", "5", "--matrix", mat])
    assert code == 0
    assert payload["product_matches"] is True
    assert set(payload) >= {"unipotent", "monomial", "iwahori"}


def test_bruhat_integer_entries(capsys):
    code, payload = run_json(capsys, ["bruhat", "--q", "3", "--matrix", "[[0,1],[1,0]]"])
    assert code == 0
    assert payload["product_matches"] is True


def test_bruhat_singular_rejected(capsys):
    assert cli.main(["bruhat", "--q", "3", "--matrix", "[[0,0],[0,0]]"]) == 2


def test_bruhat_precision_cut_reports_precision(capsys):
    # diag(t^3, 1) is invertible; cut to O(t^2) its first row is undecidable
    mat = json.dumps([[[3, [1]], 0], [0, 1]])
    assert cli.main(["bruhat", "--q", "5", "--matrix", mat, "--prec", "2"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert "O(t^2)" in err and "not invertible" not in err


def test_bruhat_malformed_json_rejected(capsys):
    # not JSON; not a non-empty list of lists; an entry of the wrong shape;
    # a val, coefficient or prec that is not a JSON integer, or a bool
    obj = {"field": "F", "n": 1, "val": 0, "coeffs": [1]}
    bad = ["[[0,1],[", "null", "5", "[5]", "[]", "[[]]", "[[[0,5]]]", '[["1"]]',
           '[[[0,"12"]]]', "[[[0,[1.7]]]]", "[[[0.5,[1]]]]", "[[true]]", "[[[0,[true]]]]",
           json.dumps([[{**obj, "coeffs": 5}]]), json.dumps([[{**obj, "val": "x"}]]),
           json.dumps([[{k: v for k, v in obj.items() if k != "val"}]]),
           json.dumps([[{**obj, "prec": 1.5}]]), json.dumps([[{**obj, "n": 2}]]),
           json.dumps([[{**obj, "n": True}]])]
    for text in bad:
        assert cli.main(["bruhat", "--q", "3", "--matrix", text]) == 2, text
        assert json.loads(capsys.readouterr().err)["error"], text


def test_bruhat_reads_the_entries_it_prints(capsys):
    # the help names the object form to_json prints; it reads back as
    # given, a finite prec included
    obj = {"field": "F", "n": 1, "val": -1, "coeffs": [1, 2], "prec": 3}
    code, payload = run_json(capsys, ["bruhat", "--q", "3", "--matrix", json.dumps([[obj, 0], [0, 1]])])
    assert code == 0 and payload["product_matches"]
    assert payload["monomial"] == {"perm": [0, 1], "exps": [-1, 0], "units": [1, 1]}
    with pytest.raises(SystemExit):
        cli.main(["bruhat", "--help"])
    assert '"field": "F", "n": 1, "val"' in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("coeff", [5, -1])
@pytest.mark.parametrize("form", ["pair", "object"])
def test_bruhat_coefficient_outside_residues_rejected(capsys, form, coeff):
    # a coefficient indexes the residue tables: q reads past them, and a
    # negative one reads another residue's row
    entry = [0, [coeff]] if form == "pair" else {"field": "F", "n": 1, "val": 0, "coeffs": [coeff]}
    mat = json.dumps([[entry, 1], [1, 0]])
    assert cli.main(["bruhat", "--q", "5", "--matrix", mat]) == 2
    assert "residues 0..4" in json.loads(capsys.readouterr().err)["error"]


def test_match_round_trip(capsys):
    code, payload = run_json(capsys, ["match", "--q", "3", "--n", "2", "--u0", "2", "--zeta", "1/4"])
    assert code == 0
    assert payload["all_equal"] is True
    assert payload["determination"]["matches_input"] is True


def test_match_zeta_of_order_n_times_q_minus_one(capsys):
    code, payload = run_json(
        capsys,
        ["match", "--q", "7", "--n", "3", "--u0", "3", "--zeta", "1/18",
         "--omega-exp", "1", "--omega-at-pi", "1/6"],
    )
    assert code == 0
    assert payload["all_equal"] is True
    assert payload["determination"]["matches_input"] is True


@pytest.mark.parametrize("config", [
    dict(q=3, n=2, u0=2, omega_exp=0, zeta="1/4", omega_at_pi=None),
    dict(q=7, n=3, u0=3, omega_exp=1, zeta="1/18", omega_at_pi="1/6"),
])
def test_match_json_sides_are_closed_form_json(capsys, config):
    # verify_matching hands back monomials; the command serializes every
    # side of every twist to the JSON of the closed form
    argv = ["--q", str(config["q"]), "--n", str(config["n"]), "--u0", str(config["u0"]),
            "--omega-exp", str(config["omega_exp"]), "--zeta", config["zeta"]]
    if config["omega_at_pi"] is not None:
        argv += ["--omega-at-pi", config["omega_at_pi"]]
    code, payload = run_json(capsys, ["match", "--format", "json", *argv])
    assert code == 0
    d = cli._datum(argparse.Namespace(**config))
    assert [list(row) for row in payload["twists"]] == [
        ["twist", "closed", "galois", "automorphic", "equal"]
    ] * (d.q - 1)
    for row in payload["twists"]:
        want = closed_form_epsilon(d, twist_char(d.F, row["twist"]["e"], row["twist"]["at_t"])).to_json()
        assert row["closed"] == row["galois"] == row["automorphic"] == want
    if d.q == 3:
        assert payload["twists"][0]["closed"] == {
            "unit": {"order": 4, "coeffs": {"1": "1"}}, "lambda": 0, "q_exp": {"const": "1/2", "s": -1}
        }


def test_pair_shared_central_character(capsys):
    code, payload = run_json(
        capsys,
        [
            "pair", "--q", "5", "--n", "2", "--zeta", "1/4",
            "--u0-2", "1", "--zeta-2", "3/4",
            "--steps", "300", "--support-samples", "30",
        ],
    )
    assert code == 0
    assert payload["ok"] is True
    assert payload["mirabolic"]["all_equal"] is True


def test_pair_mismatched_central_character_rejected(capsys):
    code = cli.main(
        ["pair", "--q", "5", "--n", "2", "--zeta", "1/4", "--u0-2", "1", "--zeta-2", "0/1"]
    )
    assert code == 2


@pytest.mark.parametrize("flag,value", [("--steps", "-3"), ("--steps", "0"), ("--support-samples", "-3")])
def test_pair_rejects_empty_samples(capsys, flag, value):
    args = ["pair", "--q", "5", "--n", "2", "--zeta", "1/4", "--u0-2", "1", "--zeta-2", "3/4",
            "--steps", "30", "--support-samples", "8"]
    args[args.index(flag) + 1] = value
    assert cli.main(args) == 2
    assert "error" in json.loads(capsys.readouterr().err)


PAIR_ARGS = ["pair", "--q", "5", "--n", "2", "--zeta", "1/4", "--u0-2", "1", "--zeta-2", "3/4"]


@pytest.mark.parametrize("flag,value,bound", [
    ("--steps", "100001", "100,000"), ("--steps", "1000000000", "100,000"),
    ("--support-samples", "10001", "10,000"), ("--support-samples", "1000000000", "10,000"),
])
def test_pair_bounds_its_samples_before_any_work(capsys, monkeypatch, flag, value, bound):
    def refuse(*args, **kwargs):
        raise AssertionError("pair started work on an out-of-range option")

    for name in ("_datum", "mirabolic_agreement", "sample_k_words", "support_check"):
        monkeypatch.setattr(cli, name, refuse)
    assert cli.main([*PAIR_ARGS, flag, value]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == f"{flag} must lie in 1..{bound}, got {value}"


def build_subparser(name):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def test_pair_bounds_keep_the_defaults_and_criterion_seven():
    pair = build_subparser("pair")
    assert 1 <= pair.get_default("steps") <= 10_000 <= cli.MAX_STEPS
    assert 1 <= pair.get_default("support_samples") <= cli.MAX_SUPPORT_SAMPLES


@pytest.mark.parametrize("argv,form", [
    (["epsilon", "--q", "5", "--n", "2", "--zeta", "x"], '"a/N"'),
    (["epsilon", "--q", "5", "--n", "2", "--omega-at-pi", "abc"], '"a/N"'),
    (["epsilon", "--q", "5", "--n", "2", "--zeta", "1/0"], '"a/N"'),
    ([*PAIR_ARGS[:-1], "3"], '"a/N"'),
    (["facet", "--spec", "t=0;m="], '"t=0;m=2,2"'),
    (["facet", "--spec", "t=;m=2"], '"t=0;m=2,2"'),
    (["facet", "--spec", "m=2"], '"t=0;m=2,2"'),
    (["facet", "--spec", "t=0;m=2;k=1"], '"t=0;m=2,2"'),
])
def test_malformed_roots_and_specs_name_the_expected_form(capsys, argv, form):
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert form in err and repr(argv[-1]) in err


def test_selftest_small_scale(capsys):
    code, payload = run_json(capsys, ["selftest", "--scale", "small"])
    assert code == 0
    assert payload["ok"] is True
    assert len(payload["criteria"]) == 8


def test_selftest_table_lines(capsys):
    code, out = run(capsys, ["selftest", "--scale", "small", "--format", "table"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all("PASS" in line for line in lines)


def test_selftest_runs_only_the_named_criteria(capsys):
    args = ["selftest", "--scale", "small", "--criterion", "6", "--criterion", "1",
            "--criterion", "6"]
    code, payload = run_json(capsys, args)
    assert code == 0 and payload["ok"] is True
    assert [rep["criterion"] for rep in payload["criteria"]] == [1, 6]
    code, out = run(capsys, args + ["--format", "table"])
    assert code == 0
    assert [line.split(" (")[0] for line in out.strip().splitlines()[:-1]] == [
        "criterion 1", "criterion 6"
    ]


@pytest.mark.parametrize("num", ["0", "9", "-2"])
def test_selftest_rejects_unknown_criteria(capsys, num):
    assert cli.main(["selftest", "--scale", "small", "--criterion", num]) == 2
    assert "criterion" in json.loads(capsys.readouterr().err)["error"]


def test_table_format_is_aligned(capsys):
    code, out = run(
        capsys, ["epsilon", "--q", "5", "--n", "2", "--zeta", "1/4", "--side", "closed",
                 "--format", "table"]
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert any(l.startswith("q") for l in lines)
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(block, {})


def test_readme_command_lines_exit_0(capsys):
    lines = re.findall(r"^llclab (.*)$", README, re.M)
    assert len(lines) == 10
    for line in lines:
        argv = shlex.split(line, comments=True)
        # test_selftest_small_scale runs the whole grid
        if argv[0] != "selftest" or "--criterion" in argv:
            assert cli.main(argv) == 0, line
            capsys.readouterr()
