import json
import os
import shlex
import sys

import pytest

from pairalg import cli, congruences, growth, semirings
from pairalg.cli import main
from pairalg.errors import StructureError
from pairalg.hyper import SemiHypergroup
from pairalg.pairs import SemiringPair
from pairalg.polynomials import find_preceq_roots, parse_poly
from pairalg.semirings import nmax_trunc
from pairalg.structio import (ParseError, load_structures, parse_structures,
                              serialize_structures)
from test_congruence_oracle import fq_pair, residue_ring
from test_fractions import boolean_matrices

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURES = os.path.join(ROOT, "src", "pairalg", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


ALL_FIXTURES = ["boolean.pair", "double_boolean.pair", "supertropical3.pair",
                "nmax3.semiring", "krasner.hyper"]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_roundtrip(name):
    with open(fx(name)) as fh:
        text = fh.read()
    structs = parse_structures(text)
    assert serialize_structures(structs) == text


def test_pair_without_tangibles_roundtrip(tmp_path, capsys):
    # Z/4Z with A0 = {0} and T = {}: an empty layer is written as a key with
    # no value, and read back as the empty layer
    p = residue_ring(4)
    text = serialize_structures({"semiring": p.carrier, "pair": p})
    assert "\ntangibles = \n" in text
    back = parse_structures(text)["pair"]
    assert list(back.a0_elements()) == [0] and list(back.tangible_elements()) == []
    assert serialize_structures({"semiring": back.carrier, "pair": back}) == text
    empty_a0 = parse_structures(text.replace("a0 = 0", "a0 ="))["pair"]
    assert list(empty_a0.a0_elements()) == []
    path = tmp_path / "z4.pair"
    path.write_text(text)
    code, report = run(capsys, "congruences", str(path))
    assert code == 0 and report["count"] == 3


def test_parse_boolean_pair():
    structs = load_structures(fx("boolean.pair"))
    s = structs["semiring"]
    assert s.labels == ["0", "1"]
    assert structs["pair"].in_a0(0)


def test_dimension_error_reports_line():
    bad = "[semiring]\nname = x\nelements = 0 1\nzero = 0\none = 1\n" \
          "add =\n  0 1\n  1 1\n  1 1\nmul =\n  0 0\n  0 1\n"
    with pytest.raises(ParseError) as exc:
        parse_structures(bad)
    assert "line" in str(exc.value)


def test_unknown_label_rejected():
    bad = "[semiring]\nname = x\nelements = 0 1\nzero = 0\none = 1\n" \
          "add =\n  0 q\n  1 1\nmul =\n  0 0\n  0 1\n"
    with pytest.raises(ParseError) as exc:
        parse_structures(bad)
    assert "'q'" in str(exc.value)


def test_unknown_section_rejected():
    with pytest.raises(ParseError):
        parse_structures("[conference]\nname = x\n")


def edited(name, edits):
    """A fixture's text with the numbered lines replaced; an empty
    replacement blanks the line, so later lines keep their numbers."""
    with open(fx(name)) as fh:
        lines = fh.read().split("\n")
    for lineno, new in edits.items():
        lines[lineno - 1] = new
    return "\n".join(lines)


B, K = "boolean.pair", "krasner.hyper"
BLANK_SEMIRING = dict.fromkeys(range(1, 12), "")


@pytest.mark.parametrize("name, edits, message", [
    (B, {1: "x = 1"}, "line 1: content before any [section] header"),
    (B, {13: "[conference]"}, "line 13: unknown section 'conference'"),
    (B, {3: "elements 0 1"}, "line 3: expected 'key = value', got 'elements 0 1'"),
    (B, {5: "zero = 1"}, "line 5: duplicate key 'zero'"),
    (B, {7: "", 8: ""}, "line 6: key 'add' has no value and no table rows"),
    (B, {3: ""}, "line 1: missing required key 'elements'"),
    (B, {4: "zero =", 5: "  0"}, "line 4: key 'zero' expects a single value, not a table"),
    (B, {4: "zero = z"}, "line 4: zero label 'z' not among elements"),
    (B, {5: "one = z"}, "line 5: one label 'z' not among elements"),
    # both keys are read before either label is looked up
    (B, {4: "zero = z", 5: ""}, "line 1: missing required key 'one'"),
    (B, {8: "  1 1\n  1 1"}, "line 7: add table has 3 rows, expected 2"),
    (B, {10: "  0 0 0"}, "line 10: mul table row has 3 entries, expected 2"),
    (B, {8: "  1 q"}, "line 8: unknown element label 'q' in add table"),
    (B, {9: "mul = 0", 10: "", 11: ""}, "line 1: add/mul must be tables"),
    (B, {7: "  0 q", 11: "  q 1"}, "line 7: unknown element label 'q' in add table"),
    (B, BLANK_SEMIRING, "line 13: [pair] requires a preceding [semiring]"),
    (B, {14: "a0 = 0 q"}, "line 14: unknown element label 'q' in 'a0'"),
    (B, {15: ""}, "line 13: missing required key 'tangibles'"),
    (K, {7: "  {0} 1"}, "line 7: expected subset literal {a,b}, got '1'"),
    (K, {7: "  {0} {1} {1}"}, "line 7: add table row has 3 entries, expected 2"),
    (K, {8: "  {1} {,}"}, "line 8: empty subset literal in add table"),
    (K, {8: "  {1} {0,q}"}, "line 8: unknown element label 'q' in add table"),
    (K, {11: "  0 q"}, "line 11: unknown element label 'q' in mul table"),
    (K, {5: ""}, "line 1: missing required key 'one'"),
    # [hyper] looks zero up first and reads one only after the add table
    (K, {4: "zero = z", 5: ""}, "line 4: zero label 'z' not among elements"),
    (K, {5: "", 8: "  {1} {0,q}"}, "line 8: unknown element label 'q' in add table"),
    (B, {2: "name =\n  x y"}, "line 2: key 'name' expects a single value, not a table"),
    (K, {2: "name =\n  x y"}, "line 2: key 'name' expects a single value, not a table"),
    # without a mul table, one is refused whatever its label
    (K, {9: "", 10: "", 11: ""}, "line 5: key 'one' needs a mul table"),
    (K, {5: "one = zz", 9: "", 10: "", 11: ""}, "line 5: key 'one' needs a mul table"),
])
def test_parse_errors_name_their_line(name, edits, message):
    with pytest.raises(ParseError) as exc:
        parse_structures(edited(name, edits))
    assert str(exc.value) == message
    assert exc.value.line == int(message.split()[1].rstrip(":"))


@pytest.mark.parametrize("edits", [
    {6: "add = {0}", 7: "", 8: ""},
    {9: "mul = 0", 10: "", 11: ""},
])
def test_hyper_tables_must_be_tables(edits):
    with pytest.raises(ParseError) as exc:
        parse_structures(edited(K, edits))
    assert str(exc.value) == "line 1: add/mul must be tables"


def test_hyper_without_mul_is_a_semihypergroup():
    h = parse_structures(edited(K, {5: "", 9: "", 10: "", 11: ""}))["hyper"]
    assert type(h) is SemiHypergroup
    assert h.name == "krasner" and h.labels == ["0", "1"]


def test_hyper_labels_must_be_distinct():
    text = edited(K, {3: "elements = 0 0", 5: "one = 0", 7: "  {0} {0}",
                      8: "  {0} {0}", 10: "  0 0", 11: "  0 0"})
    with pytest.raises(StructureError, match="^duplicate element labels$"):
        parse_structures(text)
    with pytest.raises(StructureError, match="^duplicate element labels$"):
        SemiHypergroup(["a", "a"], [[{0}, {1}], [{1}, {0}]], 0)


# ---------------------------------------------------------------------------
# CLI behaviour


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def readme_examples():
    """The ``pairalg ...`` lines of the README's example block, each split
    into its arguments and its trailing comment."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        out.append((shlex.split(command), comment.strip()))
    return out


def test_readme_examples_run(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    examples = readme_examples()
    assert len(examples) == 6
    reports = {}
    for argv, comment in examples:
        assert argv[0] == "pairalg"
        code, report = run(capsys, *argv[1:])
        assert code == 0, argv
        reports[argv[1]] = report, comment
    spectrum, comment = reports["spectrum"]
    assert comment == "one prime, Krull 0"
    assert spectrum["prime_count"] == 1 and spectrum["krull_dimension"] == 0
    hilbert, comment = reports["hilbert"]
    assert hilbert["coefficients"] == json.loads(comment) == [2, 4, 8, 16, 32]


def test_cli_verify_fixture(capsys):
    code, report = run(capsys, "verify", fx("boolean.pair"))
    assert code == 0
    assert report["valid"]


def test_cli_verify_broken_semiring(tmp_path, capsys):
    # non-commutative addition: exit 1 with a witness
    bad = tmp_path / "broken.semiring"
    bad.write_text(
        "[semiring]\nname = broken\nelements = 0 1\nzero = 0\none = 1\n"
        "add =\n  0 1\n  0 1\nmul =\n  0 0\n  0 1\n")
    code, report = run(capsys, "verify", str(bad))
    assert code == 1
    assert not report["valid"]
    assert report["reports"]["semiring"]["violations"]


def test_cli_spectrum_boolean(capsys):
    code, report = run(capsys, "spectrum", fx("boolean.pair"))
    assert code == 0
    assert report["prime_count"] == 1
    assert report["krull_dimension"] == 0


def test_cli_hilbert_free_two(capsys):
    code, report = run(capsys, "hilbert", "--free-letters", "2",
                       "--kmax", "5")
    assert code == 0
    assert report["coefficients"] == [2, 4, 8, 16, 32]


def test_cli_shallow(capsys):
    code, report = run(capsys, "shallow", fx("supertropical3.pair"))
    assert code == 0 and report["shallow"]


def test_cli_radical_marker_exit(capsys):
    code, report = run(capsys, "radical", fx("supertropical3.pair"))
    assert code == 1
    assert report["radical"] == "no pair-congruence"


def test_cli_unknown_input_is_input_error(capsys):
    code, _ = run(capsys, "verify", "definitely-not-a-file")
    assert code == 2


def test_cli_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_window_only_where_it_is_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "boolean", "--window", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --window 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["verify", "supertropical-integers"], "--window"),
    (["shallow", "nat-plus-times"], "--window"),
    (["property-n", "supertropical-naturals"], "--window"),
    (["polyroots", "supertropical-naturals", "--poly", "x + 1"], "--window"),
    (["classify-element", "boolean", "--element", "x"], "--window"),
    (["classify-element", "boolean", "--element", "x"], "--degree"),
    (["ore-witness", "supertropical-naturals", "--a1", "1", "--a2", "2"],
     "--window"),
    (["ore-witness", "supertropical-naturals", "--a1", "1", "--a2", "2"],
     "--degree"),
    (["growth", "--free-letters", "2"], "--kmax"),
    (["hilbert", "--free-letters", "2"], "--kmax"),
    (["gk", "--free-letters", "2"], "--kmax"),
])
def test_cli_negative_bound_is_usage_error(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, "-1"])
    assert exc.value.code == 2
    assert ("argument %s: must be >= 0, got -1" % option
            in capsys.readouterr().err)


def test_cli_radical_noncommutative_is_input_error(tmp_path, capsys):
    p, _ = boolean_matrices()
    path = tmp_path / "bmat2.pair"
    path.write_text(serialize_structures({"semiring": p.carrier, "pair": p}))
    assert main(["radical", str(path)]) == 2
    assert capsys.readouterr().err == ("input error: twist-power radical is "
                                       "defined for commutative carriers only\n")


def test_cli_ore_witness(capsys):
    code, report = run(capsys, "ore-witness", "supertropical-naturals",
                       "--a1", "1", "--a2", "2", "--degree", "1",
                       "--window", "4")
    assert code == 0
    assert report["result"]["status"] == "yes"


def test_cli_powerset_size_ge_two(capsys):
    code, report = run(capsys, "powerset", fx("krasner.hyper"),
                       "--a0-choice", "size_ge_two")
    assert code == 0
    assert report["shallow"]
    assert len(report["elements"]) == 3


def test_cli_krasner_quotient(capsys):
    code, report = run(capsys, "krasner", fx("nmax3.semiring"),
                       "--subgroup", "0")
    assert code == 0
    assert report["verify"]["valid"]


def test_cli_localize(capsys):
    code, report = run(capsys, "localize", fx("boolean.pair"),
                       "--s-subset", "1")
    assert code == 0
    assert report["elements"]


def test_cli_localize_empty_denominator_set_is_input_error(capsys):
    assert main(["localize", fx("boolean.pair"), "--s-subset", ""]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_cli_polyroots_tangible_window(capsys):
    code, report = run(capsys, "polyroots", "supertropical-naturals",
                       "--poly", "x^2 + 1*x + 4", "--window", "10")
    assert code == 0
    assert "2" in report["roots"]


def test_cli_polyroots_labels_each_first_coordinate_once(capsys, monkeypatch):
    # a two-variable literal has many roots per first coordinate
    p = semirings.supertropical_integers()
    roots = find_preceq_roots(parse_poly(p, "1v*x*y + 2"), p.elements(10))
    firsts = {r[0] for r in roots}
    assert len(roots) > 10 * len(firsts) > 0
    calls = []

    def counted(x):
        calls.append(x)
        return label(x)

    label = semirings.st_label
    monkeypatch.setattr(semirings, "st_label", counted)
    code, report = run(capsys, "polyroots", "supertropical-integers",
                       "--poly", "1v*x*y + 2", "--window", "10")
    assert code == 0
    assert report["roots"] == [label(r[0]) for r in roots]
    assert sorted(calls) == sorted(firsts)


def test_cli_growth_matrix_units(capsys):
    code, report = run(capsys, "growth", "--matrix-units", "2",
                       "--kmax", "6")
    assert code == 0
    assert report["profile"]["d"] == [1, 4, 0, 0, 0, 0, 0]


ST3 = "supertropical3.pair"
TANGIBLY_SEPARATING = {"neg_compatible": True, "property_n": True,
                       "status": "tangibly_separating",
                       "tangibly_separating": True}


@pytest.mark.parametrize("argv, code, report, summary", [
    (["krull", fx(B)], 0, {"krull_dimension": 0}, "Krull dimension 0"),
    (["krull", fx("double_boolean.pair")], 1, {"krull_dimension": None},
     "no primes; Krull dimension undefined"),
    (["congruences", fx(ST3)], 0,
     {"count": 1, "congruences": [[["0", "0"], ["1", "1"], ["1v", "1v"]]]},
     "1 pair-congruences"),
    (["property-n", fx(ST3)], 0, {"result": TANGIBLY_SEPARATING},
     "property-n: tangibly_separating"),
    (["classify-element", "boolean", "--element", "1", "--degree", "1"], 0,
     {"element": "1", "classification": "integral", "degree_bound": 1,
      "window": 20,
      "integral": {"status": "yes", "bound": None, "detail": "",
                   "witness": "{'degree': 1, 'coeffs': (1,)}"},
      "algebraic": {"status": "no", "bound": 1, "detail": "",
                    "witness": None},
      "congruence_algebraic": {
          "status": "yes", "bound": None, "detail": "",
          "witness": "{'f1': Polynomial(1*x0^1), 'f2': Polynomial(1), "
                     "'point': 0}"}},
     "classification: integral"),
    (["radical", fx(B), "--generators", "1,1;0,0"], 0,
     {"radical": [["0", "0"], ["1", "1"]]}, "radical has 2 pairs"),
    (["radical", fx(B), "--generators", "0,1"], 1,
     {"radical": "no pair-congruence", "witness": [1, 0]},
     "generators close onto T x A0"),
    (["verify", fx(K)], 0,
     {"valid": True, "reports": {"hyper": {"checked": 16, "subject": "krasner",
                                           "valid": True, "violations": []}}},
     "verify %s: ok" % fx(K)),
])
def test_cli_handler_reports(capsys, argv, code, report, summary):
    assert main(argv) == code
    captured = capsys.readouterr()
    head = {"command": argv[0], "input": argv[1]}
    assert json.loads(captured.out) == {**head, **report}
    assert captured.err == summary + "\n"


@pytest.mark.parametrize("argv", [
    ["krasner", "nat-plus-times", "--subgroup", "1"],
    ["radical", "nat-plus-times"],
    ["ore-witness", "supertropical-naturals", "--a1", "x", "--a2", "1"],
])
def test_cli_symbolic_misuse_is_input_error(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("argv, label", [
    (["supertropical3", "--a1", "1v", "--a2", "1"], "1v"),
    (["supertropical3", "--a1", "1", "--a2", "0"], "0"),
    ([fx(B), "--a1", "0", "--a2", "1"], "0"),
])
def test_cli_ore_witness_refuses_a_non_tangible(capsys, argv, label):
    assert main(["ore-witness"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: %r is not tangible\n" % label


def test_cli_json_leaves_stderr_in_place(capsys):
    before = sys.stderr
    code = main(["shallow", fx("supertropical3.pair"), "--json"])
    captured = capsys.readouterr()
    assert sys.stderr is before
    assert code == 0 and json.loads(captured.out)["shallow"]
    assert captured.err == ""


def test_cli_parser_is_built_once_and_reused(capsys, monkeypatch):
    argvs = [["spectrum", fx("boolean.pair")],
             ["hilbert", "--free-letters", "2", "--kmax", "3"]]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr().out))
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(True)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    reused = [(main(argv), capsys.readouterr().out) for argv in argvs + argvs]
    assert reused == fresh + fresh
    assert len(built) == 1


def test_cli_enumeration_cap_exits_three(tmp_path, capsys):
    s = nmax_trunc(64)  # 66 elements, past the 64-element enumeration cap
    path = tmp_path / "nmax64.pair"
    path.write_text(serialize_structures(
        {"semiring": s, "pair": SemiringPair(s, [s.zero], range(1, s.n))}))
    assert main(["spectrum", str(path)]) == 3
    assert capsys.readouterr().err.startswith("bound exhausted: ")


def field_file(tmp_path, q):
    """F_q as a pair file: its diagonal is its one pair-congruence, and
    prime."""
    p = fq_pair(q)
    path = tmp_path / ("f%d.pair" % q)
    path.write_text(serialize_structures({"semiring": p.carrier, "pair": p}))
    return str(path)


def test_cli_classification_budget_exits_three(tmp_path, capsys, monkeypatch):
    # the spectrum of F_5 takes 9 twist products: the 10 pairs (a, b) with
    # a < b fall into 3 orbits of unit scaling and swap, and the prime test
    # forms the 6 products of two of them, the semiprime test the 3 squares;
    # it fits a budget of 9 and exhausts 8
    path = field_file(tmp_path, 5)
    monkeypatch.setattr(congruences, "MAX_TWIST_PRODUCTS", 9)
    code, report = run(capsys, "spectrum", path)
    assert code == 0 and report["prime_count"] == 1
    monkeypatch.setattr(congruences, "MAX_TWIST_PRODUCTS", 8)
    assert main(["spectrum", path]) == 3
    assert capsys.readouterr().err.startswith(
        "bound exhausted: classification exceeded MAX_TWIST_PRODUCTS=8")


def test_cli_spectrum_of_f37_fits_the_budget(tmp_path, capsys):
    # a scan of all pairs of pairs would need more than MAX_TWIST_PRODUCTS
    # here; one pair per orbit of unit scaling and swap needs 209
    code, report = run(capsys, "spectrum", field_file(tmp_path, 37))
    assert code == 0
    assert report["prime_count"] == 1 and report["krull_dimension"] == 0


def test_cli_growth_word_cap_truncates_and_exits_three(capsys, monkeypatch):
    # free words on 2 letters: 1 + 2 + 4 + 8 = 15 words up to length 3
    monkeypatch.setattr(growth, "MAX_WORDS", 14)
    code, report = run(capsys, "growth", "--free-letters", "2", "--kmax", "6")
    assert code == 3
    assert report["profile"]["truncated"] is True
    assert report["profile"]["d"] == [1, 2, 4, 8]
    code, report = run(capsys, "hilbert", "--free-letters", "2", "--kmax", "6")
    assert code == 3
    assert report["coefficients"] == [2, 4, 8]
    monkeypatch.setattr(growth, "MAX_WORDS", 15)
    code, report = run(capsys, "growth", "--free-letters", "2", "--kmax", "3")
    assert code == 0 and report["profile"]["truncated"] is False


def test_cli_gk_on_a_truncated_profile_exits_three(capsys, monkeypatch):
    # commutative words on 3 letters: 1, 4, 10, 20, 35, 56, 84, 120 up to
    # lengths 0..7; a cap of 100 stops the profile at length 7 of 9
    monkeypatch.setattr(growth, "MAX_WORDS", 100)
    code, report = run(capsys, "gk", "--poly-letters", "3", "--kmax", "9")
    assert code == 3
    assert report["truncated"] is True and report["kmax"] == 7
    assert "result" not in report
    # 15 words up to length 3 leave 4 levels, too few for an estimate:
    # the bound was hit, the input is fine
    monkeypatch.setattr(growth, "MAX_WORDS", 14)
    code, report = run(capsys, "gk", "--free-letters", "2", "--kmax", "8")
    assert code == 3
    assert report["truncated"] is True and report["kmax"] == 3
    monkeypatch.undo()
    code, report = run(capsys, "gk", "--poly-letters", "3", "--kmax", "9")
    assert code == 0 and report["truncated"] is False
    assert report["result"]["kmax"] == 9


def test_cli_spectrum_past_eight_elements(tmp_path, capsys):
    s = nmax_trunc(30)  # 32 elements
    path = tmp_path / "nmax30.pair"
    path.write_text(serialize_structures(
        {"semiring": s, "pair": SemiringPair(s, [s.zero], range(1, s.n))}))
    code, report = run(capsys, "spectrum", str(path))
    assert code == 0
    assert report["prime_count"] == 1
    assert report["semiprime_count"] == 1
    assert report["krull_dimension"] == 0
