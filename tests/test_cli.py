import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringlinks import cli
from stringlinks.cli import (BraidSyntaxError, EXIT_OK, EXIT_PARSE,
                             EXIT_PRECONDITION, main, parse_braid)
from stringlinks.words import MAX_LETTERS, Braid, ScaleError, commutator

from support import shared_expansion


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_braid_grammar():
    assert parse_braid("A(1,2)", 3) == Braid.gen(3, 1, 2)
    assert parse_braid("A(1,2)^-1", 3) == Braid.gen(3, 1, 2, -1)
    assert parse_braid("A(1,2)^3", 3) == Braid.gen(3, 1, 2, 3)
    assert parse_braid("A(1,2) A(1,3)^-1", 3) == (
        Braid.gen(3, 1, 2) * Braid.gen(3, 1, 3, -1))
    assert parse_braid("", 3) == Braid.identity(3)
    com = parse_braid("[A(1,2), A(1,3)]", 3)
    assert com == commutator(Braid.gen(3, 1, 2), Braid.gen(3, 1, 3))
    nested = parse_braid("[A(1,2), [A(1,2), A(1,3)]]", 3)
    assert nested == commutator(
        Braid.gen(3, 1, 2),
        commutator(Braid.gen(3, 1, 2), Braid.gen(3, 1, 3)))
    powered = parse_braid("[A(1,2), A(1,3)]^2", 3)
    assert powered == com * com


def test_parse_braid_errors():
    for bad in ["A(1", "A(1,2", "[A(1,2)]", "[A(1,2), A(1,3)", "A(2,1)",
                "B(1,2)", "A(1,2)]", "A(1,2)^", "A(1,2)^-"]:
        with pytest.raises(BraidSyntaxError):
            parse_braid(bad, 3)


def test_milnor_command_linking_number(capsys):
    code, out, _ = run(capsys, "milnor", "--braid", "A(1,2)", "--n", "2",
                       "--k", "1", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    entries = {(e["i"], tuple(e["lyndonWord"])): e["coefficient"]
               for e in doc["entries"]}
    assert entries == {(1, (2,)): "1", (2, (1,)): "1"}


def test_milnor_empty_braid(capsys):
    code, out, _ = run(capsys, "milnor", "--braid", "", "--n", "2", "--k", "1",
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["entries"] == []


def test_milnor_filtration_violation_exit_code(capsys):
    code, _, err = run(capsys, "milnor", "--braid", "A(1,2)", "--n", "2",
                       "--k", "2")
    assert code == EXIT_PRECONDITION
    assert "filtration" in err


def test_milnor_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "milnor", "--braid", "A(1", "--n", "2", "--k", "1")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("text", [
    "[" * 3000,
    "[" * 1200 + "A(1,2)" + ", A(1,3)]" * 1200,
], ids=["unclosed", "valid"])
def test_deeply_nested_braid_exit_code(capsys, text):
    start = time.perf_counter()
    code, _, err = run(capsys, "milnor", "--braid", text, "--n", "3", "--k", "2")
    assert code == EXIT_PARSE
    assert "nested too deeply" in err
    assert time.perf_counter() - start < 1


def test_powers_parse_in_one_pass():
    start = time.perf_counter()
    braid = parse_braid("[A(1,2) , A(1,3)]^8000", 3)
    assert time.perf_counter() - start < 1
    assert len(braid) == 32000
    start = time.perf_counter()
    braid = parse_braid(" ".join(["A(1,2) A(2,3)^-1"] * 10000), 3)
    assert time.perf_counter() - start < 1
    assert braid == parse_braid("A(1,2) A(2,3)^-1", 3) ** 10000
    assert parse_braid("[A(1,2) , A(1,3)]^-3", 3) == (
        parse_braid("[A(1,3) , A(1,2)]", 3) ** 3)


@pytest.mark.parametrize("argv", [
    ["longitudes", "--n", "2", "--braid", "A(1,2)^100000000"],
    ["milnor", "--n", "3", "--braid", "A(1,2)^99999999999999999999999"],
    ["milnor", "--n", "3", "--k", "2",
     "--braid", f"[A(1,2), A(1,3)^-{MAX_LETTERS // 2}]"],
    ["level", "--n", "3", "--braid", f"[A(1,2), A(1,3)]^{MAX_LETTERS // 4 + 1}"],
    ["milnor", "--n", "3",
     "--braid", f"A(1,2)^{MAX_LETTERS // 2} A(2,3)^-{MAX_LETTERS // 2 + 1}"],
    ["longitudes", "--n", "3",
     "--braid", "[[A(1,2), A(1,3)], [A(2,3), [A(1,2)^-1, A(1,3)]]]"],
], ids=["power", "huge-power", "commutator", "commutator-power", "flat",
        "longitude-growth"])
def test_oversized_braid_work_exit_code(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PRECONDITION
    assert f"more than {MAX_LETTERS} letters" in err
    assert out == "" and "Traceback" not in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [
    ["morita", "--n", "5", "--k", "2", "--braid", "[A(1,2),[A(1,3),A(2,3)]]"],
    ["verify", "--n", "3", "--k", "4", "--braid", "[A(1,2),[A(1,3),[A(2,3),A(1,2)]]]"],
    ["morita", "--n", "3", "--k", "3", "--braid", "[A(1,2),[A(1,3),[A(2,3),A(1,2)]]]"],
    ["verify", "--n", "3",
     "--braid", "[A(1,2),[A(1,3),[A(2,3),[A(1,2),A(1,3)]]]]"],
], ids=["morita-colors", "verify-k", "morita-degree", "verify-level-5"])
def test_tree_limit_refused_up_front(capsys, argv):
    # the tree span of d2_composition is beyond the enumeration limits:
    # refused before any expansion is built
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PRECONDITION
    assert "enumeration supported for n <=" in err
    assert out == "" and "Traceback" not in err
    assert time.perf_counter() - start < 5


def test_letter_limit_boundary():
    assert len(parse_braid(f"A(1,2)^-{MAX_LETTERS}", 2)) == MAX_LETTERS
    assert len(parse_braid(f"[A(1,2), A(1,3)]^{MAX_LETTERS // 4}", 3)) == MAX_LETTERS
    for text in [f"A(1,2)^{MAX_LETTERS + 1}", f"A(1,2) A(1,2)^{MAX_LETTERS}",
                 f"[A(1,2), A(1,3)]^{MAX_LETTERS // 4 + 1}"]:
        with pytest.raises(ScaleError):
            parse_braid(text, 3)
    # generator indices are checked before the size of their power
    with pytest.raises(BraidSyntaxError):
        parse_braid(f"A(2,1)^{10 * MAX_LETTERS}", 3)


@pytest.mark.parametrize("doc", [
    {"truncation": None, "words": [[], []]},
    [[], []],
    {"n": 2, "truncation": None, "words": [[[1]], []]},
    {"n": 2, "truncation": None, "words": [[[7, 1]], []]},
    {"n": 2, "truncation": None, "words": [[[2, 3]], []]},
    {"n": 0, "truncation": None, "words": []},
    {"n": 2, "truncation": None, "words": [[]]},
], ids=["no-n", "top-level-list", "letter-without-exponent",
        "generator-out-of-range", "exponent-3", "n-zero", "too-few-words"])
def test_malformed_longitude_file_exit_code(capsys, tmp_path, doc):
    path = tmp_path / "longitudes.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "milnor", "--longitude-file", str(path),
                       "--n", "2", "--k", "1")
    assert code == EXIT_PARSE
    assert "parse error" in err


@pytest.mark.parametrize("truncation", [0, -3])
@pytest.mark.parametrize("command", [["level"], ["milnor", "--k", "1"], ["longitudes"]],
                         ids=["level", "milnor", "longitudes"])
def test_longitude_file_truncation_below_one_exit_code(capsys, tmp_path, command,
                                                       truncation):
    # a trust level below 1 trusts no degree: the file is malformed, not data
    path = tmp_path / "longitudes.json"
    path.write_text(json.dumps({"n": 3, "truncation": truncation,
                                "words": [[[2, 1], [3, 1], [2, -1], [3, -1]], [], []]}))
    code, out, err = run(capsys, *command, "--n", "3", "--longitude-file", str(path))
    assert code == EXIT_PARSE
    assert out == "" and "parse error" in err


MAGNUS_X1 = [{"word": [], "coefficient": "1"}, {"word": [1], "coefficient": "1"}]


def test_malformed_expansion_file_exit_code(capsys, tmp_path):
    path = tmp_path / "theta.json"
    for doc in ([[{"word": [1], "coefficient": "1"}]],  # top level is a list
                {"n": 2, "truncation": 2, "images": [MAGNUS_X1]},  # too few images
                {"n": 1, "truncation": 2,  # letter out of range
                 "images": [MAGNUS_X1 + [{"word": [5], "coefficient": "1"}]]},
                {"n": 1, "truncation": 0, "images": [MAGNUS_X1]}):
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "expansion", "check", str(path))
        assert code == EXIT_PARSE, doc
        assert "parse error" in err


def test_well_formed_files_failing_preconditions_exit_code(capsys, tmp_path):
    longitudes = tmp_path / "longitudes.json"
    longitudes.write_text(json.dumps({"n": 3, "truncation": None,
                                      "words": [[], [], []]}))
    for command in ("milnor", "trees", "longitudes", "level"):
        argv = ["--k", "1"] if command in ("milnor", "trees") else []
        code, out, err = run(capsys, command, "--longitude-file", str(longitudes),
                             "--n", "2", *argv)
        assert code == EXIT_PRECONDITION, command
        assert out == "" and "strand count does not match" in err
    theta = tmp_path / "theta.json"  # image of x_1 is 1 + 2 X_1
    theta.write_text(json.dumps({"n": 1, "truncation": 2, "images": [[
        {"word": [], "coefficient": "1"}, {"word": [1], "coefficient": "2"}]]}))
    code, _, err = run(capsys, "expansion", "check", str(theta))
    assert code == EXIT_PRECONDITION
    assert "Magnus condition" in err


# y_1 = x_2^2 puts the boundary defect in the second lower central term but
# not the third, y_1 = [x_1, x_2] in the third but not the fourth
SQUARE, COMMUTATOR = [[[2, 1], [2, 1]], []], [[[1, 1], [2, 1], [1, -1], [2, -1]], []]


@pytest.mark.parametrize("words, truncation, k, broken", [
    (SQUARE, 2, 1, 3), (SQUARE, 1, 1, None),
    # mu_1 reads the defect only through degree 2, mu_2 through degree 3
    (COMMUTATOR, 3, 1, None), (COMMUTATOR, 3, 2, 4),
    # the work follows the degree asked for, not the trust level a file claims
    (SQUARE, 10 ** 6, 1, 10 ** 6 + 1), ([[], []], 10 ** 6, 1, None),
], ids=["square-2", "square-1", "commutator-3-mu1", "commutator-3-mu2",
        "square-huge", "trivial-huge"])
def test_longitude_file_breaking_its_trust_level_exit_code(capsys, tmp_path, words,
                                                           truncation, k, broken):
    # a tuple breaking its trust level in a degree the computation reads is
    # bad input, not a bug; in a degree it does not read, it is harmless
    path = tmp_path / "longitudes.json"
    path.write_text(json.dumps({"n": 2, "truncation": truncation, "words": words}))
    start = time.perf_counter()
    code, out, err = run(capsys, "milnor", "--n", "2", "--mode", "degree", "--k", str(k),
                         "--longitude-file", str(path))
    assert time.perf_counter() - start < 5
    if broken is None:
        assert (code, err) == (EXIT_OK, "")
    else:
        assert code == EXIT_PRECONDITION
        assert out == "" and "Traceback" not in err
        assert ("longitude tuple violates the boundary condition modulo lower "
                f"central series term {broken}") in err


def test_directory_input_file_exit_code(capsys, tmp_path):
    for argv in (("milnor", "--n", "3", "--k", "2", "--longitude-file", str(tmp_path)),
                 ("expansion", "check", str(tmp_path))):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_PARSE
        assert err.startswith("error: ") and err.count("\n") == 1


def test_non_utf8_longitude_file_exit_code(capsys, tmp_path):
    path = tmp_path / "longitudes.json"
    path.write_bytes(b'{"n": 2, "truncation": null, "words": [[], []]}\xff')
    code, _, err = run(capsys, "milnor", "--longitude-file", str(path),
                       "--n", "2", "--k", "1")
    assert code == EXIT_PARSE
    assert "parse error" in err


@pytest.mark.parametrize("coefficient", ["abc", "1/0"])
def test_non_numeric_coefficient_exit_code(capsys, tmp_path, coefficient):
    path = tmp_path / "theta.json"
    doc = {"n": 1, "truncation": 2, "images": [[
        {"word": [], "coefficient": "1"}, {"word": [1], "coefficient": "1"},
        {"word": [1, 1], "coefficient": coefficient}]]}
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "expansion", "check", str(path))
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_total_mode_rejects_trunc_below_one(capsys):
    code, _, err = run(capsys, "milnor", "--braid", "A(1,2)", "--n", "2",
                       "--mode", "total", "--trunc", "0")
    assert code == EXIT_PARSE
    assert "--trunc" in err


@pytest.mark.parametrize("max_k", ["0", "-3"])
def test_level_rejects_max_k_below_one(capsys, max_k):
    code, _, err = run(capsys, "level", "--braid", "A(1,2)", "--n", "2",
                       "--max-k", max_k)
    assert code == EXIT_PARSE
    assert "--max-k must be >= 1" in err


def test_homology_rank_zero_exit_code(capsys):
    code, _, err = run(capsys, "homology", "--n", "0", "--k", "3")
    assert code == EXIT_PARSE
    assert "--n" in err
    # H_3 of the class-0 quotient is refused as an argument, like --k 0
    code, _, err = run(capsys, "homology", "--n", "3", "--k", "1")
    assert code == EXIT_PARSE
    assert "--k must be >= 2" in err


def test_level_command(capsys):
    code, out, _ = run(capsys, "level", "--braid", "[A(1,2), A(1,3)]", "--n", "3",
                       "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["level"] == 2
    # the level shows at truncation 2, so --max-k 12 builds no degree-12 series
    code, out, _ = run(capsys, "level", "--n", "3", "--max-k", "12",
                       "--braid", "[A(1,2), A(1,3)]")
    assert code == EXIT_OK
    assert out.strip() == "2"


def test_level_capped_by_trust_level(capsys, tmp_path):
    # longitudes trusted modulo the second lower central term decide level 2
    # at most: the Magnus images alone would read 3 here, which
    # milnor --mode degree --k 3 refuses on the same file
    path = tmp_path / "longitudes.json"
    y1 = [[2, 1], [2, 1], [3, 1], [2, -1], [3, -1], [2, -1], [2, 1], [3, -1], [2, -1], [3, 1]]
    path.write_text(json.dumps({"n": 3, "truncation": 1, "words": [y1, [], []]}))
    code, out, _ = run(capsys, "level", "--n", "3", "--longitude-file", str(path))
    assert (code, out.strip()) == (EXIT_OK, "2")
    code, _, _ = run(capsys, "milnor", "--mode", "degree", "--k", "3", "--n", "3",
                     "--longitude-file", str(path))
    assert code == EXIT_PRECONDITION
    # braid data carries no trust level, so its level is not capped
    code, out, _ = run(capsys, "level", "--n", "3",
                       "--braid", "[A(1,2), [A(1,3), A(2,3)]]")
    assert (code, out.strip()) == (EXIT_OK, "3")


def test_longitudes_command(capsys):
    code, out, _ = run(capsys, "longitudes", "--braid", "A(1,2)", "--n", "2")
    assert code == EXIT_OK
    assert "y_1 = x1*x2*x1^-1" in out
    assert "y_2 = x1" in out


def test_expansion_build_and_check(capsys, tmp_path):
    path = tmp_path / "theta.json"
    code, out, _ = run(capsys, "expansion", "build", "--n", "2", "--trunc", "4",
                       "--out", str(path))
    assert code == EXIT_OK and path.exists()
    code, out, _ = run(capsys, "expansion", "check", str(path))
    assert code == EXIT_OK
    assert "special" in out
    # tamper: break the normalised condition (still a valid Magnus expansion)
    doc = json.loads(path.read_text())
    doc["images"][0].append({"word": [1, 2], "coefficient": "7"})
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "expansion", "check", str(path), "--format", "json")
    assert code == EXIT_PRECONDITION
    assert json.loads(out)["special"] is False
    # n = 1: the randomized build's correction systems have no rows
    path = tmp_path / "theta1.json"
    code, _, _ = run(capsys, "expansion", "build", "--n", "1", "--trunc", "3",
                     "--strategy", "randomized", "--out", str(path))
    assert code == EXIT_OK
    code, _, _ = run(capsys, "expansion", "check", str(path))
    assert code == EXIT_OK


def test_homology_command(capsys):
    code, out, _ = run(capsys, "homology", "--n", "3", "--k", "2",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    from stringlinks.lie import d_dimension
    assert doc["dimension"] == d_dimension(3, 2)


def test_trees_command_with_dot(capsys, tmp_path):
    code, out, _ = run(capsys, "trees", "--braid", "[A(1,2), A(1,3)]", "--n", "3",
                       "--k", "2", "--dot", "--output-dir", str(tmp_path),
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["terms"]
    assert doc["dotFiles"]
    for p in doc["dotFiles"]:
        assert Path(p).read_text().startswith("graph")


def test_morita_command(capsys):
    code, out, _ = run(capsys, "morita", "--braid", "[A(1,2), A(1,3)]", "--n", "3",
                       "--k", "1", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["diagramCommutes"] is True
    assert doc["class"]["homology"]["fingerprint"]


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--braid", "[A(1,2), A(1,3)]", "--n", "3",
                       "--k", "2")
    assert code == EXIT_OK
    assert "[FAIL]" not in out


@pytest.fixture
def builds(monkeypatch):
    """The truncations the CLI asks ``build_special`` for, in order."""
    asked = []
    build = cli.build_special

    def recording(n, t, *args, **kwargs):
        asked.append(t)
        return build(n, t, *args, **kwargs)

    monkeypatch.setattr(cli, "build_special", recording)
    return asked


@pytest.mark.parametrize("k, trunc", [("1", 2), ("2", 3)])
def test_verify_sizes_expansions_by_its_checks(capsys, builds, k, trunc):
    # the degree-k checks need truncation k + 1 and the refined checks at
    # k - 1 need 2k - 1, so both expansions are built at max(k + 1, 2k - 1)
    code, out, _ = run(capsys, "verify", "--braid", "[A(1,2), A(1,3)]", "--n", "3",
                       "--k", k)
    assert code == EXIT_OK
    assert "[FAIL]" not in out
    assert builds == [trunc, trunc]


@pytest.mark.parametrize("n", ["2", "3"])
def test_verify_identity_braid_without_k(capsys, builds, n):
    # the identity braid shows no nonzero degree up to the cap of 6, which
    # only bounds its level from below: the degree-6 checks run at
    # truncation 7 and the refined checks are skipped
    code, out, err = run(capsys, "verify", "--n", n, "--braid", "")
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert len(lines) == 6 and all(line.startswith("[PASS]") for line in lines)
    assert "refined checks skipped" in lines[-1]
    assert builds == [7, 7]


def test_morita_sizes_its_expansion_by_the_degrees_it_reads(capsys, builds):
    # the class, the cycle check and the fission side read Y_i through
    # degree 2k, so morita --k 2 builds at truncation 2k + 1 = 5
    code, out, _ = run(capsys, "morita", "--n", "3", "--k", "2",
                       "--braid", "[A(1,2), [A(1,3), A(2,3)]]")
    assert code == EXIT_OK and "diagram commutes: True" in out
    assert builds == [5]


def test_morita_expansion_file_truncation_contract(capsys, tmp_path):
    braid = "[A(1,2), [A(1,3), A(2,3)]]"
    code, out, _ = run(capsys, "morita", "--n", "3", "--k", "2", "--braid", braid,
                       "--format", "json")
    assert code == EXIT_OK
    canonical = json.loads(out)
    for trunc in ("5", "4"):
        path = tmp_path / f"theta{trunc}.json"
        code, _, _ = run(capsys, "expansion", "build", "--n", "3", "--trunc", trunc,
                         "--out", str(path))
        assert code == EXIT_OK
    # a file at truncation 2k + 1 is enough and gives the canonical class
    code, out, err = run(capsys, "morita", "--n", "3", "--k", "2", "--braid", braid,
                         "--expansion", str(tmp_path / "theta5.json"),
                         "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["class"] == canonical["class"]
    assert doc["diagramCommutes"] is True
    assert doc["degreeProjection"] == canonical["degreeProjection"]
    # one degree short is refused up front
    code, out, err = run(capsys, "morita", "--n", "3", "--k", "2", "--braid", braid,
                         "--expansion", str(tmp_path / "theta4.json"))
    assert code == EXIT_PRECONDITION and out == ""
    assert "truncation 4 < required 5" in err


# sha256 of the JSON output on [A(1,2), A(1,3)] at n = 3: the rendering of
# invariant entries, tree terms and homology classes must not move
@pytest.mark.parametrize("argv, digest", [
    (("milnor", "--mode", "truncated", "--k", "2"),
     "ffaa22e2f20e97c56b024eae7920164140f47a9d1b50c656bdea07ff88cc0b67"),
    (("trees", "--k", "2"),
     "74c131c36548ea1a66fee3fce752e1913012634eff5dc1d72c4cbec7cd29f4ef"),
    (("morita", "--k", "1"),
     "66c4983bcea63a77cfafe7801f2f4f4dc8cc87dac8519d45aa8ae7e09f74c93f"),
    (("verify", "--k", "2"),
     "95401a03731aeb659c18eb8c34d484232b28a2b526c46ee73066286fdec7bd89"),
], ids=["milnor-truncated", "trees", "morita", "verify"])
def test_pinned_json_output(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--braid", "[A(1,2), A(1,3)]", "--n", "3",
                       "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_output_is_deterministic(capsys):
    args = ("milnor", "--braid", "[A(1,2), A(1,3)]", "--n", "3", "--k", "2",
            "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# -- fuzzing the input boundary ------------------------------------------------

TOKENS = ["A(1,2)", "A(1,3)", "A(2,3)", "A(2,1)", "A(1,4)", "A(0,1)", "A(", "A(1,2",
          "A(a,b)", "^", "^-", "^2", "^-1", "^99999999999", "[", "]", ",", " ", ")",
          "B(1,2)", "x", "é"]


def braid_words(depth=2):
    """Well-formed braid words: short atoms, small powers, shallow commutators."""
    atom = st.builds("A({})^{}".format, st.sampled_from(["1,2", "1,3", "2,3"]),
                     st.integers(-2, 2))
    if depth:
        inner = braid_words(depth - 1)
        atom = atom | st.builds("[{}, {}]".format, inner, inner)
    return st.lists(atom, max_size=2).map(" ".join)


JSON_SCALARS = st.none() | st.booleans() | st.integers(-3, 5) | st.sampled_from(
    ["1/2", "x", "", "0", "1/0"])
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.sampled_from(
                               ["n", "truncation", "words", "images", "word",
                                "coefficient"]), inner, max_size=4), max_leaves=12)


@st.composite
def longitude_docs(draw, n):
    letter = st.tuples(st.integers(1, n), st.sampled_from([1, -1])).map(list)
    words = draw(st.lists(st.lists(letter, max_size=6), min_size=n, max_size=n))
    if draw(st.booleans()):  # zero exponent sum of x_i in y_i
        for i, y in enumerate(words, start=1):
            s = sum(e for g, e in y if g == i)
            y += [[i, -1 if s > 0 else 1]] * abs(s)
    doc = {"n": n, "truncation": draw(st.none() | st.integers(1, 3)), "words": words}
    return doc if draw(st.sampled_from([True, True, False, True])) else draw(JSON_VALUES)


@st.composite
def expansion_docs(draw, n):
    doc = shared_expansion(n, draw(st.integers(2, 4))).to_json_dict()
    mutation = draw(st.sampled_from(["none", "coefficient", "key", "truncation"]))
    if mutation == "coefficient":
        doc["images"][0][-1]["coefficient"] = draw(JSON_SCALARS)
    elif mutation == "key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif mutation == "truncation":
        doc["truncation"] = draw(JSON_SCALARS)
    return doc if draw(st.sampled_from([True, True, False, True])) else draw(JSON_VALUES)


@st.composite
def cli_argv(draw, directory):
    # values meant to be rare sit inside the sampled lists: hypothesis
    # favours the ends of a list
    command = draw(st.sampled_from(["milnor", "longitudes", "level", "trees",
                                    "homology", "morita"]))
    n = draw(st.sampled_from([3, 2, 3, 2, 1, 0, -1, 2, 3, 2, 3]))
    argv = [command, "--n", str(n)]
    # files mostly hold the rank asked for
    rank = draw(st.sampled_from([n, n, n, 1, 2, 3])) if n >= 1 else 2
    if command == "homology":
        argv += ["--k", str(draw(st.sampled_from([4, 3, 2] * 2 + [1, 0])))]
    elif draw(st.booleans()):
        argv += ["--braid", draw(braid_words() | st.lists(
            st.sampled_from(TOKENS), max_size=8).map("".join))]
    else:
        path = directory / "longitudes.json"
        path.write_text(json.dumps(draw(longitude_docs(rank))))
        argv += ["--longitude-file", str(path)]
    if command == "milnor":
        mode = draw(st.sampled_from([None, "total", "degree", "truncated"]))
        trunc = draw(st.sampled_from([None, 0, 1, 2, 3])) if mode == "total" else None
        # total mode without --trunc builds at 2k + 2
        k = draw(st.sampled_from([None, 1] if mode == "total" and trunc is None
                                 else [2, 1, None] * 3 + [0]))
        argv += ["--mode", mode] if mode else []
        argv += ["--trunc", str(trunc)] if trunc is not None else []
        argv += ["--k", str(k)] if k is not None else []
    elif command == "trees":
        argv += ["--k", str(draw(st.sampled_from([2, 1] * 3 + [0])))]
    elif command == "morita":
        argv += ["--k", "1"]
    elif command == "level":
        argv += ["--max-k", str(draw(st.sampled_from([4, 3, 2, 1] * 2 + [0])))]
    if command in ("milnor", "trees", "morita"):
        expansion = draw(st.sampled_from(["canonical", "randomized", "file"]))
        if expansion == "file":
            path = directory / "theta.json"
            path.write_text(json.dumps(draw(expansion_docs(rank))))
            expansion = str(path)
        argv += ["--expansion", expansion, "--seed", str(draw(st.integers(0, 3)))]
    argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    return argv + draw(st.sampled_from([[]] * 12 + [["--bogus"], ["--n"], ["7"]]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exit_contract(fuzz_dir, data):
    # any argv and any input file: a documented exit code, no traceback, and
    # parseable JSON whenever JSON output succeeds
    argv = data.draw(cli_argv(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and "json" in argv:
        json.loads(out.getvalue())
