import gc
import json
import os
import resource
import subprocess
import sys
import warnings

import pytest

from cordsheaf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_unknot(capsys):
    code, out = run(capsys, "verify", "--braid", "", "--strands", "1", "--field", "3",
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["aug_points"]) == 3
    assert data["failures"] == []


def test_verify_failure_exit_code(capsys):
    code, out = run(capsys, "verify", "--braid", "1 1", "--strands", "2",
                    "--field", "2", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["failures"]


def test_budget_exit_code(capsys):
    code = main(["verify", "--braid", "", "--strands", "3", "--field", "5",
                 "--budget", "100"])
    assert code == 3
    # a large prime characteristic is decided at once, then refused by the budget
    code = main(["augs", "--braid", "", "--strands", "1", "--field", "2305843009213693951"])
    assert code == 3


def test_negative_budget_is_an_input_error(capsys):
    code = main(["augs", "--braid", "", "--strands", "1", "--field", "3", "--budget", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "input error: budget must be >= 0, got -1\n"
    assert captured.out == ""


def test_input_error_exit_code(capsys):
    code = main(["augs", "--braid", "1", "--strands", "2", "--field", "4"])
    assert code == 2
    code = main(["augs", "--braid", "7", "--strands", "2", "--field", "3"])
    assert code == 2
    code = main(["augs", "--braid", "", "--strands", "1", "--field", "3215031751"])
    assert code == 2


def test_example_unlink3_golden(capsys):
    code, out = run(capsys, "example-unlink3", "--field", "5",
                    "--e12", "1", "--e13", "1", "--e32", "1", "--e33", "2")
    assert code == 0
    assert "eps_F(gamma_ij) = eps_ij: OK" in out
    assert "round trip: OK" in out


def test_example_unlink3_determinant_guard(capsys):
    code = main(["example-unlink3", "--field", "5",
                 "--e12", "1", "--e13", "1", "--e32", "1", "--e33", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("input error: determinant constraint violated "
                            "(e12*e33 - e13*e32 must be nonzero)\n")


def test_example_unlink3_zero_guard(capsys):
    code = main(["example-unlink3", "--field", "5",
                 "--e12", "0", "--e13", "1", "--e32", "1", "--e33", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "input error: e12 must be nonzero\n"


def test_example_unlink3_e33_guard(capsys):
    # e12*e33 - e13*e32 = 1 - 2 is nonzero in F5, so only e33 = 1 is refused
    code = main(["example-unlink3", "--field", "5",
                 "--e12", "1", "--e13", "1", "--e32", "2", "--e33", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "input error: e33 = 1 makes the third meridian unit vanish\n"


def test_augs_orbits(capsys):
    code, out = run(capsys, "augs", "--braid", "1 1 1", "--strands", "2",
                    "--field", "3", "--modulo-dilation", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["orbit_count"] == 4


def test_sheaf_to_aug_pipeline(tmp_path, capsys):
    code, out = run(capsys, "augs", "--braid", "", "--strands", "1", "--field", "5",
                    "--json")
    assert code == 0
    cand = json.loads(out)["candidates"][-1]
    aug_file = tmp_path / "aug.json"
    aug_file.write_text(json.dumps(cand))

    code, out = run(capsys, "sheaf", "--aug", str(aug_file), "--braid", "",
                    "--strands", "1", "--json")
    assert code == 0
    sheaf = json.loads(out)
    sheaf.pop("validation")
    sheaf_file = tmp_path / "sheaf.json"
    sheaf_file.write_text(json.dumps(sheaf))

    code, out = run(capsys, "to-aug", "--sheaf", str(sheaf_file), "--json")
    assert code == 0
    recovered = json.loads(out)
    assert recovered["R"] == cand["R"]
    assert recovered["lambda"] == cand["lambda"]
    assert recovered["mu"] == cand["mu"]


def test_sheaf_rejects_a_non_augmentation(tmp_path, capsys):
    bad = {"field": {"kind": "prime", "p": 5}, "n": 2, "r": 1, "component_map": [1, 1],
           "R": [["0", "1"], ["2", "0"]], "lambda": ["1"], "mu": ["1"]}
    aug_file = tmp_path / "aug.json"
    aug_file.write_text(json.dumps(bad))
    code, out = run(capsys, "sheaf", "--aug", str(aug_file), "--braid", "1 1 1",
                    "--strands", "2")
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "not an augmentation"
    assert data["failures"]



def test_sheaf_on_a_braid_with_other_components_exits_2(tmp_path, capsys):
    # a 2-component unlink augmentation given with the trefoil, a knot
    aug = {"field": {"kind": "prime", "p": 3}, "n": 2, "component_map": [1, 2],
           "R": [["0", "0"], ["0", "0"]], "lambda": ["1", "1"], "mu": ["1", "1"]}
    aug_file = tmp_path / "aug.json"
    aug_file.write_text(json.dumps(aug))
    code = main(["sheaf", "--aug", str(aug_file), "--braid", "1 1 1", "--strands", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("input error: candidate component map does not match "
                            "the braid\n")

def test_markov_cli(capsys):
    code, out = run(capsys, "markov", "--braid1", "", "--strands1", "1",
                    "--braid2", "1", "--strands2", "2", "--field", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["orbit_counts"] == [3, 3]


def test_deterministic_output(capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, "verify", "--braid", "1 1 1", "--strands", "2",
                        "--field", "3", "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# -- malformed documents -----------------------------------------------------------------

# a trefoil candidate over F5 and the reply of its `sheaf` request (N = 2)
AUG = {"field": {"kind": "prime", "p": 5}, "n": 2, "r": 1, "component_map": [1, 1],
       "R": [["3", "4"], ["3", "3"]], "lambda": ["3"], "mu": ["3"]}
TREFOIL = ("--braid", "1 1 1", "--strands", "2")


def _sheaf_reply(tmp_path, capsys):
    aug_file = tmp_path / "aug.json"
    aug_file.write_text(json.dumps(AUG))
    code, out = run(capsys, "sheaf", "--aug", str(aug_file), *TREFOIL)
    assert code == 0
    return json.loads(out)


def _set(keys, value):
    def change(doc):
        *outer, last = keys
        for k in outer:
            doc = doc[k]
        doc[last] = value
    return change


def _drop(key):
    return lambda doc: doc.pop(key)


MALFORMED = [
    # (verb, change to the valid document or a replacement, JSON path)
    ("sheaf", {}, "$"),
    ("sheaf", [], "$"),
    ("to-aug", {}, "$"),
    ("to-aug", [], "$"),
    ("sheaf", _set(["R", 0, 0], 3), "$.R[0][0]"),
    ("to-aug", _set(["M", 1, 0, 1], 0), "$.M[1][0][1]"),
    ("sheaf", _drop("field"), "$"),
    ("to-aug", _drop("field"), "$"),
    ("sheaf", _set(["field", "p"], 4), "$.field.p"),
    ("to-aug", _set(["field", "p"], 4), "$.field.p"),
    ("sheaf", _set(["R", 1], ["3"]), "$.R[1]"),
    ("to-aug", _set(["M", 0], [["3", "1"]]), "$.M[0]"),
    ("to-aug", _set(["M", 0], [["3", "1", "0"], ["0", "1", "0"]]), "$.M[0][0]"),
    ("to-aug", {"field": {"kind": "prime", "p": 5}, "braid": {"n": 1, "word": []},
                "N": 0, "M": [[["1", "0"]]], "W": [[]], "deg": []}, "$.M[0]"),
    ("to-aug", _set(["deg"], [{"component": 1, "alpha": "0"}]), "$.deg[0].alpha"),
    ("sheaf", _set(["mu", 0], "0"), "$.mu[0]"),
    ("sheaf", _set(["lambda", 0], "10"), "$.lambda[0]"),
    ("to-aug", _set(["braid", "word", 1], "1"), "$.braid.word[1]"),
    ("to-aug", _set(["braid", "word", 0], 1.5), "$.braid.word[0]"),
    # scalar strings outside the wire grammar
    ("sheaf", _set(["R", 1, 0], "1_0"), "$.R[1][0]"),
    ("sheaf", _set(["R", 0, 1], "1/2/3"), "$.R[0][1]"),
    ("to-aug", _set(["M", 0, 1, 1], "\u0663"), "$.M[0][1][1]"),
    # counts, kinds and field specs out of range
    pytest.param("sheaf", _set(["n"], 0), "$.n", id="sheaf-n-zero"),
    pytest.param("sheaf", _set(["component_map"], [1, 0]), "$.component_map",
                 id="sheaf-label-zero"),
    pytest.param("sheaf", _set(["n"], "2"), "$.n", id="sheaf-n-string"),
    pytest.param("sheaf", _set(["R"], "x"), "$.R", id="sheaf-R-string"),
    pytest.param("sheaf", _set(["lambda"], "3"), "$.lambda", id="sheaf-lambda-string"),
    pytest.param("sheaf", _set(["lambda"], ["3", "3"]), "$.lambda", id="sheaf-two-lambdas"),
    pytest.param("sheaf", _set(["field", "kind"], "reals"), "$.field.kind", id="sheaf-reals"),
    pytest.param("sheaf", _set(["field"], {"kind": "rationals", "p": 5}), "$.field.p",
                 id="sheaf-rationals-with-p"),
    pytest.param("to-aug", _set(["N"], -1), "$.N", id="to-aug-N-negative"),
    pytest.param("to-aug", _set(["M"], []), "$.M", id="to-aug-no-meridians"),
    pytest.param("to-aug", _set(["braid", "n"], 0), "$.braid.n", id="to-aug-braid-n-zero"),
]


@pytest.mark.parametrize("verb, change, path", MALFORMED)
def test_malformed_documents_exit_2_with_the_json_path(tmp_path, capsys, verb, change, path):
    if callable(change):
        doc = _sheaf_reply(tmp_path, capsys) if verb == "to-aug" else json.loads(json.dumps(AUG))
        change(doc)
    else:
        doc = change
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(doc))
    if verb == "sheaf":
        code = main(["sheaf", "--aug", str(doc_file), *TREFOIL])
    else:
        code = main(["to-aug", "--sheaf", str(doc_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"input error: {path}: " in captured.err
    assert "Traceback" not in captured.out + captured.err


# sheaves on the unknot whose summands fail only the degenerate check: with
# N = 1 the strand is simple, with N = 0 it is degenerate
DEGENERATE = [(1, [{"component": 0, "alpha": "1"}]), (1, [{"component": 2, "alpha": "1"}]),
              (0, [{"component": 1, "alpha": "1"}, {"component": 1, "alpha": "2"}])]


@pytest.mark.parametrize("N, deg", DEGENERATE, ids=["component-0", "component-r+1", "twice"])
def test_degenerate_summands_off_the_components_exit_2(tmp_path, capsys, N, deg):
    doc = {"field": {"kind": "prime", "p": 5}, "braid": {"n": 1, "word": []},
           "N": N, "M": [[["2"]] if N else []], "W": [[[]] if N else []], "deg": deg}
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(doc))
    code, out = run(capsys, "to-aug", "--sheaf", str(doc_file))
    assert code == 2
    reply = json.loads(out)
    assert reply["error"] == "invalid sheaf data"
    assert [f["family"] for f in reply["failures"]] == ["degenerate"]
    assert reply["failures"][0]["location"] == f"component {deg[-1]['component']}"


def test_file_requests_close_their_file(tmp_path, capsys):
    aug_file = tmp_path / "aug.json"
    aug_file.write_text(json.dumps(AUG))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sheaf", "--aug", str(aug_file), *TREFOIL])
        gc.collect()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_geometry_budget_exit_code(tmp_path, capsys):
    # 40 crossings would expand to billions of letters; the cap stops the
    # expansion near a million
    aug = {"field": {"kind": "prime", "p": 3}, "n": 3, "r": 1, "component_map": [1, 1, 1],
           "R": [["0", "0", "0"]] * 3, "lambda": ["1"], "mu": ["1"]}
    aug_file = tmp_path / "aug.json"
    aug_file.write_text(json.dumps(aug))
    code = main(["sheaf", "--aug", str(aug_file), "--braid", "1 -2 " * 20, "--strands", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert "budget exceeded: braid geometry of" in captured.err


# --strands -> the budget that stops `--braid "" --field 2` first: the search
# space 2^(n^2 - n) * 1^(2n), whose power the check never forms, or the
# letter cap of the braid geometry, which holds a letter per strand
LARGE_STRANDS = {"3000": "search space of 2^8997000 * 1^6000 tuples exceeds the budget 100000000",
                 "300000": "search space of 2^89999700000 * 1^600000 tuples exceeds the "
                           "budget 100000000",
                 "3000000": "braid geometry of 3000000 letters exceeds the budget 1000000"}
ADDRESS_SPACE = 1500 * 2 ** 20


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("verb", ["augs", "verify"])
@pytest.mark.parametrize("strands", list(LARGE_STRANDS))
def test_large_strand_counts_exit_3(verb, strands):
    # in a process of its own under a 1.5 GB address-space limit, so that a
    # check that forms the power or builds the geometry fails with a
    # MemoryError instead of exhausting the machine's memory
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "cordsheaf.cli", verb, "--braid", "", "--strands", strands,
         "--field", "2"], capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"budget exceeded: {LARGE_STRANDS[strands]}\n"
    assert len(proc.stderr) < 200


def _unlink_candidate(n):
    """A candidate on the n-component unlink over F5 whose R has rank n."""
    R = [["2" if i == j else "1" if i < j else "0" for j in range(n)] for i in range(n)]
    return {"field": {"kind": "prime", "p": 5}, "n": n, "component_map": list(range(1, n + 1)),
            "R": R, "lambda": ["1"] * n, "mu": ["4"] * n}


def test_sheaf_size_cap_exit_code(tmp_path, capsys):
    # the largest sheaf sheaf builds has N <= n + 1, so it refuses n (n + 1)
    # above MAX_SHEAF_SIZE = 128; the largest reply it gives, N = n = 10 here,
    # is within the cap that to-aug applies
    aug_file, sheaf_file = tmp_path / "aug.json", tmp_path / "sheaf.json"
    aug_file.write_text(json.dumps(_unlink_candidate(10)))
    code, out = run(capsys, "sheaf", "--aug", str(aug_file), "--braid", "", "--strands", "10")
    assert code == 0 and json.loads(out)["N"] == 10
    sheaf_file.write_text(out)
    assert run(capsys, "to-aug", "--sheaf", str(sheaf_file)) == (0, json.dumps(
        _unlink_candidate(10) | {"r": 10}, indent=2, sort_keys=True) + "\n")

    aug_file.write_text(json.dumps(_unlink_candidate(11)))
    code = main(["sheaf", "--aug", str(aug_file), "--braid", "", "--strands", "11"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == ("budget exceeded: sheaf data of 132 stalk coordinates "
                            "(N times strands) exceeds the budget 128\n")

    eye = [["1" if i == j else "0" for j in range(65)] for i in range(65)]
    sheaf_file.write_text(json.dumps({"field": {"kind": "prime", "p": 5},
                                      "braid": {"n": 2, "word": []}, "N": 65, "M": [eye] * 2,
                                      "W": [[row[1:] for row in eye]] * 2, "deg": []}))
    code = main(["to-aug", "--sheaf", str(sheaf_file)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("budget exceeded: sheaf data of 130 stalk coordinates")


def test_deeply_nested_documents_exit_2(tmp_path, capsys):
    doc_file = tmp_path / "doc.json"
    doc_file.write_text("[" * 100000 + "]" * 100000)
    for argv in (["to-aug", "--sheaf", str(doc_file)],
                 ["sheaf", "--aug", str(doc_file), *TREFOIL]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "input error: JSON nested too deeply to decode\n"


# -- integer arguments -------------------------------------------------------------------

# (argument, text outside ASCII [+-]?[0-9]+): Python's int reads every one
NOT_DECIMAL = [("--field", "\u0663"), ("--field", "1_1"), ("--field", " 3"),
               ("--field", "\uff13"), ("--braid", "1_0"), ("--braid", "\u0661"),
               ("--braid", "1\u00a01"), ("--braid", "+-1"), ("--braid", "1.0")]


@pytest.mark.parametrize("option, text", NOT_DECIMAL)
def test_integer_arguments_outside_ascii_decimals_exit_2(capsys, option, text):
    args = {"--braid": "1", "--strands": "2", "--field": "3", option: text}
    code = main(["augs", *[x for item in args.items() for x in item]])
    captured = capsys.readouterr()
    assert code == 2
    assert f"input error: {option}" in captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("option, text", [("--strands", "\u0662"), ("--budget", "1_000")])
def test_integer_options_outside_ascii_decimals_exit_2(capsys, option, text):
    args = {"--braid": "1", "--strands": "2", "--field": "3", option: text}
    with pytest.raises(SystemExit) as stop:
        main(["augs", *[x for item in args.items() for x in item]])
    assert stop.value.code == 2
    assert f"argument {option}: expected a decimal integer" in capsys.readouterr().err


def test_markov_names_the_braid_argument(capsys):
    code = main(["markov", "--braid1", "", "--strands1", "1", "--braid2", "1_0",
                 "--strands2", "2", "--field", "3"])
    assert code == 2
    assert "input error: --braid2: " in capsys.readouterr().err


def test_signed_braid_letters_and_ascii_spacing_still_read(capsys):
    code, out = run(capsys, "augs", "--braid", "\t+1  -1 1\n", "--strands", "2",
                    "--field", "+3", "--modulo-dilation")
    assert code == 0
    data = json.loads(out)
    assert data["braid"]["word"] == [1, -1, 1] and data["field"]["p"] == 3


def test_relabeled_braid_prints_a_note_and_the_relabeled_output(capsys):
    assert main(["augs", "--braid", "1 2 1", "--strands", "3", "--field", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("note: strands relabeled by [1, 3, 2] to make components "
                            "non-decreasing; braid word is now [-2, 1, 2, 1, 2]\n")
    code, direct = run(capsys, "augs", "--braid", "-2 1 2 1 2", "--strands", "3", "--field", "2")
    assert code == 0 and captured.out == direct


def test_example_unlink3_json(capsys):
    code, out = run(capsys, "example-unlink3", "--field", "5", "--e12", "1", "--e13", "1",
                    "--e32", "1", "--e33", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data) == ["candidate", "diff", "recovered", "sheaf", "sheaf_valid"]
    assert data["sheaf_valid"] is True and data["diff"] == []
    assert data["recovered"] == data["candidate"]
    assert data["sheaf"]["N"] == 3 and data["candidate"]["R"][2] == ["0", "1", "2"]
