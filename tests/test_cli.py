import json

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


def test_input_error_exit_code(capsys):
    code = main(["augs", "--braid", "1", "--strands", "2", "--field", "4"])
    assert code == 2
    code = main(["augs", "--braid", "7", "--strands", "2", "--field", "3"])
    assert code == 2


def test_example_unlink3_golden(capsys):
    code, out = run(capsys, "example-unlink3", "--field", "5",
                    "--e12", "1", "--e13", "1", "--e32", "1", "--e33", "2")
    assert code == 0
    assert "eps_F(gamma_ij) = eps_ij: OK" in out
    assert "round trip: OK" in out


def test_example_unlink3_determinant_guard(capsys):
    code, out = run(capsys, "example-unlink3", "--field", "5",
                    "--e12", "1", "--e13", "1", "--e32", "1", "--e33", "1")
    assert code == 2
    assert "determinant constraint violated" in out


def test_example_unlink3_zero_guard(capsys):
    code, out = run(capsys, "example-unlink3", "--field", "5",
                    "--e12", "0", "--e13", "1", "--e32", "1", "--e33", "2")
    assert code == 2


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
