"""Each of the benchmark's checks accepts the program's real output and
rejects a deliberately corrupted copy of it, so that none passes vacuously.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.append(os.path.join(os.path.dirname(HERE), "src"))

import cordsheaf as cs  # noqa: E402
from checks import (decode_problems, enumerate_problems, orbit_problems,  # noqa: E402
                    rank_mod_p, sheaf_problems, sheaf_reply_problems,
                    to_aug_reply_problems, verify_problems, zero_row_components)
from workloads import Enumerate  # noqa: E402

F3, F5 = cs.FieldSpec.prime(3), cs.FieldSpec.prime(5)
UNLINK3 = cs.BraidWord(3, [])
HOPF = cs.BraidWord(2, [1, 1])


def worked_example():
    """The three-component unlink over F5 with R = [[0,1,1],[0,0,0],[0,1,2]]."""
    one = F5.one()
    R = cs.Matrix.from_rows(F5, [[0, 1, 1], [0, 0, 0], [0, 1, 2]])
    cand = cs.AugCandidate(F5, cs.component_map(UNLINK3), R, [one] * 3,
                           [one, one, one - F5.scalar(2)])
    return cand, cs.aug_to_sheaf(cand, UNLINK3)


def with_entry(cand, i, j, value):
    rows = [list(row) for row in cand.R.entries]
    rows[i][j] = cand.field.scalar(value)
    return cs.AugCandidate(cand.field, cand.components, cs.Matrix(cand.field, rows),
                           cand.lam, cand.mu)


def test_rank_mod_p():
    assert rank_mod_p([[1, 2], [2, 4]], 5) == 1
    assert rank_mod_p([[1, 2], [2, 4]], 2) == 1
    assert rank_mod_p([[1, 2], [3, 4]], 5) == 2
    assert rank_mod_p([[0, 0], [0, 0]], 3) == 0


def test_enumerate_check_rejects_a_changed_entry():
    braid = cs.BraidWord(3, [1, -2, 1, -2])
    cands = cs.enumerate_augs(braid, F3)
    orbits = cs.quotient_by_dilation(cands)
    assert enumerate_problems(cs, braid, F3, cands, orbits) == []
    cand = cands[0]
    bad = with_entry(cand, 0, 1, (cand.R[0, 1].value + 1) % 3)
    assert enumerate_problems(cs, braid, F3, [bad] + cands[1:], orbits)


def test_orbit_check_rejects_bad_sizes():
    assert orbit_problems(12, [4, 4, 2, 1, 1], 5, 2) == []
    assert orbit_problems(12, [4, 4, 2, 1], 5, 2)       # sum is off
    assert orbit_problems(12, [4, 4, 3, 1], 5, 2)       # 3 does not divide 4


def test_markov_check_rejects_a_missing_orbit():
    work = Enumerate(cs, 0)
    unknot = next(i for i in work.instances if i.name == "unknot")
    orbits = cs.quotient_by_dilation(cs.enumerate_augs(unknot.braid, unknot.field))
    work.orbits = {"unknot": orbits}
    assert work.problems() == []
    work.orbits = {"unknot": orbits[:-1]}
    assert work.problems()


def test_trace_identity_rejects_swapped_meridians():
    cand, sheaf = worked_example()
    doc = sheaf.to_json()
    assert sheaf_problems(doc, cand.to_json()) == []
    swapped = copy.deepcopy(doc)
    swapped["M"][1], swapped["M"][2] = swapped["M"][2], swapped["M"][1]
    assert sheaf_problems(swapped, cand.to_json())


def test_rank_bound_rejects_a_rank_two_displacement():
    cand, sheaf = worked_example()
    doc = copy.deepcopy(sheaf.to_json())
    # Id - M_1 of rank 2 and trace 0: two off-diagonal entries
    doc["M"][0] = [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]]
    assert any("rank" in e for e in sheaf_problems(doc, cand.to_json()))


def test_zero_row_class_matches_the_program():
    for cand in cs.enumerate_augs(HOPF, F5):
        assert zero_row_components(cand.to_json()) == cs.zero_row_components(cand)


def test_verify_check_rejects_failures_on_a_clean_instance():
    report = cs.verify_bijection(cs.BraidWord(2, []), F3)
    assert verify_problems(report, known_fault=False) == []
    report.fail("roundtrip-aug", "candidate 0", "injected")
    assert verify_problems(report, known_fault=False)


def test_verify_check_pins_failures_to_the_zero_row_class():
    report = cs.verify_bijection(HOPF, F3)
    assert report.failures
    assert verify_problems(report, known_fault=True) == []
    outside = next(k for k, c in enumerate(report.aug_points) if not cs.zero_row_components(c))
    report.fail("roundtrip-aug", f"candidate {outside}", "injected")
    assert verify_problems(report, known_fault=True)


def test_verify_check_rejects_a_corrupted_representative():
    report = cs.verify_bijection(cs.BraidWord(2, []), F5)
    k = next(k for k, o in enumerate(report.orbits)
             if o.rep.mu[0] != o.rep.mu[1] and report.sheaf_reps[k].N)
    sheaf = report.sheaf_reps[k]
    report.sheaf_reps[k] = cs.SheafData(sheaf.field, sheaf.braid, sheaf.N,
                                        sheaf.M[::-1], sheaf.W, sheaf.deg)
    assert verify_problems(report, known_fault=False)


def sheaf_reply(cand, sheaf):
    return json.dumps({**sheaf.to_json(), "validation": cs.validate(sheaf).to_json()})


def test_sheaf_reply_check_rejects_swapped_meridians():
    cand, sheaf = worked_example()
    assert sheaf_reply_problems(cs, sheaf_reply(cand, sheaf), cand) == []
    M = list(sheaf.M)
    M[1], M[2] = M[2], M[1]
    swapped = cs.SheafData(sheaf.field, sheaf.braid, sheaf.N, M, sheaf.W, sheaf.deg)
    assert sheaf_reply_problems(cs, sheaf_reply(cand, swapped), cand)


def test_to_aug_reply_check_rejects_a_reply_off_the_orbit():
    braid = cs.BraidWord(2, [])
    cands = cs.enumerate_augs(braid, F5)
    source = cands[len(cands) // 2]
    sheaf = cs.aug_to_sheaf(source, braid)
    got = cs.sheaf_to_aug(sheaf, cs.choose_trivialization(sheaf))
    assert to_aug_reply_problems(cs, json.dumps(got.to_json()), braid, source) == []
    key = cs.canonical_form(source)[0]
    other = next(c for c in cands if cs.canonical_form(c)[0] != key)
    assert cs.check_relations(other, braid).ok
    assert to_aug_reply_problems(cs, json.dumps(other.to_json()), braid, source)


def test_to_aug_reply_check_rejects_a_broken_certificate():
    cand, _ = worked_example()
    bad = with_entry(cand, 1, 1, 3)   # breaks the diagonal normalization
    assert to_aug_reply_problems(cs, json.dumps(bad.to_json()), UNLINK3, cand)


def test_decode_check_rejects_a_different_object():
    cand, sheaf = worked_example()
    assert decode_problems(cs.SheafData.from_json(sheaf.to_json()), sheaf) == []
    assert decode_problems(cs.AugCandidate.from_json(cand.to_json()), cand) == []
    assert decode_problems(with_entry(cand, 0, 1, 2), cand)
