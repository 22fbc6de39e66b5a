"""Command-line front end.

Verbs:
    augs             enumerate augmentation candidates (optionally by orbit)
    sheaf            build the sheaf of an augmentation JSON file
    to-aug           read the augmentation back off a sheaf JSON file
    verify           enumerate both sides and check the bijection
    markov           compare two braid representatives of one link
    example-unlink3  run the three-component-unlink worked example end to end

Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget
exceeded.  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .braid import BraidWord, NonMonotoneComponentsError, component_map, relabel_for_components
from .cordaug import AugCandidate
from .correspondence import (NotAnAugmentationError, aug_to_sheaf,
                             canonical_trivialization, choose_trivialization,
                             diff_candidates, sheaf_to_aug)
from .field import FieldSpec, decimal_integer
from .linalg import Matrix
from .moduli import (BudgetExceededError, DEFAULT_BUDGET, enumerate_augs,
                     markov_compare, quotient_by_dilation, verify_bijection)
from .sheafmodel import SheafData, check_size, validate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


class InputError(ValueError):
    pass


def _integer(arg: str) -> int:
    """argparse type of the integer options: a decimal integer, nothing else."""
    try:
        return decimal_integer(arg)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _field(arg: str) -> FieldSpec:
    try:
        return FieldSpec.prime(decimal_integer(arg))
    except ValueError as err:
        raise InputError(f"--field must be a prime, got {arg!r}: {err}")


def _braid(word_text: str, strands: int, option: str = "--braid") -> BraidWord:
    try:
        braid = BraidWord.parse(strands, word_text)
    except ValueError as err:
        raise InputError(f"{option}: {err}")
    try:
        component_map(braid)
    except NonMonotoneComponentsError:
        braid, pi = relabel_for_components(braid)
        print(f"note: strands relabeled by {list(pi)} to make components "
              f"non-decreasing; braid word is now {list(braid.word)}", file=sys.stderr)
    return braid


def _read_json(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError("JSON nested too deeply to decode") from None


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_augs(args) -> int:
    field = _field(args.field)
    braid = _braid(args.braid, args.strands)
    candidates = enumerate_augs(braid, field, budget=args.budget)
    payload = {"braid": braid.to_json(), "field": field.to_json()}
    if args.modulo_dilation:
        orbits = quotient_by_dilation(candidates)
        payload["orbit_count"] = len(orbits)
        payload["orbits"] = [{"size": o.size, "representative": o.rep.to_json()} for o in orbits]
    else:
        payload["count"] = len(candidates)
        payload["candidates"] = [c.to_json() for c in candidates]
    _emit(payload)
    return EXIT_OK


def cmd_sheaf(args) -> int:
    cand = AugCandidate.from_json(_read_json(args.aug))
    check_size(cand.n + 1, cand.n)  # the reply has N <= n + 1, so to-aug reads it
    braid = _braid(args.braid, args.strands)
    try:
        sheaf = aug_to_sheaf(cand, braid)
    except NotAnAugmentationError as err:
        print(json.dumps({"error": "not an augmentation",
                          "failures": err.report.failures[:8]}, indent=2))
        return EXIT_INPUT_ERROR
    payload = sheaf.to_json()
    payload["validation"] = validate(sheaf).to_json()
    _emit(payload)
    return EXIT_OK


def cmd_to_aug(args) -> int:
    sheaf = SheafData.from_json(_read_json(args.sheaf))
    vrep = validate(sheaf)
    if not vrep.ok:
        print(json.dumps({"error": "invalid sheaf data", "failures": vrep.failures[:8]},
                         indent=2))
        return EXIT_INPUT_ERROR
    cand = sheaf_to_aug(sheaf, choose_trivialization(sheaf))
    _emit(cand.to_json())
    return EXIT_OK


def cmd_verify(args) -> int:
    field = _field(args.field)
    braid = _braid(args.braid, args.strands)
    report = verify_bijection(braid, field, budget=args.budget)
    _emit(report.to_json())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_markov(args) -> int:
    field = _field(args.field)
    b1 = _braid(args.braid1, args.strands1, "--braid1")
    b2 = _braid(args.braid2, args.strands2, "--braid2")
    report = markov_compare(b1, b2, field, budget=args.budget)
    _emit(report.to_json())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_example_unlink3(args) -> int:
    field = _field(args.field)
    values = {}
    for name in ("e12", "e13", "e32", "e33"):
        values[name] = field.from_str(getattr(args, name))
        if values[name].is_zero():
            raise InputError(f"{name} must be nonzero")
    det = values["e12"] * values["e33"] - values["e13"] * values["e32"]
    if det.is_zero():
        raise InputError("determinant constraint violated "
                         "(e12*e33 - e13*e32 must be nonzero)")
    if values["e33"].is_one():
        raise InputError("e33 = 1 makes the third meridian unit vanish")

    braid = BraidWord(3, [])
    comps = component_map(braid)
    one, zero = field.one(), field.zero()
    R = Matrix(field, [
        [zero, values["e12"], values["e13"]],
        [zero, zero, zero],
        [zero, values["e32"], values["e33"]],
    ])
    cand = AugCandidate(field, comps, R, [one, one, one],
                        [one, one, one - values["e33"]])
    # on the empty braid the certificate is the diagonal normalization,
    # which R meets by construction
    sheaf = aug_to_sheaf(cand, braid)
    vrep = validate(sheaf)
    recovered = sheaf_to_aug(sheaf, canonical_trivialization(cand))
    diff = diff_candidates(cand, recovered)

    if args.json:
        _emit({
            "candidate": cand.to_json(),
            "sheaf": sheaf.to_json(),
            "sheaf_valid": vrep.ok,
            "recovered": recovered.to_json(),
            "diff": diff.to_json(),
        })
    else:
        print(f"candidate over {field}: e12={values['e12']} e13={values['e13']} "
              f"e32={values['e32']} e33={values['e33']}")
        print("relations: OK")
        print(f"sheaf dimension: {sheaf.N}; valid: {'OK' if vrep.ok else 'FAIL'}")
        for i, m in enumerate(sheaf.M, start=1):
            print(f"  M{i} = {m.to_json()}")
        for i, w in enumerate(sheaf.W, start=1):
            print(f"  W{i} basis columns = {w.to_json()}")
        print(f"eps_F(gamma_ij) = eps_ij: {'OK' if diff.empty else 'FAIL'}")
        print(f"round trip: {'OK' if diff.empty else 'FAIL'}")
    ok = vrep.ok and diff.empty
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cordsheaf",
        description="Augmentations of framed cord algebras and simple sheaves "
                    "for braid closures, with exact brute-force verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="JSON output for example-unlink3 (other verbs always print JSON)")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("augs", help="enumerate augmentation candidates")
    p.add_argument("--braid", required=True, help='signed generator word, e.g. "1 1 1"')
    p.add_argument("--strands", type=_integer, required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--modulo-dilation", action="store_true")
    p.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    p.set_defaults(run=cmd_augs)

    p = add_parser("sheaf", help="augmentation file -> sheaf data")
    p.add_argument("--aug", required=True, help="JSON file ('-' for stdin)")
    p.add_argument("--braid", required=True)
    p.add_argument("--strands", type=_integer, required=True)
    p.set_defaults(run=cmd_sheaf)

    p = add_parser("to-aug", help="sheaf file -> augmentation")
    p.add_argument("--sheaf", required=True, help="JSON file ('-' for stdin)")
    p.set_defaults(run=cmd_to_aug)

    p = add_parser("verify", help="check the bijection for one braid")
    p.add_argument("--braid", required=True)
    p.add_argument("--strands", type=_integer, required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    p.set_defaults(run=cmd_verify)

    p = add_parser("markov", help="compare two braid representatives")
    p.add_argument("--braid1", required=True)
    p.add_argument("--strands1", type=_integer, required=True)
    p.add_argument("--braid2", required=True)
    p.add_argument("--strands2", type=_integer, required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    p.set_defaults(run=cmd_markov)

    p = add_parser("example-unlink3", help="three-component unlink worked example")
    p.add_argument("--field", required=True)
    p.add_argument("--e12", required=True)
    p.add_argument("--e13", required=True)
    p.add_argument("--e32", required=True)
    p.add_argument("--e33", required=True)
    p.set_defaults(run=cmd_example_unlink3)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
