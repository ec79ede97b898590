"""Command-line interface.

Exit codes: 0 success, 1 semantic failure (assertion or non-equivalence),
2 usage or input error (including a file that is not UTF-8 text), 3 cap
exceeded, internal invariant violation or any other unexpected error.
Every failure is reported as one ``error:`` line, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .circumscription import (
    circ_equivalent,
    format_row,
    preferred_models,
    preorder_equivalent,
    skeptical_entails,
)
from .config import atom_cap_from_env, check_atoms
from .errors import (
    CapExceededError,
    InternalError,
    ParapriError,
    ParseError,
    UniverseError,
    ValidationError,
)
from .formula import Not, atoms as formula_atoms, iter_bits, parse_formula, to_text
from .lp import encode_stratified, parse_program
from .preorder import PreorderSpec
from .specificity import AB_VARIANTS, encode_abnormality, transformed_then_pruned
from .theory import SchemaTheory, Theory, classify_order, default_texts, ground, parse_theory, print_theory
from .transform import (
    TransformOutput,
    output_size,
    parallel_theory,
    transform_all,
    transform_canonical,
)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text", offset=e.start) from None


def _load_theory(path: str) -> Theory:
    t = parse_theory(_read_text(path))
    if isinstance(t, SchemaTheory):
        t = ground(t)
    return t


def _members(t: Theory, n: int | None) -> list[TransformOutput]:
    if n is None:
        return [transform_canonical(t.defaults, t.priority)]
    return transform_all(t.defaults, t.priority, limit=n)


def _corrupt(out: TransformOutput) -> TransformOutput:
    # Negative-control self test: negating every output formula flips the
    # maximization direction, which no correct transform would survive.
    from .theory import LabeledFormula

    return TransformOutput(
        tuple(LabeledFormula(l, Not(f)) for l, f in out.defaults),
        out.provenance,
    )


def cmd_transform(args) -> int:
    t = _load_theory(args.file)
    if args.size_only:
        print(output_size(t.priority).total)
        return 0
    members = _members(t, args.all)
    if args.format == "json":
        doc = {
            "universe": list(t.universe),
            "base": [to_text(f) for f in t.base],
            "fixtures": [{"label": l, "formula": to_text(f)} for l, f in t.fixtures],
            "members": [
                {
                    "defaults": [
                        {
                            "label": l,
                            "formula": text,
                            "source": p.source,
                            "sigma": list(p.sigma),
                            "bits": p.bits,
                        }
                        for (l, _), p, text in zip(m.defaults, m.provenance, default_texts(m.defaults, m.nest))
                    ]
                }
                for m in members
            ],
        }
        print(json.dumps(doc, indent=2))
        return 0
    chunks = []
    for k, m in enumerate(members, start=1):
        text = print_theory(parallel_theory(t, m))
        chunks.append(f"# member {k}\n{text}" if len(members) > 1 else text)
    print("\n".join(chunks), end="")
    return 0


def cmd_query(args) -> int:
    t = _load_theory(args.file)
    q = parse_formula(args.query)
    for a in formula_atoms(q):
        if a not in t.universe:
            raise UniverseError(f"query atom {a!r} not in the theory's universe")
    direct = skeptical_entails(t, q)
    out = transform_canonical(t.defaults, t.priority)
    via_parallel = skeptical_entails(parallel_theory(t, out), q)
    if direct != via_parallel:
        raise InternalError(
            f"direct answer {direct} disagrees with the transform route {via_parallel}"
        )
    answer = "yes" if direct else "no"
    print(answer)
    if args.assert_ is not None:
        return 0 if answer == args.assert_ else 1
    return 0


def cmd_models(args) -> int:
    t = _load_theory(args.file)
    pm = preferred_models(t)
    rows = [[bool((z >> k) & 1) for k in range(len(pm.universe))] for z in iter_bits(pm.mask)]
    if args.format == "json":
        doc = {"universe": list(pm.universe), "models": rows}
        print(json.dumps(doc, indent=2))
        return 0
    for r in rows:
        print(format_row(pm.universe, r))
    return 0


def cmd_check_equiv(args) -> int:
    project = None if args.project is None else args.project.split(",")
    if args.preorder and project is not None:
        raise ValidationError("--project applies to model sets only, not to --preorder")
    t = _load_theory(args.file)
    check_atoms(t.universe)  # every route enumerates; refuse before the transform
    members = _members(t, args.all)
    if args.self_test_corrupt:
        members = [_corrupt(m) for m in members]
    ok = True
    for m in members:
        if args.preorder:
            ok = preorder_equivalent(PreorderSpec.of(t), PreorderSpec.parallel(m.defaults), t.universe)
        else:
            ok = circ_equivalent(t, parallel_theory(t, m), project)
        if not ok:
            break
    print("equivalent" if ok else "not-equivalent")
    return 0 if ok else 1


def cmd_stats(args) -> int:
    t = _load_theory(args.file)
    report = output_size(t.priority)
    print(f"defaults: {len(t.defaults)}")
    for label, m in report.m:
        print(f"m[{label}]: {m}")
    print(f"max_m: {report.max_m}")
    print(f"size: {report.total}")
    print(f"top_heavy: {'yes' if report.top_heavy else 'no'}")
    print(f"classification: {classify_order(t.priority)}")
    return 0


def cmd_prune(args) -> int:
    t = _load_theory(args.file)
    report = transformed_then_pruned(t, k=args.k)
    for l, f in report.kept:
        print(f"kept {l}: {to_text(f)}")
    for d in report.dropped:
        print(f"dropped {d.label}: {d.describe()}")
    print(f"kept {len(report.kept)} of {len(report.kept) + len(report.dropped)}")
    return 0


def cmd_encode_ab(args) -> int:
    print(print_theory(encode_abnormality(_load_theory(args.file), args.variant)), end="")
    return 0


def cmd_encode_lp(args) -> int:
    p = parse_program(_read_text(args.file))
    print(print_theory(encode_stratified(p)), end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parapri",
        description="Prioritized propositional defaults: transform to parallel, query, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="eliminate priorities from a theory file")
    p.add_argument("file")
    p.add_argument("--all", type=int, default=None, metavar="N", help="emit the first N members")
    p.add_argument("--size-only", action="store_true", help="print the output size, emit nothing")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("query", help="skeptical yes/no query, cross-checked through the transform")
    p.add_argument("file")
    p.add_argument("query")
    p.add_argument("--assert", dest="assert_", choices=("yes", "no"), default=None)
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("models", help="print the preferred models")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_models)

    p = sub.add_parser("check-equiv", help="compare a theory against its own transform")
    p.add_argument("file")
    p.add_argument("--preorder", action="store_true", help="compare pre-orders instead of model sets")
    p.add_argument("--all", type=int, default=None, metavar="N", help="check the first N members")
    p.add_argument("--project", default=None, metavar="a,b,c", help="compare model sets on these atoms only")
    p.add_argument("--self-test-corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(handler=cmd_check_equiv)

    p = sub.add_parser("stats", help="size and shape of the priority order")
    p.add_argument("file")
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("prune", help="transform, then drop redundant output defaults")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=2, help="combination subset bound")
    p.set_defaults(handler=cmd_prune)

    p = sub.add_parser("encode-ab", help="guarded-rule parallel encoding of an implication-rule theory")
    p.add_argument("file")
    p.add_argument("--variant", choices=AB_VARIANTS, default="violation")
    p.set_defaults(handler=cmd_encode_ab)

    p = sub.add_parser("encode-lp", help="encode a stratified logic program as a default theory")
    p.add_argument("file")
    p.set_defaults(handler=cmd_encode_lp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        atom_cap_from_env()  # a bad PARAPRI_MAX_ATOMS is an input error on every subcommand
        return args.handler(args)
    except (CapExceededError, InternalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ParapriError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # the contract: an exit code and one line, never a traceback
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
