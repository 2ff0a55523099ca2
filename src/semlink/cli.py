"""Command line front end.

Subcommands:

  eval   evaluate an expression against a model along both routes
  synth  synthesize the operator matrix of a truth table bitstring
  lift   print the vector-side table of a model function or relation
  check  run a commutation law suite and report pass/fail
  sim    cosine similarity of two comma-separated vectors

Exit codes: 0 success, 1 law violation or route disagreement,
2 malformed input (bad expression, bad model file, bad table),
3 internal error (any other exception, a fault of semlink itself).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

import numpy as np

from . import homomorphism as hm
from . import laws
from . import space
from . import veclogic as vl
from .model import EntityVal, denote, load_model
from .terms import infer_type, parse_term


def format_matrix(mat: np.ndarray) -> str:
    return "\n".join(" ".join(str(int(x)) for x in row) for row in np.asarray(mat))


def format_vector(vec: np.ndarray) -> str:
    return " ".join(str(int(x)) for x in np.asarray(vec))


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="semlink",
        description="evaluate terms in a finite model and in its vector image, "
                    "and verify that the two routes agree")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression both ways")
    p_eval.add_argument("--model", required=True, help="model JSON file")
    p_eval.add_argument("--expr", required=True, help="prefix expression")
    p_eval.set_defaults(run=_cmd_eval)

    p_synth = sub.add_parser("synth", help="operator matrix of a truth table")
    p_synth.add_argument("--table", required=True,
                         help="output bitstring in column order, e.g. 1000")
    p_synth.add_argument("--arity", type=int, default=None)
    p_synth.set_defaults(run=_cmd_synth)

    p_lift = sub.add_parser("lift", help="vector-side table of a model symbol")
    p_lift.add_argument("--model", required=True)
    group = p_lift.add_mutually_exclusive_group(required=True)
    group.add_argument("--function")
    group.add_argument("--relation")
    p_lift.set_defaults(run=_cmd_lift)

    p_check = sub.add_parser("check", help="run a commutation law suite")
    p_check.add_argument("--model", default=None)
    p_check.add_argument("--law", required=True, choices=laws.LAWS)
    p_check.add_argument("--trials", type=int, default=1000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(run=_cmd_check)

    p_sim = sub.add_parser("sim", help="cosine similarity of two vectors")
    p_sim.add_argument("u", help="comma-separated numbers")
    p_sim.add_argument("v", help="comma-separated numbers")
    p_sim.set_defaults(run=_cmd_sim)

    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["sim"] and not {"--", "-h", "--help"} & set(argv):
        argv.insert(1, "--")  # so that a vector such as -1,0 is not read as an option
    return parser.parse_args(argv)


def _cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    sig = model.signature()
    term = parse_term(args.expr, sig)
    infer_type(term, sig)
    fam = hm.LiftFamily.for_model(model)
    val = denote(term, model, {})
    vec = hm.vector_denote(term, model, {}, fam)
    if isinstance(val, EntityVal):
        ext, expected = val.id, hm.map_element(fam.entity, val.id)
    else:
        ext, expected = str(val.bit), np.asarray(vl.embed_truth(val.bit))
    print(f"extensional: {ext}")
    print(f"vector: {format_vector(vec)}")
    agree = np.array_equal(vec, expected)
    print(f"agree: {'yes' if agree else 'no'}")
    return 0 if agree else 1


def _cmd_synth(args: argparse.Namespace) -> int:
    table = vl.TruthTable.from_bits(args.table, args.arity)
    op = vl.synth_operator(table)
    print(format_matrix(op.mat))
    return 0


def _cmd_lift(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    fam = hm.LiftFamily.for_model(model)
    if args.function is not None:
        name = args.function
        if name not in model.functions:
            raise ValueError(f"model does not interpret function {name!r}")
        fn = model.functions[name]
        lifted = fam.function(name)
        print(f"lifted function {name}: dim {lifted.mat.shape[1]} -> dim {fam.entity.dim}")
        columns = {row: (j, out) for j, (row, out) in enumerate(lifted.table())}
        for row in sorted(fn.table):
            j, out = columns[row]
            print(f"({','.join(row)}) -> {fn.table[row]} | "
                  f"basis {j} -> basis {fam.entity.index[out]}")
        return 0
    name = args.relation
    if name not in model.relations:
        raise ValueError(f"model does not interpret relation {name!r}")
    print(f"lifted relation {name}: arity {model.relations[name].arity} over dim {fam.entity.dim}")
    for tup, bit in fam.relation(name).table():
        print(f"({','.join(tup)}) -> {bit}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    model = load_model(args.model) if args.model else None
    report = laws.run_law(args.law, args.seed, args.trials, model)
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def _parse_vec(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")


def _cmd_sim(args: argparse.Namespace) -> int:
    value = space.cosine_similarity(_parse_vec(args.u), _parse_vec(args.v))
    print(f"{value:.9f}")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of semlink, not a verdict on the input
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {exc!r} at {os.path.basename(where.filename)}:{where.lineno}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
