"""Command line front end.

Subcommands:

  eval   evaluate an expression against a model along both routes
  synth  synthesize the operator matrix of a truth table bitstring
  lift   print the vector-side table of a model function or relation
  check  run a commutation law suite and report pass/fail
  sim    cosine similarity of two comma-separated vectors

Exit codes: 0 success, 1 law violation or route disagreement,
2 malformed input (bad expression, bad model file, bad table).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from . import homomorphism as hm
from . import laws
from . import space
from . import veclogic as vl
from .model import EntityVal, denote, load_model
from .terms import infer_type, parse_term


@dataclass(frozen=True)
class RunConfig:
    command: str
    model_path: "str | None" = None
    expression: "str | None" = None
    table_bits: "str | None" = None
    arity: "int | None" = None
    function: "str | None" = None
    relation: "str | None" = None
    law: "str | None" = None
    trials: int = 1000
    seed: int = 0
    arity_cap: "int | None" = None
    u: "str | None" = None
    v: "str | None" = None


def format_matrix(mat: np.ndarray) -> str:
    return "\n".join(" ".join(str(int(x)) for x in row) for row in np.asarray(mat))


def format_vector(vec: np.ndarray) -> str:
    return " ".join(str(int(x)) for x in np.asarray(vec))


def _parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="semlink",
        description="evaluate terms in a finite model and in its vector image, "
                    "and verify that the two routes agree")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression both ways")
    p_eval.add_argument("--model", required=True, help="model JSON file")
    p_eval.add_argument("--expr", required=True, help="prefix expression")

    p_synth = sub.add_parser("synth", help="operator matrix of a truth table")
    p_synth.add_argument("--table", required=True,
                         help="output bitstring in column order, e.g. 1000")
    p_synth.add_argument("--arity", type=int, default=None)
    p_synth.add_argument("--arity-cap", type=int, default=None)

    p_lift = sub.add_parser("lift", help="vector-side table of a model symbol")
    p_lift.add_argument("--model", required=True)
    group = p_lift.add_mutually_exclusive_group(required=True)
    group.add_argument("--function")
    group.add_argument("--relation")

    p_check = sub.add_parser("check", help="run a commutation law suite")
    p_check.add_argument("--model", default=None)
    p_check.add_argument("--law", required=True, choices=laws.LAWS)
    p_check.add_argument("--trials", type=int, default=1000)
    p_check.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("sim", help="cosine similarity of two vectors")
    p_sim.add_argument("u", help="comma-separated numbers")
    p_sim.add_argument("v", help="comma-separated numbers")

    ns = parser.parse_args(argv)
    return RunConfig(
        command=ns.command,
        model_path=getattr(ns, "model", None),
        expression=getattr(ns, "expr", None),
        table_bits=getattr(ns, "table", None),
        arity=getattr(ns, "arity", None),
        function=getattr(ns, "function", None),
        relation=getattr(ns, "relation", None),
        law=getattr(ns, "law", None),
        trials=getattr(ns, "trials", 1000),
        seed=getattr(ns, "seed", 0),
        arity_cap=getattr(ns, "arity_cap", None),
        u=getattr(ns, "u", None),
        v=getattr(ns, "v", None),
    )


def _cmd_eval(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    sig = model.signature()
    term = parse_term(cfg.expression, sig)
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


def _cmd_synth(cfg: RunConfig) -> int:
    table = vl.TruthTable.from_bits(cfg.table_bits, cfg.arity)
    op = vl.synth_operator(table, cap=cfg.arity_cap)
    print(format_matrix(op.mat))
    return 0


def _cmd_lift(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    fam = hm.LiftFamily.for_model(model)
    if cfg.function is not None:
        name = cfg.function
        if name not in model.functions:
            raise ValueError(f"model does not interpret function {name!r}")
        fn = model.functions[name]
        lifted = hm.lifted_model_function(model, name, fam)
        src = hm.product_map(fam.entity, fn.arity)
        print(f"lifted function {name}: dim {src.dim} -> dim {fam.entity.dim}")
        for args in sorted(fn.table):
            key = args[0] if fn.arity == 1 else args
            out = lifted(hm.map_element(src, key))
            print(f"({','.join(args)}) -> {fn.table[args]} | "
                  f"basis {src.index[key]} -> basis {int(np.argmax(out))}")
        return 0
    name = cfg.relation
    if name not in model.relations:
        raise ValueError(f"model does not interpret relation {name!r}")
    rel = model.relations[name]
    lifted = hm.lifted_model_relation(model, name, fam)
    print(f"lifted relation {name}: arity {rel.arity} over dim {fam.entity.dim}")
    for tup in iproduct(model.entities, repeat=rel.arity):
        bit = lifted([hm.map_element(fam.entity, a) for a in tup])
        print(f"({','.join(tup)}) -> {bit}")
    return 0


def _cmd_check(cfg: RunConfig) -> int:
    if cfg.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {cfg.trials}")
    model = load_model(cfg.model_path) if cfg.model_path else None
    report = laws.run_law(cfg.law, cfg.seed, cfg.trials, model)
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def _parse_vec(text: str) -> np.ndarray:
    try:
        vec = np.array([float(x) for x in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")
    if not np.isfinite(vec).all():
        raise ValueError(f"vector components must be finite, got {text!r}")
    return vec


def _cmd_sim(cfg: RunConfig) -> int:
    value = space.cosine_similarity(_parse_vec(cfg.u), _parse_vec(cfg.v))
    print(f"{value:.9f}")
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "lift": _cmd_lift,
    "check": _cmd_check,
    "sim": _cmd_sim,
}


def run(cfg: RunConfig) -> int:
    return _COMMANDS[cfg.command](cfg)


def main(argv=None) -> int:
    cfg = _parse_args(argv)
    try:
        return run(cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
