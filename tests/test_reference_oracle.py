"""Both routes, and the eval and lift output, against an independent evaluator.

Both routes of semlink run through one loader (model_from_dict), one parser
(parse_term) and one walker (model.evaluate), so a fault in any of them acts
on both routes alike and every law still passes.  perfbench/checks.py's
ReferenceModel shares none of that code: it reads the model's JSON rows and
tokenises the expression text itself, and renders what `semlink eval`,
`lift --function` and `lift --relation` must print.  Here it is compared
with denote, vector_denote and the in-process CLI on drawn models and
expressions (differential testing).
"""

import contextlib
import io
import json
import os
import sys
from itertools import product

import numpy as np

from semlink import cli
from semlink import homomorphism as hm
from semlink import veclogic as vl
from semlink.model import EntityVal, denote, model_from_dict
from semlink.terms import parse_term

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

from checks import ReferenceModel  # noqa: E402 (perfbench/ is put on the path above)

KEYWORDS = {"not": 1, "and": 2, "or": 2, "implies": 2, "iff": 2, "xor": 2, "cond": 3}
MODELS, EXPRESSIONS = 40, 25


def draw_model(rng) -> dict:
    """1-5 entities, 1-3 constants that may leave some entities unnamed, and
    one or two functions and one to three relations of arity 1-3, their rows
    in a drawn order."""
    entities = [f"e{i}" for i in range(1 + rng.integers(5))]

    def pick():
        return entities[rng.integers(len(entities))]

    def arities(most):
        return (1 + rng.integers(3, size=1 + rng.integers(most))).tolist()

    def rows(arity):
        every = list(product(entities, repeat=arity))
        return [list(every[i]) for i in rng.permutation(len(every))]

    return {
        "entities": entities,
        "constants": {f"c{i}": pick() for i in range(1 + rng.integers(3))},
        "functions": {f"f{i}": {"arity": arity, "table": [r + [pick()] for r in rows(arity)]}
                      for i, arity in enumerate(arities(2))},
        "relations": {f"P{i}": {"arity": arity, "tuples": [r for r in rows(arity)
                                                           if rng.random() < 0.5]}
                      for i, arity in enumerate(arities(3))},
    }


def draw_expression(rng, data: dict) -> str:
    """A closed entity term or formula over the model's symbols, of depth <= 3."""
    arity = {name: entry["arity"] for section in ("functions", "relations")
             for name, entry in data[section].items()}

    def choose(names):
        return names[rng.integers(len(names))]

    def entity(depth):
        if depth > 0 and rng.random() < 0.5:
            name = choose(sorted(data["functions"]))
            return f"{name}({','.join(entity(depth - 1) for _ in range(arity[name]))})"
        return choose(sorted(data["constants"]))

    def formula(depth):
        if depth <= 1 or rng.random() < 0.4:
            name = choose(sorted(data["relations"]))
            return f"{name}({','.join(entity(depth - 1) for _ in range(arity[name]))})"
        kw = choose(sorted(KEYWORDS))
        return f"{kw}({','.join(formula(depth - 1) for _ in range(KEYWORDS[kw]))})"

    return entity(3) if rng.random() < 0.4 else formula(3)


def cli_output(argv) -> str:
    """What `semlink` prints for argv, run in process, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{out.getvalue()}exit {code}\n"


def test_both_routes_and_the_cli_agree_with_the_reference_evaluator(tmp_path):
    rng = np.random.default_rng(2024)
    wrong = []
    for k in range(MODELS):
        data = draw_model(rng)
        path = str(tmp_path / f"model{k}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        ref, model = ReferenceModel(data), model_from_dict(data)
        sig, fam = model.signature(), hm.LiftFamily.for_model(model)
        for _ in range(EXPRESSIONS):
            text = draw_expression(rng, data)
            kind, want = ref.evaluate(text)
            term = parse_term(text, sig)
            val, vec = denote(term, model, {}), hm.vector_denote(term, model, {}, fam)
            if isinstance(val, EntityVal):
                routes = (kind == "entity", val.id, vl.unmap_element(fam.entity, vec))
            else:
                routes = (kind == "truth", val.bit, vl.project_truth(vec))
            shown = cli_output(["eval", "--model", path, "--expr", text])
            if routes != (True, want, want) or shown != f"{ref.eval_output(text)}exit 0\n":
                wrong.append(f"model {k}: {text}: reference {want}, routes {routes[1:]}")
        for flag, name, expected in (
                [("--function", n, ref.lift_function_output(n)) for n in data["functions"]]
                + [("--relation", n, ref.lift_relation_output(n)) for n in data["relations"]]):
            if cli_output(["lift", "--model", path, flag, name]) != f"{expected}exit 0\n":
                wrong.append(f"model {k}: lift {flag} {name}")
    assert not wrong, f"{len(wrong)} disagreements, the first: {wrong[:3]}"
