"""The four benchmark workloads.

Every input is drawn from the workload seed with the benchmark's own PCG64
streams, never with semlink.sampling, so the program under test only ever
receives generated inputs.  A workload exposes

  request(i)           the i-th request of the run, with what it must print
  run(req)             the call a user waits for (timed by the caller)
  run_in_process(req)  the same request as calls into semlink in this process,
                       which the traced run uses
  check(req, out)      (problems, checks, rendered text) for a result
  warmup()             a few requests outside the stream, to load code and caches
  clock()              the CPU-seconds clock a request's work advances

In-process workloads call semlink through module attributes at call time, so
the traced run's patches on those attributes see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from checks import (ReferenceModel, check_law_report, check_text, render_eval,
                    sim_output, synth_output)

ENTITIES = tuple(f"e{i}" for i in range(1, 8))
CONSTANTS = tuple(f"c{i}" for i in range(1, 8))
FUNCTIONS = {"f": 1, "g": 2, "h": 2}
PREDICATES = {"P": 1, "Q": 2, "R": 3}
KEYWORDS = ("not", "and", "or", "implies", "iff", "xor", "cond")
KEYWORD_ARITY = {"not": 1, "cond": 3}
LAW_SEEDS = 1 << 16

FORMULA_TRIALS = 20
LIFT_LAWS = ("function", "relation", "sets", "chain")
LIFT_TRIALS = 50
SETS_CHECKS_PER_TRIAL = 10  # 3 set operations + 6 characteristic bits + 1 indicator
CLI_KINDS = ("eval", "synth", "synth_wide", "lift_function", "lift_relation",
             "check", "sim")
CLI_CHECK_TRIALS = 20
WIDE_ARITY = 12
SIM_DIM = 8

# Runs `python -m semlink.cli` and reports the child's own peak resident set
# (VmHWM of the post-exec address space) on the last stderr line.  The
# wait4/ru_maxrss figure would also count pages inherited from the launcher.
CLI_SHIM = """\
import runpy, sys
sys.argv[0] = "semlink"
try:
    runpy.run_module("semlink.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
    sys.stderr.write("@peak_kb " + (hwm[0] if hwm else "0") + "\\n")
"""


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, *stream]))


def children_cpu_time() -> float:
    """CPU seconds used by this process's children that have been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_cpu_time() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime + children_cpu_time()


def own_peak_rss_kb() -> int:
    """Peak resident set of this process's own address space (Linux)."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


@dataclass(frozen=True)
class Request:
    key: int          # digest key: equal keys must print equal outputs
    kind: str
    args: tuple       # what the request passes to semlink
    expected: str = ""


# ---------------------------------------------------------------------------
# generated model and expressions (eval-model and the cli eval/lift requests)


def model_data(rng: np.random.Generator) -> dict:
    """Seven entities, one constant per entity, a unary and two binary
    functions, and predicates of arity 1, 2 and 3."""
    perm = rng.permutation(len(ENTITIES))
    return {
        "entities": list(ENTITIES),
        "constants": {c: ENTITIES[int(p)] for c, p in zip(CONSTANTS, perm)},
        "functions": {
            name: {"arity": arity,
                   "table": [[*args, ENTITIES[int(rng.integers(len(ENTITIES)))]]
                             for args in product(ENTITIES, repeat=arity)]}
            for name, arity in FUNCTIONS.items()},
        "relations": {
            name: {"arity": arity,
                   "tuples": [list(args) for args in product(ENTITIES, repeat=arity)
                              if rng.random() < 0.5]}
            for name, arity in PREDICATES.items()},
    }


def _entity_expr(rng, depth: int) -> str:
    if depth > 0 and rng.random() < 0.6:
        name = tuple(FUNCTIONS)[int(rng.integers(len(FUNCTIONS)))]
        args = ",".join(_entity_expr(rng, depth - 1) for _ in range(FUNCTIONS[name]))
        return f"{name}({args})"
    return CONSTANTS[int(rng.integers(len(CONSTANTS)))]


def _formula_expr(rng, depth: int) -> str:
    if depth <= 1 or rng.random() < 0.3:
        name = tuple(PREDICATES)[int(rng.integers(len(PREDICATES)))]
        args = ",".join(_entity_expr(rng, 2) for _ in range(PREDICATES[name]))
        return f"{name}({args})"
    kw = KEYWORDS[int(rng.integers(len(KEYWORDS)))]
    args = ",".join(_formula_expr(rng, depth - 1)
                    for _ in range(KEYWORD_ARITY.get(kw, 2)))
    return f"{kw}({args})"


def expressions(rng: np.random.Generator, count: int) -> list[str]:
    """Closed expressions, half entity terms of nested function applications
    and half formulas over predicates of such terms, each of depth <= 4."""
    return [_entity_expr(rng, 4) if rng.random() < 0.5 else _formula_expr(rng, 4)
            for _ in range(count)]


def write_model(state_dir: str, name: str, data: dict) -> str:
    path = os.path.join(state_dir, name)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)
    return path


# ---------------------------------------------------------------------------
# in-process law workloads


class LawWorkload:
    """Requests are laws.run_law(law, seed_i, trials), which is
    `semlink check --law <law>` without process start."""

    def __init__(self, seed: int, laws: tuple[str, ...], trials: int):
        from semlink import laws as laws_mod
        self.laws_mod = laws_mod
        self.law_names, self.trials = laws, trials
        self.seeds = make_rng(seed, 1).integers(0, 2**31, size=LAW_SEEDS)
        self.warm_seeds = make_rng(seed, 2).integers(0, 2**31, size=len(laws))

    def request(self, i: int) -> Request:
        return Request(i, self.law_names[i % len(self.law_names)], (int(self.seeds[i]),))

    def run(self, req: Request):
        return self.laws_mod.run_law(req.kind, req.args[0], self.trials)

    run_in_process = run
    clock = staticmethod(time.process_time)

    def check(self, req: Request, report) -> tuple[list[str], int, str]:
        text = report.render()
        expected = {"formula": self.trials,
                    "sets": self.trials * SETS_CHECKS_PER_TRIAL}.get(req.kind)
        problems, checks = check_law_report(text, req.kind, req.args[0], self.trials, expected)
        return problems, checks, text

    def warmup(self):
        for i, s in enumerate(self.warm_seeds):
            self.laws_mod.run_law(self.law_names[i], int(s), self.trials)


class FormulaRandom(LawWorkload):
    name = "formula-random"

    def __init__(self, seed: int, state_dir: str):
        super().__init__(seed, ("formula",), FORMULA_TRIALS)


class LiftLaws(LawWorkload):
    name = "lift-laws"

    def __init__(self, seed: int, state_dir: str):
        super().__init__(seed, LIFT_LAWS, LIFT_TRIALS)


# ---------------------------------------------------------------------------
# in-process eval over one model


class EvalModel:
    """The body of `semlink eval` over one fixed model: load_model once in
    set-up, then per request parse_term, infer_type, denote, vector_denote
    and the comparison of the two routes."""

    name = "eval-model"

    def __init__(self, seed: int, state_dir: str):
        from semlink import homomorphism, model, terms, veclogic
        self.hm, self.model_mod, self.terms, self.vl = homomorphism, model, terms, veclogic
        self.seed = seed
        data = model_data(make_rng(seed, 3))
        self.ref = ReferenceModel(data)
        self.warm_pool = expressions(make_rng(seed, 5), 64)
        self.model = model.load_model(write_model(state_dir, f"eval-model-{seed}.json", data))
        self.sig = self.model.signature()
        self.fam = homomorphism.LiftFamily.for_model(self.model)

    def request(self, i: int) -> Request:
        # a fresh expression per request: the median sits on a steep part of
        # the cost distribution, so a cycled pool would make it seed-dependent
        text = expressions(make_rng(self.seed, 4, i), 1)[0]
        return Request(i, "eval", (text,), self.ref.eval_output(text))

    def run(self, req: Request):
        term = self.terms.parse_term(req.args[0], self.sig)
        self.terms.infer_type(term, self.sig)
        val = self.model_mod.denote(term, self.model, {})
        vec = self.hm.vector_denote(term, self.model, {}, self.fam)
        if isinstance(val, self.model_mod.EntityVal):
            ext, expected = val.id, self.hm.map_element(self.fam.entity, val.id)
        else:
            ext, expected = str(val.bit), self.vl.embed_truth(val.bit)
        return ext, vec, bool(np.array_equal(vec, expected))

    run_in_process = run
    clock = staticmethod(time.process_time)

    def check(self, req: Request, out) -> tuple[list[str], int, str]:
        text = render_eval(*out)
        return check_text(f"eval {req.args[0]!r}", text, req.expected), 1, text

    def warmup(self):
        for text in self.warm_pool:
            self.run(Request(-1, "eval", (text,)))


# ---------------------------------------------------------------------------
# one fresh interpreter per request


class Cli:
    """`python -m semlink.cli` once per request, cycling through a fixed mix
    of subcommands whose arguments are drawn per request from the seed."""

    name = "cli"

    def __init__(self, seed: int, state_dir: str, src_dir: str):
        self.seed = seed
        data = model_data(make_rng(seed, 3))
        self.ref = ReferenceModel(data)
        self.pool = expressions(make_rng(seed, 4), 64)  # for the eval requests
        self.model_path = write_model(state_dir, f"cli-{seed}.json", data)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
        self.peak_kb: dict[str, int] = {}  # largest child peak by request kind
        self.cli_mod = None

    def request(self, i: int) -> Request:
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        rng = make_rng(self.seed, 6, i)
        if kind == "eval":
            text = self.pool[i // len(CLI_KINDS) % len(self.pool)]
            return Request(i, kind, ("eval", "--model", self.model_path, "--expr", text),
                           self.ref.eval_output(text))
        if kind in ("synth", "synth_wide"):
            arity = WIDE_ARITY if kind == "synth_wide" else 4
            bits = "".join(map(str, rng.integers(0, 2, size=1 << arity)))
            return Request(i, kind, ("synth", "--table", bits, "--arity", str(arity)),
                           synth_output(bits))
        if kind == "lift_function":
            name = tuple(FUNCTIONS)[i // len(CLI_KINDS) % len(FUNCTIONS)]
            return Request(i, kind, ("lift", "--model", self.model_path, "--function", name),
                           self.ref.lift_function_output(name))
        if kind == "lift_relation":
            name = tuple(PREDICATES)[i // len(CLI_KINDS) % len(PREDICATES)]
            return Request(i, kind, ("lift", "--model", self.model_path, "--relation", name),
                           self.ref.lift_relation_output(name))
        if kind == "check":
            law_seed = int(rng.integers(0, 2**31))
            return Request(i, kind, ("check", "--law", "formula", "--trials",
                                     str(CLI_CHECK_TRIALS), "--seed", str(law_seed)))
        u, v = (rng.integers(1, 10, size=SIM_DIM).tolist() for _ in range(2))
        return Request(i, kind, ("sim", ",".join(map(str, u)), ",".join(map(str, v))),
                       sim_output(u, v))

    clock = staticmethod(children_cpu_time)

    def run(self, req: Request) -> tuple[int, str, str]:
        proc = subprocess.run([sys.executable, "-c", CLI_SHIM, *req.args],
                              capture_output=True, text=True, env=self.env, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, req: Request) -> tuple[int, str, str]:
        if self.cli_mod is None:
            from semlink import cli
            self.cli_mod = cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli_mod.main(list(req.args))
        return code, out.getvalue(), err.getvalue()

    def check(self, req: Request, out) -> tuple[list[str], int, str]:
        code, stdout, stderr = out
        problems = []
        if code != 0:
            problems.append(f"cli {req.kind}: exit code {code}, expected 0: {stderr[-300:]!r}")
        if "@peak_kb " in stderr:  # only subprocess requests report a peak
            peak = int(stderr.rsplit("@peak_kb ", 1)[1].split()[0])
            self.peak_kb[req.kind] = max(self.peak_kb.get(req.kind, 0), peak)
        if req.kind == "check":
            found, checks = check_law_report(stdout, "formula", int(req.args[-1]),
                                             CLI_CHECK_TRIALS, CLI_CHECK_TRIALS)
            return problems + found, checks, stdout
        # us_per_check on cli counts the check requests only: adding the
        # one-check eval requests would make it follow each run's kind counts
        return problems + check_text(f"cli {req.kind}", stdout, req.expected), 0, stdout

    def warmup(self):
        self.run(self.request(CLI_KINDS.index("sim")))
