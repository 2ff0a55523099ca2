"""Output checks for the benchmark's requests.

Each check returns a list of problems, empty when the output is right, so a
corrupted output is flagged instead of passing silently.  The checks read the
text a user of semlink sees and compare it with values the benchmark derives
itself from its own generated inputs.  They never ask semlink's evaluators
for the expected answer, so a bug shared by both routes still shows.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from itertools import product

REPORT_KEYS = ("law", "seed", "trials", "checks", "failures")

# classical truth functions of the connective keywords, with their arities
CONNECTIVES = {
    "not": (1, lambda a: 1 - a),
    "and": (2, lambda a, b: a & b),
    "or": (2, lambda a, b: a | b),
    "implies": (2, lambda a, b: (1 - a) | b),
    "iff": (2, lambda a, b: 1 - (a ^ b)),
    "xor": (2, lambda a, b: a ^ b),
    "cond": (3, lambda c, a, b: a if c else b),
}

TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[(),])")


def check_law_report(text: str, law: str, seed: int, trials: int,
                     expected_checks: "int | None" = None) -> tuple[list[str], int]:
    """Check a rendered law report; return (problems, checks it claims).

    The report must be the exact six-line layout of a passing run, name the
    law, seed and trial count it was asked for, and claim a positive number
    of checks, equal to expected_checks where the inputs fix that number.
    """
    lines = text.split("\n")
    if len(lines) != 7 or lines[-1] != "":
        return [f"{law} report has {len(lines) - 1} lines, expected 6: {text!r}"], 0
    fields = [line.partition(": ") for line in lines[:5]]
    keys = tuple(key for key, _, _ in fields)
    if keys != REPORT_KEYS:
        return [f"{law} report fields are {keys}, expected {REPORT_KEYS}"], 0
    got = {key: value for key, _, value in fields}
    problems = []
    for key, want in (("law", law), ("seed", str(seed)), ("trials", str(trials)),
                      ("failures", "0")):
        if got[key] != want:
            problems.append(f"{law} report says {key}: {got[key]}, expected {want}")
    checks = int(got["checks"]) if got["checks"].isdigit() else 0
    if checks <= 0:
        problems.append(f"{law} report says checks: {got['checks']}, expected a positive count")
    elif expected_checks is not None and checks != expected_checks:
        problems.append(f"{law} report says checks: {checks}, expected {expected_checks}")
    if lines[5] != "result: PASS":
        problems.append(f"{law} report ends with {lines[5]!r}, expected 'result: PASS'")
    return problems, checks


def render_eval(ext: str, vec, agree: bool) -> str:
    """The text `semlink eval` prints for a result."""
    return (f"extensional: {ext}\nvector: {' '.join(str(int(x)) for x in vec)}\n"
            f"agree: {'yes' if agree else 'no'}\n")


def check_text(label: str, got: str, want: str) -> list[str]:
    """Exact comparison of an output with the text the benchmark expects."""
    if got == want:
        return []
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for n, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g != w:
            return [f"{label}: line {n} is {g[:120]!r}, expected {w[:120]!r}"]
    return [f"{label}: output has {len(got_lines)} lines, expected {len(want_lines)}"]


class ReferenceModel:
    """Small evaluator over the model JSON and expression text.

    It shares no code with semlink: a classical structural recursion over
    the tables as they appear in the file, used to derive what `eval` and
    `lift` must print.
    """

    def __init__(self, data: dict):
        self.entities = list(data["entities"])
        self.index = {e: i for i, e in enumerate(self.entities)}
        self.constants = dict(data["constants"])
        self.functions = {name: {tuple(row[:-1]): row[-1] for row in entry["table"]}
                          for name, entry in data["functions"].items()}
        self.relations = {name: {tuple(t) for t in entry["tuples"]}
                          for name, entry in data["relations"].items()}
        self.arity = {name: entry["arity"] for section in ("functions", "relations")
                      for name, entry in data[section].items()}

    def evaluate(self, text: str) -> "tuple[str, str | int]":
        """("entity", id) or ("truth", bit) for a closed expression."""
        tokens = TOKEN_RE.findall(text)
        if "".join(tokens) != re.sub(r"\s", "", text):
            raise ValueError(f"cannot tokenize {text!r}")
        pos = 0

        def term():
            nonlocal pos
            name = tokens[pos]
            pos += 1
            if pos == len(tokens) or tokens[pos] != "(":
                return "entity", self.constants[name]
            pos += 1
            args = [term()]
            while tokens[pos] == ",":
                pos += 1
                args.append(term())
            if tokens[pos] != ")":
                raise ValueError(f"expected ')' in {text!r}")
            pos += 1
            values = [v for _, v in args]
            if name in CONNECTIVES:
                arity, fn = CONNECTIVES[name]
                if len(values) != arity or any(kind != "truth" for kind, _ in args):
                    raise ValueError(f"bad use of {name!r} in {text!r}")
                return "truth", fn(*values)
            if len(values) != self.arity[name] or any(kind != "entity" for kind, _ in args):
                raise ValueError(f"bad use of {name!r} in {text!r}")
            if name in self.functions:
                return "entity", self.functions[name][tuple(values)]
            return "truth", 1 if tuple(values) in self.relations[name] else 0

        result = term()
        if pos != len(tokens):
            raise ValueError(f"trailing input in {text!r}")
        return result

    def eval_output(self, text: str) -> str:
        kind, value = self.evaluate(text)
        if kind == "entity":
            vec = [1 if i == self.index[value] else 0 for i in range(len(self.entities))]
            return render_eval(value, vec, True)
        return render_eval(str(value), [1, 0] if value else [0, 1], True)

    def lift_function_output(self, name: str) -> str:
        table, arity, d = self.functions[name], self.arity[name], len(self.entities)
        lines = [f"lifted function {name}: dim {d ** arity} -> dim {d}"]
        for args in sorted(table):
            src = 0
            for a in args:
                src = src * d + self.index[a]
            out = table[args]
            lines.append(f"({','.join(args)}) -> {out} | basis {src} -> basis {self.index[out]}")
        return "\n".join(lines) + "\n"

    def lift_relation_output(self, name: str) -> str:
        tuples, arity = self.relations[name], self.arity[name]
        lines = [f"lifted relation {name}: arity {arity} over dim {len(self.entities)}"]
        for tup in product(self.entities, repeat=arity):
            lines.append(f"({','.join(tup)}) -> {1 if tup in tuples else 0}")
        return "\n".join(lines) + "\n"


def synth_output(bits: str) -> str:
    """What `synth` must print: column j of the operator is [b_j, 1 - b_j]."""
    top = " ".join(bits)
    bottom = " ".join("0" if b == "1" else "1" for b in bits)
    return f"{top}\n{bottom}\n"


def sim_output(u: list[int], v: list[int]) -> str:
    """What `sim` must print for two integer vectors.

    Integer dot products are exact in float64, so the same sequence of
    correctly rounded operations gives the value to the last bit.
    """
    dot = float(sum(a * b for a, b in zip(u, v)))
    nu = math.sqrt(float(sum(a * a for a in u)))
    nv = math.sqrt(float(sum(b * b for b in v)))
    return f"{dot / (nu * nv):.9f}\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class DigestBook:
    """Digest of every rendered output, by request key, for one workload and
    seed.  Outputs must be byte-identical whenever the same request recurs.
    check() compares repeats within this process.  merge() compares with the
    digests that earlier processes and runs of the same seed left in the
    book's file, then adds this process's digests to it.  The file is read
    only in merge(), after the measurement, so that it adds nothing to the
    measured process's peak memory."""

    def __init__(self, name: str, path: "str | None"):
        self.name, self.path = name, path
        self.seen: dict[int, str] = {}

    def check(self, key: int, text: str) -> list[str]:
        d = digest(text)
        prev = self.seen.setdefault(key, d)
        if prev != d:
            return [f"{self.name} request {key}: output digest {d} differs from {prev} "
                    f"given earlier in this process"]
        return []

    def merge(self) -> dict[tuple[str, int], str]:
        """Problems by (book name, request key) for outputs that differ from
        the recorded ones; records the digests not yet in the file."""
        stored: dict[str, str] = {}
        if self.path is not None and os.path.exists(self.path):
            with open(self.path) as fh:
                stored = json.load(fh)
        problems = {}
        for key, d in self.seen.items():
            prev = stored.setdefault(str(key), d)
            if prev != d:
                problems[(self.name, key)] = (
                    f"{self.name} request {key}: output digest {d} differs from {prev} "
                    f"recorded for the same seed by an earlier process")
        if self.path is not None:
            tmp = f"{self.path}.{os.getpid()}.tmp"
            with open(tmp, "w") as fh:
                json.dump(stored, fh, sort_keys=True)
            os.replace(tmp, self.path)
        return problems


class Tally:
    """Attempted and failed requests; a request fails on any problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._failed_keys: set = set()

    def record(self, problems: list[str], key=None):
        self.attempted += 1
        if problems:
            self.failed += 1
            self._failed_keys.add(key)
            self._keep(problems)

    def flag(self, key, problem: str):
        """A request found wrong after it was recorded; counted once."""
        if key not in self._failed_keys:
            self.failed += 1
            self._failed_keys.add(key)
        self._keep([problem])

    def _keep(self, problems: list[str]):
        self.problems.extend(problems[: max(0, 5 - len(self.problems))])

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
