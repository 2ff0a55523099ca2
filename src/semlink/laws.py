"""Commutation law suites with deterministic, seed-reproducible reports.

Each suite draws its structures from a seeded PCG64 stream through
sampling.Draws (or from a user-supplied model), runs the relevant two-path
checks, and renders a plain-text report that is byte-identical for
identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from . import homomorphism as hm
from . import sampling as sp
from . import veclogic as vl
from .model import Model, denote
from .terms import pretty

MAX_SHOWN_FAILURES = 5

LAWS = ("function", "relation", "sets", "chain", "formula")


@dataclass
class LawReport:
    law: str
    seed: int
    trials: int
    checks: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"law: {self.law}",
            f"seed: {self.seed}",
            f"trials: {self.trials}",
            f"checks: {self.checks}",
            f"failures: {len(self.failures)}",
        ]
        for f in self.failures[:MAX_SHOWN_FAILURES]:
            lines.append(f"counterexample: {f}")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def run_law(law: str, seed: int, trials: int, model: "Model | None" = None) -> LawReport:
    if law not in LAWS:
        raise ValueError(f"unknown law {law!r}, expected one of {', '.join(LAWS)}")
    rng = sp.Draws(seed)
    runner = {
        "function": _law_function,
        "relation": _law_relation,
        "sets": _law_sets,
        "chain": _law_chain,
        "formula": _law_formula,
    }[law]
    checks, failures = runner(rng, trials, model)
    return LawReport(law, seed, trials, checks, failures)


# ---------------------------------------------------------------------------
# function lift commutation


def _lift_mismatch(lifted: hm.LiftedFunction, src: hm.DomainMap, a,
                   tgt: hm.DomainMap, b) -> "str | None":
    """What the lift gave for the image of a, if that is not the image of b."""
    got = lifted(hm.map_element(src, a))
    want = hm.map_element(tgt, b)
    if not np.array_equal(got, want):
        return f"lifted {got.tolist()} expected {want.tolist()}"
    return None


def _law_function(rng, trials, model) -> tuple[int, list[str]]:
    checks, failures = 0, []
    if model is not None:
        if not model.functions:
            raise ValueError("model declares no functions, cannot check function lifts")
        fam = hm.LiftFamily.for_model(model)
        names = sorted(model.functions)
        for t in range(trials):
            name = names[t % len(names)]
            fn = model.functions[name]
            lifted = hm.lifted_model_function(model, name, fam)
            src = hm.product_map(fam.entity, fn.arity)
            for args in sorted(fn.table):
                checks += 1
                key = args[0] if fn.arity == 1 else args
                if bad := _lift_mismatch(lifted, src, key, fam.entity, fn.table[args]):
                    failures.append(f"trial {t}: function {name} at {list(args)}: {bad}")
        return checks, failures
    for t in range(trials):
        ds = int(rng.integers(1, 6))
        dt = int(rng.integers(1, 6))
        src = hm.build_domain_map(range(ds), tag="src")
        tgt = hm.build_domain_map(range(dt), tag="tgt")
        if t % 3 == 2:
            src = hm.product_map(src, 2)
        table = sp.random_function_table(rng, src.elements, tgt.elements)
        lifted = hm.lift_function(table, src, tgt)
        for a in src.elements:
            checks += 1
            if bad := _lift_mismatch(lifted, src, a, tgt, table[a]):
                failures.append(f"trial {t}: element {a!r}: {bad}")
    return checks, failures


def sweep_unary_function_lifts(max_dim: int = 5) -> tuple[int, list[str]]:
    """Every total unary function between every pair of domain sizes up to
    max_dim, checked at every point of its source domain."""
    checks, failures = 0, []
    for ds in range(1, max_dim + 1):
        src = hm.build_domain_map(range(ds), tag=f"src{ds}")
        for dt in range(1, max_dim + 1):
            tgt = hm.build_domain_map(range(dt), tag=f"tgt{dt}")
            for combo in iproduct(range(dt), repeat=ds):
                table = dict(enumerate(combo))
                lifted = hm.lift_function(table, src, tgt)
                for a in range(ds):
                    checks += 1
                    if bad := _lift_mismatch(lifted, src, a, tgt, combo[a]):
                        failures.append(f"table {combo} from {ds} to {dt} at {a}: {bad}")
    return checks, failures


# ---------------------------------------------------------------------------
# relation biconditional


def _relation_instance_failures(label: str, lifted: hm.LiftedRelation,
                                members) -> tuple[int, list[str]]:
    """The lift of members asked about every tuple over its domain, and
    about an off-image tuple."""
    checks, failures = 1, []
    for tup, got in lifted.table():
        checks += 1
        expected = 1 if tup in members else 0
        if got != expected:
            failures.append(f"{label}: tuple {list(tup)}: lifted {got} extensional {expected}")
    # off-image arguments must come out false, not raise
    if lifted.holds(np.zeros((1, lifted.arity, lifted.map.dim), dtype=np.int64))[0] != 0:
        failures.append(f"{label}: off-image argument did not evaluate to 0")
    return checks, failures


def _law_relation(rng, trials, model) -> tuple[int, list[str]]:
    checks, failures = 0, []
    if model is not None:
        if not model.relations:
            raise ValueError("model declares no relations, cannot check relation lifts")
        fam = hm.LiftFamily.for_model(model)
        names = sorted(model.relations)
        for t in range(trials):
            name = names[t % len(names)]
            c, f = _relation_instance_failures(f"trial {t}: relation {name}",
                                               hm.lifted_model_relation(model, name, fam),
                                               model.relations[name].tuples)
            checks += c
            failures += f
        return checks, failures
    for t in range(trials):
        d = int(rng.integers(1, 5))
        arity = int(rng.integers(1, 4))
        m = hm.build_domain_map(range(d), tag="dom")
        tuples = {args for args in iproduct(m.elements, repeat=arity)
                  if rng.integers(2) == 1}
        c, f = _relation_instance_failures(f"trial {t}", hm.lift_relation(tuples, m, arity),
                                           tuples)
        checks += c
        failures += f
    return checks, failures


def all_relation_masks(d: int, arity: int) -> np.ndarray:
    """Membership masks of every relation of the given arity over d elements."""
    ntup = d ** arity
    if ntup > 30:
        raise ValueError(f"2^{ntup} relations is too many to enumerate")
    ints = np.arange(1 << ntup, dtype=np.uint64)
    shifts = np.arange(ntup, dtype=np.uint64)
    return ((ints[:, None] >> shifts[None, :]) & 1).astype(np.int8)


def sweep_relations(masks, d: int, arity: int) -> tuple[int, list[str]]:
    """Every relation given by a row of masks, a membership mask over the
    d**arity tuples of range(d) in lexicographic order: lifted through
    lift_relation, then checked as the relation law checks one lift."""
    mk = np.asarray(masks)
    if mk.ndim != 2 or mk.shape[1] != d ** arity:
        raise ValueError(
            f"expected (m, {d ** arity}) masks for arity {arity} over {d} elements")
    m = hm.build_domain_map(range(d), tag=f"d{d}")
    tuples = list(iproduct(m.elements, repeat=arity))
    checks, failures = 0, []
    for r, mask in enumerate(mk.tolist()):
        members = {t for t, bit in zip(tuples, mask) if bit}
        c, f = _relation_instance_failures(f"relation {r}",
                                           hm.lift_relation(members, m, arity), members)
        checks += c
        failures += f
    return checks, failures


# ---------------------------------------------------------------------------
# connectives: operator faithfulness and majority


def sweep_operator_faithfulness(tables, arity: int) -> tuple[int, list[str]]:
    """Every table (a row of 0/1 outputs in column order) through
    synth_operator, applied to every input tuple.

    The operators are stacked and multiplied in one product against the
    matrix whose column j is the Kronecker fold of the embedded input bits
    of column j, which is apply_operator's arithmetic for every input at
    once.  Each result must be a one-hot truth vector that projects back to
    the table's output bit.
    """
    rows = np.asarray(tables)
    ncols = 1 << arity
    if rows.ndim != 2 or rows.shape[1] != ncols:
        raise ValueError(f"expected (m, {ncols}) tables for arity {arity}")
    inputs = np.stack([vl.kron_fold([vl.embed_truth(b) for b in vl.column_bits(j, arity)])
                       for j in range(ncols)], axis=1)
    failures: dict[int, str] = {}
    built, mats = [], []
    for i, row in enumerate(rows):
        try:
            mats.append(vl.synth_operator(vl.TruthTable(arity, row)).mat)
        except ValueError as exc:
            failures[i] = f"table {i}: {exc}"
            continue
        built.append(i)
    if mats:
        results = np.stack(mats) @ inputs  # (tables, 2, columns)
        bad = ~vl.is_one_hot(results, axis=1) | (results[:, 0, :] != rows[built])
        for k in np.flatnonzero(bad.any(axis=1)):
            i, j = built[k], int(np.argmax(bad[k]))
            failures[i] = (f"table {i}: column {j}: operator gave "
                           f"{results[k, :, j].tolist()} for output {rows[i, j]}")
    return len(rows) * ncols, [failures[i] for i in sorted(failures)]


def sweep_majority(n: int) -> tuple[int, list[str]]:
    """Strict n-ary majority by its definition, its polynomial and its
    operator matrix, compared on every input tuple."""
    op = vl.majority_matrix(n)
    failures = []
    for j in range(1 << n):
        bits = vl.column_bits(j, n)
        direct = vl.majority_bit(bits)
        poly = vl.majority_polynomial(n, bits)
        routed = vl.project_truth(
            vl.apply_operator(op, [vl.embed_truth(b) for b in bits]))
        if not direct == poly == routed:
            failures.append(f"majority of {list(bits)}: definition {direct} "
                            f"polynomial {poly} operator {routed}")
    return 1 << n, failures


# ---------------------------------------------------------------------------
# set operations


def _law_sets(rng, trials, model) -> tuple[int, list[str]]:
    elements = model.entities if model is not None else tuple(f"x{i}" for i in range(6))
    m = hm.build_domain_map(elements, tag="set-domain")
    checks, failures = 0, []
    for t in range(trials):
        e1 = sp.random_subset(rng, elements)
        e2 = sp.random_subset(rng, elements)
        report = hm.check_set_ops(e1, e2, m)
        checks += 3
        for label, ok in (("union", report.union_ok),
                          ("intersection", report.intersection_ok),
                          ("difference", report.difference_ok)):
            if not ok:
                failures.append(
                    f"trial {t}: {label} of {sorted(e1)} and {sorted(e2)} does not commute")
        for a in elements:
            checks += 1
            chi, chi_lifted = hm.characteristic(e1, m, a)
            if chi != chi_lifted:
                failures.append(
                    f"trial {t}: characteristic of {a!r} in {sorted(e1)}: "
                    f"{chi} vs {chi_lifted}")
        ind = hm.indicator_vector(e1, m)
        want = np.array([1 if a in e1 else 0 for a in elements], dtype=np.int64)
        checks += 1
        if not np.array_equal(ind, want):
            failures.append(
                f"trial {t}: indicator of {sorted(e1)} is {ind.tolist()}, "
                f"expected {want.tolist()}")
    return checks, failures


# ---------------------------------------------------------------------------
# composition chains


def _law_chain(rng, trials, model) -> tuple[int, list[str]]:
    checks, failures = 0, []
    unary = sorted(n for n, fn in (model.functions.items() if model else ())
                   if fn.arity == 1)
    if model is not None and not unary:
        raise ValueError("model declares no unary functions, cannot build chains")
    for t in range(trials):
        length = int(rng.integers(1, 6))
        if model is not None:
            fam = hm.LiftFamily.for_model(model)
            maps = [fam.entity] * (length + 1)
            names = [unary[int(rng.integers(len(unary)))] for _ in range(length)]
            tables = [{a: model.functions[n].table[(a,)] for a in model.entities}
                      for n in names]
        else:
            sizes = sp.random_chain_sizes(rng, length)
            maps = [hm.build_domain_map(range(s), tag=f"d{i}")
                    for i, s in enumerate(sizes)]
            tables = [sp.random_function_table(rng, maps[i].elements,
                                               maps[i + 1].elements)
                      for i in range(length)]
        report = hm.check_composition_chain(tables, maps)
        checks += report.checks
        if not report.ok:
            a, got, want = report.counterexample
            failures.append(
                f"trial {t}: chain of length {length} at {a!r}: "
                f"lifted {got} expected {want}")
    return checks, failures


# ---------------------------------------------------------------------------
# dual-route formula evaluation


def _law_formula(rng, trials, model) -> tuple[int, list[str]]:
    checks, failures = 0, []
    fixed = model
    if fixed is not None and not fixed.relations:
        raise ValueError("model declares no relations, cannot build formulas")
    for t in range(trials):
        m = fixed if fixed is not None else sp.random_model(
            rng, n_entities=int(rng.integers(2, 5)))
        fam = hm.LiftFamily.for_model(m)
        formula = sp.random_formula(rng, m.signature(), budget=6)
        bit = denote(formula, m, {}).bit
        vec = hm.lift_logical_connective(formula, m, {}, fam)
        checks += 1
        if not np.array_equal(vec, vl.embed_truth(bit)):
            failures.append(
                f"trial {t}: {pretty(formula)}: extensional {bit} "
                f"vector route {vec.tolist()}")
    return checks, failures
