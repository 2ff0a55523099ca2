"""Commutation law suites with deterministic, seed-reproducible reports.

Each suite draws its structures from a seeded PCG64 stream through
sampling.Draws (or from a user-supplied model), runs the relevant two-path
checks, and renders a plain-text report that is byte-identical for
identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import compress, product as iproduct

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


def _run_maps():
    """One run's domain maps over range(d), by tag and size: each is built
    the first time the run asks for it, then kept, so each element is mapped
    and checked (argument_columns) once per run, not once per trial."""
    return cache(lambda tag, d: hm.build_domain_map(range(d), tag=tag))


# ---------------------------------------------------------------------------
# function lift commutation


def _lift_mismatch(tgt: hm.DomainMap, got, want) -> "str | None":
    """The vectors of got and want, if the lift gave got in place of want."""
    if got != want:
        return (f"lifted {hm.map_element(tgt, got).tolist()} "
                f"expected {hm.map_element(tgt, want).tolist()}")
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
            lifted = dict(fam.function(name).table())
            for args in sorted(fn.table):
                checks += 1
                if bad := _lift_mismatch(fam.entity, lifted[args], fn.table[args]):
                    failures.append(f"trial {t}: function {name} at {list(args)}: {bad}")
        return checks, failures
    domain = _run_maps()
    for t in range(trials):
        ds = int(rng.integers(1, 6))
        dt = int(rng.integers(1, 6))
        src, tgt = domain("src", ds), domain("tgt", dt)
        arity = 2 if t % 3 == 2 else 1
        keys = src.elements if arity == 1 else tuple(iproduct(src.elements, repeat=2))
        table = sp.random_function_table(rng, keys, tgt.elements)
        for tup, got in hm.lift_function(table, src, tgt, arity).table():
            a = tup[0] if arity == 1 else tup
            checks += 1
            if bad := _lift_mismatch(tgt, got, table[a]):
                failures.append(f"trial {t}: element {a!r}: {bad}")
    return checks, failures


def sweep_unary_function_lifts(max_dim: int = 5) -> tuple[int, list[str]]:
    """Every total unary function between every pair of domain sizes up to
    max_dim, lifted through lift_function and checked at every point of its
    source domain.  The lifts of each pair of sizes are stacked, and the
    mapped points, checked once, select their columns from all of them."""
    checks, failures = 0, []
    for ds in range(1, max_dim + 1):
        src = hm.build_domain_map(range(ds), tag=f"src{ds}")
        cols = hm.argument_columns(src, 1)
        for dt in range(1, max_dim + 1):
            tgt = hm.build_domain_map(range(dt), tag=f"tgt{dt}")
            combos = list(iproduct(range(dt), repeat=ds))
            mats = np.stack([hm.lift_function(dict(enumerate(combo)), src, tgt).mat
                             for combo in combos])
            got = mats[:, :, cols].argmax(axis=1)  # (tables, points): target indices
            checks += got.size
            for k, a in np.argwhere(got != np.array(combos)).tolist():
                bad = _lift_mismatch(tgt, tgt.elements[got[k, a]], combos[k][a])
                failures.append(f"table {combos[k]} from {ds} to {dt} at {a}: {bad}")
    return checks, failures


# ---------------------------------------------------------------------------
# relation biconditional


def _relation_instance_failures(label: str, lifted: hm.LiftMatrix,
                                members) -> tuple[int, list[str]]:
    """The lift of members asked about every tuple over its domain, and
    about an off-image tuple."""
    checks, failures = 1, []
    for tup, got in lifted.table():
        checks += 1
        expected = 1 if tup in members else 0
        if got != expected:
            failures.append(f"{label}: tuple {list(tup)}: lifted {got} extensional {expected}")
    # off-image arguments must make the relation false, not raise
    off = [np.zeros(lifted.source.dim, dtype=np.int64)] * lifted.arity
    if lifted(off).tolist() != vl.FALSE_VEC.tolist():
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
                                               fam.relation(name),
                                               model.relations[name].tuples)
            checks += c
            failures += f
        return checks, failures
    domain = _run_maps()
    for t in range(trials):
        d = int(rng.integers(1, 5))
        arity = int(rng.integers(1, 4))
        m = domain("dom", d)
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
    lift_relation, then checked as the relation law checks one lift.  The
    lifts are stacked, and the mapped tuples, checked once, select their
    columns from all of them."""
    mk = np.asarray(masks)
    if mk.ndim != 2 or mk.shape[1] != d ** arity:
        raise ValueError(
            f"expected (m, {d ** arity}) masks for arity {arity} over {d} elements")
    m = hm.build_domain_map(range(d), tag=f"d{d}")
    tuples = list(iproduct(m.elements, repeat=arity))
    cols = hm.argument_columns(m, arity)
    off = [np.zeros(d, dtype=np.int64)] * arity  # must give false, as in the relation law
    mats, off_image = [], []
    for r, mask in enumerate(mk.tolist()):
        lifted = hm.lift_relation(compress(tuples, mask), m, arity)
        mats.append(lifted.mat)
        if lifted(off).tolist() != vl.FALSE_VEC.tolist():
            off_image.append(r)
    failures = []
    if mats:
        got = np.stack(mats)[:, 0, cols]  # row 0 of a truth vector is its bit
        failures += [(r, f"relation {r}: tuple {list(tuples[j])}: lifted {int(got[r, j])} "
                         f"extensional {int(mk[r, j])}") for r, j in np.argwhere(got != mk).tolist()]
    failures += [(r, f"relation {r}: off-image argument did not evaluate to 0") for r in off_image]
    # a stable sort keeps each relation's tuples before its off-image argument
    return len(mk) * (len(tuples) + 1), [f for _, f in sorted(failures, key=lambda f: f[0])]


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
        lifted = hm.lift_subset(e1, m)
        report = hm.check_set_ops(e1, e2, m, lifted)
        checks += len(report)
        for label, ok in report.items():
            if not ok:
                failures.append(
                    f"trial {t}: {label} of {sorted(e1)} and {sorted(e2)} does not commute")
        # e1's lift at each element's image is its characteristic function
        for (a,), chi_lifted in lifted.table():
            checks += 1
            chi = 1 if a in e1 else 0
            if chi != chi_lifted:
                failures.append(
                    f"trial {t}: characteristic of {a!r} in {sorted(e1)}: "
                    f"{chi} vs {chi_lifted}")
        ind = lifted.mat[0].tolist()
        want = [1 if a in e1 else 0 for a in elements]
        checks += 1
        if ind != want:
            failures.append(f"trial {t}: indicator of {sorted(e1)} is {ind}, expected {want}")
    return checks, failures


# ---------------------------------------------------------------------------
# composition chains


def _law_chain(rng, trials, model) -> tuple[int, list[str]]:
    checks, failures = 0, []
    unary = sorted(n for n, fn in (model.functions.items() if model else ())
                   if fn.arity == 1)
    if model is not None and not unary:
        raise ValueError("model declares no unary functions, cannot build chains")
    entity = hm.entity_map(model) if model is not None else None
    domain = _run_maps()
    for t in range(trials):
        length = int(rng.integers(1, 6))
        if model is not None:
            maps = [entity] * (length + 1)
            names = [unary[int(rng.integers(len(unary)))] for _ in range(length)]
            tables = [{a: model.functions[n].table[(a,)] for a in model.entities}
                      for n in names]
        else:
            sizes = sp.random_chain_sizes(rng, length)
            maps = [domain(f"d{i}", s) for i, s in enumerate(sizes)]
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
    if model is not None and not model.relations:
        raise ValueError("model declares no relations, cannot build formulas")
    fixed = hm.LiftFamily.for_model(model) if model is not None else None
    # random models have few entity tuples: one entity map per tuple per run
    entity = cache(lambda entities: hm.build_domain_map(entities, tag="entity"))
    for t in range(trials):
        # a fresh model each trial needs a fresh family; a fixed one shares its lifts
        fam = fixed
        if fam is None:
            m = sp.random_model(rng, n_entities=int(rng.integers(2, 5)))
            fam = hm.LiftFamily(m, entity(m.entities))
        m = fam.model
        formula = sp.random_formula(rng, m.signature(), budget=6)
        bit = denote(formula, m, {}).bit
        vec = hm.lift_logical_connective(formula, m, {}, fam)
        checks += 1
        if vec.tolist() != vl.embed_truth(bit).tolist():
            failures.append(
                f"trial {t}: {pretty(formula)}: extensional {bit} "
                f"vector route {vec.tolist()}")
    return checks, failures
