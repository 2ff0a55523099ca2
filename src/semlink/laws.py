"""Commutation law suites with deterministic, seed-reproducible reports.

Each suite draws its structures from a seeded PCG64 stream through
sampling.Draws (or from a user-supplied model) and runs the relevant two-path
checks.  It yields one outcome per check, None where the check holds or the
counterexample where it fails, and _tally counts them into a plain-text
report that is byte-identical for identical seeds.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, product as iproduct, repeat, starmap

import numpy as np

from . import homomorphism as hm
from . import sampling as sp
from . import veclogic as vl
from .model import Model, denote
from .terms import pretty

MAX_SHOWN_FAILURES = 5


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
    checks, failures = _tally(_RUNNERS[law](sp.Draws(seed), trials, model))
    return LawReport(law, seed, trials, checks, failures)


def _tally(outcomes: Iterable["str | None"]) -> tuple[int, list[str]]:
    """The count of outcomes, one per check, and the counterexamples among
    them in order; None is a check that holds."""
    checks, failures = 0, []
    for bad in outcomes:
        checks += 1
        if bad is not None:
            failures.append(bad)
    return checks, failures


_RANGE_KEYS = {d: (tuple(range(d)), f"range{d}") for d in range(1, 6)}


def _range_map(d: int) -> hm.DomainMap:
    """The kept map over range(d) that the function, relation and chain laws
    share, so its basis is built once per process; the key of each size
    they draw (1-5) is built once, in _RANGE_KEYS."""
    return vl.kept_map(*(_RANGE_KEYS.get(d) or (tuple(range(d)), f"range{d}")))


# ---------------------------------------------------------------------------
# function lift commutation


def _lift_mismatch(tgt: hm.DomainMap, got, want) -> "str | None":
    """The vectors of got and want, if the lift gave got in place of want."""
    if got != want:
        return (f"lifted {hm.map_element(tgt, got).tolist()} "
                f"expected {hm.map_element(tgt, want).tolist()}")
    return None


def _function_lift_outcomes(label: str, table, src: hm.DomainMap, tgt: hm.DomainMap,
                            arity: int = 1) -> Iterator["str | None"]:
    """lift_function's lift of table, asked about every point of its domain:
    the row of each column, read in one pass as LiftMatrix.table reads a
    batch, must be the row of the table's value in tgt.  A lift whose rows
    differ is walked, to name each point it fails at."""
    got = hm.lift_function(table, src, tgt, arity).mat.argmax(axis=0).tolist()
    keys = src.elements if arity == 1 else list(iproduct(src.elements, repeat=arity))
    if got == [tgt.index[table[a]] for a in keys]:
        return repeat(None, len(got))
    return (f"{label} {a!r}: {bad}" if (bad := _lift_mismatch(tgt, tgt.elements[g], table[a]))
            else None for a, g in zip(keys, got))


def _law_function(rng, trials, model) -> Iterator["str | None"]:
    if model is not None:
        if not model.functions:
            raise ValueError("model declares no functions, cannot check function lifts")
        fam = hm.LiftFamily.for_model(model)
        names = sorted(model.functions)
        # the lifts cannot change during the run: each name's values are read once
        values = cache(lambda name: dict(fam.function(name).table()))
        for t in range(trials):
            name = names[t % len(names)]
            fn, lifted = model.functions[name], values(name)
            for args in sorted(fn.table):
                bad = _lift_mismatch(fam.entity, lifted[args], fn.table[args])
                yield f"trial {t}: function {name} at {list(args)}: {bad}" if bad else None
        return
    for t in range(trials):
        src, tgt = _range_map(1 + rng.below(5)), _range_map(1 + rng.below(5))
        arity = 2 if t % 3 == 2 else 1
        keys = src.elements if arity == 1 else tuple(iproduct(src.elements, repeat=2))
        table = sp.random_function_table(rng, keys, tgt.elements)
        yield from _function_lift_outcomes(f"trial {t}: element", table, src, tgt, arity)


def sweep_unary_function_lifts(max_dim: int = 5) -> tuple[int, list[str]]:
    """Every total unary function between every pair of domain sizes up to
    max_dim, lifted through lift_function and checked at every point of its
    source domain, as the function law checks one lift."""
    sizes = range(1, max_dim + 1)
    src = {d: hm.build_domain_map(range(d), tag=f"src{d}") for d in sizes}
    tgt = {d: hm.build_domain_map(range(d), tag=f"tgt{d}") for d in sizes}
    return _tally(chain.from_iterable(
        _function_lift_outcomes(f"table {combo} from {ds} to {dt} at",
                                dict(enumerate(combo)), src[ds], tgt[dt])
        for ds, dt in iproduct(sizes, repeat=2) for combo in iproduct(range(dt), repeat=ds)))


# ---------------------------------------------------------------------------
# relation biconditional


def _off_image_is_false(lifted: hm.LiftMatrix) -> bool:
    """Whether off-image arguments, all zeros, make the relation lift false;
    they must not raise.  LiftMatrix.__call__ decides that they are off the
    image without building an exception."""
    off = [np.zeros(lifted.source.dim, dtype=np.int64)] * lifted.arity
    return lifted(off).tolist() == vl.FALSE_VEC.tolist()


def _relation_instance_outcomes(label: str, m: hm.DomainMap, arity: int, rows,
                                off_false: bool, members) -> Iterator["str | None"]:
    """A relation lift's rows, one per arity-tuple over m in the order of its
    columns, against the TRUTH row of each tuple's membership (the row of bit
    b is 1 - b), then its _off_image_is_false.  The rows are compared as one
    list; a lift that fails is walked, to name each check it fails."""
    tuples = iproduct(m.elements, repeat=arity)
    if off_false and rows == [0 if tup in members else 1 for tup in tuples]:
        return repeat(None, len(rows) + 1)
    truth = vl.TRUTH.elements
    return chain((None if truth[r] == (tup in members) else f"{label}: tuple {list(tup)}: "
                  f"lifted {truth[r]} extensional {int(tup in members)}"
                  for tup, r in zip(iproduct(m.elements, repeat=arity), rows)),
                 [None if off_false else f"{label}: off-image argument did not evaluate to 0"])


def _law_relation(rng, trials, model) -> Iterator["str | None"]:
    if model is not None:
        if not model.relations:
            raise ValueError("model declares no relations, cannot check relation lifts")
        fam = hm.LiftFamily.for_model(model)
        names = sorted(model.relations)

        @cache
        def read(name):  # the lifts cannot change during the run: each is read once
            lifted = fam.relation(name)
            return [vl.TRUTH.index[b] for _, b in lifted.table()], _off_image_is_false(lifted)

        for t in range(trials):
            name = names[t % len(names)]
            rel = model.relations[name]
            yield from _relation_instance_outcomes(f"trial {t}: relation {name}", fam.entity,
                                                   rel.arity, *read(name), rel.tuples)
        return
    for t in range(trials):
        m = _range_map(1 + rng.below(4))
        arity = 1 + rng.below(3)
        tuples = {args for args in iproduct(m.elements, repeat=arity) if rng.below(2)}
        lifted = hm.lift_relation(tuples, m, arity)
        rows = lifted.mat.argmax(axis=0).tolist()
        yield from _relation_instance_outcomes(f"trial {t}", m, arity, rows,
                                               _off_image_is_false(lifted), tuples)


def all_relation_masks(d: int, arity: int) -> np.ndarray:
    """Membership masks of every relation of the given arity over d elements."""
    ntup = d ** arity
    # the shifts below make a 2^ntup x ntup uint64 array: 168 MB at 20 tuples
    if ntup > 20:
        raise ValueError(f"2^{ntup} relations is too many to enumerate")
    ints = np.arange(1 << ntup, dtype=np.uint64)
    shifts = np.arange(ntup, dtype=np.uint64)
    return ((ints[:, None] >> shifts[None, :]) & 1).astype(np.int8)


def sweep_relations(masks, d: int, arity: int) -> tuple[int, list[str]]:
    """Every relation given by a row of masks, a membership mask over the
    d**arity tuples of range(d) in lexicographic order: lifted through
    lift_relation, then checked as the relation law checks one lift.  A row
    with an entry other than 0 or 1 is no mask: it is one check, reported as
    that relation's failure, and is never lifted."""
    mk = np.asarray(masks)
    if mk.ndim != 2 or mk.shape[1] != d ** arity:
        raise ValueError(
            f"expected (m, {d ** arity}) masks for arity {arity} over {d} elements")
    m = hm.build_domain_map(range(d), tag=f"d{d}")
    tuples = list(iproduct(m.elements, repeat=arity))

    def outcomes(r, mask) -> Iterator["str | None"]:
        if not set(mask) <= {0, 1}:
            yield f"relation {r}: mask entries must be 0 or 1, got {mask}"
            return
        members = set(compress(tuples, mask))
        lifted = hm.lift_relation(members, m, arity)
        rows = lifted.mat.argmax(axis=0).tolist()
        yield from _relation_instance_outcomes(f"relation {r}", m, arity, rows,
                                               _off_image_is_false(lifted), members)

    return _tally(chain.from_iterable(starmap(outcomes, enumerate(mk.tolist()))))


# ---------------------------------------------------------------------------
# connectives: operator faithfulness and majority


def sweep_operator_faithfulness(tables, arity: int) -> tuple[int, list[str]]:
    """Every table (a row of 0/1 outputs in the lexicographic order over
    TRUTH) through synth_operator, then apply_operator on every embedded
    input tuple.  Each result must be the embedded output bit of its column;
    a table fails at its first column that is not, and a table that
    TruthTable refuses is one check, reported as that table's failure."""
    rows = np.asarray(tables)
    ncols = 1 << arity
    if rows.ndim != 2 or rows.shape[1] != ncols:
        raise ValueError(f"expected (m, {ncols}) tables for arity {arity}")
    inputs = [[vl.embed_truth(b) for b in bits]
              for bits in iproduct(vl.TRUTH.elements, repeat=arity)]

    def outcomes(i, row) -> Iterator["str | None"]:
        try:
            op = vl.synth_operator(vl.TruthTable(arity, row))
        except ValueError as exc:
            yield f"table {i}: {exc}"
            return
        for j, out in enumerate(row.tolist()):
            got = vl.apply_operator(op, inputs[j]).tolist()
            if got != vl.embed_truth(out).tolist():
                yield f"table {i}: column {j}: operator gave {got} for output {out}"
                return
            yield None

    return _tally(chain.from_iterable(starmap(outcomes, enumerate(rows))))


def sweep_majority(n: int) -> tuple[int, list[str]]:
    """Strict n-ary majority by its definition, its polynomial and its
    operator matrix, compared on every input tuple."""
    op = vl.majority_matrix(n)

    def outcome(bits) -> "str | None":
        direct = vl.majority_bit(bits)
        poly = vl.majority_polynomial(n, bits)
        routed = vl.project_truth(vl.apply_operator(op, [vl.embed_truth(b) for b in bits]))
        return None if direct == poly == routed else (
            f"majority of {list(bits)}: definition {direct} polynomial {poly} operator {routed}")

    return _tally(map(outcome, iproduct(vl.TRUTH.elements, repeat=n)))


# ---------------------------------------------------------------------------
# set operations


def _law_sets(rng, trials, model) -> Iterator["str | None"]:
    elements = model.entities if model is not None else tuple(f"x{i}" for i in range(6))
    m = vl.kept_map(tuple(elements), "set-domain")
    for t in range(trials):
        e1 = sp.random_subset(rng, elements)
        e2 = sp.random_subset(rng, elements)
        ok, lifted = hm.check_set_ops(e1, e2, m)
        for label, holds in ok.items():
            yield None if holds else (
                f"trial {t}: {label} of {sorted(e1)} and {sorted(e2)} does not commute")
        # e1's lift, the one the set operations read, at each element's image is its
        # characteristic function chi: the column's row is the TRUTH row 1 - chi,
        # and a lift that fails is walked
        want = [1 if a in e1 else 0 for a in m.elements]
        rows, truth = lifted.mat.argmax(axis=0).tolist(), vl.TRUTH.elements
        yield from repeat(None, len(rows)) if rows == [1 - chi for chi in want] else (
            None if chi == truth[r] else
            f"trial {t}: characteristic of {a!r} in {sorted(e1)}: {chi} vs {truth[r]}"
            for a, chi, r in zip(m.elements, want, rows))
        ind = lifted.mat[0].tolist()
        yield None if ind == want else (
            f"trial {t}: indicator of {sorted(e1)} is {ind}, expected {want}")


# ---------------------------------------------------------------------------
# composition chains


def _law_chain(rng, trials, model) -> Iterator["str | None"]:
    unary = sorted(n for n, fn in (model.functions.items() if model else ())
                   if fn.arity == 1)
    if model is not None and not unary:
        raise ValueError("model declares no unary functions, cannot build chains")
    entity = hm.entity_map(model) if model is not None else None
    for t in range(trials):
        length = 1 + rng.below(5)
        if model is not None:
            maps = [entity] * (length + 1)
            names = [unary[rng.below(len(unary))] for _ in range(length)]
            tables = [{a: model.functions[n].table[(a,)] for a in model.entities}
                      for n in names]
        else:
            maps = [_range_map(s) for s in sp.random_chain_sizes(rng, length)]
            tables = [sp.random_function_table(rng, maps[i].elements,
                                               maps[i + 1].elements)
                      for i in range(length)]
        report = hm.check_composition_chain(tables, maps)
        # a report's checks all hold but its last, which holds if the report is ok
        yield from repeat(None, report.checks - 1)
        if report.ok:
            yield None
        else:
            a, got, want = report.counterexample
            yield f"trial {t}: chain of length {length} at {a!r}: lifted {got} expected {want}"


# ---------------------------------------------------------------------------
# dual-route formula evaluation


def _law_formula(rng, trials, model) -> Iterator["str | None"]:
    if model is not None:
        if not model.relations:
            raise ValueError("model declares no relations, cannot build formulas")
        # a fixed model shares one family of lifts and one signature across trials
        fam, sig = hm.LiftFamily.for_model(model), model.signature()
    for t in range(trials):
        if model is None:  # a fresh model each trial needs a fresh family
            # random models have three entity tuples: each has one kept map for
            # the process, whose basis and entity vectors serve every trial and run
            m = sp.random_model(rng, n_entities=2 + rng.below(3))
            fam, sig = hm.LiftFamily(m, vl.kept_map(m.entities, "entity")), m.signature()
        m = fam.model
        formula = sp.random_formula(rng, sig, budget=6)
        bit = denote(formula, m, {}).bit
        vec = hm.lift_logical_connective(formula, m, {}, fam)
        yield None if vec.tolist() == vl.embed_truth(bit).tolist() else (
            f"trial {t}: {pretty(formula)}: extensional {bit} vector route {vec.tolist()}")


# each law's runner, in the order that reports and `semlink check --law` list them
_RUNNERS = {"function": _law_function, "relation": _law_relation, "sets": _law_sets,
            "chain": _law_chain, "formula": _law_formula}
LAWS = tuple(_RUNNERS)
