"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run under pytest (`pytest tests/test_acceptance.py -v`) or standalone
(`python tests/test_acceptance.py`).  Every criterion enforces its stated
runtime cap; randomized sweeps are seeded and reproducible.
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product as iproduct

import numpy as np

from semlink import homomorphism as hm
from semlink import laws
from semlink import model as model_module
from semlink import veclogic as vl
from semlink.model import Extensional, denote, evaluate
from semlink.sampling import (
    Draws,
    random_formula,
    random_model,
    random_subset,
)
from semlink.space import cosine_similarity, norm
from semlink.terms import (
    Const,
    FunApp,
    Signature,
    Var,
    complexity_depth,
    complexity_size,
    parse_term,
    replace_at,
    subterms,
)

EXPECTED_NOT = [[0, 1], [1, 0]]
EXPECTED_AND = [[1, 0, 0, 0], [0, 1, 1, 1]]
EXPECTED_COND = [[1, 1, 0, 0, 1, 0, 1, 0], [0, 0, 1, 1, 0, 1, 0, 1]]
EXPECTED_MAJ3 = [[1, 1, 1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1, 1, 1]]
EXPECTED_MAJ4 = [[1, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
                 [0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1]]


RESULTS: list[str] = []


@dataclass(frozen=True)
class FrameCounting(Extensional):
    """The extensional route, noting at every leaf how many frames of
    evaluate's walker are on the stack."""

    frames: list = field(default_factory=list)

    def leaf(self, ent):
        f, n = sys._getframe(1), 0
        while f is not None:
            n += f.f_code.co_name == "go" and f.f_code.co_filename == model_module.__file__
            f = f.f_back
        self.frames.append(n)
        return ent


def _announce(num: int, label: str, status: str, elapsed: float):
    line = f"[criterion {num}] {status}: {label} ({elapsed:.2f}s)"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num: int, label: str, cap_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(num, label, "FAIL", time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    if elapsed > cap_seconds:
        _announce(num, label, "FAIL", elapsed)
        raise AssertionError(
            f"criterion {num} exceeded its {cap_seconds}s cap: {elapsed:.2f}s")
    _announce(num, label, "PASS", elapsed)


# ---------------------------------------------------------------------------


def test_criterion_1_operator_matrices_reproduced():
    with criterion(1, "named operator matrices match their fixed forms", 1.0):
        assert vl.named_operator("not").mat.tolist() == EXPECTED_NOT
        assert vl.named_operator("and").mat.tolist() == EXPECTED_AND
        assert vl.named_operator("cond").mat.tolist() == EXPECTED_COND
        assert vl.majority_matrix(3).mat.tolist() == EXPECTED_MAJ3
        assert vl.majority_matrix(4).mat.tolist() == EXPECTED_MAJ4


def test_criterion_2_worked_evaluation_cases():
    with criterion(2, "worked conjunction, negation and conditional cases", 1.0):
        s, n = vl.embed_truth(1), vl.embed_truth(0)
        conj = vl.named_operator("and")
        assert vl.apply_operator(conj, [s, s]).tolist() == [1, 0]
        assert vl.apply_operator(conj, [s, n]).tolist() == [0, 1]
        assert vl.apply_operator(conj, [n, s]).tolist() == [0, 1]
        assert vl.apply_operator(conj, [n, n]).tolist() == [0, 1]
        neg = vl.named_operator("not")
        assert vl.apply_operator(neg, [s]).tolist() == [0, 1]
        assert vl.apply_operator(neg, [n]).tolist() == [1, 0]
        cond = vl.named_operator("cond")
        # verified input rows 1, 3 and 5 of the 8-row sweep
        assert vl.apply_operator(cond, [s, s, s]).tolist() == [1, 0]
        assert vl.apply_operator(cond, [s, n, s]).tolist() == [0, 1]
        assert vl.apply_operator(cond, [n, s, s]).tolist() == [1, 0]


def test_criterion_3_operator_faithfulness():
    with criterion(3, "project(apply(synth(T))) = T for every table swept", 30.0):
        # every table of arity 1..3, then 10,000 seeded random arity-4
        # tables, each through synth_operator and every input tuple
        for n in (1, 2, 3):
            tables = np.array(list(iproduct((0, 1), repeat=1 << n)), dtype=np.int8)
            assert laws.sweep_operator_faithfulness(tables, n) == (len(tables) << n, [])
        tables = np.random.default_rng(34).integers(0, 2, size=(10_000, 16), dtype=np.int8)
        assert laws.sweep_operator_faithfulness(tables, 4) == (160_000, [])


def test_criterion_4_majority_routes_agree():
    with criterion(4, "majority matrix, polynomial and definition agree, n=1..7", 10.0):
        for n in range(1, 8):
            assert laws.sweep_majority(n) == (1 << n, [])


def test_criterion_5_homomorphism_laws():
    with criterion(5, "function, relation, set and chain lifts all commute", 10.0):
        # (a) every unary function on domain sizes up to 5, every point
        checks, failures = laws.sweep_unary_function_lifts(5)
        assert not failures, failures[:3]
        # 5,699 tables checked pointwise: sum over size pairs of dt**ds * ds
        assert checks == 26_841
        # plus seeded binary tables over product domains up to size 6
        rng = np.random.default_rng(55)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            base = hm.build_domain_map(range(d), tag="entity")
            pairs = [(a, b) for a in base.elements for b in base.elements]
            table = {pair: int(rng.integers(d)) for pair in pairs}
            lifted = hm.lift_function(table, base, base, 2)
            for a, b in pairs:
                assert np.array_equal(lifted([hm.map_element(base, a), hm.map_element(base, b)]),
                                      hm.map_element(base, table[a, b]))

        # (b) relation biconditional: every relation of arity 1 and 2 on
        # domains up to 4 elements, every tuple, through lift_relation
        for d in range(1, 5):
            for arity in (1, 2):
                masks = laws.all_relation_masks(d, arity)
                checks, failures = laws.sweep_relations(masks, d, arity)
                assert not failures, failures[:3]
                assert checks == len(masks) * (d ** arity + 1)
        # arity 3 on 4 elements: seeded sample plus the empty and full
        # relations, every tuple
        rng = np.random.default_rng(56)
        sample = rng.integers(0, 2, size=(10_000, 64), dtype=np.int8)
        sample[0, :] = 0
        sample[1, :] = 1
        checks, failures = laws.sweep_relations(sample, 4, 3)
        assert not failures, failures[:3]
        assert checks == 10_000 * 65

        # (c) set operations on 1,000 seeded random subset pairs, |D| = 6
        rng = Draws(57)
        m6 = hm.build_domain_map([f"x{i}" for i in range(6)], tag="d6")
        for _ in range(1000):
            e1 = random_subset(rng, m6.elements)
            e2 = random_subset(rng, m6.elements)
            assert all(hm.check_set_ops(e1, e2, m6).values())

        # (d) composition chains of length 1..5, 100 seeded chains each
        rng = np.random.default_rng(58)
        for length in range(1, 6):
            for _ in range(100):
                sizes = [int(rng.integers(1, 6)) for _ in range(length + 1)]
                maps = [hm.build_domain_map(range(s), tag=f"d{i}")
                        for i, s in enumerate(sizes)]
                tables = [{a: int(rng.integers(sizes[i + 1]))
                           for a in maps[i].elements} for i in range(length)]
                assert hm.check_composition_chain(tables, maps).ok


def test_criterion_6_dual_route_formulas():
    with criterion(6, "extensional and vector routes agree on 1,000 formulas", 30.0):
        rng = Draws(66)
        for _ in range(1000):
            model = random_model(rng, n_entities=2 + rng.below(3))
            fam = hm.LiftFamily.for_model(model)
            formula = random_formula(rng, model.signature(), budget=6)
            assert complexity_depth(formula) <= 6
            bit = denote(formula, model, {}).bit
            vec = hm.lift_logical_connective(formula, model, {}, fam)
            assert vl.project_truth(vec) == bit


def test_criterion_7_recursion_properties():
    with criterion(7, "determinism, depth bound, substitution invariance", 30.0):
        rng = Draws(77)
        # determinism and the recursion depth bound
        for _ in range(300):
            model = random_model(rng, n_entities=3)
            formula = random_formula(rng, model.signature(), budget=6)
            first = denote(formula, model, {})
            again = denote(formula, model, {})
            sem = FrameCounting(model)
            assert first == again and first.bit == evaluate(formula, model, {}, sem)
            assert max(sem.frames) <= complexity_depth(formula) + 1
        # substitution: swapping a subterm for one with the same denotation
        # never changes the whole; 1,000 non-vacuous replacement pairs
        pairs = 0
        seed = 0
        while pairs < 1000:
            seed += 1
            r2 = Draws(7700 + seed)
            model = random_model(r2, n_entities=4)
            formula = random_formula(r2, model.signature(), budget=5)
            base = denote(formula, model, {})
            name_of = {e: n for n, e in sorted(model.constants.items(),
                                               reverse=True)}
            for path, sub in subterms(formula):
                if not isinstance(sub, (Const, Var, FunApp)):
                    continue
                replacement = Const(name_of[denote(sub, model, {}).id])
                assert denote(replacement, model, {}) == denote(sub, model, {})
                swapped = replace_at(formula, path, replacement)
                assert denote(swapped, model, {}) == base
                pairs += 1
                if pairs >= 1000:
                    break


def test_criterion_8_complexity_worked_examples():
    with criterion(8, "depth and size metrics match the worked cases", 1.0):
        sig = Signature(constants=["a", "b", "c"],
                           functions={"f": 2, "g": 1, "h": 2, "u": 1, "w": 1})
        t1 = parse_term("f(a,b)", sig)
        assert (complexity_depth(t1), complexity_size(t1)) == (1, 3)
        t2 = parse_term("f(g(a),h(b,c))", sig)
        assert (complexity_depth(t2), complexity_size(t2)) == (2, 6)
        t3 = parse_term("u(g(w(a)))", sig)
        assert (complexity_depth(t3), complexity_size(t3)) == (3, 4)


def test_criterion_9_similarity_properties():
    with criterion(9, "similarity laws on 10,000 random pairs at 1e-9", 30.0):
        rng = np.random.default_rng(99)
        tol = 1e-9
        for _ in range(10_000):
            d = int(rng.integers(1, 9))
            u = rng.uniform(-10, 10, d)
            v = rng.uniform(-10, 10, d)
            if norm(u) < 1e-6 or norm(v) < 1e-6:
                continue
            s = cosine_similarity(u, v)
            assert abs(s - cosine_similarity(v, u)) <= tol
            assert -1 - tol <= s <= 1 + tol
            alpha = float(rng.uniform(0.1, 10))
            assert abs(cosine_similarity(alpha * u, v) - s) <= tol
            assert abs(cosine_similarity(u, u) - 1.0) <= tol


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items())
             if name.startswith("test_criterion_")]
    bad = 0
    for fn in tests:
        try:
            fn()
        except BaseException as exc:
            bad += 1
            print(f"  {type(exc).__name__}: {exc}", file=sys.__stdout__)
    sys.exit(1 if bad else 0)
