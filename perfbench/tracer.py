"""Spans around calls into semlink's public functions, from outside.

The tracer replaces each traced function at every module attribute that
holds it, because callers look functions up by name in their own module:
laws and homomorphism bind `denote`, and cli binds `load_model`, `denote`,
`parse_term` and `infer_type`.  Patching `semlink.model.denote` alone would
miss those calls.  Every attribute is restored when the tracer is closed.

One span is kept in memory per wrapped call (label, parent, request, start,
end) in flat arrays; self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

# the layers the traced run reports, by module
LAYERS = {
    "terms": ("parse_term", "infer_type"),
    "model": ("load_model", "denote"),
    "sampling": ("random_model", "random_formula", "random_function_table",
                 "random_subset"),
    "veclogic": ("named_operator", "apply_operator", "kron_fold", "project_truth",
                 "synth_operator"),
    "homomorphism": ("lift_logical_connective", "vector_denote", "lifted_model_function",
                     "lift_function", "lift_relation", "lift_subset", "map_element",
                     "unmap_element", "check_set_ops", "check_composition_chain",
                     "build_domain_map"),
    "laws": ("run_law",),
    "cli": ("main",),
}

LAYER_LABELS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
REQUEST = "request"


class Tracer:
    def __init__(self):
        self.labels: list[str] = [REQUEST]
        self.label = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._request_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, label_id: int) -> int:
        idx = len(self.start)
        self.label.append(label_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, label: str):
        label_id = len(self.labels)
        self.labels.append(label)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(label_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def install(self):
        """Patch every semlink module attribute that holds a traced function."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "semlink" or name.startswith("semlink."))]
        for mod_name, fns in LAYERS.items():
            owner = sys.modules[f"semlink.{mod_name}"]
            for fn_name in fns:
                original = getattr(owner, fn_name)
                traced = self.wrap(original, f"{mod_name}.{fn_name}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, traced)

    def close(self):
        """Restore every patched attribute."""
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def begin_request(self, request_id: int) -> int:
        self._request_id = request_id
        return self._open(0)

    def end_request(self, idx: int):
        self._close(idx)

    def self_times(self, below: "int | None" = None) -> dict[str, tuple[int, int]]:
        """label -> (calls, self time in ns), over the spans of all requests,
        or of the requests whose id is below `below`."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {label: [0, 0] for label in self.labels}
        for i in range(n):
            if below is not None and self.request[i] >= below:
                continue
            entry = out[self.labels[self.label[i]]]
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return {label: (calls, ns) for label, (calls, ns) in out.items()}
