"""In-memory spans around calls into lethe's public functions.

Wrappers are installed from outside the package, before the workload runs:
a function imported by name into a caller's module is replaced in that
caller's namespace, because that is the binding the call site looks up.
Each span records (id, name, start_ns, end_ns, parent id, request id,
attributes).  A span opened with an empty stack starts a new request and
its descendants on the same thread inherit the request id.  Spans stay in
memory and are written as JSON lines when the process exits.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

_DISTRIBUTION_CLASSES = (
    "Geometric",
    "NegativeBinomial",
    "Zeta",
    "ShiftedPoisson",
    "Degenerate",
    "DiscreteUniform",
)


def _sample_size(args, kwargs, result):
    # (self, rng, size) -> number of draws
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return {"draws": 1 if size is None else int(size)}


def _schedule_span(args, kwargs, result):
    covered = int(result.covered_until - result.created_at)
    return {"toggles": int(len(result.toggles)), "covered": covered}


def _get_span(args, kwargs, result):
    # PostStore.get(self, post_id, requester_token="")
    token = args[2] if len(args) > 2 else kwargs.get("requester_token", "")
    return {"post_id": args[1], "token": token, "null": result is None}


def _lr_points(args, kwargs, result):
    return {"points": sum(len(points) for _, points in result)}


def _curve_points(args, kwargs, result):
    return {"points": len(result)}


def _simulation(args, kwargs, result):
    cfg = args[0]
    return {"engine": cfg.engine, "posts": int(cfg.total_posts)}


def _utility(args, kwargs, result):
    return {"interactions": int(result.total)}


# (span name, module, attribute path, attribute extractor)
TARGETS = [
    ("server.handle", "lethe.server", "handle_request", None),
    ("store.open", "lethe.store", "PostStore.__init__", None),
    ("store.put", "lethe.store", "PostStore.put", None),
    ("store.get", "lethe.store", "PostStore.get", _get_span),
    ("store.delete", "lethe.store", "PostStore.delete", None),
    ("store.updater_pass", "lethe.store", "PostStore.run_updater_pass", None),
    ("store.compact", "lethe.store", "PostStore.compact", None),
    ("schedule.generate", "lethe.store", "generate_schedule", _schedule_span),
    ("schedule.generate", "lethe.utility", "generate_schedule", _schedule_span),
    ("schedule.extend", "lethe.store", "extend_schedule", _schedule_span),
    ("schedule.state_at", "lethe.schedule", "Schedule.state_at", None),
    ("rng.substream", "lethe.store", "substream", None),
    ("rng.substream", "lethe.adversary", "substream", None),
    ("special.betainc", "lethe.distributions", "regularized_incomplete_beta", None),
    ("tuning.build", "lethe.tuning", "build_mechanism", None),
    ("tuning.build", "lethe.adversary", "build_mechanism", None),
    ("tuning.build", "lethe.cli", "build_mechanism", None),
    ("privacy.curve", "lethe.privacy", "lr_curve", _lr_points),
    ("privacy.curve", "lethe.privacy", "inverse_ccdf_curve", _curve_points),
    ("adversary.simulate", "lethe.adversary", "run_both_scenarios", _simulation),
    ("adversary.oracle", "lethe.adversary", "analytic_expected_fp", None),
    ("utility.evaluate", "lethe.utility", "evaluate_utility", _utility),
] + [
    (f"distributions.{method}", "lethe.distributions", f"{cls}.{method}", extract)
    for cls in _DISTRIBUTION_CLASSES
    for method, extract in (("ccdf", None), ("sample", _sample_size))
]


class Tracer:
    """Collects spans from every thread of this process."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, extract=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [next(self._ids), name, 0, 0, 0, 0, None]
            if stack:
                span[4], span[5] = stack[-1][0], stack[-1][5]
            else:
                span[5] = span[0]
            self.spans.append(span)
            stack.append(span)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if extract is not None:
                span[6] = extract(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        # import everything first: a module imported after a patch would
        # bind the wrapper and wrap it a second time
        modules = {m: importlib.import_module(m) for _, m, _, _ in TARGETS}
        for name, module_name, path, extract in TARGETS:
            owner = modules[module_name]
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            if attr not in vars(owner):
                raise RuntimeError(f"{module_name}.{path} not found: update TARGETS")
            setattr(owner, attr, self.wrap(name, vars(owner)[attr], extract))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span[3]:
                    fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def install_and_write_at_exit(path: str) -> Tracer:
    tracer = Tracer()
    tracer.install()
    atexit.register(tracer.write, path)
    return tracer


# ---------------------------------------------------------------------------
# reading traces back


class Spans:
    """Spans of one or more trace files, with self times."""

    def __init__(self, paths):
        self.files = len(paths)
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.root_union_ns = 0  # time inside at least one outermost span
        for path in paths:
            spans = {}
            roots = []
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    sid, name, start, end, parent, _request, attrs = json.loads(line)
                    if not parent:
                        roots.append((start, end))
                    spans[sid] = {
                        "name": name,
                        "dur_ns": end - start,
                        "child_ns": 0,
                        "parent": parent,
                        "attrs": attrs or {},
                    }
            for span in spans.values():
                parent = spans.get(span["parent"])
                span["parent_name"] = parent["name"] if parent is not None else None
                if parent is not None:
                    parent["child_ns"] += span["dur_ns"]
            for span in spans.values():
                span["self_ns"] = span["dur_ns"] - span["child_ns"]
                self.by_name[span["name"]].append(span)
            covered_until = 0
            for start, end in sorted(roots):
                if end > covered_until:
                    self.root_union_ns += end - max(start, covered_until)
                    covered_until = end

    def get(self, name: str) -> list[dict]:
        return self.by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self.get(name))

    def total_ns(self, name: str, key: str = "dur_ns") -> int:
        return sum(span[key] for span in self.get(name))
