"""In-memory span tracing of redint's public functions, from outside the package.

A :class:`Tracer` replaces each listed function with a wrapper in every
``redint.*`` namespace that binds it (modules import names directly, so
``reduction.basis_coordinates`` and ``groups.basis_coordinates`` are the same
object bound twice). Each wrapped call records one span ``(name, parent,
start, end)`` in flat arrays; nothing is aggregated while the workload runs.
:meth:`Tracer.layer_metrics` derives call counts, self times, computed work
counts and escaped-error counts from the spans afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# The layers are redint's modules; each lists the public functions the
# benchmark wraps. ``harness.run_check`` is wrapped too, but its spans are
# named per check (``harness.<check>``) and reported as inclusive time.
LAYERS = {
    "groups": (
        "inner",
        "basis_coordinates",
        "from_coordinates",
        "group_exp",
        "numerical_rank",
        "joint_centralizer_dim",
        "is_regular",
        "centralizer_basis",
    ),
    "words": ("evaluate", "letter_gradient", "left_group_gradient"),
    "phase": ("poisson_bracket", "fd_bracket_with", "product_bracket", "random_phase_point"),
    "free_motion": (
        "free_flow",
        "constants_map_rank",
        "poisson_map_defect",
        "flow_conservation_defect",
    ),
    "reduction": (
        "classify",
        "span_plateau",
        "word_generators",
        "pullback_differential_row",
        "double_differential_matrix",
        "reduced_hamiltonian_span",
        "leaf_codim",
        "centrality_defect",
    ),
    "apposition": ("build_frame", "solve_moment_equation"),
    "su2": (
        "reduced_dynamics_match",
        "integrate_sutherland",
        "regauge_to_slice",
        "exceptional_point_audit",
    ),
}
MODULES = tuple(LAYERS) + ("harness",)


def _rank_elements(M, *_args, **_kwargs):
    return int(np.asarray(M).size)


def _gradient_letters(obs, *_args, **_kwargs):
    return sum(len(w.letters) for w in obs.words)


# Work counts taken from the arguments of a wrapped call: metric name and the
# function that computes the count.
WORK_COUNTS = {
    ("groups", "numerical_rank"): ("groups.numerical_rank.elements", _rank_elements),
    ("words", "letter_gradient"): ("words.gradient.letters", _gradient_letters),
    ("words", "left_group_gradient"): ("words.gradient.letters", _gradient_letters),
}


def metric_names(checks):
    """Every per-layer metric name, in report order, for the registered ``checks``."""
    names = []
    for module, funcs in LAYERS.items():
        for fn in funcs:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
    names += sorted({name for name, _ in WORK_COUNTS.values()})
    names += [f"harness.{check}.s" for check in checks]
    names += [f"{module}.errors" for module in MODULES]
    names.append("trace.overhead_s")
    return names


class Tracer:
    """Records a span per call of every function in :data:`LAYERS`.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original bindings.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: array = array("i")
        self.parents: array = array("i")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.work = Counter()
        self.errors = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _wrap(self, fn, module: str, span_name, work=None):
        """Wrapper recording one span per call; ``span_name`` is a string or a
        function of the call's arguments."""
        tracer = self
        fixed_id = self._name_id(span_name) if isinstance(span_name, str) else None
        ids: dict = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fixed_id is None:
                key = span_name(*args, **kwargs)
                name_id = ids.get(key)
                if name_id is None:
                    name_id = ids[key] = tracer._name_id(key)
            else:
                name_id = fixed_id
            if work is not None:
                tracer.work[work[0]] += work[1](*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.starts)
            tracer.name_ids.append(name_id)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[module] += 1
                raise
            finally:
                tracer.ends[idx] = time.perf_counter()
                stack.pop()

        return wrapper

    def __enter__(self):
        import redint.harness

        wrappers = {}
        for module, funcs in LAYERS.items():
            mod = sys.modules[f"redint.{module}"]
            for fn in funcs:
                orig = getattr(mod, fn)
                wrappers[id(orig)] = self._wrap(
                    orig, module, f"{module}.{fn}", WORK_COUNTS.get((module, fn))
                )
        run_check = redint.harness.run_check
        wrappers[id(run_check)] = self._wrap(
            run_check, "harness", lambda name, *_a, **_k: f"harness.{name}"
        )
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "redint" and not mod_name.startswith("redint."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
        return False

    def span_arrays(self):
        """Spans as numpy arrays: ``name_id, parent, start, end`` (parent -1 at top level)."""
        return (
            np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            np.frombuffer(self.parents, dtype=np.int32).copy(),
            np.frombuffer(self.starts, dtype=np.float64).copy(),
            np.frombuffer(self.ends, dtype=np.float64).copy(),
        )

    def self_times(self):
        """Per-span self time: duration minus the time covered by child spans."""
        _, parents, starts, ends = self.span_arrays()
        duration = ends - starts
        nested = parents >= 0
        child = np.zeros_like(duration)
        np.add.at(child, parents[nested], duration[nested])
        return duration - child

    def top_level_seconds(self) -> float:
        """Time covered by spans without a parent."""
        _, parents, starts, ends = self.span_arrays()
        top = parents < 0
        return float(np.sum(ends[top] - starts[top]))

    def layer_metrics(self, checks):
        """Per-layer metrics (without ``trace.overhead_s``) as ``{name: value}``."""
        name_ids, _, starts, ends = self.span_arrays()
        size = len(self.names)
        calls = np.bincount(name_ids, minlength=size)
        self_s = np.bincount(name_ids, weights=self.self_times(), minlength=size)
        inclusive = np.bincount(name_ids, weights=ends - starts, minlength=size)
        index = {name: i for i, name in enumerate(self.names)}
        out = {}
        for module, funcs in LAYERS.items():
            for fn in funcs:
                i = index[f"{module}.{fn}"]
                out[f"{module}.{fn}.calls"] = int(calls[i])
                out[f"{module}.{fn}.self_s"] = float(self_s[i])
        for name, _ in WORK_COUNTS.values():
            out[name] = int(self.work[name])
        for check in checks:
            i = index.get(f"harness.{check}")
            out[f"harness.{check}.s"] = float(inclusive[i]) if i is not None else 0.0
        for module in MODULES:
            out[f"{module}.errors"] = int(self.errors[module])
        return out

    def save(self, path):
        """Write the spans to ``path`` as a numpy ``.npz`` archive."""
        name_ids, parents, starts, ends = self.span_arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_ids,
            parent=parents,
            start=starts,
            end=ends,
        )
