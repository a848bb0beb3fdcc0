"""Span tracing of hyperfir's public functions, patched in from outside the package.

A function is wrapped once and the wrapper is bound under every name that
refers to it in the loaded ``hyperfir`` modules (``from .filtering import
net_input`` makes a second reference in ``experiments``); methods are
wrapped on their class.  Each call records a span (name, start, end, parent
span) in flat arrays held in memory; ``summary`` turns them into call counts
and self times, and ``save`` writes them once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (module, attribute, span name) of the traced functions.
FUNCTIONS = (
    ("hyperfir.cli", "main", "cli.main"),
    ("hyperfir.experiments", "run_training", "experiments.run_training"),
    ("hyperfir.experiments", "emit_csv", "experiments.emit_csv"),
    ("hyperfir.experiments", "generate_signal", "experiments.generate_signal"),
    ("hyperfir.activations", "split_apply_amplitude", "activations.split_apply_amplitude"),
    ("hyperfir.filtering", "shafa_step", "filtering.shafa_step"),
    ("hyperfir.filtering", "aashafa_step", "filtering.aashafa_step"),
    ("hyperfir.filtering", "convergence_factor", "filtering.convergence_factor"),
    ("hyperfir.filtering", "mu_bound", "filtering.mu_bound"),
    ("hyperfir.filtering", "window_energy", "filtering.window_energy"),
    ("hyperfir.filtering", "net_input", "filtering.net_input"),
    ("hyperfir.geometry", "outer_product", "geometry.outer_product"),
    ("hyperfir.geometry", "left_contraction", "geometry.left_contraction"),
    ("hyperfir.geometry", "project", "geometry.project"),
)
#: (module, class, method, span name) of the traced methods.
METHODS = (
    ("hyperfir.algebra", "ProductTable", "multiply", "algebra.multiply"),
    ("hyperfir.algebra", "ProductTable", "left_matrix", "algebra.left_matrix"),
    ("hyperfir.algebra", "Multivector", "__init__", "algebra.multivector_init"),
)


class Tracer:
    """Records spans of the patched functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, stack = self._ids, self._parents, self._starts, self._ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "hyperfir" or name.startswith("hyperfir.")]
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds); self time excludes child spans."""
        ids = np.frombuffer(self._ids, dtype=np.int32)
        parents = np.frombuffer(self._parents, dtype=np.int32)
        duration = np.frombuffer(self._ends) - np.frombuffer(self._starts)
        children = np.zeros(len(duration))
        nested = parents >= 0
        np.add.at(children, parents[nested], duration[nested])
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        self_s = np.bincount(ids, weights=duration - children, minlength=size)
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self._ids, dtype=np.int32),
            parent=np.frombuffer(self._parents, dtype=np.int32),
            start=np.frombuffer(self._starts),
            end=np.frombuffer(self._ends),
        )
