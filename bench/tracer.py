"""Span recorder that wraps the program's public functions from outside.

Every traced function is replaced at each module binding that holds it (the
defining module and every `from ... import` copy), so calls made through any
of those names open a span. Spans are kept in flat in-memory arrays (name,
parent, run id, start, end) and only reduced or written when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute, span name). Functions sharing a span name are merged.
TARGETS = (
    ("slabtrt.full_scheme", "step_full", "full_scheme.step_full"),
    ("slabtrt.full_scheme", "full_micro_update", "full_scheme.full_micro_update"),
    ("slabtrt.full_scheme", "emission_gradient_source", "full_scheme.emission_gradient_source"),
    ("slabtrt.full_scheme", "meso_macro_update", "full_scheme.meso_macro_update"),
    ("slabtrt.bug_fixed", "step_bug_fixed", "bug_fixed.step_bug_fixed"),
    ("slabtrt.bug_fixed", "k_step", "bug_fixed.k_step"),
    ("slabtrt.bug_fixed", "l_step", "bug_fixed.l_step"),
    ("slabtrt.bug_fixed", "s_step", "bug_fixed.s_step"),
    ("slabtrt.bug_fixed", "galerkin_coefficient_update", "bug_fixed.galerkin_coefficient_update"),
    ("slabtrt.bug_adaptive", "step_bug_adaptive", "bug_adaptive.step_bug_adaptive"),
    ("slabtrt.bug_adaptive", "augment_bases", "bug_adaptive.augment_bases"),
    ("slabtrt.bug_adaptive", "galerkin_s_hat", "bug_adaptive.galerkin_s_hat"),
    ("slabtrt.bug_adaptive", "ap_truncate", "bug_adaptive.ap_truncate"),
    ("slabtrt.bug_adaptive", "diffusion_limit_direction", "bug_adaptive.diffusion_limit_direction"),
    ("slabtrt.mesh_state", "diff_minus", "mesh_state.stencils"),
    ("slabtrt.mesh_state", "diff_plus", "mesh_state.stencils"),
    ("slabtrt.mesh_state", "diff_interface", "mesh_state.stencils"),
    ("slabtrt.mesh_state", "diff_center", "mesh_state.stencils"),
    ("slabtrt.mesh_state", "beta_fields", "mesh_state.beta_fields"),
    ("slabtrt.mesh_state", "orthonormal_columns", "mesh_state.orthonormal_columns"),
    ("slabtrt.mesh_state", "complete_orthonormal_columns",
     "mesh_state.complete_orthonormal_columns"),
    ("slabtrt.mesh_state", "LowRankMicroState.__post_init__",
     "mesh_state.LowRankMicroState.__post_init__"),
    ("numpy.linalg", "qr", "numpy.linalg.qr"),
    ("numpy.linalg", "svd", "numpy.linalg.svd"),
    ("numpy.linalg", "solve", "numpy.linalg.solve"),
    ("slabtrt.limits_diagnostics", "energy", "limits_diagnostics.energy"),
    ("slabtrt.limits_diagnostics", "mass", "limits_diagnostics.mass"),
    ("slabtrt.limits_diagnostics", "rosseland_step", "limits_diagnostics.rosseland_step"),
    ("slabtrt.limits_diagnostics", "cfl_report", "limits_diagnostics.cfl_report"),
    ("slabtrt.cli_io", "run_simulation", "cli_io.run_simulation"),
    ("slabtrt.cli_io", "main", "cli_io.main"),
    ("slabtrt.angular", "build_angular_operators", "angular.build_angular_operators"),
    ("slabtrt.scenarios", "build_scenario", "scenarios.build_scenario"),
)


class Tracer:
    """In-memory span store; one run id per traced program call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.run_id = 0

    def new_run(self) -> int:
        """Start a new run id; spans opened from now on carry it."""
        self.run_id += 1
        return self.run_id

    def wrap(self, span: str, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def self_times(self) -> dict[tuple[int, str], tuple[float, int]]:
        """(run id, span name) -> (summed self seconds, call count).

        Self time is a span's duration minus the durations of its child spans.
        """
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        own = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        n_names = max(len(self.names), 1)
        key = np.frombuffer(self.run, dtype=np.int32) * n_names + np.frombuffer(
            self.name_id, dtype=np.int32)
        totals = np.bincount(key, weights=own)
        calls = np.bincount(key)
        return {(int(k) // n_names, self.names[int(k) % n_names]): (float(totals[k]), int(calls[k]))
                for k in np.flatnonzero(calls)}

    def write(self, path: Path):
        """Dump every span (name, parent, run id, start, end) as a compressed npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name, original function), or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return (owner, name, fn) if callable(fn) else None


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target while the block runs; yields the span names found absent."""
    patched = []
    absent = []
    try:
        for module_name, attr, span in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                absent.append(f"{module_name}.{attr}")
                continue
            owner, name, fn = found
            wrapper = tracer.wrap(span, fn)
            bindings = [(owner, name)]
            if not isinstance(owner, type):
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or mod is owner or not mod_name.startswith("slabtrt"):
                        continue
                    bindings += [(mod, k) for k, v in vars(mod).items() if v is fn]
            for obj, key in bindings:
                patched.append((obj, key, fn))
                setattr(obj, key, wrapper)
        yield absent
    finally:
        for obj, key, fn in reversed(patched):
            setattr(obj, key, fn)
