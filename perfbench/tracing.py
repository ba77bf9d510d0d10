"""Span tracing of one benchmark pass, from outside the package.

``Tracer.installed`` replaces the functions that ``semicross.cli`` and
``semicross.driver`` call into each module with thin wrappers. Each wrapper
records one span ``(parent, row, layer, name, start, end)``; the span id is
its index in ``Tracer.spans``. The originals are restored on exit, so the
package itself carries no tracing code and an untraced pass runs unwrapped.

A layer is a module of ``src/semicross``. Its self time is the summed length
of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "driver", "problems", "hypercross", "methods", "coeffs",
          "stopping")

#: (owner, attribute, layer). ``owner`` is a dotted path below the package.
#: Functions are wrapped in the namespace of the module that calls them (cli
#: calls the drivers, the drivers call everything else), methods on their
#: class so that calls from inside ``methods.step`` are seen too.
HOOKS = (
    ("cli", "run_grid", "cli"),
    ("cli", "_run_row", "cli"),
    ("cli", "get_problem", "problems"),
    ("cli", "nu_method", "methods"),
    ("cli", "run_discrepancy", "driver"),
    ("cli", "run_balancing", "driver"),
    ("driver", "_window", "driver"),
    ("driver", "_residual_norm", "driver"),
    ("driver", "_diagnostics", "driver"),
    ("driver", "perturb", "problems"),
    ("driver", "norm", "coeffs"),
    ("driver", "assemble", "hypercross"),
    ("driver", "refine", "hypercross"),
    ("driver", "init_state", "methods"),
    ("driver", "step", "methods"),
    ("driver", "balancing_admissible_set", "stopping"),
    ("driver", "balancing_stop_index", "stopping"),
    ("problems.Problem", "rhs", "problems"),
    ("problems.Problem", "exact", "problems"),
    ("problems.Problem", "fresh_source", "problems"),
    ("hypercross.GalerkinOperator", "apply", "hypercross"),
    ("hypercross.GalerkinOperator", "apply_adjoint", "hypercross"),
    ("hypercross.GalerkinOperator", "column_support", "hypercross"),
    ("coeffs.CoeffVec", "__add__", "coeffs"),
    ("coeffs.CoeffVec", "__sub__", "coeffs"),
    ("coeffs.CoeffVec", "__mul__", "coeffs"),
    ("coeffs.CoeffVec", "__rmul__", "coeffs"),
    ("coeffs.CoeffVec", "__neg__", "coeffs"),
)

#: data-preparation calls counted by ``problems.calls``
PREP_CALLS = ("perturb", "rhs", "exact")


def resolve(pkg, dotted: str):
    obj = pkg
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@contextmanager
def patched(replacements):
    """Set each ``(owner, name, value)`` and restore the old values on exit."""
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        self.spans: list = []
        self.row = 0
        self.nnz = 0
        self.window_iterates = 0
        self._stack: list = []

    def _wrap(self, layer: str, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (stack[-1] if stack else -1, self.row, layer,
                              name, start, end)

        return traced

    def _count_nnz(self, _args, op):
        self.nnz += int(np.count_nonzero(op.vals))

    def _count_window(self, args, _out):
        self.window_iterates += len(args[0].iterates)

    def _new_row(self, fn):
        def row(*args, **kwargs):
            self.row += 1
            return fn(*args, **kwargs)
        return row

    @contextmanager
    def installed(self, pkg):
        after = {"assemble": self._count_nnz, "refine": self._count_nnz,
                 "balancing_admissible_set": self._count_window}
        replacements = []
        missing = []
        for owner_path, name, layer in HOOKS:
            owner = resolve(pkg, owner_path)
            if name not in owner.__dict__:
                missing.append(f"{owner_path}.{name}")
                continue
            fn = self._wrap(layer, name, owner.__dict__[name], after.get(name))
            if name == "_run_row":
                fn = self._new_row(fn)
            replacements.append((owner, name, fn))
        if missing:
            print("trace: not wrapped (time folds into the caller): "
                  + ", ".join(missing), file=sys.stderr)
        with patched(replacements):
            yield self

    def summary(self) -> dict:
        """Self time per layer, self and inclusive time per span name, and
        call counts."""
        child = [0.0] * len(self.spans)
        for parent, _, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_layer = dict.fromkeys(LAYERS, 0.0)
        by_name = defaultdict(float)
        inclusive = defaultdict(float)
        calls = Counter()
        for sid, (_, _, layer, name, start, end) in enumerate(self.spans):
            own = end - start - child[sid]
            by_layer[layer] += own
            by_name[f"{layer}:{name}"] += own
            inclusive[f"{layer}:{name}"] += end - start
            calls[name] += 1
        return {"self_s": by_layer, "by_name": dict(by_name),
                "inclusive_s": dict(inclusive), "calls": calls}

    def write_csv(self, path) -> None:
        """All spans, one per line, times in microseconds from the first."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,row,layer,name,start_us,end_us\n")
            for sid, (parent, row, layer, name, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{row},{layer},{name},"
                         f"{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n")
