"""Span tracer for one benchmark job, installed from outside the package.

`Tracer.install()` wraps the public functions of every slnfib layer module
plus a few hot methods, and rebinds each wrapped function under every name
that any `slnfib.*` module binds it to: `from .linalg import matrix_log`
leaves a second reference in `foliation`, and a wrapper on
`slnfib.linalg.matrix_log` alone would miss the calls made through it.

Each wrapped call records a span (name, parent span, start, end) in memory.
Calls, inclusive seconds (outermost call of each name only, so recursion is
not counted twice) and self seconds (span minus its child spans) are
accumulated as the spans close.  Calls into scipy `logm`/`expm` and numpy
`qr`/`svd` are counted at the library boundary, keyed by the innermost open
span, so the wrapper counts can be checked against them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "cli",
    "serialize",
    "linalg",
    "algebra",
    "groups",
    "complexes",
    "foliation",
    "tischler",
)

# (module, class, method) -> span name, for methods worth a span of their own
METHODS = {
    ("linalg", "FMatrix", "__init__"): "linalg.FMatrix.new",
    ("linalg", "RMatrix", "__init__"): "linalg.RMatrix.new",
    ("linalg", "RMatrix", "__matmul__"): "linalg.RMatrix.matmul",
    ("complexes", "ScalarCochain1", "__init__"): "complexes.ScalarCochain1.new",
    ("foliation", "LieFoliationSpec", "developing_value"): "foliation.developing_value",
    ("foliation", "LieFoliationSpec", "validate_consistency"): "foliation.validate_consistency",
}

# library boundary: (module path, attribute) -> kernel name
KERNELS = {
    ("scipy.linalg", "logm"): "logm",
    ("scipy.linalg", "expm"): "expm",
    ("numpy.linalg", "qr"): "qr",
    ("numpy.linalg", "svd"): "svd",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, parent span index, start, end)
        self.stack: list = []  # open spans: [span index, name id, child seconds]
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        self.depth: list[int] = []
        self.kernel_calls: Counter = Counter()  # (kernel, innermost span name id)
        self.crossings = 0

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        for acc, zero in ((self.calls, 0), (self.incl, 0.0), (self.self_s, 0.0), (self.depth, 0)):
            acc.append(zero)
        return len(self.names) - 1

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack
        calls, incl, self_s, depth = self.calls, self.incl, self.self_s, self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, nid, 0.0]
            stack.append(frame)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                depth[nid] -= 1
                if not depth[nid]:
                    incl[nid] += dur
                self_s[nid] += dur - frame[2]
                calls[nid] += 1
                spans[idx] = (nid, parent, t0, t1)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _hook_kernel(self, kernel: str, fn):
        stack, counts = self.stack, self.kernel_calls

        @functools.wraps(fn)
        def hook(*args, **kwargs):
            counts[(kernel, stack[-1][1] if stack else -1)] += 1
            return fn(*args, **kwargs)

        return hook

    def _count_crossings(self, census):
        self.crossings += census.crossing_edges

    def install(self):
        modules = {layer: importlib.import_module(f"slnfib.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                on_result = self._count_crossings if (layer, attr) == ("tischler", "fiber_census") else None
                wrapped[obj] = self.wrap(f"{layer}.{attr}", obj, on_result)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "slnfib" or name.startswith("slnfib.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for (layer, cls_name, meth), span_name in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self.wrap(span_name, cls.__dict__[meth]))
        for (mod_name, attr), kernel in KERNELS.items():
            mod = importlib.import_module(mod_name)
            setattr(mod, attr, self._hook_kernel(kernel, getattr(mod, attr)))

    def summary(self) -> dict:
        """Per-name totals; kernel calls keyed 'kernel<-innermost span'."""
        live = [i for i, n in enumerate(self.calls) if n]
        return {
            "calls": {self.names[i]: self.calls[i] for i in live},
            "incl_s": {self.names[i]: self.incl[i] for i in live},
            "self_s": {self.names[i]: self.self_s[i] for i in live},
            "kernel_calls": {
                f"{k}<-{self.names[nid] if nid >= 0 else '-'}": n
                for (k, nid), n in sorted(self.kernel_calls.items())
            },
            "crossings": self.crossings,
            "spans": len(self.spans),
        }

    def write_spans(self, path: str, job_id: str, t_origin: float):
        """Append one JSON line for this job: spans as [name id, parent index,
        start, end], in seconds from t_origin."""
        with open(path, "a") as fh:
            json.dump(
                {
                    "job": job_id,
                    "names": self.names,
                    "spans": [
                        [nid, parent, round(t0 - t_origin, 7), round(t1 - t_origin, 7)]
                        for nid, parent, t0, t1 in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
            fh.write("\n")
