"""Span tracer that wraps the package's functions from outside.

``Tracer.install`` replaces every public function of the layer modules
(plus the private helpers named in ``EXTRA``) with a wrapper that records
a span: name, start, end and parent.  Each name is patched in every
``kbmlab`` module that binds it, because ``spectra`` and ``cli`` import
functions by name and ``operator.truncate`` imports ``track_branch`` at
call time from ``eig``.  No file of the package is touched.

Spans live in flat Python lists while the program runs and are written
out once at the end.  The parent of a span is the innermost span open
when it started; one global stack is used because the benchmark runs the
program with one worker, so spans never interleave across threads.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("ladder", "operator", "eig", "perturb", "spectra", "cli")
# Private helpers whose cost the per-layer metrics name explicitly.
EXTRA = {"spectra": ("_dense_continuation",)}


def _rhs_cols(args, kwargs) -> int:
    rhs = np.asarray(kwargs["rhs"] if "rhs" in kwargs else args[2])
    return 1 if rhs.ndim == 1 else int(rhs.shape[1])


def _op_dim(args, kwargs) -> int:
    return int((kwargs["op"] if "op" in kwargs else args[0]).dim)


# Work counts taken from arguments and return values, summed per name.
COUNTERS = {
    "eig.eig_dense": lambda a, k, r: {"n3_sum": _op_dim(a, k) ** 3},
    "eig.char_poly": lambda a, k, r: {"dim_sum": _op_dim(a, k)},
    "eig.newton_polish": lambda a, k, r: {"iters": r[2], "not_converged": int(not r[1])},
    "eig.track_branch": lambda a, k, r: {
        "steps": len(r.x_samples) - 1,
        "collisions": int(r.status == "collision"),
    },
    "operator.tridiag_solve": lambda a, k, r: {"rhs_cols": _rhs_cols(a, k)},
}
# Largest value returned, per name.
MAXIMA = {"operator.truncate": lambda r: {"k_max": r.k_max}}


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        maximum = MAXIMA.get(name)
        clock = time.perf_counter
        stack, name_of, parent, start, end = (
            self._stack, self.name_of, self.parent, self.start, self.end
        )
        counts, maxima = self.counts, self.maxima

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(float("nan"))
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            if maximum is not None:
                for key, value in maximum(result).items():
                    full = f"{name}.{key}"
                    maxima[full] = max(maxima.get(full, value), value)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap the layer functions and rebind them everywhere."""
        mods = {layer: importlib.import_module(f"kbmlab.{layer}") for layer in LAYERS}
        binders = [m for n, m in list(sys.modules.items()) if n == "kbmlab" or n.startswith("kbmlab.")]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                    continue
                rebind(binders, fn, self.wrap(f"{layer}.{attr.lstrip('_')}", fn))

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_of": np.array(self.name_of, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "run_id": np.array(self.run_id),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict:
        """Per-name calls, busy (inclusive) and self seconds, plus counts.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap.
        """
        arr = self.arrays()
        name_of, parent = arr["name_of"], arr["parent"]
        dur = arr["end"] - arr["start"]
        n_names = len(self.names)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child_sum
        calls = np.bincount(name_of, minlength=n_names)
        busy = np.bincount(name_of, weights=dur, minlength=n_names)
        selft = np.bincount(name_of, weights=self_t, minlength=n_names)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.busy_s"] = float(busy[i])
            out[f"{name}.self_s"] = float(selft[i])
            mine = dur[name_of == i]
            out[f"{name}.max_s"] = float(mine.max()) if mine.size else 0.0
        # Calls made directly from inside another named function.
        parent_name = np.where(has_parent, name_of[np.maximum(parent, 0)], -1)
        ids = {name: i for i, name in enumerate(self.names)}
        for child, par in (
            ("eig.newton_polish", "eig.track_branch"),
            ("eig.track_branch", "spectra.gamma_sweep"),
        ):
            if child in ids and par in ids:
                n = int(np.sum((name_of == ids[child]) & (parent_name == ids[par])))
            else:
                n = 0
            out[f"{child}.calls_from.{par}"] = n
        out.update(self.counts)
        out.update(self.maxima)
        return out


def rebind(binders, fn, replacement) -> None:
    """Point every module attribute that is ``fn`` at ``replacement``."""
    for mod in binders:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)
