"""In-memory span recorder that wraps fanosolve's public functions.

Each wrapped function is replaced in every ``fanosolve`` module namespace
that binds it, so a call is traced wherever its caller looks the name up
(``fanosolve.cli.lineshape_sweep`` and ``fanosolve.liouville.steady_state``
alike).  ``numpy.linalg`` kernels are wrapped on the ``numpy.linalg``
module, which is where fanosolve looks them up.  Wrappers are installed
only for the duration of one traced request, so untraced requests and the
output checks run the original functions.

A span is (name, start, end, parent, request id, raised); spans live in
flat arrays until :meth:`Tracer.write` dumps them.  A span's self time is
its duration minus the durations of its direct children; the self times of
one request therefore sum exactly to its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

from spec import KERNELS, ORACLE_LADDER, ROOT_SPAN, TRACED_FUNCTIONS


class Tracer:
    """Records spans of the fanosolve calls made inside traced requests."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("i")
        self.raised = array("b")
        self._stack = [-1]
        self._rid = -1
        self._targets = self._resolve_targets()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._rid)
        self.raised.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self._close(idx)
        return traced

    def _resolve_targets(self):
        """(namespace, attribute, original, wrapper) for every binding to wrap."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fanosolve" or n.startswith("fanosolve.")]
        targets = []
        for qual in TRACED_FUNCTIONS:
            mod_name, fn_name = qual.split(".")
            original = getattr(importlib.import_module(f"fanosolve.{mod_name}"), fn_name)
            wrapper = self._wrap(qual, original)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        targets.append((mod, attr, original, wrapper))
        for kern in KERNELS:
            original = getattr(np.linalg, kern)
            targets.append((np.linalg, kern, original,
                            self._wrap(f"kernel.{kern}", original)))
        return targets

    @contextlib.contextmanager
    def request_span(self, rid: int):
        """Trace one request: install the wrappers and open its root span."""
        self._rid = rid
        for ns, attr, _, wrapper in self._targets:
            setattr(ns, attr, wrapper)
        idx = self._open(self._name_id(ROOT_SPAN))
        try:
            yield
        finally:
            self._close(idx)
            for ns, attr, original, _ in self._targets:
                setattr(ns, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tname\tparent\tstart_ns\tend_ns\traised\n")
            for k in range(len(self.start)):
                fh.write(f"{self.request[k]}\t{self.names[self.name[k]]}\t"
                         f"{self.parent[k]}\t{self.start[k]}\t{self.end[k]}\t"
                         f"{self.raised[k]}\n")

    def summarize(self) -> dict:
        """Per-request means of calls and self times, by layer.

        Raises if the self times of any request do not sum to its root span.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        rid = np.frombuffer(self.request, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child

        root = self._ids[ROOT_SPAN]
        roots = np.flatnonzero(name == root)
        n_req = roots.size
        per_req_self = np.zeros(int(rid.max()) + 1, dtype=np.int64)
        np.add.at(per_req_self, rid, self_ns)
        mismatch = per_req_self[rid[roots]] - dur[roots]
        if np.any(mismatch != 0):
            raise RuntimeError("self times do not sum to the request wall time")

        def mean_ms(mask):
            return float(self_ns[mask].sum()) / 1e6 / n_req

        def mean_calls(mask):
            return float(np.count_nonzero(mask)) / n_req

        out = {}
        for qual in TRACED_FUNCTIONS:
            mask = name == self._ids[qual]
            out[f"{qual}.calls"] = mean_calls(mask)
            out[f"{qual}.self_ms"] = mean_ms(mask)
        fit = name == self._ids["lineshape.fit_rational_quadratic"]
        raised = np.frombuffer(self.raised, dtype=np.int8).astype(bool)
        out["lineshape.fit_rational_quadratic.failures"] = mean_calls(fit & raised)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        for kern, callers in KERNELS.items():
            mask = name == self._ids[f"kernel.{kern}"]
            out[f"kernel.{kern}.calls"] = mean_calls(mask)
            out[f"kernel.{kern}.self_ms"] = mean_ms(mask)
            for caller in callers:
                sub = mask & (parent_name == self._ids[caller])
                out[f"kernel.{kern}.under.{caller}.calls"] = mean_calls(sub)
                out[f"kernel.{kern}.under.{caller}.self_ms"] = mean_ms(sub)
        out[f"{ROOT_SPAN}.self_ms"] = mean_ms(name == root)

        # Rung r of a request is its r-th oracle_steady_state span.
        rungs: list[list[int]] = [[] for _ in ORACLE_LADDER]
        seen: dict[int, int] = {}
        for i in np.flatnonzero(name == self._ids["oracle.oracle_steady_state"]):
            r = seen.get(rid[i], 0)
            seen[rid[i]] = r + 1
            if r < len(rungs):
                rungs[r].append(i)
        svd_parent = parent[name == self._ids["kernel.svd"]]
        for r, spans in enumerate(rungs):
            out[f"oracle.rung{r}.svd_calls"] = (
                float(np.isin(svd_parent, spans).sum()) / n_req)
            out[f"oracle.rung{r}.steady_state_ms"] = (
                float(dur[spans].sum()) / 1e6 / n_req)
        return out
