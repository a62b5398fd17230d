"""Span tracing from outside the library.

The tracer replaces the module-level names one layer of braidforge uses
to call another (and the workloads' own calls into the library) with
wrappers that record a span per call: name, start, end and parent.
The library's files are never touched; uninstall() puts the original
objects back.  Spans live in flat arrays and are reduced to per-layer
figures once the traced section is over.  A layer's self time is its
span duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (module, attribute, span name).  An attribute may be "Class.method".
SITES = (
    ("braidforge.oracle", "tiered_chain", "search.tiered_chain.from_oracle"),
    ("braidforge.certs", "tiered_chain", "search.tiered_chain.from_certs"),
    ("braidforge.search", "bfs_chain", "search.bfs_chain"),
    ("braidforge.search", "neighbors", "kernel.neighbors"),
    ("braidforge.oracle", "_traced_normal_form",
     "decomposition.traced_normal_form"),
    ("braidforge.oracle", "validate_chain", "chains.validate_chain"),
    ("braidforge.certs", "validate_chain", "chains.validate_chain"),
    ("braidforge.certs", "CertStore.certified_sweep",
     "certs.certified_sweep"),
    ("braidforge.certs", "CertStore.lift_fusing_chain",
     "certs.lift_fusing_chain"),
)

OP_SPAN = "op"


def _count_hits(result) -> dict:
    return {"hits": int(result is not None)}


def _count_words(result) -> dict:
    return {"words_out": len(result)}


def _count_steps(args) -> dict:
    return {"steps": len(args[0].steps)}


# Extra counts per span name: computed from the result, or the args.
RESULT_COUNTS = {"search.bfs_chain": _count_hits,
                 "kernel.neighbors": _count_words}
ARG_COUNTS = {"chains.validate_chain": _count_steps}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self._stack: list[int] = []
        self.counts: dict[str, dict[str, int]] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts[name] = {}
        return nid

    def wrap(self, fn, name: str):
        nid = self._id(name)
        clock = time.perf_counter
        start, end, parent, names = self.start, self.end, self.parent, \
            self.name
        stack = self._stack
        on_result = RESULT_COUNTS.get(name)
        on_args = ARG_COUNTS.get(name)
        counts = self.counts[name]

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            for extra in ((on_result(result) if on_result else {}),
                          (on_args(args) if on_args else {})):
                for key, val in extra.items():
                    counts[key] = counts.get(key, 0) + val
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding site in SITES that still exists; warn about
        (and leave out) the ones that are gone."""
        for module_name, attr, span in SITES:
            owner, leaf = self._resolve(module_name, attr)
            if owner is None:
                self.missing.append(span)
                print(f"perfbench: binding site {module_name}.{attr} is "
                      f"gone; {span} metrics are left out", file=sys.stderr)
                continue
            original = owner.__dict__[leaf]
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, span))

    @staticmethod
    def _resolve(module_name: str, attr: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if leaf not in vars(owner):
            return None, None
        return owner, leaf

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def wrap_api(self, api, spans: dict) -> None:
        """Wrap the workloads' own calls: attribute name -> span name."""
        for attr, span in spans.items():
            setattr(api, attr, self.wrap(getattr(api, attr), span))

    # -- reduction ---------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and the
        extra counts."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0,
                      **self.counts[name]} for name in self.names}
        names = self.names
        for i in range(n):
            dur = end[i] - start[i]
            row = out[names[self.name[i]]]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
        return out
