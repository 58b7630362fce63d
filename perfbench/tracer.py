"""Spans around every public function and method of the splitvote layers.

The tracer lives in the benchmark, not in the program: ``install`` wraps
each public function and method defined in a layer module and rebinds the
wrapper in every ``splitvote.*`` module that holds the original (``protocol``
does ``from .blindsig import confirm``, so patching ``blindsig`` alone would
miss its calls).  ``uninstall`` puts the originals back; ``installed``
does both around a ``with`` block.

A span records name, start, end and parent.  Spans are kept in flat arrays
for one iteration; ``fold`` turns them into per-name call counts, calls per
caller and self time, a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# cli is a thin argparse layer over harness and gets no spans
LAYERS = ("modmath", "blindsig", "sharing", "protocol", "adversary", "harness")

# calls whose result says whether the work was useful
OUTCOMES = {
    "blindsig.confirm": lambda transcript: transcript.accepted,
    "protocol.VoteServer.store_share": lambda result: result[0],
}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    accepted: int = 0
    # calls per name of the direct parent span ("" for none)
    callers: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.accepted: dict[int, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, accepted, clock = self.stack, self.accepted, perf_counter
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                accepted[nid] = accepted.get(nid, 0) + 1
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(f"splitvote.{layer}") for layer in LAYERS]
        bound = [m for n, m in sys.modules.items() if n == "splitvote" or n.startswith("splitvote.")]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self._wrap(f"{layer}.{attr}", obj)
                    for holder in bound:
                        for name, value in list(vars(holder).items()):
                            if value is obj:
                                self._set(holder, name, traced)
                elif inspect.isclass(obj):
                    self._install_methods(f"{layer}.{attr}", obj)

    def _install_methods(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(member):
                self._set(cls, attr, self._wrap(f"{prefix}.{attr}", member))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(f"{prefix}.{attr}", member.__func__)))

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        for spans in (self.name_ids, self.parents, self.starts, self.ends):
            del spans[:]
        self.accepted.clear()

    def fold(self) -> dict[str, SpanStats]:
        """Per-name stats of the spans recorded since ``clear``, then clear."""
        names, name_ids, parents = self.names, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        covered = [0.0] * len(starts)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[index] - starts[index]
        stats = {name: SpanStats() for name in names}
        for index, nid in enumerate(name_ids):
            entry = stats[names[nid]]
            entry.calls += 1
            entry.self_s += ends[index] - starts[index] - covered[index]
            parent = parents[index]
            entry.callers[names[name_ids[parent]] if parent >= 0 else ""] += 1
        for nid, count in self.accepted.items():
            stats[names[nid]].accepted = count
        self.clear()
        return stats
