"""Outside-in tracing: spans around calls into each layer's public functions.

The traced run patches each traced name where it is looked up -- a function
imported with ``from x import f`` is rebound in every :mod:`repro` module
that holds it, a method is replaced on its class -- so no program code
changes.  Each call records a span ``[name, start, end, parent, op]`` in
memory; ``parent`` is the index of the enclosing span (``-1`` at top level)
and ``op`` the operation the span belongs to.  Spans are written out when
the benchmark ends.

A span's *self* time is its duration minus the part of it that its child
spans cover.  A layer's *inclusive* time counts only the outermost span of
each nested run of same-named spans, so a re-entrant call is not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, OP = range(5)


@dataclass(frozen=True)
class Target:
    """One traced callable.

    ``where`` is ``"module:attr"`` or ``"module:Class.method"``.  A function
    is rebound wherever a :mod:`repro` module holds it, unless ``local``
    restricts the patch to ``module`` itself.
    """

    span: str
    where: str
    local: bool = False


@dataclass
class LayerTotals:
    """Aggregated spans of one name."""

    self_s: float = 0.0
    inclusive_s: float = 0.0
    calls: int = 0


@dataclass
class Tracer:
    """Records spans around patched callables; a context manager for the patches."""

    targets: Sequence[Target]
    #: Per-span-name callbacks ``hook(args, kwargs, start, op)`` run on entry.
    hooks: Dict[str, Callable] = field(default_factory=dict)
    spans: List[list] = field(default_factory=list)
    #: Operation id stamped on new spans (set by the runner).
    op: int = -1
    _stack: List[int] = field(default_factory=list)
    _restore: List[Tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, hook = self.spans, self._stack, self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            if hook is not None:
                hook(args, kwargs, record[START], self.op)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            module_name, _, path = target.where.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self.wrap(target.span, cls.__dict__[method]))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(target.span, original)
            owners = [module] if target.local else [
                mod
                for mod_name, mod in list(sys.modules.items())
                if mod is not None
                and (mod_name == "repro" or mod_name.startswith("repro."))
                and getattr(mod, path, None) is original
            ]
            for owner in owners:
                self._patch(owner, path, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                      handle)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: its duration minus the union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, None
        for start, end in sorted(children.get(index, ())):
            if reach is not None and start < reach:
                start = reach
            if end > start:
                covered += end - start
                reach = end
        result.append(span[END] - span[START] - covered)
    return result


def outermost(spans: Sequence[Sequence]) -> List[bool]:
    """Whether each span has no ancestor of the same name."""
    flags = []
    for span in spans:
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        flags.append(parent < 0)
    return flags


def layer_totals(
    spans: Sequence[Sequence], op_factor: Optional[Dict[int, float]] = None
) -> Dict[str, LayerTotals]:
    """Per-name self and inclusive seconds and outermost call counts.

    ``op_factor`` maps an operation id to the host-speed factor of that
    operation; each span's times are scaled by it (1.0 when absent).
    """
    factors = op_factor or {}
    totals: Dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span, own, outer in zip(spans, self_times(spans), outermost(spans)):
        entry = totals[span[NAME]]
        factor = factors.get(span[OP], 1.0)
        entry.self_s += own * factor
        if outer:
            entry.inclusive_s += (span[END] - span[START]) * factor
            entry.calls += 1
    return dict(totals)
