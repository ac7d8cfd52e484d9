"""In-memory spans for the traced run.

The traced run replaces every public function of resqnn's modules with a
wrapper that records one span per call: a name, a start, an end and the span
that was open when the call began (its parent). Wrappers are bound at every
name a module binds the function to (``trainer.ptrace_qubits`` as well as
``qlinalg.ptrace_qubits``), so calls between modules are caught too. The
untraced run never calls :func:`instrument`.

Spans stay in memory until :meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Sequence


class Tracer:
    """Records nested spans; one caller, so a stack gives each span's parent.

    Times and parents are kept in typed arrays: a traced run records about
    a million spans.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        open_span, close_span = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)

        return traced

    def write(self, path: Path) -> None:
        """Write all spans as gzipped CSV: index, parent, name, start_s, end_s."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("index,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                handle.write(f"{i},{parent},{name},{start!r},{end!r}\n")


def instrument(tracer: Tracer, modules: Sequence[ModuleType]) -> list[str]:
    """Wrap the public functions of ``modules`` at every name bound to them.

    A function is public when its defining module lists it in ``__all__``;
    its span is named ``<module>.<function>`` after the defining module's
    last dotted component. Returns the span names installed.
    """
    installed = []
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrapper = tracer.wrap(name, fn)
            for other in modules:
                for bound, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, bound, wrapper)
            installed.append(name)
    return installed


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    One caller and a stack of open spans make children nest inside their
    parent without overlapping one another, so their durations simply add.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[i] - starts[i]
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


def aggregate(
    names: Sequence[str],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    selves: Sequence[float],
    include: Sequence[bool],
) -> dict[str, LayerTotals]:
    """Per-name calls, inclusive and self time over the spans marked ``include``.

    ``selves`` are the spans' self times (:func:`self_times`). A span nested
    inside another of the same name adds to the calls and the self time but
    not again to the inclusive time.
    """
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for i, name in enumerate(names):
        if not include[i]:
            continue
        entry = totals[name]
        entry.calls += 1
        entry.self_s += selves[i]
        ancestor = parents[i]
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = parents[ancestor]
        if ancestor < 0:
            entry.inclusive_s += ends[i] - starts[i]
    return dict(totals)


def roots(parents: Sequence[int]) -> list[int]:
    """The outermost span above each span (itself for a root)."""
    out = []
    for i, parent in enumerate(parents):
        out.append(i if parent < 0 else out[parent])
    return out
