"""Host-time layer spans for the traced benchmark run.

A :class:`SpanRecorder` keeps nested spans in memory — name, start, end,
parent span and the flush/query/commit context that caused them — in
flat typed arrays, and accumulates each name's *self time* as spans
close: a span's duration minus the part of it its child spans cover.
Spans nest strictly (one process, no threads), so the covered part is
the sum of the children's durations.

The wrappers put spans around existing callables at run time, from the
benchmark's own files; the program under test is not edited.  Plain
functions get one span per call.  Generator functions (the kernel's
effect plans) get one span per step, so a plan's time is charged to its
layer even though the kernel interleaves it with other processes; every
step of one plan shares the plan's context.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

NO_PARENT = -1
NO_CONTEXT = -1


class SpanRecorder:
    """Nested spans kept in memory, with self time per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Wrappers record only while this is true, so set-up and
        #: correctness checks stay out of the per-layer figures.
        self.active = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.contexts = array("i")
        #: Context id -> its kind ("flush", "query", "commit", ...).
        self.context_kinds: List[str] = []
        #: Span name -> seconds not covered by child spans.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Span name -> number of spans.
        self.spans: Counter = Counter()
        #: Free-form counters kept beside the spans (work done, retries).
        self.counts: Counter = Counter()
        #: Counter name -> distinct values seen (e.g. transaction ids).
        self.distinct: Dict[str, set] = defaultdict(set)
        # Open spans, innermost last: [index, name id, start, child seconds].
        self._open: List[list] = []

    # -- contexts ---------------------------------------------------------------

    def new_context(self, kind: str) -> int:
        """Allocate the id of one flush, query or commit."""
        self.context_kinds.append(kind)
        return len(self.context_kinds) - 1

    def current_context(self) -> int:
        if not self._open:
            return NO_CONTEXT
        return self.contexts[self._open[-1][0]]

    def in_context(self, kind: str) -> bool:
        context = self.current_context()
        return context != NO_CONTEXT and self.context_kinds[context] == kind

    # -- spans ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def begin(self, name: str, context: Optional[int] = None) -> None:
        """Open a span; it inherits the enclosing span's context unless
        one is given."""
        if context is None:
            context = self.current_context()
        index = len(self.starts)
        ident = self._name_id(name)
        start = self.clock()
        self.starts.append(start)
        self.ends.append(start)
        self.name_ids.append(ident)
        self.parents.append(self._open[-1][0] if self._open else NO_PARENT)
        self.contexts.append(context)
        self._open.append([index, ident, start, 0.0])

    def end(self) -> None:
        """Close the innermost open span."""
        index, ident, start, child_s = self._open.pop()
        now = self.clock()
        self.ends[index] = now
        duration = now - start
        name = self.names[ident]
        self.self_s[name] += duration - child_s
        self.spans[name] += 1
        if self._open:
            self._open[-1][3] += duration

    def innermost(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.names[self._open[-1][1]] if self._open else None

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def __len__(self) -> int:
        return len(self.starts)

    # -- export -----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span, column by column, as gzipped JSON."""
        document = {
            "names": self.names,
            "context_kinds": self.context_kinds,
            "columns": ["name", "start", "end", "parent", "context"],
            "name": self.name_ids.tolist(),
            "start": self.starts.tolist(),
            "end": self.ends.tolist(),
            "parent": self.parents.tolist(),
            "context": self.contexts.tolist(),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle)


def wrap_function(
    recorder: SpanRecorder,
    fn: Callable,
    name: str,
    context_kind: Optional[str] = None,
    after: Optional[Callable] = None,
) -> Callable:
    """``fn`` with one span per call.  ``context_kind`` makes each call a
    new context; ``after(args, kwargs, result)`` runs inside the span
    when the call returns.  A call made directly inside a span of the
    same name (recursion, a ``super()`` call, a batch helper calling its
    per-item form) is folded into that span: no span, no ``after``."""

    def wrapper(*args, **kwargs):
        if not recorder.active or recorder.innermost() == name:
            return fn(*args, **kwargs)
        context = (
            recorder.new_context(context_kind) if context_kind is not None else None
        )
        recorder.begin(name, context)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        finally:
            recorder.end()

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def step_spans(
    recorder: SpanRecorder,
    generator,
    name: str,
    context: int,
    on_error: Optional[Callable[[BaseException], None]] = None,
):
    """Drive ``generator`` step by step, one span per step.  Effects and
    sent values pass through unchanged; ``close()`` and thrown
    exceptions reach the inner generator.  ``on_error`` sees any
    exception (other than the generator being closed) that ends it."""
    value = None
    error: Optional[BaseException] = None
    while True:
        timed = recorder.active
        if timed:
            recorder.begin(name, context)
        try:
            if error is not None:
                effect = generator.throw(error)
            else:
                effect = generator.send(value)
        except StopIteration as stop:
            return stop.value
        except BaseException as exc:
            if on_error is not None and not isinstance(exc, GeneratorExit):
                on_error(exc)
            raise
        finally:
            if timed:
                recorder.end()
        try:
            value = yield effect
            error = None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:  # re-raised inside the inner generator
            value, error = None, exc


def wrap_generator_function(
    recorder: SpanRecorder,
    fn: Callable,
    name: str,
    context_kind: str,
    on_start: Optional[Callable] = None,
    on_error: Optional[Callable[[BaseException], None]] = None,
) -> Callable:
    """``fn`` (a generator function) with one span per step; each call
    is a new context of ``context_kind``.  ``on_start(args, kwargs)``
    runs when the generator is created."""

    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        if on_start is not None:
            on_start(args, kwargs)
        return step_spans(
            recorder,
            fn(*args, **kwargs),
            name,
            recorder.new_context(context_kind),
            on_error,
        )

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def rebind(self, original: Callable, replacement: Callable, prefix: str) -> None:
        """Replace ``original`` in every loaded module under ``prefix``
        that holds it — modules that did ``from m import f`` keep their
        own binding, so patching the defining module alone misses them."""
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if module_name != prefix and not module_name.startswith(prefix + "."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attribute, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)
