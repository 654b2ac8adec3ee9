"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry point of every layer -- module
functions where the pipeline looks them up, methods on their classes --
so each call records a span (name, start, end, parent span, query id)
and the counters the layer exposes at that boundary.  Spans stay in
memory; :func:`uninstall` restores every original.  Nothing inside the
program changes: spans inside it are a separate piece of work.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: layer of every wrapped entry point, by span name
SPAN_LAYERS: Dict[str, str] = {
    "learn_distributions": "bayesnet",
    "build_ctable": "ctable",
    "CTable.apply_answer": "ctable",
    "ProbabilityEngine.probability_many": "probability",
    "ProbabilityEngine.probability": "probability",
    "IncrementalRanker.rank": "selection",
    "prefetch_round": "selection",
    "select_expression": "selection",
    "UtilityEngine.gains": "selection",
    "post_batch": "crowd",
    "AnswerJournal.append": "session",
    "atomic_write": "persistence",
}

#: layers in report order
LAYERS = (
    "bayesnet",
    "ctable",
    "probability",
    "selection",
    "crowd",
    "session",
    "persistence",
)

ROOT = "query"


class SpanRecorder:
    """In-memory span store; one span stack per thread."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, query id]
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.journal_paths = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_query = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
                query = self.spans[parent][4]
            else:
                parent = -1
                query = self._next_query
                self._next_query += 1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, query])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def inside(self, layer: str) -> bool:
        """Is the innermost open span of this thread's stack in ``layer``?"""
        stack = self._stack()
        return bool(stack) and SPAN_LAYERS.get(self.spans[stack[-1]][0]) == layer

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    # ------------------------------------------------------------------
    def self_times(self) -> Tuple[Dict[str, float], float, int]:
        """Self time per span name, root wall time and root count.

        A span's self time is its duration minus its children's.  Only
        spans under a ``query`` root count, so client-side spans never
        inflate the attribution.  Parents precede their children in
        :attr:`spans`, so one forward pass finds every span's root.
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        roots: List[int] = []
        by_name: Dict[str, float] = defaultdict(float)
        root_time = 0.0
        n_roots = 0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if name == ROOT:
                roots.append(index)
                root_time += end - start
                n_roots += 1
                continue
            root = roots[parent] if parent >= 0 else -1
            roots.append(root)
            if root >= 0:
                by_name[name] += (end - start) - child_time[index]
        return dict(by_name), root_time, n_roots


def layer_times(by_name: Dict[str, float]) -> Dict[str, float]:
    """Fold per-span-name self times into per-layer self times."""
    layers = {layer: 0.0 for layer in LAYERS}
    for name, seconds in by_name.items():
        layers[SPAN_LAYERS[name]] += seconds
    return layers


def _arg(args, kwargs, position: int, name: str):
    """A wrapped call's argument, whether passed by position or keyword."""
    return args[position] if len(args) > position else kwargs[name]


def _wrap(recorder: SpanRecorder, name: str, fn: Callable, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args, kwargs) if before is not None else None
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(args, kwargs, result, token)
        return result

    return wrapper


def _targets(recorder: SpanRecorder) -> List[Tuple[object, str, str, Optional[Callable], Optional[Callable]]]:
    """(owner, attribute, span name, before hook, after hook) per entry point."""
    from repro.core import framework, strategies
    from repro.core.selection import IncrementalRanker
    from repro.core.utility_engine import UtilityEngine
    from repro.crowd.platform import SimulatedCrowdPlatform
    from repro.ctable.ctable import CTable
    from repro.probability.engine import ProbabilityEngine
    from repro import persistence
    from repro.service import store
    from repro.session.journal import AnswerJournal

    add = recorder.add

    def learned(args, kwargs, result, token):
        stats = kwargs.get("stats") or {}
        add("bayesnet.inference_calls", stats.get("inference_calls", 0))
        add("bayesnet.signature_groups", stats.get("signature_groups", 0))

    def built(args, kwargs, result, token):
        stats = result.build_stats
        add("ctable.pairs_tested", stats.get("pairs_tested", 0))
        add("ctable.pairs_pruned", stats.get("pairs_pruned", 0))
        add("ctable.open_conditions", stats.get("open_conditions", 0))

    # Engine computations are counted at the outermost probability span
    # only, so a nested call is never counted twice.
    def engine_before(args, kwargs):
        if recorder.inside("probability"):
            return None
        return args[0].n_computations

    def engine_after(count_conditions):
        def after(args, kwargs, result, token):
            add("probability.calls", 1)
            add("probability.conditions", count_conditions(args, kwargs))
            if token is not None:
                add("probability.computations", args[0].n_computations - token)

        return after

    def ranked_before(args, kwargs):
        return args[0].n_rescored

    def ranked(args, kwargs, result, token):
        add("selection.objects_rescored", args[0].n_rescored - token)

    def gains(args, kwargs, result, token):
        add("selection.utility_candidates", len(_arg(args, kwargs, 1, "pairs")))

    def posted(args, kwargs, result, token):
        add("crowd.tasks_posted", len(_arg(args, kwargs, 1, "tasks")))
        add("crowd.tasks_answered", len(result))

    def applied(args, kwargs, result, token):
        add("ctable.apply_calls", 1)

    def journaled(args, kwargs, result, token):
        add("session.journal_appends", 1)
        recorder.journal_paths.add(str(args[0].path))

    targets = [
        (framework, "learn_distributions", "learn_distributions", None, learned),
        (framework, "build_ctable", "build_ctable", None, built),
        (CTable, "apply_answer", "CTable.apply_answer", None, applied),
        (
            ProbabilityEngine,
            "probability_many",
            "ProbabilityEngine.probability_many",
            engine_before,
            engine_after(lambda args, kwargs: len(_arg(args, kwargs, 1, "conditions"))),
        ),
        (
            ProbabilityEngine,
            "probability",
            "ProbabilityEngine.probability",
            engine_before,
            engine_after(lambda args, kwargs: 1),
        ),
        (IncrementalRanker, "rank", "IncrementalRanker.rank", ranked_before, ranked),
        (UtilityEngine, "gains", "UtilityEngine.gains", None, gains),
        (SimulatedCrowdPlatform, "post_batch", "post_batch", None, posted),
        (AnswerJournal, "append", "AnswerJournal.append", None, journaled),
    ]
    # The checkpoint writer calls the helper through a private alias and
    # the service store imported it by name: wrap every binding.
    for owner, attribute in (
        (persistence, "atomic_write"),
        (persistence, "_atomic_write"),
        (store, "atomic_write"),
    ):
        targets.append((owner, attribute, "atomic_write", None, None))
    pending = [strategies.TaskSelectionStrategy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method in ("prefetch_round", "select_expression"):
            if method in vars(cls):
                targets.append((cls, method, method, None, None))
    return targets


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps."""
    saved = []
    for owner, attribute, name, before, after in _targets(recorder):
        original = vars(owner)[attribute]
        saved.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(recorder, name, original, before, after))

    def uninstall() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return uninstall


def write_spans(recorder: SpanRecorder, path) -> None:
    """Write every span as one JSON line: name, start, end, parent, query."""
    with open(path, "w") as handle:
        for index, (name, start, end, parent, query) in enumerate(recorder.spans):
            handle.write(
                json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "query": query}
                )
                + "\n"
            )


def journal_bytes(recorder: SpanRecorder) -> int:
    """Bytes in every journal the wrapped appends wrote to, read now."""
    total = 0
    for path in recorder.journal_paths:
        try:
            total += os.path.getsize(path)
        except OSError:
            pass
    return total
