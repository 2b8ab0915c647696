"""Span recording for the traced run, installed from the benchmark's files.

Each wrapper records ``(name, start, end, child_seconds, attrs, top)`` around
one call into a layer's public function.  Spans nest per thread, so a span's
self time is its duration minus the time its child spans cover.  The clock
is ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, shared by every process
on the machine), so spans from server workers line up with the client's
measurement window.

Spans stay in memory.  A forked worker process starts with an empty list and
writes its spans to ``<directory>/spans-<pid>.json`` when the process exits
normally; the serving parent writes its own when ``repro serve`` returns.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# span fields
NAME, START, END, CHILD, ATTRS, TOP = range(6)


class Recorder:
    """Thread-aware span collector (see module docs)."""

    def __init__(self, directory: Path | None = None) -> None:
        self.spans: list[list] = []
        self.directory = directory
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        function: Callable,
        attrs: Callable[[tuple, Any], Any] | None = None,
    ) -> Callable:
        """``function`` recording one span per call; ``attrs(args, result)``
        annotates the span once the call returns."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = [name, time.perf_counter(), 0.0, 0.0, None, not stack]
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += span[END] - span[START]
                recorder.spans.append(span)
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return traced

    def patch(self, owner: Any, attribute: str, name: str, attrs=None) -> None:
        """Replace ``owner.attribute`` by its traced wrapper (undone by
        :meth:`uninstall`).  Classmethods stay classmethods."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, original.__func__, attrs))
        else:
            replacement = self.wrap(name, original, attrs)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # per-process output
    # ------------------------------------------------------------------
    def write_on_fork_exit(self) -> None:
        """Have every process forked from here write its spans on exit."""
        multiprocessing.util.register_after_fork(self, Recorder._forked)

    def _forked(self) -> None:
        self.spans = []
        self._local = threading.local()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        if self.directory is None:
            return
        path = self.directory / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({"pid": os.getpid(), "spans": self.spans}))


def load_spans(directory: Path) -> dict[int, list[list]]:
    """Every process's spans under ``directory``, keyed by pid."""
    spans = {}
    for path in sorted(directory.glob("spans-*.json")):
        payload = json.loads(path.read_text())
        spans[payload["pid"]] = payload["spans"]
    return spans


# ----------------------------------------------------------------------
# the layer boundaries
# ----------------------------------------------------------------------
def _erc_attrs(args: tuple, result: Any) -> dict:
    return {"cells": len(args[1]), "entities": sum(len(found) for found in result)}


def _endpoint_attrs(args: tuple, result: Any) -> str:
    return args[1]


def _pipe_attrs(args: tuple, reply: Any) -> dict:
    message = args[1]
    handler = None
    if reply and reply[0] == "ok":
        handler = reply[2]
    elif reply and reply[0] == "error":
        handler = reply[3]
    return {"kind": message[0], "handler_seconds": handler}


def install_core(recorder: Recorder) -> None:
    """Spans around candidates, features, graph, BP, decode and the wire API."""
    import repro.api.types as api_types
    import repro.core.annotator as annotator_module
    import repro.core.inference as inference_module
    from repro.api.types import AnnotateRequest, AnnotateResponse
    from repro.core.annotator import TableAnnotator
    from repro.core.candidates_batched import BatchedCandidateEngine, BatchedFeatureComputer
    from repro.core.problem import FeatureComputer
    from repro.graph.compiled import BatchedMaxProductBP
    from repro.search.annotated_search import AnnotatedSearcher
    from repro.search.join_search import JoinSearcher

    recorder.patch(BatchedCandidateEngine, "cell_candidates_batch", "candidates.erc", _erc_attrs)
    recorder.patch(BatchedCandidateEngine, "column_type_candidates", "candidates.tc")
    recorder.patch(BatchedCandidateEngine, "relation_candidates", "candidates.bcc")
    for index in range(1, 6):
        attribute = f"f{index}_block"
        owner = BatchedFeatureComputer if attribute in BatchedFeatureComputer.__dict__ else FeatureComputer
        recorder.patch(owner, attribute, f"features.f{index}")
    recorder.patch(TableAnnotator, "annotate", "core.annotate")
    recorder.patch(TableAnnotator, "build_problem", "core.build_problem")
    recorder.patch(annotator_module, "annotate_collective", "annotation.collective")
    recorder.patch(inference_module, "build_compiled_graph", "graph.compile")
    recorder.patch(BatchedMaxProductBP, "run_paper_schedule", "bp.run")
    recorder.patch(AnnotateResponse, "to_json", "api.to_json")
    recorder.patch(AnnotateRequest, "from_json", "api.from_json")
    recorder.patch(api_types, "encode_json", "api.encode_json")
    recorder.patch(AnnotatedSearcher, "search", "search.annotated")
    recorder.patch(JoinSearcher, "search", "search.join")


def install_serve(recorder: Recorder) -> None:
    """Spans around the serving parent's dispatch path and the workers'
    request handler (inherited by every worker the pool forks)."""
    import repro.serve.dispatcher as dispatcher_module
    import repro.serve.server as server_module
    from repro.serve.dispatcher import Dispatcher, FifoSlots
    from repro.serve.pool import WorkerHandle
    from repro.serve.state import ServeState

    recorder.patch(Dispatcher, "call", "dispatch.call", _endpoint_attrs)
    recorder.patch(FifoSlots, "acquire", "dispatch.admission")
    recorder.patch(WorkerHandle, "call", "pipe.call", _pipe_attrs)
    recorder.patch(ServeState, "handle", "worker.handle", _endpoint_attrs)
    recorder.patch(server_module, "encode_json", "api.encode_json")
    recorder.patch(dispatcher_module, "spawn_worker", "setup.spawn")
    recorder.patch(dispatcher_module, "load_bundle", "setup.bundle_load")


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
class Summary:
    """Per-name counts, totals and self times of a span list."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        for span in self.spans:
            duration = span[END] - span[START]
            self.count[span[NAME]] += 1
            self.total[span[NAME]] += duration
            self.self_time[span[NAME]] += duration - span[CHILD]

    def named(self, name: str) -> list[list]:
        return [span for span in self.spans if span[NAME] == name]

    def top_level_seconds(self) -> float:
        """Time covered by spans that had no traced caller: the blocking
        path's self times summed over every layer below them."""
        return sum(span[END] - span[START] for span in self.spans if span[TOP])

    def mean_ms(self, name: str) -> float:
        return 1000.0 * self.total[name] / self.count[name] if self.count[name] else 0.0
