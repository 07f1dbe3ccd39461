"""In-memory spans around modgrow's layers, recorded from outside the program.

`traced()` rebinds the public functions of each modgrow module, and the
methods named in `METHODS`, to wrappers that open a span on entry and close
it on exit. It patches every binding site: ``from .dsl import parse_program``
leaves a separate name in each importing module, so each module whose
attribute is the original function gets the wrapper. It does not use
`sys.settrace`, which the sandbox owns and resets after every call.

A span is (name, start, end, parent). The phase spans the benchmark opens
(setup, learn, eval) are the roots. A layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from modgrow.errors import CacheMissError
from modgrow.sandbox import CapturedError

# (module, function, span name); spans sharing a name aggregate together
FUNCTIONS = (
    ("modgrow.dsl", "parse_program", "dsl.parse_program"),
    ("modgrow.dsl", "validate_program", "dsl.validate_program"),
    ("modgrow.gateway", "render_prompt", "gateway.render_prompt"),
    ("modgrow.gateway", "parse_initialization_response", "gateway.parse_response"),
    ("modgrow.gateway", "extract_module_source", "gateway.parse_response"),
    ("modgrow.gateway", "parse_program_response", "gateway.parse_response"),
    ("modgrow.executor", "execute_program", "executor.execute_program"),
    ("modgrow.executor", "run_builtin", "executor.run_builtin"),
    ("modgrow.registry", "signature_prompt_text", "registry.signature_prompt_text"),
    ("modgrow.registry", "save_library", "registry.save_library"),
    ("modgrow.registry", "load_library", "registry.load_library"),
    ("modgrow.sandbox", "load_candidate", "sandbox.load_candidate"),
    ("modgrow.sandbox", "invoke_candidate", "sandbox.invoke_candidate"),
    ("modgrow.scene", "load_scene", "scene.load_scene"),
    ("modgrow.harness.datasets", "generate_dataset", "datasets.generate_dataset"),
    ("modgrow.harness.datasets", "load_dataset", "datasets.load_dataset"),
    ("modgrow.harness.datasets", "build_bindings", "datasets.build_bindings"),
    ("modgrow.synthesis", "initialize_modules", "synthesis.initialize_modules"),
    ("modgrow.synthesis", "compute_pass_rate", "synthesis.compute_pass_rate"),
    ("modgrow.harness.evaluate", "evaluate", "evaluate.evaluate"),
    ("modgrow.harness.evaluate", "solve_puzzle_with_modules", "evaluate.solve_puzzle_with_modules"),
)

# (module, class, method, span name); None names the span by gateway mode
METHODS = (
    ("modgrow.gateway", "LlmGateway", "__init__", "gateway.cache_load"),
    ("modgrow.gateway", "LlmGateway", "complete", None),
    ("modgrow.registry", "ExecutionRegistry", "invoke_generated", "registry.invoke_generated"),
    ("modgrow.backends", "SyntheticBackend", "locate", "backends.locate"),
    ("modgrow.backends", "SyntheticBackend", "answer_question", "backends.answer_question"),
    ("modgrow.backends", "SyntheticBackend", "score_alignment", "backends.score_alignment"),
    ("modgrow.backends", "SyntheticBackend", "depth_of", "backends.depth_of"),
    ("modgrow.backends", "SyntheticBackend", "general_text", "backends.general_text"),
    ("modgrow.scene", "DepthGrid", "region", "scene.DepthGrid.region"),
    ("modgrow.replay_seed", "SyntheticResponder", "__call__", "replay_seed.responder"),
)


class SpanRecorder:
    """Spans and event counts of one traced cycle, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.events: dict[tuple[str, str], int] = defaultdict(int)  # (phase, name) -> count
        self._stack: list[int] = []

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextlib.contextmanager
    def phase(self, name: str):
        if self._stack:
            raise RuntimeError(f"phase {name} opened inside span {self.innermost()}")
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str) -> None:
        phase = self.spans[self._stack[0]][0] if self._stack else "none"
        self.events[(phase, name)] += 1

    def aggregate(self) -> dict[tuple[str, str], list]:
        """(phase, span name) -> [calls, self seconds]; phases are the roots."""
        phase_of: list[str] = []
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end is None:
                raise RuntimeError(f"span {name} never closed")
            phase_of.append(name if parent is None else phase_of[parent])
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = totals[(phase_of[i], name)]
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
        return dict(totals)

    def write(self, fh, cycle: int) -> None:
        """One JSON array per span: cycle, index, name, start, end, parent."""
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(json.dumps([cycle, i, name, start, end, parent]) + "\n")


def _wrap(rec: SpanRecorder, fn, name, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name(args) if callable(name) else name
        if rec.innermost() == span:  # a subclass calling up into the wrapped method
            return fn(*args, **kwargs)
        index = rec.begin(span)
        try:
            result = fn(*args, **kwargs)
        except CacheMissError:
            rec.count("gateway.cache_miss.count")
            raise
        finally:
            rec.end(index)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _complete_span(args) -> str:
    return "gateway.complete" if args[0].mode == "replay" else "gateway.complete_record"


def _result_hooks(rec: SpanRecorder) -> dict:
    """Count sandbox failures by the sandbox's own `CapturedError.kind`."""

    def invoked(result):
        if isinstance(result, CapturedError):
            rec.count(f"sandbox.errors.{result.kind}")

    def loaded(handle):
        if handle.load_state != "loaded" and handle.error is not None:
            rec.count(f"sandbox.errors.{handle.error.kind}")

    return {"sandbox.invoke_candidate": invoked, "sandbox.load_candidate": loaded}


def _modgrow_modules() -> list:
    return [m for k, m in sys.modules.items() if k == "modgrow" or k.startswith("modgrow.")]


@contextlib.contextmanager
def traced(rec: SpanRecorder, extra_methods=()):
    """Patch every wrapped layer for the duration of the block, then restore.

    `extra_methods` are (class, method, span name) triples for the
    benchmark's own classes, such as a responder subclass.
    """
    hooks = _result_hooks(rec)
    restore: list[tuple[object, str, object]] = []
    try:
        functions = [(getattr(importlib.import_module(m), attr), span) for m, attr, span in FUNCTIONS]
        methods = [(getattr(importlib.import_module(m), cls), method, span) for m, cls, method, span in METHODS]
        modules = _modgrow_modules()  # after the imports above, so none is missed
        for original, span in functions:
            wrapper = _wrap(rec, original, span, hooks.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, value))
                        setattr(module, key, wrapper)
        for cls, method, span in [*methods, *extra_methods]:
            original = cls.__dict__[method]
            restore.append((cls, method, original))
            setattr(cls, method, _wrap(rec, original, span or _complete_span))
        yield rec
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
