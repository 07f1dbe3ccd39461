"""Deterministic response seeding for replay runs.

A SyntheticResponder acts as the live endpoint during record mode: it reads
the rendered prompt, works out which stage is being asked, and answers the
way a competent code generator would — stage-1 feasibility decisions from
each instance's canonical program against the catalogue in the prompt,
stage-2 implementations and repairs from the shipped fixture sources,
stage-3 programs (canonical when the catalogue suffices, builtin fallback
otherwise). Running the normal pipeline in record mode against it produces
a replay cache that later runs consume without any transport at all.
"""

from __future__ import annotations

import re
from collections import deque

from .gateway import CompletionRequest, LlmGateway
from .reference_modules import FIXTURE_SOURCES, fixture_header

_QUESTION_RE = re.compile(r"^Question:\s*(.+)$", re.MULTILINE)
# a stage-2 prompt asks for a module; a repair prompt names the one to fix
_MODULE_ASK_RE = re.compile(
    r"(?:could you write a new module, |You previously wrote a module, )"
    r"([A-Za-z_][A-Za-z0-9_]*)(?:\(\))?[?,]"
)
_CLASS_NAME_RE = re.compile(r"^class\s+([A-Z][A-Z0-9_]*)\s*\(", re.MULTILINE)
_STATEMENT_MODULE_RE = re.compile(r"^[A-Z][A-Z0-9_]*=([A-Z][A-Z0-9_]*)\(", re.MULTILINE)

# header names that appear in static prompt examples, never in the catalogue
_EXAMPLE_HEADER_NAMES = {"COMPARE_SIZE"}


def program_modules(program_text: str) -> set[str]:
    return set(_STATEMENT_MODULE_RE.findall(program_text))


class SyntheticResponder:
    """Callable transport producing ideal responses for known dataset queries."""

    def __init__(self, instances=()):
        self._by_query: dict[str, object] = {}
        self._source_overrides: dict[str, deque] = {}
        self.calls = 0
        self.add(instances)

    def add(self, instances) -> None:
        for instance in instances:
            self._by_query.setdefault(instance.query, instance)

    def override_source(self, name: str, sources) -> None:
        """Queue replacement stage-2 and repair responses for one module
        (used to seed failing-then-repaired candidate sequences)."""
        self._source_overrides.setdefault(name, deque()).extend(sources)

    def _available_modules(self, prompt: str) -> set[str]:
        names = set(_CLASS_NAME_RE.findall(prompt))
        return names - _EXAMPLE_HEADER_NAMES

    def _lookup(self, prompt: str):
        questions = _QUESTION_RE.findall(prompt)
        if not questions:
            raise LookupError("prompt carries no question line")
        question = questions[-1].strip()
        instance = self._by_query.get(question)
        if instance is None:
            raise LookupError(f"no dataset instance for question {question!r}")
        return instance

    def __call__(self, req: CompletionRequest) -> str:
        self.calls += 1
        prompt = req.prompt
        if "could you write a new module" in prompt or "You previously wrote a module" in prompt:
            name = _MODULE_ASK_RE.findall(prompt)[-1]
            queue = self._source_overrides.get(name)
            if queue:
                return queue.popleft()
            source = FIXTURE_SOURCES.get(name)
            if source is None:
                return f"I do not know how to implement {name}."
            return source
        if "could you identify whether it is possible" in prompt:
            instance = self._lookup(prompt)
            available = self._available_modules(prompt)
            needed = program_modules(instance.canonical_program)
            missing = [m for m in _ordered(needed, instance.canonical_program) if m not in available]
            if not missing:
                return "Yes. The program is:\n" + instance.canonical_program
            quoted = ", ".join(f'"{m}"' for m in missing)
            parts = [
                f"No. We need to make new modules {quoted} first. "
                "Here are the headers of the classes:"
            ]
            for name in missing:
                parts.append(fixture_header(name) if name in FIXTURE_SOURCES else f"class {name}():")
            return "\n".join(parts)
        if prompt.rstrip().endswith("Program:") or "Think step by step" in prompt:
            instance = self._lookup(prompt)
            available = self._available_modules(prompt)
            needed = program_modules(instance.canonical_program)
            if needed <= available:
                return instance.canonical_program
            return instance.fallback_program
        raise LookupError("prompt does not match any known stage")


def _ordered(names: set[str], program_text: str) -> list[str]:
    order = _STATEMENT_MODULE_RE.findall(program_text)
    out = []
    for name in order:
        if name in names and name not in out:
            out.append(name)
    return out


def record_gateway(cache_path: str, responder: SyntheticResponder) -> LlmGateway:
    return LlmGateway(mode="record", cache_path=cache_path, transport=responder)


def seed_learn_and_eval(
    train,
    test,
    lib,
    backend,
    cfg,
    cache_path: str,
    responder: SyntheticResponder | None = None,
):
    """Record a full learn-then-eval session; returns (final library, report).

    The produced cache lets `learn` and `eval` replay the identical session
    offline. Raven split-layout instances never call the gateway, so no
    seeding is needed for them.
    """
    from .harness.evaluate import evaluate
    from .synthesis import run_synthesis

    responder = responder or SyntheticResponder()
    responder.add(train)
    responder.add(test)
    gateway = record_gateway(cache_path, responder)
    lib_after, report = run_synthesis(train, lib, gateway, backend, cfg)
    by_task: dict[str, list] = {}
    for instance in test:
        by_task.setdefault(instance.task, []).append(instance)
    for task, instances in sorted(by_task.items()):
        evaluate(task, instances, lib_after, backend, gateway, model_id=cfg.model_id)
    return lib_after, report
