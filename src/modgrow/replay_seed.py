"""Deterministic response seeding for replay runs.

A SyntheticResponder acts as the live endpoint during record mode: it reads
the rendered prompt, works out which stage is being asked, and answers the
way a competent code generator would — stage-1 feasibility decisions from
each instance's canonical program against the catalogue in the prompt,
stage-2 implementations and repairs from the shipped fixture sources,
stage-3 programs (canonical when the catalogue suffices, builtin fallback
otherwise). `seed_learn_and_eval` records a replay cache against it: the
calls of a record-mode `run_synthesis`, then the stage-3 request of every
test question a program answers. It runs none of those programs, since
only their requests and responses go into the cache. Later `learn` and
`eval` runs consume the cache without any transport at all.
"""

from __future__ import annotations

import re
from collections import deque
from functools import lru_cache

from .dsl import STATEMENT_LINE_RE
from .gateway import CompletionRequest, LlmGateway
from .harness.datasets import task_spec
from .harness.evaluate import program_prompts
from .reference_modules import FIXTURE_SOURCES, fixture_header
from .synthesis import run_synthesis

_QUESTION_RE = re.compile(r"^Question:\s*(.+)$", re.MULTILINE)
# a stage-2 prompt asks for a module; a repair prompt names the one to fix
_MODULE_ASK_RE = re.compile(
    r"(?:could you write a new module, |You previously wrote a module, )"
    r"([A-Za-z_][A-Za-z0-9_]*)(?:\(\))?[?,]"
)
_CLASS_NAME_RE = re.compile(r"^class\s+([A-Z][A-Z0-9_]*)\s*\(", re.MULTILINE)

# header names that appear in static prompt examples, never in the catalogue
_EXAMPLE_HEADER_NAMES = {"COMPARE_SIZE"}


def program_modules(program_text: str) -> set[str]:
    return set(STATEMENT_LINE_RE.findall(program_text))


def _last_match(pattern: re.Pattern, text: str, pos: int = 0) -> re.Match | None:
    found = None
    for found in pattern.finditer(text, pos):
        pass
    return found


def _last_question(prompt: str) -> re.Match | None:
    """The last match of `_QUESTION_RE` in `prompt`, found from its end.

    A match runs from a ``Question:`` line through any whitespace after the
    colon, newlines included, to the end of a line. So one from further up
    can swallow the last ``Question:`` line only across lines of whitespace
    or other ``Question:`` lines; the scan starts above those, below the
    nearest other line, which every earlier match ends before. Only if the
    lines from there match nothing is the whole prompt scanned.
    """
    start = prompt.rfind("\nQuestion:") + 1
    while start:
        above = prompt.rfind("\n", 0, start - 1) + 1
        line = prompt[above : start - 1]
        if line.strip() and not line.startswith("Question:"):
            break
        start = above
    return _last_match(_QUESTION_RE, prompt, start) or _last_match(_QUESTION_RE, prompt)


@lru_cache(maxsize=64)
def _head_modules(head: str) -> frozenset[str]:
    """Class names declared in a prompt head: the catalogue and examples."""
    return frozenset(_CLASS_NAME_RE.findall(head))


class SyntheticResponder:
    """Callable transport producing ideal responses for known dataset queries.

    It reads a prompt from its end. The question is the last ``Question:``
    line's, found by `_last_question` without scanning the catalogue before
    it. The modules on offer are the classes the prompt declares, less the
    static examples' COMPARE_SIZE; those of the head before the question
    line are read once per distinct head by `_head_modules`, a cache keyed
    on the head text alone, never on a question or a response.
    """

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

    def _lookup(self, prompt: str):
        """The instance the prompt's last question asks about, and the
        modules the prompt declares (less those of static examples)."""
        match = _last_question(prompt)
        if match is None:
            raise LookupError("prompt carries no question line")
        question = match.group(1).strip()
        instance = self._by_query.get(question)
        if instance is None:
            raise LookupError(f"no dataset instance for question {question!r}")
        # no class declaration runs across the start of a Question: line
        head = match.start()
        available = _head_modules(prompt[:head]).union(_CLASS_NAME_RE.findall(prompt, head))
        return instance, available - _EXAMPLE_HEADER_NAMES

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
            instance, available = self._lookup(prompt)
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
            instance, available = self._lookup(prompt)
            needed = program_modules(instance.canonical_program)
            if needed <= available:
                return instance.canonical_program
            return instance.fallback_program
        raise LookupError("prompt does not match any known stage")


def _ordered(names: set[str], program_text: str) -> list[str]:
    order = STATEMENT_LINE_RE.findall(program_text)
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
    offline. After `run_synthesis` has recorded the learn calls, the stage-3
    request of each test instance is sent over the grown library's catalogue
    in the order `evaluate` sends it: tasks by name, then instances by `id`.
    No program is parsed or run. The test instances a task's `split_layout`
    marks (raven's split-layout puzzles) are answered by the module driver,
    which never calls the gateway, so no request is sent for them. An error
    of the transport, such as the `LookupError` of a responder that does not
    know a question, propagates.
    """
    responder = responder or SyntheticResponder()
    responder.add(train)
    responder.add(test)
    asked = []
    for instance in test:
        split_layout = task_spec(instance.task).split_layout
        if split_layout is None or not split_layout(instance):
            asked.append(instance)
    with record_gateway(cache_path, responder) as gateway:
        lib_after, report = run_synthesis(train, lib, gateway, backend, cfg)
        if asked:  # the catalogue text is built only when a request carries it
            prompts = program_prompts(lib_after, cfg.model_id)
            for instance in sorted(asked, key=lambda i: (i.task, i.id)):
                gateway.complete(*prompts.request(instance.query))
    return lib_after, report
