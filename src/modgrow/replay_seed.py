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
from dataclasses import dataclass

from .dsl import STATEMENT_LINE_RE
from .gateway import CompletionRequest, LlmGateway
from .harness.evaluate import program_prompts, stage3_plan
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


# The phrases that tell the stages apart. None holds a "Q", so none runs
# across the start of a ``Question:`` line: each is in the text above the
# last such line or in the text from it on.
_STAGE_PHRASES = (
    "could you write a new module",
    "You previously wrote a module",
    "could you identify whether it is possible",
    "Think step by step",
)


@dataclass(frozen=True)
class _Head:
    """What the responder reads in the part of a prompt above its last
    ``Question:`` line: the stage phrases it holds, the name its last module
    ask names (None when it has none), and the class names it declares. No
    module ask or class declaration runs across the start of a ``Question:``
    line either: an ask holds no newline, and a declared name would stop at
    the "Q" of "Question:", where no "(" follows."""

    text: str
    phrases: frozenset[str]
    last_ask: str | None
    modules: frozenset[str]


# the part above of a prompt without a later ``Question:`` line: nothing
_NO_HEAD = _Head("", frozenset(), None, frozenset())


class SyntheticResponder:
    """Callable transport producing ideal responses for known dataset queries.

    It reads a prompt in two parts, cut where its last ``Question:`` line
    starts. The part above, the catalogue and the examples, is read into a
    `_Head`, and only the last one read is kept: a prompt whose part above
    has the kept length and starts with the kept text reuses it, after one
    comparison. A recording session sends its requests over one catalogue
    back to back, so that one head serves them all, and a responder holds
    one head's text however long it lives. Each answer then searches only
    the part from the cut on, a question and a few lines, for the stage
    phrases, the module ask and the class names, and reads its question
    with `_last_question`. So a stage-3 answer costs its question, not the
    catalogue above it; a stage-1 or stage-3 answer compares the head
    twice, once to tell the stage and once in `_lookup`, which subclasses
    may override. The modules on offer are the classes the prompt declares,
    less the static examples' COMPARE_SIZE.
    """

    def __init__(self, instances=()):
        self._by_query: dict[str, object] = {}
        self._source_overrides: dict[str, deque] = {}
        self._last_head = _NO_HEAD
        self.calls = 0
        self.add(instances)

    def add(self, instances) -> None:
        for instance in instances:
            self._by_query.setdefault(instance.query, instance)

    def override_source(self, name: str, sources) -> None:
        """Queue replacement stage-2 and repair responses for one module
        (used to seed failing-then-repaired candidate sequences)."""
        self._source_overrides.setdefault(name, deque()).extend(sources)

    def _head(self, prompt: str) -> tuple[_Head, int]:
        """The `_Head` of `prompt`, and where its last ``Question:`` line
        starts (0 when no later line starts with one)."""
        cut = prompt.rfind("\nQuestion:") + 1
        head = self._last_head
        if len(head.text) != cut or not prompt.startswith(head.text):
            text = prompt[:cut]
            asks = _MODULE_ASK_RE.findall(text)
            head = self._last_head = _Head(
                text,
                frozenset(phrase for phrase in _STAGE_PHRASES if phrase in text),
                asks[-1] if asks else None,
                frozenset(_CLASS_NAME_RE.findall(text)),
            )
        return head, cut

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
        head, cut = self._head(prompt)
        available = head.modules.union(_CLASS_NAME_RE.findall(prompt, cut))
        return instance, available - _EXAMPLE_HEADER_NAMES

    def __call__(self, req: CompletionRequest) -> str:
        self.calls += 1
        prompt = req.prompt
        head, cut = self._head(prompt)
        tail = prompt[cut:]
        phrases = head.phrases.union(phrase for phrase in _STAGE_PHRASES if phrase in tail)
        if "could you write a new module" in phrases or "You previously wrote a module" in phrases:
            asks = _MODULE_ASK_RE.findall(tail)
            name = asks[-1] if asks else head.last_ask
            if name is None:  # as the last of no asks in the whole prompt
                raise IndexError("list index out of range")
            queue = self._source_overrides.get(name)
            if queue:
                return queue.popleft()
            source = FIXTURE_SOURCES.get(name)
            if source is None:
                return f"I do not know how to implement {name}."
            return source
        if "could you identify whether it is possible" in phrases:
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
        # the tail starts with "Question:" unless it is the whole prompt, so
        # the prompt ends as the tail does
        if tail.rstrip().endswith("Program:") or "Think step by step" in phrases:
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
    request of each test instance that `evaluate` asks one for is sent over
    the grown library's catalogue, in the order `evaluate` sends it: both
    follow `stage3_plan`. No program is parsed or run. An error
    of the transport, such as the `LookupError` of a responder that does not
    know a question, propagates.
    """
    responder = responder or SyntheticResponder()
    responder.add(train)
    responder.add(test)
    asked = [instance for instance, asks in stage3_plan(test) if asks]
    with record_gateway(cache_path, responder) as gateway:
        lib_after, report = run_synthesis(train, lib, gateway, backend, cfg)
        if asked:  # the catalogue text is built only when a request carries it
            prompts = program_prompts(lib_after, cfg.model_id)
            for instance in asked:
                gateway.complete(*prompts.request(instance.query))
    return lib_after, report
