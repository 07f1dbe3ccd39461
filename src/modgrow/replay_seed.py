"""Deterministic response seeding for replay runs.

A SyntheticResponder acts as the live endpoint during record mode: it reads
each request's stage and the prompt's tail after its head, and answers the
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


class SyntheticResponder:
    """Callable transport producing ideal responses for known dataset queries.

    It answers by the stage a request names. Every stage's request carries
    its head, the template text above the line that asks the question or
    names the module (`modgrow.gateway.TailSlotPrompt`), so a stage-2 or
    repair answer reads the module ask from the prompt after the head, and a
    stage-1 or stage-3 answer reads the question there. The modules on offer are the
    classes the head declares, less the static examples' COMPARE_SIZE; they
    are read once per distinct head, and only the last head's are kept, so a
    recording session, which sends its requests over one catalogue back to
    back, reads its catalogue once, and a responder holds one head's names
    however long it lives. A request it cannot place, of no stage or an
    unknown one or whose tail names no module, raises `LookupError`.
    """

    def __init__(self, instances=()):
        self._by_query: dict[str, object] = {}
        self._source_overrides: dict[str, deque] = {}
        self._declared: tuple[str, frozenset[str]] = ("", frozenset())  # the last head read, its names
        self.calls = 0
        self.add(instances)

    def add(self, instances) -> None:
        for instance in instances:
            self._by_query.setdefault(instance.query, instance)

    def override_source(self, name: str, sources) -> None:
        """Queue replacement stage-2 and repair responses for one module
        (used to seed failing-then-repaired candidate sequences)."""
        self._source_overrides.setdefault(name, deque()).extend(sources)

    def _lookup(self, req: CompletionRequest):
        """The instance the request's question asks about, and the modules
        its head declares (less those of static examples)."""
        match = _QUESTION_RE.search(req.prompt, len(req.head))
        if match is None:
            raise LookupError("prompt carries no question line")
        question = match.group(1).strip()
        instance = self._by_query.get(question)
        if instance is None:
            raise LookupError(f"no dataset instance for question {question!r}")
        if self._declared[0] != req.head:
            declared = frozenset(_CLASS_NAME_RE.findall(req.head)) - _EXAMPLE_HEADER_NAMES
            self._declared = req.head, declared
        return instance, self._declared[1]

    def __call__(self, req: CompletionRequest) -> str:
        self.calls += 1
        if req.stage in ("generation", "repair"):
            ask = _MODULE_ASK_RE.search(req.prompt, len(req.head))
            if ask is None:
                raise LookupError(f"{req.stage} prompt names no module")
            name = ask.group(1)
            queue = self._source_overrides.get(name)
            if queue:
                return queue.popleft()
            source = FIXTURE_SOURCES.get(name)
            if source is None:
                return f"I do not know how to implement {name}."
            return source
        if req.stage not in ("initialization", "execution"):
            raise LookupError(f"cannot answer a request of stage {req.stage!r}")
        instance, available = self._lookup(req)
        # the modules the canonical program calls and the catalogue lacks, in call order
        missing = [m for m in dict.fromkeys(STATEMENT_LINE_RE.findall(instance.canonical_program))
                   if m not in available]
        if req.stage == "execution":
            return instance.fallback_program if missing else instance.canonical_program
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
    with LlmGateway(mode="record", cache_path=cache_path, transport=responder) as gateway:
        lib_after, report = run_synthesis(train, lib, gateway, backend, cfg)
        if asked:  # the catalogue text is built only when a request carries it
            prompts = program_prompts(lib_after, cfg.model_id)
            for instance in asked:
                gateway.complete(prompts.request(instance.query))
    return lib_after, report
