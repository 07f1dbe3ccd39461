"""`SyntheticResponder` against a whole-prompt reference.

The reference reads a prompt the way the responder first did: the question
is the last `_QUESTION_RE` match of the whole prompt, and the available
modules are every class name the whole prompt declares, less those of the
static examples. The responder under test reads the question from the end
of the prompt and the class names of the head once per distinct head; the
two must give the same answer, or raise the same `LookupError`, on every
request.
"""

from __future__ import annotations

import re
import tracemalloc
from types import SimpleNamespace

import pytest

from modgrow import reference_modules as rm
from modgrow.backends import SyntheticBackend
from modgrow.gateway import CompletionRequest
from modgrow.harness.datasets import generate_dataset
from modgrow.registry import builtin_library
from modgrow.replay_seed import SyntheticResponder, _ordered, program_modules, seed_learn_and_eval
from modgrow.synthesis import SynthesisConfig

TASKS = ("vqa", "grounding", "tagging", "editing", "raven", "mewl-analog")

_QUESTION_RE = re.compile(r"^Question:\s*(.+)$", re.MULTILINE)
_CLASS_NAME_RE = re.compile(r"^class\s+([A-Z][A-Z0-9_]*)\s*\(", re.MULTILINE)


class WholePromptResponder(SyntheticResponder):
    """The reference: both regexes run over the whole prompt on each request."""

    def _lookup(self, prompt: str):
        questions = _QUESTION_RE.findall(prompt)
        if not questions:
            raise LookupError("prompt carries no question line")
        question = questions[-1].strip()
        instance = self._by_query.get(question)
        if instance is None:
            raise LookupError(f"no dataset instance for question {question!r}")
        return instance, set(_CLASS_NAME_RE.findall(prompt)) - {"COMPARE_SIZE"}


def outcome(responder, prompt: str):
    try:
        return responder(CompletionRequest(prompt=prompt, model_id="m"))
    except LookupError as exc:
        return f"LookupError: {exc}"


def stage_of(prompt: str) -> str:
    if "could you write a new module" in prompt:
        return "stage 2"
    if "You previously wrote a module" in prompt:
        return "repair"
    if "could you identify whether it is possible" in prompt:
        return "stage 1"
    return "stage 3"


class Twin:
    """A transport that asks both responders and requires equal answers."""

    def __init__(self, overrides):
        self.pair = (SyntheticResponder(), WholePromptResponder())
        for responder in self.pair:
            for name, sources in overrides.items():
                responder.override_source(name, sources)
        self.stages: dict[str, int] = {}

    def add(self, instances) -> None:
        for responder in self.pair:
            responder.add(instances)

    def __call__(self, req: CompletionRequest) -> str:
        new, old = (outcome(responder, req.prompt) for responder in self.pair)
        assert new == old, req.prompt[-400:]
        stage = stage_of(req.prompt)
        self.stages[stage] = self.stages.get(stage, 0) + 1
        if new.startswith("LookupError: "):
            raise LookupError(new[len("LookupError: "):])
        return new


@pytest.mark.parametrize("task", TASKS)
def test_equal_answers_to_every_request_of_a_seeded_session(tmp_path, task):
    train = generate_dataset(task, 11, 12)
    test = generate_dataset(task, 12, 8)
    # the first learned module's samples fail, so a repair round runs; an
    # editing split needs no module beyond the builtins, so it asks stages 1
    # and 3 only
    learned = sorted(set().union(*(program_modules(i.canonical_program) for i in train))
                     & rm.FIXTURE_SOURCES.keys())
    twin = Twin({name: ["no code here"] * 2 for name in learned[:1]})
    seed_learn_and_eval(train, test, builtin_library(), SyntheticBackend(),
                        SynthesisConfig(k_candidates=2, r_repairs=1), str(tmp_path / "cache.jsonl"),
                        responder=twin)
    expected = {"stage 1", "stage 3"} | ({"stage 2", "repair"} if learned else set())
    assert twin.stages.keys() == expected


CATALOGUE = "class LOC():\n    pass\nclass COUNT():\n    pass\nclass RESULT():\n    pass\n"
STAGE3 = "Think step by step to answer the question.\n" + CATALOGUE + "\n"


def instance(query: str, program: str):
    return SimpleNamespace(query=query, canonical_program=program,
                           fallback_program="FINAL_RESULT=RESULT(var=IMAGE)")


COUNT_PROGRAM = "BOX0=LOC(image=IMAGE,object='cup')\nANSWER0=COUNT(box=BOX0)\nFINAL_RESULT=RESULT(var=ANSWER0)"
VQA_PROGRAM = "ANSWER0=VQA(image=IMAGE,question='What is it?')\nFINAL_RESULT=RESULT(var=ANSWER0)"
QUERIES = [instance("How many cups?", COUNT_PROGRAM), instance("Program:", COUNT_PROGRAM),
           instance("x", COUNT_PROGRAM), instance("What is it?", VQA_PROGRAM)]


@pytest.mark.parametrize("prompt", [
    STAGE3 + "Program:\n",  # no question line
    "Question:\n\nProgram:",  # a question line the regex cannot match
    STAGE3 + "Question: How many plates?\nProgram:\n",  # no instance
    STAGE3 + "Question: How many cups?\nProgram:\n",
    STAGE3 + "Question: \nProgram:\n",  # empty: the match runs on to the next line
    STAGE3 + "Question:",  # empty, at the very end
    STAGE3 + "Question:  ",
    STAGE3 + "Question: How many cups?\nQuestion:\n",  # the last line holds no match
    STAGE3 + "Question: How many cups?\nx\nQuestion:\n\n",
    STAGE3 + "Question:\n \nQuestion: x\nProgram:\n",  # an earlier match swallows the last line
    STAGE3 + "Question:\nQuestion:\nQuestion: x\nProgram:\n",
    "Question: How many cups?\nProgram:",  # the question opens the prompt
    STAGE3 + "Question: What is it?\nProgram:\n",  # VQA is not in the catalogue
    STAGE3 + "Question: What is it?\nclass VQA():\nProgram:\n",  # but declared after the question
], ids=lambda p: repr(p[-40:]))
def test_equal_answers_to_unusual_prompts(prompt):
    new, old = SyntheticResponder(QUERIES), WholePromptResponder(QUERIES)
    assert outcome(new, prompt) == outcome(old, prompt)


def test_lookup_error_texts():
    responder = SyntheticResponder(QUERIES)
    assert outcome(responder, STAGE3 + "Program:\n") == "LookupError: prompt carries no question line"
    assert outcome(responder, STAGE3 + "Question: How many plates?\nProgram:\n") == (
        "LookupError: no dataset instance for question 'How many plates?'"
    )


@pytest.mark.parametrize("stage, prompt", [
    ("stage 1", "Pre-defined Modules:\n{}\ncould you identify whether it is possible\n"
                "Question: Which is larger?\n"),
    ("stage 3", "Think step by step.\n{}\nQuestion: Which is larger?\nProgram:\n"),
])
def test_a_catalogue_that_declares_compare_size(stage, prompt):
    """COMPARE_SIZE names a static example's header, so the responder never
    counts it as available, even when the catalogue declares it."""
    program = "FLAG0=COMPARE_SIZE(image=IMAGE,box0=BOX0,box1=BOX1)\nFINAL_RESULT=RESULT(var=FLAG0)"
    queries = [instance("Which is larger?", program)]
    prompt = prompt.format(CATALOGUE + "class COMPARE_SIZE():\n    pass\n")
    new = outcome(SyntheticResponder(queries), prompt)
    assert new == outcome(WholePromptResponder(queries), prompt)
    if stage == "stage 1":
        assert new.startswith('No. We need to make new modules "COMPARE_SIZE" first.')
    else:
        assert new == queries[0].fallback_program


class WholePromptStages(WholePromptResponder):
    """The reference for sequences: the stage phrases and the module ask are
    also read from the whole prompt on each request, as the responder first
    read them."""

    def __call__(self, req: CompletionRequest) -> str:
        prompt = req.prompt
        if "could you write a new module" in prompt or "You previously wrote a module" in prompt:
            name = _MODULE_ASK_RE.findall(prompt)[-1]
            queue = self._source_overrides.get(name)
            if queue:
                return queue.popleft()
            source = rm.FIXTURE_SOURCES.get(name)
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
                parts.append(rm.fixture_header(name) if name in rm.FIXTURE_SOURCES else f"class {name}():")
            return "\n".join(parts)
        if prompt.rstrip().endswith("Program:") or "Think step by step" in prompt:
            instance, available = self._lookup(prompt)
            needed = program_modules(instance.canonical_program)
            if needed <= available:
                return instance.canonical_program
            return instance.fallback_program
        raise LookupError("prompt does not match any known stage")


_MODULE_ASK_RE = re.compile(
    r"(?:could you write a new module, |You previously wrote a module, )"
    r"([A-Za-z_][A-Za-z0-9_]*)(?:\(\))?[?,]"
)


def answers(responder, prompts) -> list[str]:
    """What one responder answers to each prompt in turn."""
    out = []
    for prompt in prompts:
        try:
            out.append(responder(CompletionRequest(prompt=prompt, model_id="m")))
        except (LookupError, IndexError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


STAGE1 = ("Pre-defined Modules:\n" + CATALOGUE + "\ncould you identify whether it is possible\n"
          "Question: How many cups?\n")
# the same length as STAGE3, one character apart: LOC is declared as LOX
STAGE3_LOX = STAGE3.replace("class LOC(", "class LOX(")
ASK = "\nGiven the above APIs, could you write a new module, {}?\nclass {}():\n"
# a stage-2 prompt whose training cases hold a question line, so its own ask
# is in the part below it, and the Loc example's ask in the part above
STAGE2 = ("Pre-defined APIs:\n" + CATALOGUE + ASK.format("Loc()", "Loc")
          + "Cases:\nQuestion: How many cups?\n" + ASK.format("SORT_SPATIAL", "SORT_SPATIAL"))
# a repair prompt whose only module ask is above its question line
REPAIR = ("Pre-defined APIs:\n" + CATALOGUE + "\nYou previously wrote a module, SOLVER, with this header:\n"
          "Question: How many cups?\nPlease fix these issues.\n")

SEQUENCES = {
    "a head one character apart, at the same length": [
        STAGE3 + "Question: How many cups?\nProgram:\n",
        STAGE3_LOX + "Question: How many cups?\nProgram:\n",
        STAGE3 + "Question: x\nProgram:\n",
        STAGE3_LOX + "Question: x\nProgram:\n",
        STAGE1,
        STAGE1.replace("class LOC(", "class LOX("),
        STAGE1,
    ],
    "stage 2 and repair between stage 3": [
        STAGE3 + "Question: How many cups?\nProgram:\n",
        STAGE2,
        REPAIR,
        STAGE2.replace("SORT_SPATIAL", "NEW_MODULE"),
        STAGE3 + "Question: x\nProgram:\n",
        STAGE1,
        REPAIR,
        STAGE3 + "Question: How many cups?\nProgram:\n",
    ],
    "a question holding a module ask": [
        STAGE3 + "Question: How many cups?\nProgram:\n",
        STAGE3 + "Question: could you write a new module, SOLVER?\nProgram:\n",
        STAGE3 + "Question: could you write a new module\nProgram:\n",
        STAGE3 + "Question: You previously wrote a module, COUNT, or not?\nProgram:\n",
        STAGE3 + "Question: How many cups?\nProgram:\n",
    ],
    "a stage phrase only below the last question line": [
        CATALOGUE + "Question: How many cups?\nThink step by step\n",
        CATALOGUE + "Question: How many cups?\ncould you identify whether it is possible\n",
        CATALOGUE + "Question: What is it?\ncould you identify whether it is possible\n",
        CATALOGUE + "Question: How many cups?\n",
        CATALOGUE + "Question: How many cups?\nThink step by step\nProgram: \n",
        "Question: How many cups?\nThink step by step\n",
        CATALOGUE + "Question: a\nQuestion: How many cups?\nProgram:\n",
    ],
}


@pytest.mark.parametrize("prompts", SEQUENCES.values(), ids=SEQUENCES)
def test_equal_answers_over_a_sequence(prompts):
    """One responder answers the whole sequence, so the part above a
    question line that it has read for one request is at hand for the next."""
    new = answers(SyntheticResponder(QUERIES), prompts)
    assert new == answers(WholePromptStages(QUERIES), prompts)
    assert len(set(new)) > 2


def test_a_responder_holds_one_head_however_many_it_reads():
    """Each of 60 stage-3 prompts has its own catalogue, each longer than the
    last, and the responder answers them all. What it still holds after them
    is one catalogue's text and its reading, not one per catalogue."""
    filler = "class PAD():\n" + "    pass\n" * 1000  # about 9 KB
    responder = SyntheticResponder(QUERIES)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(60):
            prompt = STAGE3 + filler + " " * i + "\nQuestion: How many cups?\nProgram:\n"
            assert responder(CompletionRequest(prompt=prompt, model_id="m")) == COUNT_PROGRAM
        del prompt
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 3 * len(filler)
