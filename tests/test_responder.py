"""`SyntheticResponder` against a whole-prompt reference.

Both answer by the stage a request names. The reference reads the rest the
way the responder first did, from the whole prompt: the question is the
last `_QUESTION_RE` match, the module is the last module ask, and the
available modules are every class name the prompt declares, less those of
the static examples. The responder under test reads the question or the
module ask from the prompt after the request's head, and the class names of
the head once per distinct head. The two must give the same answer, or
raise the same `LookupError`, on every request whose tail holds one ask
and no class declaration, as every request a stage builds does.
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
from modgrow.replay_seed import SyntheticResponder, program_modules, seed_learn_and_eval
from modgrow.synthesis import SynthesisConfig

TASKS = ("vqa", "grounding", "tagging", "editing", "raven", "mewl-analog")

_QUESTION_RE = re.compile(r"^Question:\s*(.+)$", re.MULTILINE)
_CLASS_NAME_RE = re.compile(r"^class\s+([A-Z][A-Z0-9_]*)\s*\(", re.MULTILINE)
_MODULE_ASK_RE = re.compile(
    r"(?:could you write a new module, |You previously wrote a module, )"
    r"([A-Za-z_][A-Za-z0-9_]*)(?:\(\))?[?,]"
)


class WholePromptResponder(SyntheticResponder):
    """The reference: the regexes run over the whole prompt on each request."""

    def _lookup(self, req: CompletionRequest):
        questions = _QUESTION_RE.findall(req.prompt)
        if not questions:
            raise LookupError("prompt carries no question line")
        question = questions[-1].strip()
        instance = self._by_query.get(question)
        if instance is None:
            raise LookupError(f"no dataset instance for question {question!r}")
        return instance, set(_CLASS_NAME_RE.findall(req.prompt)) - {"COMPARE_SIZE"}

    def __call__(self, req: CompletionRequest) -> str:
        if req.stage not in ("generation", "repair"):
            return super().__call__(req)
        asks = _MODULE_ASK_RE.findall(req.prompt)
        if not asks:
            raise LookupError(f"{req.stage} prompt names no module")
        queue = self._source_overrides.get(asks[-1])
        if queue:
            return queue.popleft()
        return rm.FIXTURE_SOURCES.get(asks[-1], f"I do not know how to implement {asks[-1]}.")


def outcome(responder, req: CompletionRequest) -> str:
    try:
        return responder(req)
    except LookupError as exc:
        return f"LookupError: {exc}"


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
        new, old = (outcome(responder, req) for responder in self.pair)
        assert new == old, req.prompt[-400:]
        self.stages[req.stage] = self.stages.get(req.stage, 0) + 1
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
    expected = {"initialization", "execution"} | ({"generation", "repair"} if learned else set())
    assert twin.stages.keys() == expected


CATALOGUE = "class LOC():\n    pass\nclass COUNT():\n    pass\nclass RESULT():\n    pass\n"
STAGE1 = "Pre-defined Modules:\n" + CATALOGUE + "\ncould you identify whether it is possible\n"
STAGE3 = "Think step by step to answer the question.\n" + CATALOGUE
# the same length as STAGE3, one character apart: LOC is declared as LOX
STAGE3_LOX = STAGE3.replace("class LOC(", "class LOX(")
ASK = "\nGiven the above APIs, could you write a new module, {}?\nclass {}():\n"
# a stage-2 head whose example asks for another module, and whose training
# cases hold a question line
STAGE2 = "Pre-defined APIs:\n" + CATALOGUE + ASK.format("Loc()", "Loc") + "Cases:\nQuestion: How many cups?"
REPAIR = "Pre-defined APIs:\n" + CATALOGUE


def request(stage: str | None, head: str, tail: str) -> CompletionRequest:
    return CompletionRequest(prompt=head + tail, model_id="m", stage=stage, head=head)


def execution(tail: str, head: str = STAGE3) -> CompletionRequest:
    return request("execution", head, tail)


def instance(query: str, program: str):
    return SimpleNamespace(query=query, canonical_program=program,
                           fallback_program="FINAL_RESULT=RESULT(var=IMAGE)")


COUNT_PROGRAM = "BOX0=LOC(image=IMAGE,object='cup')\nANSWER0=COUNT(box=BOX0)\nFINAL_RESULT=RESULT(var=ANSWER0)"
VQA_PROGRAM = "ANSWER0=VQA(image=IMAGE,question='What is it?')\nFINAL_RESULT=RESULT(var=ANSWER0)"
QUERIES = [instance("How many cups?", COUNT_PROGRAM), instance("Program:", COUNT_PROGRAM),
           instance("x", COUNT_PROGRAM), instance("What is it?", VQA_PROGRAM)]


@pytest.mark.parametrize("req", [
    execution("\nProgram:\n"),  # no question line
    execution("\nQuestion:\n\nProgram:"),  # the match runs on to "Program:"
    execution("\nQuestion: How many plates?\nProgram:\n"),  # no instance
    execution("\nQuestion: How many cups?\nProgram:\n"),
    execution("\nQuestion: \nProgram:\n"),  # empty: the match runs on to the next line
    execution("\nQuestion:"),  # empty, at the very end
    execution("\nQuestion:  "),
    execution("\nQuestion: How many cups?\nQuestion:\n"),  # the last line holds no match
    execution("Question: How many cups?\nProgram:", head=""),  # no head: nothing is declared
    execution("\nQuestion: What is it?\nProgram:\n"),  # VQA is not in the catalogue
    request("initialization", STAGE1, "\nQuestion: How many cups?"),
    request("initialization", STAGE1, "\nQuestion: What is it?"),
    request("generation", STAGE2, ASK.format("SORT_SPATIAL", "SORT_SPATIAL")),
    request("generation", STAGE2, ASK.format("NEW_MODULE", "NEW_MODULE")),
    request("repair", REPAIR, "\nYou previously wrote a module, SOLVER, with this header:\nclass X():\n"),
], ids=lambda req: f"{req.stage}:{req.prompt[len(req.head):][-40:]!r}")
def test_equal_answers_to_unusual_requests(req):
    new, old = SyntheticResponder(QUERIES), WholePromptResponder(QUERIES)
    assert outcome(new, req) == outcome(old, req)


def test_lookup_error_texts():
    responder = SyntheticResponder(QUERIES)
    assert outcome(responder, execution("\nProgram:\n")) == "LookupError: prompt carries no question line"
    assert outcome(responder, execution("\nQuestion: How many plates?\nProgram:\n")) == (
        "LookupError: no dataset instance for question 'How many plates?'"
    )


@pytest.mark.parametrize("req, message", [
    (request(None, "", "Question: How many cups?"), "cannot answer a request of stage None"),
    (request("summary", STAGE3, "\nQuestion: How many cups?"), "cannot answer a request of stage 'summary'"),
    (request("generation", STAGE2, "\nclass SORT_SPATIAL():\n"), "generation prompt names no module"),
    # the module the head's example asks for is not the one asked
    (request("generation", STAGE2 + ASK.format("Count()", "Count"), "\n"),
     "generation prompt names no module"),
    (request("repair", REPAIR, "\nPlease fix these issues.\n"), "repair prompt names no module"),
])
def test_a_request_it_cannot_place_raises_lookup_error_naming_its_stage(req, message):
    responder = SyntheticResponder(QUERIES)
    with pytest.raises(LookupError) as raised:
        responder(req)
    assert str(raised.value) == message


def test_only_the_head_declares_modules():
    """A class declared below the question is not on offer: the modules on
    offer are the head's, the catalogue."""
    req = execution("\nQuestion: What is it?\nclass VQA():\nProgram:\n")
    assert outcome(SyntheticResponder(QUERIES), req) == QUERIES[3].fallback_program
    assert outcome(WholePromptResponder(QUERIES), req) == VQA_PROGRAM


@pytest.mark.parametrize("stage, head, tail", [
    ("initialization", "Pre-defined Modules:\n{}\ncould you identify whether it is possible",
     "\nQuestion: Which is larger?"),
    ("execution", "Think step by step.\n{}", "\nQuestion: Which is larger?\nProgram:\n"),
])
def test_a_catalogue_that_declares_compare_size(stage, head, tail):
    """COMPARE_SIZE names a static example's header, so the responder never
    counts it as available, even when the catalogue declares it."""
    program = "FLAG0=COMPARE_SIZE(image=IMAGE,box0=BOX0,box1=BOX1)\nFINAL_RESULT=RESULT(var=FLAG0)"
    queries = [instance("Which is larger?", program)]
    req = request(stage, head.format(CATALOGUE + "class COMPARE_SIZE():\n    pass\n"), tail)
    new = outcome(SyntheticResponder(queries), req)
    assert new == outcome(WholePromptResponder(queries), req)
    if stage == "initialization":
        assert new.startswith('No. We need to make new modules "COMPARE_SIZE" first.')
    else:
        assert new == queries[0].fallback_program


SEQUENCES = {
    "a head one character apart, at the same length": [
        execution("\nQuestion: How many cups?\nProgram:\n"),
        execution("\nQuestion: How many cups?\nProgram:\n", STAGE3_LOX),
        execution("\nQuestion: x\nProgram:\n"),
        execution("\nQuestion: x\nProgram:\n", STAGE3_LOX),
        request("initialization", STAGE1, "\nQuestion: How many cups?"),
        request("initialization", STAGE1.replace("class LOC(", "class LOX("), "\nQuestion: How many cups?"),
        request("initialization", STAGE1, "\nQuestion: How many cups?"),
    ],
    "stage 2 and repair between stage 3": [
        execution("\nQuestion: How many cups?\nProgram:\n"),
        request("generation", STAGE2, ASK.format("SORT_SPATIAL", "SORT_SPATIAL")),
        request("repair", REPAIR, "\nYou previously wrote a module, SOLVER, with this header:\n"),
        request("generation", STAGE2, ASK.format("NEW_MODULE", "NEW_MODULE")),
        execution("\nQuestion: x\nProgram:\n"),
        request("initialization", STAGE1, "\nQuestion: What is it?"),
        request("repair", REPAIR, "\nYou previously wrote a module, SOLVER, with this header:\n"),
        execution("\nQuestion: How many cups?\nProgram:\n"),
    ],
    "a question holding a module ask": [
        execution("\nQuestion: How many cups?\nProgram:\n"),
        execution("\nQuestion: could you write a new module, SOLVER?\nProgram:\n"),
        execution("\nQuestion: You previously wrote a module, COUNT, or not?\nProgram:\n"),
        execution("\nQuestion: How many cups?\nProgram:\n"),
    ],
}


@pytest.mark.parametrize("requests", SEQUENCES.values(), ids=SEQUENCES)
def test_equal_answers_over_a_sequence(requests):
    """One responder answers the whole sequence, so the head it has read
    for one request is at hand for the next."""
    new, old = SyntheticResponder(QUERIES), WholePromptResponder(QUERIES)
    answers = [outcome(new, req) for req in requests]
    assert answers == [outcome(old, req) for req in requests]
    assert len(set(answers)) > 2


def test_a_responder_holds_one_head_however_many_it_reads():
    """Each of 60 stage-3 requests has its own catalogue, each longer than
    the last, and the responder answers them all. What it still holds after
    them is one catalogue's text and its reading, not one per catalogue."""
    filler = "class PAD():\n" + "    pass\n" * 1000  # about 9 KB
    responder = SyntheticResponder(QUERIES)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(60):
            req = execution("\nQuestion: How many cups?\nProgram:\n", STAGE3 + filler + " " * i)
            assert responder(req) == COUNT_PROGRAM
        del req
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 3 * len(filler)
