"""Every kind of failure in `errors.KINDS` reaches the record that counts it:
an instance of an `evaluate` report, or a case of stage-2 gating. The cases
check the kind, not the message, which `test_failure_outputs` pins."""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from modgrow import reference_modules as rm
from modgrow.backends import SyntheticBackend
from modgrow.errors import KINDS, BackendError, CapturedError, EndpointError
from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import generate_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.registry import builtin_library, register
from modgrow.replay_seed import seed_learn_and_eval
from modgrow.sandbox import Limits
from modgrow.synthesis import Proposal, SynthesisConfig, build_test_cases, generate_module

from conftest import fixture_record, with_first_statement

ANSWER = "ANSWER0=VQA(image=IMAGE,question=QUESTION)\nFINAL_RESULT=RESULT(var=ANSWER0)"


def answering(response):
    """A transport that answers every request with `response`, or raises it."""

    def transport(request):
        if isinstance(response, Exception):
            raise response
        return response

    return transport


class DownBackend(SyntheticBackend):
    def answer_question(self, image, question):
        raise BackendError("BACKEND_ERROR: the answering model is down")


def stage3(response, backend=None):
    """The kinds of the failed instances of a vqa evaluation whose stage-3
    requests `response` answers."""

    def run(tmp_path):
        test = generate_dataset("vqa", 3, 2)
        with LlmGateway(mode="record", transport=answering(response)) as gateway:
            report = evaluate("vqa", test, builtin_library(), backend or SyntheticBackend(), gateway)
        return [o.error and o.error.kind for o in report.per_instance]

    return run


def replayed_miss(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("", encoding="utf-8")
    gateway = LlmGateway(mode="replay", cache_path=str(cache))
    report = evaluate("vqa", generate_dataset("vqa", 3, 2), builtin_library(), SyntheticBackend(), gateway)
    return [o.error and o.error.kind for o in report.per_instance]


def split_layout_errors(name: str, statement: str) -> list:
    """The errors of the split-layout puzzles of an evaluation whose module
    `name` runs `statement` first, answered by the puzzle driver."""
    broken = dataclasses.replace(fixture_record(name), source=with_first_statement(name, statement))
    lib = register(builtin_library(), broken)
    for stock in {"DETECT_SHAPE", "SOLVER"} - {name}:
        lib = register(lib, fixture_record(stock))
    test = generate_dataset("raven", 5, 2, {"layout": "left-right"})
    with LlmGateway(mode="record", transport=answering(AssertionError("no request expected"))) as gateway:
        report = evaluate("raven", test, lib, SyntheticBackend(), gateway)
    return [o.error for o in report.per_instance]


def split_layout_probe(tmp_path):
    """A DETECT_SHAPE that raises, driven over split-layout puzzles."""
    return [error and error.kind for error in split_layout_errors("DETECT_SHAPE", "raise ValueError('boom')")]


def stage2(response):
    """The kinds of the failed cases of one CHOOSE_ATTRIBUTE sample that
    `response` answers, gated without repair under a 50 ms budget."""

    def run(tmp_path):
        name = "CHOOSE_ATTRIBUTE"
        proposal = Proposal(rm.fixture_signature(name), rm.fixture_header(name))
        cases = build_test_cases(proposal, generate_dataset("vqa", 7, 12))
        cfg = SynthesisConfig(k_candidates=1, r_repairs=0, limits=Limits(wall_time_ms=50))
        with LlmGateway(mode="record", transport=answering(response)) as gateway:
            _, outcomes = generate_module(proposal, cases, cfg, gateway, builtin_library(), SyntheticBackend())
        return [r.error and r.error.kind for outcome in outcomes for r in outcome.per_case]

    return run


def fenced(source: str) -> str:
    return f"```python\n{source}\n```"


CASES = [
    ("syntax", stage3("ANSWER0=VQA(image=IMAGE,question=)\nFINAL_RESULT=RESULT(var=ANSWER0)")),
    ("validation", stage3("ANSWER0=NOPE(image=IMAGE)\nFINAL_RESULT=RESULT(var=ANSWER0)")),
    ("type", stage3("BOX0=LOC(image=IMAGE,object='TOP')\n"
                    "ANSWER0=FILTER_SPATIAL(image=IMAGE,box=BOX0,location='middle')\n"
                    "FINAL_RESULT=RESULT(var=ANSWER0)")),
    ("template", stage3('ANSWER0=EVAL(expr=f"1/0")\nFINAL_RESULT=RESULT(var=ANSWER0)')),
    ("backend", stage3(ANSWER, DownBackend())),
    ("response_parse", stage3("I cannot write a program for this.")),
    ("endpoint", stage3(EndpointError("endpoint closed the connection"))),
    ("cache_miss", replayed_miss),
    ("runtime", split_layout_probe),
    ("compile", stage2(fenced("class CHOOSE_ATTRIBUTE(:\n    pass"))),
    ("runtime", stage2(fenced(with_first_statement("CHOOSE_ATTRIBUTE", "raise ValueError('fault')")))),
    ("timeout", stage2(fenced(with_first_statement("CHOOSE_ATTRIBUTE", "while True: pass")))),
    ("forbidden_access", stage2(fenced(with_first_statement("CHOOSE_ATTRIBUTE", "open('scene.json')")))),
    ("wrong_output", stage2(fenced(with_first_statement("CHOOSE_ATTRIBUTE", "return None")))),
    ("response_parse", stage2("I cannot write this module.")),
    ("endpoint", stage2(EndpointError("endpoint closed the connection"))),
]


@pytest.mark.parametrize("kind, run", CASES, ids=[f"{kind}-{run.__qualname__.split('.')[0]}"
                                                    for kind, run in CASES])
def test_a_failure_is_recorded_under_its_kind(tmp_path, kind, run):
    kinds = run(tmp_path)
    assert kinds and set(kinds) == {kind}


@pytest.mark.parametrize("name, statement", [
    ("DETECT_SHAPE", "return [[1, 2, 3]]"),  # one record for 16 crops
    ("DETECT_SHAPE", "return [5]"),
    ("DETECT_SHAPE", "return [[1, 2, 3]] * len(image)"),  # a record of numbers
    ("DETECT_SHAPE", "return [5] * len(image)"),
    ("DETECT_SHAPE", "return ['ab'] * len(image)"),  # not read as key 'a', value 'b'
    ("DETECT_SHAPE", "return [[['shape', 'circle', 'red']]] * len(image)"),
    ("DETECT_SHAPE", "return [[['shape', 5]]] * len(image)"),
    ("SOLVER", "return 2.5"),  # not truncated to 2
    ("SOLVER", "return 0"),
    ("SOLVER", "return 9"),  # 8 candidates
])
def test_a_malformed_driver_read_or_answer_is_recorded_as_wrong_output(name, statement):
    errors = split_layout_errors(name, statement)
    assert len(errors) == 2 and {error and error.kind for error in errors} == {"wrong_output"}


def test_the_cases_cover_every_kind():
    assert sorted({kind for kind, _ in CASES}) == sorted(KINDS)


def test_an_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown failure kind 'sandbox'"):
        CapturedError("sandbox", "timeout: wall time budget of 50 ms exceeded")


def test_a_builtin_library_replayed_against_a_learned_cache_misses_every_request(tmp_path):
    train, test = generate_dataset("vqa", 11, 8), generate_dataset("vqa", 12, 4)
    cache = tmp_path / "cache.jsonl"
    seed_learn_and_eval(train, test, builtin_library(), SyntheticBackend(),
                        SynthesisConfig(k_candidates=2, r_repairs=1), str(cache))
    gateway = LlmGateway(mode="replay", cache_path=str(cache))
    report = evaluate("vqa", test, builtin_library(), SyntheticBackend(), gateway)
    assert Counter(o.error.kind for o in report.per_instance if o.error) == {"cache_miss": len(test)}


@pytest.mark.parametrize("error, doc", [
    (CapturedError("cache_miss", "no record"), {"kind": "cache_miss", "message": "no record"}),
    (CapturedError("runtime", "ValueError: boom", location=3),
     {"kind": "runtime", "message": "ValueError: boom", "location": 3}),
    (CapturedError("wrong_output", "output does not match", expected="text", actual="null"),
     {"kind": "wrong_output", "message": "output does not match", "expected": "text", "actual": "null"}),
])
def test_a_record_writes_the_fields_it_has(error, doc):
    assert error.to_doc() == doc
