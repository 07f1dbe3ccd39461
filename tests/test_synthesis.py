from __future__ import annotations

import sys

import pytest

from modgrow import reference_modules as rm
from modgrow import scene
from modgrow.errors import EndpointError
from modgrow.gateway import LlmGateway
from modgrow.harness import datasets as ds
from modgrow.harness.evaluate import evaluate
from modgrow.replay_seed import SyntheticResponder
from modgrow.sandbox import Limits, load_candidate
from modgrow.synthesis import (
    CandidateOutcome,
    Proposal,
    SynthesisConfig,
    _tupleize,
    build_test_cases,
    compute_pass_rate,
    render_error_report,
    run_synthesis,
)

from conftest import distinct_scene_docs

NAME = "CHOOSE_ATTRIBUTE"


def with_first_statement(statement: str) -> tuple[str, int]:
    """The fixture source with `statement` first in `execute`, and its first line."""
    lines = rm.FIXTURE_SOURCES[NAME].split("\n")
    at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("def execute("))
    lines[at + 1 : at + 1] = [" " * 8 + line for line in statement.split("\n")]
    return "\n".join(lines), at + 2


@pytest.fixture(scope="module")
def cases():
    train = ds.generate_dataset("vqa", 7, 12)
    proposal = Proposal(rm.fixture_signature(NAME), rm.fixture_header(NAME))
    return build_test_cases(proposal, train)


def score(source, cases, lib, backend):
    handle = load_candidate(source, signature=rm.fixture_signature(NAME))
    return compute_pass_rate(handle, cases, lib, backend, Limits(wall_time_ms=50))


def test_fixture_passes_every_case(cases, builtin_lib, backend):
    rate, results = score(rm.FIXTURE_SOURCES[NAME], cases, builtin_lib, backend)
    assert rate == 1.0
    assert all(r.error is None for r in results)


@pytest.mark.parametrize(
    "statement, kind",
    [
        ("raise ValueError('injected fault')", "runtime"),
        ("return None", "wrong_output"),
        ("while True:\n    pass", "timeout"),
    ],
)
def test_case_errors_keep_the_sandbox_kind(cases, builtin_lib, backend, statement, kind):
    source, _ = with_first_statement(statement)
    rate, results = score(source, cases, builtin_lib, backend)
    assert rate == 0.0
    assert [r.error.kind for r in results] == [kind] * len(cases)


def test_repair_report_names_the_candidate_line(cases, builtin_lib, backend):
    source, line = with_first_statement("raise ValueError('injected fault')")
    rate, results = score(source, cases, builtin_lib, backend)
    outcome = CandidateOutcome(0, source, tuple(results), rate, False, 0)
    errors = render_error_report(outcome).split("Errors:\n")[1]
    assert errors == f"- runtime (line {line}): ValueError: injected fault"


def reference_tupleize(payload):
    """The expected-value builder that `_tupleize` replaced."""
    if isinstance(payload, list):
        return tuple(reference_tupleize(v) for v in payload)
    return payload


@pytest.mark.parametrize("task", sorted(ds.TASKS))
def test_case_expectations_equal_the_recursive_builds(task):
    payloads = [case["expected"]["payload"] for instance in ds.generate_dataset(task, 3, 12)
                for case in instance.module_cases.values()]
    payloads += [[], [[]], [1, [2, [3, "x"]], None], "text", 4.5]
    for payload in payloads:
        built = _tupleize(payload)
        assert built == reference_tupleize(payload)
        assert repr(built) == repr(reference_tupleize(payload))  # tuples all the way down


@pytest.mark.parametrize("task", ["vqa", "raven", "mewl-analog"])
def test_scenes_are_loaded_once_per_dataset(tmp_path, monkeypatch, builtin_lib, backend, task):
    """Only `load_dataset` parses scene documents, each distinct one once per
    split: neither the case runs of learning nor evaluation parse a scene
    again."""
    calls = []
    original = scene.load_scene

    def counting(document):
        calls.append(1)
        return original(document)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("modgrow") and getattr(module, "load_scene", None) is original:
            monkeypatch.setattr(module, "load_scene", counting)

    distinct = 0
    for name, seed in (("train", 5), ("test", 6)):
        generated = ds.generate_dataset(task, seed, 8)
        ds.save_dataset(generated, tmp_path / f"{name}.jsonl")
        distinct += distinct_scene_docs(generated)
    train, test = (ds.load_dataset(tmp_path / f"{name}.jsonl") for name in ("train", "test"))
    assert len(calls) == distinct  # load_dataset parses each distinct scene document of a split once
    responder = SyntheticResponder()
    responder.add(train)
    responder.add(test)
    calls.clear()
    with LlmGateway(mode="record", cache_path=str(tmp_path / "cache.jsonl"), transport=responder) as gateway:
        lib, report = run_synthesis(train, builtin_lib, gateway, backend, SynthesisConfig(k_candidates=2))
        assert report.accepted and sum(len(o) for o in report.outcomes.values()) > 0
        assert evaluate(task, test, lib, backend, gateway).metrics["accuracy"] == 1.0
    assert calls == []


def test_the_stock_responder_answers_a_repair_prompt(tmp_path, builtin_lib, backend):
    """A raising first sample is rejected and the repair round's fixture accepted."""
    train = ds.generate_dataset("grounding", 4, 4, {"templates": ["ordinal"]})
    lines = rm.FIXTURE_SOURCES["SORT_SPATIAL"].split("\n")
    at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("def execute("))
    lines.insert(at + 1, "        raise ValueError('injected fault')")
    responder = SyntheticResponder(train)
    responder.override_source("SORT_SPATIAL", ["\n".join(lines)])
    cfg = SynthesisConfig(k_candidates=1, r_repairs=1)
    with LlmGateway(mode="record", cache_path=str(tmp_path / "cache.jsonl"), transport=responder) as gateway:
        _, report = run_synthesis(train, builtin_lib, gateway, backend, cfg)
    assert report.accepted == ("SORT_SPATIAL",)
    assert [(o.repair_round, o.accepted) for o in report.outcomes["SORT_SPATIAL"]] == [
        (0, False), (1, True)
    ]


def test_a_failed_repair_request_is_an_endpoint_outcome_or_propagates(builtin_lib, backend):
    """An `EndpointError` on a repair prompt fails that round's candidate as
    `endpoint`, and the round counts; any other transport error propagates."""
    train = ds.generate_dataset("grounding", 4, 4, {"templates": ["ordinal"]})

    def synthesize(error):
        responder = SyntheticResponder(train)
        responder.override_source("SORT_SPATIAL", ["no code here"])

        def refusing(request):
            if "You previously wrote a module" in request.prompt:
                raise error
            return responder(request)

        with LlmGateway(mode="record", transport=refusing) as gateway:
            cfg = SynthesisConfig(k_candidates=1, r_repairs=2)
            return run_synthesis(train, builtin_lib, gateway, backend, cfg)[1]

    with pytest.raises(LookupError, match="no answer"):
        synthesize(LookupError("no answer"))
    report = synthesize(EndpointError("endpoint closed the connection"))
    (failure,) = report.failed
    assert failure.reason == "no candidate reached pass rate 0.80 (best 0.00 after 2 repair rounds)"
    assert [(o.repair_round, {r.error.kind for r in o.per_case}) for o in report.outcomes["SORT_SPATIAL"]] == [
        (0, {"response_parse"}), (1, {"endpoint"}), (2, {"endpoint"})
    ]
