from __future__ import annotations

import dataclasses
import sys

import pytest

from modgrow import reference_modules as rm
from modgrow import scene, synthesis
from modgrow import values as V
from modgrow.cache import canonical_json
from modgrow.errors import EndpointError
from modgrow.executor import run_program
from modgrow.gateway import LlmGateway, extract_module_source
from modgrow.harness import datasets as ds
from modgrow.harness import oracle
from modgrow.harness.evaluate import evaluate
from modgrow.harness.metrics import iou
from modgrow.registry import ExecutionRegistry
from modgrow.replay_seed import SyntheticResponder
from modgrow.sandbox import Limits, load_candidate
from modgrow.synthesis import (
    CandidateOutcome,
    Proposal,
    SynthesisConfig,
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


def _normalize(s: str) -> str:
    return " ".join(s.lower().split())


def reference_compare(final, expected, comparator: str) -> bool:
    """How a module case was scored when it stored an expected `Value` and a
    comparator name instead of a gold."""
    if comparator == "exact-text":
        if final.tag == "list" and expected.tag == "list":
            return [_normalize(str(x)) for x in final.payload] == [_normalize(str(x)) for x in expected.payload]
        return _normalize(str(final.payload)) == _normalize(str(expected.payload))
    if comparator == "numeric-eq":
        try:
            return abs(float(final.payload) - float(expected.payload)) < 1e-9
        except (TypeError, ValueError):
            return False
    if comparator == "iou-at-0.5":
        if final.tag not in ("box-list", "mask") or not final.payload:
            return False
        gold = expected.payload[0] if expected.tag in ("box-list", "mask") else expected.payload
        return iou(final.payload[0], gold) >= 0.5
    assert comparator == "set-eq"

    def items(value):
        return sorted(map(canonical_json, value.payload if value.tag in ("box-list", "mask", "list")
                          else [value.payload]))

    return items(final) == items(expected)


def reference_case(instance, name: str):
    """The (expected value, comparator) that the case tables stored for
    `instance`'s case of module `name`, built from the instance itself."""
    if name == "DETECT_SHAPE":
        records = [oracle.panel_record(panel, "center") for panel in instance.puzzle.panels]
        return V.Value("list", tuple(tuple(tuple(pair) for pair in r) for r in records)), "set-eq"
    kind, value = instance.gold["type"], instance.gold["value"]
    if kind == "tagged-regions":  # the grounding chain's box
        return V.box_list([value[0]["box"]]), "iou-at-0.5"
    if kind == "box":
        return V.box_list([value]), "iou-at-0.5"
    return (V.text(value), "exact-text") if kind == "text" else (V.number(value), "numeric-eq")


PERTURBED_FINALS = (V.NULL, V.list_value(()), V.number(-1), V.text("zzz"), V.box_list(()),
                    V.box_list([(0, 0, 1, 1)]))


def nudged(final):
    """The fixture's final value changed near the edge of what its gold
    accepts: a number one higher, boxes shifted by half their width (IoU
    1/3), a text upper-cased and padded with spaces."""
    if final.tag == "number":
        return V.number(final.payload + 1)
    if final.tag == "box-list":
        return V.box_list([(x1 + (x2 - x1) // 2, y1, x2 + (x2 - x1) // 2, y2) for x1, y1, x2, y2 in final.payload])
    if final.tag == "text":
        return V.text(f"  {final.payload.upper()} ")
    return final


@pytest.mark.parametrize("seed", [20, 21, 22])
@pytest.mark.parametrize("task", sorted(ds.TASKS))
def test_the_gold_judges_score_cases_as_their_old_comparators(full_lib, backend, task, seed):
    """Each case's gold judge agrees with the comparator the case stored
    before, on the fixture's final value and on changed ones, and a wrong
    answer's expected text is the one the case gave before."""
    registry = ExecutionRegistry(full_lib)
    checked = 0
    for instance in ds.generate_dataset(task, seed, 24):
        for name, case in instance.module_cases.items():
            expected, comparator = reference_case(instance, name)
            assert V.summarize(ds.GOLD_TYPES[case["gold"]["type"]].form(case["gold"]["value"])) == \
                V.summarize(expected), (instance.id, name)
            judge = ds.judge_of(case["gold"])
            run = run_program(case["program"], ds.build_bindings(instance), registry, backend)
            assert run.error is None and judge(run.final).correct, (instance.id, name)
            for final in (run.final, nudged(run.final), *PERTURBED_FINALS):
                assert judge(final).correct == reference_compare(final, expected, comparator), \
                    (instance.id, name, final)
                checked += 1
    assert checked or task == "editing"


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


def sort_spatial_with(statement: str) -> str:
    """The `SORT_SPATIAL` fixture with `statement` first in `execute`."""
    lines = rm.FIXTURE_SOURCES["SORT_SPATIAL"].split("\n")
    at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("def execute("))
    lines.insert(at + 1, " " * 8 + statement)
    return "\n".join(lines)


def synthesize_sort_spatial(monkeypatch, builtin_lib, backend, samples, cfg):
    """Learn `SORT_SPATIAL` from four ordinal groundings, the responder
    answering its stage-2 and repair prompts with `samples` in turn: (the
    outcomes, the sources loaded, each case run's candidate source)."""
    train = ds.generate_dataset("grounding", 4, 4, {"templates": ["ordinal"]})
    responder = SyntheticResponder(train)
    responder.override_source("SORT_SPATIAL", samples)
    loaded, ran = [], []
    load, case_error = synthesis.load_candidate, synthesis._case_error

    def counting_load(source, signature):
        loaded.append(source)
        return load(source, signature=signature)

    def counting_case_error(case, registry, backend):
        ran.append(registry.overlay["SORT_SPATIAL"].source)
        return case_error(case, registry, backend)

    monkeypatch.setattr(synthesis, "load_candidate", counting_load)
    monkeypatch.setattr(synthesis, "_case_error", counting_case_error)
    with LlmGateway(mode="record", transport=responder) as gateway:
        _, report = run_synthesis(train, builtin_lib, gateway, backend, cfg)
    return report.outcomes["SORT_SPATIAL"], loaded, ran


def test_each_distinct_sample_of_a_proposal_is_loaded_and_run_once(monkeypatch, builtin_lib, backend):
    """Three identical first-round samples and a repair sample equal to them
    load and run once, and repeat the first one's score; a different source
    is still scored."""
    samples = [sort_spatial_with("raise ValueError('injected fault')")] * 4 + [rm.FIXTURE_SOURCES["SORT_SPATIAL"]]
    outcomes, loaded, ran = synthesize_sort_spatial(
        monkeypatch, builtin_lib, backend, samples, SynthesisConfig(k_candidates=3, r_repairs=2))
    bad, good = (extract_module_source(samples[i]) for i in (0, 4))
    assert [(o.candidate_index, o.repair_round, o.accepted) for o in outcomes] == [
        (0, 0, False), (1, 0, False), (2, 0, False), (3, 1, False), (4, 2, True)
    ]
    n_cases = len(outcomes[0].per_case)
    assert loaded == [bad, good]
    assert ran == [bad] * n_cases + [good] * n_cases
    assert {r.error.kind for r in outcomes[0].per_case} == {"runtime"}
    first = outcomes[0]
    assert [dataclasses.replace(o, candidate_index=0, repair_round=0) for o in outcomes[1:4]] == [first] * 3
    assert outcomes[4].pass_rate == 1.0 and all(r.passed for r in outcomes[4].per_case)


def test_a_sample_that_does_not_compile_reports_one_load_error_each_time(monkeypatch, builtin_lib, backend):
    broken = rm.FIXTURE_SOURCES["SORT_SPATIAL"].replace("def execute(", "def execute((", 1)
    outcomes, loaded, ran = synthesize_sort_spatial(
        monkeypatch, builtin_lib, backend, [broken] * 2, SynthesisConfig(k_candidates=2, r_repairs=0))
    assert loaded == [extract_module_source(broken)] and ran == []
    errors = [{r.error for r in o.per_case} for o in outcomes]
    assert [[e.kind for e in es] for es in errors] == [["compile"], ["compile"]]
    assert errors[0] == errors[1]
