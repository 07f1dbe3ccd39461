from __future__ import annotations

import sys

import pytest

from modgrow import reference_modules as rm
from modgrow import scene
from modgrow.gateway import LlmGateway
from modgrow.harness import datasets as ds
from modgrow.harness.evaluate import evaluate
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
    proposal = Proposal(rm.fixture_signature(NAME), rm.fixture_header(NAME), train[0].id)
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


@pytest.mark.parametrize("task", ["vqa", "raven", "mewl-analog"])
def test_scenes_are_loaded_once_per_dataset(tmp_path, monkeypatch, builtin_lib, backend, task):
    """Only `load_dataset` parses scene documents: neither the case runs of
    learning nor evaluation parse a scene again."""
    calls = []
    original = scene.load_scene

    def counting(document):
        calls.append(1)
        return original(document)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("modgrow") and getattr(module, "load_scene", None) is original:
            monkeypatch.setattr(module, "load_scene", counting)

    for name, seed in (("train", 5), ("test", 6)):
        ds.save_dataset(ds.generate_dataset(task, seed, 8), tmp_path / f"{name}.jsonl")
    train, test = (ds.load_dataset(tmp_path / f"{name}.jsonl") for name in ("train", "test"))
    assert calls  # load_dataset parses every scene document
    responder = SyntheticResponder()
    responder.add(train)
    responder.add(test)
    gateway = LlmGateway(mode="record", cache_path=str(tmp_path / "cache.jsonl"), transport=responder)

    calls.clear()
    lib, report = run_synthesis(train, builtin_lib, gateway, backend, SynthesisConfig(k_candidates=2))
    assert report.accepted and sum(len(o) for o in report.outcomes.values()) > 0
    assert evaluate(task, test, lib, backend, gateway).metrics["accuracy"] == 1.0
    assert calls == []
