from __future__ import annotations

import pytest

from modgrow import reference_modules as rm
from modgrow.harness import datasets as ds
from modgrow.sandbox import Limits, load_candidate
from modgrow.synthesis import (
    CandidateOutcome,
    Proposal,
    build_test_cases,
    compute_pass_rate,
    render_error_report,
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
