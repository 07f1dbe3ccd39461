"""What a program that does not parse, validate or run leaves behind: the
error record of an `evaluate` report, the error of a gated case, and the
output, exit code and trace of `modgrow run`."""

from __future__ import annotations

import dataclasses
import json

import pytest

from modgrow import cli
from modgrow import reference_modules as rm
from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import generate_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.registry import builtin_library, register, save_library
from modgrow.sandbox import CapturedError, load_candidate
from modgrow.synthesis import Proposal, build_test_cases, compute_pass_rate

from conftest import fixture_record, make_scene, obj, with_first_statement

UNPARSEABLE = "ANSWER0=VQA(image=IMAGE,question=)\nFINAL_RESULT=RESULT(var=ANSWER0)"
INVALID = "ANSWER0=NOPE(image=IMAGE)\nFINAL_RESULT=RESULT(var=ANSWER1)"
FAILING = (
    "BOX0=LOC(image=IMAGE,object='coat')\n"
    "ANSWER0=FILTER_SPATIAL(image=IMAGE,box=BOX0,location='middle')\n"
    "FINAL_RESULT=RESULT(var=ANSWER0)"
)


@pytest.mark.parametrize("response, kind, message", [
    (UNPARSEABLE, "syntax", "SYNTAX unexpected character ')' in argument value"),
    (INVALID, "validation", "UNKNOWN_MODULE unknown module NOPE"),
    ('ANSWER0=EVAL(expr=f"1/0")\nFINAL_RESULT=RESULT(var=ANSWER0)',
     "template", "TEMPLATE_SYNTAX: expression failed: division by zero"),
])
def test_evaluate_records_a_stage3_program_that_fails(builtin_lib, backend, response, kind, message):
    test = generate_dataset("vqa", 3, 2)
    with LlmGateway(mode="record", transport=lambda request: response) as gateway:
        report = evaluate("vqa", test, builtin_lib, backend, gateway)
    assert [(o.correct, o.predicted, o.error, o.trace) for o in report.per_instance] == [
        (False, "", CapturedError(kind, message), [])
    ] * 2
    assert [o["error"] for o in report.to_doc()["per_instance"]] == [{"kind": kind, "message": message}] * 2


@pytest.mark.parametrize("program, kind, message", [
    (UNPARSEABLE, "syntax", "SYNTAX unexpected character ')' in argument value"),
    ("", "syntax", "SYNTAX empty program"),
    (INVALID, "validation", "UNKNOWN_MODULE unknown module NOPE"),
])
def test_a_case_program_that_fails_to_parse_or_validate_fails_its_case(
    builtin_lib, backend, program, kind, message
):
    name = "CHOOSE_ATTRIBUTE"
    proposal = Proposal(rm.fixture_signature(name), rm.fixture_header(name))
    cases = build_test_cases(proposal, generate_dataset("vqa", 7, 12))
    handle = load_candidate(rm.FIXTURE_SOURCES[name], signature=proposal.signature)
    broken = [dataclasses.replace(case, program=program) for case in cases]
    rate, results = compute_pass_rate(handle, [cases[0], *broken], builtin_lib, backend)
    assert rate == 1 / (1 + len(broken))
    assert [r.error for r in results] == [None] + [CapturedError(kind, message)] * len(broken)


def test_evaluate_records_a_driver_read_that_is_not_one_record_of_pairs_per_crop(builtin_lib, backend):
    """A DETECT_SHAPE whose records are texts is not read as key 'a', value 'b'."""
    broken = dataclasses.replace(fixture_record("DETECT_SHAPE"),
                                 source=with_first_statement("DETECT_SHAPE", "return ['ab'] * len(image)"))
    lib = register(register(builtin_lib, broken), fixture_record("SOLVER"))
    test = generate_dataset("raven", 5, 2, {"layout": "left-right"})
    with LlmGateway(mode="record", transport=lambda request: "") as gateway:
        report = evaluate("raven", test, lib, backend, gateway)
    assert [(o["correct"], o["predicted"], o["error"]) for o in report.to_doc()["per_instance"]] == [
        (False, "", {"kind": "wrong_output",
                     "message": "DETECT_SHAPE record 0 is not a list of [key, value] pairs",
                     "expected": "a list of [text, text] pairs", "actual": "text:'ab'"})
    ] * 2
    assert report.per_instance[0].error.render() == (
        "wrong_output: expected a list of [text, text] pairs, got text:'ab'")


@pytest.fixture()
def run(tmp_path, capsys):
    """`modgrow run` over a one-coat scene: (exit code, stdout, stderr, trace lines or None)."""
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(make_scene(obj("c", "coat", (200, 150, 380, 330), color="black")).to_doc()),
                     encoding="utf-8")
    trace = tmp_path / "trace.jsonl"

    def run_program(program: str, *extra: str):
        trace.unlink(missing_ok=True)
        code = cli.main(["run", "--program", program, "--scene", str(scene), "--trace", str(trace), *extra])
        out, err = capsys.readouterr()
        lines = trace.read_text(encoding="utf-8").splitlines() if trace.exists() else None
        return code, out, err, lines

    return run_program


def test_run_prints_the_answer_and_traces_each_step(run):
    program = "ANSWER0=VQA(image=IMAGE,question=QUESTION)\nFINAL_RESULT=RESULT(var=ANSWER0)"
    code, out, err, lines = run(program, "--question", "What color is the coat?")
    assert (code, out, err) == (0, "text:'black'\n", "")
    docs = [json.loads(line) for line in lines]
    assert [sorted(doc) for doc in docs] == [
        ["elapsed_ms", "line_no", "module_kind", "output", "resolved_inputs", "statement"]
    ] * 2
    assert [(d["line_no"], d["statement"], d["output"]) for d in docs] == [
        (1, "ANSWER0=VQA(image=IMAGE,question=QUESTION)", "text:'black'"),
        (2, "FINAL_RESULT=RESULT(var=ANSWER0)", "text:'black'"),
    ]


@pytest.mark.parametrize("program, err", [
    (UNPARSEABLE, "line 1: SYNTAX: unexpected character ')' in argument value\n"),
    (INVALID, "line 1: UNKNOWN_MODULE: unknown module NOPE\n"
              "line 2: UNDEFINED_VAR: undefined variable ANSWER1\n"),
])
def test_run_lists_every_diagnostic_and_runs_nothing(run, program, err):
    assert run(program) == (1, "", err, None)


@pytest.mark.parametrize("program", [UNPARSEABLE, INVALID])
def test_run_that_runs_nothing_leaves_no_earlier_trace(tmp_path, program):
    """A trace file means the program ran: one left by an earlier run goes."""
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(make_scene(obj("c", "coat", (200, 150, 380, 330))).to_doc()),
                     encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    argv = ["run", "--scene", str(scene), "--trace", str(trace), "--question", "What color is the coat?"]
    answered = "ANSWER0=VQA(image=IMAGE,question=QUESTION)\nFINAL_RESULT=RESULT(var=ANSWER0)"
    assert cli.main([*argv, "--program", answered]) == 0
    assert len(trace.read_text(encoding="utf-8").splitlines()) == 2
    assert cli.main([*argv, "--program", program]) == 1
    assert not trace.exists()
    assert cli.main([*argv, "--program", program]) == 1  # and with no file there
    assert not trace.exists()


def test_run_reports_a_runtime_error_with_the_partial_trace(run):
    code, out, err, lines = run(FAILING)
    assert (code, out, err) == (1, "", "line 2: RUNTIME_ERROR: type: unknown spatial location 'middle'\n")
    assert [json.loads(line)["statement"] for line in lines] == ["BOX0=LOC(image=IMAGE,object='coat')"]


def test_run_reports_a_module_failure_by_the_sandbox_kind(run, tmp_path):
    """The whole sandbox record: a `runtime` names its candidate line, and a
    `wrong_output` gives the expected and actual values."""
    program = (
        "BOX0=LOC(image=IMAGE,object='coat')\n"
        "ANSWER0=CHOOSE_ATTRIBUTE(image=IMAGE,box=BOX0,object='coat',attribute1='black',attribute2='white')\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    for fault, message in [
        ("raise ValueError('injected fault')", "runtime (line 56): ValueError: injected fault"),
        ("return None", "wrong_output: expected text, got null"),
    ]:
        record = dataclasses.replace(fixture_record("CHOOSE_ATTRIBUTE"),
                                     source=with_first_statement("CHOOSE_ATTRIBUTE", fault))
        library = tmp_path / "lib"
        save_library(register(builtin_library(), record), library)
        code, out, err, lines = run(program, "--library", str(library))
        assert (code, out, err) == (1, "", f"line 2: RUNTIME_ERROR: {message}\n")
        assert len(lines) == 1
