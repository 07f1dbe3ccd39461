"""The split-layout puzzle driver, `evaluate.solve_puzzle_with_modules`: the
calls it makes through the registry, the records it hands SOLVER, and what
a module it drives can and cannot change."""

from __future__ import annotations

import dataclasses

import pytest

from modgrow.backends import SyntheticBackend
from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import generate_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.harness.oracle import panel_record
from modgrow.registry import ExecutionRegistry, builtin_library, register
from modgrow.scene import ImageHandle

from conftest import fixture_record, with_first_statement


def no_request(request):
    raise AssertionError("the driver asks the gateway nothing")


def raven_lib(detect_shape=None):
    """A builtin library with SOLVER and `detect_shape`, by default the stock DETECT_SHAPE."""
    return register(register(builtin_library(), detect_shape or fixture_record("DETECT_SHAPE")),
                    fixture_record("SOLVER"))


def driven(lib, test):
    """The report of `evaluate` on split-layout puzzles `test`."""
    with LlmGateway(mode="record", transport=no_request) as gateway:
        return evaluate("raven", test, lib, SyntheticBackend(), gateway)


@pytest.mark.parametrize("layout", ["left-right", "up-down"])
def test_each_side_of_a_puzzle_is_read_with_one_call(monkeypatch, layout):
    calls = []
    real = ExecutionRegistry.invoke_generated

    def spy(self, name, resolved_args, backend):
        calls.append((name, resolved_args))
        return real(self, name, resolved_args, backend)

    monkeypatch.setattr(ExecutionRegistry, "invoke_generated", spy)
    test = generate_dataset("raven", 21, 3, {"layout": layout})
    report = driven(raven_lib(), test)
    assert report.metrics["accuracy"] == 1.0
    assert [name for name, _ in calls] == ["DETECT_SHAPE", "DETECT_SHAPE", "SOLVER"] * len(test)
    for at, instance in enumerate(sorted(test, key=lambda i: i.id)):
        panels, candidates, solver = calls[3 * at:3 * at + 3]
        puzzle = instance.puzzle
        for (_, args), scenes in ((panels, puzzle.panels), (candidates, puzzle.candidates)):
            image = args["image"]
            assert image.tag == "list" and len(image.payload) == 16
            assert all(isinstance(crop, ImageHandle) for crop in image.payload)
            # panel-then-region order: both halves of a scene are adjacent
            assert [crop.scene for crop in image.payload] == [s for s in scenes for _ in range(2)]
        records = solver[1]
        assert list(records["panel_attributes"].payload) == [panel_record(p, layout) for p in puzzle.panels]
        assert list(records["candidate_attributes"].payload) == [
            panel_record(c, layout) for c in puzzle.candidates
        ]


# a str subclass posing as a colour question no other test asks, so that
# no cache holds its exact text before the subclass is asked
POSED = "What color is the item?"
PINK = ("class Pink(str):\n"
        "            def __eq__(self, other):\n"
        "                return True\n"
        "            def __hash__(self):\n"
        f"                return hash({POSED!r})\n"
        "            def lower(self):\n"
        "                return self\n"
        "        for img in image:\n"
        "            API.vqa(img, Pink('What shape is the object?'))")


def test_a_str_subclass_question_asked_at_eval_cannot_change_a_later_answer():
    asking = dataclasses.replace(fixture_record("DETECT_SHAPE"),
                                 source=with_first_statement("DETECT_SHAPE", PINK))
    test = generate_dataset("raven", 21, 3, {"layout": "left-right"})
    first = driven(raven_lib(asking), test)
    assert first.metrics["accuracy"] == 1.0
    assert driven(raven_lib(), test).to_doc()["per_instance"] == first.to_doc()["per_instance"]
    backend = SyntheticBackend()
    for instance in test:
        for panel in instance.puzzle.panels:
            left = ImageHandle.of_scene(panel).crop((0, 0, panel.width // 2, panel.height))
            color = dict(panel_record(panel, "left-right"))["left_color"]
            assert backend.answer_question(left, POSED) == color
