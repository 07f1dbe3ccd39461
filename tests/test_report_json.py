"""`report_json` writes the bytes `json.dumps(sort_keys=True, indent=2)` writes."""

from __future__ import annotations

import enum
import json
from collections import OrderedDict

import pytest

from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import generate_dataset
from modgrow.harness.evaluate import evaluate, report_json
from modgrow.replay_seed import SyntheticResponder
from modgrow.sandbox import CapturedError


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "task, knobs",
    [("vqa", None), ("grounding", None), ("tagging", None), ("editing", None),
     ("raven", None), ("raven", {"layout": "left-right"}), ("mewl-analog", None)],
)
def test_eval_reports_match_json_dumps(tmp_path, full_lib, backend, task, knobs):
    test = generate_dataset(task, 9, 6, knobs)
    responder = SyntheticResponder()
    responder.add(test)
    with LlmGateway(mode="record", cache_path=str(tmp_path / "cache.jsonl"), transport=responder) as gateway:
        report = evaluate(task, test, full_lib, backend, gateway)
    # an instance that failed, with a message that needs escaping
    report.per_instance[0].error = CapturedError("cache_miss", 'no "record" for\tprompt\n…')
    assert report.to_json() == reference(report.to_doc())


EDGE_DOCUMENT = {
    "empty": {"list": [], "dict": {}, "tuple": (), "text": ""},
    "constants": [None, True, False],
    "ints": [0, -1, 7, 2**70, -(2**70)],
    "floats": [0.1, 1e-07, -0.0, 1.5e300, 2.0, 1 / 3],
    "special": [float("nan"), float("inf"), float("-inf")],
    "text": ["naïve café", "日本", "emoji 😀", 'quote " back \\ slash', "tab\tline\nfeed\r\x00\x1f\x7f"],
    "gold": {"type": "regions", "value": [{"box": [1, 2, 3, 4], "label": "cat"}, {"box": (5, 6, 7, 8)}]},
    "nested": [[[[]]], [{}], {"b": [1, {"a": None}], "a": ({"z": 1, "y": [2.5]},)}],
    "Zebra": 1, "apple": 2, "ä": 3, "": 4, "10": 5, "9": 6,
}


def test_edge_values_match_json_dumps():
    assert report_json(EDGE_DOCUMENT) == reference(EDGE_DOCUMENT)
    for value in ([], {}, None, True, 0, 0.5, "x", float("nan"), [float("-inf")]):
        assert report_json(value) == reference(value)


class Color(enum.IntEnum):
    RED = 1


class Label(str):
    pass


class Ratio(float):
    pass


def test_types_it_does_not_write_itself_defer_to_json_dumps():
    doc = {
        "keys": [{2: "int", 1: "int"}, {2.5: "float", 0.5: "float"}, {True: "t", False: "f"},
                 {None: "none"}],
        "subclasses": [Color.RED, Label("tag"), Ratio(0.25), OrderedDict([("b", 1), ("a", 2)])],
        "label keys": {Label("b"): 1, "a": [Label("x")]},
    }
    assert report_json(doc) == reference(doc)
    assert report_json([{"inner": {3: [1, {"k": 2}]}}]) == reference([{"inner": {3: [1, {"k": 2}]}}])


@pytest.mark.parametrize("doc", [{"a": [1, {2, 3}]}, {"a": object()}, {1: "x", "b": "y"}, {(1, 2): 3}])
def test_unknown_types_raise_as_json_dumps_does(doc):
    with pytest.raises(TypeError) as expected:
        reference(doc)
    with pytest.raises(TypeError) as got:
        report_json(doc)
    assert str(got.value) == str(expected.value)


def test_deep_document_matches_json_dumps():
    doc: list = []
    inner = doc
    for _ in range(600):  # deeper than the recursive writer reaches
        inner.append([1])
        inner = inner[-1]
    assert report_json(doc) == reference(doc)


def test_circular_document_raises_as_json_dumps_does():
    doc: dict = {"a": []}
    doc["a"].append(doc)
    with pytest.raises(ValueError, match="Circular reference detected"):
        report_json(doc)
