"""`report.json` is one line of JSON that holds the whole report."""

from __future__ import annotations

import json

import pytest

from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import generate_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.replay_seed import SyntheticResponder
from modgrow.sandbox import CapturedError


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
    # an instance that failed, with a message and values that need escaping
    report.per_instance[0].error = CapturedError(
        "wrong_output", 'no "record" for\tprompt\n…', location=3, expected="text:'a\\b'", actual="None"
    )
    text = report.to_json()
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert json.loads(text) == json.loads(json.dumps(report.to_doc(), sort_keys=True, indent=2))
    assert json.loads(text)["per_instance"][0]["error"] == {
        "kind": "wrong_output", "message": 'no "record" for\tprompt\n…', "location": 3,
        "expected": "text:'a\\b'", "actual": "None",
    }
