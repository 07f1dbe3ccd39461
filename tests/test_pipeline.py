from __future__ import annotations

import json

import pytest

from modgrow import cli

TASKS = ("vqa", "grounding", "tagging", "editing", "raven", "mewl-analog")


@pytest.mark.parametrize("task", TASKS)
def test_seed_learn_eval_in_replay_mode(tmp_path, task):
    train, test, cache = tmp_path / "train.jsonl", tmp_path / "test.jsonl", tmp_path / "cache.jsonl"
    budget = ["--k", "2", "--repairs", "1"]
    steps = [
        ["cache", "seed", "--task", task, "--n-train", "12", "--n-test", "8", *budget,
         "--train-out", str(train), "--test-out", str(test), "--cache", str(cache)],
        ["learn", "--task", task, "--mode", "replay", "--cache", str(cache), *budget,
         "--dataset", str(train), "--out", str(tmp_path / "lib")],
        ["eval", "--task", task, "--mode", "replay", "--cache", str(cache), *budget,
         "--dataset", str(test), "--library", str(tmp_path / "lib"), "--report", str(tmp_path / "report")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    report = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
    assert report["n"] == 8
    assert report["metrics"]["accuracy"] == 1.0
