"""The command line: the options it declares, and what `eval` passes on."""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

from modgrow import cli
from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import generate_dataset, save_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.registry import builtin_library, register, save_library
from modgrow.replay_seed import SyntheticResponder

from conftest import fixture_record

# Every option each subcommand declares, in declaration order, with the values
# it accepts if it names them. A new option or value is a new setting to keep,
# so it shows up here as a diff.
OPTIONS = {
    "learn": ("--mode {replay,record}", "--cache", "--model", "--eta", "--k", "--repairs",
              "--wall-time-ms", "--dataset", "--library", "--out"),
    "eval": ("--mode {replay,record}", "--cache", "--model", "--eta", "--k", "--repairs",
             "--wall-time-ms", "--dataset", "--library", "--report", "--ablation", "--train-dataset"),
    "run": ("--program", "--scene", "--library", "--question", "--expression", "--instruction",
            "--trace"),
    "library": ("--library",),
    "cache": (),
    "cache seed": ("--task {editing,grounding,mewl-analog,raven,tagging,vqa}", "--seed", "--n-train",
                   "--n-test", "--templates", "--library", "--train-out", "--test-out", "--cache",
                   "--eta", "--k", "--repairs"),
    "cache show": ("--cache", "--verify"),
}


def declared_options(parser, command=()) -> dict:
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(declared_options(sub, (*command, name)))
    if command:
        found[" ".join(command)] = tuple(
            option + (" {" + ",".join(action.choices) + "}" if action.choices else "")
            for action in parser._actions for option in action.option_strings
            if option not in ("-h", "--help")
        )
    return found


def test_option_census():
    assert declared_options(cli.build_parser()) == OPTIONS


def test_eval_runs_under_the_given_wall_time(tmp_path, backend):
    test = generate_dataset("grounding", 3, 2, {"templates": ["ordinal"]})
    split, cache, library = tmp_path / "test.jsonl", tmp_path / "cache.jsonl", tmp_path / "lib"
    save_dataset(test, split)
    fixture = fixture_record("SORT_SPATIAL")
    # the catalogue shows signatures only, so the fixture's cache serves the looping module
    with LlmGateway(mode="record", cache_path=str(cache), transport=SyntheticResponder(test)) as recorder:
        evaluate("grounding", test, register(builtin_library(), fixture), backend, recorder)
    lines = fixture.source.split("\n")
    at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("def execute("))
    lines[at + 1 : at + 1] = ["        while True:", "            pass"]
    looping = "\n".join(lines)
    save_library(register(builtin_library(), dataclasses.replace(fixture, source=looping)), library)

    argv = ["eval", "--mode", "replay", "--cache", str(cache), "--dataset", str(split),
            "--library", str(library), "--wall-time-ms", "50", "--report", str(tmp_path / "report")]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
    assert [o["error"] for o in report["per_instance"]] == [
        {"kind": "timeout", "message": "wall time budget of 50 ms exceeded"}
    ] * 2


@pytest.mark.parametrize("setting, message", [
    (["--eta", "0"], "eta must be in (0, 1]"),
    (["--k", "0"], "k_candidates must be >= 1 and r_repairs >= 0"),
    (["--repairs", "-1"], "k_candidates must be >= 1 and r_repairs >= 0"),
])
def test_cache_seed_refuses_a_bad_setting_before_writing(tmp_path, capsys, setting, message):
    outputs = [tmp_path / name for name in ("train.jsonl", "test.jsonl", "cache.jsonl")]
    argv = ["cache", "seed", "--task", "grounding", "--n-train", "2", "--n-test", "2", *setting,
            "--train-out", str(outputs[0]), "--test-out", str(outputs[1]), "--cache", str(outputs[2])]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("given", [
    ["--eta", "0.5"], ["--k", "5"], ["--repairs", "1"], ["--train-dataset", "train.jsonl"],
    ["--k", "2", "--train-dataset", "train.jsonl", "--eta", "0.9"],
])
def test_plain_eval_refuses_the_settings_of_ablation(tmp_path, capsys, given):
    argv = ["eval", "--mode", "replay", "--cache", str(tmp_path / "cache.jsonl"),
            "--dataset", str(tmp_path / "test.jsonl"), *given]
    assert cli.main(argv) == 2
    named = ", ".join(o for o in ("--eta", "--k", "--repairs", "--train-dataset") if o in given)
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {named} only apply with --ablation\n")


def test_eval_ablation_keeps_the_synthesis_defaults(tmp_path, monkeypatch):
    split, cache, grid = tmp_path / "test.jsonl", tmp_path / "cache.jsonl", tmp_path / "grid.json"
    save_dataset(generate_dataset("grounding", 3, 1, {"templates": ["ordinal"]}), split)
    cache.write_text("", encoding="utf-8")
    grid.write_text(json.dumps({"cells": []}), encoding="utf-8")
    configs = []

    class Stop(Exception):
        pass

    def capture(grid, train, test, lib, gateway, backend, cfg, task):
        configs.append(cfg)
        raise Stop

    monkeypatch.setattr(cli, "run_ablation", capture)
    base = ["eval", "--mode", "replay", "--cache", str(cache), "--dataset", str(split),
            "--ablation", str(grid)]
    for argv in (base, [*base, "--k", "2", "--repairs", "0", "--eta", "0.5"]):
        with pytest.raises(Stop):
            cli.main(argv)
    assert [(c.eta, c.k_candidates, c.r_repairs) for c in configs] == [(0.8, 5, 3), (0.5, 2, 0)]


@pytest.mark.parametrize("given", [[], ["--in-place"]])
def test_learn_refuses_a_missing_output_before_any_model_call(tmp_path, capsys, monkeypatch, given):
    split, cache = tmp_path / "train.jsonl", tmp_path / "cache.jsonl"
    save_dataset(generate_dataset("grounding", 3, 2, {"templates": ["ordinal"]}), split)
    monkeypatch.setenv("LLM_API_URL", "http://localhost:9")
    monkeypatch.setenv("LLM_API_KEY", "k")
    calls = []
    monkeypatch.setattr("modgrow.gateway.http_transport", calls.append)
    argv = ["learn", "--mode", "record", "--cache", str(cache), "--dataset", str(split), *given]
    with pytest.raises(SystemExit) as exit:
        cli.main(argv)
    assert exit.value.code == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: --out\n")
    assert calls == []
    assert not cache.exists()


def ablation_splits(tmp_path, monkeypatch):
    """Saved grounding splits, and a record-mode endpoint that is the stock
    responder over both: (train path, test path, calls it answered)."""
    train = generate_dataset("grounding", 3, 4, {"templates": ["ordinal"]})
    test = generate_dataset("grounding", 4, 3, {"templates": ["ordinal"]})
    paths = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    save_dataset(train, paths[0])
    save_dataset(test, paths[1])
    responder = SyntheticResponder()
    responder.add(train)
    responder.add(test)
    calls = []

    def endpoint(request):
        calls.append(request)
        return responder(request)

    monkeypatch.setenv("LLM_API_URL", "http://localhost:9")
    monkeypatch.setenv("LLM_API_KEY", "k")
    monkeypatch.setattr("modgrow.gateway.http_transport", endpoint)
    return *paths, calls


def test_eval_ablation_in_record_mode(tmp_path, monkeypatch, capsys):
    train, test, calls = ablation_splits(tmp_path, monkeypatch)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": [{"library": "wo-ml"}, {"train_size": 0}, {"train_size": 4}]}),
                    encoding="utf-8")
    argv = ["eval", "--mode", "record", "--cache", str(tmp_path / "cache.jsonl"), "--dataset", str(test),
            "--ablation", str(grid), "--train-dataset", str(train), "--k", "2", "--repairs", "1",
            "--report", str(tmp_path / "report")]
    assert cli.main(argv) == 0
    assert calls
    doc = json.loads((tmp_path / "report" / "ablation.json").read_text(encoding="utf-8"))
    assert [(r["label"], r["modules"], r["error"]) for r in doc["rows"]] == [
        ("w/o module learning", 22, None),
        ("full (0 train examples)", 22, None),
        ("full (4 train examples)", 23, None),
    ]
    assert [r["accuracy"] for r in doc["rows"]] == [0.0, 0.0, 1.0]
    assert doc["trend_non_decreasing"] is True
    table = (tmp_path / "report" / "ablation.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == table
    assert table.endswith("train-size trend non-decreasing: pass\n")


@pytest.mark.parametrize("cells, message", [
    ([{"train_size": 4}, {"train_size": 4, "model_id": "other"}],
     "unknown ablation cell key 'model_id'; known keys: library, train_size"),
    ([{"train_size": 4}, "full"], "each ablation cell must be an object"),
    ([{"train_size": 4}, {"library": "wo_ml"}],
     "unknown ablation library 'wo_ml'; known values: full, wo-ml"),
    ([{"library": "full"}, {"library": None, "train_size": 4}],
     "unknown ablation library None; known values: full, wo-ml"),
    # a string is the whole grid file, not its cells
    ('[{"train_size": 4}]', 'an ablation grid is an object whose "cells" is a list'),
    ('{"cells": 5}', 'an ablation grid is an object whose "cells" is a list'),
])
def test_eval_ablation_refuses_a_bad_cell_before_any_model_call(tmp_path, monkeypatch, capsys, cells, message):
    train, test, calls = ablation_splits(tmp_path, monkeypatch)
    grid = tmp_path / "grid.json"
    grid.write_text(cells if isinstance(cells, str) else json.dumps({"cells": cells}), encoding="utf-8")
    argv = ["eval", "--mode", "record", "--cache", str(tmp_path / "cache.jsonl"), "--dataset", str(test),
            "--ablation", str(grid), "--train-dataset", str(train)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


def test_the_environment_sets_neither_mode_nor_model(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LLM_MODE", "record")
    monkeypatch.setenv("LLM_MODEL_ID", "other")
    args = cli.build_parser().parse_args(["learn", "--dataset", "train.jsonl", "--out", "lib"])
    assert (args.mode, cli._config_from_args(args).model_id) == ("replay", "default-model")
    assert cli.main(["eval", "--dataset", str(tmp_path / "test.jsonl")]) == 2
    assert capsys.readouterr().err == "error: replay mode requires an existing cache file (got None)\n"
