"""The command line: the options it declares, and what `eval` passes on."""

from __future__ import annotations

import argparse
import dataclasses
import json

from modgrow import cli
from modgrow import reference_modules as rm
from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import generate_dataset, save_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.registry import builtin_library, register, save_library
from modgrow.replay_seed import SyntheticResponder

# Every option each subcommand declares, in declaration order. A new option
# is a new setting to keep, so it shows up here as a diff.
OPTIONS = {
    "learn": ("--mode", "--cache", "--model", "--eta", "--k", "--repairs", "--wall-time-ms",
              "--dataset", "--library", "--out", "--in-place"),
    "eval": ("--mode", "--cache", "--model", "--eta", "--k", "--repairs", "--wall-time-ms",
             "--dataset", "--library", "--report", "--ablation", "--train-dataset"),
    "run": ("--program", "--scene", "--library", "--question", "--expression", "--instruction",
            "--trace"),
    "library": ("--library",),
    "cache": (),
    "cache seed": ("--task", "--seed", "--n-train", "--n-test", "--templates", "--library",
                   "--train-out", "--test-out", "--cache", "--eta", "--k", "--repairs"),
    "cache show": ("--cache",),
}


def declared_options(parser, command=()) -> dict:
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(declared_options(sub, (*command, name)))
    if command:
        found[" ".join(command)] = tuple(
            option for action in parser._actions for option in action.option_strings
            if option not in ("-h", "--help")
        )
    return found


def test_option_census():
    assert declared_options(cli.build_parser()) == OPTIONS


def test_eval_runs_under_the_given_wall_time(tmp_path, backend):
    test = generate_dataset("grounding", 3, 2, {"templates": ["ordinal"]})
    split, cache, library = tmp_path / "test.jsonl", tmp_path / "cache.jsonl", tmp_path / "lib"
    save_dataset(test, split)
    fixture = rm.fixture_record("SORT_SPATIAL")
    # the catalogue shows signatures only, so the fixture's cache serves the looping module
    recorder = LlmGateway(mode="record", cache_path=str(cache), transport=SyntheticResponder(test))
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
        "sandbox: timeout: wall time budget of 50 ms exceeded"
    ] * 2
