"""The command line: the options it declares, and what `eval` passes on."""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from modgrow import cli
from modgrow import reference_modules as rm
from modgrow.cache import read_records
from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import generate_dataset, load_dataset, save_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.registry import builtin_library, load_library, register, save_library
from modgrow.replay_seed import SyntheticResponder
from modgrow.synthesis import SynthesisConfig, run_synthesis

from conftest import fixture_record, make_scene, obj, with_first_statement

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


def test_eval_refuses_a_library_module_below_its_own_threshold(tmp_path, capsys):
    library, cache = tmp_path / "lib", tmp_path / "cache.jsonl"
    save_library(register(builtin_library(), fixture_record("SOLVER")), library)
    meta = json.loads((library / "SOLVER.json").read_text(encoding="utf-8"))
    (library / "SOLVER.json").write_text(json.dumps({**meta, "pass_rate": 0.1}), encoding="utf-8")
    cache.write_text("", encoding="utf-8")
    argv = ["eval", "--mode", "replay", "--cache", str(cache), "--dataset", str(tmp_path / "test.jsonl"),
            "--library", str(library)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {library}: SOLVER: pass rate 0.10 below threshold 0.80\n"


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
    for argv in (base, [*base, "--k", "3", "--repairs", "0", "--eta", "0.5"]):
        with pytest.raises(Stop):
            cli.main(argv)
    assert configs == [SynthesisConfig(), SynthesisConfig(eta=0.5, k_candidates=3, r_repairs=0)]


def test_a_default_seed_records_the_samples_a_default_learn_asks_for(tmp_path, backend):
    train, test, cache = (tmp_path / name for name in ("train.jsonl", "test.jsonl", "cache.jsonl"))
    argv = ["cache", "seed", "--task", "grounding", "--seed", "4", "--n-train", "4", "--n-test", "1",
            "--templates", "ordinal", "--train-out", str(train), "--test-out", str(test),
            "--cache", str(cache)]
    assert cli.main(argv) == 0
    asks = (re.search(r"could you write a new module, ([A-Z0-9_]+)", record["request"]["prompt"])
            for _, record in read_records(cache) if "request" in record)
    recorded = Counter(ask.group(1) for ask in asks if ask)
    with LlmGateway(mode="replay", cache_path=str(cache)) as gateway:
        _, report = run_synthesis(load_dataset(train), builtin_library(), gateway, backend, SynthesisConfig())
    sampled = {name: sum(o.repair_round == 0 for o in outs) for name, outs in report.outcomes.items()}
    assert recorded and sampled == dict(recorded)


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


def test_learn_prints_a_line_per_candidate_scored(tmp_path, capsys, monkeypatch):
    """Each candidate's sample index, repair round, pass rate and verdict;
    a rejected one's first error; and the sample whose score it repeats."""
    split = tmp_path / "train.jsonl"
    save_dataset(generate_dataset("grounding", 4, 4, {"templates": ["ordinal"]}), split)
    faulty = with_first_statement("SORT_SPATIAL", "raise ValueError('injected fault')")
    line = faulty.split("\n").index(" " * 8 + "raise ValueError('injected fault')") + 1
    responder = SyntheticResponder(load_dataset(split))
    responder.override_source("SORT_SPATIAL", [faulty, faulty, "no code here"])
    monkeypatch.setenv("LLM_API_URL", "http://localhost:9")
    monkeypatch.setenv("LLM_API_KEY", "k")
    monkeypatch.setattr("modgrow.gateway.http_transport", responder)
    argv = ["learn", "--mode", "record", "--cache", str(tmp_path / "cache.jsonl"), "--dataset", str(split),
            "--k", "2", "--repairs", "2", "--out", str(tmp_path / "lib")]
    assert cli.main(argv) == 0
    fault = f"runtime (line {line}): ValueError: injected fault"
    assert capsys.readouterr().out.splitlines()[:5] == [
        f"candidate SORT_SPATIAL #0 round 0  pass_rate=0.00  rejected  {fault}",
        f"candidate SORT_SPATIAL #1 round 0  pass_rate=0.00  rejected  {fault}  same source as #0",
        "candidate SORT_SPATIAL #2 round 1  pass_rate=0.00  rejected  "
        "response_parse: NO_CODE_FOUND: response contains no module implementation",
        "candidate SORT_SPATIAL #3 round 2  pass_rate=1.00  accepted",
        "accepted SORT_SPATIAL  pass_rate=1.00  eta=0.80",
    ]


def test_learn_marks_only_the_registered_sample_accepted(tmp_path, capsys, monkeypatch):
    """The library holds the first sample of the best source, so only its
    line reads `accepted`; every other sample that cleared η reads `passed`,
    another source as well as a copy of the registered one."""
    split = tmp_path / "train.jsonl"
    save_dataset(generate_dataset("grounding", 4, 4, {"templates": ["ordinal"]}), split)
    fixture = rm.FIXTURE_SOURCES["SORT_SPATIAL"]
    faulty = with_first_statement("SORT_SPATIAL", "raise ValueError('injected fault')")
    other = with_first_statement("SORT_SPATIAL", "pass")
    responder = SyntheticResponder(load_dataset(split))
    responder.override_source("SORT_SPATIAL", [faulty, fixture, other, fixture])
    monkeypatch.setenv("LLM_API_URL", "http://localhost:9")
    monkeypatch.setenv("LLM_API_KEY", "k")
    monkeypatch.setattr("modgrow.gateway.http_transport", responder)
    argv = ["learn", "--mode", "record", "--cache", str(tmp_path / "cache.jsonl"), "--dataset", str(split),
            "--k", "4", "--out", str(tmp_path / "lib")]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[:5]
    assert [line.split("  ")[2] for line in lines[:4]] == ["rejected", "accepted", "passed", "passed"]
    assert lines[3].endswith("passed  same source as #1")
    assert lines[4] == "accepted SORT_SPATIAL  pass_rate=1.00  eta=0.80"
    assert load_library(tmp_path / "lib").records["SORT_SPATIAL"].source == fixture.rstrip("\n")


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


# what a grid with a "full" cell is refused with when no training split is given
NO_TRAIN_SPLIT = "a full ablation cell needs a training split"


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
    # the training split holds 4 examples
    *[([{"library": "wo-ml"}, {"train_size": size}],
       f"ablation train_size {json.dumps(size)} is not an integer in 0..4")
      for size in (-1, -4, 1.9, True, "3", 5, 1000, None)],
    ([{"train_size": 4}, {"library": "wo-ml", "train_size": 2}], "a wo-ml ablation cell takes no train_size"),
    ([{"library": "wo-ml"}, {"library": "full"}], NO_TRAIN_SPLIT),
    ([], "ablation grid has no cells"),
])
def test_eval_ablation_refuses_a_bad_cell_before_any_model_call(tmp_path, monkeypatch, capsys, cells, message):
    train, test, calls = ablation_splits(tmp_path, monkeypatch)
    grid = tmp_path / "grid.json"
    grid.write_text(cells if isinstance(cells, str) else json.dumps({"cells": cells}), encoding="utf-8")
    argv = ["eval", "--mode", "record", "--cache", str(tmp_path / "cache.jsonl"), "--dataset", str(test),
            "--ablation", str(grid)]
    if message != NO_TRAIN_SPLIT:
        argv += ["--train-dataset", str(train)]
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


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """A recorded grounding split pair, its cache and a scene: their paths."""
    root = tmp_path_factory.mktemp("seeded")
    paths = {name: root / name for name in ("train.jsonl", "test.jsonl", "cache.jsonl", "scene.json", "grid.json")}
    argv = ["cache", "seed", "--task", "grounding", "--seed", "4", "--n-train", "4", "--n-test", "1",
            "--templates", "ordinal", "--train-out", str(paths["train.jsonl"]),
            "--test-out", str(paths["test.jsonl"]), "--cache", str(paths["cache.jsonl"])]
    assert cli.main(argv) == 0
    paths["scene.json"].write_text(json.dumps(make_scene(obj("c", "coat", (20, 15, 38, 33))).to_doc()),
                                   encoding="utf-8")
    paths["grid.json"].write_text(json.dumps({"cells": [{"library": "wo-ml"}]}), encoding="utf-8")
    return paths


def writing_to(seeded, target) -> dict[str, list[str]]:
    """A command line per output option, each writing to `target`."""
    cache, train, test = (str(seeded[name]) for name in ("cache.jsonl", "train.jsonl", "test.jsonl"))
    return {
        "learn --out": ["learn", "--cache", cache, "--dataset", train, "--out", target],
        "eval --report": ["eval", "--cache", cache, "--dataset", test, "--report", target],
        "eval --ablation --report": ["eval", "--cache", cache, "--dataset", test,
                                     "--ablation", str(seeded["grid.json"]), "--report", target],
        "run --trace": ["run", "--program", "FINAL_RESULT=RESULT(var=IMAGE)",
                        "--scene", str(seeded["scene.json"]), "--trace", target],
        "cache seed --train-out": ["cache", "seed", "--n-train", "1", "--n-test", "1", "--train-out", target,
                                   "--test-out", str(Path(target).parent / "test.jsonl"),
                                   "--cache", str(Path(target).parent / "cache.jsonl")],
    }


@pytest.mark.parametrize("option", ["learn --out", "eval --report", "eval --ablation --report",
                                    "run --trace", "cache seed --train-out"])
@pytest.mark.parametrize("where", ["an existing file", "a path under a file", "an existing directory"])
def test_an_output_path_the_file_system_refuses_is_an_error_line(tmp_path, capsys, monkeypatch, seeded,
                                                                  option, where):
    a_file, a_dir = tmp_path / "a_file", tmp_path / "a_dir"
    a_file.write_text("kept\n", encoding="utf-8")
    a_dir.mkdir()
    target = {"an existing file": a_file, "a path under a file": a_file / "out",
              "an existing directory": a_dir}[where]
    refused = {"an existing file": option.split()[0] in ("learn", "eval"),
               "a path under a file": True,
               "an existing directory": option.split()[0] in ("run", "cache")}[where]
    argv = writing_to(seeded, str(target))[option]
    calls = []
    if argv[0] in ("learn", "eval"):  # in record mode over an empty cache, every completion is a call
        responder = SyntheticResponder(load_dataset(seeded["train.jsonl"]) + load_dataset(seeded["test.jsonl"]))

        def endpoint(request):
            calls.append(request)
            return responder(request)

        monkeypatch.setenv("LLM_API_URL", "http://localhost:9")
        monkeypatch.setenv("LLM_API_KEY", "k")
        monkeypatch.setattr("modgrow.gateway.http_transport", endpoint)
        argv = [*argv, "--mode", "record", "--cache", str(tmp_path / "record.jsonl")]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if refused:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
        assert a_file.read_text(encoding="utf-8") == "kept\n"
        assert calls == [] and "accepted" not in out
    else:  # a file is overwritten, a directory is written into
        assert "error" not in err and code in (0, 1)
        assert bool(calls) == (argv[0] in ("learn", "eval"))


@pytest.mark.parametrize("command", ["learn", "eval"])
def test_a_wall_time_that_is_not_positive_is_an_error_line(capsys, seeded, command):
    split = seeded["train.jsonl" if command == "learn" else "test.jsonl"]
    argv = [command, "--cache", str(seeded["cache.jsonl"]), "--dataset", str(split), "--wall-time-ms", "0"]
    if command == "learn":
        argv += ["--out", str(split.parent / "never")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: limits must be positive\n"



def broken_line(doc: dict, fault: str, read: int) -> str:
    """The line of a raven instance, `doc`, with one fault in its first
    panel; `read` scenes come before it."""
    if fault == "bad JSON":
        return "{oops"
    if fault == "not an object":
        return "[]"
    if fault == "missing field":
        del doc["programs"]
    elif fault == "scene schema":
        doc["puzzle"]["panels"][0] = {"width": -1, "height": 80, "objects": []}
    elif fault == "puzzle null":
        doc["puzzle"] = None
    elif fault in PUZZLE_FIELDS:
        field, value = PUZZLE_FIELDS[fault]
        doc["puzzle"][field] = value
    elif fault in LINE_FIELDS:
        *path, field, value = LINE_FIELDS[fault]
        holder = doc
        for key in path:
            holder = holder[key]
        if value is DROP:
            del holder[field]
        else:
            holder[field] = value
    else:  # a scene reference
        doc["puzzle"]["panels"][0] = {"true": True, "negative": -1, "forward": read}[fault]
    return json.dumps(doc, sort_keys=True)


# a puzzle field of the wrong JSON type or value: (field, value)
PUZZLE_FIELDS = {
    "panels {}": ("panels", {}),
    "panels []": ("panels", []),
    "panels object": ("panels", {"a": 1}),
    "candidates text": ("candidates", "abc"),
    "rules list": ("rules", ["constant", "progression"]),
    "answer_index text": ("answer_index", "2"),
    "layout unknown": ("layout", "diagonal"),
}

DROP = object()
# a field of the wrong JSON type or value outside the scenes and the
# puzzle: (key, ..., field, value), where DROP deletes the field
LINE_FIELDS = {
    "id number": ("id", 1),
    "task null": ("task", None),
    "query number": ("query", 5),
    "query_spec list": ("query_spec", []),
    "gold null": ("gold", None),
    "gold without value": ("gold", "value", DROP),
    "gold type unknown": ("gold", "type", "zzz"),
    "gold type of another task": ("gold", "type", "text"),
    "gold value text": ("gold", "value", "x"),
    "programs null": ("programs", None),
    "fallback missing": ("programs", "fallback", DROP),
    "canonical number": ("programs", "canonical", 3),
    "module_cases list": ("module_cases", []),
    "case null": ("module_cases", "SOLVER", None),
    "case program missing": ("module_cases", "SOLVER", "program", DROP),
    "case without gold": ("module_cases", "DETECT_SHAPE", "gold", DROP),
    "case gold without value": ("module_cases", "SOLVER", "gold", "value", DROP),
    "case gold type unknown": ("module_cases", "SOLVER", "gold", "type", "zzz"),
    "case gold without a value form": ("module_cases", "DETECT_SHAPE", "gold", "type", "tagged-regions"),
    "case gold value number": ("module_cases", "DETECT_SHAPE", "gold", "value", 5),
    "case gold box number": ("module_cases", "SOLVER", "gold", {"type": "box", "value": 7}),
    # a case as splits held it before cases carried golds
    "case of the old format": ("module_cases", "SOLVER", {
        "program": "ANSWER0=EVAL(expr=f\"1\")\nFINAL_RESULT=RESULT(var=ANSWER0)",
        "expected": {"tag": "number", "payload": 1}, "comparator": "numeric-eq"}),
}

SPLIT_FAULTS = {
    "puzzle null": "puzzle: must be an object",
    "panels {}": "puzzle.panels: must be a list of 8 scenes",
    "panels []": "puzzle.panels: must be a list of 8 scenes",
    "panels object": "puzzle.panels: must be a list of 8 scenes",
    "candidates text": "puzzle.candidates: must be a nonempty list of scenes",
    "rules list": "puzzle.rules: must map each dimension to a rule name",
    "answer_index text": "puzzle.answer_index: must be an integer in 1..8",
    "layout unknown": "puzzle.layout: must be one of center, left-right, up-down",
    "bad JSON": "not valid JSON: Expecting property name enclosed in double quotes at column 2",
    "not an object": "the line is not a JSON object",
    "missing field": "missing field 'programs'",
    "scene schema": "puzzle.panels[0]: width: must be a positive integer",
    "true": "puzzle.panels[0]: scene reference true names no scene read before it ({read} so far)",
    "negative": "puzzle.panels[0]: scene reference -1 names no scene read before it ({read} so far)",
    "forward": "puzzle.panels[0]: scene reference {read} names no scene read before it ({read} so far)",
    "id number": "id: must be a string",
    "task null": "task: must be a string",
    "query number": "query: must be a string",
    "query_spec list": "query_spec: must be an object",
    "gold null": "gold: must be an object with a type and a value",
    "gold without value": "gold: must be an object with a type and a value",
    "gold type unknown": "gold.type: must be one of index",
    "gold type of another task": "gold.type: must be one of index",
    "gold value text": "gold.value: must be a number",
    "programs null": "programs: must be an object",
    "fallback missing": "programs.fallback: must be a string",
    "canonical number": "programs.canonical: must be a string",
    "module_cases list": "module_cases: must be an object",
    "case null": "module_cases.SOLVER: must be an object",
    "case program missing": "module_cases.SOLVER.program: must be a string",
    "case without gold": "module_cases.DETECT_SHAPE.gold: must be an object with a type and a value",
    "case gold without value": "module_cases.SOLVER.gold: must be an object with a type and a value",
    "case gold type unknown": "module_cases.SOLVER.gold.type: must be one of box, index, list, number, records, text",
    "case gold without a value form":
        "module_cases.DETECT_SHAPE.gold.type: must be one of box, index, list, number, records, text",
    "case gold value number": "module_cases.DETECT_SHAPE.gold.value: must be a list",
    "case gold box number": "module_cases.SOLVER.gold.value: must be four numbers, or null",
    "case of the old format": "module_cases.SOLVER.gold: must be an object with a type and a value",
}


@pytest.mark.parametrize("command", ["learn", "eval"])
@pytest.mark.parametrize("fault", sorted(SPLIT_FAULTS))
def test_a_malformed_split_line_is_an_error_naming_the_file_and_line(tmp_path, capsys, command, fault):
    split, cache = tmp_path / "split.jsonl", tmp_path / "cache.jsonl"
    save_dataset(generate_dataset("raven", 7, 3), split)
    lines = split.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])["puzzle"]
    read = sum(isinstance(slot, dict) for slot in first["panels"] + first["candidates"])
    lines[1] = broken_line(json.loads(lines[1]), fault, read)
    split.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cache.write_text("", encoding="utf-8")
    argv = [command, "--cache", str(cache), "--dataset", str(split)]
    if command == "learn":
        argv += ["--out", str(tmp_path / "lib")]
    assert cli.main(argv) == 2
    message = SPLIT_FAULTS[fault].format(read=read)
    assert capsys.readouterr().err == f"error: {split}: line 2: {message}\n"
