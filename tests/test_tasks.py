"""The task table and the checks on task and template names."""

from __future__ import annotations

import json
import random

import pytest

from modgrow import cli
from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import (
    GOLD_TYPES,
    TASKS,
    build_bindings,
    generate_dataset,
    generate_raven_puzzle,
    save_dataset,
)
from modgrow.harness.evaluate import evaluate
from modgrow.replay_seed import SyntheticResponder
from modgrow.synthesis import SynthesisConfig, run_synthesis


# the names stage-3 programs read, as the execution prompt's examples use them
BINDING_TAGS = {
    "vqa": {"IMAGE": "image", "QUESTION": "text"},
    "grounding": {"IMAGE": "image", "EXPRESSION": "text"},
    "tagging": {"IMAGE": "image", "EXPRESSION": "text"},
    "editing": {"IMAGE": "image", "INSTRUCTION": "text"},
    "raven": {"PANELS": "list", "CANDIDATES": "list"},
    "mewl-analog": {"EXAMPLES": "list", "QUERY": "image"},
}


def test_every_template_generates_and_binds_its_task():
    assert sorted(TASKS) == sorted(BINDING_TAGS)
    for task, spec in TASKS.items():
        for name in spec.templates:
            (instance,) = generate_dataset(task, 1, 1, {"templates": [name]})
            assert instance.task == task
            bindings = build_bindings(instance)
            assert {key: value.tag for key, value in bindings.items()} == BINDING_TAGS[task]


def test_every_template_plants_a_gold_type_its_task_judges():
    """`load_dataset` refuses a gold type outside its task's `gold_types`."""
    for task, spec in TASKS.items():
        planted = {instance.gold["type"] for name in spec.templates
                   for instance in generate_dataset(task, 1, 2, {"templates": [name]})}
        assert planted == set(spec.gold_types), task


def test_every_gold_type_of_a_task_has_its_rules():
    for task, spec in TASKS.items():
        assert set(spec.gold_types) <= set(GOLD_TYPES), task


def test_unknown_template_lists_the_task_templates():
    with pytest.raises(ValueError, match="no template 'bogus'; its templates: edit$"):
        generate_dataset("editing", 1, 2, {"templates": ["bogus"]})
    with pytest.raises(ValueError, match="its templates: depth, half, ordinal, region, select$"):
        generate_dataset("grounding", 1, 2, {"templates": ["ordinal", "count"]})


def test_unknown_task_is_refused():
    with pytest.raises(ValueError, match="unknown task 'nope'"):
        generate_dataset("nope", 1, 2)


KNOWN_RAVEN_KNOBS = (
    "layouts: center, left-right, up-down; dimensions: shape, color, size; "
    "rules: constant, progression, distribute-three$"
)


@pytest.mark.parametrize("knobs, unknown", [
    ({"rules": {"shape": "bogus", "colour": "constant"}}, "rule 'bogus' for shape, dimension 'colour'"),
    ({"rules": {"colour": "constant"}}, "dimension 'colour'"),
    ({"layout": "diagonal"}, "layout 'diagonal'"),
])
def test_unknown_raven_knobs_are_refused_before_any_draw(knobs, unknown):
    with pytest.raises(ValueError, match=f"^unknown raven {unknown}; {KNOWN_RAVEN_KNOBS}"):
        generate_dataset("raven", 1, 1, knobs)
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ValueError):
        generate_raven_puzzle(rng, **knobs)
    assert rng.getstate() == state


@pytest.mark.parametrize("task, knobs, message", [
    ("raven", {"layuot": "up-down"}, "task 'raven' has no knob 'layuot'; its knobs: layout, rules, templates$"),
    ("vqa", {"layout": "x"}, "task 'vqa' has no knob 'layout'; its knobs: templates$"),
    ("raven", {"rules": ["constant"]}, f"raven rules must map a dimension to a rule, not a list; {KNOWN_RAVEN_KNOBS}"),
])
def test_a_knob_the_templates_do_not_take_is_refused_before_any_draw(monkeypatch, task, knobs, message):
    made = []

    class Watched(random.Random):
        def __init__(self, x=None):
            super().__init__(x)
            made.append((self, self.getstate()))

    monkeypatch.setattr(random, "Random", Watched)
    with pytest.raises(ValueError, match=f"^{message}"):
        generate_dataset(task, 1, 1, knobs)
    assert all(rng.getstate() == state for rng, state in made)


def test_evaluate_refuses_an_instance_of_another_task(tmp_path, builtin_lib, backend):
    test = generate_dataset("editing", 1, 2)
    gateway = LlmGateway(mode="record", cache_path=str(tmp_path / "cache.jsonl"),
                         transport=SyntheticResponder(test))
    with pytest.raises(ValueError, match=r"instance editing-1-0000 is of task 'editing', not 'vqa'"):
        evaluate("vqa", test, builtin_lib, backend, gateway)
    with pytest.raises(ValueError, match="unknown task 'nope'"):
        evaluate("nope", [], builtin_lib, backend, gateway)
    assert not (tmp_path / "cache.jsonl").exists()


def test_cli_refuses_an_unknown_task(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["cache", "seed", "--task", "nope", "--train-out", str(tmp_path / "train.jsonl"),
                  "--test-out", str(tmp_path / "test.jsonl"), "--cache", str(tmp_path / "cache.jsonl")])
    assert exit_info.value.code == 2
    assert "error: argument --task: invalid choice: 'nope'" in capsys.readouterr().err


def unknown_task_split():
    (instance,) = generate_dataset("editing", 1, 1)
    instance.task = "nope"
    return [instance]


@pytest.mark.parametrize("make_split, message", [
    (list, "the split is empty"),
    (lambda: generate_dataset("vqa", 1, 1) + generate_dataset("editing", 1, 1),
     "the split mixes tasks editing, vqa"),
    (unknown_task_split, f"unknown task 'nope'; known tasks: {', '.join(sorted(TASKS))}"),
], ids=["empty", "mixed", "unknown"])
def test_cli_eval_refuses_a_split_without_one_known_task(tmp_path, capsys, make_split, message):
    split, cache = tmp_path / "test.jsonl", tmp_path / "cache.jsonl"
    save_dataset(make_split(), split)
    cache.write_text("", encoding="utf-8")
    assert cli.main(["eval", "--mode", "replay", "--cache", str(cache), "--dataset", str(split)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_learn_refuses_an_empty_split(tmp_path, capsys):
    split, cache, out = tmp_path / "train.jsonl", tmp_path / "cache.jsonl", tmp_path / "lib"
    save_dataset([], split)
    cache.write_text("", encoding="utf-8")
    argv = ["learn", "--mode", "replay", "--cache", str(cache), "--dataset", str(split), "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the split is empty\n"
    assert not out.exists()


def test_learn_and_eval_read_the_task_from_the_split(tmp_path):
    train, test, cache = tmp_path / "train.jsonl", tmp_path / "test.jsonl", tmp_path / "cache.jsonl"
    replay = ["--mode", "replay", "--cache", str(cache)]
    steps = [
        ["cache", "seed", "--task", "grounding", "--templates", "ordinal", "--n-train", "2",
         "--n-test", "2", "--train-out", str(train), "--test-out", str(test), "--cache", str(cache)],
        ["learn", *replay, "--k", "2", "--repairs", "1", "--dataset", str(train),
         "--out", str(tmp_path / "lib")],
        ["eval", *replay, "--dataset", str(test), "--library", str(tmp_path / "lib"),
         "--report", str(tmp_path / "report")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    module = json.loads((tmp_path / "lib" / "SORT_SPATIAL.json").read_text(encoding="utf-8"))
    assert module["origin_task"] == "grounding"
    report = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
    assert (report["task"], report["n"], report["metrics"]["accuracy"]) == ("grounding", 2, 1.0)


def test_a_module_records_the_tasks_of_its_cases(tmp_path, builtin_lib, backend):
    train = [*generate_dataset("tagging", 1, 2, {"templates": ["ordinal"]}),
             *generate_dataset("grounding", 1, 2, {"templates": ["ordinal"]})]
    with LlmGateway(mode="record", cache_path=str(tmp_path / "cache.jsonl"),
                    transport=SyntheticResponder(train)) as gateway:
        lib, report = run_synthesis(train, builtin_lib, gateway, backend, SynthesisConfig(k_candidates=1))
    assert report.accepted == ("SORT_SPATIAL",)
    assert lib.records["SORT_SPATIAL"].origin_task == "grounding,tagging"


@pytest.mark.parametrize("task, templates", [("vqa", "count,bogus"), ("raven", "bogus"),
                                             ("mewl-analog", "count")])
def test_cli_seed_refuses_an_unknown_template(tmp_path, capsys, task, templates):
    outputs = [tmp_path / name for name in ("train.jsonl", "test.jsonl", "cache.jsonl")]
    argv = ["cache", "seed", "--task", task, "--templates", templates, "--train-out", str(outputs[0]),
            "--test-out", str(outputs[1]), "--cache", str(outputs[2])]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: task {task!r} has no template ")
    assert f"its templates: {', '.join(sorted(TASKS[task].templates))}\n" in err
    assert not any(path.exists() for path in outputs)
