"""The task table and the checks on task and template names."""

from __future__ import annotations

import pytest

from modgrow import cli
from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import TASKS, build_bindings, generate_dataset, save_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.replay_seed import SyntheticResponder


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
            bindings = build_bindings(instance).bindings
            assert {key: value.tag for key, value in bindings.items()} == BINDING_TAGS[task]


def test_unknown_template_lists_the_task_templates():
    with pytest.raises(ValueError, match="no template 'bogus'; its templates: edit$"):
        generate_dataset("editing", 1, 2, {"templates": ["bogus"]})
    with pytest.raises(ValueError, match="its templates: depth, half, ordinal, region, select$"):
        generate_dataset("grounding", 1, 2, {"templates": ["ordinal", "count"]})


def test_unknown_task_is_refused():
    with pytest.raises(ValueError, match="unknown task 'nope'"):
        generate_dataset("nope", 1, 2)


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
        cli.main(["eval", "--task", "nope", "--dataset", str(tmp_path / "test.jsonl")])
    assert exit_info.value.code == 2
    assert "error: argument --task: invalid choice: 'nope'" in capsys.readouterr().err


def test_cli_eval_refuses_a_split_of_another_task(tmp_path, capsys):
    split, cache = tmp_path / "test.jsonl", tmp_path / "cache.jsonl"
    save_dataset(generate_dataset("editing", 1, 2), split)
    cache.write_text("", encoding="utf-8")
    argv = ["eval", "--task", "vqa", "--mode", "replay", "--cache", str(cache), "--dataset", str(split)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: instance editing-1-0000 is of task 'editing', not 'vqa'\n"


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
