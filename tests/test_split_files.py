"""Split files: each distinct scene document is stored and loaded once.

A scene slot of an instance line holds either a whole scene document, the
next entry of the file's scene table, or the number of a document read
earlier in the file. A file written with every scene inline, as every split
was before scenes were numbered, still loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modgrow.harness import datasets as ds

from conftest import distinct_scene_docs

TASKS = ("vqa", "grounding", "tagging", "editing", "raven", "mewl-analog")


def scenes_of(instance) -> list:
    """Every scene an instance holds."""
    scenes = [s for s in (instance.scene, instance.query_scene) if s is not None]
    if instance.puzzle is not None:
        scenes += [*instance.puzzle.panels, *instance.puzzle.candidates]
    return scenes + [s for s, _ in instance.example_pairs]


@pytest.mark.parametrize("task", TASKS)
def test_a_split_loads_into_the_instances_it_was_written_from(tmp_path, task):
    generated = ds.generate_dataset(task, 3, 12)
    ds.save_dataset(generated, tmp_path / "split.jsonl")
    loaded = ds.load_dataset(tmp_path / "split.jsonl")
    assert [i.to_doc() for i in loaded] == [i.to_doc() for i in generated]


@pytest.mark.parametrize("task", ["raven", "mewl-analog", "vqa"])
def test_each_distinct_scene_is_loaded_once_and_shared(tmp_path, monkeypatch, task):
    calls = []
    original = ds.load_scene
    monkeypatch.setattr(ds, "load_scene", lambda document: calls.append(1) or original(document))
    generated = ds.generate_dataset(task, 7, 24)
    ds.save_dataset(generated, tmp_path / "split.jsonl")
    loaded = ds.load_dataset(tmp_path / "split.jsonl")
    assert len(calls) == distinct_scene_docs(generated)
    # instances that name one scene hold the same object
    by_content: dict[tuple, object] = {}
    for scene in (s for instance in loaded for s in scenes_of(instance)):
        assert by_content.setdefault(scene.content_key(), scene) is scene
    assert len(by_content) == len(calls)


def test_a_raven_split_stores_each_distinct_panel_once(tmp_path):
    generated = ds.generate_dataset("raven", 7, 24)
    ds.save_dataset(generated, tmp_path / "split.jsonl")
    lines = (tmp_path / "split.jsonl").read_text(encoding="utf-8").splitlines()
    puzzles = [json.loads(line)["puzzle"] for line in lines]
    slots = [slot for puzzle in puzzles for slot in puzzle["panels"] + puzzle["candidates"]]
    documents = [slot for slot in slots if isinstance(slot, dict)]
    assert len(documents) == distinct_scene_docs(generated) < len(slots) == 24 * 16
    assert all(type(slot) is int for slot in slots if not isinstance(slot, dict))


@pytest.mark.parametrize("task", ["raven", "mewl-analog", "grounding"])
def test_a_split_with_every_scene_inline_loads_into_equal_instances(tmp_path, task):
    generated = ds.generate_dataset(task, 5, 12)
    path = tmp_path / "inline.jsonl"
    path.write_text("".join(json.dumps(i.to_doc(), sort_keys=True) + "\n" for i in generated),
                    encoding="utf-8")
    assert [i.to_doc() for i in ds.load_dataset(path)] == [i.to_doc() for i in generated]


WRITE_SPLITS = """
import hashlib, sys
from modgrow.harness import datasets as ds
digests = []
for task in ("raven", "mewl-analog", "vqa"):
    ds.save_dataset(ds.generate_dataset(task, 9, 16), sys.argv[1])
    digests.append(hashlib.sha256(open(sys.argv[1], "rb").read()).hexdigest())
print(" ".join(digests))
"""


def test_a_split_is_written_to_the_same_bytes_under_any_hash_seed(tmp_path):
    src = str(Path(ds.__file__).resolve().parents[2])
    digests = set()
    for hash_seed in ("0", "1", "random"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", WRITE_SPLITS, str(tmp_path / "split.jsonl")],
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        digests.add(run.stdout)
    in_process = []
    for task in ("raven", "mewl-analog", "vqa"):
        ds.save_dataset(ds.generate_dataset(task, 9, 16), tmp_path / "split.jsonl")
        in_process.append(hashlib.sha256((tmp_path / "split.jsonl").read_bytes()).hexdigest())
    assert digests == {" ".join(in_process) + "\n"}
