from __future__ import annotations

import hashlib
import json

import pytest

from modgrow import cli, executor, replay_seed
from modgrow.backends import SyntheticBackend
from modgrow.cache import Resolver, read_records
from modgrow.errors import EndpointError
from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import generate_dataset, save_dataset, task_spec
from modgrow.harness.evaluate import evaluate
from modgrow.registry import builtin_library, register
from modgrow.replay_seed import SyntheticResponder, seed_learn_and_eval
from modgrow.synthesis import SynthesisConfig, run_synthesis

from conftest import fixture_record

TASKS = ("vqa", "grounding", "tagging", "editing", "raven", "mewl-analog")

# First 16 hex digits of the SHA-256 of each output of the run below. A
# change that alters a dataset, a cache record, a saved library or a report
# by one byte changes one of these. "cache" covers the call records rebuilt
# with whole requests and inline responses, the form every record had before
# heads and repeated responses were stored apart, so it holding shows that
# storing them apart lost nothing; "cache_stored" covers the stored records.
OUTPUT_DIGESTS = {
    "vqa": {"train": "54f99ec081f53509", "test": "d6d40df550d2a2f1", "cache": "f75715d7eb85a5a5",
            "cache_stored": "59a3a06bdf3f58d4",
            "library": "b33ab1df4537e4c7", "report": "4b8b468ce4c94464"},
    "grounding": {"train": "c432398292aa8c1b", "test": "9cc6b6e1720f2546", "cache": "035382676fa499e3",
                  "cache_stored": "f9ce9f3c9960dddb",
                  "library": "2077b4f9ae210acb", "report": "a1a200237d6cb408"},
    "tagging": {"train": "f4a8f93c36b2ddb5", "test": "e9d87374ceda5c5a", "cache": "ac7f5c4bbdb48db9",
                "cache_stored": "f23ccde8437edefb",
                "library": "04a2f25c4c3ea9f7", "report": "8c72f2a00d2b4f95"},
    "editing": {"train": "83e5b9757b5910ff", "test": "3150c89c911ab8b4", "cache": "d740fd755c4a9bb3",
                "cache_stored": "964e92aede926552",
                "library": "2788eeb900af78e7", "report": "b78d649571ad5737"},
    "raven": {"train": "ef82e77dcbdc3208", "test": "75075d7d20b3e7a8", "cache": "3c82a25353b40ef7",
              "cache_stored": "a157c476b2df7dea",
              "library": "8fa6f34d340410e6", "report": "fe8508f5566ff151"},
    "mewl-analog": {"train": "fd120ed2516057bb", "test": "d64a0e589a72471f", "cache": "07ce923045198499",
                    "cache_stored": "5a8009737a16b23d",
                    "library": "c334de3c097c3ff3", "report": "af7257fd65c5a199"},
}
SPLIT_LAYOUT_REPORT_DIGEST = "a087b627f46c7940"
# `save_dataset` bytes of split-layout raven splits: the distractor draws and
# the rule check that rejects a second defensible answer both show here
SPLIT_LAYOUT_DATASET_DIGESTS = {"left-right": "020a23d527e033db", "up-down": "d6ba694ab81f6607"}
# call records, rebuilt with whole requests, of the session that
# `test_seeding_records_no_pass_over_module_driven_puzzles` seeds
MIXED_LAYOUT_SEED_CACHE_DIGEST = "57515ba868b9d25f"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cache_lines(path) -> tuple[list[str], list[str]]:
    """The call records of the cache at `path` rebuilt with whole requests
    and responses, and its stored records, each as sorted JSON."""
    stored = [json.dumps(record, sort_keys=True) for _, record in read_records(path)]
    resolver, rebuilt = Resolver(path), []
    for number, record, response in resolver.calls(read_records(path)):
        rebuilt.append(json.dumps(
            {"key": record["key"], "request": resolver.request(number, record), "response": response},
            sort_keys=True,
        ))
    return rebuilt, stored


def output_digests(tmp_path) -> dict[str, str]:
    """Digests of the splits, the cache (rebuilt and stored), the library
    files (name and bytes, in name order) and the report."""
    rebuilt, stored = cache_lines(tmp_path / "cache.jsonl")
    library = b"".join(
        path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0"
        for path in sorted((tmp_path / "lib").iterdir())
    )
    return {
        "train": digest((tmp_path / "train.jsonl").read_bytes()),
        "test": digest((tmp_path / "test.jsonl").read_bytes()),
        "cache": digest("\n".join(rebuilt).encode("utf-8")),
        "cache_stored": digest("\n".join(stored).encode("utf-8")),
        "library": digest(library),
        "report": digest((tmp_path / "report" / "report.json").read_bytes()),
    }


@pytest.mark.parametrize("task", TASKS)
def test_seed_learn_eval_in_replay_mode(tmp_path, task):
    train, test, cache = tmp_path / "train.jsonl", tmp_path / "test.jsonl", tmp_path / "cache.jsonl"
    budget = ["--k", "2", "--repairs", "1"]
    steps = [
        ["cache", "seed", "--task", task, "--n-train", "12", "--n-test", "8", *budget,
         "--train-out", str(train), "--test-out", str(test), "--cache", str(cache)],
        ["learn", "--mode", "replay", "--cache", str(cache), *budget,
         "--dataset", str(train), "--out", str(tmp_path / "lib")],
        ["eval", "--mode", "replay", "--cache", str(cache),
         "--dataset", str(test), "--library", str(tmp_path / "lib"), "--report", str(tmp_path / "report")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    assert cli.main(["cache", "show", "--cache", str(cache), "--verify"]) == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
    assert report["n"] == 8
    assert report["metrics"]["accuracy"] == 1.0
    # only the tasks whose gold types count regions report them
    regions = ["f1", "precision", "recall"] if task in ("grounding", "tagging") else []
    assert sorted(report["metrics"]) == ["accuracy", *regions]
    assert output_digests(tmp_path) == OUTPUT_DIGESTS[task]


def split_layout_report(tmp_path, backend) -> str:
    lib = builtin_library()
    for name in ("DETECT_SHAPE", "SOLVER"):
        lib = register(lib, fixture_record(name))
    test = generate_dataset("raven", 5, 8, {"layout": "left-right"})
    gateway = LlmGateway(mode="record", cache_path=str(tmp_path / "cache.jsonl"),
                         transport=SyntheticResponder(test))
    return evaluate("raven", test, lib, backend, gateway).to_json()


def test_split_layout_report_is_pinned(tmp_path, backend):
    assert digest(split_layout_report(tmp_path, backend).encode("utf-8")) == SPLIT_LAYOUT_REPORT_DIGEST


@pytest.mark.parametrize("layout", sorted(SPLIT_LAYOUT_DATASET_DIGESTS))
def test_split_layout_dataset_bytes_are_pinned(tmp_path, layout):
    save_dataset(generate_dataset("raven", 23, 30, {"layout": layout}), tmp_path / "split.jsonl")
    assert digest((tmp_path / "split.jsonl").read_bytes()) == SPLIT_LAYOUT_DATASET_DIGESTS[layout]


def test_seeding_records_no_pass_over_module_driven_puzzles(tmp_path):
    """The module driver answers split-layout puzzles without the gateway, so
    seeding leaves them out; the center test puzzles are still recorded."""
    train = generate_dataset("raven", 31, 6)
    test = generate_dataset("raven", 32, 3) + generate_dataset("raven", 33, 4, {"layout": "left-right"})
    cache = tmp_path / "cache.jsonl"
    seed_learn_and_eval(train, test, builtin_library(), SyntheticBackend(),
                        SynthesisConfig(k_candidates=2, r_repairs=1), str(cache))
    rebuilt, _ = cache_lines(cache)
    assert digest("\n".join(rebuilt).encode("utf-8")) == MIXED_LAYOUT_SEED_CACHE_DIGEST


def is_stage3(prompt: str) -> bool:
    return prompt.startswith("Think step by step")


class FailingResponder(SyntheticResponder):
    """The stock responder, except that it raises `error` on the stage-3
    request for `query`."""

    def __init__(self, query: str, error: Exception):
        super().__init__()
        self.query, self.error = query, error

    def __call__(self, req):
        if is_stage3(req.prompt) and req.prompt.rstrip().endswith(f"Question: {self.query}\nProgram:"):
            raise self.error
        return super().__call__(req)


@pytest.mark.parametrize("error", [LookupError("no dataset instance for question"),
                                   EndpointError("endpoint closed the connection")])
def test_a_seeding_failure_is_raised_and_fails_cache_seed(tmp_path, monkeypatch, capsys, error):
    train, test = generate_dataset("vqa", 41, 6), generate_dataset("vqa", 42, 4)
    query = test[2].query
    assert query not in {instance.query for instance in train}

    with pytest.raises(type(error)):
        seed_learn_and_eval(train, test, builtin_library(), SyntheticBackend(), SynthesisConfig(),
                            str(tmp_path / "direct.jsonl"), responder=FailingResponder(query, error))

    monkeypatch.setattr(replay_seed, "SyntheticResponder", lambda: FailingResponder(query, error))
    cache = tmp_path / "cache.jsonl"
    argv = ["cache", "seed", "--task", "vqa", "--seed", "41", "--n-train", "6", "--n-test", "4",
            "--train-out", str(tmp_path / "train.jsonl"), "--test-out", str(tmp_path / "test.jsonl"),
            "--cache", str(cache)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not cache.exists()


@pytest.mark.parametrize("task", ["vqa", "raven"])
def test_seeding_runs_no_program(tmp_path, monkeypatch, task):
    """Seeding executes what learning alone executes, and sends one stage-3
    request per test instance a program answers."""
    train = generate_dataset(task, 51, 8)
    programmed = generate_dataset(task, 52, 5)
    driven = generate_dataset("raven", 53, 3, {"layout": "left-right"}) if task == "raven" else []
    executions, stage3 = [], []
    execute = executor.execute_program

    def counting_execute(*args, **kwargs):
        executions.append(args[0])
        return execute(*args, **kwargs)

    complete = LlmGateway.complete

    def counting_complete(self, req):
        if is_stage3(req.prompt):
            stage3.append(req)
        return complete(self, req)

    monkeypatch.setattr(executor, "execute_program", counting_execute)
    monkeypatch.setattr(LlmGateway, "complete", counting_complete)
    cfg = SynthesisConfig(k_candidates=2, r_repairs=1)
    with LlmGateway(mode="record", transport=SyntheticResponder(train)) as gateway:
        run_synthesis(train, builtin_library(), gateway, SyntheticBackend(), cfg)
    learned = len(executions)
    assert learned and not stage3

    seed_learn_and_eval(train, programmed + driven, builtin_library(), SyntheticBackend(), cfg,
                        str(tmp_path / "cache.jsonl"))
    assert len(executions) == 2 * learned
    assert len(stage3) == len(programmed)


def reference_seed(train, test, lib, backend, cfg, cache_path: str) -> None:
    """Seeding by a record-mode `evaluate` per task, which also runs each
    program: the reference for the records `seed_learn_and_eval` writes."""
    responder = SyntheticResponder()
    responder.add(train)
    responder.add(test)
    by_task: dict[str, list] = {}
    for instance in test:
        split_layout = task_spec(instance.task).split_layout
        if split_layout is None or not split_layout(instance):
            by_task.setdefault(instance.task, []).append(instance)
    with LlmGateway(mode="record", cache_path=cache_path, transport=responder) as gateway:
        lib_after, _ = run_synthesis(train, lib, gateway, backend, cfg)
        for task, instances in sorted(by_task.items()):
            evaluate(task, instances, lib_after, backend, gateway, model_id=cfg.model_id)


@pytest.mark.parametrize("learned", [True, False], ids=["learned", "builtin-only"])
@pytest.mark.parametrize("seed", [61, 71])
@pytest.mark.parametrize("task", [*TASKS, "all"])
def test_seeding_records_what_a_record_mode_evaluate_records(tmp_path, task, seed, learned):
    """"all" mixes every task in one split, given in reverse name order.
    Without training the library stays builtin-only, so the stage-3 answers
    include fallback programs: on every task but editing, whose canonical
    programs need no learned module."""
    tasks = TASKS[::-1] if task == "all" else (task,)
    n = 3 if task == "all" else 8
    train = [i for t in tasks for i in generate_dataset(t, seed, n)] if learned else []
    test = [i for t in tasks for i in generate_dataset(t, seed + 1, n)]
    if "raven" in tasks:
        test += generate_dataset("raven", seed + 2, 2, {"layout": "up-down"})
    cfg = SynthesisConfig(k_candidates=2, r_repairs=1)
    reference, seeded = tmp_path / "reference.jsonl", tmp_path / "seeded.jsonl"
    reference_seed(train, test, builtin_library(), SyntheticBackend(), cfg, str(reference))
    seed_learn_and_eval(train, test, builtin_library(), SyntheticBackend(), cfg, str(seeded))
    assert cache_lines(seeded) == cache_lines(reference)
    if not learned and task != "editing":
        fallbacks = {instance.fallback_program for instance in test}
        assert any(json.loads(line)["response"] in fallbacks for line in cache_lines(seeded)[0])
