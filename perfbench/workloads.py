"""The workloads and the seed → learn → eval phases each run executes.

Each phase calls what the matching CLI command calls (`cache seed`, `learn`,
`eval`), in this process and in replay mode after the seeding pass. Layer
functions are called through their modules (``ds.load_dataset``, not a name
imported from it) so that a traced run sees the wrappers `spans` installs.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import modgrow.harness.datasets as ds
import modgrow.harness.evaluate as ev
import modgrow.registry as reg
import modgrow.replay_seed as rs
import modgrow.synthesis as syn
from modgrow.backends import SyntheticBackend
from modgrow.gateway import LlmGateway

from faults import FaultyResponder

# the `cache seed` defaults: eta 0.8, K = 2 samples, R = 1 repair round
CONFIG = syn.SynthesisConfig(eta=0.8, k_candidates=2, r_repairs=1)


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    n_train: int
    n_test: int
    test_knobs: dict | None = None
    faults: bool = False
    # layers that see no call in a whole cycle; an ``eval.`` prefix
    # restricts one to the eval phase
    idle: tuple[str, ...] = ()
    # phase-qualified counts that must be above 0: the layers this workload
    # is meant to move
    busy: tuple[str, ...] = ()
    # the share of eval answers that must be right
    min_accuracy: float = 1.0


NO_SANDBOX_ERRORS = ("sandbox.errors",)

WORKLOADS = {
    w.name: w
    for w in (
        # all 10 vqa templates; eval dominates: parser, gateway and many short
        # sandbox calls, and depth_of is never called
        Workload(
            "vqa-eval", "vqa", 200, 2000,
            idle=("backends.depth_of", "scene.DepthGrid.region",
                  "evaluate.solve_puzzle_with_modules", *NO_SANDBOX_ERRORS),
            busy=("eval.dsl.parse_program.calls", "eval.gateway.complete.calls",
                  "eval.executor.run_builtin.calls", "eval.sandbox.invoke_candidate.calls"),
        ),
        # all 5 grounding templates; SORT_SPATIAL calls depth_of, which fills a
        # dense 640x480 grid per call
        Workload(
            "grounding-depth", "grounding", 48, 600,
            idle=("backends.answer_question", "backends.general_text",
                  "evaluate.solve_puzzle_with_modules", *NO_SANDBOX_ERRORS),
            busy=("eval.backends.depth_of.calls", "eval.scene.DepthGrid.region.calls",
                  "eval.executor.run_builtin.calls", "eval.sandbox.invoke_candidate.calls"),
        ),
        # learn dominates: center-layout training puzzles with faulty stage-2
        # samples; split-layout eval never touches the gateway or the DSL
        Workload(
            "raven-learn",
            "raven",
            96,
            100,
            test_knobs={"layout": "left-right"},
            faults=True,
            idle=("eval.dsl.parse_program", "eval.dsl.validate_program", "eval.gateway.complete",
                  "executor.run_builtin", "backends.locate", "backends.score_alignment",
                  "backends.depth_of", "backends.general_text", "scene.DepthGrid.region",
                  "sandbox.errors.timeout", "sandbox.errors.forbidden_access",
                  "sandbox.errors.compile"),
            busy=("learn.scene.load_scene.calls", "learn.backends.answer_question.calls",
                  "learn.datasets.build_bindings.calls", "learn.sandbox.invoke_candidate.calls",
                  "learn.sandbox.errors.runtime", "learn.sandbox.errors.wrong_output",
                  "eval.evaluate.solve_puzzle_with_modules.calls"),
            # the SOLVER fixture reads a distribute-three rule whose full rows
            # repeat one ascending order as a progression, and answers about
            # 1 in 100 split puzzles wrongly (see README.md, known defects)
            min_accuracy=0.95,
        ),
    )
}


def is_split_puzzle(instance) -> bool:
    """Split-layout puzzles run through the module driver, not a program."""
    return instance.task == "raven" and instance.puzzle.layout != "center"


@dataclass
class Seeded:
    """What the set-up phase leaves for the learn and eval phases."""

    workload: Workload
    train_path: Path
    test_path: Path
    cache_path: Path
    gateway: LlmGateway
    test: list  # the generator's instances, the judge's source of gold answers
    record_library: reg.Library
    responder: rs.SyntheticResponder


def seed(wl: Workload, seed_value: int, work: Path) -> Seeded:
    """Generate both splits, record the replay cache, load it for replay.

    `work` must be empty: record mode appends to an existing cache.
    """
    train = ds.generate_dataset(wl.task, seed_value, wl.n_train)
    test = ds.generate_dataset(wl.task, seed_value + 1, wl.n_test, wl.test_knobs)
    train_path, test_path, cache_path = work / "train.jsonl", work / "test.jsonl", work / "cache.jsonl"
    ds.save_dataset(train, train_path)
    ds.save_dataset(test, test_path)
    responder = FaultyResponder(seed_value, CONFIG.k_candidates, train) if wl.faults else rs.SyntheticResponder()
    record_library, _ = rs.seed_learn_and_eval(
        train, test, reg.builtin_library(), SyntheticBackend(), CONFIG, str(cache_path),
        responder=responder,
    )
    gateway = LlmGateway(mode="replay", cache_path=str(cache_path))
    return Seeded(wl, train_path, test_path, cache_path, gateway, test, record_library, responder)


def learn(seeded: Seeded, library_dir: Path):
    """Replay `learn`: load the training split, grow the library, save it."""
    seeded.gateway.reset_replay_cursors()
    train = ds.load_dataset(seeded.train_path)
    lib, report = syn.run_synthesis(
        train, reg.builtin_library(), seeded.gateway, SyntheticBackend(), CONFIG
    )
    reg.save_library(lib, library_dir)
    return lib, report


def evaluate(seeded: Seeded, library_dir: Path, report_path: Path):
    """Replay `eval`: load the library and test split, run it, write report.json."""
    seeded.gateway.reset_replay_cursors()
    lib = reg.load_library(library_dir)
    test = ds.load_dataset(seeded.test_path)
    report = ev.evaluate(
        seeded.workload.task, test, lib, SyntheticBackend(), seeded.gateway,
        model_id=CONFIG.model_id,
    )
    report_path.write_text(report.to_json(), encoding="utf-8")
    return report


def fault_free_library(wl: Workload, seed_value: int) -> reg.Library:
    """The library a run with the stock responder grows, recorded nowhere."""
    train = ds.generate_dataset(wl.task, seed_value, wl.n_train)
    gateway = LlmGateway(mode="record", transport=rs.SyntheticResponder(train))
    lib, _ = syn.run_synthesis(train, reg.builtin_library(), gateway, SyntheticBackend(), CONFIG)
    return lib


# ---------------------------------------------------------------------------
# Judging against the generator's gold answers
# ---------------------------------------------------------------------------


def _normalize(text: str) -> str:
    return " ".join(str(text).lower().split())


def _iou(a, b) -> float:
    ix = max(0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def judge(instance, predicted: str) -> bool:
    """Whether a report's predicted answer matches the generator's gold.

    Reads only the rendered prediction, never the report's own verdict. A
    list answer renders as ``list[N]``, so for lists only the length is
    checked here.
    """
    kind, gold = instance.gold["type"], instance.gold["value"]
    if is_split_puzzle(instance):
        return predicted == str(gold)
    if kind == "text":
        return predicted.startswith("text:") and _normalize(ast.literal_eval(predicted[5:])) == _normalize(gold)
    if kind in ("number", "index"):
        return predicted.startswith("number:") and float(predicted[7:]) == float(gold)
    if kind == "box":
        boxes = json.loads(predicted) if predicted else []
        return bool(gold) and bool(boxes) and _iou(boxes[0], gold) >= 0.5
    if kind == "list":
        return predicted == f"list[{len(gold)}]"
    raise ValueError(f"no judge for gold type {kind!r}")


# ---------------------------------------------------------------------------
# Digests of the outputs users keep
# ---------------------------------------------------------------------------


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def library_digest(library_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(library_dir.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]

