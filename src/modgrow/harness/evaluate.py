"""Evaluation over generated datasets: reports and ablation.

Each instance's stage-3 prompt (which carries the current module catalogue)
is completed through the gateway, `executor.run_program` runs the program
over the instance's bindings, and the task's judge in `datasets.TASKS`
scores the result. Instances the task marks as split-layout puzzles run
through a per-region module driver instead, since the straight-line
program language has no loops. An instance that fails is an incorrect
outcome whose `error` is the failure's `CapturedError`: the run's own, or
the record of a cache miss, a response without a program, an endpoint
failure or a failed driver call (`errors.RECORDED`). Any other exception
is a fault of the program and propagates.

`EvalReport.to_json` writes the report as one line of JSON with sorted
keys, each instance's `error` as `CapturedError.to_doc` gives it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .. import values as V
from ..errors import RECORDED, CapturedError, EmptyGridError, ModgrowError, record_of
from ..executor import run_program
from ..gateway import LlmGateway, TailSlotPrompt, load_template, parse_program_response
from ..reference_modules import raven_regions
from ..registry import ExecutionRegistry, Library, signature_prompt_text
from ..scene import ImageHandle
from ..synthesis import DEFAULT_MODEL_ID, run_synthesis
from .datasets import TaskInstance, build_bindings, task_spec
from .metrics import precision_recall_f1


@dataclass
class InstanceOutcome:
    id: str
    query: str
    correct: bool
    predicted: str
    gold: dict
    error: CapturedError | None = None
    trace: list = field(default_factory=list)
    correct_pairs: int = 0
    predicted_regions: int = 0
    gold_regions: int = 0

    def to_doc(self) -> dict:
        return {
            "id": self.id,
            "query": self.query,
            "correct": self.correct,
            "predicted": self.predicted,
            "gold": self.gold,
            "error": self.error and self.error.to_doc(),
            "trace": self.trace,
        }


@dataclass
class EvalReport:
    task: str
    n: int
    metrics: dict
    per_instance: list[InstanceOutcome]
    config_digest: str

    def to_doc(self) -> dict:
        return {
            "task": self.task,
            "n": self.n,
            "metrics": self.metrics,
            "config_digest": self.config_digest,
            "per_instance": [o.to_doc() for o in self.per_instance],
        }

    def to_json(self) -> str:
        """The report as one line of JSON with sorted keys; `report.txt`
        is the human-readable view."""
        return json.dumps(self.to_doc(), sort_keys=True) + "\n"

    def render_table(self) -> str:
        parts = [f"task={self.task} n={self.n}"]
        for key in sorted(self.metrics):
            parts.append(f"{key}={self.metrics[key]:.4f}")
        return "  ".join(parts)


def _trace_docs(trace) -> list:
    return [
        {
            "statement": step.statement,
            "module_kind": step.module_kind,
            "output": step.output,
        }
        for step in trace
    ]


def solve_puzzle_with_modules(puzzle, registry: ExecutionRegistry, backend) -> int:
    """Drive DETECT_SHAPE per panel region and SOLVER once, via the registry.

    Each region of a split-layout panel is read as its own viewport and the
    records are combined under the region's key prefix, which is how
    center-trained modules transfer without re-synthesis.
    """

    def records_for(scene) -> list:
        handle = ImageHandle.of_scene(scene)
        combined = []
        for prefix, box in raven_regions(puzzle.layout, handle.width, handle.height):
            read = registry.invoke_generated(
                "DETECT_SHAPE", {"image": V.image(handle.crop(box))}, backend
            )
            combined.extend([f"{prefix}{key}", value] for key, value in read.payload)
        return combined

    panel_records = [records_for(p) for p in puzzle.panels]
    candidate_records = [records_for(c) for c in puzzle.candidates]
    answer = registry.invoke_generated(
        "SOLVER",
        {
            "panel_attributes": V.list_value(panel_records),
            "candidate_attributes": V.list_value(candidate_records),
        },
        backend,
    )
    return int(answer.payload)


def _config_digest(task: str, lib: Library, gateway_mode: str, model_id: str) -> str:
    payload = json.dumps(
        {"task": task, "modules": lib.manifest, "mode": gateway_mode, "model_id": model_id},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def program_prompts(lib: Library, model_id: str) -> TailSlotPrompt:
    """The stage-3 requests over `lib`'s catalogue: `request(query)` returns
    the request that asks for a program answering `query`, and its key."""
    return TailSlotPrompt(
        load_template("execution"),
        {"MODULE_SIGNATURES": signature_prompt_text(lib)},
        "NEW_QUESTION",
        model_id=model_id,
    )


def stage3_plan(dataset: list[TaskInstance]) -> list[tuple[TaskInstance, bool]]:
    """Each instance in the order `evaluate` runs it, by task and then by id,
    and whether it asks the gateway for a program: the split-layout puzzles
    its task marks are answered by the module driver instead."""
    plan = []
    for instance in sorted(dataset, key=lambda i: (i.task, i.id)):
        split_layout = task_spec(instance.task).split_layout
        plan.append((instance, split_layout is None or not split_layout(instance)))
    return plan


def evaluate(
    task: str,
    dataset: list[TaskInstance],
    lib: Library,
    backend,
    gateway: LlmGateway,
    model_id: str = DEFAULT_MODEL_ID,
    limits=None,
) -> EvalReport:
    """Run every instance, judge it by its task, aggregate metrics into a report.

    Raises `ValueError` for an unknown task or an instance of another task."""
    spec = task_spec(task)
    for instance in dataset:
        if instance.task != task:
            raise ValueError(f"instance {instance.id} is of task {instance.task!r}, not {task!r}")
    registry = ExecutionRegistry(lib, limits=limits)
    prompts = program_prompts(lib, model_id)
    outcomes: list[InstanceOutcome] = []

    for instance, asks in stage3_plan(dataset):
        outcome = InstanceOutcome(
            id=instance.id, query=instance.query, correct=False, predicted="", gold=instance.gold
        )
        outcomes.append(outcome)
        try:
            if not asks:
                answer = solve_puzzle_with_modules(instance.puzzle, registry, backend)
                outcome.predicted = str(answer)
                outcome.correct = answer == instance.gold["value"]
                continue
            request, key = prompts.request(instance.query)
            source = parse_program_response(gateway.complete(request, key))
        except RECORDED as exc:
            outcome.error = record_of(exc)
            continue
        result = run_program(source, build_bindings(instance), registry, backend)
        outcome.trace = _trace_docs(result.trace)
        outcome.error = result.error
        if result.error is None:
            spec.judge(outcome, result.final, instance.gold)

    n = len(outcomes)
    metrics = {"accuracy": sum(1 for o in outcomes if o.correct) / n if n else 0.0}
    if spec.regions:
        correct = sum(o.correct_pairs for o in outcomes)
        predicted = sum(o.predicted_regions for o in outcomes)
        gold = sum(o.gold_regions for o in outcomes)
        metrics.update(precision_recall_f1(correct, predicted, gold))
    return EvalReport(
        task=task,
        n=n,
        metrics=metrics,
        per_instance=outcomes,
        config_digest=_config_digest(task, lib, gateway.mode, model_id),
    )


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------


# a cell's library variant and a full library's train size
GRID_KEYS = ("library", "train_size")
LIBRARY_VARIANTS = ("full", "wo-ml")


@dataclass
class AblationRow:
    label: str
    accuracy: float
    modules: int
    error: str | None = None


@dataclass
class AblationReport:
    rows: list[AblationRow]
    trend_ok: bool

    def to_doc(self) -> dict:
        return {
            "rows": [
                {"label": r.label, "accuracy": r.accuracy, "modules": r.modules, "error": r.error}
                for r in self.rows
            ],
            "trend_non_decreasing": self.trend_ok,
        }

    def render_table(self) -> str:
        width = max(len(r.label) for r in self.rows)
        lines = [f"{'variant'.ljust(width)}  accuracy  modules"]
        for row in self.rows:
            note = f"  [{row.error}]" if row.error else ""
            lines.append(f"{row.label.ljust(width)}  {row.accuracy:8.4f}  {row.modules:7d}{note}")
        lines.append(f"train-size trend non-decreasing: {'pass' if self.trend_ok else 'FAIL'}")
        return "\n".join(lines)


def run_ablation(
    grid: list[dict],
    train: list[TaskInstance],
    test: list[TaskInstance],
    base_lib: Library,
    gateway: LlmGateway,
    backend,
    cfg,
    task: str,
) -> AblationReport:
    """One evaluate() per grid cell; cells name a library variant and train size.

    Raises `EmptyGridError` for a grid without cells and `ValueError` for a
    cell that is not a mapping, sets a key other than those two or names a
    library variant other than "full" and "wo-ml", before any cell runs."""
    if not grid:
        raise EmptyGridError("ablation grid has no cells")
    if not all(isinstance(cell, dict) for cell in grid):
        raise ValueError("each ablation cell must be an object")
    unknown = sorted({key for cell in grid for key in cell} - set(GRID_KEYS))
    if unknown:
        raise ValueError(f"unknown ablation cell key {', '.join(map(repr, unknown))}; "
                         f"known keys: {', '.join(GRID_KEYS)}")
    unknown = [cell["library"] for cell in grid if cell.get("library", "full") not in LIBRARY_VARIANTS]
    if unknown:
        raise ValueError(f"unknown ablation library {unknown[0]!r}; "
                         f"known values: {', '.join(LIBRARY_VARIANTS)}")
    rows: list[AblationRow] = []
    sized_accuracy: list[tuple[int, float]] = []
    for cell in grid:
        variant = cell.get("library", "full")
        if variant == "wo-ml":
            label = "w/o module learning"
            lib = base_lib
        else:
            size = int(cell.get("train_size", len(train)))
            label = f"full ({size} train examples)"
            try:
                lib, _ = run_synthesis(train[:size], base_lib, gateway, backend, cfg)
            except ModgrowError as exc:
                rows.append(AblationRow(label=label, accuracy=0.0, modules=0, error=str(exc)))
                continue
        try:
            report = evaluate(task, test, lib, backend, gateway, model_id=cfg.model_id, limits=cfg.limits)
            accuracy = report.metrics["accuracy"]
            rows.append(AblationRow(label=label, accuracy=accuracy, modules=len(lib)))
            if variant != "wo-ml":
                sized_accuracy.append((size, accuracy))
        except ModgrowError as exc:
            rows.append(AblationRow(label=label, accuracy=0.0, modules=len(lib), error=str(exc)))
    sized_accuracy.sort()
    trend_ok = all(
        sized_accuracy[i][1] <= sized_accuracy[i + 1][1] + 1e-12
        for i in range(len(sized_accuracy) - 1)
    )
    return AblationReport(rows=rows, trend_ok=trend_ok)
