"""Evaluation over generated datasets: per-task judging, reports, ablation.

For program tasks the stage-3 prompt (which carries the current module
catalogue) is completed through the gateway, parsed, validated and executed;
split-layout puzzle instances run through a per-region module driver instead
since the straight-line program language has no loops. Instance failures are
recorded as incorrect outcomes, never raised.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .. import values as V
from ..dsl import parse_program, validate_program
from ..errors import EmptyGridError, ModgrowError
from ..executor import execute_program
from ..gateway import CompletionRequest, LlmGateway, load_template, parse_program_response, render_prompt
from ..registry import ExecutionRegistry, Library, signature_prompt_text
from .datasets import TaskInstance, binding_tags, build_bindings
from .metrics import iou, match_region_sets, match_tag, precision_recall_f1


@dataclass
class InstanceOutcome:
    id: str
    query: str
    correct: bool
    predicted: str
    gold: dict
    error: str | None = None
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
            "error": self.error,
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
        return json.dumps(self.to_doc(), sort_keys=True, indent=2) + "\n"

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


def _boxes_of(value: V.Value):
    if value is not None and value.tag in ("box-list", "mask"):
        return [list(b) for b in value.payload]
    return []


def _judge_vqa(final: V.Value, gold: dict) -> bool:
    from ..synthesis import compare_values

    from .datasets import GOLD_COMPARATOR, _gold_value

    return compare_values(final, _gold_value(gold), GOLD_COMPARATOR[gold["type"]])


def _judge_grounding(outcome: InstanceOutcome, final: V.Value, gold: dict) -> None:
    predictions = _boxes_of(final)
    gold_boxes = [gold["value"]] if gold["value"] else []
    outcome.predicted_regions = len(predictions)
    outcome.gold_regions = len(gold_boxes)
    outcome.correct_pairs = match_region_sets(
        predictions, gold_boxes, lambda p, g: iou(p, g) >= 0.5
    )
    outcome.correct = bool(predictions) and bool(gold_boxes) and iou(predictions[0], gold_boxes[0]) >= 0.5
    outcome.predicted = json.dumps(predictions[:1])


def _judge_tagging(outcome: InstanceOutcome, final: V.Value, gold: dict) -> None:
    regions = []
    if final is not None and final.tag == "image":
        regions = [(list(ov.box), ov.label) for ov in final.payload.overlays]
    gold_regions = gold["value"]
    outcome.predicted_regions = len(regions)
    outcome.gold_regions = len(gold_regions)
    outcome.correct_pairs = match_region_sets(
        regions,
        gold_regions,
        lambda p, g: iou(p[0], g["box"]) >= 0.5 and match_tag(p[1], g["label"]),
    )
    outcome.correct = (
        outcome.correct_pairs == len(gold_regions) and len(regions) == len(gold_regions)
    )
    outcome.predicted = json.dumps([[b, l] for b, l in regions])


def _judge_editing(final: V.Value, gold: dict) -> bool:
    if final is None or final.tag != "image":
        return False
    handle = final.payload
    spec = gold["value"]
    if spec["kind"] == "emoji":
        return any(
            match_tag(ov.label, spec["label"]) and iou(list(ov.box), spec["region"]) >= 0.5
            for ov in handle.overlays
        )
    for edit in handle.edits:
        if edit.kind != spec["kind"] or not edit.boxes:
            continue
        if iou(list(edit.boxes[0]), spec["region"]) < 0.5:
            continue
        if spec["kind"] == "replace" and spec.get("category", "") not in edit.prompt.lower():
            continue
        return True
    return False


def _prefixed(record, prefix: str):
    return [[f"{prefix}_{key}", value] for key, value in record]


def solve_puzzle_with_modules(puzzle, registry: ExecutionRegistry, backend) -> int:
    """Drive DETECT_SHAPE per panel region and SOLVER once, via the registry.

    Split layouts read each half viewport separately and combine the records
    under prefixed keys, which is how center-trained modules transfer without
    re-synthesis.
    """
    layout = puzzle.layout
    from ..scene import ImageHandle

    def records_for(scene) -> list:
        handle = ImageHandle.of_scene(scene)
        if layout == "center":
            value = registry.invoke_generated("DETECT_SHAPE", {"image": V.image(handle)}, backend)
            return list(value.payload)
        if layout == "left-right":
            halves = [
                ("left", (0, 0, handle.width // 2, handle.height)),
                ("right", (handle.width // 2, 0, handle.width, handle.height)),
            ]
        else:
            halves = [
                ("top", (0, 0, handle.width, handle.height // 2)),
                ("bottom", (0, handle.height // 2, handle.width, handle.height)),
            ]
        combined = []
        for prefix, box in halves:
            value = registry.invoke_generated(
                "DETECT_SHAPE", {"image": V.image(handle.crop(box))}, backend
            )
            combined.extend(_prefixed([list(p) for p in value.payload], prefix))
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


def evaluate(
    task: str,
    dataset: list[TaskInstance],
    lib: Library,
    backend,
    gateway: LlmGateway,
    model_id: str = "default-model",
    limits=None,
) -> EvalReport:
    """Run every instance, judge per task, aggregate metrics into a report."""
    registry = ExecutionRegistry(lib, limits=limits)
    template = load_template("execution")
    catalogue = signature_prompt_text(lib)
    sigs = registry.signatures()
    outcomes: list[InstanceOutcome] = []

    for instance in sorted(dataset, key=lambda i: i.id):
        outcome = InstanceOutcome(
            id=instance.id, query=instance.query, correct=False, predicted="", gold=instance.gold
        )
        try:
            if instance.task == "raven" and instance.puzzle.layout != "center":
                answer = solve_puzzle_with_modules(instance.puzzle, registry, backend)
                outcome.predicted = str(answer)
                outcome.correct = answer == instance.gold["value"]
                outcomes.append(outcome)
                continue
            prompt = render_prompt(
                template, {"MODULE_SIGNATURES": catalogue, "NEW_QUESTION": instance.query}
            )
            response = gateway.complete(
                CompletionRequest(prompt=prompt, model_id=model_id, temperature=0.0)
            )
            program_text = parse_program_response(response)
            program = parse_program(program_text)
            diagnostics = validate_program(program, sigs, binding_tags(instance.task))
            if diagnostics:
                outcome.error = f"validation: {diagnostics[0].code} {diagnostics[0].message}"
                outcomes.append(outcome)
                continue
            result = execute_program(program, build_bindings(instance), registry, backend)
            outcome.trace = _trace_docs(result.trace)
            if result.status != "ok":
                outcome.error = f"{result.error.kind}: {result.error.message}"
                outcomes.append(outcome)
                continue
            final = result.final
            if instance.task in ("vqa", "mewl-analog"):
                outcome.correct = _judge_vqa(final, instance.gold)
                outcome.predicted = V.summarize(final)
            elif instance.task == "raven":
                outcome.correct = _judge_vqa(final, instance.gold)
                outcome.predicted = V.summarize(final)
            elif instance.task == "grounding":
                _judge_grounding(outcome, final, instance.gold)
            elif instance.task == "tagging":
                _judge_tagging(outcome, final, instance.gold)
            elif instance.task == "editing":
                outcome.correct = _judge_editing(final, instance.gold)
                outcome.predicted = V.summarize(final)
            else:
                outcome.error = f"unknown task {instance.task!r}"
        except ModgrowError as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # instance failures are data, not crashes
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcomes.append(outcome)

    n = len(outcomes)
    metrics = {"accuracy": sum(1 for o in outcomes if o.correct) / n if n else 0.0}
    if task in ("grounding", "tagging"):
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
    clock=None,
) -> AblationReport:
    """One evaluate() per grid cell; cells name a library variant and train size."""
    from ..synthesis import run_synthesis

    if not grid:
        raise EmptyGridError("ablation grid has no cells")
    rows: list[AblationRow] = []
    sized_accuracy: list[tuple[int, float]] = []
    for cell in grid:
        variant = cell.get("library", "full")
        model_id = cell.get("model_id", cfg.model_id)
        if variant == "wo-ml":
            label = "w/o module learning"
            lib = base_lib
        else:
            size = int(cell.get("train_size", len(train)))
            label = f"full ({size} train examples)"
            if model_id != cfg.model_id:
                label += f" [{model_id}]"
            subset = train[:size]
            try:
                lib, _ = run_synthesis(
                    subset, base_lib, gateway, backend, _with_model(cfg, model_id), clock=clock
                )
            except ModgrowError as exc:
                rows.append(AblationRow(label=label, accuracy=0.0, modules=0, error=str(exc)))
                continue
        try:
            report = evaluate(task, test, lib, backend, gateway, model_id=model_id)
            accuracy = report.metrics["accuracy"]
            rows.append(AblationRow(label=label, accuracy=accuracy, modules=len(lib)))
            if variant != "wo-ml" and model_id == cfg.model_id:
                sized_accuracy.append((int(cell.get("train_size", len(train))), accuracy))
        except ModgrowError as exc:
            rows.append(AblationRow(label=label, accuracy=0.0, modules=len(lib), error=str(exc)))
    sized_accuracy.sort()
    trend_ok = all(
        sized_accuracy[i][1] <= sized_accuracy[i + 1][1] + 1e-12
        for i in range(len(sized_accuracy) - 1)
    )
    return AblationReport(rows=rows, trend_ok=trend_ok)


def _with_model(cfg, model_id: str):
    from dataclasses import replace

    return replace(cfg, model_id=model_id) if model_id != cfg.model_id else cfg
