"""Evaluation over generated datasets: reports and ablation.

Each instance's stage-3 prompt (which carries the current module catalogue)
is completed through the gateway, `executor.run_program` runs the program
over the instance's bindings, and the judge of the gold's type in
`datasets.GOLD_TYPES` scores the result, as stage 2 scores a module case.
Instances the task marks as split-layout puzzles are answered by a module
driver instead, since the straight-line program language cannot crop each
panel into its regions: it reads the region crops of all panels with one
DETECT_SHAPE call, those of all candidates with a second, and passes the
regrouped records to SOLVER. An instance
that fails is an incorrect outcome whose `error` is the failure's
`CapturedError`: the run's own, or the record of a cache miss, a response
without a program, an endpoint failure, or a driver call that failed or
returned a malformed read or answer (`errors.RECORDED`). Any other
exception is a fault of the program and propagates.

`EvalReport.to_json` writes the report as one line of JSON with sorted
keys, each instance's `error` as `CapturedError.to_doc` gives it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .. import values as V
from ..errors import RECORDED, CapturedError, ExecutorRuntimeError, ModgrowError, record_of
from ..executor import run_program
from ..gateway import LlmGateway, TailSlotPrompt, load_template, parse_program_response
from ..reference_modules import raven_regions
from ..registry import ExecutionRegistry, Library, signature_prompt_text
from ..scene import ImageHandle
from ..synthesis import DEFAULT_MODEL_ID, run_synthesis
from .datasets import GOLD_TYPES, TaskInstance, Verdict, build_bindings, judge_of, task_spec
from .metrics import precision_recall_f1


@dataclass
class InstanceOutcome:
    id: str
    query: str
    gold: dict
    verdict: Verdict = Verdict(False, "")  # the judge's, or the puzzle driver's
    error: CapturedError | None = None
    trace: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.verdict.correct

    @property
    def predicted(self) -> str:
        return self.verdict.predicted

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
    """Read a split-layout puzzle with DETECT_SHAPE and answer it with
    SOLVER, via the registry, as the center program does.

    The region crops of all panels are one `list` value, in panel-then-region
    order, and those of all candidates another: one DETECT_SHAPE call reads
    each side, as `ATTRS0=DETECT_SHAPE(image=PANELS)` reads the panels of a
    center puzzle. The per-call `Limits` therefore cover one side's crops,
    just as a gated case covers its 8 panels. Each panel's record joins the
    records of its regions under the region's key prefix, which is how
    center-trained modules transfer without re-synthesis.

    A read that is not one record per crop, each a list of [text, text]
    pairs, or an answer that is not an integer in 1..len(candidates), raises
    `ExecutorRuntimeError` with a `wrong_output` record."""

    def records_of(scenes) -> list:
        regions = [raven_regions(puzzle.layout, s.width, s.height) for s in scenes]
        crops = [ImageHandle.of_scene(s).crop(box) for s, rs in zip(scenes, regions) for _, box in rs]
        reads = registry.invoke_generated("DETECT_SHAPE", {"image": V.list_value(crops)}, backend).payload
        if type(reads) is not tuple or len(reads) != len(crops):
            raise _wrong_output("DETECT_SHAPE did not return one record per crop",
                                f"a list of {len(crops)} records", V.describe(reads))
        records, at = [], 0
        for rs in regions:
            record = []
            for prefix, _ in rs:
                read = reads[at]
                # exact types, so that no candidate-defined method runs here
                if type(read) not in _SEQUENCES or not all(
                    type(pair) in _SEQUENCES and len(pair) == 2
                    and type(pair[0]) is str and type(pair[1]) is str for pair in read
                ):
                    raise _wrong_output(f"DETECT_SHAPE record {at} is not a list of [key, value] pairs",
                                        "a list of [text, text] pairs", V.describe(read))
                record.extend([prefix + key, value] for key, value in read)
                at += 1
            records.append(record)
        return records

    answer = registry.invoke_generated(
        "SOLVER",
        {
            "panel_attributes": V.list_value(records_of(puzzle.panels)),
            "candidate_attributes": V.list_value(records_of(puzzle.candidates)),
        },
        backend,
    ).payload
    if type(answer) is float and answer.is_integer():
        answer = int(answer)
    if type(answer) is not int or not 1 <= answer <= len(puzzle.candidates):
        raise _wrong_output("SOLVER did not answer with a candidate's number",
                            f"an integer in 1..{len(puzzle.candidates)}", V.describe(answer))
    return answer


_SEQUENCES = (list, tuple)


def _wrong_output(message: str, expected: str, actual: str) -> ExecutorRuntimeError:
    return ExecutorRuntimeError(CapturedError("wrong_output", message, expected=expected, actual=actual))


def _config_digest(task: str, lib: Library, gateway_mode: str, model_id: str) -> str:
    payload = json.dumps(
        {"task": task, "modules": list(lib.records), "mode": gateway_mode, "model_id": model_id},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def program_prompts(lib: Library, model_id: str) -> TailSlotPrompt:
    """The stage-3 requests over `lib`'s catalogue: `request(query)` returns
    the request, key included, that asks for a program answering `query`."""
    catalogue = {"MODULE_SIGNATURES": signature_prompt_text(lib)}
    return TailSlotPrompt(load_template("execution"), catalogue, model_id)


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
        outcome = InstanceOutcome(id=instance.id, query=instance.query, gold=instance.gold)
        outcomes.append(outcome)
        try:
            if not asks:
                answer = solve_puzzle_with_modules(instance.puzzle, registry, backend)
                outcome.verdict = Verdict(answer == instance.gold["value"], str(answer))
                continue
            source = parse_program_response(gateway.complete(prompts.request(instance.query)))
        except RECORDED as exc:
            outcome.error = record_of(exc)
            continue
        result = run_program(source, build_bindings(instance), registry, backend)
        outcome.trace = _trace_docs(result.trace)
        outcome.error = result.error
        if result.error is None:
            outcome.verdict = judge_of(instance.gold)(result.final)

    n = len(outcomes)
    metrics = {"accuracy": sum(1 for o in outcomes if o.correct) / n if n else 0.0}
    if any(GOLD_TYPES[gold_type].regions for gold_type in spec.gold_types):
        correct = sum(o.verdict.correct_pairs for o in outcomes)
        predicted = sum(o.verdict.predicted_regions for o in outcomes)
        gold = sum(o.verdict.gold_regions for o in outcomes)
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

    def to_json(self) -> str:
        """The report as indented JSON with sorted keys; `ablation.txt` is
        the human-readable view."""
        return json.dumps(self.to_doc(), sort_keys=True, indent=2) + "\n"

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
    train: list[TaskInstance] | None,
    test: list[TaskInstance],
    base_lib: Library,
    gateway: LlmGateway,
    backend,
    cfg,
    task: str,
) -> AblationReport:
    """One evaluate() per grid cell; cells name a library variant and train size.

    Raises `ValueError`, before any cell runs, for a grid without cells or
    a cell that is not a mapping, sets a key other than those two, names a
    library variant other than "full" and "wo-ml", gives "wo-ml" a train
    size or "full" one that is not an integer in 0..len(train), or is
    "full" when `train` is None (no split)."""
    if not grid:
        raise ValueError("ablation grid has no cells")
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
    for cell in grid:
        size = cell.get("train_size")
        if cell.get("library", "full") == "wo-ml":
            if "train_size" in cell:
                raise ValueError("a wo-ml ablation cell takes no train_size")
        elif train is None:
            raise ValueError("a full ablation cell needs a training split")
        elif "train_size" in cell and (type(size) is not int or not 0 <= size <= len(train)):
            raise ValueError(f"ablation train_size {json.dumps(size)} is not an integer in 0..{len(train)}")
    rows: list[AblationRow] = []
    sized_accuracy: list[tuple[int, float]] = []
    for cell in grid:
        variant = cell.get("library", "full")
        if variant == "wo-ml":
            label = "w/o module learning"
            lib = base_lib
        else:
            size = cell.get("train_size", len(train))
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
