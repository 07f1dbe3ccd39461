"""The names that `perfbench/spans.py` patches still exist, so a refactor that
would break the traced benchmark fails here, on every interpreter the tests
run on. The file is imported as it is, from its path."""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import modgrow.errors
import modgrow.sandbox
from modgrow import values as V
from modgrow.backends import SyntheticBackend
from modgrow.executor import run_program
from modgrow.gateway import LlmGateway
from modgrow.harness import datasets as ds
from modgrow.registry import ExecutionRegistry, builtin_library
from modgrow.replay_seed import SyntheticResponder
from modgrow.synthesis import SynthesisConfig, run_synthesis

from conftest import distinct_scene_docs

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(spans):
    missing = [(module, name) for module, name, _ in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class(spans):
    missing = [(module, cls, method) for module, cls, method, _ in spans.METHODS
               if method not in vars(getattr(importlib.import_module(module), cls, object))]
    assert missing == []


def test_the_bench_counts_the_one_failure_record():
    assert modgrow.sandbox.CapturedError is modgrow.errors.CapturedError


# one builtin step, one generated step, an EVAL step and RESULT
COUNTED_PROGRAM = (
    "BOX0=LOC(image=IMAGE,object='coat')\n"
    "ANSWER0=CHOOSE_ATTRIBUTE(image=IMAGE,box=BOX0,object='coat',attribute1='thick',"
    "attribute2='thin')\n"
    "ANSWER1=EVAL(expr=f\"'yes' if {ANSWER0} == 'thick' else 'no'\")\n"
    "FINAL_RESULT=RESULT(var=ANSWER1)"
)
# the spans two runs of it through one registry open
COUNTED_CALLS = {
    "dsl.parse_program": 2,
    "dsl.validate_program": 1,
    "executor.execute_program": 2,
    "executor.run_builtin": 2,
    "registry.invoke_generated": 2,
    "sandbox.load_candidate": 1,
}


def test_two_runs_through_one_registry_make_the_calls_the_bench_counts(spans, full_lib, coat_image):
    """`perfbench/measure.py` checks these per-run counts under `--trace 1`; a
    refactor that inlines one of the callees fails here first."""
    registry = ExecutionRegistry(full_lib)
    env = {"IMAGE": V.image(coat_image)}
    with spans.traced(spans.SpanRecorder(), []) as rec:
        finals = [run_program(COUNTED_PROGRAM, env, registry, SyntheticBackend()).final
                  for _ in range(2)]
    assert finals == [V.text("yes")] * 2
    calls = Counter(name for name, *_ in rec.spans)
    assert {name: calls[name] for name in COUNTED_CALLS} == COUNTED_CALLS



def test_loading_a_split_opens_one_load_scene_span_per_distinct_scene(spans, tmp_path):
    """`perfbench/measure.py` requires `scene.load_scene` calls in the learn
    phase; a loader that captured `load_scene` before the bench rebound it
    would record none."""
    generated = ds.generate_dataset("raven", 7, 6)
    ds.save_dataset(generated, tmp_path / "split.jsonl")
    with spans.traced(spans.SpanRecorder(), []) as rec:
        ds.load_dataset(tmp_path / "split.jsonl")
    calls = Counter(name for name, *_ in rec.spans)
    assert calls["scene.load_scene"] == distinct_scene_docs(generated) < 6 * 16
    assert calls["datasets.load_dataset"] == 1


def test_learning_enters_compute_pass_rate_per_candidate_and_loads_each_distinct_source(spans):
    """`perfbench/measure.py` requires one `synthesis.compute_pass_rate` span
    per candidate scored; identical samples of a proposal share one load."""
    train = ds.generate_dataset("vqa", 7, 12)
    with LlmGateway(mode="record", transport=SyntheticResponder(train)) as gateway:
        with spans.traced(spans.SpanRecorder(), []) as rec:
            _, report = run_synthesis(train, builtin_library(), gateway, SyntheticBackend(),
                                      SynthesisConfig(k_candidates=2))
    calls = Counter(name for name, *_ in rec.spans)
    outcomes = report.outcomes.values()
    candidates = sum(len(outs) for outs in outcomes)
    distinct = sum(len({o.source for o in outs}) for outs in outcomes)
    assert calls["synthesis.compute_pass_rate"] == candidates == 2 * len(report.proposals)
    assert calls["sandbox.load_candidate"] == distinct < candidates
