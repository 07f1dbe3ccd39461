"""The names that `perfbench/spans.py` patches still exist, so a refactor that
would break the traced benchmark fails here, on every interpreter the tests
run on. The file is imported as it is, from its path."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import modgrow.errors
import modgrow.sandbox

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
