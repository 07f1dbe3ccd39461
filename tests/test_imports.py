"""Each modgrow module imports on its own, so no import cycle hides behind
the order in which other tests happen to import modules."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import modgrow

SRC = str(Path(modgrow.__file__).resolve().parents[1])
MODULES = ["modgrow", *sorted(m.name for m in pkgutil.walk_packages(modgrow.__path__, "modgrow."))]


def test_every_module_is_listed():
    assert {"modgrow.cli", "modgrow.synthesis", "modgrow.harness.datasets",
            "modgrow.harness.evaluate", "modgrow.harness.metrics"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
