"""The generator's output, pinned byte for byte over more seeds and layouts
than the one-seed splits of `test_pipeline.py`.

A change to a template that moves one draw of the seeded RNG, or one byte
of a scene, query, program, gold or module case, changes a digest here.
"""

from __future__ import annotations

import hashlib

import pytest

from modgrow.cache import canonical_json
from modgrow.harness.datasets import TASKS, generate_dataset

# First 16 hex digits of the SHA-256 of `canonical_json(instance.to_doc())`,
# one line per instance, of `generate_dataset(task, seed, 40, knobs)` for
# seeds 0-4 in order; raven runs each seed in all three layouts in turn.
GENERATOR_DIGESTS = {
    "editing": "276dfca4468fcc48",
    "grounding": "df37fbcc7c142de0",
    "mewl-analog": "9ea1064cd9417bcd",
    "raven": "25271e1d617814a2",
    "tagging": "ad6c08d79e812fed",
    "vqa": "d4912292b324ae0a",
}
KNOBS = {"raven": [{"layout": layout} for layout in ("center", "left-right", "up-down")]}


@pytest.mark.parametrize("task", sorted(GENERATOR_DIGESTS))
def test_generated_instances_are_pinned(task):
    assert sorted(GENERATOR_DIGESTS) == sorted(TASKS)
    lines = hashlib.sha256()
    for seed in range(5):
        for knobs in KNOBS.get(task, [{}]):
            for instance in generate_dataset(task, seed, 40, knobs):
                lines.update(canonical_json(instance.to_doc()).encode("utf-8") + b"\n")
    assert lines.hexdigest()[:16] == GENERATOR_DIGESTS[task]
