"""`solver_check` against a brute-force reference.

The reference places the candidate in the empty cell and checks, for each
attribute key of the panels, whether all three rows are constant, step up
the key's scale, or use the same three distinct values. `solver_check`
instead finds once per key the last-cell values that complete a rule, and
scores a candidate by set membership; both must count the same violations
on every input.
"""

from __future__ import annotations

import random

import pytest

from modgrow import reference_modules as rm
from modgrow.harness.datasets import RAVEN_LAYOUTS, RAVEN_RULES, generate_raven_puzzle
from modgrow.harness.oracle import panel_record

MISSING = object()


def scale_for_key(key: str):
    for name, scale in rm.RAVEN_SCALES.items():
        if key == name or key.endswith("_" + name):
            return scale
    return None


def brute_force_violations(panel_records, candidate_record) -> int:
    panels = [dict(r) for r in panel_records]
    keys: list[str] = []
    for rec in panels:
        for key in rec:
            if key not in keys:
                keys.append(key)
    cand = dict(candidate_record)
    grid = [
        [panels[0], panels[1], panels[2]],
        [panels[3], panels[4], panels[5]],
        [panels[6], panels[7], cand],
    ]
    bad = 0
    for key in keys:
        rows = [[grid[r][c].get(key) for c in range(3)] for r in range(3)]
        scale = scale_for_key(key)
        constant = all(row[0] == row[1] == row[2] for row in rows)
        progression = scale is not None and all(
            all(v in scale for v in row)
            and scale.index(row[1]) - scale.index(row[0]) == 1
            and scale.index(row[2]) - scale.index(row[1]) == 1
            for row in rows
        )
        distribute = (
            all(len(set(row)) == 3 for row in rows)
            and set(rows[0]) == set(rows[1]) == set(rows[2])
        )
        if not (constant or progression or distribute):
            bad += 1
    return bad


def assert_same_counts(panels, candidates):
    check = rm.solver_check(panels)
    assert [check(c) for c in candidates] == [brute_force_violations(panels, c) for c in candidates]


def random_candidates(rng: random.Random, keys, n: int):
    return [[[key, rng.choice(scale_for_key(key))] for key in keys] for _ in range(n)]


@pytest.mark.parametrize("layout", sorted(RAVEN_LAYOUTS))
def test_every_candidate_of_generated_puzzles(layout):
    rng = random.Random(f"solver-check:{layout}")
    for _ in range(40):
        puzzle = generate_raven_puzzle(rng, layout=layout)
        panels = [panel_record(p, layout) for p in puzzle.panels]
        candidates = [panel_record(c, layout) for c in puzzle.candidates]
        keys = [key for key, _ in panels[0]]
        assert_same_counts(panels, candidates + random_candidates(rng, keys, 20))


@pytest.mark.parametrize("rule", RAVEN_RULES)
@pytest.mark.parametrize("layout", sorted(RAVEN_LAYOUTS))
def test_puzzles_forced_to_one_rule(layout, rule):
    rng = random.Random(f"solver-check:{layout}:{rule}")
    for _ in range(15):
        puzzle = generate_raven_puzzle(rng, layout=layout, rules=dict.fromkeys(rm.RAVEN_SCALES, rule))
        panels = [panel_record(p, layout) for p in puzzle.panels]
        candidates = [panel_record(c, layout) for c in puzzle.candidates]
        keys = [key for key, _ in panels[0]]
        check = rm.solver_check(panels)
        assert check(candidates[puzzle.answer_index - 1]) == 0
        assert_same_counts(panels, candidates + random_candidates(rng, keys, 20))


KEYS = ["shape", "color", "size", "left_shape", "top_color", "bottom_size", "texture"]
OFF_SCALE = ["octagon", "teal", "huge", "rough"]


def random_cells(rng: random.Random, key: str) -> list:
    """Nine cells of one key: rows built by a rule, then some cells replaced
    by a missing value, `None`, a value off the scale or any scale value."""
    scale = scale_for_key(key) or ["rough", "smooth", "bumpy", "soft"]
    kind = rng.choice(["constant", "progression", "distribute", "noise"])
    if kind == "constant":
        rows = [[rng.choice(scale)] * 3 for _ in range(3)]
    elif kind == "progression":
        rows = []
        for _ in range(3):
            start = rng.randint(0, len(scale) - 3)
            rows.append(scale[start:start + 3])
    elif kind == "distribute":
        values = rng.sample(scale, 3)
        rows = [rng.sample(values, 3) for _ in range(3)]
    else:
        rows = [[rng.choice(scale) for _ in range(3)] for _ in range(3)]
    cells = [v for row in rows for v in row]
    pool = [MISSING, None, *OFF_SCALE, *scale]
    for i in range(9):
        if rng.random() < 0.15:
            cells[i] = rng.choice(pool)
    return cells


def test_random_records_with_missing_none_off_scale_and_prefixed_keys():
    rng = random.Random(2311)
    for _ in range(600):
        keys = rng.sample(KEYS, rng.randint(1, 4))
        cells = {key: random_cells(rng, key) for key in keys}
        records = [
            [[key, cells[key][i]] for key in keys if cells[key][i] is not MISSING]
            for i in range(9)
        ]
        panels, answer = records[:8], records[8]
        # the planted last cell, and each key's other values in its place
        candidates = [answer]
        for key in keys:
            for value in [None, *OFF_SCALE, *(scale_for_key(key) or [])]:
                candidates.append([pair for pair in answer if pair[0] != key] + [[key, value]])
        candidates.append([["stray", "value"]])
        assert_same_counts(panels, candidates)
