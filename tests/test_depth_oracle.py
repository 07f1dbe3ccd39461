"""`median_depth_oracle` against a per-pixel reference.

The reference visits every pixel of the clipped box, gives it the smallest
depth below 1.0 of the objects whose box holds it, and takes
`statistics.median` of those values. The oracle under test cuts the box
into cells along object edges instead; both must agree on every input.
"""

from __future__ import annotations

import random
import statistics

import pytest

from modgrow import reference_modules as rm
from modgrow.harness.datasets import generate_dataset

from conftest import make_scene, obj


def depth_at(scene, x: int, y: int) -> float:
    best = 1.0
    for o in scene.objects:
        x1, y1, x2, y2 = o.box
        if x1 <= x < x2 and y1 <= y < y2 and o.depth < best:
            best = o.depth
    return best


def per_pixel_median(scene, box) -> float:
    values = [
        depth_at(scene, x, y)
        for y in range(max(0, int(box[1])), min(scene.height, int(box[3])))
        for x in range(max(0, int(box[0])), min(scene.width, int(box[2])))
    ]
    return statistics.median(values) if values else 1.0


def random_scene(rng: random.Random, coord, depths, width=96, height=72):
    objects = []
    for i in range(rng.randint(0, 7)):
        x1, y1 = coord(rng, -10, width), coord(rng, -10, height)
        box = (x1, y1, x1 + coord(rng, 1, 60), y1 + coord(rng, 1, 50))
        objects.append(obj(f"o{i}", "cup", box, depth=rng.choice(depths)))
    return make_scene(*objects, width=width, height=height)


def random_box(rng: random.Random, coord, width=96, height=72):
    x1, y1 = coord(rng, -20, width + 10), coord(rng, -20, height + 10)
    return (x1, y1, x1 + coord(rng, -5, 70), y1 + coord(rng, -5, 60))


def int_coord(rng, lo, hi):
    return rng.randint(lo, hi)


def float_coord(rng, lo, hi):
    return rng.uniform(lo, hi)


@pytest.mark.parametrize("coord", [int_coord, float_coord], ids=["int", "float"])
@pytest.mark.parametrize("depths", [
    (0.1, 0.25, 0.4, 0.55, 0.7, 0.85),
    (0.5, 0.5, 1.0),  # equal depths, and objects at depth 1.0 that set none
    (0.2, 1.0, 1.0, 1.0),
], ids=["spread", "equal", "background"])
def test_agrees_with_per_pixel_reference_on_random_scenes(coord, depths):
    rng = random.Random(f"depth-oracle:{coord.__name__}:{depths}")
    parities = set()
    for _ in range(400):
        scene = random_scene(rng, coord, depths)
        box = random_box(rng, coord)
        assert rm.median_depth_oracle(scene, box) == per_pixel_median(scene, box), (scene, box)
        x1, y1 = max(0, int(box[0])), max(0, int(box[1]))
        x2, y2 = min(scene.width, int(box[2])), min(scene.height, int(box[3]))
        if x1 < x2 and y1 < y2:
            parities.add((x2 - x1) * (y2 - y1) % 2)
    assert parities == {0, 1}


@pytest.mark.parametrize("box", [
    (0, 0, 4, 3),  # odd count: the middle pixel
    (0, 0, 4, 4),  # even count whose two middle pixels differ: their mean
    (2, 1, 2, 5),  # no width
    (3, 3, 1, 5),  # reversed
    (-9, -9, -1, -1),  # wholly off the scene, before it
    (20, 0, 30, 4),  # wholly off the scene, after it
    (-3, -2, 30, 40),  # partly off the scene: clipped to it
    (0.9, 0.2, 3.7, 3.99),  # float edges truncate
])
def test_small_cases(box):
    scene = make_scene(
        obj("a", "cup", (0, 0, 2, 4), depth=0.3),
        obj("b", "cup", (1, 1, 4, 3), depth=0.6),
        obj("c", "cup", (0, 2, 4, 4), depth=1.0),
        width=8, height=6,
    )
    assert rm.median_depth_oracle(scene, box) == per_pixel_median(scene, box)


def test_even_count_averages_the_two_middle_values():
    # 4 pixels at 0.2, 4 at 0.8: the median is their mean, not either value
    scene = make_scene(obj("a", "cup", (0, 0, 2, 2), depth=0.2),
                       obj("b", "cup", (2, 0, 4, 2), depth=0.8), width=4, height=2)
    assert rm.median_depth_oracle(scene, (0, 0, 4, 2)) == (0.2 + 0.8) / 2


def test_empty_box_has_background_median():
    scene = make_scene(obj("a", "cup", (0, 0, 4, 4), depth=0.3), width=4, height=4)
    for box in [(2, 2, 2, 3), (5, 0, 9, 4), (0, 0, 0, 0)]:
        assert rm.median_depth_oracle(scene, box) == 1.0


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_agrees_on_every_object_box_of_generated_grounding_scenes(seed):
    for instance in generate_dataset("grounding", seed, 40):
        scene = instance.scene
        for o in scene.objects:
            assert rm.median_depth_oracle(scene, o.box) == per_pixel_median(scene, o.box), (
                instance.id, o.id,
            )


def test_a_scene_too_large_to_visit_pixel_by_pixel():
    # 4e8 pixels. Near: 0.2 over 8,000 x 10,000 = 8e7; mid: 0.5 over
    # 12,000 x 10,000 = 1.2e8 of which the near box covers 4e7 (x 4,000 to
    # 8,000 of its rows 0 to 10,000), so 8e7 show; far: 0.9 over
    # 20,000 x 5,000 = 1e8 below row 10,000; 1.4e8 background. Sorted:
    # 0.2 holds ranks 0 to 8e7-1, 0.5 the next 8e7, 0.9 the next 1e8, so
    # both middle ranks (2e8-1 and 2e8) fall on 0.9.
    scene = make_scene(
        obj("mid", "cup", (4_000, 0, 16_000, 10_000), depth=0.5),
        obj("near", "cup", (0, 0, 8_000, 10_000), depth=0.2),
        obj("far", "cup", (0, 10_000, 20_000, 15_000), depth=0.9),
        width=20_000, height=20_000,
    )
    assert rm.median_depth_oracle(scene, (0, 0, 20_000, 20_000)) == 0.9
    # the top half only: 8e7 at 0.2, 8e7 at 0.5, 4e7 background; the middle
    # ranks 1e8-1 and 1e8 both fall on 0.5
    assert rm.median_depth_oracle(scene, (0, 0, 20_000, 10_000)) == 0.5
    # the near box's right half and the mid box's part past it split
    # 4e7 : 4e7, so the two middle ranks straddle 0.2 and 0.5
    assert rm.median_depth_oracle(scene, (4_000, 0, 12_000, 10_000)) == (0.2 + 0.5) / 2
