"""The layered DepthGrid against the dense painter it replaced.

`dense_depth` and `dense_region` are the per-pixel painter and region read
that `SyntheticBackend.depth_of` and `DepthGrid.region` used before the grid
kept layers; every value the layered grid gives must equal theirs.
"""

from __future__ import annotations

import random

import pytest

from modgrow.backends import SyntheticBackend
from modgrow.harness.datasets import generate_dataset
from modgrow.scene import ImageHandle, SceneGraph, SceneObject


def dense_depth(image: ImageHandle) -> tuple[int, int, list[float]]:
    w, h = image.width, image.height
    values = [1.0] * (w * h)
    # nearest object wins each pixel; iterate far-to-near so near overwrites
    for obj, clipped in sorted(image.visible_objects(), key=lambda p: -p[0].depth):
        x1, y1, x2, y2 = image.to_relative(clipped)
        for y in range(max(0, y1), min(h, y2)):
            row = y * w
            for x in range(max(0, x1), min(w, x2)):
                values[row + x] = obj.depth
    return w, h, values


def dense_region(width: int, height: int, values: list[float], box) -> list[float]:
    x1 = max(0, int(box[0]))
    y1 = max(0, int(box[1]))
    x2 = min(width, int(box[2]))
    y2 = min(height, int(box[3]))
    if x1 >= x2 or y1 >= y2:
        return [1.0]
    out: list[float] = []
    for y in range(y1, y2):
        row = y * width
        out.extend(values[row + x1 : row + x2])
    return out


def with_overlaps(scene: SceneGraph, rng: random.Random) -> SceneGraph:
    """`scene` plus objects that overlap its own, some at a depth already used."""
    extra = []
    for i, base in enumerate(scene.objects):
        x1, y1, x2, y2 = base.box
        dx, dy = rng.randint(-40, 40), rng.randint(-30, 30)
        box = (
            max(0, x1 + dx), max(0, y1 + dy),
            min(scene.width, x2 + dx + 30), min(scene.height, y2 + dy + 20),
        )
        depth = rng.choice([o.depth for o in scene.objects] + [0.05, 0.5, 1.0])
        extra.append(SceneObject(id=f"x{i}", name="box", box=box, depth=depth))
    # one object under everything, at the depth of the scene's first object
    extra.append(SceneObject(id="floor", name="box", box=(0, 300, scene.width, scene.height),
                             depth=scene.objects[0].depth))
    return SceneGraph(width=scene.width, height=scene.height, objects=scene.objects + tuple(extra))


def viewports(scene: SceneGraph, rng: random.Random) -> list[ImageHandle]:
    full = ImageHandle.of_scene(scene)
    out = [full]
    for _ in range(3):
        x1, y1 = rng.randint(-20, scene.width - 40), rng.randint(-20, scene.height - 40)
        out.append(full.crop((x1, y1, x1 + rng.randint(1, 300), y1 + rng.randint(1, 250))))
    # a crop of a crop, and a one-pixel viewport
    out.append(out[1].crop((5, 5, 60, 40)))
    out.append(full.crop((250, 250, 251, 251)))
    return out


def query_boxes(image: ImageHandle, rng: random.Random) -> list:
    w, h = image.width, image.height
    boxes = [
        (0, 0, w, h),  # the whole grid
        (-50, -50, w + 50, h + 50),  # the whole grid and more
        (-10, -10, w // 2 + 1, h // 2 + 1),  # partly off the grid
        (w, 0, w + 10, h),  # wholly off the grid, right
        (0, -20, w, 0),  # wholly off the grid, above
        (-30, -30, -1, -1),  # wholly off the grid, above left
        (3, 3, 3, 9),  # empty: zero width
        (8, 8, 2, 2),  # empty: reversed
        (0.9, 0.2, w - 0.5, h / 2 + 0.7),  # floats truncate
        (-0.9, -0.9, 1.9, 1.9),  # floats around the origin
    ]
    for obj, clipped in image.visible_objects():
        boxes.append(image.to_relative(clipped))
        x1, y1, x2, y2 = image.to_relative(obj.box)
        boxes.append((x1 - 3.5, y1 + 2.25, x2 + 7.75, y2 - 1.5))
    for _ in range(8):
        x1, y1 = rng.uniform(-40, w), rng.uniform(-40, h)
        boxes.append((x1, y1, x1 + rng.uniform(-5, w), y1 + rng.uniform(-5, h)))
    return boxes


def sample_points(image: ImageHandle, rng: random.Random) -> list[tuple[int, int]]:
    w, h = image.width, image.height
    points = {(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)}
    for _, clipped in image.visible_objects():
        x1, y1, x2, y2 = image.to_relative(clipped)
        for x in (x1 - 1, x1, x2 - 1, x2):
            for y in (y1 - 1, y1, y2 - 1, y2):
                if 0 <= x < w and 0 <= y < h:
                    points.add((x, y))
    points.update((rng.randrange(w), rng.randrange(h)) for _ in range(200))
    return sorted(points)


def grounding_scenes(seed: int) -> list[SceneGraph]:
    scenes = [instance.scene for instance in generate_dataset("grounding", seed, 10)]
    rng = random.Random(seed)
    return scenes + [with_overlaps(scene, rng) for scene in scenes[:5]]


@pytest.mark.parametrize("seed", [0, 1])
def test_layered_grid_matches_dense_painter(seed):
    backend = SyntheticBackend()
    rng = random.Random(f"depth-grid:{seed}")
    checked = 0
    for scene in grounding_scenes(seed):
        for image in viewports(scene, rng):
            grid = backend.depth_of(image)
            w, h, dense = dense_depth(image)
            assert (grid.width, grid.height) == (w, h)
            assert grid.values == tuple(dense)
            for box in query_boxes(image, rng):
                assert grid.region(box) == dense_region(w, h, dense, box), box
            for x, y in sample_points(image, rng):
                assert grid.at(x, y) == dense[y * w + x], (x, y)
            checked += 1
    assert checked == 15 * 6


def test_equal_depths_keep_visible_order():
    # later objects of equal depth paint over earlier ones, as the dense
    # painter's stable far-to-near sort did
    scene = SceneGraph(width=50, height=40, objects=(
        SceneObject(id="a", name="cup", box=(0, 0, 30, 30), depth=0.4),
        SceneObject(id="b", name="cup", box=(10, 10, 40, 40), depth=0.7),
        SceneObject(id="c", name="cup", box=(20, 0, 50, 20), depth=0.4),
        SceneObject(id="d", name="cup", box=(5, 5, 45, 35), depth=0.7),
    ))
    image = ImageHandle.of_scene(scene)
    grid = SyntheticBackend().depth_of(image)
    assert grid.layers == (
        ((10, 10, 40, 40), 0.7),
        ((5, 5, 45, 35), 0.7),
        ((0, 0, 30, 30), 0.4),
        ((20, 0, 50, 20), 0.4),
    )
    assert grid.values == tuple(dense_depth(image)[2])


def test_cropped_viewport_layers_are_clipped_and_relative():
    scene = SceneGraph(width=100, height=80, objects=(
        SceneObject(id="a", name="cup", box=(10, 10, 60, 50), depth=0.3),
        SceneObject(id="b", name="cup", box=(70, 60, 90, 75), depth=0.6),
    ))
    image = ImageHandle.of_scene(scene).crop((40, 20, 80, 70))
    grid = SyntheticBackend().depth_of(image)
    assert (grid.width, grid.height) == (40, 50)
    assert grid.layers == (((30, 40, 40, 50), 0.6), ((0, 0, 20, 30), 0.3))
