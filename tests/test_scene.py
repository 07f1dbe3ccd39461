from __future__ import annotations

import json

import pytest

from modgrow.errors import SceneSchemaError
from modgrow.scene import (
    DepthGrid,
    ImageHandle,
    SceneObject,
    load_scene,
    singularize,
)

from conftest import make_scene, obj


MINIMAL_DOC = {
    "width": 100,
    "height": 80,
    "objects": [
        {"id": "a", "name": "cat", "box": [10, 10, 40, 40], "attributes": {"color": "black"},
         "depth": 0.5}
    ],
}


def test_load_minimal_scene():
    scene = load_scene(json.dumps(MINIMAL_DOC))
    assert scene.width == 100 and len(scene.objects) == 1
    assert scene.objects[0].attributes["color"] == "black"


def test_object_attributes_are_read_only():
    attributes = {"color": "black"}
    scene = load_scene(MINIMAL_DOC)
    made = SceneObject("a", "cat", (10, 10, 40, 40), attributes, depth=0.5)
    attributes["color"] = "pink"  # the object keeps its own copy
    assert made.attributes == scene.objects[0].attributes == {"color": "black"}
    with pytest.raises(TypeError):
        made.attributes["color"] = "pink"
    assert dict(made.attributes) == {"color": "black"}
    assert json.dumps(scene.to_doc()) == json.dumps(MINIMAL_DOC)


@pytest.mark.parametrize(
    "mutate,message_part",
    [
        (lambda d: d["objects"][0].update(box=[50, 10, 40, 20]), "box"),
        (lambda d: d["objects"].append(dict(d["objects"][0])), "duplicate"),
        (lambda d: d.update(width=0), "width"),
        (lambda d: d["objects"][0].update(depth=1.5), "depth"),
        (lambda d: d["objects"][0].update(attributes={"Color": "red"}), "lowercase"),
        (lambda d: d["objects"][0].update(box=[10, 10, 40, 999]), "box"),
    ],
)
def test_schema_violations(mutate, message_part):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    mutate(doc)
    with pytest.raises(SceneSchemaError) as err:
        load_scene(doc)
    assert message_part in str(err.value).lower()


def test_singularize():
    assert singularize("sandwiches") == "sandwich"
    assert singularize("boxes") == "box"
    assert singularize("cats") == "cat"
    assert singularize("people") == "person"
    assert singularize("glass") == "glass"
    assert singularize("puppies") == "puppy"


def test_crop_composes_and_clamps():
    scene = make_scene(obj("a", "cat", (100, 100, 200, 200)))
    handle = ImageHandle.of_scene(scene)
    inner = handle.crop((50, 50, 300, 300))
    assert inner.size == (250, 250)
    nested = inner.crop((0, 0, 10_000, 10_000))
    assert nested.crop_box == inner.crop_box
    assert inner.to_absolute((0, 0, 10, 10)) == (50, 50, 60, 60)


def test_overlays_and_edits_are_append_only():
    handle = ImageHandle.of_scene(make_scene(obj("a", "cat", (10, 10, 30, 30))))
    tagged = handle.with_overlay((10, 10, 30, 30), "pet")
    assert len(handle.overlays) == 0 and len(tagged.overlays) == 1
    edited = tagged.with_edit("colorpop", [(0, 0, 20, 20)])
    assert len(edited.edits) == 1 and len(tagged.edits) == 0


def test_depth_grid_region_clips_and_defaults():
    grid = DepthGrid(width=4, height=3, layers=(((0, 0, 4, 3), 0.5),))
    assert grid.region((0, 0, 2, 2)) == [0.5] * 4
    assert grid.region((10, 10, 20, 20)) == [1.0]
    assert grid.at(3, 2) == 0.5


def test_depth_grid_at_outside_the_grid_raises():
    grid = DepthGrid(width=3, height=2, layers=(((0, 0, 3, 2), 0.5),))
    assert grid.at(2, 1) == 0.5
    for x, y in ((3, 0), (-1, 0), (0, 2), (0, -1), (3, 2), (-1, -1)):
        with pytest.raises(IndexError):
            grid.at(x, y)
