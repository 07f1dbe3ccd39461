"""`scene.load_scene` against the loader it replaced.

`reference_load_scene` is `load_scene` as it was before it checked a box in
one loop, built the attribute dict in the pass that checks its keys, formatted
an error's location only on failure and filled each `SceneObject` without a
second copy of its attributes. The loader must return an equal scene, with
the same field types and read-only attributes, for every scene of generated
datasets of all six tasks, and raise the same error for every malformed
document. Both refuse JSON `true` and `false` wherever a number belongs, so a
scene's content never equates `true` with 1.
"""

from __future__ import annotations

import copy
import json
import math
from types import MappingProxyType

import pytest

from modgrow.errors import SceneSchemaError
from modgrow.harness.datasets import generate_dataset
from modgrow.scene import SceneGraph, SceneObject, load_scene

from conftest import scene_docs

TASKS = ("vqa", "grounding", "tagging", "editing", "raven", "mewl-analog")


def reference_is_valid_box(box, width: int | None = None, height: int | None = None) -> bool:
    if not (isinstance(box, (list, tuple)) and len(box) == 4):
        return False
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in box):
        return False
    x1, y1, x2, y2 = box
    if not (x1 < x2 and y1 < y2):
        return False
    if width is not None and not (0 <= x1 and x2 <= width):
        return False
    if height is not None and not (0 <= y1 and y2 <= height):
        return False
    return True


def reference_load_scene(document: str | dict) -> SceneGraph:
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SceneSchemaError(f"document is not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise SceneSchemaError("document: expected an object")
    width, height = doc.get("width"), doc.get("height")
    if not isinstance(width, int) or isinstance(width, bool) or width <= 0:
        raise SceneSchemaError("width: must be a positive integer")
    if not isinstance(height, int) or isinstance(height, bool) or height <= 0:
        raise SceneSchemaError("height: must be a positive integer")
    caption = doc.get("caption")
    if caption is not None and not isinstance(caption, str):
        raise SceneSchemaError("caption: must be a string")
    raw_objects = doc.get("objects", [])
    if not isinstance(raw_objects, list):
        raise SceneSchemaError("objects: must be a list")
    seen_ids: set[str] = set()
    objects: list[SceneObject] = []
    for i, raw in enumerate(raw_objects):
        where = f"objects[{i}]"
        if not isinstance(raw, dict):
            raise SceneSchemaError(f"{where}: expected an object")
        oid = raw.get("id")
        if not isinstance(oid, str) or not oid:
            raise SceneSchemaError(f"{where}.id: must be a nonempty string")
        if oid in seen_ids:
            raise SceneSchemaError(f"{where}.id: duplicate object id {oid!r}")
        seen_ids.add(oid)
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise SceneSchemaError(f"{where}.name: must be a nonempty string")
        box = raw.get("box")
        if not reference_is_valid_box(box, width, height):
            raise SceneSchemaError(
                f"{where}.box: must be [x1,y1,x2,y2] with x1<x2, y1<y2 inside image bounds"
            )
        attributes = raw.get("attributes", {})
        if not isinstance(attributes, dict):
            raise SceneSchemaError(f"{where}.attributes: must be a mapping")
        for key in attributes:
            if not isinstance(key, str) or key != key.lower():
                raise SceneSchemaError(f"{where}.attributes: keys must be lowercase strings")
        depth = raw.get("depth", 1.0)
        if not isinstance(depth, (int, float)) or isinstance(depth, bool) or not (0.0 < float(depth) <= 1.0):
            raise SceneSchemaError(f"{where}.depth: must be a float in (0, 1]")
        tags = raw.get("tags", [])
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise SceneSchemaError(f"{where}.tags: must be a list of strings")
        objects.append(
            SceneObject(
                id=oid,
                name=name,
                box=tuple(int(v) for v in box),
                attributes={k: str(v) for k, v in attributes.items()},
                depth=float(depth),
                tags=tuple(tags),
            )
        )
    return SceneGraph(width=width, height=height, objects=tuple(objects), caption=caption)


def assert_same_scene(loaded: SceneGraph, reference: SceneGraph, source) -> None:
    assert loaded == reference
    assert repr(loaded) == repr(reference)
    assert type(loaded.objects) is tuple
    for obj, ref in zip(loaded.objects, reference.objects, strict=True):
        assert type(obj) is SceneObject
        assert list(vars(obj)) == list(vars(ref))
        for value, ref_value in zip(vars(obj).values(), vars(ref).values()):
            assert type(value) is type(ref_value)
        assert all(type(v) is int for v in obj.box)
        assert all(type(k) is str and type(v) is str for k, v in obj.attributes.items())
        assert all(type(t) is str for t in obj.tags)
        assert type(obj.attributes) is MappingProxyType
        with pytest.raises(TypeError):
            obj.attributes["color"] = "pink"
        with pytest.raises(AttributeError):
            obj.depth = 0.5
    if isinstance(source, dict):  # the scene keeps nothing the document can change
        before = repr(loaded)
        for raw in source.get("objects", []):
            raw.get("attributes", {})["color"] = "pink"
            for field, changed in (("box", -1), ("tags", "changed")):
                if isinstance(raw.get(field), list):
                    raw[field].append(changed)
        assert repr(loaded) == before


@pytest.mark.parametrize("task", TASKS)
def test_generated_scenes_load_as_the_reference_loads_them(task):
    checked = 0
    for instance in generate_dataset(task, 11, 8):
        for doc in scene_docs(json.loads(json.dumps(instance.to_doc()))):
            reference = reference_load_scene(copy.deepcopy(doc))
            assert_same_scene(load_scene(json.dumps(doc)), reference, None)
            assert_same_scene(load_scene(doc), reference, doc)
            checked += 1
    assert checked >= 8


class Coordinate(int):
    """An int subclass, as a caller building documents in Python may pass."""


VALID_OBJECT = {"id": "a", "name": "cat", "box": [10, 10, 40, 40], "attributes": {"color": "black"},
                "depth": 0.5, "tags": ["sitting"]}


def document(**object_fields) -> dict:
    """A two-object scene whose second object takes `object_fields`; a field
    given as ... is left out."""
    second = {"id": "b", "name": "dog", "box": [50, 20, 90, 70]}
    second.update(object_fields)
    second = {k: v for k, v in second.items() if v is not ...}
    return {"width": 100, "height": 80, "caption": "two animals",
            "objects": [copy.deepcopy(VALID_OBJECT), second]}


def with_top(**fields) -> dict:
    doc = document()
    doc.update(fields)
    return {k: v for k, v in doc.items() if v is not ...}


MALFORMED = [
    # the document
    "{not json", "[1, 2]", "", [], 5, None,
    # top-level fields in turn
    with_top(width=...), with_top(width=0), with_top(width=-3), with_top(width="100"),
    with_top(width=100.0), with_top(height=...), with_top(height=0), with_top(height=[80]),
    with_top(height=80.5), with_top(caption=7), with_top(caption=["x"]), with_top(objects={}),
    with_top(objects="ab"), with_top(objects=[VALID_OBJECT, 3]),
    # object fields in turn
    document(id=...), document(id=""), document(id=7), document(id="a"),
    document(name=...), document(name=""), document(name=["dog"]),
    document(box=...), document(box=None), document(box="0,0,5,5"), document(box=[1, 2, 3]),
    document(box=[1, 2, 3, 4, 5]), document(box=[50, 20, 50, 70]), document(box=[50, 70, 90, 20]),
    document(box=[-1, 20, 90, 70]), document(box=[50, 20, 101, 70]), document(box=[50, 20, 90, 81]),
    document(box=[True, 20, 90, 70]), document(box=[50, 20, 90, False]),
    document(box=[50, 20, "90", 70]), document(box=[50, None, 90, 70]),
    document(box=[50.0, math.nan, 90.0, 70.0]), document(box=[50, 20, math.inf, 70]),
    document(attributes=["color"]), document(attributes="red"), document(attributes={"Color": "red"}),
    document(attributes={"color": "red", "SIZE": "big"}), document(attributes={3: "red"}),
    document(attributes={"color": "red", "Bad": "x"}, depth=7),
    document(depth=0), document(depth=0.0), document(depth=1.0001), document(depth=-0.5),
    document(depth="0.5"), document(depth=None), document(depth=[0.5]), document(depth=math.nan),
    document(tags="sitting"), document(tags=["sitting", 3]), document(tags=[None]),
    document(tags=("sitting",)),
    # JSON `true` and `false` are not numbers, although Python's bool is an int
    with_top(width=True, height=True, objects=[]), with_top(width=100, height=True),
    with_top(width=False), document(depth=True), document(depth=False),
]

WELL_FORMED = [
    document(), with_top(caption=...), with_top(objects=...), with_top(objects=[]),
    with_top(width=1, height=1, objects=[]),
    document(box=[50.5, 20.25, 90.75, 70.999]), document(box=(50, 20, 90, 70)),
    document(box=[Coordinate(50), Coordinate(20), Coordinate(90), 70]),
    document(box=[0, 0, 100, 80]), document(depth=Coordinate(1)), document(depth=1), document(depth=1.0),
    document(depth=0.0001), document(attributes={"color": 3, "size": None, "shape": ["x"]}),
    document(attributes=..., depth=..., tags=...), document(attributes={}), document(tags=[]),
    document(attributes={"color": "Red", "": "empty"}),
]


def outcome(load, doc):
    try:
        return "ok", load(doc)
    except Exception as exc:  # compared by type and message below
        return "error", type(exc), str(exc)


@pytest.mark.parametrize("doc", MALFORMED, ids=range(len(MALFORMED)))
def test_a_malformed_document_fails_with_the_reference_error(doc):
    expected = outcome(reference_load_scene, copy.deepcopy(doc))
    assert expected[:2] == ("error", SceneSchemaError)
    assert outcome(load_scene, doc) == expected
    if isinstance(doc, dict):
        assert outcome(load_scene, json.dumps(doc)) == outcome(reference_load_scene, json.dumps(doc))


@pytest.mark.parametrize("doc", WELL_FORMED, ids=range(len(WELL_FORMED)))
def test_an_odd_but_valid_document_loads_as_the_reference_loads_it(doc):
    reference = reference_load_scene(copy.deepcopy(doc))
    assert_same_scene(load_scene(doc), reference, doc)


def test_json_text_loads_as_the_reference_loads_it():
    text = json.dumps(document(box=[50.5, 20, 90, 70], depth=1, attributes={"size": 2}))
    assert_same_scene(load_scene(text), reference_load_scene(text), None)
    assert outcome(load_scene, text[:-1]) == outcome(reference_load_scene, text[:-1])


@pytest.mark.parametrize("doc, message", [
    (with_top(width=True, height=True, objects=[]), "width: must be a positive integer"),
    (with_top(height=True), "height: must be a positive integer"),
    (with_top(width=False), "width: must be a positive integer"),
    (document(depth=True), "objects[1].depth: must be a float in (0, 1]"),
    (document(depth=False), "objects[1].depth: must be a float in (0, 1]"),
])
def test_a_boolean_is_not_a_number(doc, message):
    for source in (doc, json.dumps(doc)):
        with pytest.raises(SceneSchemaError) as refused:
            load_scene(source)
        assert str(refused.value) == message
