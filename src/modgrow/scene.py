"""Synthetic scenes: ground-truth scene graphs and viewport image handles.

Images in this system are structured scene descriptions rather than pixel
arrays: every perception result is computed exactly from object boxes,
attributes and depths. An ImageHandle is a viewport onto a scene plus an
append-only log of overlays and edits, which is what makes crop/tag/edit
operations pure.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

from .errors import SceneSchemaError

Box = tuple[int, int, int, int]

# Attribute vocabulary shared by the scene generator, the synthetic backend
# (inpainting rewrites) and the brute-force oracles. Values are single words
# so word-overlap scoring stays unambiguous.
CATEGORY_LEXICON = {
    "person", "man", "woman", "boy", "girl", "face",
    "coat", "towel", "box", "knife", "purse", "umbrella", "sandwich",
    "dog", "cat", "car", "chair", "cup", "book", "bottle", "plant",
    "pillow", "lamp", "vase", "ball", "hat", "item",
}
ATTRIBUTE_LEXICON = {
    "color": ["black", "white", "red", "blue", "green", "yellow", "brown", "gray",
              "orange", "purple"],
    "material": ["ceramic", "wood", "metal", "plastic", "fabric", "leather"],
    "thickness": ["thick", "thin"],
    "size": ["small", "medium", "large"],
    "shape": ["triangle", "square", "pentagon", "hexagon", "circle", "round"],
}
VALUE_TO_ATTRIBUTE = {v: k for k, vals in ATTRIBUTE_LEXICON.items() for v in vals}

# Canned knowledge lists served by the synthetic text backend for LIST-style
# factual queries; the evaluation oracle reads the same table.
KNOWLEDGE_LISTS = {
    "fruit": ["apple", "banana", "cherry", "date", "fig"],
    "vegetable": ["carrot", "potato", "onion", "pea", "leek"],
    "animal": ["dog", "cat", "horse", "cow", "sheep"],
    "color": ["red", "blue", "green", "yellow", "black"],
}

_IRREGULAR_PLURALS = {
    "people": "person", "men": "man", "women": "woman", "children": "child",
    "knives": "knife", "leaves": "leaf", "shelves": "shelf", "boxes": "box",
    "sandwiches": "sandwich", "dishes": "dish", "glasses": "glass",
}


def singularize(word: str) -> str:
    """Best-effort singular form: irregulars table, then suffix stripping."""
    return _singular(word.lower().strip())


@lru_cache(maxsize=4096)
def _singular(w: str) -> str:
    # keyed on the normalised word, so an argument that is not a string
    # fails in `singularize` as it would without the cache
    if w in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[w]
    if w.endswith("ies") and len(w) > 3:
        return w[:-3] + "y"
    for suffix in ("ches", "shes", "sses", "xes", "zes"):
        if w.endswith(suffix):
            return w[:-2]
    if w.endswith("s") and not w.endswith("ss") and len(w) > 2:
        return w[:-1]
    return w


def is_valid_box(box, width: int | None = None, height: int | None = None) -> bool:
    if not (isinstance(box, (list, tuple)) and len(box) == 4):
        return False
    for v in box:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            return False
    x1, y1, x2, y2 = box
    if not (x1 < x2 and y1 < y2):
        return False
    if width is not None and not (0 <= x1 and x2 <= width):
        return False
    if height is not None and not (0 <= y1 and y2 <= height):
        return False
    return True


def box_area(box: Box) -> int:
    return max(0, box[2] - box[0]) * max(0, box[3] - box[1])


def half_box(width: int, height: int, half: str) -> Box:
    """The box of one half of a width x height image: left, right, top or bottom."""
    return {
        "left": (0, 0, width // 2, height),
        "right": (width // 2, 0, width, height),
        "top": (0, 0, width, height // 2),
        "bottom": (0, height // 2, width, height),
    }[half]


def intersect_boxes(a: Box, b: Box) -> Box | None:
    x1, y1 = max(a[0], b[0]), max(a[1], b[1])
    x2, y2 = min(a[2], b[2]), min(a[3], b[3])
    if x1 >= x2 or y1 >= y2:
        return None
    return (x1, y1, x2, y2)


@dataclass(frozen=True)
class SceneObject:
    id: str
    name: str
    box: Box
    attributes: Mapping[str, str] = field(default_factory=dict)
    depth: float = 1.0
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        # read-only, because every run of an instance shares its scenes
        object.__setattr__(self, "attributes", MappingProxyType(dict(self.attributes)))

    def to_doc(self) -> dict:
        doc = {
            "id": self.id,
            "name": self.name,
            "box": list(self.box),
            "attributes": dict(self.attributes),
            "depth": self.depth,
        }
        if self.tags:
            doc["tags"] = list(self.tags)
        return doc


@dataclass(frozen=True)
class SceneGraph:
    width: int
    height: int
    objects: tuple[SceneObject, ...] = ()
    caption: str | None = None

    def to_doc(self) -> dict:
        doc = {
            "width": self.width,
            "height": self.height,
            "objects": [o.to_doc() for o in self.objects],
        }
        if self.caption is not None:
            doc["caption"] = self.caption
        return doc

    def content_key(self) -> tuple:
        """Every field of the scene and its objects, as a hashable tuple:
        scenes with equal keys get equal answers from every backend
        operation. `load_scene` refuses booleans where numbers belong, so
        no loaded scene's key equates `true` with 1."""
        return (self.width, self.height, self.caption, tuple(
            (o.id, o.name, o.box, tuple(o.attributes.items()), o.depth, o.tags) for o in self.objects
        ))


def load_scene(document: str | dict) -> SceneGraph:
    """Parse and validate a scene document (JSON text or already-decoded dict).

    Raises SceneSchemaError naming the first violating field. Each object is
    checked field by field in document order, in one pass that also builds
    its values: a message's `objects[i]` prefix is formatted only when a
    check fails, and the attribute dict built here becomes the object's
    read-only view without a second copy, since no caller holds it.
    """
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
    # JSON `true` and `false` decode as bool, a subclass of int: not numbers here
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
        if not isinstance(raw, dict):
            raise SceneSchemaError(f"objects[{i}]: expected an object")
        oid = raw.get("id")
        if not isinstance(oid, str) or not oid:
            raise SceneSchemaError(f"objects[{i}].id: must be a nonempty string")
        if oid in seen_ids:
            raise SceneSchemaError(f"objects[{i}].id: duplicate object id {oid!r}")
        seen_ids.add(oid)
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise SceneSchemaError(f"objects[{i}].name: must be a nonempty string")
        box = raw.get("box")
        if not is_valid_box(box, width, height):
            raise SceneSchemaError(
                f"objects[{i}].box: must be [x1,y1,x2,y2] with x1<x2, y1<y2 inside image bounds"
            )
        x1, y1, x2, y2 = box
        raw_attributes = raw.get("attributes", {})
        if not isinstance(raw_attributes, dict):
            raise SceneSchemaError(f"objects[{i}].attributes: must be a mapping")
        attributes = {}
        for key, value in raw_attributes.items():
            if not isinstance(key, str) or key != key.lower():
                raise SceneSchemaError(f"objects[{i}].attributes: keys must be lowercase strings")
            attributes[key] = str(value)
        depth = raw.get("depth", 1.0)
        if (not isinstance(depth, (int, float)) or isinstance(depth, bool)
                or not (0.0 < float(depth) <= 1.0)):
            raise SceneSchemaError(f"objects[{i}].depth: must be a float in (0, 1]")
        tags = raw.get("tags", [])
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise SceneSchemaError(f"objects[{i}].tags: must be a list of strings")
        # the fields `SceneObject.__init__` sets, without the copy its
        # `__post_init__` makes of a dict a caller may still hold; set one by
        # one in field order, so the instance dict keeps sharing its keys
        # with other objects' (`__dict__.update` would make each one a
        # separate table, about 200 bytes more per object)
        obj = object.__new__(SceneObject)
        fields = obj.__dict__
        fields["id"] = oid
        fields["name"] = name
        fields["box"] = (int(x1), int(y1), int(x2), int(y2))
        fields["attributes"] = MappingProxyType(attributes)
        fields["depth"] = float(depth)
        fields["tags"] = tuple(tags)
        objects.append(obj)
    return SceneGraph(width=width, height=height, objects=tuple(objects), caption=caption)


@dataclass(frozen=True)
class DepthGrid:
    """Per-pixel depth for a viewport; smaller values are nearer the camera.

    The grid stores its painter's-order layers, not pixels: `(box, depth)`
    pairs, far to near, in grid coordinates. A pixel takes the depth of the
    last layer whose box contains it, or 1.0 (background) when none does.
    Depth values are built only for the region a caller asks for.
    """

    width: int
    height: int
    layers: tuple[tuple[Box, float], ...]

    @property
    def values(self) -> tuple[float, ...]:
        """Every pixel, row-major."""
        return tuple(self._paint(0, 0, self.width, self.height))

    def at(self, x: int, y: int) -> float:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"pixel ({x}, {y}) outside the {self.width}x{self.height} grid")
        return self._paint(x, y, x + 1, y + 1)[0]

    def region(self, box) -> list[float]:
        """Row-major values inside `box` clipped to the grid; [1.0] when empty."""
        x1 = max(0, int(box[0]))
        y1 = max(0, int(box[1]))
        x2 = min(self.width, int(box[2]))
        y2 = min(self.height, int(box[3]))
        if x1 >= x2 or y1 >= y2:
            return [1.0]
        return self._paint(x1, y1, x2, y2)

    def _paint(self, x1: int, y1: int, x2: int, y2: int) -> list[float]:
        """Row-major values inside the in-grid box (x1, y1, x2, y2)."""
        clipped = []  # layers cut to the box, x relative to its left edge
        edges = {y1, y2}
        for (lx1, ly1, lx2, ly2), depth in self.layers:
            left, top, right, bottom = max(x1, lx1), max(y1, ly1), min(x2, lx2), min(y2, ly2)
            if left < right and top < bottom:
                clipped.append((left - x1, top, right - x1, bottom, depth))
                edges.update((top, bottom))
        # rows between consecutive layer edges are identical: paint one row
        # per band and repeat it
        edges = sorted(edges)
        out: list[float] = []
        for top, bottom in zip(edges, edges[1:]):
            row = [1.0] * (x2 - x1)
            for left, layer_top, right, layer_bottom, depth in clipped:
                if layer_top <= top and bottom <= layer_bottom:
                    row[left:right] = [depth] * (right - left)
            out += row * (bottom - top)
        return out


@dataclass(frozen=True)
class EditRecord:
    kind: str  # replace | colorpop | bgblur
    boxes: tuple[Box, ...]  # absolute scene coordinates
    prompt: str = ""


@dataclass(frozen=True)
class Overlay:
    box: Box  # absolute scene coordinates
    label: str


@dataclass(frozen=True)
class ImageHandle:
    """A viewport onto a scene with append-only overlays and edit records.

    Crop boxes, overlays and edits are stored in absolute scene coordinates;
    the viewport-facing API (size, crop) speaks viewport-relative coordinates
    like a raster image would.
    """

    scene: SceneGraph
    crop_box: Box
    overlays: tuple[Overlay, ...] = ()
    edits: tuple[EditRecord, ...] = ()

    @classmethod
    def of_scene(cls, scene: SceneGraph) -> "ImageHandle":
        return _handle(scene, (0, 0, scene.width, scene.height), (), ())

    @property
    def width(self) -> int:
        return self.crop_box[2] - self.crop_box[0]

    @property
    def height(self) -> int:
        return self.crop_box[3] - self.crop_box[1]

    @property
    def size(self) -> tuple[int, int]:
        return (self.width, self.height)

    def crop(self, box) -> "ImageHandle":
        """Narrow the viewport to `box` (viewport-relative), clamped to bounds."""
        ox, oy = self.crop_box[0], self.crop_box[1]
        x1 = max(self.crop_box[0], min(self.crop_box[2], ox + int(box[0])))
        y1 = max(self.crop_box[1], min(self.crop_box[3], oy + int(box[1])))
        x2 = max(self.crop_box[0], min(self.crop_box[2], ox + int(box[2])))
        y2 = max(self.crop_box[1], min(self.crop_box[3], oy + int(box[3])))
        if x1 >= x2:
            x2 = min(self.crop_box[2], x1 + 1)
            x1 = max(self.crop_box[0], x2 - 1)
        if y1 >= y2:
            y2 = min(self.crop_box[3], y1 + 1)
            y1 = max(self.crop_box[1], y2 - 1)
        return _handle(self.scene, (x1, y1, x2, y2), self.overlays, self.edits)

    def to_absolute(self, box) -> Box:
        ox, oy = self.crop_box[0], self.crop_box[1]
        return (ox + int(box[0]), oy + int(box[1]), ox + int(box[2]), oy + int(box[3]))

    def to_relative(self, box: Box) -> Box:
        ox, oy = self.crop_box[0], self.crop_box[1]
        return (box[0] - ox, box[1] - oy, box[2] - ox, box[3] - oy)

    def visible_objects(self) -> tuple[tuple[SceneObject, Box], ...]:
        """Objects intersecting the viewport, paired with their clipped absolute box.

        The scan runs once per handle: the `_visible` cached property keeps
        its result in the handle's own `__dict__`, so it dies with the handle.
        That is safe because a handle and its scene never change and the
        result is a tuple of frozen objects and box tuples, so no caller,
        sandboxed candidates included, can alter what later calls read.
        Every crop, overlay or edit makes a new handle, which scans afresh.
        Stage-2 gating binds training scenes of equal content to one handle,
        so all their case runs share its scan.
        """
        return self._visible

    @cached_property
    def _visible(self) -> tuple[tuple[SceneObject, Box], ...]:
        out = []
        for obj in self.scene.objects:
            clipped = intersect_boxes(obj.box, self.crop_box)
            if clipped is not None:
                out.append((obj, clipped))
        return tuple(out)

    def with_overlay(self, box_rel, label: str) -> "ImageHandle":
        ov = Overlay(box=self.to_absolute(box_rel), label=label)
        return _handle(self.scene, self.crop_box, self.overlays + (ov,), self.edits)

    def with_edit(self, kind: str, boxes_rel, prompt: str = "") -> "ImageHandle":
        rec = EditRecord(kind=kind, boxes=tuple(self.to_absolute(b) for b in boxes_rel), prompt=prompt)
        return _handle(self.scene, self.crop_box, self.overlays, self.edits + (rec,))


def _handle(scene: SceneGraph, crop_box: Box, overlays: tuple, edits: tuple) -> ImageHandle:
    """The handle `ImageHandle(scene, crop_box, overlays, edits)` builds, for
    arguments that are already a scene and tuples. A frozen dataclass's
    `__init__` stores each field through `object.__setattr__`; these stores
    go straight to the instance dict, one by one in field order, so it keeps
    sharing its keys with other handles' (as `load_scene` builds objects)."""
    handle = object.__new__(ImageHandle)
    fields = handle.__dict__
    fields["scene"] = scene
    fields["crop_box"] = crop_box
    fields["overlays"] = overlays
    fields["edits"] = edits
    return handle
