"""Synthetic scenes: ground-truth scene graphs and viewport image handles.

Images in this system are structured scene descriptions rather than pixel
arrays: every perception result is computed exactly from object boxes,
attributes and depths. An ImageHandle is a viewport onto a scene plus an
append-only log of overlays and edits, which is what makes crop/tag/edit
operations pure.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
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
    w = word.lower().strip()
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


def box_area(box: Box) -> int:
    return max(0, box[2] - box[0]) * max(0, box[3] - box[1])


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


def load_scene(document: str | dict) -> SceneGraph:
    """Parse and validate a scene document (JSON text or already-decoded dict).

    Raises SceneSchemaError naming the first violating field.
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
    if not isinstance(width, int) or width <= 0:
        raise SceneSchemaError("width: must be a positive integer")
    if not isinstance(height, int) or height <= 0:
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
        if not is_valid_box(box, width, height):
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
        if not isinstance(depth, (int, float)) or not (0.0 < float(depth) <= 1.0):
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

    def to_doc(self) -> dict:
        return {"kind": self.kind, "boxes": [list(b) for b in self.boxes], "prompt": self.prompt}


@dataclass(frozen=True)
class Overlay:
    box: Box  # absolute scene coordinates
    label: str

    def to_doc(self) -> dict:
        return {"box": list(self.box), "label": self.label}


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
        return cls(scene=scene, crop_box=(0, 0, scene.width, scene.height))

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
        return replace(self, crop_box=(x1, y1, x2, y2))

    def to_absolute(self, box) -> Box:
        ox, oy = self.crop_box[0], self.crop_box[1]
        return (ox + int(box[0]), oy + int(box[1]), ox + int(box[2]), oy + int(box[3]))

    def to_relative(self, box: Box) -> Box:
        ox, oy = self.crop_box[0], self.crop_box[1]
        return (box[0] - ox, box[1] - oy, box[2] - ox, box[3] - oy)

    def visible_objects(self) -> list[tuple[SceneObject, Box]]:
        """Objects intersecting the viewport, paired with their clipped absolute box."""
        out = []
        for obj in self.scene.objects:
            clipped = intersect_boxes(obj.box, self.crop_box)
            if clipped is not None:
                out.append((obj, clipped))
        return out

    def with_overlay(self, box_rel, label: str) -> "ImageHandle":
        ov = Overlay(box=self.to_absolute(box_rel), label=label)
        return replace(self, overlays=self.overlays + (ov,))

    def with_edit(self, kind: str, boxes_rel, prompt: str = "") -> "ImageHandle":
        rec = EditRecord(kind=kind, boxes=tuple(self.to_absolute(b) for b in boxes_rel), prompt=prompt)
        return replace(self, edits=self.edits + (rec,))

    def to_doc(self) -> dict:
        return {
            "scene": self.scene.to_doc(),
            "crop_box": list(self.crop_box),
            "overlays": [o.to_doc() for o in self.overlays],
            "edits": [e.to_doc() for e in self.edits],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ImageHandle":
        return cls(
            scene=load_scene(doc["scene"]),
            crop_box=tuple(doc["crop_box"]),
            overlays=tuple(Overlay(box=tuple(o["box"]), label=o["label"]) for o in doc["overlays"]),
            edits=tuple(
                EditRecord(kind=e["kind"], boxes=tuple(tuple(b) for b in e["boxes"]), prompt=e["prompt"])
                for e in doc["edits"]
            ),
        )

    def fingerprint(self) -> str:
        payload = json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def render_scene_ppm(handle: ImageHandle, path: str) -> None:
    """Optional report rasterizer: draw object and overlay rectangles to a PPM file."""
    w, h = handle.width, handle.height
    pix = [[(235, 235, 235) for _ in range(w)] for _ in range(h)]
    palette = [(200, 60, 60), (60, 120, 200), (60, 170, 90), (180, 140, 40), (140, 80, 180)]

    def draw_rect(box: Box, color):
        x1, y1, x2, y2 = (max(0, box[0]), max(0, box[1]), min(w - 1, box[2] - 1), min(h - 1, box[3] - 1))
        for x in range(x1, x2 + 1):
            pix[y1][x] = color
            pix[y2][x] = color
        for y in range(y1, y2 + 1):
            pix[y][x1] = color
            pix[y][x2] = color

    for i, (_, clipped) in enumerate(handle.visible_objects()):
        draw_rect(handle.to_relative(clipped), palette[i % len(palette)])
    for ov in handle.overlays:
        draw_rect(handle.to_relative(ov.box), (20, 20, 20))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P3\n{w} {h}\n255\n")
        for row in pix:
            fh.write(" ".join(f"{r} {g} {b}" for r, g, b in row))
            fh.write("\n")
