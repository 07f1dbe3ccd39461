"""Brute-force gold answers computed straight from scene graphs.

Every generated task instance stores a structured query spec; this module
recomputes the gold answer for it by direct enumeration over the scene,
sharing only the documented geometric conventions (box-center half planes,
crop expansion, `scene.half_box` for image halves) with the executor, never
its code path or the backend.
"""

from __future__ import annotations

from ..reference_modules import induce_word_oracle, raven_regions, solver_oracle, sort_spatial_oracle
from ..scene import KNOWLEDGE_LISTS, SceneGraph, box_area, singularize


def _named(scene: SceneGraph, name: str):
    wanted = singularize(name)
    return [o for o in scene.objects if singularize(o.name) == wanted]


def _largest(objs):
    return max(objs, key=lambda o: box_area(o.box)) if objs else None


def _center(box):
    return ((box[0] + box[2]) / 2, (box[1] + box[3]) / 2)


def oracle_answer(instance) -> dict:
    """Recompute the gold document for a TaskInstance from its query spec."""
    spec = instance.query_spec
    kind = spec["kind"]
    scene = instance.scene
    fn = _ORACLES.get(kind)
    if fn is None:
        raise ValueError(f"no oracle for query kind {kind!r}")
    return fn(scene, spec, instance)


def _count(scene, spec, instance):
    return {"type": "number", "value": len(_named(scene, spec["name"]))}


def _left_right(scene, spec, instance):
    a = _largest(_named(scene, spec["subject"]))
    b = _largest(_named(scene, spec["anchor"]))
    answer = "left" if _center(a.box)[0] < _center(b.box)[0] else "right"
    return {"type": "text", "value": answer}


def _above_below(scene, spec, instance):
    a = _largest(_named(scene, spec["subject"]))
    b = _largest(_named(scene, spec["anchor"]))
    answer = "above" if _center(a.box)[1] < _center(b.box)[1] else "below"
    return {"type": "text", "value": answer}


def _top_check(scene, spec, instance):
    obj = _largest(_named(scene, spec["name"]))
    answer = "yes" if _center(obj.box)[1] < scene.height / 2 else "no"
    return {"type": "text", "value": answer}


def _attr_choice(scene, spec, instance):
    obj = _largest(_named(scene, spec["name"]))
    values = set(obj.attributes.values())
    answer = spec["attr1"] if spec["attr1"] in values else spec["attr2"]
    return {"type": "text", "value": answer}


def _color_compare(scene, spec, instance):
    a = _largest(_named(scene, spec["name1"]))
    b = _largest(_named(scene, spec["name2"]))
    same = a.attributes.get("color") == b.attributes.get("color")
    if spec["compare_type"] == "different":
        return {"type": "text", "value": "yes" if not same else "no"}
    return {"type": "text", "value": "yes" if same else "no"}


def _who_action(scene, spec, instance):
    tag = f"{spec['verb']} the {spec['name']}"
    for obj in scene.objects:
        if any(t.lower() == tag for t in obj.tags):
            return {"type": "text", "value": obj.name.lower()}
    return {"type": "text", "value": "unknown"}


def _attr_of(scene, spec, instance):
    obj = _largest(_named(scene, spec["name"]))
    return {"type": "text", "value": obj.attributes.get(spec["attr"], "unknown").lower()}


def _material_verify(scene, spec, instance):
    obj = _largest(_named(scene, spec["name"]))
    match = obj.attributes.get("material", "").lower() == spec["material"].lower()
    return {"type": "text", "value": "yes" if match else "no"}


def _knowledge_list(scene, spec, instance):
    entries = KNOWLEDGE_LISTS[spec["topic"]][: spec["count"]]
    return {"type": "list", "value": list(entries)}


def _boxes_of(scene, name):
    return [list(o.box) for o in _named(scene, name)]


def _ordinal_ground(scene, spec, instance):
    boxes = _boxes_of(scene, spec["name"])
    chosen = sort_spatial_oracle(scene, boxes, spec["location"], spec["index"])
    return {"type": "box", "value": chosen[0] if chosen else None}


def _select_ground(scene, spec, instance):
    objs = _named(scene, spec["name"])
    hit = [o for o in objs if spec["attr"] in o.attributes.values()]
    return {"type": "box", "value": list(_largest(hit).box)}


def _half_ground(scene, spec, instance):
    w, h = scene.width, scene.height
    side = spec["location"]
    for obj in _named(scene, spec["name"]):
        cx, cy = _center(obj.box)
        if (
            (side == "left" and cx < w / 2)
            or (side == "right" and cx > w / 2)
            or (side == "top" and cy < h / 2)
            or (side == "bottom" and cy > h / 2)
        ):
            return {"type": "box", "value": list(obj.box)}
    return {"type": "box", "value": None}


def _region_ground(scene, spec, instance):
    obj = _largest(_named(scene, spec["name"]))
    return {"type": "box", "value": list(obj.box)}


def _ordinal_tag(scene, spec, instance):
    gold_box = _ordinal_ground(scene, spec, instance)["value"]
    return {"type": "tagged-regions", "value": [{"box": gold_box, "label": spec["label"]}]}


def _filter_tag(scene, spec, instance):
    regions = [
        {"box": list(o.box), "label": spec["label"]}
        for o in _named(scene, spec["name"])
        if spec["attr"] in o.attributes.values()
    ]
    return {"type": "tagged-regions", "value": regions}


def _edit(scene, spec, instance):
    obj = _largest(_named(scene, spec["name"]))
    gold = {"kind": spec["edit_kind"], "region": list(obj.box)}
    if spec["edit_kind"] == "replace":
        gold["category"] = spec["category"]
    if spec["edit_kind"] == "emoji":
        face = _largest(_named(scene, "face"))
        gold["region"] = list(face.box)
        gold["label"] = spec["emoji"]
    return {"type": "edit", "value": gold}


def _raven(scene, spec, instance):
    panels = [panel_record(p, instance.puzzle.layout) for p in instance.puzzle.panels]
    candidates = [panel_record(c, instance.puzzle.layout) for c in instance.puzzle.candidates]
    return {"type": "index", "value": solver_oracle(panels, candidates)}


def _mewl(scene, spec, instance):
    examples = [
        (dict(ex_scene.objects[0].attributes), word)
        for ex_scene, word in instance.example_pairs
    ]
    query = dict(instance.query_scene.objects[0].attributes)
    return {"type": "text", "value": induce_word_oracle(examples, query)}


def panel_record(panel: SceneGraph, layout: str):
    """Flatten a puzzle panel into attribute pairs: per region of its layout,
    those of the first object centred in it, under the region's key prefix."""
    record = []
    for prefix, (x1, y1, x2, y2) in raven_regions(layout, panel.width, panel.height):
        inside = [
            o
            for o in panel.objects
            if x1 <= (o.box[0] + o.box[2]) / 2 < x2 and y1 <= (o.box[1] + o.box[3]) / 2 < y2
        ]
        obj = inside[0]
        for key in ("shape", "color", "size"):
            record.append([f"{prefix}{key}", obj.attributes.get(key, "unknown")])
    return record


_ORACLES = {
    "count": _count,
    "left-right": _left_right,
    "above-below": _above_below,
    "top-check": _top_check,
    "attr-choice": _attr_choice,
    "color-compare": _color_compare,
    "who-action": _who_action,
    "attr-of": _attr_of,
    "material-verify": _material_verify,
    "knowledge-list": _knowledge_list,
    "ordinal-ground": _ordinal_ground,
    "select-ground": _select_ground,
    "half-ground": _half_ground,
    "region-ground": _region_ground,
    "ordinal-tag": _ordinal_tag,
    "filter-tag": _filter_tag,
    "edit": _edit,
    "raven": _raven,
    "mewl": _mewl,
}
