"""Seeded synthetic datasets for the six task families.

Each generated instance bundles a scene (or panel set), the natural-language
query, a structured query spec the brute-force oracle can answer, the gold
answer, a canonical program solving it with the full module catalogue, a
fallback program restricted to builtins, and per-module case programs used
to gate synthesized candidates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .. import values as V
from ..executor import Environment
from ..scene import ImageHandle, SceneGraph, SceneObject, load_scene
from . import oracle as oracle_mod

VQA_OBJECTS = ["coat", "towel", "box", "knife", "purse", "umbrella", "sandwich",
               "dog", "cat", "cup", "book", "bottle", "plant", "pillow", "lamp", "vase"]
PEOPLE = ["man", "woman", "boy", "girl"]
COLORS = ["black", "white", "red", "blue", "green", "yellow", "brown", "gray"]
MATERIALS = ["ceramic", "wood", "metal", "plastic", "fabric", "leather"]
TAG_LABELS = ["Ada Lovelace", "Alan Turing", "Grace Hopper", "Eiffel Tower", "Mount Fuji"]
EMOJIS = ["smiling_face", "winking_face", "heart_eyes"]

SHAPE_SCALE = ["triangle", "square", "pentagon", "hexagon", "circle"]
COLOR_SCALE = ["red", "orange", "yellow", "green", "blue", "purple"]
SIZE_SCALE = ["small", "medium", "large"]
RAVEN_SCALES = {"shape": SHAPE_SCALE, "color": COLOR_SCALE, "size": SIZE_SCALE}
MEWL_WORDS = ["dax", "wug", "blicket", "fep", "zorp"]
MEWL_MATERIALS = ["rubber", "metal", "wood", "glass"]

WIDTH, HEIGHT = 640, 480


def pluralize(word: str) -> str:
    if word.endswith(("ch", "sh", "s", "x", "z")):
        return word + "es"
    return word + "s"


@dataclass(frozen=True)
class RavenPuzzle:
    panels: tuple[SceneGraph, ...]
    candidates: tuple[SceneGraph, ...]
    rules: dict[str, str]
    answer_index: int
    layout: str  # center | left-right | up-down

    def to_doc(self) -> dict:
        return {
            "panels": [p.to_doc() for p in self.panels],
            "candidates": [c.to_doc() for c in self.candidates],
            "rules": dict(self.rules),
            "answer_index": self.answer_index,
            "layout": self.layout,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "RavenPuzzle":
        return cls(
            panels=tuple(load_scene(p) for p in doc["panels"]),
            candidates=tuple(load_scene(c) for c in doc["candidates"]),
            rules=dict(doc["rules"]),
            answer_index=doc["answer_index"],
            layout=doc["layout"],
        )


@dataclass
class TaskInstance:
    id: str
    task: str  # vqa | grounding | tagging | editing | raven | mewl-analog
    query: str
    query_spec: dict
    gold: dict  # {"type": ..., "value": ...}
    canonical_program: str
    fallback_program: str
    scene: SceneGraph | None = None
    puzzle: RavenPuzzle | None = None
    example_pairs: list = field(default_factory=list)  # mewl: (SceneGraph, word)
    query_scene: SceneGraph | None = None
    module_cases: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        doc = {
            "id": self.id,
            "task": self.task,
            "query": self.query,
            "query_spec": self.query_spec,
            "gold": self.gold,
            "programs": {"canonical": self.canonical_program, "fallback": self.fallback_program},
            "module_cases": self.module_cases,
        }
        if self.scene is not None:
            doc["scene"] = self.scene.to_doc()
        if self.puzzle is not None:
            doc["puzzle"] = self.puzzle.to_doc()
        if self.example_pairs:
            doc["examples"] = [[s.to_doc(), w] for s, w in self.example_pairs]
        if self.query_scene is not None:
            doc["query_scene"] = self.query_scene.to_doc()
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "TaskInstance":
        return cls(
            id=doc["id"],
            task=doc["task"],
            query=doc["query"],
            query_spec=doc["query_spec"],
            gold=doc["gold"],
            canonical_program=doc["programs"]["canonical"],
            fallback_program=doc["programs"]["fallback"],
            scene=load_scene(doc["scene"]) if "scene" in doc else None,
            puzzle=RavenPuzzle.from_doc(doc["puzzle"]) if "puzzle" in doc else None,
            example_pairs=[(load_scene(s), w) for s, w in doc.get("examples", [])],
            query_scene=load_scene(doc["query_scene"]) if "query_scene" in doc else None,
            module_cases=doc.get("module_cases", {}),
        )


INITIAL_BINDING_NAMES = {
    "vqa": {"IMAGE": "image", "QUESTION": "text"},
    "grounding": {"IMAGE": "image", "EXPRESSION": "text"},
    "tagging": {"IMAGE": "image", "EXPRESSION": "text"},
    "editing": {"IMAGE": "image", "INSTRUCTION": "text"},
    "raven": {"PANELS": "list", "CANDIDATES": "list"},
    "mewl-analog": {"EXAMPLES": "list", "QUERY": "image"},
}


def binding_tags(task: str) -> dict[str, str]:
    return dict(INITIAL_BINDING_NAMES[task])


def build_bindings(instance: TaskInstance) -> Environment:
    """Initial environment of an instance: its loaded scenes and its query.

    Scenes are immutable, so every run of the instance binds the same ones."""
    task = instance.task
    bindings: dict[str, V.Value] = {}
    if task in ("vqa", "grounding", "tagging", "editing"):
        handle = ImageHandle.of_scene(instance.scene)
        bindings["IMAGE"] = V.image(handle)
        text_name = {"vqa": "QUESTION", "grounding": "EXPRESSION", "tagging": "EXPRESSION",
                     "editing": "INSTRUCTION"}[task]
        bindings[text_name] = V.text(instance.query)
    elif task == "raven":
        puzzle = instance.puzzle
        bindings["PANELS"] = V.list_value(ImageHandle.of_scene(p) for p in puzzle.panels)
        bindings["CANDIDATES"] = V.list_value(ImageHandle.of_scene(c) for c in puzzle.candidates)
    elif task == "mewl-analog":
        bindings["EXAMPLES"] = V.list_value(
            (ImageHandle.of_scene(s), w) for s, w in instance.example_pairs
        )
        bindings["QUERY"] = V.image(ImageHandle.of_scene(instance.query_scene))
    else:
        raise ValueError(f"unknown task {task!r}")
    return Environment(bindings=bindings)


# ---------------------------------------------------------------------------
# Scene construction helpers
# ---------------------------------------------------------------------------


def _obj(oid, name, box, depth=0.5, tags=(), **attributes) -> SceneObject:
    return SceneObject(
        id=oid, name=name, box=tuple(box), attributes=dict(attributes), depth=depth, tags=tuple(tags)
    )


def _scene(objects) -> SceneGraph:
    return SceneGraph(width=WIDTH, height=HEIGHT, objects=tuple(objects))


def _row_boxes(rng: random.Random, count: int, y_band=(180, 300)) -> list[tuple]:
    """Disjoint boxes spread left to right with varied sizes."""
    slots = sorted(rng.sample(range(count * 2), count))
    boxes = []
    slot_w = WIDTH // (count * 2)
    for slot in slots:
        w = rng.randint(30, min(90, slot_w - 6))
        h = rng.randint(40, 100)
        x1 = slot * slot_w + rng.randint(0, max(1, slot_w - w - 4))
        y1 = rng.randint(*y_band)
        boxes.append((x1, y1, x1 + w, y1 + h))
    return boxes


def _gold_value(gold: dict) -> V.Value:
    kind = gold["type"]
    value = gold["value"]
    if kind == "text":
        return V.text(value)
    if kind == "number":
        return V.number(value)
    if kind == "box":
        return V.box_list([value] if value else [])
    if kind == "list":
        return V.list_value(value)
    if kind == "index":
        return V.number(value)
    raise ValueError(f"gold type {kind!r} has no value form")


GOLD_COMPARATOR = {"text": "exact-text", "number": "numeric-eq", "box": "iou-at-0.5",
                   "list": "exact-text", "index": "numeric-eq"}


def _default_case(instance: TaskInstance, module: str) -> dict:
    gold_value = _gold_value(instance.gold)
    return {
        "program": instance.canonical_program,
        "expected": {"tag": gold_value.tag, "payload": _listify(gold_value.payload)},
        "comparator": GOLD_COMPARATOR[instance.gold["type"]],
    }


def _listify(payload):
    if isinstance(payload, tuple):
        return [_listify(v) for v in payload]
    return payload


def _finish(instance: TaskInstance, modules: tuple[str, ...] = ()) -> TaskInstance:
    """Sanity-check against the oracle and attach default module cases."""
    recomputed = oracle_mod.oracle_answer(instance)
    if recomputed != instance.gold:
        raise AssertionError(
            f"{instance.id}: planted gold {instance.gold} != oracle {recomputed}"
        )
    for module in modules:
        instance.module_cases.setdefault(module, _default_case(instance, module))
    return instance


# ---------------------------------------------------------------------------
# VQA templates
# ---------------------------------------------------------------------------


def _vqa_count(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(VQA_OBJECTS)
    count = rng.randint(0, 4)
    objects = []
    for i, box in enumerate(_row_boxes(rng, count or 1)[:count]):
        objects.append(_obj(f"t{i}", name, box, color=rng.choice(COLORS)))
    other = rng.choice([o for o in VQA_OBJECTS if o != name])
    objects.append(_obj("d0", other, (540, 20, 620, 100), color=rng.choice(COLORS)))
    plural = pluralize(name)
    program = (
        f"BOX0=LOC(image=IMAGE,object='{plural}')\n"
        "ANSWER0=COUNT(box=BOX0)\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    return TaskInstance(
        id=iid,
        task="vqa",
        query=f"How many {plural} are in the image?",
        query_spec={"kind": "count", "name": name},
        gold={"type": "number", "value": count},
        canonical_program=program,
        fallback_program=program,
        scene=_scene(objects),
    )


def _vqa_left_right(rng: random.Random, iid: str) -> TaskInstance:
    subject, anchor = rng.sample(VQA_OBJECTS, 2)
    on_left = rng.random() < 0.5
    anchor_box = (280, 140, 400, 380)
    subject_box = (60, 220, 170, 330) if on_left else (470, 220, 580, 330)
    scene = _scene(
        [_obj("a", anchor, anchor_box, color=rng.choice(COLORS)),
         _obj("s", subject, subject_box, color=rng.choice(COLORS))]
    )
    if rng.random() < 0.5:
        program = (
            f"BOX0=LOC(image=IMAGE,object='{anchor}')\n"
            "IMAGE0=CROP_LEFTOF(image=IMAGE,box=BOX0)\n"
            f"BOX1=LOC(image=IMAGE0,object='{subject}')\n"
            "ANSWER0=COUNT(box=BOX1)\n"
            "ANSWER1=EVAL(expr=f\"'left' if {ANSWER0} > 0 else 'right'\")\n"
            "FINAL_RESULT=RESULT(var=ANSWER1)"
        )
    else:
        program = (
            f"BOX0=LOC(image=IMAGE,object='{anchor}')\n"
            "IMAGE0=CROP_RIGHTOF(image=IMAGE,box=BOX0)\n"
            f"BOX1=LOC(image=IMAGE0,object='{subject}')\n"
            "ANSWER0=COUNT(box=BOX1)\n"
            "ANSWER1=EVAL(expr=f\"'right' if {ANSWER0} > 0 else 'left'\")\n"
            "FINAL_RESULT=RESULT(var=ANSWER1)"
        )
    return TaskInstance(
        id=iid,
        task="vqa",
        query=f"Is the {subject} to the left or to the right of the {anchor}?",
        query_spec={"kind": "left-right", "subject": subject, "anchor": anchor},
        gold={"type": "text", "value": "left" if on_left else "right"},
        canonical_program=program,
        fallback_program=program,
        scene=scene,
    )


def _vqa_above_below(rng: random.Random, iid: str) -> TaskInstance:
    subject, anchor = rng.sample(VQA_OBJECTS, 2)
    above = rng.random() < 0.5
    anchor_box = (240, 190, 400, 300)
    subject_box = (260, 30, 380, 130) if above else (260, 360, 380, 460)
    scene = _scene(
        [_obj("a", anchor, anchor_box, color=rng.choice(COLORS)),
         _obj("s", subject, subject_box, color=rng.choice(COLORS))]
    )
    if rng.random() < 0.5:
        program = (
            f"BOX0=LOC(image=IMAGE,object='{anchor}')\n"
            "IMAGE0=CROP_ABOVE(image=IMAGE,box=BOX0)\n"
            f"BOX1=LOC(image=IMAGE0,object='{subject}')\n"
            "ANSWER0=COUNT(box=BOX1)\n"
            "ANSWER1=EVAL(expr=f\"'above' if {ANSWER0} > 0 else 'below'\")\n"
            "FINAL_RESULT=RESULT(var=ANSWER1)"
        )
    else:
        program = (
            f"BOX0=LOC(image=IMAGE,object='{anchor}')\n"
            "IMAGE0=CROP_BELOW(image=IMAGE,box=BOX0)\n"
            f"BOX1=LOC(image=IMAGE0,object='{subject}')\n"
            "ANSWER0=COUNT(box=BOX1)\n"
            "ANSWER1=EVAL(expr=f\"'below' if {ANSWER0} > 0 else 'above'\")\n"
            "FINAL_RESULT=RESULT(var=ANSWER1)"
        )
    return TaskInstance(
        id=iid,
        task="vqa",
        query=f"Is the {subject} above or below the {anchor}?",
        query_spec={"kind": "above-below", "subject": subject, "anchor": anchor},
        gold={"type": "text", "value": "above" if above else "below"},
        canonical_program=program,
        fallback_program=program,
        scene=scene,
    )


def _vqa_top_check(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(VQA_OBJECTS)
    on_top = rng.random() < 0.5
    box = (250, 20, 380, 120) if on_top else (250, 370, 380, 465)
    scene = _scene([_obj("t", name, box, color=rng.choice(COLORS))])
    program = (
        "BOX0=LOC(image=IMAGE,object='TOP')\n"
        "IMAGE0=CROP(image=IMAGE,box=BOX0)\n"
        f"BOX1=LOC(image=IMAGE0,object='{name}')\n"
        "ANSWER0=COUNT(box=BOX1)\n"
        "ANSWER1=EVAL(expr=f\"'yes' if {ANSWER0} > 0 else 'no'\")\n"
        "FINAL_RESULT=RESULT(var=ANSWER1)"
    )
    return TaskInstance(
        id=iid,
        task="vqa",
        query=f"Is the {name} in the top of the image?",
        query_spec={"kind": "top-check", "name": name},
        gold={"type": "text", "value": "yes" if on_top else "no"},
        canonical_program=program,
        fallback_program=program,
        scene=scene,
    )


_CHOICE_ATTRS = {"thickness": ["thick", "thin"], "size": ["small", "large"]}


def _vqa_attr_choice(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(["coat", "pillow", "towel", "book"])
    dim = rng.choice(list(_CHOICE_ATTRS))
    value = rng.choice(_CHOICE_ATTRS[dim])
    other = next(v for v in _CHOICE_ATTRS[dim] if v != value)
    attr1, attr2 = (value, other) if rng.random() < 0.5 else (other, value)
    attrs = {dim: value, "color": rng.choice(COLORS)}
    scene = _scene([_obj("t", name, (240, 160, 400, 330), **attrs)])
    program = (
        f"BOX0=LOC(image=IMAGE,object='{name}')\n"
        f"ANSWER0=CHOOSE_ATTRIBUTE(image=IMAGE,box=BOX0,object='{name}',"
        f"attribute1='{attr1}',attribute2='{attr2}')\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    fallback = (
        f"BOX0=LOC(image=IMAGE,object='{name}')\n"
        "IMAGE0=CROP(image=IMAGE,box=BOX0)\n"
        "ANSWER0=VQA(image=IMAGE0,question=QUESTION)\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    instance = TaskInstance(
        id=iid,
        task="vqa",
        query=f"Is the {name} {attr1} or {attr2}?",
        query_spec={"kind": "attr-choice", "name": name, "attr1": attr1, "attr2": attr2},
        gold={"type": "text", "value": value},
        canonical_program=program,
        fallback_program=fallback,
        scene=scene,
    )
    instance.module_cases["CHOOSE_ATTRIBUTE"] = _default_case(instance, "CHOOSE_ATTRIBUTE")
    return instance


def _vqa_color_compare(rng: random.Random, iid: str) -> TaskInstance:
    name1, name2 = rng.sample(VQA_OBJECTS, 2)
    color1 = rng.choice(COLORS)
    color2 = color1 if rng.random() < 0.5 else rng.choice([c for c in COLORS if c != color1])
    compare_type = rng.choice(["same", "different"])
    scene = _scene(
        [_obj("a", name1, (40, 160, 170, 300), color=color1),
         _obj("b", name2, (460, 160, 600, 300), color=color2)]
    )
    program = (
        f"BOX0=LOC(image=IMAGE,object='{name1}')\n"
        f"BOX1=LOC(image=IMAGE,object='{name2}')\n"
        f"ANSWER0=COMPARE_COLOR(image=IMAGE,box1=BOX0,box2=BOX1,object1='{name1}',"
        f"object2='{name2}',compare_type='{compare_type}')\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    fallback = (
        f"BOX0=LOC(image=IMAGE,object='{name1}')\n"
        "IMAGE0=CROP(image=IMAGE,box=BOX0)\n"
        "ANSWER0=VQA(image=IMAGE0,question=QUESTION)\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    phrase = "the same color" if compare_type == "same" else "different colors"
    same = color1 == color2
    answer = ("yes" if same else "no") if compare_type == "same" else ("yes" if not same else "no")
    instance = TaskInstance(
        id=iid,
        task="vqa",
        query=f"Do the {name1} and the {name2} have {phrase}?",
        query_spec={"kind": "color-compare", "name1": name1, "name2": name2,
                    "compare_type": compare_type},
        gold={"type": "text", "value": answer},
        canonical_program=program,
        fallback_program=fallback,
        scene=scene,
    )
    instance.module_cases["COMPARE_COLOR"] = _default_case(instance, "COMPARE_COLOR")
    return instance


def _vqa_who_action(rng: random.Random, iid: str) -> TaskInstance:
    person = rng.choice(PEOPLE)
    item = rng.choice(["umbrella", "purse", "book", "cup"])
    verb = rng.choice(["carrying", "holding"])
    person_box = (240, 120, 400, 430)
    item_box = (300, 160, 380, 240)  # held: inside the person region
    bystander = rng.choice([p for p in PEOPLE if p != person])
    scene = _scene(
        [
            _obj("p", person, person_box, tags=[f"{verb} the {item}"], color=rng.choice(COLORS)),
            _obj("i", item, item_box, color=rng.choice(COLORS), depth=0.3),
            _obj("q", bystander, (30, 140, 150, 420), color=rng.choice(COLORS)),
        ]
    )
    question = f"Who is {verb} the {item}?"
    program = (
        f"BOX0=LOC(image=IMAGE,object='{item}')\n"
        "IMAGE0=CROP(image=IMAGE,box=BOX0)\n"
        f"ANSWER0=VQA(image=IMAGE0,question='{question}')\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    return TaskInstance(
        id=iid,
        task="vqa",
        query=question,
        query_spec={"kind": "who-action", "verb": verb, "name": item},
        gold={"type": "text", "value": person},
        canonical_program=program,
        fallback_program=program,
        scene=scene,
    )


def _vqa_attr_of(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(VQA_OBJECTS)
    color = rng.choice(COLORS)
    scene = _scene(
        [_obj("t", name, (220, 150, 400, 330), color=color, material=rng.choice(MATERIALS))]
    )
    question = f"What color is the {name}?"
    program = (
        f"BOX0=LOC(image=IMAGE,object='{name}')\n"
        "IMAGE0=CROP(image=IMAGE,box=BOX0)\n"
        f"ANSWER0=VQA(image=IMAGE0,question='{question}')\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    return TaskInstance(
        id=iid,
        task="vqa",
        query=question,
        query_spec={"kind": "attr-of", "name": name, "attr": "color"},
        gold={"type": "text", "value": color},
        canonical_program=program,
        fallback_program=program,
        scene=scene,
    )


def _vqa_material_verify(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(["knife", "cup", "chair", "bottle"])
    actual = rng.choice(MATERIALS)
    asked = actual if rng.random() < 0.5 else rng.choice([m for m in MATERIALS if m != actual])
    scene = _scene([_obj("t", name, (230, 150, 410, 340), material=actual, color=rng.choice(COLORS))])
    program = (
        f"BOX0=LOC(image=IMAGE,object='{name}')\n"
        f"ANSWER0=VERIFY_MATERIAL(image=IMAGE,box=BOX0,material='{asked}',object='{name}',"
        "question=QUESTION)\n"
        "ANSWER1=EVAL(expr=f\"'yes' if {ANSWER0} else 'no'\")\n"
        "FINAL_RESULT=RESULT(var=ANSWER1)"
    )
    fallback = (
        f"BOX0=LOC(image=IMAGE,object='{name}')\n"
        "IMAGE0=CROP(image=IMAGE,box=BOX0)\n"
        "ANSWER0=VQA(image=IMAGE0,question=QUESTION)\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    instance = TaskInstance(
        id=iid,
        task="vqa",
        query=f"Is the {name} made of {asked}?",
        query_spec={"kind": "material-verify", "name": name, "material": asked},
        gold={"type": "text", "value": "yes" if asked == actual else "no"},
        canonical_program=program,
        fallback_program=fallback,
        scene=scene,
    )
    instance.module_cases["VERIFY_MATERIAL"] = _default_case(instance, "VERIFY_MATERIAL")
    return instance


def _vqa_knowledge_list(rng: random.Random, iid: str) -> TaskInstance:
    from ..scene import KNOWLEDGE_LISTS

    topic = rng.choice(sorted(KNOWLEDGE_LISTS))
    count = rng.randint(2, 4)
    scene = _scene([_obj("t", rng.choice(VQA_OBJECTS), (250, 180, 390, 300), color=rng.choice(COLORS))])
    program = (
        f"ANSWER0=LIST(query=QUESTION,max={count})\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    return TaskInstance(
        id=iid,
        task="vqa",
        query=f"Name {count} kinds of {topic}.",
        query_spec={"kind": "knowledge-list", "topic": topic, "count": count},
        gold={"type": "list", "value": KNOWLEDGE_LISTS[topic][:count]},
        canonical_program=program,
        fallback_program=program,
        scene=scene,
    )


# ---------------------------------------------------------------------------
# Grounding / tagging templates
# ---------------------------------------------------------------------------

_ORDINALS = {1: "first", 2: "second", 3: "third", 4: "fourth"}


def _ordinal_row_scene(rng: random.Random, name: str):
    """3-5 same-named objects; the ordinal target is never the largest box."""
    count = rng.randint(3, 5)
    boxes = _row_boxes(rng, count)
    # make one non-target box clearly the largest so a bare LOC picks it
    boxes = [list(b) for b in boxes]
    return count, boxes


def _pick_ordinal(rng, count, boxes, location):
    index = rng.randint(2, min(3, count))
    ranked = sorted(range(count), key=lambda i: boxes[i][2], reverse=(location == "right"))
    if location == "left":
        ranked = sorted(range(count), key=lambda i: boxes[i][0])
    target = ranked[index - 1]
    # grow a different box into the largest
    big = rng.choice([i for i in range(count) if i != target])
    boxes[big] = [boxes[big][0], boxes[big][1], boxes[big][2], min(HEIGHT - 5, boxes[big][3] + 140)]
    return index, target


def _grounding_ordinal(rng: random.Random, iid: str, task="grounding", label=None) -> TaskInstance:
    name = rng.choice(["sandwich", "cup", "book", "bottle", "box"])
    location = rng.choice(["left", "right"])
    count, boxes = _ordinal_row_scene(rng, name)
    index, target = _pick_ordinal(rng, count, boxes, location)
    depths = rng.sample([0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8], count)
    objects = [
        _obj(f"t{i}", name, tuple(boxes[i]), depth=depths[i], color=rng.choice(COLORS))
        for i in range(count)
    ]
    scene = _scene(objects)
    expression = f"the {_ORDINALS[index]} {name} from the {location}"
    ground_program = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        f"BOXLIST1=SORT_SPATIAL(image=IMAGE,box_list=BOXLIST0,location='{location}',index={index})\n"
        "FINAL_RESULT=RESULT(var=BOXLIST1)"
    )
    spec = {"kind": "ordinal-ground", "name": name, "location": location, "index": index}
    gold_box = oracle_mod.oracle_answer(
        TaskInstance(iid, "grounding", expression, spec, {}, "", "", scene=scene)
    )
    if task == "grounding":
        fallback = (
            f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
            "FINAL_RESULT=RESULT(var=BOXLIST0)"
        )
        instance = TaskInstance(
            id=iid,
            task="grounding",
            query=expression,
            query_spec=spec,
            gold=gold_box,
            canonical_program=ground_program,
            fallback_program=fallback,
            scene=scene,
        )
        instance.module_cases["SORT_SPATIAL"] = _default_case(instance, "SORT_SPATIAL")
        return instance

    # tagging flavor: same selection chain plus a TAG step
    tag_label = label or rng.choice(TAG_LABELS)
    spec = {**spec, "kind": "ordinal-tag", "label": tag_label}
    program = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        f"BOXLIST1=SORT_SPATIAL(image=IMAGE,box_list=BOXLIST0,location='{location}',index={index})\n"
        f"IMAGE0=TAG(image=IMAGE,box=BOXLIST1,label='{tag_label}')\n"
        "FINAL_RESULT=RESULT(var=IMAGE0)"
    )
    fallback = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        f"IMAGE0=TAG(image=IMAGE,box=BOXLIST0,label='{tag_label}')\n"
        "FINAL_RESULT=RESULT(var=IMAGE0)"
    )
    instance = TaskInstance(
        id=iid,
        task="tagging",
        query=f"Tag {expression} with '{tag_label}'",
        query_spec=spec,
        gold={"type": "tagged-regions", "value": [{"box": gold_box["value"], "label": tag_label}]},
        canonical_program=program,
        fallback_program=fallback,
        scene=scene,
    )
    case_program = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        f"BOXLIST1=SORT_SPATIAL(image=IMAGE,box_list=BOXLIST0,location='{location}',index={index})\n"
        "FINAL_RESULT=RESULT(var=BOXLIST1)"
    )
    instance.module_cases["SORT_SPATIAL"] = {
        "program": case_program,
        "expected": {"tag": "box-list", "payload": [gold_box["value"]]},
        "comparator": "iou-at-0.5",
    }
    return instance


def _grounding_depth(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(["cup", "vase", "plant", "lamp"])
    count = rng.randint(3, 4)
    boxes = _row_boxes(rng, count)
    depths = rng.sample([0.15, 0.3, 0.45, 0.6, 0.75, 0.9], count)
    location = rng.choice(["front", "behind"])
    index = rng.randint(1, 2)
    objects = [
        _obj(f"t{i}", name, boxes[i], depth=depths[i], color=rng.choice(COLORS))
        for i in range(count)
    ]
    scene = _scene(objects)
    ranked = sorted(range(count), key=lambda i: depths[i], reverse=(location == "behind"))
    target = ranked[index - 1]
    phrase = {"front": "nearest to the camera", "behind": "furthest from the camera"}[location]
    ordinal = _ORDINALS[index]
    program = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        f"BOXLIST1=SORT_SPATIAL(image=IMAGE,box_list=BOXLIST0,location='{location}',index={index})\n"
        "FINAL_RESULT=RESULT(var=BOXLIST1)"
    )
    fallback = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        "FINAL_RESULT=RESULT(var=BOXLIST0)"
    )
    instance = TaskInstance(
        id=iid,
        task="grounding",
        query=f"the {ordinal} {name} {phrase}",
        query_spec={"kind": "ordinal-ground", "name": name, "location": location, "index": index},
        gold={"type": "box", "value": list(objects[target].box)},
        canonical_program=program,
        fallback_program=fallback,
        scene=scene,
    )
    instance.module_cases["SORT_SPATIAL"] = _default_case(instance, "SORT_SPATIAL")
    return instance


def _grounding_select(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(["cup", "book", "pillow", "vase"])
    count = rng.randint(3, 4)
    boxes = [list(b) for b in _row_boxes(rng, count)]
    colors = rng.sample(COLORS, count)
    target = rng.randint(0, count - 1)
    big = rng.choice([i for i in range(count) if i != target])
    boxes[big][3] = min(HEIGHT - 5, boxes[big][3] + 140)
    objects = [
        _obj(f"t{i}", name, tuple(boxes[i]), color=colors[i]) for i in range(count)
    ]
    scene = _scene(objects)
    expression = f"the {colors[target]} {name}"
    program = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        f"BOXLIST1=SELECT(image=IMAGE,box=BOXLIST0,query='{colors[target]} {name}')\n"
        "FINAL_RESULT=RESULT(var=BOXLIST1)"
    )
    fallback = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        "FINAL_RESULT=RESULT(var=BOXLIST0)"
    )
    return TaskInstance(
        id=iid,
        task="grounding",
        query=expression,
        query_spec={"kind": "select-ground", "name": name, "attr": colors[target]},
        gold={"type": "box", "value": list(objects[target].box)},
        canonical_program=program,
        fallback_program=fallback,
        scene=scene,
    )


def _grounding_half(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(["dog", "cat", "chair", "plant"])
    location = rng.choice(["left", "right"])
    left_box = (60, 200, 180, 330)
    right_box = (450, 200, 570, 330)
    objects = [
        _obj("l", name, left_box, color=rng.choice(COLORS)),
        _obj("r", name, right_box, color=rng.choice(COLORS)),
    ]
    scene = _scene(objects)
    program = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        f"BOXLIST1=FILTER_SPATIAL(image=IMAGE,box=BOXLIST0,location='{location}')\n"
        "FINAL_RESULT=RESULT(var=BOXLIST1)"
    )
    fallback = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        "FINAL_RESULT=RESULT(var=BOXLIST0)"
    )
    gold_box = list(left_box if location == "left" else right_box)
    return TaskInstance(
        id=iid,
        task="grounding",
        query=f"the {name} on the {location}",
        query_spec={"kind": "half-ground", "name": name, "location": location},
        gold={"type": "box", "value": gold_box},
        canonical_program=program,
        fallback_program=fallback,
        scene=scene,
    )


def _grounding_region(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(VQA_OBJECTS)
    box = (210, 140, 420, 340)
    scene = _scene([_obj("t", name, box, color=rng.choice(COLORS))])
    program = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        "MASK0=BOX2MASK(box=BOXLIST0)\n"
        "BOXLIST1=MASK2BOX(mask=MASK0)\n"
        "FINAL_RESULT=RESULT(var=BOXLIST1)"
    )
    return TaskInstance(
        id=iid,
        task="grounding",
        query=f"the region of the {name}",
        query_spec={"kind": "region-ground", "name": name},
        gold={"type": "box", "value": list(box)},
        canonical_program=program,
        fallback_program=program,
        scene=scene,
    )


def _tagging_ordinal(rng: random.Random, iid: str) -> TaskInstance:
    return _grounding_ordinal(rng, iid, task="tagging")


def _tagging_filter(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(["cup", "book", "pillow"])
    count = rng.randint(3, 4)
    boxes = _row_boxes(rng, count)
    wanted = rng.choice(COLORS)
    other = rng.choice([c for c in COLORS if c != wanted])
    matching = rng.sample(range(count), rng.randint(1, 2))
    label = rng.choice(TAG_LABELS)
    objects = [
        _obj(f"t{i}", name, boxes[i], color=wanted if i in matching else other)
        for i in range(count)
    ]
    scene = _scene(objects)
    program = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        f"BOXLIST1=FILTER_PROPERTY(image=IMAGE,box=BOXLIST0,property='{wanted}')\n"
        f"IMAGE0=TAG(image=IMAGE,box=BOXLIST1,label='{label}')\n"
        "FINAL_RESULT=RESULT(var=IMAGE0)"
    )
    fallback = (
        f"BOXLIST0=LOC(image=IMAGE,object='{name}')\n"
        f"IMAGE0=TAG(image=IMAGE,box=BOXLIST0,label='{label}')\n"
        "FINAL_RESULT=RESULT(var=IMAGE0)"
    )
    gold_regions = [
        {"box": list(objects[i].box), "label": label} for i in sorted(matching)
    ]
    return TaskInstance(
        id=iid,
        task="tagging",
        query=f"Tag all the {wanted} {pluralize(name)} with '{label}'",
        query_spec={"kind": "filter-tag", "name": name, "attr": wanted, "label": label},
        gold={"type": "tagged-regions", "value": gold_regions},
        canonical_program=program,
        fallback_program=fallback,
        scene=scene,
    )


# ---------------------------------------------------------------------------
# Editing templates
# ---------------------------------------------------------------------------


def _editing_instance(rng: random.Random, iid: str) -> TaskInstance:
    kind = rng.choice(["replace", "colorpop", "bgblur", "emoji"])
    if kind == "emoji":
        person = rng.choice(PEOPLE)
        emoji = rng.choice(EMOJIS)
        person_box = (240, 100, 400, 440)
        face_box = (290, 120, 350, 190)
        scene = _scene(
            [
                _obj("p", person, person_box, color=rng.choice(COLORS)),
                _obj("f", "face", face_box, depth=0.3),
            ]
        )
        program = (
            "BOX0=FACEDET(image=IMAGE)\n"
            f"IMAGE0=EMOJI(image=IMAGE,box=BOX0,emoji='{emoji}')\n"
            "FINAL_RESULT=RESULT(var=IMAGE0)"
        )
        return TaskInstance(
            id=iid,
            task="editing",
            query=f"Put a {emoji} emoji on the {person}'s face.",
            query_spec={"kind": "edit", "edit_kind": "emoji", "name": person, "emoji": emoji},
            gold={"type": "edit", "value": {"kind": "emoji", "region": list(face_box), "label": emoji}},
            canonical_program=program,
            fallback_program=program,
            scene=scene,
        )

    name = rng.choice(["dog", "cat", "car", "chair", "vase"])
    box = (220, 160, 420, 360)
    scene = _scene([_obj("t", name, box, color=rng.choice(COLORS))])
    if kind == "replace":
        category = rng.choice([c for c in ("cat", "dog", "plant", "lamp") if c != name])
        program = (
            f"BOX0=LOC(image=IMAGE,object='{name}')\n"
            "MASK0=BOX2MASK(box=BOX0)\n"
            f"IMAGE0=REPLACE(image=IMAGE,mask=MASK0,prompt='a {category}')\n"
            "FINAL_RESULT=RESULT(var=IMAGE0)"
        )
        query = f"Replace the {name} with a {category}."
        spec = {"kind": "edit", "edit_kind": "replace", "name": name, "category": category}
        gold = {"kind": "replace", "region": list(box), "category": category}
    elif kind == "colorpop":
        program = (
            f"BOX0=LOC(image=IMAGE,object='{name}')\n"
            "MASK0=BOX2MASK(box=BOX0)\n"
            "IMAGE0=COLORPOP(image=IMAGE,mask=MASK0)\n"
            "FINAL_RESULT=RESULT(var=IMAGE0)"
        )
        query = f"Apply a color pop effect to the {name}."
        spec = {"kind": "edit", "edit_kind": "colorpop", "name": name}
        gold = {"kind": "colorpop", "region": list(box)}
    else:
        program = (
            f"BOX0=LOC(image=IMAGE,object='{name}')\n"
            "MASK0=BOX2MASK(box=BOX0)\n"
            "IMAGE0=BGBLUR(image=IMAGE,mask=MASK0)\n"
            "FINAL_RESULT=RESULT(var=IMAGE0)"
        )
        query = f"Blur the background behind the {name}."
        spec = {"kind": "edit", "edit_kind": "bgblur", "name": name}
        gold = {"kind": "bgblur", "region": list(box)}
    return TaskInstance(
        id=iid,
        task="editing",
        query=query,
        query_spec=spec,
        gold={"type": "edit", "value": gold},
        canonical_program=program,
        fallback_program=program,
        scene=scene,
    )


# ---------------------------------------------------------------------------
# Raven puzzles
# ---------------------------------------------------------------------------

PANEL = 160
_SIZE_EDGE = {"small": 30, "medium": 48, "large": 70}


def _panel_scene(records: list[dict], layout: str) -> SceneGraph:
    """One panel: a centered object, or one object per half for split layouts."""
    if layout == "center":
        centers = [(PANEL // 2, PANEL // 2)]
    elif layout == "left-right":
        centers = [(PANEL // 4, PANEL // 2), (3 * PANEL // 4, PANEL // 2)]
    else:
        centers = [(PANEL // 2, PANEL // 4), (PANEL // 2, 3 * PANEL // 4)]
    objects = []
    for i, (record, (cx, cy)) in enumerate(zip(records, centers)):
        edge = _SIZE_EDGE[record["size"]]
        half = min(edge // 2, PANEL // 4 - 2)
        box = (cx - half, cy - half, cx + half, cy + half)
        objects.append(
            _obj(f"o{i}", "item", box, depth=0.5, shape=record["shape"],
                 color=record["color"], size=record["size"])
        )
    return SceneGraph(width=PANEL, height=PANEL, objects=tuple(objects))


def _rule_rows(rng: random.Random, rule: str, scale: list[str]) -> list[list[str]]:
    if rule == "constant":
        return [[rng.choice(scale)] * 3 for _ in range(3)]
    if rule == "progression":
        rows = []
        for _ in range(3):
            start = rng.randint(0, len(scale) - 3)
            rows.append([scale[start], scale[start + 1], scale[start + 2]])
        return rows
    values = rng.sample(scale, 3)
    rows = []
    for _ in range(3):
        perm = values[:]
        rng.shuffle(perm)
        rows.append(perm)
    return rows


def generate_raven_puzzle(rng: random.Random, layout: str = "center", rules=None) -> RavenPuzzle:
    regions = 1 if layout == "center" else 2
    prefixes = {
        "center": [""],
        "left-right": ["left_", "right_"],
        "up-down": ["top_", "bottom_"],
    }[layout]
    grids = []  # per region: {dim: rows}
    chosen_rules: dict[str, str] = {}
    for r in range(regions):
        region_rules = {}
        for dim, scale in RAVEN_SCALES.items():
            rule = (rules or {}).get(dim) or rng.choice(["constant", "progression", "distribute-three"])
            region_rules[dim] = _rule_rows(rng, rule, scale)
            chosen_rules[f"{prefixes[r]}{dim}"] = rule
        grids.append(region_rules)

    def cell_records(row: int, col: int) -> list[dict]:
        return [
            {dim: grids[r][dim][row][col] for dim in RAVEN_SCALES} for r in range(regions)
        ]

    def flatten(records: list[dict]) -> list[list[str]]:
        return [
            [f"{prefixes[r]}{dim}", records[r][dim]]
            for r in range(regions)
            for dim in RAVEN_SCALES
        ]

    panels = [
        _panel_scene(cell_records(row, col), layout)
        for row in range(3)
        for col in range(3)
        if not (row == 2 and col == 2)
    ]
    panel_pairs = [
        flatten(cell_records(row, col))
        for row in range(3)
        for col in range(3)
        if not (row == 2 and col == 2)
    ]
    answer = cell_records(2, 2)

    def perturb(records: list[dict], dims: int = 1) -> list[dict]:
        out = [dict(r) for r in records]
        for _ in range(dims):
            region = rng.randrange(regions)
            dim = rng.choice(sorted(RAVEN_SCALES))
            scale = RAVEN_SCALES[dim]
            current = out[region][dim]
            out[region][dim] = rng.choice([v for v in scale if v != current])
        return out

    from ..reference_modules import solver_violations

    candidates = [answer]
    seen = {json.dumps(answer, sort_keys=True)}
    attempts = 0
    while len(candidates) < 8:
        attempts += 1
        # a distractor must break the matrix under every rule reading, not
        # just the planted one, or the puzzle has two defensible answers
        distractor = perturb(answer, dims=1 if attempts < 200 else 2)
        key = json.dumps(distractor, sort_keys=True)
        if key in seen or solver_violations(panel_pairs, flatten(distractor)) == 0:
            continue
        seen.add(key)
        candidates.append(distractor)
    rng.shuffle(candidates)
    answer_index = candidates.index(answer) + 1
    return RavenPuzzle(
        panels=tuple(panels),
        candidates=tuple(_panel_scene(c, layout) for c in candidates),
        rules=chosen_rules,
        answer_index=answer_index,
        layout=layout,
    )


def _raven_instance(rng: random.Random, iid: str, layout: str = "center", rules=None) -> TaskInstance:
    puzzle = generate_raven_puzzle(rng, layout=layout, rules=rules)
    program = (
        "ATTRS0=DETECT_SHAPE(image=PANELS)\n"
        "ATTRS1=DETECT_SHAPE(image=CANDIDATES)\n"
        "ANSWER0=SOLVER(panel_attributes=ATTRS0,candidate_attributes=ATTRS1)\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    fallback = 'ANSWER0=EVAL(expr=f"1")\nFINAL_RESULT=RESULT(var=ANSWER0)'
    instance = TaskInstance(
        id=iid,
        task="raven",
        query="Which candidate completes the three-by-three matrix?",
        query_spec={"kind": "raven"},
        gold={"type": "index", "value": puzzle.answer_index},
        canonical_program=program,
        fallback_program=fallback,
        puzzle=puzzle,
    )
    if layout == "center":
        panel_records = [oracle_mod.panel_record(p, layout) for p in puzzle.panels]
        instance.module_cases["DETECT_SHAPE"] = {
            "program": "ATTRS0=DETECT_SHAPE(image=PANELS)\nFINAL_RESULT=RESULT(var=ATTRS0)",
            "expected": {"tag": "list", "payload": panel_records},
            "comparator": "set-eq",
        }
        instance.module_cases["SOLVER"] = {
            "program": program,
            "expected": {"tag": "number", "payload": puzzle.answer_index},
            "comparator": "numeric-eq",
        }
    return instance


# ---------------------------------------------------------------------------
# Word-learning analog
# ---------------------------------------------------------------------------


def _mewl_scene(rng: random.Random, attrs: dict) -> SceneGraph:
    edge = rng.choice([40, 56, 72])
    cx, cy = 80, 80
    obj = _obj("o0", "item", (cx - edge // 2, cy - edge // 2, cx + edge // 2, cy + edge // 2),
               depth=0.5, **attrs)
    return SceneGraph(width=PANEL, height=PANEL, objects=(obj,))


def _mewl_instance(rng: random.Random, iid: str) -> TaskInstance:
    binding_key = rng.choice(["shape", "color", "material"])
    pools = {"shape": SHAPE_SCALE, "color": COLOR_SCALE, "material": MEWL_MATERIALS}
    bound_values = rng.sample(pools[binding_key], 2)
    words = rng.sample(MEWL_WORDS, 2)

    def sample_attrs(bound_value: str, avoid: dict | None = None) -> dict:
        attrs = {}
        for key in ("shape", "color", "material"):
            if key == binding_key:
                attrs[key] = bound_value
            else:
                choices = [v for v in pools[key] if not (avoid and avoid.get(key) == v)]
                attrs[key] = rng.choice(choices)
        return attrs

    pairs = []
    for value, word in zip(bound_values, words):
        first = sample_attrs(value)
        second = sample_attrs(value, avoid=first)  # vary the noise dims per word
        pairs.append((_mewl_scene(rng, first), word))
        pairs.append((_mewl_scene(rng, second), word))
    rng.shuffle(pairs)
    query_idx = rng.randrange(2)
    query_attrs = sample_attrs(bound_values[query_idx])
    query_scene = _mewl_scene(rng, query_attrs)
    program = (
        "ANSWER0=INDUCE_WORD(examples=EXAMPLES,query=QUERY)\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    fallback = "ANSWER0=EVAL(expr=f\"'unknown'\")\nFINAL_RESULT=RESULT(var=ANSWER0)"
    instance = TaskInstance(
        id=iid,
        task="mewl-analog",
        query="Which word names the object in the query image?",
        query_spec={"kind": "mewl"},
        gold={"type": "text", "value": words[query_idx]},
        canonical_program=program,
        fallback_program=fallback,
        example_pairs=pairs,
        query_scene=query_scene,
    )
    instance.module_cases["INDUCE_WORD"] = _default_case(instance, "INDUCE_WORD")
    return instance


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

VQA_TEMPLATES = {
    "count": _vqa_count,
    "left-right": _vqa_left_right,
    "above-below": _vqa_above_below,
    "top-check": _vqa_top_check,
    "attr-choice": _vqa_attr_choice,
    "color-compare": _vqa_color_compare,
    "who-action": _vqa_who_action,
    "attr-of": _vqa_attr_of,
    "material-verify": _vqa_material_verify,
    "knowledge-list": _vqa_knowledge_list,
}
GROUNDING_TEMPLATES = {
    "ordinal": lambda rng, iid: _grounding_ordinal(rng, iid, task="grounding"),
    "depth": _grounding_depth,
    "select": _grounding_select,
    "half": _grounding_half,
    "region": _grounding_region,
}
TAGGING_TEMPLATES = {
    "ordinal": _tagging_ordinal,
    "filter": _tagging_filter,
}

def generate_dataset(task: str, seed: int, n: int, knobs: dict | None = None) -> list[TaskInstance]:
    """Deterministic-in-seed instance generation for one task family.

    knobs: ``templates`` restricts/weights the template cycle; ``layout`` and
    ``rules`` steer puzzle generation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    knobs = knobs or {}
    rng = random.Random(f"{task}:{seed}")
    instances: list[TaskInstance] = []
    if task == "vqa":
        names = knobs.get("templates") or sorted(VQA_TEMPLATES)
        table = VQA_TEMPLATES
    elif task == "grounding":
        names = knobs.get("templates") or sorted(GROUNDING_TEMPLATES)
        table = GROUNDING_TEMPLATES
    elif task == "tagging":
        names = knobs.get("templates") or sorted(TAGGING_TEMPLATES)
        table = TAGGING_TEMPLATES
    elif task == "editing":
        names, table = ["edit"], {"edit": _editing_instance}
    elif task == "raven":
        layout = knobs.get("layout", "center")
        rules = knobs.get("rules")
        out = []
        for i in range(n):
            instance = _raven_instance(rng, f"{task}-{seed}-{i:04d}", layout=layout, rules=rules)
            out.append(_finish(instance))
        return out
    elif task == "mewl-analog":
        return [_finish(_mewl_instance(rng, f"{task}-{seed}-{i:04d}")) for i in range(n)]
    else:
        raise ValueError(f"unknown task {task!r}")

    for i in range(n):
        name = names[i % len(names)]
        instance = table[name](rng, f"{task}-{seed}-{i:04d}")
        instances.append(_finish(instance))
    return instances


def save_dataset(instances, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(json.dumps(instance.to_doc(), sort_keys=True) + "\n")


def load_dataset(path) -> list[TaskInstance]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(TaskInstance.from_doc(json.loads(line)))
    return out
