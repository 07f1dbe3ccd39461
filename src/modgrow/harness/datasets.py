"""Seeded synthetic datasets for the six task families, and the task table.

Each generated instance bundles a scene (or panel set), the natural-language
query, a structured query spec the brute-force oracle can answer, the gold
answer, a canonical program solving it with the full module catalogue, a
fallback program restricted to builtins, and per-module test cases used
to gate synthesized candidates. A module case is a program and a gold of
the same shape as an instance's, mostly the instance's own.

`TASKS` holds one `TaskSpec` per task family: its templates, how an
instance is bound, its gold types, and which instances the puzzle driver
answers instead of a program. Dataset generation, binding and evaluation
look a task up there and name no task themselves. `GOLD_TYPES` holds the
rules of each gold type: its judge, which scores an evaluated answer and a
module case's alike, its value form, the check `load_dataset` makes of a
gold value, and whether its verdicts count regions.
"""

from __future__ import annotations

import inspect
import json
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .. import values as V
from ..cache import canonical_json
from ..errors import SceneSchemaError
from ..reference_modules import RAVEN_LAYOUTS, RAVEN_SCALES, raven_regions, solver_check
from ..scene import KNOWLEDGE_LISTS, ImageHandle, SceneGraph, SceneObject, load_scene
from . import oracle as oracle_mod
from .metrics import iou, item_counts, match_region_sets, match_tag

VQA_OBJECTS = ["coat", "towel", "box", "knife", "purse", "umbrella", "sandwich",
               "dog", "cat", "cup", "book", "bottle", "plant", "pillow", "lamp", "vase"]
PEOPLE = ["man", "woman", "boy", "girl"]
COLORS = ["black", "white", "red", "blue", "green", "yellow", "brown", "gray"]
MATERIALS = ["ceramic", "wood", "metal", "plastic", "fabric", "leather"]
TAG_LABELS = ["Ada Lovelace", "Alan Turing", "Grace Hopper", "Eiffel Tower", "Mount Fuji"]
EMOJIS = ["smiling_face", "winking_face", "heart_eyes"]

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

    def to_doc(self, slot: Callable[[SceneGraph], int | dict] = SceneGraph.to_doc) -> dict:
        """The instance as one split-file line. Each scene slot holds
        `slot(scene)`, by default the scene's whole document."""
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
            doc["scene"] = self.scene
        if self.puzzle is not None:
            puzzle = self.puzzle
            doc["puzzle"] = {
                "panels": list(puzzle.panels),
                "candidates": list(puzzle.candidates),
                "rules": dict(puzzle.rules),
                "answer_index": puzzle.answer_index,
                "layout": puzzle.layout,
            }
        if self.example_pairs:
            doc["examples"] = [[s, w] for s, w in self.example_pairs]
        if self.query_scene is not None:
            doc["query_scene"] = self.query_scene
        for holder, key, _, _ in _scene_slots(doc):
            holder[key] = slot(holder[key])
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "TaskInstance":
        """The instance of a split-file line whose scene slots `load_dataset`
        has filled with loaded scenes."""
        puzzle = doc.get("puzzle")
        return cls(
            id=doc["id"],
            task=doc["task"],
            query=doc["query"],
            query_spec=doc["query_spec"],
            gold=doc["gold"],
            canonical_program=doc["programs"]["canonical"],
            fallback_program=doc["programs"]["fallback"],
            scene=doc.get("scene"),
            puzzle=None if puzzle is None else RavenPuzzle(
                panels=tuple(puzzle["panels"]),
                candidates=tuple(puzzle["candidates"]),
                rules=dict(puzzle["rules"]),
                answer_index=puzzle["answer_index"],
                layout=puzzle["layout"],
            ),
            example_pairs=[(s, w) for s, w in doc.get("examples", [])],
            query_scene=doc.get("query_scene"),
            module_cases=doc.get("module_cases", {}),
        )


def _scene_slots(doc: dict) -> list[tuple]:
    """Each scene slot of an instance document as (holder, key, part, index),
    in the one reading order that `save_dataset` numbers scenes in and
    `load_dataset` reads them: `scene`, the puzzle's `panels`, its
    `candidates`, the scene of each of `examples`, `query_scene`. `part` and
    `index` name the slot in an error message (see `_slot_name`)."""
    slots = [(doc, "scene", "scene", None)] if "scene" in doc else []
    if "puzzle" in doc:
        for part, name in (("panels", "puzzle.panels"), ("candidates", "puzzle.candidates")):
            scenes = doc["puzzle"][part]
            slots += [(scenes, i, name, i) for i in range(len(scenes))]
    slots += [(pair, 0, "examples", i) for i, pair in enumerate(doc.get("examples", ()))]
    if "query_scene" in doc:
        slots.append((doc, "query_scene", "query_scene", None))
    return slots


def _slot_name(part: str, index: int | None) -> str:
    return part if index is None else f"{part}[{index}]"


def build_bindings(instance: TaskInstance, image_of=ImageHandle.of_scene) -> dict[str, V.Value]:
    """The initial bindings of an instance's program, by variable name: a
    handle on each of its scenes, which `image_of(scene)` gives, and its query.

    Scenes and handles are immutable, and a run copies the bindings before it
    binds its own variables, so runs may share one dict of bindings, and
    instances may share handles on equal scenes."""
    return task_spec(instance.task).bind(instance, image_of)


# ---------------------------------------------------------------------------
# Scene, program and instance builders
# ---------------------------------------------------------------------------


def _obj(oid, name, box, depth=0.5, tags=(), **attributes) -> SceneObject:
    return SceneObject(
        id=oid, name=name, box=tuple(box), attributes=dict(attributes), depth=depth, tags=tuple(tags)
    )


def _scene(objects) -> SceneGraph:
    return SceneGraph(width=WIDTH, height=HEIGHT, objects=tuple(objects))


def _row_boxes(rng: random.Random, count: int) -> list[tuple]:
    """Disjoint boxes spread left to right with varied sizes."""
    slots = sorted(rng.sample(range(count * 2), count))
    boxes = []
    slot_w = WIDTH // (count * 2)
    for slot in slots:
        w = rng.randint(30, min(90, slot_w - 6))
        h = rng.randint(40, 100)
        x1 = slot * slot_w + rng.randint(0, max(1, slot_w - w - 4))
        y1 = rng.randint(180, 300)
        boxes.append((x1, y1, x1 + w, y1 + h))
    return boxes


def _grow_decoy(rng: random.Random, boxes: list[tuple], target: int) -> None:
    """Make a box other than `target` clearly the largest, so that a bare
    LOC picks it and not the target."""
    big = rng.choice([i for i in range(len(boxes)) if i != target])
    x1, y1, x2, y2 = boxes[big]
    boxes[big] = (x1, y1, x2, min(HEIGHT - 5, y2 + 140))


def _crop_vqa_program(name: str, question: str) -> str:
    """VQA of the crop of the `name` box, asked `question`: the bound
    QUESTION or a quoted text."""
    return (
        f"BOX0=LOC(image=IMAGE,object='{name}')\n"
        "IMAGE0=CROP(image=IMAGE,box=BOX0)\n"
        f"ANSWER0=VQA(image=IMAGE0,question={question})\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )


def _boxes_program(name: str, select: str | None, label: str | None) -> str:
    """The `name` boxes LOC finds as BOXLIST0, narrowed, when `select` is
    given, to BOXLIST1 by that call on BOXLIST0; the result is those boxes,
    or when `label` is given the image with them tagged by it."""
    lines = [f"BOXLIST0=LOC(image=IMAGE,object='{name}')"]
    boxes = "BOXLIST0"
    if select:
        lines.append(f"BOXLIST1={select}")
        boxes = "BOXLIST1"
    result = boxes
    if label:
        lines.append(f"IMAGE0=TAG(image=IMAGE,box={boxes},label='{label}')")
        result = "IMAGE0"
    lines.append(f"FINAL_RESULT=RESULT(var={result})")
    return "\n".join(lines)


def _sort_call(location: str, index: int) -> str:
    return f"SORT_SPATIAL(image=IMAGE,box_list=BOXLIST0,location='{location}',index={index})"


def _with_case(instance: TaskInstance, module: str) -> TaskInstance:
    """`instance`, with a case for `module` that runs its canonical program
    to its gold."""
    instance.module_cases[module] = {"program": instance.canonical_program, "gold": instance.gold}
    return instance


def _finish(instance: TaskInstance) -> TaskInstance:
    """Sanity-check the planted gold against the oracle."""
    recomputed = oracle_mod.oracle_answer(instance)
    if recomputed != instance.gold:
        raise AssertionError(
            f"{instance.id}: planted gold {instance.gold} != oracle {recomputed}"
        )
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


def _vqa_relation(kind: str, question: str, anchor_box: tuple, sides: tuple) -> Callable[..., TaskInstance]:
    """The template `kind`, asking `question` (formatted with the subject and
    the anchor) which of two sides of an anchor its subject is on. `sides`
    holds each side's word, the suffix of its CROP_ builtin and the
    subject's box on that side. The program counts the subject in the crop
    of one side, drawn independently of the answer, and names that side
    when it finds the subject there."""

    def template(rng: random.Random, iid: str) -> TaskInstance:
        subject, anchor = rng.sample(VQA_OBJECTS, 2)
        (answer, _, subject_box), _ = sides if rng.random() < 0.5 else sides[::-1]
        scene = _scene(
            [_obj("a", anchor, anchor_box, color=rng.choice(COLORS)),
             _obj("s", subject, subject_box, color=rng.choice(COLORS))]
        )
        (side, crop, _), (other, _, _) = sides if rng.random() < 0.5 else sides[::-1]
        program = (
            f"BOX0=LOC(image=IMAGE,object='{anchor}')\n"
            f"IMAGE0=CROP_{crop}(image=IMAGE,box=BOX0)\n"
            f"BOX1=LOC(image=IMAGE0,object='{subject}')\n"
            "ANSWER0=COUNT(box=BOX1)\n"
            f"ANSWER1=EVAL(expr=f\"'{side}' if {{ANSWER0}} > 0 else '{other}'\")\n"
            "FINAL_RESULT=RESULT(var=ANSWER1)"
        )
        return TaskInstance(
            id=iid,
            task="vqa",
            query=question.format(subject=subject, anchor=anchor),
            query_spec={"kind": kind, "subject": subject, "anchor": anchor},
            gold={"type": "text", "value": answer},
            canonical_program=program,
            fallback_program=program,
            scene=scene,
        )

    return template


_vqa_left_right = _vqa_relation(
    "left-right", "Is the {subject} to the left or to the right of the {anchor}?", (280, 140, 400, 380),
    (("left", "LEFTOF", (60, 220, 170, 330)), ("right", "RIGHTOF", (470, 220, 580, 330))),
)
_vqa_above_below = _vqa_relation(
    "above-below", "Is the {subject} above or below the {anchor}?", (240, 190, 400, 300),
    (("above", "ABOVE", (260, 30, 380, 130)), ("below", "BELOW", (260, 360, 380, 460))),
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
    program = (
        f"BOX0=LOC(image=IMAGE,object='{name}')\n"
        f"ANSWER0=CHOOSE_ATTRIBUTE(image=IMAGE,box=BOX0,object='{name}',"
        f"attribute1='{attr1}',attribute2='{attr2}')\n"
        "FINAL_RESULT=RESULT(var=ANSWER0)"
    )
    return _with_case(TaskInstance(
        id=iid,
        task="vqa",
        query=f"Is the {name} {attr1} or {attr2}?",
        query_spec={"kind": "attr-choice", "name": name, "attr1": attr1, "attr2": attr2},
        gold={"type": "text", "value": value},
        canonical_program=program,
        fallback_program=_crop_vqa_program(name, "QUESTION"),
        scene=_scene([_obj("t", name, (240, 160, 400, 330), **attrs)]),
    ), "CHOOSE_ATTRIBUTE")


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
    phrase = "the same color" if compare_type == "same" else "different colors"
    return _with_case(TaskInstance(
        id=iid,
        task="vqa",
        query=f"Do the {name1} and the {name2} have {phrase}?",
        query_spec={"kind": "color-compare", "name1": name1, "name2": name2,
                    "compare_type": compare_type},
        gold={"type": "text", "value": "yes" if (color1 == color2) == (compare_type == "same") else "no"},
        canonical_program=program,
        fallback_program=_crop_vqa_program(name1, "QUESTION"),
        scene=scene,
    ), "COMPARE_COLOR")


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
    program = _crop_vqa_program(item, f"'{question}'")
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
    program = _crop_vqa_program(name, f"'{question}'")
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
    return _with_case(TaskInstance(
        id=iid,
        task="vqa",
        query=f"Is the {name} made of {asked}?",
        query_spec={"kind": "material-verify", "name": name, "material": asked},
        gold={"type": "text", "value": "yes" if asked == actual else "no"},
        canonical_program=program,
        fallback_program=_crop_vqa_program(name, "QUESTION"),
        scene=scene,
    ), "VERIFY_MATERIAL")


def _vqa_knowledge_list(rng: random.Random, iid: str) -> TaskInstance:
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


def _ranked_grounding(rng: random.Random, iid: str, query: str, name: str, location: str, index: int,
                      boxes: list[tuple], depths: list[float], target: int) -> TaskInstance:
    """A grounding instance of `name` objects at `boxes` and `depths`, each
    with a drawn color, whose answer is `target`, the `index`-th from
    `location` as SORT_SPATIAL ranks them."""
    objects = [
        _obj(f"t{i}", name, boxes[i], depth=depths[i], color=rng.choice(COLORS))
        for i in range(len(boxes))
    ]
    return _with_case(TaskInstance(
        id=iid,
        task="grounding",
        query=query,
        query_spec={"kind": "ordinal-ground", "name": name, "location": location, "index": index},
        gold={"type": "box", "value": list(objects[target].box)},
        canonical_program=_boxes_program(name, select=_sort_call(location, index), label=None),
        fallback_program=_boxes_program(name, select=None, label=None),
        scene=_scene(objects),
    ), "SORT_SPATIAL")


def _grounding_ordinal(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(["sandwich", "cup", "book", "bottle", "box"])
    location = rng.choice(["left", "right"])
    count = rng.randint(3, 5)
    boxes = _row_boxes(rng, count)
    index = rng.randint(2, min(3, count))
    target = index - 1 if location == "left" else count - index  # the boxes run left to right
    _grow_decoy(rng, boxes, target)
    depths = rng.sample([0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8], count)
    query = f"the {_ORDINALS[index]} {name} from the {location}"
    return _ranked_grounding(rng, iid, query, name, location, index, boxes, depths, target)


def _tagging_ordinal(rng: random.Random, iid: str) -> TaskInstance:
    """The grounding ordinal selection chain, plus a TAG step."""
    ground = _grounding_ordinal(rng, iid)
    spec = ground.query_spec
    label = rng.choice(TAG_LABELS)
    return TaskInstance(
        id=iid,
        task="tagging",
        query=f"Tag {ground.query} with '{label}'",
        query_spec={**spec, "kind": "ordinal-tag", "label": label},
        gold={"type": "tagged-regions", "value": [{"box": ground.gold["value"], "label": label}]},
        canonical_program=_boxes_program(spec["name"], select=_sort_call(spec["location"], spec["index"]),
                                         label=label),
        fallback_program=_boxes_program(spec["name"], select=None, label=label),
        scene=ground.scene,
        module_cases=ground.module_cases,
    )


def _grounding_depth(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(["cup", "vase", "plant", "lamp"])
    count = rng.randint(3, 4)
    boxes = _row_boxes(rng, count)
    depths = rng.sample([0.15, 0.3, 0.45, 0.6, 0.75, 0.9], count)
    location = rng.choice(["front", "behind"])
    index = rng.randint(1, 2)
    target = sorted(range(count), key=lambda i: depths[i], reverse=(location == "behind"))[index - 1]
    phrase = {"front": "nearest to the camera", "behind": "furthest from the camera"}[location]
    query = f"the {_ORDINALS[index]} {name} {phrase}"
    return _ranked_grounding(rng, iid, query, name, location, index, boxes, depths, target)


def _grounding_select(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(["cup", "book", "pillow", "vase"])
    count = rng.randint(3, 4)
    boxes = _row_boxes(rng, count)
    colors = rng.sample(COLORS, count)
    target = rng.randint(0, count - 1)
    _grow_decoy(rng, boxes, target)
    wanted = f"{colors[target]} {name}"
    return TaskInstance(
        id=iid,
        task="grounding",
        query=f"the {wanted}",
        query_spec={"kind": "select-ground", "name": name, "attr": colors[target]},
        gold={"type": "box", "value": list(boxes[target])},
        canonical_program=_boxes_program(name, select=f"SELECT(image=IMAGE,box=BOXLIST0,query='{wanted}')",
                                         label=None),
        fallback_program=_boxes_program(name, select=None, label=None),
        scene=_scene(_obj(f"t{i}", name, boxes[i], color=colors[i]) for i in range(count)),
    )


def _grounding_half(rng: random.Random, iid: str) -> TaskInstance:
    name = rng.choice(["dog", "cat", "chair", "plant"])
    location = rng.choice(["left", "right"])
    boxes = {"left": (60, 200, 180, 330), "right": (450, 200, 570, 330)}
    objects = [
        _obj("l", name, boxes["left"], color=rng.choice(COLORS)),
        _obj("r", name, boxes["right"], color=rng.choice(COLORS)),
    ]
    return TaskInstance(
        id=iid,
        task="grounding",
        query=f"the {name} on the {location}",
        query_spec={"kind": "half-ground", "name": name, "location": location},
        gold={"type": "box", "value": list(boxes[location])},
        canonical_program=_boxes_program(
            name, select=f"FILTER_SPATIAL(image=IMAGE,box=BOXLIST0,location='{location}')", label=None),
        fallback_program=_boxes_program(name, select=None, label=None),
        scene=_scene(objects),
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
    return TaskInstance(
        id=iid,
        task="tagging",
        query=f"Tag all the {wanted} {pluralize(name)} with '{label}'",
        query_spec={"kind": "filter-tag", "name": name, "attr": wanted, "label": label},
        gold={"type": "tagged-regions",
              "value": [{"box": list(boxes[i]), "label": label} for i in sorted(matching)]},
        canonical_program=_boxes_program(
            name, select=f"FILTER_PROPERTY(image=IMAGE,box=BOXLIST0,property='{wanted}')", label=label),
        fallback_program=_boxes_program(name, select=None, label=label),
        scene=_scene(objects),
    )


# ---------------------------------------------------------------------------
# Editing templates
# ---------------------------------------------------------------------------

_EDIT_QUERIES = {
    "bgblur": "Blur the background behind the {name}.",
    "colorpop": "Apply a color pop effect to the {name}.",
    "emoji": "Put a {emoji} emoji on the {name}'s face.",
    "replace": "Replace the {name} with a {category}.",
}


def _editing_instance(rng: random.Random, iid: str) -> TaskInstance:
    kind = rng.choice(["replace", "colorpop", "bgblur", "emoji"])
    if kind == "emoji":
        name, emoji = rng.choice(PEOPLE), rng.choice(EMOJIS)
        region = (290, 120, 350, 190)  # the face
        objects = [_obj("p", name, (240, 100, 400, 440), color=rng.choice(COLORS)),
                   _obj("f", "face", region, depth=0.3)]
        program = f"BOX0=FACEDET(image=IMAGE)\nIMAGE0=EMOJI(image=IMAGE,box=BOX0,emoji='{emoji}')\n"
        asked, marked = {"emoji": emoji}, {"label": emoji}
    else:
        name, region = rng.choice(["dog", "cat", "car", "chair", "vase"]), (220, 160, 420, 360)
        objects = [_obj("t", name, region, color=rng.choice(COLORS))]
        asked, prompt = {}, ""
        if kind == "replace":
            category = rng.choice([c for c in ("cat", "dog", "plant", "lamp") if c != name])
            asked, prompt = {"category": category}, f",prompt='a {category}'"
        # the builtin of each of these edits is its kind in capitals
        program = (
            f"BOX0=LOC(image=IMAGE,object='{name}')\n"
            "MASK0=BOX2MASK(box=BOX0)\n"
            f"IMAGE0={kind.upper()}(image=IMAGE,mask=MASK0{prompt})\n"
        )
        marked = asked
    program += "FINAL_RESULT=RESULT(var=IMAGE0)"
    return TaskInstance(
        id=iid,
        task="editing",
        query=_EDIT_QUERIES[kind].format(name=name, **asked),
        query_spec={"kind": "edit", "edit_kind": kind, "name": name, **asked},
        gold={"type": "edit", "value": {"kind": kind, "region": list(region), **marked}},
        canonical_program=program,
        fallback_program=program,
        scene=_scene(objects),
    )


# ---------------------------------------------------------------------------
# Raven puzzles
# ---------------------------------------------------------------------------

PANEL = 160
_SIZE_EDGE = {"small": 30, "medium": 48, "large": 70}
RAVEN_RULES = ("constant", "progression", "distribute-three")


def _panel_scene(records: list[dict], layout: str) -> SceneGraph:
    """One panel: one object centred in each region of the layout."""
    objects = []
    regions = raven_regions(layout, PANEL, PANEL)
    for i, (record, (_, (x1, y1, x2, y2))) in enumerate(zip(records, regions)):
        cx, cy = (x1 + x2) // 2, (y1 + y2) // 2
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


def _check_raven_knobs(layout, rules) -> None:
    known = (f"layouts: {', '.join(RAVEN_LAYOUTS)}; dimensions: {', '.join(RAVEN_SCALES)}; "
             f"rules: {', '.join(RAVEN_RULES)}")
    if rules is not None and not isinstance(rules, dict):
        raise ValueError(f"raven rules must map a dimension to a rule, not a {type(rules).__name__}; {known}")
    unknown = [f"layout {layout!r}"] if layout not in RAVEN_LAYOUTS else []
    for dim, rule in (rules or {}).items():
        if dim not in RAVEN_SCALES:
            unknown.append(f"dimension {dim!r}")
        elif rule not in RAVEN_RULES:
            unknown.append(f"rule {rule!r} for {dim}")
    if unknown:
        raise ValueError(f"unknown raven {', '.join(unknown)}; {known}")


def generate_raven_puzzle(rng: random.Random, layout: str = "center", rules=None) -> RavenPuzzle:
    """One puzzle in `layout`. Each region follows, per dimension, the rule
    `rules` ({dimension: rule}) names, or else one drawn at random. An
    unknown layout, dimension or rule raises `ValueError` before any draw."""
    _check_raven_knobs(layout, rules)
    prefixes = [prefix for prefix, _ in raven_regions(layout, PANEL, PANEL)]
    regions = len(prefixes)
    grids = []  # per region: {dim: rows}
    chosen_rules: dict[str, str] = {}
    for r in range(regions):
        region_rules = {}
        for dim, scale in RAVEN_SCALES.items():
            rule = (rules or {}).get(dim) or rng.choice(RAVEN_RULES)
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

    def seen_key(records: list[dict]) -> tuple:
        return tuple(tuple(sorted(r.items())) for r in records)

    violations = solver_check(panel_pairs)
    candidates = [answer]
    seen = {seen_key(answer)}
    attempts = 0
    while len(candidates) < 8:
        attempts += 1
        # a distractor must break the matrix under every rule reading, not
        # just the planted one, or the puzzle has two defensible answers
        distractor = perturb(answer, dims=1 if attempts < 200 else 2)
        key = seen_key(distractor)
        if key in seen or violations(flatten(distractor)) == 0:
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
    detect = "ATTRS0=DETECT_SHAPE(image=PANELS)\n"
    instance = TaskInstance(
        id=iid,
        task="raven",
        query="Which candidate completes the three-by-three matrix?",
        query_spec={"kind": "raven"},
        gold={"type": "index", "value": puzzle.answer_index},
        canonical_program=(
            detect
            + "ATTRS1=DETECT_SHAPE(image=CANDIDATES)\n"
            "ANSWER0=SOLVER(panel_attributes=ATTRS0,candidate_attributes=ATTRS1)\n"
            "FINAL_RESULT=RESULT(var=ANSWER0)"
        ),
        fallback_program='ANSWER0=EVAL(expr=f"1")\nFINAL_RESULT=RESULT(var=ANSWER0)',
        puzzle=puzzle,
    )
    if layout != "center":
        return instance
    instance.module_cases["DETECT_SHAPE"] = {
        "program": detect + "FINAL_RESULT=RESULT(var=ATTRS0)",
        "gold": {"type": "records", "value": [oracle_mod.panel_record(p, layout) for p in puzzle.panels]},
    }
    return _with_case(instance, "SOLVER")


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
    pools = {"shape": RAVEN_SCALES["shape"], "color": RAVEN_SCALES["color"], "material": MEWL_MATERIALS}
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
    return _with_case(TaskInstance(
        id=iid,
        task="mewl-analog",
        query="Which word names the object in the query image?",
        query_spec={"kind": "mewl"},
        gold={"type": "text", "value": words[query_idx]},
        canonical_program=(
            "ANSWER0=INDUCE_WORD(examples=EXAMPLES,query=QUERY)\n"
            "FINAL_RESULT=RESULT(var=ANSWER0)"
        ),
        fallback_program="ANSWER0=EVAL(expr=f\"'unknown'\")\nFINAL_RESULT=RESULT(var=ANSWER0)",
        example_pairs=pairs,
        query_scene=query_scene,
    ), "INDUCE_WORD")


# ---------------------------------------------------------------------------
# The task table
# ---------------------------------------------------------------------------


def _bind_image(text_name: str) -> Callable[..., dict]:
    """Binder of a one-image task whose query is bound to `text_name`."""

    def bind(instance: TaskInstance, image_of) -> dict:
        return {
            "IMAGE": V.image(image_of(instance.scene)),
            text_name: V.text(instance.query),
        }

    return bind


def _bind_puzzle(instance: TaskInstance, image_of) -> dict:
    puzzle = instance.puzzle
    return {
        "PANELS": V.list_value(image_of(p) for p in puzzle.panels),
        "CANDIDATES": V.list_value(image_of(c) for c in puzzle.candidates),
    }


def _bind_examples(instance: TaskInstance, image_of) -> dict:
    return {
        "EXAMPLES": V.list_value((image_of(s), w) for s, w in instance.example_pairs),
        "QUERY": V.image(image_of(instance.query_scene)),
    }


def _split_layout(instance: TaskInstance) -> bool:
    return instance.puzzle.layout != "center"


# ---------------------------------------------------------------------------
# Gold types: the judge, value form and load check of each
# ---------------------------------------------------------------------------


class Verdict(NamedTuple):
    """A judge's score of one final value: whether it is right, the value as a
    report shows it, and for a region gold the regions matched, predicted and gold."""

    correct: bool
    predicted: str
    correct_pairs: int = 0
    predicted_regions: int = 0
    gold_regions: int = 0


Judge = Callable[[V.Value], Verdict]


def _normalize_text(s: str) -> str:
    return " ".join(s.lower().split())


def _judge_text(value) -> Judge:
    """Right when equal to the gold after lower-casing and collapsing spaces."""
    want = _normalize_text(str(value))
    return lambda final: Verdict(_normalize_text(str(final.payload)) == want, V.summarize(final))


def _judge_list(value) -> Judge:
    """As `_judge_text`, item by item; a value that is not a list is wrong."""
    items = [_normalize_text(str(x)) for x in value]
    return lambda final: Verdict(
        final.tag == "list" and [_normalize_text(str(x)) for x in final.payload] == items,
        V.summarize(final),
    )


def _judge_number(value) -> Judge:
    """Right when within 1e-9 of the gold; a value no float reads is wrong."""

    def judge(final: V.Value) -> Verdict:
        try:
            correct = abs(float(final.payload) - float(value)) < 1e-9
        except (TypeError, ValueError):
            correct = False
        return Verdict(correct, V.summarize(final))

    return judge


def _judge_records(value) -> Judge:
    """Right when the items of a list-like value, or the value alone, are
    the gold's records in any order, each compared as its canonical JSON
    would be; the gold's are counted once, here."""
    want = item_counts(value)

    def judge(final: V.Value) -> Verdict:
        items = final.payload if final.tag in ("box-list", "mask", "list") else (final.payload,)
        return Verdict(item_counts(items) == want, V.summarize(final))

    return judge


def _judge_box(value) -> Judge:
    """Right when the first predicted box meets the gold at IoU >= 0.5; a
    null gold matches nothing. With one gold, the regions matched are 1 when
    any predicted box meets it. Predicted boxes are ints, so the text of the
    first is its JSON."""

    def judge(final: V.Value) -> Verdict:
        boxes = final.payload if final.tag in ("box-list", "mask") else ()
        meets = [iou(box, value) >= 0.5 for box in boxes] if value else []
        return Verdict(bool(meets) and meets[0], str([list(box) for box in boxes[:1]]),
                       int(any(meets)), len(boxes), int(bool(value)))

    return judge


def _judge_tagged_regions(value) -> Judge:
    """Right when the image's tags match the gold regions one to one, each
    at IoU >= 0.5 with a label equal by `match_tag`."""

    def judge(final: V.Value) -> Verdict:
        regions = [(list(ov.box), ov.label) for ov in final.payload.overlays] if final.tag == "image" else []
        matched = match_region_sets(
            regions, value, lambda p, g: iou(p[0], g["box"]) >= 0.5 and match_tag(p[1], g["label"])
        )
        return Verdict(matched == len(value) == len(regions), json.dumps([[b, l] for b, l in regions]),
                       matched, len(regions), len(value))

    return judge


def _edit_matches(final: V.Value, spec: dict) -> bool:
    if final.tag != "image":
        return False
    handle = final.payload
    if spec["kind"] == "emoji":
        return any(match_tag(ov.label, spec["label"]) and iou(list(ov.box), spec["region"]) >= 0.5
                   for ov in handle.overlays)
    return any(
        edit.kind == spec["kind"] and edit.boxes and iou(list(edit.boxes[0]), spec["region"]) >= 0.5
        and (spec["kind"] != "replace" or spec.get("category", "") in edit.prompt.lower())
        for edit in handle.edits
    )


def _judge_edit(value) -> Judge:
    """Right when the image carries the gold's edit over its region, with
    the gold's category for a replacement or its label for an emoji."""
    return lambda final: Verdict(_edit_matches(final, value), V.summarize(final))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_box(x) -> bool:
    return isinstance(x, list) and len(x) == 4 and all(map(_is_number, x))


def _is_edit(x) -> bool:
    if not (isinstance(x, dict) and isinstance(x.get("kind"), str) and _is_box(x.get("region"))):
        return False
    named = {"emoji": "label", "replace": "category"}.get(x["kind"])
    return named is None or isinstance(x.get(named), str)


class GoldType(NamedTuple):
    """The rules of one gold type.

    `judge(value)` is the judge of a gold of this type: it scores a
    program's final value against the gold's value. Evaluation judges an
    instance's answer by it, and stage 2 a module case's. `load_dataset`
    takes a gold value only when `check(value)` holds, and a refusal says
    it must be `shape`; the judge reads any value that passes. `form(value)`
    is the value form, the `Value` a right answer is, which a failed module
    case's `expected` summarizes; a case's gold must have one, and a tagged
    image or an edit has none. `regions` tells whether the judge's verdicts
    count regions, which puts region precision, recall and F1 in a report.
    """

    judge: Callable[..., Judge]
    check: Callable[[object], bool]
    shape: str
    form: Callable[..., V.Value] | None = None
    regions: bool = False


GOLD_TYPES: dict[str, GoldType] = {
    "box": GoldType(_judge_box, lambda v: v is None or _is_box(v), "four numbers, or null",
                    form=lambda value: V.box_list([value] if value else []), regions=True),
    "edit": GoldType(_judge_edit, _is_edit, "an object with a kind, a region of four numbers, "
                     "and the label of an emoji or the category of a replacement"),
    "index": GoldType(_judge_number, _is_number, "a number", form=V.number),
    "list": GoldType(_judge_list, lambda v: isinstance(v, list), "a list", form=V.list_value),
    "number": GoldType(_judge_number, _is_number, "a number", form=V.number),
    "records": GoldType(_judge_records, lambda v: isinstance(v, list), "a list", form=V.list_value),
    "tagged-regions": GoldType(
        _judge_tagged_regions,
        lambda v: isinstance(v, list) and all(
            isinstance(r, dict) and _is_box(r.get("box")) and isinstance(r.get("label"), str) for r in v),
        "a list of objects, each with a box of four numbers and a label",
        regions=True,
    ),
    "text": GoldType(_judge_text, lambda v: isinstance(v, str), "a string", form=V.text),
}

# the gold types a module case's gold may have: those with a value form
_CASE_GOLD_TYPES = tuple(name for name, gold_type in GOLD_TYPES.items() if gold_type.form)


def judge_of(gold: dict) -> Judge:
    """The judge of `gold`, a {"type", "value"} object."""
    return GOLD_TYPES[gold["type"]].judge(gold["value"])


@dataclass(frozen=True)
class TaskSpec:
    """One task family.

    `templates` maps a template name to ``template(rng, iid, **knobs)``,
    which returns one instance. `bind(instance, image_of)` returns the
    instance's initial bindings by name, with `image_of(scene)` as the
    handle on each scene. An instance's gold is of one of `gold_types`, and
    an answer is judged by that type's rules in `GOLD_TYPES`.
    `split_layout(instance)`, when set, is true for the instances
    `evaluate.solve_puzzle_with_modules` answers instead of a program.
    """

    templates: dict[str, Callable[..., TaskInstance]]
    bind: Callable[..., dict]
    gold_types: tuple[str, ...]
    split_layout: Callable[[TaskInstance], bool] | None = None


TASKS = {
    "vqa": TaskSpec(
        templates={
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
        },
        bind=_bind_image("QUESTION"),
        gold_types=("list", "number", "text"),
    ),
    "grounding": TaskSpec(
        templates={
            "ordinal": _grounding_ordinal,
            "depth": _grounding_depth,
            "select": _grounding_select,
            "half": _grounding_half,
            "region": _grounding_region,
        },
        bind=_bind_image("EXPRESSION"),
        gold_types=("box",),
    ),
    "tagging": TaskSpec(
        templates={
            "ordinal": _tagging_ordinal,
            "filter": _tagging_filter,
        },
        bind=_bind_image("EXPRESSION"),
        gold_types=("tagged-regions",),
    ),
    "editing": TaskSpec(
        templates={"edit": _editing_instance},
        bind=_bind_image("INSTRUCTION"),
        gold_types=("edit",),
    ),
    "raven": TaskSpec(
        templates={"matrix": _raven_instance},
        bind=_bind_puzzle,
        gold_types=("index",),
        split_layout=_split_layout,
    ),
    "mewl-analog": TaskSpec(
        templates={"word": _mewl_instance},
        bind=_bind_examples,
        gold_types=("text",),
    ),
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def task_spec(task: str) -> TaskSpec:
    """`TASKS[task]`, or a `ValueError` that names the known tasks."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; known tasks: {', '.join(sorted(TASKS))}")
    return TASKS[task]


def split_task(instances) -> str:
    """The one known task every instance of a split names, or a `ValueError`."""
    tasks = sorted({instance.task for instance in instances})
    if len(tasks) != 1:
        raise ValueError(f"the split mixes tasks {', '.join(tasks)}" if tasks else "the split is empty")
    task_spec(tasks[0])
    return tasks[0]


def generate_dataset(task: str, seed: int, n: int, knobs: dict | None = None) -> list[TaskInstance]:
    """Deterministic-in-seed instance generation for one task family.

    knobs: ``templates`` names the templates to cycle through (by default
    all of the task's, in name order); every other knob, such as raven's
    ``layout`` and ``rules``, is passed to each template as a keyword. A
    knob that not every named template takes raises `ValueError`, which
    names the knobs they do take, before any draw.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    templates = task_spec(task).templates
    knobs = dict(knobs or {})
    names = knobs.pop("templates", None) or sorted(templates)
    for name in names:
        if name not in templates:
            known = ", ".join(sorted(templates))
            raise ValueError(f"task {task!r} has no template {name!r}; its templates: {known}")
    # a template's knobs are its keywords after (rng, iid)
    taken = set.intersection(*(set(list(inspect.signature(templates[name]).parameters)[2:])
                               for name in names))
    for knob in knobs:
        if knob not in taken:
            known = ", ".join(sorted(taken | {"templates"}))
            raise ValueError(f"task {task!r} has no knob {knob!r}; its knobs: {known}")
    rng = random.Random(f"{task}:{seed}")
    return [
        _finish(templates[names[i % len(names)]](rng, f"{task}-{seed}-{i:04d}", **knobs))
        for i in range(n)
    ]


def save_dataset(instances, path) -> None:
    """Write one JSON line per instance. A scene slot holds the scene's
    document the first time an equal scene (by `SceneGraph.content_key`)
    occurs in the file, and after that the number of that document, counting
    documents in the reading order of `_scene_slots`."""
    numbers: dict[tuple, int] = {}  # content key -> number of its document

    def slot(scene: SceneGraph) -> int | dict:
        key = scene.content_key()
        number = numbers.get(key)
        if number is not None:
            return number
        numbers[key] = len(numbers)
        return scene.to_doc()

    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(canonical_json(instance.to_doc(slot)) + "\n")


def load_dataset(path) -> list[TaskInstance]:
    """The instances of the split file at `path`. Each scene document is
    loaded once, and every slot that names it by number holds that same
    scene. A fault of a line is a ValueError whose message starts with the
    path and the line number."""
    out: list[TaskInstance] = []
    scenes: list[SceneGraph] = []  # every scene document read so far, in reading order
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(_read_instance(line, scenes))
            except KeyError as exc:
                raise ValueError(f"{path}: line {number}: missing field {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from exc
    return out


def _read_instance(line: str, scenes: list[SceneGraph]) -> TaskInstance:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:  # its own "line 1" would not be the file's line
        raise ValueError(f"not valid JSON: {exc.msg} at column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ValueError("the line is not a JSON object")
    _check_fields(doc)
    if "puzzle" in doc:
        _check_puzzle(doc["puzzle"])
    for holder, key, part, index in _scene_slots(doc):
        slot = holder[key]
        if isinstance(slot, int):
            if type(slot) is not int or not 0 <= slot < len(scenes):
                raise ValueError(f"{_slot_name(part, index)}: scene reference {json.dumps(slot)} "
                                 f"names no scene read before it ({len(scenes)} so far)")
            holder[key] = scenes[slot]
            continue
        try:
            scene = load_scene(slot)
        except SceneSchemaError as exc:
            raise ValueError(f"{_slot_name(part, index)}: {exc}") from exc
        scenes.append(scene)
        holder[key] = scene
    return TaskInstance.from_doc(doc)


def _check_fields(doc: dict) -> None:
    """Refuse a line whose fields other than its scenes and puzzle do not
    hold what a `TaskInstance` reads from them, naming the first that does
    not; a missing top-level field is a `KeyError`. The gold's type and
    value are checked against its task's `gold_types` only when the task is
    known: `split_task` refuses an unknown one. A module case's gold is
    checked as an instance's is, and its type must have a value form."""
    for name in ("id", "task", "query"):
        if not isinstance(doc[name], str):
            raise ValueError(f"{name}: must be a string")
    if not isinstance(doc["query_spec"], dict):
        raise ValueError("query_spec: must be an object")
    spec = TASKS.get(doc["task"])
    _check_gold(doc["gold"], "gold", spec and spec.gold_types)
    programs = doc["programs"]
    if not isinstance(programs, dict):
        raise ValueError("programs: must be an object")
    for name in ("canonical", "fallback"):
        if not isinstance(programs.get(name), str):
            raise ValueError(f"programs.{name}: must be a string")
    cases = doc.get("module_cases", {})
    if not isinstance(cases, dict):
        raise ValueError("module_cases: must be an object")
    for name, case in cases.items():
        if not isinstance(case, dict):
            raise ValueError(f"module_cases.{name}: must be an object")
        if not isinstance(case.get("program"), str):
            raise ValueError(f"module_cases.{name}.program: must be a string")
        _check_gold(case.get("gold"), f"module_cases.{name}.gold", _CASE_GOLD_TYPES)


def _check_gold(gold, where: str, types: tuple[str, ...] | None) -> None:
    """Refuse a gold that is not an object with a type and a value, or, when
    `types` are given, whose type is not one of them or whose value is not
    one its type's judge reads; `where` names it."""
    if not isinstance(gold, dict) or "type" not in gold or "value" not in gold:
        raise ValueError(f"{where}: must be an object with a type and a value")
    if types is None:
        return
    if gold["type"] not in types:
        raise ValueError(f"{where}.type: must be one of {', '.join(types)}")
    gold_type = GOLD_TYPES[gold["type"]]
    if not gold_type.check(gold["value"]):
        raise ValueError(f"{where}.value: must be {gold_type.shape}")


def _check_puzzle(puzzle) -> None:
    """Refuse a line's `puzzle` unless each field holds what a `RavenPuzzle`
    does, naming the first field that does not; a missing field is a
    `KeyError`. It runs before the scene slots are read, so that slots are
    never looked for in a field of the wrong type."""
    if not isinstance(puzzle, dict):
        raise ValueError("puzzle: must be an object")
    # a three-by-three matrix without its last cell
    if not isinstance(puzzle["panels"], list) or len(puzzle["panels"]) != 8:
        raise ValueError("puzzle.panels: must be a list of 8 scenes")
    candidates = puzzle["candidates"]
    if not isinstance(candidates, list) or not candidates:
        raise ValueError("puzzle.candidates: must be a nonempty list of scenes")
    rules = puzzle["rules"]
    if not isinstance(rules, dict) or not all(isinstance(rule, str) for rule in rules.values()):
        raise ValueError("puzzle.rules: must map each dimension to a rule name")
    answer = puzzle["answer_index"]
    if type(answer) is not int or not 1 <= answer <= len(candidates):
        raise ValueError(f"puzzle.answer_index: must be an integer in 1..{len(candidates)}")
    if not isinstance(puzzle["layout"], str) or puzzle["layout"] not in RAVEN_LAYOUTS:
        raise ValueError(f"puzzle.layout: must be one of {', '.join(RAVEN_LAYOUTS)}")
