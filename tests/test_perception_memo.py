"""Memoized perception against the unmemoized code it replaced.

`reference_visible_objects`, `reference_matching`, `reference_answer_question`
and `reference_singularize` are `ImageHandle.visible_objects`,
`SyntheticBackend._matching`, `SyntheticBackend.answer_question` and
`scene.singularize` as they were before a handle kept its scan, the
question and noun parsers were cached and the question cache kept each
question's noun singular; `locate`, `score_alignment` and `depth_of` are
rebuilt on them. Every answer of the memoized backend must equal theirs, also
when a handle is asked again.
"""

from __future__ import annotations

import random
import re

import pytest

from modgrow import scene
from modgrow.backends import STOPWORDS, SyntheticBackend
from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import generate_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.replay_seed import SyntheticResponder
from modgrow.scene import (
    _IRREGULAR_PLURALS,
    ATTRIBUTE_LEXICON,
    CATEGORY_LEXICON,
    DepthGrid,
    ImageHandle,
    SceneGraph,
    box_area,
    intersect_boxes,
    singularize,
)

from conftest import make_scene, obj

TASKS = ("vqa", "grounding", "tagging", "editing", "raven", "mewl-analog")


def reference_singularize(word: str) -> str:
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


def reference_visible_objects(image: ImageHandle) -> list:
    out = []
    for obj in image.scene.objects:
        clipped = intersect_boxes(obj.box, image.crop_box)
        if clipped is not None:
            out.append((obj, clipped))
    return out


def reference_matching(image: ImageHandle, name: str) -> list:
    wanted = reference_singularize(name)
    wildcard = wanted in ("object", "thing", "item")
    out = []
    for obj, clipped in reference_visible_objects(image):
        if wildcard or reference_singularize(obj.name) == wanted:
            out.append((obj, clipped))
    return out


_ATTR_QUESTION_RE = re.compile(r"^what ([a-z]+) is the ([a-z ]+?)(?: made of)?$")
_HOW_MANY_RE = re.compile(r"^how many ([a-z ]+?)(?: are| is)?(?: there)?(?: in the image)?$")
_WHO_RE = re.compile(r"^who is ([a-z]+ing) the ([a-z ]+)$")


def reference_answer_question(image: ImageHandle, question: str) -> str:
    q = question.lower().strip().rstrip("?").strip()
    m = _HOW_MANY_RE.match(q)
    if m:
        return str(len(reference_matching(image, m.group(1).strip())))
    m = _WHO_RE.match(q)
    if m:
        tag = f"{m.group(1)} the {m.group(2).strip()}"
        for obj, _ in reference_visible_objects(image):
            if any(t.lower() == tag for t in obj.tags):
                return obj.name.lower()
        return "unknown"
    m = _ATTR_QUESTION_RE.match(q)
    if m:
        attr, name = m.group(1), m.group(2).strip()
        found = reference_matching(image, name)
        if not found:
            return "unknown"
        found.sort(key=lambda pair: (-box_area(pair[1]), pair[1]))
        return found[0][0].attributes.get(attr, "unknown").lower()
    return "unknown"


def reference_locate(image: ImageHandle, name: str) -> list:
    if not name:
        return []
    found = reference_matching(image, name)
    found.sort(key=lambda pair: (-box_area(pair[1]), pair[1]))
    return [image.to_relative(clipped) for _, clipped in found]


def _content_words(text: str) -> list[str]:
    return [w for w in re.findall(r"[a-z]+", text.lower()) if w not in STOPWORDS]


def reference_score_alignment(image: ImageHandle, texts: list[str]) -> list[float]:
    vocab: set[str] = set()
    for obj, _ in reference_visible_objects(image):
        vocab.add(reference_singularize(obj.name))
        vocab.update(v.lower() for v in obj.attributes.values())
        for tag in obj.tags:
            vocab.update(_content_words(tag))
    scores = []
    for text in texts:
        words = _content_words(text)
        if not words:
            scores.append(0.0)
            continue
        hits = sum(1 for w in words if w in vocab or reference_singularize(w) in vocab)
        scores.append(hits / len(words))
    return scores


def reference_depth_of(image: ImageHandle) -> DepthGrid:
    layers = tuple(
        (image.to_relative(clipped), obj.depth)
        for obj, clipped in sorted(reference_visible_objects(image), key=lambda p: -p[0].depth)
    )
    return DepthGrid(width=image.width, height=image.height, layers=layers)


def scenes_of(instance) -> list[SceneGraph]:
    if instance.task == "raven":
        return [*instance.puzzle.panels, *instance.puzzle.candidates]
    if instance.task == "mewl-analog":
        return [s for s, _ in instance.example_pairs] + [instance.query_scene]
    return [instance.scene]


def handles_of(scene_graph: SceneGraph, backend: SyntheticBackend, rng: random.Random) -> list:
    """Full, cropped and crop-of-crop viewports, with overlays and edits, and
    an inpainted one."""
    full = ImageHandle.of_scene(scene_graph)
    w, h = full.size
    halves = [full.crop((0, 0, w // 2, h)), full.crop((w // 2, 0, w, h)),
              full.crop((0, 0, w, h // 2)), full.crop((0, h // 2, w, h))]
    x1, y1 = rng.randint(-20, w - 40), rng.randint(-20, h - 40)
    crop = full.crop((x1, y1, x1 + rng.randint(1, 300), y1 + rng.randint(1, 250)))
    out = [full, *halves, crop, halves[0].crop((5, 5, 200, 300)), crop.crop((2, 2, 40, 40))]
    out.append(halves[1].with_overlay((0, 0, 20, 20), "tag"))
    out.append(crop.with_edit("colorpop", [(0, 0, 10, 10)]))
    box = full.to_relative(scene_graph.objects[0].box) if scene_graph.objects else (0, 0, 10, 10)
    out.append(backend.inpaint_region(full, [box], "a red ceramic cup"))
    out.append(backend.inpaint_region(halves[0], [(0, 0, w // 4, h)], "a green lamp").crop((0, 0, 90, 90)))
    return out


def names_of(scene_graph: SceneGraph) -> list[str]:
    names = ["object", "objects", "thing", "item", "zebra", "", "people"]
    for o in scene_graph.objects:
        names += [o.name, o.name.upper(), o.name + "s", o.name + "es", f" {o.name} "]
    return names


def questions_of(scene_graph: SceneGraph, names: list[str]) -> list[str]:
    questions = ["How many objects are in the image?", "how many things are there",
                 "Is there a cat?", "What is this?", "  ", "who is holding the zebra?"]
    for name in names:
        questions.append(f"How many {name} are there?")
        questions.append(f"How many {name} is in the image?")
        for attr in ATTRIBUTE_LEXICON:
            questions.append(f"What {attr} is the {name}?")
        questions.append(f"What material is the {name} made of?")
    for o in scene_graph.objects:
        for tag in o.tags:
            questions.append(f"Who is {tag}?")
            questions.append(f"WHO IS {tag.upper()}  ?")
    return questions


@pytest.mark.parametrize("task", TASKS)
def test_memoized_perception_matches_reference(task):
    backend = SyntheticBackend()
    rng = random.Random(f"perception-memo:{task}")
    checked, answers = 0, set()
    for instance in generate_dataset(task, 3, 6):
        for scene_graph in scenes_of(instance)[::3]:
            names = names_of(scene_graph)
            questions = questions_of(scene_graph, names)
            texts = [f"a {n}" for n in names] + ["a red cup", "the thick coat", "", "people",
                                                 "holding the umbrella", "Cats and dogs!"]
            for image in handles_of(scene_graph, backend, rng):
                for _ in range(2):  # the second round reads the filled memo
                    assert list(image.visible_objects()) == reference_visible_objects(image)
                    for name in names:
                        assert backend.locate(image, name) == reference_locate(image, name), name
                    for question in questions:
                        answer = backend.answer_question(image, question)
                        assert answer == reference_answer_question(image, question), question
                        answers.add(answer)
                    assert backend.score_alignment(image, texts) == \
                        reference_score_alignment(image, texts)
                    assert backend.depth_of(image) == reference_depth_of(image)
                checked += 1
    assert checked >= 6 * 12
    assert len(answers) > 4  # counts and attributes, not only "unknown"


def tied_scene() -> SceneGraph:
    """Boxes, knives and people, with matches that tie by area: two boxes of
    equal area, two knives with the same box, and a person whose box the
    image edge clips to the area of the other person's."""
    return make_scene(
        obj("b1", "box", (10, 10, 50, 50), color="red", material="wood"),
        obj("b2", "box", (100, 10, 120, 90), color="blue", material="metal"),
        obj("k1", "knife", (200, 200, 240, 260), color="gray"),
        obj("k2", "knife", (200, 200, 240, 260), color="black", size="large"),
        obj("p1", "person", (600, 300, 700, 400), color="green"),
        obj("p2", "person", (300, 300, 340, 400), color="yellow", tags=("holding the knife",)),
        obj("g", "glass", (400, 20, 440, 60), color="white"),
        obj("s", "sandwich", (450, 20, 500, 60), color="brown"),
    )


PLURAL_AND_WILDCARD_NOUNS = [
    "box", "boxes", "Boxes", "knife", "knives", "KNIVES", "person", "people", "persons",
    "glass", "glasses", "sandwich", "sandwiches", "object", "objects", "things", "items",
    "Things", "item", "thing", "coat", "coats", "man", "men",
]


def test_plural_wildcard_and_tied_matches_match_reference():
    backend = SyntheticBackend()
    full = ImageHandle.of_scene(tied_scene())
    handles = [full, full.crop((0, 0, 640, 480)), full.crop((0, 0, 210, 240)),
               full.crop((90, 0, 645, 380)), full.crop((305, 300, 640, 480))]
    questions = []
    for noun in PLURAL_AND_WILDCARD_NOUNS:
        questions += [f"How many {noun} are there?", f"how many {noun}", f"How many {noun} is in the image?"]
        questions += [f"What {attr} is the {noun}?" for attr in ATTRIBUTE_LEXICON]
        questions += [f"What material is the {noun} made of?", f"what color is the  {noun} ?"]
    answers = set()
    for image in handles:
        for _ in range(2):
            for question in questions:
                answer = backend.answer_question(image, question)
                assert answer == reference_answer_question(image, question), question
                answers.add(answer)
            for noun in PLURAL_AND_WILDCARD_NOUNS:
                assert backend.locate(image, noun) == reference_locate(image, noun), noun
    # equal areas fall to the smaller box, and equal boxes to the first object
    assert backend.answer_question(full, "What color is the boxes?") == "red"
    assert backend.answer_question(full, "What color is the people?") == "yellow"
    assert backend.answer_question(full, "What color is the knives?") == "gray"
    assert backend.answer_question(full, "What size is the knives?") == "unknown"
    assert backend.answer_question(full.crop((0, 0, 640, 480)), "How many people are there?") == "2"
    assert {"2", "8", "red", "gray", "unknown"} <= answers


@pytest.mark.parametrize("question, error", [
    (5, AttributeError), (None, AttributeError), (["How many objects are there?"], AttributeError),
    (b"how many objects", TypeError),  # bytes have `lower`, but not `rstrip("?")`
])
def test_a_question_that_is_not_a_string_fails_as_before(question, error):
    image = ImageHandle.of_scene(tied_scene())
    with pytest.raises(error) as expected:
        reference_answer_question(image, question)
    with pytest.raises(error) as actual:
        SyntheticBackend().answer_question(image, question)
    assert str(actual.value) == str(expected.value)


def test_singularize_matches_reference():
    words = sorted(CATEGORY_LEXICON) + sorted(_IRREGULAR_PLURALS) + sorted(_IRREGULAR_PLURALS.values())
    words += [w + suffix for w in sorted(CATEGORY_LEXICON) for suffix in ("s", "es", "ies")]
    words += ["berries", "ies", "churches", "dishes", "glasses", "boxes", "buzzes", "bus", "ss",
              "as", "s", "", "  Cats  ", "PEOPLE", "Knives", "glass", "class"]
    for _ in range(2):
        for word in words:
            assert singularize(word) == reference_singularize(word), word


def test_singularize_of_a_non_string_fails_as_before():
    for word in (5, ["cats"]):
        with pytest.raises(AttributeError, match="has no attribute 'lower'"):
            singularize(word)


def test_crop_of_a_filled_memo_scans_its_own_viewport(purse_scene):
    full = ImageHandle.of_scene(purse_scene)
    assert [o.id for o, _ in full.visible_objects()] == ["p", "u"]
    left = full.crop((0, 0, 200, 480))
    assert left.visible_objects() == tuple(reference_visible_objects(left))
    assert [(o.id, box) for o, box in left.visible_objects()] == [("u", (80, 250, 160, 330))]
    assert SyntheticBackend().answer_question(left, "How many objects are in the image?") == "1"
    assert [o.id for o, _ in full.visible_objects()] == ["p", "u"]


def test_split_layout_eval_scans_each_crop_once(tmp_path, monkeypatch, full_lib, backend):
    """Each half viewport `DETECT_SHAPE` reads is scanned once, although it
    is asked four questions."""
    test = generate_dataset("raven", 4, 6, {"layout": "left-right"})
    calls = []
    original = scene.intersect_boxes

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(scene, "intersect_boxes", counting)
    gateway = LlmGateway(mode="record", cache_path=str(tmp_path / "cache.jsonl"),
                         transport=SyntheticResponder())
    report = evaluate("raven", test, full_lib, backend, gateway)
    assert report.metrics["accuracy"] == 1.0
    # two halves of every panel and candidate, one scan of its objects each
    crops = [s for i in test for s in scenes_of(i) for _ in range(2)]
    assert len(calls) == sum(len(s.objects) for s in crops)
