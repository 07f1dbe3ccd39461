"""Perception/action backends behind a single tool contract.

`ToolBackend` is the contract; the deterministic `SyntheticBackend`, which
answers from scene-graph ground truth, is the one implementation.
`OPERATIONS` holds the names of its six operations, read from
`ToolBackend`; the sandbox serves generated modules exactly these names.
`shared_perception` opens a block in which `SyntheticBackend` answers each
question about a registered handle once.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from typing import Protocol

from .errors import BackendError
from .scene import (
    CATEGORY_LEXICON,
    KNOWLEDGE_LISTS,
    VALUE_TO_ATTRIBUTE,
    Box,
    DepthGrid,
    ImageHandle,
    SceneGraph,
    SceneObject,
    box_area,
    intersect_boxes,
    singularize,
)

STOPWORDS = {
    "a", "an", "the", "is", "are", "was", "were", "of", "in", "on", "at",
    "with", "and", "or", "to", "it", "its", "this", "that", "very", "be",
    "as", "for", "by", "from", "when", "one", "sentence",
}


class ToolBackend(Protocol):
    def locate(self, image: ImageHandle, name: str) -> list[Box]: ...

    def answer_question(self, image: ImageHandle, question: str) -> str: ...

    def score_alignment(self, image: ImageHandle, texts: list[str]) -> list[float]: ...

    def depth_of(self, image: ImageHandle) -> DepthGrid: ...

    def inpaint_region(self, image: ImageHandle, mask, prompt: str) -> ImageHandle: ...

    def general_text(self, prompt: str) -> str: ...


# The tool surface: the names of the `ToolBackend` methods.
OPERATIONS = frozenset(name for name in vars(ToolBackend) if not name.startswith("_"))


def _content_words(text: str) -> list[str]:
    return [w for w in re.findall(r"[a-z]+", text.lower()) if w not in STOPWORDS]


_ATTR_QUESTION_RE = re.compile(r"^what ([a-z]+) is the ([a-z ]+?)(?: made of)?$")
_HOW_MANY_RE = re.compile(r"^how many ([a-z ]+?)(?: are| is)?(?: there)?(?: in the image)?$")
_WHO_RE = re.compile(r"^who is ([a-z]+ing) the ([a-z ]+)$")
_SAME_COLOR_RE = re.compile(r"^can the ([a-z]+) be regarded as the same color as\s*([a-z]+)\b")
_TELL_ATTR_RE = re.compile(r"^tell me the attributes when the ([a-z ]+) is ([a-z]+) in one sentence\.?$")
_LIST_RE = re.compile(r"^(?:name|list) (\d+) kinds? of ([a-z]+)\.?$")

# A few exact description fixtures; everything else falls back to the generic
# "the {obj} is {attr}" rendering so alignment scoring stays predictable.
_DESCRIPTION_FIXTURES = {
    ("coat", "thick"): "a thick coat is heavy, padded, warm",
    ("coat", "thin"): "a thin coat is flimsy, airy, delicate",
}


@lru_cache(maxsize=1024)
def _question_form(question: str) -> tuple[str, ...]:
    """`_parse_question` of an exact `str`, kept per text, so each distinct
    question is normalised, matched and singularized once. Only exact `str`
    texts may enter: a subclass can hash and compare equal to another text."""
    return _parse_question(question)


def _parse_question(question: str) -> tuple[str, ...]:
    """What a perception question asks: ("count", noun), ("who", tag),
    ("attribute", attribute, noun) or ("unknown",), with the noun singular."""
    q = question.lower().strip().rstrip("?").strip()
    m = _HOW_MANY_RE.match(q)
    if m:
        return ("count", singularize(m.group(1)))
    m = _WHO_RE.match(q)
    if m:
        return ("who", f"{m.group(1)} the {m.group(2).strip()}")
    m = _ATTR_QUESTION_RE.match(q)
    if m:
        return ("attribute", m.group(1), singularize(m.group(2)))
    return ("unknown",)


_WILDCARD_NOUNS = frozenset(("object", "thing", "item"))


def _largest_first(pair: tuple[SceneObject, Box]) -> tuple:
    """Sort key of a match: larger clipped area first, then the box itself."""
    return (-box_area(pair[1]), pair[1])


class PerceptionMemo:
    """The answers `SyntheticBackend.answer_question` and `locate` gave about
    each registered handle, kept while `shared_perception` is open.

    An entry is found by the handle's identity and holds the handle, so no
    other object can take its id while the memo lives. Only exact `str`
    requests are kept; answers are strings and tuples, and `locate` hands out
    a fresh list of them each time.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: dict[int, tuple[ImageHandle, dict[str, str], dict[str, tuple]]] = {}

    def register(self, handle: ImageHandle) -> None:
        if id(handle) not in self._entries:
            self._entries[id(handle)] = (handle, {}, {})

    def kept(self) -> Iterator[tuple[str, ImageHandle, str, object]]:
        """Every kept (operation, handle, request, answer)."""
        for handle, answers, boxes in self._entries.values():
            for question, answer in answers.items():
                yield "answer_question", handle, question, answer
            for name, found in boxes.items():
                yield "locate", handle, name, list(found)


_SHARED: ContextVar[PerceptionMemo | None] = ContextVar("shared_perception", default=None)


@contextmanager
def shared_perception() -> Iterator[PerceptionMemo]:
    """A block in which `SyntheticBackend` answers each question, and locates
    each name, once per handle registered with the yielded memo.

    The memo lives in a context variable of this module, not on a handle or
    a backend, so generated modules, which reach only their arguments and
    `API`, cannot read or change it; it is dropped when the block ends.
    """
    memo = PerceptionMemo()
    token = _SHARED.set(memo)
    try:
        yield memo
    finally:
        _SHARED.reset(token)


class SyntheticBackend:
    """Pure ground-truth backend: every answer is a function of (scene, request).

    Perception reads a viewport's objects from `ImageHandle.visible_objects`,
    which scans the scene once per handle and keeps the result for the
    handle's lifetime; the four questions `DETECT_SHAPE` asks of one crop
    share one scan. What a question asks, with its noun already singular,
    and the singular of any other word depend on the text alone and are
    kept in bounded LRU caches; a question's is keyed on its raw text, for
    exact `str` questions only. All of it is safe to keep because handles,
    scenes and the cached tuples are immutable. Inside `shared_perception`,
    `answer_question` and `locate` also read and fill the open block's memo.

    The backend holds no state of its own, and no slot for any: a generated
    module reaches the backend through its `API`, and every later candidate
    and eval call shares the instance, so nothing may rebind its methods.
    """

    __slots__ = ()

    def _matching(self, image: ImageHandle, wanted: str):
        """The visible (object, clipped box) pairs, in scan order, that the
        singular noun `wanted` names; "object", "thing" and "item" name all."""
        visible = image.visible_objects()
        if wanted in _WILDCARD_NOUNS:
            return visible
        return [pair for pair in visible if singularize(pair[0].name) == wanted]

    def locate(self, image: ImageHandle, name: str) -> list[Box]:
        memo = _SHARED.get()
        entry = None if memo is None else memo._entries.get(id(image))
        if entry is None or type(name) is not str:
            return self._locate(image, name)
        boxes = entry[2].get(name)
        if boxes is None:
            boxes = entry[2][name] = tuple(self._locate(image, name))
        return list(boxes)

    def _locate(self, image: ImageHandle, name: str) -> list[Box]:
        if not name:
            return []
        found = sorted(self._matching(image, singularize(name)), key=_largest_first)
        return [image.to_relative(clipped) for _, clipped in found]

    def answer_question(self, image: ImageHandle, question: str) -> str:
        memo = _SHARED.get()
        entry = None if memo is None else memo._entries.get(id(image))
        if entry is None or type(question) is not str:
            return self._answer_question(image, question)
        answer = entry[1].get(question)
        if answer is None:
            answer = entry[1][question] = self._answer_question(image, question)
        return answer

    def _answer_question(self, image: ImageHandle, question: str) -> str:
        form = _question_form(question) if type(question) is str else _parse_question(question)
        kind = form[0]
        if kind == "count":
            return str(len(self._matching(image, form[1])))
        if kind == "who":
            for obj, _ in image.visible_objects():
                if any(t.lower() == form[1] for t in obj.tags):
                    return obj.name.lower()
            return "unknown"
        if kind == "attribute":
            found = self._matching(image, form[2])
            if not found:
                return "unknown"
            # `min` returns the first of equal keys, as a stable sort puts first
            obj = found[0][0] if len(found) == 1 else min(found, key=_largest_first)[0]
            return obj.attributes.get(form[1], "unknown").lower()
        return "unknown"

    def score_alignment(self, image: ImageHandle, texts: list[str]) -> list[float]:
        vocab: set[str] = set()
        for obj, _ in image.visible_objects():
            vocab.add(singularize(obj.name))
            vocab.update(v.lower() for v in obj.attributes.values())
            for tag in obj.tags:
                vocab.update(_content_words(tag))
        scores = []
        for text in texts:
            words = _content_words(text)
            if not words:
                scores.append(0.0)
                continue
            hits = sum(1 for w in words if w in vocab or singularize(w) in vocab)
            scores.append(hits / len(words))
        return scores

    def depth_of(self, image: ImageHandle) -> DepthGrid:
        # far to near, so nearer layers paint over farther ones; among equal
        # depths the later visible object wins
        layers = tuple(
            (image.to_relative(clipped), obj.depth)
            for obj, clipped in sorted(image.visible_objects(), key=lambda p: -p[0].depth)
        )
        return DepthGrid(width=image.width, height=image.height, layers=layers)

    def inpaint_region(self, image: ImageHandle, mask, prompt: str) -> ImageHandle:
        w, h = image.width, image.height
        for box in mask:
            x1, y1, x2, y2 = box
            if x1 < 0 or y1 < 0 or x2 > w or y2 > h:
                raise BackendError(f"OUT_OF_BOUNDS: mask box {list(box)} exceeds {w}x{h} viewport")
        words = _content_words(prompt)
        new_name = next((w for w in words if w in CATEGORY_LEXICON), None)
        new_attrs = {VALUE_TO_ATTRIBUTE[w]: w for w in words if w in VALUE_TO_ATTRIBUTE}
        covered = [image.to_absolute(b) for b in mask]

        def rewrite(obj: SceneObject) -> SceneObject:
            if not any(intersect_boxes(obj.box, c) for c in covered):
                return obj
            attrs = dict(obj.attributes)
            attrs.update(new_attrs)
            return SceneObject(
                id=obj.id,
                name=new_name or obj.name,
                box=obj.box,
                attributes=attrs,
                depth=obj.depth,
                tags=obj.tags,
            )

        new_scene = SceneGraph(
            width=image.scene.width,
            height=image.scene.height,
            objects=tuple(rewrite(o) for o in image.scene.objects),
            caption=image.scene.caption,
        )
        edited = ImageHandle(
            scene=new_scene,
            crop_box=image.crop_box,
            overlays=image.overlays,
            edits=image.edits,
        )
        return edited.with_edit("replace", mask, prompt)

    def general_text(self, prompt: str) -> str:
        p = prompt.lower().strip()
        m = _TELL_ATTR_RE.match(p)
        if m:
            obj, attr = m.group(1).strip(), m.group(2)
            fixture = _DESCRIPTION_FIXTURES.get((obj, attr))
            return fixture if fixture else f"the {obj} is {attr}"
        m = _SAME_COLOR_RE.match(p)
        if m:
            return "yes" if m.group(1) == m.group(2) else "no"
        m = _LIST_RE.match(p)
        if m:
            entries = KNOWLEDGE_LISTS.get(singularize(m.group(2)))
            if entries:
                return "\n".join(entries)
        return prompt

