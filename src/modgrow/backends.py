"""Perception/action backends behind a single tool contract.

`ToolBackend` is the contract; the deterministic `SyntheticBackend`, which
answers from scene-graph ground truth, is the normative implementation.
`OPERATIONS` names each of the six operations once, with the parameters
that make up its request. The record, replay and HTTP wrappers get every
operation from `_ForwardingBackend` and add only their own step. The tool
cache has the gateway's format (`modgrow.cache`): a record holds the request
hash as ``key``, the ``request`` and the encoded ``response``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import urllib.error
import urllib.request
from functools import lru_cache
from typing import Protocol

from .cache import append_record, load_responses
from .errors import BackendError, CacheMissError
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
def _question_form(q: str) -> tuple[str, ...]:
    """What a normalised perception question asks: ("count", name),
    ("who", tag), ("attribute", attribute, name) or ("unknown",)."""
    m = _HOW_MANY_RE.match(q)
    if m:
        return ("count", m.group(1).strip())
    m = _WHO_RE.match(q)
    if m:
        return ("who", f"{m.group(1)} the {m.group(2).strip()}")
    m = _ATTR_QUESTION_RE.match(q)
    if m:
        return ("attribute", m.group(1), m.group(2).strip())
    return ("unknown",)


class SyntheticBackend:
    """Pure ground-truth backend: every answer is a function of (scene, request).

    Perception reads a viewport's objects from `ImageHandle.visible_objects`,
    which scans the scene once per handle and keeps the result for the
    handle's lifetime; the four questions `DETECT_SHAPE` asks of one crop
    share one scan. What a question asks, and the singular of a noun, depend
    on the text alone and are kept in bounded LRU caches. All of it is safe
    to keep because handles, scenes and the cached tuples are immutable.
    """

    def _matching(self, image: ImageHandle, name: str) -> list[tuple[SceneObject, Box]]:
        wanted = singularize(name)
        wildcard = wanted in ("object", "thing", "item")
        out = []
        for obj, clipped in image.visible_objects():
            if wildcard or singularize(obj.name) == wanted:
                out.append((obj, clipped))
        return out

    def locate(self, image: ImageHandle, name: str) -> list[Box]:
        if not name:
            return []
        found = self._matching(image, name)
        found.sort(key=lambda pair: (-box_area(pair[1]), pair[1]))
        return [image.to_relative(clipped) for _, clipped in found]

    def answer_question(self, image: ImageHandle, question: str) -> str:
        form = _question_form(question.lower().strip().rstrip("?").strip())
        if form[0] == "count":
            return str(len(self._matching(image, form[1])))
        if form[0] == "who":
            for obj, _ in image.visible_objects():
                if any(t.lower() == form[1] for t in obj.tags):
                    return obj.name.lower()
            return "unknown"
        if form[0] == "attribute":
            found = self._matching(image, form[2])
            if not found:
                return "unknown"
            found.sort(key=lambda pair: (-box_area(pair[1]), pair[1]))
            return found[0][0].attributes.get(form[1], "unknown").lower()
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
                raise BackendError("OUT_OF_BOUNDS", f"mask box {list(box)} exceeds {w}x{h} viewport")
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


# ---------------------------------------------------------------------------
# The operation table, and the record / replay / HTTP wrappers built on it
# ---------------------------------------------------------------------------

# The tool surface, each operation once, with its parameters as the
# `ToolBackend` methods name them. A request carries the image, when the
# operation takes one, and the other parameters as JSON args.
OPERATIONS = {
    "locate": ("image", "name"),
    "answer_question": ("image", "question"),
    "score_alignment": ("image", "texts"),
    "depth_of": ("image",),
    "inpaint_region": ("image", "mask", "prompt"),
    "general_text": ("prompt",),
}


def _as_json(value):
    if isinstance(value, (list, tuple)):
        return [_as_json(v) for v in value]
    return value


def request_doc(operation: str, call: dict, image_doc=ImageHandle.fingerprint) -> dict:
    """The JSON request of one call; `image_doc` renders its image."""
    doc = {"operation": operation, "args": {k: _as_json(v) for k, v in call.items() if k != "image"}}
    if "image" in call:
        doc["image"] = image_doc(call["image"])
    return doc


def request_hash(operation: str, call: dict) -> str:
    payload = json.dumps(request_doc(operation, call), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _encode_response(operation: str, result):
    if operation == "locate":
        return [list(b) for b in result]
    if operation == "depth_of":
        return {
            "width": result.width,
            "height": result.height,
            "layers": [[list(box), depth] for box, depth in result.layers],
        }
    if operation == "inpaint_region":
        return result.to_doc()
    return result


def _decode_response(operation: str, raw):
    if operation == "locate":
        return [tuple(b) for b in raw]
    if operation == "depth_of":
        if "layers" not in raw:
            raise ValueError(
                "depth_of record holds dense 'values', a format no longer read; "
                "re-record the tool cache"
            )
        layers = tuple((tuple(box), depth) for box, depth in raw["layers"])
        return DepthGrid(width=raw["width"], height=raw["height"], layers=layers)
    if operation == "inpaint_region":
        return ImageHandle.from_doc(raw)
    return raw


class _ForwardingBackend:
    """Defines every operation in `OPERATIONS` as one call of the subclass's
    `_forward(operation, call)`, where `call` maps parameter names to arguments."""


def _forwarder(operation: str, params: tuple[str, ...]):
    def forward(self, *args, **kwargs):
        call = dict(zip(params, args), **kwargs)
        if len(args) + len(kwargs) != len(params) or call.keys() != set(params):
            raise TypeError(f"{operation}() takes ({', '.join(params)})")
        return self._forward(operation, call)

    forward.__name__ = forward.__qualname__ = operation
    return forward


for _operation, _params in OPERATIONS.items():
    setattr(_ForwardingBackend, _operation, _forwarder(_operation, _params))


class RecordingToolBackend(_ForwardingBackend):
    """Wraps another backend and appends each call's record to a cache file."""

    def __init__(self, inner: ToolBackend, cache_path: str):
        self.inner = inner
        self.cache_path = cache_path

    def _forward(self, operation, call):
        result = getattr(self.inner, operation)(**call)
        record = {
            "key": request_hash(operation, call),
            "request": request_doc(operation, call),
            "response": _encode_response(operation, result),
        }
        append_record(self.cache_path, record)
        return result


class ReplayToolBackend(_ForwardingBackend):
    """Serves recorded responses only; a cache miss is an error, never a live call."""

    def __init__(self, cache_path: str):
        self.responses = load_responses(cache_path)

    def _forward(self, operation, call):
        key = request_hash(operation, call)
        if key not in self.responses:
            raise CacheMissError(f"no recorded response for {operation} request {key[:12]}…")
        return _decode_response(operation, self.responses[key][-1])


class HttpToolBackend(_ForwardingBackend):
    """Forwards each operation as JSON POST to `TOOL_API_URL` (or an explicit URL)."""

    def __init__(self, url: str | None = None, timeout: float = 10.0):
        self.url = url or os.environ.get("TOOL_API_URL", "")
        self.timeout = timeout
        if not self.url:
            raise BackendError("BACKEND_ERROR", "no tool endpoint configured (TOOL_API_URL)")

    def _forward(self, operation, call):
        data = json.dumps(request_doc(operation, call, ImageHandle.to_doc)).encode("utf-8")
        req = urllib.request.Request(
            self.url, data=data, headers={"Content-Type": "application/json"}, method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                if resp.status < 200 or resp.status >= 300:
                    raise BackendError("BACKEND_ERROR", f"endpoint returned {resp.status}")
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as exc:
            raise BackendError("BACKEND_ERROR", str(exc)) from exc
        return _decode_response(operation, payload["result"])
