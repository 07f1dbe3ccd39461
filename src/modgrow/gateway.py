"""Completion gateway: prompt rendering, cached calls, response parsing.

Prompts are plain-text template files with ``__SLOT__`` markers filled by
byte-exact substitution, one per stage; `_STAGES` names each stage's file
and the temperature and max_tokens of its requests, which `load_template`
puts on the `PromptTemplate`. Completions run in one of two modes:
``replay`` (served from the cache only; a miss is an error) and ``record``
(served from the cache while it holds a response, else from the transport,
by default a POST to a configured endpoint, and appended to the cache file
keyed by a request hash, each prompt head and each response text stored
once in the format of `modgrow.cache`; `LlmGateway.close` releases the
file). Because sampled candidates share one prompt, the cache keeps a FIFO
of responses per key and replay consumes them in call order.

A request's key is the SHA-256 of its `request_doc` as compact JSON with
sorted keys (`cache_key`). Every stage builds its requests with a
`TailSlotPrompt`, over a template whose last marker is the one slot that
varies: the question (stage 1 and stage 3), the module header (stage 2)
or the error report (repair). Its requests share one head, the template
text above the line that asks the question or names the module, with the
fixed slots filled: the module catalogue and the worked examples, or the
API doc and the training cases. `TailSlotPrompt` finds that line in the
template once, and each request carries its stage, that head string and its
own key, none of them part of what the key hashes, so the cache writer and
the stand-in model take the cut from the request instead of searching the
prompt for it, and the gateway serves the key without hashing the prompt.
It keys its requests without escaping the text before the varying slot
again: it feeds a hash with the JSON text up to the opening quote of
``"prompt"`` and that text escaped once, then for each request copies that
hash and feeds the copy the escaped value, the escaped rest of the template
and the closing fields. This is `cache_key` of the same request: with
sorted keys ``prompt`` follows ``max_tokens`` and ``model_id``, and JSON
escapes a string character by character, so the escape of a concatenation
is the concatenation of the escapes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from functools import cache, lru_cache
from importlib import resources

from .cache import CacheWriter, load_responses
from .dsl import STATEMENT_LINE_RE, ModuleSignature, parse_signature_block
from .errors import (
    AuthMissingError,
    CacheMissError,
    EndpointError,
    MissingSlotError,
    ResponseParseError,
    SignatureParseError,
)

logger = logging.getLogger(__name__)

# each stage's template file, and the temperature and max_tokens of its requests
_STAGES = {
    "initialization": ("stage1_initialization.txt", 0.0, 2048),
    "generation": ("stage2_generation.txt", 0.7, 2048),
    "repair": ("repair.txt", 0.7, 2048),
    "execution": ("stage3_execution.txt", 0.0, 1024),
}

_SLOT_RE = re.compile(r"__([A-Z][A-Z0-9_]*)__")
# the line of a template that asks the question or names the module, from
# the newline before it
_ASK_LINE_RE = re.compile(r"\n[^\n]*__(?:NEW_QUESTION|MODULE_NAME)__")

# Documentation of the tool surface, inserted into stage-2 prompts so
# generated modules call the right API names.
DEFAULT_API_DOC = '''class API():
    def loc(cls, image, obj_name):
        """
        Returns boxes of the specific object on the image.
        Input:
            image: an image object
            obj_name: a text string
        Output:
            boxes: a list of bounding boxes
        Example:
            [[261, 160, 525, 299]] = API.loc(image, "camel")
        """
        return boxes

    def vqa(cls, image, question):
        """
        Returns the answer to a simple question about the image.
        Example:
            "black" = API.vqa(image, "What color is the coat?")
        """
        return answer

    def clip(cls, image, text):
        """
        Returns an alignment score in [0, 1] between the image and the text.
        Example:
            0.8 = API.clip(image, "a thick coat")
        """
        return score

    def gpt3(cls, prompt, mode='gpt3_general'):
        """
        Returns a free-text response from the text model.
        Example:
            "yes" = API.gpt3("Can the navy be regarded as the same color as
            blue? You should just reply yes or no without any other words.")
        """
        return response

    def depth(cls, image):
        """
        Returns a depth grid for the image; smaller values are nearer.
        Call depth_grid.region(box) for the values inside a box and
        median(values) to aggregate them.
        Example:
            0.4 = median(API.depth(image).region([0, 0, 32, 32]))
        """
        return depth_grid

    def replace(cls, image, mask, prompt):
        """
        Replaces the masked region according to the prompt and returns the
        edited image.
        """
        return edited_image'''


@dataclass(frozen=True)
class PromptTemplate:
    stage: str
    body: str
    # of the requests built from it, as `CompletionRequest` defaults them
    temperature: float = 0.0
    max_tokens: int = 1024

    def slot_names(self) -> set[str]:
        return set(_SLOT_RE.findall(self.body))


@cache
def load_template(stage: str) -> PromptTemplate:
    """The template of `stage`, read from its file once per process, with
    the temperature and max_tokens its `_STAGES` entry gives its requests."""
    if stage not in _STAGES:
        raise ValueError(f"unknown prompt stage {stage!r}")
    name, temperature, max_tokens = _STAGES[stage]
    body = resources.files("modgrow.templates").joinpath(name).read_text("utf-8")
    return PromptTemplate(stage, body, temperature, max_tokens)


def render_prompt(template: PromptTemplate, slots: dict[str, str]) -> str:
    """Byte-exact single-pass substitution of every __SLOT__ marker."""
    missing = template.slot_names() - set(slots)
    if missing:
        raise MissingSlotError(f"template {template.stage!r} is missing slots: {sorted(missing)}")

    def fill(match):
        return slots[match.group(1)]

    return _SLOT_RE.sub(fill, template.body)


@dataclass(frozen=True)
class CompletionRequest:
    """One model request. Its first five fields are what its key hashes
    (`request_doc`). The rest ride along: the template stage that built it,
    its head, a prefix of the prompt shared by the requests of one
    `TailSlotPrompt` ("" for none), and its key, `cache_key(self)` when its
    builder computed it (None for `LlmGateway.complete` to compute)."""

    prompt: str
    model_id: str
    temperature: float = 0.0
    max_tokens: int = 1024
    stop: tuple[str, ...] | None = None
    stage: str | None = field(default=None, compare=False)
    head: str = field(default="", compare=False, repr=False)
    key: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


def request_doc(req: CompletionRequest) -> dict:
    """The request fields a cache record holds and its key hashes."""
    return {
        "prompt": req.prompt,
        "model_id": req.model_id,
        "temperature": req.temperature,
        "max_tokens": req.max_tokens,
        "stop": list(req.stop) if req.stop else None,
    }


def _key_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def cache_key(req: CompletionRequest) -> str:
    return doc_key(request_doc(req))


def doc_key(doc: dict) -> str:
    """The key of a request given as its `request_doc`, such as a cache
    record's rebuilt request."""
    return hashlib.sha256(_key_json(doc).encode("utf-8")).hexdigest()


_escape = json.encoder.encode_basestring_ascii


class TailSlotPrompt:
    """Requests from one template whose last marker is the only slot that
    varies, each carrying the key `cache_key` gives it, computed without
    escaping the rest of the template again.

    The template's last marker names the varying slot; a template without
    markers, or whose last marker also occurs earlier, is a `ValueError`.
    Every request names `model_id` and takes its temperature and max_tokens
    from the template, and none has stop sequences. `head` is the template up
    to the newline before its ask line, the one line that holds
    ``__NEW_QUESTION__`` or ``__MODULE_NAME__``, with its `fixed` slots
    filled by `render_prompt` ("" for a template without an ask line). The
    text up to the varying marker is rendered and hashed once;
    `request(value)` returns the request with `value` in the slot, which
    carries the template's stage, `head` itself and its key.
    """

    def __init__(self, template: PromptTemplate, fixed: dict[str, str], model_id: str):
        markers = list(_SLOT_RE.finditer(template.body))
        if not markers or markers[-1].group(1) in {m.group(1) for m in markers[:-1]}:
            raise ValueError(f"template {template.stage!r} has no single last marker")
        asks = [m.start() for m in _ASK_LINE_RE.finditer(template.body)]
        if len(asks) > 1:
            raise ValueError(f"template {template.stage!r} holds {len(asks)} ask lines")
        cut, last = asks[0] if asks else 0, markers[-1]
        self.stage = template.stage
        self.head = render_prompt(PromptTemplate(self.stage, template.body[:cut]), fixed)
        rest = render_prompt(PromptTemplate(self.stage, template.body[cut : last.start()]), fixed)
        self._prefix = self.head + rest
        self._tail = template.body[last.end() :]
        self._fields = {
            "model_id": model_id, "temperature": template.temperature, "max_tokens": template.max_tokens
        }
        # only the key can hold this text: a string value escapes its quotes
        doc = _key_json(request_doc(CompletionRequest(prompt="", **self._fields)))
        opening, _, closing = doc.partition('"prompt":""')
        prefix = opening + '"prompt":"' + _escape(self._prefix)[1:-1]
        self._prefix_state = hashlib.sha256(prefix.encode("utf-8"))
        self._closing = (_escape(self._tail)[1:-1] + '"' + closing).encode("utf-8")

    def request(self, value: str) -> CompletionRequest:
        state = self._prefix_state.copy()
        state.update(_escape(value)[1:-1].encode("utf-8"))
        state.update(self._closing)
        return CompletionRequest(
            prompt=self._prefix + value + self._tail, stage=self.stage, head=self.head,
            key=state.hexdigest(), **self._fields,
        )


def http_transport(req: CompletionRequest) -> str:
    """Default record-mode transport: JSON POST to LLM_API_URL with a bearer key."""
    url = os.environ.get("LLM_API_URL", "")
    if not url:
        raise EndpointError("no completion endpoint configured (LLM_API_URL)")
    key = os.environ.get("LLM_API_KEY", "")
    if not key:
        raise AuthMissingError("no completion credential configured (LLM_API_KEY)")
    doc = request_doc(req)
    body = json.dumps({"model": doc.pop("model_id"), **doc}).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json", "Authorization": f"Bearer {key}"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60.0) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
    except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as exc:
        raise EndpointError(str(exc)) from exc
    if "text" not in payload:
        raise EndpointError("endpoint response lacks a text field")
    return payload["text"]


class LlmGateway:
    """Mode-aware completion client with an append-only response cache.

    The cache key is a pure function of (prompt, model_id, temperature,
    max_tokens, stop); repeated sampling of one prompt therefore appends
    multiple records under one key, and replay serves them in call order.
    A record-mode gateway holds its cache file open once it has appended;
    close it with `close` or by using it as a context manager.
    """

    def __init__(self, mode: str = "replay", cache_path: str | None = None, transport=None):
        if mode not in ("replay", "record"):
            raise ValueError(f"unknown gateway mode {mode!r}")
        self.mode = mode
        self.cache_path = cache_path
        self.transport = transport or http_transport
        self._cache: dict[str, list[str]] = {}
        self._cursors: dict[str, int] = {}
        if cache_path and os.path.exists(cache_path):
            self._cache = load_responses(cache_path)
        self._writer = CacheWriter(cache_path) if mode == "record" and cache_path else None

    def close(self) -> None:
        """Close the cache file that record mode appends to."""
        if self._writer is not None:
            self._writer.close()

    def __enter__(self) -> LlmGateway:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def reset_replay_cursors(self) -> None:
        self._cursors = {}

    def _append_record(self, key: str, req: CompletionRequest, response: str) -> None:
        if self._writer is not None:
            self._writer.append({"key": key, "request": request_doc(req), "response": response}, req.head)
        self._cache.setdefault(key, []).append(response)

    def complete(self, req: CompletionRequest) -> str:
        """Serve `req` under the key it carries, such as the one
        `TailSlotPrompt.request` gives it, or `cache_key(req)` when it
        carries none.

        The calls of one key are served its recorded responses in call
        order. Past the last one, record mode asks the transport and appends
        its answer, and replay repeats the last; a key with none is a
        `CacheMissError` in replay."""
        key = req.key
        if key is None:
            key = cache_key(req)
        responses = self._cache.get(key, ())
        cursor = self._cursors.get(key, 0)
        if cursor >= len(responses):
            if self.mode == "record":
                self._append_record(key, req, self.transport(req))
                responses = self._cache[key]
            elif not responses:
                raise CacheMissError(f"no recorded response for request {key[:12]}…")
        self._cursors[key] = cursor + 1
        return responses[min(cursor, len(responses) - 1)]


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------

_CLASS_LINE = re.compile(r"^class\s+([A-Za-z_][A-Za-z0-9_]*)\s*(\(\s*\))?\s*:\s*$")
_FENCE_RE = re.compile(r"```(?:[a-zA-Z0-9_]+)?\n(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class InitializationDecision:
    feasible: bool
    program: str | None
    proposals: tuple[tuple[ModuleSignature, str], ...]


def _first_program_block(lines: list[str]) -> str | None:
    block: list[str] = []
    for line in lines:
        if STATEMENT_LINE_RE.match(line.strip()):
            block.append(line.strip())
        elif block:
            break
    return "\n".join(block) if block else None


def _class_blocks(text: str) -> list[str]:
    lines = text.split("\n")
    starts = [i for i, line in enumerate(lines) if _CLASS_LINE.match(line)]
    blocks = []
    for idx, start in enumerate(starts):
        limit = starts[idx + 1] if idx + 1 < len(starts) else len(lines)
        end = limit
        for j in range(start + 1, limit):
            line = lines[j]
            if line.strip() and not line.startswith((" ", "\t")):
                end = j
                break
        blocks.append("\n".join(lines[start:end]).rstrip())
    return blocks


@lru_cache(maxsize=256)
def parse_initialization_response(text: str) -> InitializationDecision:
    """Structure a stage-1 response: feasible-with-program or new proposals.

    The decision of each of the last 256 distinct texts is kept and returned
    again for the same text, so an unparseable proposal block is logged once
    per distinct text; callers share the decision, which its frozen classes
    make safe. A `ResponseParseError` is raised again on every call."""
    lines = text.split("\n")
    decision_idx = None
    decision = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.lower().startswith("yes"):
            decision, decision_idx = "yes", i
            break
        if stripped.lower().startswith("no"):
            decision, decision_idx = "no", i
            break
    if decision is None:
        raise ResponseParseError("UNPARSEABLE_DECISION: response starts with neither Yes nor No")

    if decision == "yes":
        program = _first_program_block(lines[decision_idx + 1 :])
        if program is None:
            raise ResponseParseError("UNPARSEABLE_DECISION: feasible response carries no program")
        return InitializationDecision(feasible=True, program=program, proposals=())

    proposals: list[tuple[ModuleSignature, str]] = []
    for block in _class_blocks("\n".join(lines[decision_idx + 1 :])):
        try:
            sig = parse_signature_block(block)
        except SignatureParseError:
            logger.warning("skipping unparseable proposal block in stage-1 response")
            continue
        proposals.append((sig, block))
    if not proposals:
        raise ResponseParseError(
            "UNPARSEABLE_DECISION: infeasible response carries no parseable module header"
        )
    return InitializationDecision(feasible=False, program=None, proposals=tuple(proposals))


def extract_module_source(text: str) -> str:
    """Pull the implementation block out of a stage-2/repair response."""
    fenced = _FENCE_RE.findall(text)
    if fenced:
        if len(fenced) > 1:
            logger.warning("response contains %d fenced blocks; keeping the first", len(fenced))
        return fenced[0].strip("\n")
    blocks = _class_blocks(text)
    if not blocks:
        raise ResponseParseError("NO_CODE_FOUND: response contains no module implementation")
    if len(blocks) > 1:
        logger.warning("response contains %d class blocks; keeping the first", len(blocks))
    return blocks[0]


def parse_program_response(text: str) -> str:
    """Extract the program block from a stage-3 response."""
    program = _first_program_block(text.split("\n"))
    if program is None:
        raise ResponseParseError("NO_CODE_FOUND: response contains no program lines")
    return program
