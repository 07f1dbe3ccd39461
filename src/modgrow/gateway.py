"""Completion gateway: prompt rendering, cached calls, response parsing.

Prompts are plain-text template files with ``__SLOT__`` markers filled by
byte-exact substitution. Completions run in one of two modes: ``replay``
(served from the cache only; a miss is an error) and ``record`` (served
from the cache while it holds a response, else from the transport, by
default a POST to a configured endpoint, and appended to the cache file
keyed by a request hash, each prompt head stored once in the format of
`modgrow.cache`; `LlmGateway.close` releases the file). Because sampled
candidates share one prompt, the cache keeps a FIFO of responses per key
and replay consumes them in call order.

A request's key is the SHA-256 of its `request_doc` as compact JSON with
sorted keys (`cache_key`). Stage-1 and stage-3 prompts repeat one long head,
the module catalogue and the worked examples, and differ only in the
question, which is the template's last marker. `TailSlotPrompt` keys them
without escaping the head again: it feeds a hash with the JSON text up to
the opening quote of ``"prompt"`` and the escaped head once, then for
each request copies that hash and feeds the copy the escaped question, the
escaped tail and the closing fields. This is `cache_key` of the same
request: with sorted keys ``prompt`` follows ``max_tokens`` and
``model_id``, and JSON escapes a string character by character, so the
escape of a concatenation is the concatenation of the escapes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
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

_TEMPLATE_FILES = {
    "initialization": "stage1_initialization.txt",
    "generation": "stage2_generation.txt",
    "execution": "stage3_execution.txt",
    "repair": "repair.txt",
}

_SLOT_RE = re.compile(r"__([A-Z][A-Z0-9_]*)__")

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

    def slot_names(self) -> set[str]:
        return set(_SLOT_RE.findall(self.body))


def load_template(stage: str) -> PromptTemplate:
    if stage not in _TEMPLATE_FILES:
        raise ValueError(f"unknown prompt stage {stage!r}")
    body = resources.files("modgrow.templates").joinpath(_TEMPLATE_FILES[stage]).read_text("utf-8")
    return PromptTemplate(stage=stage, body=body)


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
    prompt: str
    model_id: str
    temperature: float = 0.0
    max_tokens: int = 1024
    stop: tuple[str, ...] | None = None

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
    varies, keyed as `cache_key` keys them without escaping the rest again.

    The head, the template up to that marker with its `fixed` slots filled,
    is rendered by `render_prompt` and hashed once; `request(value)` returns
    the request with `value` in the slot, and its key.
    """

    def __init__(
        self,
        template: PromptTemplate,
        fixed: dict[str, str],
        varying: str,
        model_id: str,
        temperature: float = 0.0,
        max_tokens: int = 1024,
        stop: tuple[str, ...] | None = None,
    ):
        markers = list(_SLOT_RE.finditer(template.body))
        names = [m.group(1) for m in markers]
        if names[-1:] != [varying] or varying in names[:-1]:
            raise ValueError(
                f"template {template.stage!r}: slot {varying!r} is not the single last marker"
            )
        last = markers[-1]
        self._head = render_prompt(PromptTemplate(template.stage, template.body[: last.start()]), fixed)
        self._tail = template.body[last.end() :]
        self._fields = {
            "model_id": model_id, "temperature": temperature, "max_tokens": max_tokens, "stop": stop
        }
        # only the key can hold this text: a string value escapes its quotes
        doc = _key_json(request_doc(CompletionRequest(prompt="", **self._fields)))
        opening, _, closing = doc.partition('"prompt":""')
        head = opening + '"prompt":"' + _escape(self._head)[1:-1]
        self._head_state = hashlib.sha256(head.encode("utf-8"))
        self._closing = (_escape(self._tail)[1:-1] + '"' + closing).encode("utf-8")

    def request(self, value: str) -> tuple[CompletionRequest, str]:
        state = self._head_state.copy()
        state.update(_escape(value)[1:-1].encode("utf-8"))
        state.update(self._closing)
        request = CompletionRequest(prompt=self._head + value + self._tail, **self._fields)
        return request, state.hexdigest()


def http_transport(req: CompletionRequest) -> str:
    """Default record-mode transport: JSON POST to LLM_API_URL with a bearer key."""
    url = os.environ.get("LLM_API_URL", "")
    if not url:
        raise EndpointError("no completion endpoint configured (LLM_API_URL)")
    key = os.environ.get("LLM_API_KEY", "")
    if not key:
        raise AuthMissingError("no completion credential configured (LLM_API_KEY)")
    body = json.dumps(
        {
            "model": req.model_id,
            "prompt": req.prompt,
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
            "stop": list(req.stop) if req.stop else None,
        }
    ).encode("utf-8")
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
        record = {
            "key": key,
            "request": request_doc(req),
            "response": response,
            "timestamp": int(time.time()),  # whole seconds: same work, same bytes
        }
        if self._writer is not None:
            self._writer.append(record)
        self._cache.setdefault(key, []).append(response)

    def complete(self, req: CompletionRequest, key: str | None = None) -> str:
        """Serve `req`; `key`, when given, must be `cache_key(req)`, such as
        the key `TailSlotPrompt.request` returns with the request."""
        if key is None:
            key = cache_key(req)
        if self.mode == "replay":
            responses = self._cache.get(key)
            if not responses:
                raise CacheMissError(f"no recorded response for request {key[:12]}…")
            cursor = self._cursors.get(key, 0)
            # repeated identical requests replay the recorded sequence,
            # then stick on the final response
            response = responses[min(cursor, len(responses) - 1)]
            self._cursors[key] = cursor + 1
            return response

        cursor = self._cursors.get(key, 0)
        cached = self._cache.get(key, [])
        if cursor < len(cached):
            self._cursors[key] = cursor + 1
            return cached[cursor]
        response = self.transport(req)
        self._append_record(key, req, response)
        self._cursors[key] = cursor + 1
        return response


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


def parse_initialization_response(text: str) -> InitializationDecision:
    """Structure a stage-1 response: feasible-with-program or new proposals."""
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
        raise ResponseParseError("UNPARSEABLE_DECISION", "response starts with neither Yes nor No")

    if decision == "yes":
        program = _first_program_block(lines[decision_idx + 1 :])
        if program is None:
            raise ResponseParseError("UNPARSEABLE_DECISION", "feasible response carries no program")
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
            "UNPARSEABLE_DECISION", "infeasible response carries no parseable module header"
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
        raise ResponseParseError("NO_CODE_FOUND", "response contains no module implementation")
    if len(blocks) > 1:
        logger.warning("response contains %d class blocks; keeping the first", len(blocks))
    return blocks[0]


def parse_program_response(text: str) -> str:
    """Extract the program block from a stage-3 response."""
    program = _first_program_block(text.split("\n"))
    if program is None:
        raise ResponseParseError("NO_CODE_FOUND", "response contains no program lines")
    return program
