"""The one replay-cache format: JSON Lines of head records and call records.

Stage-1 and stage-3 prompts repeat one long head, the module catalogue and
the worked examples, and differ only in their question; the K samples and
the repairs of one stage-2 proposal repeat its API doc and training cases.
The code that builds a prompt knows where its head ends: each request
carries its head, the template text above the line that asks the question
or names the module (`modgrow.gateway.TailSlotPrompt`), and the writer
stores the prompt as that head and the tail after it. The model's answers
repeat too: one stage-1 decision serves many training queries, one stage-3
program many test questions. So each distinct response text is stored once
as well:

- A head record holds a head's text, ``head``, and its SHA-256,
  ``head_sha256``. A file holds each head once, before the first call
  record that names it.
- A call record holds the call's ``key`` (a hash of its whole request,
  `modgrow.gateway.cache_key`), ``head_sha256``, the ``request`` with only
  the prompt's tail after that head, and its response. The first call
  record of a file with a given response text holds the text inline, as
  ``response``; every later one holds only ``response_sha256``, the text's
  SHA-256, written as ``head_sha256`` is. A record carries no time, so the
  same session records the same bytes.
- A call record without ``head_sha256`` holds its whole prompt: a request
  without a head is stored so, and so is every record of a cache written
  before heads were split out. Every record of a cache written before
  responses were stored once holds its response inline. Such caches load
  as before, and recording onto one appends records of this format, whose
  ``response_sha256`` may name an old inline copy.

`Resolver` turns a call record back into its whole request and its
response text. Replay reads only ``key`` and the response; a key called
more than once keeps its responses in call order. A call record without a
key or a response, or whose ``response_sha256`` names no earlier inline
text, is an error naming its line, and so is a head record whose text does
not match its hash. A crash during an append can leave a torn last line
without its newline, a head record as well as a call record: loading drops
it with a warning (a bad line anywhere else is an error), and the next
append cuts it and writes a cut head, or a cut response's only inline
copy, again when a call needs it.

`canonical_json` is the one encoding of a record, a split-file line and
an item of a `records` gold: sorted keys, as `json.dumps(x, sort_keys=True)`
gives, from one encoder built once rather than on every call.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Iterable, Iterator

logger = logging.getLogger(__name__)

# the encoder `json.dumps(x, sort_keys=True)` builds anew on every call
canonical_json = json.JSONEncoder(sort_keys=True).encode


def text_sha256(text: str) -> str:
    """The hash a head record or a ``response_sha256`` gives for `text`."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_records(path) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each record of the cache at `path`, in file
    order, head records included."""
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if line.endswith("\n"):
                    raise ValueError(f"{path}: line {number} is not a cache record: {exc}") from exc
                logger.warning("%s: dropping torn last line %d (%d bytes)", path, number, len(line))
                return
            yield number, record


class Resolver:
    """Turns the call records of the cache at `path`, taken in file order,
    back into whole requests and response texts.

    It learns each head record and each inline response as they pass, so a
    record resolves against the records before it. A fault is a ValueError
    whose message starts with the path and the line.
    """

    def __init__(self, path):
        self.path = path
        self.heads: dict[str, str] = {}  # hash -> text of each head record
        self.texts: dict[str, str] = {}  # hash -> first inline copy of each response text

    def calls(self, records: Iterable[tuple[int, dict]]) -> Iterator[tuple[int, dict, object]]:
        """(line number, call record, response text) for each call record of
        `records`; a head record whose text does not match its hash is a
        fault too."""
        for number, record in records:
            if "head" in record:
                if text_sha256(record["head"]) != record.get("head_sha256"):
                    raise self._fault(number, "head text does not match its hash")
                self.heads[record["head_sha256"]] = record["head"]
                continue
            if "key" not in record:
                raise self._fault(number, "call record has no key")
            yield number, record, self._response(number, record)

    def request(self, number: int, record: dict) -> dict:
        """The request of call `record`, at line `number`, with its whole prompt."""
        if "request" not in record:
            raise self._fault(number, f"key {record['key'][:12]}… has no request")
        request = record["request"]
        digest = record.get("head_sha256")
        if digest is None:
            return request
        head = self.heads.get(digest)
        if head is None:
            raise self._fault(number, f"head {digest[:12]}… is missing")
        return {**request, "prompt": head + request["prompt"]}

    def _response(self, number: int, record: dict):
        """One str per distinct text, however many inline copies the file holds."""
        if "response" in record:
            text = record["response"]
            if isinstance(text, str):
                text = self.texts.setdefault(text_sha256(text), text)
            return text
        digest = record.get("response_sha256")
        if digest is None:
            raise self._fault(number, f"key {record['key'][:12]}… has no response")
        text = self.texts.get(digest)
        if text is None:
            raise self._fault(number, f"response {digest[:12]}… has no earlier inline copy")
        return text

    def _fault(self, number: int, message: str) -> ValueError:
        return ValueError(f"{self.path}: line {number}: {message}")


def load_responses(path) -> dict[str, list]:
    """Each key of the cache at `path`, mapped to its responses in file order."""
    responses: dict[str, list] = {}
    for _, record, response in Resolver(path).calls(read_records(path)):
        responses.setdefault(record["key"], []).append(response)
    return responses


def _line(record: dict) -> bytes:
    return canonical_json(record).encode("utf-8") + b"\n"


class CacheWriter:
    """Appends call records to the cache at `path`, writing each head and
    each response text inline once.

    The file opens on the first append and stays open until `close`; a later
    append opens it again. Each append reaches the file before it returns.
    """

    def __init__(self, path):
        self.path = path
        self._fh = None
        self._heads: dict[str, str] = {}  # text -> hash of each head in the file
        self._texts: dict[str, str] = {}  # text -> hash of each response inline in the file

    def append(self, record: dict, head: str = "") -> None:
        """Append call `record`, whose request, if it has one, holds the whole
        prompt, and whose ``response`` holds the whole text. A `head`, a
        prefix of that prompt (else ValueError), is written in a head record
        unless the file holds it, and the call record holds only the prompt
        after it; with no head the record holds the whole prompt."""
        if self._fh is None:
            self._open()
        if head:
            request = record["request"]
            if not request["prompt"].startswith(head):
                raise ValueError("the head is not a prefix of the prompt")
            digest = self._heads.get(head)
            if digest is None:
                digest = text_sha256(head)
                self._fh.write(_line({"head": head, "head_sha256": digest}))
                self._heads[head] = digest
            tail = request["prompt"][len(head) :]
            record = {**record, "head_sha256": digest, "request": {**request, "prompt": tail}}
        response = record.get("response")
        if isinstance(response, str):
            digest = self._texts.get(response)
            if digest is None:
                self._texts[response] = text_sha256(response)
            else:
                record = {name: value for name, value in record.items() if name != "response"}
                record["response_sha256"] = digest
        self._fh.write(_line(record))
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _open(self) -> None:
        fh = open(self.path, "ab+")
        try:
            fh.seek(0)
            data = fh.read()
            if data and not data.endswith(b"\n"):
                _end_last_line(fh, data)
                fh.flush()
            # built anew on each open from what the cut left, so a head or a
            # text whose only copy was cut is written again
            resolver = Resolver(self.path)
            for _ in resolver.calls(read_records(self.path) if data else ()):
                pass
            self._heads = {text: digest for digest, text in resolver.heads.items()}
            self._texts = {text: digest for digest, text in resolver.texts.items()}
        except BaseException:
            fh.close()
            raise
        self._fh = fh


def _end_last_line(fh, data: bytes) -> None:
    """Terminate a last line that lacks its newline, or cut it off if it is torn."""
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        logger.warning("%s: cutting torn last line (%d bytes)", fh.name, len(data) - start)
        fh.truncate(start)
    else:
        fh.write(b"\n")
