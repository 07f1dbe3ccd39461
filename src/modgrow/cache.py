"""The one replay-cache format: JSON Lines of head records and call records.

Stage-1 and stage-3 prompts repeat one long head, the module catalogue and
the worked examples, and differ only in their question; the K samples and
the repairs of one stage-2 proposal repeat its API doc and training cases.
So a prompt is stored as a head and a tail, cut by `split_prompt` at the
last of its `HEAD_MARKERS`:

- A head record holds a head's text, ``head``, and its SHA-256,
  ``head_sha256``. A file holds each head once, before the first call
  record that names it.
- A call record holds the call's ``key`` (a hash of its whole request,
  `modgrow.gateway.cache_key`), ``head_sha256``, the ``request`` with only
  the prompt's tail after that head, the ``response`` and a ``timestamp``.
  `whole_request` joins head and tail again.
- A call record without ``head_sha256`` holds its whole prompt: a prompt
  with no marker is stored so, and so is every record of a cache written
  before heads were split out. Such caches load as before, and recording
  onto one appends records of this format.

Replay reads only ``key`` and ``response``; a key called more than once
keeps its responses in call order. A crash during an append can leave a
torn last line without its newline, a head record as well as a call record:
loading drops it with a warning (a bad line anywhere else is an error), and
the next append cuts it and writes a cut head again when a call needs it.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Iterator

logger = logging.getLogger(__name__)

# The last line of each template that starts its varying part: the new
# question (stage 1 and stage 3), the module ask (stage 2) and the module to
# fix (repair). Everything before it is the head.
HEAD_MARKERS = (
    "\nQuestion:",
    "\nGiven the above APIs, could you write a new module, ",
    "\nYou previously wrote a module, ",
)


def split_prompt(prompt: str) -> tuple[str, str]:
    """(head, tail) of `prompt`, cut at the last marker; the head is empty
    when the prompt has none."""
    cut = max(prompt.rfind(marker) for marker in HEAD_MARKERS)
    if cut <= 0:
        return "", prompt
    return prompt[:cut], prompt[cut:]


def whole_request(record: dict, heads: dict[str, str]) -> dict:
    """The request of call `record` with its whole prompt; `heads` maps head
    hashes to texts and raises KeyError for a head it lacks."""
    request = record["request"]
    if "head_sha256" not in record:
        return request
    return {**request, "prompt": heads[record["head_sha256"]] + request["prompt"]}


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


def load_responses(path) -> dict[str, list]:
    """Each key of the cache at `path`, mapped to its responses in file order."""
    responses: dict[str, list] = {}
    for _, record in read_records(path):
        if "head" not in record:
            responses.setdefault(record["key"], []).append(record["response"])
    return responses


def _line(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"


class CacheWriter:
    """Appends call records to the cache at `path`, writing each head once.

    The file opens on the first append and stays open until `close`; a later
    append opens it again. Each append reaches the file before it returns.
    """

    def __init__(self, path):
        self.path = path
        self._fh = None
        self._heads: dict[str, str] = {}  # text -> hash of each head in the file

    def append(self, record: dict) -> None:
        """Append call `record`, whose request, if it has one, holds the whole prompt."""
        if self._fh is None:
            self._open()
        request = record.get("request") or {}
        head, tail = split_prompt(request.get("prompt", ""))
        if head:
            digest = self._heads.get(head)
            if digest is None:
                digest = hashlib.sha256(head.encode("utf-8")).hexdigest()
                self._fh.write(_line({"head": head, "head_sha256": digest}))
                self._heads[head] = digest
            record = {**record, "head_sha256": digest, "request": {**request, "prompt": tail}}
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
            self._heads = {
                record["head"]: record["head_sha256"]
                for _, record in (read_records(self.path) if data else ())
                if "head" in record
            }
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
