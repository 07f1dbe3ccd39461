"""The one replay-cache format: JSON Lines, one record per call.

A gateway record holds the call's ``key`` (a hash of its request), the
``request`` and the ``response``; a key called more than once keeps its
responses in call order. A crash during an append
can leave a torn last line without its newline: loading drops it with a
warning (a bad line anywhere else is an error), and the next append cuts it.
"""

from __future__ import annotations

import json
import logging
import os

logger = logging.getLogger(__name__)


def load_responses(path) -> dict[str, list]:
    """Each key of the cache at `path`, mapped to its responses in file order."""
    responses: dict[str, list] = {}
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
                break
            responses.setdefault(record["key"], []).append(record["response"])
    return responses


def append_record(path, record: dict) -> None:
    """Append `record` to the cache at `path` as one line."""
    with open(path, "ab+") as fh:
        if fh.tell() > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                _end_last_line(fh)
        fh.write(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")


def _end_last_line(fh) -> None:
    """Terminate a last line that lacks its newline, or cut it off if it is torn."""
    fh.seek(0)
    data = fh.read()
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        logger.warning("%s: cutting torn last line (%d bytes)", fh.name, len(data) - start)
        fh.truncate(start)
    else:
        fh.write(b"\n")
