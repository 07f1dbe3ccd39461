"""Tagged runtime values flowing between program steps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .scene import ImageHandle, is_valid_box

VALUE_TAGS = ("image", "box-list", "mask", "number", "text", "boolean", "list", "null")


@dataclass(frozen=True)
class Value:
    tag: str
    payload: Any = None

    def __post_init__(self):
        if self.tag not in VALUE_TAGS:
            raise ValueError(f"unknown value tag {self.tag!r}")


def image(handle: ImageHandle) -> Value:
    return Value("image", handle)


def box_list(boxes) -> Value:
    return Value("box-list", tuple(tuple(int(v) for v in b) for b in boxes))


def mask(boxes) -> Value:
    return Value("mask", tuple(tuple(int(v) for v in b) for b in boxes))


def number(n) -> Value:
    return Value("number", n)


def text(s: str) -> Value:
    return Value("text", s)


def boolean(b: bool) -> Value:
    return Value("boolean", bool(b))


def list_value(items) -> Value:
    return Value("list", tuple(items))


NULL = Value("null", None)


def tags_compatible(declared: str, actual: str) -> bool:
    """Whether a runtime tag satisfies a declared signature tag."""
    if declared == actual:
        return True
    if declared == "box-list" and actual == "mask":
        return True
    if declared == "list" and actual in ("box-list", "mask"):
        return True
    return False


def infer_value(raw: Any) -> Value:
    """Best-effort coercion of a plain Python value into a tagged Value."""
    if isinstance(raw, Value):
        return raw
    if raw is None:
        return NULL
    if isinstance(raw, ImageHandle):
        return image(raw)
    if isinstance(raw, bool):
        return boolean(raw)
    if isinstance(raw, (int, float)):
        return number(raw)
    if isinstance(raw, str):
        return text(raw)
    if isinstance(raw, (list, tuple)):
        if all(is_valid_box(b) for b in raw) and len(raw) > 0:
            return box_list(raw)
        if len(raw) == 0:
            return box_list(raw)
        return list_value(raw)
    raise TypeError(f"cannot coerce {type(raw).__name__} into a Value")


def coerce_to_tag(raw: Any, declared: str) -> Value | None:
    """Coerce `raw` to a Value matching `declared`, or None when impossible."""
    if isinstance(raw, Value):
        return raw if tags_compatible(declared, raw.tag) else None
    if declared == "image":
        return image(raw) if isinstance(raw, ImageHandle) else None
    if declared == "box-list":
        if isinstance(raw, (list, tuple)) and all(is_valid_box(b) for b in raw):
            return box_list(raw)
        return None
    if declared == "text":
        return text(raw) if isinstance(raw, str) else None
    if declared == "number":
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return number(raw)
        return None
    if declared == "boolean":
        return boolean(raw) if isinstance(raw, bool) else None
    if declared == "list":
        return list_value(raw) if isinstance(raw, (list, tuple)) else None
    return None


def to_plain(value: Value) -> Any:
    """Unwrap a Value into the plain Python object candidate code expects."""
    if value.tag in ("box-list", "mask"):
        return [list(b) for b in value.payload]
    if value.tag == "list":
        return list(value.payload)
    return value.payload


def describe(raw: Any) -> str:
    """`summarize` of a plain value, or `<type name>` when no Value can hold it."""
    try:
        return summarize(infer_value(raw))
    except TypeError:
        return f"<{type(raw).__name__}>"


def summarize(value: Value) -> str:
    """Short human-readable rendering used in step traces and reports."""
    if value.tag == "image":
        h: ImageHandle = value.payload
        return f"image({h.width}x{h.height}, overlays={len(h.overlays)}, edits={len(h.edits)})"
    if value.tag in ("box-list", "mask"):
        boxes = value.payload
        head = ",".join(str(list(b)) for b in boxes[:2])
        suffix = ",..." if len(boxes) > 2 else ""
        return f"{value.tag}[{len(boxes)}]({head}{suffix})"
    if value.tag == "number":
        return f"number:{value.payload}"
    if value.tag == "text":
        return f"text:{value.payload!r}"
    if value.tag == "boolean":
        return f"boolean:{value.payload}"
    if value.tag == "list":
        return f"list[{len(value.payload)}]"
    return "null"
