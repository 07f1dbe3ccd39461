"""Evaluation metrics: IoU, record sets, tag matching, precision/recall/F1."""

from __future__ import annotations

import re

from ..cache import canonical_json


def iou(a, b) -> float:
    """Intersection over union of two [x1,y1,x2,y2] boxes; 0 when disjoint."""
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    inter = max(0, ix2 - ix1) * max(0, iy2 - iy1)
    if inter == 0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def json_key(x):
    """A hashable key of `x`, equal for two values exactly when
    `cache.canonical_json` writes them as equal text. Lists, strings and
    numbers are keyed without encoding: a list or tuple becomes the tuple of
    its items' keys, and a number its type beside its text, so `1`, `1.0`
    and `True` stay apart, `0.0` and `-0.0` stay apart, and every NaN is one
    key. A dict is keyed by its text. Raises TypeError on what the encoder
    refuses with TypeError."""
    t = type(x)
    if t is tuple or t is list:
        keys = []
        for item in x:  # a loop: before Python 3.12 a comprehension is a call of its own
            keys.append(item if type(item) is str else json_key(item))
        return tuple(keys)
    if t is str or x is None:
        return x
    if isinstance(x, str):
        return str.__str__(x)
    if x is True or x is False:
        return bool, x
    if isinstance(x, int):
        return int, int.__repr__(x)
    if isinstance(x, float):
        return float, float.__repr__(x)  # 'nan' for every NaN, as the encoder writes 'NaN'
    if isinstance(x, (list, tuple)):
        return tuple(map(json_key, x))
    if isinstance(x, dict):
        return dict, canonical_json(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def item_counts(items) -> dict:
    """How often each item occurs, items told apart by `json_key`: two
    sequences get equal counts exactly when their items' canonical JSON
    texts, sorted, are equal."""
    counts: dict = {}
    for item in items:
        key = json_key(item)
        counts[key] = counts.get(key, 0) + 1
    return counts


_ARTICLES = {"a", "an", "the"}


def normalize_tag(text: str) -> str:
    words = [w for w in re.findall(r"[a-z0-9]+", text.lower()) if w not in _ARTICLES]
    return " ".join(words)


def match_tag(pred: str, gold: str) -> bool:
    """Tag comparison: exact match after `normalize_tag`."""
    return normalize_tag(pred) == normalize_tag(gold)


def precision_recall_f1(correct: int, predicted: int, gold: int) -> dict[str, float]:
    precision = correct / predicted if predicted else 0.0
    recall = correct / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def match_region_sets(predictions, golds, matches) -> int:
    """Greedy one-to-one matching; each gold is consumed by at most one prediction."""
    remaining = list(golds)
    correct = 0
    for pred in predictions:
        for i, gold in enumerate(remaining):
            if matches(pred, gold):
                correct += 1
                del remaining[i]
                break
    return correct
