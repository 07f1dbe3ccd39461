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


def set_items(value) -> list[str]:
    """What a `records` gold is compared by: the items of a list-like value,
    or the value alone, each as canonical JSON, sorted."""
    items = value.payload if value.tag in ("box-list", "mask", "list") else [value.payload]
    return sorted(map(canonical_json, items))


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
