from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrow import values as V
from modgrow.harness.datasets import Verdict, judge_of
from modgrow.harness.metrics import iou, match_region_sets, match_tag, precision_recall_f1, set_items


class TestIou:
    def test_identity_is_one(self):
        assert iou([3, 4, 50, 60], [3, 4, 50, 60]) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert iou([0, 0, 10, 10], [20, 20, 30, 30]) == 0.0

    def test_hand_case_one_third(self):
        assert iou([0, 0, 10, 10], [5, 0, 15, 10]) == pytest.approx(1 / 3, abs=1e-9)

    _box = st.tuples(
        st.integers(0, 80), st.integers(0, 80), st.integers(1, 40), st.integers(1, 40)
    ).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))

    @given(a=_box, b=_box)
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        ab, ba = iou(a, b), iou(b, a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0
        assert (ab == pytest.approx(1.0)) == (a == b)

    @given(a=_box)
    @settings(max_examples=100, deadline=None)
    def test_monotone_under_shrinking_non_overlap(self, a):
        # widening a disjoint gap can only lower the score against a fixed box
        x1, y1, x2, y2 = a
        base = (x2 + 5, y1, x2 + 5 + (x2 - x1), y2)
        nearer = iou(a, base)
        farther = iou(a, (base[0] + 10, base[1], base[2] + 10, base[3]))
        assert farther <= nearer


class TestF1:
    @given(
        correct=st.integers(0, 50),
        extra_pred=st.integers(0, 50),
        extra_gold=st.integers(0, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_f1_identity(self, correct, extra_pred, extra_gold):
        metrics = precision_recall_f1(correct, correct + extra_pred, correct + extra_gold)
        p, r, f1 = metrics["precision"], metrics["recall"], metrics["f1"]
        if p + r > 0:
            assert f1 == pytest.approx(2 * p * r / (p + r))
        else:
            assert f1 == 0.0

    def test_hand_counts(self):
        metrics = precision_recall_f1(15, 20, 20)
        assert metrics == {"precision": 0.75, "recall": 0.75, "f1": 0.75}


class TestMatchTag:
    def test_normalization(self):
        assert match_tag("The Eiffel Tower", "eiffel tower")
        assert not match_tag("Obama", "Biden")
        assert match_tag("A  Cat!", "cat")

    def test_greedy_matching_consumes_gold_once(self):
        preds = [([0, 0, 10, 10], "a"), ([0, 0, 10, 10], "a")]
        golds = [{"box": [0, 0, 10, 10], "label": "a"}]
        correct = match_region_sets(
            preds, golds, lambda p, g: iou(p[0], g["box"]) >= 0.5 and match_tag(p[1], g["label"])
        )
        assert correct == 1


class TestSetItems:
    ITEMS = (
        {"size": "large", "color": "red", "shape": "circle"},
        {"zeta": 1, "alpha": {"y": None, "b": [2, 1]}},
        {"name": "café", "text": "naïve 東京 \u2028 \"quoted\""},
        "ünïcode",
        1, 1.0, True, False, None, 0, 0.0,
        [], (), [[]], ((),),
        [1, [2, [3]]], (1, (2, (3,))), [1, (2, [3])],
        {"empty": [], "nested": {"k": ()}},
    )

    @staticmethod
    def reference(items) -> list[str]:
        return sorted(json.dumps(x, sort_keys=True) for x in items)

    @pytest.mark.parametrize("tag", ["list", "box-list", "mask"])
    def test_list_like_items_encode_as_json_dumps_does(self, tag):
        assert set_items(V.Value(tag, self.ITEMS)) == self.reference(self.ITEMS)

    @pytest.mark.parametrize("item", ITEMS)
    def test_a_lone_value_encodes_as_json_dumps_does(self, item):
        assert set_items(V.Value("text", item)) == self.reference([item])

    def test_equal_numbers_of_other_types_stay_apart(self):
        assert set_items(V.Value("list", (1, 1.0, True))) == ["1", "1.0", "true"]
        assert set_items(V.Value("list", ((1, 2), [1, 2]))) == ["[1, 2]", "[1, 2]"]


class TestJudges:
    _box = st.tuples(
        st.integers(0, 80), st.integers(0, 80), st.integers(1, 40), st.integers(1, 40)
    ).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))

    @given(boxes=st.lists(_box, max_size=4), gold=st.one_of(st.none(), _box.map(list)),
           tag=st.sampled_from(["box-list", "mask"]))
    @settings(max_examples=300, deadline=None)
    def test_a_box_verdict_is_the_region_match_of_the_first_box(self, boxes, gold, tag):
        """The verdict of greedy region matching, with the first box as JSON."""
        predictions = [list(b) for b in boxes]
        golds = [gold] if gold else []
        matched = match_region_sets(predictions, golds, lambda p, g: iou(p, g) >= 0.5)
        correct = bool(predictions) and bool(golds) and iou(predictions[0], golds[0]) >= 0.5
        want = Verdict(correct, json.dumps(predictions[:1]), matched, len(predictions), len(golds))
        assert judge_of({"type": "box", "value": gold})(V.Value(tag, tuple(boxes))) == want

    def test_a_box_judge_scores_a_value_without_boxes_as_no_prediction(self):
        verdict = judge_of({"type": "box", "value": [0, 0, 10, 10]})(V.text("[[0, 0, 10, 10]]"))
        assert verdict == Verdict(False, "[]", 0, 0, 1)

    def test_a_list_gold_is_wrong_against_a_value_that_is_not_a_list(self):
        judge = judge_of({"type": "list", "value": ["Rose", "tulip"]})
        assert judge(V.list_value(["rose", "  TULIP "])).correct
        assert not judge(V.text("('rose', 'TULIP')")).correct
        assert not judge(V.text("rose, tulip")).correct
