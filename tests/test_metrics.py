from __future__ import annotations

import collections
import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrow import values as V
from modgrow.cache import canonical_json
from modgrow.harness.datasets import Verdict, judge_of
from modgrow.harness.metrics import (iou, item_counts, json_key, match_region_sets, match_tag,
                                     precision_recall_f1)


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


_NAN, _INF = float("nan"), float("inf")
# few scalars, so that drawn values often write to equal JSON text
_NEAR = (0, 1, 10, 0.0, -0.0, 1.0, 1e16, True, False, None, "", "1", "true", "NaN", "ü", _NAN, -_NAN, _INF, -_INF)
_KEYS = (
    st.sampled_from(["", "1", "10", "2", "true", "NaN", "é"]),
    st.sampled_from([0, 1, 2, 10, True, False, 0.5, -0.0, _NAN, _INF]),
    st.none(),
)
_values = st.recursive(
    st.sampled_from(_NEAR),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        *(st.dictionaries(keys, children, max_size=3) for keys in _KEYS),
    ),
    max_leaves=8,
)


def _key_as_text(key):
    return next(iter(json.loads(canonical_json({key: 0}))))


def _twins(x):
    """Values near `x`: some write to the same text, others differ in a
    number's type or sign, a container's type or a dict key's type."""
    if isinstance(x, (list, tuple)):
        return st.tuples(*map(_twins, x)).flatmap(lambda items: st.sampled_from([list(items), items]))
    if isinstance(x, dict):
        pairs = (st.tuples(st.sampled_from([k, _key_as_text(k)]), _twins(v)) for k, v in x.items())
        return st.tuples(*pairs).map(dict)
    return st.one_of(st.just(x), st.sampled_from(_NEAR))


_REFUSED = object()


def _old_key(x):
    """How `records` judging told items apart before `json_key`: by their
    canonical JSON text; `_REFUSED` where the encoder refuses the value."""
    try:
        return canonical_json(x)
    except TypeError:
        return _REFUSED


def _new_key(x):
    try:
        return json_key(x)
    except TypeError:
        return _REFUSED


class TestJsonKey:
    """`json_key` tells values apart exactly as their canonical JSON texts
    are told apart, and `item_counts` compares sequences as their sorted
    texts were compared, against the encoding itself."""

    ITEMS = (
        {"size": "large", "color": "red", "shape": "circle"},
        {"zeta": 1, "alpha": {"y": None, "b": [2, 1]}},
        {"name": "café", "text": "naïve 東京 \u2028 \"quoted\""},
        "ünïcode",
        1, 1.0, True, False, None, 0, 0.0, -0.0, _NAN, _INF, -_INF, "NaN",
        [], (), [[]], ((),), {}, [{}],
        [1, [2, [3]]], (1, (2, (3,))), [1, (2, [3])],
        {"empty": [], "nested": {"k": ()}},
        {1: "a"}, {"1": "a"}, {True: "a"}, {"true": "a"}, {1.0: "a"}, {"1.0": "a"},
        {_NAN: 0}, {"NaN": 0}, {2: "a", 10: "b"}, {"2": "a", "10": "b"},
        collections.namedtuple("Pair", "a b")(1, 2), [1, 2], collections.OrderedDict(b=1, a=2), {"a": 2, "b": 1},
        enum.IntEnum("Level", "LOW")(1), type("Text", (str,), {})("circle"), "circle",
    )

    @pytest.mark.parametrize("a", ITEMS, ids=repr)
    def test_example_keys_are_equal_exactly_when_the_texts_are(self, a):
        for b in self.ITEMS:
            assert (json_key(a) == json_key(b)) == (canonical_json(a) == canonical_json(b)), b

    def test_equal_numbers_of_other_types_stay_apart(self):
        assert len({json_key(x) for x in (1, 1.0, True, 0, 0.0, -0.0, False)}) == 7
        assert json_key((1, 2)) == json_key([1, 2])
        assert json_key(_NAN) == json_key(-_NAN)

    @pytest.mark.parametrize("value", [{1}, [object()], {1: 0, "a": 0}, {(1,): 0}])
    def test_what_the_encoder_refuses_is_refused(self, value):
        with pytest.raises(TypeError):
            canonical_json(value)
        with pytest.raises(TypeError):
            json_key(value)

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_keys_are_equal_exactly_when_the_texts_are(self, data):
        a = data.draw(_values)
        b = data.draw(_twins(a))
        old, new = (_old_key(a), _old_key(b)), (_new_key(a), _new_key(b))
        assert [k is _REFUSED for k in new] == [k is _REFUSED for k in old]
        if _REFUSED not in old:
            assert (new[0] == new[1]) == (old[0] == old[1])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_counts_are_equal_exactly_when_the_sorted_texts_are(self, data):
        items = data.draw(st.lists(_values, max_size=4))
        others = data.draw(st.tuples(*map(_twins, items)).flatmap(st.permutations))
        try:
            old = [sorted(map(canonical_json, xs)) for xs in (items, others)]
        except TypeError:
            with pytest.raises(TypeError):
                item_counts(items), item_counts(others)
            return
        assert (item_counts(items) == item_counts(others)) == (old[0] == old[1])


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
