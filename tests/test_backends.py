from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrow.backends import SyntheticBackend
from modgrow.errors import BackendError
from modgrow.scene import ImageHandle, intersect_boxes

from conftest import make_scene, obj


@pytest.fixture()
def camel_image():
    return ImageHandle.of_scene(
        make_scene(obj("c", "camel", (261, 160, 525, 299), color="brown"))
    )


class TestLocate:
    def test_single_camel(self, backend, camel_image):
        assert backend.locate(camel_image, "camel") == [(261, 160, 525, 299)]

    def test_absent_category_empty(self, backend, camel_image):
        assert backend.locate(camel_image, "unicorn") == []

    def test_sorted_by_area_descending(self, backend):
        image = ImageHandle.of_scene(
            make_scene(
                obj("small", "cat", (0, 0, 10, 10)),
                obj("big", "cat", (20, 20, 40, 40)),
            )
        )
        assert backend.locate(image, "cats") == [(20, 20, 40, 40), (0, 0, 10, 10)]

    def test_results_are_viewport_relative(self, backend, camel_image):
        cropped = camel_image.crop((200, 100, 640, 480))
        boxes = backend.locate(cropped, "camel")
        assert boxes == [(61, 60, 325, 199)]


class TestAnswerQuestion:
    def test_color_lookup(self, backend, coat_image):
        assert backend.answer_question(coat_image, "What color is the coat?") == "black"

    def test_count_with_plural(self, backend):
        image = ImageHandle.of_scene(
            make_scene(*[obj(f"s{i}", "sandwich", (i * 50, 10, i * 50 + 40, 50)) for i in range(3)])
        )
        assert backend.answer_question(image, "How many sandwiches?") == "3"

    def test_who_is_carrying(self, backend):
        image = ImageHandle.of_scene(
            make_scene(
                obj("p", "woman", (10, 10, 100, 200), tags=["carrying the umbrella"]),
                obj("u", "umbrella", (30, 20, 80, 60), depth=0.3),
            )
        )
        assert backend.answer_question(image, "Who is carrying the umbrella?") == "woman"

    def test_unknown_pattern(self, backend, coat_image):
        assert backend.answer_question(coat_image, "Why is the sky blue?") == "unknown"

    def test_wildcard_object(self, backend, coat_image):
        assert backend.answer_question(coat_image, "How many objects are in the image?") == "1"


class TestScoreAlignment:
    def test_attribute_overlap_orders_texts(self, backend, coat_image):
        thick, thin = backend.score_alignment(coat_image, ["a thick coat", "a thin coat"])
        assert thick > thin

    def test_empty_text_scores_zero(self, backend, coat_image):
        assert backend.score_alignment(coat_image, [""]) == [0.0]

    def test_unrelated_text_scores_zero(self, backend, coat_image):
        assert backend.score_alignment(coat_image, ["quantum turbine"]) == [0.0]


class TestDepth:
    def test_object_and_background_cells(self, backend):
        image = ImageHandle.of_scene(
            make_scene(obj("a", "cat", (0, 0, 10, 10), depth=0.3), width=30, height=30)
        )
        grid = backend.depth_of(image)
        assert grid.at(5, 5) == 0.3
        assert grid.at(20, 20) == 1.0

    def test_median_over_unoccluded_box_equals_depth(self, backend):
        import statistics

        image = ImageHandle.of_scene(
            make_scene(obj("a", "cat", (5, 5, 15, 15), depth=0.42), width=40, height=40)
        )
        grid = backend.depth_of(image)
        assert statistics.median(grid.region((5, 5, 15, 15))) == pytest.approx(0.42)

    def test_empty_scene_all_background(self, backend):
        image = ImageHandle.of_scene(make_scene(width=8, height=8))
        assert set(backend.depth_of(image).values) == {1.0}

    def test_nearest_object_wins_overlap(self, backend):
        image = ImageHandle.of_scene(
            make_scene(
                obj("far", "cat", (0, 0, 10, 10), depth=0.9),
                obj("near", "dog", (0, 0, 10, 10), depth=0.2),
                width=12, height=12,
            )
        )
        assert backend.depth_of(image).at(5, 5) == 0.2


class TestInpaint:
    def test_replace_renames_covered_object(self, backend):
        image = ImageHandle.of_scene(make_scene(obj("d", "dog", (10, 10, 60, 60), color="brown")))
        edited = backend.inpaint_region(image, [(10, 10, 60, 60)], "a cat")
        assert len(edited.edits) == 1
        assert edited.scene.objects[0].name == "cat"
        assert image.scene.objects[0].name == "dog"  # input unchanged

    def test_empty_mask_logs_edit_only(self, backend):
        image = ImageHandle.of_scene(make_scene(obj("d", "dog", (10, 10, 60, 60))))
        edited = backend.inpaint_region(image, [], "a cat")
        assert len(edited.edits) == 1
        assert edited.scene.objects[0].name == "dog"

    def test_out_of_bounds_mask(self, backend):
        image = ImageHandle.of_scene(make_scene(obj("d", "dog", (10, 10, 60, 60))))
        with pytest.raises(BackendError) as err:
            backend.inpaint_region(image, [(0, 0, 9999, 50)], "a cat")
        assert str(err.value).startswith("OUT_OF_BOUNDS: ")

    def test_attribute_rewrite(self, backend):
        image = ImageHandle.of_scene(make_scene(obj("d", "dog", (10, 10, 60, 60), color="brown")))
        edited = backend.inpaint_region(image, [(10, 10, 60, 60)], "a blue dog")
        assert edited.scene.objects[0].attributes["color"] == "blue"


class TestGeneralText:
    def test_coat_description_fixture(self, backend):
        prompt = "Tell me the attributes when the coat is thick in one sentence."
        assert backend.general_text(prompt) == "a thick coat is heavy, padded, warm"

    def test_same_color_yes_no(self, backend):
        q = "Can the black be regarded as the same color as black? You should just reply yes or no without any other words."
        assert backend.general_text(q) == "yes"
        q2 = q.replace("as black?", "as white?")
        assert backend.general_text(q2) == "no"

    def test_unmatched_prompt_echoes(self, backend):
        assert backend.general_text("What a day") == "What a day"

    def test_knowledge_list(self, backend):
        lines = backend.general_text("Name 3 kinds of fruit.").split("\n")
        assert lines[:3] == ["apple", "banana", "cherry"]


class TestDeterminismAndComposition:
    def test_identical_requests_identical_responses(self, backend, coat_image):
        a = backend.score_alignment(coat_image, ["a thick coat"])
        b = backend.score_alignment(coat_image, ["a thick coat"])
        assert a == b

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_viewport_composition(self, seed):
        rng = random.Random(seed)
        backend = SyntheticBackend()
        objects = []
        for i in range(rng.randint(1, 5)):
            x1 = rng.randint(0, 500)
            y1 = rng.randint(0, 380)
            objects.append(
                obj(f"o{i}", "cat", (x1, y1, x1 + rng.randint(10, 120), y1 + rng.randint(10, 90)))
            )
        image = ImageHandle.of_scene(make_scene(*objects))
        cx1 = rng.randint(0, 500)
        cy1 = rng.randint(0, 380)
        crop_box = (cx1, cy1, cx1 + rng.randint(20, 140), cy1 + rng.randint(20, 100))
        cropped = image.crop(crop_box)
        direct = set(backend.locate(cropped, "cat"))
        expected = set()
        for box in backend.locate(image, "cat"):
            clipped = intersect_boxes(tuple(box), cropped.crop_box)
            if clipped:
                expected.add(cropped.to_relative(clipped))
        assert direct == expected

    def test_locate_within_viewport(self, backend):
        image = ImageHandle.of_scene(make_scene(obj("a", "cat", (100, 100, 300, 300))))
        cropped = image.crop((150, 150, 250, 250))
        for box in backend.locate(cropped, "cat"):
            assert 0 <= box[0] < box[2] <= cropped.width
            assert 0 <= box[1] < box[3] <= cropped.height
