from __future__ import annotations

import random

import pytest

from modgrow import reference_modules as rm
from modgrow.backends import SyntheticBackend
from modgrow.harness.datasets import generate_raven_puzzle
from modgrow.harness.oracle import panel_record
from modgrow.sandbox import invoke_candidate, load_candidate
from modgrow.scene import ImageHandle, SceneGraph, SceneObject, box_area

from conftest import make_scene, obj

COLORS = ["black", "white", "red", "blue", "green", "yellow"]


def handle_for(name: str):
    return load_candidate(rm.FIXTURE_SOURCES[name], signature=rm.fixture_signature(name))


def random_attr_scene(rng: random.Random, name: str, dim: str, values):
    value = rng.choice(values)
    x1, y1 = rng.randint(0, 300), rng.randint(0, 200)
    box = (x1, y1, x1 + rng.randint(60, 200), y1 + rng.randint(60, 180))
    return make_scene(obj("t", name, box, **{dim: value, "color": rng.choice(COLORS)})), value


def largest_named(scene: SceneGraph, name: str):
    matches = [o for o in scene.objects if o.name == name]
    if not matches:
        return None
    return max(matches, key=lambda o: box_area(o.box))


def choose_attribute_oracle(scene: SceneGraph, obj_name: str, attr1: str, attr2: str) -> str:
    obj = largest_named(scene, obj_name)
    values = set(obj.attributes.values()) if obj else set()
    if attr1 in values and attr2 not in values:
        return attr1
    return attr2  # ties and misses fall to the second attribute


class TestChooseAttribute:
    def test_agrees_with_oracle_on_random_scenes(self, backend):
        handle = handle_for("CHOOSE_ATTRIBUTE")
        rng = random.Random(5)
        for i in range(120):
            scene, value = random_attr_scene(rng, "coat", "thickness", ["thick", "thin"])
            image = ImageHandle.of_scene(scene)
            attrs = ["thick", "thin"] if rng.random() < 0.5 else ["thin", "thick"]
            boxes = [list(scene.objects[0].box)] if rng.random() < 0.9 else []
            out = invoke_candidate(handle, [image, boxes, "coat", attrs[0], attrs[1]], backend)
            expected = choose_attribute_oracle(scene, "coat", attrs[0], attrs[1])
            assert out.payload == expected == value

    def test_tie_falls_to_second_attribute(self, backend):
        handle = handle_for("CHOOSE_ATTRIBUTE")
        scene = make_scene(obj("t", "coat", (10, 10, 100, 100)))  # no attribute present
        out = invoke_candidate(
            handle, [ImageHandle.of_scene(scene), [[10, 10, 100, 100]], "coat", "striped", "dotted"],
            backend,
        )
        assert out.payload == "dotted"
        assert choose_attribute_oracle(scene, "coat", "striped", "dotted") == "dotted"


def compare_color_oracle(scene: SceneGraph, obj1: str, obj2: str, compare_type: str) -> str:
    a, b = largest_named(scene, obj1), largest_named(scene, obj2)
    same = (
        a is not None
        and b is not None
        and a.attributes.get("color") == b.attributes.get("color")
    )
    if compare_type == "different":
        return "yes" if not same else "no"
    return "yes" if same else "no"


class TestCompareColor:
    @pytest.mark.parametrize(
        "c1,c2,compare_type,expected",
        [
            ("black", "black", "same", "yes"),
            ("black", "white", "different", "yes"),
            ("black", "black", "different", "no"),
            ("black", "white", "same", "no"),
            ("black", "black", "other", "yes"),  # unknown types behave as same
        ],
    )
    def test_truth_table(self, backend, c1, c2, compare_type, expected):
        handle = handle_for("COMPARE_COLOR")
        scene = make_scene(
            obj("a", "towel", (10, 10, 120, 120), color=c1),
            obj("b", "box", (400, 10, 520, 120), color=c2),
        )
        out = invoke_candidate(
            handle,
            [ImageHandle.of_scene(scene), [[10, 10, 120, 120]], [[400, 10, 520, 120]],
             "towel", "box", compare_type],
            backend,
        )
        assert out.payload == expected
        assert compare_color_oracle(scene, "towel", "box", compare_type) == expected

    def test_agrees_with_oracle_on_random_scenes(self, backend):
        handle = handle_for("COMPARE_COLOR")
        rng = random.Random(11)
        for _ in range(100):
            c1, c2 = rng.choice(COLORS), rng.choice(COLORS)
            compare_type = rng.choice(["same", "different"])
            scene = make_scene(
                obj("a", "towel", (10, 10, 120, 120), color=c1),
                obj("b", "box", (400, 10, 520, 120), color=c2),
            )
            out = invoke_candidate(
                handle,
                [ImageHandle.of_scene(scene), [[10, 10, 120, 120]], [[400, 10, 520, 120]],
                 "towel", "box", compare_type],
                backend,
            )
            assert out.payload == compare_color_oracle(scene, "towel", "box", compare_type)


def random_box_scene(rng: random.Random, count: int):
    boxes, objects = [], []
    for i in range(count):
        x1 = rng.randint(0, 540)
        y1 = rng.randint(0, 380)
        box = (x1, y1, x1 + rng.randint(20, 90), y1 + rng.randint(20, 90))
        boxes.append(list(box))
        objects.append(obj(f"o{i}", "cup", box, depth=rng.choice([0.1, 0.25, 0.4, 0.55, 0.7, 0.85])))
    return make_scene(*objects), boxes


class TestSortSpatial:
    def test_agrees_with_oracle_on_random_inputs(self, backend):
        handle = handle_for("SORT_SPATIAL")
        rng = random.Random(23)
        locations = ["left", "right", "top", "bottom", "middle", "front", "behind"]
        for _ in range(120):
            scene, boxes = random_box_scene(rng, rng.randint(1, 5))
            location = rng.choice(locations)
            index = rng.randint(-1, len(boxes))
            out = invoke_candidate(
                handle, [ImageHandle.of_scene(scene), boxes, location, index], backend
            )
            expected = rm.sort_spatial_oracle(scene, boxes, location, index)
            assert [list(b) for b in out.payload] == expected

    def test_right_and_index_reference_case(self, backend):
        handle = handle_for("SORT_SPATIAL")
        scene, _ = random_box_scene(random.Random(1), 0)
        image = ImageHandle.of_scene(
            make_scene(obj("a", "cup", (5, 5, 15, 15)), obj("b", "cup", (40, 5, 50, 15)))
        )
        out = invoke_candidate(handle, [image, [[5, 5, 15, 15], [40, 5, 50, 15]], "right", 1], backend)
        assert [list(b) for b in out.payload] == [[40, 5, 50, 15]]

    def test_negative_index_returns_empty(self, backend):
        handle = handle_for("SORT_SPATIAL")
        image = ImageHandle.of_scene(make_scene(obj("a", "cup", (5, 5, 15, 15))))
        out = invoke_candidate(handle, [image, [[5, 5, 15, 15]], "left", -1], backend)
        assert list(out.payload) == []

    def test_index_zero_keeps_first_box_verbatim(self, backend):
        handle = handle_for("SORT_SPATIAL")
        image = ImageHandle.of_scene(make_scene(obj("a", "cup", (5, 5, 15, 15))))
        out = invoke_candidate(
            handle, [image, [[30, 5, 40, 15], [5, 5, 15, 15]], "left", 0], backend
        )
        assert [list(b) for b in out.payload] == [[30, 5, 40, 15]]

    def test_front_picks_nearest_by_median_depth(self, backend):
        handle = handle_for("SORT_SPATIAL")
        scene = make_scene(
            obj("near", "cup", (10, 10, 40, 40), depth=0.2),
            obj("far", "cup", (100, 10, 130, 40), depth=0.7),
        )
        out = invoke_candidate(
            handle, [ImageHandle.of_scene(scene), [[100, 10, 130, 40], [10, 10, 40, 40]], "front", 1],
            backend,
        )
        assert [list(b) for b in out.payload] == [[10, 10, 40, 40]]

    def test_axis_duality_mirroring_swaps_left_right(self, backend):
        handle = handle_for("SORT_SPATIAL")
        rng = random.Random(31)
        for _ in range(60):
            scene, boxes = random_box_scene(rng, rng.randint(2, 5))
            index = rng.randint(1, len(boxes))
            width = scene.width
            mirrored_boxes = [[width - b[2], b[1], width - b[0], b[3]] for b in boxes]
            mirrored_scene = SceneGraph(
                width=scene.width,
                height=scene.height,
                objects=tuple(
                    SceneObject(
                        id=o.id, name=o.name,
                        box=(width - o.box[2], o.box[1], width - o.box[0], o.box[3]),
                        attributes=o.attributes, depth=o.depth, tags=o.tags,
                    )
                    for o in scene.objects
                ),
            )
            left = invoke_candidate(
                handle, [ImageHandle.of_scene(scene), boxes, "left", index], backend
            )
            right = invoke_candidate(
                handle, [ImageHandle.of_scene(mirrored_scene), mirrored_boxes, "right", index], backend
            )
            mirrored_back = [[width - b[2], b[1], width - b[0], b[3]] for b in right.payload]
            assert [list(b) for b in left.payload] == mirrored_back


class TestDetectShape:
    def test_reads_center_panel(self, backend):
        puzzle = generate_raven_puzzle(random.Random(3), layout="center")
        handle = handle_for("DETECT_SHAPE")
        panel = puzzle.panels[0]
        out = invoke_candidate(handle, [ImageHandle.of_scene(panel)], backend)
        assert [list(p) for p in out.payload] == panel_record(panel, "center")

    def test_empty_panel_gives_null_record(self, backend):
        handle = handle_for("DETECT_SHAPE")
        empty = SceneGraph(width=160, height=160, objects=())
        out = invoke_candidate(handle, [ImageHandle.of_scene(empty)], backend)
        assert list(out.payload) == []

    def test_multi_object_panel_raises(self, backend):
        handle = handle_for("DETECT_SHAPE")
        puzzle = generate_raven_puzzle(random.Random(3), layout="left-right")
        out = invoke_candidate(handle, [ImageHandle.of_scene(puzzle.panels[0])], backend)
        from modgrow.sandbox import CapturedError

        assert isinstance(out, CapturedError)
        assert "MULTI_OBJECT" in out.message

    def test_split_panel_queried_per_half(self, backend):
        handle = handle_for("DETECT_SHAPE")
        puzzle = generate_raven_puzzle(random.Random(3), layout="left-right")
        panel = ImageHandle.of_scene(puzzle.panels[0])
        left = invoke_candidate(
            handle, [panel.crop((0, 0, panel.width // 2, panel.height))], backend
        )
        right = invoke_candidate(
            handle, [panel.crop((panel.width // 2, 0, panel.width, panel.height))], backend
        )
        combined = [["left_" + k, v] for k, v in left.payload] + [
            ["right_" + k, v] for k, v in right.payload
        ]
        assert combined == panel_record(puzzle.panels[0], "left-right")


class TestSolver:
    def test_planted_answers_on_random_puzzles(self, backend):
        handle = handle_for("SOLVER")
        rng = random.Random(47)
        for i in range(100):
            puzzle = generate_raven_puzzle(rng, layout="center")
            panels = [panel_record(p, "center") for p in puzzle.panels]
            candidates = [panel_record(c, "center") for c in puzzle.candidates]
            out = invoke_candidate(handle, [panels, candidates], backend)
            assert out.payload == puzzle.answer_index
            assert rm.solver_oracle(panels, candidates) == puzzle.answer_index

    def test_all_constant_puzzle_forced_by_row(self, backend):
        handle = handle_for("SOLVER")
        rng = random.Random(9)
        puzzle = generate_raven_puzzle(
            rng, layout="center",
            rules={"shape": "constant", "color": "constant", "size": "constant"},
        )
        panels = [panel_record(p, "center") for p in puzzle.panels]
        candidates = [panel_record(c, "center") for c in puzzle.candidates]
        out = invoke_candidate(handle, [panels, candidates], backend)
        assert out.payload == puzzle.answer_index
        # constancy forces the answer to equal the cell left of the blank
        assert dict(candidates[out.payload - 1]) == dict(panels[7])

    def test_prefixed_keys_from_split_layouts(self, backend):
        handle = handle_for("SOLVER")
        rng = random.Random(13)
        for layout in ("left-right", "up-down"):
            puzzle = generate_raven_puzzle(rng, layout=layout)
            panels = [panel_record(p, layout) for p in puzzle.panels]
            candidates = [panel_record(c, layout) for c in puzzle.candidates]
            out = invoke_candidate(handle, [panels, candidates], backend)
            assert out.payload == puzzle.answer_index


class TestInduceWord:
    def test_agrees_with_oracle_on_random_tasks(self, backend):
        from modgrow.harness.datasets import generate_dataset

        handle = handle_for("INDUCE_WORD")
        for instance in generate_dataset("mewl-analog", seed=19, n=40):
            examples = [
                (ImageHandle.of_scene(scene), word) for scene, word in instance.example_pairs
            ]
            query = ImageHandle.of_scene(instance.query_scene)
            out = invoke_candidate(handle, [examples, query], backend)
            record_examples = [
                (dict(scene.objects[0].attributes), word) for scene, word in instance.example_pairs
            ]
            oracle = rm.induce_word_oracle(
                record_examples, dict(instance.query_scene.objects[0].attributes)
            )
            assert out.payload == oracle == instance.gold["value"]


class TestVerifyFixtures:
    def test_verify_material(self, backend):
        scene = make_scene(obj("k", "knife", (50, 50, 200, 200), material="ceramic", color="gray"))
        image = ImageHandle.of_scene(scene)
        box = [[50, 50, 200, 200]]
        vm = handle_for("VERIFY_MATERIAL")
        assert invoke_candidate(vm, [image, box, "ceramic", "knife", "q"], backend).payload is True
        assert invoke_candidate(vm, [image, box, "wood", "knife", "q"], backend).payload is False
