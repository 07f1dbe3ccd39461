from __future__ import annotations

import pytest

from modgrow import reference_modules as rm
from modgrow.dsl import parse_signature_block
from modgrow.sandbox import (
    CapturedError,
    Limits,
    invoke_candidate,
    is_error,
    load_candidate,
)
from modgrow.scene import ImageHandle

from conftest import make_scene, obj


def sig_of(source: str):
    return parse_signature_block(source)


def simple_source(body: str, returns: str = "result: a string") -> str:
    return (
        "class PROBE():\n"
        '    """\n'
        "    Probe module.\n"
        "    Input:\n"
        "        image: an image object\n"
        "    Output:\n"
        f"        {returns}\n"
        '    """\n'
        "    def execute(self,img):\n"
        + "".join(f"        {line}\n" for line in body.split("\n"))
    )


@pytest.fixture()
def probe_image():
    return ImageHandle.of_scene(make_scene(obj("c", "cat", (10, 10, 60, 60), color="black")))


class TestLoad:
    def test_fixture_sources_load(self):
        for name, source in rm.FIXTURE_SOURCES.items():
            handle = load_candidate(source, signature=rm.fixture_signature(name))
            assert handle.load_state == "loaded", (name, handle.error)

    def test_sort_spatial_entry_point_order(self):
        handle = load_candidate(rm.SORT_SPATIAL_SOURCE, signature=sig_of(rm.SORT_SPATIAL_SOURCE))
        params = [p for p, _ in handle.signature.params]
        assert params == ["image", "box_list", "location", "index"]

    def test_unbalanced_delimiters_compile_error(self):
        handle = load_candidate("class X():\n    def execute(self:\n        pass")
        assert handle.load_state == "compile_error"
        assert handle.error.kind == "compile"

    def test_import_rejected_at_load(self):
        source = simple_source("import os\nreturn 'x'")
        handle = load_candidate(source, signature=sig_of(source))
        assert handle.load_state == "compile_error"
        assert handle.error.kind == "forbidden_access"

    def test_dunder_attribute_rejected_at_load(self):
        source = simple_source("return (1).__class__")
        handle = load_candidate(source, signature=sig_of(source))
        assert handle.error.kind == "forbidden_access"

    def test_wrong_class_name_rejected(self):
        source = simple_source("return 'x'").replace("class PROBE()", "class OTHER()")
        sig = rm.fixture_signature("CHOOSE_ATTRIBUTE")
        handle = load_candidate(source, signature=sig)
        assert handle.load_state == "compile_error"
        assert "CHOOSE_ATTRIBUTE" in handle.error.message

    def test_parameter_count_mismatch_rejected(self):
        source = simple_source("return 'x'")
        sig = rm.fixture_signature("COMPARE_COLOR")  # six parameters
        wrong = source.replace("class PROBE()", "class COMPARE_COLOR()")
        handle = load_candidate(wrong, signature=sig)
        assert handle.load_state == "compile_error"
        assert "parameters" in handle.error.message

    def test_missing_execute_rejected(self):
        source = (
            "class PROBE():\n"
            '    """\n'
            "    Probe.\n"
            "    Input:\n"
            "        image: an image object\n"
            "    Output:\n"
            "        result: a string\n"
            '    """\n'
            "    def run(self,img):\n"
            "        return 'x'\n"
        )
        handle = load_candidate(source, signature=sig_of(source))
        assert "execute" in handle.error.message

    def test_constructor_print_is_captured(self):
        handle = load_candidate(
            rm.CHOOSE_ATTRIBUTE_SOURCE, signature=rm.fixture_signature("CHOOSE_ATTRIBUTE")
        )
        assert handle.prints == ["Registering CHOOSE_ATTRIBUTE step"]


class TestInvoke:
    def test_choose_attribute_on_coat(self, backend, coat_image):
        handle = load_candidate(
            rm.CHOOSE_ATTRIBUTE_SOURCE, signature=rm.fixture_signature("CHOOSE_ATTRIBUTE")
        )
        out = invoke_candidate(
            handle, [coat_image, [[200, 150, 380, 330]], "coat", "thick", "thin"], backend
        )
        assert out.payload == "thick"

    def test_infinite_loop_times_out(self, backend, probe_image):
        source = simple_source("while True:\n    pass")
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend, Limits(wall_time_ms=150))
        assert is_error(out) and out.kind == "timeout"

    def test_step_budget(self, backend, probe_image):
        source = simple_source("n = 0\nfor i in range(10**9):\n    n = n + 1\nreturn 'x'")
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend, Limits(wall_time_ms=60_000, max_steps=5000))
        assert is_error(out) and out.kind == "timeout"

    def test_wrong_output_tag(self, backend, probe_image):
        source = simple_source("return img")  # image where the signature says string
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend)
        assert is_error(out) and out.kind == "wrong_output"
        assert out.expected == "text"
        assert "image" in out.actual

    def test_runtime_error_has_location(self, backend, probe_image):
        source = simple_source("x = 1\nreturn x / 0")
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend)
        assert out.kind == "runtime"
        assert out.location is not None
        assert "ZeroDivisionError" in out.message

    def test_open_is_forbidden(self, backend, probe_image):
        source = simple_source("f = open('/etc/passwd')\nreturn f")
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend)
        assert out.kind == "forbidden_access"

    def test_forbidden_survives_broad_except(self, backend, probe_image):
        source = simple_source(
            "try:\n    open('/etc/passwd')\nexcept Exception:\n    pass\nreturn 'clean'"
        )
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend)
        assert is_error(out) and out.kind == "forbidden_access"

    def test_determinism_over_synthetic_backend(self, backend, coat_image):
        handle = load_candidate(
            rm.CHOOSE_ATTRIBUTE_SOURCE, signature=rm.fixture_signature("CHOOSE_ATTRIBUTE")
        )
        args = [coat_image, [[200, 150, 380, 330]], "coat", "thick", "thin"]
        assert invoke_candidate(handle, args, backend) == invoke_candidate(handle, args, backend)

    def test_repeated_invocation_on_one_handle(self, backend, coat_image):
        handle = load_candidate(
            rm.CHOOSE_ATTRIBUTE_SOURCE, signature=rm.fixture_signature("CHOOSE_ATTRIBUTE")
        )
        for _ in range(3):
            out = invoke_candidate(
                handle, [coat_image, [], "coat", "thick", "thin"], backend
            )
            assert out.payload == "thick"  # empty box list falls back to the whole image

    def test_prints_hold_only_the_last_invocation(self, backend, probe_image):
        source = simple_source("for i in range(1000):\n    print(i)\nreturn 'x'")
        handle = load_candidate(source, signature=sig_of(source))
        for _ in range(3):
            assert invoke_candidate(handle, [probe_image], backend).payload == "x"
        assert len(handle.prints) == 1000

    def test_canonical_operation_names(self, backend, probe_image):
        source = simple_source("return API.answer_question(img, 'What color is the cat?')")
        handle = load_candidate(source, signature=sig_of(source))
        assert invoke_candidate(handle, [probe_image], backend).payload == "black"

    def test_unknown_operation_is_runtime_error(self, backend, probe_image):
        source = simple_source("return API.open_file(img)")
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend)
        assert is_error(out) and out.kind == "runtime"
        assert "open_file" in out.message

    def test_error_messages_render_for_repair_prompts(self):
        errors = [
            CapturedError("compile", "bad syntax", location=3),
            CapturedError("timeout", "wall time budget of 2000 ms exceeded"),
            CapturedError("wrong_output", "mismatch", expected="text", actual="number:1"),
            CapturedError("forbidden_access", "use of open is not permitted"),
        ]
        for error in errors:
            rendered = error.render()
            assert rendered.strip()
            assert error.kind.split("_")[0] in rendered
