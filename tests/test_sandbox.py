from __future__ import annotations

import sys

import pytest

from modgrow import reference_modules as rm
from modgrow.dsl import parse_signature_block
from modgrow.sandbox import (
    CapturedError,
    Limits,
    invoke_candidate,
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
        handle = load_candidate("class X():\n    def execute(self:\n        pass",
                                signature=rm.fixture_signature("SORT_SPATIAL"))
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

    @pytest.mark.parametrize("line", [
        "__tick__ = lambda: True",
        "__tick__()",
        "def __tick__():\n    return True",
        "def inner(__tick__=None):\n    return 1",
        "try:\n    pass\nexcept Exception as __tick__:\n    pass",
    ])
    def test_tick_name_is_reserved(self, line):
        source = simple_source(f"{line}\nreturn 'x'")
        handle = load_candidate(source, signature=sig_of(source))
        assert handle.load_state == "compile_error"
        assert handle.error.kind == "forbidden_access"

    @pytest.mark.parametrize("template", [
        "{0._backend.__class__.locate.__globals__[__name__]}",
        "{0:{1.__class__}}",
        "{__x}",
    ])
    def test_dunder_format_field_rejected_at_load(self, template):
        source = simple_source(f"return '{template}'.format(API, API)")
        handle = load_candidate(source, signature=sig_of(source))
        assert handle.load_state == "compile_error"
        assert handle.error.kind == "forbidden_access"

    @pytest.mark.parametrize("body", [
        "return ('{0._backend._' + '_class__.locate.__globals__[_' + '_name__]}').format(API)",
        "template = '{0}'\nreturn template.format(API)",
        "return str.format('{0}', API)",
        "return ('{x' + '}').format_map({'x': API})",
    ])
    def test_format_on_a_built_template_rejected_at_load(self, body):
        source = simple_source(body)
        handle = load_candidate(source, signature=sig_of(source))
        assert handle.load_state == "compile_error"
        assert handle.error.kind == "forbidden_access"

    def test_plain_format_fields_still_run(self, backend, probe_image):
        source = simple_source("return '{0}-{1:>3}-{{__x}}'.format('a', 'b')")
        handle = load_candidate(source, signature=sig_of(source))
        assert invoke_candidate(handle, [probe_image], backend).payload == "a-  b-{__x}"

    def test_constructor_loop_times_out_at_load(self):
        source = simple_source("return 'x'").replace(
            "    def execute(self,img):\n",
            "    def __init__(self):\n        while True:\n            pass\n    def execute(self,img):\n",
        )
        handle = load_candidate(source, signature=sig_of(source))
        assert handle.load_state == "compile_error"
        assert handle.error.kind == "timeout"

    @pytest.mark.parametrize("where", ["class body", "constructor"])
    def test_forbidden_access_swallowed_at_load(self, where):
        swallow = "try:\n    open('/etc/passwd')\nexcept:\n    pass\n"
        if where == "class body":
            lines = "".join(f"    {line}\n" for line in swallow.splitlines())
        else:
            lines = "    def __init__(self):\n" + "".join(
                f"        {line}\n" for line in swallow.splitlines())
        source = simple_source("return 'x'").replace("    def execute(self,img):\n",
                                                   lines + "    def execute(self,img):\n")
        handle = load_candidate(source, signature=sig_of(source))
        assert handle.load_state == "compile_error"
        assert handle.error.kind == "forbidden_access"
        assert handle.error.location == source.split("\n").index(
            next(line for line in source.split("\n") if "open(" in line)) + 1

    def test_docstrings_keep_their_value(self):
        source = simple_source('"""Return x."""\nreturn \'x\'')
        handle = load_candidate(source, signature=sig_of(source))
        assert type(handle._instance).execute.__doc__ == "Return x."

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
        assert isinstance(out, CapturedError) and out.kind == "timeout"

    def test_one_line_loop_times_out(self, backend, probe_image):
        source = simple_source("while True: pass")
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend, Limits(wall_time_ms=100))
        assert isinstance(out, CapturedError) and out.kind == "timeout"

    @pytest.mark.parametrize("body", [
        "return str(len([i for i in range(10**9)]))",
        "return str(sum(i for i in range(10**9)))",
        "return str({i: i for i in range(10**9) if i % 2})",
        "def f(n):\n    return f(n + 1)\nreturn f(0)",
        "return str(sum(map(lambda i: 1, range(10**9))))",
        "try:\n    while True:\n        pass\nexcept:\n    pass\nreturn 'x'",
    ])
    def test_step_budget_reaches_every_step_kind(self, backend, probe_image, body):
        source = simple_source(body)
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend, Limits(wall_time_ms=60_000, max_steps=5000))
        assert isinstance(out, CapturedError) and out.kind == "timeout"

    def test_caller_tracer_stays_installed(self, backend, probe_image):
        source = simple_source("return 'x'")
        handle = load_candidate(source, signature=sig_of(source))
        seen = []

        def tracer(frame, event, arg):
            seen.append(frame.f_code.co_filename)

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            out = invoke_candidate(handle, [probe_image], backend)
            after = sys.gettrace()
        finally:
            sys.settrace(previous)
        assert out.payload == "x"
        assert after is tracer
        assert "<candidate:PROBE>" in seen

    def test_step_budget(self, backend, probe_image):
        source = simple_source("n = 0\nfor i in range(10**9):\n    n = n + 1\nreturn 'x'")
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend, Limits(wall_time_ms=60_000, max_steps=5000))
        assert isinstance(out, CapturedError) and out.kind == "timeout"

    def test_wrong_output_tag(self, backend, probe_image):
        source = simple_source("return img")  # image where the signature says string
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend)
        assert isinstance(out, CapturedError) and out.kind == "wrong_output"
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
        assert isinstance(out, CapturedError) and out.kind == "forbidden_access"

    def test_forbidden_survives_bare_except(self, backend, probe_image):
        source = simple_source("try:\n    open('/etc/passwd')\nexcept:\n    pass\nreturn 'clean'")
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend)
        assert isinstance(out, CapturedError) and out.kind == "forbidden_access"
        assert "open" in out.message
        assert out.location == source.split("\n").index("            open('/etc/passwd')") + 1
        # the attempt belongs to that call only
        clean = load_candidate(simple_source("return 'x'"), signature=sig_of(source))
        assert invoke_candidate(clean, [probe_image], backend).payload == "x"

    def test_propagated_forbidden_access_names_its_line(self, backend, probe_image):
        source = simple_source("x = 1\nreturn open('/etc/passwd')")
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend)
        assert out.kind == "forbidden_access" and out.location == 11

    def test_scene_attributes_are_read_only(self, backend, probe_image):
        source = simple_source(
            "before = img.scene.objects[0].attributes['color']\n"
            "if before == 'black':\n"
            "    img.scene.objects[0].attributes['color'] = 'pink'\n"
            "return before"
        )
        handle = load_candidate(source, signature=sig_of(source))
        for _ in range(2):
            out = invoke_candidate(handle, [probe_image], backend)
            assert isinstance(out, CapturedError) and out.kind == "runtime"
            assert "does not support item assignment" in out.message
        assert probe_image.scene.objects[0].attributes == {"color": "black"}

    @pytest.mark.parametrize(
        "write, message",
        [
            ("seen.append(seen[0])", "has no attribute 'append'"),
            ("seen[0] = seen[0]", "does not support item assignment"),
            ("seen[0][1] = (0, 0, 1, 1)", "does not support item assignment"),
            ("img._visible = ()", "cannot assign to field"),
        ],
    )
    def test_visible_objects_memo_cannot_be_poisoned(self, backend, probe_image, write, message):
        ask = "return API.vqa(img, 'How many cats are there?')"
        asker = load_candidate(simple_source(ask), signature=sig_of(simple_source(ask)))
        assert invoke_candidate(asker, [probe_image], backend).payload == "1"
        source = simple_source(f"seen = img.visible_objects()\n{write}\nreturn 'written'")
        handle = load_candidate(source, signature=sig_of(source))
        out = invoke_candidate(handle, [probe_image], backend)
        assert isinstance(out, CapturedError) and out.kind == "runtime" and message in out.message
        assert invoke_candidate(asker, [probe_image], backend).payload == "1"
        assert [o.id for o, _ in probe_image.visible_objects()] == ["c"]

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
        assert isinstance(out, CapturedError) and out.kind == "runtime"
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
