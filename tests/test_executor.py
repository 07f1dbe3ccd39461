from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrow import values as V
from modgrow.backends import SyntheticBackend
from modgrow.dsl import parse_program, serialize_program
from modgrow.errors import CapturedError, TemplateEvalError
from modgrow.executor import (
    Environment,
    eval_template,
    execute_program,
    expand_box,
    run_builtin,
    run_program,
    trace_to_jsonl,
)
from modgrow.registry import ExecutionRegistry
from modgrow.scene import ImageHandle

from conftest import make_scene, obj
from program_corpus import PURSE_PROGRAM


class Untouchable:
    """A backend for a program that must run nothing."""

    def __getattr__(self, name):
        raise AssertionError(f"the backend was asked for {name}")


def image_value(*objects, width=640, height=480):
    return V.image(ImageHandle.of_scene(make_scene(*objects, width=width, height=height)))


class TestExpandBox:
    def test_reference_arithmetic(self):
        assert expand_box([40, 40, 60, 60], (100, 100)) == [35, 35, 65, 65]

    def test_clamped_at_borders(self):
        assert expand_box([0, 0, 20, 20], (100, 100)) == [0, 0, 25, 25]
        assert expand_box([80, 80, 100, 100], (100, 100)) == [75, 75, 100, 100]

    def test_factor_one_keeps_box_up_to_floor(self):
        assert expand_box([10, 10, 30, 30], (100, 100), factor=1.0) == [10, 10, 30, 30]


class TestEvalTemplate:
    def test_conditional_positive(self):
        env = Environment({"ANSWER0": V.number(2)})
        assert eval_template("'yes' if {ANSWER0} > 0 else 'no'", env) == V.text("yes")

    def test_conditional_zero(self):
        env = Environment({"ANSWER0": V.number(0)})
        assert eval_template("'left' if {ANSWER0} > 0 else 'right'", env) == V.text("right")

    def test_arithmetic(self):
        env = Environment({"A": V.number(2), "B": V.number(3)})
        assert eval_template("{A} + {B}", env) == V.number(5)

    def test_boolean_substitution(self):
        env = Environment({"FLAG0": V.boolean(True)})
        assert eval_template("'sphere' if {FLAG0} else 'blue cube'", env) == V.text("sphere")

    def test_membership(self):
        env = Environment({"T": V.text("dark blue")})
        assert eval_template("'yes' if 'blue' in {T} else 'no'", env) == V.text("yes")

    def test_unbound_placeholder(self):
        with pytest.raises(TemplateEvalError) as err:
            eval_template("{MISSING} + 1", Environment({}))
        assert err.value.kind == "UNBOUND_PLACEHOLDER"

    @pytest.mark.parametrize(
        "expr",
        [
            "__import__('os')",
            "open('/etc/passwd')",
            "(1).__class__",
            "[1,2][0]",
            "len('abc')",
            "X + 1",
        ],
    )
    def test_rejects_calls_names_and_attributes(self, expr):
        with pytest.raises(TemplateEvalError) as err:
            eval_template(expr, Environment({}))
        assert err.value.kind == "TEMPLATE_SYNTAX"

    @given(
        a=st.integers(min_value=-50, max_value=50),
        b=st.integers(min_value=-50, max_value=50),
        op=st.sampled_from(["+", "-", "*", ">", "<", "==", ">=", "<=", "!="]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_manual_substitution(self, a, b, op):
        env = Environment({"A": V.number(a), "B": V.number(b)})
        template = f"{{A}} {op} {{B}}"
        expected = eval("{} {} {}".format(a, op, b))
        assert eval_template(template, env).payload == expected

    def test_text_rendering_is_quoted(self):
        env = Environment({"S": V.text("left")})
        assert eval_template("{S} == 'left'", env) == V.boolean(True)

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("1 < 2 <= 2 < 3", True),
            ("1 < 3 < 2", False),
            ("'a' in 'cat'", True),
            ("'a' not in 'cat'", False),
            ("not 0", True),
            ("-{A} + 1", -1),
            ("+{A}", 2),
            ("7 / 2 - 1 * 3", 0.5),
            ("'yes' if 2 != 2 else 'no'", "no"),
        ],
    )
    def test_operators(self, expr, expected):
        assert eval_template(expr, Environment({"A": V.number(2)})).payload == expected

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("2 ** 3", "TEMPLATE_SYNTAX: unsupported arithmetic operator"),
            ("7 // 2", "TEMPLATE_SYNTAX: unsupported arithmetic operator"),
            ("None is None", "TEMPLATE_SYNTAX: unsupported comparison operator"),
            ("1 < 2 is None", "TEMPLATE_SYNTAX: unsupported comparison operator"),
            ("~1", "TEMPLATE_SYNTAX: unsupported unary operator"),
        ],
    )
    def test_unsupported_operators(self, expr, message):
        with pytest.raises(TemplateEvalError) as err:
            eval_template(expr, Environment({}))
        assert str(err.value) == message


class TestBuiltins:
    def test_count_empty(self, backend):
        assert run_builtin("COUNT", {"box": V.box_list([])}, backend) == V.number(0)

    def test_loc_half_image(self, backend):
        img = image_value(width=100, height=100)
        out = run_builtin("LOC", {"image": img, "object": V.text("TOP")}, backend)
        assert out == V.box_list([(0, 0, 100, 50)])
        out = run_builtin("LOC", {"image": img, "object": V.text("RIGHT")}, backend)
        assert out == V.box_list([(50, 0, 100, 100)])

    def test_tag_appends_overlays(self, backend):
        img = image_value(obj("a", "cat", (10, 10, 30, 30)))
        out = run_builtin(
            "TAG",
            {"image": img, "box": V.box_list([(10, 10, 30, 30)]), "label": V.text("Obama")},
            backend,
        )
        assert len(out.payload.overlays) == 1
        assert out.payload.overlays[0].label == "Obama"

    def test_crop_uses_first_box_expanded(self, backend):
        img = image_value(width=100, height=100)
        out = run_builtin("CROP", {"image": img, "box": V.box_list([(40, 40, 60, 60)])}, backend)
        assert out.payload.crop_box == (35, 35, 65, 65)

    def test_crop_empty_box_list_keeps_viewport(self, backend):
        img = image_value(width=100, height=100)
        out = run_builtin("CROP", {"image": img, "box": V.box_list([])}, backend)
        assert out.payload.crop_box == (0, 0, 100, 100)

    def test_crop_leftof_half_plane(self, backend):
        img = image_value(width=100, height=100)
        out = run_builtin(
            "CROP_LEFTOF", {"image": img, "box": V.box_list([(40, 0, 60, 100)])}, backend
        )
        assert out.payload.crop_box == (0, 0, 50, 100)

    def test_select_keeps_best_scoring_box(self, backend):
        img = image_value(
            obj("r", "cup", (0, 0, 40, 40), color="red"),
            obj("b", "cup", (100, 0, 140, 40), color="blue"),
        )
        out = run_builtin(
            "SELECT",
            {
                "image": img,
                "box": V.box_list([(0, 0, 40, 40), (100, 0, 140, 40)]),
                "query": V.text("red cup"),
            },
            backend,
        )
        assert out == V.box_list([(0, 0, 40, 40)])

    def test_filter_property_thresholds(self, backend):
        img = image_value(
            obj("r", "cup", (0, 0, 40, 40), color="red"),
            obj("b", "cup", (100, 0, 140, 40), color="blue"),
        )
        out = run_builtin(
            "FILTER_PROPERTY",
            {
                "image": img,
                "box": V.box_list([(0, 0, 40, 40), (100, 0, 140, 40)]),
                "property": V.text("red"),
            },
            backend,
        )
        assert out == V.box_list([(0, 0, 40, 40)])

    def test_filter_spatial(self, backend):
        img = image_value(width=100, height=100)
        out = run_builtin(
            "FILTER_SPATIAL",
            {
                "image": img,
                "box": V.box_list([(0, 0, 20, 20), (80, 80, 100, 100)]),
                "location": V.text("left"),
            },
            backend,
        )
        assert out == V.box_list([(0, 0, 20, 20)])

    def test_facedet_locates_faces(self, backend):
        img = image_value(obj("f", "face", (20, 20, 60, 60)))
        assert run_builtin("FACEDET", {"image": img}, backend) == V.box_list([(20, 20, 60, 60)])

    def test_list_truncates(self, backend):
        out = run_builtin(
            "LIST", {"query": V.text("Name 2 kinds of fruit."), "max": V.number(2)}, backend
        )
        assert out == V.list_value(["apple", "banana"])

    def test_mask_conversions(self, backend):
        boxes = V.box_list([(1, 2, 3, 4)])
        mask = run_builtin("BOX2MASK", {"box": boxes}, backend)
        assert mask.tag == "mask"
        back = run_builtin("MASK2BOX", {"mask": mask}, backend)
        assert back == boxes

    def test_colorpop_and_bgblur_append_edits(self, backend):
        img = image_value(obj("a", "cat", (10, 10, 30, 30)))
        for name, kind in (("COLORPOP", "colorpop"), ("BGBLUR", "bgblur")):
            out = run_builtin(name, {"image": img, "mask": V.box_list([(10, 10, 30, 30)])}, backend)
            assert out.payload.edits[-1].kind == kind

    def test_unknown_builtin(self, backend):
        from modgrow.executor import ExecutorRuntimeError

        with pytest.raises(ExecutorRuntimeError):
            run_builtin("NOPE", {}, backend)

    def test_type_error_on_tag_mismatch(self, backend):
        from modgrow.executor import ExecutorRuntimeError

        with pytest.raises(ExecutorRuntimeError) as err:
            run_builtin("COUNT", {"box": V.text("oops")}, backend)
        assert err.value.error.kind == "type"


class TestExecuteProgram:
    def test_purse_program_traces(self, purse_scene, builtin_lib, backend):
        program = parse_program(PURSE_PROGRAM)
        env = Environment(
            {
                "IMAGE": V.image(ImageHandle.of_scene(purse_scene)),
                "QUESTION": V.text("Is the purse to the left or to the right of the person?"),
            }
        )
        result = execute_program(program, env, ExecutionRegistry(builtin_lib), backend)
        assert result.error is None
        assert result.final == V.text("left")
        assert len(result.trace) == 6
        assert [s.module_kind for s in result.trace] == ["builtin"] * 6
        assert result.trace[3].resolved_inputs["box"].startswith("box-list")

    def test_identity_result(self, backend, builtin_lib, coat_image):
        program = parse_program("FINAL_RESULT=RESULT(var=IMAGE)")
        env = Environment({"IMAGE": V.image(coat_image)})
        result = execute_program(program, env, ExecutionRegistry(builtin_lib), backend)
        assert result.error is None
        assert result.final.tag == "image"
        assert len(result.trace) == 1

    def test_sandbox_fault_halts_with_partial_trace(self, backend, full_lib):
        from modgrow.dsl import parse_signature_block
        from modgrow.registry import ExecutionRegistry
        from modgrow.sandbox import load_candidate

        bad_source = (
            "class BROKEN():\n"
            '    """\n'
            "    Break.\n"
            "    Input:\n"
            "        image: an image object\n"
            "    Output:\n"
            "        result: a string\n"
            '    """\n'
            "    def execute(self,img):\n"
            "        raise ValueError('boom')\n"
        )
        handle = load_candidate(bad_source, signature=parse_signature_block(bad_source))
        registry = ExecutionRegistry(full_lib, overlay={"BROKEN": handle})
        program = parse_program(
            "BOX0=LOC(image=IMAGE,object='coat')\nANSWER0=BROKEN(image=IMAGE)\n"
            "FINAL_RESULT=RESULT(var=ANSWER0)"
        )
        env = Environment({"IMAGE": image_value(obj("c", "coat", (10, 10, 50, 50)))})
        result = execute_program(program, env, registry, backend)
        assert result.error == CapturedError("runtime", "ValueError: boom", location=10)
        assert result.line_no == 2
        assert len(result.trace) == 1

    def test_serialization_invariance(self, purse_scene, builtin_lib, backend):
        program = parse_program(PURSE_PROGRAM)
        again = parse_program(serialize_program(program))
        env = {
            "IMAGE": V.image(ImageHandle.of_scene(purse_scene)),
            "QUESTION": V.text("q"),
        }
        first = execute_program(program, Environment(dict(env)), ExecutionRegistry(builtin_lib), backend)
        second = execute_program(again, Environment(dict(env)), ExecutionRegistry(builtin_lib), backend)
        assert first.final == second.final

    def test_pure_over_synthetic_backend(self, purse_scene, builtin_lib, backend):
        program = parse_program(PURSE_PROGRAM)
        env = {
            "IMAGE": V.image(ImageHandle.of_scene(purse_scene)),
            "QUESTION": V.text("q"),
        }
        runs = [
            execute_program(program, Environment(dict(env)), ExecutionRegistry(builtin_lib), backend)
            for _ in range(2)
        ]
        assert runs[0].final == runs[1].final
        assert [s.output for s in runs[0].trace] == [s.output for s in runs[1].trace]

    def test_trace_jsonl_export(self, purse_scene, builtin_lib, backend):
        import json

        program = parse_program("FINAL_RESULT=RESULT(var=IMAGE)")
        env = Environment({"IMAGE": V.image(ImageHandle.of_scene(purse_scene))})
        result = execute_program(program, env, ExecutionRegistry(builtin_lib), backend)
        line = json.loads(trace_to_jsonl(result.trace))
        assert line["statement"] == "FINAL_RESULT=RESULT(var=IMAGE)"
        assert "elapsed_ms" in line


class TestRunProgram:
    def test_runs_a_valid_program_as_execute_program_does(self, purse_scene, builtin_lib, backend):
        env = {"IMAGE": V.image(ImageHandle.of_scene(purse_scene)), "QUESTION": V.text("q")}
        registry = ExecutionRegistry(builtin_lib)
        ran = run_program(PURSE_PROGRAM, Environment(dict(env)), registry, backend)
        executed = execute_program(parse_program(PURSE_PROGRAM), Environment(dict(env)), registry, backend)
        assert (ran.error, ran.final, ran.diagnostics) == (None, executed.final, ())
        assert [s.output for s in ran.trace] == [s.output for s in executed.trace]

    def test_a_program_that_does_not_validate_runs_nothing(self, builtin_lib, coat_image):
        source = "BOX0=LOC(image=IMAGE,object='coat')\nANSWER0=NOPE(box=BOX0)\nFINAL_RESULT=RESULT(var=ANSWER1)"
        env = Environment({"IMAGE": V.image(coat_image)})
        result = run_program(source, env, ExecutionRegistry(builtin_lib), Untouchable())
        assert (result.final, result.trace, result.line_no) == (None, (), 2)
        assert result.error == CapturedError("validation", "UNKNOWN_MODULE unknown module NOPE")
        assert [(d.line_no, d.code) for d in result.diagnostics] == [
            (2, "UNKNOWN_MODULE"), (3, "UNDEFINED_VAR")
        ]

    def test_validates_against_the_tags_of_the_bindings(self, builtin_lib, backend, coat_image):
        source = "ANSWER0=VQA(image=IMAGE,question=QUESTION)\nFINAL_RESULT=RESULT(var=ANSWER0)"
        env = Environment({"IMAGE": V.image(coat_image), "QUESTION": V.number(3)})
        result = run_program(source, env, ExecutionRegistry(builtin_lib), backend)
        assert result.error.kind == "validation"
        assert [d.code for d in result.diagnostics] == ["TYPE_MISMATCH"]

    def test_one_text_validates_against_the_bindings_of_each_run(self, builtin_lib, backend, coat_image):
        source = "ANSWER0=VQA(image=IMAGE,question=QUESTION)\nFINAL_RESULT=RESULT(var=ANSWER0)"
        registry = ExecutionRegistry(builtin_lib)
        runs = [
            run_program(source, Environment({"IMAGE": V.image(coat_image), "QUESTION": question}),
                        registry, backend)
            for question in (V.text("what is the coat made of?"), V.number(3), V.text("what color?"))
        ]
        assert [r.error and r.error.kind for r in runs] == [None, "validation", None]
        assert [d.code for d in runs[1].diagnostics] == ["TYPE_MISMATCH"]

    @pytest.mark.parametrize(
        "source, error",
        [
            ("A=EVAL(expr=f\"'x'\")\nB=COUNT(box=A)\nFINAL_RESULT=RESULT(var=B)",
             CapturedError("type", "argument 'box' must be box-list or mask, got text")),
            ("A=EVAL(expr=f\"2\")\nBOX0=LOC(image=IMAGE,object='coat')\n"
             "B=CROP(image=A,box=BOX0)\nFINAL_RESULT=RESULT(var=B)",
             CapturedError("type", "argument 'image' must be image, got number")),
            ("A=EVAL(expr=f\"2 ** 3\")\nFINAL_RESULT=RESULT(var=A)",
             CapturedError("template", "TEMPLATE_SYNTAX: unsupported arithmetic operator")),
        ],
    )
    def test_a_value_typed_only_at_run_time_fails_by_its_tag(self, builtin_lib, backend, coat_image,
                                                              source, error):
        env = Environment({"IMAGE": V.image(coat_image)})
        result = run_program(source, env, ExecutionRegistry(builtin_lib), backend)
        assert result.diagnostics == ()
        assert result.error == error
        assert result.line_no == source.count("\n")

    def test_a_line_that_does_not_parse_runs_nothing(self, builtin_lib, coat_image):
        source = "FINAL_RESULT=RESULT(var=IMAGE)\nnot a statement"
        env = Environment({"IMAGE": V.image(coat_image)})
        result = run_program(source, env, ExecutionRegistry(builtin_lib), Untouchable())
        assert (result.final, result.trace, result.line_no) == (None, (), 2)
        assert result.error.kind == "syntax"
        assert [(d.line_no, d.code) for d in result.diagnostics] == [(2, "SYNTAX")]
