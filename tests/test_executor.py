from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrow import executor
from modgrow import values as V
from modgrow.backends import SyntheticBackend
from modgrow.dsl import parse_program, serialize_program, validate_program
from modgrow.errors import CapturedError, ExecutorRuntimeError, TemplateEvalError
from modgrow.executor import (
    eval_template,
    expand_box,
    run_builtin,
    run_program,
    trace_to_jsonl,
)
from modgrow.registry import ExecutionRegistry, builtin_library
from modgrow.scene import ImageHandle

from conftest import make_scene, obj
from program_corpus import COAT_PROGRAM, CORPUS, PURSE_PROGRAM


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
        env = {"ANSWER0": V.number(2)}
        assert eval_template("'yes' if {ANSWER0} > 0 else 'no'", env) == V.text("yes")

    def test_conditional_zero(self):
        env = {"ANSWER0": V.number(0)}
        assert eval_template("'left' if {ANSWER0} > 0 else 'right'", env) == V.text("right")

    def test_arithmetic(self):
        env = {"A": V.number(2), "B": V.number(3)}
        assert eval_template("{A} + {B}", env) == V.number(5)

    def test_boolean_substitution(self):
        env = {"FLAG0": V.boolean(True)}
        assert eval_template("'sphere' if {FLAG0} else 'blue cube'", env) == V.text("sphere")

    def test_membership(self):
        env = {"T": V.text("dark blue")}
        assert eval_template("'yes' if 'blue' in {T} else 'no'", env) == V.text("yes")

    def test_unbound_placeholder(self):
        with pytest.raises(TemplateEvalError) as err:
            eval_template("{MISSING} + 1", {})
        assert str(err.value).startswith("UNBOUND_PLACEHOLDER: ")

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
            eval_template(expr, {})
        assert str(err.value).startswith("TEMPLATE_SYNTAX: ")

    @given(
        a=st.integers(min_value=-50, max_value=50),
        b=st.integers(min_value=-50, max_value=50),
        op=st.sampled_from(["+", "-", "*", ">", "<", "==", ">=", "<=", "!="]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_manual_substitution(self, a, b, op):
        env = {"A": V.number(a), "B": V.number(b)}
        template = f"{{A}} {op} {{B}}"
        expected = eval("{} {} {}".format(a, op, b))
        assert eval_template(template, env).payload == expected

    def test_text_rendering_is_quoted(self):
        env = {"S": V.text("left")}
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
        assert eval_template(expr, {"A": V.number(2)}).payload == expected

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
            eval_template(expr, {})
        assert str(err.value) == message

    def test_a_text_that_does_not_parse_raises_on_every_call(self):
        env = {"A": V.number(2)}
        raised = []
        for _ in range(3):
            with pytest.raises(TemplateEvalError) as err:
                eval_template("{A} +", env)
            raised.append(err.value)
        assert raised[0] is not raised[1] is not raised[2]
        assert str(raised[0]) == str(raised[1]) == str(raised[2])
        assert str(raised[0]).startswith("TEMPLATE_SYNTAX: bad expression '2 +': ")


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

    def test_a_missing_argument_is_a_type_error(self, backend):
        with pytest.raises(ExecutorRuntimeError) as err:
            run_builtin("COUNT", {}, backend)
        assert err.value.error == CapturedError("type", "COUNT missing argument 'box'")


def test_the_builtin_catalogue_is_defined_once():
    """Each builtin's name is one string literal in the package's code: its
    `BUILTINS` entry, or for EVAL and RESULT the constant the language
    names them by. Every other builtin entry has its implementation."""
    literals = Counter(
        node.value
        for path in Path(executor.__file__).parent.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    names = [sig.name for sig in executor.BUILTIN_SIGNATURES]
    assert {name: literals[name] for name in names} == dict.fromkeys(names, 1)
    assert [name for name, *_, impl in executor.BUILTINS if impl is None] == ["EVAL", "RESULT"]


class TestExecuteProgram:
    def test_purse_program_traces(self, purse_scene, builtin_lib, backend):
        env = {
            "IMAGE": V.image(ImageHandle.of_scene(purse_scene)),
            "QUESTION": V.text("Is the purse to the left or to the right of the person?"),
        }
        result = run_program(PURSE_PROGRAM, env, ExecutionRegistry(builtin_lib), backend)
        assert (result.error, result.diagnostics) == (None, ())
        assert result.final == V.text("left")
        assert len(result.trace) == 6
        assert [s.module_kind for s in result.trace] == ["builtin"] * 6
        assert result.trace[3].resolved_inputs["box"].startswith("box-list")

    def test_the_trace_is_built_only_when_read(self, purse_scene, builtin_lib, backend, monkeypatch):
        summarized = []
        monkeypatch.setattr(executor.V, "summarize", lambda value: summarized.append(value) or "s")
        env = {
            "IMAGE": V.image(ImageHandle.of_scene(purse_scene)),
            "QUESTION": V.text("Is the purse to the left or to the right of the person?"),
        }
        result = run_program(PURSE_PROGRAM, env, ExecutionRegistry(builtin_lib), backend)
        assert result.final == V.text("left") and summarized == []
        trace = result.trace
        assert [step.output for step in trace] == ["s"] * 6
        assert summarized == [value for _, _, value, _ in result.ran] and summarized[-1] == result.final
        assert result.trace is trace and len(summarized) == 6

    def test_identity_result(self, backend, builtin_lib, coat_image):
        env = {"IMAGE": V.image(coat_image)}
        result = run_program("FINAL_RESULT=RESULT(var=IMAGE)", env, ExecutionRegistry(builtin_lib), backend)
        assert result.error is None
        assert result.final.tag == "image"
        assert len(result.trace) == 1

    def test_sandbox_fault_halts_with_partial_trace(self, backend, full_lib):
        from modgrow.dsl import parse_signature_block
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
        source = (
            "BOX0=LOC(image=IMAGE,object='coat')\nANSWER0=BROKEN(image=IMAGE)\n"
            "FINAL_RESULT=RESULT(var=ANSWER0)"
        )
        env = {"IMAGE": image_value(obj("c", "coat", (10, 10, 50, 50)))}
        result = run_program(source, env, registry, backend)
        assert result.error == CapturedError("runtime", "ValueError: boom", location=10)
        assert result.line_no == 2
        assert len(result.trace) == 1

    def test_serialization_invariance(self, purse_scene, builtin_lib, backend):
        again = serialize_program(parse_program(PURSE_PROGRAM))
        env = {
            "IMAGE": V.image(ImageHandle.of_scene(purse_scene)),
            "QUESTION": V.text("q"),
        }
        first = run_program(PURSE_PROGRAM, dict(env), ExecutionRegistry(builtin_lib), backend)
        second = run_program(again, dict(env), ExecutionRegistry(builtin_lib), backend)
        assert first.final == second.final

    def test_pure_over_synthetic_backend(self, purse_scene, builtin_lib, backend):
        env = {
            "IMAGE": V.image(ImageHandle.of_scene(purse_scene)),
            "QUESTION": V.text("q"),
        }
        runs = [
            run_program(PURSE_PROGRAM, dict(env), ExecutionRegistry(builtin_lib), backend)
            for _ in range(2)
        ]
        assert runs[0].final == runs[1].final
        assert [s.output for s in runs[0].trace] == [s.output for s in runs[1].trace]

    def test_trace_jsonl_export(self, purse_scene, builtin_lib, backend):
        import json

        env = {"IMAGE": V.image(ImageHandle.of_scene(purse_scene))}
        result = run_program("FINAL_RESULT=RESULT(var=IMAGE)", env, ExecutionRegistry(builtin_lib), backend)
        line = json.loads(trace_to_jsonl(result.trace))
        assert line["statement"] == "FINAL_RESULT=RESULT(var=IMAGE)"
        assert "elapsed_ms" in line

    @pytest.mark.parametrize(
        "source, codes, line_no",
        [
            ("A=EVAL(x=1)", ["ARITY_MISMATCH", "ARITY_MISMATCH", "MISSING_RESULT"], 1),
            ("A=EVAL(expr=IMAGE)", ["TYPE_MISMATCH", "MISSING_RESULT"], 1),
            ("A=EVAL(expr=f\"{B} + 1\")", ["UNDEFINED_VAR", "MISSING_RESULT"], 1),
            ("A=EVAL(expr='{B} + 1')\nFINAL_RESULT=RESULT(var=A)", ["UNDEFINED_VAR"], 1),
            ("A=COUNT(box=f\"x\")", ["TYPE_MISMATCH", "MISSING_RESULT"], 1),
            ("A=RESULT(x=f\"x\",var=C)", ["ARITY_MISMATCH", "UNDEFINED_VAR", "MISSING_RESULT"], 1),
            ("A=RESULT(x=f\"x\")", ["ARITY_MISMATCH", "ARITY_MISMATCH", "MISSING_RESULT"], 1),
            ("A=RESULT(x=C)", ["ARITY_MISMATCH", "ARITY_MISMATCH", "MISSING_RESULT"], 1),
            ("A=RESULT(x=IMAGE)", ["ARITY_MISMATCH", "ARITY_MISMATCH", "MISSING_RESULT"], 1),
            ("IMAGE=RESULT(var=IMAGE)", ["REASSIGNMENT", "MISSING_RESULT"], 1),
            ("A=RESULT(var=IMAGE)\n\nB=COUNT(box=C)", ["UNDEFINED_VAR", "MISSING_RESULT"], 3),
            ("A=EVAL(expr=f\"1\")", ["MISSING_RESULT"], 1),
        ],
    )
    def test_a_statement_of_the_wrong_shape_is_refused_before_any_step_runs(
            self, coat_image, builtin_lib, source, codes, line_no):
        result = run_program(source, {"IMAGE": V.image(coat_image)}, ExecutionRegistry(builtin_lib),
                             Untouchable())
        assert (result.final, result.trace, result.error.kind, result.line_no) == (
            None, (), "validation", line_no
        )
        assert [d.code for d in result.diagnostics] == codes

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("IMAGE", "TYPE_MISMATCH parameter 'expr' of EVAL expects template, got variable IMAGE"),
            ("A", "TYPE_MISMATCH parameter 'expr' of EVAL expects template, got variable A"),
            ("yes", "TYPE_MISMATCH parameter 'expr' of EVAL expects template, got text"),
            ("2", "TYPE_MISMATCH parameter 'expr' of EVAL expects template, got number"),
        ],
    )
    def test_eval_takes_only_a_template_or_a_quoted_text(self, coat_image, builtin_lib, expr, message):
        source = f"A=EVAL(expr=f\"1\")\nB=EVAL(expr={expr})\nFINAL_RESULT=RESULT(var=B)"
        result = run_program(source, {"IMAGE": V.image(coat_image)}, ExecutionRegistry(builtin_lib),
                             Untouchable())
        assert (result.error, result.line_no, result.trace) == (CapturedError("validation", message), 2, ())

    def test_eval_resolves_a_quoted_text_as_a_template(self, builtin_lib, coat_image):
        source = "A=EVAL(expr='1 + 1')\nB=EVAL(expr='{A} + 1')\nFINAL_RESULT=RESULT(var=B)"
        result = run_program(source, {"IMAGE": V.image(coat_image)}, ExecutionRegistry(builtin_lib),
                             Untouchable())
        assert (result.error, result.final) == (None, V.number(3))

    def test_only_eval_resolves_a_template(self, backend, builtin_lib, coat_image):
        from modgrow.dsl import parse_signature_block
        from modgrow.sandbox import load_candidate

        source = (
            "class ECHO():\n"
            '    """\n'
            "    Echo.\n"
            "    Input:\n"
            "        expr: an expression template\n"
            "    Output:\n"
            "        result: a string\n"
            '    """\n'
            "    def execute(self,expr):\n"
            "        return expr\n"
        )
        handle = load_candidate(source, signature=parse_signature_block(source))
        assert handle.signature.params == (("expr", "template"),)
        registry = ExecutionRegistry(builtin_lib, overlay={"ECHO": handle})
        env = {"IMAGE": V.image(coat_image)}
        refused = run_program("A=ECHO(expr=f\"1\")\nFINAL_RESULT=RESULT(var=A)", env, registry, Untouchable())
        assert refused.error == CapturedError(
            "validation", "TYPE_MISMATCH parameter 'expr' of ECHO does not take a template"
        )
        ran = run_program("A=ECHO(expr='{B}')\nFINAL_RESULT=RESULT(var=A)", env, registry, backend)
        assert (ran.error, ran.final) == (None, V.text("{B}"))


class TestRunProgram:
    def test_a_program_that_does_not_validate_runs_nothing(self, builtin_lib, coat_image):
        source = "BOX0=LOC(image=IMAGE,object='coat')\nANSWER0=NOPE(box=BOX0)\nFINAL_RESULT=RESULT(var=ANSWER1)"
        env = {"IMAGE": V.image(coat_image)}
        result = run_program(source, env, ExecutionRegistry(builtin_lib), Untouchable())
        assert (result.final, result.trace, result.line_no) == (None, (), 2)
        assert result.error == CapturedError("validation", "UNKNOWN_MODULE unknown module NOPE")
        assert [(d.line_no, d.code) for d in result.diagnostics] == [
            (2, "UNKNOWN_MODULE"), (3, "UNDEFINED_VAR")
        ]

    def test_validates_against_the_tags_of_the_bindings(self, builtin_lib, backend, coat_image):
        source = "ANSWER0=VQA(image=IMAGE,question=QUESTION)\nFINAL_RESULT=RESULT(var=ANSWER0)"
        env = {"IMAGE": V.image(coat_image), "QUESTION": V.number(3)}
        result = run_program(source, env, ExecutionRegistry(builtin_lib), backend)
        assert result.error.kind == "validation"
        assert [d.code for d in result.diagnostics] == ["TYPE_MISMATCH"]

    def test_one_text_validates_against_the_bindings_of_each_run(self, builtin_lib, backend, coat_image):
        source = "ANSWER0=VQA(image=IMAGE,question=QUESTION)\nFINAL_RESULT=RESULT(var=ANSWER0)"
        registry = ExecutionRegistry(builtin_lib)
        runs = [
            run_program(source, {"IMAGE": V.image(coat_image), "QUESTION": question},
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
        env = {"IMAGE": V.image(coat_image)}
        result = run_program(source, env, ExecutionRegistry(builtin_lib), backend)
        assert result.diagnostics == ()
        assert result.error == error
        assert result.line_no == source.count("\n")

    def test_a_line_that_does_not_parse_runs_nothing(self, builtin_lib, coat_image):
        source = "FINAL_RESULT=RESULT(var=IMAGE)\nnot a statement"
        env = {"IMAGE": V.image(coat_image)}
        result = run_program(source, env, ExecutionRegistry(builtin_lib), Untouchable())
        assert (result.final, result.trace, result.line_no) == (None, (), 2)
        assert result.error.kind == "syntax"
        assert [(d.line_no, d.code) for d in result.diagnostics] == [(2, "SYNTAX")]


def run_signature(result):
    """What a run shows: its outcome, and each step's text, kind and output."""
    steps = [(step.statement, step.module_kind, step.output) for step in result.trace]
    return (result.final, result.error, result.line_no, result.diagnostics), steps


class TestCheckedProgramMemo:
    def test_one_text_with_one_set_of_tags_validates_once_per_registry(self, monkeypatch, builtin_lib,
                                                                       backend, purse_scene):
        validated = []
        validate = executor.validate_program

        def counting_validate(*args, **kwargs):
            validated.append(args[0])
            return validate(*args, **kwargs)

        monkeypatch.setattr(executor, "validate_program", counting_validate)
        image = V.image(ImageHandle.of_scene(purse_scene))
        for registry in (ExecutionRegistry(builtin_lib), ExecutionRegistry(builtin_lib)):
            for question in ("q", "another q", "a third q"):
                env = {"IMAGE": image, "QUESTION": V.text(question)}
                assert run_program(PURSE_PROGRAM, env, registry, backend).final == V.text("left")
        assert len(validated) == 2

    def test_a_learned_module_is_known_only_to_a_registry_over_its_library(self, builtin_lib, full_lib,
                                                                            backend, coat_image):
        env = {"IMAGE": V.image(coat_image)}
        refused = run_program(COAT_PROGRAM, dict(env), ExecutionRegistry(builtin_lib),
                              Untouchable())
        assert refused.error == CapturedError("validation",
                                              "UNKNOWN_MODULE unknown module CHOOSE_ATTRIBUTE")
        ran = run_program(COAT_PROGRAM, dict(env), ExecutionRegistry(full_lib), backend)
        assert (ran.error, ran.final) == (None, V.text("thick"))
        assert [step.module_kind for step in ran.trace] == ["builtin", "generated", "builtin"]

    @pytest.mark.parametrize(
        "source",
        [
            "FINAL_RESULT=RESULT(var=IMAGE)\nnot a statement",
            "BOX0=LOC(image=IMAGE,object='coat')\nANSWER0=NOPE(box=BOX0)\nFINAL_RESULT=RESULT(var=ANSWER1)",
        ],
    )
    def test_a_refused_program_is_refused_alike_on_every_run(self, builtin_lib, coat_image, source):
        registry = ExecutionRegistry(builtin_lib)
        runs = [
            run_program(source, {"IMAGE": V.image(coat_image)}, registry, Untouchable())
            for _ in range(3)
        ]
        assert runs[0].error is not None
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize(
        "source, tags", [(text, tags) for _, text, full, tags in CORPUS if full]
    )
    def test_a_program_run_again_on_one_registry_runs_as_on_a_fresh_one(self, full_lib, backend,
                                                                         purse_scene, source, tags):
        image = ImageHandle.of_scene(purse_scene)
        values = {"image": V.image(image), "text": V.text("Which side is the purse on?")}

        def env():
            return {name: values[tag] for name, tag in tags.items()}

        registry = ExecutionRegistry(full_lib)
        fresh = run_signature(run_program(source, env(), ExecutionRegistry(full_lib), backend))
        assert run_signature(run_program(source, env(), registry, backend)) == fresh
        assert run_signature(run_program(source, env(), registry, backend)) == fresh


# straight-line programs over IMAGE and QUESTION, a few builtins, EVAL and
# RESULT. A reference mostly names a variable of the declared tag, but may
# name one of another tag or one never bound, and a target may be bound twice.
# Each call's parameters with their tags, or a quoted literal, and its result
# tag ("any": typed only at run time).
_CALLS = {
    "LOC": ((("image", "image"), ("object", "'coat'")), "box-list"),
    "VQA": ((("image", "image"), ("question", "text")), "text"),
    "COUNT": ((("box", "box-list"),), "number"),
    "CROP": ((("image", "image"), ("box", "box-list")), "image"),
    "EVAL": ((("expr", "template"),), "any"),
    "RESULT": ((("var", "any"),), "any"),
}
_TEMPLATES = ("f\"'yes' if {%s} > 0 else 'no'\"", "f\"{%s} + 1\"", "f\"{%s} == 'coat'\"", "'1 + 1'",
              "'{%s} + 1'", "%s", "yes")


@st.composite
def _programs(draw):
    tags = {"IMAGE": "image", "QUESTION": "text"}

    def ref(tag):
        fitting = [name for name, bound in tags.items() if tag in (bound, "any") or bound == "any"]
        return draw(st.sampled_from(fitting * 8 + list(tags) + ["UNBOUND"]))

    def value(tag):
        if tag.startswith("'"):
            return draw(st.sampled_from((tag, "'TOP'")))
        if tag == "template":  # a placeholder names any variable or, half the time, one never bound
            name = draw(st.sampled_from(list(tags)) | st.just("UNBOUND"))
            return draw(st.sampled_from(_TEMPLATES)).replace("%s", name)
        return ref(tag)

    lines = []
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        call = draw(st.sampled_from([*_CALLS, "EVAL", "EVAL"]))  # EVAL most, for its templates
        params, returns = _CALLS[call]
        target = draw(st.sampled_from([f"V{i}"] * 12 + list(tags)))
        lines.append(f"{target}={call}({','.join(f'{name}={value(tag)}' for name, tag in params)})")
        tags[target] = returns
    return "\n".join([*lines, f"FINAL_RESULT=RESULT(var={ref('any')})"])


_BINDINGS = {
    "IMAGE": image_value(obj("c", "coat", (200, 150, 380, 330), color="black")),
    "QUESTION": V.text("What color is the coat?"),
}


@given(source=_programs())
@settings(max_examples=500, deadline=None)
def test_a_program_that_validates_runs_to_a_value_or_a_recorded_error(source):
    registry = ExecutionRegistry(builtin_library())
    tags = {name: value.tag for name, value in _BINDINGS.items()}
    if validate_program(parse_program(source), registry.signatures(), tags):
        return
    result = run_program(source, dict(_BINDINGS), registry, SyntheticBackend())
    assert result.diagnostics == ()
    if result.error is None:
        assert len(result.trace) == source.count("\n") + 1
        assert V.summarize(result.final) == result.trace[-1].output
    else:
        assert result.error.kind not in ("syntax", "validation")
        assert result.final is None and len(result.trace) == result.line_no - 1
