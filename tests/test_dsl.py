"""The DSL: parsing, serialization, validation and signature blocks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrow import dsl
from modgrow.errors import DslSyntaxError, SignatureParseError
from modgrow.gateway import load_template
from modgrow.harness.datasets import generate_dataset
from modgrow.reference_modules import (
    CHOOSE_ATTRIBUTE_SOURCE,
    FIXTURE_SOURCES,
    SORT_SPATIAL_SOURCE,
    fixture_signature,
)
from modgrow.registry import builtin_library, signatures

from program_corpus import CORPUS, PURSE_PROGRAM


# the towel-box program calls a module that no fixture implements
COMPARE_ATTRIBUTE = dsl.ModuleSignature(
    name="COMPARE_ATTRIBUTE",
    params=(("image", "image"), ("box1", "box-list"), ("box2", "box-list"), ("object1", "text"),
            ("object2", "text"), ("attribute", "text"), ("question", "text")),
    returns="text",
)


def corpus_signatures():
    sigs = signatures(builtin_library()) + [fixture_signature(name) for name in FIXTURE_SOURCES]
    sigs.append(COMPARE_ATTRIBUTE)
    template = load_template("initialization")
    sigs.append(dsl.parse_signature_block(template.body))  # COMPARE_SIZE header
    return sigs


class TestParse:
    def test_purse_program_shape(self):
        program = dsl.parse_program(PURSE_PROGRAM)
        assert len(program.statements) == 6
        st5 = program.statements[4]
        assert st5.module_name == "EVAL"
        (pname, arg), = st5.args
        assert pname == "expr" and arg.kind == "template-string"
        assert arg.placeholders() == ["ANSWER0"]

    def test_minimal_program(self):
        program = dsl.parse_program("FINAL_RESULT=RESULT(var=IMAGE)")
        assert len(program.statements) == 1
        arg = program.statements[0].args[0][1]
        assert arg.kind == "variable-reference" and arg.value == "IMAGE"

    def test_line_numbers_skip_blanks(self):
        program = dsl.parse_program("BOX0=LOC(image=IMAGE,object='cat')\n\nFINAL_RESULT=RESULT(var=BOX0)")
        assert [s.line_no for s in program.statements] == [1, 3]

    def test_malformed_line_raises_with_line_no(self):
        with pytest.raises(DslSyntaxError) as err:
            dsl.parse_program("BOX0=LOC(image=IMAGE\nFINAL_RESULT=RESULT(var=BOX0)")
        assert err.value.diagnostics[0].code == "SYNTAX"
        assert err.value.diagnostics[0].line_no == 1

    def test_empty_source_rejected(self):
        with pytest.raises(DslSyntaxError):
            dsl.parse_program("   \n  ")

    def test_a_text_parsed_again_gives_an_equal_program(self):
        first = dsl.parse_program(PURSE_PROGRAM)
        again = dsl.parse_program(PURSE_PROGRAM)
        assert again == first
        assert [dsl.serialize_statement(s) for s in again.statements] == PURSE_PROGRAM.split("\n")

    @pytest.mark.parametrize("text", [
        "BOX0=LOC(image=IMAGE\nFINAL_RESULT=RESULT(var=BOX0)\nANSWER0=COUNT(box=)",
        "",
        "   \n  ",
    ])
    def test_a_text_that_does_not_parse_raises_on_every_call(self, text):
        raised = []
        for _ in range(3):
            with pytest.raises(DslSyntaxError) as err:
                dsl.parse_program(text)
            raised.append(err.value)
        assert raised[0] is not raised[1] is not raised[2]
        assert raised[0].diagnostics == raised[1].diagnostics == raised[2].diagnostics
        assert str(raised[0]) == str(raised[1]) == str(raised[2])

    def test_duplicate_keyword_rejected(self):
        with pytest.raises(DslSyntaxError):
            dsl.parse_program("BOX0=LOC(image=IMAGE,image=IMAGE)")

    def test_string_escape(self):
        program = dsl.parse_program(r"ANSWER0=VQA(image=IMAGE,question='who\'s there')" "\nFINAL_RESULT=RESULT(var=ANSWER0)")
        assert program.statements[0].args[1][1].value == "who's there"

    def test_negative_and_float_numbers(self):
        program = dsl.parse_program(
            "BOXLIST1=SORT_SPATIAL(image=IMAGE,box_list=BOXLIST0,location='left',index=-1)"
        )
        assert program.statements[0].arg_map()["index"].value == -1
        program = dsl.parse_program("IMAGE0=CROP(image=IMAGE,box=BOX0)\nANSWER0=EVAL(expr=f\"1.5\")")
        assert program.statements[1].args[0][1].kind == "template-string"


class TestSerialize:
    @pytest.mark.parametrize("name,text,full,bindings", CORPUS, ids=[c[0] for c in CORPUS])
    def test_corpus_round_trip_byte_identical(self, name, text, full, bindings):
        assert dsl.serialize_program(dsl.parse_program(text)) == text

    def test_reparse_structural_equality(self):
        program = dsl.parse_program(PURSE_PROGRAM)
        again = dsl.parse_program(dsl.serialize_program(program))
        assert again.statements == program.statements

    def test_minimal_exact(self):
        text = "FINAL_RESULT=RESULT(var=ANSWER0)"
        assert dsl.serialize_program(dsl.parse_program(text)) == text


class TestValidate:
    def test_corpus_validates_clean(self):
        sigs = corpus_signatures()
        for name, text, full, bindings in CORPUS:
            diags = dsl.validate_program(dsl.parse_program(text), sigs, bindings)
            if not full:  # a partial program lacks only its RESULT line
                diags = [d for d in diags if d.code != "MISSING_RESULT"]
            assert diags == [], (name, diags)

    def test_unknown_module_flagged(self, builtin_lib):
        diags = dsl.validate_program(
            dsl.parse_program(
                "FLAG0=COMPARE_SIZE(image=IMAGE,box0=BOX0,box1=BOX0)\nFINAL_RESULT=RESULT(var=FLAG0)"
            ),
            signatures(builtin_lib),
            {"IMAGE": "image", "BOX0": "box-list"},
        )
        assert [d.code for d in diags] == ["UNKNOWN_MODULE"]
        assert diags[0].line_no == 1

    def test_undefined_var_and_missing_result(self, builtin_lib):
        diags = dsl.validate_program(dsl.parse_program("ANSWER0=COUNT(box=BOX9)"), signatures(builtin_lib), {})
        codes = {d.code for d in diags}
        assert codes == {"UNDEFINED_VAR", "MISSING_RESULT"}

    def test_misspelled_keyword_is_arity_mismatch(self, builtin_lib):
        diags = dsl.validate_program(
            dsl.parse_program("BOX0=LOC(image=IMAGE,objct='cat')\nFINAL_RESULT=RESULT(var=BOX0)"),
            signatures(builtin_lib),
            {"IMAGE": "image"},
        )
        codes = [d.code for d in diags]
        assert "ARITY_MISMATCH" in codes  # unknown objct and missing object

    def test_reassignment_flagged(self, builtin_lib):
        diags = dsl.validate_program(
            dsl.parse_program(
                "BOX0=LOC(image=IMAGE,object='cat')\nBOX0=LOC(image=IMAGE,object='dog')\n"
                "FINAL_RESULT=RESULT(var=BOX0)"
            ),
            signatures(builtin_lib),
            {"IMAGE": "image"},
        )
        assert any(d.code == "REASSIGNMENT" and d.line_no == 2 for d in diags)

    def test_type_mismatch_flagged(self, builtin_lib):
        diags = dsl.validate_program(
            dsl.parse_program("ANSWER0=COUNT(box='cat')\nFINAL_RESULT=RESULT(var=ANSWER0)"),
            signatures(builtin_lib),
            {},
        )
        assert any(d.code == "TYPE_MISMATCH" for d in diags)

    def test_template_on_non_template_param(self, builtin_lib):
        diags = dsl.validate_program(
            dsl.parse_program('BOX0=LOC(image=IMAGE,object=f"{IMAGE}")\nFINAL_RESULT=RESULT(var=BOX0)'),
            signatures(builtin_lib),
            {"IMAGE": "image"},
        )
        assert any(d.code == "TYPE_MISMATCH" for d in diags)

    def test_validate_never_raises_and_is_pure(self, builtin_lib):
        program = dsl.parse_program(PURSE_PROGRAM)
        sigs = signatures(builtin_lib)
        first = dsl.validate_program(program, sigs, {"IMAGE": "image"})
        second = dsl.validate_program(program, sigs, {"IMAGE": "image"})
        assert first == second == []


class TestSignatureBlocks:
    def test_compare_size_header(self):
        template = load_template("initialization")
        sig = dsl.parse_signature_block(template.body)
        assert sig.name == "COMPARE_SIZE"
        assert sig.params == (("image", "image"), ("box0", "box-list"), ("box1", "box-list"))
        assert sig.returns == "boolean"
        assert any("COMPARE_SIZE(image=IMAGE" in ex for ex in sig.usage_examples)

    def test_sort_spatial_source(self):
        sig = dsl.parse_signature_block(SORT_SPATIAL_SOURCE)
        assert sig.params == (
            ("image", "image"),
            ("box_list", "box-list"),
            ("location", "text"),
            ("index", "number"),
        )
        assert sig.returns == "box-list"

    def test_missing_output_section(self):
        broken = CHOOSE_ATTRIBUTE_SOURCE.replace("Output:", "Something:")
        with pytest.raises(SignatureParseError):
            dsl.parse_signature_block(broken)

    def test_render_parse_round_trip(self, builtin_lib):
        for sig in signatures(builtin_lib):
            rendered = dsl.render_signature_block(sig)
            parsed = dsl.parse_signature_block(rendered)
            assert parsed.name == sig.name
            assert parsed.params == sig.params
            assert parsed.returns == sig.returns


# --- grammar-driven round-trip property ------------------------------------

_ident = st.from_regex(r"[A-Z][A-Z0-9_]{0,6}", fullmatch=True)
_string_chars = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="\\'\"\n\r"), min_size=0, max_size=12
)
_template_chars = st.from_regex(r"[a-z '{}<>=0-9A-Z_+\-*/.]{0,20}", fullmatch=True).filter(
    lambda s: '"' not in s and dsl.PLACEHOLDER_RE.sub("", s).count("{") == 0
    and dsl.PLACEHOLDER_RE.sub("", s).count("}") == 0
)


@st.composite
def _arg(draw):
    kind = draw(st.sampled_from(["string-literal", "number", "variable-reference", "template-string"]))
    if kind == "string-literal":
        return dsl.Arg(kind, draw(_string_chars))
    if kind == "number":
        if draw(st.booleans()):
            return dsl.Arg(kind, draw(st.integers(min_value=-9999, max_value=9999)))
        value = draw(st.floats(min_value=-99.0, max_value=99.0, allow_nan=False))
        return dsl.Arg(kind, float(round(value, 3)))
    if kind == "variable-reference":
        return dsl.Arg(kind, draw(_ident))
    return dsl.Arg(kind, draw(_template_chars))


@st.composite
def _program(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    statements = []
    for i in range(n):
        arg_names = draw(
            st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True), min_size=0,
                     max_size=3, unique=True)
        )
        args = tuple((name, draw(_arg())) for name in arg_names)
        statements.append(
            dsl.Statement(target=f"V{i}", module_name=draw(_ident), args=args, line_no=i + 1)
        )
    return dsl.Program(statements=tuple(statements))


@given(_program())
@settings(max_examples=200, deadline=None)
def test_round_trip_property(program):
    text = dsl.serialize_program(program)
    parsed = dsl.parse_program(text)
    assert parsed.statements == program.statements
    assert dsl.serialize_program(parsed) == text


# --- statement lines: pinned edge cases and generated lines ---------------


def parse_outcome(line: str):
    """The statement `parse_statement` returns for `line` as line 7, or the
    diagnostics it raises."""
    try:
        return dsl.parse_statement(line, 7)
    except DslSyntaxError as exc:
        return exc.diagnostics


def statement(*args) -> dsl.Statement:
    """`A=B(...)` at line 7 with the given (name, kind, value) arguments."""
    return dsl.Statement("A", "B", tuple((name, dsl.Arg(kind, value)) for name, kind, value in args), 7)


def syntax(message: str) -> list:
    return [dsl.Diagnostic("SYNTAX", message, 7)]


_blank = st.sampled_from(["", "", " ", "\t", " \t "])
_upper = st.sampled_from(["IMAGE", "BOX0", "FINAL_RESULT", "F", "X_1"])
_lower = st.sampled_from(["image", "object", "f", "x_1", "Ab", "_p"])
_string_body = st.lists(
    st.sampled_from(["a", " ", "\t", "\\'", "\\\\", '"', "{BOX0}", "é", ",", ")"]), max_size=5
).map("".join)
_template_body = st.lists(
    st.sampled_from(["{ANSWER0}", " ", "\t", "'", "\\", "+", "1.5", "a", ")", ","]), max_size=5
).map("".join)
_value = st.one_of(
    st.builds("'{}'".format, _string_body),
    st.builds('f"{}"'.format, _template_body),
    st.sampled_from(["0", "-1", "1.5", "-0.25", "007", "٣", "12.50"]),
    _upper,
    _lower,
)
# what a broken piece may be instead
_bad_blank = st.sampled_from(["\n", "\r", "\xa0"])
_bad_name = st.sampled_from(["9x", "", "-", "a-b"])
_bad_value = st.sampled_from(
    ["'x", "'a\\n'", "'a\\", 'f"x', "1.", ".5", "-", "1e3", "", "f 'x'", "a b", "'x''y'"]
)


@st.composite
def _line(draw):
    """A statement line from the grammar's pieces; each piece is sometimes
    swapped for a broken one, so about a third of the lines are valid."""

    def piece(good, bad):
        return draw(bad if draw(st.integers(0, 19)) == 0 else good)

    def blank():
        return piece(_blank, _bad_blank)

    def token(good, *bad):
        return blank() + piece(st.just(good) if isinstance(good, str) else good, st.sampled_from(bad))

    names = [piece(_lower, st.one_of(_upper, _bad_name)) for _ in range(draw(st.integers(0, 3)))]
    if names and draw(st.integers(0, 7)) == 0:
        names.append(names[0])  # a duplicate keyword
    args = [blank() + name + token("=", "==", ":") + blank() + piece(_value, _bad_value)
            for name in names]
    separator = blank() + piece(st.just(","), st.sampled_from([",,", ";", ""])) + blank()
    return (
        token(_upper, "box", "9A", "") + token("=", ":", "==") + token(_upper, "Vqa", "")
        + token("(", "[", "") + separator.join(args) + token(")", "", "]")
        + blank() + piece(st.just(""), st.sampled_from(["x", ")", "#", "'"]))
    )


@given(_line())
@settings(max_examples=600, deadline=None)
def test_a_generated_line_parses_to_a_canonical_statement_or_one_syntax_error(line):
    outcome = parse_outcome(line)
    if isinstance(outcome, dsl.Statement):
        assert parse_outcome(dsl.serialize_statement(outcome)) == outcome
    else:
        assert [(d.code, d.line_no) for d in outcome] == [("SYNTAX", 7)]


# what each line parses to, or the one diagnostic it raises
EDGE_LINES = {
    "A=B()": statement(),
    " A =\tB ( ) ": statement(),
    "A=B(a=1,a=2)": syntax("duplicate keyword argument 'a'"),
    "A=B(a='x\\'y\\\\z', b=f\"{C}+1\", c=-0.5, d=left)": statement(
        ("a", "string-literal", "x'y\\z"), ("b", "template-string", "{C}+1"), ("c", "number", -0.5),
        ("d", "identifier-constant", "left"),
    ),
    "A=B(a='x\\n')": syntax("unsupported escape \\n in string literal"),
    "A=B(a='x": syntax("unterminated string literal"),
    "A=B(a=f\"x)": syntax("unterminated template string"),
    "A=B(a=1.)": syntax("expected ')', found '.'"),
    "A=B(a=1)x": syntax("trailing text after statement: 'x'"),
    "a=B()": syntax("target 'a' must be uppercase alphanumeric"),
    "A=b()": syntax("module name 'b' must match [A-Z][A-Z0-9_]*"),
    "A=B(a=1,)": syntax("expected a parameter name"),
    "A=B(,a=1)": syntax("expected a parameter name"),
    "A=B(a=)": syntax("unexpected character ')' in argument value"),
    "A=B": syntax("expected '(', found 'end of line'"),
    "": syntax("expected a target variable name"),
    "A=B(a='x' b=1)": syntax("expected ')', found 'b'"),
}


@pytest.mark.parametrize("line", EDGE_LINES)
def test_regex_parser_edge_lines(line):
    assert parse_outcome(line) == EDGE_LINES[line]


def test_generated_programs_parse():
    for task in ("vqa", "grounding", "tagging", "editing", "raven", "mewl-analog"):
        for instance in generate_dataset(task, 3, 40):
            programs = [instance.canonical_program, instance.fallback_program]
            programs += [case["program"] for case in instance.module_cases.values()]
            for program in programs:
                dsl.parse_program(program)
