"""The DSL: parsing, serialization, validation and signature blocks.

`ReferenceScanner` and `reference_parse_statement` are the token-by-token
statement parser that `dsl.parse_statement` used before it matched whole
lines with one compiled regex; every statement and every syntax diagnostic
the regex parser gives must equal theirs.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrow import dsl
from modgrow.errors import DslSyntaxError, SignatureParseError
from modgrow.gateway import load_template
from modgrow.harness.datasets import generate_dataset
from modgrow.reference_modules import (
    CHOOSE_ATTRIBUTE_SOURCE,
    SORT_SPATIAL_SOURCE,
    fixture_signatures,
)
from modgrow.registry import builtin_library, signatures

from program_corpus import CORPUS, PURSE_PROGRAM


def corpus_signatures():
    sigs = signatures(builtin_library()) + fixture_signatures()
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
        assert dsl.programs_equal(program, again)

    def test_minimal_exact(self):
        text = "FINAL_RESULT=RESULT(var=ANSWER0)"
        assert dsl.serialize_program(dsl.parse_program(text)) == text


class TestValidate:
    def test_corpus_validates_clean(self):
        sigs = corpus_signatures()
        for name, text, full, bindings in CORPUS:
            diags = dsl.check_program(text, sigs, bindings, require_result=full)
            assert diags == [], (name, diags)

    def test_unknown_module_flagged(self, builtin_lib):
        diags = dsl.check_program(
            "FLAG0=COMPARE_SIZE(image=IMAGE,box0=BOX0,box1=BOX0)\nFINAL_RESULT=RESULT(var=FLAG0)",
            signatures(builtin_lib),
            {"IMAGE": "image", "BOX0": "box-list"},
        )
        assert [d.code for d in diags] == ["UNKNOWN_MODULE"]
        assert diags[0].line_no == 1

    def test_undefined_var_and_missing_result(self, builtin_lib):
        diags = dsl.check_program("ANSWER0=COUNT(box=BOX9)", signatures(builtin_lib), {})
        codes = {d.code for d in diags}
        assert codes == {"UNDEFINED_VAR", "MISSING_RESULT"}

    def test_misspelled_keyword_is_arity_mismatch(self, builtin_lib):
        diags = dsl.check_program(
            "BOX0=LOC(image=IMAGE,objct='cat')\nFINAL_RESULT=RESULT(var=BOX0)",
            signatures(builtin_lib),
            {"IMAGE": "image"},
        )
        codes = [d.code for d in diags]
        assert "ARITY_MISMATCH" in codes  # unknown objct and missing object

    def test_reassignment_flagged(self, builtin_lib):
        diags = dsl.check_program(
            "BOX0=LOC(image=IMAGE,object='cat')\nBOX0=LOC(image=IMAGE,object='dog')\n"
            "FINAL_RESULT=RESULT(var=BOX0)",
            signatures(builtin_lib),
            {"IMAGE": "image"},
        )
        assert any(d.code == "REASSIGNMENT" and d.line_no == 2 for d in diags)

    def test_type_mismatch_flagged(self, builtin_lib):
        diags = dsl.check_program(
            "ANSWER0=COUNT(box='cat')\nFINAL_RESULT=RESULT(var=ANSWER0)",
            signatures(builtin_lib),
            {},
        )
        assert any(d.code == "TYPE_MISMATCH" for d in diags)

    def test_template_on_non_template_param(self, builtin_lib):
        diags = dsl.check_program(
            'BOX0=LOC(image=IMAGE,object=f"{IMAGE}")\nFINAL_RESULT=RESULT(var=BOX0)',
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
    assert dsl.programs_equal(parsed, program)
    assert dsl.serialize_program(parsed) == text


# --- the regex parser against the scanner it replaced ----------------------


class ReferenceScanner:
    def __init__(self, line: str, line_no: int):
        self.text = line
        self.pos = 0
        self.line_no = line_no

    def error(self, message: str) -> DslSyntaxError:
        return DslSyntaxError([dsl.Diagnostic("SYNTAX", message, self.line_no)])

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_spaces(self) -> None:
        while not self.eof() and self.text[self.pos] in " \t":
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_spaces()
        if self.eof() or self.text[self.pos] != ch:
            got = self.peek() or "end of line"
            raise self.error(f"expected {ch!r}, found {got!r}")
        self.pos += 1

    def ident(self, what: str) -> str:
        self.skip_spaces()
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", self.text[self.pos :])
        if not m:
            raise self.error(f"expected {what}")
        self.pos += m.end()
        return m.group(0)

    def string_literal(self) -> str:
        out = []
        while True:
            if self.eof():
                raise self.error("unterminated string literal")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == "\\":
                if self.eof():
                    raise self.error("dangling escape in string literal")
                nxt = self.text[self.pos]
                self.pos += 1
                if nxt in ("'", "\\"):
                    out.append(nxt)
                else:
                    raise self.error(f"unsupported escape \\{nxt} in string literal")
            elif ch == "'":
                return "".join(out)
            else:
                out.append(ch)

    def template_body(self) -> str:
        start = self.pos
        while not self.eof() and self.text[self.pos] != '"':
            self.pos += 1
        if self.eof():
            raise self.error("unterminated template string")
        body = self.text[start : self.pos]
        self.pos += 1
        return body

    def value(self) -> dsl.Arg:
        self.skip_spaces()
        if self.eof():
            raise self.error("expected a value")
        ch = self.text[self.pos]
        if ch == "'":
            self.pos += 1
            return dsl.Arg("string-literal", self.string_literal())
        if ch == "f" and self.text[self.pos : self.pos + 2] == 'f"':
            self.pos += 2
            return dsl.Arg("template-string", self.template_body())
        m = re.match(r"-?\d+\.\d+|-?\d+", self.text[self.pos :])
        if m:
            raw = m.group(0)
            self.pos += m.end()
            return dsl.Arg("number", float(raw) if "." in raw else int(raw))
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", self.text[self.pos :])
        if m:
            word = m.group(0)
            self.pos += m.end()
            if dsl.IDENT_RE.fullmatch(word):
                return dsl.Arg("variable-reference", word)
            return dsl.Arg("identifier-constant", word)
        raise self.error(f"unexpected character {ch!r} in argument value")


def reference_parse_statement(line: str, line_no: int) -> dsl.Statement:
    sc = ReferenceScanner(line, line_no)
    target = sc.ident("a target variable name")
    if not dsl.IDENT_RE.fullmatch(target):
        raise sc.error(f"target {target!r} must be uppercase alphanumeric")
    sc.expect("=")
    module_name = sc.ident("a module name")
    if not dsl.IDENT_RE.fullmatch(module_name):
        raise sc.error(f"module name {module_name!r} must match [A-Z][A-Z0-9_]*")
    sc.expect("(")
    args = []
    seen = set()
    sc.skip_spaces()
    if sc.peek() == ")":
        sc.pos += 1
    else:
        while True:
            pname = sc.ident("a parameter name")
            if pname in seen:
                raise sc.error(f"duplicate keyword argument {pname!r}")
            seen.add(pname)
            sc.expect("=")
            args.append((pname, sc.value()))
            sc.skip_spaces()
            if sc.peek() == ",":
                sc.pos += 1
                continue
            sc.expect(")")
            break
    sc.skip_spaces()
    if not sc.eof():
        raise sc.error(f"trailing text after statement: {sc.text[sc.pos:]!r}")
    return dsl.Statement(target=target, module_name=module_name, args=tuple(args), line_no=line_no)


def parse_outcome(parse, line: str):
    """The statement a parser returns, or the diagnostics it raises."""
    try:
        return parse(line, 7)
    except DslSyntaxError as exc:
        return exc.diagnostics


def assert_parses_as_reference(line: str) -> None:
    expected = parse_outcome(reference_parse_statement, line)
    assert parse_outcome(dsl.parse_statement, line) == expected
    if isinstance(expected, dsl.Statement):  # a valid line never needs the scanner
        assert dsl._STATEMENT_RE.fullmatch(line), line


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
def test_regex_parser_matches_reference_scanner(line):
    assert_parses_as_reference(line)


@pytest.mark.parametrize("line", [
    "A=B()", " A =\tB ( ) ", "A=B(a=1,a=2)", "A=B(a='x\\'y\\\\z', b=f\"{C}+1\", c=-0.5, d=left)",
    "A=B(a='x\\n')", "A=B(a='x", "A=B(a=f\"x)", "A=B(a=1.)", "A=B(a=1)x", "a=B()", "A=b()",
    "A=B(a=1,)", "A=B(,a=1)", "A=B(a=)", "A=B", "", "A=B(a='x' b=1)",
])
def test_regex_parser_edge_lines(line):
    assert_parses_as_reference(line)


def test_generated_programs_parse_as_reference():
    for task in ("vqa", "grounding", "tagging", "editing", "raven", "mewl-analog"):
        for instance in generate_dataset(task, 3, 40):
            programs = [instance.canonical_program, instance.fallback_program]
            programs += [case["program"] for case in instance.module_cases.values()]
            for program in programs:
                for line in program.split("\n"):
                    if line.strip():
                        assert_parses_as_reference(line.strip())
