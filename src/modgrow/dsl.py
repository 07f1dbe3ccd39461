"""The symbolic visual-program language: parsing, validation, serialization.

A program is a straight line of module calls, one per line, each binding a
fresh uppercase variable:

    BOX0=LOC(image=IMAGE,object='person')
    ANSWER0=COUNT(box=BOX0)
    FINAL_RESULT=RESULT(var=ANSWER0)

The grammar is deliberately small: keyword arguments only, single-quoted
string literals, decimal numbers, bare uppercase identifiers as variable
references, and f"..." expression templates with {VAR} placeholders. Blanks
and tabs are allowed between tokens; the serializer emits none (no spaces
outside string payloads), and its canonical form round-trips through the
parser.

`validate_program` is the only check on a statement's shape: the executor
runs only programs it accepts, and checks none of its rules again.

One token-by-token scanner, `_LineScanner`, parses each line, and names the
first fault of a line that does not parse. `parse_program` keeps the parses
of the last 1,024 distinct program texts it was given, so a text that comes
back (the same question form asked of many images, or one candidate's
program over all its test cases) is scanned once. Sharing a parse is safe
because `Program`, `Statement` and `Arg` are frozen and hold only tuples,
strings and numbers. A text that does not parse is not kept, and raises
afresh on every call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import DslSyntaxError, SignatureParseError
from .values import tags_compatible

IDENT_RE = re.compile(r"[A-Z][A-Z0-9_]*")
PLACEHOLDER_RE = re.compile(r"\{([A-Z][A-Z0-9_]*)\}")
# a line shaped like one statement, with the blanks `_LineScanner` skips around
# `=` and before `(`; group 1 is the module name, and `^`/`$` match at each line
STATEMENT_LINE_RE = re.compile(
    r"^[ \t]*[A-Z][A-Z0-9_]*[ \t]*=[ \t]*([A-Z][A-Z0-9_]*)[ \t]*\(.*\)[ \t]*$", re.MULTILINE
)

# the two modules the language itself gives meaning to: EVAL resolves an
# expression template, and RESULT ends every program. Their outputs depend on
# their inputs' runtime types, so the validator treats their targets as
# dynamically typed.
EVAL, RESULT = "EVAL", "RESULT"
DYNAMIC_RETURN_MODULES = {EVAL, RESULT}


@dataclass(frozen=True, slots=True)
class Arg:
    """A single keyword-argument payload.

    kind is one of: variable-reference, string-literal, template-string,
    number, identifier-constant.
    """

    kind: str
    value: object

    def placeholders(self) -> list[str]:
        if self.kind != "template-string":
            return []
        return PLACEHOLDER_RE.findall(self.value)


@dataclass(frozen=True, slots=True)
class Statement:
    target: str
    module_name: str
    args: tuple[tuple[str, Arg], ...]
    line_no: int

    def arg_map(self) -> dict[str, Arg]:
        return dict(self.args)


@dataclass(frozen=True, slots=True)
class Program:
    statements: tuple[Statement, ...]


@dataclass(frozen=True)
class ModuleSignature:
    name: str
    params: tuple[tuple[str, str], ...]  # ordered (param name, semantic tag)
    returns: str
    doc: str = ""
    usage_examples: tuple[str, ...] = ()

    def param_map(self) -> dict[str, str]:
        return dict(self.params)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    line_no: int


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _LineScanner:
    """Token-by-token walk of one line: the statement it holds, or a
    `DslSyntaxError` with one `SYNTAX` diagnostic naming the first fault."""

    def __init__(self, line: str, line_no: int):
        self.text = line
        self.pos = 0
        self.line_no = line_no

    def error(self, message: str) -> DslSyntaxError:
        return DslSyntaxError([Diagnostic("SYNTAX", message, self.line_no)])

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
        # opening quote already consumed by caller
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
        # f" already consumed; templates end at the next unescaped double quote
        start = self.pos
        while not self.eof() and self.text[self.pos] != '"':
            self.pos += 1
        if self.eof():
            raise self.error("unterminated template string")
        body = self.text[start : self.pos]
        self.pos += 1
        return body

    def value(self) -> Arg:
        self.skip_spaces()
        if self.eof():
            raise self.error("expected a value")
        ch = self.text[self.pos]
        if ch == "'":
            self.pos += 1
            return Arg("string-literal", self.string_literal())
        if ch == "f" and self.text[self.pos : self.pos + 2] == 'f"':
            self.pos += 2
            return Arg("template-string", self.template_body())
        m = re.match(r"-?\d+\.\d+|-?\d+", self.text[self.pos :])
        if m:
            raw = m.group(0)
            self.pos += m.end()
            return Arg("number", float(raw) if "." in raw else int(raw))
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", self.text[self.pos :])
        if m:
            word = m.group(0)
            self.pos += m.end()
            if IDENT_RE.fullmatch(word):
                return Arg("variable-reference", word)
            return Arg("identifier-constant", word)
        raise self.error(f"unexpected character {ch!r} in argument value")

    def statement(self) -> Statement:
        target = self.ident("a target variable name")
        if not IDENT_RE.fullmatch(target):
            raise self.error(f"target {target!r} must be uppercase alphanumeric")
        self.expect("=")
        module_name = self.ident("a module name")
        if not IDENT_RE.fullmatch(module_name):
            raise self.error(f"module name {module_name!r} must match [A-Z][A-Z0-9_]*")
        self.expect("(")
        args: list[tuple[str, Arg]] = []
        seen: set[str] = set()
        self.skip_spaces()
        if self.peek() == ")":
            self.pos += 1
        else:
            while True:
                pname = self.ident("a parameter name")
                if pname in seen:
                    raise self.error(f"duplicate keyword argument {pname!r}")
                seen.add(pname)
                self.expect("=")
                args.append((pname, self.value()))
                self.skip_spaces()
                if self.peek() == ",":
                    self.pos += 1
                    continue
                self.expect(")")
                break
        self.skip_spaces()
        if not self.eof():
            raise self.error(f"trailing text after statement: {self.text[self.pos:]!r}")
        return Statement(target, module_name, tuple(args), self.line_no)


def parse_statement(line: str, line_no: int) -> Statement:
    """Parse one statement; raises DslSyntaxError naming the first fault."""
    return _LineScanner(line, line_no).statement()


def parse_program(source: str) -> Program:
    """Parse program text into a Program; raises DslSyntaxError on bad lines.

    Blank lines are ignored but counted for line numbers. Structural rules
    (RESULT terminator, reference resolution, assign-once) are checked by
    validate_program, not here. The Program of each of the last 1,024
    distinct texts is kept and returned again for the same text; callers
    share it, which its frozen classes make safe.
    """
    if not source or not source.strip():
        raise DslSyntaxError([Diagnostic("SYNTAX", "empty program", 1)])
    return _parse_program(source)


@lru_cache(maxsize=1024)
def _parse_program(source: str) -> Program:
    statements: list[Statement] = []
    diagnostics: list[Diagnostic] = []
    for i, line in enumerate(source.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            statements.append(parse_statement(line.strip(), i))
        except DslSyntaxError as exc:
            diagnostics.extend(exc.diagnostics)
    if diagnostics:
        raise DslSyntaxError(diagnostics)
    return Program(statements=tuple(statements))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _render_number(n) -> str:
    if isinstance(n, int):
        return str(n)
    return repr(float(n))


def serialize_arg(arg: Arg) -> str:
    if arg.kind == "string-literal":
        escaped = str(arg.value).replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if arg.kind == "template-string":
        return f'f"{arg.value}"'
    if arg.kind == "number":
        return _render_number(arg.value)
    return str(arg.value)


def serialize_statement(st: Statement) -> str:
    rendered = ",".join(f"{name}={serialize_arg(arg)}" for name, arg in st.args)
    return f"{st.target}={st.module_name}({rendered})"


def serialize_program(program: Program) -> str:
    """Canonical text: one statement per line, no incidental whitespace."""
    return "\n".join(serialize_statement(s) for s in program.statements)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

_LITERAL_KIND_TO_TAG = {
    "string-literal": "text",
    "identifier-constant": "text",
    "number": "number",
}


def validate_program(program: Program, known_signatures, initial_bindings=None) -> list[Diagnostic]:
    """Check a parsed program against a signature catalogue.

    Returns an empty list iff every module is known, every keyword matches
    the signature, every reference resolves, semantic types line up, targets
    are assign-once and the program ends in FINAL_RESULT=RESULT(...). Never
    raises.
    """
    diags: list[Diagnostic] = []
    sigs = {s.name: s for s in known_signatures}
    bound: dict[str, str] = dict(initial_bindings or {})

    for st in program.statements:
        sig = sigs.get(st.module_name)
        arg_map = st.arg_map()
        if sig is None:
            diags.append(
                Diagnostic("UNKNOWN_MODULE", f"unknown module {st.module_name}", st.line_no)
            )
            # references still need to resolve even when the module is unknown
            for pname, arg in st.args:
                if arg.kind == "variable-reference" and arg.value not in bound:
                    diags.append(
                        Diagnostic("UNDEFINED_VAR", f"undefined variable {arg.value}", st.line_no)
                    )
            result_tag = "any"
        else:
            params = sig.param_map()
            for pname in arg_map:
                if pname not in params:
                    diags.append(
                        Diagnostic(
                            "ARITY_MISMATCH",
                            f"{st.module_name} has no parameter {pname!r}",
                            st.line_no,
                        )
                    )
            for pname in params:
                if pname not in arg_map:
                    diags.append(
                        Diagnostic(
                            "ARITY_MISMATCH",
                            f"{st.module_name} missing required parameter {pname!r}",
                            st.line_no,
                        )
                    )
            for pname, arg in st.args:
                declared = params.get(pname)
                if declared is None:
                    continue
                diags.extend(_check_arg(st, pname, arg, declared, bound))
            result_tag = "any" if st.module_name in DYNAMIC_RETURN_MODULES else sig.returns

        if st.target in bound:
            diags.append(
                Diagnostic("REASSIGNMENT", f"variable {st.target} assigned twice", st.line_no)
            )
        else:
            bound[st.target] = result_tag

    last = program.statements[-1] if program.statements else None
    if last is None or last.module_name != RESULT or last.target != "FINAL_RESULT":
        line = last.line_no if last else 1
        diags.append(Diagnostic("MISSING_RESULT", "program must end with FINAL_RESULT=RESULT(...)", line))
    return diags


def _check_arg(st: Statement, pname: str, arg: Arg, declared: str, bound) -> list[Diagnostic]:
    """The faults of one argument. Only EVAL resolves a template string, and a
    `template` parameter takes only a template string or a quoted text."""
    diags: list[Diagnostic] = []
    if arg.kind == "template-string":
        if declared != "template" or st.module_name != EVAL:
            diags.append(
                Diagnostic(
                    "TYPE_MISMATCH",
                    f"parameter {pname!r} of {st.module_name} does not take a template",
                    st.line_no,
                )
            )
        for ph in arg.placeholders():
            if ph not in bound:
                diags.append(
                    Diagnostic("UNDEFINED_VAR", f"undefined variable {ph}", st.line_no)
                )
        return diags
    if arg.kind == "variable-reference":
        name = arg.value
        if name not in bound:
            diags.append(Diagnostic("UNDEFINED_VAR", f"undefined variable {name}", st.line_no))
            return diags
        if declared == "template":  # whatever its tag, a variable is no template
            diags.append(
                Diagnostic(
                    "TYPE_MISMATCH",
                    f"parameter {pname!r} of {st.module_name} expects template, got variable {name}",
                    st.line_no,
                )
            )
            return diags
        actual = bound[name]
        if st.module_name == RESULT or actual == "any":
            return diags
        if not tags_compatible(declared, actual):
            diags.append(
                Diagnostic(
                    "TYPE_MISMATCH",
                    f"parameter {pname!r} of {st.module_name} expects {declared}, got {actual}",
                    st.line_no,
                )
            )
        return diags
    literal_tag = _LITERAL_KIND_TO_TAG[arg.kind]
    if declared == "template" and arg.kind == "string-literal":
        # EVAL resolves a quoted text as a template, so its placeholders must be bound
        return [
            Diagnostic("UNDEFINED_VAR", f"undefined variable {ph}", st.line_no)
            for ph in PLACEHOLDER_RE.findall(arg.value)
            if st.module_name == EVAL and ph not in bound
        ]
    if not tags_compatible(declared, literal_tag):
        diags.append(
            Diagnostic(
                "TYPE_MISMATCH",
                f"parameter {pname!r} of {st.module_name} expects {declared}, got {literal_tag}",
                st.line_no,
            )
        )
    return diags


# ---------------------------------------------------------------------------
# Signature blocks
# ---------------------------------------------------------------------------

_CLASS_RE = re.compile(r"^\s*class\s+([A-Za-z_][A-Za-z0-9_]*)\s*(\(\s*\))?\s*:", re.MULTILINE)
_SECTION_RE = re.compile(r"^(Input|Output|Examples)\s*:\s*$")
_PARAM_LINE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+)$")


def infer_semantic_tag(description: str) -> str:
    """Map a free-text parameter description onto a semantic type tag."""
    d = description.lower()
    if "bounding box" in d:
        return "box-list"
    if "list" in d:
        return "list"
    if "image" in d:
        return "image"
    if "template" in d or "expression" in d:
        return "template"
    if "true" in d or "false" in d or "boolean" in d or "flag" in d:
        return "boolean"
    if "number" in d:
        return "number"
    return "text"


def _extract_docstring(source: str, class_end: int) -> str:
    rest = source[class_end:]
    m = re.search(r'("""|\'\'\')', rest)
    if not m:
        raise SignatureParseError("MALFORMED_SIGNATURE: no documentation block found")
    quote = m.group(1)
    start = m.end()
    end = rest.find(quote, start)
    if end < 0:
        raise SignatureParseError("MALFORMED_SIGNATURE: unterminated documentation block")
    return rest[start:end]


def parse_signature_block(source: str) -> ModuleSignature:
    """Extract a ModuleSignature from a module header or full module source.

    The documentation block must contain ``Input:`` and ``Output:`` sections
    of ``name: description`` lines; an optional ``Examples:`` section supplies
    usage fragments. Semantic tags are inferred from description wording.
    """
    m = _CLASS_RE.search(source)
    if not m:
        raise SignatureParseError("MALFORMED_SIGNATURE: no named block found")
    name = m.group(1).upper()
    doc = _extract_docstring(source, m.end())

    sections: dict[str, list[str]] = {"": []}
    current = ""
    for raw_line in doc.split("\n"):
        line = raw_line.strip()
        sec = _SECTION_RE.match(line)
        if sec:
            current = sec.group(1)
            sections.setdefault(current, [])
            continue
        sections.setdefault(current, []).append(line)

    if "Input" not in sections:
        raise SignatureParseError(f"MALFORMED_SIGNATURE: {name} has no Input section")
    if "Output" not in sections:
        raise SignatureParseError(f"MALFORMED_SIGNATURE: {name} has no Output section")

    params: list[tuple[str, str]] = []
    for line in sections["Input"]:
        pm = _PARAM_LINE_RE.match(line)
        if pm:
            params.append((pm.group(1), infer_semantic_tag(pm.group(2))))
    returns = "text"
    for line in sections["Output"]:
        pm = _PARAM_LINE_RE.match(line)
        if pm:
            returns = infer_semantic_tag(pm.group(2))
            break

    usage: list[str] = []
    for line in sections.get("Examples", []):
        if STATEMENT_LINE_RE.match(line):
            usage.append(line)

    free_doc = " ".join(l for l in sections[""] if l).strip()
    return ModuleSignature(
        name=name,
        params=tuple(params),
        returns=returns,
        doc=free_doc,
        usage_examples=tuple(usage),
    )


# the tags a signature may declare, and how a prompt describes each
TAG_DESCRIPTIONS = {
    "image": "an image object",
    "box-list": "a list of bounding boxes",
    "text": "a text string",
    "number": "a number",
    "boolean": "a boolean flag (True or False)",
    "template": "an expression template to evaluate",
    "list": "a list of values",
}


def render_signature_block(sig: ModuleSignature) -> str:
    """Render a signature as the class-header block used inside prompts.

    The rendering is the inverse of parse_signature_block at the tag level:
    parsing the rendered block recovers the same name, params and returns.
    """
    lines = [f"class {sig.name}():", '    """']
    if sig.doc:
        lines.append(f"    {sig.doc}")
    lines.append("    Input:")
    for pname, tag in sig.params:
        lines.append(f"        {pname}: {TAG_DESCRIPTIONS[tag]}")
    lines.append("    Output:")
    lines.append(f"        result: {TAG_DESCRIPTIONS[sig.returns]}")
    if sig.usage_examples:
        lines.append("    Examples:")
        for ex in sig.usage_examples:
            lines.append(f"        {ex}")
    lines.append('    """')
    return "\n".join(lines)
