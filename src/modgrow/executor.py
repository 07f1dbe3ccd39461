"""Step-by-step interpreter for parsed programs.

`run_program` parses, validates and executes program text; a program that
does not parse or validate runs nothing and fails with an error of kind
`syntax` or `validation`. Each statement resolves its arguments against the
environment, dispatches to a builtin implementation or a registered
generated module, binds its target once, and appends a step record so every
run leaves a complete trace. A failed statement ends the run with its
`CapturedError`, which for a failure inside a generated module is the
sandbox's own.
"""

from __future__ import annotations

import ast
import json
import operator
import time
from dataclasses import dataclass, field
from typing import Callable

from . import values as V
from .builtins_catalog import BUILTIN_SIGNATURES
from .dsl import (
    PLACEHOLDER_RE,
    Arg,
    Diagnostic,
    Program,
    Statement,
    parse_program,
    serialize_statement,
    validate_program,
)
from .errors import BackendError, CapturedError, DslSyntaxError, ExecutorRuntimeError, TemplateEvalError
from .scene import half_box
from .values import Value


def _type_error(message: str) -> ExecutorRuntimeError:
    return ExecutorRuntimeError(CapturedError("type", message))


@dataclass
class Environment:
    """Assign-once variable bindings for one execution."""

    bindings: dict[str, Value] = field(default_factory=dict)

    def lookup(self, name: str) -> Value:
        if name not in self.bindings:
            raise _type_error(f"unbound variable {name}")
        return self.bindings[name]

    def bind(self, name: str, value: Value) -> None:
        if name in self.bindings:
            raise _type_error(f"variable {name} already bound")
        self.bindings[name] = value


@dataclass(frozen=True)
class StepRecord:
    statement: str
    line_no: int
    module_kind: str  # builtin | generated
    inputs: dict[str, Value]
    output: str
    elapsed_ms: float

    @property
    def resolved_inputs(self) -> dict[str, str]:
        """The inputs, summarized; built on read, since few runs keep a trace."""
        return {name: V.summarize(value) for name, value in self.inputs.items()}


@dataclass(frozen=True)
class ExecutionResult:
    """A run failed exactly when `error` is set; `line_no` is then the
    program line of the failing statement."""

    final: Value | None
    trace: tuple[StepRecord, ...]
    error: CapturedError | None = None
    line_no: int | None = None
    diagnostics: tuple[Diagnostic, ...] = ()  # every one, when the error is of kind syntax or validation


# ---------------------------------------------------------------------------
# Expression templates
# ---------------------------------------------------------------------------


def _render_literal(value: Value) -> str:
    if value.tag == "number":
        return str(value.payload) if isinstance(value.payload, int) else repr(float(value.payload))
    if value.tag == "boolean":
        return "True" if value.payload else "False"
    if value.tag == "text":
        escaped = value.payload.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if value.tag == "null":
        return "None"
    raise TemplateEvalError(
        "TEMPLATE_SYNTAX", f"a {value.tag} value cannot appear inside an expression template"
    )


# one table per operator kind: the operators a template may use, and what each does
_UNARY_OPS = {ast.Not: operator.not_, ast.USub: operator.neg, ast.UAdd: operator.pos}
_ARITHMETIC_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv
}
_COMPARISON_OPS = {
    ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt, ast.LtE: operator.le,
    ast.Gt: operator.gt, ast.GtE: operator.ge,
    ast.In: lambda left, right: left in right, ast.NotIn: lambda left, right: left not in right,
}


def _eval_node(node: ast.AST):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (bool, int, float, str)) or node.value is None:
            return node.value
        raise TemplateEvalError("TEMPLATE_SYNTAX", f"unsupported literal {node.value!r}")
    if isinstance(node, ast.UnaryOp):
        op = _UNARY_OPS.get(type(node.op))
        if op is None:
            raise TemplateEvalError("TEMPLATE_SYNTAX", "unsupported unary operator")
        return op(_eval_node(node.operand))
    if isinstance(node, ast.BinOp):
        op = _ARITHMETIC_OPS.get(type(node.op))
        if op is None:
            raise TemplateEvalError("TEMPLATE_SYNTAX", "unsupported arithmetic operator")
        return op(_eval_node(node.left), _eval_node(node.right))
    if isinstance(node, ast.BoolOp):
        if isinstance(node.op, ast.And):
            result = True
            for v in node.values:
                result = _eval_node(v)
                if not result:
                    return result
            return result
        result = False
        for v in node.values:
            result = _eval_node(v)
            if result:
                return result
        return result
    if isinstance(node, ast.Compare):
        left = _eval_node(node.left)
        for op_node, comparator in zip(node.ops, node.comparators):
            op = _COMPARISON_OPS.get(type(op_node))
            if op is None:
                raise TemplateEvalError("TEMPLATE_SYNTAX", "unsupported comparison operator")
            right = _eval_node(comparator)
            if not op(left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.IfExp):
        return _eval_node(node.body) if _eval_node(node.test) else _eval_node(node.orelse)
    raise TemplateEvalError(
        "TEMPLATE_SYNTAX", f"{type(node).__name__} is not allowed in expression templates"
    )


def eval_template(template: str, env: Environment) -> Value:
    """Substitute {VAR} placeholders, then evaluate under a restricted grammar.

    Only literals, comparisons, arithmetic, boolean connectives, text
    membership and conditional expressions are permitted; name lookups,
    calls, subscripts and attribute access are rejected outright.
    """

    def substitute(match):
        name = match.group(1)
        if name not in env.bindings:
            raise TemplateEvalError("UNBOUND_PLACEHOLDER", f"placeholder {{{name}}} is unbound")
        return _render_literal(env.bindings[name])

    expr = PLACEHOLDER_RE.sub(substitute, template)
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise TemplateEvalError("TEMPLATE_SYNTAX", f"bad expression {expr!r}: {exc.msg}") from exc
    try:
        result = _eval_node(tree)
    except (TypeError, ZeroDivisionError) as exc:
        raise TemplateEvalError("TEMPLATE_SYNTAX", f"expression failed: {exc}") from exc
    return V.infer_value(result)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

EXPAND_FACTOR = 1.5


def expand_box(box, img_size, factor: float = EXPAND_FACTOR):
    """Grow a box about its center by `factor` per side, clamped to bounds."""
    W, H = img_size
    x1, y1, x2, y2 = box
    dw = int(factor * (x2 - x1) / 2)
    dh = int(factor * (y2 - y1) / 2)
    cx = int((x1 + x2) / 2)
    cy = int((y1 + y2) / 2)
    return [max(0, cx - dw), max(0, cy - dh), min(cx + dw, W), min(cy + dh, H)]


def _crop_builtin(which: str):
    def run(args, backend):
        handle, boxes = args["image"].payload, args["box"].payload
        if not boxes:
            return V.image(handle.crop((0, 0, handle.width, handle.height)))
        first = boxes[0]
        if which == "around":
            return V.image(handle.crop(expand_box(first, handle.size)))
        cx = (first[0] + first[2]) // 2
        cy = (first[1] + first[3]) // 2
        w, h = handle.width, handle.height
        region = {
            "leftof": (0, 0, cx, h),
            "rightof": (cx, 0, w, h),
            "above": (0, 0, w, cy),
            "below": (0, cy, w, h),
        }[which]
        return V.image(handle.crop(region))

    return run


def _builtin_loc(args, backend):
    handle = args["image"].payload
    name = args["object"].payload
    if name in ("TOP", "BOTTOM", "LEFT", "RIGHT"):
        return V.box_list([half_box(handle.width, handle.height, name.lower())])
    return V.box_list(backend.locate(handle, name))


def _builtin_select(args, backend):
    handle = args["image"].payload
    boxes = args["box"].payload
    query = args["query"].payload
    if not boxes:
        return V.box_list([])
    scores = [backend.score_alignment(handle.crop(b), [query])[0] for b in boxes]
    best = max(scores)
    return V.box_list([b for b, s in zip(boxes, scores) if s == best])


def _builtin_filter_property(args, backend):
    handle = args["image"].payload
    boxes = args["box"].payload
    prop = args["property"].payload
    kept = [
        b for b in boxes if backend.score_alignment(handle.crop(b), [prop])[0] > 0.5
    ]
    return V.box_list(kept)


def _builtin_filter_spatial(args, backend):
    handle = args["image"].payload
    boxes = args["box"].payload
    location = args["location"].payload.lower()
    w, h = handle.width, handle.height

    def keep(box):
        cx = (box[0] + box[2]) / 2
        cy = (box[1] + box[3]) / 2
        if location == "left":
            return cx < w / 2
        if location == "right":
            return cx > w / 2
        if location == "top":
            return cy < h / 2
        if location == "bottom":
            return cy > h / 2
        raise _type_error(f"unknown spatial location {location!r}")

    return V.box_list([b for b in boxes if keep(b)])


def _builtin_replace(args, backend):
    handle = args["image"].payload
    mask = args["mask"].payload
    prompt = args["prompt"].payload
    return V.image(backend.inpaint_region(handle, list(mask), prompt))


def _edit_builtin(kind: str):
    def run(args, backend):
        handle = args["image"].payload
        mask = args["mask"].payload
        return V.image(handle.with_edit(kind, list(mask)))

    return run


def _overlay_builtin(label_param: str):
    def run(args, backend):
        handle = args["image"].payload
        boxes = args["box"].payload
        label = args[label_param].payload
        for box in boxes:
            handle = handle.with_overlay(box, label)
        return V.image(handle)

    return run


def _builtin_list(args, backend):
    query = args["query"].payload
    limit = args["max"].payload
    lines = [l.strip() for l in backend.general_text(query).split("\n") if l.strip()]
    return V.list_value(lines[: int(limit)])


BUILTIN_IMPLS: dict[str, Callable] = {
    "LOC": _builtin_loc,
    "COUNT": lambda args, backend: V.number(len(args["box"].payload)),
    "CROP": _crop_builtin("around"),
    "CROP_LEFTOF": _crop_builtin("leftof"),
    "CROP_RIGHTOF": _crop_builtin("rightof"),
    "CROP_ABOVE": _crop_builtin("above"),
    "CROP_BELOW": _crop_builtin("below"),
    "VQA": lambda args, backend: V.text(
        backend.answer_question(args["image"].payload, args["question"].payload)
    ),
    "SELECT": _builtin_select,
    "FILTER_PROPERTY": _builtin_filter_property,
    "FILTER_SPATIAL": _builtin_filter_spatial,
    "REPLACE": _builtin_replace,
    "COLORPOP": _edit_builtin("colorpop"),
    "BGBLUR": _edit_builtin("bgblur"),
    "TAG": _overlay_builtin("label"),
    "EMOJI": _overlay_builtin("emoji"),
    "FACEDET": lambda args, backend: V.box_list(backend.locate(args["image"].payload, "face")),
    "LIST": _builtin_list,
    "BOX2MASK": lambda args, backend: V.mask(args["box"].payload),
    "MASK2BOX": lambda args, backend: V.box_list(args["mask"].payload),
}


# each builtin's parameters in signature order, with the runtime tags its declared tag accepts
_BUILTIN_PARAMS = {
    sig.name: tuple(
        (pname, tuple(tag for tag in V.VALUE_TAGS if V.tags_compatible(declared, tag)))
        for pname, declared in sig.params
    )
    for sig in BUILTIN_SIGNATURES if sig.name in BUILTIN_IMPLS
}


def run_builtin(name: str, args: dict[str, Value], backend) -> Value:
    """Execute one builtin by name over already-resolved argument values,
    each checked against the tag its `BUILTIN_SIGNATURES` entry declares."""
    impl = BUILTIN_IMPLS.get(name)
    if impl is None:
        raise _type_error(f"UNKNOWN_BUILTIN: {name}")
    for pname, accepted in _BUILTIN_PARAMS[name]:
        tag = args[pname].tag
        if tag not in accepted:
            raise _type_error(f"argument {pname!r} must be {' or '.join(accepted)}, got {tag}")
    try:
        return impl(args, backend)
    except BackendError as exc:
        raise ExecutorRuntimeError(CapturedError("backend", str(exc))) from exc


# ---------------------------------------------------------------------------
# Program execution
# ---------------------------------------------------------------------------


def _resolve_arg(arg: Arg, env: Environment) -> Value:
    if arg.kind == "variable-reference":
        return env.lookup(arg.value)
    if arg.kind == "number":
        return V.number(arg.value)
    if arg.kind in ("string-literal", "identifier-constant"):
        return V.text(arg.value)
    raise _type_error("template arguments are resolved by EVAL itself")


def _execute_statement(st: Statement, env: Environment, registry, backend) -> tuple[Value, dict, str]:
    if st.module_name == "EVAL":
        arg = st.arg_map().get("expr")
        if arg is None:
            raise _type_error("EVAL requires an expr argument")
        template = arg.value if arg.kind in ("template-string", "string-literal") else None
        if template is None:
            raise _type_error("EVAL expr must be a template")
        inputs = {ph: env.lookup(ph) for ph in PLACEHOLDER_RE.findall(template)}
        try:
            return eval_template(template, env), inputs, "builtin"
        except TemplateEvalError as exc:
            raise ExecutorRuntimeError(CapturedError("template", str(exc))) from exc

    resolved: dict[str, Value] = {}
    for pname, arg in st.args:
        resolved[pname] = _resolve_arg(arg, env)

    if st.module_name == "RESULT":
        if "var" not in resolved:
            raise _type_error("RESULT requires a var argument")
        return resolved["var"], resolved, "builtin"

    if registry.is_generated(st.module_name):
        value = registry.invoke_generated(st.module_name, resolved, backend)
        return value, resolved, "generated"

    return run_builtin(st.module_name, resolved, backend), resolved, "builtin"


def execute_program(program: Program, init: Environment, registry, backend) -> ExecutionResult:
    """Run a validated program; on failure the partial trace is retained."""
    env = Environment(bindings=dict(init.bindings))
    trace: list[StepRecord] = []
    final: Value | None = None
    for st in program.statements:
        started = time.perf_counter()
        try:
            value, inputs, kind = _execute_statement(st, env, registry, backend)
            env.bind(st.target, value)
        except ExecutorRuntimeError as exc:
            return ExecutionResult(None, tuple(trace), exc.error, st.line_no)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        trace.append(
            StepRecord(
                statement=serialize_statement(st),
                line_no=st.line_no,
                module_kind=kind,
                inputs=inputs,
                output=V.summarize(value),
                elapsed_ms=elapsed_ms,
            )
        )
        if st.module_name == "RESULT":
            final = value
    if final is None:
        last_line = program.statements[-1].line_no if program.statements else 1
        return ExecutionResult(
            None, tuple(trace), CapturedError("type", "no RESULT statement executed"), last_line
        )
    return ExecutionResult(final, tuple(trace))


def run_program(source: str, init: Environment, registry, backend) -> ExecutionResult:
    """Parse `source`, validate it, and execute it if it validates.

    The program is checked against `registry.signatures()` and the tags of
    `init`'s bindings. A program with a line that does not parse, or one
    that fails a check, runs nothing: the result is an error of kind
    `syntax` or `validation` whose message is the first diagnostic's code
    and message, with an empty trace and every diagnostic kept."""
    try:
        program = parse_program(source)
    except DslSyntaxError as exc:
        return _refused("syntax", exc.diagnostics)
    tags = {name: value.tag for name, value in init.bindings.items()}
    diagnostics = validate_program(program, registry.signatures(), tags)
    if diagnostics:
        return _refused("validation", diagnostics)
    return execute_program(program, init, registry, backend)


def _refused(kind: str, diagnostics) -> ExecutionResult:
    first = diagnostics[0]
    error = CapturedError(kind, f"{first.code} {first.message}")
    return ExecutionResult(None, (), error, first.line_no, tuple(diagnostics))


def trace_to_jsonl(trace) -> str:
    """Render step records as JSON lines for the CLI trace dump."""
    lines = []
    for step in trace:
        doc = {
            "statement": step.statement,
            "line_no": step.line_no,
            "module_kind": step.module_kind,
            "resolved_inputs": step.resolved_inputs,
            "output": step.output,
            "elapsed_ms": round(step.elapsed_ms, 3),
        }
        lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines)
