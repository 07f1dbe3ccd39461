"""Step-by-step interpreter for parsed programs.

Each statement resolves its arguments against the environment, dispatches to
a builtin implementation or a registered generated module, binds its target
once, and appends a step record so every run leaves a complete trace.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from typing import Callable

from . import values as V
from .dsl import PLACEHOLDER_RE, Arg, Program, Statement
from .errors import BackendError, TemplateEvalError
from .scene import ImageHandle
from .values import Value


class ExecutorRuntimeError(Exception):
    """Internal signal carrying (kind, message) for a failed statement; a
    sandbox failure also carries the sandbox's own CapturedError."""

    def __init__(self, kind: str, message: str, captured=None):
        self.kind = kind  # backend | sandbox | type | template
        self.captured = captured
        super().__init__(message)


@dataclass
class Environment:
    """Assign-once variable bindings for one execution."""

    bindings: dict[str, Value] = field(default_factory=dict)

    def lookup(self, name: str) -> Value:
        if name not in self.bindings:
            raise ExecutorRuntimeError("type", f"unbound variable {name}")
        return self.bindings[name]

    def bind(self, name: str, value: Value) -> None:
        if name in self.bindings:
            raise ExecutorRuntimeError("type", f"variable {name} already bound")
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
class ExecutionError:
    line_no: int
    kind: str
    message: str
    captured: object | None = None  # the sandbox's CapturedError, for kind "sandbox"


@dataclass(frozen=True)
class ExecutionResult:
    final: Value | None
    trace: tuple[StepRecord, ...]
    status: str  # ok | error
    error: ExecutionError | None = None


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


_ALLOWED_BINOPS = {ast.Add, ast.Sub, ast.Mult, ast.Div}
_ALLOWED_CMPOPS = {ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.In, ast.NotIn}


def _eval_node(node: ast.AST):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (bool, int, float, str)) or node.value is None:
            return node.value
        raise TemplateEvalError("TEMPLATE_SYNTAX", f"unsupported literal {node.value!r}")
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.Not):
            return not _eval_node(node.operand)
        if isinstance(node.op, ast.USub):
            return -_eval_node(node.operand)
        if isinstance(node.op, ast.UAdd):
            return +_eval_node(node.operand)
        raise TemplateEvalError("TEMPLATE_SYNTAX", "unsupported unary operator")
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _ALLOWED_BINOPS:
            raise TemplateEvalError("TEMPLATE_SYNTAX", "unsupported arithmetic operator")
        left, right = _eval_node(node.left), _eval_node(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        return left / right
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
        for op, comparator in zip(node.ops, node.comparators):
            if type(op) not in _ALLOWED_CMPOPS:
                raise TemplateEvalError("TEMPLATE_SYNTAX", "unsupported comparison operator")
            right = _eval_node(comparator)
            if isinstance(op, ast.Eq):
                ok = left == right
            elif isinstance(op, ast.NotEq):
                ok = left != right
            elif isinstance(op, ast.Lt):
                ok = left < right
            elif isinstance(op, ast.LtE):
                ok = left <= right
            elif isinstance(op, ast.Gt):
                ok = left > right
            elif isinstance(op, ast.GtE):
                ok = left >= right
            elif isinstance(op, ast.In):
                ok = left in right
            else:
                ok = left not in right
            if not ok:
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


def _expect(args: dict[str, Value], name: str, tags: tuple[str, ...]) -> Value:
    value = args[name]
    if value.tag not in tags:
        raise ExecutorRuntimeError(
            "type", f"argument {name!r} must be {' or '.join(tags)}, got {value.tag}"
        )
    return value


def _first_box_or_none(value: Value):
    return value.payload[0] if value.payload else None


def _half_image_box(handle: ImageHandle, which: str):
    w, h = handle.width, handle.height
    return {
        "TOP": (0, 0, w, h // 2),
        "BOTTOM": (0, h // 2, w, h),
        "LEFT": (0, 0, w // 2, h),
        "RIGHT": (w // 2, 0, w, h),
    }[which]


def _crop_builtin(which: str):
    def run(args, backend):
        handle = _expect(args, "image", ("image",)).payload
        first = _first_box_or_none(_expect(args, "box", ("box-list", "mask")))
        if first is None:
            return V.image(handle.crop((0, 0, handle.width, handle.height)))
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
    handle = _expect(args, "image", ("image",)).payload
    name = _expect(args, "object", ("text",)).payload
    if name in ("TOP", "BOTTOM", "LEFT", "RIGHT"):
        return V.box_list([_half_image_box(handle, name)])
    return V.box_list(backend.locate(handle, name))


def _builtin_select(args, backend):
    handle = _expect(args, "image", ("image",)).payload
    boxes = _expect(args, "box", ("box-list", "mask")).payload
    query = _expect(args, "query", ("text",)).payload
    if not boxes:
        return V.box_list([])
    scores = [backend.score_alignment(handle.crop(b), [query])[0] for b in boxes]
    best = max(scores)
    return V.box_list([b for b, s in zip(boxes, scores) if s == best])


def _builtin_filter_property(args, backend):
    handle = _expect(args, "image", ("image",)).payload
    boxes = _expect(args, "box", ("box-list", "mask")).payload
    prop = _expect(args, "property", ("text",)).payload
    kept = [
        b for b in boxes if backend.score_alignment(handle.crop(b), [prop])[0] > 0.5
    ]
    return V.box_list(kept)


def _builtin_filter_spatial(args, backend):
    handle = _expect(args, "image", ("image",)).payload
    boxes = _expect(args, "box", ("box-list", "mask")).payload
    location = _expect(args, "location", ("text",)).payload.lower()
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
        raise ExecutorRuntimeError("type", f"unknown spatial location {location!r}")

    return V.box_list([b for b in boxes if keep(b)])


def _builtin_replace(args, backend):
    handle = _expect(args, "image", ("image",)).payload
    mask = _expect(args, "mask", ("box-list", "mask")).payload
    prompt = _expect(args, "prompt", ("text",)).payload
    return V.image(backend.inpaint_region(handle, list(mask), prompt))


def _edit_builtin(kind: str):
    def run(args, backend):
        handle = _expect(args, "image", ("image",)).payload
        mask = _expect(args, "mask", ("box-list", "mask")).payload
        return V.image(handle.with_edit(kind, list(mask)))

    return run


def _overlay_builtin(label_param: str):
    def run(args, backend):
        handle = _expect(args, "image", ("image",)).payload
        boxes = _expect(args, "box", ("box-list", "mask")).payload
        label = _expect(args, label_param, ("text",)).payload
        for box in boxes:
            handle = handle.with_overlay(box, label)
        return V.image(handle)

    return run


def _builtin_list(args, backend):
    query = _expect(args, "query", ("text",)).payload
    limit = _expect(args, "max", ("number",)).payload
    lines = [l.strip() for l in backend.general_text(query).split("\n") if l.strip()]
    return V.list_value(lines[: int(limit)])


BUILTIN_IMPLS: dict[str, Callable] = {
    "LOC": _builtin_loc,
    "COUNT": lambda args, backend: V.number(len(_expect(args, "box", ("box-list", "mask")).payload)),
    "CROP": _crop_builtin("around"),
    "CROP_LEFTOF": _crop_builtin("leftof"),
    "CROP_RIGHTOF": _crop_builtin("rightof"),
    "CROP_ABOVE": _crop_builtin("above"),
    "CROP_BELOW": _crop_builtin("below"),
    "VQA": lambda args, backend: V.text(
        backend.answer_question(
            _expect(args, "image", ("image",)).payload, _expect(args, "question", ("text",)).payload
        )
    ),
    "SELECT": _builtin_select,
    "FILTER_PROPERTY": _builtin_filter_property,
    "FILTER_SPATIAL": _builtin_filter_spatial,
    "REPLACE": _builtin_replace,
    "COLORPOP": _edit_builtin("colorpop"),
    "BGBLUR": _edit_builtin("bgblur"),
    "TAG": _overlay_builtin("label"),
    "EMOJI": _overlay_builtin("emoji"),
    "FACEDET": lambda args, backend: V.box_list(
        backend.locate(_expect(args, "image", ("image",)).payload, "face")
    ),
    "LIST": _builtin_list,
    "BOX2MASK": lambda args, backend: V.mask(_expect(args, "box", ("box-list", "mask")).payload),
    "MASK2BOX": lambda args, backend: V.box_list(_expect(args, "mask", ("box-list", "mask")).payload),
}


def run_builtin(name: str, args: dict[str, Value], backend) -> Value:
    """Execute one builtin by name over already-resolved argument values."""
    impl = BUILTIN_IMPLS.get(name)
    if impl is None:
        raise ExecutorRuntimeError("type", f"UNKNOWN_BUILTIN: {name}")
    try:
        return impl(args, backend)
    except BackendError as exc:
        raise ExecutorRuntimeError("backend", str(exc)) from exc


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
    raise ExecutorRuntimeError("type", "template arguments are resolved by EVAL itself")


def _execute_statement(st: Statement, env: Environment, registry, backend) -> tuple[Value, dict, str]:
    from .dsl import serialize_statement  # local to avoid import cycle at module load

    if st.module_name == "EVAL":
        arg = st.arg_map().get("expr")
        if arg is None:
            raise ExecutorRuntimeError("type", "EVAL requires an expr argument")
        template = arg.value if arg.kind in ("template-string", "string-literal") else None
        if template is None:
            raise ExecutorRuntimeError("type", "EVAL expr must be a template")
        inputs = {ph: env.lookup(ph) for ph in PLACEHOLDER_RE.findall(template)}
        try:
            return eval_template(template, env), inputs, "builtin"
        except TemplateEvalError as exc:
            raise ExecutorRuntimeError("template", str(exc)) from exc

    resolved: dict[str, Value] = {}
    for pname, arg in st.args:
        resolved[pname] = _resolve_arg(arg, env)

    if st.module_name == "RESULT":
        if "var" not in resolved:
            raise ExecutorRuntimeError("type", "RESULT requires a var argument")
        return resolved["var"], resolved, "builtin"

    if registry is not None and registry.is_generated(st.module_name):
        value = registry.invoke_generated(st.module_name, resolved, backend)
        return value, resolved, "generated"

    return run_builtin(st.module_name, resolved, backend), resolved, "builtin"


def execute_program(program: Program, init: Environment, registry, backend) -> ExecutionResult:
    """Run a validated program; on failure the partial trace is retained."""
    from .dsl import serialize_statement

    env = Environment(bindings=dict(init.bindings))
    trace: list[StepRecord] = []
    final: Value | None = None
    for st in program.statements:
        started = time.perf_counter()
        try:
            value, inputs, kind = _execute_statement(st, env, registry, backend)
            env.bind(st.target, value)
        except ExecutorRuntimeError as exc:
            return ExecutionResult(
                final=None,
                trace=tuple(trace),
                status="error",
                error=ExecutionError(st.line_no, exc.kind, str(exc), exc.captured),
            )
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
            final=None,
            trace=tuple(trace),
            status="error",
            error=ExecutionError(line_no=last_line, kind="type", message="no RESULT statement executed"),
        )
    return ExecutionResult(final=final, trace=tuple(trace), status="ok")


def trace_to_jsonl(trace, include_timings: bool = True) -> str:
    """Render step records as JSON lines for the CLI trace dump."""
    import json

    lines = []
    for step in trace:
        doc = {
            "statement": step.statement,
            "line_no": step.line_no,
            "module_kind": step.module_kind,
            "resolved_inputs": step.resolved_inputs,
            "output": step.output,
        }
        if include_timings:
            doc["elapsed_ms"] = round(step.elapsed_ms, 3)
        lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines)
