"""Step-by-step interpreter for validated programs.

`run_program` is the one way to run a program: it parses, validates and
executes program text, and a program that does not parse or validate runs
nothing and fails with an error of kind `syntax` or `validation`. An
`ExecutionRegistry`, whose modules are fixed and which lives for one
`evaluate()`, `compute_pass_rate` or `modgrow run`, keeps each distinct
(text, binding names and tags) checked and lowered to steps, each of which
records what runs it: a template, RESULT, a generated module or a builtin.
Each step resolves its arguments, runs, binds its target and keeps a cheap
record of itself: the lowered step, its inputs, its value and its elapsed
time. A run's `StepRecord`s, with the summaries of its values, are built
from these only when its `trace` is read, so stage-2 gating, which reads
only the final value and the error, pays for no trace. A failed step ends
the run with its `CapturedError`, for a failure inside a generated module
the sandbox's own.

`BUILTINS` is the one definition of the builtin catalogue, each builtin's
signature beside its implementation; every library starts from its
`BUILTIN_SIGNATURES`.
"""

from __future__ import annotations

import ast
import json
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from time import perf_counter
from typing import Callable

from . import values as V
from .dsl import (EVAL, PLACEHOLDER_RE, RESULT, Diagnostic, ModuleSignature, Statement, parse_program,
                  serialize_statement, validate_program)
from .errors import BackendError, CapturedError, DslSyntaxError, ExecutorRuntimeError, TemplateEvalError
from .scene import half_box
from .values import Value


def _type_error(message: str) -> ExecutorRuntimeError:
    return ExecutorRuntimeError(CapturedError("type", message))


@dataclass(frozen=True)
class StepRecord:
    """One step of a run's trace, as `ExecutionResult.trace` builds it: the
    canonical statement, its program line, what ran it, its inputs, its
    output summarized and its wall time."""

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
    program line of the failing statement.

    `ran` holds one (step, inputs, value, elapsed seconds) record per step
    that completed, in order. `trace` turns them into `StepRecord`s on its
    first read, so a run whose trace nobody reads never summarizes a value."""

    final: Value | None
    ran: tuple[tuple[Step, dict[str, Value], Value, float], ...]
    error: CapturedError | None = None
    line_no: int | None = None
    diagnostics: tuple[Diagnostic, ...] = ()  # every one, when the error is of kind syntax or validation

    @cached_property
    def trace(self) -> tuple[StepRecord, ...]:
        return tuple(
            StepRecord(step.statement, step.line_no, "generated" if step.runs == "generated" else "builtin",
                       inputs, V.summarize(value), seconds * 1000.0)
            for step, inputs, value, seconds in self.ran
        )


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
        f"TEMPLATE_SYNTAX: a {value.tag} value cannot appear inside an expression template"
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
        raise TemplateEvalError(f"TEMPLATE_SYNTAX: unsupported literal {node.value!r}")
    if isinstance(node, ast.UnaryOp):
        op = _UNARY_OPS.get(type(node.op))
        if op is None:
            raise TemplateEvalError("TEMPLATE_SYNTAX: unsupported unary operator")
        return op(_eval_node(node.operand))
    if isinstance(node, ast.BinOp):
        op = _ARITHMETIC_OPS.get(type(node.op))
        if op is None:
            raise TemplateEvalError("TEMPLATE_SYNTAX: unsupported arithmetic operator")
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
                raise TemplateEvalError("TEMPLATE_SYNTAX: unsupported comparison operator")
            right = _eval_node(comparator)
            if not op(left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.IfExp):
        return _eval_node(node.body) if _eval_node(node.test) else _eval_node(node.orelse)
    raise TemplateEvalError(f"TEMPLATE_SYNTAX: {type(node).__name__} is not allowed in expression templates")


# the trees of the last 1,024 distinct substituted templates; a bad text raises anew
_parse_expression = lru_cache(maxsize=1024)(partial(ast.parse, mode="eval"))


def eval_template(template: str, bindings: dict[str, Value]) -> Value:
    """Substitute {VAR} placeholders from `bindings`, then evaluate under a
    restricted grammar.

    Only literals, comparisons, arithmetic, boolean connectives, text
    membership and conditional expressions are permitted; name lookups,
    calls, subscripts and attribute access are rejected outright.
    """

    def substitute(match):
        name = match.group(1)
        if name not in bindings:
            raise TemplateEvalError(f"UNBOUND_PLACEHOLDER: placeholder {{{name}}} is unbound")
        return _render_literal(bindings[name])

    expr = PLACEHOLDER_RE.sub(substitute, template)
    try:
        tree = _parse_expression(expr)
    except SyntaxError as exc:
        raise TemplateEvalError(f"TEMPLATE_SYNTAX: bad expression {expr!r}: {exc.msg}") from exc
    try:
        result = _eval_node(tree)
    except (TypeError, ZeroDivisionError) as exc:
        raise TemplateEvalError(f"TEMPLATE_SYNTAX: expression failed: {exc}") from exc
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


# The builtin catalogue, the modules every library starts with, in the order
# prompts list them: name, parameters, return tag, doc, usage example and
# implementation. EVAL and RESULT have none: `_run_step` runs them itself.
BUILTINS: tuple[tuple[str, tuple[tuple[str, str], ...], str, str, str, Callable | None], ...] = (
    ("LOC", (("image", "image"), ("object", "text")), "box-list",
     "Generate boxes of the object on the image.",
     "BOX0=LOC(image=IMAGE,object='camel')", _builtin_loc),
    ("COUNT", (("box", "box-list"),), "number",
     "Count the number of boxes in the list.",
     "ANSWER0=COUNT(box=BOX1)", lambda args, backend: V.number(len(args["box"].payload))),
    ("CROP", (("image", "image"), ("box", "box-list")), "image",
     "Crop the image to the first box, expanded for context.",
     "IMAGE0=CROP(image=IMAGE,box=BOX0)", _crop_builtin("around")),
    ("CROP_LEFTOF", (("image", "image"), ("box", "box-list")), "image",
     "Crop the image region left of the first box center.",
     "IMAGE0=CROP_LEFTOF(image=IMAGE,box=BOX0)", _crop_builtin("leftof")),
    ("CROP_RIGHTOF", (("image", "image"), ("box", "box-list")), "image",
     "Crop the image region right of the first box center.",
     "IMAGE0=CROP_RIGHTOF(image=IMAGE,box=BOX0)", _crop_builtin("rightof")),
    ("CROP_ABOVE", (("image", "image"), ("box", "box-list")), "image",
     "Crop the image region above the first box center.",
     "IMAGE0=CROP_ABOVE(image=IMAGE,box=BOX0)", _crop_builtin("above")),
    ("CROP_BELOW", (("image", "image"), ("box", "box-list")), "image",
     "Crop the image region below the first box center.",
     "IMAGE0=CROP_BELOW(image=IMAGE,box=BOX0)", _crop_builtin("below")),
    ("VQA", (("image", "image"), ("question", "text")), "text",
     "Answer a simple question about the image.",
     "ANSWER0=VQA(image=IMAGE0,question='Who is carrying the umbrella?')",
     lambda args, backend: V.text(backend.answer_question(args["image"].payload, args["question"].payload))),
    (EVAL, (("expr", "template"),), "text",
     "Evaluate an expression template over bound variables.",
     "ANSWER1=EVAL(expr=f\"'yes' if {ANSWER0} > 0 else 'no'\")", None),
    (RESULT, (("var", "text"),), "text",
     "Return the named variable as the final result.",
     "FINAL_RESULT=RESULT(var=ANSWER0)", None),
    ("SELECT", (("image", "image"), ("box", "box-list"), ("query", "text")), "box-list",
     "Keep the boxes whose content matches the query best.",
     "BOX1=SELECT(image=IMAGE,box=BOX0,query='red cup')", _builtin_select),
    ("FILTER_PROPERTY", (("image", "image"), ("box", "box-list"), ("property", "text")), "box-list",
     "Keep the boxes whose content clearly shows the property.",
     "BOX1=FILTER_PROPERTY(image=IMAGE,box=BOX0,property='red')", _builtin_filter_property),
    ("FILTER_SPATIAL", (("image", "image"), ("box", "box-list"), ("location", "text")), "box-list",
     "Keep the boxes whose center lies in the named half of the image.",
     "BOX1=FILTER_SPATIAL(image=IMAGE,box=BOX0,location='left')", _builtin_filter_spatial),
    ("REPLACE", (("image", "image"), ("mask", "box-list"), ("prompt", "text")), "image",
     "Replace the masked region according to the prompt.",
     "IMAGE0=REPLACE(image=IMAGE,mask=MASK0,prompt='a cat')", _builtin_replace),
    ("COLORPOP", (("image", "image"), ("mask", "box-list")), "image",
     "Keep color in the masked region and gray out the rest.",
     "IMAGE0=COLORPOP(image=IMAGE,mask=MASK0)", _edit_builtin("colorpop")),
    ("BGBLUR", (("image", "image"), ("mask", "box-list")), "image",
     "Blur the background outside the masked region.",
     "IMAGE0=BGBLUR(image=IMAGE,mask=MASK0)", _edit_builtin("bgblur")),
    ("TAG", (("image", "image"), ("box", "box-list"), ("label", "text")), "image",
     "Annotate each box region with the label.",
     "IMAGE0=TAG(image=IMAGE,box=BOX0,label='Ada Lovelace')", _overlay_builtin("label")),
    ("EMOJI", (("image", "image"), ("box", "box-list"), ("emoji", "text")), "image",
     "Overlay the named emoji on each box region.",
     "IMAGE0=EMOJI(image=IMAGE,box=BOX0,emoji='smiling_face')", _overlay_builtin("emoji")),
    ("FACEDET", (("image", "image"),), "box-list",
     "Detect faces on the image.",
     "BOX0=FACEDET(image=IMAGE)",
     lambda args, backend: V.box_list(backend.locate(args["image"].payload, "face"))),
    ("LIST", (("query", "text"), ("max", "number")), "list",
     "Retrieve a short list of factual answers for the query.",
     "ANSWER0=LIST(query='Name 3 kinds of fruit.',max=3)", _builtin_list),
    ("BOX2MASK", (("box", "box-list"),), "box-list",
     "Treat the bounding boxes as a mask region set.",
     "MASK0=BOX2MASK(box=BOX0)", lambda args, backend: V.mask(args["box"].payload)),
    ("MASK2BOX", (("mask", "box-list"),), "box-list",
     "Convert a mask region set back into bounding boxes.",
     "BOX0=MASK2BOX(mask=MASK0)", lambda args, backend: V.box_list(args["mask"].payload)),
)

BUILTIN_SIGNATURES = tuple(
    ModuleSignature(name, params, returns, doc, (example,))
    for name, params, returns, doc, example, _ in BUILTINS
)
# each implemented builtin's implementation, and its parameters in signature
# order with the runtime tags its declared tag accepts
_BUILTIN_RUNS = {
    name: (impl, tuple((pname, tuple(tag for tag in V.VALUE_TAGS if V.tags_compatible(declared, tag)))
                       for pname, declared in params))
    for name, params, _, _, _, impl in BUILTINS if impl is not None
}


def run_builtin(name: str, args: dict[str, Value], backend) -> Value:
    """Execute one builtin by name over already-resolved argument values,
    each checked against the tag its `BUILTINS` entry declares."""
    run = _BUILTIN_RUNS.get(name)
    if run is None:
        raise _type_error(f"UNKNOWN_BUILTIN: {name}")
    impl, params = run
    for pname, accepted in params:
        if pname not in args:
            raise _type_error(f"{name} missing argument {pname!r}")
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


@dataclass(frozen=True, slots=True)
class Step:
    """One statement of a validated program, lowered to run: variable names
    and constant `Value`s as arguments, and what runs it."""

    statement: str  # canonical text, for the trace
    target: str
    module_name: str
    line_no: int
    args: tuple[tuple[str, str | Value], ...]
    runs: str  # template | result | generated | builtin
    template: str | None = None


def _lower_statement(st: Statement, registry) -> Step:
    statement = serialize_statement(st)
    if st.module_name == EVAL:  # validated: `expr` is its one argument, a template or quoted text
        template = st.args[0][1].value
        args = tuple((ph, ph) for ph in PLACEHOLDER_RE.findall(template))
        return Step(statement, st.target, st.module_name, st.line_no, args, "template", template)
    args = tuple(
        (pname, arg.value if arg.kind == "variable-reference"
         else V.number(arg.value) if arg.kind == "number" else V.text(arg.value))
        for pname, arg in st.args
    )
    runs = ("result" if st.module_name == RESULT
            else "generated" if registry.is_generated(st.module_name) else "builtin")
    return Step(statement, st.target, st.module_name, st.line_no, args, runs)


def _run_step(step: Step, bindings: dict[str, Value], registry, backend) -> tuple[Value, dict]:
    inputs = {pname: bindings[ref] if isinstance(ref, str) else ref for pname, ref in step.args}
    if step.runs == "template":
        try:
            return eval_template(step.template, bindings), inputs
        except TemplateEvalError as exc:
            raise ExecutorRuntimeError(CapturedError("template", str(exc))) from exc
    if step.runs == "result":
        return inputs["var"], inputs
    if step.runs == "generated":
        return registry.invoke_generated(step.module_name, inputs, backend), inputs
    return run_builtin(step.module_name, inputs, backend), inputs


def execute_program(steps: tuple[Step, ...], init: dict[str, Value], registry,
                    backend) -> ExecutionResult:
    """Run the steps that `run_program` lowered from a validated program over
    a copy of `init`. Validation makes the last step FINAL_RESULT=RESULT(...),
    so its value is the final one; on failure the steps that completed are
    kept."""
    bindings = dict(init)
    ran = []
    for step in steps:
        started = perf_counter()
        try:
            value, inputs = _run_step(step, bindings, registry, backend)
        except ExecutorRuntimeError as exc:
            return ExecutionResult(None, tuple(ran), exc.error, step.line_no)
        bindings[step.target] = value
        ran.append((step, inputs, value, perf_counter() - started))
    return ExecutionResult(value, tuple(ran))


def run_program(source: str, init: dict[str, Value], registry, backend) -> ExecutionResult:
    """Parse `source`, validate it, and execute it if it validates.

    The program is checked against `registry.signatures()` and the tags of
    the `init` bindings. A program with a line that does not parse, or one
    that fails a check, runs nothing: the result is an error of kind
    `syntax` or `validation` whose message is the first diagnostic's code
    and message, with an empty trace and every diagnostic kept. The outcome of
    the check, the refusal or the lowered steps, is kept in `registry.checked`
    under (source, the bindings' tags)."""
    try:
        program = parse_program(source)
    except DslSyntaxError as exc:
        return _refused("syntax", exc.diagnostics)
    tags = tuple((name, value.tag) for name, value in init.items())
    checked = registry.checked.get((source, tags))
    if checked is None:
        diagnostics = validate_program(program, registry.signatures(), dict(tags))
        checked = (_refused("validation", diagnostics) if diagnostics
                   else tuple(_lower_statement(st, registry) for st in program.statements))
        registry.checked[(source, tags)] = checked
    if isinstance(checked, ExecutionResult):
        return checked
    return execute_program(checked, init, registry, backend)


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
