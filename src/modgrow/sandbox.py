"""Isolated loading and invocation of candidate module source.

Candidates are executed in-process inside a stripped namespace: a curated
builtin set, a tool `API` object, and nothing else. File, network, import
and dunder access attempts are rejected (statically at load where possible,
dynamically via guard builtins otherwise), and every failure is captured as a
structured error the repair loop can feed back to the code generator.

A candidate is always loaded against its `ModuleSignature`: the signature
names the class to take, fixes the number of `execute`'s parameters, and
gives the return tag that every call's output is checked against.

Loops are bounded by a step budget and a wall clock compiled into the
candidate: at load, every loop body, function body, lambda and comprehension
item of the candidate's own code gets a call to the reserved name `__tick__`,
which counts one step against `Limits` and checks the clock every 64 steps.
Code the candidate calls (the backend, builtins) runs at full speed and
unbudgeted, so a single long C-level call such as `sum(range(10**9))` cannot
be interrupted; deep recursion ends as `RecursionError`, reported as `timeout`.

`API` is a `SandboxApi`: the six short aliases the stage-2 prompt teaches,
each a direct backend call, and the operation names of `backends.OPERATIONS`,
which `backends.ToolBackend` defines once, served as the backend's own methods.

This is a test-harness isolation layer, not a hardened security boundary.
"""

from __future__ import annotations

import ast
import builtins
import statistics
import string
import sys
import time
from dataclasses import dataclass, field

from . import values as V
from .backends import OPERATIONS
from .dsl import ModuleSignature
from .errors import BackendError, CapturedError

DEFAULT_WALL_TIME_MS = 2000


@dataclass(frozen=True)
class Limits:
    """Budget of one candidate call. A step is one loop pass, one function or
    lambda call, or one comprehension item in the candidate's own code."""

    wall_time_ms: int = DEFAULT_WALL_TIME_MS
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.wall_time_ms <= 0 or self.max_steps <= 0:
            raise ValueError("limits must be positive")


class _SandboxInterrupt(BaseException):
    """Raised from `__tick__` when a candidate exceeds its limits."""


class _ForbiddenAccess(BaseException):
    """Raised when a candidate touches a capability outside the allowlist."""


_TICK = "__tick__"


class _Budget:
    """Counts the steps of one candidate call against `Limits`; `tick` is
    bound as the candidate's `__tick__`. Once the budget is spent, every later
    tick raises again, so a bare `except:` in the candidate cannot swallow it,
    and `spent` holds the timeout message. `refused` holds the first forbidden
    access of the call, which the guards record before they raise, so a
    swallowed `_ForbiddenAccess` is still reported."""

    __slots__ = ("wall_time_ms", "deadline", "max_steps", "steps", "spent", "refused")

    def __init__(self, limits: Limits):
        self.wall_time_ms = limits.wall_time_ms
        self.deadline = time.monotonic() + limits.wall_time_ms / 1000.0
        self.max_steps = limits.max_steps
        self.steps = 0
        self.spent: str | None = None
        self.refused: CapturedError | None = None

    def tick(self) -> bool:
        self.steps += 1
        if self.steps > self.max_steps or (self.steps % 64 == 0 and time.monotonic() > self.deadline):
            if self.spent is None:
                if time.monotonic() > self.deadline:
                    self.spent = f"wall time budget of {self.wall_time_ms} ms exceeded"
                else:
                    self.spent = f"step budget of {self.max_steps} exceeded"
                self.max_steps = 0
            raise _SandboxInterrupt(self.spent)
        return True


def _tick_call(at: ast.AST) -> ast.Call:
    name = ast.copy_location(ast.Name(id=_TICK, ctx=ast.Load()), at)
    return ast.copy_location(ast.Call(func=name, args=[], keywords=[]), at)


def _insert_ticks(nodes: list[ast.AST]) -> None:
    """Call `__tick__()` first in the body of each loop and function of
    `nodes` (after a docstring), first in each lambda and first among the
    conditions of each comprehension; `__tick__()` returns True."""
    for node in nodes:
        kind = type(node)
        if kind in (ast.For, ast.AsyncFor, ast.While, ast.FunctionDef, ast.AsyncFunctionDef):
            first = node.body[0]
            at = int(kind in (ast.FunctionDef, ast.AsyncFunctionDef)
                     and ast.get_docstring(node, clean=False) is not None)
            node.body.insert(at, ast.copy_location(ast.Expr(_tick_call(first)), first))
        elif kind is ast.Lambda:
            tick = ast.BoolOp(op=ast.And(), values=[_tick_call(node.body), node.body])
            node.body = ast.copy_location(tick, node.body)
        elif kind is ast.comprehension:
            node.ifs.insert(0, _tick_call(node.iter))


def _guard(name: str, namespace: dict, filename: str):
    """A stand-in for a forbidden builtin: records the attempt on the budget
    of the running call (bound as the namespace's `__tick__`), then raises."""
    message = f"use of {name} is not permitted inside candidate modules"

    def blocked(*args, **kwargs):
        budget = namespace[_TICK].__self__
        if budget.refused is None:
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_filename != filename:
                frame = frame.f_back
            line = frame.f_lineno if frame is not None else None
            budget.refused = CapturedError("forbidden_access", message, location=line)
        raise _ForbiddenAccess(message)

    return blocked


_GUARDED = (
    "open", "__import__", "exec", "eval", "compile", "input", "breakpoint",
    "globals", "locals", "vars", "getattr", "setattr", "delattr", "memoryview",
)

_SAFE_BUILTINS = {
    name: getattr(builtins, name)
    for name in (
        "abs", "all", "any", "bool", "dict", "divmod", "enumerate", "filter",
        "float", "format", "frozenset", "hash", "int", "isinstance", "issubclass",
        "iter", "len", "list", "map", "max", "min", "next", "object", "pow",
        "range", "repr", "reversed", "round", "set", "slice", "sorted", "str",
        "sum", "tuple", "zip",
        "Exception", "ValueError", "TypeError", "KeyError", "IndexError",
        "AttributeError", "RuntimeError", "ZeroDivisionError", "StopIteration",
        "NotImplementedError", "NameError",
    )
}


class SandboxApi:
    """The tool surface visible to candidates: the short names that
    `DEFAULT_API_DOC` teaches, each calling the backend directly, and the
    canonical operation names, which are the backend's own methods."""

    def __init__(self, backend):
        self._backend = backend

    def __getattr__(self, name):
        if name not in OPERATIONS:
            raise AttributeError(f"the tool API has no operation {name!r}")
        return getattr(self._backend, name)

    def loc(self, image, name):
        return self._backend.locate(image, name)

    def vqa(self, image, question):
        return self._backend.answer_question(image, question)

    def clip(self, image, text):
        return self._backend.score_alignment(image, [text])[0]

    def gpt3(self, prompt, mode=None):
        return self._backend.general_text(prompt)

    def depth(self, image):
        return self._backend.depth_of(image)

    def replace(self, image, mask, prompt):
        return self._backend.inpaint_region(image, mask, prompt)


@dataclass
class CandidateHandle:
    source: str
    signature: ModuleSignature
    load_state: str = "compile_error"  # loaded | compile_error
    error: CapturedError | None = None
    prints: list[str] = field(default_factory=list)
    _instance: object | None = None
    _namespace: dict | None = None
    _filename: str = ""

    @property
    def name(self) -> str:
        return self.signature.name


def _format_fields(text: str):
    """The `{…}` replacement fields of a format string, with their specs."""
    try:
        return [field + (spec or "") for _, field, spec, _ in string.Formatter().parse(text)
                if field is not None]
    except ValueError:  # not a valid format string, so `str.format` on it raises
        return []


def _refuse_import(node) -> str:
    return "import statements are not permitted inside candidate modules"


def _refuse_scope(node) -> str:
    return "global/nonlocal declarations are not permitted"


def _refuse_attribute(node) -> str | None:
    if node.attr.startswith("__"):
        return f"dunder attribute access ({node.attr}) is not permitted"
    if (node.attr in ("format", "format_map")
            and not (isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))):
        # only a constant template has fields the constant check can read
        return f"{node.attr} on anything but a string constant is not permitted"
    return None


def _refuse_name(node) -> str | None:
    return f"dunder name access ({node.id}) is not permitted" if node.id.startswith("__") else None


def _refuse_constant(node) -> str | None:
    text = node.value
    if isinstance(text, str) and "{" in text and any("__" in field for field in _format_fields(text)):
        return "dunder access in a format field is not permitted"
    return None


def _refuse_binding(field: str):
    """The check of a node kind that binds the name held in `field`."""
    def refuse(node) -> str | None:
        return f"the name {_TICK} is reserved" if getattr(node, field) == _TICK else None

    return refuse


# the static allowlist scan: for each node type it refuses, the check that
# returns the refusal message, or None when the node passes
_REFUSALS = {
    ast.Import: _refuse_import, ast.ImportFrom: _refuse_import,
    ast.Global: _refuse_scope, ast.Nonlocal: _refuse_scope,
    ast.Attribute: _refuse_attribute, ast.Name: _refuse_name, ast.Constant: _refuse_constant,
    ast.arg: _refuse_binding("arg"), ast.MatchMapping: _refuse_binding("rest"),
    ast.FunctionDef: _refuse_binding("name"), ast.AsyncFunctionDef: _refuse_binding("name"),
    ast.ClassDef: _refuse_binding("name"), ast.ExceptHandler: _refuse_binding("name"),
    ast.MatchAs: _refuse_binding("name"), ast.MatchStar: _refuse_binding("name"),
}
# the node types that get a `__tick__()` call
_TICKED = frozenset((ast.For, ast.AsyncFor, ast.While, ast.FunctionDef, ast.AsyncFunctionDef,
                     ast.Lambda, ast.comprehension))


def _scan_tree(tree: ast.AST) -> tuple[str | None, list[ast.AST], list[ast.AST]]:
    """Walk the candidate's tree once, in `ast.walk`'s breadth-first order,
    checking each node as it is reached. Returns the first refusal or None,
    the nodes walked, and the nodes among them that get a tick."""
    nodes, ticked = [tree], []
    for node in nodes:  # the list grows as the walk goes
        kind = type(node)
        refuse = _REFUSALS.get(kind)
        if refuse is not None and (refusal := refuse(node)) is not None:
            return refusal, nodes, ticked
        if kind in _TICKED:
            ticked.append(node)
        for name in node._fields:
            child = getattr(node, name, None)
            if isinstance(child, list):
                for item in child:
                    if isinstance(item, ast.AST):
                        nodes.append(item)
            elif isinstance(child, ast.AST):
                nodes.append(child)
    return None, nodes, ticked


def _budget_failure(budget: _Budget) -> CapturedError | None:
    """The timeout or forbidden access of a call, even if the candidate
    swallowed the exception that signalled it."""
    if budget.spent is not None:
        return CapturedError("timeout", budget.spent)
    return budget.refused


def load_candidate(source: str, signature: ModuleSignature) -> CandidateHandle:
    """Compile and define a candidate in an isolated namespace.

    Loading runs class/function definitions only; module logic executes later
    via invoke_candidate. The candidate must define a class named
    `signature.name` whose ``execute`` entry point takes as many parameters
    as the signature declares; every invocation checks its output against
    the signature's return tag.
    """
    name = signature.name
    handle = CandidateHandle(source=source, signature=signature)
    if not source or not source.strip():
        handle.error = CapturedError("compile", "empty candidate source")
        return handle

    filename = f"<candidate:{name}>"
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        handle.error = CapturedError("compile", f"{exc.msg}", location=exc.lineno)
        return handle
    refusal, _, ticked = _scan_tree(tree)  # the candidate's own code, walked once
    if refusal:
        handle.error = CapturedError("forbidden_access", refusal)
        return handle

    _insert_ticks(ticked)
    # class bodies and the constructor run now, under the default budget
    budget = _Budget(Limits())
    namespace: dict = {
        "__builtins__": dict(_SAFE_BUILTINS),
        "__name__": "candidate",
        "API": None,  # bound per invocation
        _TICK: budget.tick,  # the load budget now, then bound per invocation
        "median": statistics.median,
        "print": lambda *a, **k: handle.prints.append(" ".join(str(x) for x in a)),
    }
    namespace["__builtins__"]["__build_class__"] = builtins.__build_class__
    namespace["__builtins__"]["__name__"] = "candidate"
    namespace["__builtins__"]["print"] = namespace["print"]
    for guarded in _GUARDED:
        namespace["__builtins__"][guarded] = _guard(guarded, namespace, filename)

    try:
        code = compile(tree, filename, "exec")
        exec(code, namespace)  # definitions only; bodies run at invoke time
    except SyntaxError as exc:
        handle.error = CapturedError("compile", f"{exc.msg}", location=exc.lineno)
        return handle
    except BaseException as exc:
        handle.error = _budget_failure(budget) or CapturedError("compile", f"definition failed: {exc}")
        return handle

    classes = {k: v for k, v in namespace.items() if isinstance(v, type)}
    if name not in classes:
        handle.error = CapturedError(
            "compile", f"candidate must define a class named {name}, found {sorted(classes)}"
        )
        return handle
    cls = classes[name]
    execute = getattr(cls, "execute", None)
    if execute is None or not callable(execute):
        handle.error = CapturedError("compile", f"class {name} has no execute entry point")
        return handle
    arg_count = execute.__code__.co_argcount - 1  # minus self
    if arg_count != len(signature.params):
        handle.error = CapturedError(
            "compile",
            f"execute takes {arg_count} parameters but the signature declares "
            f"{len(signature.params)}",
        )
        return handle
    try:
        instance = cls()
    except BaseException as exc:
        handle.error = _budget_failure(budget) or CapturedError("compile", f"constructor failed: {exc}")
        return handle
    if failure := _budget_failure(budget):  # the class body or constructor swallowed it
        handle.error = failure
        return handle
    namespace[_TICK] = None

    handle.load_state = "loaded"
    handle._instance = instance
    handle._namespace = namespace
    handle._filename = filename
    return handle


def _candidate_line(exc: BaseException, filename: str) -> int | None:
    """The line of the innermost frame of `exc`'s traceback that runs the
    candidate's own code, or None."""
    line = None
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == filename:
            line = tb.tb_lineno
        tb = tb.tb_next
    return line


def invoke_candidate(handle: CandidateHandle, args, backend, limits: Limits | None = None):
    """Call a loaded candidate's entry point; returns a Value of the
    signature's return tag, or a CapturedError.

    The invocation is hermetic: the only reachable capability is the backend
    passed in, and the candidate's own steps (see `Limits`) are budgeted
    against the step and wall-clock limits.
    """
    if handle.load_state != "loaded":
        return handle.error
    budget = _Budget(limits or Limits())
    handle.prints.clear()
    namespace, filename = handle._namespace, handle._filename
    namespace["API"] = SandboxApi(backend)
    namespace[_TICK] = budget.tick
    error = None
    try:
        raw = handle._instance.execute(*args)
    except (_SandboxInterrupt, _ForbiddenAccess):
        pass  # budget.spent or budget.refused holds the error
    except BackendError as exc:
        error = CapturedError("runtime", f"backend error: {exc}", location=_candidate_line(exc, filename))
    except RecursionError:
        error = CapturedError("timeout", "recursion limit exceeded")
    except Exception as exc:
        error = CapturedError(
            "runtime", f"{type(exc).__name__}: {exc}", location=_candidate_line(exc, filename)
        )
    finally:
        namespace["API"] = namespace[_TICK] = None
    if failure := _budget_failure(budget) or error:  # also when the candidate swallowed it
        return failure

    returns = handle.signature.returns
    coerced = V.coerce_to_tag(raw, returns)
    if coerced is not None:
        return coerced
    return CapturedError(
        "wrong_output", "output does not match the declared return type", expected=returns,
        actual=V.describe(raw),
    )
