"""Isolated loading and invocation of candidate module source.

Candidates are executed in-process inside a stripped namespace: a curated
builtin set, a tool `API` object, and nothing else. File, network, import
and dunder access attempts are rejected (statically at load where possible,
dynamically via guard builtins otherwise), loops are bounded by a line-event
budget and a wall clock, and every failure is captured as a structured error
the repair loop can feed back to the code generator.

`API` is a `SandboxApi`: the six short aliases the stage-2 prompt teaches,
each a direct backend call, and the canonical names of `backends.OPERATIONS`,
the one definition of the tool surface, which are the backend's own methods.
A record or replay backend serves them through the shared `modgrow.cache`.

This is a test-harness isolation layer, not a hardened security boundary.
"""

from __future__ import annotations

import ast
import builtins
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from . import values as V
from .backends import OPERATIONS
from .errors import BackendError
from .values import Value


@dataclass(frozen=True)
class Limits:
    wall_time_ms: int = 2000
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.wall_time_ms <= 0 or self.max_steps <= 0:
            raise ValueError("limits must be positive")


@dataclass(frozen=True)
class CapturedError:
    kind: str  # compile | runtime | timeout | forbidden_access | wrong_output
    message: str
    location: int | None = None
    expected: str | None = None
    actual: str | None = None

    def render(self) -> str:
        where = f" (line {self.location})" if self.location else ""
        if self.kind == "wrong_output":
            return f"wrong_output{where}: expected {self.expected}, got {self.actual}"
        return f"{self.kind}{where}: {self.message}"


class _SandboxInterrupt(BaseException):
    """Raised from the trace hook when a candidate exceeds its limits."""


class _ForbiddenAccess(BaseException):
    """Raised when a candidate touches a capability outside the allowlist."""


def _guard(name: str):
    def blocked(*args, **kwargs):
        raise _ForbiddenAccess(f"use of {name} is not permitted inside candidate modules")

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
    name: str
    source: str
    load_state: str  # loaded | compile_error
    error: CapturedError | None = None
    expected_return: str | None = None
    signature: object | None = None
    prints: list[str] = field(default_factory=list)
    _instance: object | None = None
    _namespace: dict | None = None
    _filename: str = ""


def _scan_source(tree: ast.AST) -> str | None:
    """Static allowlist scan; returns a refusal message or None."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return "import statements are not permitted inside candidate modules"
        if isinstance(node, ast.Attribute) and node.attr.startswith("__"):
            return f"dunder attribute access ({node.attr}) is not permitted"
        if isinstance(node, ast.Name) and node.id.startswith("__"):
            return f"dunder name access ({node.id}) is not permitted"
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            return "global/nonlocal declarations are not permitted"
    return None


def load_candidate(source: str, signature=None) -> CandidateHandle:
    """Compile and define a candidate in an isolated namespace.

    Loading runs class/function definitions only; module logic executes later
    via invoke_candidate. When `signature` is given, the candidate must define
    a class with that exact name whose ``execute`` entry point takes the same
    number of parameters, and its output will be checked against the declared
    return tag on every invocation.
    """
    name = signature.name if signature is not None else None
    handle = CandidateHandle(
        name=name or "<candidate>", source=source, load_state="compile_error", signature=signature
    )
    if not source or not source.strip():
        handle.error = CapturedError("compile", "empty candidate source")
        return handle

    filename = f"<candidate:{name or 'anonymous'}>"
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        handle.error = CapturedError("compile", f"{exc.msg}", location=exc.lineno)
        return handle
    refusal = _scan_source(tree)
    if refusal:
        handle.error = CapturedError("forbidden_access", refusal)
        return handle

    namespace: dict = {
        "__builtins__": dict(_SAFE_BUILTINS),
        "__name__": "candidate",
        "API": None,  # bound per invocation
        "median": statistics.median,
        "print": lambda *a, **k: handle.prints.append(" ".join(str(x) for x in a)),
    }
    namespace["__builtins__"]["__build_class__"] = builtins.__build_class__
    namespace["__builtins__"]["__name__"] = "candidate"
    namespace["__builtins__"]["print"] = namespace["print"]
    for guarded in _GUARDED:
        namespace["__builtins__"][guarded] = _guard(guarded)

    try:
        code = compile(tree, filename, "exec")
        exec(code, namespace)  # definitions only; bodies run at invoke time
    except _ForbiddenAccess as exc:
        handle.error = CapturedError("forbidden_access", str(exc))
        return handle
    except SyntaxError as exc:
        handle.error = CapturedError("compile", f"{exc.msg}", location=exc.lineno)
        return handle
    except BaseException as exc:
        handle.error = CapturedError("compile", f"definition failed: {exc}")
        return handle

    classes = {k: v for k, v in namespace.items() if isinstance(v, type)}
    if name is None:
        # no signature given: take the single defined class
        if len(classes) != 1:
            handle.error = CapturedError(
                "compile", f"expected exactly one module class, found {sorted(classes)}"
            )
            return handle
        name = next(iter(classes))
        handle.name = name
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
    if signature is not None and arg_count != len(signature.params):
        handle.error = CapturedError(
            "compile",
            f"execute takes {arg_count} parameters but the signature declares "
            f"{len(signature.params)}",
        )
        return handle
    try:
        instance = cls()
    except _ForbiddenAccess as exc:
        handle.error = CapturedError("forbidden_access", str(exc))
        return handle
    except BaseException as exc:
        handle.error = CapturedError("compile", f"constructor failed: {exc}")
        return handle

    handle.load_state = "loaded"
    handle.error = None
    handle.expected_return = signature.returns if signature is not None else None
    handle._instance = instance
    handle._namespace = namespace
    handle._filename = filename
    return handle


def _candidate_line(filename: str) -> int | None:
    for frame in reversed(traceback.extract_tb(sys.exc_info()[2])):
        if frame.filename == filename:
            return frame.lineno
    return None


def invoke_candidate(handle: CandidateHandle, args, backend, limits: Limits | None = None):
    """Call a loaded candidate's entry point; returns a Value or CapturedError.

    The invocation is hermetic: the only reachable capability is the backend
    passed in, and the candidate's own line events are budgeted against the
    step and wall-clock limits.
    """
    if handle.load_state != "loaded":
        return handle.error or CapturedError("compile", "candidate not loaded")
    limits = limits or Limits()
    handle.prints.clear()
    handle._namespace["API"] = SandboxApi(backend)

    deadline = time.monotonic() + limits.wall_time_ms / 1000.0
    steps = 0
    filename = handle._filename

    def tracer(frame, event, arg):
        nonlocal steps
        if frame.f_code.co_filename != filename:
            return None
        if event == "line":
            steps += 1
            if steps > limits.max_steps:
                raise _SandboxInterrupt(f"step budget of {limits.max_steps} exceeded")
            if steps % 64 == 0 and time.monotonic() > deadline:
                raise _SandboxInterrupt(f"wall time budget of {limits.wall_time_ms} ms exceeded")
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        raw = handle._instance.execute(*args)
    except _SandboxInterrupt as exc:
        if time.monotonic() > deadline:
            return CapturedError("timeout", f"wall time budget of {limits.wall_time_ms} ms exceeded")
        return CapturedError("timeout", str(exc))
    except _ForbiddenAccess as exc:
        return CapturedError("forbidden_access", str(exc), location=_candidate_line(filename))
    except BackendError as exc:
        return CapturedError("runtime", f"backend error: {exc}", location=_candidate_line(filename))
    except RecursionError:
        return CapturedError("timeout", "recursion limit exceeded")
    except Exception as exc:
        return CapturedError(
            "runtime", f"{type(exc).__name__}: {exc}", location=_candidate_line(filename)
        )
    finally:
        sys.settrace(previous)
        handle._namespace["API"] = None

    if handle.expected_return is not None:
        coerced = V.coerce_to_tag(raw, handle.expected_return)
        if coerced is None:
            try:
                actual = V.infer_value(raw)
                actual_desc = V.summarize(actual)
            except TypeError:
                actual_desc = f"<{type(raw).__name__}>"
            return CapturedError(
                "wrong_output",
                "output does not match the declared return type",
                expected=handle.expected_return,
                actual=actual_desc,
            )
        return coerced
    try:
        return V.infer_value(raw)
    except TypeError as exc:
        return CapturedError("wrong_output", str(exc), actual=f"<{type(raw).__name__}>")


def is_error(result) -> bool:
    return isinstance(result, CapturedError)
