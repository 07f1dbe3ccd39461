"""Exception types shared across the package, and `CapturedError`, the one
record of a failure from the sandbox that catches it to the report that
counts it."""

from __future__ import annotations

from dataclasses import dataclass

# every kind of failure a run records as data instead of raising
KINDS = (
    # the sandbox's: a generated module did not load, or failed in a call
    "compile", "runtime", "timeout", "forbidden_access", "wrong_output",
    # the program's: it did not validate or parse, or a statement failed
    "validation", "syntax", "type", "template", "backend",
    # the gateway's: no response, one without code, or a failed endpoint
    "cache_miss", "response_parse", "endpoint",
)


@dataclass(frozen=True)
class CapturedError:
    """One failure. `location` is a line of a candidate's source; `expected`
    and `actual` describe the value of a `wrong_output`."""

    kind: str
    message: str
    location: int | None = None
    expected: str | None = None
    actual: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}")

    def to_doc(self) -> dict:
        """`kind` and `message`, and each of the other fields that is set."""
        doc = {"kind": self.kind, "message": self.message}
        for name in ("location", "expected", "actual"):
            if getattr(self, name) is not None:
                doc[name] = getattr(self, name)
        return doc

    def render(self) -> str:
        where = f" (line {self.location})" if self.location else ""
        if self.kind == "wrong_output":
            return f"wrong_output{where}: expected {self.expected}, got {self.actual}"
        return f"{self.kind}{where}: {self.message}"


class ModgrowError(Exception):
    """Base class for all package-specific errors."""


class DslSyntaxError(ModgrowError):
    """A program line could not be parsed. Carries structured diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0] if self.diagnostics else None
        msg = f"line {first.line_no}: {first.message}" if first else "syntax error"
        super().__init__(msg)


class SignatureParseError(ModgrowError):
    """MALFORMED_SIGNATURE: a module header lacks required sections."""


class SceneSchemaError(ModgrowError):
    """SCHEMA_ERROR: a scene document violates the scene schema."""


class BackendError(ModgrowError):
    """Tool backend failure. `kind` is OUT_OF_BOUNDS, BACKEND_ERROR or GATEWAY_UNAVAILABLE."""

    def __init__(self, kind: str, message: str = ""):
        self.kind = kind
        super().__init__(f"{kind}: {message}" if message else kind)


class CacheMissError(ModgrowError):
    """CACHE_MISS: a replay cache (gateway or tool) has no recorded response for this request."""


class EndpointError(ModgrowError):
    """ENDPOINT_ERROR: the completion endpoint failed or is misconfigured."""


class AuthMissingError(ModgrowError):
    """AUTH_MISSING: record mode requires an endpoint credential."""


class MissingSlotError(ModgrowError):
    """MISSING_SLOT: prompt template referenced a slot that was not provided."""


class ResponseParseError(ModgrowError):
    """UNPARSEABLE_DECISION / NO_CODE_FOUND: an LLM response had no usable structure."""

    def __init__(self, kind: str, message: str = ""):
        self.kind = kind
        super().__init__(f"{kind}: {message}" if message else kind)


class RegistryError(ModgrowError):
    """Base for module library errors."""


class NameCollisionError(RegistryError):
    """NAME_COLLISION: a registered name given a different source."""


class GateViolationError(RegistryError):
    """GATE_VIOLATION: a generated record below its acceptance threshold."""


class NotFoundError(RegistryError):
    """NOT_FOUND: no record under that name."""


class LibraryFormatError(RegistryError):
    """SCHEMA_ERROR: a persisted library directory is corrupt or incomplete."""


class TemplateEvalError(ModgrowError):
    """UNBOUND_PLACEHOLDER or TEMPLATE_SYNTAX from expression-template evaluation."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


class NoCasesError(ModgrowError):
    """NO_CASES: no training example exercises the proposed module."""


class EmptyGridError(ModgrowError):
    """EMPTY_GRID: an ablation grid without cells."""


class ExecutorRuntimeError(ModgrowError):
    """A program statement failed; `error` is its record, which for a failure
    inside a generated module is the sandbox's own."""

    def __init__(self, error: CapturedError):
        self.error = error
        super().__init__(error.message)


# the kind of each gateway exception that a run records instead of raising
FAILURE_KINDS = {
    CacheMissError: "cache_miss", ResponseParseError: "response_parse", EndpointError: "endpoint"
}
# what `evaluate` records as an instance's failure; anything else propagates
RECORDED = (ExecutorRuntimeError, *FAILURE_KINDS)


def record_of(exc: ModgrowError) -> CapturedError:
    """The record of an exception that `RECORDED` names."""
    if isinstance(exc, ExecutorRuntimeError):
        return exc.error
    kind = next(kind for cls, kind in FAILURE_KINDS.items() if isinstance(exc, cls))
    return CapturedError(kind, str(exc))
