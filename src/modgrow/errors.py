"""Exception types shared across the package."""

from __future__ import annotations


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
    """ENDPOINT_ERROR: live completion endpoint failed or is misconfigured."""


class AuthMissingError(ModgrowError):
    """AUTH_MISSING: live/record mode requires an endpoint credential."""


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
    """NAME_COLLISION: same name, different source, no version bump."""


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
