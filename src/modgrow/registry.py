"""The growing module library: records, persistence, prompt rendering.

A library maps module names to records (signature + source + provenance +
gated pass rate) and keeps a manifest in registration order so prompt text
stays stable as the library grows. A registered record is never replaced.
On disk a library is a directory with a manifest, one source file and one
metadata file per module: human-auditable and diff-friendly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import values as V
from .builtins_catalog import BUILTIN_SIGNATURES
from .dsl import ModuleSignature, render_signature_block
from .errors import (CapturedError, ExecutorRuntimeError, GateViolationError, LibraryFormatError,
                     NameCollisionError, NotFoundError)
from .sandbox import CandidateHandle, Limits, invoke_candidate, load_candidate

EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"


@dataclass(frozen=True)
class ModuleRecord:
    signature: ModuleSignature
    source: str
    kind: str  # builtin | generated
    origin_task: str = ""
    pass_rate: float = 1.0
    eta_at_acceptance: float = 1.0
    created_at: str = EPOCH_TIMESTAMP
    version: int = 1
    test_case_ids: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.signature.name


@dataclass
class Library:
    records: dict[str, ModuleRecord] = field(default_factory=dict)
    manifest: list[str] = field(default_factory=list)

    def copy(self) -> "Library":
        return Library(records=dict(self.records), manifest=list(self.manifest))

    def __len__(self) -> int:
        return len(self.manifest)


def register(lib: Library, rec: ModuleRecord) -> Library:
    """Store a record, returning an updated copy of the library.

    A generated record must carry a pass rate at or above the threshold it
    claims it was gated at. Re-registering an identical source is a no-op; a
    registered module is never replaced, so a different source under its
    name raises `NameCollisionError`.
    """
    if rec.kind == "generated" and rec.pass_rate < rec.eta_at_acceptance:
        raise GateViolationError(
            f"{rec.name}: pass rate {rec.pass_rate:.2f} below threshold {rec.eta_at_acceptance:.2f}"
        )
    existing = lib.records.get(rec.name)
    if existing is not None:
        if existing.source == rec.source:
            return lib
        raise NameCollisionError(f"{rec.name} already registered with different source")
    updated = lib.copy()
    updated.records[rec.name] = rec
    updated.manifest.append(rec.name)
    return updated


def lookup(lib: Library, name: str) -> ModuleRecord:
    if name not in lib.records:
        raise NotFoundError(f"no module named {name} in the library")
    return lib.records[name]


def contains(lib: Library, name: str) -> bool:
    return name in lib.records


def signatures(lib: Library) -> list[ModuleSignature]:
    return [lib.records[name].signature for name in lib.manifest]


def signature_prompt_text(lib: Library) -> str:
    """Deterministic rendering of every signature block, in manifest order."""
    blocks = [render_signature_block(lib.records[name].signature) for name in lib.manifest]
    return "\n".join(blocks)


def builtin_library() -> Library:
    """A fresh library pre-loaded with the shipped builtin catalogue."""
    lib = Library()
    for sig in BUILTIN_SIGNATURES:
        rec = ModuleRecord(
            signature=sig,
            source=render_signature_block(sig),
            kind="builtin",
            origin_task="builtin",
            pass_rate=1.0,
            eta_at_acceptance=1.0,
        )
        lib = register(lib, rec)
    return lib


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _signature_to_doc(sig: ModuleSignature) -> dict:
    return {
        "name": sig.name,
        "params": [[n, t] for n, t in sig.params],
        "returns": sig.returns,
        "doc": sig.doc,
        "usage_examples": list(sig.usage_examples),
    }


def _signature_from_doc(doc: dict) -> ModuleSignature:
    return ModuleSignature(
        name=doc["name"],
        params=tuple((n, t) for n, t in doc["params"]),
        returns=doc["returns"],
        doc=doc.get("doc", ""),
        usage_examples=tuple(doc.get("usage_examples", [])),
    )


def save_library(lib: Library, path: str | Path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").write_text(
        json.dumps({"modules": lib.manifest}, indent=2) + "\n", encoding="utf-8"
    )
    for name in lib.manifest:
        rec = lib.records[name]
        (root / f"{name}.py").write_text(rec.source, encoding="utf-8")
        meta = {
            "signature": _signature_to_doc(rec.signature),
            "kind": rec.kind,
            "origin_task": rec.origin_task,
            "pass_rate": rec.pass_rate,
            "eta_at_acceptance": rec.eta_at_acceptance,
            "created_at": rec.created_at,
            "version": rec.version,
            "test_case_ids": list(rec.test_case_ids),
        }
        (root / f"{name}.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def load_library(path: str | Path) -> Library:
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise LibraryFormatError(f"{root}: missing manifest.json")
    try:
        manifest_doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LibraryFormatError(f"{root}: manifest.json is not valid JSON: {exc}") from exc
    names = manifest_doc.get("modules")
    if not isinstance(names, list):
        raise LibraryFormatError(f"{root}: manifest.json lacks a modules list")
    lib = Library()
    for name in names:
        source_path = root / f"{name}.py"
        meta_path = root / f"{name}.json"
        if not source_path.exists() or not meta_path.exists():
            raise LibraryFormatError(f"{root}: manifest names {name} but its files are missing")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            rec = ModuleRecord(
                signature=_signature_from_doc(meta["signature"]),
                source=source_path.read_text(encoding="utf-8"),
                kind=meta["kind"],
                origin_task=meta.get("origin_task", ""),
                pass_rate=float(meta["pass_rate"]),
                eta_at_acceptance=float(meta["eta_at_acceptance"]),
                created_at=meta.get("created_at", EPOCH_TIMESTAMP),
                version=int(meta.get("version", 1)),
                test_case_ids=tuple(meta.get("test_case_ids", [])),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise LibraryFormatError(f"{root}: corrupt metadata for {name}: {exc}") from exc
        lib.records[name] = rec
        lib.manifest.append(name)
    return lib


def libraries_equal(a: Library, b: Library) -> bool:
    return a.manifest == b.manifest and a.records == b.records


# ---------------------------------------------------------------------------
# Execution adapter
# ---------------------------------------------------------------------------


class ExecutionRegistry:
    """Resolves module names for the executor, loading generated modules into
    sandbox handles on first use. A temporary overlay lets synthesis score a
    candidate under a proposal name without touching the library. A call
    takes its arguments in the order of its handle's signature."""

    def __init__(self, lib: Library, limits=None, overlay: dict | None = None):
        self.lib = lib
        self.limits = limits or Limits()
        self.overlay = dict(overlay or {})  # name -> CandidateHandle
        self._loaded: dict[str, CandidateHandle] = {}  # name -> handle that loaded, on first call
        # the library's signatures, then those of overlay names it lacks
        self._signatures = tuple(signatures(lib)) + tuple(
            handle.signature for name, handle in self.overlay.items() if name not in lib.records
        )

    def signatures(self) -> tuple[ModuleSignature, ...]:
        return self._signatures

    def is_generated(self, name: str) -> bool:
        if name in self.overlay:
            return True
        rec = self.lib.records.get(name)
        return rec is not None and rec.kind == "generated"

    def invoke_generated(self, name: str, resolved_args: dict, backend):
        handle = self._loaded.get(name)
        if handle is None:
            handle = self.overlay.get(name)
            if handle is None:
                rec = lookup(self.lib, name)
                handle = load_candidate(rec.source, rec.signature)
            if handle.load_state != "loaded":
                raise ExecutorRuntimeError(handle.error)
            self._loaded[name] = handle
        ordered = []
        for pname, _ in handle.signature.params:
            if pname not in resolved_args:
                raise ExecutorRuntimeError(CapturedError("type", f"{name} missing argument {pname!r}"))
            ordered.append(V.to_plain(resolved_args[pname]))
        result = invoke_candidate(handle, ordered, backend, self.limits)
        if isinstance(result, CapturedError):
            raise ExecutorRuntimeError(result)
        return result
