"""The growing module library: records, persistence, prompt rendering.

A library maps module names to records (signature + source + provenance +
gated pass rate) in registration order, which is the library's order, so
prompt text stays stable as the library grows. A registered record is never
replaced. Every library starts with the builtin catalogue, which is defined
in code (`executor.BUILTINS`). On disk a library is a directory that holds
only the learned modules: a manifest listing them in library order, and one
source file and one metadata file per module, human-auditable and
diff-friendly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import values as V
from .dsl import TAG_DESCRIPTIONS, ModuleSignature, render_signature_block
from .errors import (CapturedError, ExecutorRuntimeError, GateViolationError, LibraryFormatError,
                     NameCollisionError, NotFoundError)
from .executor import BUILTIN_SIGNATURES
from .sandbox import CandidateHandle, Limits, invoke_candidate, load_candidate


@dataclass(frozen=True)
class ModuleRecord:
    signature: ModuleSignature
    source: str
    kind: str  # builtin | generated
    origin_task: str = ""
    pass_rate: float = 1.0
    eta_at_acceptance: float = 1.0
    test_case_ids: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.signature.name

    def gate_failure(self) -> str | None:
        """Why a generated record fails the threshold it claims it was gated
        at, or None; a NaN pass rate or threshold fails."""
        if self.kind == "generated" and not self.pass_rate >= self.eta_at_acceptance:
            return f"{self.name}: pass rate {self.pass_rate:.2f} below threshold {self.eta_at_acceptance:.2f}"
        return None


@dataclass
class Library:
    # by name, in library order
    records: dict[str, ModuleRecord] = field(default_factory=dict)

    def copy(self) -> "Library":
        return Library(records=dict(self.records))

    def __len__(self) -> int:
        return len(self.records)


def register(lib: Library, rec: ModuleRecord) -> Library:
    """Store a record, returning an updated copy of the library.

    A generated record must carry a pass rate at or above the threshold it
    claims it was gated at. Re-registering an identical source is a no-op; a
    registered module is never replaced, so a different source under its
    name raises `NameCollisionError`.
    """
    failure = rec.gate_failure()
    if failure:
        raise GateViolationError(failure)
    existing = lib.records.get(rec.name)
    if existing is not None:
        if existing.source == rec.source:
            return lib
        raise NameCollisionError(f"{rec.name} already registered with different source")
    updated = lib.copy()
    updated.records[rec.name] = rec
    return updated


def lookup(lib: Library, name: str) -> ModuleRecord:
    if name not in lib.records:
        raise NotFoundError(f"no module named {name} in the library")
    return lib.records[name]


def contains(lib: Library, name: str) -> bool:
    return name in lib.records


def signatures(lib: Library) -> list[ModuleSignature]:
    return [rec.signature for rec in lib.records.values()]


def signature_prompt_text(lib: Library) -> str:
    """Deterministic rendering of every signature block, in library order."""
    return "\n".join(render_signature_block(rec.signature) for rec in lib.records.values())


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


def _listed_modules(root: Path) -> list[str]:
    """The module names of the manifest at `root`, or none when there is no
    manifest that lists only module names."""
    try:
        doc = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    names = doc.get("modules") if isinstance(doc, dict) else None
    if not isinstance(names, list) or not all(isinstance(n, str) and n.isidentifier() for n in names):
        return []
    return names


def save_library(lib: Library, path: str | Path) -> None:
    """Write the learned modules of `lib`; the builtins are not saved, since
    `load_library` takes them from the code. Into a directory that holds a
    library already, it also removes the `.py` and `.json` files of the
    modules the old manifest lists and the new one does not, and no other
    file; nothing, if the old manifest cannot be read."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    learned = [name for name, rec in lib.records.items() if rec.kind == "generated"]
    stale = [name for name in _listed_modules(root) if name not in learned]
    (root / "manifest.json").write_text(json.dumps({"modules": learned}, indent=2) + "\n", encoding="utf-8")
    for name in stale:
        (root / f"{name}.py").unlink(missing_ok=True)
        (root / f"{name}.json").unlink(missing_ok=True)
    for name in learned:
        rec = lib.records[name]
        (root / f"{name}.py").write_text(rec.source, encoding="utf-8")
        meta = {
            "signature": _signature_to_doc(rec.signature),
            "origin_task": rec.origin_task,
            "pass_rate": rec.pass_rate,
            "eta_at_acceptance": rec.eta_at_acceptance,
            "test_case_ids": list(rec.test_case_ids),
        }
        (root / f"{name}.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def load_library(path: str | Path) -> Library:
    """The builtin library followed by the learned modules saved at `path`,
    in manifest order. Raises `LibraryFormatError` for a directory that
    `save_library` would not write, such as one whose manifest names a
    builtin, as a library saved with its builtins does, or that holds a
    module `register` would refuse for its pass rate."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise LibraryFormatError(f"{root}: missing manifest.json")
    try:
        manifest_doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LibraryFormatError(f"{root}: manifest.json is not valid JSON: {exc}") from exc
    names = manifest_doc.get("modules") if isinstance(manifest_doc, dict) else None
    if not isinstance(names, list):
        raise LibraryFormatError(f"{root}: manifest.json lacks a modules list")
    lib = builtin_library()
    builtins = set(lib.records)
    for name in names:
        # a name is a file stem inside `root`, so it must be an identifier
        if not isinstance(name, str) or not name.isidentifier():
            raise LibraryFormatError(f"{root}: manifest entry {name!r} is not a module name")
        if name in builtins:
            raise LibraryFormatError(f"{root}: manifest names the builtin {name}")
        if name in lib.records:
            raise LibraryFormatError(f"{root}: manifest lists {name} twice")
        source_path = root / f"{name}.py"
        meta_path = root / f"{name}.json"
        if not source_path.exists() or not meta_path.exists():
            raise LibraryFormatError(f"{root}: manifest names {name} but its files are missing")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            rec = ModuleRecord(
                signature=_signature_from_doc(meta["signature"]),
                source=source_path.read_text(encoding="utf-8"),
                kind="generated",
                origin_task=meta.get("origin_task", ""),
                pass_rate=float(meta["pass_rate"]),
                eta_at_acceptance=float(meta["eta_at_acceptance"]),
                test_case_ids=tuple(meta.get("test_case_ids", [])),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise LibraryFormatError(f"{root}: corrupt metadata for {name}: {exc}") from exc
        if rec.name != name:
            raise LibraryFormatError(f"{root}: manifest names {name} but its signature names {rec.name}")
        failure = rec.gate_failure()
        if failure:
            raise LibraryFormatError(f"{root}: {failure}")
        tags = (*(tag for _, tag in rec.signature.params), rec.signature.returns)
        unknown = [tag for tag in tags if not (isinstance(tag, str) and tag in TAG_DESCRIPTIONS)]
        if unknown:  # a prompt could not describe it
            raise LibraryFormatError(f"{root}: {name}.json declares the unknown tag {unknown[0]!r}")
        lib.records[name] = rec
    return lib


def libraries_equal(a: Library, b: Library) -> bool:
    """Whether `a` and `b` hold equal records in the same order."""
    return list(a.records) == list(b.records) and a.records == b.records


# ---------------------------------------------------------------------------
# Execution adapter
# ---------------------------------------------------------------------------


class ExecutionRegistry:
    """Resolves module names for the executor, loading generated modules into
    sandbox handles on first use. A temporary overlay lets synthesis score a
    candidate under a proposal name without touching the library. A call
    takes its arguments in the order of its handle's signature.

    It owns `checked`, the memo of `executor.run_program`: sound because the
    signatures and the kind of each module are fixed here, and unbounded
    because a registry is short-lived."""

    def __init__(self, lib: Library, limits=None, overlay: dict | None = None):
        self.lib = lib
        self.limits = limits or Limits()
        self.overlay = dict(overlay or {})  # name -> CandidateHandle
        self._loaded: dict[str, CandidateHandle] = {}  # name -> handle that loaded, on first call
        # the library's signatures, then those of overlay names it lacks
        self._signatures = tuple(signatures(lib)) + tuple(
            handle.signature for name, handle in self.overlay.items() if name not in lib.records
        )
        self.checked: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

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
