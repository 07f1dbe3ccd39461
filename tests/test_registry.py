from __future__ import annotations

from dataclasses import replace

import pytest

from modgrow import reference_modules as rm
from modgrow.errors import GateViolationError, LibraryFormatError, NameCollisionError, NotFoundError
from modgrow.registry import (
    ExecutionRegistry,
    builtin_library,
    libraries_equal,
    load_library,
    lookup,
    register,
    save_library,
    signature_prompt_text,
    signatures,
)
from modgrow.sandbox import load_candidate

from conftest import fixture_record


def sort_spatial_record(**overrides):
    record = fixture_record("SORT_SPATIAL", origin_task="grounding")
    return replace(record, **overrides) if overrides else record


class TestRegister:
    def test_register_grows_library(self, builtin_lib):
        before = len(builtin_lib)
        lib = register(builtin_lib, sort_spatial_record())
        assert len(lib) == before + 1
        assert len(builtin_lib) == before  # input untouched

    def test_idempotent_on_identical_source(self, builtin_lib):
        lib = register(builtin_lib, sort_spatial_record())
        again = register(lib, sort_spatial_record())
        assert libraries_equal(lib, again)

    def test_collision_without_version_bump(self, builtin_lib):
        lib = register(builtin_lib, sort_spatial_record())
        for version in (1, 2):  # a version bump does not replace a module either
            changed = sort_spatial_record(source=rm.SORT_SPATIAL_SOURCE + "\n# v2\n", version=version)
            with pytest.raises(NameCollisionError):
                register(lib, changed)

    def test_gate_violation_rejected(self, builtin_lib):
        forged = replace(sort_spatial_record(), pass_rate=0.5, eta_at_acceptance=0.8)
        with pytest.raises(GateViolationError):
            register(builtin_lib, forged)

    def test_monotone_growth(self, builtin_lib):
        lib = builtin_lib
        for name in ("SORT_SPATIAL", "COMPARE_COLOR"):
            before = dict(lib.records)
            lib = register(lib, fixture_record(name))
            for key, value in before.items():
                assert lib.records[key] == value


class TestLookup:
    def test_builtin_lookup(self, builtin_lib):
        assert lookup(builtin_lib, "LOC").kind == "builtin"

    def test_missing_is_not_found(self, builtin_lib):
        with pytest.raises(NotFoundError):
            lookup(builtin_lib, "COMPARE_SIZE")

    def test_lookup_after_register_is_byte_identical(self, builtin_lib):
        lib = register(builtin_lib, sort_spatial_record())
        assert lookup(lib, "SORT_SPATIAL").source == rm.SORT_SPATIAL_SOURCE


class TestPromptText:
    def test_builtin_catalogue_lists_all_blocks(self, builtin_lib):
        text = signature_prompt_text(builtin_lib)
        for name in builtin_lib.manifest:
            assert f"class {name}():" in text
        assert text.index("class LOC()") < text.index("class COUNT()")
        assert "Input:" in text and "Output:" in text

    def test_appended_module_renders_after_existing(self, builtin_lib):
        before = signature_prompt_text(builtin_lib)
        lib = register(builtin_lib, fixture_record("COMPARE_COLOR"))
        after = signature_prompt_text(lib)
        assert after.startswith(before)
        assert "class COMPARE_COLOR():" in after

    def test_empty_library_renders_empty(self):
        from modgrow.registry import Library

        assert signature_prompt_text(Library()) == ""

    def test_pure_function_of_records(self, builtin_lib):
        assert signature_prompt_text(builtin_lib) == signature_prompt_text(builtin_lib)


class TestPersistence:
    def test_round_trip_identity(self, tmp_path, builtin_lib):
        lib = builtin_lib
        for name in ("SORT_SPATIAL", "COMPARE_COLOR", "CHOOSE_ATTRIBUTE"):
            lib = register(lib, fixture_record(name))
        save_library(lib, tmp_path / "lib")
        loaded = load_library(tmp_path / "lib")
        assert libraries_equal(lib, loaded)

    def test_missing_module_file_is_schema_error(self, tmp_path, builtin_lib):
        save_library(builtin_lib, tmp_path / "lib")
        (tmp_path / "lib" / "LOC.py").unlink()
        with pytest.raises(LibraryFormatError):
            load_library(tmp_path / "lib")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(LibraryFormatError):
            load_library(tmp_path)

    def test_corrupt_metadata(self, tmp_path, builtin_lib):
        save_library(builtin_lib, tmp_path / "lib")
        (tmp_path / "lib" / "LOC.json").write_text("{}", encoding="utf-8")
        with pytest.raises(LibraryFormatError):
            load_library(tmp_path / "lib")

    def test_transfer_between_tasks(self, tmp_path, builtin_lib, backend):
        # a library saved after grounding learning is usable unmodified elsewhere
        lib = register(builtin_lib, sort_spatial_record())
        save_library(lib, tmp_path / "lib")
        loaded = load_library(tmp_path / "lib")
        record = lookup(loaded, "SORT_SPATIAL")
        assert record.origin_task == "grounding"
        assert record.source == rm.SORT_SPATIAL_SOURCE

    def test_library_files_are_auditable(self, tmp_path, builtin_lib):
        lib = register(builtin_lib, sort_spatial_record())
        save_library(lib, tmp_path / "lib")
        names = {p.name for p in (tmp_path / "lib").iterdir()}
        assert "manifest.json" in names
        assert "SORT_SPATIAL.py" in names and "SORT_SPATIAL.json" in names


def test_execution_signatures_are_the_library_then_new_overlay_names(builtin_lib):
    lib = register(builtin_lib, sort_spatial_record())
    overlay = {
        name: load_candidate(rm.FIXTURE_SOURCES[name], signature=replace(rm.fixture_signature(name), doc=name))
        for name in ("SORT_SPATIAL", "DETECT_SHAPE")
    }
    registry = ExecutionRegistry(lib, overlay=overlay)
    assert registry.signatures() == (*signatures(lib), overlay["DETECT_SHAPE"].signature)
