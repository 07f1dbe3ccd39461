from __future__ import annotations

import json
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

    def test_collision_on_a_different_source(self, builtin_lib):
        lib = register(builtin_lib, sort_spatial_record())
        changed = sort_spatial_record(source=rm.SORT_SPATIAL_SOURCE + "\n# v2\n")
        with pytest.raises(NameCollisionError):
            register(lib, changed)

    def test_gate_violation_rejected(self, builtin_lib):
        forged = replace(sort_spatial_record(), pass_rate=0.5, eta_at_acceptance=0.8)
        with pytest.raises(GateViolationError):
            register(builtin_lib, forged)

    def test_a_nan_pass_rate_is_rejected(self, builtin_lib):
        forged = replace(sort_spatial_record(), pass_rate=float("nan"), eta_at_acceptance=0.8)
        with pytest.raises(GateViolationError, match="SORT_SPATIAL: pass rate nan below threshold 0.80"):
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
        for name in builtin_lib.records:
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


def saved_learned_library(root, *names):
    """`root` holding the builtin library grown by the fixture modules `names`
    (SORT_SPATIAL when none is given), as `save_library` writes it; the library."""
    lib = builtin_library()
    for name in names or ("SORT_SPATIAL",):
        lib = register(lib, fixture_record(name))
    save_library(lib, root)
    return lib


class TestPersistence:
    def test_round_trip_identity(self, tmp_path):
        lib = saved_learned_library(tmp_path / "lib", "SORT_SPATIAL", "COMPARE_COLOR", "CHOOSE_ATTRIBUTE")
        loaded = load_library(tmp_path / "lib")
        assert libraries_equal(lib, loaded)

    def test_a_builtin_library_saves_an_empty_manifest(self, tmp_path, builtin_lib):
        save_library(builtin_lib, tmp_path / "lib")
        assert [p.name for p in (tmp_path / "lib").iterdir()] == ["manifest.json"]
        assert json.loads((tmp_path / "lib" / "manifest.json").read_text(encoding="utf-8")) == {"modules": []}
        assert libraries_equal(load_library(tmp_path / "lib"), builtin_lib)

    def test_library_files_are_auditable(self, tmp_path):
        # the learned modules only: the builtins come from the code
        learned = ("SORT_SPATIAL", "COMPARE_COLOR", "CHOOSE_ATTRIBUTE")
        saved_learned_library(tmp_path / "lib", *learned)
        names = {p.name for p in (tmp_path / "lib").iterdir()}
        assert names == {"manifest.json", *(f"{n}.py" for n in learned), *(f"{n}.json" for n in learned)}
        manifest = json.loads((tmp_path / "lib" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest == {"modules": list(learned)}
        meta = json.loads((tmp_path / "lib" / "SORT_SPATIAL.json").read_text(encoding="utf-8"))
        assert "kind" not in meta

    def test_saving_over_a_library_removes_only_the_modules_it_drops(self, tmp_path):
        root = tmp_path / "lib"
        saved_learned_library(root, "SORT_SPATIAL", "COMPARE_COLOR", "CHOOSE_ATTRIBUTE")
        (root / "notes.txt").write_text("kept\n", encoding="utf-8")
        lib = saved_learned_library(root, "COMPARE_COLOR")
        assert {p.name for p in root.iterdir()} == {
            "manifest.json", "COMPARE_COLOR.py", "COMPARE_COLOR.json", "notes.txt"}
        assert libraries_equal(load_library(root), lib)

    @pytest.mark.parametrize("manifest", [
        "{not json", '{"modules": "SORT_SPATIAL"}', '{"modules": ["SORT_SPATIAL", "../lib"]}',
    ])
    def test_saving_over_an_unreadable_manifest_removes_nothing(self, tmp_path, manifest):
        root = tmp_path / "lib"
        saved_learned_library(root, "SORT_SPATIAL", "COMPARE_COLOR")
        (root / "manifest.json").write_text(manifest, encoding="utf-8")
        saved_learned_library(root, "COMPARE_COLOR")
        assert {p.name for p in root.iterdir()} == {
            "manifest.json", "SORT_SPATIAL.py", "SORT_SPATIAL.json", "COMPARE_COLOR.py", "COMPARE_COLOR.json"}

    def test_missing_module_file_is_schema_error(self, tmp_path):
        saved_learned_library(tmp_path / "lib")
        (tmp_path / "lib" / "SORT_SPATIAL.py").unlink()
        with pytest.raises(LibraryFormatError):
            load_library(tmp_path / "lib")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(LibraryFormatError):
            load_library(tmp_path)

    def test_a_manifest_that_is_no_object_is_refused(self, tmp_path):
        root = tmp_path / "lib"
        saved_learned_library(root)
        (root / "manifest.json").write_text(json.dumps(["SORT_SPATIAL"]), encoding="utf-8")
        with pytest.raises(LibraryFormatError) as err:
            load_library(root)
        assert str(err.value) == f"{root}: manifest.json lacks a modules list"

    @pytest.mark.parametrize("pass_rate, shown", [(0.1, "0.10"), (float("nan"), "nan")])
    def test_a_saved_module_below_its_own_threshold_is_refused(self, tmp_path, pass_rate, shown):
        root = tmp_path / "lib"
        saved_learned_library(root, "SOLVER")
        meta = json.loads((root / "SOLVER.json").read_text(encoding="utf-8"))
        meta.update(pass_rate=pass_rate, eta_at_acceptance=0.8)
        (root / "SOLVER.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(LibraryFormatError) as err:
            load_library(root)
        assert str(err.value) == f"{root}: SOLVER: pass rate {shown} below threshold 0.80"

    def test_corrupt_metadata(self, tmp_path):
        saved_learned_library(tmp_path / "lib")
        (tmp_path / "lib" / "SORT_SPATIAL.json").write_text("{}", encoding="utf-8")
        with pytest.raises(LibraryFormatError):
            load_library(tmp_path / "lib")

    @pytest.mark.parametrize("where", ["params", "returns"])
    def test_a_saved_signature_with_an_undeclared_tag_is_refused(self, tmp_path, where):
        root = tmp_path / "lib"
        saved_learned_library(root)
        meta = json.loads((root / "SORT_SPATIAL.json").read_text(encoding="utf-8"))
        if where == "params":
            meta["signature"]["params"][0][1] = "boxes"
        else:
            meta["signature"]["returns"] = "boxes"
        (root / "SORT_SPATIAL.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(LibraryFormatError) as err:
            load_library(root)
        assert str(err.value) == f"{root}: SORT_SPATIAL.json declares the unknown tag 'boxes'"

    def test_transfer_between_tasks(self, tmp_path):
        # a library saved after grounding learning is usable unmodified elsewhere
        lib = register(builtin_library(), sort_spatial_record())
        save_library(lib, tmp_path / "lib")
        loaded = load_library(tmp_path / "lib")
        record = lookup(loaded, "SORT_SPATIAL")
        assert record.origin_task == "grounding"
        assert record.source == rm.SORT_SPATIAL_SOURCE

    def test_a_library_saved_with_a_version_key_still_loads(self, tmp_path):
        lib = saved_learned_library(tmp_path / "lib")
        meta_path = tmp_path / "lib" / "SORT_SPATIAL.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        assert "version" not in meta
        meta_path.write_text(json.dumps({**meta, "version": 1}, indent=2) + "\n", encoding="utf-8")
        assert libraries_equal(load_library(tmp_path / "lib"), lib)

    def test_a_library_saved_with_a_creation_time_still_loads(self, tmp_path):
        lib = saved_learned_library(tmp_path / "lib")
        meta_path = tmp_path / "lib" / "SORT_SPATIAL.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        assert "created_at" not in meta
        meta_path.write_text(json.dumps({**meta, "created_at": "1970-01-01T00:00:00Z"}, indent=2) + "\n",
                             encoding="utf-8")
        assert libraries_equal(load_library(tmp_path / "lib"), lib)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (["SORT_SPATIAL", "COMPARE_COLOR", "SORT_SPATIAL"], "manifest lists SORT_SPATIAL twice"),
            (["SORT_SPATIAL", "../evil"], "manifest entry '../evil' is not a module name"),
            (["SORT_SPATIAL", "sub/LOC"], "manifest entry 'sub/LOC' is not a module name"),
            (["SORT_SPATIAL", ""], "manifest entry '' is not a module name"),
            (["SORT_SPATIAL", 3], "manifest entry 3 is not a module name"),
            (["SORT_SPATIAL", ["COUNT"]], "manifest entry ['COUNT'] is not a module name"),
            # as in a library saved with its builtins
            (["LOC", "SORT_SPATIAL"], "manifest names the builtin LOC"),
            (["SORT_SPATIAL", "COUNT"], "manifest names the builtin COUNT"),
        ],
    )
    def test_a_manifest_entry_that_is_no_single_module_name_is_refused(self, tmp_path, entries, message):
        root = tmp_path / "lib"
        saved_learned_library(root, "SORT_SPATIAL", "COMPARE_COLOR")
        # files a `..` entry would read, were it followed out of the library directory
        (tmp_path / "evil.py").write_text(rm.SORT_SPATIAL_SOURCE, encoding="utf-8")
        (tmp_path / "evil.json").write_text((root / "SORT_SPATIAL.json").read_text(encoding="utf-8"),
                                            encoding="utf-8")
        (root / "manifest.json").write_text(json.dumps({"modules": entries}), encoding="utf-8")
        with pytest.raises(LibraryFormatError) as err:
            load_library(root)
        assert str(err.value) == f"{root}: {message}"

    def test_a_module_saved_under_another_name_is_refused(self, tmp_path):
        root = tmp_path / "lib"
        saved_learned_library(root)
        meta = json.loads((root / "SORT_SPATIAL.json").read_text(encoding="utf-8"))
        meta["signature"]["name"] = "SORT_SPATIALX"
        (root / "SORT_SPATIAL.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(LibraryFormatError) as err:
            load_library(root)
        assert str(err.value) == f"{root}: manifest names SORT_SPATIAL but its signature names SORT_SPATIALX"


def test_execution_signatures_are_the_library_then_new_overlay_names(builtin_lib):
    lib = register(builtin_lib, sort_spatial_record())
    overlay = {
        name: load_candidate(rm.FIXTURE_SOURCES[name], signature=replace(rm.fixture_signature(name), doc=name))
        for name in ("SORT_SPATIAL", "DETECT_SHAPE")
    }
    registry = ExecutionRegistry(lib, overlay=overlay)
    assert registry.signatures() == (*signatures(lib), overlay["DETECT_SHAPE"].signature)
