from __future__ import annotations

import json

import pytest

from modgrow import reference_modules as rm
from modgrow.backends import SyntheticBackend
from modgrow.registry import ExecutionRegistry, ModuleRecord, builtin_library, register
from modgrow.scene import ImageHandle, SceneGraph, SceneObject


def fixture_record(name: str, origin_task: str = "fixture", eta: float = 0.8) -> ModuleRecord:
    """A generated record of the fixture `name`, as if it passed every case."""
    return ModuleRecord(
        signature=rm.fixture_signature(name),
        source=rm.FIXTURE_SOURCES[name],
        kind="generated",
        origin_task=origin_task,
        pass_rate=1.0,
        eta_at_acceptance=eta,
    )


def with_first_statement(name: str, statement: str) -> str:
    """The fixture source of `name` with `statement` first in `execute`."""
    lines = rm.FIXTURE_SOURCES[name].split("\n")
    at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("def execute("))
    lines.insert(at + 1, " " * 8 + statement)
    return "\n".join(lines)


def scene_docs(instance_doc: dict) -> list:
    """Every scene document of an instance document written with its scenes inline."""
    docs = [instance_doc[key] for key in ("scene", "query_scene") if key in instance_doc]
    if "puzzle" in instance_doc:
        docs += instance_doc["puzzle"]["panels"] + instance_doc["puzzle"]["candidates"]
    docs += [scene for scene, _ in instance_doc.get("examples", [])]
    return docs


def distinct_scene_docs(instances) -> int:
    """How many distinct scene documents the instances hold."""
    return len({json.dumps(doc, sort_keys=True) for instance in instances
                for doc in scene_docs(instance.to_doc())})


@pytest.fixture()
def backend():
    return SyntheticBackend()


@pytest.fixture()
def builtin_lib():
    return builtin_library()


@pytest.fixture()
def full_lib(builtin_lib):
    lib = builtin_lib
    for name in rm.FIXTURE_SOURCES:
        lib = register(lib, fixture_record(name))
    return lib


@pytest.fixture()
def full_registry(full_lib):
    return ExecutionRegistry(full_lib)


def make_scene(*objects, width=640, height=480):
    return SceneGraph(width=width, height=height, objects=tuple(objects))


def obj(oid, name, box, depth=0.5, tags=(), **attributes):
    return SceneObject(
        id=oid, name=name, box=tuple(box), attributes=dict(attributes), depth=depth,
        tags=tuple(tags),
    )


@pytest.fixture()
def coat_scene():
    return make_scene(
        obj("c", "coat", (200, 150, 380, 330), thickness="thick", color="black"),
    )


@pytest.fixture()
def coat_image(coat_scene):
    return ImageHandle.of_scene(coat_scene)


@pytest.fixture()
def purse_scene():
    # purse strictly left of the person
    return make_scene(
        obj("p", "person", (300, 100, 420, 400), depth=0.5),
        obj("u", "purse", (80, 250, 160, 330), depth=0.4, color="brown"),
    )
