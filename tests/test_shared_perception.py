"""Perception shared across the candidates of one `run_synthesis` call.

Stage 2 runs every case program of a call on the same training examples, so
`run_synthesis` binds each example once, binds scenes of equal content to one
handle, and answers each question about those handles once, in a memo that
`backends.shared_perception` keeps for the call. A candidate must not be able
to change what later candidates read from it, the memo must not outlive the
call, and eval must not use one.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import pytest

from modgrow import backends, synthesis
from modgrow import reference_modules as rm
from modgrow.backends import SyntheticBackend
from modgrow.gateway import LlmGateway
from modgrow.harness.datasets import generate_dataset
from modgrow.harness.evaluate import evaluate, solve_puzzle_with_modules
from modgrow.registry import ExecutionRegistry, builtin_library
from modgrow.replay_seed import SyntheticResponder
from modgrow.synthesis import SynthesisConfig, run_synthesis

from test_perception_memo import reference_answer_question, reference_locate

# Each write is tried on its own; every one that Python lets through must
# leave later candidates unaffected.
WRITES = (
    "img._answers['What color is the object?'] = 'pink'",
    "img._answers = {'What color is the object?': 'pink'}",
    "img._visible = ()",
    "img.scene = None",
    "img.crop_box = (0, 0, 1, 1)",
    "img.overlays = ()",
    "img.edits = ()",
    "img.visible_objects = lambda: ()",
    "img.crop = None",
    "img.scene.width = 1",
    "img.scene.objects = ()",
    "img.scene.caption = 'pink'",
    "img.scene.objects[0].name = 'pink'",
    "img.scene.objects[0].box = (0, 0, 1, 1)",
    "img.scene.objects[0].attributes['color'] = 'pink'",
    "img.scene.objects[0].attributes['material'] = 'pink'",
    "img.scene.objects[0].tags = ('pink',)",
    "img.visible_objects()[0][0].attributes['color'] = 'pink'",
    "API._backend._memo = {}",
    "API._backend._entries = {}",
    "API._backend.answer_question = lambda image, question: 'pink'",
    "API._backend._answer_question = lambda image, question: 'pink'",
    "API._backend.locate = lambda image, name: []",
    "API._backend._locate = lambda image, name: []",
    "API._backend._matching = lambda image, wanted: []",
    "API.loc = lambda image, name: [[0, 0, 1, 1]]",
    "API.vqa = lambda image, question: 'pink'",
    "API._backend = None",
)


def poisoner(name: str, params: str, images: str, noun: str, asked: str) -> str:
    """A candidate for fixture `name` that spoils all it can reach and then
    fails every case with `ValueError: poisoner done`.

    Before the writes it asks each image a question as a `str` subclass
    that hashes and compares equal to the question `asked`, and mutates
    what `API.loc` returns."""
    lines = [rm.fixture_header(name), f"    def execute(self,{params}):",
             f"        for img in {images}:",
             f"            self.spoil(img, {noun})",
             "        raise ValueError('poisoner done')", "",
             "    def spoil(self, img, noun):",
             "        class Pink(str):",
             "            def __eq__(self, other):",
             "                return True",
             "            def __hash__(self):",
             f"                return hash({asked})",
             "        API.vqa(img, Pink('What shape is the object?'))",
             "        found = API.loc(img, noun)",
             "        found.insert(0, [0, 0, 1, 1])",
             "        found.append([0, 0, 2, 2])",
             "        del found[1:-1]",
             "        again = API.loc(img, noun)",
             "        again.clear()"]
    for write in WRITES:
        lines += ["        try:", f"            {write}", "        except Exception:", "            pass"]
    return "\n".join(lines) + "\n"


@contextmanager
def kept_memos(monkeypatch):
    """Record every memo `run_synthesis` opens."""
    memos = []
    real = backends.shared_perception

    @contextmanager
    def recording():
        with real() as memo:
            memos.append(memo)
            yield memo

    monkeypatch.setattr(synthesis, "shared_perception", recording)
    yield memos


# name: task, knobs, execute's parameters, its images, the noun it locates,
# the question the `str` subclass poses as, and the operations kept
CASES = {
    # raven: DETECT_SHAPE asks four questions of every panel
    "DETECT_SHAPE": ("raven", {}, "image", "image", "'object'", "'What color is the object?'",
                     {"answer_question", "locate"}),
    # vqa: each case program runs LOC on the image, and VERIFY_MATERIAL asks
    # its question of a crop, which no memo keeps
    "VERIFY_MATERIAL": ("vqa", {"templates": ["material-verify"]}, "img,boxes,material,obj,question",
                        "[img]", "obj", "'What material is the ' + noun + '?'", {"locate"}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_candidate_cannot_poison_the_memo(name, monkeypatch):
    task, knobs, params, images, noun, asked, operations = CASES[name]
    train = generate_dataset(task, 7, 8, knobs)
    responder = SyntheticResponder(train)
    responder.override_source(name, [poisoner(name, params, images, noun, asked)])
    with kept_memos(monkeypatch) as memos, LlmGateway(mode="record", transport=responder) as gateway:
        _, report = run_synthesis(train, builtin_library(), gateway, SyntheticBackend(),
                                  SynthesisConfig(k_candidates=2, r_repairs=0))
    spoiled, stock = report.outcomes[name]
    assert {(c.error.kind, c.error.message) for c in spoiled.per_case} == {
        ("runtime", "ValueError: poisoner done")
    }
    assert stock.source.strip() == rm.FIXTURE_SOURCES[name].strip()
    assert stock.pass_rate == 1.0 and stock.accepted
    assert name in report.accepted
    [memo] = memos
    kept = list(memo.kept())
    assert {op for op, *_ in kept} == operations
    for op, handle, request, answer in kept:
        if op == "answer_question":
            assert type(request) is str
            assert answer == reference_answer_question(handle, request), request
        else:
            assert answer == reference_locate(handle, request), request


def spy(monkeypatch):
    """Count `answer_question` calls by (scene document, viewport, question),
    the uncached computations behind them, and every memo made."""
    seen = {"calls": [], "handles": set(), "computed": 0, "memos": 0}
    answer, compute, init = (SyntheticBackend.answer_question, SyntheticBackend._answer_question,
                             backends.PerceptionMemo.__init__)

    def counting_answer(self, image, question):
        seen["calls"].append((json.dumps(image.scene.to_doc(), sort_keys=True), image.crop_box, question))
        seen["handles"].add(id(image))
        return answer(self, image, question)

    def counting_compute(self, image, question):
        seen["computed"] += 1
        return compute(self, image, question)

    def counting_init(self):
        seen["memos"] += 1
        init(self)

    monkeypatch.setattr(SyntheticBackend, "answer_question", counting_answer)
    monkeypatch.setattr(SyntheticBackend, "_answer_question", counting_compute)
    monkeypatch.setattr(backends.PerceptionMemo, "__init__", counting_init)
    return seen


def test_the_memo_lives_for_one_run_synthesis_call(monkeypatch):
    train = generate_dataset("raven", 5, 8)
    seen = spy(monkeypatch)
    computed = []
    for _ in range(2):
        seen["calls"].clear()
        seen["handles"].clear()
        seen["computed"] = 0
        with LlmGateway(mode="record", transport=SyntheticResponder(train)) as gateway:
            lib, report = run_synthesis(train, builtin_library(), gateway, SyntheticBackend(),
                                        SynthesisConfig())
        assert report.accepted == ("DETECT_SHAPE", "SOLVER")
        distinct = set(seen["calls"])
        assert seen["computed"] <= len(distinct) < len(seen["calls"])
        # one handle per distinct scene, all of them full-scene viewports
        assert len({doc for doc, _, _ in distinct}) == len(seen["handles"])
        computed.append(seen["computed"])
        assert backends._SHARED.get() is None
    assert seen["memos"] == 2
    assert computed[0] == computed[1] > 0  # the second call starts cold

    center = generate_dataset("raven", 6, 3)
    split = generate_dataset("raven", 6, 3, {"layout": "left-right"})
    seen["calls"].clear()
    seen["computed"] = 0
    with LlmGateway(mode="record", transport=SyntheticResponder(center)) as gateway:
        assert evaluate("raven", center, lib, SyntheticBackend(), gateway).metrics["accuracy"] == 1.0
        assert evaluate("raven", split, lib, SyntheticBackend(), gateway).metrics["accuracy"] == 1.0
    registry = ExecutionRegistry(lib)
    assert [solve_puzzle_with_modules(i.puzzle, registry, SyntheticBackend()) for i in split] == [
        i.puzzle.answer_index for i in split
    ]
    assert seen["memos"] == 2  # evaluate and the puzzle driver make none
    assert seen["computed"] == len(seen["calls"]) > 0
