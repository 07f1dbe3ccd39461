"""Requests of every stage keyed from a text hashed once.

`TailSlotPrompt` must build the request `render_prompt` builds, with the
temperature and max_tokens of its template, and give it the key `cache_key`
gives it, and `evaluate` and `initialize_modules`, which key their requests
through it, must replay a cache recorded the plain way while escaping the
module catalogue once per run. Each request carries its template's stage,
its head, the text above the template's one ask line, and its key, none of
them part of what the key hashes.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from modgrow import gateway
from modgrow.errors import MissingSlotError
from modgrow.gateway import (
    CompletionRequest,
    LlmGateway,
    PromptTemplate,
    TailSlotPrompt,
    cache_key,
    load_template,
    render_prompt,
)
from modgrow.harness.datasets import generate_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.registry import builtin_library, signature_prompt_text
from modgrow.replay_seed import SyntheticResponder
from modgrow.synthesis import SynthesisConfig, initialize_modules

ODD_TEXT = 'quote " back \\ slash\nline\ttab\x01 naïve 日本 \U0001f600  \x7f'
CATALOGUES = (
    signature_prompt_text(builtin_library()),
    ODD_TEXT,
    "",
    "holds __NEW_QUESTION__ and __MODULE_SIGNATURES__",
)
QUESTIONS = (
    "How many cats are there?",
    'Is the "coat" thick \\ thin?',
    "line\nbreak\ttab\r",
    "bell\x07 and nul\x00",
    "café 日本",
    "emoji \U0001f600 clef \U0001d11e",
    "",
    "What is __NEW_QUESTION__?",
    "__MODULE_SIGNATURES__",
    ODD_TEXT,
)
# a model, and the temperature and max_tokens that replace the template's
FIELDS = (
    {"model_id": "default-model"},
    {"model_id": 'model "x" \\ é', "temperature": 0.7, "max_tokens": 77},
    {"model_id": "m", "temperature": 1e-07, "max_tokens": 0},
)
# each stage's (temperature, max_tokens), which every cache key of it hashes
STAGE_FIELDS = {
    "initialization": (0.0, 2048),
    "generation": (0.7, 2048),
    "repair": (0.7, 2048),
    "execution": (0.0, 1024),
}


# each template: its fixed slots, its varying slot, and the start of its ask
# line up to the slot it names
TEMPLATES = {
    "initialization": (("MODULE_SIGNATURES",), "NEW_QUESTION", "Question: "),
    "execution": (("MODULE_SIGNATURES",), "NEW_QUESTION", "Question: "),
    "generation": (("API_DOC", "MODULE_NAME", "EXAMPLES"), "MODULE_HEAD",
                   "Given the above APIs, could you write a new module, "),
    "repair": (("API_DOC", "MODULE_NAME", "MODULE_HEAD"), "ERROR_REPORT", "You previously wrote a module, "),
}


def template_of(stage, fields):
    """The stage's template with the temperature and max_tokens of `fields`."""
    settings = {name: value for name, value in fields.items() if name != "model_id"}
    return dataclasses.replace(load_template(stage), **settings)


def prompts_over(stage, fields):
    """(prompts, fixed slots) with each of `CATALOGUES` in every fixed slot."""
    names = TEMPLATES[stage][0]
    for text in CATALOGUES:
        fixed = dict.fromkeys(names, text)
        yield TailSlotPrompt(template_of(stage, fields), fixed, fields["model_id"]), fixed


@pytest.mark.parametrize("stage", TEMPLATES)
@pytest.mark.parametrize("fields", FIELDS)
def test_request_and_key_equal_the_rendered_request(stage, fields):
    template = template_of(stage, fields)
    varying = TEMPLATES[stage][1]
    for prompts, fixed in prompts_over(stage, fields):
        for value in QUESTIONS:
            request = prompts.request(value)
            expected = CompletionRequest(
                prompt=render_prompt(template, {**fixed, varying: value}), model_id=fields["model_id"],
                temperature=template.temperature, max_tokens=template.max_tokens,
            )
            assert request == expected
            assert request.key == cache_key(expected)
            assert request.stage == stage


@pytest.mark.parametrize("stage", TEMPLATES)
def test_each_stage_asks_with_its_temperature_and_budget(stage):
    request = TailSlotPrompt(load_template(stage), dict.fromkeys(TEMPLATES[stage][0], "x"), "m").request("v")
    assert (request.temperature, request.max_tokens, request.stop) == (*STAGE_FIELDS[stage], None)


@pytest.mark.parametrize("stage", TEMPLATES)
def test_the_head_ends_just_before_the_ask_line(stage):
    ask = TEMPLATES[stage][2]
    for prompts, fixed in prompts_over(stage, FIELDS[0]):
        for value in QUESTIONS:
            asked = fixed.get("MODULE_NAME", value)
            request = prompts.request(value)
            assert request.head is prompts.head
            assert request.prompt.startswith(request.head)
            assert request.prompt[len(request.head):].startswith("\n" + ask + asked)


@pytest.mark.parametrize("stage", TEMPLATES)
def test_stage_head_and_key_never_change_the_key(stage):
    for prompts, _ in prompts_over(stage, FIELDS[1]):
        request = prompts.request(QUESTIONS[1])
        for stage_, head in [(None, ""), ("other", ""), (stage, request.prompt), (None, request.head)]:
            other = dataclasses.replace(request, stage=stage_, head=head, key=None)
            assert other == request
            assert cache_key(other) == request.key


@pytest.mark.parametrize("stage", TEMPLATES)
def test_each_shipped_template_holds_one_ask_line(stage):
    """The head ends above the line that holds the question or the module
    name, so a template that held two, or none, would move the cut and so
    the bytes of every cache recorded from it."""
    lines = load_template(stage).body.split("\n")
    asks = [line for line in lines if "__NEW_QUESTION__" in line or "__MODULE_NAME__" in line]
    assert len(asks) == 1
    assert asks[0].startswith(TEMPLATES[stage][2])
    assert lines.index(asks[0]) > 0


def test_a_template_with_two_ask_lines_is_refused():
    body = "head\nQuestion: __NEW_QUESTION__\nagain __MODULE_NAME__\n__Q__"
    with pytest.raises(ValueError, match="2 ask lines"):
        TailSlotPrompt(PromptTemplate("t", body), {"NEW_QUESTION": "q", "MODULE_NAME": "M"}, "m")


def test_a_template_without_an_ask_line_has_no_head():
    request = TailSlotPrompt(PromptTemplate("t", "head\n__Q__"), {}, "m").request("q")
    assert (request.prompt, request.head, request.stage) == ("head\nq", "", "t")


@pytest.mark.parametrize(
    "body",
    [
        "__Q__ twice __Q__",
        "__Q__ and __A__ and __Q__ again",
        "no markers at all",
    ],
)
def test_the_last_marker_must_be_a_single_one(body):
    with pytest.raises(ValueError, match="no single last marker"):
        TailSlotPrompt(PromptTemplate("t", body), {"A": "a", "Q": "q"}, "m")


@pytest.mark.parametrize(
    "body, fixed, prompt",
    [
        ("__Q__ then __A__", {"Q": "q"}, "q then v"),
        ("__A__ only", {}, "v only"),
        ("__A__ and __Q__ and __B__ after", {"A": "a", "Q": "q"}, "a and q and v after"),
    ],
)
def test_the_last_marker_is_the_varying_slot(body, fixed, prompt):
    request = TailSlotPrompt(PromptTemplate("t", body), fixed, "m").request("v")
    assert request.prompt == prompt
    assert request.key == cache_key(request)


def test_missing_fixed_slot_raises():
    with pytest.raises(MissingSlotError):
        TailSlotPrompt(load_template("execution"), {}, "m")


def test_tail_text_after_the_marker_is_kept():
    prompts = TailSlotPrompt(PromptTemplate("t", '__A__ "head"\n__Q__\ttail "é"'), {"A": "\\a"}, "m")
    request = prompts.request("q\n")
    assert request.prompt == '\\a "head"\nq\n\ttail "é"'
    assert request.key == cache_key(request)


def _record_plainly(tmp_path, stage, instances, catalogue, **fields):
    """A cache recorded through `render_prompt` and `complete(request)`; the
    request's head ends at its last question line."""
    responder = SyntheticResponder(instances)
    cache = str(tmp_path / f"{stage}.jsonl")
    template = load_template(stage)
    with LlmGateway(mode="record", cache_path=cache, transport=responder) as recorder:
        for instance in instances:
            prompt = render_prompt(template, {"MODULE_SIGNATURES": catalogue, "NEW_QUESTION": instance.query})
            head = prompt[: prompt.rindex("\nQuestion: ")]
            recorder.complete(CompletionRequest(prompt=prompt, stage=stage, head=head, **fields))
    return cache


def _records(path):
    """Cache records, head records included."""
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def test_evaluate_replays_a_cache_recorded_plainly(tmp_path, full_lib, backend):
    test = generate_dataset("vqa", 11, 12)
    cache = _record_plainly(
        tmp_path, "execution", test, signature_prompt_text(full_lib),
        model_id="model-x", temperature=0.0,
    )
    replay = LlmGateway(mode="replay", cache_path=cache)
    report = evaluate("vqa", test, full_lib, backend, replay, model_id="model-x")
    assert [o.error for o in report.per_instance] == [None] * len(test)
    assert report.metrics["accuracy"] == 1.0

    recorded = tmp_path / "through-evaluate.jsonl"
    with LlmGateway(mode="record", cache_path=str(recorded), transport=SyntheticResponder(test)) as recorder:
        evaluate("vqa", test, full_lib, backend, recorder, model_id="model-x")
    assert sorted(_records(recorded), key=lambda d: d.get("key", "")) == sorted(
        _records(cache), key=lambda d: d.get("key", "")
    )


def test_initialize_modules_replays_a_cache_recorded_plainly(tmp_path):
    train = generate_dataset("vqa", 12, 12)
    lib = builtin_library()
    cfg = SynthesisConfig(model_id="model-x")
    cache = _record_plainly(
        tmp_path, "initialization", train, signature_prompt_text(lib),
        model_id=cfg.model_id, temperature=0.0, max_tokens=2048,
    )
    replay = LlmGateway(mode="replay", cache_path=cache)
    proposals, errors = initialize_modules(train, lib, replay, cfg)
    assert errors == []
    assert proposals

    recorded = tmp_path / "through-initialize.jsonl"
    with LlmGateway(mode="record", cache_path=str(recorded), transport=SyntheticResponder(train)) as recorder:
        assert initialize_modules(train, lib, recorder, cfg) == (proposals, errors)
    assert _records(recorded) == _records(cache)


def _count_catalogue_escapes(monkeypatch, catalogue) -> list:
    """Count whole-prompt keyings and escapes of text as long as `catalogue`.

    `cache_key` escapes the whole prompt on every call; `gateway._escape`
    is what `TailSlotPrompt` escapes with.
    """
    calls = []
    original_key = gateway.cache_key
    original_escape = gateway.json.encoder.encode_basestring_ascii

    def counting_key(req):
        calls.append("cache_key")
        return original_key(req)

    def counting_escape(text):
        if len(text) >= len(catalogue):
            calls.append("escape")
        return original_escape(text)

    monkeypatch.setattr(gateway, "cache_key", counting_key)
    monkeypatch.setattr(gateway, "_escape", counting_escape, raising=False)
    return calls


def test_evaluate_escapes_the_catalogue_once(tmp_path, monkeypatch, full_lib, backend):
    test = generate_dataset("vqa", 13, 10)
    catalogue = signature_prompt_text(full_lib)
    cache = _record_plainly(tmp_path, "execution", test, catalogue, model_id="default-model")
    replay = LlmGateway(mode="replay", cache_path=cache)

    calls = _count_catalogue_escapes(monkeypatch, catalogue)
    report = evaluate("vqa", test, full_lib, backend, replay)
    assert report.metrics["accuracy"] == 1.0
    assert calls == ["escape"]


def test_initialize_modules_escapes_the_catalogue_once(tmp_path, monkeypatch):
    train = generate_dataset("vqa", 14, 10)
    lib = builtin_library()
    cfg = SynthesisConfig()
    catalogue = signature_prompt_text(lib)
    cache = _record_plainly(
        tmp_path, "initialization", train, catalogue,
        model_id=cfg.model_id, max_tokens=2048,
    )
    replay = LlmGateway(mode="replay", cache_path=cache)

    calls = _count_catalogue_escapes(monkeypatch, catalogue)
    proposals, errors = initialize_modules(train, lib, replay, cfg)
    assert proposals and errors == []
    assert calls == ["escape"]
