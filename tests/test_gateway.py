from __future__ import annotations

import logging

import pytest

from modgrow import gateway as gateway_module
from modgrow import values as V
from modgrow.errors import CacheMissError, MissingSlotError, ResponseParseError
from modgrow.gateway import (
    CompletionRequest,
    LlmGateway,
    cache_key,
    extract_module_source,
    load_template,
    parse_initialization_response,
    parse_program_response,
    render_prompt,
)
from modgrow.executor import run_program
from modgrow.reference_modules import COMPARE_COLOR_SOURCE, fixture_header
from modgrow.registry import ExecutionRegistry, builtin_library, signature_prompt_text

from program_corpus import COMPARE_SIZE_PROGRAM, PURSE_PROGRAM


class TestTemplates:
    def test_stage1_renders_question_at_tail(self):
        template = load_template("initialization")
        prompt = render_prompt(
            template,
            {"MODULE_SIGNATURES": "CATALOGUE", "NEW_QUESTION": "Is the coat thick or thin?"},
        )
        assert prompt.rstrip().endswith("Question: Is the coat thick or thin?")
        assert "CATALOGUE" in prompt
        assert "__" not in prompt.replace("__init__", "")

    def test_a_template_is_read_once(self):
        assert load_template("repair") is load_template("repair")

    def test_missing_slot_raises(self):
        template = load_template("generation")
        with pytest.raises(MissingSlotError):
            render_prompt(template, {"API_DOC": "x", "MODULE_NAME": "X", "EXAMPLES": ""})

    def test_empty_examples_slot_ok(self):
        template = load_template("generation")
        prompt = render_prompt(
            template,
            {"API_DOC": "api", "MODULE_NAME": "X", "MODULE_HEAD": "class X():", "EXAMPLES": ""},
        )
        assert "class X():" in prompt

    def test_substitution_is_byte_exact(self):
        template = load_template("execution")
        catalogue = signature_prompt_text(builtin_library())
        prompt = render_prompt(
            template, {"MODULE_SIGNATURES": catalogue, "NEW_QUESTION": "How many cats?"}
        )
        assert catalogue in prompt
        assert prompt.count("How many cats?") == 1


class TestCache:
    def test_key_is_pure_function_of_request_fields(self):
        a = CompletionRequest(prompt="p", model_id="m", temperature=0.7, max_tokens=10)
        b = CompletionRequest(prompt="p", model_id="m", temperature=0.7, max_tokens=10)
        assert cache_key(a) == cache_key(b)
        assert cache_key(a) != cache_key(CompletionRequest(prompt="p2", model_id="m"))
        assert cache_key(a) != cache_key(
            CompletionRequest(prompt="p", model_id="m", temperature=0.0, max_tokens=10)
        )

    def test_key_format_is_pinned(self):
        """A replay cache stays readable only while keys keep their bytes."""
        req = CompletionRequest(
            prompt='Question: Is the "coat" thick?\n\u00e9\u2603\U0001f600\x01',
            model_id="model-x",
            temperature=0.7,
            max_tokens=300,
            stop=("\n\n", "END"),
        )
        assert cache_key(req) == "438dfa31661ece4ef8876fe055b9d6d20fb23d2071274d2b9e6d02229a724471"
        assert cache_key(CompletionRequest(prompt="hello", model_id="default-model")) == (
            "d5b48a269de7d4d67a0a4cd88c5bc872a9db28f815bf53bc7bf52227b7a41374"
        )

    def test_record_then_replay_byte_identical(self, tmp_path):
        cache = str(tmp_path / "llm.jsonl")
        responses = iter(["first response", "second response"])
        req = CompletionRequest(prompt="hello", model_id="m", temperature=0.7)
        with LlmGateway(mode="record", cache_path=cache, transport=lambda req: next(responses)) as recorder:
            assert recorder.complete(req) == "first response"
            assert recorder.complete(req) == "second response"

        replay = LlmGateway(mode="replay", cache_path=cache)
        assert replay.complete(req) == "first response"
        assert replay.complete(req) == "second response"
        assert replay.complete(req) == "second response"  # sticks on the last recorded

    def test_replay_never_touches_transport(self, tmp_path):
        cache = str(tmp_path / "llm.jsonl")
        with LlmGateway(mode="record", cache_path=cache, transport=lambda req: "x") as recorder:
            recorder.complete(CompletionRequest(prompt="p", model_id="m"))
        calls = []

        def transport(req):
            calls.append(req)
            return "live!"

        replay = LlmGateway(mode="replay", cache_path=cache, transport=transport)
        assert replay.complete(CompletionRequest(prompt="p", model_id="m")) == "x"
        assert calls == []

    def test_replay_miss_is_error(self, tmp_path):
        cache = tmp_path / "llm.jsonl"
        cache.write_text("", encoding="utf-8")
        replay = LlmGateway(mode="replay", cache_path=str(cache))
        with pytest.raises(CacheMissError):
            replay.complete(CompletionRequest(prompt="new", model_id="m"))

    def test_record_rerun_served_from_cache(self, tmp_path):
        """A key with fewer recorded responses than calls is served those in
        call order, then the transport's answers, which are appended; a
        later record gateway serves every response from the file."""
        cache = str(tmp_path / "llm.jsonl")
        calls = []

        def transport(req):
            calls.append(req.prompt)
            return f"answer-{len(calls)}"

        req = CompletionRequest(prompt="p", model_id="m")
        with LlmGateway(mode="record", cache_path=cache, transport=transport) as first:
            assert first.complete(req) == "answer-1"
        with LlmGateway(mode="record", cache_path=cache, transport=transport) as second:
            assert [second.complete(req) for _ in range(3)] == ["answer-1", "answer-2", "answer-3"]
        assert calls == ["p"] * 3
        with LlmGateway(mode="record", cache_path=cache, transport=transport) as third:
            assert [third.complete(req) for _ in range(3)] == ["answer-1", "answer-2", "answer-3"]
        assert calls == ["p"] * 3


class TestInitializationParsing:
    def test_feasible_purse_response(self):
        decision = parse_initialization_response("Yes. The program is:\n" + PURSE_PROGRAM)
        assert decision.feasible
        assert decision.program == PURSE_PROGRAM
        assert decision.proposals == ()

    def test_infeasible_compare_size_response(self):
        template = load_template("initialization")
        # the worked example inside the template is itself a valid response body
        start = template.body.index("No. We need")
        end = template.body.index("Question: __NEW_QUESTION__")
        decision = parse_initialization_response(template.body[start:end])
        assert not decision.feasible
        assert len(decision.proposals) == 1
        sig, header = decision.proposals[0]
        assert sig.name == "COMPARE_SIZE"
        assert sig.returns == "boolean"
        assert "class COMPARE_SIZE():" in header

    def test_multi_proposal_response(self):
        body = (
            'No. We need to make new modules "DETECT_SHAPE", "SOLVER" first. '
            "Here are the headers of the classes:\n"
            + fixture_header("DETECT_SHAPE")
            + "\n"
            + fixture_header("SOLVER")
        )
        decision = parse_initialization_response(body)
        assert [sig.name for sig, _ in decision.proposals] == ["DETECT_SHAPE", "SOLVER"]

    def test_tolerates_leading_prose(self):
        text = "Let me think about this.\nYes. The program is:\n" + PURSE_PROGRAM
        assert parse_initialization_response(text).feasible

    def test_unparseable_decision(self):
        with pytest.raises(ResponseParseError):
            parse_initialization_response("maybe")

    def test_each_distinct_response_is_parsed_once(self, monkeypatch, caplog):
        """The decision of a text is kept, so its headers are parsed and an
        unparseable block is logged once; a refused text is refused again."""
        parsed = []
        original = gateway_module.parse_signature_block
        monkeypatch.setattr(gateway_module, "parse_signature_block",
                            lambda block: parsed.append(block) or original(block))
        # a module name no other test parses, so the kept decisions hold no copy
        header = fixture_header("SOLVER").replace("SOLVER", "PARSED_ONCE")
        body = "No. We need a new module.\n" + header + "\nclass BROKEN():\n    pass"
        with caplog.at_level(logging.WARNING):
            decisions = [parse_initialization_response(body) for _ in range(3)]
        assert decisions[0] is decisions[1] is decisions[2]
        assert [sig.name for sig, _ in decisions[0].proposals] == ["PARSED_ONCE"]
        assert len(parsed) == 2
        assert sum("skipping unparseable proposal block" in r.message for r in caplog.records) == 1
        for _ in range(2):
            with pytest.raises(ResponseParseError):
                parse_initialization_response("No. A new module is needed, but no header follows.")

    def test_round_trips_program_fixture(self):
        for program in (PURSE_PROGRAM, COMPARE_SIZE_PROGRAM):
            decision = parse_initialization_response("Yes. The program is:\n" + program)
            assert decision.program == program


class TestSourceExtraction:
    def test_bare_class_block(self):
        text = "Sure, here is the module:\n" + COMPARE_COLOR_SOURCE + "\nHope that helps!"
        assert extract_module_source(text) == COMPARE_COLOR_SOURCE.rstrip()

    def test_fenced_block_preferred(self):
        text = "```python\n" + COMPARE_COLOR_SOURCE + "```\nclass DECOY():\n    pass\n"
        assert extract_module_source(text).startswith("class COMPARE_COLOR():")

    def test_prose_only_is_error(self):
        with pytest.raises(ResponseParseError):
            extract_module_source("I cannot write that module, sorry.")

    def test_two_blocks_keeps_first_with_warning(self, caplog):
        text = COMPARE_COLOR_SOURCE + "\n" + fixture_header("SOLVER")
        with caplog.at_level(logging.WARNING):
            source = extract_module_source(text)
        assert source.startswith("class COMPARE_COLOR():")
        assert any("class blocks" in r.message for r in caplog.records)

    def test_program_response_extraction(self):
        assert parse_program_response("Program:\n" + PURSE_PROGRAM + "\n\nDone.") == PURSE_PROGRAM
        with pytest.raises(ResponseParseError):
            parse_program_response("no statements here")

    def test_a_program_with_blanks_around_its_tokens_is_extracted_and_runs(self, coat_image, backend):
        program = "BOX0 = LOC(image=IMAGE, object='coat')\nFINAL_RESULT = RESULT(var=BOX0)"
        assert parse_program_response("Program:\n" + program + "\n") == program
        env = {"IMAGE": V.image(coat_image)}
        result = run_program(program, env, ExecutionRegistry(builtin_library()), backend)
        assert result.error is None
        assert result.final == V.box_list([(200, 150, 380, 330)])
