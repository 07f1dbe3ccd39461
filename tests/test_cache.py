from __future__ import annotations

import json
import logging

import pytest

from modgrow import cli
from modgrow.backends import RecordingToolBackend
from modgrow.cache import append_record, load_responses
from modgrow.errors import CacheMissError
from modgrow.gateway import CompletionRequest, LlmGateway, cache_key

PROMPTS = ("first", "second", "third")


def request(prompt: str) -> CompletionRequest:
    return CompletionRequest(prompt=prompt, model_id="m")


def record(path, prompts=PROMPTS) -> None:
    gateway = LlmGateway(mode="record", cache_path=str(path), transport=lambda req: f"re: {req.prompt}")
    for prompt in prompts:
        gateway.complete(request(prompt))


def tear(path, n_bytes: int = 20) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:-n_bytes])


class TestTornLastLine:
    def test_replay_drops_it_with_a_warning(self, tmp_path, caplog):
        cache = tmp_path / "llm.jsonl"
        record(cache)
        tear(cache)
        with caplog.at_level(logging.WARNING, logger="modgrow.cache"):
            replay = LlmGateway(mode="replay", cache_path=str(cache))
        assert "torn last line 3" in caplog.text
        assert replay.complete(request("first")) == "re: first"
        assert replay.complete(request("second")) == "re: second"
        with pytest.raises(CacheMissError):
            replay.complete(request("third"))

    def test_bad_line_elsewhere_raises(self, tmp_path):
        cache = tmp_path / "llm.jsonl"
        record(cache)
        lines = cache.read_text(encoding="utf-8").split("\n")
        lines[1] = lines[1][:-20]
        cache.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            LlmGateway(mode="replay", cache_path=str(cache))

    def test_record_append_starts_on_a_fresh_line(self, tmp_path, caplog):
        cache = tmp_path / "llm.jsonl"
        record(cache)
        tear(cache)
        with caplog.at_level(logging.WARNING, logger="modgrow.cache"):
            record(cache)  # serves the two whole records, records the third again
            assert "cutting torn last line" in caplog.text
            caplog.clear()
            assert len(load_responses(cache)) == 3
            assert caplog.text == ""
        lines = cache.read_text(encoding="utf-8").split("\n")
        assert lines[-1] == ""
        assert [json.loads(line)["response"] for line in lines[:-1]] == [f"re: {p}" for p in PROMPTS]

    def test_whole_unterminated_line_is_kept(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text('{"key": "a", "response": 1}', encoding="utf-8")
        assert load_responses(cache) == {"a": [1]}
        append_record(cache, {"key": "a", "response": 2})
        assert load_responses(cache) == {"a": [1, 2]}
        assert cache.read_text(encoding="utf-8").count("\n") == 2


class TestOneFormat:
    def test_gateway_record_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr("modgrow.gateway.time.time", lambda: 1234.5)
        cache = tmp_path / "llm.jsonl"
        record(cache, ["p"])
        key = cache_key(request("p"))
        assert cache.read_text(encoding="utf-8") == (
            f'{{"key": "{key}", "request": {{"max_tokens": 1024, "model_id": "m", '
            f'"prompt": "p", "stop": null, "temperature": 0.0}}, '
            f'"response": "re: p", "timestamp": 1234}}\n'
        )

    def test_tool_records_share_the_gateway_shape(self, tmp_path, backend, coat_image):
        cache = tmp_path / "tools.jsonl"
        RecordingToolBackend(backend, str(cache)).locate(coat_image, "coat")
        (doc,) = [json.loads(line) for line in cache.read_text(encoding="utf-8").splitlines()]
        assert sorted(doc) == ["key", "request", "response"]
        assert doc["request"]["operation"] == "locate"
        assert doc["request"]["args"] == {"name": "coat"}
        assert doc["response"] == [[200, 150, 380, 330]]

    def test_cache_show_summarizes_both_caches(self, tmp_path, backend, coat_image, capsys):
        tools, llm = tmp_path / "tools.jsonl", tmp_path / "llm.jsonl"
        recorder = RecordingToolBackend(backend, str(tools))
        recorder.locate(coat_image, "coat")
        recorder.locate(coat_image, "coat")
        recorder.general_text("hello")
        record(llm)
        assert cli.main(["cache", "show", "--cache", str(tools)]) == 0
        assert cli.main(["cache", "show", "--cache", str(llm)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "3 records under 2 distinct keys",
            "3 records under 3 distinct keys",
        ]
