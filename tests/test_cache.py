from __future__ import annotations

import hashlib
import json
import logging
from contextlib import closing

import pytest

from modgrow import cli
from modgrow import reference_modules as rm
from modgrow.cache import (
    HEAD_MARKERS,
    CacheWriter,
    load_responses,
    read_records,
    split_prompt,
    whole_request,
)
from modgrow.errors import CacheMissError
from modgrow.gateway import CompletionRequest, LlmGateway, cache_key, request_doc
from modgrow.harness.datasets import generate_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.replay_seed import SyntheticResponder
from modgrow.synthesis import SynthesisConfig, run_synthesis

PROMPTS = ("first", "second", "third")
HEADED = ("head\nQuestion: 1", "head\nQuestion: 2")


def request(prompt: str) -> CompletionRequest:
    return CompletionRequest(prompt=prompt, model_id="m")


def echo(req: CompletionRequest) -> str:
    return f"re: {req.prompt}"


def record(path, prompts=PROMPTS) -> None:
    with LlmGateway(mode="record", cache_path=str(path), transport=echo) as gateway:
        for prompt in prompts:
            gateway.complete(request(prompt))


def tear(path, n_bytes: int = 20) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:-n_bytes])


def lines_of(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def show(path, *flags) -> int:
    return cli.main(["cache", "show", "--cache", str(path), *flags])


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
        with closing(CacheWriter(cache)) as writer:
            writer.append({"key": "a", "response": 2})
        assert load_responses(cache) == {"a": [1, 2]}
        assert cache.read_text(encoding="utf-8").count("\n") == 2

    def test_a_torn_head_record_is_cut_and_written_again(self, tmp_path, caplog):
        cache = tmp_path / "llm.jsonl"
        record(cache, HEADED[:1])
        head_line = cache.read_text(encoding="utf-8").split("\n")[0]
        cache.write_text(head_line[:-5], encoding="utf-8")  # the head record torn, its call lost
        with caplog.at_level(logging.WARNING, logger="modgrow.cache"):
            assert load_responses(cache) == {}
            assert "dropping torn last line 1" in caplog.text
            record(cache, HEADED)
            assert "cutting torn last line" in caplog.text
        assert cache.read_text(encoding="utf-8").split("\n")[0] == head_line
        assert [sorted(line) for line in lines_of(cache)] == [
            ["head", "head_sha256"], *[["head_sha256", "key", "request", "response", "timestamp"]] * 2
        ]
        assert show(cache, "--verify") == 0


class TestHeads:
    def test_round_trip_of_every_stage(self, tmp_path, builtin_lib, backend):
        """Rebuilt requests equal the requests of stage 1, stage 2, repair and stage 3."""
        train = generate_dataset("grounding", 4, 4, {"templates": ["ordinal"]})
        test = generate_dataset("grounding", 5, 3, {"templates": ["ordinal"]})
        lines = rm.FIXTURE_SOURCES["SORT_SPATIAL"].split("\n")
        at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("def execute("))
        lines.insert(at + 1, "        raise ValueError('injected fault')")
        responder = SyntheticResponder([*train, *test])
        responder.override_source("SORT_SPATIAL", ["\n".join(lines)] * 2)
        asked = []

        def transport(req):
            asked.append(req)
            return responder(req)

        cache = tmp_path / "llm.jsonl"
        with LlmGateway(mode="record", cache_path=str(cache), transport=transport) as gateway:
            lib, report = run_synthesis(train, builtin_lib, gateway, backend,
                                        SynthesisConfig(k_candidates=2, r_repairs=1))
            evaluate("grounding", test, lib, backend, gateway)
        assert [o.repair_round for o in report.outcomes["SORT_SPATIAL"]] == [0, 0, 1]

        heads, rebuilt = {}, []
        for _, rec in read_records(cache):
            if "head" in rec:
                assert rec["head"] not in heads.values()
                heads[rec["head_sha256"]] = rec["head"]
            else:
                rebuilt.append(whole_request(rec, heads))
                assert len(rec["request"]["prompt"]) < len(rebuilt[-1]["prompt"])
        assert rebuilt == [request_doc(req) for req in asked]
        tails = [split_prompt(req.prompt)[1] for req in asked]
        assert {m for m in HEAD_MARKERS for tail in tails if tail.startswith(m)} == set(HEAD_MARKERS)
        # stage 1, one stage-2 proposal, its repair, stage 3
        assert len(heads) == 4

    def test_a_head_is_written_once_across_reopened_gateways(self, tmp_path):
        cache = tmp_path / "llm.jsonl"
        record(cache, HEADED[:1])
        record(cache, HEADED)  # the first is served from the cache
        gateway = LlmGateway(mode="record", cache_path=str(cache), transport=lambda req: "again")
        with gateway:
            gateway.complete(request("head\nQuestion: 3"))
        with gateway:  # closed, then appended to again
            gateway.complete(request("head\nQuestion: 4"))
        assert [rec.get("head") for rec in lines_of(cache)] == ["head", None, None, None, None]
        assert show(cache, "--verify") == 0


class TestOneFormat:
    def test_gateway_record_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr("modgrow.gateway.time.time", lambda: 1234.5)
        cache = tmp_path / "llm.jsonl"
        record(cache, [HEADED[0], "p"])
        key, plain_key = cache_key(request(HEADED[0])), cache_key(request("p"))
        head_hash = hashlib.sha256(b"head").hexdigest()
        assert cache.read_text(encoding="utf-8") == (
            f'{{"head": "head", "head_sha256": "{head_hash}"}}\n'
            f'{{"head_sha256": "{head_hash}", "key": "{key}", "request": {{"max_tokens": 1024, '
            f'"model_id": "m", "prompt": "\\nQuestion: 1", "stop": null, "temperature": 0.0}}, '
            f'"response": "re: head\\nQuestion: 1", "timestamp": 1234}}\n'
            f'{{"key": "{plain_key}", "request": {{"max_tokens": 1024, "model_id": "m", '
            f'"prompt": "p", "stop": null, "temperature": 0.0}}, '
            f'"response": "re: p", "timestamp": 1234}}\n'
        )

    def test_a_cache_in_the_whole_request_format_replays_and_grows(self, tmp_path, capsys):
        """A record that holds its whole prompt, as every record did before
        heads were split out, loads as before; record mode appends records
        with heads to it."""
        cache = tmp_path / "llm.jsonl"
        key = cache_key(request("p"))
        cache.write_text(
            f'{{"key": "{key}", "request": {{"max_tokens": 1024, "model_id": "m", '
            f'"prompt": "p", "stop": null, "temperature": 0.0}}, '
            f'"response": "re: p", "timestamp": 1234}}\n',
            encoding="utf-8",
        )
        assert LlmGateway(mode="replay", cache_path=str(cache)).complete(request("p")) == "re: p"
        with LlmGateway(mode="record", cache_path=str(cache), transport=lambda req: "new") as gateway:
            assert [gateway.complete(request(p)) for p in ("p", *HEADED)] == ["re: p", "new", "new"]
        replay = LlmGateway(mode="replay", cache_path=str(cache))
        assert [replay.complete(request(p)) for p in ("p", *HEADED)] == ["re: p", "new", "new"]
        assert show(cache, "--verify") == 0
        assert capsys.readouterr().out.splitlines() == [
            "3 records under 3 distinct keys, 1 head records",
            "every key matches its rebuilt request",
        ]

    def test_cache_show_summarizes_both_caches(self, tmp_path, capsys):
        repeats, llm = tmp_path / "repeats.jsonl", tmp_path / "llm.jsonl"
        with closing(CacheWriter(repeats)) as writer:
            for key in ("a", "a", "b"):
                writer.append({"key": key, "request": {}, "response": key})
        record(llm, [*PROMPTS, *HEADED])
        assert show(repeats) == 0
        assert show(llm) == 0
        assert capsys.readouterr().out.splitlines() == [
            "3 records under 2 distinct keys, 0 head records",
            "5 records under 5 distinct keys, 1 head records",
        ]


def _alter_tail(records):
    records[2]["request"]["prompt"] = "\nQuestion: 3"
    return "line 3: key", "does not match its request"


def _dangle_head(records):
    records[2]["head_sha256"] = "0" * 64
    return "line 3: head 000000000000… is missing", ""


def _alter_head(records):
    records[0]["head"] = "heads"
    return "line 1: head text does not match its hash", ""


@pytest.mark.parametrize("tamper", [_alter_tail, _dangle_head, _alter_head])
def test_cache_show_verify_names_the_first_fault(tmp_path, capsys, tamper):
    cache = tmp_path / "llm.jsonl"
    record(cache, HEADED)
    assert show(cache, "--verify") == 0
    capsys.readouterr()
    records = lines_of(cache)
    start, end = tamper(records)
    cache.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    assert show(cache, "--verify") == 1
    captured = capsys.readouterr()
    assert captured.out == "2 records under 2 distinct keys, 1 head records\n"
    assert captured.err.startswith(f"error: {cache}: {start}")
    assert captured.err.endswith(f"{end}\n")
