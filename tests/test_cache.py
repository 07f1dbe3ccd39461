from __future__ import annotations

import hashlib
import json
import logging
import time
from contextlib import closing

import pytest

from modgrow import cli
from modgrow import reference_modules as rm
from modgrow.backends import SyntheticBackend
from modgrow.cache import CacheWriter, Resolver, load_responses, read_records, text_sha256
from modgrow.errors import CacheMissError
from modgrow.gateway import CompletionRequest, LlmGateway, cache_key, request_doc
from modgrow.harness.datasets import generate_dataset
from modgrow.harness.evaluate import evaluate
from modgrow.registry import builtin_library
from modgrow.replay_seed import SyntheticResponder, program_modules, seed_learn_and_eval
from modgrow.synthesis import SynthesisConfig, run_synthesis

PROMPTS = ("first", "second", "third")
HEADED = ("head\nQuestion: 1", "head\nQuestion: 2")

# The first line of each template's varying part: the new question (stage 1
# and stage 3), the module ask (stage 2) and the module to fix (repair). The
# reference cut, found by searching the prompt, is at the last of them.
MARKERS = (
    "\nQuestion:",
    "\nGiven the above APIs, could you write a new module, ",
    "\nYou previously wrote a module, ",
)


def split(prompt: str) -> tuple[str, str]:
    """(head, tail) of `prompt`, cut at the last marker; the head is empty
    when the prompt has none."""
    cut = max(prompt.rfind(marker) for marker in MARKERS)
    if cut <= 0:
        return "", prompt
    return prompt[:cut], prompt[cut:]


def request(prompt: str) -> CompletionRequest:
    """A request whose head is the reference cut's."""
    return CompletionRequest(prompt=prompt, model_id="m", head=split(prompt)[0])


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
            ["head", "head_sha256"], *[["head_sha256", "key", "request", "response"]] * 2
        ]
        assert show(cache, "--verify") == 0

    def test_a_torn_response_whose_only_inline_copy_it_was_is_written_again(self, tmp_path, caplog):
        cache = tmp_path / "llm.jsonl"
        writer = CacheWriter(cache)
        with closing(writer):
            writer.append({"key": "a", "response": "one"})
            writer.append({"key": "b", "response": "two"})
        tear(cache)  # the only inline copy of "two"
        with caplog.at_level(logging.WARNING, logger="modgrow.cache"), closing(writer):
            writer.append({"key": "b", "response": "two"})  # the same writer, opened again
            writer.append({"key": "c", "response": "two"})
            assert "cutting torn last line" in caplog.text
        assert lines_of(cache) == [
            {"key": "a", "response": "one"}, {"key": "b", "response": "two"},
            {"key": "c", "response_sha256": text_sha256("two")},
        ]
        assert load_responses(cache) == {"a": ["one"], "b": ["two"], "c": ["two"]}


class TestResponses:
    def test_each_distinct_text_is_stored_inline_once_and_served_as_one_str(self, tmp_path):
        cache = tmp_path / "llm.jsonl"
        with LlmGateway(mode="record", cache_path=str(cache), transport=lambda req: "same") as gateway:
            for prompt in (*PROMPTS, *HEADED):
                gateway.complete(request(prompt))
        records = [rec for rec in lines_of(cache) if "key" in rec]
        assert records[0]["response"] == "same" and "response_sha256" not in records[0]
        assert all("response" not in rec and rec["response_sha256"] == text_sha256("same")
                   for rec in records[1:])
        replay = LlmGateway(mode="replay", cache_path=str(cache))
        served = [replay.complete(request(p)) for p in (*PROMPTS, *HEADED)]
        assert served == ["same"] * 5
        assert all(text is served[0] for text in served)
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

        heads = [rec["head"] for _, rec in read_records(cache) if "head" in rec]
        assert len(set(heads)) == len(heads)
        resolver, rebuilt = Resolver(cache), []
        for number, rec, _ in resolver.calls(read_records(cache)):
            rebuilt.append(resolver.request(number, rec))
            assert len(rec["request"]["prompt"]) < len(rebuilt[-1]["prompt"])
        assert rebuilt == [request_doc(req) for req in asked]
        assert [req.head for req in asked] == [split(req.prompt)[0] for req in asked]
        assert {req.stage for req in asked} == {"initialization", "generation", "repair", "execution"}
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
    def test_gateway_record_bytes(self, tmp_path):
        cache = tmp_path / "llm.jsonl"
        record(cache, [HEADED[0], "p"])
        key, plain_key = cache_key(request(HEADED[0])), cache_key(request("p"))
        head_hash = hashlib.sha256(b"head").hexdigest()
        assert cache.read_text(encoding="utf-8") == (
            f'{{"head": "head", "head_sha256": "{head_hash}"}}\n'
            f'{{"head_sha256": "{head_hash}", "key": "{key}", "request": {{"max_tokens": 1024, '
            f'"model_id": "m", "prompt": "\\nQuestion: 1", "stop": null, "temperature": 0.0}}, '
            f'"response": "re: head\\nQuestion: 1"}}\n'
            f'{{"key": "{plain_key}", "request": {{"max_tokens": 1024, "model_id": "m", '
            f'"prompt": "p", "stop": null, "temperature": 0.0}}, '
            f'"response": "re: p"}}\n'
        )

    def test_a_session_recorded_at_another_time_has_the_same_bytes(self, tmp_path, monkeypatch):
        train, test = generate_dataset("vqa", 5, 6), generate_dataset("vqa", 6, 4)
        caches = []
        for clock in (1234.5, 2_000_000_000.0):
            monkeypatch.setattr(time, "time", lambda clock=clock: clock)
            caches.append(tmp_path / f"at-{clock}.jsonl")
            seed_learn_and_eval(train, test, builtin_library(), SyntheticBackend(), SynthesisConfig(),
                                str(caches[-1]))
        assert caches[0].read_bytes() == caches[1].read_bytes()

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

    def test_a_cache_with_every_response_inline_replays_and_grows(self, tmp_path, capsys):
        """A cache written before responses were stored once holds a repeated
        text inline each time; it replays as before, and record mode appends
        a repeated text as a reference to the first inline copy."""
        cache = tmp_path / "llm.jsonl"
        cache.write_text("".join(
            f'{{"key": "{cache_key(request(p))}", "request": {{"max_tokens": 1024, "model_id": "m", '
            f'"prompt": "{p}", "stop": null, "temperature": 0.0}}, '
            f'"response": "{text}", "timestamp": 1234}}\n'
            for p, text in (("p", "same"), ("q", "other"), ("r", "same"))
        ), encoding="utf-8")
        replay = LlmGateway(mode="replay", cache_path=str(cache))
        served = [replay.complete(request(p)) for p in ("p", "q", "r")]
        assert served == ["same", "other", "same"]
        assert served[0] is served[2]
        with LlmGateway(mode="record", cache_path=str(cache), transport=lambda req: "same") as gateway:
            assert [gateway.complete(request(p)) for p in ("p", "s", *HEADED)] == ["same"] * 4
        appended = lines_of(cache)[3:]
        assert [rec.get("head") for rec in appended] == [None, "head", None, None]
        assert all("response" not in rec and rec["response_sha256"] == text_sha256("same")
                   for rec in appended if "key" in rec)
        assert lines_of(cache)[0]["response"] == "same"
        replay = LlmGateway(mode="replay", cache_path=str(cache))
        assert [replay.complete(request(p)) for p in ("p", "q", "r", "s", *HEADED)] == [
            "same", "other", "same", "same", "same", "same"
        ]
        assert show(cache, "--verify") == 0
        assert capsys.readouterr().out.splitlines() == [
            "6 records under 6 distinct keys, 1 head records",
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


def _drop_response(records):
    del records[2]["response"]
    return "line 3: key", "has no response"


def _dangle_response(records):
    records[2]["response_sha256"] = "0" * 64
    del records[2]["response"]
    return "line 3: response 000000000000… has no earlier inline copy", ""


def _drop_key(records):
    del records[2]["key"]
    return "line 3: call record has no key", ""


@pytest.mark.parametrize(
    "tamper", [_alter_tail, _dangle_head, _alter_head, _drop_response, _dangle_response, _drop_key]
)
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


@pytest.mark.parametrize(
    "line, fault",
    [
        ('{"key": "abc"}', "line 1: key abc… has no response"),
        ('{"response": "x"}', "line 1: call record has no key"),
        (f'{{"key": "abc", "response_sha256": "{"0" * 64}"}}',
         "line 1: response 000000000000… has no earlier inline copy"),
    ],
)
@pytest.mark.parametrize("command", ["learn", "eval"])
def test_a_call_record_that_does_not_resolve_fails_learn_and_eval(tmp_path, capsys, line, fault, command):
    cache = tmp_path / "llm.jsonl"
    cache.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=fault):
        load_responses(cache)
    out = ["--out", str(tmp_path / "lib")] if command == "learn" else []
    argv = [command, "--mode", "replay", "--cache", str(cache), "--dataset", str(tmp_path / "split.jsonl"), *out]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {cache}: {fault}\n"


class SplittingWriter(CacheWriter):
    """The reference: it ignores the head it is given and cuts every prompt
    at its last marker, as the writer once did."""

    def append(self, record: dict, head: str = "") -> None:
        if self._fh is None:
            self._open()
        request = record.get("request") or {}
        head, tail = split(request.get("prompt", ""))
        if head:
            digest = self._heads.get(head)
            if digest is None:
                digest = text_sha256(head)
                head_record = {"head": head, "head_sha256": digest}
                self._fh.write(json.dumps(head_record, sort_keys=True).encode() + b"\n")
                self._heads[head] = digest
            record = {**record, "head_sha256": digest, "request": {**request, "prompt": tail}}
        response = record["response"]
        digest = self._texts.get(response)
        if digest is None:
            self._texts[response] = text_sha256(response)
        else:
            record = {name: value for name, value in record.items() if name != "response"}
            record["response_sha256"] = digest
        self._fh.write(json.dumps(record, sort_keys=True).encode() + b"\n")
        self._fh.flush()


TASKS = ("vqa", "grounding", "tagging", "editing", "raven", "mewl-analog")


@pytest.mark.parametrize("task", TASKS)
def test_a_seeded_session_writes_what_splitting_every_prompt_writes(tmp_path, task):
    """Every request of a recorded session, its first learned module's
    samples failing so that a repair round runs, is written as the
    reference writes it after cutting the prompt itself."""
    train, test = generate_dataset(task, 21, 12), generate_dataset(task, 22, 8)
    learned = sorted(set().union(*(program_modules(i.canonical_program) for i in train))
                     & rm.FIXTURE_SOURCES.keys())
    responder = SyntheticResponder()
    for name in learned[:1]:
        responder.override_source(name, ["no code here"] * 2)
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    seed_learn_and_eval(train, test, builtin_library(), SyntheticBackend(),
                        SynthesisConfig(k_candidates=2, r_repairs=1), str(new), responder=responder)
    resolver = Resolver(new)
    with closing(SplittingWriter(old)) as reference:
        for number, rec, response in resolver.calls(read_records(new)):
            whole = resolver.request(number, rec)
            reference.append({"key": rec["key"], "request": whole, "response": response})
    assert new.read_bytes() == old.read_bytes()
    # one head for stage 1 and one for stage 3, one per proposal's stage 2,
    # and one that every repair prompt shares
    heads = sum(1 for _, rec in read_records(new) if "head" in rec)
    assert heads == 2 + len(learned) + (1 if learned else 0)


def test_a_head_that_is_not_a_prefix_of_the_prompt_is_refused(tmp_path):
    cache = tmp_path / "llm.jsonl"
    with closing(CacheWriter(cache)) as writer, pytest.raises(ValueError, match="not a prefix"):
        writer.append({"key": "k", "request": {"prompt": "head\nQuestion: 1"}, "response": "r"}, "heads")
    assert cache.read_bytes() == b""


TEAR = None  # close the writer, then tear the last head record and lose the calls after it
CATALOGUE = "Pre-defined Modules:\nclass LOC():\n    pass\n"
OTHER = "Think step by step.\nclass COUNT():\n    pass\n"

WRITER_SEQUENCES = {
    "two heads, alternating": [
        CATALOGUE + "\nQuestion: 1", OTHER + "\nQuestion: 2", CATALOGUE + "\nQuestion: 3",
        OTHER + "\nQuestion: 4", OTHER + "\nQuestion: 5", CATALOGUE + "\nQuestion: 6",
    ],
    "a prompt with no head": [
        CATALOGUE + "\nQuestion: 1", "plain", CATALOGUE + "\nQuestion: 2", "Question: at the start",
        CATALOGUE, CATALOGUE + "\nQuestion: 3",
    ],
    "a reopen after a torn head line": [
        CATALOGUE + "\nQuestion: 1", OTHER + "\nQuestion: 2", TEAR, OTHER + "\nQuestion: 3",
        CATALOGUE + "\nQuestion: 4", OTHER + "\nQuestion: 5", TEAR, OTHER + "\nQuestion: 6",
    ],
}


def write_sequence(writer: CacheWriter, steps) -> dict[str, str]:
    """Append a call for each prompt of `steps` with one writer, with the
    reference cut's head; the prompt of each call that reaches the file, by
    key."""
    prompts = {}
    for n, prompt in enumerate(steps):
        if prompt is TEAR:
            writer.close()
            data = writer.path.read_bytes()
            writer.path.write_bytes(data[:data.rfind(b'{"head": ') + 30])
            continue
        record = {"key": f"k{n}", "request": {"prompt": prompt}, "response": f"re {n % 3}"}
        writer.append(record, split(prompt)[0])
        prompts[f"k{n}"] = prompt
    writer.close()
    return prompts


@pytest.mark.parametrize("steps", WRITER_SEQUENCES.values(), ids=WRITER_SEQUENCES)
def test_the_writer_writes_what_splitting_every_prompt_writes(tmp_path, steps):
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    prompts = write_sequence(CacheWriter(new), steps)
    write_sequence(SplittingWriter(old), steps)
    assert new.read_bytes() == old.read_bytes()
    heads = [rec["head"] for _, rec in read_records(new) if "head" in rec]
    assert heads and len(heads) == len(set(heads))
    resolver = Resolver(new)
    for number, rec, _ in resolver.calls(read_records(new)):
        assert resolver.request(number, rec)["prompt"] == prompts[rec["key"]]
