"""The live endpoint's request: `http_transport` posts the request's fields
as JSON with a bearer key. `urllib.request.urlopen` is replaced, so no socket
opens."""

from __future__ import annotations

import io
import json

import pytest

from modgrow.errors import AuthMissingError, EndpointError
from modgrow.gateway import CompletionRequest, http_transport

REQUEST = CompletionRequest(prompt='Question: "q"\n', model_id="model-x", temperature=0.7, max_tokens=300,
                            stop=("\n\n",), stage="execution", head="Question", key="k" * 64)


@pytest.fixture()
def endpoint(monkeypatch):
    """The requests `urlopen` is given; it answers each with `reply`."""
    monkeypatch.setenv("LLM_API_URL", "http://endpoint.invalid/complete")
    monkeypatch.setenv("LLM_API_KEY", "secret")
    sent = []
    reply = {"text": "Program:\nANSWER0=VQA(image=IMAGE,question='q')"}

    def urlopen(request, timeout):
        sent.append(request)
        return io.BytesIO(json.dumps(reply).encode("utf-8"))

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    return sent, reply


def test_the_body_holds_the_request_fields_in_order(endpoint):
    sent, reply = endpoint
    assert http_transport(REQUEST) == reply["text"]
    (request,) = sent
    assert (request.full_url, request.get_method()) == ("http://endpoint.invalid/complete", "POST")
    body = json.loads(request.data.decode("utf-8"))
    assert list(body) == ["model", "prompt", "temperature", "max_tokens", "stop"]
    assert body == {"model": "model-x", "prompt": 'Question: "q"\n', "temperature": 0.7, "max_tokens": 300,
                    "stop": ["\n\n"]}
    assert request.get_header("Authorization") == "Bearer secret"
    assert request.get_header("Content-type") == "application/json"


def test_a_request_without_stop_sequences_sends_null(endpoint):
    sent, _ = endpoint
    http_transport(CompletionRequest(prompt="p", model_id="m"))
    assert json.loads(sent[0].data.decode("utf-8"))["stop"] is None


def test_a_reply_without_text_is_an_endpoint_error(endpoint):
    _, reply = endpoint
    reply.clear()
    reply["choices"] = []
    with pytest.raises(EndpointError, match="endpoint response lacks a text field"):
        http_transport(REQUEST)


def test_no_endpoint_is_an_endpoint_error(endpoint, monkeypatch):
    monkeypatch.delenv("LLM_API_URL")
    with pytest.raises(EndpointError, match="LLM_API_URL"):
        http_transport(REQUEST)
    assert endpoint[0] == []


def test_no_key_is_a_missing_credential(endpoint, monkeypatch):
    monkeypatch.delenv("LLM_API_KEY")
    with pytest.raises(AuthMissingError, match="LLM_API_KEY"):
        http_transport(REQUEST)
    assert not issubclass(AuthMissingError, EndpointError)
    assert endpoint[0] == []
