"""Module synthesis: propose signatures, gate candidates, register survivors.

Stage 1 asks the completion model, per training example, whether the current
library suffices; infeasible examples yield module proposals. Stage 2 samples
K implementations per proposal, scores each against executable test cases
derived from the training examples, accepts the best candidate whose pass
rate clears the threshold, and otherwise loops through repair rounds that
feed the captured errors back into the prompt.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

from . import values as V
from .dsl import ModuleSignature, parse_program, validate_program
from .errors import CacheMissError, NoCasesError, ResponseParseError
from .executor import Environment, execute_program
from .gateway import (
    DEFAULT_API_DOC,
    CompletionRequest,
    InitializationDecision,
    LlmGateway,
    extract_module_source,
    load_template,
    parse_initialization_response,
    render_prompt,
)
from .harness.metrics import iou
from .registry import (
    EPOCH_TIMESTAMP,
    ExecutionRegistry,
    Library,
    ModuleRecord,
    contains,
    register,
    signature_prompt_text,
)
from .sandbox import CandidateHandle, CapturedError, Limits, load_candidate

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynthesisConfig:
    eta: float = 0.8
    k_candidates: int = 5
    r_repairs: int = 3
    limits: Limits = field(default_factory=Limits)
    sample_temperature: float = 0.7
    model_id: str = "default-model"
    max_tokens: int = 2048

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must be in (0, 1]")
        if self.k_candidates < 1 or self.r_repairs < 0:
            raise ValueError("k_candidates must be >= 1 and r_repairs >= 0")


@dataclass(frozen=True)
class TestCase:
    id: str
    example: object  # the training TaskInstance: loaded scenes + query text
    program: str
    expected: V.Value
    comparator: str  # exact-text | numeric-eq | iou-at-0.5 | set-eq

    def initial_environment(self) -> Environment:
        from .harness.datasets import build_bindings

        return build_bindings(self.example)


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    passed: bool
    error: CapturedError | None = None


@dataclass(frozen=True)
class CandidateOutcome:
    candidate_index: int
    source: str
    per_case: tuple[CaseResult, ...]
    pass_rate: float
    accepted: bool
    repair_round: int


@dataclass(frozen=True)
class FailureReport:
    name: str
    reason: str
    outcomes: tuple[CandidateOutcome, ...]


@dataclass(frozen=True)
class Proposal:
    signature: ModuleSignature
    header: str
    first_seen_example: str


def _normalize_text(s: str) -> str:
    return " ".join(s.lower().split())


def compare_values(final: V.Value, expected: V.Value, comparator: str) -> bool:
    if comparator == "exact-text":
        if final.tag == "list" and expected.tag == "list":
            return [_normalize_text(str(x)) for x in final.payload] == [
                _normalize_text(str(x)) for x in expected.payload
            ]
        return _normalize_text(str(final.payload)) == _normalize_text(str(expected.payload))
    if comparator == "numeric-eq":
        try:
            return abs(float(final.payload) - float(expected.payload)) < 1e-9
        except (TypeError, ValueError):
            return False
    if comparator == "iou-at-0.5":
        if final.tag not in ("box-list", "mask") or not final.payload:
            return False
        gold = expected.payload[0] if expected.tag in ("box-list", "mask") else expected.payload
        return iou(final.payload[0], gold) >= 0.5
    if comparator == "set-eq":
        import json

        def canon(value):
            items = value.payload if value.tag in ("box-list", "mask", "list") else [value.payload]
            return sorted(json.dumps(_plainify(x), sort_keys=True) for x in items)

        return canon(final) == canon(expected)
    raise ValueError(f"unknown comparator {comparator!r}")


def _plainify(x):
    if isinstance(x, tuple):
        return [_plainify(v) for v in x]
    if isinstance(x, list):
        return [_plainify(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# Stage 1: initialization
# ---------------------------------------------------------------------------


def initialize_modules(train_examples, lib: Library, gateway: LlmGateway, cfg: SynthesisConfig):
    """Collect deduplicated module proposals from stage-1 decisions.

    Returns (proposals in first-mention order, per-example errors). Feasible
    examples contribute nothing; infeasible ones contribute every header the
    response proposes, keyed by module name.
    """
    template = load_template("initialization")
    catalogue = signature_prompt_text(lib)
    proposals: dict[str, Proposal] = {}
    errors: list[tuple[str, str]] = []
    for example in train_examples:
        prompt = render_prompt(
            template, {"MODULE_SIGNATURES": catalogue, "NEW_QUESTION": example.query}
        )
        request = CompletionRequest(
            prompt=prompt, model_id=cfg.model_id, temperature=0.0, max_tokens=cfg.max_tokens
        )
        try:
            response = gateway.complete(request)
            decision = parse_initialization_response(response)
        except (ResponseParseError, CacheMissError) as exc:
            errors.append((example.id, str(exc)))
            continue
        if decision.feasible:
            continue
        for sig, header in decision.proposals:
            if sig.name not in proposals and not contains(lib, sig.name):
                proposals[sig.name] = Proposal(
                    signature=sig, header=header, first_seen_example=example.id
                )
    return list(proposals.values()), errors


# ---------------------------------------------------------------------------
# Test cases
# ---------------------------------------------------------------------------


def build_test_cases(proposal: Proposal, train_examples) -> list[TestCase]:
    """One executable case per training example that exercises the module.

    Each dataset instance carries per-module case programs (the reasoning
    chain truncated at the module's last call) with oracle expectations, so a
    proposal can be gated before later modules in the same chain exist.
    """
    cases: list[TestCase] = []
    name = proposal.signature.name
    for example in train_examples:
        case_spec = example.module_cases.get(name)
        if case_spec is None:
            continue
        cases.append(
            TestCase(
                id=f"{example.id}:{name}",
                example=example,
                program=case_spec["program"],
                expected=V.Value(case_spec["expected"]["tag"], _tupleize(case_spec["expected"]["payload"])),
                comparator=case_spec["comparator"],
            )
        )
    if not cases:
        raise NoCasesError(f"no training example exercises {name}")
    return cases


def _tupleize(payload):
    if isinstance(payload, list):
        return tuple(_tupleize(v) for v in payload)
    return payload


# ---------------------------------------------------------------------------
# Stage 2: generation with the gated accept/repair loop
# ---------------------------------------------------------------------------


def _case_error(case: TestCase, registry: ExecutionRegistry, backend) -> CapturedError | None:
    """Run one case program: the error that fails it, or None if it passes."""
    try:
        program = parse_program(case.program)
    except Exception as exc:
        return CapturedError("runtime", f"bad case program: {exc}")
    env = case.initial_environment()
    binding_tags = {name: value.tag for name, value in env.bindings.items()}
    diags = validate_program(program, registry.signatures(), binding_tags)
    if diags:
        return CapturedError("runtime", f"case program invalid: {diags[0].message}")
    outcome = execute_program(program, env, registry, backend)
    if outcome.status != "ok":
        # a sandbox failure keeps the sandbox's own kind, message and
        # candidate line; any other failure is a runtime error of the case
        return outcome.error.captured or CapturedError(
            "runtime", outcome.error.message, location=outcome.error.line_no
        )
    if compare_values(outcome.final, case.expected, case.comparator):
        return None
    return CapturedError(
        "wrong_output",
        f"case {case.id} produced a wrong answer",
        expected=V.summarize(case.expected),
        actual=V.summarize(outcome.final),
    )


def compute_pass_rate(handle: CandidateHandle, cases, lib: Library, backend, limits=None):
    """Execute every case program with the candidate bound under its name."""
    registry = ExecutionRegistry(lib, limits=limits, overlay={handle.name: handle})
    results: list[CaseResult] = []
    for case in cases:
        error = _case_error(case, registry, backend)
        results.append(CaseResult(case.id, error is None, error))
    rate = sum(1 for r in results if r.passed) / len(results)
    return rate, results


def _distinct_error_messages(outcome: CandidateOutcome) -> list[str]:
    seen: list[str] = []
    for result in outcome.per_case:
        if result.error is not None:
            message = result.error.render()
            if message not in seen:
                seen.append(message)
    return seen


def render_error_report(outcome: CandidateOutcome) -> str:
    lines = [outcome.source, "", "Errors:"]
    lines.extend(f"- {msg}" for msg in _distinct_error_messages(outcome))
    return "\n".join(lines)


def _cases_as_examples(cases) -> str:
    lines = []
    for case in cases[:5]:
        query = case.example.query
        lines.append(f"Question: {query}")
        lines.append(case.program)
        lines.append("")
    return "\n".join(lines).rstrip()


def generate_module(
    proposal: Proposal,
    cases,
    cfg: SynthesisConfig,
    gateway: LlmGateway,
    lib: Library,
    backend,
    origin_task: str = "",
    clock=None,
):
    """Sample, gate and (on success) build a registrable record for one proposal.

    Returns (ModuleRecord | FailureReport, outcomes). The caller registers
    the record; rejected candidates never leak into the library.
    """
    template = load_template("generation")
    repair_template = load_template("repair")
    base_slots = {
        "API_DOC": DEFAULT_API_DOC,
        "MODULE_NAME": proposal.signature.name,
        "MODULE_HEAD": proposal.header,
        "EXAMPLES": _cases_as_examples(cases),
    }
    prompt = render_prompt(template, base_slots)
    outcomes: list[CandidateOutcome] = []

    def failed(index: int, source: str, error: CapturedError, round_no: int) -> CandidateOutcome:
        """A candidate that fails every case with one error."""
        return CandidateOutcome(
            candidate_index=index,
            source=source,
            per_case=tuple(CaseResult(c.id, False, error) for c in cases),
            pass_rate=0.0,
            accepted=False,
            repair_round=round_no,
        )

    def score_source(response_text: str, index: int, round_no: int) -> CandidateOutcome:
        try:
            source = extract_module_source(response_text)
        except ResponseParseError as exc:
            return failed(index, response_text, CapturedError("compile", str(exc)), round_no)
        handle = load_candidate(source, signature=proposal.signature)
        if handle.load_state != "loaded":
            return failed(index, source, handle.error, round_no)
        rate, results = compute_pass_rate(handle, cases, lib, backend, cfg.limits)
        return CandidateOutcome(
            candidate_index=index,
            source=source,
            per_case=tuple(results),
            pass_rate=rate,
            accepted=rate >= cfg.eta,
            repair_round=round_no,
        )

    index = 0
    for _ in range(cfg.k_candidates):
        request = CompletionRequest(
            prompt=prompt,
            model_id=cfg.model_id,
            temperature=cfg.sample_temperature,
            max_tokens=cfg.max_tokens,
        )
        try:
            response = gateway.complete(request)
        except CacheMissError as exc:
            raise
        except Exception as exc:  # endpoint hiccups are data, not fatal
            outcomes.append(failed(index, "", CapturedError("runtime", f"gateway error: {exc}"), 0))
            index += 1
            continue
        outcomes.append(score_source(response, index, 0))
        index += 1

    def best(outs):
        return max(outs, key=lambda o: (o.pass_rate, -o.candidate_index))

    current_best = best(outcomes)
    round_no = 0
    while not current_best.accepted and round_no < cfg.r_repairs:
        round_no += 1
        report = render_error_report(current_best)
        repair_prompt = render_prompt(repair_template, {**base_slots, "ERROR_REPORT": report})
        request = CompletionRequest(
            prompt=repair_prompt,
            model_id=cfg.model_id,
            temperature=cfg.sample_temperature,
            max_tokens=cfg.max_tokens,
        )
        try:
            response = gateway.complete(request)
        except CacheMissError:
            raise
        except Exception as exc:
            logger.warning("repair round %d failed at the gateway: %s", round_no, exc)
            break
        outcomes.append(score_source(response, index, round_no))
        index += 1
        current_best = best(outcomes)

    if not current_best.accepted:
        report = FailureReport(
            name=proposal.signature.name,
            reason=f"no candidate reached pass rate {cfg.eta:.2f} "
            f"(best {current_best.pass_rate:.2f} after {round_no} repair rounds)",
            outcomes=tuple(outcomes),
        )
        return report, outcomes

    record = ModuleRecord(
        signature=proposal.signature,
        source=current_best.source,
        kind="generated",
        origin_task=origin_task,
        pass_rate=current_best.pass_rate,
        eta_at_acceptance=cfg.eta,
        created_at=clock() if clock else EPOCH_TIMESTAMP,
        version=1,
        test_case_ids=tuple(c.id for c in cases),
    )
    return record, outcomes


@dataclass(frozen=True)
class SynthesisReport:
    proposals: tuple[str, ...]
    accepted: tuple[str, ...]
    failed: tuple[FailureReport, ...]
    init_errors: tuple[tuple[str, str], ...]
    outcomes: dict = field(default_factory=dict, hash=False, compare=False)


def run_synthesis(
    train_examples,
    lib: Library,
    gateway: LlmGateway,
    backend,
    cfg: SynthesisConfig,
    origin_task: str = "",
    clock=None,
) -> tuple[Library, SynthesisReport]:
    """The full learn pipeline: initialize, then generate per proposal in
    first-mention order so later proposals can call earlier accepted modules."""
    proposals, init_errors = initialize_modules(train_examples, lib, gateway, cfg)
    accepted: list[str] = []
    failed: list[FailureReport] = []
    outcomes: dict[str, tuple[CandidateOutcome, ...]] = {}
    for proposal in proposals:
        try:
            cases = build_test_cases(proposal, train_examples)
        except NoCasesError as exc:
            failed.append(FailureReport(name=proposal.signature.name, reason=str(exc), outcomes=()))
            continue
        result, outs = generate_module(
            proposal, cases, cfg, gateway, lib, backend, origin_task=origin_task, clock=clock
        )
        outcomes[proposal.signature.name] = tuple(outs)
        if isinstance(result, FailureReport):
            failed.append(result)
            continue
        lib = register(lib, result)
        accepted.append(result.name)
    report = SynthesisReport(
        proposals=tuple(p.signature.name for p in proposals),
        accepted=tuple(accepted),
        failed=tuple(failed),
        init_errors=tuple(init_errors),
        outcomes=outcomes,
    )
    return lib, report
