"""Module synthesis: propose signatures, gate candidates, register survivors.

Stage 1 asks the completion model, per training example, whether the current
library suffices; infeasible examples yield module proposals. Stage 2 samples
K implementations per proposal, scores each against executable test cases
derived from the training examples, accepts the best candidate whose pass
rate clears the threshold, and otherwise loops through repair rounds that
feed the captured errors back into the prompt. Case programs run through
`executor.run_program`, and a case fails with the run's own error, such as
`syntax` for a case program that does not parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import values as V
from .dsl import ModuleSignature
from .errors import (CacheMissError, CapturedError, EndpointError, NoCasesError, ResponseParseError,
                     record_of)
from .executor import run_program
from .gateway import (
    DEFAULT_API_DOC,
    CompletionRequest,
    LlmGateway,
    TailSlotPrompt,
    extract_module_source,
    load_template,
    parse_initialization_response,
    render_prompt,
)
from .harness.datasets import build_bindings
from .harness.metrics import compare_values
from .registry import (
    EPOCH_TIMESTAMP,
    ExecutionRegistry,
    Library,
    ModuleRecord,
    contains,
    register,
    signature_prompt_text,
)
from .sandbox import CandidateHandle, Limits, load_candidate

# Stage-2 and repair samples are drawn at SAMPLE_TEMPERATURE; stage-1 and
# stage-2 requests allow MAX_TOKENS. Cache keys hash both.
SAMPLE_TEMPERATURE = 0.7
MAX_TOKENS = 2048
# the model every request names unless a run names another
DEFAULT_MODEL_ID = "default-model"


@dataclass(frozen=True)
class SynthesisConfig:
    eta: float = 0.8
    k_candidates: int = 2
    r_repairs: int = 1
    limits: Limits = field(default_factory=Limits)
    model_id: str = DEFAULT_MODEL_ID

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


# ---------------------------------------------------------------------------
# Stage 1: initialization
# ---------------------------------------------------------------------------


def initialize_modules(train_examples, lib: Library, gateway: LlmGateway, cfg: SynthesisConfig):
    """Collect deduplicated module proposals from stage-1 decisions.

    Returns (proposals in first-mention order, per-example errors). Feasible
    examples contribute nothing; infeasible ones contribute every header the
    response proposes, keyed by module name.
    """
    prompts = TailSlotPrompt(
        load_template("initialization"),
        {"MODULE_SIGNATURES": signature_prompt_text(lib)},
        "NEW_QUESTION",
        model_id=cfg.model_id,
        max_tokens=MAX_TOKENS,
    )
    proposals: dict[str, Proposal] = {}
    errors: list[tuple[str, str]] = []
    for example in train_examples:
        request, key = prompts.request(example.query)
        try:
            response = gateway.complete(request, key)
            decision = parse_initialization_response(response)
        except (ResponseParseError, CacheMissError) as exc:
            errors.append((example.id, str(exc)))
            continue
        if decision.feasible:
            continue
        for sig, header in decision.proposals:
            if sig.name not in proposals and not contains(lib, sig.name):
                proposals[sig.name] = Proposal(signature=sig, header=header)
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
    outcome = run_program(case.program, build_bindings(case.example), registry, backend)
    if outcome.error is not None:
        return outcome.error
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
            return failed(index, response_text, record_of(exc), round_no)
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

    def attempt(request_prompt: str, round_no: int) -> None:
        """Request one candidate and score it; a failed endpoint fails the
        candidate, and any other exception propagates."""
        request = CompletionRequest(
            prompt=request_prompt, model_id=cfg.model_id, temperature=SAMPLE_TEMPERATURE,
            max_tokens=MAX_TOKENS,
        )
        index = len(outcomes)
        try:
            response = gateway.complete(request)
        except EndpointError as exc:
            outcomes.append(failed(index, "", record_of(exc), round_no))
        else:
            outcomes.append(score_source(response, index, round_no))

    def best(outs):
        return max(outs, key=lambda o: (o.pass_rate, -o.candidate_index))

    for _ in range(cfg.k_candidates):
        attempt(prompt, 0)
    current_best = best(outcomes)
    round_no = 0
    while not current_best.accepted and round_no < cfg.r_repairs:
        round_no += 1
        report = render_error_report(current_best)
        attempt(render_prompt(repair_template, {**base_slots, "ERROR_REPORT": report}), round_no)
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
        origin_task=",".join(sorted({c.example.task for c in cases})),
        pass_rate=current_best.pass_rate,
        eta_at_acceptance=cfg.eta,
        created_at=EPOCH_TIMESTAMP,
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
) -> tuple[Library, SynthesisReport]:
    """The full learn pipeline: initialize, then generate per proposal in
    first-mention order so later proposals can call earlier accepted modules.

    Each accepted module records as its `origin_task` the tasks of the
    training examples its test cases come from, sorted and comma-joined."""
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
        result, outs = generate_module(proposal, cases, cfg, gateway, lib, backend)
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
