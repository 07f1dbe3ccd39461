"""Module synthesis: propose signatures, gate candidates, register survivors.

Stage 1 asks the completion model, per training example, whether the current
library suffices; infeasible examples yield module proposals. Stage 2 samples
K implementations per proposal, scores each against executable test cases
derived from the training examples, accepts the best candidate whose pass
rate clears the threshold, and otherwise loops through repair rounds that
feed the captured errors back into the prompt. Case programs run through
`executor.run_program`, and a case fails with the run's own error, such as
`syntax` for a case program that does not parse.

A proposal fixes the cases, the library, the signature and the limits, so
within one proposal a candidate's outcome depends only on its source: a
sample whose source was already scored, in the first round or a repair
round, is neither loaded nor run again, and takes the earlier pass rate and
case results (or load error). Every sample is still requested. The one
difference from running it again is the wall clock: a sample identical to
one that timed out reports that `timeout` without running again.

Every case run of one `run_synthesis` call sees the same training examples,
so the call builds each example's bindings once, binds scenes of equal
content to one full-scene handle, and runs stage 2 inside
`backends.shared_perception`: each question about such a handle is answered
once for all candidates, repair rounds and proposals of the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import values as V
from .backends import PerceptionMemo, shared_perception
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
)
from .harness.datasets import GOLD_TYPES, Judge, build_bindings, judge_of
from .registry import (
    ExecutionRegistry,
    Library,
    ModuleRecord,
    contains,
    register,
    signature_prompt_text,
)
from .sandbox import CandidateHandle, Limits, load_candidate
from .scene import ImageHandle, SceneGraph

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
    gold: dict  # {"type": ..., "value": ...}, judged as an instance's gold is
    bindings: dict[str, V.Value]  # the example's, shared by every run of the case

    def passes(self, final: V.Value) -> bool:
        """Whether a run's final value is right by the judge of `gold`."""
        return self._judge(final).correct

    @cached_property
    def _judge(self) -> Judge:
        return judge_of(self.gold)


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
        load_template("initialization"), {"MODULE_SIGNATURES": signature_prompt_text(lib)}, cfg.model_id
    )
    proposals: dict[str, Proposal] = {}
    errors: list[tuple[str, str]] = []
    for example in train_examples:
        try:
            response = gateway.complete(prompts.request(example.query))
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


def build_test_cases(proposal: Proposal, train_examples, bind=None) -> list[TestCase]:
    """One executable case per training example that exercises the module.

    A training instance carries, under a module's name, the case that gates
    it: a program and a gold, judged as an instance's gold is. Mostly that
    is the instance's canonical program and its own gold. A tagging
    instance carries the case of the grounding chain it extends, and a
    centre raven puzzle's DETECT_SHAPE case stops after that call, with the
    panel records as its gold. `bind(example)` gives a case's bindings; by
    default each case builds its own with `build_bindings`.
    """
    bind = bind or build_bindings
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
                gold=case_spec["gold"],
                bindings=bind(example),
            )
        )
    if not cases:
        raise NoCasesError(f"no training example exercises {name}")
    return cases


def _shared_binder(memo: PerceptionMemo):
    """A `bind` for `build_test_cases` that builds each example's bindings
    once and binds scenes of equal content to one full-scene handle, which
    it registers with `memo`. A scene object seen before is found by
    identity, so `content_key` runs once per distinct object: the examples
    of a loaded split share one object per distinct scene."""
    handles: dict[tuple, ImageHandle] = {}  # by content key
    handle_of: dict[int, ImageHandle] = {}  # by scene identity; the examples keep each scene alive
    bindings: dict[int, dict[str, V.Value]] = {}  # by example identity

    def image_of(scene: SceneGraph) -> ImageHandle:
        handle = handle_of.get(id(scene))
        if handle is None:
            key = scene.content_key()
            handle = handles.get(key)
            if handle is None:
                handle = handles[key] = ImageHandle.of_scene(scene)
                memo.register(handle)
            handle_of[id(scene)] = handle
        return handle

    def bind(example) -> dict[str, V.Value]:
        env = bindings.get(id(example))
        if env is None:
            env = bindings[id(example)] = build_bindings(example, image_of)
        return env

    return bind


# ---------------------------------------------------------------------------
# Stage 2: generation with the gated accept/repair loop
# ---------------------------------------------------------------------------


def _case_error(case: TestCase, registry: ExecutionRegistry, backend) -> CapturedError | None:
    """Run one case program: the error that fails it, or None if it passes."""
    outcome = run_program(case.program, case.bindings, registry, backend)
    if outcome.error is not None:
        return outcome.error
    if case.passes(outcome.final):
        return None
    return CapturedError(
        "wrong_output",
        f"case {case.id} produced a wrong answer",
        expected=V.summarize(GOLD_TYPES[case.gold["type"]].form(case.gold["value"])),
        actual=V.summarize(outcome.final),
    )


def compute_pass_rate(handle: CandidateHandle, cases, lib: Library, backend, limits=None, scores=None):
    """Execute every case program with the candidate bound under its name.

    `scores`, when given, holds the (rate, results) of each source already
    scored on these cases, library and limits: a handle whose source is
    there is not run again, and a new score is added to it."""
    if scores is not None and handle.source in scores:
        return scores[handle.source]
    registry = ExecutionRegistry(lib, limits=limits, overlay={handle.name: handle})
    results: list[CaseResult] = []
    for case in cases:
        error = _case_error(case, registry, backend)
        results.append(CaseResult(case.id, error is None, error))
    rate = sum(1 for r in results if r.passed) / len(results)
    if scores is not None:
        scores[handle.source] = rate, results
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

    Returns (ModuleRecord | FailureReport, each candidate's outcome in request
    order). The caller registers the record; rejected candidates never leak
    into the library. A sample whose source was scored earlier in the call
    is not loaded or run again: its outcome repeats that score under its
    own index and round.
    """
    fixed = {"API_DOC": DEFAULT_API_DOC, "MODULE_NAME": proposal.signature.name}
    examples = {**fixed, "EXAMPLES": _cases_as_examples(cases)}
    sample = TailSlotPrompt(load_template("generation"), examples, cfg.model_id).request(proposal.header)
    outcomes: list[CandidateOutcome] = []
    handles: dict[str, CandidateHandle] = {}  # by source: each distinct source loads once
    scores: dict[str, tuple[float, list[CaseResult]]] = {}  # by source, as compute_pass_rate fills it

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
        handle = handles.get(source)
        if handle is None:
            handle = handles[source] = load_candidate(source, signature=proposal.signature)
        if handle.load_state != "loaded":
            return failed(index, source, handle.error, round_no)
        rate, results = compute_pass_rate(handle, cases, lib, backend, cfg.limits, scores)
        return CandidateOutcome(
            candidate_index=index,
            source=source,
            per_case=tuple(results),
            pass_rate=rate,
            accepted=rate >= cfg.eta,
            repair_round=round_no,
        )

    def attempt(request: CompletionRequest, round_no: int) -> None:
        """Request one candidate and score it; a failed endpoint fails the
        candidate, and any other exception propagates."""
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
        attempt(sample, 0)
    current_best = best(outcomes)
    round_no = 0
    repairs = None  # the repair prompts, built for the first repair round
    while not current_best.accepted and round_no < cfg.r_repairs:
        round_no += 1
        if repairs is None:
            header = {**fixed, "MODULE_HEAD": proposal.header}
            repairs = TailSlotPrompt(load_template("repair"), header, cfg.model_id)
        attempt(repairs.request(render_error_report(current_best)), round_no)
        current_best = best(outcomes)

    if not current_best.accepted:
        report = FailureReport(
            name=proposal.signature.name,
            reason=f"no candidate reached pass rate {cfg.eta:.2f} "
            f"(best {current_best.pass_rate:.2f} after {round_no} repair rounds)",
        )
        return report, tuple(outcomes)

    record = ModuleRecord(
        signature=proposal.signature,
        source=current_best.source,
        kind="generated",
        origin_task=",".join(sorted({c.example.task for c in cases})),
        pass_rate=current_best.pass_rate,
        eta_at_acceptance=cfg.eta,
        test_case_ids=tuple(c.id for c in cases),
    )
    return record, tuple(outcomes)


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
    training examples its test cases come from, sorted and comma-joined.

    The cases of all proposals share each example's bindings and the
    perception answers about them, for this call only (see the module
    docstring)."""
    proposals, init_errors = initialize_modules(train_examples, lib, gateway, cfg)
    accepted: list[str] = []
    failed: list[FailureReport] = []
    outcomes: dict[str, tuple[CandidateOutcome, ...]] = {}
    with shared_perception() as memo:
        bind = _shared_binder(memo)
        for proposal in proposals:
            try:
                cases = build_test_cases(proposal, train_examples, bind)
            except NoCasesError as exc:
                failed.append(FailureReport(name=proposal.signature.name, reason=str(exc)))
                continue
            result, outs = generate_module(proposal, cases, cfg, gateway, lib, backend)
            outcomes[proposal.signature.name] = outs
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
