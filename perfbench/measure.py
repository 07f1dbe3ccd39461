"""The untraced and traced runs, the correctness gate and the coverage check."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

import modgrow.registry as reg

import spans
import workloads as W
from faults import FaultyResponder

SETUP_REPS = 3
REF_S = 0.05  # the reference pass time that scaled times assume
REF_WINDOW = 3  # reference passes on each side of a timed pass
MIN_TRACED_CYCLES = 2
PHASES = ("setup", "learn", "eval")


class GateFailure(Exception):
    """The program's outputs are wrong; the run reports no number."""


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


class _Row:
    __slots__ = ("key", "total")

    def __init__(self, key, total):
        self.key, self.total = key, total


def reference_pass() -> float:
    """Time one pass of a fixed pure-Python workload that never calls modgrow.

    A shared host runs the same code up to twice as slowly at times, and
    this pass slows with it: over windows of half a minute, the ratio of an
    eval pass to it held within a few percent while both swung by 2x. So
    phase times are scaled by `REF_S` over the reference passes around them
    (see `scaled_mean`), which reports them as on a host where this pass
    takes `REF_S` seconds.
    The pass does what modgrow mostly does (build dicts and strings, JSON
    round trips, small objects, keyed sorts) with the collector off, so
    that the size of the program's heap does not change its time.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [{"id": i, "name": f"row-{i * 7919 % 10007:05d}", "v": [i * j % 97 for j in range(8)]}
                for i in range(6000)]
        back = json.loads(json.dumps(rows))
        index = {r["name"]: _Row(r["id"], sum(r["v"])) for r in back}
        order = sorted(index, key=lambda k: (index[k].total, k))
        check(len(order) == len(rows), "reference pass lost rows")
        return time.perf_counter() - start
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def gate(seeded, lib, syn_report, report, fault_free) -> tuple[float, int, int]:
    """Check one learn + eval pass; returns (accuracy, attempted, failed).

    No instance may end in an error, and the benchmark's judge must agree
    with the report's verdict on every instance. Accuracy must reach the
    workload's `min_accuracy`, 1.0 unless a known defect is documented: the
    stand-in model answers every query with the instance's canonical
    program, which the generator checked against its oracle, and the grown
    library implements every module with its fixture.
    """
    wl = seeded.workload
    gold = {i.id: i for i in seeded.test}
    check(report.n == wl.n_test == len(gold), f"report covers {report.n} of {wl.n_test} instances")
    errors = [o for o in report.per_instance if o.error]
    check(not errors, f"{len(errors)} eval instances failed, first: {errors[0].error if errors else ''}")
    judged = {o.id: W.judge(gold[o.id], o.predicted) for o in report.per_instance}
    disagree = [o.id for o in report.per_instance if o.correct != judged[o.id]]
    check(not disagree, f"report verdict disagrees with the gold judge on {disagree[:3]}")
    accuracy = sum(judged.values()) / len(judged)
    check(accuracy >= wl.min_accuracy,
          f"accuracy {accuracy:.4f} by the gold answers, below {wl.min_accuracy}")
    check(report.metrics["accuracy"] == accuracy, "report accuracy differs from the gold judge")
    check(reg.libraries_equal(lib, seeded.record_library),
          "replayed library differs from the recorded one")
    check(reg.libraries_equal(lib, fault_free), "library differs from the fault-free library")
    if wl.faults:
        outcomes = [o for outs in syn_report.outcomes.values() for o in outs]
        check(any(not o.accepted for o in outcomes), "no candidate was rejected by the eta gate")
        check(any(o.repair_round > 0 for o in outcomes), "no repair round ran")
    attempted = report.n + len(syn_report.proposals)
    failed = len(errors) + len(syn_report.proposals) - len(syn_report.accepted)
    check(failed == 0, f"{failed} of {len(syn_report.proposals)} proposals were not accepted")
    return accuracy, attempted, failed


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def scaled_mean(log: list[tuple[str, float]], phase: str) -> float:
    """Mean pass time of `phase`, scaled to a host on which a reference pass
    takes `REF_S` seconds.

    `log` alternates reference passes and timed passes, starting and ending
    with a reference pass. The host's speed during a pass is the median of
    the `REF_WINDOW` reference passes on each side of it, which a single
    stalled reference pass does not move. The result is `REF_S` times the
    sum of the phase's pass times over the sum of those medians. The host
    switches between a fast and a slow state every few seconds, in shares
    that differ from run to run; a ratio of sums measured at the same
    moments cancels that share, where a median or a fastest pass would jump
    between the two states.
    """
    refs = [seconds for _, seconds in log[0::2]]
    spent = ref = 0.0
    for k, (name, seconds) in enumerate(log[1::2]):  # pass k lies between refs[k] and refs[k + 1]
        if name == phase:
            spent += seconds
            ref += statistics.median(refs[max(0, k + 1 - REF_WINDOW):k + 1 + REF_WINDOW])
    return REF_S * spent / ref


def plain_run(wl, seed: int, seconds: float, work: Path):
    """`SETUP_REPS` rounds, each a set-up followed by learn + eval passes for
    an equal share of `seconds`, so that set-ups sample the whole run.

    Learn passes repeat until they have taken as long as the last eval pass,
    so a short learn phase gets as many samples as it needs. A reference
    pass runs before the first pass and after every pass, and each phase
    reports its `scaled_mean` pass time.
    """
    fault_free = W.fault_free_library(wl, seed)
    start = time.perf_counter()
    library_dir, report_path = work / "library", work / "report.json"
    log = [("reference", reference_pass())]

    def timed_pass(phase, fn, *args):
        result, dt = timed(fn, *args)
        log.extend([(phase, dt), ("reference", reference_pass())])
        return result, dt

    outputs = set()
    for round_no in range(1, SETUP_REPS + 1):
        seeded = None  # release the previous cache before recording the next
        seeded, _ = timed_pass("setup", W.seed, wl, seed, fresh(work / "seed"))
        passes, last_eval = 0, 0.0
        while passes < 1 or time.perf_counter() < start + seconds * round_no / SETUP_REPS:
            spent = 0.0
            while spent <= last_eval:
                fresh(library_dir)
                (lib, syn_report), dt = timed_pass("learn", W.learn, seeded, library_dir)
                spent += dt
                outputs.add(("library", W.library_digest(library_dir)))
            report, last_eval = timed_pass("eval", W.evaluate, seeded, library_dir, report_path)
            passes += 1
            outputs.add(("report", W.file_digest(report_path)))
            if round_no == passes == 1:
                accuracy, attempted, failed = gate(seeded, lib, syn_report, report, fault_free)
    check(len(outputs) == 2, f"passes produced different outputs: {sorted(outputs)}")
    (work / "passes.json").write_text(json.dumps(log) + "\n", encoding="utf-8")
    metrics = {
        "setup_s": scaled_mean(log, "setup"),
        "learn_s": scaled_mean(log, "learn"),
        "eval_inst_per_s": wl.n_test / scaled_mean(log, "eval"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "replay_cache_mb": seeded.cache_path.stat().st_size / 1e6,
        "accuracy": accuracy,
        "ok_ratio": (attempted - failed) / attempted,
    }
    notes = []
    for phase in ("setup", "learn", "eval", "reference"):
        xs = [t for name, t in log if name == phase]
        notes.append(f"{phase}: {len(xs)} passes, unscaled mean {statistics.fmean(xs):.4f} s, "
                     f"median {statistics.median(xs):.4f} s, min {min(xs):.4f} s")
    notes.append("outputs: " + " ".join(f"{kind} {digest}" for kind, digest in sorted(outputs)))
    return metrics, attempted, failed, notes


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def cycle(wl, seed: int, work: Path, rec, fault_free):
    """One seed → learn → eval cycle; traced when `rec` is a SpanRecorder."""
    seed_dir, library_dir, report_path = fresh(work / "seed"), fresh(work / "library"), work / "report.json"
    phase = rec.phase if rec is not None else (lambda name: contextlib.nullcontext())
    tracing = (
        spans.traced(rec, [(FaultyResponder, "__call__", "replay_seed.responder")])
        if rec is not None
        else contextlib.nullcontext()
    )
    gc.collect()
    start = time.perf_counter()
    with tracing:
        with phase("setup"):
            seeded = W.seed(wl, seed, seed_dir)
        with phase("learn"):
            lib, syn_report = W.learn(seeded, library_dir)
        with phase("eval"):
            report = W.evaluate(seeded, library_dir, report_path)
    wall = time.perf_counter() - start
    gated = gate(seeded, lib, syn_report, report, fault_free)
    digests = (W.library_digest(library_dir), W.file_digest(report_path))
    return wall, digests, gated, seeded, syn_report


def layer_values(rec, syn_report) -> dict[str, float]:
    """Per-layer values of one traced cycle: totals, and per phase under a
    ``<phase>.`` prefix."""
    values: dict[str, float] = {}

    def add(name, phase, value):
        values[name] = values.get(name, 0) + value
        values[f"{phase}.{name}"] = values.get(f"{phase}.{name}", 0) + value

    for (phase, name), (calls, self_s) in rec.aggregate().items():
        if name not in PHASES:
            add(f"{name}.calls", phase, calls)
            add(f"{name}.self_s", phase, self_s)
    for (phase, name), n in rec.events.items():
        add(name, phase, n)
    outcomes = [o for outs in syn_report.outcomes.values() for o in outs]
    cases = [c for o in outcomes for c in o.per_case]
    values["synthesis.cases_run"] = len(cases)
    values["synthesis.case_pass_ratio"] = sum(c.passed for c in cases) / len(cases)
    values["synthesis.candidates_scored"] = len(outcomes)
    values["synthesis.candidate_accept_ratio"] = len(syn_report.accepted) / len(outcomes)
    values["synthesis.repair_rounds"] = sum(1 for o in outcomes if o.repair_round > 0)
    return values


def coverage(wl, seeded, syn_report, values: dict, declared: list[str]) -> None:
    """Compare span counts with counts known from outside the program, so a
    missed rebinding fails the run instead of reading as a zero.

    Every declared span or event metric must be recorded at least once in
    the cycle unless the workload lists its layer as idle, an idle layer
    must see no call, and the layers the workload is meant to move must.
    """
    n_programs = sum(1 for i in seeded.test if not W.is_split_puzzle(i))
    candidates = sum(len(outs) for outs in syn_report.outcomes.values())
    expected = {
        "eval.gateway.complete.calls": n_programs,
        "eval.dsl.parse_program.calls": n_programs,
        "eval.executor.execute_program.calls": n_programs,
        "eval.evaluate.solve_puzzle_with_modules.calls": wl.n_test - n_programs,
        "eval.evaluate.evaluate.calls": 1,
        "eval.registry.load_library.calls": 1,
        "eval.datasets.load_dataset.calls": 1,
        "eval.sandbox.invoke_candidate.calls": values.get("eval.registry.invoke_generated.calls", 0),
        "learn.datasets.load_dataset.calls": 1,
        "learn.synthesis.initialize_modules.calls": 1,
        "learn.gateway.complete.calls": wl.n_train + candidates,
        "learn.synthesis.compute_pass_rate.calls": candidates,
        "learn.registry.save_library.calls": 1,
        "setup.datasets.generate_dataset.calls": 2,
        "setup.gateway.cache_load.calls": 2,
        "setup.gateway.complete_record.calls": seeded.responder.calls,
        "setup.replay_seed.responder.calls": seeded.responder.calls,
    }
    wrong = {k: (values.get(k, 0), v) for k, v in expected.items() if values.get(k, 0) != v}
    check(not wrong, f"span counts differ from known counts (seen, expected): {wrong}")
    idle = ("gateway.cache_miss", *wl.idle)

    def is_idle(name):
        return any(name == layer or name.startswith(layer + ".") for layer in idle)

    called = sorted(k for k, v in values.items() if v and is_idle(k))
    check(not called, f"layers that must stay idle were called: {called}")
    missing = sorted(m for m in declared if m not in values and not is_idle(m) and m != "trace.overhead_ratio")
    check(not missing, f"declared layers saw no call: {missing}")
    uncalled = sorted(k for k in wl.busy if not values.get(k))
    check(not uncalled, f"layers this workload must move saw no call: {uncalled}")


def traced_run(wl, seed: int, seconds: float, work: Path, declared):
    fault_free = W.fault_free_library(wl, seed)
    deadline = time.perf_counter() + seconds
    untraced_walls, traced_walls, cycles, outputs, recorders = [], [], [], set(), []
    while len(traced_walls) < MIN_TRACED_CYCLES or time.perf_counter() < deadline:
        wall, digests, gated, _, _ = cycle(wl, seed, work, None, fault_free)
        untraced_walls.append(wall)
        outputs.add(digests)
        rec = spans.SpanRecorder()
        wall, digests, gated, seeded, syn_report = cycle(wl, seed, work, rec, fault_free)
        traced_walls.append(wall)
        outputs.add(digests)
        values = layer_values(rec, syn_report)
        coverage(wl, seeded, syn_report, values, [m["name"] for m in declared])
        cycles.append(values)
        recorders.append(rec)
    check(len(outputs) == 1, f"traced and untraced cycles produced {len(outputs)} different outputs")
    counts = [{k: v for k, v in c.items() if not k.endswith("self_s")} for c in cycles]
    check(all(c == counts[0] for c in counts), "per-layer counts differ between traced cycles")
    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for i, rec in enumerate(recorders):
            rec.write(fh, i)
    metrics = {  # counts repeat exactly; times are medians over the traced cycles
        m["name"]: counts[0].get(m["name"], 0) if m["unit"] == "count"
        else statistics.median(c.get(m["name"], 0) for c in cycles)
        for m in declared
        if m["name"] != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = min(traced_walls) / min(untraced_walls)
    _, attempted, failed = gated
    counts_digest = hashlib.sha256(json.dumps(counts[0], sort_keys=True).encode("utf-8")).hexdigest()
    notes = [
        f"cycles: {len(untraced_walls)} untraced, {len(traced_walls)} traced",
        "outputs: library %s report %s" % next(iter(outputs)),
        f"counts: {counts_digest[:16]}",
        f"spans: {sum(len(r.spans) for r in recorders)} written to {work / 'spans.jsonl'}",
    ]
    return metrics, attempted, failed, notes
