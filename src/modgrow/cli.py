"""Operator entry points: learn, eval, run, library, cache.

Only `cache seed` takes a task, because it generates the splits. `learn`
and `eval` read it from the instances of their split: a learned module
records the tasks of its test cases, and `eval` refuses a split that is
empty, mixes tasks or names an unknown one. Only the commands that grow a
library take η, K and R: `cache seed`, `learn` and `eval --ablation`. Plain
`eval` refuses them, and `--train-dataset`, which only an ablation reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import values as V
from .backends import SyntheticBackend
from .cache import read_records, whole_request
from .errors import ModgrowError
from .executor import Environment, run_program, trace_to_jsonl
from .gateway import LlmGateway, doc_key
from .harness import datasets as ds
from .harness.evaluate import evaluate, run_ablation
from .registry import ExecutionRegistry, builtin_library, load_library, save_library
from .replay_seed import seed_learn_and_eval
from .sandbox import DEFAULT_WALL_TIME_MS, Limits
from .scene import ImageHandle, load_scene
from .synthesis import DEFAULT_MODEL_ID, SynthesisConfig, run_synthesis


def _gateway_from_args(args) -> LlmGateway:
    cache = args.cache
    if args.mode == "replay":
        if not cache or not os.path.exists(cache):
            raise ModgrowError(f"replay mode requires an existing cache file (got {cache!r})")
    if args.mode == "record":
        if not os.environ.get("LLM_API_URL") or not os.environ.get("LLM_API_KEY"):
            raise ModgrowError("record mode requires LLM_API_URL and LLM_API_KEY")
    return LlmGateway(mode=args.mode, cache_path=cache)


# options that set a SynthesisConfig field for `cache seed`, `learn` and
# `eval --ablation`, the commands that grow a library; one left out keeps the
# field's default
SYNTHESIS_FIELDS = {"eta": "eta", "k": "k_candidates", "repairs": "r_repairs"}


def _given_fields(args) -> dict:
    return {field: getattr(args, name) for name, field in SYNTHESIS_FIELDS.items()
            if getattr(args, name) is not None}


def _config_from_args(args) -> SynthesisConfig:
    return SynthesisConfig(
        **_given_fields(args), limits=Limits(wall_time_ms=args.wall_time_ms), model_id=args.model
    )


def cmd_learn(args) -> int:
    try:
        cfg = _config_from_args(args)
        gateway = _gateway_from_args(args)
        lib = load_library(args.library) if args.library else builtin_library()
        train = ds.load_dataset(args.dataset)
    except (ModgrowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        with gateway:
            lib_after, report = run_synthesis(train, lib, gateway, SyntheticBackend(), cfg)
    except ModgrowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name in report.accepted:
        rec = lib_after.records[name]
        print(f"accepted {name}  pass_rate={rec.pass_rate:.2f}  eta={rec.eta_at_acceptance:.2f}")
    for failure in report.failed:
        print(f"rejected {failure.name}  ({failure.reason})")
    for example_id, message in report.init_errors:
        print(f"warning: {example_id}: {message}", file=sys.stderr)
    if not report.proposals:
        print("0 proposals: the current library already covers the training split")

    save_library(lib_after, args.out)
    print(f"library saved to {args.out} ({len(lib_after)} modules)")
    if report.proposals and not report.accepted:
        return 1
    return 0


def _write_report(report, out_dir: str) -> None:
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    (root / "report.json").write_text(report.to_json(), encoding="utf-8")
    (root / "report.txt").write_text(report.render_table() + "\n", encoding="utf-8")


def cmd_eval(args) -> int:
    if not args.ablation:
        # plain eval grows nothing, so it has no use for these
        given = [f"--{name}" for name in SYNTHESIS_FIELDS if getattr(args, name) is not None]
        given += ["--train-dataset"] if args.train_dataset is not None else []
        if given:
            print(f"error: {', '.join(given)} only apply with --ablation", file=sys.stderr)
            return 2
    try:
        gateway = _gateway_from_args(args)
        lib = load_library(args.library) if args.library else builtin_library()
        dataset = ds.load_dataset(args.dataset)
        task = ds.split_task(dataset)
    except (ModgrowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    backend = SyntheticBackend()

    if args.ablation:
        try:
            doc = json.loads(Path(args.ablation).read_text(encoding="utf-8"))
            grid = doc.get("cells") if isinstance(doc, dict) else None
            if not isinstance(grid, list):
                raise ValueError('an ablation grid is an object whose "cells" is a list')
            train = ds.load_dataset(args.train_dataset) if args.train_dataset else []
            cfg = _config_from_args(args)
            with gateway:
                report = run_ablation(
                    grid, train, dataset, lib, gateway, backend, cfg, task=task
                )
        except (ModgrowError, OSError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.render_table())
        if args.report:
            root = Path(args.report)
            root.mkdir(parents=True, exist_ok=True)
            (root / "ablation.json").write_text(
                json.dumps(report.to_doc(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
            (root / "ablation.txt").write_text(report.render_table() + "\n", encoding="utf-8")
        return 0

    with gateway:
        report = evaluate(
            task, dataset, lib, backend, gateway, model_id=args.model,
            limits=Limits(wall_time_ms=args.wall_time_ms),
        )
    print(report.render_table())
    if args.report:
        _write_report(report, args.report)
        print(f"report written to {args.report}")
    return 0


def cmd_run(args) -> int:
    source = args.program
    if os.path.exists(source):
        source = Path(source).read_text(encoding="utf-8")
    try:
        lib = load_library(args.library) if args.library else builtin_library()
        scene = load_scene(Path(args.scene).read_text(encoding="utf-8"))
    except (ModgrowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    bindings = {"IMAGE": V.image(ImageHandle.of_scene(scene))}
    for name, given in (("QUESTION", args.question), ("EXPRESSION", args.expression),
                        ("INSTRUCTION", args.instruction)):
        if given is not None:
            bindings[name] = V.text(given)
    result = run_program(source, Environment(bindings), ExecutionRegistry(lib), SyntheticBackend())
    if result.diagnostics:
        if args.trace:  # nothing ran, so no trace of an earlier run may stay
            Path(args.trace).unlink(missing_ok=True)
        for diag in result.diagnostics:
            print(f"line {diag.line_no}: {diag.code}: {diag.message}", file=sys.stderr)
        return 1
    if args.trace:
        Path(args.trace).write_text(trace_to_jsonl(result.trace) + "\n", encoding="utf-8")
    if result.error is not None:
        print(f"line {result.line_no}: RUNTIME_ERROR: {result.error.render()}", file=sys.stderr)
        return 1
    print(V.summarize(result.final))
    return 0


def cmd_library(args) -> int:
    try:
        lib = load_library(args.library)
    except ModgrowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in lib.manifest:
        rec = lib.records[name]
        print(f"{name:24s} {rec.kind:9s} pass_rate={rec.pass_rate:.2f} v{rec.version}")
    return 0


def cmd_cache_seed(args) -> int:
    """Generate seeded datasets and record the matching completion cache."""
    knobs = {"templates": args.templates.split(",")} if args.templates else None
    try:
        cfg = SynthesisConfig(**_given_fields(args))
        lib = load_library(args.library) if args.library else builtin_library()
        train = ds.generate_dataset(args.task, seed=args.seed, n=args.n_train, knobs=knobs)
        test = ds.generate_dataset(args.task, seed=args.seed + 1, n=args.n_test, knobs=knobs)
    except (ModgrowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ds.save_dataset(train, args.train_out)
    ds.save_dataset(test, args.test_out)
    if os.path.exists(args.cache):
        os.unlink(args.cache)
    try:
        seed_learn_and_eval(train, test, lib, SyntheticBackend(), cfg, args.cache)
    except (LookupError, ModgrowError) as exc:
        Path(args.cache).unlink(missing_ok=True)  # a partial cache replays misses as zeros
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.train_out} ({len(train)}), {args.test_out} ({len(test)}), cache {args.cache}")
    return 0


def _first_fault(records) -> str | None:
    """Where the first record lies whose head is missing or altered, or
    whose rebuilt request does not hash to its key; None if none does."""
    heads: dict[str, str] = {}
    for number, record in records:
        if "head" in record:
            if hashlib.sha256(record["head"].encode("utf-8")).hexdigest() != record.get("head_sha256"):
                return f"line {number}: head text does not match its hash"
            heads[record["head_sha256"]] = record["head"]
            continue
        if "request" not in record:
            return f"line {number}: key {record['key'][:12]}… has no request"
        try:
            request = whole_request(record, heads)
        except KeyError:
            return f"line {number}: head {record['head_sha256'][:12]}… is missing"
        if doc_key(request) != record["key"]:
            return f"line {number}: key {record['key'][:12]}… does not match its request"
    return None


def cmd_cache_show(args) -> int:
    try:
        records = list(read_records(args.cache))
        calls = [record["key"] for _, record in records if "head" not in record]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    heads = len(records) - len(calls)
    print(f"{len(calls)} records under {len(set(calls))} distinct keys, {heads} head records")
    if args.verify:
        fault = _first_fault(records)
        if fault:
            print(f"error: {args.cache}: {fault}", file=sys.stderr)
            return 1
        print("every key matches its rebuilt request")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modgrow")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_synthesis(p):  # the options of SYNTHESIS_FIELDS
        p.add_argument("--eta", type=float, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--repairs", type=int, default=None)

    def add_common(p):
        p.add_argument("--mode", choices=["replay", "record"], default="replay")
        p.add_argument("--cache", default=None)
        p.add_argument("--model", default=DEFAULT_MODEL_ID)
        add_synthesis(p)
        p.add_argument("--wall-time-ms", type=int, default=DEFAULT_WALL_TIME_MS)

    learn = sub.add_parser("learn", help="grow a library from a training split")
    add_common(learn)
    learn.add_argument("--dataset", required=True)
    learn.add_argument("--library", default=None)
    learn.add_argument("--out", required=True)
    learn.set_defaults(func=cmd_learn)

    evalp = sub.add_parser("eval", help="evaluate a library on a test split")
    add_common(evalp)
    evalp.add_argument("--dataset", required=True)
    evalp.add_argument("--library", default=None)
    evalp.add_argument("--report", default=None)
    evalp.add_argument("--ablation", default=None, help="grid JSON file")
    evalp.add_argument("--train-dataset", default=None)
    evalp.set_defaults(func=cmd_eval)

    runp = sub.add_parser("run", help="run one program over a scene")
    runp.add_argument("--program", required=True, help="program file or inline text")
    runp.add_argument("--scene", required=True)
    runp.add_argument("--library", default=None)
    runp.add_argument("--question", default=None)
    runp.add_argument("--expression", default=None)
    runp.add_argument("--instruction", default=None)
    runp.add_argument("--trace", default=None)
    runp.set_defaults(func=cmd_run)

    libp = sub.add_parser("library", help="inspect a library directory")
    libp.add_argument("--library", required=True)
    libp.set_defaults(func=cmd_library)

    cachep = sub.add_parser("cache", help="manage replay caches")
    cache_sub = cachep.add_subparsers(dest="cache_command", required=True)
    seedp = cache_sub.add_parser("seed", help="generate datasets and record their cache")
    seedp.add_argument("--task", choices=sorted(ds.TASKS), default="vqa")
    seedp.add_argument("--seed", type=int, default=7)
    seedp.add_argument("--n-train", type=int, default=48)
    seedp.add_argument("--n-test", type=int, default=20)
    seedp.add_argument("--templates", default=None, help="comma-separated template names")
    seedp.add_argument("--library", default=None)
    seedp.add_argument("--train-out", required=True)
    seedp.add_argument("--test-out", required=True)
    seedp.add_argument("--cache", required=True)
    add_synthesis(seedp)
    seedp.set_defaults(func=cmd_cache_seed)
    showp = cache_sub.add_parser("show", help="summarize a cache file")
    showp.add_argument("--cache", required=True)
    showp.add_argument("--verify", action="store_true",
                       help="rebuild each request from its head and check its key")
    showp.set_defaults(func=cmd_cache_show)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
