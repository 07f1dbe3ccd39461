"""Replay-mode benchmark of modgrow: seed → learn → eval on one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload vqa-eval --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the run sets up three times, spread over ``--seconds``,
and repeats replay learn and eval passes in between, with a reference pass
before and after each pass. It reports each phase's mean pass time, scaled
by the reference passes around it, as the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` it alternates untraced and traced
seed → learn → eval cycles and reports the per-layer metrics, the tracing
overhead among them. Every run checks the program's outputs first; a run
that fails a check prints why on stderr, reports no metric and exits 1. The
last line of standard output is one JSON object.

Everything runs in this process, one call at a time, with no extra threads.
Run each workload in its own process: peak RSS cannot be reset.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


def run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    status = 0
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload['name']}", flush=True)
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source, spec_path = ROOT / "src" / "modgrow", ROOT / "BENCHMARK.json"
    if not source.is_dir() or not spec_path.is_file():
        print(f"error: {source} or {spec_path} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    from modgrow.errors import ModgrowError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    work = measure.fresh(WORK / wl.name)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            metrics, attempted, failed, notes = measure.traced_run(wl, args.seed, args.seconds, work, declared)
        else:
            metrics, attempted, failed, notes = measure.plain_run(wl, args.seed, args.seconds, work)
    except (measure.GateFailure, ModgrowError) as exc:
        print(f"error: {wl.name} seed {args.seed}: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work / "seed", ignore_errors=True)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    for line in notes:
        print(line)
    out = {}
    for m in declared:
        value = metrics[m["name"]]
        print(f"{m['name']:44s} {value:>16.6f} {m['unit']}" if isinstance(value, float)
              else f"{m['name']:44s} {value:>16d} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
