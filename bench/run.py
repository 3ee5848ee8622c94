"""Benchmark of the rowsync package: timed workloads and a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload probe --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The package is imported from the checkout's `src/` and driven in-process
through `rowsync.cli.run` / `rowsync.cli.render` and `rowsync.suites`.  Every
time is calibrated against a reference kernel sampled while it is measured
(see calibrate.py), so that it does not follow the speed of a shared host.  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones, measured with no tracing; with `--trace 1` they are the per-layer ones
from one traced pass.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
from calibrate import REFERENCE_MS, Speed
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_MODULES = ("automaton", "rowmon", "exactlin", "equation", "probe", "suites", "cli")
SETUP_REPEATS = 15
MIN_PASSES = 2


def import_package() -> SimpleNamespace:
    """Import rowsync afresh from the checkout's sources."""
    for name in [m for m in sys.modules if m == "rowsync" or m.startswith("rowsync.")]:
        del sys.modules[name]
    package = importlib.import_module("rowsync")
    origin = Path(package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"rowsync was imported from {origin}, not from {SRC}")
    mods = {name: importlib.import_module(f"rowsync.{name}") for name in PACKAGE_MODULES}
    return SimpleNamespace(package=package, **mods)


def set_up(workload: str, seed: int, workdir: Path, speed: Speed):
    """Import the package and generate, write and read the inputs, several times.

    Returns the median set-up time, at reference speed, and the modules and
    workload of the last repeat, which the timed passes use.
    """
    spans = []
    with speed:
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            mods = import_package()
            work = WORKLOADS[workload](mods, seed, workdir)
            spans.append((start, perf_counter()))
    return statistics.median(speed.calibrate(*span) for span in spans), mods, work


def jobs_agree(cli) -> bool:
    """enum 4 2 gives a byte-identical report under --jobs 2 and --jobs 1."""
    reports = []
    for jobs in (1, 2):
        config = cli.RunConfig(command="enum", n=4, k=2, jobs=jobs, json_output=True)
        reports.append(json.dumps(cli.run(config).document["report"], indent=2))
    return reports[0] == reports[1]


def run_pass(work, speed: Speed):
    """Every operation once: (op seconds at reference speed, digests, outputs, failures)."""
    gc.collect()
    spans, digests, outputs, failures = [], [], [], 0
    for op in work.ops:
        start = perf_counter()
        try:
            output = op.call()
        except Exception:  # a raising operation counts as failed; the run goes on
            spans.append((start, perf_counter()))
            print(f"bench: {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            digests.append(None)
            outputs.append(None)
            failures += 1
            continue
        spans.append((start, perf_counter()))
        outputs.append(output)
        try:
            digests.append(op.verify(output))
        except (CheckFailed, LookupError, TypeError, ValueError) as exc:  # wrong or malformed output
            print(f"bench: {op.name} failed its check: {exc!r}", file=sys.stderr)
            digests.append(None)
            failures += 1
    return [speed.calibrate(*span) for span in spans], digests, outputs, failures


def timed_run(work, speed: Speed, seconds: float) -> dict:
    """Passes up to the pass boundary nearest to `seconds`; at least MIN_PASSES."""
    passes, walls = [], []
    failed = 0
    deterministic = True
    previous = None
    with speed:
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            op_seconds, digests, _, failures = run_pass(work, speed)
            walls.append(perf_counter() - pass_start)
            passes.append(op_seconds)
            failed += failures
            deterministic = deterministic and (previous is None or digests == previous)
            previous = digests
            elapsed = perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed + statistics.median(walls) / 2 > seconds:
                break
    per_op = [statistics.median(p[i] for p in passes) for i in range(len(work.ops))]
    return {
        "passes": len(passes),
        "attempted": len(passes) * len(work.ops),
        "failed": failed,
        "deterministic": deterministic,
        "items_per_s": statistics.median(work.items_per_pass / sum(p) for p in passes),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_max_ms": statistics.median(max(p) for p in passes) * 1e3,
    }


def traced_run(work, mods, speed: Speed, seconds: float, span_file: Path) -> dict:
    """Untraced passes for half the time, then one traced pass.

    Tracing must not change any output, so every pass, the traced one too,
    has to give the digests of the first.
    """
    untraced, digest_sets = [], []
    failed = attempted = 0
    with speed:
        start = perf_counter()
        while not untraced or perf_counter() - start < seconds / 2:
            op_seconds, digests, _, failures = run_pass(work, speed)
            untraced.append(sum(op_seconds))
            digest_sets.append(digests)
            attempted += len(work.ops)
            failed += failures
        tracer = tracing.Tracer()
        patches = tracing.install(tracer, [mods.package] + [getattr(mods, m) for m in PACKAGE_MODULES])
        try:
            op_seconds, digests, outputs, failures = run_pass(work, speed)
        finally:
            tracing.uninstall(patches)
    digest_sets.append(digests)
    attempted += len(work.ops)
    failed += failures
    tracer.write(span_file)
    suite_checks, matched, offered, rendered = {}, 0, 0, 0
    for op, output in zip(work.ops, outputs):
        if output is None:
            continue
        if op.kind == "suite":
            suite_checks[op.name] = json.loads(output)["checks"]
            continue
        rendered += len(output[1].encode("utf-8"))
        if op.kind == "probe":
            matching = json.loads(output[1])["report"]["matching"]
            matched += matching["matched"]
            offered += matching["prefix_count"]
    overhead = sum(op_seconds) / statistics.median(untraced)
    return {"attempted": attempted, "failed": failed,
            "deterministic": all(d == digest_sets[0] for d in digest_sets),
            "metrics": tracing.layer_metrics(tracer, suite_checks, matched, offered, rendered, overhead)}


def run_workload(args) -> int:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        speed = Speed()
        setup_s, mods, work = set_up(args.workload, args.seed, workdir, speed)
        jobs_ok = jobs_agree(mods.cli)
        if args.trace:
            span_file = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv"
            result = traced_run(work, mods, speed, args.seconds, span_file)
            metrics = result["metrics"]
            print(f"spans written to {span_file.relative_to(ROOT)}")
        else:
            result = timed_run(work, speed, args.seconds)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "items_per_s": {"value": result["items_per_s"], "unit": "1/s"},
                "op_p50_ms": {"value": result["op_p50_ms"], "unit": "ms"},
                "op_max_ms": {"value": result["op_max_ms"], "unit": "ms"},
                "ok_ratio": {"value": 1 - result["failed"] / result["attempted"], "unit": "ratio"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
                "determinism_ok": {"value": 1 if result["deterministic"] and jobs_ok else 0,
                                   "unit": "flag"},
            }
            print(f"{args.workload}: {result['passes']} passes of {len(work.ops)} operations")
        print(f"{args.workload}: reference kernel median {speed.median_ms():.3f} ms over "
              f"{len(speed.seconds)} samples; times are scaled to {REFERENCE_MS} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"{args.workload:>7}  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    correct = result["failed"] == 0 and jobs_ok and result["deterministic"] and not speed.wrong
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rowsync" / "__init__.py").is_file():
        print(f"bench: no rowsync sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
