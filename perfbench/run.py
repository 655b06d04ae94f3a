#!/usr/bin/env python3
"""The edgesep benchmark: how fast users get certified artifacts, and at what cost.

Run from the repository root:

    python3 perfbench/run.py --workload deep-path --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--workload all`` runs every workload, one after another, each in its own
fresh process.  One client runs jobs in a closed loop: the next job starts
when the previous one ends.  A run repeats whole passes over the workload's
instances, in an order drawn from the seed, for about ``--seconds``.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` spends half the time untraced and half traced, and prints the
per-layer metrics, the trace overhead and the benchmark's self-checks.  The
last line of stdout is the result: one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import NoReturn, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: job latency percentile reported as job_tail_s.  The run makes enough
#: passes for at least ten samples beyond it, and it stays fixed so that a
#: faster program, which fits more passes, is compared on the same percentile.
TAIL_PCT = 75
SETUP_RUNS = 9
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import edgesep.cli; "
                "print(time.perf_counter() - t)")


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_workloads():
    """Import the benchmark's workloads against the edgesep in ``src/``."""
    if not (SRC / "edgesep" / "cli.py").is_file():
        fail(f"no edgesep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import edgesep
    if Path(edgesep.__file__).resolve().parent != SRC / "edgesep":
        fail(f"imported edgesep from {edgesep.__file__}, not from {SRC}")
    import workloads
    return workloads


# ------------------------------------------------------------------ running

def measure(workload, instances, rng, budget, min_passes, *, digests,
            tracer=None):
    """Whole passes until another one would overrun ``budget`` seconds."""
    jobs, passes = [], 0
    start = perf_counter()
    while passes < min_passes or (perf_counter() - start) * (passes + 1) / passes <= budget:
        if tracer is not None:
            tracer.begin_pass()
        for inst in rng.sample(instances, len(instances)):
            jobs.append(workload.run(inst, passes, digests, tracer))
        passes += 1
    return jobs, passes


def measure_setup() -> list:
    """Seconds a fresh interpreter takes to import edgesep.cli, several times."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return times[1:]        # the first import may compile bytecode


# ------------------------------------------------------------------ metrics

def pass_edges_per_s(jobs) -> list:
    """Per pass: input edges of its successful jobs / its summed job time."""
    edges, seconds = {}, {}
    for j in jobs:
        edges[j.pass_no] = edges.get(j.pass_no, 0) + (j.m if j.failure is None else 0)
        seconds[j.pass_no] = seconds.get(j.pass_no, 0.0) + j.seconds
    return [edges[p] / seconds[p] if seconds[p] else 0.0 for p in sorted(edges)]


def edges_per_s(jobs) -> float:
    """Median over passes, so one pass slowed by something else counts once."""
    return statistics.median(pass_edges_per_s(jobs))


def m_exponent(jobs):
    """Least-squares slope of log(median job time per instance) against log m.

    Instances that end in a certificate are left out: their jobs do other work.
    """
    groups: dict = {}
    for j in jobs:
        if j.failure is None and not j.minor_rich:
            groups.setdefault(j.key, (j.m, []))[1].append(j.seconds)
    points = {key: (m, statistics.median(ts)) for key, (m, ts) in groups.items()}
    if len(points) < 2:
        return 0.0, points
    fit = statistics.linear_regression([math.log(m) for m, _ in points.values()],
                                       [math.log(t) for _, t in points.values()])
    return fit.slope, points


def end_to_end(jobs, setup_times) -> tuple:
    times = [j.seconds for j in jobs]
    tail = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PCT - 1]
    slope, points = m_exponent(jobs)
    ratios = [r for j in jobs for r in j.ratios]
    metrics = {
        "edges_per_s": edges_per_s(jobs),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "m_exponent": slope,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
        "sep_to_ref_bound": statistics.median(ratios) if ratios else 0.0,
    }
    details = {
        "metric_samples": {
            "edges_per_s": len(pass_edges_per_s(jobs)), "job_p50_s": len(times),
            "job_tail_s": len(times), "m_exponent": len(points), "peak_rss_mb": 1,
            "setup_s": len(setup_times), "sep_to_ref_bound": len(ratios)},
        "tail_percentile": TAIL_PCT,
        "samples_beyond_tail": sum(1 for t in times if t > tail),
        "pass_edges_per_s": pass_edges_per_s(jobs),
        "exponent_points": {k: {"m": m, "median_s": t} for k, (m, t) in sorted(points.items())},
        "setup_samples_s": setup_times,
    }
    return metrics, details


def per_layer(spec, tracer, untraced, traced) -> dict:
    totals = [tracer.pass_totals(i) for i in range(len(tracer.passes))]
    bench = {"bench.edges_per_s.untraced": edges_per_s(untraced),
             "bench.edges_per_s.traced": edges_per_s(traced)}
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name in bench:
            metrics[name] = bench[name]
        elif name.endswith(".self_s"):      # wall time: median over traced passes
            metrics[name] = statistics.median(tracer.value(t, name) for t in totals)
        else:                               # deterministic: the first pass
            metrics[name] = tracer.value(totals[0], name)
    return metrics


# ------------------------------------------------------------------ report

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "edgesep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> Optional[str]:
    """HEAD of the repository, when the checkout is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit(),
            "source_sha256": source_digest(), "seed": seed}


def emit(name, metrics, units, report, jobs, extra_ok=True) -> None:
    failed = sum(1 for j in jobs if j.failure is not None)
    samples = report.get("metric_samples", {})
    for metric, value in metrics.items():
        n = f"n={samples[metric]}" if metric in samples else ""
        print(f"{name:17s} {metric:48s} {value:14.6g} {units[metric]:8s} {n}")
    # always 0 at a sound commit, so it is carried by attempted/failed, not metrics
    print(f"{name:17s} {'fail_rate':48s} {failed / len(jobs):14.6g} {'ratio':8s} "
          f"n={len(jobs)}")
    report["attempted"], report["failed"] = len(jobs), failed
    report["fail_rate"] = failed / len(jobs)
    report["failures"] = sorted({f"{j.key}: {j.failure}" for j in jobs if j.failure})[:10]
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and extra_ok,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


# ------------------------------------------------------------------ main

def run_workload(spec, name, seed, seconds, trace) -> None:
    wl = import_workloads()
    if set(wl.WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        fail("workloads in BENCHMARK.json and perfbench/workloads.py differ")
    workload = wl.WORKLOADS[name]
    setup_times = None if trace else measure_setup()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        instances = workload.instances(seed, Path(tmp))
        digests: dict = {}
        # warm-up: lazy imports and first-call costs, on the smallest instances
        for minor_rich in (False, True):
            sized = [i for i in instances if i.minor_rich == minor_rich]
            if sized:
                workload.run(min(sized, key=lambda i: i.m), -1, digests)
        sweep = partial(measure, workload, instances, random.Random(seed),
                        digests=digests)
        report = {"workload": name, "trace": trace, "env": environment(seed),
                  "jobs_per_pass": len(instances), "seconds": seconds}
        if trace:
            traced_run(spec, workload, sweep, seconds, report)
            return
        min_passes = math.ceil(10 / ((1 - TAIL_PCT / 100) * len(instances)))
        jobs, passes = sweep(seconds, min_passes)
    metrics, details = end_to_end(jobs, setup_times)
    report.update(details, passes=passes, samples=len(jobs))
    units = {e["name"]: e["unit"] for e in spec["end_to_end"]}
    emit(name, {k: metrics[k] for k in units}, units, report, jobs)


def traced_run(spec, workload, sweep, seconds, report) -> None:
    """Half the time untraced, half traced; prints the per-layer metrics."""
    from tracing import Tracer
    tracer = Tracer(e["name"].rsplit(".", 1)[0] for e in spec["per_layer"]
                    if not e["name"].startswith("bench."))
    untraced, _ = sweep(seconds / 2, 1)
    tracer.install()
    try:
        traced, passes = sweep(seconds / 2, 2, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer(spec, tracer, untraced, traced)
    checks = {target: "missing" if target.rsplit(".", 1)[0] in tracer.missing
              else metrics[target] for target in workload.target_layers}
    drifting = tracer.nondeterministic_jobs()
    spans_file = WORK / f"spans-{workload.name}.jsonl"
    tracer.write_spans(spans_file)
    report.update(
        passes=passes, samples=len(untraced) + len(traced),
        trace_overhead={
            "untraced_edges_per_s": metrics.get("bench.edges_per_s.untraced"),
            "traced_edges_per_s": metrics.get("bench.edges_per_s.traced"),
        },
        missing=tracer.missing, unmeasured_counters=sorted(tracer.broken),
        self_checks=checks, nondeterministic_jobs=drifting,
        job_counters=tracer.passes[0]["counts"],
        spans=sum(1 for s in tracer.spans if s is not None),
        spans_file=str(spans_file.relative_to(ROOT)))
    units = {e["name"]: e["unit"] for e in spec["per_layer"]}
    checks_ok = all(v == "missing" or v > 0 for v in checks.values())
    emit(workload.name, metrics, units, report, untraced + traced,
         extra_ok=checks_ok and not drifting)


def run_all(spec, args) -> None:
    """Each workload in its own fresh process, one at a time."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {w['name']} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"][w["name"]] = result["metrics"]
    print(json.dumps(summary))


def main(argv=None) -> None:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        run_all(spec, args)
    else:
        run_workload(spec, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
