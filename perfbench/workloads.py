"""Workloads of the edgesep benchmark.

A *job* is one user task on one generated instance, from the first command to
the last output checked.  Every command is an in-process call of
``edgesep.cli.main([...])``, exactly what a user types, with stdout captured
in memory: artifacts go back to ``verify`` on stdin, and no job writes a file
(a truncating write on a disk-backed file system costs more than many whole
commands and spreads the timings).  Job time is the sum of the CLI calls; the
benchmark's own checks run outside it.

Every job must pass these checks, or it counts as failed:
  * each command returns its expected exit code;
  * each report's validators hold, as do ``balance_ok`` / ``within_bound``;
  * each ``verify`` answers ``"ok": true``;
  * separators and witnesses are re-checked here on the input graph, and
    certificates through ``edgesep.graphs.validate_model``;
  * each command's stdout is byte-identical in every pass of a run.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from edgesep import cli, generators
from edgesep.formats import emit_graph
from edgesep.graphs import Graph
from edgesep.graphs import validate_model as _validate_model

T = "5"


class CheckFailed(Exception):
    """A command's output failed one of the job's checks."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Instance:
    key: str                 # names the instance in reports, e.g. "path-2000"
    graph: Graph
    path: str                # graph file, written at set-up
    digest: str              # sha256 of the graph text, as the CLI reports it
    units: tuple             # integer vertex weights; weight(v) = units[v] / sum
    weights_path: Optional[str]
    minor_rich: bool         # every command must end in a K_t certificate

    @property
    def m(self) -> int:
        return self.graph.m


@dataclass(frozen=True)
class JobResult:
    key: str
    pass_no: int
    m: int
    minor_rich: bool
    seconds: float           # summed time of the job's CLI calls
    failure: Optional[str]
    ratios: tuple            # |F| / reference_bound of each separator output


@dataclass(frozen=True)
class Workload:
    name: str
    instances: Callable      # (seed, directory) -> list[Instance]
    job: Callable            # (instance, runner) -> list of |F| / reference_bound
    target_layers: tuple     # per-layer counters that must be non-zero when traced

    def run(self, inst: Instance, pass_no: int, digests: dict,
            tracer=None) -> JobResult:
        runner = Runner(inst, digests, tracer)
        if tracer is not None:
            tracer.job = inst.key
        failure, ratios = None, ()
        try:
            ratios = tuple(self.job(inst, runner))
        except CheckFailed as exc:
            failure = str(exc)
        except Exception as exc:   # the program crashed: a failed job, not a failed run
            failure = f"{type(exc).__name__}: {exc}"
        return JobResult(inst.key, pass_no, inst.m, inst.minor_rich,
                         runner.seconds, failure, ratios)


def _instance(directory: Path, key: str, g: Graph, units=None,
              minor_rich: bool = False) -> Instance:
    text = emit_graph(g)
    path = directory / f"{key}.gr"
    path.write_text(text)
    weights_path = None
    if units is None:
        units = (1,) * g.n
    else:
        total = sum(units)
        weights_path = directory / f"{key}.w"
        weights_path.write_text("".join(
            f"{v + 1} {a}/{total}\n" for v, a in enumerate(units)))
        weights_path = str(weights_path)
    return Instance(key=key, graph=g, path=str(path),
                    digest=hashlib.sha256(text.encode()).hexdigest(),
                    units=tuple(units), weights_path=weights_path,
                    minor_rich=minor_rich)


# ------------------------------------------------------------------ commands

def call(argv, stdin_text: str = ""):
    """One in-process CLI call: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:        # argparse usage errors
                code = exc.code
            seconds = perf_counter() - start
    finally:
        sys.stdin = saved
    return code, out.getvalue(), seconds


class Runner:
    """Runs one job's commands, timing them and checking exit codes and bytes."""

    def __init__(self, instance: Instance, digests: dict, tracer=None):
        self.instance = instance
        self.digests = digests
        self.tracer = tracer
        self.seconds = 0.0
        self.step = 0

    def __call__(self, argv, code: int, stdin: str = "") -> str:
        got, out, seconds = call(argv, stdin)
        self.seconds += seconds
        if self.tracer is not None:
            self.tracer.count("cli.main.out_bytes", len(out))
        key = (self.instance.key, self.step)
        self.step += 1
        expect(got == code, f"{' '.join(argv[:2])}: exit {got}, expected {code}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        expect(self.digests.setdefault(key, digest) == digest,
               f"{' '.join(argv[:2])}: stdout differs from an earlier pass")
        return out


# ------------------------------------------------------------------ checks

def _components_without(g: Graph, banned: set) -> list:
    """Components of G minus ``banned``, found here so the check does not
    rest on the edgesep code it checks."""
    adj =[[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        if eid not in banned:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp, todo = [s], [s]
        while todo:
            for u in adj[todo.pop()]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    todo.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def check_separator(inst: Instance, report: dict) -> float:
    """Balance and size of F on the input graph; returns |F| / reference_bound."""
    expect(report.get("kind") == "separator", "separate: not a separator report")
    expect(report["input_digest"] == inst.digest, "separate: wrong input digest")
    f = report["edges"]
    expect(len(set(f)) == len(f) and all(0 <= e < inst.m for e in f),
           "separate: edge ids out of range or repeated")
    expect(report["balance_ok"] is True, "separate: balance_ok is false")
    expect(len(f) <= report["bound_used"], "separate: |F| exceeds bound_used")
    comps = _components_without(inst.graph, set(f))
    total = sum(inst.units)
    expect(all(2 * sum(inst.units[v] for v in c) <= total for c in comps),
           "separate: a component of G - F weighs more than 1/2")
    expect(sorted(tuple(c["vertices"]) for c in report["components"]) == comps,
           "separate: reported components disagree with G - F")
    return len(f) / report["reference_bound"]


def check_witness(inst: Instance, report: dict) -> None:
    expect(report.get("kind") == "witness", "iso: not a witness report")
    n = inst.graph.n
    s = set(report["s"])
    expect(len(s) == len(report["s"]) == report["size"], "iso: malformed S")
    expect(-(-n // 3) <= len(s) <= n // 2, "iso: |S| outside [n/3, n/2]")
    cut = sum(1 for u, v in inst.graph.edges if (u in s) != (v in s))
    expect(report["cut_size"] == cut, "iso: cut_size disagrees with the graph")
    ratio = Fraction(cut, len(s))
    expect(report["ratio"] == f"{ratio.numerator}/{ratio.denominator}",
           "iso: ratio is not cut_size / |S|")


def check_certificate(inst: Instance, report: dict) -> None:
    expect(report.get("kind") == "certificate", "expected a K_t certificate")
    expect(report["validators"]["model"] is True, "certificate: validator false")
    sets = [tuple(s) for s in report["branch_sets"]]
    expect(len(sets) == int(T), f"certificate: {len(sets)} branch sets, not {T}")
    ok, why = _validate_model(inst.graph, sets)
    expect(ok, f"certificate: {why}")


def _verified(runner: Runner, kind: str, artifact: str, *flags: str) -> None:
    verdict = json.loads(runner(["verify", kind, *flags, "--against",
                                 runner.instance.path], 0, artifact))
    expect(verdict["ok"] is True, f"verify {kind}: {verdict['violation']}")


# ------------------------------------------------------------------ jobs

def separate_uniform(inst: Instance, run: Runner) -> list:
    out = run(["separate", inst.path, "--t", T, "--uniform"], 0)
    return [check_separator(inst, json.loads(out))]


def separate_then_iso(inst: Instance, run: Runner) -> list:
    ratios = separate_uniform(inst, run)
    check_witness(inst, json.loads(run(["iso", inst.path, "--t", T], 0)))
    return ratios


def roundtrip(inst: Instance, run: Runner) -> list:
    """partition, tdlg and separate --weights, each followed by its verify."""
    ratios = []
    for produce in ("partition", "tdlg", "separate"):
        argv = [produce, inst.path, "--t", T]
        if produce == "separate":
            argv += ["--weights", inst.weights_path]
        if inst.minor_rich:
            out = run(argv, 3)
            check_certificate(inst, json.loads(out))
            _verified(run, "model", out)
            continue
        out = run(argv, 0)
        report = json.loads(out)
        expect(report["input_digest"] == inst.digest, f"{produce}: wrong input digest")
        if produce == "partition":
            v = report["validators"]
            expect(v["partition"] is True and v["embedding"] is True,
                   f"partition: {v['violation']}")
            _verified(run, "partition", out)
        elif produce == "tdlg":
            expect(report["validators"]["decomposition"] is True,
                   f"tdlg: {report['validators']['violation']}")
            expect(report["within_bound"] is True, "tdlg: width exceeds its bound")
            _verified(run, "td", report["td"], "--line")
        else:
            ratios.append(check_separator(inst, report))
            _verified(run, "separator", out)
    return ratios


# ------------------------------------------------------------------ inputs

def _paths(seed: int, directory: Path) -> list:
    return [_instance(directory, f"path-{n}", generators.path(n))
            for n in range(400, 2001, 200)]


def _grids(seed: int, directory: Path) -> list:
    return [_instance(directory, f"grid-{k}", generators.grid(k, k))
            for k in range(16, 49, 4)]


def _forest(seed: int, directory: Path) -> list:
    """A fixed corpus of trees, outerplanar and minor-rich graphs.

    The graphs come from fixed generator seeds: |F| on a random tree moves
    by a quarter from one draw to the next, which would make the separator
    quality metric differ more between workload seeds than any bound allows.
    The workload seed draws the non-uniform vertex weights (and, in the
    runner, the job order).
    """
    graphs = [(f"tree-{n}", generators.random_tree(n, n), False)
              for n in (1000, 2000, 3000, 4000)]
    graphs += [(f"outerplanar-{n}", generators.outerplanar(n, n), False)
               for n in (500, 1000, 1500, 2000)]
    graphs += [("complete-7", generators.complete(7), True),
               ("toroidal-8", generators.toroidal_grid(8, 8), True),
               ("toroidal-10", generators.toroidal_grid(10, 10), True)]
    out = []
    for key, g, minor_rich in graphs:
        rng = random.Random(f"{seed}/{key}")
        # units in [50, 100]: no vertex outweighs the rest, even on K_7
        units = [rng.randint(50, 100) for _ in range(g.n)]
        out.append(_instance(directory, key, g, units, minor_rich))
    return out


WORKLOADS = {
    w.name: w for w in (
        Workload("deep-path", _paths, separate_uniform, ()),
        Workload("grid-separator", _grids, separate_then_iso,
                 ("tree_or_sep.minimalize_edge_separator.calls",)),
        Workload("forest-roundtrip", _forest, roundtrip,
                 ("treedecomp.glue.calls", "partition.validate_certificate.calls")),
    )
}
