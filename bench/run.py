"""View-switching benchmark: one command, stdlib only.

    python3 bench/run.py --workload paper --seed 1 --seconds 35 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory. A run generates the workload from the seed (see
workloads.py), then

  --trace 0  converts it in-process, unchecked and checked, and through cold
             `viewshift apply --checked` children, and prints the end-to-end
             metrics;
  --trace 1  converts it with every layer's public functions wrapped in spans
             (tracer.py) and prints the per-layer metrics.

Every conversion and child passes through the correctness gate; a run that
fails a verdict is counted in `failed` and never recorded as a timing. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Exit status: 0 when every verdict passed, 1 when one
failed or the program is missing, 2 on bad arguments. METRICS.md says what
each metric measures and which layer should move it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 3  # whatever --seconds says, so every median has three samples
MIN_TRACED = 2  # rounds of a traced run
TRACED_SHARE = 0.5
CHILD_TIMEOUT_S = 60
RSS_POLL_S = 0.02
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

# The machine's speed wanders by tens of percent over seconds to minutes
# (METRICS.md), more than any bound a regression check could use. So every
# timed sample runs between two calls of calibrate(), a fixed pure-Python
# task that shares no code with the program, and is reported at reference
# speed: wall time * CALIBRATION_REF_S / the mean of the two calibrations.
# CALIBRATION_REF_S is calibrate()'s median time on the machine the bounds
# were measured on, so reported times read as seconds on that machine.
CALIBRATION_REF_S = 0.0045

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from viewshift import parse_project, resolve_project\n"
    "for d in sys.argv[2:]:\n"
    "    resolve_project(parse_project(d))\n"
)

END_TO_END_UNITS = {
    "convert_s": "s",
    "convert_checked_s": "s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "cli_apply_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Every command the three workloads' scripts use; each gets an op self-time metric.
OP_COMMANDS = (
    "case-to-eq", "clean-imports", "duplicate-into-comment", "exhibit-function",
    "fold-def", "generalise", "generalise-ident", "generative-fold", "lift-def",
    "move-def", "new-def-fun-app", "remove-def", "rename-top-level",
    "rm-comment-before", "unfold-instance", "unify-alpha",
)

PER_LAYER_UNITS = {
    "resolver.build_symbol_table.calls": "count",
    "resolver.build_symbol_table.self_ms": "ms",
    "resolver.resolve_project.calls": "count",
    "resolver.resolve_project.self_ms": "ms",
    "rewrite.minimize_qualifiers.calls": "count",
    "rewrite.minimize_qualifiers.self_ms": "ms",
    "refactorings._finish.calls": "count",
    "refactorings._finish.ms": "ms",
    "refactorings.op.self_ms": "ms",
    **{f"refactorings.op.{c}.self_ms": "ms" for c in OP_COMMANDS},
    "evaluator.observe_entries.calls": "count",
    "evaluator.observe_entries.ms": "ms",
    "evaluator.instances": "count",
    "evaluator.reductions": "count",
    "evaluator.forcings": "count",
    "evaluator.reductions_per_s": "1/s",
    "parse.parse_project.ms": "ms",
    "parse.bytes_per_s": "B/s",
    "render.write_project.ms": "ms",
    "cli.child_cpu_s": "s",
    "script.steps": "count",
    "script.steps_failed": "count",
    "trace.overhead": "ratio",
}


def import_program():
    """Import viewshift from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "viewshift", "__init__.py")):
        sys.exit(f"bench: no program to measure: {SRC}/viewshift is missing")
    sys.path.insert(0, SRC)
    import viewshift

    if os.path.dirname(os.path.dirname(os.path.abspath(viewshift.__file__))) != SRC:
        sys.exit(f"bench: imported viewshift from {viewshift.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# timing at reference speed


@dataclass(slots=True)
class _Node:
    name: str
    payload: tuple


def _depth(n: int) -> int:
    return 1 if n == 0 else 1 + _depth(n - 1)


def _calibration_task() -> int:
    table = {}
    for i in range(6000):
        table[("k", i)] = _Node(str(i), (i, [i]))
    total = 0
    for node in table.values():
        total += len(node.name) + node.payload[0]
    for _ in range(300):
        total += _depth(20)
    return total


def calibrate() -> float:
    """Seconds this machine takes, right now, for a fixed task that, like the
    program, allocates small objects, hashes tuples and strings and recurses.
    One untimed run warms the caches and the allocator, and the fastest of
    three timed runs ignores a single interruption; the collector is paused
    meanwhile. So the time depends little on what ran before or on how much
    the harness holds on the heap."""
    gc.disable()
    try:
        _calibration_task()
        times = []
        for _ in range(3):
            t0 = perf_counter()
            _calibration_task()
            times.append(perf_counter() - t0)
        return min(times)
    finally:
        gc.enable()


@dataclass
class Sample:
    wall: float  # seconds, as measured
    factor: float  # reference speed / the machine's speed around the sample

    @property
    def value(self) -> float:
        """Seconds at reference speed."""
        return self.wall * self.factor


def speed_factor(before: float, after: float) -> float:
    """Reference speed / the machine's speed, from the calibrations around a sample."""
    return 2 * CALIBRATION_REF_S / (before + after)


def bracketed(fn):
    """Call fn between two calibrations: (its result, the speed factor)."""
    before = calibrate()
    result = fn()
    return result, speed_factor(before, calibrate())


# ---------------------------------------------------------------------------
# correctness gate


@dataclass
class Tally:
    """Steps and verdicts attempted and failed; failed_ratio = failed / attempted."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def verdict(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def steps(self, log) -> bool:
        bad = [r for r in log.records if r.outcome != "applied" or r.equivalence == "fail"]
        self.attempted += len(log.records)
        self.failed += len(bad)
        self.problems += [f"{log.script}: step {r.index} {r.command}: {r.error or r.outcome}" for r in bad]
        return log.ok


class JobResult(NamedTuple):
    job: object  # workloads.Job
    out: object  # the converted Project
    log: object  # the script's RunLog
    factor: float  # speed factor of the calibrations around the script


@dataclass
class Child:
    time: Sample
    returncode: int
    usage: object  # resource.struct_rusage from wait4
    peak_rss_mb: float  # the program's own peak resident set


def run_child(cmd: list[str], stderr_path: str) -> Child:
    """Run a child between two calibrations, timing it and reading its rusage
    from wait4. A child still running after CHILD_TIMEOUT_S is killed.

    This process and the child it starts stay on one CPU meanwhile, so the
    calibrations run where the child runs: the machine's CPUs change speed
    independently."""
    allowed = os.sched_getaffinity(0)
    cpu = _current_cpu()
    if cpu in allowed:
        os.sched_setaffinity(0, {cpu})
    try:
        (wall, status, usage, peak_kb), factor = bracketed(lambda: _wait_child(cmd, stderr_path))
    finally:
        os.sched_setaffinity(0, allowed)
    return Child(Sample(wall, factor), os.waitstatus_to_exitcode(status), usage, peak_kb / 1024)


def _wait_child(cmd: list[str], stderr_path: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    lock = threading.Lock()
    reaped = False
    peak_kb = [0]
    stop = threading.Event()

    with open(stderr_path, "wb") as err:
        t0 = perf_counter()
        # Popen returns once the child has exec'd, so the poller only sees
        # the program's own memory.
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)

        def kill():
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        poller = threading.Thread(target=_poll_peak_rss, args=(proc.pid, stop, peak_kb))
        timer.start()
        poller.start()
        try:
            # Wait for the exit without reaping, so the pid cannot be reused
            # while the poller still reads it.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = perf_counter() - t0
            stop.set()
            poller.join()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            stop.set()
            poller.join()
            with lock:
                reaped = True
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, status, usage, peak_kb[0]


def _poll_peak_rss(pid: int, stop: threading.Event, peak_kb: list[int]):
    """Keep the child's VmHWM (peak resident set, in KiB) until stop is set.

    wait4's ru_maxrss cannot be used: at exec, Linux folds the high-water
    mark of the forking process's memory into the child's, so a child of
    this harness would report the harness's size."""
    path = f"/proc/{pid}/status"
    while True:
        try:
            with open(path, encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb[0] = max(peak_kb[0], int(line.split()[1]))
        except OSError:
            return
        if stop.wait(RSS_POLL_S):
            return


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            stat = fh.read()
        return int(stat[stat.rindex(")") + 2:].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _stderr_tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-400:]


class Bench:
    """A generated workload, ready to convert and to check."""

    def __init__(self, wl, tally: Tally):
        from viewshift.parse import parse_project
        from viewshift.script import parse_script

        self.wl = wl
        self.tally = tally
        self.scripts = {job.script: parse_script(job.text, job.script) for job in wl.jobs}
        self.sources = sorted({job.source for job in wl.jobs if job.source is not None})
        refs = {job.golden for job in wl.jobs} | {job.oracle for job in wl.jobs}
        self.references = {name: parse_project(wl.projects[name]) for name in refs if name}
        self._oracle: dict[str, dict[str, str]] = {}
        self.cli_expected = None  # in-process result of the CLI job
        self.children = 0

    def load(self) -> dict:
        """Fresh input projects, so nothing keyed by object identity can
        carry over from one timed conversion to the next."""
        from viewshift import parse

        return {name: parse.parse_project(self.wl.projects[name]) for name in self.sources}

    def convert(self, inputs: dict, checked: bool) -> tuple[list[JobResult], Sample]:
        """Run the workload's scripts in order, each between calibrations, so
        a long conversion is put at reference speed script by script."""
        from viewshift import script

        results: list[JobResult] = []
        prev, wall, value = None, 0.0, 0.0
        before = calibrate()
        for job in self.wl.jobs:
            src = inputs[job.source] if job.source is not None else prev
            t0 = perf_counter()
            out, log = script.run_script(src, self.scripts[job.script], checked=checked)
            elapsed = perf_counter() - t0
            after = calibrate()
            factor = speed_factor(before, after)
            before = after
            wall += elapsed
            value += elapsed * factor
            results.append(JobResult(job, out, log, factor))
            if not log.ok:
                break
            prev = out
        return results, Sample(wall, value / wall if wall else 1.0)

    def oracle(self, name: str) -> dict[str, str]:
        """Observations of a reference project by the independent
        call-by-name evaluator."""
        if name not in self._oracle:
            from viewshift.evaluator import default_entries
            from viewshift.reference import observe_entries_by_name

            project = self.references[name]
            self._oracle[name] = observe_entries_by_name(project, default_entries(project))
        return self._oracle[name]

    def _observations_ok(self, out, expected: dict[str, str]) -> bool:
        from viewshift.evaluator import EvalError, observe_entries
        from viewshift.resolver import ResolveError

        try:
            return observe_entries(out, tuple(expected)) == expected
        except (EvalError, ResolveError):
            return False

    def gate(self, results: list) -> bool:
        from viewshift.names import alpha_eq_project

        t = self.tally
        ok = True
        for job, out, log, _ in results:
            if not t.steps(log):
                ok = False
                continue
            if job.golden:
                ok &= t.verdict(
                    alpha_eq_project(out, self.references[job.golden]),
                    f"{job.script}: result is not alpha-equivalent to {job.golden}",
                )
            if job.observations:
                ok &= t.verdict(
                    self._observations_ok(out, job.observations),
                    f"{job.script}: observations differ from the corpus OBSERVATIONS",
                )
            if job.oracle:
                ok &= t.verdict(
                    self._observations_ok(out, self.oracle(job.oracle)),
                    f"{job.script}: observations differ from the reference evaluator on {job.oracle}",
                )
        if len(results) < len(self.wl.jobs):
            ok &= t.verdict(False, f"conversion stopped after {len(results)} of {len(self.wl.jobs)} scripts")
        if ok and self.cli_expected is None:
            self.cli_expected = results[0].out
        return ok

    def timed_conversion(self, checked: bool, around=contextlib.nullcontext) -> tuple[Sample, list, bool]:
        """Convert fresh inputs inside `around()` (the tracer's capture, in a
        traced run); returns (its time, results, passed the gate)."""
        inputs = self.load()
        gc.collect()
        try:
            with around():
                results, sample = self.convert(inputs, checked)
        except Exception as exc:  # an operation escaping its typed errors is a failed run, not a crash
            return Sample(0.0, 1.0), [], self.tally.verdict(False, f"conversion raised {exc!r}")
        return sample, results, self.gate(results)

    def setup_child(self) -> Child | None:
        """A fresh interpreter imports viewshift and resolves the inputs from disk."""
        err = os.path.join(self.wl.root, "setup.err")
        child = run_child([sys.executable, "-c", SETUP_CODE, SRC, *self.wl.inputs()], err)
        ok = self.tally.verdict(child.returncode == 0, f"setup child exited {child.returncode}: {_stderr_tail(err)}")
        return child if ok else None

    def cli_child(self) -> Child | None:
        """A cold `viewshift apply --checked` of the CLI job's script on disk;
        its output must be alpha-equivalent to the in-process result."""
        from viewshift.names import alpha_eq_project
        from viewshift.parse import ParseError, parse_project

        job = self.wl.jobs[0]
        self.children += 1
        out = os.path.join(self.wl.root, f"cli-out-{self.children}")
        err = os.path.join(self.wl.root, "cli.err")
        cmd = [
            sys.executable, "-m", "viewshift.cli", "apply", self.wl.script_path(job),
            self.wl.projects[job.source], "--out", out, "--checked",
        ]
        child = run_child(cmd, err)
        if not self.tally.verdict(child.returncode == 0, f"CLI exited {child.returncode}: {_stderr_tail(err)}"):
            return None
        try:
            same = self.cli_expected is not None and alpha_eq_project(parse_project(out), self.cli_expected)
        except ParseError:
            same = False
        shutil.rmtree(out, ignore_errors=True)
        return child if self.tally.verdict(same, "CLI output differs from the in-process result") else None


# ---------------------------------------------------------------------------
# statistics


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def measure(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    """Take the four kinds of sample in rounds, one of each per round, so that
    every metric sees the machine's slow and fast spells alike and the
    expensive kinds get as many samples as the cheap ones. Rounds continue
    until MIN_ROUNDS are done and another would end after --seconds."""
    bench.timed_conversion(False)  # warm-up: first-call costs are not what a step costs

    samples: dict[str, list[Sample]] = {"setup": [], "unchecked": [], "checked": [], "cli": []}
    # per-step latency: each step's median over this run's unchecked conversions
    step_times: dict[tuple[int, int], list[float]] = defaultdict(list)
    peak_rss: list[float] = []

    def conversion(checked: bool):
        sample, results, ok = bench.timed_conversion(checked)
        if not ok:
            return
        samples["checked" if checked else "unchecked"].append(sample)
        if not checked:
            for j, res in enumerate(results):
                for r in res.log.records:
                    step_times[(j, r.index)].append(r.elapsed * res.factor)

    def child(kind: str, start_child):
        c = start_child()
        if c:
            samples[kind].append(c.time)
            if kind == "cli":
                peak_rss.append(c.peak_rss_mb)

    start = perf_counter()
    rounds, last = 0, 0.0
    while rounds < MIN_ROUNDS or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        child("setup", bench.setup_child)
        conversion(False)
        conversion(True)
        child("cli", bench.cli_child)
        rounds += 1
        last = perf_counter() - t0

    def timing(kind: str, what: str):
        got = samples[kind]
        if not got:
            return None, f"no {what}"
        wall = median([x.wall for x in got])
        factor = median([x.factor for x in got])
        return median([x.value for x in got]), f"median of {len(got)} {what}; {wall:.6g} s as measured, speed factor {factor:.3f}"

    steps = [statistics.median(v) * 1e3 for v in step_times.values()]
    step_tail = tail(steps)
    n_unchecked = len(samples["unchecked"])
    values = {
        "convert_s": timing("unchecked", "unchecked conversions"),
        "convert_checked_s": timing("checked", "checked conversions"),
        "step_p50_ms": (median(steps), f"median over {len(steps)} steps, each the median of its {n_unchecked} timings"),
        "step_tail_ms": (
            step_tail and step_tail[0],
            f"p{step_tail[1]:.1f} of the same {len(steps)} steps" if step_tail else "too few steps",
        ),
        "cli_apply_s": timing("cli", "cold CLI children"),
        "peak_rss_mb": (median(peak_rss), f"median of {len(peak_rss)} CLI children"),
        "setup_s": timing("setup", "fresh interpreters"),
    }
    metrics, notes = {}, []
    for name, (value, note) in values.items():
        unit = END_TO_END_UNITS[name]
        notes.append(f"{name:<20} {'missing' if value is None else f'{value:.6g}'} {unit}  ({note})")
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, notes


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics


def _layer_metrics(spans: dict, eval_stats: list, results: list, sample: Sample, checked: bool) -> dict[str, float]:
    """One traced conversion's per-layer values, times at reference speed:
    evaluator metrics from a checked conversion, the rest from an unchecked one."""
    from tracer import OP_PREFIX

    def calls(name: str) -> int:
        return spans[name].calls if name in spans else 0

    def ms(name: str, self_time: bool = False) -> float:
        if name not in spans:
            return 0.0
        return (spans[name].self if self_time else spans[name].total) * 1e3 * sample.factor

    if checked:
        reductions = sum(s.steps for _, s in eval_stats)
        observe_s = ms("evaluator.observe_entries") / 1e3
        return {
            "evaluator.observe_entries.calls": calls("evaluator.observe_entries"),
            "evaluator.observe_entries.ms": observe_s * 1e3,
            "evaluator.instances": len(eval_stats),
            "evaluator.reductions": reductions,
            "evaluator.forcings": sum(s.forcings for _, s in eval_stats),
            "evaluator.reductions_per_s": reductions / observe_s if observe_s else 0.0,
        }
    out: dict[str, float] = {}
    for name in ("resolver.build_symbol_table", "resolver.resolve_project", "rewrite.minimize_qualifiers"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_ms"] = ms(name, self_time=True)
    out["refactorings._finish.calls"] = calls("refactorings._finish")
    out["refactorings._finish.ms"] = ms("refactorings._finish")
    ops = [name for name in spans if name.startswith(OP_PREFIX)]
    out["refactorings.op.self_ms"] = sum(ms(name, self_time=True) for name in ops)
    for name in ops:
        out[f"{name}.self_ms"] = ms(name, self_time=True)
    records = [r for res in results for r in res.log.records]
    out["script.steps"] = len(records)
    out["script.steps_failed"] = sum(1 for r in records if r.outcome != "applied" or r.equivalence == "fail")
    return out


def _job_counts(tracer) -> list[dict[str, int]]:
    """Per script: span counts and evaluator totals, from the spans each
    top-level run_script span covers."""
    tops = [i for i, s in enumerate(tracer.spans) if s.name == "script.run_script" and s.parent == -1]
    out = []
    for k, first in enumerate(tops):
        last = tops[k + 1] if k + 1 < len(tops) else len(tracer.spans)
        spans = tracer.totals(first, last)
        stats = [s for i, s in tracer.eval_stats if first <= i < last]
        counted = {
            short: spans[name].calls if name in spans else 0
            for short, name in (
                ("build_symbol_table", "resolver.build_symbol_table"),
                ("resolve_project", "resolver.resolve_project"),
                ("minimize_qualifiers", "rewrite.minimize_qualifiers"),
            )
        }
        counted["evaluators"] = len(stats)
        counted["reductions"] = sum(s.steps for s in stats)
        counted["forcings"] = sum(s.forcings for s in stats)
        out.append(counted)
    return out


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    """Alternate an untraced checked conversion with traced unchecked and
    checked ones, then time parsing and rendering and one CLI child. Runs for
    TRACED_SHARE of --seconds: per-layer values have no bound, and counts
    repeat exactly."""
    from tracer import EVALUATOR_SPAN, OP_PREFIX, Tracer
    from viewshift import render

    tracer = Tracer()
    bench.timed_conversion(False)  # warm-up, untraced
    commands = {step.command for s in bench.scripts.values() for step in s.steps}
    expected = {
        False: ["script.run_script", "resolver.build_symbol_table", "resolver.resolve_project",
                "rewrite.minimize_qualifiers", "refactorings._finish"]
        + [OP_PREFIX + c for c in sorted(commands)],
        True: ["evaluator.observe_entries", EVALUATOR_SPAN],
    }
    samples: dict[str, list[float]] = defaultdict(list)
    untraced_checked, traced_checked = [], []
    job_counts: dict[bool, list] = {}
    inputs = [bench.wl.projects[s] for s in bench.sources]
    bytes_in = sum(os.path.getsize(os.path.join(d, f)) for d in inputs for f in os.listdir(d) if f.endswith(".mfn"))
    rendered = os.path.join(bench.wl.root, "rendered")

    def check(ok: bool, what: str) -> bool:
        return bench.tally.verdict(ok, f"trace: {what}")

    start = perf_counter()
    attempts = 0
    while attempts < MIN_TRACED or perf_counter() < start + TRACED_SHARE * seconds:
        attempts += 1
        sample, _, ok = bench.timed_conversion(True)
        if ok:
            untraced_checked.append(sample.value)
        tracer.install()
        try:
            for checked in (False, True):
                sample, results, ok = bench.timed_conversion(checked, tracer.capture)
                if not ok:
                    continue
                spans = tracer.totals()
                missing = [n for n in expected[checked] if n not in spans]
                check(not missing, f"no {missing} spans in a {'' if checked else 'un'}checked conversion")
                if checked:
                    traced_checked.append(sample.value)
                else:
                    check(not tracer.eval_stats, "an Evaluator was built in an unchecked conversion")
                for name, value in _layer_metrics(spans, tracer.eval_stats, results, sample, checked).items():
                    samples[name].append(value)
                job_counts.setdefault(checked, _job_counts(tracer))

            def load():
                with tracer.capture():
                    bench.load()

            def write():
                with tracer.capture():
                    for res in results:
                        render.write_project(res.out, os.path.join(rendered, res.job.script))

            _, factor = bracketed(load)
            parse_s = tracer.totals()["parse.parse_project"].total * factor
            samples["parse.parse_project.ms"].append(parse_s * 1e3)
            samples["parse.bytes_per_s"].append(bytes_in / parse_s)
            _, factor = bracketed(write)
            samples["render.write_project.ms"].append(tracer.totals()["render.write_project"].total * 1e3 * factor)
            shutil.rmtree(rendered, ignore_errors=True)
        finally:
            tracer.uninstall()

    child = bench.cli_child()
    if child:
        samples["cli.child_cpu_s"].append((child.usage.ru_utime + child.usage.ru_stime) * child.time.factor)
    if untraced_checked and traced_checked:
        samples["trace.overhead"].append(median(traced_checked) / median(untraced_checked) - 1)

    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if check(bool(samples.get(name)), f"no samples for {name}"):
            metrics[name] = {"value": median(samples[name]), "unit": unit}
    notes = [f"{len(traced_checked)} traced and {len(untraced_checked)} untraced checked conversions; "
             "per-layer values are medians per conversion"]
    for checked, counts in sorted(job_counts.items()):
        for job, c in zip(bench.wl.jobs, counts):
            mode = "checked  " if checked else "unchecked"
            notes.append(f"{job.script:<15} {mode} " + "  ".join(f"{k}={v}" for k, v in c.items()))
    notes += [f"{name:<48} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, notes


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.generate(args.workload, work, args.seed)
        tally = Tally()
        bench = Bench(wl, tally)
        run = measure_traced if args.trace else measure
        metrics, notes = run(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(work))

    print(f"workload {args.workload}, seed {args.seed}: "
          + ", ".join(f"{j.script} {len(bench.scripts[j.script].steps)} steps" for j in wl.jobs))
    for line in notes:
        print(line)
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_ratio':<20} {ratio:.6g}  ({tally.failed} failed of {tally.attempted} steps and verdicts)")
    for problem in tally.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
