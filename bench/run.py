#!/usr/bin/env python3
"""Benchmark for the propb CLI: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  One
client works in a closed loop: every job is a fresh `python -m propb.cli`
child, started only after the previous one exited, and its stdout is checked
by bench/checks.py, which shares no code with propb.  Per-child CPU time and
peak RSS come from os.wait4.

The spawner and its children run on one CPU and the bench on the others.
The host's vCPUs change speed by up to 2x every few seconds, so the spawner
times a fixed reference loop on that CPU while each job runs, and the job's
wall and CPU times are reported in units of that loop ("ref").

--trace 0 reports the end-to-end metrics of BENCHMARK.json: per job, the
median over the passes (one pass runs every job of the workload once),
summed over the jobs of a pass; set-up time is the median wall time of the
set-up probes, in seconds.  --trace 1 runs each job untraced and under
bench/tracer.py in turn, then one traced child per layer call, and reports
the per-layer metrics.  The last stdout line is the JSON result; earlier
lines give the samples behind it.  Scratch files go to bench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from checks import (
    COLORING_CASES,
    HEAD_BYTES,
    FlippedReader,
    Job,
    OutputReader,
    Shape,
    check_output,
    corruptions,
    make_coloring,
)
from tracer import LAYERS, duration

ROOT = Path.cwd()
WORK = ROOT / "bench" / ".work"
CLI = [sys.executable, "-m", "propb.cli"]
TRACED_CLI = [sys.executable, "bench/tracer.py"]

# A fresh `count` covers interpreter start, import and argparse, the cost
# every invocation pays before its command runs.
PROBE = Job("count", 4, 2)
SETUP_PROBES = 20
IMPORT_PROBES = 5
PAIR_SECONDS = 5.0
MAX_PAIRS = 9
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0


def jobs_for(workload: str, seed: int, index: int) -> list[Job]:
    """Pass `index` of `workload`: its jobs in a seeded order.

    stream:      emit the (8,2) construction as edges and as DIMACS.
    materialize: build the full (8,2) multiset, then sort it or hash it.
    verify:      small instances; DPLL and the exhaustive search do the work.
    The two witness colorings rotate through the three cases pass by pass.
    """
    if workload == "stream":
        jobs = [Job("gen", 8, 2), Job("gen", 8, 2, fmt="dimacs")]
    elif workload == "materialize":
        first = (seed + index) % len(COLORING_CASES)
        jobs = [
            Job("gen", 8, 2, dedup=True),
            witness_job(seed, 8, 2, COLORING_CASES[first]),
            witness_job(seed, 8, 2, COLORING_CASES[(first + 1) % len(COLORING_CASES)]),
        ]
    else:
        jobs = [Job("solve", k, l, dedup=True) for k, l in ((3, 3), (4, 2), (7, 1))]
        jobs.append(Job("verify-small", 7, 1))
    random.Random(f"{workload}:{seed}:{index}").shuffle(jobs)
    return jobs


def witness_job(seed: int, k: int, l: int, case: str) -> Job:
    """A witness job whose coloring file is generated from the seed."""
    coloring = make_coloring(Shape(k, l), case, random.Random(f"coloring:{seed}:{k}:{l}:{case}"))
    path = WORK / f"coloring-{k}-{l}-{case}-{seed}.txt"
    path.write_text(coloring + "\n", encoding="ascii")
    return Job("witness", k, l, coloring=coloring, coloring_path=str(path.relative_to(ROOT)))


@dataclass
class Child:
    code: int
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float
    ref: float
    timed_out: bool
    sampled: float = 0.0


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    ref: float
    error: str | None
    sampled: float = 0.0


class Runner:
    """Runs children one at a time and counts attempts and failures.

    Children are started by bench/spawner.py, a process that stays small,
    so that a child's peak RSS is its own.  The spawner and its children run
    on one CPU, and this process on the others when there are others.  A
    child writes its stdout to a file that is read and checked after it
    exits: a reader on another CPU, whose speed changes on its own, would
    stall a child writing to a pipe.
    """

    def __init__(self, env: dict[str, str]):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.stdout = WORK / "stdout.txt"
        self.stderr = WORK / "stderr.txt"
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus[:-1])
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", "bench/spawner.py", str(cpus[-1])],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()
        self.stdout.unlink(missing_ok=True)

    def spawn(self, argv: list[str], readers: list[OutputReader], sample: bool = False) -> Child | None:
        """Run `argv` to completion, feeding its stdout to every reader.

        Stdout is read in chunks and never held whole.  With `sample`, the
        spawner also times its reference loop while the child runs (Child.ref).
        """
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            return None
        request = {"argv": argv, "stdout": str(self.stdout), "stderr": str(self.stderr), "sample": sample}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        started = json.loads(self.spawner.stdout.readline())
        if "error" in started:
            return Child(127, started["error"].encode(), 0.0, 0.0, 0.0, 0.0, False)
        timer = threading.Timer(timeout, os.kill, (started["pid"], signal.SIGKILL))
        timer.start()
        try:
            # The spawner reaps the child with wait4, not RUSAGE_CHILDREN,
            # which would keep the peak RSS of every earlier child.
            reaped = json.loads(self.spawner.stdout.readline())
        finally:
            timed_out = timer.finished.is_set()
            timer.cancel()
        with open(self.stdout, "rb") as out:
            while chunk := out.read(1 << 20):
                for reader in readers:
                    reader.feed(chunk)
        return Child(
            code=os.waitstatus_to_exitcode(reaped["status"]),
            stderr=self.stderr.read_bytes(),
            wall=reaped["wall"],
            cpu=reaped["cpu"],
            rss_mb=reaped["maxrss_kb"] / 1024,
            ref=reaped["ref"],
            timed_out=timed_out,
            sampled=reaped["sampled"],
        )

    def record(self, label: str, child: Child | None, error: str | None) -> Outcome:
        """Count one attempt; a missing child, timeout or traceback is a failure."""
        self.attempted += 1
        if child is None:
            error = "not started: the run's time limit was reached"
        elif child.timed_out:
            error = f"timed out after {child.wall:.1f} s"
        elif b"Traceback (most recent call last)" in child.stderr:
            error = "traceback: " + child.stderr.decode("utf-8", "replace").strip().splitlines()[-1]
        if error is not None:
            self.failed += 1
            print(f"FAILED {label}: {error}", file=sys.stderr)
        if child is None:
            return Outcome(0.0, 0.0, 0.0, 0.0, error)
        return Outcome(child.wall, child.cpu, child.rss_mb, child.ref, error, child.sampled)

    def job(
        self, job: Job, rng: random.Random | None = None, spans: Path | None = None, sample: bool = True
    ) -> Outcome:
        """Run `job` and check its output; with `rng`, also check that every
        corrupted variant of that output is rejected."""
        readers = [OutputReader()]
        if rng is not None and job.command == "gen":
            readers.append(FlippedReader(rng.randrange(HEAD_BYTES)))
        if spans is None:
            child = self.spawn(CLI + list(job.argv), readers, sample)
        else:
            child = self.spawn(TRACED_CLI + ["job", str(spans)] + list(job.argv), readers, sample)
        out = readers[0].output()
        error = None if child is None else check_output(job, out, child.code)
        if error is None and child is not None and rng is not None:
            for label, bad_job, bad_out in corruptions(job, out, rng, readers[1:]):
                if check_output(bad_job, bad_out, 0) is None:
                    error = f"check accepted a corrupted output ({label})"
        return self.record(job.label, child, error)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict[str, float]:
    runner.job(PROBE, sample=False)  # warm-up: the first start in a checkout compiles bytecode
    start = time.perf_counter()
    # Half the set-up probes open the run and half close it, so that their
    # median spans the run rather than one moment of it.
    setup = [runner.job(PROBE, sample=False).wall for _ in range(SETUP_PROBES // 2)]
    # Outcomes of each job across the passes; a witness job is the same job
    # whichever coloring file it reads.
    runs: dict[str, tuple[Job, list[Outcome]]] = {}
    walls: list[float] = []
    while True:
        jobs = jobs_for(workload, seed, len(walls))
        rng = random.Random(f"corrupt:{seed}") if not walls else None
        outcomes = [runner.job(job, rng) for job in jobs]
        seen: dict[str, int] = {}
        for job, outcome in zip(jobs, outcomes):
            label = replace(job, coloring=None, coloring_path=None).label
            seen[label] = seen.get(label, 0) + 1
            runs.setdefault(f"{label} #{seen[label]}", (job, []))[1].append(outcome)
        walls.append(sum(o.wall for o in outcomes))
        print(f"pass {len(walls)}: " + ", ".join(
            f"{j.label} {o.wall:.3f} s = {o.wall / o.ref if o.ref else 0:.0f} ref" for j, o in zip(jobs, outcomes)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls)
        if elapsed + typical / 2 >= seconds or time.perf_counter() + typical > runner.deadline:
            break
    setup += [runner.job(PROBE, sample=False).wall for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    print(f"setup_s over {len(setup)} probes: {quartiles(setup)}")
    print(f"pass wall over {len(walls)} passes: {quartiles(walls)} s")
    metrics = {"setup_s": statistics.median(setup), "wall_ref": 0.0, "cpu_ref": 0.0, "peak_rss_mb": 0.0}
    edges = 0
    for label, (job, outcomes) in runs.items():
        measured = [o for o in outcomes if o.ref > 0]
        if not measured:
            continue
        wall = [o.wall / o.ref for o in measured]
        print(f"{label}: wall over {len(wall)} runs {quartiles(wall)} ref")
        metrics["wall_ref"] += statistics.median(wall)
        metrics["cpu_ref"] += statistics.median(o.cpu / o.ref for o in measured)
        metrics["peak_rss_mb"] = max(metrics["peak_rss_mb"], statistics.median(o.rss_mb for o in measured))
        edges += job.edges
    if metrics["wall_ref"]:
        metrics["edges_per_ref"] = edges / metrics["wall_ref"]
    return {name: value for name, value in metrics.items() if value}


def traced(runner: Runner, workload: str, seed: int) -> dict[str, float]:
    spans: list[dict] = []
    metrics: dict[str, float] = {}
    plain_total = traced_total = rooted_total = 0.0
    rng = random.Random(f"corrupt:{seed}")
    spans_path = WORK / "job-spans.json"
    for job in jobs_for(workload, seed, 0):
        # Alternate untraced and traced runs of the job until both together
        # have taken PAIR_SECONDS, so short jobs get several samples.
        # The two runs of a pair are compared in reference-loop units, since
        # the host's speed changes between them.  The root spans are compared
        # with the wall time of the traced child itself, taken with the
        # reference samples, because the spans include those too.
        plain, rerun, rooted = [], [], []
        spent = 0.0
        while not plain or (spent < PAIR_SECONDS and len(plain) < MAX_PAIRS):
            untraced = runner.job(job, rng if not plain else None)
            traced_run = runner.job(job, spans=spans_path)
            if untraced.error or traced_run.error:
                break
            job_spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
            spans += job_spans
            spent += untraced.wall + traced_run.wall
            plain.append(untraced.wall / untraced.ref)
            rerun.append(traced_run.wall / traced_run.ref)
            root = sum(duration(s) for s in job_spans if s["parent"] is None)
            rooted.append(root / (traced_run.wall + traced_run.sampled))
        if not plain:
            continue
        plain_ref, traced_ref, rooted_share = (statistics.median(v) for v in (plain, rerun, rooted))
        print(
            f"job {job.label}: {len(plain)} pairs, untraced {plain_ref:.0f} ref, traced {traced_ref:.0f} ref, "
            f"overhead {traced_ref / plain_ref - 1:+.2%}, unaccounted {1 - rooted_share:.2%}"
        )
        plain_total += plain_ref
        traced_total += traced_ref
        rooted_total += rooted_share * plain_ref
    if plain_total:
        metrics["trace.unaccounted_share"] = 1 - rooted_total / plain_total
        metrics["trace.overhead_share"] = traced_total / plain_total - 1

    imports = []
    probe = "import time; t = time.perf_counter(); import propb.cli; print(time.perf_counter() - t)"
    for _ in range(IMPORT_PROBES):
        reader = OutputReader()
        child = runner.spawn([sys.executable, "-c", probe], [reader])
        error = None
        if child is not None:
            out = reader.output().head
            try:
                seconds = float(out)
            except ValueError:
                error = f"unexpected import probe output {out[:80]!r}"
            if child.code != 0:
                error = f"exit code {child.code}"
        if runner.record("import propb.cli", child, error).error is None:
            imports.append(seconds)
    if imports:
        print(f"cli.import_s over {len(imports)} probes: {quartiles(imports)}")
        metrics["cli.import_s"] = statistics.median(imports)

    coloring = witness_job(seed, 6, 3, "uniform").coloring_path
    for name in LAYERS:
        result_path = WORK / f"layer-{name}.json"
        child = runner.spawn(TRACED_CLI + ["layer", name, str(result_path), coloring], [OutputReader()])
        error = None if child is None or child.code == 0 else f"exit code {child.code}"
        if runner.record(f"layer {name}", child, error).error is None:
            result = json.loads(result_path.read_text(encoding="utf-8"))
            spans += result["spans"]
            metrics.update(result["metrics"])
            print(f"layer {name}: {child.wall:.3f} s, " + ", ".join(f"{k} {v:.4g}" for k, v in result["metrics"].items()))

    spans_file = WORK / f"spans-{workload}-{seed}.json"
    spans_file.write_text(json.dumps(spans), encoding="utf-8")
    print(f"{len(spans)} spans written to {spans_file.relative_to(ROOT)}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("stream", "materialize", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "propb" / "cli.py").is_file():
        print(f"error: no propb sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    WORK.mkdir(parents=True, exist_ok=True)
    # Children run with the interpreter's defaults: a PYTHONUNBUFFERED or
    # PYTHONDONTWRITEBYTECODE inherited from the caller would change what
    # is measured (a write per line, a recompile per start).
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    runner = Runner(env)
    try:
        if args.trace:
            metrics = traced(runner, args.workload, args.seed)
        else:
            metrics = end_to_end(runner, args.workload, args.seed, args.seconds)
    finally:
        runner.close()

    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and not missing,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
