"""veycalc benchmark: seeded lists of cold-cache `veycalc` CLI invocations.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

One client runs the jobs one at a time (a closed loop), each in a fresh
interpreter with an isolated cache directory and HOME, so that no cache but
the run's own can serve a hit.  Every job's stdout passes the correctness
gate in checks.py.  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics; with --trace 1 every job runs once untraced and
once under tracer.py, and the JSON holds the per-layer metrics.

The end-to-end times are reported at reference speed.  A shared machine
drifts between fast and slow spells of several seconds, which moves every
measured time by up to a fifth.  So the run also times speedref.py, a fixed
task that does not use veycalc, between its jobs, for about REF_SHARE of
the jobs' time, and multiplies each measured time by REF_NOMINAL_S over a
mean reference time: that of the whole run for wall_s and setup_s, that of
the REF_NEIGHBOURS samples on either side of a job for its latency (which
job_p50_s and job_tail_s take).  A change to the program
moves the scaled times as it moves the measured ones; a spell of the
machine moves both the jobs and the reference, and cancels.  The run prints
the measured times and the factor above the JSON line.
The job spaces and the reasons for them are in workloads.py and
provenance.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import job_failure
from layers import LayerTotals
from workloads import WORKLOADS, job_key, job_list

BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"
SPEEDREF = BENCH_DIR / "speedref.py"
# Reference time to spend per second of job time, and the reference's time
# on a 2-core x86 machine (Python 3.11) in its usual state.
REF_SHARE = 0.2
REF_NOMINAL_S = 0.21
REF_NEIGHBOURS = 2
SETUP_SAMPLES = 12
JOB_TIMEOUT_S = 60.0
# Jobs not started by then count as failed, so that a run ends within 180 s.
RUN_DEADLINE_S = 165.0
LAUNCH = "from veycalc.cli import main; main()"


@dataclass
class JobResult:
    latency_s: float
    max_rss_kb: int
    failure: str | None
    # Speed factor for the latency: REF_NOMINAL_S / nearby reference time.
    scale: float = 1.0


class Runner:
    def __init__(self, root: Path, workdir: Path, references: dict, deadline: float):
        self.root = root
        self.workdir = workdir
        self.references = references
        self.golden = root / "tests" / "golden"
        self.deadline = deadline
        self.count = 0
        self.ref_digest: bytes | None = None

    def env(self, home: Path, cache: Path) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("VEYCALC_")}
        env.update(
            PYTHONPATH=str(self.root / "src"),
            HOME=str(home),
            VEYCALC_CACHE_DIR=str(cache),
        )
        return env

    def import_time(self) -> float:
        """Time for a fresh interpreter to import veycalc.cli."""
        env = self.env(self.workdir / "setup-home", self.workdir / "setup-cache")
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import veycalc.cli"], env=env, cwd=self.root, check=True)
        return time.perf_counter() - start

    def reference_time(self) -> float:
        """Time for a fresh interpreter to run speedref.py, whose output never changes."""
        start = time.perf_counter()
        out = subprocess.run([sys.executable, str(SPEEDREF)], cwd=self.root, check=True,
                             stdout=subprocess.PIPE).stdout
        elapsed = time.perf_counter() - start
        if self.ref_digest is None:
            self.ref_digest = out
        if not out or out != self.ref_digest:
            raise RuntimeError(f"speedref.py printed {out!r}, before {self.ref_digest!r}")
        return elapsed

    def execute(self, cmd: list[str], cache: Path | None):
        """Run one process to its end: (latency s, peak RSS KiB, exit code, stdout, stderr)."""
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            raise TimeoutError("the run deadline has passed")
        self.count += 1
        jobdir = self.workdir / f"job{self.count}"
        jobdir.mkdir()
        env = self.env(jobdir / "home", cache or jobdir / "cache")
        try:
            with open(jobdir / "out", "wb") as out, open(jobdir / "err", "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, cwd=self.root, env=env, stdout=out, stderr=err)
                timer = threading.Timer(timeout, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                    latency = time.perf_counter() - start
                    proc.returncode = os.waitstatus_to_exitcode(status)
                finally:
                    timer.cancel()
                    if proc.returncode is None:
                        proc.kill()
                        proc.wait()
            return (latency, usage.ru_maxrss, proc.returncode,
                    (jobdir / "out").read_bytes(), (jobdir / "err").read_bytes())
        finally:
            shutil.rmtree(jobdir)

    def run_job(self, job: tuple[str, ...], cache: Path | None, layers: LayerTotals | None) -> JobResult:
        spans = self.workdir / "spans.jsonl"
        if layers is None:
            cmd = [sys.executable, "-c", LAUNCH, *job]
        else:
            job_id = str(self.count + 1)  # execute() numbers the job's directory the same
            cmd = [sys.executable, str(TRACER), str(spans), job_id, *job]
        try:
            latency, rss_kb, code, stdout, stderr = self.execute(cmd, cache)
        except TimeoutError as exc:
            return JobResult(0.0, 0, str(exc))
        failure = job_failure(job, code, stdout, self.references.get(job_key(job)), self.golden)
        if failure is not None:
            print(f"FAILED {job_key(job)}: {failure} {stderr.decode(errors='replace')[-300:]}",
                  file=sys.stderr)
        elif layers is not None:
            layers.add_job(str(spans), len(stdout))
        return JobResult(latency, rss_kb, failure)

    def run_list(self, jobs, cache: Path | None):
        """Run the jobs in order, with set-up and reference samples between them.

        Returns (wall seconds of the jobs, per-job results, set-up times,
        reference times).  Spreading the samples over the run lets them see
        the same spells of a shared machine as the jobs do; a reference
        sample follows a job whenever the reference time so far is below
        REF_SHARE of the job time so far, so the samples are spread in
        proportion to job time, as the spells that slow the jobs are.
        """
        self.import_time()  # writes the bytecode caches
        self.reference_time()
        every = max(1, len(jobs) // SETUP_SAMPLES)
        setup: list[float] = []
        start = time.perf_counter()
        refs = [self.reference_time()]
        before: list[int] = []  # reference samples taken before each job
        results = []
        job_s = 0.0
        for i, job in enumerate(jobs):
            if i % every == 0:
                setup.append(self.import_time())
            before.append(len(refs))
            results.append(self.run_job(job, cache, None))
            job_s += results[-1].latency_s
            if sum(refs) < REF_SHARE * job_s:
                refs.append(self.reference_time())
        wall = time.perf_counter() - start - sum(setup) - sum(refs)
        for r, k in zip(results, before):
            r.scale = REF_NOMINAL_S / statistics.mean(refs[max(0, k - REF_NEIGHBOURS):k + REF_NEIGHBOURS])
        return wall, results, setup, refs

    def run_traced(self, jobs, caches: tuple[Path, Path] | tuple[None, None]):
        """Run each job untraced, then traced, against separate caches.

        Returns (traced minus untraced job time, all results, layer totals).
        Alternating the two keeps slow spells of a shared machine from
        landing on one side only.
        """
        layers = LayerTotals()
        plain, traced = [], []
        for job in jobs:
            plain.append(self.run_job(job, caches[0], None))
            traced.append(self.run_job(job, caches[1], layers))
        overhead = sum(r.latency_s for r in traced) - sum(r.latency_s for r in plain)
        return overhead, plain + traced, layers


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency) of the highest percentile with ten jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(scale: float, setup_s: float, wall: float, results: list[JobResult]) -> dict:
    """The end-to-end metrics at reference speed: set-up and wall times
    multiplied by the run's speed factor `scale`, job latencies by their own."""
    measured = [r.latency_s for r in results]
    latencies = [r.latency_s * r.scale for r in results]
    failed = sum(r.failure is not None for r in results)
    pct, tail_s = tail(latencies)
    print(f"job_tail_s is p{pct:.1f} of {len(latencies)} job latencies")
    print(f"measured: setup_s {setup_s:.6g}  wall_s {wall:.6g}  job_p50_s {statistics.median(measured):.6g}  "
          f"job_tail_s {tail(measured)[1]:.6g}; run speed factor {scale:.6g}")
    return {
        "setup_s": (setup_s * scale, "s"),
        "wall_s": (wall * scale, "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(r.max_rss_kb for r in results) / 1024.0, "MB"),
        "ok_ratio": ((len(results) - failed) / len(results), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/veycalc/cli.py", "tests/golden") if not (root / p).exists()]
    if missing:
        print(f"run.py: not the root of a veycalc checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    references = json.loads((BENCH_DIR / "references.json").read_text())
    workload = WORKLOADS[args.workload]
    jobs = job_list(workload, args.seed, args.seconds)

    workdir = root / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(root, workdir, references, time.monotonic() + RUN_DEADLINE_S)
        if args.trace:
            caches = (workdir / "cache", workdir / "traced-cache") if workload.shared_cache else (None, None)
            overhead, results, layers = runner.run_traced(jobs, caches)
            metrics = layers.metrics(overhead)
        else:
            cache = workdir / "cache" if workload.shared_cache else None
            wall, results, setup, refs = runner.run_list(jobs, cache)
            print(f"speedref.py: {len(refs)} samples, mean {statistics.mean(refs):.6g} s")
            metrics = end_to_end(REF_NOMINAL_S / statistics.mean(refs), statistics.median(setup), wall, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    failed = sum(r.failure is not None for r in results)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
